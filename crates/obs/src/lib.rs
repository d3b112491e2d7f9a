//! Deterministic observability for the dynmds simulator.
//!
//! The paper's whole argument is made through measurements of MDS
//! behaviour — popularity counters, load imbalance, cache hit rates,
//! journal churn (§4.1, §5) — so the simulator is operated through its
//! telemetry too. This crate provides three instruments:
//!
//! * [`Registry`] — named metrics, recorded finished at export from the
//!   engine's own counts, each with an explicit shape: a cluster-wide
//!   scalar, one slot per MDS, one slot per proxy, or the integer
//!   latency histogram [`LatencyAgg`];
//! * [`SpanRecorder`] — scoped spans tracing the op lifecycle (client
//!   dispatch → traverse → cache probe → partition authority →
//!   storage/journal I/O → reply) into a bounded ring buffer;
//! * [`SnapshotSeries`] — periodic per-MDS time-series rows (load, cache
//!   occupancy split prefix-vs-target, journal depth, delegation count).
//!
//! **Determinism rules.** Every recorded value is an integer stamped with
//! the *simulation* clock ([`dynmds_event::SimTime`] microseconds); no
//! wall clock, no floats, no hash-map iteration order reaches an export.
//! Two runs with the same seed therefore produce byte-identical JSONL.
//!
//! **Cost rules.** Metrics cost nothing while the run goes: they are
//! built once, at export, from counts the engine keeps anyway. Nothing
//! here allocates per operation except span recording, which only runs
//! when tracing is explicitly enabled. The embedding layer (dynmds-core)
//! keeps its disabled path to a single branch on an enabled flag.

pub mod latency;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use latency::LatencyAgg;
pub use registry::Registry;
pub use snapshot::SnapshotSeries;
pub use span::{SpanRecorder, SpanStage};

/// Observability switches carried inside a simulation config.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Enable the metrics registry and periodic snapshots.
    pub metrics: bool,
    /// Enable per-op lifecycle spans (implies `metrics`), keeping the
    /// last [`DEFAULT_TRACE_CAPACITY`] completed spans.
    pub trace: bool,
}

/// Completed spans kept in the span ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl ObsConfig {
    /// Metrics + snapshots on, tracing off.
    pub fn metrics_only() -> Self {
        ObsConfig { metrics: true, trace: false }
    }

    /// Everything on.
    pub fn full() -> Self {
        ObsConfig { metrics: true, trace: true }
    }

    /// Whether any instrument is live.
    pub fn enabled(&self) -> bool {
        self.metrics || self.trace
    }
}

/// Appends a JSON-escaped copy of `s` to `out` (the subset the simulator
/// needs: quotes, backslashes, and control characters).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_off() {
        let c = ObsConfig::default();
        assert!(!c.enabled());
        assert!(ObsConfig::metrics_only().enabled());
        assert!(ObsConfig::full().trace);
    }

    #[test]
    fn json_strings_escape_specials() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000ad\"");
    }
}
