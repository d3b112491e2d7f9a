//! Availability under node churn.
//!
//! The paper's §4.6 storage design exists to make failover cheap; this
//! experiment measures what clients actually experience when servers die
//! and return mid-run. Each strategy runs the standard steady-state
//! workload on an [`AVAIL_CLUSTER`]-node cluster while a fault schedule
//! crashes and recovers nodes, and we report throughput under churn,
//! failover timeouts, retry traffic, abandoned operations, unavailability
//! windows (sampling bins whose cluster throughput collapsed) and the
//! mean time for throughput to recover after each crash.
//!
//! Everything is deterministic: the schedule is data, the retry jitter
//! comes from a dedicated seeded stream, and two runs with the same seed
//! and schedule produce byte-identical CSVs.

use dynmds_core::{FaultEvent, FaultSchedule, Simulation};
use dynmds_event::SimTime;
use dynmds_metrics::Table;
use dynmds_namespace::MdsId;
use dynmds_partition::StrategyKind;

use crate::parallel::parallel_map;
use crate::params::{general_workload, scaling_config, scaling_snapshot, ExperimentScale};

/// Cluster size for the availability runs.
pub const AVAIL_CLUSTER: u16 = 8;

/// The default scripted churn: two (Quick) or three (Full) staggered
/// single-node outages inside the measurement window, sized so the
/// cluster is degraded for roughly a quarter of it.
pub fn default_schedule(scale: ExperimentScale) -> FaultSchedule {
    let crash = |at_ms: u64, mds: u16| FaultEvent::Crash {
        at: SimTime::from_millis(at_ms),
        mds: MdsId(mds),
    };
    let recover = |at_ms: u64, mds: u16| FaultEvent::Recover {
        at: SimTime::from_millis(at_ms),
        mds: MdsId(mds),
    };
    let events = match scale {
        // Warmup 3s + measure 6s: outages at 4s and 6.5s, 1.5s each.
        ExperimentScale::Quick => {
            vec![crash(4_000, 1), recover(5_500, 1), crash(6_500, 2), recover(8_000, 2)]
        }
        // Warmup 8s + measure 20s: outages at 10s, 16s and 22s, 3s each.
        ExperimentScale::Full => vec![
            crash(10_000, 1),
            recover(13_000, 1),
            crash(16_000, 2),
            recover(19_000, 2),
            crash(22_000, 3),
            recover(25_000, 3),
        ],
    };
    FaultSchedule { events, churn: None }
}

/// One strategy's behaviour under the churn schedule.
#[derive(Clone, Debug)]
pub struct AvailabilityPoint {
    /// Strategy label.
    pub label: String,
    /// Cluster-wide completed throughput over the window, ops/s.
    pub ops_s: f64,
    /// Requests that timed out against a dead node.
    pub failover_timeouts: u64,
    /// Client retries driven (timeouts + lost messages).
    pub retries: u64,
    /// Operations abandoned after the retry budget.
    pub gave_up: u64,
    /// Node failures injected over the whole run.
    pub failures: u64,
    /// Node recoveries over the whole run.
    pub recoveries: u64,
    /// Sampling bins whose cluster throughput fell below half the median
    /// bin (unavailability windows).
    pub unavail_bins: usize,
    /// Mean time from each in-window crash until cluster throughput was
    /// back at ≥90% of the median bin, seconds.
    pub ttr_s: f64,
}

/// Runs every strategy under `schedule` and measures availability.
pub fn run_availability(
    scale: ExperimentScale,
    schedule: &FaultSchedule,
) -> Vec<AvailabilityPoint> {
    let settings: Vec<StrategyKind> = StrategyKind::ALL.to_vec();
    parallel_map(&settings, |&strategy| {
        let mut cfg = scaling_config(strategy, AVAIL_CLUSTER, scale);
        cfg.faults = schedule.clone();
        let bin = cfg.sample_every;
        let crash_times: Vec<SimTime> = cfg
            .faults
            .expanded(cfg.n_mds as usize)
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Crash { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        let snap = scaling_snapshot(&cfg, scale);
        let wl = general_workload(&cfg, &snap);
        let mut sim = Simulation::new(cfg, snap, wl);
        let start = SimTime::ZERO + scale.warmup();
        sim.run_until(start);
        sim.cluster_mut().reset_measurement(start);
        sim.run_until(start + scale.measure());
        let k = sim.cluster().counters;
        let (timeouts, retries, gave_up, failures, recoveries) =
            (k.failover_timeouts, k.retries, k.gave_up, k.failures, k.recoveries);
        let report = sim.finish();

        // Per-bin cluster throughput over the measurement window.
        let bins: Vec<(SimTime, f64)> =
            report.reply_forward_rates(bin).into_iter().map(|(t, served, _)| (t, served)).collect();
        let mut sorted: Vec<f64> = bins.iter().map(|&(_, v)| v).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        let unavail_bins = bins.iter().filter(|&&(_, v)| v < 0.5 * median).count();

        // Time-to-recover per in-window crash: first bin at or after the
        // crash whose throughput is back at ≥90% of the median.
        let window_end = report.measure_end;
        let mut ttr_sum = 0.0;
        let mut ttr_n = 0u32;
        for &crash in &crash_times {
            if crash < report.measure_start || crash >= window_end {
                continue;
            }
            let back = bins
                .iter()
                .find(|&&(t, v)| t + bin > crash && v >= 0.9 * median)
                .map(|&(t, _)| (t + bin).max(crash))
                .unwrap_or(window_end);
            ttr_sum += back.saturating_since(crash).as_secs_f64();
            ttr_n += 1;
        }
        let ttr_s = if ttr_n > 0 { ttr_sum / ttr_n as f64 } else { 0.0 };

        AvailabilityPoint {
            label: strategy.to_string(),
            ops_s: report.total_served() as f64 / report.span_secs().max(1e-9),
            failover_timeouts: timeouts,
            retries,
            gave_up,
            failures,
            recoveries,
            unavail_bins,
            ttr_s,
        }
    })
}

/// Renders the availability table.
pub fn availability_table(points: &[AvailabilityPoint]) -> Table {
    let mut t = Table::new(
        "Availability under node churn",
        &[
            "strategy",
            "ops/s",
            "timeouts",
            "retries",
            "gave_up",
            "failures",
            "recoveries",
            "unavail_bins",
            "ttr_s",
        ],
    );
    for p in points {
        t.row(&[
            p.label.clone(),
            format!("{:.0}", p.ops_s),
            p.failover_timeouts.to_string(),
            p.retries.to_string(),
            p.gave_up.to_string(),
            p.failures.to_string(),
            p.recoveries.to_string(),
            p.unavail_bins.to_string(),
            format!("{:.2}", p.ttr_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_fits_the_window() {
        for scale in [ExperimentScale::Quick, ExperimentScale::Full] {
            let s = default_schedule(scale);
            assert!(!s.is_empty());
            let end = SimTime::ZERO + scale.warmup() + scale.measure();
            for e in &s.events {
                match *e {
                    FaultEvent::Crash { at, mds } | FaultEvent::Recover { at, mds } => {
                        assert!(at > SimTime::ZERO + scale.warmup(), "fault during warmup");
                        assert!(at <= end, "fault past the end of the run");
                        assert!(mds.0 > 0 && mds.0 < AVAIL_CLUSTER, "node in range");
                    }
                    ref other => panic!("default schedule only crashes/recovers: {other:?}"),
                }
            }
        }
    }
}
