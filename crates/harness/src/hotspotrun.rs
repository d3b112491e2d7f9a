//! Hotspot absorption: proxy tier vs replication+redirect (ROADMAP item 4).
//!
//! The paper's traffic control (§4.4) replicates a *read*-hot item across
//! the cluster and redirects clients, but it has no answer for
//! write-dominated hotspots: a create storm or rename storm serializes at
//! the single authority no matter how many replicas advertise the item.
//! The proxy tier attacks exactly that gap — hot writes are coalesced at
//! the proxy and flushed to the authority as one merged delta per
//! heartbeat, while hot reads are absorbed from the proxy cache.
//!
//! This experiment drives four adversarial hotspot shapes through the
//! same cluster twice — once with replication+redirect (the paper's
//! mechanism, proxies off) and once with the proxy tier (redirect off) —
//! and compares completion latency. The proxy should win decisively on
//! the write storms (lower p99 bucket) and stay comparable on the
//! read-side shapes.
//!
//! Runs use the sharded engine, so the CSV is byte-identical across
//! reruns, shard counts and thread counts at a fixed seed.

use dynmds_core::{ShardReport, ShardedSimulation, SimConfig};
use dynmds_event::SimDuration;
use dynmds_metrics::Table;
use dynmds_partition::StrategyKind;
use dynmds_workload::{CreateStorm, DeepPathHerd, FlashCrowd, RenameStorm};

use crate::params::{scaling_config, scaling_snapshot, ExperimentScale};

/// Cluster size for every hotspot run.
pub const HOTSPOT_CLUSTER: u16 = 8;

/// Proxies in front of the cluster in proxy mode.
pub const HOTSPOT_PROXIES: u16 = 2;

/// The four adversarial hotspot shapes.
pub const HOTSPOT_SCENARIOS: [&str; 4] =
    ["flash_crowd", "create_storm", "rename_storm", "deep_herd"];

/// The two mitigation modes under comparison.
pub const HOTSPOT_MODES: [&str; 2] = ["redirect", "proxy"];

/// Config for one hotspot run. Both modes share sizing; they differ only
/// in which mitigation is armed. Balancing is off so the hotspot cannot
/// migrate away mid-run — the experiment isolates the two absorption
/// mechanisms, not the balancer.
pub fn hotspot_config(mode: &str, scale: ExperimentScale) -> SimConfig {
    let mut cfg = scaling_config(StrategyKind::DynamicSubtree, HOTSPOT_CLUSTER, scale);
    cfg.heartbeat = SimDuration::from_millis(500);
    cfg.balancing = false;
    match mode {
        "redirect" => {
            cfg.traffic_control = true;
        }
        "proxy" => {
            cfg.traffic_control = false;
            cfg.proxy.count = HOTSPOT_PROXIES;
            // The storms concentrate the whole client population on a
            // handful of items; a low threshold lets the detector commit
            // within the first heartbeats of the measurement window.
            cfg.proxy.hot_threshold = 8.0;
        }
        other => panic!("unknown hotspot mode `{other}`"),
    }
    cfg
}

/// One (scenario, mode) outcome.
#[derive(Clone, Debug)]
pub struct HotspotPoint {
    /// Hotspot shape label (one of [`HOTSPOT_SCENARIOS`]).
    pub scenario: &'static str,
    /// Mitigation label (one of [`HOTSPOT_MODES`]).
    pub mode: &'static str,
    /// The engine's (shard-count-invariant) report.
    pub report: ShardReport,
}

/// Runs every scenario under both modes. Runs are sequential: each
/// sharded engine already fans out across the worker pool.
pub fn run_hotspot(
    scale: ExperimentScale,
    shards: usize,
    threads: Option<usize>,
) -> Vec<HotspotPoint> {
    crate::parallel::install_shard_driver();
    let mut points = Vec::new();
    for scenario in HOTSPOT_SCENARIOS {
        for mode in HOTSPOT_MODES {
            eprintln!("hotspot: {scenario} under {mode}...");
            let cfg = hotspot_config(mode, scale);
            let snap = scaling_snapshot(&cfg, scale);
            let n_clients = cfg.n_clients as usize;
            let shared = snap.shared_roots.clone();
            let sim =
                ShardedSimulation::new(cfg, shards, threads, snap, &move |ns| match scenario {
                    "flash_crowd" => {
                        let target =
                            ns.walk(ns.root()).find(|&i| !ns.is_dir(i)).expect("a file exists");
                        Box::new(FlashCrowd::new(target, n_clients))
                    }
                    "create_storm" => {
                        let dir = shared.first().copied().unwrap_or_else(|| ns.root());
                        Box::new(CreateStorm::new(dir, n_clients))
                    }
                    "rename_storm" => Box::new(RenameStorm::new(
                        if shared.is_empty() { vec![ns.root()] } else { shared.clone() },
                        n_clients,
                    )),
                    "deep_herd" => {
                        Box::new(DeepPathHerd::new(DeepPathHerd::deepest_item(ns), n_clients))
                    }
                    other => panic!("unknown hotspot scenario `{other}`"),
                });
            let report = sim.run_measured(scale.warmup(), scale.measure());
            points.push(HotspotPoint { scenario, mode, report });
        }
    }
    points
}

/// Renders the hotspot table (and CSV): latency per (scenario, mode)
/// plus the proxy tier's activity counters.
pub fn hotspot_table(points: &[HotspotPoint]) -> Table {
    let mut t = Table::new(
        "Hotspot absorption: proxy tier vs replication+redirect",
        &[
            "scenario",
            "mode",
            "ops",
            "lat_mean_us",
            "lat_p50_us",
            "lat_p99_us",
            "failed",
            "absorbed",
            "coalesced",
            "forwarded",
            "flushes",
        ],
    );
    for p in points {
        let r = &p.report;
        t.row(&[
            p.scenario.to_string(),
            p.mode.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.latency.mean_us()),
            r.latency.quantile_us(0.50).to_string(),
            r.latency.quantile_us(0.99).to_string(),
            r.failed.to_string(),
            r.proxy.read_absorbs.to_string(),
            r.proxy.writes_coalesced.to_string(),
            r.proxy.forwarded.to_string(),
            r.proxy.flush_batches.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point<'a>(points: &'a [HotspotPoint], scenario: &str, mode: &str) -> &'a HotspotPoint {
        points
            .iter()
            .find(|p| p.scenario == scenario && p.mode == mode)
            .expect("every (scenario, mode) pair ran")
    }

    #[test]
    fn proxy_beats_redirect_on_create_storm_p99() {
        let points = run_hotspot(ExperimentScale::Quick, 2, Some(1));
        assert_eq!(points.len(), HOTSPOT_SCENARIOS.len() * HOTSPOT_MODES.len());
        let redirect = point(&points, "create_storm", "redirect");
        let proxy = point(&points, "create_storm", "proxy");
        assert!(
            proxy.report.proxy.read_absorbs + proxy.report.proxy.writes_coalesced > 0,
            "proxy mode never engaged the tier"
        );
        assert_eq!(redirect.report.proxy.read_absorbs, 0, "redirect mode must not touch the tier");
        let (rp99, pp99) =
            (redirect.report.latency.quantile_us(0.99), proxy.report.latency.quantile_us(0.99));
        // Redirect never replicates write-hot items, so the create storm
        // serializes at one authority; the proxy acks from coalescing and
        // collapses the tail by whole buckets.
        assert!(pp99 < rp99, "proxy p99 {pp99}µs not below redirect p99 {rp99}µs");
    }

    #[test]
    fn hotspot_csv_is_invariant_across_shard_counts() {
        let a = hotspot_table(&run_hotspot(ExperimentScale::Quick, 1, Some(1))).to_csv();
        let b = hotspot_table(&run_hotspot(ExperimentScale::Quick, 4, Some(2))).to_csv();
        assert_eq!(a, b, "CSV must be shard-count- and thread-count-invariant");
    }
}
