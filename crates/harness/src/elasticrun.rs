//! Elastic provisioning on a diurnal load shape (ROADMAP item 3).
//!
//! λFS (ASPLOS'24) argues that a metadata service whose node count tracks
//! demand beats any statically provisioned cluster on cost at comparable
//! latency; CFS supplies the day/night traffic shapes where the gap is
//! widest. This experiment puts the sixth strategy
//! (`ElasticSubtree`) head to head with the five static ones: every
//! strategy drives the same diurnal workload over the same namespace on
//! an [`ELASTIC_CLUSTER`]-node pool, but the elastic run keeps only a
//! load-determined subset of the pool active (never fewer than
//! [`ELASTIC_MIN_NODES`]) and pays cold-start/handoff costs at each
//! transition.
//!
//! The figure of merit is **provisioned node-seconds** — capacity paid
//! for over the measurement window — against the p99 completion latency:
//! the elastic row should sit well below `n_mds × span` node-seconds
//! while keeping p99 in the same latency bucket as the best static row.
//!
//! Runs use the sharded engine, so the CSV is byte-identical across
//! reruns, shard counts and thread counts at a fixed seed.

use dynmds_core::{ShardReport, ShardedSimulation, SimConfig};
use dynmds_event::SimDuration;
use dynmds_metrics::Table;
use dynmds_partition::StrategyKind;
use dynmds_workload::{DiurnalWorkload, GeneralWorkload, WorkloadConfig};

use crate::params::{scaling_config, scaling_snapshot, ExperimentScale};

/// Provisioned pool size: static strategies keep all of it busy; the
/// elastic strategy draws on it as the diurnal cycle demands.
pub const ELASTIC_CLUSTER: u16 = 8;

/// Floor for the elastic run's live population.
pub const ELASTIC_MIN_NODES: u16 = 2;

/// Day/night parameters of the diurnal envelope for one scale.
fn diurnal_shape(scale: ExperimentScale) -> (SimDuration, f64) {
    match scale {
        // Two full cycles inside the 6 s measurement window.
        ExperimentScale::Quick => (SimDuration::from_secs(4), 150.0),
        // Three cycles inside the 20 s window.
        ExperimentScale::Full => (SimDuration::from_secs(8), 150.0),
    }
}

/// Config for one elasticity run. All strategies share sizing and the
/// tightened heartbeat (the controller and the balancer both react at
/// heartbeat granularity, and a compressed day needs a compressed
/// control loop); only the elastic row enables the controller.
pub fn elasticity_config(strategy: StrategyKind, scale: ExperimentScale) -> SimConfig {
    let mut cfg = scaling_config(strategy, ELASTIC_CLUSTER, scale);
    cfg.heartbeat = SimDuration::from_millis(500);
    if strategy == StrategyKind::ElasticSubtree {
        cfg.elastic.min_nodes = ELASTIC_MIN_NODES;
        // Watermarks sit between the two observed plateaus of the diurnal
        // cycle on this sizing: daytime load per live node is
        // server-saturated (hundreds to thousands of weighted ops/s),
        // the ×150 night trough is think-limited far below it.
        cfg.elastic.high_load_per_s = 500.0;
        cfg.elastic.low_load_per_s = 250.0;
        // React after one hot heartbeat and allow back-to-back
        // transitions: the compressed day leaves no room for a long
        // sustain window, and the morning ramp needs the pool to grow
        // faster than one node per two heartbeats or the p99 pays for it.
        cfg.elastic.sustain = 1;
        cfg.elastic.cooldown_heartbeats = 0;
    }
    cfg
}

/// One strategy's outcome on the diurnal workload.
#[derive(Clone, Debug)]
pub struct ElasticityPoint {
    /// Strategy label.
    pub label: String,
    /// The engine's (shard-count-invariant) report.
    pub report: ShardReport,
}

impl ElasticityPoint {
    /// Provisioned capacity consumed over the measurement window.
    pub fn node_secs(&self) -> f64 {
        self.report.provisioned_node_secs()
    }

    /// Completed operations per provisioned node-second — the cost
    /// efficiency the elastic controller is supposed to win on.
    pub fn ops_per_node_sec(&self) -> f64 {
        self.report.ops as f64 / self.node_secs().max(1e-9)
    }
}

/// Runs the five static strategies plus the elastic one on the shared
/// diurnal workload. Strategies run sequentially: each sharded engine
/// already fans out across the worker pool.
pub fn run_elasticity(
    scale: ExperimentScale,
    shards: usize,
    threads: Option<usize>,
) -> Vec<ElasticityPoint> {
    crate::parallel::install_shard_driver();
    let mut strategies: Vec<StrategyKind> = StrategyKind::ALL.to_vec();
    strategies.push(StrategyKind::ElasticSubtree);
    strategies
        .into_iter()
        .map(|strategy| {
            eprintln!("elasticity: {} on the diurnal workload...", strategy.label());
            let cfg = elasticity_config(strategy, scale);
            let report = run_diurnal(cfg, scale, shards, threads);
            ElasticityPoint { label: strategy.to_string(), report }
        })
        .collect()
}

/// One row of the elasticity figure: `cfg` (normally
/// [`elasticity_config`]'s) drives the diurnal workload over its scaling
/// snapshot through warm-up and measurement.
pub fn run_diurnal(
    cfg: SimConfig,
    scale: ExperimentScale,
    shards: usize,
    threads: Option<usize>,
) -> ShardReport {
    let (period, night_mult) = diurnal_shape(scale);
    let snap = scaling_snapshot(&cfg, scale);
    let n_clients = cfg.n_clients as usize;
    let homes = snap.user_homes.clone();
    let shared = snap.shared_roots.clone();
    let wl_seed = cfg.seed ^ 0x17;
    let sim = ShardedSimulation::new(cfg, shards, threads, snap, &move |ns| {
        Box::new(DiurnalWorkload::new(
            GeneralWorkload::new(
                WorkloadConfig { seed: wl_seed, ..Default::default() },
                n_clients,
                &homes,
                &shared,
                ns,
            ),
            period,
            night_mult,
        ))
    });
    sim.run_measured(scale.warmup(), scale.measure())
}

/// Renders the elasticity table (and CSV): cost against latency per
/// strategy, plus the controller's activity for the elastic row.
pub fn elasticity_table(points: &[ElasticityPoint]) -> Table {
    let mut t = Table::new(
        "Elastic vs static provisioning on a diurnal workload",
        &[
            "strategy",
            "node_secs",
            "ops",
            "ops_per_node_sec",
            "lat_mean_us",
            "lat_p50_us",
            "lat_p99_us",
            "failed",
            "migrations",
            "scale_outs",
            "scale_ins",
        ],
    );
    for p in points {
        let r = &p.report;
        t.row(&[
            p.label.clone(),
            format!("{:.1}", p.node_secs()),
            r.ops.to_string(),
            format!("{:.1}", p.ops_per_node_sec()),
            format!("{:.1}", r.latency.mean_us()),
            r.latency.quantile_us(0.50).to_string(),
            r.latency.quantile_us(0.99).to_string(),
            r.failed.to_string(),
            r.migrations.to_string(),
            r.scale_outs.to_string(),
            r.scale_ins.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_beats_static_on_node_seconds_at_comparable_p99() {
        let points = run_elasticity(ExperimentScale::Quick, 2, Some(1));
        assert_eq!(points.len(), StrategyKind::ALL.len() + 1);
        let elastic = points.last().unwrap();
        assert_eq!(elastic.label, StrategyKind::ElasticSubtree.to_string());
        assert!(
            elastic.report.scale_outs >= 1 && elastic.report.scale_ins >= 1,
            "controller never acted: {} outs, {} ins",
            elastic.report.scale_outs,
            elastic.report.scale_ins
        );
        let statics = &points[..points.len() - 1];
        let cheapest_static = statics.iter().map(|p| p.node_secs()).fold(f64::INFINITY, f64::min);
        assert!(
            elastic.node_secs() < cheapest_static,
            "elastic used {:.1} node-secs, static floor {:.1}",
            elastic.node_secs(),
            cheapest_static
        );
        // "Comparable" at bucket resolution: p99 within one power-of-two
        // bucket of the best static subtree strategy.
        let best_static_p99 =
            statics.iter().map(|p| p.report.latency.quantile_us(0.99)).min().unwrap();
        let elastic_p99 = elastic.report.latency.quantile_us(0.99);
        assert!(
            elastic_p99 <= best_static_p99.max(1) * 4,
            "elastic p99 {elastic_p99}µs too far above best static {best_static_p99}µs"
        );
    }

    #[test]
    fn elasticity_csv_is_invariant_across_shard_counts() {
        let a = elasticity_table(&run_elasticity(ExperimentScale::Quick, 1, Some(1))).to_csv();
        let b = elasticity_table(&run_elasticity(ExperimentScale::Quick, 4, Some(2))).to_csv();
        assert_eq!(a, b, "CSV must be shard-count- and thread-count-invariant");
    }
}
