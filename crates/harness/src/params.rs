//! Shared experiment parameterization.
//!
//! The paper scales its simulations down from the petabyte target: "we
//! have run our simulations on much smaller file systems with less MDS
//! memory, somewhat fewer clients and appropriately throttled I/O rates"
//! (§5.1). These builders encode that scaled-down regime; `Quick` shrinks
//! it further for CI and Criterion.

use dynmds_core::{SimConfig, Simulation};
use dynmds_event::SimDuration;
use dynmds_namespace::{NamespaceSpec, Snapshot};
use dynmds_partition::StrategyKind;
use dynmds_workload::{GeneralWorkload, WorkloadConfig};

/// Experiment sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentScale {
    /// CI / Criterion sizing: seconds per figure.
    Quick,
    /// Paper-shaped sizing: minutes for the whole suite.
    Full,
}

impl ExperimentScale {
    /// Clients per metadata server.
    pub fn clients_per_mds(self) -> u32 {
        match self {
            ExperimentScale::Quick => 6,
            ExperimentScale::Full => 10,
        }
    }

    /// Metadata items per server in the generated snapshot.
    pub fn items_per_mds(self) -> u64 {
        match self {
            ExperimentScale::Quick => 1_500,
            ExperimentScale::Full => 4_000,
        }
    }

    /// Fixed per-MDS cache capacity for the scaling experiments ("fixing
    /// MDS memory and scaling the entire system").
    pub fn cache_capacity(self) -> usize {
        match self {
            ExperimentScale::Quick => 500,
            ExperimentScale::Full => 1_200,
        }
    }

    /// Warm-up before measurement.
    pub fn warmup(self) -> SimDuration {
        match self {
            ExperimentScale::Quick => SimDuration::from_secs(3),
            ExperimentScale::Full => SimDuration::from_secs(8),
        }
    }

    /// Measured span.
    pub fn measure(self) -> SimDuration {
        match self {
            ExperimentScale::Quick => SimDuration::from_secs(6),
            ExperimentScale::Full => SimDuration::from_secs(20),
        }
    }

    /// Cluster sizes for the Figure 2/3 sweep.
    pub fn cluster_sizes(self) -> Vec<u16> {
        match self {
            ExperimentScale::Quick => vec![4, 8, 12],
            ExperimentScale::Full => vec![5, 10, 15, 20, 25, 30, 40, 50],
        }
    }

    /// Relative cache sizes for the Figure 4 sweep.
    pub fn cache_fractions(self) -> Vec<f64> {
        match self {
            ExperimentScale::Quick => vec![0.05, 0.2, 0.5],
            ExperimentScale::Full => vec![0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.6],
        }
    }
}

/// Builds the scaled-system config for a Figure 2/3 point: file system,
/// client count and OSD pool all grow with the cluster; per-MDS memory is
/// fixed.
pub fn scaling_config(strategy: StrategyKind, n_mds: u16, scale: ExperimentScale) -> SimConfig {
    let mut cfg = SimConfig::small(strategy);
    cfg.n_mds = n_mds;
    cfg.n_clients = scale.clients_per_mds() * n_mds as u32;
    cfg.cache_capacity = scale.cache_capacity();
    cfg.journal_capacity = scale.cache_capacity() * 4;
    cfg.n_osds = (n_mds as usize * 2).max(8);
    // Identical to the old `== DynamicSubtree` check for the five paper
    // strategies; additionally keeps the balancer on for the elastic
    // strategy, whose scale-outs rely on it to migrate load onto newly
    // activated nodes.
    cfg.traffic_control = strategy.rebalances();
    cfg.balancing = strategy.rebalances();
    cfg.seed = 1000 + n_mds as u64;
    cfg
}

/// Generates the snapshot matching a config: one home per client plus
/// shared trees, sized to `items_per_mds × n_mds`.
pub fn scaling_snapshot(cfg: &SimConfig, scale: ExperimentScale) -> Snapshot {
    NamespaceSpec::with_target_items(
        cfg.n_clients as usize,
        scale.items_per_mds() * cfg.n_mds as u64,
        cfg.seed ^ 0xF5,
    )
    .generate()
}

/// The standard general-purpose workload over a snapshot.
pub fn general_workload(cfg: &SimConfig, snap: &Snapshot) -> Box<GeneralWorkload> {
    Box::new(GeneralWorkload::new(
        WorkloadConfig { seed: cfg.seed ^ 0x17, ..Default::default() },
        cfg.n_clients as usize,
        &snap.user_homes,
        &snap.shared_roots,
        &snap.ns,
    ))
}

/// Builds and runs one steady-state simulation, returning its report.
pub fn run_steady(cfg: SimConfig, scale: ExperimentScale) -> dynmds_core::SimReport {
    let snap = scaling_snapshot(&cfg, scale);
    let wl = general_workload(&cfg, &snap);
    let sim = Simulation::new(cfg, snap, wl);
    sim.run_measured(scale.warmup(), scale.measure())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_config_scales_with_cluster() {
        let a = scaling_config(StrategyKind::DynamicSubtree, 5, ExperimentScale::Quick);
        let b = scaling_config(StrategyKind::DynamicSubtree, 10, ExperimentScale::Quick);
        assert_eq!(b.n_clients, 2 * a.n_clients);
        assert_eq!(a.cache_capacity, b.cache_capacity, "per-MDS memory fixed");
        assert!(b.n_osds > a.n_osds);
    }

    #[test]
    fn snapshot_size_tracks_cluster() {
        let cfg = scaling_config(StrategyKind::StaticSubtree, 4, ExperimentScale::Quick);
        let snap = scaling_snapshot(&cfg, ExperimentScale::Quick);
        let total = snap.ns.total_items();
        assert!((3_000..12_000).contains(&total), "4 × 1500 target, got {total}");
    }

    #[test]
    fn quick_scale_is_smaller_everywhere() {
        let q = ExperimentScale::Quick;
        let f = ExperimentScale::Full;
        assert!(q.clients_per_mds() < f.clients_per_mds());
        assert!(q.items_per_mds() < f.items_per_mds());
        assert!(q.measure() < f.measure());
        assert!(q.cluster_sizes().len() < f.cluster_sizes().len());
    }
}
