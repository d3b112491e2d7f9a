//! Design-choice ablations.
//!
//! **Table A — embedded inodes / directory prefetch (§4.5).** The paper
//! attributes the DirHash-vs-FileHash gap to inode embedding: "the
//! benefits of this approach are best seen by contrasting the performance
//! of the directory and file hashing strategies, which are otherwise
//! identical." We isolate the mechanism directly: run DirHash with its
//! normal embedded-directory layout, then again with the layout forced to
//! a per-inode table (placement identical; only prefetch changes).
//!
//! **Table B — balancing vs total throughput (§5.3.2).** "A perfectly
//! balanced distribution of load may not be ideal … a perfect load balance
//! … tends to ensure that all nodes achieve equally mediocre performance."
//! We run DynamicSubtree with the balancer on and off under the static
//! general-purpose workload and report total throughput and per-node
//! spread.

use dynmds_metrics::Table;
use dynmds_partition::StrategyKind;

use crate::parallel::parallel_map;
use crate::params::{run_steady, scaling_config, ExperimentScale};

/// Cluster size for the ablations.
pub const ABLATE_CLUSTER: u16 = 8;

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct AblationPoint {
    /// Setting label.
    pub label: String,
    /// Average per-MDS throughput, ops/s.
    pub throughput: f64,
    /// Cluster-wide hit rate.
    pub hit_rate: f64,
    /// Disk fetches in the measurement window.
    pub disk_fetches: u64,
    /// Per-node served min and max (imbalance evidence).
    pub served_min: u64,
    /// See `served_min`.
    pub served_max: u64,
}

fn point(label: &str, report: &dynmds_core::SimReport) -> AblationPoint {
    AblationPoint {
        label: label.to_string(),
        throughput: report.avg_mds_throughput(),
        hit_rate: report.overall_hit_rate(),
        disk_fetches: report.nodes.iter().map(|n| n.disk_fetches).sum(),
        served_min: report.nodes.iter().map(|n| n.served).min().unwrap_or(0),
        served_max: report.nodes.iter().map(|n| n.served).max().unwrap_or(0),
    }
}

/// Table A: embedded-directory prefetch on/off for DirHash (plus FileHash
/// as the paper's reference point).
pub fn run_ablate_prefetch(scale: ExperimentScale) -> Vec<AblationPoint> {
    let settings: Vec<(&str, StrategyKind, bool)> = vec![
        ("DirHash+embedded", StrategyKind::DirHash, false),
        ("DirHash+inode-table", StrategyKind::DirHash, true),
        ("FileHash", StrategyKind::FileHash, false),
    ];
    parallel_map(&settings, |&(label, strategy, force_table)| {
        let mut cfg = scaling_config(strategy, ABLATE_CLUSTER, scale);
        cfg.force_inode_table = force_table;
        let report = run_steady(cfg, scale);
        point(label, &report)
    })
}

/// Table B: load balancing on/off for DynamicSubtree under a static
/// workload.
pub fn run_ablate_balance(scale: ExperimentScale) -> Vec<AblationPoint> {
    let settings: Vec<(&str, bool)> = vec![("balancing-on", true), ("balancing-off", false)];
    parallel_map(&settings, |&(label, balancing)| {
        let mut cfg = scaling_config(StrategyKind::DynamicSubtree, ABLATE_CLUSTER, scale);
        cfg.balancing = balancing;
        let report = run_steady(cfg, scale);
        point(label, &report)
    })
}

/// Renders an ablation table.
pub fn ablation_table(title: &str, points: &[AblationPoint]) -> Table {
    let mut t = Table::new(
        title,
        &["setting", "ops/s", "hit%", "disk_fetches", "served_min", "served_max"],
    );
    for p in points {
        t.row(&[
            p.label.clone(),
            format!("{:.0}", p.throughput),
            format!("{:.1}", p.hit_rate * 100.0),
            p.disk_fetches.to_string(),
            p.served_min.to_string(),
            p.served_max.to_string(),
        ]);
    }
    t
}

/// Table C — dynamic directory hashing (§4.3): every client creates files
/// in **one** directory. With entry-wise hashing the creates spread across
/// the cluster; without it one authority absorbs everything.
pub fn run_ablate_dir_hash(scale: ExperimentScale) -> Vec<AblationPoint> {
    use dynmds_core::Simulation;
    use dynmds_event::SimTime;
    use dynmds_namespace::NamespaceSpec;
    use dynmds_workload::{GeneralWorkload, OpMix, WorkloadConfig};

    let settings: Vec<(&str, usize)> = vec![("dir-hashing-off", 0), ("dir-hashing-on", 200)];
    parallel_map(&settings, |&(label, threshold)| {
        let mut cfg = scaling_config(StrategyKind::DynamicSubtree, ABLATE_CLUSTER, scale);
        cfg.n_clients = match scale {
            ExperimentScale::Quick => 48,
            ExperimentScale::Full => 120,
        };
        cfg.dir_hash_threshold = threshold;
        cfg.balancing = false; // isolate the mechanism
        cfg.traffic_control = false;
        let snap = NamespaceSpec { users: 8, seed: 31, ..Default::default() }.generate();
        // One shared target directory for every client.
        let hot_dir = snap.shared_roots[0];
        let wl = Box::new(GeneralWorkload::new(
            WorkloadConfig {
                locality: 1.0,
                navigate_prob: 0.0,
                mix: OpMix::create_heavy(),
                seed: 32,
                ..Default::default()
            },
            cfg.n_clients as usize,
            &[hot_dir],
            &[],
            &snap.ns,
        ));
        let mut sim = Simulation::new(cfg, snap, wl);
        let end = SimTime::ZERO + scale.warmup() + scale.measure();
        sim.run_until(SimTime::ZERO + scale.warmup());
        sim.cluster_mut().reset_measurement(SimTime::ZERO + scale.warmup());
        sim.run_until(end);
        let report = sim.finish();
        point(label, &report)
    })
}

/// Table D — journal cache warming on recovery (§4.6: the log "allow\[s\]
/// the memory cache to be quickly preloaded … on startup or after a
/// failure"). A node dies and rejoins; under hashed placement its keys
/// snap back to it immediately, so the first seconds after rejoin show a
/// cold cache vs a journal-warmed one.
pub fn run_ablate_journal_warming(scale: ExperimentScale) -> Vec<AblationPoint> {
    use dynmds_core::{FaultEvent, Simulation};
    use dynmds_event::{SimDuration, SimTime};
    use dynmds_namespace::MdsId;

    let settings: Vec<(&str, bool)> = vec![("warming-on", true), ("warming-off", false)];
    parallel_map(&settings, |&(label, warming)| {
        let mut cfg = scaling_config(StrategyKind::FileHash, ABLATE_CLUSTER, scale);
        cfg.journal_warming = warming;
        let fail_at = SimTime::ZERO + scale.warmup();
        let back_at = fail_at + SimDuration::from_secs(1);
        cfg.faults.events = vec![
            FaultEvent::Crash { at: fail_at, mds: MdsId(0) },
            FaultEvent::Recover { at: back_at, mds: MdsId(0) },
        ];
        let snap = crate::params::scaling_snapshot(&cfg, scale);
        // Sticky working sets: the §4.6 claim is that the log approximates
        // the *current* working set, so the workload must not churn its
        // region between crash and rejoin.
        let wl = Box::new(dynmds_workload::GeneralWorkload::new(
            dynmds_workload::WorkloadConfig {
                seed: cfg.seed ^ 0x17,
                navigate_prob: 0.01,
                dir_affinity: 0.95,
                ..Default::default()
            },
            cfg.n_clients as usize,
            &snap.user_homes,
            &snap.shared_roots,
            &snap.ns,
        ));
        let mut sim = Simulation::new(cfg, snap, wl);
        // Measure the first seconds after the rejoin: the recovered node
        // is either journal-warmed or stone cold.
        sim.run_until(back_at);
        sim.cluster_mut().reset_measurement(back_at);
        sim.run_until(back_at + SimDuration::from_secs(2));
        let report = sim.finish();
        point(label, &report)
    })
}

/// One client-lease ablation measurement.
#[derive(Clone, Debug)]
pub struct LeasePoint {
    /// Setting label.
    pub label: String,
    /// Operations the MDS cluster served per second, per node.
    pub mds_ops: f64,
    /// Operations completed per second cluster-wide, including reads the
    /// clients answered from leases.
    pub client_ops: f64,
    /// Fraction of all completed operations served by leases.
    pub lease_frac: f64,
    /// Mean client-observed latency, ms.
    pub latency_ms: f64,
}

/// Table E — client metadata leases (§4.2): attribute reads under a live
/// lease never reach the cluster; measures offload and latency.
pub fn run_ablate_leases(scale: ExperimentScale) -> Vec<LeasePoint> {
    use dynmds_core::Simulation;
    use dynmds_event::SimTime;

    let settings: Vec<(&str, bool)> = vec![("leases-off", false), ("leases-on", true)];
    parallel_map(&settings, |&(label, leases)| {
        let mut cfg = scaling_config(StrategyKind::DynamicSubtree, ABLATE_CLUSTER, scale);
        cfg.client_leases = leases;
        let snap = crate::params::scaling_snapshot(&cfg, scale);
        let wl = crate::params::general_workload(&cfg, &snap);
        let mut sim = Simulation::new(cfg, snap, wl);
        let start = SimTime::ZERO + scale.warmup();
        sim.run_until(start);
        sim.cluster_mut().reset_measurement(start);
        sim.run_until(start + scale.measure());
        let hits = sim.cluster().measured_counters().lease_hits;
        let report = sim.finish();
        let secs = report.span_secs().max(1e-9);
        let served = report.total_served() as f64;
        LeasePoint {
            label: label.to_string(),
            mds_ops: report.avg_mds_throughput(),
            client_ops: (served + hits as f64) / secs,
            lease_frac: hits as f64 / (served + hits as f64).max(1.0),
            latency_ms: report.latency.mean().unwrap_or(0.0) * 1e3,
        }
    })
}

/// Renders Table E.
pub fn lease_table(points: &[LeasePoint]) -> Table {
    let mut t = Table::new(
        "Table E: client metadata leases",
        &["setting", "mds_ops/s/node", "client_ops/s", "lease%", "lat_ms"],
    );
    for p in points {
        t.row(&[
            p.label.clone(),
            format!("{:.0}", p.mds_ops),
            format!("{:.0}", p.client_ops),
            format!("{:.1}", p.lease_frac * 100.0),
            format!("{:.2}", p.latency_ms),
        ]);
    }
    t
}

/// Table F — GPFS-style shared writes (§4.2): an N-to-1 write crowd
/// (every client streams size/mtime updates at one checkpoint file).
/// Without shared writes the authority serializes every update; with
/// them, replicas absorb writes locally and the authority max-merges on
/// the heartbeat.
pub fn run_ablate_shared_writes(scale: ExperimentScale) -> Vec<AblationPoint> {
    use dynmds_core::Simulation;
    use dynmds_event::{SimDuration, SimTime};
    use dynmds_namespace::NamespaceSpec;
    use dynmds_workload::WriteCrowd;

    let settings: Vec<(&str, bool)> =
        vec![("shared-writes-off", false), ("shared-writes-on", true)];
    parallel_map(&settings, |&(label, shared)| {
        let mut cfg = scaling_config(StrategyKind::DynamicSubtree, ABLATE_CLUSTER, scale);
        cfg.n_clients = match scale {
            ExperimentScale::Quick => 200,
            ExperimentScale::Full => 1_000,
        };
        cfg.shared_writes = shared;
        cfg.traffic_control = true;
        cfg.replication_threshold = 48.0;
        cfg.balancing = false;
        cfg.heartbeat = SimDuration::from_millis(500);
        cfg.costs.think_mean = SimDuration::from_millis(20);
        let snap = NamespaceSpec { users: 16, seed: 91, ..Default::default() }.generate();
        let target =
            snap.ns.walk(snap.shared_roots[0]).find(|&i| !snap.ns.is_dir(i)).expect("shared file");
        let wl = Box::new(WriteCrowd::new(target, cfg.n_clients as usize));
        let mut sim = Simulation::with_start(
            cfg,
            snap,
            wl,
            SimTime::from_millis(100),
            SimDuration::from_millis(200),
        );
        let warm = SimTime::from_millis(600);
        sim.run_until(warm);
        sim.cluster_mut().reset_measurement(warm);
        sim.run_until(warm + SimDuration::from_secs(2));
        let report = sim.finish();
        point(label, &report)
    })
}

/// Table G — near-tail prefetch insertion (§4.5: "prefetched metadata is
/// inserted near the tail of the cache's LRU list to avoid displacing
/// known useful information"). DirHash (heavy whole-directory prefetch)
/// with the probation segment on vs off, at a cache small enough for
/// displacement to matter.
pub fn run_ablate_probation(scale: ExperimentScale) -> Vec<AblationPoint> {
    let settings: Vec<(&str, bool)> = vec![("near-tail-insertion", false), ("mru-insertion", true)];
    parallel_map(&settings, |&(label, disable)| {
        let mut cfg = scaling_config(StrategyKind::DirHash, ABLATE_CLUSTER, scale);
        cfg.disable_prefetch_probation = disable;
        // Small cache: displacement effects dominate.
        cfg.cache_capacity = scale.cache_capacity() / 3;
        cfg.journal_capacity = cfg.cache_capacity * 4;
        let report = run_steady(cfg, scale);
        point(label, &report)
    })
}
