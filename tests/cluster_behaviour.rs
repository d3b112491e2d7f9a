//! Integration tests: runtime behaviour of the full simulated system —
//! load balancing, traffic control, and dynamic directory hashing working
//! together across the workspace crates.

use dynmds::core::{SimConfig, Simulation};
use dynmds::event::{SimDuration, SimTime};
use dynmds::namespace::NamespaceSpec;
use dynmds::partition::StrategyKind;
use dynmds::workload::{FlashCrowd, GeneralWorkload, WorkloadConfig};

/// A workload that concentrates every client on one user's home subtree:
/// the initial partition gives that subtree to one MDS, so without
/// balancing one node does all the work.
fn skewed_setup(
    strategy: StrategyKind,
    balancing: bool,
) -> (SimConfig, dynmds::namespace::Snapshot, Box<GeneralWorkload>) {
    let mut cfg = SimConfig::small(strategy);
    cfg.n_mds = 4;
    cfg.n_clients = 32;
    cfg.balancing = balancing;
    cfg.traffic_control = false;
    cfg.heartbeat = SimDuration::from_secs(2);
    cfg.seed = 5;
    let snapshot = NamespaceSpec::with_target_items(8, 8_000, 3).generate();
    // All 32 clients share the same single home region => one hot MDS.
    let hot = [snapshot.user_homes[0]];
    let wl = Box::new(GeneralWorkload::new(
        WorkloadConfig { locality: 1.0, seed: 11, ..Default::default() },
        cfg.n_clients as usize,
        &hot,
        &[],
        &snapshot.ns,
    ));
    (cfg, snapshot, wl)
}

#[test]
fn balancer_spreads_a_skewed_workload() {
    let run = |balancing: bool| {
        let (cfg, snap, wl) = skewed_setup(StrategyKind::DynamicSubtree, balancing);
        let mut sim = Simulation::new(cfg, snap, wl);
        sim.run_until(SimTime::from_secs(20));
        let migrations = sim.cluster().counters.migrations;
        let report = sim.finish();
        (migrations, report)
    };
    let (m_off, r_off) = run(false);
    let (m_on, r_on) = run(true);

    assert_eq!(m_off, 0, "balancer disabled must not migrate");
    assert!(m_on > 0, "skew must trigger subtree migration");

    // With balancing, work is spread over more nodes.
    let active = |r: &dynmds::core::SimReport| {
        r.nodes.iter().filter(|n| n.served > r.total_served() / 20).count()
    };
    assert!(
        active(&r_on) > active(&r_off),
        "balancing should activate more nodes: {} vs {}",
        active(&r_on),
        active(&r_off)
    );
}

#[test]
fn traffic_control_spreads_a_flash_crowd() {
    let run = |tc: bool| {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = 4;
        cfg.n_clients = 300;
        cfg.traffic_control = tc;
        cfg.replication_threshold = 32.0;
        cfg.balancing = false;
        cfg.costs.think_mean = SimDuration::from_millis(20);
        let snapshot = NamespaceSpec { users: 8, seed: 2, ..Default::default() }.generate();
        let target = snapshot
            .ns
            .walk(snapshot.shared_roots[0])
            .find(|&id| !snapshot.ns.is_dir(id))
            .expect("file in shared tree");
        let wl = Box::new(FlashCrowd::new(target, 300));
        let mut sim = Simulation::with_start(
            cfg,
            snapshot,
            wl,
            SimTime::from_millis(50),
            SimDuration::from_millis(100),
        );
        sim.run_until(SimTime::from_secs(1));
        let replicated = sim.cluster().view().replicated.contains(&target);
        let report = sim.finish();
        (replicated, report)
    };

    let (replicated_on, r_on) = run(true);
    let (replicated_off, r_off) = run(false);

    assert!(replicated_on, "popularity must trip replication");
    assert!(!replicated_off, "no replication without traffic control");

    let peak_share = |r: &dynmds::core::SimReport| {
        r.nodes.iter().map(|n| n.served).max().unwrap_or(0) as f64 / r.total_served().max(1) as f64
    };
    assert!(
        peak_share(&r_off) > 0.9,
        "without TC the authority serves ~everything, got {}",
        peak_share(&r_off)
    );
    assert!(
        peak_share(&r_on) < 0.6,
        "with TC replies spread across nodes, got {}",
        peak_share(&r_on)
    );
    assert!(
        r_on.total_served() > r_off.total_served(),
        "TC must raise total crowd throughput ({} vs {})",
        r_on.total_served(),
        r_off.total_served()
    );
}

#[test]
fn huge_directories_get_hashed_dynamically() {
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_mds = 4;
    cfg.n_clients = 16;
    cfg.dir_hash_threshold = 50;
    cfg.balancing = false;
    cfg.seed = 9;
    let snapshot = NamespaceSpec::with_target_items(4, 2_000, 7).generate();
    let hot_home = snapshot.user_homes[0];
    // Create-heavy clients all writing into one region grow its dirs past
    // the threshold.
    let wl = Box::new(GeneralWorkload::new(
        WorkloadConfig {
            locality: 1.0,
            navigate_prob: 0.02,
            mix: dynmds::workload::OpMix::create_heavy(),
            seed: 4,
            ..Default::default()
        },
        cfg.n_clients as usize,
        &[hot_home],
        &[],
        &snapshot.ns,
    ));
    let mut sim = Simulation::new(cfg, snapshot, wl);
    sim.run_until(SimTime::from_secs(15));

    let cluster = sim.cluster();
    let hashed: Vec<_> =
        cluster.ns.live_ids().filter(|&id| cluster.view().hashed_dirs.contains(&id)).collect();
    assert!(!hashed.is_empty(), "a directory past {} entries must be spread entry-wise", 50);
    for d in hashed {
        assert!(cluster.ns.child_count(d).unwrap() > 25, "hashed dirs are big");
    }
}

#[test]
fn deterministic_across_runs_with_balancing_and_tc() {
    let run = || {
        let (mut cfg, snap, wl) = skewed_setup(StrategyKind::DynamicSubtree, true);
        cfg.traffic_control = true;
        let mut sim = Simulation::new(cfg, snap, wl);
        sim.run_until(SimTime::from_secs(12));
        let migrations = sim.cluster().counters.migrations;
        let r = sim.finish();
        (migrations, r.total_served(), r.total_forwarded())
    };
    assert_eq!(run(), run(), "full feature set must stay deterministic");
}

#[test]
fn client_leases_offload_attribute_reads() {
    let run = |leases: bool| {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = 4;
        cfg.n_clients = 32;
        cfg.client_leases = leases;
        cfg.seed = 61;
        let snap = NamespaceSpec::with_target_items(32, 8_000, 6).generate();
        let wl = Box::new(GeneralWorkload::new(
            WorkloadConfig { seed: 62, ..Default::default() },
            32,
            &snap.user_homes,
            &snap.shared_roots,
            &snap.ns,
        ));
        let mut sim = Simulation::new(cfg, snap, wl);
        sim.run_until(SimTime::from_secs(10));
        let hits = sim.cluster().counters.lease_hits;
        let served: u64 = sim.cluster().nodes.iter().map(|n| n.life.served).sum();
        (hits, served)
    };
    let (hits_off, served_off) = run(false);
    let (hits_on, served_on) = run(true);
    assert_eq!(hits_off, 0, "no leases granted when disabled");
    assert!(hits_on > 1_000, "leases must absorb repeat reads, got {hits_on}");
    assert!(
        served_on < served_off,
        "the cluster must see fewer requests with leases ({served_on} vs {served_off})"
    );
    // Total client progress must not fall.
    assert!(hits_on + served_on >= served_off, "leases must not lose work");
}

#[test]
fn shared_writes_absorb_and_converge() {
    use dynmds::workload::WriteCrowd;
    let run = |shared: bool| {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = 4;
        cfg.n_clients = 120;
        cfg.shared_writes = shared;
        cfg.traffic_control = true;
        cfg.replication_threshold = 32.0;
        cfg.balancing = false;
        cfg.heartbeat = SimDuration::from_millis(500);
        cfg.costs.think_mean = SimDuration::from_millis(10);
        cfg.seed = 81;
        let snap = NamespaceSpec { users: 8, seed: 82, ..Default::default() }.generate();
        let target =
            snap.ns.walk(snap.shared_roots[0]).find(|&i| !snap.ns.is_dir(i)).expect("shared file");
        let wl = Box::new(WriteCrowd::new(target, 120));
        let mut sim = Simulation::with_start(
            cfg,
            snap,
            wl,
            SimTime::from_millis(50),
            SimDuration::from_millis(100),
        );
        sim.run_until(SimTime::from_secs(3));
        (sim, target)
    };

    let (sim_off, _) = run(false);
    let (sim_on, target) = run(true);
    let c_off = sim_off.cluster();
    let c_on = sim_on.cluster();

    let absorbed =
        |c: &dynmds::core::Cluster| -> u64 { c.nodes.iter().map(|n| n.life.shared_absorbed).sum() };
    assert_eq!(absorbed(c_off), 0);
    assert!(absorbed(c_on) > 1_000, "replicas must absorb writes");
    assert!(c_on.counters.shared_write_flushes > 0, "heartbeat must merge deltas");

    // Throughput: replica absorption beats single-authority serialization.
    let served = |c: &dynmds::core::Cluster| -> u64 { c.nodes.iter().map(|n| n.life.served).sum() };
    assert!(
        served(c_on) > served(c_off),
        "shared writes must raise write-crowd throughput ({} vs {})",
        served(c_on),
        served(c_off)
    );

    // Convergence: every absorbed SetAttr advanced mtime; after the last
    // heartbeat flush plus a read, size/mtime reflect merged deltas.
    let ino = c_on.ns.inode(target).unwrap();
    assert!(ino.mtime_us > 0, "merged mtime visible in the namespace");
    // All remaining dirt is bounded by one heartbeat window of activity.
    let pending: usize = c_on.nodes.iter().map(|n| n.write_deltas.len()).sum();
    assert!(pending <= c_on.nodes.len(), "at most one dirty entry per node");
}
