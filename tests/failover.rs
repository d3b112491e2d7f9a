//! Integration tests: MDS failure and recovery with shared-storage
//! takeover and journal-based cache warming (§2.1.2, §4.6).

use dynmds::core::{FaultSchedule, SimConfig, Simulation};
use dynmds::event::SimTime;
use dynmds::namespace::{MdsId, NamespaceSpec};
use dynmds::partition::StrategyKind;
use dynmds::workload::{GeneralWorkload, WorkloadConfig};

/// A 4-node run under `strategy` with the `--faults` schedule `faults`.
fn sim(strategy: StrategyKind, faults: &str) -> Simulation {
    let mut cfg = SimConfig::small(strategy);
    cfg.faults = FaultSchedule::parse(faults).expect("valid fault spec");
    cfg.n_mds = 4;
    cfg.n_clients = 32;
    cfg.seed = 55;
    let snap = NamespaceSpec::with_target_items(32, 8_000, 5).generate();
    let wl = Box::new(GeneralWorkload::new(
        WorkloadConfig { seed: 56, ..Default::default() },
        32,
        &snap.user_homes,
        &snap.shared_roots,
        &snap.ns,
    ));
    Simulation::new(cfg, snap, wl)
}

#[test]
fn cluster_survives_a_node_failure() {
    for strategy in [StrategyKind::DynamicSubtree, StrategyKind::FileHash] {
        let mut s = sim(strategy, "crash:1@5s");
        s.run_until(SimTime::from_secs(8));
        let served_mid = {
            let r = s.cluster();
            r.nodes.iter().map(|n| n.life.served).sum::<u64>()
        };
        s.run_until(SimTime::from_secs(14));
        let cluster = s.cluster();
        let served_end: u64 = cluster.nodes.iter().map(|n| n.life.served).sum();
        assert!(
            served_end > served_mid + 1_000,
            "{strategy}: cluster must keep serving after the failure"
        );
        assert_eq!(cluster.counters.failures, 1);
        assert!(!cluster.is_alive_node(MdsId(1)));
        assert_eq!(cluster.live_nodes(), 3);
    }
}

#[test]
fn dead_node_serves_nothing_and_survivors_take_over() {
    let mut s = sim(StrategyKind::DynamicSubtree, "");
    // Let it warm up so mds1 is actually serving beforehand.
    s.run_until(SimTime::from_secs(5));
    let before = s.cluster().nodes[1].life.served;
    assert!(before > 0, "mds1 must have been active");
    s.cluster_mut().fail_node(SimTime::from_secs(5), MdsId(1));
    s.run_until(SimTime::from_secs(12));
    let cluster = s.cluster();
    let after = cluster.nodes[1].life.served;
    assert_eq!(after, before, "a dead node serves nothing");
    // Its subtrees now belong to live nodes.
    let sub = cluster.partition.as_subtree().expect("subtree strategy");
    for (_, m) in sub.delegations() {
        assert_ne!(m, MdsId(1), "no delegation may point at the dead node");
    }
    // Some requests hit the dead host and were re-driven.
    assert!(cluster.counters.failover_timeouts > 0, "stale client routes must time out");
}

#[test]
fn heirs_warm_their_caches_from_the_shared_journal() {
    let mut s = sim(StrategyKind::DynamicSubtree, "");
    s.run_until(SimTime::from_secs(6));
    // mds1's journal approximates its working set; remember its size.
    let ws: Vec<_> = s.cluster().nodes[1].journal.working_set().collect();
    assert!(!ws.is_empty(), "journal must hold the working set");
    s.cluster_mut().fail_node(SimTime::from_secs(6), MdsId(1));
    let cluster = s.cluster();
    assert_eq!(cluster.nodes[1].cache.len(), 0, "RAM is lost");
    // The working set recorded in the shared journal is now cached at the
    // live authorities that inherited those subtrees.
    let mut checked = 0;
    let mut warmed = 0;
    for &id in &ws {
        if !cluster.ns.is_alive(id) {
            continue;
        }
        let heir = cluster.live_authority(cluster.authority_of(id));
        checked += 1;
        if cluster.nodes[heir.index()].cache.peek(id) {
            warmed += 1;
        }
    }
    assert!(checked > 0);
    assert!(
        warmed * 2 > checked,
        "most of the inherited working set should be preloaded: {warmed}/{checked}"
    );
}

#[test]
fn recovery_rejoins_and_rebalances() {
    let mut s = sim(StrategyKind::DynamicSubtree, "crash:2@4s;recover:2@10s");
    s.run_until(SimTime::from_secs(10));
    let at_recovery = s.cluster().nodes[2].life.served;
    s.run_until(SimTime::from_secs(30));
    let cluster = s.cluster();
    assert!(cluster.is_alive_node(MdsId(2)));
    assert_eq!(cluster.counters.recoveries, 1);
    assert!(
        cluster.nodes[2].life.served > at_recovery,
        "the balancer must hand work back to the recovered node"
    );
    assert!(!cluster.nodes[2].cache.is_empty(), "recovery warms the cache from the journal");
}

#[test]
fn hashed_strategies_remap_placement_around_dead_nodes() {
    let mut s = sim(StrategyKind::FileHash, "");
    s.run_until(SimTime::from_secs(3));
    s.cluster_mut().fail_node(SimTime::from_secs(3), MdsId(0));
    s.run_until(SimTime::from_secs(8));
    let cluster = s.cluster();
    // live_authority is total and avoids the dead node.
    for id in cluster.ns.live_ids().take(500) {
        let m = cluster.live_authority(cluster.partition.authority(id));
        assert_ne!(m, MdsId(0));
        assert!(cluster.is_alive_node(m));
    }
    // Successor ring: dead node's keys flow to the next live node.
    assert_eq!(cluster.live_authority(MdsId(0)), MdsId(1));
}

#[test]
fn a_dead_node_is_never_asked_for_prefixes_until_it_recovers() {
    // Under hashed placement the prefix directories of live nodes' paths
    // hash to the dead node too. Their remote-prefix reads must go to the
    // live stand-in: a crashed node neither reads its disk nor caches
    // anything, and rejoins as cold as the crash left it.
    for strategy in [StrategyKind::FileHash, StrategyKind::DirHash] {
        let mut s = sim(strategy, "crash:1@3s;recover:1@7s");
        s.run_until(SimTime::from_millis(3_001));
        let dead = &s.cluster().nodes[1];
        assert_eq!(dead.cache.len(), 0, "{strategy}: the crash empties RAM");
        let life = format!("{:?}", dead.life);
        s.run_until(SimTime::from_millis(6_999));
        let cluster = s.cluster();
        assert!(!cluster.is_alive_node(MdsId(1)));
        assert_eq!(cluster.nodes[1].cache.len(), 0, "{strategy}: a dead node caches nothing");
        assert_eq!(format!("{:?}", cluster.nodes[1].life), life, "{strategy}: its counts stay");
    }
}
