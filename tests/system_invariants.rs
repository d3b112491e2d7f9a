//! Integration tests: conservation laws that must hold across the whole
//! simulated system for any strategy and any feature combination.

use dynmds::core::{SimConfig, Simulation};
use dynmds::event::SimTime;
use dynmds::namespace::NamespaceSpec;
use dynmds::partition::StrategyKind;
use dynmds::workload::{GeneralWorkload, WorkloadConfig};

fn run(strategy: StrategyKind, tweak: impl FnOnce(&mut SimConfig)) -> Simulation {
    let mut cfg = SimConfig::small(strategy);
    cfg.n_mds = 4;
    cfg.n_clients = 24;
    cfg.seed = 71;
    tweak(&mut cfg);
    let snap = NamespaceSpec::with_target_items(24, 6_000, 8).generate();
    let wl = Box::new(GeneralWorkload::new(
        WorkloadConfig { seed: 72, ..Default::default() },
        24,
        &snap.user_homes,
        &snap.shared_roots,
        &snap.ns,
    ));
    let mut sim = Simulation::new(cfg, snap, wl);
    sim.run_until(SimTime::from_secs(8));
    sim
}

/// Every arrival is either served, forwarded on, or answered with a cheap
/// stale-target reply; nothing is lost.
#[test]
fn request_conservation_per_node() {
    for strategy in StrategyKind::ALL {
        let sim = run(strategy, |_| {});
        for node in &sim.cluster().nodes {
            let l = &node.life;
            assert!(
                l.received >= l.served + l.forwarded,
                "{strategy}/{}: received {} < served {} + forwarded {}",
                node.id,
                l.received,
                l.served,
                l.forwarded
            );
            // Stale (ESTALE) replies are the only remainder, and they are
            // a small minority of traffic.
            let stale = l.received - l.served - l.forwarded;
            assert!(
                stale * 10 <= l.received.max(10),
                "{strategy}/{}: implausible stale volume {stale}/{}",
                node.id,
                l.received
            );
        }
    }
}

/// Cache statistics stay self-consistent: every eviction matched an
/// insertion, the cache never exceeds capacity without logged overflows.
#[test]
fn cache_capacity_is_respected() {
    for strategy in StrategyKind::ALL {
        let sim = run(strategy, |_| {});
        for node in &sim.cluster().nodes {
            let stats = node.cache.stats();
            if stats.overflows == 0 {
                assert!(
                    node.cache.len() <= node.cache.capacity(),
                    "{strategy}/{}: {} > {}",
                    node.id,
                    node.cache.len(),
                    node.cache.capacity()
                );
            }
            node.cache.check_integrity();
        }
    }
}

/// Over a measurement window that starts mid-run, the served series plus
/// the sample window not yet taken equal `life` minus the reading
/// `reset_measurement` stored.
#[test]
fn series_and_counters_agree() {
    let mut sim = run(StrategyKind::DynamicSubtree, |_| {});
    // Off the sampling grid, so ops since the last sample precede the
    // reset.
    sim.run_until(SimTime::from_millis(8_400));
    sim.cluster_mut().reset_measurement(SimTime::from_millis(8_400));
    sim.run_until(SimTime::from_millis(12_500));
    let cluster = sim.cluster_mut();
    for i in 0..cluster.nodes.len() {
        let series_sum: u64 = cluster.samples.field_rows("served").map(|(_, v)| v[i]).sum();
        let unsampled = cluster.nodes[i].take_sample().served;
        let node = &cluster.nodes[i];
        assert!(node.measured().served < node.life.served, "node {i}: warm-up ops excluded");
        assert_eq!(
            series_sum + unsampled,
            node.measured().served,
            "node {i}: series + unsampled window must equal the measured count"
        );
    }
}

/// Disk traffic accounting: every MDS-recorded fetch reached the store,
/// and the store reached the pool.
#[test]
fn disk_accounting_chains() {
    for strategy in [StrategyKind::DynamicSubtree, StrategyKind::FileHash] {
        let sim = run(strategy, |_| {});
        let cluster = sim.cluster();
        let store_reads = cluster.store.fetches();
        let pool = cluster.store.pool().total_stats();
        assert!(store_reads > 0, "{strategy}: no fetches at all?");
        assert_eq!(pool.reads, store_reads, "{strategy}: every store fetch is one pool read");
        let physical_wb = cluster.store.writebacks() - cluster.store.coalesced_writebacks();
        assert_eq!(
            pool.writes, physical_wb,
            "{strategy}: pool writes equal uncoalesced writebacks"
        );
    }
}

/// All features on at once: leases + balancing + traffic control + dir
/// hashing remain deterministic and serve work.
#[test]
fn kitchen_sink_configuration_runs() {
    let go = || {
        let sim = run(StrategyKind::DynamicSubtree, |cfg| {
            cfg.client_leases = true;
            cfg.dir_hash_threshold = 100;
            cfg.traffic_control = true;
            cfg.balancing = true;
        });
        let served: u64 = sim.cluster().nodes.iter().map(|n| n.life.served).sum();
        let leases = sim.cluster().counters.lease_hits;
        (served, leases)
    };
    let a = go();
    let b = go();
    assert_eq!(a, b, "deterministic with everything enabled");
    assert!(a.0 > 1_000, "still serves work");
}

/// Served-op composition reflects the configured mix: reads dominate,
/// every open has a matching close, rare ops stay rare.
#[test]
fn op_mix_survives_the_pipeline() {
    use dynmds::workload::OpKind;
    let sim = run(StrategyKind::DynamicSubtree, |_| {});
    let counts = &sim.cluster().op_counts;
    let get = |k: OpKind| counts[k as usize];
    let total: u64 = counts.iter().sum();
    assert!(total > 5_000);
    assert!(get(OpKind::Stat) * 2 > total, "stats dominate the served mix");
    let opens = get(OpKind::Open);
    let closes = get(OpKind::Close);
    assert!(opens > 0);
    // Closes trail opens only by in-flight pairs.
    assert!(closes <= opens && opens - closes < 100, "{opens} opens vs {closes} closes");
    assert!(get(OpKind::Rename) * 20 < total, "renames stay rare");
    assert!(get(OpKind::Link) * 20 < total, "hard links stay rare");
}
