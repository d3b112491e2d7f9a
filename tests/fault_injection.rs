//! Integration tests for the deterministic fault-injection subsystem:
//! scripted and generated churn, heir rotation on failover on both
//! engines, the client retry policy, and bit-for-bit reproducibility
//! under faults.

use dynmds::core::{
    ChurnSpec, FaultEvent, FaultSchedule, ShardedSimulation, SimConfig, Simulation,
};
use dynmds::event::{SimDuration, SimTime};
use dynmds::harness::availability::{availability_table, default_schedule, run_availability};
use dynmds::harness::ExperimentScale;
use dynmds::namespace::{InodeId, MdsId, NamespaceSpec};
use dynmds::partition::{Partition, StrategyKind};
use dynmds::workload::{GeneralWorkload, Workload, WorkloadConfig};

fn config(strategy: StrategyKind) -> SimConfig {
    let mut cfg = SimConfig::small(strategy);
    cfg.n_mds = 4;
    cfg.n_clients = 32;
    cfg.seed = 55;
    cfg
}

fn sim_with(cfg: SimConfig) -> Simulation {
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

fn churn_schedule() -> FaultSchedule {
    FaultSchedule {
        events: Vec::new(),
        churn: Some(ChurnSpec {
            mtbf: SimDuration::from_secs(4),
            mttr: SimDuration::from_secs(1),
            seed: 9,
            until: SimTime::from_secs(12),
            nodes: Some((1, 3)),
        }),
    }
}

/// The sharded engine over the same snapshot and workload as [`sim_with`].
fn sharded_with(cfg: SimConfig) -> ShardedSimulation {
    let snap = NamespaceSpec::with_target_items(32, 8_000, 5).generate();
    let (homes, shared) = (snap.user_homes.clone(), snap.shared_roots.clone());
    let make = move |ns: &dynmds::namespace::Namespace| -> Box<dyn Workload + Send> {
        Box::new(GeneralWorkload::new(
            WorkloadConfig { seed: 56, ..Default::default() },
            32,
            &homes,
            &shared,
            ns,
        ))
    };
    ShardedSimulation::new(cfg, 2, Some(1), snap, &make)
}

/// Every subtree delegation, sorted by root.
fn delegations(p: &Partition) -> Vec<(InodeId, MdsId)> {
    let mut d: Vec<_> = p.as_subtree().unwrap().delegations().collect();
    d.sort();
    d
}

#[test]
fn heir_rotation_spreads_inherited_subtrees() {
    // Regression: the legacy round-robin heir pick used to restart at the
    // first survivor on every crash, and the sharded engine handed every
    // root to the next live node. Both engines now rotate the start by the
    // crash count, so each root k of the f-th crash lands on
    // survivors[(k + f) % |survivors|] — verifiable from the outside.
    let mut cfg = config(StrategyKind::DynamicSubtree);
    cfg.balancing = false; // only the crashes move delegations
    cfg.faults = FaultSchedule::parse("crash:1@3s;crash:2@4s").unwrap();
    let mut legacy = sim_with(cfg.clone());
    assert_heirs_rotate("legacy", |t| {
        legacy.run_until(t);
        delegations(&legacy.cluster().partition)
    });
    let mut sharded = sharded_with(cfg);
    assert_heirs_rotate("sharded", |t| {
        sharded.run_until(t);
        delegations(sharded.partition())
    });
}

/// Checks the heirs of the crashes of nodes 1 at 3 s and 2 at 4 s, with
/// `delegations_at(t)` running the engine to `t` and reading its table.
fn assert_heirs_rotate(
    engine: &str,
    mut delegations_at: impl FnMut(SimTime) -> Vec<(InodeId, MdsId)>,
) {
    let mut alive = [true; 4];
    for (f, victim) in [MdsId(1), MdsId(2)].into_iter().enumerate() {
        let at = 3_000 + 1_000 * f as u64;
        let before = delegations_at(SimTime::from_millis(at - 50));
        let owned: Vec<InodeId> =
            before.iter().filter(|&&(_, m)| m == victim).map(|&(r, _)| r).collect();
        assert!(!owned.is_empty(), "{engine}: {victim:?} must own subtrees before failing");
        let after = delegations_at(SimTime::from_millis(at + 50));
        alive[victim.index()] = false;
        let survivors: Vec<MdsId> = (0..4).map(MdsId).filter(|m| alive[m.index()]).collect();
        for (k, root) in owned.iter().enumerate() {
            let expected = survivors[(k + f + 1) % survivors.len()];
            let heir = after.iter().find(|&&(r, _)| r == *root).map(|&(_, m)| m);
            assert_eq!(heir, Some(expected), "{engine}: crash #{}: root {k}", f + 1);
        }
    }
}

#[test]
fn every_strategy_survives_generated_churn() {
    for strategy in StrategyKind::ALL {
        let mut cfg = config(strategy);
        cfg.faults = churn_schedule();
        let n_clients = cfg.n_clients as u64;
        let mut s = sim_with(cfg);
        s.run_until(SimTime::from_secs(16));
        let c = s.cluster();
        assert!(c.counters.failures > 0, "{strategy}: churn must actually kill nodes");
        // Every op terminates: at most one request per client is in flight
        // (the rest completed, were forwarded to completion, or gave up).
        let in_flight = c.ops_issued - c.ops_completed;
        assert!(
            in_flight <= n_clients,
            "{strategy}: {in_flight} ops unaccounted for (issued {}, completed {})",
            c.ops_issued,
            c.ops_completed
        );
        assert!(c.ops_completed > 1_000, "{strategy}: cluster must keep serving under churn");
        // Imported-delegation bookkeeping stays consistent.
        for m in (0..4).map(MdsId) {
            let imported = c.imported_of(m);
            let mut seen = std::collections::HashSet::new();
            for &root in imported {
                assert!(seen.insert(root), "{strategy}: duplicate import {root} on {m:?}");
            }
            if !c.is_alive_node(m) {
                assert!(imported.is_empty(), "{strategy}: dead {m:?} still lists imports");
            }
            if let Some(sub) = c.partition.as_subtree() {
                for &root in imported {
                    assert_eq!(
                        sub.delegation_of(root),
                        Some(m),
                        "{strategy}: import list and delegation table disagree on {root}"
                    );
                }
            }
        }
    }
}

#[test]
fn same_seed_churn_runs_are_bit_identical() {
    let run = || {
        let mut cfg = config(StrategyKind::DynamicSubtree);
        cfg.faults = churn_schedule();
        cfg.obs.metrics = true;
        cfg.obs.trace = true;
        sim_with(cfg).run_measured(SimDuration::from_secs(3), SimDuration::from_secs(9))
    };
    let (a, b) = (run(), run());
    assert_eq!(a.total_served(), b.total_served());
    let (oa, ob) = (a.obs.expect("obs export"), b.obs.expect("obs export"));
    assert_eq!(oa.metrics_jsonl, ob.metrics_jsonl, "metrics export must be byte-identical");
    assert_eq!(oa.snapshots_jsonl, ob.snapshots_jsonl, "snapshot export must be byte-identical");
    assert_eq!(oa.trace_jsonl, ob.trace_jsonl, "span export must be byte-identical");
}

#[test]
fn scripted_crashes_fire_from_the_schedule() {
    let mut cfg = config(StrategyKind::FileHash);
    cfg.faults = FaultSchedule {
        events: vec![
            FaultEvent::Crash { at: SimTime::from_secs(2), mds: MdsId(1) },
            FaultEvent::Recover { at: SimTime::from_secs(4), mds: MdsId(1) },
        ],
        churn: None,
    };
    let mut s = sim_with(cfg);
    s.run_until(SimTime::from_secs(3));
    assert!(!s.cluster().is_alive_node(MdsId(1)), "crash event must have fired");
    s.run_until(SimTime::from_secs(5));
    let c = s.cluster();
    assert!(c.is_alive_node(MdsId(1)), "recover event must have fired");
    assert_eq!((c.counters.failures, c.counters.recoveries), (1, 1));
    assert!(c.counters.failover_timeouts > 0, "clients routed to the dead node must time out");
    assert!(c.counters.retries > 0, "timeouts re-drive through the retry policy");
}

#[test]
fn balancer_never_names_a_dead_node_under_churn() {
    // Property check for the two liveness bugs: with generated churn and
    // the balancer both active, every migration the balancer performs
    // must have a live exporter (the busy-node pick used to ignore
    // liveness) and a live importer (dead nodes used to keep their
    // stale EWMA and attract load). The audit trail records liveness at
    // migration time, so the property is checked exactly where the old
    // code went wrong, not from end-of-run state.
    let mut cfg = config(StrategyKind::DynamicSubtree);
    cfg.heartbeat = SimDuration::from_secs(1);
    cfg.faults = churn_schedule();
    let mut s = sim_with(cfg);
    s.cluster_mut().migration_log = Some(Vec::new());
    s.run_until(SimTime::from_secs(16));
    let c = s.cluster();
    assert!(c.counters.failures > 0, "churn must actually kill nodes");
    let log = c.migration_log.as_ref().unwrap();
    assert!(!log.is_empty(), "the balancer must act for this test to bite");
    for rec in log {
        assert!(
            rec.from_alive && rec.to_alive,
            "migration of {root} at {at:?} named a dead node: {from:?} (alive {fa}) -> {to:?} (alive {ta})",
            root = rec.root,
            at = rec.at,
            from = rec.from,
            fa = rec.from_alive,
            to = rec.to,
            ta = rec.to_alive,
        );
    }
}

#[test]
fn availability_experiment_is_deterministic() {
    let schedule = default_schedule(ExperimentScale::Quick);
    let csv = |pts: Vec<_>| availability_table(&pts).to_csv();
    let a = csv(run_availability(ExperimentScale::Quick, &schedule));
    let b = csv(run_availability(ExperimentScale::Quick, &schedule));
    assert_eq!(a, b, "availability CSV must be byte-identical across runs");
    assert!(a.lines().count() > StrategyKind::ALL.len(), "one row per strategy plus header");
}

#[test]
#[should_panic(expected = "fault schedule does not fit the cluster: `crash:9@1000000us`")]
fn legacy_engine_rejects_a_fault_outside_the_cluster() {
    let mut cfg = config(StrategyKind::DynamicSubtree);
    cfg.faults = FaultSchedule::parse("crash:9@1s").unwrap();
    sim_with(cfg);
}

#[test]
#[should_panic(expected = "fault schedule does not fit the cluster: `churn:")]
fn sharded_engine_rejects_a_churn_range_past_the_cluster() {
    let mut cfg = config(StrategyKind::DynamicSubtree);
    cfg.faults = FaultSchedule::parse("churn:mtbf=4s,mttr=1s,nodes=4-5").unwrap();
    let snap = NamespaceSpec::with_target_items(32, 8_000, 5).generate();
    ShardedSimulation::new(cfg, 2, Some(1), snap, &|_| unreachable!("checked before any workload"));
}

/// Runs `simulate` with `args` and returns its stdout.
fn simulate_stdout(args: &[&str]) -> String {
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("spawn simulate");
    assert!(run.status.success(), "simulate failed: {}", String::from_utf8_lossy(&run.stderr));
    String::from_utf8(run.stdout).expect("utf-8 stdout")
}

#[test]
fn fail_and_recover_flags_spell_a_fault_schedule() {
    // A crash at 5 s meets the legacy engine's first heartbeat, which is
    // queued at construction: both spellings must order it the same way.
    let sizing =
        ["--mds", "4", "--clients", "24", "--items", "8000", "--seconds", "8", "--warmup", "2"];
    for engine in [&["--shards", "0"][..], &["--shards", "2"]] {
        let run = |faults: &[&str]| simulate_stdout(&[&sizing[..], engine, faults].concat());
        let flags = run(&["--fail", "1@5", "--recover", "1@7"]);
        let spec = run(&["--faults", "crash:1@5s;recover:1@7s"]);
        assert_eq!(flags, spec, "{engine:?}: --fail/--recover and --faults differ");
    }
}

#[test]
fn crashing_every_node_leaves_one_serving_on_both_engines() {
    // The second crash would take the last live node: both engines skip
    // it, so the measured window after it still completes operations.
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_mds = 2;
    cfg.n_clients = 12;
    cfg.seed = 55;
    cfg.faults = FaultSchedule::parse("crash:0@3s;crash:1@4s").unwrap();
    let snapshot = || NamespaceSpec::with_target_items(12, 4_000, 5).generate();
    let snap = snapshot();
    let (homes, shared) = (snap.user_homes.clone(), snap.shared_roots.clone());
    let make = move |ns: &dynmds::namespace::Namespace| -> Box<dyn Workload + Send> {
        Box::new(GeneralWorkload::new(
            WorkloadConfig { seed: 56, ..Default::default() },
            12,
            &homes,
            &shared,
            ns,
        ))
    };
    let (warmup, measure) = (SimDuration::from_millis(4_500), SimDuration::from_secs(2));
    let legacy =
        Simulation::new(cfg.clone(), snapshot(), make(&snap.ns)).run_measured(warmup, measure);
    let served: Vec<u64> = legacy.nodes.iter().map(|n| n.served).collect();
    assert!(served[0] == 0 && served[1] > 0, "legacy: node 1 serves alone: {served:?}");
    let sharded =
        ShardedSimulation::new(cfg, 2, Some(1), snap, &make).run_measured(warmup, measure);
    let served: Vec<u64> = sharded.nodes.iter().map(|n| n.served).collect();
    assert!(served[0] == 0 && served[1] > 0, "sharded: node 1 serves alone: {served:?}");
}
