//! Differential tests for the sharded parallel simulation core: the
//! report/CSV/obs surface must be byte-identical (a) across shard
//! counts for a fixed scenario, and (b) across repeat runs for a fixed
//! shard count — including under fault churn, scripted crash/recover,
//! degraded disks and a lossy network, which exercise the barrier-global
//! step path on top of the per-window event exchange.

use dynmds::core::{ChurnSpec, DiskScope, FaultEvent, FaultSchedule, ShardedSimulation, SimConfig};
use dynmds::event::{SimDuration, SimTime};
use dynmds::namespace::{MdsId, NamespaceSpec};
use dynmds::partition::StrategyKind;
use dynmds::storage::DiskFault;
use dynmds::workload::{GeneralWorkload, WorkloadConfig};

/// Crash/recover script + generated churn + degraded disks + lossy
/// network, all overlapping mid-run.
fn stormy_schedule() -> FaultSchedule {
    FaultSchedule {
        events: vec![
            FaultEvent::Crash { at: SimTime::from_secs(2), mds: MdsId(1) },
            FaultEvent::Recover { at: SimTime::from_secs(5), mds: MdsId(1) },
            FaultEvent::DiskDegrade {
                from: SimTime::from_secs(3),
                until: SimTime::from_secs(6),
                fault: DiskFault { latency_mult: 3.0, iops_mult: 0.5, error_p: 0.01 },
                scope: DiskScope::All,
            },
            FaultEvent::NetFault {
                from: SimTime::from_secs(4),
                until: SimTime::from_secs(8),
                spec: dynmds::core::NetFaultSpec { loss_p: 0.02, dup_p: 0.01 },
            },
        ],
        churn: Some(ChurnSpec {
            mtbf: SimDuration::from_secs(5),
            mttr: SimDuration::from_secs(1),
            seed: 9,
            until: SimTime::from_secs(9),
            nodes: Some((2, 3)),
        }),
    }
}

fn config(strategy: StrategyKind, seed: u64, faults: bool) -> SimConfig {
    let mut cfg = SimConfig::small(strategy);
    cfg.n_mds = 4;
    cfg.n_clients = 24;
    cfg.seed = seed;
    cfg.client_leases = true;
    cfg.obs.metrics = true;
    if faults {
        cfg.faults = stormy_schedule();
    }
    cfg
}

/// One run at shard count `k` over a chosen span: returns the rendered
/// report plus the two obs exports, the whole byte surface a run exposes.
fn run_span(
    cfg: SimConfig,
    k: usize,
    warmup: SimDuration,
    measure: SimDuration,
) -> (String, String, String) {
    dynmds::harness::parallel::install_shard_driver();
    let snap = NamespaceSpec::with_target_items(24, 6_000, cfg.seed ^ 0xF5).generate();
    let n_clients = cfg.n_clients as usize;
    let wl_seed = cfg.seed ^ 0x17;
    let homes = snap.user_homes.clone();
    let shared = snap.shared_roots.clone();
    let sim = ShardedSimulation::new(cfg, k, None, snap, &move |ns| {
        Box::new(GeneralWorkload::new(
            WorkloadConfig { seed: wl_seed, ..Default::default() },
            n_clients,
            &homes,
            &shared,
            ns,
        ))
    });
    let report = sim.run_measured(warmup, measure);
    let obs = report.obs.as_ref().expect("obs metrics were enabled");
    (report.render(), obs.metrics_jsonl.clone(), obs.snapshots_jsonl.clone())
}

/// One full run at shard count `k` over the standard 2 s + 7 s span.
fn run_k(cfg: SimConfig, k: usize) -> (String, String, String) {
    run_span(cfg, k, SimDuration::from_secs(2), SimDuration::from_secs(7))
}

#[test]
fn report_and_obs_are_invariant_across_shard_counts_under_faults() {
    // Differential property run: several random workload seeds, each
    // interleaved with the fault storm, executed at 1, 2, 3 and 4 shards.
    // Three shards split the four nodes unevenly: {0,1}, {2}, {3}.
    for seed in [55u64, 911, 4242] {
        let base = run_k(config(StrategyKind::DynamicSubtree, seed, true), 1);
        assert!(base.0.contains("ops "), "report renders");
        for k in [2usize, 3, 4] {
            let other = run_k(config(StrategyKind::DynamicSubtree, seed, true), k);
            assert_eq!(base.0, other.0, "seed {seed}: report differs at {k} shards");
            assert_eq!(base.1, other.1, "seed {seed}: obs metrics differ at {k} shards");
            assert_eq!(base.2, other.2, "seed {seed}: obs snapshots differ at {k} shards");
        }
    }
}

#[test]
fn every_strategy_is_shard_count_invariant() {
    // The canonical event order may not depend on strategy-specific
    // routing (hashed placement, forwards, replicas), so sweep them all
    // fault-free at the K extremes.
    for strategy in StrategyKind::ALL {
        let a = run_k(config(strategy, 7, false), 1);
        let b = run_k(config(strategy, 7, false), 4);
        assert_eq!(a, b, "{strategy}: surface differs between 1 and 4 shards");
    }
}

#[test]
fn idle_window_skip_is_invisible_for_every_shard_count() {
    // Skip-vs-dense differential sweep. Skipping only ever jumps over
    // provably empty window spans on the same grid, so a skip-on run and
    // a force-dense run (every conservative window executed) must be
    // byte-identical across the whole surface. Each case stresses a
    // different skip hazard:
    //   tie storm  — sub-window think time floods every window with
    //                same-time batches (skip must never engage);
    //   long gaps  — think time ≫ the 100 µs window makes nearly every
    //                window empty (skip does all the work);
    //   fault churn — crash/recover/churn/disk/net events land via the
    //                barrier-global step calendar mid-gap;
    //   elastic    — the autoscaling controller acts on heartbeat steps
    //                that the skip must not jump past (a 250 ms heartbeat
    //                and low watermarks, so it does scale);
    //   sparse     — eight shards, six clients thinking 50 ms: nearly
    //                every executed window has at most one busy shard,
    //                so its fan-out runs on one worker.
    // Every run must also match the one-shard skip-on run.
    struct Case {
        label: &'static str,
        strategy: StrategyKind,
        faults: bool,
        n_mds: u16,
        n_clients: u32,
        think: SimDuration,
        warmup: SimDuration,
        measure: SimDuration,
    }
    let cases = [
        Case {
            label: "tie storm",
            strategy: StrategyKind::DynamicSubtree,
            faults: false,
            n_mds: 4,
            n_clients: 24,
            think: SimDuration::from_micros(10),
            warmup: SimDuration::from_millis(200),
            measure: SimDuration::from_millis(500),
        },
        Case {
            label: "long gaps",
            strategy: StrategyKind::DynamicSubtree,
            faults: false,
            n_mds: 4,
            n_clients: 24,
            think: SimDuration::from_millis(200),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(7),
        },
        Case {
            label: "fault churn",
            strategy: StrategyKind::DynamicSubtree,
            faults: true,
            n_mds: 4,
            n_clients: 24,
            think: SimDuration::from_millis(1),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(7),
        },
        Case {
            label: "elastic",
            strategy: StrategyKind::ElasticSubtree,
            faults: false,
            n_mds: 4,
            n_clients: 24,
            think: SimDuration::from_millis(20),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(7),
        },
        Case {
            label: "sparse",
            strategy: StrategyKind::DynamicSubtree,
            faults: false,
            n_mds: 8,
            n_clients: 6,
            think: SimDuration::from_millis(50),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(7),
        },
    ];
    for case in &cases {
        let mut skip = config(case.strategy, 99, case.faults);
        skip.n_mds = case.n_mds;
        skip.n_clients = case.n_clients;
        skip.costs.think_mean = case.think;
        if case.strategy == StrategyKind::ElasticSubtree {
            skip.heartbeat = SimDuration::from_millis(250);
            skip.elastic.high_load_per_s = 300.0;
            skip.elastic.low_load_per_s = 150.0;
        }
        let mut dense = skip.clone();
        dense.force_dense = true;
        let one = run_span(skip.clone(), 1, case.warmup, case.measure);
        if case.strategy == StrategyKind::ElasticSubtree {
            assert!(
                !one.0.contains("scale-outs 0  scale-ins 0"),
                "{}: no scale action",
                case.label
            );
            assert!(one.0.contains("scale-outs "), "{}: report shows the controller", case.label);
        }
        for k in [1usize, 2, 4, 8].into_iter().filter(|&k| k <= case.n_mds as usize) {
            if k > 1 {
                let a = run_span(skip.clone(), k, case.warmup, case.measure);
                assert_eq!(one, a, "{}: surfaces differ between 1 and {k} shards", case.label);
            }
            let b = run_span(dense.clone(), k, case.warmup, case.measure);
            assert_eq!(one, b, "{}: skip vs force-dense surfaces differ at {k} shards", case.label);
        }
    }
}

#[test]
fn fixed_shard_count_reruns_are_bit_identical() {
    let run = || run_k(config(StrategyKind::DynamicSubtree, 55, true), 4);
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed, same shard count: reruns must be byte-identical");
}

#[test]
fn more_than_64_shards_match_one_shard() {
    // Shards keep lists of the shards they mail, not a 64-bit mask, so
    // nothing caps K: 80 shards, one node each, must reproduce the
    // one-shard surface.
    let mut cfg = config(StrategyKind::DynamicSubtree, 13, false);
    cfg.n_mds = 80;
    cfg.n_clients = 240;
    let span =
        |k| run_span(cfg.clone(), k, SimDuration::from_millis(500), SimDuration::from_secs(1));
    let one = span(1);
    assert!(one.0.contains("ops "), "report renders");
    assert_eq!(one, span(80), "surfaces differ between 1 and 80 shards");
}
