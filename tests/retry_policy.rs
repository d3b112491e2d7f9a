//! Client retry-policy coverage: the backoff curve is capped, the jitter
//! stream is byte-identical across same-seed runs, and the give-up
//! terminal fires after exactly the configured retry budget — no silent
//! extra attempt, no early abandonment.

use dynmds::core::cluster::Cluster;
use dynmds::core::{NetFaultSpec, Request, RetryPolicy, SimConfig, SimEvent};
use dynmds::event::{EventQueue, SimDuration, SimRng, SimTime};
use dynmds::namespace::{ClientId, MdsId, NamespaceSpec};
use dynmds::partition::StrategyKind;
use dynmds::workload::{GeneralWorkload, Op, WorkloadConfig};

#[test]
fn backoff_is_capped_and_monotone() {
    let p = RetryPolicy {
        max_retries: 200,
        base: SimDuration::from_millis(100),
        multiplier: 3.0,
        cap: SimDuration::from_secs(2),
        jitter_frac: 0.0,
    };
    let mut rng = SimRng::seed_from_u64(1);
    let mut prev = SimDuration::from_micros(0);
    for r in 1..=200u8 {
        let d = p.delay(r, &mut rng);
        assert!(d >= prev, "backoff must be non-decreasing (retry {r})");
        assert!(d <= p.cap, "retry {r}: {d:?} exceeds the cap");
        prev = d;
    }
    assert_eq!(prev, p.cap, "deep retries sit exactly at the cap");
}

#[test]
fn jitter_stream_is_byte_identical_across_same_seed_runs() {
    let p = RetryPolicy::default();
    let sequence = |seed: u64| -> Vec<u64> {
        let mut rng = SimRng::seed_from_u64(seed);
        (1..=64u8).map(|r| p.delay(r % 7 + 1, &mut rng).as_micros()).collect()
    };
    let a = sequence(42);
    assert_eq!(a, sequence(42), "same seed must replay the exact jitter stream");
    assert_ne!(a, sequence(43), "different seeds must actually jitter differently");
    // Every jittered delay stays inside [raw, raw * (1 + jitter_frac)].
    let mut rng = SimRng::seed_from_u64(9);
    for r in 1..=32u8 {
        let raw = p.base.mul_f64(p.multiplier.powi(i32::from(r) - 1)).min(p.cap);
        let d = p.delay(r, &mut rng);
        assert!(d >= raw && d <= raw.mul_f64(1.0 + p.jitter_frac), "retry {r} out of band");
    }
}

fn lossy_cluster(max_retries: u8) -> Cluster {
    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_mds = 4;
    cfg.n_clients = 4;
    cfg.retry.max_retries = max_retries;
    let snap = NamespaceSpec::with_target_items(4, 2_000, 5).generate();
    let wl = Box::new(GeneralWorkload::new(
        WorkloadConfig::default(),
        4,
        &snap.user_homes,
        &snap.shared_roots,
        &snap.ns,
    ));
    Cluster::new(cfg, snap, wl)
}

#[test]
fn give_up_fires_after_exactly_the_configured_budget() {
    for budget in [0u8, 1, 3, 6] {
        let mut c = lossy_cluster(budget);
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        // Total network loss: every re-driven attempt is dropped, so each
        // injected op must burn its whole retry budget, no more, no less.
        c.handle(
            SimTime::from_millis(1),
            SimEvent::SetNetFault(Some(NetFaultSpec { loss_p: 1.0, dup_p: 0.0 })),
            &mut q,
        );
        let dead = MdsId(1);
        c.fail_node(SimTime::from_millis(1), dead);
        let file = c.ns.live_ids().find(|&i| !c.ns.is_dir(i)).expect("a file exists");

        let injected = 3u64;
        for k in 0..injected {
            let req = Request {
                client: ClientId(k as u32),
                uid: 1,
                op: Op::Stat(file),
                issued_at: SimTime::from_millis(2),
                hops: 0,
                retries: 0,
                via_proxy: false,
            };
            c.handle(SimTime::from_millis(2), SimEvent::Arrive { mds: dead, req }, &mut q);
        }

        assert_eq!(c.gave_up, injected, "budget {budget}: every op must give up once");
        assert_eq!(
            c.retries_total,
            injected * u64::from(budget),
            "budget {budget}: retries must equal exactly gave_up * max_retries"
        );
        assert_eq!(
            c.net_lost,
            injected * u64::from(budget),
            "budget {budget}: every retry was eaten by the loss window exactly once"
        );
        // The only scheduled follow-ups are the terminal client releases.
        let mut replies = 0;
        while let Some(ev) = q.pop() {
            if matches!(ev.event, SimEvent::Reply { .. }) {
                replies += 1;
            }
        }
        assert_eq!(replies, injected, "budget {budget}: one terminal reply per abandoned op");
    }
}
