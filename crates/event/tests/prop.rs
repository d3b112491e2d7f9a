//! Property tests: the event queue behaves exactly like a reference
//! model (sorted stable multimap), and a drain loop over it never moves
//! time backwards.

use dynmds_event::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// Reference model: (time, seq) ordered pairs.
fn reference_order(inserts: &[(u64, u32)]) -> Vec<u32> {
    let mut tagged: Vec<(u64, usize, u32)> =
        inserts.iter().enumerate().map(|(seq, &(t, v))| (t, seq, v)).collect();
    tagged.sort_by_key(|&(t, seq, _)| (t, seq));
    tagged.into_iter().map(|(_, _, v)| v).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn queue_matches_reference_model(inserts in prop::collection::vec((0u64..1_000, any::<u32>()), 0..200)) {
        let mut q = EventQueue::new();
        for &(t, v) in &inserts {
            q.schedule(SimTime::from_micros(t), v);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev.event);
        }
        prop_assert_eq!(popped, reference_order(&inserts));
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.scheduled_total(), inserts.len() as u64);
    }

    #[test]
    fn interleaved_pops_stay_ordered(
        batches in prop::collection::vec(prop::collection::vec(0u64..500, 1..10), 1..20),
    ) {
        // Schedule a batch, pop one, repeat. The queue's contract (it
        // asserts it) is that nothing is ever scheduled before the most
        // recently dispatched time, so each
        // batch lands at or after the pop frontier; each pop then yields
        // the current minimum.
        let mut q = EventQueue::new();
        let mut frontier: u64 = 0;
        for batch in &batches {
            for &t in batch {
                q.schedule(SimTime::from_micros(frontier + t), t);
            }
            if let Some(ev) = q.pop() {
                // The popped event is <= everything still queued.
                if let Some(peek) = q.peek_time() {
                    prop_assert!(ev.at <= peek);
                }
                prop_assert!(ev.at.as_micros() >= frontier, "pop frontier went backwards");
                frontier = ev.at.as_micros();
            }
        }
    }

    #[test]
    fn drain_loop_clock_is_monotone(events in prop::collection::vec((0u64..10_000, 0u64..100), 1..100)) {
        // The engines' loop: peek the next instant, drain it with
        // `pop_due`; handlers may reschedule forward.
        let mut q = EventQueue::new();
        for &(t, d) in &events {
            q.schedule(SimTime::from_micros(t), d);
        }
        let mut times: Vec<u64> = Vec::new();
        while let Some(now) = q.peek_time() {
            while let Some(delay) = q.pop_due(now) {
                times.push(now.as_micros());
                if delay > 0 && times.len() < 5_000 {
                    q.schedule(now + SimDuration::from_micros(delay), 0);
                }
            }
        }
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "clock went backwards");
        prop_assert!(times.len() >= events.len());
    }
}
