//! Differential test: [`EventQueue`] must be observably identical to the
//! reference `BinaryHeap` scheduler ([`HeapEventQueue`]) under random
//! interleavings of schedule / pop / pop_due — including same-timestamp
//! bursts, zero-delay self-schedules at the pop frontier, and deltas from
//! one microsecond to over an hour. This is the determinism contract the
//! queue must honor: same inputs, same `(time, seq)` dispatch sequence,
//! same bytes downstream.

use dynmds_event::{EventQueue, HeapEventQueue, SimDuration, SimRng, SimTime};

/// A random delta, scaled by `2^shift`. The magnitude class is picked
/// first so every scale of gap sees traffic:
/// 0 = same-instant tie, then deltas around 2^3, 2^9, 2^14, 2^21, 2^32
/// microseconds before scaling.
fn random_delta(rng: &mut SimRng, shift: u32) -> u64 {
    let d = match rng.below(6) {
        0 => 0,
        1 => 1 + rng.below(8),
        2 => rng.below(1 << 9),
        3 => rng.below(1 << 14),
        4 => rng.below(1 << 21),
        _ => rng.below(1 << 32),
    };
    d << shift
}

fn run_differential(seed: u64, shift: u32, ops: usize) {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut rng = SimRng::seed_from_u64(seed);

    let mut next_payload = 0u64;
    // Times already dispatched; schedules never go below this (the
    // queue's no-past rule).
    let mut frontier = SimTime::ZERO;

    for op in 0..ops {
        match rng.below(9) {
            // Schedule (most common, keeps population up).
            0..=4 => {
                let at = frontier + SimDuration::from_micros(random_delta(&mut rng, shift));
                queue.schedule(at, next_payload);
                heap.schedule(at, next_payload);
                next_payload += 1;
            }
            // Burst of ties at one instant.
            5 => {
                let at = frontier + SimDuration::from_micros(random_delta(&mut rng, shift));
                for _ in 0..rng.below(12) {
                    queue.schedule(at, next_payload);
                    heap.schedule(at, next_payload);
                    next_payload += 1;
                }
            }
            // Pop, then sometimes a zero-delay self-schedule at the
            // popped instant (what Reply->Issue chains do).
            6 | 7 => {
                let w = queue.pop();
                let h = heap.pop();
                match (&w, &h) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.at, a.event), (b.at, b.event), "op {op} seed {seed}");
                    }
                    (None, None) => {}
                    _ => panic!("op {op} seed {seed}: one queue empty, the other not"),
                }
                if let Some(ev) = w {
                    frontier = ev.at;
                    if rng.chance(0.3) {
                        queue.schedule(ev.at, next_payload);
                        heap.schedule(ev.at, next_payload);
                        next_payload += 1;
                    }
                }
            }
            // Batch drain at the current earliest instant.
            _ => {
                if let Some(at) = queue.peek_time() {
                    frontier = at;
                    loop {
                        let w = queue.pop_due(at);
                        let h = heap.pop_due(at);
                        assert_eq!(w, h, "pop_due mismatch at op {op} seed {seed}");
                        if w.is_none() {
                            break;
                        }
                    }
                }
            }
        }
        assert_eq!(queue.len(), heap.len(), "len diverged at op {op} seed {seed}");
        assert_eq!(
            queue.peek_time(),
            heap.peek_time(),
            "peek_time diverged at op {op} seed {seed}"
        );
        assert_eq!(queue.is_empty(), heap.is_empty());
    }

    // Drain both to exhaustion: the tails must match event for event.
    loop {
        let w = queue.pop();
        let h = heap.pop();
        match (&w, &h) {
            (Some(a), Some(b)) => assert_eq!((a.at, a.event), (b.at, b.event), "seed {seed}"),
            (None, None) => break,
            _ => panic!("seed {seed}: drain length mismatch"),
        }
    }
    assert!(queue.is_empty() && heap.is_empty());
    assert_eq!(queue.scheduled_total(), heap.scheduled_total());
}

#[test]
fn queue_matches_heap_reference_across_seeds() {
    for seed in 0..30 {
        run_differential(seed, 0, 600);
    }
}

#[test]
fn queue_matches_heap_with_coarse_deltas() {
    // Deltas 16x larger: most events land far apart, with ties still
    // mixed in.
    for seed in 100..120 {
        run_differential(seed, 4, 600);
    }
}

#[test]
fn queue_matches_heap_under_tie_storms() {
    // Drive almost everything to a handful of instants.
    for seed in 0..10u64 {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut rng = SimRng::seed_from_u64(0xBEEF ^ seed);
        for payload in 0..400u64 {
            let at = SimTime::from_micros(rng.below(4) * 1_000);
            queue.schedule(at, payload);
            heap.schedule(at, payload);
        }
        loop {
            let (w, h) = (queue.pop(), heap.pop());
            match (&w, &h) {
                (Some(a), Some(b)) => assert_eq!((a.at, a.event), (b.at, b.event)),
                (None, None) => break,
                _ => panic!("length mismatch"),
            }
        }
    }
}
