//! Stable timestamped event queue: a 4-ary min-heap of keys over a
//! payload slab.
//!
//! Events are dispatched in `(time, insertion-seq)` order. The sequence
//! number is a monotonically increasing insertion counter, so events
//! scheduled for the same instant fire in insertion order; this stability
//! is what makes whole-simulation runs reproducible. [`HeapEventQueue`],
//! a plain `std::collections::BinaryHeap`, is the reference model the
//! differential tests compare against.
//!
//! The heap orders 24-byte `(time, seq, slot)` keys; the payloads stay
//! put in a slab (`Vec<Option<E>>`) whose freed slots are reused before
//! it grows. Sifting moves keys only, a 4-ary heap is half as deep as a
//! binary one, and a node's four children sit in one or two cache lines.
//! Storage is bounded by the peak number of pending events, not by the
//! span of simulated time the queue has crossed.
//!
//! Events cannot be cancelled: neither engine needs it, so every pending
//! key is live and [`EventQueue::peek_time`] is exact.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event plus its dispatch time, as returned by [`EventQueue::pop`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The payload.
    pub event: E,
}

/// Children per heap node: the children of `i` are `4i + 1 ..= 4i + 4`.
const ARITY: usize = 4;

/// A pending event's place in dispatch order, and where its payload is.
#[derive(Clone, Copy)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Whether `self` dispatches before `other`: earlier time, then
    /// earlier insertion. One 128-bit compare, so it selects without a
    /// branch.
    fn before(&self, other: &Key) -> bool {
        let rank = |k: &Key| u128::from(k.at) << 64 | u128::from(k.seq);
        rank(self) < rank(other)
    }
}

/// Priority queue of future events, ordered by time then insertion order.
pub struct EventQueue<E> {
    /// 4-ary min-heap of the pending events' keys.
    heap: Vec<Key>,
    /// Payloads, indexed by `Key::slot`; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// The time of the last dispatched event: nothing may be scheduled
    /// before it.
    floor: u64,
    /// Insertion counter: the next event's seq, and so the number of
    /// events ever scheduled.
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: Vec::new(), slab: Vec::new(), free: Vec::new(), floor: 0, next_seq: 0 }
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// If `at` precedes the queue's dispatch point — the last time
    /// returned by [`pop`](Self::pop) or drained via
    /// [`pop_due`](Self::pop_due). Such an event would fire out of
    /// `(time, seq)` order, so this fails loudly in release builds too.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.as_micros();
        assert!(at >= self.floor, "event scheduled before an already-dispatched time");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
                self.slab.push(Some(event));
                slot
            }
        };
        let key = Key { at, seq: self.next_seq, slot };
        self.next_seq += 1;
        self.sift_up(key);
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let at = self.heap.first()?.at;
        Some(ScheduledEvent { at: SimTime::from_micros(at), event: self.take_front() })
    }

    /// Removes the next event only if it fires exactly at `now` — the
    /// engine's same-timestamp batch drain.
    pub fn pop_due(&mut self, now: SimTime) -> Option<E> {
        if self.heap.first()?.at != now.as_micros() {
            return None;
        }
        Some(self.take_front())
    }

    /// The dispatch time of the earliest pending event, if any. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| SimTime::from_micros(k.at))
    }

    /// Number of pending (scheduled, not yet fired) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Removes the root key and returns its payload, freeing its slot;
    /// the heap must be non-empty.
    fn take_front(&mut self) -> E {
        let last = self.heap.pop().expect("take_front on an empty queue");
        let front = match self.heap.first() {
            Some(&root) => {
                self.sift_down(last);
                root
            }
            None => last,
        };
        self.floor = front.at;
        self.free.push(front.slot);
        self.slab[front.slot as usize].take().expect("a pending key's slot holds its payload")
    }

    /// Appends `key` and moves it up past every parent it precedes.
    fn sift_up(&mut self, key: Key) {
        let mut i = self.heap.len();
        self.heap.push(key);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !key.before(&self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = key;
    }

    /// Moves `key` down from the root, whose old key is dropped: each
    /// step moves the earliest child up into the hole. A full set of four
    /// children is picked from by a branch-free tournament.
    fn sift_down(&mut self, key: Key) {
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            let child = if first + ARITY <= n {
                let c = &self.heap[first..first + ARITY];
                let a = usize::from(c[1].before(&c[0]));
                let b = 2 + usize::from(c[3].before(&c[2]));
                first + if c[b].before(&c[a]) { b } else { a }
            } else if first < n {
                (first + 1..n)
                    .fold(first, |m, c| if self.heap[c].before(&self.heap[m]) { c } else { m })
            } else {
                break;
            };
            if !self.heap[child].before(&key) {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = key;
    }
}

/// The original `std::collections::BinaryHeap` scheduler, kept as the
/// reference model for the differential tests (`tests/differential.rs`).
/// Its observable behaviour matches [`EventQueue`] exactly.
pub struct HeapEventQueue<E> {
    /// Min-heap of pending `(time, seq)` pairs.
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Every event ever scheduled, indexed by seq; `None` once dispatched.
    events: Vec<Option<E>>,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue { heap: BinaryHeap::new(), events: Vec::new() }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.heap.push(Reverse((at.as_micros(), self.events.len() as u64)));
        self.events.push(Some(event));
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Reverse((at, seq)) = self.heap.pop()?;
        let event = self.events[seq as usize].take().expect("each event dispatches once");
        Some(ScheduledEvent { at: SimTime::from_micros(at), event })
    }

    /// Removes the next event only if it fires exactly at `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<E> {
        if self.peek_time() != Some(now) {
            return None;
        }
        self.pop().map(|e| e.event)
    }

    /// The dispatch time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, _))| SimTime::from_micros(at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.events.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_stable() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(10), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        q.schedule(t(10), 3);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(42), ());
        q.schedule(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
    }

    #[test]
    fn len_and_totals_track_activity() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2, "total counts scheduled, not pending");
    }

    #[test]
    fn scheduled_event_carries_time() {
        let mut q = EventQueue::new();
        q.schedule(t(99), "x");
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, t(99));
        assert_eq!(ev.event, "x");
    }

    /// 2^26 µs, about 67 virtual seconds: far past the deltas the engines
    /// schedule at.
    const FAR: u64 = 1 << 26;

    #[test]
    fn far_future_events_order_with_near_ones() {
        let mut q = EventQueue::new();
        q.schedule(t(3), "near");
        q.schedule(t(5 * FAR + 17), "far");
        q.schedule(t(2 * FAR + 9), "mid");
        assert_eq!(q.pop().unwrap(), ScheduledEvent { at: t(3), event: "near" });
        assert_eq!(q.pop().unwrap(), ScheduledEvent { at: t(2 * FAR + 9), event: "mid" });
        assert_eq!(q.pop().unwrap(), ScheduledEvent { at: t(5 * FAR + 17), event: "far" });
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_ties_keep_seq_order() {
        let mut q = EventQueue::new();
        let far = 7 * FAR + 123;
        for i in 0..50 {
            q.schedule(t(far), i);
        }
        q.schedule(t(1), -1);
        assert_eq!(q.pop().unwrap().event, -1);
        for i in 0..50 {
            assert_eq!(q.pop().unwrap().event, i, "far-future ties fire in insertion order");
        }
    }

    #[test]
    fn interleaved_near_and_far_times_pop_sorted() {
        let mut q = EventQueue::new();
        let times = [FAR - 1, FAR, FAR + 1, 1, 0, 2 * FAR - 1, 2 * FAR];
        for (i, &us) in times.iter().enumerate() {
            q.schedule(t(us), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.at.as_micros())).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn sim_time_max_is_schedulable() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "end-of-time");
        q.schedule(t(1), "soon");
        assert_eq!(q.pop().unwrap().event, "soon");
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, SimTime::MAX);
        assert_eq!(ev.event, "end-of-time");
        assert!(q.pop().is_none(), "drained at the top of the time range");
        assert!(q.is_empty());
    }

    #[test]
    fn drained_queue_reports_empty_and_refills() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        q.schedule(t(400_000), 1);
        assert_eq!(q.peek_time(), Some(t(400_000)));
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.schedule(t(400_000), 2);
        assert_eq!(q.pop().unwrap(), ScheduledEvent { at: t(400_000), event: 2 });
    }

    #[test]
    fn freed_slots_are_reused_without_mixing_payloads() {
        // Pops free payload slots; later schedules take them back while
        // other events are still pending. Each pop must still hand back
        // the payload scheduled with its key.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.schedule(t(10 + i), i);
        }
        let mut now = 0;
        for round in 0..4u64 {
            for _ in 0..3 {
                let ev = q.pop().unwrap();
                now = ev.at.as_micros();
                assert_eq!(ev.event, now - 10, "payload follows its key");
            }
            for j in 0..3 {
                let at = now + 1 + 5 * (round + 1) + j;
                q.schedule(t(at), at - 10);
            }
            assert_eq!(q.slab.len(), 8, "freed slots are reused before the slab grows");
        }
        while let Some(ev) = q.pop() {
            assert_eq!(ev.event, ev.at.as_micros() - 10, "payload follows its key");
        }
        assert_eq!(q.free.len(), q.slab.len(), "every slot is free once drained");
    }

    #[test]
    fn zero_delay_self_schedule_keeps_seq_order() {
        // Schedule at exactly the time being dispatched; the new event
        // must fire in the same batch, after previously queued ties.
        let mut q = EventQueue::new();
        q.schedule(t(10), 0);
        q.schedule(t(10), 1);
        let first = q.pop().unwrap();
        assert_eq!(first.event, 0);
        q.schedule(first.at, 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_due_drains_only_the_given_instant() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "a");
        q.schedule(t(5), "b");
        q.schedule(t(6), "c");
        assert_eq!(q.pop_due(t(4)), None);
        assert_eq!(q.pop_due(t(5)), Some("a"));
        assert_eq!(q.pop_due(t(5)), Some("b"));
        assert_eq!(q.pop_due(t(5)), None, "t=6 event must not fire at t=5");
        assert_eq!(q.pop_due(t(6)), Some("c"));
        assert_eq!(q.pop_due(t(6)), None);
    }

    #[test]
    fn sparse_schedules_match_heap_reference() {
        // Mostly wide gaps, with same-time ties and dense clusters mixed
        // in. Differential against the reference heap.
        let mut xs = 0x5EED_CAFE_u64;
        let mut rand = move || {
            xs ^= xs << 13;
            xs ^= xs >> 7;
            xs ^= xs << 17;
            xs
        };
        let mut queue = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut now = 0u64;
        for i in 0..5_000usize {
            let gap = match rand() % 10 {
                0..=5 => 1_100 + rand() % 100_000,   // wide
                6..=7 => rand() % 8,                 // dense / tied
                _ => (1 << 20) + rand() % (1 << 22), // seconds ahead
            };
            let at = t(now + gap);
            queue.schedule(at, i);
            heap.schedule(at, i);
            if rand() % 3 == 0 {
                let (w, h) = (queue.pop(), heap.pop());
                match (&w, &h) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.at, a.event), (b.at, b.event));
                        now = a.at.as_micros();
                    }
                    (None, None) => {}
                    _ => panic!("queue/heap divergence: {w:?} vs {h:?}"),
                }
            }
            assert_eq!(queue.len(), heap.len());
            assert_eq!(queue.peek_time(), heap.peek_time());
        }
        loop {
            match (queue.pop(), heap.pop()) {
                (Some(a), Some(b)) => assert_eq!((a.at, a.event), (b.at, b.event)),
                (None, None) => break,
                (w, h) => panic!("drain divergence: {w:?} vs {h:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "before an already-dispatched time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(50), "a");
        assert_eq!(q.pop().unwrap().at, t(50));
        q.schedule(t(49), "late");
    }

    #[test]
    fn heap_reference_queue_matches_basic_contract() {
        let mut q = HeapEventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.peek_time(), Some(t(10)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop_due(t(30)), None, "t=20 is due first");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop_due(t(30)), Some("c"));
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_total(), 3);
    }
}
