//! Stable timestamped event queue: a hierarchical timer wheel.
//!
//! Events are dispatched in `(time, insertion-seq)` order. The sequence
//! number is a monotonically increasing insertion counter, so events
//! scheduled for the same instant fire in insertion order; this stability
//! is what makes whole-simulation runs reproducible, and the wheel
//! preserves it bit-for-bit relative to the original binary-heap
//! scheduler (kept below as [`HeapEventQueue`] for differential tests).
//!
//! # Geometry
//!
//! Three wheel levels cover a near-future *span page* of `2^26`
//! microseconds (≈67 virtual seconds) around the dispatch cursor:
//!
//! * level 0 — `2^10` slots of exactly 1 µs each; a slot is a FIFO of
//!   same-timestamp events, so dispatch within a slot *is* seq order;
//! * levels 1 and 2 — 256 slots each, `2^10` µs and `2^18` µs wide;
//! * an overflow binary heap for events beyond the current span page.
//!
//! Placement is by `diff = at ^ cursor`: the highest differing bit picks
//! the level. Slots cascade lazily — an upper-level slot is exploded into
//! finer slots only when the cursor first reaches it, and the overflow
//! heap is consulted only on a span-page turn. In the simulator's
//! steady state (inter-event deltas far smaller than the span) schedule
//! and pop are O(1) amortized, and bucket storage is recycled (`Vec` /
//! `VecDeque` capacities survive cascades), so the schedule→dispatch
//! cycle allocates nothing once warm.
//!
//! # Determinism argument
//!
//! The wheel only ever holds events inside the cursor's span page, and
//! every pending event is `>= cursor` ([`EventQueue::schedule`] asserts
//! it). Consequences, each load-bearing for order stability:
//!
//! 1. an upper-level slot is cascaded exactly once, at the moment the
//!    cursor first enters the region it covers, *before* any same-region
//!    event can be placed directly — so bucket append order is seq order;
//! 2. on a span-page turn the wheel is empty and overflow events migrate
//!    in ascending `(time, seq)` heap order — again append order = seq
//!    order;
//! 3. a level-0 slot holds exactly one timestamp, so FIFO pop order is
//!    `(time, seq)` order.
//!
//! Events cannot be cancelled: neither engine needs it, so every pending
//! entry is live and [`EventQueue::peek_time`] is exact.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// An event plus its dispatch time, as returned by [`EventQueue::pop`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The payload.
    pub event: E,
}

struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// Min-order wrapper: `BinaryHeap` is a max-heap, so reverse `(at, seq)`.
struct FarEntry<E>(Entry<E>);

impl<E> Ord for FarEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.at.cmp(&self.0.at).then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}
impl<E> PartialOrd for FarEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for FarEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<E> Eq for FarEntry<E> {}

/// Level-0 size exponent: `2^10` one-microsecond slots.
const L0_BITS: u32 = 10;
const L0_SLOTS: usize = 1 << L0_BITS;
const L0_MASK: u64 = (1 << L0_BITS) - 1;
const OCC0_WORDS: usize = L0_SLOTS / 64;
/// Slots per upper wheel level.
const LEVEL_BITS: u32 = 8;
const LEVEL_SLOTS: usize = 1 << LEVEL_BITS;
const OCC_WORDS: usize = LEVEL_SLOTS / 64;
/// Bit offset of the level-2 slot index.
const L2_SHIFT: u32 = L0_BITS + LEVEL_BITS;
/// Width exponent of the whole wheel span page.
const SPAN_BITS: u32 = L0_BITS + 2 * LEVEL_BITS;

/// Priority queue of future events, ordered by time then insertion order.
pub struct EventQueue<E> {
    l0: Box<[VecDeque<Entry<E>>]>,
    l1: Box<[Vec<Entry<E>>]>,
    l2: Box<[Vec<Entry<E>>]>,
    occ0: [u64; OCC0_WORDS],
    /// Summary of `occ0`: bit `w` is set iff `occ0[w] != 0`, so scanning
    /// a mostly-empty level 0 costs one find-first-set instead of a walk
    /// over all 16 words (the sparse-schedule fast path).
    sum0: u64,
    occ1: [u64; OCC_WORDS],
    occ2: [u64; OCC_WORDS],
    /// Occupied-slot counts per level, so pops skip the bitmap scan of a
    /// level with nothing in it (the common case for sparse schedules).
    live0: u32,
    live1: u32,
    live2: u32,
    /// Memoized earliest timestamp per upper-level bucket (valid while
    /// the occupancy bit is set), so `advance_next` never rescans bucket
    /// contents.
    min1: Box<[u64]>,
    min2: Box<[u64]>,
    overflow: BinaryHeap<FarEntry<E>>,
    /// Wheel position: the dispatch time of the most recently removed
    /// entry. All pending events are at `cursor` or later.
    cursor: u64,
    /// Memoized earliest pending timestamp.
    next_at: Option<u64>,
    /// Insertion counter: the next event's seq, and so the number of
    /// events ever scheduled.
    next_seq: u64,
    pending: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            l0: (0..L0_SLOTS).map(|_| VecDeque::new()).collect(),
            l1: (0..LEVEL_SLOTS).map(|_| Vec::new()).collect(),
            l2: (0..LEVEL_SLOTS).map(|_| Vec::new()).collect(),
            occ0: [0; OCC0_WORDS],
            sum0: 0,
            occ1: [0; OCC_WORDS],
            occ2: [0; OCC_WORDS],
            live0: 0,
            live1: 0,
            live2: 0,
            min1: vec![0u64; LEVEL_SLOTS].into_boxed_slice(),
            min2: vec![0u64; LEVEL_SLOTS].into_boxed_slice(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            next_at: None,
            next_seq: 0,
            pending: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// If `at` precedes the queue's dispatch point — the last time
    /// returned by [`pop`](Self::pop) or drained via
    /// [`pop_due`](Self::pop_due). Such an event would break the wheel's
    /// `(time, seq)` order, so this fails loudly in release builds too.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.as_micros();
        assert!(at >= self.cursor, "event scheduled before an already-dispatched time");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        if self.next_at.is_none_or(|n| at < n) {
            self.next_at = Some(at);
        }
        self.place(Entry { at, seq, event });
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let t = self.next_at?;
        let e = self.take_front(t);
        Some(ScheduledEvent { at: SimTime::from_micros(e.at), event: e.event })
    }

    /// Removes the next event only if it fires exactly at `now` — the
    /// engine's same-timestamp batch drain. O(1) while the current slot
    /// still has entries.
    pub fn pop_due(&mut self, now: SimTime) -> Option<E> {
        let t = now.as_micros();
        if self.next_at != Some(t) {
            return None;
        }
        Some(self.take_front(t).event)
    }

    /// The dispatch time of the earliest pending event, if any. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_at.map(SimTime::from_micros)
    }

    /// Number of pending (scheduled, not yet fired) events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Number of far-future events currently parked in the overflow heap.
    #[cfg(test)]
    fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Buckets an entry by the highest bit in which its time differs
    /// from the cursor. Shared by schedule, cascade and overflow
    /// migration so append order always follows call order.
    fn place(&mut self, e: Entry<E>) {
        let diff = e.at ^ self.cursor;
        if diff >> L0_BITS == 0 {
            let s = (e.at & L0_MASK) as usize;
            let (w, m) = (s >> 6, 1u64 << (s & 63));
            if self.occ0[w] & m == 0 {
                self.occ0[w] |= m;
                self.sum0 |= 1u64 << w;
                self.live0 += 1;
            }
            self.l0[s].push_back(e);
        } else if diff >> L2_SHIFT == 0 {
            let s = (e.at >> L0_BITS) as usize & (LEVEL_SLOTS - 1);
            let (w, m) = (s >> 6, 1u64 << (s & 63));
            if self.occ1[w] & m == 0 {
                self.occ1[w] |= m;
                self.live1 += 1;
                self.min1[s] = e.at;
            } else if e.at < self.min1[s] {
                self.min1[s] = e.at;
            }
            self.l1[s].push(e);
        } else if diff >> SPAN_BITS == 0 {
            let s = (e.at >> L2_SHIFT) as usize & (LEVEL_SLOTS - 1);
            let (w, m) = (s >> 6, 1u64 << (s & 63));
            if self.occ2[w] & m == 0 {
                self.occ2[w] |= m;
                self.live2 += 1;
                self.min2[s] = e.at;
            } else if e.at < self.min2[s] {
                self.min2[s] = e.at;
            }
            self.l2[s].push(e);
        } else {
            self.overflow.push(FarEntry(e));
        }
    }

    /// Moves the cursor to `t` (the next dispatch time): on a span-page
    /// turn, migrates newly-near overflow events in; then cascades the
    /// upper-level slots covering `t` down to exact level-0 slots.
    fn settle_to(&mut self, t: u64) {
        if (t ^ self.cursor) >> SPAN_BITS != 0 {
            // Page turn: t is the minimum pending time and lies outside
            // the old page, so every wheel slot is empty and the cursor
            // can jump. Heap pops arrive in (time, seq) order and
            // `place` appends, so bucket order stays seq order.
            debug_assert!(self.wheel_slots_empty(), "page turn with occupied wheel slots");
            self.cursor = t;
            while let Some(top) = self.overflow.peek() {
                if (top.0.at ^ t) >> SPAN_BITS != 0 {
                    break;
                }
                let FarEntry(e) = self.overflow.pop().expect("peeked");
                self.place(e);
            }
        } else {
            self.cursor = t;
        }
        let s2 = (t >> L2_SHIFT) as usize & (LEVEL_SLOTS - 1);
        if self.occ2[s2 >> 6] & (1 << (s2 & 63)) != 0 {
            self.occ2[s2 >> 6] &= !(1 << (s2 & 63));
            self.live2 -= 1;
            let mut bucket = std::mem::take(&mut self.l2[s2]);
            for e in bucket.drain(..) {
                debug_assert_eq!(e.at >> L2_SHIFT, t >> L2_SHIFT, "stale entry in cascaded slot");
                self.place(e);
            }
            // Hand the emptied Vec back so its capacity is recycled.
            self.l2[s2] = bucket;
        }
        let s1 = (t >> L0_BITS) as usize & (LEVEL_SLOTS - 1);
        if self.occ1[s1 >> 6] & (1 << (s1 & 63)) != 0 {
            self.occ1[s1 >> 6] &= !(1 << (s1 & 63));
            self.live1 -= 1;
            let mut bucket = std::mem::take(&mut self.l1[s1]);
            for e in bucket.drain(..) {
                debug_assert_eq!(e.at >> L0_BITS, t >> L0_BITS, "stale entry");
                self.place(e);
            }
            self.l1[s1] = bucket;
        }
    }

    fn wheel_slots_empty(&self) -> bool {
        self.occ0.iter().all(|&w| w == 0)
            && self.occ1.iter().all(|&w| w == 0)
            && self.occ2.iter().all(|&w| w == 0)
    }

    /// Removes the first `(time, seq)` entry; requires `next_at == Some(t)`.
    fn take_front(&mut self, t: u64) -> Entry<E> {
        let e = if t == self.cursor {
            self.take_level0(t)
        } else if let Some(e) = self.take_sparse(t) {
            e
        } else {
            self.settle_to(t);
            self.take_level0(t)
        };
        self.pending -= 1;
        e
    }

    /// Pops the front of the level-0 slot holding `t` (the slow-path tail
    /// of [`take_front`](Self::take_front), after any needed cascade).
    fn take_level0(&mut self, t: u64) -> Entry<E> {
        let s = (t & L0_MASK) as usize;
        let e = self.l0[s].pop_front().expect("next_at points at an occupied slot");
        debug_assert_eq!(e.at, t);
        if self.l0[s].is_empty() {
            let w = s >> 6;
            self.occ0[w] &= !(1 << (s & 63));
            if self.occ0[w] == 0 {
                self.sum0 &= !(1u64 << w);
            }
            self.live0 -= 1;
            self.advance_next();
        }
        e
    }

    /// Sparse fast path: when level 0 is empty and the event at `t` is
    /// the sole occupant of its upper-level bucket — with the other upper
    /// level's covering bucket empty, so nothing else needs cascading —
    /// pop it straight out of the bucket. This skips the settle/cascade
    /// round trip (bucket drain, level-0 occupancy churn, re-scan) that
    /// otherwise costs every pop on schedules whose inter-event gaps
    /// exceed the level-0 page. Correctness: `live0 == 0` rules out
    /// level-0 entries, same-page rules out overflow entries at `t`, and
    /// the bucket indexes are functions of `t` alone, so the popped entry
    /// is the unique earliest; leaving the *other* covering bucket
    /// untouched is required because `advance_next` scans strictly past
    /// the cursor's own slot at every level.
    fn take_sparse(&mut self, t: u64) -> Option<Entry<E>> {
        if self.live0 != 0 || (t ^ self.cursor) >> SPAN_BITS != 0 {
            return None;
        }
        let s1 = (t >> L0_BITS) as usize & (LEVEL_SLOTS - 1);
        let s2 = (t >> L2_SHIFT) as usize & (LEVEL_SLOTS - 1);
        let (w1, m1) = (s1 >> 6, 1u64 << (s1 & 63));
        let (w2, m2) = (s2 >> 6, 1u64 << (s2 & 63));
        let in1 = self.occ1[w1] & m1 != 0;
        let in2 = self.occ2[w2] & m2 != 0;
        let e = if in1 && !in2 && self.min1[s1] == t && self.l1[s1].len() == 1 {
            self.occ1[w1] &= !m1;
            self.live1 -= 1;
            self.l1[s1].pop().expect("occupied level-1 bucket")
        } else if in2 && !in1 && self.min2[s2] == t && self.l2[s2].len() == 1 {
            self.occ2[w2] &= !m2;
            self.live2 -= 1;
            self.l2[s2].pop().expect("occupied level-2 bucket")
        } else {
            return None;
        };
        debug_assert_eq!(e.at, t);
        self.cursor = t;
        self.advance_next();
        Some(e)
    }

    /// Recomputes `next_at` after the cursor's level-0 slot drained: the
    /// earliest remaining time, scanning occupancy bitmaps outward from
    /// the cursor. Slots behind the cursor at each level are provably
    /// empty (pending times never precede the cursor).
    fn advance_next(&mut self) {
        let t = self.cursor;
        if self.live0 > 0 {
            let s0 = (t & L0_MASK) as usize;
            if let Some(s) = self.scan_occ0(s0 + 1) {
                self.next_at = Some((t & !L0_MASK) | s as u64);
                return;
            }
            debug_assert!(false, "live0 > 0 but no occupied slot ahead of the cursor");
        }
        if self.live1 > 0 {
            let s1 = (t >> L0_BITS) as usize & (LEVEL_SLOTS - 1);
            if let Some(s) = scan_from(&self.occ1, s1 + 1) {
                self.next_at = Some(self.min1[s]);
                return;
            }
            debug_assert!(false, "live1 > 0 but no occupied slot ahead of the cursor");
        }
        if self.live2 > 0 {
            let s2 = (t >> L2_SHIFT) as usize & (LEVEL_SLOTS - 1);
            if let Some(s) = scan_from(&self.occ2, s2 + 1) {
                self.next_at = Some(self.min2[s]);
                return;
            }
            debug_assert!(false, "live2 > 0 but no occupied slot ahead of the cursor");
        }
        self.next_at = self.overflow.peek().map(|f| f.0.at);
    }

    /// First occupied level-0 slot at or after `from`, using the summary
    /// word to jump over empty bitmap words (level 0 has `2^10 / 64 = 16`
    /// words, so the summary fits in one `u64`).
    fn scan_occ0(&self, from: usize) -> Option<usize> {
        let w0 = from >> 6;
        if w0 >= OCC0_WORDS {
            return None;
        }
        let first = self.occ0[w0] & (!0u64 << (from & 63));
        if first != 0 {
            return Some((w0 << 6) | first.trailing_zeros() as usize);
        }
        let rest = self.sum0 & !((1u64 << (w0 + 1)) - 1);
        if rest == 0 {
            return None;
        }
        let w = rest.trailing_zeros() as usize;
        Some((w << 6) | self.occ0[w].trailing_zeros() as usize)
    }
}

/// Index of the first set bit at or after `from`, if any.
fn scan_from(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from >> 6;
    if w >= words.len() {
        return None;
    }
    let mut word = words[w] & (!0u64 << (from & 63));
    loop {
        if word != 0 {
            return Some((w << 6) | word.trailing_zeros() as usize);
        }
        w += 1;
        if w == words.len() {
            return None;
        }
        word = words[w];
    }
}

/// The original binary-heap scheduler, kept as the reference
/// implementation for the wheel-vs-heap differential tests
/// (`tests/differential.rs`). Its observable behaviour matches
/// [`EventQueue`] exactly.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<FarEntry<E>>,
    next_seq: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(FarEntry(Entry { at: at.as_micros(), seq, event }));
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let FarEntry(e) = self.heap.pop()?;
        Some(ScheduledEvent { at: SimTime::from_micros(e.at), event: e.event })
    }

    /// Removes the next event only if it fires exactly at `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<E> {
        if self.peek_time() != Some(now) {
            return None;
        }
        self.heap.pop().map(|FarEntry(e)| e.event)
    }

    /// The dispatch time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|f| SimTime::from_micros(f.0.at))
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
        self.next_seq
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

    // --- wheel-specific edge cases -------------------------------------

    /// Span page width: 2^26 µs.
    const SPAN: u64 = 1 << 26;

    #[test]
    fn far_future_events_park_in_overflow_and_migrate_back() {
        let mut q = EventQueue::new();
        q.schedule(t(3), "near");
        q.schedule(t(5 * SPAN + 17), "far");
        q.schedule(t(2 * SPAN + 9), "mid");
        assert_eq!(q.overflow_len(), 2, "both beyond the cursor's span page");
        assert_eq!(q.pop().unwrap(), ScheduledEvent { at: t(3), event: "near" });
        // Popping "mid" turns the page; only "far" stays parked.
        assert_eq!(q.pop().unwrap(), ScheduledEvent { at: t(2 * SPAN + 9), event: "mid" });
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.pop().unwrap(), ScheduledEvent { at: t(5 * SPAN + 17), event: "far" });
        assert_eq!(q.overflow_len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_migration_preserves_seq_order_for_ties() {
        let mut q = EventQueue::new();
        let far = 7 * SPAN + 123;
        for i in 0..50 {
            q.schedule(t(far), i);
        }
        q.schedule(t(1), -1);
        assert_eq!(q.overflow_len(), 50);
        assert_eq!(q.pop().unwrap().event, -1);
        for i in 0..50 {
            assert_eq!(q.pop().unwrap().event, i, "ties migrated out of the heap stay stable");
        }
    }

    #[test]
    fn events_straddling_the_page_boundary_stay_ordered() {
        let mut q = EventQueue::new();
        // Just inside and just outside the first span page, interleaved.
        let times = [SPAN - 1, SPAN, SPAN + 1, 1, 0, 2 * SPAN - 1, 2 * SPAN];
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
        assert!(q.pop().is_none(), "drained wheel at the top of the time range");
        assert!(q.is_empty());
    }

    #[test]
    fn drained_wheel_fast_path() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        q.schedule(t(400_000), 1); // lands in an upper level from cursor 0
        assert_eq!(q.peek_time(), Some(t(400_000)));
        assert_eq!(q.pop().unwrap().event, 1);
        // Fully drained again: peek/pop hit the memoized-None path.
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
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
        // Inter-event gaps larger than the level-0 page drive every pop
        // through the sparse fast path (single-occupant upper buckets);
        // mixing in same-time ties and dense clusters forces the
        // fall-back to the cascade path. Differential against the heap.
        let mut xs = 0x5EED_CAFE_u64;
        let mut rand = move || {
            xs ^= xs << 13;
            xs ^= xs >> 7;
            xs ^= xs << 17;
            xs
        };
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut now = 0u64;
        for i in 0..5_000usize {
            let gap = match rand() % 10 {
                0..=5 => 1_100 + rand() % 100_000,   // beyond the 2^10 µs page
                6..=7 => rand() % 8,                 // dense / tied
                _ => (1 << 20) + rand() % (1 << 22), // deep level 2
            };
            let at = t(now + gap);
            wheel.schedule(at, i);
            heap.schedule(at, i);
            if rand() % 3 == 0 {
                let (w, h) = (wheel.pop(), heap.pop());
                match (&w, &h) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.at, a.event), (b.at, b.event));
                        now = a.at.as_micros();
                    }
                    (None, None) => {}
                    _ => panic!("wheel/heap divergence: {w:?} vs {h:?}"),
                }
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        loop {
            match (wheel.pop(), heap.pop()) {
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
