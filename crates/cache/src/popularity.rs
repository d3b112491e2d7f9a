//! Exponentially decaying access counters (§4.4).
//!
//! "MDS nodes monitor the popularity of metadata using a simple access
//! counter whose value decays over time, or any other measure or estimate
//! of the extent to which an item appears in client caches (precision
//! isn't necessary)."
//!
//! The counter for an item is `v(t) = v(t0) * 2^-((t - t0)/half_life)`;
//! each access adds 1 after decay. Values are updated lazily on access
//! and on read, so idle items cost nothing.

use dynmds_event::{SimDuration, SimTime};
use dynmds_namespace::{FxHashMap, InodeId};

#[derive(Clone, Copy, Debug)]
struct Counter {
    value: f64,
    last: SimTime,
}

/// Decaying popularity counters keyed by inode.
#[derive(Clone, Debug)]
pub struct Popularity {
    half_life: SimDuration,
    counters: FxHashMap<InodeId, Counter>,
}

impl Popularity {
    /// Creates a meter with the given half-life.
    pub fn new(half_life: SimDuration) -> Self {
        assert!(half_life.as_micros() > 0, "half-life must be positive");
        Popularity { half_life, counters: FxHashMap::default() }
    }

    fn decayed(&self, c: Counter, now: SimTime) -> f64 {
        let dt = now.saturating_since(c.last).as_secs_f64();
        let hl = self.half_life.as_secs_f64();
        c.value * (-(dt / hl) * std::f64::consts::LN_2).exp()
    }

    /// Records one access to `id` at `now`; returns the updated value.
    pub fn record(&mut self, now: SimTime, id: InodeId) -> f64 {
        let prev = self.counters.get(&id).map(|&c| self.decayed(c, now)).unwrap_or(0.0);
        let value = prev + 1.0;
        self.counters.insert(id, Counter { value, last: now });
        value
    }

    /// Current (decayed) value for `id`; 0 if never accessed.
    pub fn value(&self, now: SimTime, id: InodeId) -> f64 {
        self.counters.get(&id).map(|&c| self.decayed(c, now)).unwrap_or(0.0)
    }

    /// Whether `id` has a counter (however far it has decayed).
    pub fn contains(&self, id: InodeId) -> bool {
        self.counters.contains_key(&id)
    }

    /// Forgets an item (e.g. after its metadata was unlinked or migrated).
    pub fn forget(&mut self, id: InodeId) {
        self.counters.remove(&id);
    }

    /// Drops counters that have decayed below `threshold` — periodic
    /// housekeeping so long simulations don't accumulate dead entries.
    pub fn prune(&mut self, now: SimTime, threshold: f64) {
        let keep: Vec<(InodeId, Counter)> = self
            .counters
            .iter()
            .filter(|(_, c)| self.decayed(**c, now) >= threshold)
            .map(|(k, v)| (*k, *v))
            .collect();
        self.counters.clear();
        self.counters.extend(keep);
    }

    /// Number of tracked items.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> InodeId {
        InodeId(n)
    }

    fn meter() -> Popularity {
        Popularity::new(SimDuration::from_secs(10))
    }

    #[test]
    fn accesses_accumulate() {
        let mut p = meter();
        let t = SimTime::from_secs(1);
        assert_eq!(p.record(t, id(1)), 1.0);
        assert_eq!(p.record(t, id(1)), 2.0);
        assert_eq!(p.record(t, id(1)), 3.0);
        assert_eq!(p.value(t, id(2)), 0.0);
    }

    #[test]
    fn value_halves_per_half_life() {
        let mut p = meter();
        p.record(SimTime::ZERO, id(1));
        p.record(SimTime::ZERO, id(1));
        p.record(SimTime::ZERO, id(1));
        p.record(SimTime::ZERO, id(1)); // value 4 at t=0
        let v = p.value(SimTime::from_secs(10), id(1));
        assert!((v - 2.0).abs() < 1e-9, "one half-life: got {v}");
        let v = p.value(SimTime::from_secs(20), id(1));
        assert!((v - 1.0).abs() < 1e-9, "two half-lives: got {v}");
    }

    #[test]
    fn burst_then_idle_fades() {
        let mut p = meter();
        for _ in 0..1000 {
            p.record(SimTime::ZERO, id(1));
        }
        let v = p.value(SimTime::from_secs(200), id(1));
        assert!(v < 0.001, "20 half-lives kill a 1000-burst: got {v}");
    }

    #[test]
    fn record_applies_decay_before_increment() {
        let mut p = meter();
        p.record(SimTime::ZERO, id(1)); // 1.0
        let v = p.record(SimTime::from_secs(10), id(1));
        assert!((v - 1.5).abs() < 1e-9, "0.5 decayed + 1: got {v}");
    }

    #[test]
    fn forget_and_prune() {
        let mut p = meter();
        p.record(SimTime::ZERO, id(1));
        p.record(SimTime::ZERO, id(2));
        for _ in 0..100 {
            p.record(SimTime::ZERO, id(3));
        }
        p.forget(id(1));
        assert!(!p.contains(id(1)) && p.contains(id(2)));
        assert_eq!(p.len(), 2);
        // After 50s, singles are < 0.05; the 100-burst is ~3.1.
        p.prune(SimTime::from_secs(50), 0.1);
        assert_eq!(p.len(), 1);
        assert!(p.value(SimTime::from_secs(50), id(3)) > 1.0);
        p.forget(id(3));
        assert!(p.is_empty());
    }

    #[test]
    fn independent_items_do_not_interact() {
        let mut p = meter();
        for _ in 0..10 {
            p.record(SimTime::ZERO, id(1));
        }
        p.record(SimTime::ZERO, id(2));
        assert!(p.value(SimTime::ZERO, id(1)) > 9.0);
        assert!((p.value(SimTime::ZERO, id(2)) - 1.0).abs() < 1e-9);
    }
}
