//! Adaptive hotspot proxy tier (ROADMAP item 4).
//!
//! MIDAS-style middleware that sits between the client population and the
//! MDS cluster. Each proxy runs an online hot-object detector (the §4.4
//! decayed access counter, [`Popularity`]) and, for items it considers
//! hot, absorbs work that would otherwise hammer the authority:
//!
//! * **negative-lookup caching** — a name already known to be absent is
//!   answered at the proxy; creates/renames that materialize the name
//!   invalidate the entry synchronously,
//! * **read absorption** — repeat stats/readdirs of a hot item the proxy
//!   has already read through are answered from the proxy cache,
//! * **write coalescing** — monotone size/mtime bumps (close/setattr)
//!   against a hot file are acknowledged immediately and folded into one
//!   delta that is pushed to the authority at the next flush.
//!
//! Cold traffic bypasses the proxy entirely, so proxy-off runs are
//! byte-identical to a build without this crate.
//!
//! [`ProxyCore`] is the one proxy state machine, and it keeps every
//! [`ProxyStats`] counter itself. Both engines drive it; each keeps only
//! its own transport (extra network hops, proxy CPU, flush scheduling).
//! The sharded engine's namespace is frozen, so it never teaches a
//! proxy a negative entry and that cache stays empty there. The DST
//! proxy-coherence oracle runs on the legacy engine only; the property
//! tests in `tests/` check the state machine itself.

use dynmds_cache::Popularity;
use dynmds_event::{SimDuration, SimTime};
use dynmds_namespace::{FxHashMap, FxHashSet, InodeId};

/// Proxy-tier knobs, carried inside the simulation config. `count == 0`
/// (the default) disables the tier completely: no proxy state is
/// allocated and no code path draws randomness or emits output, keeping
/// proxy-off runs byte-identical to pre-proxy builds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProxyConfig {
    /// Number of proxies fronting the cluster (0 = tier disabled).
    /// Clients map to proxies statically: `client mod count`.
    pub count: u16,
    /// Decayed touch count above which an item counts as hot. A stream
    /// of `r` touches/second converges on about `r * HALF_LIFE / ln 2`,
    /// so the threshold picks out items whose *sustained* rate is high,
    /// not one-off bursts.
    pub hot_threshold: f64,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig { count: 0, hot_threshold: 24.0 }
    }
}

/// Half-life of the hot detector's decayed counters.
pub const HALF_LIFE: SimDuration = SimDuration::from_millis(250);

/// CPU cost a proxy pays to absorb or forward one request.
pub const PROXY_CPU: SimDuration = SimDuration::from_micros(20);

impl ProxyConfig {
    /// Whether the proxy tier is active.
    pub fn enabled(&self) -> bool {
        self.count > 0
    }
}

/// Absorption counters for one proxy. Registered with the observability
/// layer only when the tier is enabled, so proxy-off metric exports are
/// unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Negative lookups answered from the proxy.
    pub neg_hits: u64,
    /// Negative entries learned from authority misses.
    pub neg_inserts: u64,
    /// Reads of hot cached items answered at the proxy.
    pub read_absorbs: u64,
    /// Write deltas coalesced at the proxy.
    pub writes_coalesced: u64,
    /// Flush rounds that pushed at least one delta.
    pub flush_batches: u64,
    /// Individual item deltas pushed to authorities.
    pub flushed_items: u64,
    /// Hot requests the proxy had to relay to the cluster.
    pub forwarded: u64,
    /// Negative entries dropped by create/rename invalidation.
    pub invalidations: u64,
}

impl ProxyStats {
    /// Ops answered at the proxy that never entered the cluster:
    /// negative lookups, absorbed reads and coalesced writes.
    pub fn absorbed(&self) -> u64 {
        self.neg_hits + self.read_absorbs + self.writes_coalesced
    }
}

impl<'a> std::iter::Sum<&'a ProxyStats> for ProxyStats {
    fn sum<I: Iterator<Item = &'a ProxyStats>>(iter: I) -> Self {
        iter.fold(ProxyStats::default(), |mut t, s| {
            t.neg_hits += s.neg_hits;
            t.neg_inserts += s.neg_inserts;
            t.read_absorbs += s.read_absorbs;
            t.writes_coalesced += s.writes_coalesced;
            t.flush_batches += s.flush_batches;
            t.flushed_items += s.flushed_items;
            t.forwarded += s.forwarded;
            t.invalidations += s.invalidations;
            t
        })
    }
}

/// The engine-agnostic state of one proxy: hot detector, negative-lookup
/// cache, read-through cache and write coalescer, plus the invalidation
/// protocol tying them together. All per-item state is keyed by
/// [`InodeId`]; any output derived from iteration is sorted first, so the
/// hash maps never leak ordering into deterministic reports.
#[derive(Clone, Debug)]
pub struct ProxyCore {
    hot_threshold: f64,
    detector: Popularity,
    /// Names known to be absent, per directory.
    neg: FxHashMap<InodeId, FxHashSet<String>>,
    /// Hot items the proxy has read through and may answer for.
    cached: FxHashSet<InodeId>,
    /// Coalesced write deltas (count of absorbed size/mtime bumps).
    pending: FxHashMap<InodeId, u64>,
    /// Absorption counters; only this type's methods bump them.
    stats: ProxyStats,
}

impl ProxyCore {
    /// New proxy with the given detector tuning.
    pub fn new(cfg: &ProxyConfig) -> Self {
        ProxyCore {
            hot_threshold: cfg.hot_threshold,
            detector: Popularity::new(HALF_LIFE),
            neg: FxHashMap::default(),
            cached: FxHashSet::default(),
            pending: FxHashMap::default(),
            stats: ProxyStats::default(),
        }
    }

    /// This proxy's absorption counters.
    pub fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    /// Zeroes the counters (end of warm-up); every cache stays warm.
    pub fn reset_stats(&mut self) {
        self.stats = ProxyStats::default();
    }

    // ---- hot detection -------------------------------------------------

    /// Records one touch of `item` and reports whether it is now hot.
    pub fn observe(&mut self, item: InodeId, now: SimTime) -> bool {
        self.detector.record(now, item) >= self.hot_threshold
    }

    // ---- negative-lookup cache ----------------------------------------

    /// Whether `(dir, name)` is cached as absent; counts a hit.
    pub fn neg_lookup(&mut self, dir: InodeId, name: &str) -> bool {
        let hit = self.neg_contains(dir, name);
        if hit {
            self.stats.neg_hits += 1;
        }
        hit
    }

    /// Whether `(dir, name)` is cached as absent (pure; no counter).
    pub fn neg_contains(&self, dir: InodeId, name: &str) -> bool {
        self.neg.get(&dir).is_some_and(|names| names.contains(name))
    }

    /// Learns from an authority miss: `name` is absent in `dir`.
    pub fn note_negative(&mut self, dir: InodeId, name: &str) {
        if self.neg.entry(dir).or_default().insert(name.to_owned()) {
            self.stats.neg_inserts += 1;
        }
    }

    // ---- read cache ----------------------------------------------------

    /// Marks `item` as read through this proxy (absorbable from now on).
    pub fn note_cached(&mut self, item: InodeId) {
        self.cached.insert(item);
    }

    /// Answers a read of `item` at the proxy if it has read the item
    /// through and holds no unflushed delta that would make that copy
    /// stale; counts the absorb.
    pub fn absorb_read(&mut self, item: InodeId) -> bool {
        let hit = self.cached.contains(&item) && !self.pending.contains_key(&item);
        if hit {
            self.stats.read_absorbs += 1;
        }
        hit
    }

    /// Counts one hot request the proxy relays to the cluster.
    pub fn note_forwarded(&mut self) {
        self.stats.forwarded += 1;
    }

    // ---- write coalescing ----------------------------------------------

    /// Absorbs one monotone write against `item`; returns the coalesced
    /// delta count now pending.
    pub fn absorb_write(&mut self, item: InodeId) -> u64 {
        self.stats.writes_coalesced += 1;
        let e = self.pending.entry(item).or_insert(0);
        *e += 1;
        *e
    }

    /// Removes and returns the pending delta for one item (read-triggered
    /// flush: the authority must see the deltas before serving the read).
    pub fn take_pending(&mut self, item: InodeId) -> Option<u64> {
        let d = self.pending.remove(&item);
        if d.is_some() {
            self.stats.flushed_items += 1;
        }
        d
    }

    /// Drains every pending delta, sorted by inode id so downstream
    /// message order never depends on hash-map iteration.
    pub fn drain_pending(&mut self) -> Vec<(InodeId, u64)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mut v: Vec<(InodeId, u64)> = self.pending.drain().collect();
        v.sort_unstable();
        self.stats.flush_batches += 1;
        self.stats.flushed_items += v.len() as u64;
        v
    }

    // ---- invalidation protocol ----------------------------------------

    /// A name was materialized in `dir` (create/mkdir/link/rename): any
    /// cached negative for it is now stale and must die, and any absorbed
    /// listing of `dir` is stale too.
    pub fn invalidate_name(&mut self, dir: InodeId, name: &str) {
        if let Some(names) = self.neg.get_mut(&dir) {
            if names.remove(name) {
                self.stats.invalidations += 1;
            }
            if names.is_empty() {
                self.neg.remove(&dir);
            }
        }
        self.dir_mutated(dir);
    }

    /// `dir`'s entry set changed: a previously absorbed readdir of it can
    /// no longer be served from the proxy.
    pub fn dir_mutated(&mut self, dir: InodeId) {
        self.cached.remove(&dir);
    }

    /// `item` died (unlink dropped its last link): purge every trace so
    /// the proxy can never answer for, or push deltas to, a dead inode.
    pub fn forget_item(&mut self, item: InodeId) {
        self.cached.remove(&item);
        self.pending.remove(&item);
        self.detector.forget(item);
        self.neg.remove(&item);
    }

    /// A non-coalescable mutation of `item` went to the cluster: drop the
    /// proxy's read-through copy (it is stale now).
    pub fn invalidate_item(&mut self, item: InodeId) {
        self.cached.remove(&item);
    }

    /// Whether any state mentions `item` (leak check for tests).
    pub fn mentions(&self, item: InodeId) -> bool {
        self.cached.contains(&item)
            || self.pending.contains_key(&item)
            || self.detector.contains(item)
            || self.neg.contains_key(&item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> ProxyCore {
        ProxyCore::new(&ProxyConfig { count: 1, ..Default::default() })
    }

    #[test]
    fn sustained_touches_cross_the_threshold() {
        let mut p = core();
        let mut hot = false;
        for i in 0..2000u64 {
            hot = p.observe(InodeId(42), SimTime::from_micros(i * 100)); // 10k touches/s
        }
        assert!(hot, "sustained 10k/s stream must register as hot");
        let later = SimTime::from_secs(3600);
        assert!(!p.observe(InodeId(42), later), "an hour later one touch is cold");
    }

    #[test]
    fn negative_cache_invalidates_on_create() {
        let mut p = core();
        let dir = InodeId(3);
        assert!(!p.neg_lookup(dir, "gone"));
        p.note_negative(dir, "gone");
        assert!(p.neg_lookup(dir, "gone"));
        p.invalidate_name(dir, "gone");
        assert!(!p.neg_lookup(dir, "gone"), "created name must not stay negative");
        assert_eq!(p.stats.neg_hits, 1);
        assert_eq!(p.stats.neg_inserts, 1);
        assert_eq!(p.stats.invalidations, 1);
    }

    #[test]
    fn coalescer_drains_sorted_and_empties() {
        let mut p = core();
        p.note_cached(InodeId(2));
        for id in [9u64, 2, 5, 2, 9, 9] {
            p.absorb_write(InodeId(id));
        }
        assert!(!p.absorb_read(InodeId(2)), "an unflushed delta makes the cached copy stale");
        let drained = p.drain_pending();
        assert_eq!(drained, vec![(InodeId(2), 2), (InodeId(5), 1), (InodeId(9), 3)]);
        assert!(p.drain_pending().is_empty(), "second drain finds nothing");
        assert!(p.absorb_read(InodeId(2)), "flushed: the cached copy answers again");
        assert_eq!(p.stats.flush_batches, 1);
        assert_eq!(p.stats.flushed_items, 3);
        assert_eq!(p.stats.read_absorbs, 1);
    }

    #[test]
    fn forget_item_purges_every_table() {
        let mut p = core();
        let id = InodeId(11);
        p.observe(id, SimTime::ZERO);
        p.note_cached(id);
        p.absorb_write(id);
        p.note_negative(id, "child"); // id as a directory
        assert!(p.mentions(id));
        p.forget_item(id);
        assert!(!p.mentions(id), "unlinked inode must leave no trace");
    }

    #[test]
    fn dir_mutation_drops_absorbed_listing_only() {
        let mut p = core();
        let dir = InodeId(4);
        let file = InodeId(5);
        p.note_cached(dir);
        p.note_cached(file);
        p.dir_mutated(dir);
        assert!(!p.absorb_read(dir), "mutated dir listing is stale");
        assert!(p.absorb_read(file), "unrelated item survives");
    }
}
