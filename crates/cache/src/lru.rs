//! Segmented LRU with prefix pinning.
//!
//! Layout: two intrusive doubly-linked lists over a capacity-sized
//! arena, found through a flat id index (see [`MetaCache`]) — a
//! **protected** segment for directly requested items and traversal
//! prefixes, and a **probation** segment where prefetched items enter
//! ("near the tail of the LRU list", §4.5). Eviction scans the probation
//! tail first, then the protected tail, skipping *pinned* entries —
//! directories with cached children — so the cached subset of the
//! hierarchy always remains a tree (§4.1).
//!
//! If every entry is pinned (pathological all-directory caches) the cache
//! is allowed to exceed capacity rather than violate the tree invariant;
//! the overflow is counted and visible to experiments.

use dynmds_namespace::{FxHashMap, InodeId};

/// How an item entered the cache; determines its initial LRU position and
/// its prefix accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertKind {
    /// Directly requested by a client operation.
    Target,
    /// An ancestor directory cached only to serve path traversal.
    Prefix,
    /// A sibling loaded by a whole-directory fetch; enters on probation.
    Prefetch,
}

/// Errors from explicit cache mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// The id is not cached.
    NotCached,
    /// The entry still has cached children and cannot be removed.
    Pinned,
}

/// Which list an entry currently lives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    Protected,
    Probation,
}

/// Null arena slot: the end of a list, or an empty segment.
const NIL: u32 = u32::MAX;

/// Index growth granule in ids (4 KiB of `u32`): the index never runs
/// more than this past the largest id seen, yet ascending ids (creates)
/// reallocate only once per granule.
const INDEX_CHUNK: usize = 1024;

/// One cached entry. `prev`/`next` are arena slots (`NIL` at the ends).
#[derive(Clone, Copy, Debug)]
struct Node {
    id: InodeId,
    /// Parent in the cached tree (must itself be cached), `None` for root.
    parent: Option<InodeId>,
    prev: u32,
    next: u32,
    /// Number of cached children pointing at this entry.
    pins: u32,
    seg: Segment,
    /// Still held only as a traversal prefix / unrequested prefetch.
    is_prefix: bool,
}

/// Head/tail arena slots of one segment. `head` is the MRU end.
#[derive(Clone, Copy, Debug)]
struct Ends {
    head: u32,
    tail: u32,
}

impl Default for Ends {
    fn default() -> Self {
        Ends { head: NIL, tail: NIL }
    }
}

/// Cumulative cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Inserts that found no evictable entry and exceeded capacity.
    pub overflows: u64,
}

impl CacheStats {
    /// Hit rate over all lookups so far (1.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The per-MDS metadata cache. Capacity is measured in inodes, matching
/// the paper's treatment of MDS memory as "cache size relative to total
/// metadata size".
///
/// Storage is sized by capacity, not by the namespace. A dense arena
/// (`nodes`) holds exactly the cached entries, at most `cap` plus
/// counted overflows, and the LRU lists link arena slots. Ids are allocated sequentially and never reused, so a
/// flat `index` maps `InodeId::index()` to arena slot + 1 (0 = not
/// cached): every lookup, list splice and eviction step is two array
/// accesses instead of a hash probe, at 4 B per id seen. Removal
/// `swap_remove`s the arena entry and relinks the one that moved.
pub struct MetaCache {
    cap: usize,
    index: Vec<u32>,
    nodes: Vec<Node>,
    protected: Ends,
    probation: Ends,
    probation_enabled: bool,
    stats: CacheStats,
}

impl MetaCache {
    /// Creates a cache holding at most `cap` inodes (`cap > 0`), with
    /// near-tail prefetch insertion enabled (§4.5).
    pub fn new(cap: usize) -> Self {
        Self::with_probation(cap, true)
    }

    /// Creates a cache with the probation segment optionally disabled —
    /// prefetched items then enter at the MRU head like everything else
    /// (the ablation of §4.5's "inserted near the tail of the LRU list").
    pub fn with_probation(cap: usize, probation_enabled: bool) -> Self {
        assert!(cap > 0, "cache capacity must be positive");
        MetaCache {
            cap,
            index: Vec::new(),
            nodes: Vec::new(),
            protected: Ends::default(),
            probation: Ends::default(),
            probation_enabled,
            stats: CacheStats::default(),
        }
    }

    /// Arena slot of `id`, if cached.
    #[inline]
    fn slot(&self, id: InodeId) -> Option<u32> {
        match self.index.get(id.index()) {
            Some(&s) if s != 0 => Some(s - 1),
            _ => None,
        }
    }

    #[inline]
    fn node(&self, id: InodeId) -> Option<&Node> {
        self.slot(id).map(|s| &self.nodes[s as usize])
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is cached (no LRU side effects).
    pub fn contains(&self, id: InodeId) -> bool {
        self.slot(id).is_some()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache under its own capacity and insertion policy, with
    /// the statistics zeroed as [`MetaCache::new`] leaves them.
    pub fn clear(&mut self) {
        *self = Self::with_probation(self.cap, self.probation_enabled);
    }

    /// Resets hit/miss/eviction counters (contents untouched); used when a
    /// measurement window starts after warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of cached children pinning `id`.
    pub fn pins(&self, id: InodeId) -> Option<u32> {
        self.node(id).map(|n| n.pins)
    }

    /// Whether `id` is held only as a prefix (never directly requested).
    pub fn is_prefix(&self, id: InodeId) -> Option<bool> {
        self.node(id).map(|n| n.is_prefix)
    }

    /// The tree-link parent recorded for `id` at insert time: `None` if
    /// `id` is not cached, `Some(None)` for a cached root, `Some(Some(p))`
    /// for a cached entry pinned under `p`. Invariant-checking hook: the
    /// link target of any cached entry must itself be cached.
    pub fn parent_of(&self, id: InodeId) -> Option<Option<InodeId>> {
        self.node(id).map(|n| n.parent)
    }

    /// Count of prefix-only entries — the Figure 3 numerator.
    pub fn prefix_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_prefix).count()
    }

    /// Fraction of the cache holding prefix-only entries (0 when empty).
    pub fn prefix_fraction(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.prefix_count() as f64 / self.len() as f64
        }
    }

    /// Iterates over all cached ids (ascending id order).
    pub fn iter_ids(&self) -> impl Iterator<Item = InodeId> + '_ {
        let mut ids: Vec<InodeId> = self.nodes.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Heap bytes held: the id index and the entry arena. Counts
    /// capacities (what the allocator handed out), like
    /// `Namespace::heap_bytes`.
    pub fn heap_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u32>()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
    }

    // ---- intrusive list plumbing ------------------------------------

    fn ends_mut(&mut self, seg: Segment) -> &mut Ends {
        match seg {
            Segment::Protected => &mut self.protected,
            Segment::Probation => &mut self.probation,
        }
    }

    /// Detaches arena slot `s` from its current list (entry stays in the
    /// arena).
    fn detach(&mut self, s: u32) {
        let Node { prev, next, seg, .. } = self.nodes[s as usize];
        if prev == NIL {
            self.ends_mut(seg).head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.ends_mut(seg).tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        let e = &mut self.nodes[s as usize];
        e.prev = NIL;
        e.next = NIL;
    }

    /// Attaches detached arena slot `s` at the MRU head of `seg`.
    fn attach_head(&mut self, s: u32, seg: Segment) {
        let old_head = self.ends_mut(seg).head;
        let e = &mut self.nodes[s as usize];
        e.seg = seg;
        e.prev = NIL;
        e.next = old_head;
        if old_head != NIL {
            self.nodes[old_head as usize].prev = s;
        }
        let ends = self.ends_mut(seg);
        ends.head = s;
        if ends.tail == NIL {
            ends.tail = s;
        }
    }

    // ---- public operations ------------------------------------------

    /// Looks `id` up, counting a hit or miss. On a hit the entry moves to
    /// the protected MRU head; `as_target` additionally clears its prefix
    /// flag (it is now known-useful data, not just a traversal step).
    pub fn lookup(&mut self, id: InodeId, as_target: bool) -> bool {
        match self.slot(id) {
            Some(s) => {
                self.stats.hits += 1;
                self.detach(s);
                self.attach_head(s, Segment::Protected);
                if as_target {
                    self.nodes[s as usize].is_prefix = false;
                }
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Peeks without LRU movement or stats. Used for cache-content checks
    /// (e.g. replica invariants) that should not perturb eviction order.
    pub fn peek(&self, id: InodeId) -> bool {
        self.contains(id)
    }

    /// Inserts `id` with the given cached `parent` (which must already be
    /// cached, keeping the cached subset a tree; `None` for the root).
    /// Returns the entries evicted to make room. Inserting an existing id
    /// just refreshes its position/kind.
    ///
    /// # Panics
    ///
    /// If `parent` is not cached: the link would dangle and never pin.
    pub fn insert(
        &mut self,
        id: InodeId,
        parent: Option<InodeId>,
        kind: InsertKind,
    ) -> Vec<InodeId> {
        let parent_slot = parent.map(|p| {
            self.slot(p).unwrap_or_else(|| panic!("parent {p} must be cached before child {id}"))
        });
        if self.contains(id) {
            // Refresh: possibly upgrade from prefix to target.
            let as_target = kind == InsertKind::Target;
            self.lookup(id, as_target);
            self.stats.hits -= 1; // refresh is not a workload hit
            return Vec::new();
        }

        // Figure 3 counts ancestor-directory (prefix) inodes; speculative
        // prefetch data is not a prefix.
        let is_prefix = kind == InsertKind::Prefix;
        let seg = match kind {
            InsertKind::Prefetch if self.probation_enabled => Segment::Probation,
            _ => Segment::Protected,
        };
        let idx = id.index();
        if idx >= self.index.len() {
            let want = (idx + 1).next_multiple_of(INDEX_CHUNK);
            self.index.reserve_exact(want - self.index.len());
            self.index.resize(want, 0);
        }
        assert!(self.nodes.len() < NIL as usize, "metadata cache arena full");
        let s = self.nodes.len() as u32;
        self.nodes.push(Node { id, parent, prev: NIL, next: NIL, pins: 0, seg, is_prefix });
        self.index[idx] = s + 1;
        self.attach_head(s, seg);
        if let Some(ps) = parent_slot {
            self.nodes[ps as usize].pins += 1;
        }

        let mut evicted = Vec::new();
        while self.nodes.len() > self.cap {
            match self.evict_one(id) {
                Some(victim) => evicted.push(victim),
                None => {
                    self.stats.overflows += 1;
                    break;
                }
            }
        }
        evicted
    }

    /// Evicts the best victim: unpinned, from the probation tail first,
    /// then the protected tail. `protect` (the just-inserted id) is never
    /// chosen. Returns the victim, or `None` if everything is pinned.
    fn evict_one(&mut self, protect: InodeId) -> Option<InodeId> {
        for tail in [self.probation.tail, self.protected.tail] {
            let mut cur = tail;
            while cur != NIL {
                let node = self.nodes[cur as usize];
                if node.pins == 0 && node.id != protect {
                    self.remove_internal(cur);
                    self.stats.evictions += 1;
                    return Some(node.id);
                }
                cur = node.prev;
            }
        }
        None
    }

    /// Removes arena slot `s` regardless of segment, unpinning its
    /// parent. The arena's last entry moves into `s`.
    fn remove_internal(&mut self, s: u32) {
        self.detach(s);
        let node = self.nodes.swap_remove(s as usize);
        self.index[node.id.index()] = 0;
        debug_assert_eq!(node.pins, 0, "removing pinned entry {}", node.id);
        if let Some(&moved) = self.nodes.get(s as usize) {
            // Relink the entry that moved from the old last slot.
            if moved.prev == NIL {
                self.ends_mut(moved.seg).head = s;
            } else {
                self.nodes[moved.prev as usize].next = s;
            }
            if moved.next == NIL {
                self.ends_mut(moved.seg).tail = s;
            } else {
                self.nodes[moved.next as usize].prev = s;
            }
            self.index[moved.id.index()] = s + 1;
        }
        if let Some(p) = node.parent {
            if let Some(ps) = self.slot(p) {
                let pn = &mut self.nodes[ps as usize];
                assert!(pn.pins > 0, "pin underflow on {p}");
                pn.pins -= 1;
            }
        }
    }

    /// Explicitly removes `id` (replica invalidation, subtree migration).
    /// Fails if the entry still has cached children.
    pub fn remove(&mut self, id: InodeId) -> Result<(), CacheError> {
        let s = self.slot(id).ok_or(CacheError::NotCached)?;
        if self.nodes[s as usize].pins > 0 {
            return Err(CacheError::Pinned);
        }
        self.remove_internal(s);
        Ok(())
    }

    /// Removes a set of entries that form a subtree (or any set closed
    /// under "cached child of"), handling ordering internally. Returns how
    /// many were actually removed.
    pub fn remove_set(&mut self, ids: &[InodeId]) -> usize {
        let mut pending: Vec<InodeId> = ids.iter().copied().filter(|i| self.contains(*i)).collect();
        let mut removed = 0;
        // Repeatedly strip unpinned members; children leave before parents.
        loop {
            let mut progress = false;
            pending.retain(|&id| match self.slot(id) {
                Some(s) if self.nodes[s as usize].pins == 0 => {
                    self.remove_internal(s);
                    removed += 1;
                    progress = true;
                    false
                }
                Some(_) => true,
                None => false,
            });
            if !progress || pending.is_empty() {
                break;
            }
        }
        removed
    }

    /// Debug invariant check used by tests: list structure consistent,
    /// index and arena agree, pins match child counts, parents always
    /// cached.
    #[doc(hidden)]
    pub fn check_integrity(&self) {
        // Walk both lists, count reachable nodes.
        let mut seen = 0usize;
        for (ends, seg) in
            [(self.protected, Segment::Protected), (self.probation, Segment::Probation)]
        {
            let mut prev = NIL;
            let mut cur = ends.head;
            while cur != NIL {
                let n = &self.nodes[cur as usize];
                assert_eq!(n.seg, seg, "entry {} on wrong segment list", n.id);
                assert_eq!(n.prev, prev, "broken prev link at {}", n.id);
                seen += 1;
                prev = cur;
                cur = n.next;
            }
            assert_eq!(ends.tail, prev, "tail pointer mismatch");
        }
        assert_eq!(seen, self.nodes.len(), "list membership mismatch");

        // The index points at exactly the arena's entries.
        for (s, n) in self.nodes.iter().enumerate() {
            assert_eq!(self.slot(n.id), Some(s as u32), "index disagrees on {}", n.id);
        }
        let indexed = self.index.iter().filter(|&&s| s != 0).count();
        assert_eq!(indexed, self.nodes.len(), "stale index entries");

        // Pins equal cached-child counts; parents are cached.
        let mut child_counts: FxHashMap<InodeId, u32> = FxHashMap::default();
        for n in &self.nodes {
            if let Some(p) = n.parent {
                assert!(self.contains(p), "cached child with uncached parent {p}");
                *child_counts.entry(p).or_insert(0) += 1;
            }
        }
        for n in &self.nodes {
            assert_eq!(
                n.pins,
                child_counts.get(&n.id).copied().unwrap_or(0),
                "pin count wrong on {}",
                n.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> InodeId {
        InodeId(n)
    }

    #[test]
    fn insert_and_lookup_hit() {
        let mut c = MetaCache::new(4);
        c.insert(id(1), None, InsertKind::Target);
        assert!(c.lookup(id(1), true));
        assert!(!c.lookup(id(2), true));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        c.check_integrity();
    }

    #[test]
    fn evicts_lru_when_full() {
        let mut c = MetaCache::new(3);
        c.insert(id(1), None, InsertKind::Target);
        c.insert(id(2), None, InsertKind::Target);
        c.insert(id(3), None, InsertKind::Target);
        let ev = c.insert(id(4), None, InsertKind::Target);
        assert_eq!(ev, vec![id(1)], "oldest entry evicted");
        assert!(!c.contains(id(1)));
        assert_eq!(c.len(), 3);
        c.check_integrity();
    }

    #[test]
    fn lookup_refreshes_lru_position() {
        let mut c = MetaCache::new(3);
        c.insert(id(1), None, InsertKind::Target);
        c.insert(id(2), None, InsertKind::Target);
        c.insert(id(3), None, InsertKind::Target);
        c.lookup(id(1), true); // 1 becomes MRU
        let ev = c.insert(id(4), None, InsertKind::Target);
        assert_eq!(ev, vec![id(2)]);
        assert!(c.contains(id(1)));
        c.check_integrity();
    }

    #[test]
    fn pinned_directories_survive_eviction() {
        let mut c = MetaCache::new(3);
        c.insert(id(10), None, InsertKind::Prefix); // dir
        c.insert(id(11), Some(id(10)), InsertKind::Target); // child pins 10
        c.insert(id(12), None, InsertKind::Target);
        // id(10) is oldest but pinned; eviction must take id(12)... no:
        // id(12) is newer than 11. LRU order (old→new): 10, 11, 12.
        // 10 pinned → evict 11 (unpins 10).
        let ev = c.insert(id(13), None, InsertKind::Target);
        assert_eq!(ev, vec![id(11)]);
        assert!(c.contains(id(10)));
        assert_eq!(c.pins(id(10)), Some(0), "unpinned after child eviction");
        c.check_integrity();
    }

    #[test]
    fn leaves_evict_before_ancestors() {
        // Chain root→a→b with one extra leaf; the chain dirs stay pinned
        // until their descendants leave.
        let mut c = MetaCache::new(3);
        c.insert(id(1), None, InsertKind::Prefix);
        c.insert(id(2), Some(id(1)), InsertKind::Prefix);
        c.insert(id(3), Some(id(2)), InsertKind::Target);
        let ev = c.insert(id(4), None, InsertKind::Target);
        assert_eq!(ev, vec![id(3)], "leaf goes first");
        let ev = c.insert(id(5), None, InsertKind::Target);
        assert_eq!(ev, vec![id(2)], "now-unpinned middle dir goes next");
        c.check_integrity();
    }

    #[test]
    fn all_pinned_cache_overflows_instead_of_breaking_tree() {
        let mut c = MetaCache::new(2);
        c.insert(id(1), None, InsertKind::Prefix);
        c.insert(id(2), Some(id(1)), InsertKind::Prefix);
        c.insert(id(3), Some(id(2)), InsertKind::Target);
        // 1 and 2 are pinned; 3 is the fresh insert (protected). Nothing
        // evictable → overflow.
        assert_eq!(c.len(), 3);
        assert!(c.stats().overflows >= 1);
        c.check_integrity();
    }

    #[test]
    fn prefetch_enters_probation_and_evicts_first() {
        let mut c = MetaCache::new(3);
        c.insert(id(1), None, InsertKind::Target);
        c.insert(id(2), None, InsertKind::Prefetch);
        c.insert(id(3), None, InsertKind::Target);
        // Capacity pressure: probation (id 2) goes before older protected.
        let ev = c.insert(id(4), None, InsertKind::Target);
        assert_eq!(ev, vec![id(2)], "probationary prefetch evicted first");
        c.check_integrity();
    }

    #[test]
    fn prefetch_hit_promotes_to_protected() {
        let mut c = MetaCache::new(3);
        c.insert(id(1), None, InsertKind::Target);
        c.insert(id(2), None, InsertKind::Prefetch);
        c.lookup(id(2), true); // promoted
        c.insert(id(3), None, InsertKind::Target);
        let ev = c.insert(id(4), None, InsertKind::Target);
        assert_eq!(ev, vec![id(1)], "promoted entry outlives older protected");
        assert_eq!(c.is_prefix(id(2)), Some(false));
        c.check_integrity();
    }

    #[test]
    fn prefix_accounting_tracks_upgrades() {
        let mut c = MetaCache::new(10);
        c.insert(id(1), None, InsertKind::Prefix);
        c.insert(id(2), Some(id(1)), InsertKind::Target);
        c.insert(id(3), Some(id(1)), InsertKind::Prefetch);
        assert_eq!(c.prefix_count(), 1, "only the ancestor dir is a prefix");
        assert!((c.prefix_fraction() - 1.0 / 3.0).abs() < 1e-9);
        // Traversal touch does NOT upgrade the prefix dir.
        c.lookup(id(1), false);
        assert_eq!(c.prefix_count(), 1);
        // Direct request does.
        c.lookup(id(1), true);
        assert_eq!(c.prefix_count(), 0);
        c.check_integrity();
    }

    #[test]
    fn reinsert_refreshes_without_counting_hit() {
        let mut c = MetaCache::new(3);
        c.insert(id(1), None, InsertKind::Prefix);
        let before = c.stats();
        c.insert(id(1), None, InsertKind::Target);
        let after = c.stats();
        assert_eq!(before.hits, after.hits, "refresh is not a workload hit");
        assert_eq!(c.is_prefix(id(1)), Some(false), "upgraded to target");
        assert_eq!(c.len(), 1);
        c.check_integrity();
    }

    #[test]
    fn remove_respects_pins() {
        let mut c = MetaCache::new(10);
        c.insert(id(1), None, InsertKind::Prefix);
        c.insert(id(2), Some(id(1)), InsertKind::Target);
        assert_eq!(c.remove(id(1)), Err(CacheError::Pinned));
        assert_eq!(c.remove(id(9)), Err(CacheError::NotCached));
        assert_eq!(c.remove(id(2)), Ok(()));
        assert_eq!(c.remove(id(1)), Ok(()));
        assert!(c.is_empty());
        c.check_integrity();
    }

    #[test]
    fn remove_set_handles_ordering() {
        let mut c = MetaCache::new(10);
        c.insert(id(1), None, InsertKind::Prefix);
        c.insert(id(2), Some(id(1)), InsertKind::Prefix);
        c.insert(id(3), Some(id(2)), InsertKind::Target);
        // Parent-first order still works.
        let removed = c.remove_set(&[id(1), id(2), id(3)]);
        assert_eq!(removed, 3);
        assert!(c.is_empty());
        c.check_integrity();
    }

    #[test]
    fn remove_set_leaves_pinned_members_with_outside_children() {
        let mut c = MetaCache::new(10);
        c.insert(id(1), None, InsertKind::Prefix);
        c.insert(id(2), Some(id(1)), InsertKind::Target);
        c.insert(id(3), Some(id(1)), InsertKind::Target);
        // Try to remove 1 and 2 only; 3 still pins 1.
        let removed = c.remove_set(&[id(1), id(2)]);
        assert_eq!(removed, 1, "only the leaf leaves");
        assert!(c.contains(id(1)));
        c.check_integrity();
    }

    #[test]
    fn hit_rate_math() {
        let mut c = MetaCache::new(4);
        assert_eq!(c.stats().hit_rate(), 1.0, "no lookups yet");
        c.insert(id(1), None, InsertKind::Target);
        c.lookup(id(1), true);
        c.lookup(id(2), true);
        c.lookup(id(3), true);
        assert!((c.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-9);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.len(), 1, "reset keeps contents");
    }

    #[test]
    fn eviction_reports_enable_authority_notification() {
        // The MDS must be able to tell the authority which replicas it
        // dropped (§4.2); every eviction is therefore surfaced.
        let mut c = MetaCache::new(2);
        c.insert(id(1), None, InsertKind::Target);
        c.insert(id(2), None, InsertKind::Target);
        let ev1 = c.insert(id(3), None, InsertKind::Target);
        let ev2 = c.insert(id(4), None, InsertKind::Target);
        assert_eq!(ev1, vec![id(1)]);
        assert_eq!(ev2, vec![id(2)]);
    }

    #[test]
    fn footprint_scales_with_capacity_not_id_bound() {
        // 4,000 entries drawn from ids spread up to 10^6, in pseudo-random
        // order: one 56 B slot per id seen would hold ~56 MB.
        let cap = 4_000;
        let mut c = MetaCache::new(cap);
        let mut x = 12_345u64;
        let mut max_id = 0;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let n = (x >> 33) % 1_000_000;
            max_id = max_id.max(n);
            c.insert(id(n), None, InsertKind::Target);
        }
        assert_eq!(c.len(), cap);
        let ids_seen = max_id as usize + 1;
        assert!(
            c.heap_bytes() <= 4 * ids_seen + 64 * cap,
            "{} B for {ids_seen} ids at cap {cap}",
            c.heap_bytes()
        );
        c.check_integrity();
    }

    #[test]
    #[should_panic(expected = "must be cached before child")]
    fn uncached_parent_rejected() {
        let mut c = MetaCache::new(4);
        c.insert(id(2), Some(id(1)), InsertKind::Target);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        MetaCache::new(0);
    }

    #[test]
    fn disabled_probation_makes_prefetch_mru() {
        let mut c = MetaCache::with_probation(3, false);
        c.insert(id(1), None, InsertKind::Target);
        c.insert(id(2), None, InsertKind::Prefetch);
        c.insert(id(3), None, InsertKind::Target);
        // Without probation the prefetch is MRU-protected: the oldest
        // target leaves first.
        let ev = c.insert(id(4), None, InsertKind::Target);
        assert_eq!(ev, vec![id(1)], "prefetch was not sacrificed first");
        assert!(c.contains(id(2)));
        assert_eq!(c.is_prefix(id(2)), Some(false), "prefetch is not a prefix");
        c.check_integrity();
    }

    #[test]
    fn clear_keeps_capacity_and_insertion_policy() {
        let mut c = MetaCache::with_probation(3, false);
        c.insert(id(1), None, InsertKind::Target);
        assert!(c.lookup(id(1), true));
        c.clear();
        assert!(c.is_empty());
        assert_eq!((c.capacity(), c.stats()), (3, CacheStats::default()));
        c.insert(id(1), None, InsertKind::Target);
        c.insert(id(2), None, InsertKind::Prefetch);
        c.insert(id(3), None, InsertKind::Target);
        assert_eq!(c.insert(id(4), None, InsertKind::Target), vec![id(1)], "probation came back");
        c.check_integrity();
    }
}
