//! Differential test: `MetaCache` against a naive reference model, in lock
//! step. The invariant tests in `prop.rs` and `pinning_prop.rs` check that
//! the cached set stays a tree; this one pins the eviction *order*, the
//! counters and every per-entry query to the segmented-LRU specification.

use std::collections::VecDeque;

use dynmds_cache::{CacheError, CacheStats, InsertKind, MetaCache};
use dynmds_namespace::{FxHashMap, InodeId};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seg {
    Protected,
    Probation,
}

/// Per-entry state: (parent, pins, is_prefix, segment).
type Entry = (Option<InodeId>, u32, bool, Seg);

/// The specification, written for clarity: each segment is a deque with
/// the MRU head at the front, and entries live in a hash map.
struct Reference {
    cap: usize,
    probation_enabled: bool,
    protected: VecDeque<InodeId>,
    probation: VecDeque<InodeId>,
    entries: FxHashMap<InodeId, Entry>,
    stats: CacheStats,
}

impl Reference {
    fn new(cap: usize, probation_enabled: bool) -> Self {
        Reference {
            cap,
            probation_enabled,
            protected: VecDeque::new(),
            probation: VecDeque::new(),
            entries: FxHashMap::default(),
            stats: CacheStats::default(),
        }
    }

    fn list(&mut self, seg: Seg) -> &mut VecDeque<InodeId> {
        match seg {
            Seg::Protected => &mut self.protected,
            Seg::Probation => &mut self.probation,
        }
    }

    fn unlink(&mut self, id: InodeId) {
        let seg = self.entries[&id].3;
        let list = self.list(seg);
        let at = list.iter().position(|&x| x == id).expect("listed");
        list.remove(at);
    }

    fn lookup(&mut self, id: InodeId, as_target: bool) -> bool {
        if !self.entries.contains_key(&id) {
            self.stats.misses += 1;
            return false;
        }
        self.stats.hits += 1;
        self.unlink(id);
        self.protected.push_front(id);
        let e = self.entries.get_mut(&id).expect("cached");
        e.3 = Seg::Protected;
        if as_target {
            e.2 = false;
        }
        true
    }

    fn insert(&mut self, id: InodeId, parent: Option<InodeId>, kind: InsertKind) -> Vec<InodeId> {
        if self.entries.contains_key(&id) {
            self.lookup(id, kind == InsertKind::Target);
            self.stats.hits -= 1;
            return Vec::new();
        }
        let seg = if kind == InsertKind::Prefetch && self.probation_enabled {
            Seg::Probation
        } else {
            Seg::Protected
        };
        self.list(seg).push_front(id);
        self.entries.insert(id, (parent, 0, kind == InsertKind::Prefix, seg));
        if let Some(p) = parent {
            self.entries.get_mut(&p).expect("parent cached").1 += 1;
        }
        let mut evicted = Vec::new();
        while self.entries.len() > self.cap {
            // Probation tail first, then protected tail; skip pinned
            // entries and the id just inserted.
            let victim = self
                .probation
                .iter()
                .rev()
                .chain(self.protected.iter().rev())
                .copied()
                .find(|v| *v != id && self.entries[v].1 == 0);
            match victim {
                Some(v) => {
                    self.remove_internal(v);
                    self.stats.evictions += 1;
                    evicted.push(v);
                }
                None => {
                    self.stats.overflows += 1;
                    break;
                }
            }
        }
        evicted
    }

    fn remove_internal(&mut self, id: InodeId) {
        self.unlink(id);
        let (parent, _, _, _) = self.entries.remove(&id).expect("cached");
        if let Some(p) = parent {
            if let Some(e) = self.entries.get_mut(&p) {
                e.1 -= 1;
            }
        }
    }

    fn remove(&mut self, id: InodeId) -> Result<(), CacheError> {
        match self.entries.get(&id) {
            None => Err(CacheError::NotCached),
            Some(e) if e.1 > 0 => Err(CacheError::Pinned),
            Some(_) => {
                self.remove_internal(id);
                Ok(())
            }
        }
    }

    /// Strips unpinned members until none is left to strip.
    fn remove_set(&mut self, ids: &[InodeId]) -> usize {
        let mut removed = 0;
        loop {
            let ready: Vec<InodeId> = ids
                .iter()
                .copied()
                .filter(|i| self.entries.get(i).is_some_and(|e| e.1 == 0))
                .collect();
            if ready.is_empty() {
                return removed;
            }
            for id in ready {
                if self.entries.get(&id).is_some_and(|e| e.1 == 0) {
                    self.remove_internal(id);
                    removed += 1;
                }
            }
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Insert pool id `pick` under the `parent`-th cached id, or as a
    /// root when `parent` selects past the end.
    Insert {
        pick: usize,
        parent: usize,
        kind: u8,
    },
    Lookup {
        pick: usize,
        as_target: bool,
    },
    Remove {
        pick: usize,
    },
    RemoveSet {
        picks: Vec<usize>,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let insert =
        || {
            (any::<usize>(), any::<usize>(), any::<u8>())
                .prop_map(|(pick, parent, kind)| Op::Insert { pick, parent, kind })
        };
    // Inserts appear twice so the cache fills and evicts.
    prop_oneof![
        insert(),
        insert(),
        (any::<usize>(), any::<bool>())
            .prop_map(|(pick, as_target)| Op::Lookup { pick, as_target }),
        any::<usize>().prop_map(|pick| Op::Remove { pick }),
        prop::collection::vec(any::<usize>(), 0..6).prop_map(|picks| Op::RemoveSet { picks }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn metacache_matches_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..300),
        cap in 1usize..16,
        pool_size in 2usize..40,
        stride in prop_oneof![Just(1u64), Just(7), Just(1_031), Just(100_003)],
        probation in any::<bool>(),
    ) {
        // Sparse ids exercise index growth past the allocation granule.
        let pool: Vec<InodeId> = (0..pool_size as u64).map(|i| InodeId(i * stride)).collect();
        let mut cache = MetaCache::with_probation(cap, probation);
        let mut model = Reference::new(cap, probation);

        for op in &ops {
            match op {
                Op::Insert { pick, parent, kind } => {
                    let id = pool[pick % pool.len()];
                    let mut cached: Vec<InodeId> = model.entries.keys().copied().collect();
                    cached.sort();
                    let parent = cached.get(parent % (cached.len() + 1)).copied();
                    let kind = match kind % 3 {
                        0 => InsertKind::Target,
                        1 => InsertKind::Prefix,
                        _ => InsertKind::Prefetch,
                    };
                    prop_assert_eq!(cache.insert(id, parent, kind), model.insert(id, parent, kind));
                }
                Op::Lookup { pick, as_target } => {
                    let id = pool[pick % pool.len()];
                    prop_assert_eq!(cache.lookup(id, *as_target), model.lookup(id, *as_target));
                }
                Op::Remove { pick } => {
                    let id = pool[pick % pool.len()];
                    prop_assert_eq!(cache.remove(id), model.remove(id));
                }
                Op::RemoveSet { picks } => {
                    let ids: Vec<InodeId> = picks.iter().map(|p| pool[p % pool.len()]).collect();
                    prop_assert_eq!(cache.remove_set(&ids), model.remove_set(&ids));
                }
            }

            for &id in &pool {
                let e = model.entries.get(&id);
                prop_assert_eq!(cache.contains(id), e.is_some());
                prop_assert_eq!(cache.pins(id), e.map(|e| e.1));
                prop_assert_eq!(cache.is_prefix(id), e.map(|e| e.2));
                prop_assert_eq!(cache.parent_of(id), e.map(|e| e.0));
            }
            prop_assert_eq!(cache.stats(), model.stats);
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(
                cache.prefix_count(),
                model.entries.values().filter(|e| e.2).count()
            );
            let mut ids: Vec<InodeId> = model.entries.keys().copied().collect();
            ids.sort();
            prop_assert_eq!(cache.iter_ids().collect::<Vec<_>>(), ids);
        }
        cache.check_integrity();
    }
}
