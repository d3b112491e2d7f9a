//! Lazy Hybrid metadata management (§3.1.3, after Brandt et al. 2003).
//!
//! LH hashes metadata by full path name (like file hashing) but avoids
//! path traversal by merging "the net effect of the permission check into
//! each file metadata record" — a dual-entry access-control list holding
//! the effective access information for the whole path.
//!
//! The price is *lazy update propagation*: changing an ancestor
//! directory's permissions, or moving/renaming a directory, invalidates
//! the embedded information of every nested file. Rather than updating
//! them eagerly ("changes to directories containing lots of items could
//! trigger potentially millions of updates"), each MDS logs the event and
//! applies it to nested items as they are next requested — "update cost
//! can be amortized to one network trip per affected file".
//!
//! This module tracks those pending updates with a generation counter:
//! every directory event gets a generation; every file remembers the last
//! generation it has applied; an access pays for each newer event on a
//! strict ancestor.

use dynmds_namespace::{FxHashMap, InodeId, MdsId, Namespace};

use crate::hash::{path_hash, try_path_hash_of, HashGranularity, HashPartition};

/// What kind of directory event must be propagated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LazyUpdateKind {
    /// An ancestor's permissions changed: the file's dual-entry ACL must
    /// be recomputed (one network trip).
    Permission,
    /// An ancestor moved/renamed: the file's path hash changed, so its
    /// metadata must migrate to a new MDS (one network trip).
    Move,
}

#[derive(Clone, Copy, Debug)]
struct PendingUpdate {
    dir: InodeId,
    gen: u64,
    kind: LazyUpdateKind,
}

/// Counts of updates applied by one access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PendingStats {
    /// ACL recomputations performed.
    pub permission_updates: u64,
    /// Metadata migrations performed.
    pub moves: u64,
}

impl PendingStats {
    /// Total propagation work units (network trips).
    pub fn total(&self) -> u64 {
        self.permission_updates + self.moves
    }
}

/// Lazy Hybrid placement + pending-update log.
pub struct LazyHybrid {
    n: u16,
    next_gen: u64,
    pending: Vec<PendingUpdate>,
    applied: FxHashMap<InodeId, u64>,
    lifetime: PendingStats,
}

impl LazyHybrid {
    /// Creates LH state for an `n`-server cluster.
    pub fn new(n: u16) -> Self {
        assert!(n > 0, "cluster must be non-empty");
        LazyHybrid {
            n,
            next_gen: 1,
            pending: Vec::new(),
            applied: FxHashMap::default(),
            lifetime: PendingStats::default(),
        }
    }

    /// Cluster size.
    pub fn cluster_size(&self) -> u16 {
        self.n
    }

    /// The authoritative MDS for `id` — hash of the item's full *current*
    /// path (stale placements are what the `Move` updates repair).
    pub fn authority(&self, ns: &Namespace, id: InodeId) -> MdsId {
        try_path_hash_of(ns, id, self.n).unwrap_or_else(|| path_hash("/", self.n))
    }

    /// Writes the answer of `top` and its primary descendants into
    /// `owner`: LH places exactly as file hashing does.
    pub(crate) fn paint(&self, ns: &Namespace, owner: &mut [MdsId], top: InodeId) {
        HashPartition::new(self.n, HashGranularity::File).paint(ns, owner, top);
    }

    /// Records a permission change on directory `dir`; every file nested
    /// beneath it must eventually recompute its ACL. Returns the event's
    /// generation.
    pub fn on_dir_permission_change(&mut self, dir: InodeId) -> u64 {
        self.push(dir, LazyUpdateKind::Permission)
    }

    /// Records a move/rename of directory `dir`; every item nested beneath
    /// it must eventually migrate (path hash changed). Returns the event's
    /// generation.
    pub fn on_dir_move(&mut self, dir: InodeId) -> u64 {
        self.push(dir, LazyUpdateKind::Move)
    }

    fn push(&mut self, dir: InodeId, kind: LazyUpdateKind) -> u64 {
        let gen = self.next_gen;
        self.next_gen += 1;
        self.pending.push(PendingUpdate { dir, gen, kind });
        gen
    }

    /// The newest generation issued so far.
    pub fn current_gen(&self) -> u64 {
        self.next_gen - 1
    }

    /// Number of logged (unpruned) events.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Counts the updates an access to `id` would have to apply, without
    /// applying them.
    pub fn pending_for(&self, ns: &Namespace, id: InodeId) -> PendingStats {
        let seen = self.applied.get(&id).copied().unwrap_or(0);
        let mut stats = PendingStats::default();
        for u in &self.pending {
            if u.gen > seen && ns.is_ancestor(u.dir, id) {
                match u.kind {
                    LazyUpdateKind::Permission => stats.permission_updates += 1,
                    LazyUpdateKind::Move => stats.moves += 1,
                }
            }
        }
        stats
    }

    /// Applies all pending updates for `id` (the work an MDS does when the
    /// item is next requested) and returns what it cost.
    pub fn apply_pending(&mut self, ns: &Namespace, id: InodeId) -> PendingStats {
        let stats = self.pending_for(ns, id);
        self.applied.insert(id, self.current_gen());
        self.lifetime.permission_updates += stats.permission_updates;
        self.lifetime.moves += stats.moves;
        stats
    }

    /// Lifetime totals of applied propagation work.
    pub fn lifetime_stats(&self) -> PendingStats {
        self.lifetime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_namespace::Permissions;

    fn tree() -> (Namespace, InodeId, InodeId, InodeId, InodeId) {
        // /a/b/f and /c/g
        let mut ns = Namespace::new();
        let a = ns.mkdir(ns.root(), "a", Permissions::directory(1)).unwrap();
        let b = ns.mkdir(a, "b", Permissions::directory(1)).unwrap();
        let f = ns.create_file(b, "f", Permissions::shared(1)).unwrap();
        let c = ns.mkdir(ns.root(), "c", Permissions::directory(1)).unwrap();
        (ns, a, b, f, c)
    }

    #[test]
    fn no_events_no_pending() {
        let (ns, _, _, f, _) = tree();
        let lh = LazyHybrid::new(4);
        assert_eq!(lh.pending_for(&ns, f), PendingStats::default());
    }

    #[test]
    fn permission_change_reaches_descendants_only() {
        let (mut ns, a, _, f, c) = tree();
        let g = ns.create_file(c, "g", Permissions::shared(1)).unwrap();
        let mut lh = LazyHybrid::new(4);
        lh.on_dir_permission_change(a);
        assert_eq!(lh.pending_for(&ns, f).permission_updates, 1);
        assert_eq!(lh.pending_for(&ns, g).total(), 0, "sibling tree unaffected");
        assert_eq!(lh.pending_for(&ns, a).total(), 0, "the dir itself updates eagerly");
    }

    #[test]
    fn apply_clears_pending_and_accumulates() {
        let (ns, a, b, f, _) = tree();
        let mut lh = LazyHybrid::new(4);
        lh.on_dir_permission_change(a);
        lh.on_dir_move(b);
        let applied = lh.apply_pending(&ns, f);
        assert_eq!(applied.permission_updates, 1);
        assert_eq!(applied.moves, 1);
        assert_eq!(applied.total(), 2);
        assert_eq!(lh.pending_for(&ns, f).total(), 0, "second access is clean");
        assert_eq!(lh.lifetime_stats().total(), 2);
    }

    #[test]
    fn later_events_hit_again() {
        let (ns, a, _, f, _) = tree();
        let mut lh = LazyHybrid::new(4);
        lh.on_dir_permission_change(a);
        lh.apply_pending(&ns, f);
        lh.on_dir_permission_change(a);
        assert_eq!(lh.pending_for(&ns, f).permission_updates, 1);
    }

    #[test]
    fn stacked_events_all_count() {
        let (ns, a, b, f, _) = tree();
        let mut lh = LazyHybrid::new(4);
        lh.on_dir_permission_change(a);
        lh.on_dir_permission_change(b);
        lh.on_dir_move(a);
        let p = lh.pending_for(&ns, f);
        assert_eq!(p.permission_updates, 2);
        assert_eq!(p.moves, 1);
    }

    #[test]
    fn generations_are_monotone() {
        let (_, a, b, _, _) = tree();
        let mut lh = LazyHybrid::new(4);
        let g1 = lh.on_dir_permission_change(a);
        let g2 = lh.on_dir_move(b);
        assert!(g2 > g1);
        assert_eq!(lh.current_gen(), g2);
        assert_eq!(lh.pending_events(), 2);
    }

    #[test]
    fn authority_follows_current_path() {
        let (mut ns, a, _, f, c) = tree();
        let lh = LazyHybrid::new(64);
        let before = lh.authority(&ns, f);
        ns.rename(a, "b", c, "b").unwrap();
        let after = lh.authority(&ns, f);
        assert_ne!(before, after, "move rehashes (64 buckets)");
    }
}
