//! Subtree delegation table (§4.1).
//!
//! "The file system is partitioned by delegating authority for subtrees of
//! the hierarchy to different metadata servers. Delegations may be nested:
//! /usr may be assigned to one MDS … while /usr/local is reassigned to
//! another. In the absence of an explicit subtree assignment, the entire
//! directory tree nested beneath a point is assumed to reside on the same
//! server."
//!
//! The table is shared cluster state in the simulator (in the real system
//! it is replicated via the delegation protocol); authority lookup walks
//! from the item toward the root and stops at the first delegation point.

use dynmds_namespace::{FxHashMap, InodeId, MdsId, Namespace};

use crate::hash::{path_hash, try_path_hash_of};

/// Delegation table for subtree-partitioned clusters.
pub struct SubtreePartition {
    delegations: FxHashMap<InodeId, MdsId>,
    root: InodeId,
}

impl SubtreePartition {
    /// Creates a table with the whole hierarchy delegated to `root_mds`.
    pub fn new(root: InodeId, root_mds: MdsId) -> Self {
        let mut delegations = FxHashMap::default();
        delegations.insert(root, root_mds);
        SubtreePartition { delegations, root }
    }

    /// The paper's initial partition (§5.1): "hashing directories near the
    /// root of the hierarchy" — every directory at depth ≤ `max_depth`
    /// becomes a delegation point placed by path hash.
    pub fn initial_near_root(ns: &Namespace, n_mds: u16, max_depth: usize) -> Self {
        assert!(n_mds > 0, "cluster must be non-empty");
        let mut part = SubtreePartition::new(ns.root(), path_hash("/", n_mds));
        for id in ns.live_ids() {
            if !ns.is_dir(id) || id == ns.root() {
                continue;
            }
            if let Ok(d) = ns.depth(id) {
                if d <= max_depth {
                    // The `""` fallback mirrors the old `unwrap_or_default`
                    // on a dead id; live_ids() makes it unreachable.
                    let m = try_path_hash_of(ns, id, n_mds).unwrap_or_else(|| path_hash("", n_mds));
                    part.delegations.insert(id, m);
                }
            }
        }
        part
    }

    /// The authoritative MDS for `id`: the delegation at the nearest
    /// enclosing delegation point.
    pub fn authority(&self, ns: &Namespace, id: InodeId) -> MdsId {
        self.delegations.get(&self.subtree_root_of(ns, id)).copied().unwrap_or(MdsId(0))
    }

    /// The delegation point governing `id`: itself if delegated, else its
    /// nearest delegated ancestor, else the tree root. A tombstone has no
    /// ancestors, so it answers itself or the root.
    pub fn subtree_root_of(&self, ns: &Namespace, id: InodeId) -> InodeId {
        std::iter::once(id)
            .chain(ns.ancestors(id))
            .find(|d| self.delegations.contains_key(d))
            .unwrap_or(self.root)
    }

    /// The owner of the tree root: the answer of every id with no
    /// delegation of its own and no live ancestor chain.
    pub(crate) fn root_owner(&self) -> MdsId {
        self.delegations.get(&self.root).copied().unwrap_or(MdsId(0))
    }

    /// Writes `top`'s owner into `owner` (indexed by `InodeId::index()`)
    /// for `top` and every id it governs: its descendants on primary
    /// dentries down to, not into, nested delegation points. A hard link
    /// elsewhere keeps its primary parent's answer. Repainting the tree
    /// root also repaints the tombstones without a delegation of their
    /// own, which answer the root's owner.
    pub(crate) fn paint(&self, ns: &Namespace, owner: &mut [MdsId], top: InodeId) {
        let m = self.authority(ns, top);
        owner[top.index()] = m;
        if top == self.root {
            for (i, slot) in owner.iter_mut().enumerate() {
                let id = InodeId(i as u64);
                if !ns.is_alive(id) && !self.delegations.contains_key(&id) {
                    *slot = m;
                }
            }
        }
        let mut dirs = vec![top];
        while let Some(dir) = dirs.pop() {
            let Ok(kids) = ns.children_syms(dir) else { continue };
            for (sym, c) in kids {
                if crate::is_primary(ns, dir, sym, c) && !self.delegations.contains_key(&c) {
                    owner[c.index()] = m;
                    if ns.is_dir(c) {
                        dirs.push(c);
                    }
                }
            }
        }
    }

    /// Delegates the subtree rooted at `dir` to `mds`. Returns the
    /// previous explicit delegation of `dir`, if any.
    pub fn delegate(&mut self, dir: InodeId, mds: MdsId) -> Option<MdsId> {
        self.delegations.insert(dir, mds)
    }

    /// Removes an explicit delegation, merging the subtree back into its
    /// parent delegation. The root delegation cannot be removed.
    pub fn undelegate(&mut self, dir: InodeId) -> Option<MdsId> {
        if dir == self.root {
            return None;
        }
        self.delegations.remove(&dir)
    }

    /// Explicit delegation of `dir`, if any.
    pub fn delegation_of(&self, dir: InodeId) -> Option<MdsId> {
        self.delegations.get(&dir).copied()
    }

    /// Iterates all delegation points.
    pub fn delegations(&self) -> impl Iterator<Item = (InodeId, MdsId)> + '_ {
        self.delegations.iter().map(|(&d, &m)| (d, m))
    }

    /// Delegation points currently assigned to `mds`, sorted for
    /// determinism.
    pub fn delegations_of(&self, mds: MdsId) -> Vec<InodeId> {
        let mut v: Vec<InodeId> =
            self.delegations.iter().filter(|(_, &m)| m == mds).map(|(&d, _)| d).collect();
        v.sort();
        v
    }

    /// Number of delegation points. Each carries a small overhead (the
    /// authority must pin prefix inodes for it, §4.3), so balancers try to
    /// keep this low.
    pub fn delegation_count(&self) -> usize {
        self.delegations.len()
    }

    /// Live items governed by each MDS — O(n) sweep used by tests and
    /// experiment setup, not the hot path.
    pub fn partition_sizes(&self, ns: &Namespace, n_mds: u16) -> Vec<u64> {
        let mut sizes = vec![0u64; n_mds as usize];
        for id in ns.live_ids() {
            sizes[self.authority(ns, id).index()] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_namespace::{NamespaceSpec, Permissions};

    fn tree() -> (Namespace, InodeId, InodeId, InodeId) {
        // /usr/local/bin
        let mut ns = Namespace::new();
        let usr = ns.mkdir(ns.root(), "usr", Permissions::directory(0)).unwrap();
        let local = ns.mkdir(usr, "local", Permissions::directory(0)).unwrap();
        let bin = ns.mkdir(local, "bin", Permissions::directory(0)).unwrap();
        (ns, usr, local, bin)
    }

    #[test]
    fn root_delegation_covers_everything() {
        let (ns, usr, local, bin) = tree();
        let p = SubtreePartition::new(ns.root(), MdsId(3));
        for id in [ns.root(), usr, local, bin] {
            assert_eq!(p.authority(&ns, id), MdsId(3));
        }
    }

    #[test]
    fn nested_delegations_override() {
        // The paper's own example: /usr on one MDS, /usr/local reassigned.
        let (ns, usr, local, bin) = tree();
        let mut p = SubtreePartition::new(ns.root(), MdsId(0));
        p.delegate(usr, MdsId(1));
        p.delegate(local, MdsId(2));
        assert_eq!(p.authority(&ns, usr), MdsId(1));
        assert_eq!(p.authority(&ns, local), MdsId(2));
        assert_eq!(p.authority(&ns, bin), MdsId(2), "nested under /usr/local");
        assert_eq!(p.authority(&ns, ns.root()), MdsId(0));
    }

    #[test]
    fn undelegate_merges_back() {
        let (ns, usr, local, bin) = tree();
        let mut p = SubtreePartition::new(ns.root(), MdsId(0));
        p.delegate(usr, MdsId(1));
        p.delegate(local, MdsId(2));
        assert_eq!(p.undelegate(local), Some(MdsId(2)));
        assert_eq!(p.authority(&ns, bin), MdsId(1), "falls back to /usr");
        assert_eq!(p.undelegate(ns.root()), None, "root delegation immovable");
    }

    #[test]
    fn subtree_root_of_finds_governing_point() {
        let (ns, usr, local, bin) = tree();
        let mut p = SubtreePartition::new(ns.root(), MdsId(0));
        p.delegate(usr, MdsId(1));
        assert_eq!(p.subtree_root_of(&ns, bin), usr);
        assert_eq!(p.subtree_root_of(&ns, usr), usr);
        assert_eq!(p.subtree_root_of(&ns, ns.root()), ns.root());
        p.delegate(local, MdsId(2));
        assert_eq!(p.subtree_root_of(&ns, bin), local);
    }

    #[test]
    fn initial_partition_spreads_near_root_dirs() {
        let snap = NamespaceSpec { users: 60, seed: 5, ..Default::default() }.generate();
        let n = 6u16;
        let p = SubtreePartition::initial_near_root(&snap.ns, n, 2);
        // Home dirs are at depth 2; each should be a delegation point.
        for &h in &snap.user_homes {
            assert!(p.delegation_of(h).is_some(), "home not delegated");
        }
        let sizes = p.partition_sizes(&snap.ns, n);
        let total: u64 = sizes.iter().sum();
        assert_eq!(total, snap.ns.total_items());
        let mean = total / n as u64;
        for &s in &sizes {
            assert!(s > mean / 4 && s < mean * 3, "initial partition badly imbalanced: {sizes:?}");
        }
    }

    #[test]
    fn delegations_of_lists_per_mds() {
        let (ns, usr, local, _) = tree();
        let mut p = SubtreePartition::new(ns.root(), MdsId(0));
        p.delegate(usr, MdsId(1));
        p.delegate(local, MdsId(1));
        let d = p.delegations_of(MdsId(1));
        assert_eq!(d, vec![usr, local]);
        assert_eq!(p.delegations_of(MdsId(0)), vec![ns.root()]);
        assert_eq!(p.delegation_count(), 3);
    }

    #[test]
    fn transfer_moves_whole_subtree() {
        let (ns, usr, _, bin) = tree();
        let mut p = SubtreePartition::new(ns.root(), MdsId(0));
        p.delegate(usr, MdsId(1));
        assert_eq!(p.authority(&ns, bin), MdsId(1));
        let prev = p.delegate(usr, MdsId(4));
        assert_eq!(prev, Some(MdsId(1)));
        assert_eq!(p.authority(&ns, bin), MdsId(4));
    }
}
