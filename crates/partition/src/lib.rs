//! Metadata partitioning strategies.
//!
//! The paper evaluates five ways of distributing a file-system hierarchy
//! across a metadata-server cluster (§3, §4):
//!
//! | Strategy | Placement | Locality | Adapts |
//! |---|---|---|---|
//! | `StaticSubtree` | manual/initial subtree delegation | hierarchical | no |
//! | `DynamicSubtree` | subtree delegation, rebalanced at runtime | hierarchical | yes |
//! | `DirHash` | hash of containing-directory path | per-directory | via hash |
//! | `FileHash` | hash of full path | none | via hash |
//! | `LazyHybrid` | hash of full path + embedded effective ACLs | none | via hash |
//!
//! This crate implements the *placement* machinery: the delegation tree
//! used by the subtree strategies ([`subtree`]), the path-hash placements
//! ([`hash`]), and Lazy Hybrid's dual-entry ACL with lazy update
//! propagation ([`lazy`]). The runtime behaviour built on top — load
//! balancing, replication, traffic control — lives in `dynmds-core`.
//!
//! The three rules are pure: each computes an answer from scratch, from
//! its own state and the namespace. [`Partition`] wraps one rule with the
//! only placement cache, an owner table of 2 bytes per id up to the
//! namespace's id bound, so [`Partition::authority`] is one load. Both
//! engines read it, and it is `Sync`, so the sharded engine's shards
//! share one. It stays current because every change that can move an
//! answer goes through it:
//!
//! * [`Partition::refresh`] after each create, mkdir, unlink and rename
//!   (a hard link moves no answer);
//! * [`Partition::delegate`] and [`Partition::undelegate`] for the
//!   subtree strategies' delegation table.
//!
//! Each repaints the id it names and the region below it on primary
//! dentries; dead ids, and ids at or past the bound, get the rule's
//! tombstone answer.

pub mod hash;
pub mod kind;
pub mod lazy;
pub mod subtree;

pub use hash::{dentry_hash, path_hash, try_path_hash_of, HashGranularity, HashPartition};
pub use kind::StrategyKind;
pub use lazy::{LazyHybrid, LazyUpdateKind, PendingStats};
pub use subtree::SubtreePartition;

use dynmds_namespace::{InodeId, MdsId, Namespace};

/// A placement rule; see [`Partition`].
enum Rule {
    /// Subtree delegation (static or dynamic — the dynamic strategy
    /// mutates the delegation table at runtime).
    Subtree(SubtreePartition),
    /// Path hashing (directory- or file-granularity).
    Hash(HashPartition),
    /// Lazy Hybrid: file-granularity hashing plus lazy ACL updates.
    LazyHybrid(LazyHybrid),
}

/// A configured placement: answers "who is authoritative for item X"
/// from a table that its rule fills and its hooks keep current (see the
/// crate docs).
pub struct Partition {
    rule: Rule,
    /// The rule's answer per `InodeId::index()`, tombstones included, up
    /// to the id bound at the last fill or hook.
    owner: Vec<MdsId>,
}

/// Whether `dir`'s entry `sym` → `c` is `c`'s primary dentry: both its
/// parent and its name must match, or a hard link beside the primary
/// one would take the answer of a path the rules never hash.
fn is_primary(ns: &Namespace, dir: InodeId, sym: u32, c: InodeId) -> bool {
    ns.parent(c) == Ok(Some(dir)) && ns.name_sym(c) == Ok(sym)
}

impl Partition {
    /// Builds the standard initial placement for `kind` over `ns` with
    /// `n_mds` servers, as the paper's simulations do (§5.1): subtree
    /// strategies hash directories near the root across the cluster.
    /// Fills the table for every id below the bound.
    pub fn initial(kind: StrategyKind, ns: &Namespace, n_mds: u16) -> Partition {
        let rule = match kind {
            StrategyKind::StaticSubtree
            | StrategyKind::DynamicSubtree
            | StrategyKind::ElasticSubtree => {
                Rule::Subtree(SubtreePartition::initial_near_root(ns, n_mds, 2))
            }
            StrategyKind::DirHash => {
                Rule::Hash(HashPartition::new(n_mds, HashGranularity::Directory))
            }
            StrategyKind::FileHash => Rule::Hash(HashPartition::new(n_mds, HashGranularity::File)),
            StrategyKind::LazyHybrid => Rule::LazyHybrid(LazyHybrid::new(n_mds)),
        };
        let mut p = Partition { rule, owner: Vec::new() };
        p.owner = vec![p.tombstone(); ns.id_bound() as usize];
        match &p.rule {
            // Delegation regions are disjoint, so their order is free.
            Rule::Subtree(s) => {
                for (point, _) in s.delegations() {
                    s.paint(ns, &mut p.owner, point);
                }
            }
            _ => p.paint(ns, ns.root()),
        }
        p
    }

    /// The authoritative MDS for `id`: one table load. Ids at or past the
    /// bound get the tombstone answer.
    #[inline]
    pub fn authority(&self, id: InodeId) -> MdsId {
        self.owner.get(id.index()).copied().unwrap_or_else(|| self.tombstone())
    }

    /// The rule's answer for `id` computed from scratch, without the
    /// table: the reference the table is tested against.
    pub fn recompute(&self, ns: &Namespace, id: InodeId) -> MdsId {
        match &self.rule {
            Rule::Subtree(s) => s.authority(ns, id),
            Rule::Hash(h) => h.authority(ns, id),
            Rule::LazyHybrid(l) => l.authority(ns, id),
        }
    }

    /// The answer of an id the namespace does not hold: the tree root's
    /// owner under delegation, the hash of `"/"` otherwise.
    fn tombstone(&self) -> MdsId {
        match &self.rule {
            Rule::Subtree(s) => s.root_owner(),
            Rule::Hash(h) => path_hash("/", h.cluster_size()),
            Rule::LazyHybrid(l) => path_hash("/", l.cluster_size()),
        }
    }

    /// Repaints `top` and the region below it.
    fn paint(&mut self, ns: &Namespace, top: InodeId) {
        match &self.rule {
            Rule::Subtree(s) => s.paint(ns, &mut self.owner, top),
            Rule::Hash(h) => h.paint(ns, &mut self.owner, top),
            Rule::LazyHybrid(l) => l.paint(ns, &mut self.owner, top),
        }
    }

    /// The mutation hook: call after a create, mkdir, unlink or rename
    /// of `id` has been applied to `ns`. Grows the table to the id bound,
    /// then repaints `id` and, when it is a live directory, everything
    /// below it on primary dentries. A dead `id` gets the tombstone
    /// answer. An unlink that promotes a surviving link moves the file,
    /// and this repaints it.
    pub fn refresh(&mut self, ns: &Namespace, id: InodeId) {
        let bound = ns.id_bound() as usize;
        if self.owner.len() < bound {
            let fill = self.tombstone();
            self.owner.resize(bound, fill);
        }
        if id.index() < self.owner.len() {
            self.paint(ns, id);
        }
    }

    /// Delegates the subtree rooted at `dir` to `mds` and repaints the
    /// region it now governs. Returns the previous explicit delegation of
    /// `dir`, if any. Panics unless this is a subtree partition.
    pub fn delegate(&mut self, ns: &Namespace, dir: InodeId, mds: MdsId) -> Option<MdsId> {
        let prev = self.subtree_mut().delegate(dir, mds);
        self.refresh(ns, dir);
        prev
    }

    /// Removes `dir`'s explicit delegation, merging its region back into
    /// the enclosing one, and repaints it. The root delegation cannot be
    /// removed. Panics unless this is a subtree partition.
    pub fn undelegate(&mut self, ns: &Namespace, dir: InodeId) -> Option<MdsId> {
        let prev = self.subtree_mut().undelegate(dir);
        if prev.is_some() {
            self.refresh(ns, dir);
        }
        prev
    }

    fn subtree_mut(&mut self) -> &mut SubtreePartition {
        match &mut self.rule {
            Rule::Subtree(s) => s,
            _ => panic!("only a subtree partition has delegations"),
        }
    }

    /// The subtree table, when this is a subtree partition.
    pub fn as_subtree(&self) -> Option<&SubtreePartition> {
        match &self.rule {
            Rule::Subtree(s) => Some(s),
            _ => None,
        }
    }

    /// Lazy Hybrid state, when applicable. Its update log moves no
    /// placement answer.
    pub fn as_lazy_mut(&mut self) -> Option<&mut LazyHybrid> {
        match &mut self.rule {
            Rule::LazyHybrid(l) => Some(l),
            _ => None,
        }
    }

    /// Lazy Hybrid state, immutable.
    pub fn as_lazy(&self) -> Option<&LazyHybrid> {
        match &self.rule {
            Rule::LazyHybrid(l) => Some(l),
            _ => None,
        }
    }
}
