//! MDS failure and recovery (§2.1.2, §4.6).
//!
//! The paper's storage design makes takeover cheap: metadata lives on a
//! *shared* store ("a shared metadata store … offers fundamental
//! advantages over directly-attached storage by easing MDS failover"),
//! and each node's bounded journal "represents an approximation of that
//! node's working set, allowing the memory cache to be quickly preloaded
//! with millions of records on startup or after a failure".
//!
//! Failure semantics here:
//!
//! * [`Cluster::fail_node`] — the node stops serving and loses its RAM.
//!   Under subtree partitioning its delegations are redistributed
//!   round-robin over the survivors, each of whom *warms its cache from
//!   the failed node's journal* (shared storage) for the subtrees it
//!   inherits. Under hashed strategies placement is remapped by skipping
//!   the dead node ([`Cluster::live_authority`]).
//! * Requests already in flight toward a dead node time out and are
//!   re-sent to the live authority after `FAILOVER_TIMEOUT`.
//! * [`Cluster::recover_node`] — the node comes back empty, preloads its
//!   cache from its journal's working set, and rejoins; the dynamic
//!   balancer migrates load back over subsequent heartbeats.

use dynmds_cache::InsertKind;
use dynmds_event::{SimDuration, SimTime};
use dynmds_namespace::{InodeId, MdsId};

use crate::cluster::Cluster;
use crate::config::MIGRATE_PER_ITEM;

/// How long a client-side request waits on a dead node before being
/// re-driven at the live authority.
pub const FAILOVER_TIMEOUT: SimDuration = SimDuration::from_millis(500);

impl Cluster {
    /// Whether `mds` is currently alive.
    pub fn is_alive_node(&self, mds: MdsId) -> bool {
        self.alive[mds.index()]
    }

    /// Number of live nodes.
    pub fn live_nodes(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Maps an authority to a live node: the authority itself when up,
    /// otherwise the next live node in ring order (every client and
    /// server can compute this identically).
    pub fn live_authority(&self, auth: MdsId) -> MdsId {
        if self.alive[auth.index()] {
            return auth;
        }
        let n = self.nodes.len();
        for step in 1..n {
            let cand = (auth.index() + step) % n;
            if self.alive[cand] {
                return MdsId(cand as u16);
            }
        }
        auth // no live node: degenerate, caller's problem
    }

    /// Subtree roots `mds` currently hosts beyond its initial assignment
    /// (inherited via failover or migrated in by the balancer).
    pub fn imported_of(&self, mds: MdsId) -> &[InodeId] {
        &self.imported[mds.index()]
    }

    /// Event-path variant of [`fail_node`] for generated churn: a crash
    /// that would kill the last live node is skipped (and counted)
    /// instead of panicking — a random schedule may legitimately line up
    /// every node's down-time.
    ///
    /// [`fail_node`]: Cluster::fail_node
    pub fn try_fail_node(&mut self, now: SimTime, mds: MdsId) {
        if !self.alive[mds.index()] {
            return; // already down: no-op, mirroring fail_node
        }
        if self.live_nodes() == 1 {
            self.failures_skipped += 1;
            return;
        }
        self.fail_node(now, mds);
    }

    /// Kills `mds` at `now`. Panics if it is the last live node.
    pub fn fail_node(&mut self, now: SimTime, mds: MdsId) {
        assert!(self.live_nodes() > 1, "cannot fail the last node");
        if !self.alive[mds.index()] {
            return;
        }
        self.alive[mds.index()] = false;
        self.failures += 1;
        self.obs.on_failure();

        // A dead node has no load: clear its smoothed estimate, its
        // in-window counters, and its overload streak so residual figures
        // neither mark it "busiest" nor skew the cluster mean the balancer
        // gates on.
        self.hb_ewma[mds.index()] = 0.0;
        self.busy_streak[mds.index()] = 0;
        self.hb_served[mds.index()] = 0;
        self.hb_misses[mds.index()] = 0;

        // RAM is gone. The journal is on shared storage and survives.
        let cap = self.cfg.cache_capacity;
        self.nodes[mds.index()].cache = dynmds_cache::MetaCache::new(cap);

        // The failed node's working set, recoverable by any successor.
        let mut working_set: Vec<InodeId> = self.nodes[mds.index()].journal.working_set().collect();
        working_set.sort();

        // Subtree partitions re-delegate explicitly; hashed partitions
        // remap implicitly via live_authority().
        let owned = match self.partition.as_subtree() {
            Some(sub) => sub.delegations_of(mds),
            None => Vec::new(),
        };
        let survivors: Vec<MdsId> =
            (0..self.nodes.len()).filter(|&i| self.alive[i]).map(|i| MdsId(i as u16)).collect();
        // Rotate the round-robin start by the failure count so successive
        // failures don't pile every inherited subtree onto the same
        // low-indexed survivors.
        let offset = self.failures as usize;
        for (k, root) in owned.into_iter().enumerate() {
            let heir = survivors[(k + offset) % survivors.len()];
            self.partition.delegate(&self.ns, root, heir);
            self.imported[mds.index()].retain(|&d| d != root);
            self.imported[heir.index()].push(root);
            if self.cfg.journal_warming {
                self.warm_from_journal(now, heir, root, &working_set);
            }
        }
    }

    /// Preloads `heir`'s cache with the part of a failed node's journal
    /// working set that falls under `root` — the §4.6 recovery path. The
    /// heir pays a journal read (sequential, fast) plus per-item handling.
    fn warm_from_journal(
        &mut self,
        now: SimTime,
        heir: MdsId,
        root: InodeId,
        working_set: &[InodeId],
    ) {
        let mut inherited: Vec<InodeId> = working_set
            .iter()
            .copied()
            .filter(|&id| self.ns.is_alive(id) && (id == root || self.ns.is_ancestor(root, id)))
            .collect();
        inherited.sort_by_key(|&id| (self.ns.depth(id).unwrap_or(usize::MAX), id));
        if inherited.is_empty() {
            return;
        }
        self.obs.on_journal_warm(heir, inherited.len() as u64);
        // One journal read plus per-record replay cost.
        self.nodes[heir.index()].journal_disk.access(now, dynmds_storage::AccessKind::Read);
        let cost = MIGRATE_PER_ITEM.saturating_mul(inherited.len() as u64);
        self.nodes[heir.index()].occupy(now, cost);

        // Anchor the subtree, then replay records parents-first.
        let mut chain: Vec<InodeId> = self.ns.ancestors(root).collect();
        chain.reverse();
        let hi = heir.index();
        for anc in chain {
            let parent =
                self.ns.parent(anc).ok().flatten().filter(|p| self.nodes[hi].cache.peek(*p));
            self.nodes[hi].cache.insert(anc, parent, InsertKind::Prefix);
        }
        for id in inherited {
            let parent =
                self.ns.parent(id).ok().flatten().filter(|p| self.nodes[hi].cache.peek(*p));
            let kind = if self.ns.is_dir(id) { InsertKind::Prefix } else { InsertKind::Target };
            self.nodes[hi].cache.insert(id, parent, kind);
        }
    }

    /// Brings `mds` back at `now`: empty RAM, cache preloaded from its
    /// own journal's working set (fast sequential read), ready to serve.
    /// Under the dynamic strategy the balancer migrates load back on
    /// subsequent heartbeats.
    pub fn recover_node(&mut self, now: SimTime, mds: MdsId) {
        if self.alive[mds.index()] {
            return;
        }
        self.alive[mds.index()] = true;
        self.recoveries += 1;
        self.obs.on_recovery();
        if !self.cfg.journal_warming {
            return; // ablation: come back cold
        }
        self.warm_own_journal(now, mds);
    }

    /// The §4.6 cold-start model of crash recovery: preload the node's
    /// cache from its own journal's working set (one fast sequential read
    /// plus per-record replay cost).
    pub(crate) fn warm_own_journal(&mut self, now: SimTime, mds: MdsId) {
        // §4.6 cache warming: the log approximates the working set.
        let mut ws: Vec<InodeId> = self.nodes[mds.index()].journal.working_set().collect();
        ws.sort_by_key(|&id| (self.ns.depth(id).unwrap_or(usize::MAX), id));
        self.obs.on_journal_warm(mds, ws.len() as u64);
        self.nodes[mds.index()].journal_disk.access(now, dynmds_storage::AccessKind::Read);
        let cost = MIGRATE_PER_ITEM.saturating_mul(ws.len() as u64 + 1);
        self.nodes[mds.index()].occupy(now, cost);
        let mi = mds.index();
        for id in ws {
            if !self.ns.is_alive(id) {
                continue;
            }
            // Parents first (depth-sorted); link whatever chain is cached.
            let mut chain: Vec<InodeId> = self.ns.ancestors(id).collect();
            chain.reverse();
            for anc in chain {
                if !self.nodes[mi].cache.peek(anc) {
                    let parent = self
                        .ns
                        .parent(anc)
                        .ok()
                        .flatten()
                        .filter(|p| self.nodes[mi].cache.peek(*p));
                    self.nodes[mi].cache.insert(anc, parent, InsertKind::Prefix);
                }
            }
            let parent =
                self.ns.parent(id).ok().flatten().filter(|p| self.nodes[mi].cache.peek(*p));
            let kind = if self.ns.is_dir(id) { InsertKind::Prefix } else { InsertKind::Target };
            self.nodes[mi].cache.insert(id, parent, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use dynmds_event::SimTime;
    use dynmds_namespace::MdsId;
    use dynmds_partition::StrategyKind;

    use crate::testutil::tiny_cluster;

    #[test]
    fn live_authority_ring_skips_dead_nodes() {
        let mut c = tiny_cluster(StrategyKind::FileHash);
        assert_eq!(c.live_authority(MdsId(2)), MdsId(2));
        c.fail_node(SimTime::from_secs(1), MdsId(2));
        assert_eq!(c.live_authority(MdsId(2)), MdsId(3));
        c.fail_node(SimTime::from_secs(1), MdsId(3));
        assert_eq!(c.live_authority(MdsId(2)), MdsId(0), "wraps the ring");
        assert_eq!(c.live_nodes(), 2);
    }

    #[test]
    fn live_authority_with_all_nodes_dead_returns_input_unchanged() {
        // The ring scan can come up empty (e.g. during teardown or a
        // pathological failure schedule). The contract is: return the
        // original authority untouched and let the caller decide.
        let mut c = tiny_cluster(StrategyKind::FileHash);
        for a in c.alive.iter_mut() {
            *a = false;
        }
        assert_eq!(c.live_nodes(), 0);
        for i in 0..4 {
            assert_eq!(c.live_authority(MdsId(i)), MdsId(i), "degenerate map is identity");
        }
    }

    #[test]
    fn fail_is_idempotent_and_recover_restores() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.fail_node(SimTime::from_secs(1), MdsId(1));
        c.fail_node(SimTime::from_secs(2), MdsId(1));
        assert_eq!(c.failures, 1, "double-fail is a no-op");
        c.recover_node(SimTime::from_secs(3), MdsId(1));
        c.recover_node(SimTime::from_secs(4), MdsId(1));
        assert_eq!(c.recoveries, 1, "double-recover is a no-op");
        assert!(c.is_alive_node(MdsId(1)));
    }

    #[test]
    #[should_panic(expected = "cannot fail the last node")]
    fn last_node_cannot_fail() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        for i in 0..4 {
            c.fail_node(SimTime::from_secs(1), MdsId(i));
        }
    }

    #[test]
    fn crash_clears_the_load_signal() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.hb_served[2] = 9_999;
        c.hb_misses[2] = 123;
        c.hb_ewma[2] = 77_000.0;
        c.busy_streak[2] = 4;
        c.fail_node(SimTime::from_secs(1), MdsId(2));
        assert_eq!(c.hb_ewma[2], 0.0);
        assert_eq!(c.busy_streak[2], 0);
        assert_eq!(c.hb_served[2], 0);
        assert_eq!(c.hb_misses[2], 0);
    }

    #[test]
    fn failed_subtree_delegations_move_to_survivors() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let owned_before = c.partition.as_subtree().unwrap().delegations_of(MdsId(0));
        assert!(!owned_before.is_empty(), "node 0 owns something initially");
        c.fail_node(SimTime::from_secs(1), MdsId(0));
        let sub = c.partition.as_subtree().unwrap();
        assert!(sub.delegations_of(MdsId(0)).is_empty());
        for root in owned_before {
            let heir = sub.delegation_of(root).expect("still delegated");
            assert_ne!(heir, MdsId(0));
            assert!(c.is_alive_node(heir));
        }
    }

    #[test]
    fn recovery_preloads_cache_from_journal() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        // Journal a few live inodes on node 3, then crash and recover it.
        let ids: Vec<_> = c.ns.live_ids().filter(|&i| !c.ns.is_dir(i)).take(10).collect();
        for &id in &ids {
            c.nodes[3].journal.append(id);
        }
        c.fail_node(SimTime::from_secs(1), MdsId(3));
        assert_eq!(c.nodes[3].cache.len(), 0);
        c.recover_node(SimTime::from_secs(2), MdsId(3));
        for &id in &ids {
            assert!(c.nodes[3].cache.peek(id), "working-set item {id} not warmed");
        }
        c.nodes[3].cache.check_integrity();
    }
}
