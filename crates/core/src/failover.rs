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
//! * [`Cluster::fail_node`] — the node stops serving and loses its RAM
//!   ([`MdsNode::lose_memory`](crate::node::MdsNode::lose_memory)).
//!   Under subtree partitioning its delegations go round robin to the
//!   survivors ([`heirs`]), each of whom *warms its cache from the failed
//!   node's journal* (shared storage) for the subtrees it inherits.
//!   Under hashed strategies placement is remapped by skipping the dead
//!   node ([`Cluster::live_authority`]).
//! * Requests already in flight toward a dead node time out and are
//!   re-sent to the live authority after `FAILOVER_TIMEOUT`.
//! * [`Cluster::recover_node`] — the node comes back empty, preloads its
//!   cache from its journal's working set, and rejoins; the dynamic
//!   balancer migrates load back over subsequent heartbeats.

use dynmds_cache::InsertKind;
use dynmds_event::{SimDuration, SimTime};
use dynmds_namespace::{InodeId, MdsId};
use dynmds_storage::DiskFault;

use crate::cluster::Cluster;
use crate::config::MIGRATE_PER_ITEM;
use crate::fault::{crash_applies, heirs, DiskScope, FaultStep};

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

    /// Maps an authority to a live node ([`crate::serve::View::live_authority`]).
    pub fn live_authority(&self, auth: MdsId) -> MdsId {
        self.view().live_authority(auth)
    }

    /// Subtree roots `mds` currently hosts beyond its initial assignment
    /// (inherited via failover or migrated in by the balancer).
    pub fn imported_of(&self, mds: MdsId) -> &[InodeId] {
        &self.imported[mds.index()]
    }

    /// Applies one step of the fault schedule. A crash obeys the crash
    /// rule of both engines ([`crash_applies`]).
    pub(crate) fn apply_fault(&mut self, now: SimTime, step: FaultStep) {
        match step {
            FaultStep::Crash(mds) => {
                if crash_applies(&self.alive, mds) {
                    self.fail_node(now, mds);
                }
            }
            FaultStep::Recover(mds) => self.recover_node(now, mds),
            FaultStep::Disk { scope, fault } => self.set_disk_fault(scope, fault),
            FaultStep::Net(spec) => self.net_fault = spec,
        }
    }

    /// Applies (or clears) a disk degradation window on the given scope.
    /// Seeds derive from the run seed so replays are identical.
    fn set_disk_fault(&mut self, scope: DiskScope, fault: Option<DiskFault>) {
        let base = self.cfg.seed ^ 0xD15C;
        if matches!(scope, DiskScope::Osd | DiskScope::All) {
            self.store.set_pool_fault(fault, base);
        }
        if matches!(scope, DiskScope::Journal | DiskScope::All) {
            for (i, n) in self.nodes.iter_mut().enumerate() {
                n.journal_disk.set_fault(fault, base ^ ((i as u64 + 1) << 32));
            }
        }
    }

    /// Kills `mds` at `now`; a no-op when it is already dead. Panics if
    /// it is the last live node.
    pub fn fail_node(&mut self, now: SimTime, mds: MdsId) {
        if !self.alive[mds.index()] {
            return;
        }
        assert!(self.live_nodes() > 1, "cannot fail the last node");
        self.alive[mds.index()] = false;
        self.counters.failures += 1;

        // A dead node has no load: clear its smoothed estimate and its
        // overload streak (losing its memory also opens a new heartbeat
        // window), so residual figures neither mark it "busiest" nor skew
        // the cluster mean the balancer gates on.
        self.hb_ewma[mds.index()] = 0.0;
        self.busy_streak[mds.index()] = 0;
        self.nodes[mds.index()].lose_memory();

        // The failed node's working set, recoverable by any successor.
        let mut working_set: Vec<InodeId> = self.nodes[mds.index()].journal.working_set().collect();
        working_set.sort();

        // Subtree partitions re-delegate explicitly; hashed partitions
        // remap implicitly via live_authority().
        let owned = match self.partition.as_subtree() {
            Some(sub) => sub.delegations_of(mds),
            None => Vec::new(),
        };
        let heirs = heirs(&self.alive, self.counters.failures, owned.len());
        for (root, heir) in owned.into_iter().zip(heirs) {
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
        let inherited: Vec<InodeId> = working_set
            .iter()
            .copied()
            .filter(|&id| self.ns.is_alive(id) && (id == root || self.ns.is_ancestor(root, id)))
            .collect();
        if inherited.is_empty() {
            return;
        }
        let node = &mut self.nodes[heir.index()];
        node.life.journal_warmed += inherited.len() as u64;
        // One journal read plus per-record replay cost.
        node.journal_disk.access(now, dynmds_storage::AccessKind::Read);
        node.occupy(now, MIGRATE_PER_ITEM.saturating_mul(inherited.len() as u64));
        // Anchor the subtree, then replay records parents-first.
        node.install_subtree(&self.ns, root, inherited);
    }

    /// Brings `mds` back at `now`: empty RAM, cache preloaded from its
    /// own journal's working set — the §4.6 cold-start model: one fast
    /// sequential read plus per-record replay cost — ready to serve.
    /// Under the dynamic strategy the balancer migrates load back on
    /// subsequent heartbeats.
    pub fn recover_node(&mut self, now: SimTime, mds: MdsId) {
        if self.alive[mds.index()] {
            return;
        }
        self.alive[mds.index()] = true;
        self.counters.recoveries += 1;
        if !self.cfg.journal_warming {
            return; // ablation: come back cold
        }
        let node = &mut self.nodes[mds.index()];
        // §4.6 cache warming: the log approximates the working set.
        let mut ws: Vec<InodeId> = node.journal.working_set().collect();
        ws.sort_by_key(|&id| (self.ns.depth(id).unwrap_or(usize::MAX), id));
        node.life.journal_warmed += ws.len() as u64;
        node.journal_disk.access(now, dynmds_storage::AccessKind::Read);
        node.occupy(now, MIGRATE_PER_ITEM.saturating_mul(ws.len() as u64 + 1));
        let mut chain = Vec::new();
        for id in ws {
            if !self.ns.is_alive(id) {
                continue;
            }
            // Parents first (depth-sorted); link whatever chain is cached.
            self.ns.ancestors_into(id, &mut chain);
            for &anc in &chain {
                if !node.cache.peek(anc) {
                    node.install(&self.ns, anc, InsertKind::Prefix);
                }
            }
            let kind = if self.ns.is_dir(id) { InsertKind::Prefix } else { InsertKind::Target };
            node.install(&self.ns, id, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use dynmds_event::SimTime;
    use dynmds_namespace::MdsId;
    use dynmds_partition::StrategyKind;

    use crate::testutil::{tiny_cluster, tiny_cluster_with};

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
        assert_eq!(c.counters.failures, 1, "double-fail is a no-op");
        c.recover_node(SimTime::from_secs(3), MdsId(1));
        c.recover_node(SimTime::from_secs(4), MdsId(1));
        assert_eq!(c.counters.recoveries, 1, "double-recover is a no-op");
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
    fn failing_a_dead_node_is_a_no_op_with_one_node_left() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        for i in 0..3 {
            c.fail_node(SimTime::from_secs(1), MdsId(i));
        }
        c.fail_node(SimTime::from_secs(2), MdsId(2));
        assert_eq!((c.live_nodes(), c.counters.failures), (1, 3));
    }

    #[test]
    fn a_crash_keeps_the_cache_insertion_policy() {
        use dynmds_cache::InsertKind;
        use dynmds_namespace::InodeId;
        let mut c = tiny_cluster_with(StrategyKind::DynamicSubtree, |cfg| {
            cfg.disable_prefetch_probation = true;
        });
        c.fail_node(SimTime::from_secs(1), MdsId(1));
        let cache = &mut c.nodes[1].cache;
        let cap = cache.capacity() as u64;
        cache.insert(InodeId(1), None, InsertKind::Target);
        cache.insert(InodeId(2), None, InsertKind::Prefetch);
        for id in 3..=cap {
            cache.insert(InodeId(id), None, InsertKind::Target);
        }
        // Near-tail insertion off: the prefetch entered at the MRU head,
        // so the oldest target is the first to go.
        let evicted = cache.insert(InodeId(cap + 1), None, InsertKind::Target);
        assert_eq!(evicted, vec![InodeId(1)]);
    }

    #[test]
    fn a_crashed_replicas_absorbed_write_reaches_the_authority() {
        use dynmds_event::EventQueue;
        use dynmds_namespace::ClientId;
        use dynmds_workload::Op;

        use crate::request::{Request, SimEvent};

        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.cfg.shared_writes = true;
        let file = c.ns.walk(c.ns.root()).find(|&i| !c.ns.is_dir(i)).unwrap();
        c.replicated.insert(file);
        let auth = c.authority_of(file);
        let replica = MdsId((auth.0 + 1) % 4);
        let size = c.ns.inode(file).unwrap().size;
        let req = Request {
            client: ClientId(0),
            uid: 1,
            op: Op::Close(file),
            issued_at: SimTime::from_millis(1),
            hops: 0,
            retries: 0,
            via_proxy: false,
        };
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        c.handle(SimTime::from_millis(1), SimEvent::Arrive { mds: replica, req }, &mut q);
        assert_eq!(c.nodes[replica.index()].life.shared_absorbed, 1);
        c.fail_node(SimTime::from_millis(2), replica);
        c.flush_writes(SimTime::from_millis(3));
        assert_eq!(c.ns.inode(file).unwrap().size, size + 4096);
        assert_eq!(c.counters.shared_write_flushes, 1);
    }

    #[test]
    fn crash_clears_the_load_signal() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.nodes[2].life.served = 9_999;
        c.nodes[2].life.prefix_misses = 123;
        c.nodes[2].life.target_misses = 7;
        c.hb_ewma[2] = 77_000.0;
        c.busy_streak[2] = 4;
        c.fail_node(SimTime::from_secs(1), MdsId(2));
        assert_eq!(c.hb_ewma[2], 0.0);
        assert_eq!(c.busy_streak[2], 0);
        c.heartbeat(SimTime::from_secs(2));
        assert_eq!(c.hb_ewma[2], 0.0, "pre-crash ops leave the next heartbeat's load");
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
