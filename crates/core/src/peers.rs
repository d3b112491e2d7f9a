//! The legacy engine's [`Peers`]: each effect of the serve core resolved
//! at once, on the cluster's own state. [`Cluster::with_peers`] lends one
//! node to the core as the serving node and the rest as its peers.

use dynmds_cache::InsertKind;
use dynmds_event::SimTime;
use dynmds_namespace::{ClientId, InodeId, MdsId};
use dynmds_partition::StrategyKind;
use dynmds_storage::Read;
use dynmds_workload::OpKind;

use crate::cluster::Cluster;
use crate::node::MdsNode;
use crate::obs::SpanStage;
use crate::request::Request;
use crate::serve::{install_read, Peers, View};

/// One serving node's peers: the rest of the cluster and the other nodes.
pub(crate) struct ClusterPeers<'a> {
    /// The cluster; its `nodes` is empty while the peers exist.
    pub(crate) c: &'a mut Cluster,
    /// Nodes with ids below the serving node's.
    pub(crate) lo: &'a mut [MdsNode],
    /// Nodes with ids above the serving node's.
    pub(crate) hi: &'a mut [MdsNode],
}

/// Every node in id order, with the serving `node` in its place.
pub(crate) fn all_nodes<'b>(
    lo: &'b mut [MdsNode],
    node: &'b mut MdsNode,
    hi: &'b mut [MdsNode],
) -> impl Iterator<Item = &'b mut MdsNode> {
    lo.iter_mut().chain(std::iter::once(node)).chain(hi.iter_mut())
}

impl Cluster {
    /// Runs `f` on node `i` and its peers. The node vector is moved out
    /// for the call, so inside `f` every node is reached through the
    /// arguments, never through `self.nodes`.
    pub(crate) fn with_peers<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut MdsNode, &mut ClusterPeers<'_>) -> R,
    ) -> R {
        let mut nodes = std::mem::take(&mut self.nodes);
        let (lo, rest) = nodes.split_at_mut(i);
        let (node, hi) = rest.split_first_mut().expect("node id within the cluster");
        let out = f(node, &mut ClusterPeers { c: self, lo, hi });
        self.nodes = nodes;
        out
    }
}

impl Peers for ClusterPeers<'_> {
    fn view(&self) -> View<'_> {
        self.c.view()
    }

    fn fetch(&mut self, now: SimTime, read: Read) -> SimTime {
        let c = &mut *self.c;
        c.store.fetch(now, &c.ns, read)
    }

    /// One round trip, plus the authority's own disk if the prefix misses
    /// there too; the authority caches what its read loads.
    fn remote_prefix(&mut self, now: SimTime, dir: InodeId, auth: MdsId) -> SimTime {
        let c = &mut *self.c;
        let rtt = c.cfg.costs.net_hop.saturating_mul(2);
        let (i, j) = (self.lo.len(), auth.index());
        let peer = if j < i { &mut self.lo[j] } else { &mut self.hi[j - i - 1] };
        if peer.cache.peek(dir) {
            return now + rtt;
        }
        peer.life.disk_fetches += 1;
        let done = c.store.fetch(now, &c.ns, Read::Inode(dir));
        install_read(peer, &c.view(), Read::Inode(dir), InsertKind::Prefix);
        (now + rtt).max(done + rtt)
    }

    fn scatter_readdir(&mut self, now: SimTime) {
        let msg = self.c.cfg.costs.cpu_forward;
        for n in self.lo.iter_mut().chain(self.hi.iter_mut()) {
            if self.c.alive[n.id.index()] {
                n.occupy(now, msg);
            }
        }
    }

    fn lazy_trips(&mut self, id: InodeId) -> u64 {
        let c = &mut *self.c;
        c.partition.as_lazy_mut().map_or(0, |lh| lh.apply_pending(&c.ns, id).total())
    }

    /// Replica deltas merge by authority max-merge (§4.2); proxy deltas
    /// as one monotone size/mtime bump per absorbed write.
    fn gather(&mut self, now: SimTime, node: &mut MdsNode, id: InodeId) -> usize {
        let c = &mut *self.c;
        let mut contributors = 0;
        if c.dirty_shared.remove(&id) {
            let (mut adds, mut mtime, mut replicas) = (0u64, 0u64, 0u64);
            for n in all_nodes(self.lo, node, self.hi) {
                if let Some((a, m)) = n.write_deltas.remove(&id) {
                    adds += a;
                    mtime = mtime.max(m);
                    replicas += 1;
                }
            }
            let _ = c.ns.update_inode(id, |ino| {
                ino.size = ino.size.saturating_add(adds);
                ino.mtime_us = ino.mtime_us.max(mtime);
            });
            c.counters.shared_write_flushes += replicas;
            contributors += replicas as usize;
        }
        if c.proxy_dirty.remove(&id) {
            let mut bumps = 0u64;
            for d in c.proxies.iter_mut().filter_map(|p| p.take_pending(id)) {
                bumps += d;
                contributors += 1;
            }
            if bumps > 0 {
                let _ = c.ns.update_inode(id, |ino| {
                    ino.size = ino.size.saturating_add(4096 * bumps);
                    ino.mtime_us = ino.mtime_us.max(now.as_micros());
                });
            }
        }
        contributors
    }

    fn apply_update(&mut self, now: SimTime, node: &mut MdsNode, req: &Request) -> SimTime {
        ClusterPeers::apply_update(self, now, node, req)
    }

    /// Each receiving node pays a small message-handling cost.
    fn replicate(&mut self, now: SimTime, node: &mut MdsNode, id: InodeId) {
        let c = &mut *self.c;
        let mut chain = std::mem::take(&mut node.chain);
        c.ns.ancestors_into(id, &mut chain);
        chain.push(id);
        let msg = c.cfg.costs.cpu_forward;
        for n in all_nodes(self.lo, &mut *node, self.hi) {
            if !c.alive[n.id.index()] {
                continue;
            }
            for &a in &chain {
                let kind = if a == id { InsertKind::Target } else { InsertKind::Prefix };
                if !n.cache.peek(a) {
                    n.install(&c.ns, a, kind);
                }
            }
            n.occupy(now, msg);
        }
        node.chain = chain;
        c.replicated.insert(id);
        c.counters.replications += 1;
    }

    fn span(&mut self, client: ClientId, stage: SpanStage, at: SimTime, mds: MdsId) {
        self.c.obs.span(client.0, stage, at, mds.0);
    }

    fn account(&mut self, target: InodeId, kind: OpKind) {
        let c = &mut *self.c;
        // Dynamic directory hashing: grow or shrink the set of
        // entry-hashed directories (§4.3: "as directories grow or become
        // popular it may become appropriate to hash them…").
        let threshold = c.cfg.dir_hash_threshold;
        if threshold > 0 && c.cfg.strategy == StrategyKind::DynamicSubtree {
            let dir = if c.ns.is_dir(target) { Ok(Some(target)) } else { c.ns.parent(target) };
            if let Ok(Some(dir)) = dir {
                let count = c.ns.child_count(dir).unwrap_or(0);
                if count > threshold {
                    c.hashed_dirs.insert(dir);
                } else if count < threshold / 2 {
                    c.hashed_dirs.remove(&dir);
                }
            }
        }
        // Balancer accounting: load per delegation root.
        if let Some(sub) = c.partition.as_subtree() {
            let root = sub.subtree_root_of(&c.ns, target);
            *c.subtree_ops.entry(root).or_insert(0) += 1;
        }
        c.op_counts[kind as usize] += 1;
    }
}
