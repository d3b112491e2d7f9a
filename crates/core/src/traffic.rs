//! Traffic control for flash crowds (§4.4).
//!
//! The authority watches decayed popularity counters; when an item's
//! counter crosses the replication threshold, the item (and the prefix
//! chain needed to reach it) is pushed to every node, and replies start
//! advertising "this lives everywhere". Because clients route by deepest
//! known prefix, the cluster "can effectively bound the number of nodes
//! believing any particular file … is located in any one place".
//!
//! Items that cool back down are de-replicated during the heartbeat
//! sweep, returning routing to the single authority.

use dynmds_event::SimTime;
use dynmds_namespace::InodeId;

use crate::cluster::Cluster;
use crate::serve::Peers;

impl Cluster {
    /// Heartbeat push of outstanding write deltas to the authorities:
    /// replica-absorbed shared writes ("replicas serving concurrent
    /// writers can periodically send their most recent value to the
    /// authority", §4.2) and proxy-coalesced writes, merged alike. One
    /// message per dirty (holder, item) pair.
    pub(crate) fn flush_writes(&mut self, now: SimTime) {
        if self.dirty_shared.is_empty() && self.proxy_dirty.is_empty() {
            return;
        }
        let mut dirty: Vec<InodeId> = self.dirty_shared.union(&self.proxy_dirty).copied().collect();
        dirty.sort();
        let msg = self.cfg.costs.cpu_forward;
        for id in dirty {
            let auth = self.live_authority(self.authority_of(id));
            self.with_peers(auth.index(), |node, peers| {
                let contributors = peers.gather(now, node, id);
                if contributors > 0 {
                    node.occupy(now, msg.saturating_mul(contributors as u64));
                }
            });
        }
    }

    /// De-replicates items whose popularity at their authority has decayed
    /// well below the threshold.
    pub(crate) fn traffic_sweep(&mut self, now: SimTime) {
        if self.replicated.is_empty() {
            return;
        }
        let cutoff = self.cfg.replication_threshold * 0.25;
        let cooled: Vec<InodeId> = self
            .replicated
            .iter()
            .copied()
            .filter(|&id| {
                let auth = self.live_authority(self.authority_of(id));
                let node = &self.nodes[auth.index()];
                let pop = node.popularity.value(now, id);
                if pop < cutoff {
                    return true; // cold
                }
                // Write-hot items de-replicate unless shared writes make
                // replica-side absorption profitable (files only).
                let write_hot = node.update_popularity.value(now, id) > 0.25 * pop;
                let absorbable = self.cfg.shared_writes && !self.ns.is_dir(id);
                write_hot && !absorbable
            })
            .collect();
        self.counters.dereplications += cooled.len() as u64;
        for id in cooled {
            self.replicated.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use dynmds_event::SimTime;
    use dynmds_partition::StrategyKind;

    use crate::serve::Peers;
    use crate::testutil::tiny_cluster;

    #[test]
    fn replicate_installs_item_and_prefixes_on_all_live_nodes() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let file =
            c.ns.resolve("/home")
                .map(|h| c.ns.walk(h).find(|&i| !c.ns.is_dir(i)).expect("a file"))
                .unwrap();
        c.with_peers(0, |node, peers| peers.replicate(SimTime::from_secs(1), node, file));
        assert!(c.replicated.contains(&file));
        assert_eq!(c.replicated.len(), 1);
        for node in &c.nodes {
            assert!(node.cache.peek(file), "{} missing the replica", node.id);
            // The whole prefix chain is present so the replica can serve
            // path traversal locally.
            for anc in c.ns.ancestors(file) {
                assert!(node.cache.peek(anc), "{} missing prefix {anc}", node.id);
            }
            node.cache.check_integrity();
        }
    }

    #[test]
    fn sweep_dereplicates_cold_items() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let file = c.ns.walk(c.ns.root()).find(|&i| !c.ns.is_dir(i)).unwrap();
        // Make it hot at its authority, replicate, then let it cool.
        let auth = c.authority_of(file);
        for _ in 0..100 {
            c.nodes[auth.index()].popularity.record(SimTime::from_secs(1), file);
        }
        c.with_peers(0, |node, peers| peers.replicate(SimTime::from_secs(1), node, file));
        c.traffic_sweep(SimTime::from_secs(2));
        assert!(c.replicated.contains(&file), "still hot: stays replicated");
        // Popularity half-life is 10 s; after 200 s it is ~0.
        c.traffic_sweep(SimTime::from_secs(200));
        assert!(!c.replicated.contains(&file), "cooled: de-replicated");
    }

    #[test]
    fn sweep_dereplicates_write_hot_items() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let file = c.ns.walk(c.ns.root()).find(|&i| !c.ns.is_dir(i)).unwrap();
        let auth = c.authority_of(file);
        for _ in 0..100 {
            c.nodes[auth.index()].popularity.record(SimTime::from_secs(1), file);
        }
        c.with_peers(0, |node, peers| peers.replicate(SimTime::from_secs(1), node, file));
        // Writes take over.
        for _ in 0..50 {
            c.nodes[auth.index()].update_popularity.record(SimTime::from_secs(2), file);
        }
        c.traffic_sweep(SimTime::from_secs(2));
        assert!(!c.replicated.contains(&file), "write-hot items must not stay replicated");
    }

    #[test]
    fn sweep_with_nothing_replicated_is_cheap_noop() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.traffic_sweep(SimTime::from_secs(5));
        assert_eq!(c.replicated.len(), 0);
    }
}
