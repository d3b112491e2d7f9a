//! Heartbeat load balancing (§4.3, §5.1).
//!
//! "Periodically the MDS nodes exchange heartbeat messages that include a
//! description of their current load level. At that point busy nodes can
//! identify portions of the hierarchy that are appropriately popular and
//! initiate a double-commit transaction to transfer authority to non-busy
//! nodes."
//!
//! The load metric is deliberately the paper's *primitive* one — "a
//! weighted combination of node throughput and cache misses" — because
//! §5.3.2's observation (balancing is not always a win for total
//! throughput) is part of what the experiments reproduce. A busy node
//! sheds subtrees to the least-loaded node, re-delegating whole imported
//! trees before carving up its own workload, and transfers the cached
//! state with them so the importer avoids re-reading from disk.

use dynmds_cache::InsertKind;
use dynmds_event::SimTime;
use dynmds_namespace::{InodeId, MdsId};

use crate::cluster::Cluster;
use crate::config::{IMBALANCE_RATIO, MAX_MIGRATIONS_PER_HEARTBEAT, MIGRATE_PER_ITEM, MISS_WEIGHT};

impl Cluster {
    /// One heartbeat round: refresh traffic-control state, update the
    /// smoothed load estimates, then, for the dynamic strategy, rebalance.
    /// Window counters reset afterwards.
    pub(crate) fn heartbeat(&mut self, now: SimTime) {
        self.flush_shared_writes(now);
        if !self.proxies.is_empty() {
            self.flush_proxy_writes(now);
        }
        self.traffic_sweep(now);
        // Exponentially smoothed per-node load; raw windows are too noisy
        // to migrate on.
        let n = self.nodes.len();
        for i in 0..n {
            let raw = self.hb_served[i] as f64 + MISS_WEIGHT * self.hb_misses[i] as f64;
            self.hb_ewma[i] = 0.5 * self.hb_ewma[i] + 0.5 * raw;
        }
        // Dead nodes serve nothing; folding their stale EWMA into the mean
        // would skew the gate every live node's busy_streak depends on.
        let mean = self.live_load_mean();
        for i in 0..n {
            if mean >= 1.0 && self.alive[i] && self.hb_ewma[i] > IMBALANCE_RATIO * mean {
                self.busy_streak[i] += 1;
            } else {
                self.busy_streak[i] = 0;
            }
        }
        if self.cfg.balancing && self.cfg.strategy.rebalances() {
            self.rebalance(now);
            self.consolidate_partition(now);
        }
        for v in self.hb_served.iter_mut().chain(self.hb_misses.iter_mut()) {
            *v = 0;
        }
        self.subtree_ops.clear();
    }

    /// Mean smoothed load over *live* nodes only (the balancing gate).
    /// With every node alive this sums the same elements in the same
    /// order as a plain mean, so fault-free runs are bit-identical.
    pub(crate) fn live_load_mean(&self) -> f64 {
        let mut sum = 0.0;
        let mut live = 0u32;
        for i in 0..self.nodes.len() {
            if self.alive[i] {
                sum += self.hb_ewma[i];
                live += 1;
            }
        }
        if live == 0 {
            0.0
        } else {
            sum / live as f64
        }
    }

    fn rebalance(&mut self, now: SimTime) {
        let n = self.nodes.len();
        if n < 2 {
            return;
        }
        let mut loads: Vec<f64> = self.hb_ewma.clone();
        let mean = self.live_load_mean();
        if mean < 1.0 {
            return; // idle cluster, nothing to balance
        }

        // Busiest first.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| loads[b].partial_cmp(&loads[a]).expect("finite"));

        let mut budget = MAX_MIGRATIONS_PER_HEARTBEAT;
        for &busy in &order {
            if budget == 0 {
                break;
            }
            if loads[busy] <= IMBALANCE_RATIO * mean {
                break; // remaining nodes are within bounds
            }
            // A crashed node can carry residual EWMA for a few windows;
            // it must never be picked as a migration *source* (its
            // delegations and cached state are already gone).
            if !self.alive[busy] {
                continue;
            }
            // Persistence: act only on sustained overload, not one noisy
            // window.
            if self.busy_streak[busy] < 2 {
                continue;
            }
            let excess = loads[busy] - mean;

            // Candidate subtrees this node could shed, hottest usable
            // first: previously imported trees are re-delegated whole
            // before the node carves up its own delegation.
            let owned = match self.partition.as_subtree() {
                Some(sub) => sub.delegations_of(MdsId(busy as u16)),
                None => return,
            };
            let imported = &self.imported[busy];
            // A recently moved subtree stays put for a few heartbeats —
            // without hysteresis the balancer chases its own migrations
            // and clients never stop rediscovering metadata.
            let cooldown = self.cfg.heartbeat.saturating_mul(3);
            let mut candidates: Vec<(bool, u64, InodeId)> = owned
                .iter()
                .filter(|&&d| d != self.ns.root())
                .filter(|&&d| {
                    self.last_migrated
                        .get(&d)
                        .map(|&t| now.saturating_since(t) >= cooldown)
                        .unwrap_or(true)
                })
                .map(|&d| {
                    let ops = self.subtree_ops.get(&d).copied().unwrap_or(0);
                    (imported.contains(&d), ops, d)
                })
                .filter(|&(_, ops, _)| {
                    // Big enough to matter, small enough not to just move
                    // the hotspot.
                    (ops as f64) >= (excess * 0.05).max(1.0) && (ops as f64) <= excess * 1.25
                })
                .collect();
            // Imported first, then hottest.
            candidates.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));

            // If the node's load sits in one delegation too hot to hand
            // over whole, split it: its child directories become new
            // delegation points (still owned here), so the next heartbeat
            // can move a *portion* of the workload — "a busy node will …
            // delegat[e] subtrees of its workload to other nodes" (§4.3).
            let mut shed = 0.0;
            for (_, ops, root) in candidates {
                if shed >= excess * 0.5 || budget == 0 {
                    break;
                }
                // Destination: currently least-loaded node.
                let Some((target, tload)) = loads
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != busy && self.alive[j])
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(j, &l)| (j, l))
                else {
                    break; // no live destination
                };
                // Don't create a new hotspot; a smaller candidate may
                // still fit.
                if tload + ops as f64 > IMBALANCE_RATIO * mean {
                    continue;
                }
                self.migrate_subtree(now, root, MdsId(busy as u16), MdsId(target as u16));
                budget -= 1;
                loads[busy] -= ops as f64;
                loads[target] += ops as f64;
                shed += ops as f64;
            }

            // Nothing movable (no candidates, or every candidate would
            // itself become a hotspot): refine the partition so the next
            // heartbeat has smaller pieces to work with.
            if shed == 0.0 {
                self.split_hottest_delegation(now, busy, excess);
            }
        }
    }

    /// Splits the busiest delegation of node `busy` into per-child
    /// delegation points (all still assigned to `busy`). No state moves;
    /// this only refines the partition so subsequent heartbeats can
    /// migrate a fraction of the hot subtree.
    fn split_hottest_delegation(&mut self, now: SimTime, busy: usize, excess: f64) {
        let owned = match self.partition.as_subtree() {
            Some(sub) => sub.delegations_of(MdsId(busy as u16)),
            None => return,
        };
        let hottest = owned
            .into_iter()
            .map(|d| (self.subtree_ops.get(&d).copied().unwrap_or(0), d))
            .filter(|&(ops, _)| ops as f64 > excess * 0.5)
            .max_by_key(|&(ops, d)| (ops, d));
        let Some((_, root)) = hottest else { return };
        let children: Vec<InodeId> = match self.ns.children(root) {
            Ok(it) => it.map(|(_, c)| c).filter(|&c| self.ns.is_dir(c)).collect(),
            Err(_) => return,
        };
        if children.is_empty() {
            return;
        }
        let mut created = Vec::new();
        for c in children {
            if self.partition.as_subtree().expect("subtree strategy").delegation_of(c).is_none() {
                self.partition.delegate(&self.ns, c, MdsId(busy as u16));
                created.push(c);
            }
        }
        self.obs.on_delegation_split(created.len() as u64);
        // Protect fresh splits from immediate consolidation so the next
        // heartbeats can migrate them.
        for c in created {
            self.split_at.insert(c, now);
        }
    }

    /// Merges away redundant delegation points: a delegation whose nearest
    /// enclosing delegation lives on the same node adds client-routing
    /// churn and prefix-pinning overhead for nothing — "this helps keep
    /// the overall partition as simple as possible" (§4.3). Fresh splits
    /// and recently migrated subtrees are left alone.
    pub(crate) fn consolidate_partition(&mut self, now: SimTime) {
        let cooldown = self.cfg.heartbeat.saturating_mul(3);
        let Some(sub) = self.partition.as_subtree() else { return };
        let root = self.ns.root();
        let mut points: Vec<(InodeId, MdsId)> = sub.delegations().collect();
        points.sort_by_key(|&(d, _)| d);
        let mut to_merge: Vec<InodeId> = Vec::new();
        for (d, owner) in points {
            if d == root {
                continue;
            }
            let recently = |map: &dynmds_namespace::FxHashMap<InodeId, SimTime>| {
                map.get(&d).map(|&t| now.saturating_since(t) < cooldown).unwrap_or(false)
            };
            if recently(&self.last_migrated) || recently(&self.split_at) {
                continue;
            }
            // Nearest enclosing delegation point's owner.
            let enclosing = self.ns.ancestors(d).find_map(|a| sub.delegation_of(a));
            if enclosing == Some(owner) {
                to_merge.push(d);
            }
        }
        if to_merge.is_empty() {
            return;
        }
        self.obs.on_delegation_merge(to_merge.len() as u64);
        for d in to_merge {
            self.partition.undelegate(&self.ns, d);
            self.split_at.remove(&d);
            self.last_migrated.remove(&d);
            for imp in &mut self.imported {
                imp.retain(|&x| x != d);
            }
        }
    }

    /// Transfers authority for the subtree rooted at `root` from `from`
    /// to `to`, moving cached state with it ("all active state and cached
    /// metadata are transferred … to avoid the disk I/O that would
    /// otherwise be required"). (Public within the crate for tests.)
    pub(crate) fn migrate_subtree(&mut self, now: SimTime, root: InodeId, from: MdsId, to: MdsId) {
        if self.partition.as_subtree().is_none() {
            return;
        }
        self.partition.delegate(&self.ns, root, to);
        if let Some(log) = &mut self.migration_log {
            log.push(crate::cluster::MigrationRecord {
                at: now,
                root,
                from,
                to,
                from_alive: self.alive[from.index()],
                to_alive: self.alive[to.index()],
            });
        }
        self.imported[from.index()].retain(|&d| d != root);
        self.imported[to.index()].push(root);
        self.last_migrated.insert(root, now);
        self.migrations += 1;
        self.obs.on_migration();
        self.nodes[from.index()].life.subtrees_out += 1;
        self.nodes[to.index()].life.subtrees_in += 1;

        // Collect the exporter's cached state under the subtree. Sorted:
        // cache iteration order is arbitrary, and the import order below
        // must be reproducible.
        let mut moved: Vec<InodeId> = self.nodes[from.index()]
            .cache
            .iter_ids()
            .filter(|&id| id == root || self.ns.is_ancestor(root, id))
            .collect();
        moved.sort();

        // Both ends pay CPU proportional to the state moved (the
        // double-commit exchange).
        let cost = MIGRATE_PER_ITEM.saturating_mul(moved.len() as u64 + 1);
        self.nodes[from.index()].occupy(now, cost);
        self.nodes[to.index()].occupy(now, cost);

        self.nodes[from.index()].cache.remove_set(&moved);

        // The importer anchors the subtree with the prefix inodes leading
        // to it (§4.3: "the authority must cache the containing directory
        // (prefix) inodes for each of its subtrees") …
        let mut anchor_chain: Vec<InodeId> = self.ns.ancestors(root).collect();
        anchor_chain.reverse();
        let ti = to.index();
        for anc in anchor_chain {
            let parent =
                self.ns.parent(anc).ok().flatten().filter(|p| self.nodes[ti].cache.peek(*p));
            self.nodes[ti].cache.insert(anc, parent, InsertKind::Prefix);
        }
        // … then receives the migrated items, parents before children.
        let mut ordered = moved;
        ordered.sort_by_key(|&id| (self.ns.depth(id).unwrap_or(usize::MAX), id));
        for id in ordered {
            if !self.ns.is_alive(id) {
                continue;
            }
            let parent =
                self.ns.parent(id).ok().flatten().filter(|p| self.nodes[ti].cache.peek(*p));
            let kind = if self.ns.is_dir(id) { InsertKind::Prefix } else { InsertKind::Target };
            self.nodes[ti].cache.insert(id, parent, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use dynmds_cache::InsertKind;
    use dynmds_event::SimTime;
    use dynmds_namespace::MdsId;
    use dynmds_partition::StrategyKind;

    use crate::testutil::tiny_cluster;

    #[test]
    fn migrate_subtree_moves_delegation_and_cached_state() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let home = c.ns.resolve("/home/user0000").unwrap();
        let sub = c.partition.as_subtree().unwrap();
        let from = sub.authority(&c.ns, home);
        let to = MdsId((from.0 + 1) % 4);
        // Cache some of the subtree at the exporter.
        let file = c.ns.walk(home).find(|&i| !c.ns.is_dir(i)).unwrap();
        let mut chain: Vec<_> = c.ns.ancestors(file).collect();
        chain.reverse();
        for anc in chain {
            let parent = c.ns.parent(anc).unwrap().filter(|p| c.nodes[from.index()].cache.peek(*p));
            c.nodes[from.index()].cache.insert(anc, parent, InsertKind::Prefix);
        }
        let parent = c.ns.parent(file).unwrap();
        c.nodes[from.index()].cache.insert(file, parent, InsertKind::Target);

        c.migrate_subtree(SimTime::from_secs(1), home, from, to);

        let sub = c.partition.as_subtree().unwrap();
        assert_eq!(sub.authority(&c.ns, file), to, "authority moved");
        assert!(!c.nodes[from.index()].cache.peek(file), "exporter dropped state");
        assert!(c.nodes[to.index()].cache.peek(file), "importer received state");
        assert!(c.nodes[to.index()].cache.peek(home), "subtree root anchored");
        assert_eq!(c.migrations, 1);
        assert_eq!(c.nodes[from.index()].life.subtrees_out, 1);
        assert_eq!(c.nodes[to.index()].life.subtrees_in, 1);
        assert!(c.imported[to.index()].contains(&home));
        c.nodes[from.index()].cache.check_integrity();
        c.nodes[to.index()].cache.check_integrity();
    }

    #[test]
    fn heartbeat_without_load_never_migrates() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let before = c.partition.as_subtree().unwrap().delegation_count();
        c.heartbeat(SimTime::from_secs(5));
        c.heartbeat(SimTime::from_secs(10));
        assert_eq!(c.migrations, 0);
        // Consolidation may simplify the initial partition, never grow it.
        assert!(c.partition.as_subtree().unwrap().delegation_count() <= before);
    }

    #[test]
    fn sustained_skew_triggers_migration_but_noise_does_not() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let home = c.ns.resolve("/home/user0000").unwrap();
        // A spread of files under the hot home; attribution follows the
        // current delegation points, as serve() does.
        let files: Vec<_> = c.ns.walk(home).filter(|&i| !c.ns.is_dir(i)).take(24).collect();
        assert!(files.len() >= 4, "need a few files");
        let busy = c.partition.as_subtree().unwrap().authority(&c.ns, home);
        let credit = |c: &mut crate::cluster::Cluster| {
            c.hb_served[busy.index()] = 10_000;
            for &f in &files {
                let root = c.partition.as_subtree().unwrap().subtree_root_of(&c.ns, f);
                *c.subtree_ops.entry(root).or_insert(0) += 10_000 / files.len() as u64;
            }
        };
        // One noisy window: no migration (persistence check).
        credit(&mut c);
        c.heartbeat(SimTime::from_secs(5));
        assert_eq!(c.migrations, 0, "single spike must not migrate");
        // Sustained over further heartbeats: migration happens.
        for k in 2..8 {
            credit(&mut c);
            c.heartbeat(SimTime::from_secs(5 * k));
            if c.migrations > 0 {
                break;
            }
        }
        assert!(c.migrations > 0, "sustained overload must migrate");
    }

    #[test]
    fn crashed_node_is_never_chosen_as_migration_source() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let dead = MdsId(1);
        c.fail_node(SimTime::from_secs(1), dead);
        // Reconstruct the hazard the liveness check guards against: a
        // delegation that still names the dead node (a heartbeat racing
        // the crash) plus residual load figures that make it "busiest".
        let home = c.ns.resolve("/home/user0000").unwrap();
        c.partition.delegate(&c.ns, home, dead);
        c.hb_ewma[dead.index()] = 100_000.0;
        c.busy_streak[dead.index()] = 5;
        c.hb_ewma[0] = 30_000.0;
        c.hb_ewma[2] = 1_000.0;
        c.hb_ewma[3] = 1_000.0;
        c.subtree_ops.insert(home, 10_000);

        c.rebalance(SimTime::from_secs(5));

        assert_eq!(c.migrations, 0, "dead exporter must be skipped");
        assert_eq!(c.nodes[dead.index()].life.subtrees_out, 0);
        assert_eq!(
            c.partition.as_subtree().unwrap().delegation_of(home),
            Some(dead),
            "nothing is 'migrated' off a node that no longer serves"
        );
    }

    #[test]
    fn stale_dead_load_does_not_skew_streaks_or_the_mean() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.fail_node(SimTime::from_secs(1), MdsId(3));
        // Residual figure, as if the fail-path zeroing were missed.
        c.hb_ewma[3] = 1_000_000.0;
        c.hb_served[0] = 4_000; // node 0 genuinely overloaded; 1, 2 idle
        c.heartbeat(SimTime::from_secs(5));
        assert_eq!(c.busy_streak[3], 0, "a dead node builds no streak");
        assert!(c.busy_streak[0] >= 1, "live overload detected despite dead residue");
        c.hb_ewma[3] = 50_000.0;
        for i in [0usize, 1, 2] {
            c.hb_ewma[i] = 12.0;
        }
        assert_eq!(c.live_load_mean(), 12.0, "mean covers live nodes only");
    }

    #[test]
    fn consolidation_merges_same_owner_fragments() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        // Reach steady state first (the initial partition itself may hold
        // same-owner fragments).
        c.consolidate_partition(SimTime::from_secs(100));
        let home = c.ns.resolve("/home/user0000").unwrap();
        let owner = c.partition.as_subtree().unwrap().authority(&c.ns, home);
        let child =
            c.ns.children(home)
                .unwrap()
                .map(|(_, i)| i)
                .find(|&i| c.ns.is_dir(i))
                .expect("home has subdirs");
        c.partition.delegate(&c.ns, child, owner);
        let before = c.partition.as_subtree().unwrap().delegation_count();
        c.consolidate_partition(SimTime::from_secs(200));
        let sub = c.partition.as_subtree().unwrap();
        assert_eq!(sub.delegation_count(), before - 1, "fragment merged");
        assert_eq!(sub.delegation_of(child), None);
        assert_eq!(sub.authority(&c.ns, child), owner, "authority unchanged");
    }

    #[test]
    fn consolidation_spares_cross_owner_and_fresh_splits() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.consolidate_partition(SimTime::from_secs(100));
        // Find a home with at least two subdirectories.
        let homes: Vec<_> =
            (0..8).map(|u| c.ns.resolve(&format!("/home/user{u:04}")).unwrap()).collect();
        let (home, dir_list) = homes
            .iter()
            .find_map(|&h| {
                let dirs: Vec<_> =
                    c.ns.children(h).unwrap().map(|(_, i)| i).filter(|&i| c.ns.is_dir(i)).collect();
                (dirs.len() >= 2).then_some((h, dirs))
            })
            .expect("some home has two subdirs");
        let owner = c.partition.as_subtree().unwrap().authority(&c.ns, home);
        let other = MdsId((owner.0 + 1) % 4);
        let cross = dir_list[0];
        let fresh = dir_list[1];
        c.partition.delegate(&c.ns, cross, other);
        // Fresh split fragment (same owner) protected by split_at.
        c.partition.delegate(&c.ns, fresh, owner);
        c.split_at.insert(fresh, SimTime::from_secs(199));
        c.consolidate_partition(SimTime::from_secs(200));
        assert!(
            c.partition.as_subtree().unwrap().delegation_of(fresh).is_some(),
            "fresh split survives consolidation"
        );
        assert_eq!(
            c.partition.as_subtree().unwrap().delegation_of(cross),
            Some(other),
            "cross-owner delegation survives"
        );
    }
}
