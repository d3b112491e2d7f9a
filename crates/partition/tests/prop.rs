//! Property tests: placement functions stay total, consistent, and
//! hierarchy-respecting under random namespaces and random delegation
//! programs.

use dynmds_namespace::{InodeId, MdsId, NamespaceSpec};
use dynmds_partition::{
    HashGranularity, HashPartition, LazyHybrid, StrategyKind, SubtreePartition,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Authority is total and in-range for every live item, for every
    /// strategy, on any generated namespace, and the filled table holds
    /// the rule's from-scratch answer for every id and one past the bound.
    #[test]
    fn authority_total_and_in_range(seed in 0u64..500, n_mds in 1u16..32) {
        let snap = NamespaceSpec { users: 6, seed, ..Default::default() }.generate();
        for kind in StrategyKind::ALL {
            let part = dynmds_partition::Partition::initial(kind, &snap.ns, n_mds);
            for id in snap.ns.live_ids() {
                let m = part.authority(id);
                prop_assert!(m.index() < n_mds as usize, "{kind}: {m} out of range");
            }
            for id in (0..=snap.ns.id_bound()).map(InodeId) {
                prop_assert_eq!(part.authority(id), part.recompute(&snap.ns, id), "{} {}", kind, id);
            }
        }
    }

    /// Random delegation programs keep subtree authority consistent with
    /// the nearest-enclosing-delegation rule.
    #[test]
    fn subtree_delegation_rule_holds(
        seed in 0u64..200,
        ops in prop::collection::vec((any::<usize>(), 0u16..8, any::<bool>()), 1..60),
    ) {
        let snap = NamespaceSpec { users: 4, seed, ..Default::default() }.generate();
        let ns = snap.ns;
        let dirs: Vec<InodeId> = ns.live_ids().filter(|&i| ns.is_dir(i)).collect();
        let mut part = SubtreePartition::new(ns.root(), MdsId(0));

        for &(pick, mds, remove) in &ops {
            let d = dirs[pick % dirs.len()];
            if remove {
                part.undelegate(d);
            } else {
                part.delegate(d, MdsId(mds));
            }
        }

        // Root delegation survives everything.
        prop_assert!(part.delegation_of(ns.root()).is_some());

        for id in ns.live_ids() {
            let expected = {
                // Reference implementation: nearest enclosing delegation.
                let mut cur = Some(id);
                let mut found = None;
                while let Some(c) = cur {
                    if let Some(m) = part.delegation_of(c) {
                        found = Some(m);
                        break;
                    }
                    cur = ns.parent(c).unwrap();
                }
                found.expect("root always delegated")
            };
            prop_assert_eq!(part.authority(&ns, id), expected);
            // The reported subtree root governs the item.
            let root = part.subtree_root_of(&ns, id);
            prop_assert!(root == id || ns.is_ancestor(root, id) );
            prop_assert_eq!(part.delegation_of(root).unwrap_or(MdsId(0)), expected);
        }

        // Partition sizes cover the namespace exactly once.
        let sizes = part.partition_sizes(&ns, 8);
        prop_assert_eq!(sizes.iter().sum::<u64>(), ns.total_items());
    }

    /// Directory hashing keeps every directory's children together, on
    /// any namespace.
    #[test]
    fn dir_hash_colocates_every_family(seed in 0u64..200, n in 1u16..24) {
        let snap = NamespaceSpec { users: 4, seed, ..Default::default() }.generate();
        let ns = snap.ns;
        let p = HashPartition::new(n, HashGranularity::Directory);
        for dir in ns.live_ids().filter(|&i| ns.is_dir(i)) {
            let home = p.authority(&ns, dir);
            for (_, child) in ns.children(dir).unwrap() {
                if !ns.is_dir(child) {
                    prop_assert_eq!(p.authority(&ns, child), home);
                }
            }
        }
    }

    /// Lazy Hybrid: applying pending updates is idempotent, and every
    /// event on an ancestor is seen exactly once per item.
    #[test]
    fn lazy_hybrid_applies_each_event_once(
        seed in 0u64..200,
        events in prop::collection::vec((any::<usize>(), any::<bool>()), 1..30),
    ) {
        let snap = NamespaceSpec { users: 4, seed, ..Default::default() }.generate();
        let ns = snap.ns;
        let dirs: Vec<InodeId> = ns.live_ids().filter(|&i| ns.is_dir(i)).collect();
        let files: Vec<InodeId> = ns.live_ids().filter(|&i| !ns.is_dir(i)).collect();
        prop_assume!(!files.is_empty());

        let mut lh = LazyHybrid::new(8);
        for &(pick, perm) in &events {
            let d = dirs[pick % dirs.len()];
            if perm {
                lh.on_dir_permission_change(d);
            } else {
                lh.on_dir_move(d);
            }
        }

        let file = files[seed as usize % files.len()];
        // Ground truth: count events on strict ancestors.
        let expected: u64 = events
            .iter()
            .map(|&(pick, _)| dirs[pick % dirs.len()])
            .filter(|&d| ns.is_ancestor(d, file))
            .count() as u64;
        let applied = lh.apply_pending(&ns, file);
        prop_assert_eq!(applied.total(), expected);
        // Idempotent: a second access sees nothing.
        prop_assert_eq!(lh.apply_pending(&ns, file).total(), 0);
        prop_assert_eq!(lh.lifetime_stats().total(), expected);
    }
}
