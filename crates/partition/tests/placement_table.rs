//! Property test: [`Partition`]'s owner table agrees with a naive
//! from-scratch reference, for all five strategies, across long
//! randomized histories of creations, cross-directory and in-place
//! renames of files and directories, hard links (a second one in the
//! same directory included), unlinks (one that promotes a surviving link
//! included), delegations and undelegations. The partition is driven
//! only through its hooks, as the engines drive it. The reference is
//! reimplemented here — a delegation walk over a shadow copy of the
//! delegation table, or a hash of a path string — so a missed repaint
//! cannot hide in shared code. After every step every id below the id
//! bound, tombstones included, and one id past it are compared.

use std::collections::HashMap;

use dynmds_namespace::{InodeId, MdsId, Namespace, Permissions};
use dynmds_partition::{path_hash, Partition, StrategyKind};

/// The table is shared by the sharded engine's worker threads, so no
/// interior mutability may come back.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Partition>();
};

/// Splitmix64: small, seedable, good enough to drive a fuzz schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, v: &[T]) -> Option<T> {
        if v.is_empty() {
            None
        } else {
            Some(v[self.below(v.len())])
        }
    }
}

/// The nearest-enclosing-delegation walk over the shadow table.
fn naive_subtree_root(dels: &HashMap<InodeId, MdsId>, ns: &Namespace, id: InodeId) -> InodeId {
    if dels.contains_key(&id) {
        return id;
    }
    ns.ancestors(id).find(|a| dels.contains_key(a)).unwrap_or(ns.root())
}

/// What `kind` should answer for `id`, from scratch.
fn naive_authority(
    kind: StrategyKind,
    dels: &HashMap<InodeId, MdsId>,
    ns: &Namespace,
    n: u16,
    id: InodeId,
) -> MdsId {
    let hash_of = |key: InodeId| path_hash(&ns.path_of(key).unwrap_or_else(|_| "/".into()), n);
    match kind {
        StrategyKind::DirHash if !ns.is_dir(id) => {
            hash_of(ns.parent(id).ok().flatten().unwrap_or(id))
        }
        StrategyKind::DirHash | StrategyKind::FileHash | StrategyKind::LazyHybrid => hash_of(id),
        _ => dels[&naive_subtree_root(dels, ns, id)],
    }
}

/// The names in `dir`, in name order.
fn names_in(ns: &Namespace, dir: InodeId) -> Vec<String> {
    ns.children(dir).map(|it| it.map(|(n, _)| n.to_string()).collect()).unwrap_or_default()
}

/// Runs `steps` random mutations against `kind`'s partition, checking the
/// whole table after each.
fn check_history(kind: StrategyKind, seed: u64, steps: usize) {
    const N_MDS: u16 = 8;
    let mut rng = Rng(seed);
    let mut ns = Namespace::new();
    let root = ns.root();
    let mut name_seq = 0u64;
    let mut fresh = |prefix: &str| {
        name_seq += 1;
        format!("{prefix}{name_seq}")
    };
    // Every directory ever created, live or dead: delegations may name a
    // tombstone, as a failover may hand on a deleted delegation point.
    let mut dir_ids = vec![root];
    // A small tree two levels deep, so the subtree strategies' initial
    // partition has delegation points to start from.
    for _ in 0..6 {
        let d = ns.mkdir(root, &fresh("seed"), Permissions::directory(1)).unwrap();
        let e = ns.mkdir(d, &fresh("seed"), Permissions::directory(1)).unwrap();
        dir_ids.extend([d, e]);
    }
    let mut part = Partition::initial(kind, &ns, N_MDS);
    // Shadow of the delegation table, mutated in lockstep with `part`.
    let mut shadow: HashMap<InodeId, MdsId> =
        part.as_subtree().map(|s| s.delegations().collect()).unwrap_or_default();

    for step in 0..steps {
        let dirs: Vec<InodeId> = dir_ids.iter().copied().filter(|&d| ns.is_alive(d)).collect();
        let files: Vec<InodeId> =
            (0..ns.id_bound()).map(InodeId).filter(|&i| ns.is_alive(i) && !ns.is_dir(i)).collect();
        let what = rng.below(12);
        match what {
            // Grow: a new directory or file under a random live dir.
            0..=2 => {
                let parent = rng.pick(&dirs).unwrap();
                let name = fresh("n");
                let made = if rng.below(2) == 0 {
                    ns.mkdir(parent, &name, Permissions::directory(1))
                } else {
                    ns.create_file(parent, &name, Permissions::shared(1))
                };
                if let Ok(id) = made {
                    if ns.is_dir(id) {
                        dir_ids.push(id);
                    }
                    part.refresh(&ns, id);
                }
            }
            // Delegate any directory ever made, the root and tombstones
            // included (subtree strategies only).
            3 | 4 if part.as_subtree().is_some() => {
                let dir = rng.pick(&dir_ids).unwrap();
                let mds = MdsId(rng.below(N_MDS as usize) as u16);
                part.delegate(&ns, dir, mds);
                shadow.insert(dir, mds);
            }
            // Undelegate a random delegation point.
            5 if part.as_subtree().is_some() => {
                let mut points: Vec<InodeId> = shadow.keys().copied().collect();
                points.sort();
                let dir = rng.pick(&points).unwrap();
                if part.undelegate(&ns, dir).is_some() {
                    shadow.remove(&dir);
                }
            }
            // Rename a random entry, file or directory, primary or not:
            // into another directory, or in place. Errors (cycles, the
            // root) are part of the space.
            3..=7 => {
                let from = rng.pick(&dirs).unwrap();
                let names = names_in(&ns, from);
                if let Some(name) = names.get(rng.below(names.len())) {
                    let to = if what.is_multiple_of(2) { rng.pick(&dirs).unwrap() } else { from };
                    if let Ok(id) = ns.rename(from, name, to, &fresh("r")) {
                        part.refresh(&ns, id);
                    }
                }
            }
            // Hard-link a random file into a random directory, or beside
            // its primary dentry. A link moves no answer: no hook.
            8 | 9 => {
                if let Some(f) = rng.pick(&files) {
                    let dir = if what == 8 {
                        rng.pick(&dirs).unwrap()
                    } else {
                        ns.parent(f).unwrap().unwrap()
                    };
                    let _ = ns.link(f, dir, &fresh("l"));
                }
            }
            // Unlink a random dentry (files, links, or empty dirs).
            10 => {
                let dir = rng.pick(&dirs).unwrap();
                let names = names_in(&ns, dir);
                if let Some(name) = names.get(rng.below(names.len())) {
                    if let Ok(id) = ns.unlink(dir, name) {
                        part.refresh(&ns, id);
                    }
                }
            }
            // Unlink the primary dentry of a multiply-linked file, so a
            // surviving link is promoted.
            _ => {
                let linked: Vec<InodeId> = files
                    .iter()
                    .copied()
                    .filter(|&f| ns.inode(f).map(|i| i.nlink > 1).unwrap_or(false))
                    .collect();
                if let Some(f) = rng.pick(&linked) {
                    let dir = ns.parent(f).unwrap().unwrap();
                    let name = ns.name(f).unwrap().to_string();
                    let id = ns.unlink(dir, &name).unwrap();
                    assert!(ns.is_alive(id), "a surviving link keeps {id} alive");
                    part.refresh(&ns, id);
                }
            }
        }

        for id in (0..=ns.id_bound()).map(InodeId) {
            assert_eq!(
                part.authority(id),
                naive_authority(kind, &shadow, &ns, N_MDS, id),
                "{kind}: authority of {id} diverged at step {step} (arm {what})"
            );
            if let Some(sub) = part.as_subtree() {
                assert_eq!(
                    sub.subtree_root_of(&ns, id),
                    naive_subtree_root(&shadow, &ns, id),
                    "{kind}: subtree root of {id} diverged at step {step}"
                );
            }
        }
    }
    assert!(ns.id_bound() > 300, "{kind}: the schedule should have grown a real tree");
}

#[test]
fn table_matches_naive_reference_for_every_strategy() {
    for (i, kind) in StrategyKind::ALL.into_iter().enumerate() {
        check_history(kind, 0xD1CE_D00D_5EED_0001 ^ i as u64, 2_000);
    }
}
