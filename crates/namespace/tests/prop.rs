//! Property tests: the namespace tree stays structurally sound under
//! arbitrary interleavings of mutation operations.

use dynmds_namespace::{InodeId, Namespace, NamespaceSpec, Permissions};
use proptest::prelude::*;

/// One randomized mutation. Indices are resolved modulo the live-id set at
/// application time, so every generated program is applicable to any tree.
#[derive(Clone, Debug)]
enum Op {
    Mkdir { parent: usize, name: u8 },
    Create { parent: usize, name: u8 },
    Unlink { dir: usize, child: usize },
    Rename { src_dir: usize, child: usize, dst_dir: usize, name: u8 },
    Chmod { target: usize, mode: u16 },
    Link { target: usize, dir: usize, name: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(parent, name)| Op::Mkdir { parent, name }),
        (any::<usize>(), any::<u8>()).prop_map(|(parent, name)| Op::Create { parent, name }),
        (any::<usize>(), any::<usize>()).prop_map(|(dir, child)| Op::Unlink { dir, child }),
        (any::<usize>(), any::<usize>(), any::<usize>(), any::<u8>()).prop_map(
            |(src_dir, child, dst_dir, name)| Op::Rename { src_dir, child, dst_dir, name }
        ),
        (any::<usize>(), any::<u16>()).prop_map(|(target, mode)| Op::Chmod { target, mode }),
        (any::<usize>(), any::<usize>(), any::<u8>()).prop_map(|(target, dir, name)| Op::Link {
            target,
            dir,
            name
        }),
    ]
}

fn live_dirs(ns: &Namespace) -> Vec<InodeId> {
    ns.live_ids().filter(|&id| ns.is_dir(id)).collect()
}

fn live_all(ns: &Namespace) -> Vec<InodeId> {
    ns.live_ids().collect()
}

fn apply(ns: &mut Namespace, op: &Op) {
    let dirs = live_dirs(ns);
    let all = live_all(ns);
    let pick = |v: &[InodeId], i: usize| v[i % v.len()];
    match *op {
        Op::Mkdir { parent, name } => {
            let p = pick(&dirs, parent);
            let _ = ns.mkdir(p, &format!("m{name}"), Permissions::directory(1));
        }
        Op::Create { parent, name } => {
            let p = pick(&dirs, parent);
            let _ = ns.create_file(p, &format!("c{name}"), Permissions::shared(1));
        }
        Op::Unlink { dir, child } => {
            let d = pick(&dirs, dir);
            let names: Vec<String> = match ns.children(d) {
                Ok(it) => it.map(|(n, _)| n.to_string()).collect(),
                Err(_) => return,
            };
            if names.is_empty() {
                return;
            }
            let name = &names[child % names.len()];
            let _ = ns.unlink(d, name);
        }
        Op::Rename { src_dir, child, dst_dir, name } => {
            let s = pick(&dirs, src_dir);
            let t = pick(&dirs, dst_dir);
            let names: Vec<String> = match ns.children(s) {
                Ok(it) => it.map(|(n, _)| n.to_string()).collect(),
                Err(_) => return,
            };
            if names.is_empty() {
                return;
            }
            let old = &names[child % names.len()];
            let _ = ns.rename(s, old, t, &format!("r{name}"));
        }
        Op::Chmod { target, mode } => {
            let t = pick(&all, target);
            let _ = ns.chmod(t, mode);
        }
        Op::Link { target, dir, name } => {
            let t = pick(&all, target);
            let d = pick(&dirs, dir);
            let _ = ns.link(t, d, &format!("l{name}"));
        }
    }
}

/// Invariants every reachable tree state must satisfy.
fn check_invariants(ns: &Namespace) {
    let live: Vec<InodeId> = ns.live_ids().collect();

    // 1. Every live id's primary path resolves back to it.
    for &id in &live {
        let path = ns.path_of(id).expect("live node has a path");
        let back = ns.resolve(&path).expect("path resolves");
        assert_eq!(back, id, "path {path} resolved elsewhere");
    }

    // 2. The walk from the root visits every live directory-reachable node
    //    exactly once (acyclicity + reachability). Hard links mean files
    //    can be visited more than once via extra dentries, so compare on
    //    the dedup'd set.
    let mut visited: Vec<InodeId> = ns.walk(ns.root()).collect();
    visited.sort();
    visited.dedup();
    let mut expected = live.clone();
    expected.sort();
    assert_eq!(visited, expected, "walk must cover exactly the live set");

    // 3. Counts agree.
    let files = live.iter().filter(|&&id| !ns.is_dir(id)).count() as u64;
    let dirs = live.iter().filter(|&&id| ns.is_dir(id)).count() as u64;
    assert_eq!(files, ns.num_files());
    assert_eq!(dirs, ns.num_dirs());

    // 4. Ancestor chains terminate at the root (no cycles).
    for &id in &live {
        let chain: Vec<InodeId> = ns.ancestors(id).collect();
        if id != ns.root() {
            assert_eq!(chain.last().copied(), Some(ns.root()));
        }
        let mut dedup = chain.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), chain.len(), "cycle in ancestor chain of {id}");
    }

    // 5. Depth equals ancestor count.
    for &id in &live {
        assert_eq!(ns.depth(id).unwrap(), ns.ancestors(id).count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_preserve_tree_invariants(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut ns = Namespace::new();
        for op in &ops {
            apply(&mut ns, op);
        }
        check_invariants(&ns);
    }

    #[test]
    fn random_programs_on_generated_snapshot(ops in prop::collection::vec(op_strategy(), 1..60), seed in 0u64..1000) {
        let snap = NamespaceSpec { users: 5, mean_dirs_per_user: 4.0, seed, ..Default::default() }.generate();
        let mut ns = snap.ns;
        for op in &ops {
            apply(&mut ns, op);
        }
        check_invariants(&ns);
    }

    #[test]
    fn subtree_counts_match_walk(seed in 0u64..500) {
        let snap = NamespaceSpec { users: 3, mean_dirs_per_user: 5.0, seed, ..Default::default() }.generate();
        let ns = snap.ns;
        for id in ns.live_ids().filter(|&i| ns.is_dir(i)) {
            let by_count = ns.subtree_count(id).unwrap();
            // walk() follows dentries; under hard links it may repeat file
            // ids, but generated snapshots have none, so these agree.
            let by_walk = ns.walk(id).count() as u64;
            prop_assert_eq!(by_count, by_walk);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any tree state reachable by a mutation program passes the
    /// structural self-check.
    #[test]
    fn random_programs_leave_a_valid_tree(
        ops in prop::collection::vec(op_strategy(), 1..80),
        seed in 0u64..200,
    ) {
        let snap = NamespaceSpec { users: 4, mean_dirs_per_user: 4.0, seed, ..Default::default() }.generate();
        let mut ns = snap.ns;
        for op in &ops {
            apply(&mut ns, op);
        }
        prop_assert_eq!(ns.validate(), Ok(()));
    }
}
