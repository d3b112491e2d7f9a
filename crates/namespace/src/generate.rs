//! Deterministic synthetic namespace snapshots.
//!
//! The paper runs its simulations against "snapshots of actual file
//! systems … a large collection of home directories" (§5.2). This module
//! generates statistically similar snapshots: a `/home` tree with one
//! subtree per user plus a few shared project trees, with geometric nesting
//! depth and skewed files-per-directory counts. Generation is fully
//! deterministic in the seed, so every experiment is reproducible.

use dynmds_event::SimRng;

use crate::ids::InodeId;
use crate::inode::Permissions;
use crate::tree::Namespace;

/// Parameters of a synthetic snapshot.
#[derive(Clone, Debug)]
pub struct NamespaceSpec {
    /// Number of user home directories under `/home`.
    pub users: usize,
    /// Mean number of directories (beyond the home itself) per user tree.
    pub mean_dirs_per_user: f64,
    /// Geometric parameter controlling how deep new directories nest;
    /// larger means shallower trees. Must be in `(0, 1]`.
    pub depth_p: f64,
    /// Mean number of files per directory (sampled per directory).
    pub mean_files_per_dir: f64,
    /// Number of shared top-level project trees (`/proj0`, `/proj1`, …),
    /// each shaped like a user tree but world-readable.
    pub shared_trees: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NamespaceSpec {
    fn default() -> Self {
        NamespaceSpec {
            users: 100,
            mean_dirs_per_user: 10.0,
            depth_p: 0.4,
            mean_files_per_dir: 8.0,
            shared_trees: 4,
            seed: 1,
        }
    }
}

impl NamespaceSpec {
    /// Builds a spec that generates approximately `target_items` total
    /// metadata items spread over `users` home trees. The approximation
    /// solves `users * (1 + dirs) * (1 + files)` for the per-user knobs.
    pub fn with_target_items(users: usize, target_items: u64, seed: u64) -> Self {
        let users = users.max(1);
        let per_user = (target_items as f64 / users as f64).max(4.0);
        // Keep files-per-dir around the default and let directory count
        // absorb the scale, matching how real home collections grow.
        let files_per_dir = 8.0f64;
        let dirs = (per_user / (1.0 + files_per_dir)).max(1.0);
        NamespaceSpec {
            users,
            mean_dirs_per_user: dirs,
            depth_p: 0.4,
            mean_files_per_dir: files_per_dir,
            shared_trees: (users / 25).clamp(1, 8),
            seed,
        }
    }

    /// Generates the snapshot: every user tree in order, then every
    /// shared tree ([`StreamingGenerator::generate_all`]).
    pub fn generate(&self) -> Snapshot {
        StreamingGenerator::new(self.clone()).generate_all()
    }
}

/// Expands one user/project tree in place.
fn grow_tree(
    ns: &mut Namespace,
    rng: &mut SimRng,
    tree_root: InodeId,
    uid: u32,
    spec: &NamespaceSpec,
    shared: bool,
) {
    // Directory skeleton: each new directory nests under a recent directory
    // with geometric depth preference, which yields the long-tailed depth
    // distribution of real home trees.
    let n_dirs = sample_count(rng, spec.mean_dirs_per_user);
    let mut dirs = vec![tree_root];
    for d in 0..n_dirs {
        // Walk down from the tree root a geometric number of steps through
        // already-created directories.
        let mut parent = tree_root;
        let steps = rng.geometric(spec.depth_p);
        for _ in 0..steps {
            // Prefer recently created dirs: bias toward the back half.
            let lo = dirs.len() / 2;
            let idx = rng.range(lo as u64, dirs.len() as u64) as usize;
            parent = dirs[idx];
        }
        let name = format!("d{d:03}");
        let perm = if shared { Permissions::directory(0) } else { Permissions::directory(uid) };
        if let Ok(id) = ns.mkdir(parent, &name, perm) {
            dirs.push(id);
        }
    }

    // Files: per-directory count sampled around the mean; shared trees are
    // world-readable, user trees mostly private with some shared files.
    for (i, &dir) in dirs.iter().enumerate() {
        let n_files = sample_count(rng, spec.mean_files_per_dir);
        for f in 0..n_files {
            let name = format!("f{i:03}_{f:03}");
            let perm = if shared || rng.chance(0.3) {
                Permissions::shared(uid)
            } else {
                Permissions::private(uid)
            };
            let id = ns.create_file(dir, &name, perm).expect("unique name");
            // Long-tailed file sizes: most small, some huge.
            let size = (rng.exponential(64.0 * 1024.0)) as u64;
            ns.update_inode(id, |ino| ino.size = size).expect("just created");
        }
    }
}

/// Samples a non-negative count with the given mean (exponential rounding;
/// long-tailed like observed files-per-directory distributions).
fn sample_count(rng: &mut SimRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    rng.exponential(mean).round() as usize
}

/// Replays exactly the RNG draws of [`grow_tree`] without building the
/// tree, returning the number of items it would create (directories plus
/// files, excluding the tree root itself). Must stay in lock-step with
/// `grow_tree`: any draw added there must be consumed here too.
fn count_tree(rng: &mut SimRng, spec: &NamespaceSpec, shared: bool) -> u64 {
    let n_dirs = sample_count(rng, spec.mean_dirs_per_user);
    let mut len = 1u64; // `dirs` vector length in grow_tree
    for _ in 0..n_dirs {
        let steps = rng.geometric(spec.depth_p);
        for _ in 0..steps {
            let lo = len / 2;
            let _ = rng.range(lo, len);
        }
        len += 1; // tree-unique names mean mkdir always succeeds
    }
    let mut files = 0u64;
    for _ in 0..len {
        let n_files = sample_count(rng, spec.mean_files_per_dir);
        for _ in 0..n_files {
            if !shared {
                let _ = rng.chance(0.3);
            }
            let _ = rng.exponential(64.0 * 1024.0);
        }
        files += n_files as u64;
    }
    n_dirs as u64 + files
}

/// Streaming snapshot generator: the one deterministic tree
/// [`NamespaceSpec::generate`] builds, materialized subtree-by-subtree on
/// demand.
///
/// At the scale tier a 10⁸-inode snapshot cannot be built eagerly; but a
/// simulated client population only ever *touches* the subtrees its
/// working sets live in. The streaming generator banks one fork seed per
/// user/shared tree up front and then grows each subtree only when asked.
/// Untouched users cost 8 bytes of banked seed;
/// [`logical_items`](Self::logical_items) still reports the full logical
/// namespace size by replaying counts from the seeds without allocating
/// nodes.
///
/// Materializing users `0..n` in ascending order followed by shared trees
/// `0..m` is the full snapshot, with its id assignment;
/// [`generate_all`](Self::generate_all) does precisely that, and
/// [`NamespaceSpec::generate`] calls it. Out-of-order materialization
/// yields isomorphic subtrees with different ids — fine within a run, as
/// long as every rerun materializes in the same order.
pub struct StreamingGenerator {
    spec: NamespaceSpec,
    ns: Namespace,
    home: InodeId,
    user_seeds: Vec<u64>,
    shared_seeds: Vec<u64>,
    user_homes: Vec<Option<InodeId>>,
    shared_roots: Vec<Option<InodeId>>,
}

impl StreamingGenerator {
    /// Sets up `/` and `/home` and banks every subtree seed. No user or
    /// shared tree is materialized yet.
    pub fn new(spec: NamespaceSpec) -> Self {
        assert!(spec.users > 0, "at least one user tree required");
        assert!(spec.depth_p > 0.0 && spec.depth_p <= 1.0, "depth_p must be in (0, 1]");
        let mut rng = SimRng::seed_from_u64(spec.seed);
        let mut ns = Namespace::new();
        let root = ns.root();
        let home = ns.mkdir(root, "home", Permissions::directory(0)).expect("fresh tree");
        // Bank fork seeds: every user tree's, then every shared tree's.
        let user_seeds: Vec<u64> = (0..spec.users).map(|u| rng.fork_seed(u as u64)).collect();
        let shared_seeds: Vec<u64> =
            (0..spec.shared_trees).map(|s| rng.fork_seed(0x5000 + s as u64)).collect();
        let user_homes = vec![None; spec.users];
        let shared_roots = vec![None; spec.shared_trees];
        StreamingGenerator { spec, ns, home, user_seeds, shared_seeds, user_homes, shared_roots }
    }

    /// The namespace as materialized so far.
    pub fn ns(&self) -> &Namespace {
        &self.ns
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &NamespaceSpec {
        &self.spec
    }

    /// Materializes user `u`'s home tree (idempotent) and returns its
    /// home directory.
    pub fn materialize_user(&mut self, u: usize) -> InodeId {
        if let Some(h) = self.user_homes[u] {
            return h;
        }
        let uid = u as u32 + 1;
        let name = format!("user{u:04}");
        let h = self.ns.mkdir(self.home, &name, Permissions::directory(uid)).expect("unique name");
        let mut sub = SimRng::seed_from_u64(self.user_seeds[u]);
        grow_tree(&mut self.ns, &mut sub, h, uid, &self.spec, false);
        self.user_homes[u] = Some(h);
        h
    }

    /// Materializes shared tree `s` (idempotent) and returns its root.
    pub fn materialize_shared(&mut self, s: usize) -> InodeId {
        if let Some(p) = self.shared_roots[s] {
            return p;
        }
        let name = format!("proj{s}");
        let p = self.ns.mkdir(self.ns.root(), &name, Permissions::directory(0)).expect("unique");
        let mut sub = SimRng::seed_from_u64(self.shared_seeds[s]);
        grow_tree(&mut self.ns, &mut sub, p, 0, &self.spec, true);
        self.shared_roots[s] = Some(p);
        p
    }

    /// Items user `u`'s tree holds (home dir included), whether or not it
    /// is materialized — a pure count replay of the banked seed.
    pub fn user_items(&self, u: usize) -> u64 {
        let mut rng = SimRng::seed_from_u64(self.user_seeds[u]);
        1 + count_tree(&mut rng, &self.spec, false)
    }

    /// Items shared tree `s` holds (its root included).
    pub fn shared_items(&self, s: usize) -> u64 {
        let mut rng = SimRng::seed_from_u64(self.shared_seeds[s]);
        1 + count_tree(&mut rng, &self.spec, true)
    }

    /// Total items of the *logical* namespace — what
    /// [`NamespaceSpec::generate`] would materialize — regardless of how
    /// much has actually been built. O(users) count replays; call once
    /// and cache at large scale.
    pub fn logical_items(&self) -> u64 {
        let users: u64 = (0..self.spec.users).map(|u| self.user_items(u)).sum();
        let shared: u64 = (0..self.spec.shared_trees).map(|s| self.shared_items(s)).sum();
        2 + users + shared // root + /home
    }

    /// Materializes every user tree in order, then every shared tree, and
    /// returns the full snapshot.
    pub fn generate_all(mut self) -> Snapshot {
        for u in 0..self.spec.users {
            self.materialize_user(u);
        }
        for s in 0..self.spec.shared_trees {
            self.materialize_shared(s);
        }
        self.into_snapshot()
    }

    /// Converts the partially materialized namespace into a [`Snapshot`].
    /// `user_homes`/`shared_roots` contain only materialized trees, in
    /// ascending user/tree order.
    pub fn into_snapshot(self) -> Snapshot {
        Snapshot {
            ns: self.ns,
            user_homes: self.user_homes.into_iter().flatten().collect(),
            shared_roots: self.shared_roots.into_iter().flatten().collect(),
        }
    }
}

/// A generated snapshot: the namespace plus the roots the workload
/// generators anchor client locality to.
pub struct Snapshot {
    /// The file-system tree.
    pub ns: Namespace,
    /// One home directory per user, index = user.
    pub user_homes: Vec<InodeId>,
    /// Shared project trees.
    pub shared_roots: Vec<InodeId>,
}

impl Snapshot {
    /// Summary statistics, used by experiment logs and tests.
    pub fn stats(&self) -> SnapshotStats {
        let ns = &self.ns;
        let mut max_depth = 0usize;
        let mut total_depth = 0u64;
        let mut files = 0u64;
        let mut dirs = 0u64;
        for id in ns.live_ids() {
            let d = ns.depth(id).expect("live");
            max_depth = max_depth.max(d);
            total_depth += d as u64;
            if ns.is_dir(id) {
                dirs += 1;
            } else {
                files += 1;
            }
        }
        let total = files + dirs;
        SnapshotStats {
            files,
            dirs,
            total,
            max_depth,
            mean_depth: if total > 0 { total_depth as f64 / total as f64 } else { 0.0 },
            mean_files_per_dir: if dirs > 0 { files as f64 / dirs as f64 } else { 0.0 },
        }
    }
}

/// Aggregate shape of a snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotStats {
    /// Live regular files.
    pub files: u64,
    /// Live directories.
    pub dirs: u64,
    /// Total live items.
    pub total: u64,
    /// Deepest entry.
    pub max_depth: usize,
    /// Mean depth over all entries.
    pub mean_depth: f64,
    /// Files per directory on average.
    pub mean_files_per_dir: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = NamespaceSpec { users: 10, seed: 7, ..Default::default() };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.ns.total_items(), b.ns.total_items());
        let pa: Vec<String> = a.ns.walk(a.ns.root()).map(|i| a.ns.path_of(i).unwrap()).collect();
        let pb: Vec<String> = b.ns.walk(b.ns.root()).map(|i| b.ns.path_of(i).unwrap()).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = NamespaceSpec { users: 10, seed: 1, ..Default::default() }.generate();
        let b = NamespaceSpec { users: 10, seed: 2, ..Default::default() }.generate();
        assert_ne!(a.ns.total_items(), b.ns.total_items());
    }

    #[test]
    fn one_home_per_user() {
        let snap = NamespaceSpec { users: 25, seed: 3, ..Default::default() }.generate();
        assert_eq!(snap.user_homes.len(), 25);
        for (u, &h) in snap.user_homes.iter().enumerate() {
            let path = snap.ns.path_of(h).unwrap();
            assert_eq!(path, format!("/home/user{u:04}"));
            assert_eq!(snap.ns.inode(h).unwrap().perm.uid, u as u32 + 1);
        }
    }

    #[test]
    fn shared_trees_exist_and_are_world_readable() {
        let spec = NamespaceSpec { users: 10, shared_trees: 3, seed: 5, ..Default::default() };
        let snap = spec.generate();
        assert_eq!(snap.shared_roots.len(), 3);
        for &p in &snap.shared_roots {
            assert!(snap.ns.is_dir(p));
            assert!(snap.ns.inode(p).unwrap().perm.allows_traverse(999));
        }
    }

    #[test]
    fn target_items_is_roughly_met() {
        for target in [2_000u64, 10_000, 40_000] {
            let spec = NamespaceSpec::with_target_items(50, target, 11);
            let snap = spec.generate();
            let total = snap.ns.total_items();
            let lo = target / 2;
            let hi = target * 2;
            assert!((lo..hi).contains(&total), "target {target} produced {total}");
        }
    }

    #[test]
    fn stats_are_consistent_with_tree() {
        let snap = NamespaceSpec { users: 20, seed: 9, ..Default::default() }.generate();
        let st = snap.stats();
        assert_eq!(st.total, snap.ns.total_items());
        assert_eq!(st.files, snap.ns.num_files());
        assert_eq!(st.dirs, snap.ns.num_dirs());
        assert!(st.max_depth >= 2, "home trees nest below /home/userX");
        assert!(st.mean_depth > 1.0);
        assert!(st.mean_files_per_dir > 0.0);
    }

    #[test]
    fn trees_have_depth_variation() {
        let snap =
            NamespaceSpec { users: 30, mean_dirs_per_user: 20.0, seed: 13, ..Default::default() }
                .generate();
        let st = snap.stats();
        assert!(st.max_depth > 3, "expected nesting, got max depth {}", st.max_depth);
    }

    /// FNV-1a over every live id's parent, name, file type, permissions
    /// and size, read through the public API.
    fn shape_digest(ns: &Namespace) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for id in ns.live_ids() {
            let ino = ns.inode(id).unwrap();
            feed(&id.0.to_le_bytes());
            feed(&ns.parent(id).unwrap().map_or(u64::MAX, |p| p.0).to_le_bytes());
            feed(ns.name(id).unwrap().as_bytes());
            feed(&[0xff, ino.ftype as u8]);
            feed(&ino.perm.uid.to_le_bytes());
            feed(&ino.perm.mode.to_le_bytes());
            feed(&ino.size.to_le_bytes());
        }
        h
    }

    #[test]
    fn generated_shape_is_pinned() {
        for (seed, want) in
            [(1u64, 0x47ab_18b1_f7d9_3f5b), (7, 0xfca4_e414_6849_a6ae), (99, 0xcd9b_1f59_50a0_fb50)]
        {
            let spec = NamespaceSpec { users: 12, shared_trees: 3, seed, ..Default::default() };
            let snap = spec.generate();
            assert_eq!(shape_digest(&snap.ns), want, "seed {seed}");
        }
    }

    #[test]
    fn logical_items_matches_materialized_total() {
        let spec = NamespaceSpec { users: 9, shared_trees: 2, seed: 31, ..Default::default() };
        let gen = StreamingGenerator::new(spec.clone());
        let logical = gen.logical_items();
        let snap = gen.generate_all();
        assert_eq!(logical, snap.ns.total_items());
        assert_eq!(logical, spec.generate().ns.total_items());
    }

    #[test]
    fn unmaterialized_users_cost_no_nodes() {
        let spec = NamespaceSpec::with_target_items(10_000, 500_000, 5);
        let mut gen = StreamingGenerator::new(spec);
        // Only / and /home exist before anyone asks for a subtree.
        assert_eq!(gen.ns().total_items(), 2);
        let before = gen.ns().heap_bytes();
        let h = gen.materialize_user(4242);
        assert!(gen.ns().total_items() > 2);
        assert_eq!(gen.ns().path_of(h).unwrap(), "/home/user4242");
        // Idempotent: second call adds nothing.
        let items = gen.ns().total_items();
        assert_eq!(gen.materialize_user(4242), h);
        assert_eq!(gen.ns().total_items(), items);
        // Cost scales with what was materialized, not with spec.users.
        let after = gen.ns().heap_bytes();
        assert!(after > before);
        assert_eq!(items - 2, gen.user_items(4242), "count replay matches real subtree");
    }

    #[test]
    fn out_of_order_materialization_is_isomorphic() {
        let spec = NamespaceSpec { users: 6, shared_trees: 1, seed: 77, ..Default::default() };
        let mut fwd = StreamingGenerator::new(spec.clone());
        let mut rev = StreamingGenerator::new(spec);
        for u in 0..6 {
            fwd.materialize_user(u);
            rev.materialize_user(5 - u);
        }
        for u in 0..6 {
            let (a, b) = (fwd.materialize_user(u), rev.materialize_user(u));
            assert_eq!(fwd.ns().subtree_count(a).unwrap(), rev.ns().subtree_count(b).unwrap());
            let pa: Vec<String> = fwd.ns().walk(a).map(|i| fwd.ns().path_of(i).unwrap()).collect();
            let pb: Vec<String> = rev.ns().walk(b).map(|i| rev.ns().path_of(i).unwrap()).collect();
            assert_eq!(pa, pb, "same user tree regardless of build order");
        }
    }

    #[test]
    fn user_files_are_owned_by_user() {
        let snap = NamespaceSpec { users: 5, seed: 17, ..Default::default() }.generate();
        let home0 = snap.user_homes[0];
        for id in snap.ns.walk(home0) {
            assert_eq!(snap.ns.inode(id).unwrap().perm.uid, 1);
        }
    }
}
