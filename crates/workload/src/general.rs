//! General-purpose workload generator.
//!
//! Each client owns a *region* of the hierarchy (its home directory) and a
//! current working directory inside it. Operations follow the configured
//! [`OpMix`]; sequences the trace literature highlights are generated as
//! sequences (`open`→`close`, `readdir`→`stat` burst); a small fraction of
//! operations stray outside the region, which is what makes prefix caching
//! and replication matter.

use std::collections::VecDeque;

use dynmds_event::{SimRng, SimTime};
use dynmds_namespace::{ClientId, InodeId, Namespace};

use crate::ops::{Op, OpKind, OpMix};
use crate::Workload;

/// Tunables for [`GeneralWorkload`].
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Probability an operation targets the client's own region.
    pub locality: f64,
    /// Probability a local read targets a file in the *current working
    /// directory* rather than anywhere in the region — the directory
    /// locality of Floyd & Ellis that embedded-inode prefetching exploits.
    pub dir_affinity: f64,
    /// Probability of changing the working directory before an operation.
    pub navigate_prob: f64,
    /// `readdir` is followed by this many `stat`s (inclusive range),
    /// capped by directory size.
    pub readdir_stats: (usize, usize),
    /// Fraction of renames that move a whole directory (the expensive case
    /// for path-hashed strategies).
    pub dir_rename_fraction: f64,
    /// Fraction of chmods that hit a directory (the expensive case for
    /// Lazy Hybrid).
    pub dir_chmod_fraction: f64,
    /// Operation mix for all clients (individual clients may be overridden
    /// via [`GeneralWorkload::relocate`]).
    pub mix: OpMix,
    /// Seed for all per-client streams.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            locality: 0.9,
            dir_affinity: 0.75,
            navigate_prob: 0.15,
            readdir_stats: (3, 10),
            dir_rename_fraction: 0.1,
            dir_chmod_fraction: 0.15,
            mix: OpMix::general(),
            seed: 42,
        }
    }
}

struct ClientState {
    region: InodeId,
    cwd: InodeId,
    uid: u32,
    mix: OpMix,
    rng: SimRng,
    pending: VecDeque<Op>,
    create_seq: u64,
    /// Cached directories inside the region; refreshed when stale.
    region_dirs: Vec<InodeId>,
}

/// The general-purpose generator. See module docs.
pub struct GeneralWorkload {
    cfg: WorkloadConfig,
    clients: Vec<ClientState>,
    /// All region roots, used for non-local targeting.
    regions: Vec<InodeId>,
}

impl GeneralWorkload {
    /// Creates a workload of `n_clients` clients. `regions` are candidate
    /// home regions (typically one per user, from the snapshot); client
    /// `i` works in `regions[i % regions.len()]`. `shared` trees join the
    /// foreign-target candidate set.
    pub fn new(
        cfg: WorkloadConfig,
        n_clients: usize,
        regions: &[InodeId],
        shared: &[InodeId],
        ns: &Namespace,
    ) -> Self {
        assert!(!regions.is_empty(), "need at least one region");
        assert!(n_clients > 0, "need at least one client");
        let mut root_rng = SimRng::seed_from_u64(cfg.seed);
        let clients = (0..n_clients)
            .map(|i| {
                let region = regions[i % regions.len()];
                let uid = ns.inode(region).map(|ino| ino.perm.uid).unwrap_or(0);
                ClientState {
                    region,
                    cwd: region,
                    uid,
                    mix: cfg.mix,
                    rng: root_rng.fork(i as u64),
                    pending: VecDeque::new(),
                    create_seq: 0,
                    region_dirs: Vec::new(),
                }
            })
            .collect();
        let mut all_regions: Vec<InodeId> = regions.to_vec();
        all_regions.extend_from_slice(shared);
        GeneralWorkload { cfg, clients, regions: all_regions }
    }

    /// The uid a client authenticates as.
    pub fn uid_of(&self, client: ClientId) -> u32 {
        self.clients[client.index()].uid
    }

    /// Moves a client to a new region with a new mix — the Figure 5
    /// migration ("clients change their local region of activity and
    /// create new files").
    pub fn relocate(&mut self, client: ClientId, region: InodeId, mix: OpMix) {
        let c = &mut self.clients[client.index()];
        c.region = region;
        c.cwd = region;
        c.mix = mix;
        c.region_dirs.clear();
        c.pending.clear();
    }

    /// Current region of a client.
    pub fn region_of(&self, client: ClientId) -> InodeId {
        self.clients[client.index()].region
    }

    fn refresh_region_dirs(ns: &Namespace, c: &mut ClientState) {
        c.region_dirs.clear();
        // Cap the sweep: huge regions keep a sample of their dirs.
        for id in ns.walk(c.region).take(512) {
            if ns.is_dir(id) {
                c.region_dirs.push(id);
            }
        }
        if c.region_dirs.is_empty() {
            c.region_dirs.push(c.region);
        }
    }

    /// A short random walk from `root` toward the leaves; returns a file
    /// when one is hit (or `fallback_dir` behaviour: the deepest directory
    /// reached).
    fn random_walk(ns: &Namespace, rng: &mut SimRng, root: InodeId, want_file: bool) -> InodeId {
        // Count-then-select keeps this allocation-free: the walk runs for
        // a large share of generated ops, and materialising each level's
        // child list dominated workload-generation cost. The RNG stream
        // is identical to the collect-into-a-Vec formulation.
        let mut cur = root;
        for _ in 0..8 {
            let n_kids = match ns.child_count(cur) {
                Ok(n) => n,
                Err(_) => return cur,
            };
            if n_kids == 0 {
                return cur;
            }
            let i = rng.below(n_kids as u64) as usize;
            let pick = ns.child_at(cur, i).expect("counted above").1;
            if !ns.is_dir(pick) {
                if want_file {
                    return pick;
                }
                // Want a directory: try again among dir children only.
                let dirs =
                    || ns.children_syms(cur).expect("counted above").filter(|&(_, k)| ns.is_dir(k));
                let n_dirs = dirs().count();
                if n_dirs == 0 {
                    return cur;
                }
                let j = rng.below(n_dirs as u64) as usize;
                cur = dirs().nth(j).expect("index < dir count").1;
            } else {
                // Descend, sometimes stopping here.
                if !want_file && rng.chance(0.35) {
                    return pick;
                }
                cur = pick;
            }
        }
        cur
    }

    /// A random file in `dir`, if any, as its dentry's name symbol (a
    /// hard link keeps the name it has in `dir`) and its id. Allocates
    /// nothing; only callers that need the name resolve the symbol.
    fn random_file_in(ns: &Namespace, rng: &mut SimRng, dir: InodeId) -> Option<(u32, InodeId)> {
        let files = || ns.children_syms(dir).map(|it| it.filter(|&(_, c)| !ns.is_dir(c)));
        let n_files = files().ok()?.count();
        if n_files == 0 {
            return None;
        }
        let i = rng.below(n_files as u64) as usize;
        Some(files().ok()?.nth(i).expect("index < file count"))
    }

    fn generate(&mut self, ns: &Namespace, client: ClientId) -> Op {
        let c = &mut self.clients[client.index()];

        // Drain pending sequence ops first, skipping stale targets.
        while let Some(op) = c.pending.pop_front() {
            if ns.is_alive(op.target()) {
                return op;
            }
        }

        // Keep the client's view of its region fresh.
        if !ns.is_alive(c.cwd) || !ns.is_dir(c.cwd) {
            c.cwd = c.region;
        }
        if c.region_dirs.is_empty() || c.rng.chance(0.01) {
            Self::refresh_region_dirs(ns, c);
        }

        // Occasionally move the working directory within the region.
        if c.rng.chance(self.cfg.navigate_prob) {
            let i = c.rng.below(c.region_dirs.len() as u64) as usize;
            let cand = c.region_dirs[i];
            if ns.is_alive(cand) && ns.is_dir(cand) {
                c.cwd = cand;
            }
        }

        // Pick the base of this operation: local cwd or a foreign region.
        let local = c.rng.chance(self.cfg.locality);
        let base = if local {
            c.cwd
        } else {
            let i = c.rng.below(self.regions.len() as u64) as usize;
            self.regions[i]
        };
        let base = if ns.is_alive(base) { base } else { c.region };

        let kind = c.mix.sample(&mut c.rng);
        match kind {
            OpKind::Stat | OpKind::SetAttr | OpKind::Open => {
                // Directory locality: local reads mostly stay in the cwd.
                let affine = local && c.rng.chance(self.cfg.dir_affinity);
                let target = if affine {
                    match Self::random_file_in(ns, &mut c.rng, c.cwd) {
                        Some((_, id)) => id,
                        None => Self::random_walk(ns, &mut c.rng, base, true),
                    }
                } else {
                    Self::random_walk(ns, &mut c.rng, base, true)
                };
                match kind {
                    OpKind::Open => {
                        c.pending.push_back(Op::Close(target));
                        Op::Open(target)
                    }
                    OpKind::SetAttr => Op::SetAttr(target),
                    _ => Op::Stat(target),
                }
            }
            OpKind::Readdir => {
                let dir = if ns.is_dir(base) {
                    base
                } else {
                    ns.parent(base).ok().flatten().unwrap_or(c.region)
                };
                // readdir → burst of stats over the entries (§2.2).
                let (lo, hi) = self.cfg.readdir_stats;
                let want = c.rng.range(lo as u64, hi as u64 + 1) as usize;
                if let Ok(kids) = ns.children_syms(dir) {
                    c.pending.extend(kids.take(want).map(|(_, k)| Op::Stat(k)));
                }
                Op::Readdir(dir)
            }
            OpKind::Create | OpKind::Mkdir => {
                let dir = if ns.is_dir(base) { base } else { c.cwd };
                let dir = if ns.is_dir(dir) { dir } else { c.region };
                c.create_seq += 1;
                let name = format!("c{}_{}", client.0, c.create_seq);
                if kind == OpKind::Create {
                    Op::Create { dir, name }
                } else {
                    Op::Mkdir { dir, name }
                }
            }
            OpKind::Unlink => match Self::random_file_in(ns, &mut c.rng, c.cwd) {
                Some((sym, _)) => Op::Unlink { dir: c.cwd, name: ns.resolve_sym(sym).to_string() },
                None => Op::Readdir(c.cwd),
            },
            OpKind::Rename => {
                if c.rng.chance(self.cfg.dir_rename_fraction) {
                    // Move a directory within the region: pick a non-region
                    // dir and rename it in place.
                    let i = c.rng.below(c.region_dirs.len() as u64) as usize;
                    let dir = c.region_dirs[i];
                    if dir != c.region && ns.is_alive(dir) {
                        if let (Ok(Some(parent)), Ok(name)) = (ns.parent(dir), ns.name(dir)) {
                            c.create_seq += 1;
                            return Op::Rename {
                                dir: parent,
                                name: name.to_string(),
                                new_name: format!("mv{}_{}", client.0, c.create_seq),
                            };
                        }
                    }
                }
                match Self::random_file_in(ns, &mut c.rng, c.cwd) {
                    Some((sym, _)) => {
                        c.create_seq += 1;
                        Op::Rename {
                            dir: c.cwd,
                            name: ns.resolve_sym(sym).to_string(),
                            new_name: format!("mv{}_{}", client.0, c.create_seq),
                        }
                    }
                    None => Op::Readdir(c.cwd),
                }
            }
            OpKind::Chmod => {
                if c.rng.chance(self.cfg.dir_chmod_fraction) {
                    Op::Chmod { target: c.cwd, mode: 0o750 }
                } else {
                    match Self::random_file_in(ns, &mut c.rng, c.cwd) {
                        Some((_, id)) => Op::Chmod { target: id, mode: 0o640 },
                        None => Op::Chmod { target: c.cwd, mode: 0o750 },
                    }
                }
            }
            OpKind::Link => {
                // Link a random region file into the cwd under a fresh
                // name; falls back to a stat when nothing suits.
                let target = Self::random_walk(ns, &mut c.rng, c.region, true);
                if ns.is_alive(target) && !ns.is_dir(target) && ns.is_dir(c.cwd) {
                    c.create_seq += 1;
                    Op::Link {
                        target,
                        dir: c.cwd,
                        name: format!("ln{}_{}", client.0, c.create_seq),
                    }
                } else {
                    Op::Stat(target)
                }
            }
            OpKind::Close => unreachable!("close never initiates"),
            OpKind::Lookup => unreachable!("lookup is not in any mix"),
        }
    }
}

impl Workload for GeneralWorkload {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, _now: SimTime) -> Op {
        self.generate(ns, client)
    }

    fn clients(&self) -> usize {
        self.clients.len()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        self.clients[client.index()].uid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpKind;
    use dynmds_namespace::NamespaceSpec;
    use std::collections::HashMap;

    fn setup(n_clients: usize) -> (Namespace, GeneralWorkload) {
        let snap = NamespaceSpec { users: 10, seed: 5, ..Default::default() }.generate();
        let wl = GeneralWorkload::new(
            WorkloadConfig::default(),
            n_clients,
            &snap.user_homes,
            &snap.shared_roots,
            &snap.ns,
        );
        (snap.ns, wl)
    }

    #[test]
    fn generates_valid_targets() {
        let (ns, mut wl) = setup(4);
        for i in 0..400 {
            let op = wl.next_op(&ns, ClientId(i % 4), SimTime::ZERO);
            assert!(ns.is_alive(op.target()), "op {op:?} targets dead inode");
        }
    }

    #[test]
    fn open_is_followed_by_close_of_same_file() {
        let (ns, mut wl) = setup(1);
        let mut last_open: Option<InodeId> = None;
        let mut pairs = 0;
        for _ in 0..2000 {
            let op = wl.next_op(&ns, ClientId(0), SimTime::ZERO);
            match op {
                Op::Open(f) => last_open = Some(f),
                Op::Close(f) => {
                    assert_eq!(Some(f), last_open, "close must match the open");
                    pairs += 1;
                    last_open = None;
                }
                _ => {}
            }
        }
        assert!(pairs > 50, "open/close pairs should be frequent, got {pairs}");
    }

    #[test]
    fn readdir_triggers_stat_burst() {
        let (ns, mut wl) = setup(1);
        let mut bursts = 0;
        let mut i = 0;
        let ops: Vec<Op> = (0..3000).map(|_| wl.next_op(&ns, ClientId(0), SimTime::ZERO)).collect();
        while i < ops.len() {
            if let Op::Readdir(dir) = &ops[i] {
                // Count immediately following stats of that dir's children.
                let mut stats = 0;
                let mut j = i + 1;
                while j < ops.len() {
                    if let Op::Stat(s) = ops[j] {
                        if ns.parent(s).ok().flatten() == Some(*dir) {
                            stats += 1;
                            j += 1;
                            continue;
                        }
                    }
                    break;
                }
                if stats >= 1 {
                    bursts += 1;
                }
                i = j;
            } else {
                i += 1;
            }
        }
        assert!(bursts > 10, "readdir→stat bursts expected, got {bursts}");
    }

    #[test]
    fn mix_is_respected() {
        let (ns, mut wl) = setup(2);
        let mut counts: HashMap<OpKind, usize> = HashMap::new();
        for i in 0..20_000 {
            let op = wl.next_op(&ns, ClientId(i % 2), SimTime::ZERO);
            *counts.entry(op.kind()).or_insert(0) += 1;
        }
        assert!(counts[&OpKind::Stat] > counts[&OpKind::Create]);
        assert!(counts[&OpKind::Open] > 1000);
        assert!(counts.get(&OpKind::Rename).copied().unwrap_or(0) < 1000);
    }

    #[test]
    fn locality_keeps_most_ops_in_region() {
        let (ns, mut wl) = setup(4);
        let mut local = 0;
        let mut total = 0;
        for i in 0..4000u32 {
            let client = ClientId(i % 4);
            let region = wl.region_of(client);
            let op = wl.next_op(&ns, client, SimTime::ZERO);
            let t = op.target();
            if t == region || ns.is_ancestor(region, t) {
                local += 1;
            }
            total += 1;
        }
        let frac = local as f64 / total as f64;
        assert!(frac > 0.7, "expected mostly-local ops, got {frac}");
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let (ns, mut a) = setup(3);
        let (_, mut b) = setup(3);
        for i in 0..500 {
            let c = ClientId(i % 3);
            assert_eq!(a.next_op(&ns, c, SimTime::ZERO), b.next_op(&ns, c, SimTime::ZERO));
        }
    }

    #[test]
    fn relocate_switches_region_and_mix() {
        let (ns, mut wl) = setup(2);
        let snap_regions: Vec<InodeId> = (0..2).map(|i| wl.region_of(ClientId(i))).collect();
        let new_region = snap_regions[1];
        wl.relocate(ClientId(0), new_region, OpMix::create_heavy());
        assert_eq!(wl.region_of(ClientId(0)), new_region);
        let creates = (0..1000)
            .filter(|_| {
                matches!(
                    wl.next_op(&ns, ClientId(0), SimTime::ZERO).kind(),
                    OpKind::Create | OpKind::Mkdir
                )
            })
            .count();
        assert!(creates > 300, "create-heavy after relocation, got {creates}");
    }

    #[test]
    fn hard_links_are_named_by_their_own_dentry() {
        use dynmds_namespace::Permissions;
        let mut ns = Namespace::new();
        let perm = Permissions::shared(1);
        let a = ns.mkdir(ns.root(), "a", perm).unwrap();
        let b = ns.mkdir(ns.root(), "b", perm).unwrap();
        let orig = ns.create_file(a, "orig", perm).unwrap();
        ns.link(orig, b, "alias").unwrap();
        let only = |unlink, rename| OpMix {
            stat: 0.0,
            open: 0.0,
            readdir: 0.0,
            create: 0.0,
            mkdir: 0.0,
            unlink,
            rename,
            chmod: 0.0,
            setattr: 0.0,
            link: 0.0,
        };
        let cfg =
            WorkloadConfig { navigate_prob: 0.0, dir_rename_fraction: 0.0, ..Default::default() };
        let mut wl = GeneralWorkload::new(cfg, 1, &[b], &[], &ns);
        wl.relocate(ClientId(0), b, only(1.0, 0.0));
        for _ in 0..20 {
            match wl.next_op(&ns, ClientId(0), SimTime::ZERO) {
                Op::Unlink { dir, name } => assert_eq!((dir, name.as_str()), (b, "alias")),
                op => assert_eq!(op.kind(), OpKind::Readdir, "{op:?}"),
            }
        }
        wl.relocate(ClientId(0), b, only(0.0, 1.0));
        for _ in 0..20 {
            match wl.next_op(&ns, ClientId(0), SimTime::ZERO) {
                Op::Rename { dir, name, .. } => assert_eq!((dir, name.as_str()), (b, "alias")),
                op => assert_eq!(op.kind(), OpKind::Readdir, "{op:?}"),
            }
        }
    }

    #[test]
    fn clients_count() {
        let (_, wl) = setup(7);
        assert_eq!(wl.clients(), 7);
    }

    #[test]
    fn uid_matches_region_owner() {
        let (ns, wl) = setup(3);
        for i in 0..3 {
            let c = ClientId(i);
            let region = wl.region_of(c);
            assert_eq!(wl.uid_of(c), ns.inode(region).unwrap().perm.uid);
        }
    }
}
