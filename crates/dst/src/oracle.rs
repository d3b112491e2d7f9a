//! The reference-model oracle.
//!
//! A [`RefModel`] is a deliberately *flat* model filesystem: a map of
//! inode attributes plus a dentry multimap, with none of the simulator's
//! partitioning, caching, journaling, or failover machinery. It consumes
//! the cluster's applied-op log (via the
//! [`DstProbe`](dynmds_core::DstProbe) hooks) and mirrors exactly the
//! namespace semantics of `dynmds_namespace::Namespace` —
//! including failure outcomes — so any disagreement between the two is a
//! bug in the simulator's service pipeline, not in the model's guess.
//!
//! An [`Oracle`] owns a model and, at every checkpoint, cross-checks the
//! cluster against it:
//!
//! * **namespace** — live-id sets, types, link counts, modes, owners and
//!   the full dentry map agree; every primary dentry is a real dentry;
//! * **authority** — the placement each strategy *should* compute
//!   (recomputed independently: delegation walk, path hash, or dentry
//!   hash) matches what the cluster's memoized partition answers;
//! * **anchor table** — the table's exact contents (entries, stored
//!   parents, reference counts) equal a from-scratch reconstruction over
//!   the multiply-linked files, and resolvability follows the namespace;
//! * **caches** — each node's cached set stays a parent-linked forest
//!   with consistent pin counts and holds only live inodes;
//! * **replication & liveness accounting** — replicated ids are live and
//!   subtree-only; `failures - recoveries` equals the dead-node count;
//! * **protocol invariants** — the probe's per-logical-op violations
//!   (hop monotonicity/bounds, retry monotonicity, exact give-up budget).

use std::collections::BTreeMap;

use dynmds_core::{AppliedOp, Cluster, DstRecord};
use dynmds_namespace::{FxHashMap, FxHashSet, InodeId, MdsId, Namespace};
use dynmds_partition::{dentry_hash, path_hash, StrategyKind};
use dynmds_workload::Op;

/// Cap on recorded divergence messages: one real bug can fire at every
/// checkpoint for thousands of ids; the first few tell the whole story.
const MAX_REPORTS: usize = 24;

#[derive(Clone, Debug, PartialEq, Eq)]
struct MEntry {
    is_dir: bool,
    nlink: u32,
    mode: u16,
    uid: u32,
}

/// The flat, strategy-agnostic model filesystem. See module docs.
pub struct RefModel {
    entries: FxHashMap<InodeId, MEntry>,
    children: FxHashMap<InodeId, BTreeMap<String, InodeId>>,
    /// Files the cluster's anchor policy should currently anchor: anchored
    /// on first extra link, released when the link count falls back to one
    /// or the inode dies.
    anchored: FxHashSet<InodeId>,
    /// Next inode id the namespace arena will allocate (ids are sequential
    /// and never reused, so successful creates are fully predictable).
    next_id: u64,
    root: InodeId,
    /// Ops the model accepted / rejected (both outcomes must agree with
    /// the cluster's).
    pub applied_ok: u64,
    /// Ops the model rejected.
    pub applied_failed: u64,
}

impl RefModel {
    /// Snapshots `ns` into a fresh model. Call before the simulation runs.
    pub fn from_namespace(ns: &Namespace) -> Self {
        let mut entries = FxHashMap::default();
        let mut children: FxHashMap<InodeId, BTreeMap<String, InodeId>> = FxHashMap::default();
        for id in ns.live_ids() {
            let ino = ns.inode(id).expect("live id has an inode");
            entries.insert(
                id,
                MEntry {
                    is_dir: ino.ftype.is_dir(),
                    nlink: ino.nlink,
                    mode: ino.perm.mode,
                    uid: ino.perm.uid,
                },
            );
            if ns.is_dir(id) {
                let map = ns
                    .children(id)
                    .expect("live dir iterates")
                    .map(|(n, c)| (n.to_string(), c))
                    .collect();
                children.insert(id, map);
            }
        }
        RefModel {
            entries,
            children,
            anchored: FxHashSet::default(),
            next_id: ns.id_bound(),
            root: ns.root(),
            applied_ok: 0,
            applied_failed: 0,
        }
    }

    fn alive(&self, id: InodeId) -> bool {
        self.entries.contains_key(&id)
    }

    fn is_dir(&self, id: InodeId) -> bool {
        self.entries.get(&id).map(|e| e.is_dir).unwrap_or(false)
    }

    fn lookup(&self, dir: InodeId, name: &str) -> Option<InodeId> {
        self.children.get(&dir).and_then(|m| m.get(name)).copied()
    }

    /// Live inodes in the model.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the model holds no live inodes (never true in practice —
    /// the root survives everything).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Order-independent digest of the model state, for run fingerprints.
    pub fn digest(&self) -> u64 {
        // Commutative fold (sum of per-item hashes): iteration order of the
        // hash maps must not leak into the digest.
        let mut acc = 0u64;
        for (&id, e) in &self.entries {
            acc = acc.wrapping_add(fnv_words(&[
                id.0,
                e.is_dir as u64,
                e.nlink as u64,
                e.mode as u64,
                e.uid as u64,
            ]));
        }
        for (&dir, map) in &self.children {
            for (name, &child) in map {
                let mut h = fnv_words(&[dir.0, child.0]);
                for b in name.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
                acc = acc.wrapping_add(h);
            }
        }
        for &a in &self.anchored {
            acc = acc.wrapping_add(fnv_words(&[a.0, 0xA2C402]));
        }
        acc ^ self.next_id
    }

    /// Applies one record from the cluster's applied-op log, checking that
    /// the cluster's outcome (applied / rejected, and the primary inode)
    /// matches what the model's own semantics dictate. Divergences are
    /// appended to `out`.
    pub fn apply(&mut self, rec: &AppliedOp, out: &mut Vec<String>) {
        let report = |msg: String, out: &mut Vec<String>| {
            if out.len() < MAX_REPORTS {
                out.push(msg);
            }
        };
        // What the model says should happen: Some(primary) on success.
        let verdict: Option<InodeId> = match &rec.op {
            Op::Stat(_) | Op::Open(_) | Op::Readdir(_) | Op::Lookup { .. } => {
                report(format!("applied-op log contains non-update {:?}", rec.op.kind()), out);
                return;
            }
            Op::Close(f) | Op::SetAttr(f) => self.alive(*f).then_some(*f),
            Op::Create { dir, name } | Op::Mkdir { dir, name } => {
                let ok = self.alive(*dir) && self.is_dir(*dir) && self.lookup(*dir, name).is_none();
                ok.then_some(InodeId(self.next_id))
            }
            Op::Unlink { dir, name } => {
                if !self.alive(*dir) || !self.is_dir(*dir) {
                    None
                } else {
                    match self.lookup(*dir, name) {
                        None => None,
                        Some(id) => {
                            // Directories must be empty; their only dentry
                            // is the primary one.
                            let dir_blocked = self.is_dir(id)
                                && self.children.get(&id).map(|m| !m.is_empty()).unwrap_or(false);
                            (!dir_blocked).then_some(id)
                        }
                    }
                }
            }
            Op::Rename { dir, name, new_name } => {
                if !self.alive(*dir) || !self.is_dir(*dir) {
                    None
                } else {
                    match self.lookup(*dir, name) {
                        None => None,
                        Some(id) if id == self.root => None,
                        Some(id) => {
                            let clobber = self.lookup(*dir, new_name).is_some() && new_name != name;
                            (!clobber).then_some(id)
                        }
                    }
                }
            }
            Op::Chmod { target, .. } => self.alive(*target).then_some(*target),
            Op::Link { target, dir, name } => {
                let ok = self.alive(*target)
                    && !self.is_dir(*target)
                    && self.alive(*dir)
                    && self.is_dir(*dir)
                    && self.lookup(*dir, name).is_none();
                ok.then_some(*target)
            }
        };

        if verdict.is_some() != rec.applied {
            report(
                format!(
                    "outcome mismatch at {}us: cluster {} {:?} (client {}) but the model says it must {}",
                    rec.at.as_micros(),
                    if rec.applied { "applied" } else { "rejected" },
                    rec.op,
                    rec.client.0,
                    if verdict.is_some() { "succeed" } else { "fail" },
                ),
                out,
            );
            self.applied_failed += 1;
            return;
        }
        let Some(primary) = verdict else {
            self.applied_failed += 1;
            return;
        };
        if rec.primary != Some(primary) {
            report(
                format!(
                    "primary-inode mismatch at {}us for {:?}: cluster touched {:?}, model expected {}",
                    rec.at.as_micros(),
                    rec.op,
                    rec.primary,
                    primary
                ),
                out,
            );
        }
        self.applied_ok += 1;

        // Mutate the model (shared-absorbed writes change only size/mtime,
        // which the model deliberately does not track).
        match &rec.op {
            Op::Close(_) | Op::SetAttr(_) => {}
            Op::Create { dir, name } | Op::Mkdir { dir, name } => {
                let is_dir = matches!(rec.op, Op::Mkdir { .. });
                let mode = if is_dir { 0o755 } else { 0o644 };
                self.entries.insert(primary, MEntry { is_dir, nlink: 1, mode, uid: rec.uid });
                if is_dir {
                    self.children.insert(primary, BTreeMap::new());
                }
                self.children.get_mut(dir).expect("dir checked").insert(name.clone(), primary);
                self.next_id += 1;
            }
            Op::Unlink { dir, name } => {
                self.children.get_mut(dir).expect("dir checked").remove(name);
                let e = self.entries.get_mut(&primary).expect("dentry target live");
                e.nlink -= 1;
                let nlink = e.nlink;
                if nlink == 0 {
                    self.entries.remove(&primary);
                    self.children.remove(&primary);
                }
                if nlink <= 1 {
                    self.anchored.remove(&primary);
                }
            }
            Op::Rename { dir, name, new_name } => {
                let map = self.children.get_mut(dir).expect("dir checked");
                let id = map.remove(name).expect("entry checked");
                map.insert(new_name.clone(), id);
            }
            Op::Chmod { mode, .. } => {
                self.entries.get_mut(&primary).expect("target live").mode = mode & 0o777;
            }
            Op::Link { target, dir, name } => {
                self.children.get_mut(dir).expect("dir checked").insert(name.clone(), *target);
                self.entries.get_mut(target).expect("target live").nlink += 1;
                self.anchored.insert(*target);
            }
            Op::Stat(_) | Op::Open(_) | Op::Readdir(_) | Op::Lookup { .. } => {
                unreachable!("rejected above")
            }
        }
    }
}

fn fnv_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The authority each strategy *should* assign to `id`, recomputed from
/// first principles (no `PlacementMemo`): the §4.3 entry-hash override
/// first, then a delegation walk (subtree strategies) or a path hash.
pub fn expected_authority(cl: &Cluster, id: InodeId) -> MdsId {
    let ns = &cl.ns;
    let n = cl.cfg.n_mds;
    if let Ok(Some(p)) = ns.parent(id) {
        if cl.is_dir_hashed(p) {
            if let Ok(name) = ns.name(id) {
                return dentry_hash(p, name, n);
            }
        }
    }
    match cl.cfg.strategy {
        StrategyKind::StaticSubtree
        | StrategyKind::DynamicSubtree
        | StrategyKind::ElasticSubtree => {
            let sub = cl.partition.as_subtree().expect("subtree strategy");
            if let Some(m) = sub.delegation_of(id) {
                return m;
            }
            for anc in ns.ancestors(id) {
                if let Some(m) = sub.delegation_of(anc) {
                    return m;
                }
            }
            sub.delegation_of(ns.root()).unwrap_or(MdsId(0))
        }
        StrategyKind::DirHash => {
            let key = if ns.is_dir(id) { id } else { ns.parent(id).ok().flatten().unwrap_or(id) };
            path_hash(&ns.path_of(key).unwrap_or_else(|_| "/".to_string()), n)
        }
        StrategyKind::FileHash | StrategyKind::LazyHybrid => {
            path_hash(&ns.path_of(id).unwrap_or_else(|_| "/".to_string()), n)
        }
    }
}

fn push(out: &mut Vec<String>, msg: String) {
    if out.len() < MAX_REPORTS {
        out.push(msg);
    }
}

/// Owns a [`RefModel`] and accumulates divergences across checkpoints.
pub struct Oracle {
    /// The model filesystem.
    pub model: RefModel,
    /// Everything found so far (capped; the first entries matter most).
    pub divergences: Vec<String>,
    /// Checkpoints executed.
    pub checkpoints: u64,
}

impl Oracle {
    /// Builds the oracle from a cluster that has not processed any events
    /// yet (the model snapshots the pristine namespace).
    pub fn new(cl: &Cluster) -> Self {
        Oracle { model: RefModel::from_namespace(&cl.ns), divergences: Vec::new(), checkpoints: 0 }
    }

    fn report(&mut self, msg: String) {
        push(&mut self.divergences, msg);
    }

    /// One checkpoint: drain the probe, roll the model forward, and sweep
    /// every invariant. Returns `true` when no divergence has been found
    /// so far (over the oracle's whole lifetime).
    pub fn drain_and_check(&mut self, cl: &mut Cluster) -> bool {
        self.checkpoints += 1;
        let (records, violations) = match cl.probe.as_deref_mut() {
            Some(p) => (p.take_records(), p.take_violations()),
            None => (Vec::new(), Vec::new()),
        };
        for v in violations {
            self.report(format!("protocol violation: {v}"));
        }
        // The record stream is in decision order, so every proxy-absorbed
        // answer is checked against the model state at exactly the
        // instant the proxy decided (its linearization point).
        let mut msgs = Vec::new();
        for rec in &records {
            match rec {
                DstRecord::Applied(a) => self.model.apply(a, &mut msgs),
                DstRecord::ProxyNegServe { at, client, dir, name } => {
                    if let Some(id) = self.model.lookup(*dir, name) {
                        push(
                            &mut msgs,
                            format!(
                                "stale negative at {}us: proxy told client {} that {dir}/{name} \
                                 is absent but the model resolves it to {id}",
                                at.as_micros(),
                                client.0
                            ),
                        );
                    }
                }
                DstRecord::ProxyReadServe { at, client, item } => {
                    if !self.model.alive(*item) {
                        push(
                            &mut msgs,
                            format!(
                                "stale read at {}us: proxy served {item} to client {} but the \
                                 model says it is dead",
                                at.as_micros(),
                                client.0
                            ),
                        );
                    }
                }
            }
        }
        for m in msgs {
            self.report(m);
        }
        self.sweep(cl);
        self.divergences.is_empty()
    }

    fn sweep(&mut self, cl: &Cluster) {
        self.sweep_namespace(cl);
        self.sweep_authority(cl);
        self.sweep_anchors(cl);
        self.sweep_caches(cl);
        self.sweep_replication(cl);
        self.sweep_liveness(cl);
    }

    fn sweep_namespace(&mut self, cl: &Cluster) {
        let model = &self.model;
        let out = &mut self.divergences;
        let ns = &cl.ns;
        let live: Vec<InodeId> = ns.live_ids().collect();
        if live.len() != model.entries.len() {
            push(
                out,
                format!(
                    "live-set size mismatch: namespace has {}, model has {}",
                    live.len(),
                    model.entries.len()
                ),
            );
        }
        for id in live {
            let Some(me) = model.entries.get(&id) else {
                push(out, format!("{id} is live in the namespace but dead in the model"));
                continue;
            };
            let ino = ns.inode(id).expect("live");
            if ino.ftype.is_dir() != me.is_dir
                || ino.nlink != me.nlink
                || ino.perm.mode != me.mode
                || ino.perm.uid != me.uid
            {
                push(out, format!(
                    "attribute mismatch on {id}: ns (dir={}, nlink={}, mode={:o}, uid={}) vs model (dir={}, nlink={}, mode={:o}, uid={})",
                    ino.ftype.is_dir(), ino.nlink, ino.perm.mode, ino.perm.uid,
                    me.is_dir, me.nlink, me.mode, me.uid
                ));
            }
            // Dentries of every live directory agree exactly.
            if me.is_dir {
                let ns_kids: BTreeMap<String, InodeId> =
                    ns.children(id).expect("live dir").map(|(n, c)| (n.to_string(), c)).collect();
                let model_kids = model.children.get(&id).cloned().unwrap_or_default();
                if ns_kids != model_kids {
                    push(
                        out,
                        format!(
                            "dentry mismatch under {id}: ns has {} entries, model has {}",
                            ns_kids.len(),
                            model_kids.len()
                        ),
                    );
                }
            }
            // The primary dentry must be a real dentry (catches stale
            // promotion bookkeeping).
            if id != ns.root() {
                let p = ns.parent(id).ok().flatten();
                let name = ns.name(id).ok().map(str::to_string);
                let resolves = match (p, &name) {
                    (Some(p), Some(n)) => ns.lookup(p, n).ok() == Some(id),
                    _ => false,
                };
                if !resolves {
                    push(
                        out,
                        format!(
                            "primary dentry of {id} ({p:?}/{name:?}) does not resolve back to it"
                        ),
                    );
                }
            }
        }
    }

    fn sweep_authority(&mut self, cl: &Cluster) {
        let n = cl.cfg.n_mds;
        // Delegations must target real servers and live directories.
        if let Some(sub) = cl.partition.as_subtree() {
            for (root, mds) in sub.delegations() {
                if mds.0 >= n {
                    self.report(format!("delegation of {root} targets nonexistent MDS {mds}"));
                }
            }
        }
        for id in cl.ns.live_ids() {
            let got = cl.authority_of(id);
            if got.0 >= n {
                self.report(format!("authority_of({id}) = {got} out of range (n_mds {n})"));
                continue;
            }
            let want = expected_authority(cl, id);
            if got != want {
                self.report(format!(
                    "authority mismatch on {id}: cluster says {got}, independent recompute says {want}"
                ));
            }
        }
    }

    fn sweep_anchors(&mut self, cl: &Cluster) {
        let model = &self.model;
        let out = &mut self.divergences;
        let ns = &cl.ns;
        // Reconstruct the whole table from scratch: one chain per anchored
        // file, counted through every ancestor.
        let mut want: FxHashMap<InodeId, (Option<InodeId>, u32)> = FxHashMap::default();
        for &a in &model.anchored {
            let alive = ns.is_alive(a);
            let nlink = ns.inode(a).map(|i| i.nlink).unwrap_or(0);
            if !alive || ns.is_dir(a) || nlink < 2 {
                push(out, format!(
                    "anchored id {a} should be a live multiply-linked file (alive={alive}, nlink={nlink})"
                ));
                continue;
            }
            let mut cur = a;
            loop {
                let parent = ns.parent(cur).ok().flatten();
                let e = want.entry(cur).or_insert((parent, 0));
                e.0 = parent;
                e.1 += 1;
                match parent {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        let table: FxHashMap<InodeId, (Option<InodeId>, u32)> =
            cl.anchors.iter().map(|(id, p, r)| (id, (p, r))).collect();
        if table.len() != want.len() {
            push(
                out,
                format!(
                    "anchor table has {} entries, reconstruction wants {}",
                    table.len(),
                    want.len()
                ),
            );
        }
        for (&id, &(wp, wr)) in &want {
            match table.get(&id) {
                None => push(out, format!("anchor entry for {id} missing")),
                Some(&(tp, tr)) if tp != wp || tr != wr => push(out, format!(
                    "anchor entry {id}: table (parent {tp:?}, refs {tr}) vs reconstruction (parent {wp:?}, refs {wr})"
                )),
                _ => {}
            }
        }
        // Resolvability: every anchored file's chain walks to the root
        // through the *current* namespace parents.
        for &a in &model.anchored {
            let want_chain: Vec<InodeId> = ns.ancestors(a).collect();
            match cl.anchors.resolve(a) {
                None => push(out, format!("anchored file {a} does not resolve")),
                Some(chain) if chain != want_chain => push(
                    out,
                    format!(
                        "anchor chain of {a} is {chain:?}, namespace ancestors are {want_chain:?}"
                    ),
                ),
                _ => {}
            }
        }
    }

    fn sweep_caches(&mut self, cl: &Cluster) {
        for (i, node) in cl.nodes.iter().enumerate() {
            let cache = &node.cache;
            let mut kids: FxHashMap<InodeId, u32> = FxHashMap::default();
            let mut count = 0usize;
            for id in cache.iter_ids() {
                count += 1;
                if !cl.ns.is_alive(id) {
                    self.report(format!("mds {i} caches dead inode {id}"));
                }
                match cache.parent_of(id) {
                    Some(Some(p)) => {
                        if !cache.contains(p) {
                            self.report(format!(
                                "mds {i}: cached {id} links to uncached parent {p} (cache not a tree)"
                            ));
                        }
                        *kids.entry(p).or_insert(0) += 1;
                    }
                    Some(None) => {}
                    None => self.report(format!("mds {i}: {id} iterated but not present")),
                }
            }
            if count != cache.len() {
                self.report(format!(
                    "mds {i}: cache len {} but {} ids iterated",
                    cache.len(),
                    count
                ));
            }
            for id in cache.iter_ids() {
                let pins = cache.pins(id).unwrap_or(0);
                let want = kids.get(&id).copied().unwrap_or(0);
                if pins != want {
                    self.report(format!(
                        "mds {i}: {id} pinned by {pins} but has {want} cached children"
                    ));
                }
            }
        }
    }

    fn sweep_replication(&mut self, cl: &Cluster) {
        let reps = cl.replicated_ids();
        if !reps.is_empty() && !cl.cfg.strategy.is_subtree() {
            self.report(format!(
                "{} ids replicated under non-subtree strategy {}",
                reps.len(),
                cl.cfg.strategy
            ));
        }
        for id in reps {
            if !cl.ns.is_alive(id) {
                self.report(format!("replicated set holds dead inode {id}"));
            }
        }
    }

    fn sweep_liveness(&mut self, cl: &Cluster) {
        let dead = cl.cfg.n_mds as u64 - cl.live_nodes() as u64;
        if cl.failures < cl.recoveries || cl.failures - cl.recoveries != dead {
            self.report(format!(
                "liveness accounting off: {} failures - {} recoveries != {} dead nodes",
                cl.failures, cl.recoveries, dead
            ));
        }
        if cl.ops_completed > cl.ops_issued {
            self.report(format!(
                "{} ops completed exceeds {} issued",
                cl.ops_completed, cl.ops_issued
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_namespace::Permissions;

    fn model_over(ns: &Namespace) -> RefModel {
        RefModel::from_namespace(ns)
    }

    #[test]
    fn model_mirrors_namespace_init() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(ns.root(), "d", Permissions::directory(1)).unwrap();
        let f = ns.create_file(d, "f", Permissions::shared(1)).unwrap();
        let m = model_over(&ns);
        assert_eq!(m.len(), 3);
        assert!(m.alive(f));
        assert!(m.is_dir(d));
        assert_eq!(m.lookup(d, "f"), Some(f));
        assert_eq!(m.next_id, ns.id_bound());
    }

    #[test]
    fn digest_is_order_independent_and_state_sensitive() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(ns.root(), "d", Permissions::directory(1)).unwrap();
        let m1 = model_over(&ns);
        let m2 = model_over(&ns);
        assert_eq!(m1.digest(), m2.digest());
        ns.create_file(d, "f", Permissions::shared(1)).unwrap();
        assert_ne!(model_over(&ns).digest(), m1.digest());
    }
}
