//! Adversarial hotspot generators for the proxy-tier experiment
//! (ROADMAP item 4).
//!
//! The paper's traffic control replicates *read*-hot metadata and
//! redirects clients at it (§4.4, Figure 7). These generators are built
//! to probe where that defense cannot follow:
//!
//! * [`CreateStorm`] — every client creates files in one shared
//!   directory. All ops are updates, so replication never engages and the
//!   directory's authority serializes the whole cluster's demand.
//! * [`RenameStorm`] — clients hammer renames in directories spread
//!   across authority boundaries; again pure updates.
//! * [`DeepPathHerd`] — a thundering herd of stats against one item at
//!   maximum path depth (worst-case traversal per request).
//! * [`LookupChurn`] — wraps any workload with negative lookups, creates,
//!   unlinks and renames against one hot directory; the DST harness uses
//!   it to stress the proxy's negative-lookup invalidation protocol.
//!
//! All four are RNG-free or per-client-seeded, so their operation streams
//! are independent of how clients are partitioned across shards.

use dynmds_event::{SimRng, SimTime};
use dynmds_namespace::{ClientId, InodeId, Namespace};

use crate::ops::Op;
use crate::Workload;

/// Every client creates unique files in the same directory, forever.
pub struct CreateStorm {
    dir: InodeId,
    n_clients: usize,
    seqs: Vec<u64>,
}

impl CreateStorm {
    /// A storm of `n_clients` all creating in `dir`.
    pub fn new(dir: InodeId, n_clients: usize) -> Self {
        assert!(n_clients > 0, "need at least one client");
        CreateStorm { dir, n_clients, seqs: vec![0; n_clients] }
    }

    /// The shared target directory.
    pub fn dir(&self) -> InodeId {
        self.dir
    }
}

impl Workload for CreateStorm {
    fn next_op(&mut self, _ns: &Namespace, client: ClientId, _now: SimTime) -> Op {
        let i = client.index();
        self.seqs[i] += 1;
        Op::Create { dir: self.dir, name: format!("s{}_{}", client.0, self.seqs[i]) }
    }

    fn clients(&self) -> usize {
        self.n_clients
    }
}

/// Clients rename entries back and forth inside directories spread across
/// authority boundaries. Each client's first op creates its own entry in
/// its directory; every later op renames it to the alternate name.
pub struct RenameStorm {
    dirs: Vec<InodeId>,
    n_clients: usize,
    seqs: Vec<u64>,
}

impl RenameStorm {
    /// A storm of `n_clients` spread round-robin over `dirs` (which should
    /// live under different authorities for the cross-boundary stress).
    pub fn new(dirs: Vec<InodeId>, n_clients: usize) -> Self {
        assert!(n_clients > 0, "need at least one client");
        assert!(!dirs.is_empty(), "need target directories");
        RenameStorm { dirs, n_clients, seqs: vec![0; n_clients] }
    }
}

impl Workload for RenameStorm {
    fn next_op(&mut self, _ns: &Namespace, client: ClientId, _now: SimTime) -> Op {
        let i = client.index();
        let dir = self.dirs[i % self.dirs.len()];
        let seq = self.seqs[i];
        self.seqs[i] += 1;
        if seq == 0 {
            return Op::Create { dir, name: format!("r{}_a", client.0) };
        }
        let (from, to) = if seq % 2 == 1 { ("a", "b") } else { ("b", "a") };
        Op::Rename {
            dir,
            name: format!("r{}_{}", client.0, from),
            new_name: format!("r{}_{}", client.0, to),
        }
    }

    fn clients(&self) -> usize {
        self.n_clients
    }
}

/// A thundering herd of stats against one deeply nested item: every
/// request pays the full path traversal at whichever node serves it.
pub struct DeepPathHerd {
    target: InodeId,
    n_clients: usize,
}

impl DeepPathHerd {
    /// A herd of `n_clients` statting `target`.
    pub fn new(target: InodeId, n_clients: usize) -> Self {
        assert!(n_clients > 0, "need at least one client");
        DeepPathHerd { target, n_clients }
    }

    /// The deepest inode in `ns` (first one found at maximum depth, so
    /// the choice is deterministic for a given snapshot).
    pub fn deepest_item(ns: &Namespace) -> InodeId {
        let mut best = ns.root();
        let mut best_depth = 0;
        for id in ns.walk(ns.root()) {
            let depth = ns.ancestors(id).count();
            if depth > best_depth {
                best = id;
                best_depth = depth;
            }
        }
        best
    }

    /// The shared target.
    pub fn target(&self) -> InodeId {
        self.target
    }
}

impl Workload for DeepPathHerd {
    fn next_op(&mut self, _ns: &Namespace, _client: ClientId, _now: SimTime) -> Op {
        Op::Stat(self.target)
    }

    fn clients(&self) -> usize {
        self.n_clients
    }
}

/// Names the churn cycles through; a small pool maximizes collisions
/// between lookups, creates, unlinks and renames.
const CHURN_NAMES: [&str; 6] = ["nl0", "nl1", "nl2", "nl3", "nl4", "nl5"];

/// Wraps a workload with hot-directory churn: a fraction of every
/// client's ops becomes a lookup / create / unlink / rename against one
/// shared directory. Lookups dominate and mostly *miss*, which is exactly
/// the stream the proxy's negative-lookup cache absorbs — and the
/// interleaved creates/renames are what must invalidate it.
pub struct LookupChurn<W: Workload> {
    inner: W,
    dir: InodeId,
    churn_p: f64,
    rngs: Vec<SimRng>,
}

impl<W: Workload> LookupChurn<W> {
    /// Wraps `inner`; each op independently becomes churn against `dir`
    /// with probability `churn_p`. Per-client RNG streams keep the op
    /// sequence invariant under client-to-shard partitioning.
    pub fn new(inner: W, dir: InodeId, churn_p: f64, seed: u64) -> Self {
        let mut root = SimRng::seed_from_u64(seed);
        let rngs = (0..inner.clients()).map(|i| root.fork(i as u64)).collect();
        LookupChurn { inner, dir, churn_p, rngs }
    }

    /// The churned directory.
    pub fn dir(&self) -> InodeId {
        self.dir
    }
}

impl<W: Workload> Workload for LookupChurn<W> {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op {
        let rng = &mut self.rngs[client.index()];
        if !rng.chance(self.churn_p) {
            return self.inner.next_op(ns, client, now);
        }
        let name = CHURN_NAMES[rng.below(CHURN_NAMES.len() as u64) as usize].to_owned();
        match rng.below(100) {
            0..=49 => Op::Lookup { dir: self.dir, name },
            50..=69 => Op::Create { dir: self.dir, name },
            70..=84 => Op::Unlink { dir: self.dir, name },
            _ => {
                let new_name = CHURN_NAMES[rng.below(CHURN_NAMES.len() as u64) as usize].to_owned();
                Op::Rename { dir: self.dir, name, new_name }
            }
        }
    }

    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        self.inner.uid_of(client)
    }

    fn think_scale(&self, now: SimTime) -> f64 {
        self.inner.think_scale(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_namespace::NamespaceSpec;

    #[test]
    fn create_storm_names_are_unique_per_client() {
        let ns = Namespace::new();
        let mut s = CreateStorm::new(InodeId(5), 2);
        let a = s.next_op(&ns, ClientId(0), SimTime::ZERO);
        let b = s.next_op(&ns, ClientId(0), SimTime::ZERO);
        let c = s.next_op(&ns, ClientId(1), SimTime::ZERO);
        match (&a, &b, &c) {
            (
                Op::Create { dir: d1, name: n1 },
                Op::Create { dir: d2, name: n2 },
                Op::Create { dir: d3, name: n3 },
            ) => {
                assert_eq!((*d1, *d2, *d3), (InodeId(5), InodeId(5), InodeId(5)));
                assert_ne!(n1, n2);
                assert_ne!(n1, n3);
            }
            other => panic!("expected creates, got {other:?}"),
        }
    }

    #[test]
    fn rename_storm_creates_then_alternates() {
        let ns = Namespace::new();
        let mut s = RenameStorm::new(vec![InodeId(3), InodeId(4)], 2);
        assert_eq!(
            s.next_op(&ns, ClientId(1), SimTime::ZERO),
            Op::Create { dir: InodeId(4), name: "r1_a".into() }
        );
        assert_eq!(
            s.next_op(&ns, ClientId(1), SimTime::ZERO),
            Op::Rename { dir: InodeId(4), name: "r1_a".into(), new_name: "r1_b".into() }
        );
        assert_eq!(
            s.next_op(&ns, ClientId(1), SimTime::ZERO),
            Op::Rename { dir: InodeId(4), name: "r1_b".into(), new_name: "r1_a".into() }
        );
    }

    #[test]
    fn deep_herd_finds_the_deepest_item() {
        let snap = NamespaceSpec { users: 4, seed: 11, ..Default::default() }.generate();
        let deep = DeepPathHerd::deepest_item(&snap.ns);
        let depth = snap.ns.ancestors(deep).count();
        for id in snap.ns.walk(snap.ns.root()) {
            assert!(snap.ns.ancestors(id).count() <= depth);
        }
        let mut herd = DeepPathHerd::new(deep, 3);
        assert_eq!(herd.next_op(&snap.ns, ClientId(2), SimTime::ZERO), Op::Stat(deep));
    }

    #[test]
    fn lookup_churn_is_partition_invariant() {
        // The same client must see the same op stream regardless of which
        // other clients were polled in between (shard partitioning).
        let ns = Namespace::new();
        let mk = || LookupChurn::new(CreateStorm::new(InodeId(9), 4), InodeId(2), 0.6, 42);
        let mut all = mk();
        let mut interleaved: Vec<Op> = Vec::new();
        for round in 0..20 {
            for c in 0..4u32 {
                let _ = round;
                interleaved.push(all.next_op(&ns, ClientId(c), SimTime::ZERO));
            }
        }
        let mut solo = mk();
        for c in 0..4u32 {
            for round in 0..20 {
                let op = solo.next_op(&ns, ClientId(c), SimTime::ZERO);
                assert_eq!(op, interleaved[round * 4 + c as usize], "client {c} round {round}");
            }
        }
    }

    #[test]
    fn lookup_churn_mixes_lookups_and_mutations() {
        let ns = Namespace::new();
        let mut wl = LookupChurn::new(CreateStorm::new(InodeId(9), 1), InodeId(2), 1.0, 7);
        let mut lookups = 0;
        let mut mutations = 0;
        for _ in 0..500 {
            match wl.next_op(&ns, ClientId(0), SimTime::ZERO) {
                Op::Lookup { dir, .. } => {
                    assert_eq!(dir, InodeId(2));
                    lookups += 1;
                }
                Op::Create { .. } | Op::Unlink { .. } | Op::Rename { .. } => mutations += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(lookups > 150, "lookups should dominate: {lookups}");
        assert!(mutations > 100, "mutations must interleave: {mutations}");
    }
}
