//! The node-local serve core: what one MDS does with a request it has
//! accepted (§4) — path traversal, target access, mutation and traffic
//! control — written once for any engine.
//!
//! [`serve`] reads shared state only through a [`View`] and reaches what
//! is not the serving node's only through [`Peers`]. Each `Peers` call
//! happens where its effect lands in the pipeline, so an engine that
//! resolves it at once (the legacy [`Cluster`](crate::Cluster)) keeps the
//! exact order of store accesses, spans and cache mutations.

use dynmds_cache::InsertKind;
use dynmds_event::SimTime;
use dynmds_namespace::{ClientId, FxHashSet, InodeId, MdsId, Namespace};
use dynmds_partition::{dentry_hash, Partition};
use dynmds_storage::{Read, StoreLayout};
use dynmds_workload::{Op, OpKind};

use crate::config::SimConfig;
use crate::fault::live_in_ring;
use crate::node::MdsNode;
use crate::obs::SpanStage;
use crate::request::Request;

/// The shared state the core reads.
pub struct View<'a> {
    /// Configuration of this run (costs, strategy, policy switches).
    pub cfg: &'a SimConfig,
    /// Ground-truth namespace.
    pub ns: &'a Namespace,
    /// Placement function.
    pub partition: &'a Partition,
    /// Directories spread entry-wise across the cluster (§4.3).
    pub hashed_dirs: &'a FxHashSet<InodeId>,
    /// Items replicated cluster-wide by traffic control (§4.4).
    pub replicated: &'a FxHashSet<InodeId>,
    /// Liveness per node.
    pub alive: &'a [bool],
    /// Tier-2 layout.
    pub layout: StoreLayout,
}

impl View<'_> {
    /// The authoritative MDS for `id`, honouring dynamic directory
    /// hashing: entries of a hashed directory are owned entry-wise.
    pub fn authority_of(&self, id: InodeId) -> MdsId {
        if !self.hashed_dirs.is_empty() {
            if let Ok(Some(p)) = self.ns.parent(id) {
                if self.hashed_dirs.contains(&p) {
                    if let Ok(name) = self.ns.name(id) {
                        return dentry_hash(p, name, self.cfg.n_mds);
                    }
                }
            }
        }
        self.partition.authority(id)
    }

    /// `auth` while it is alive, else the next live node around the ring.
    pub fn live_authority(&self, auth: MdsId) -> MdsId {
        live_in_ring(self.alive, auth).unwrap_or(auth)
    }
}

/// Everything the core reaches beyond the serving node. A method that
/// also touches the serving node takes it as an argument.
pub trait Peers {
    /// The shared state, read-only.
    fn view(&self) -> View<'_>;
    /// Performs a tier-2 read at `now`; returns when it completes.
    fn fetch(&mut self, now: SimTime, read: Read) -> SimTime;
    /// Replicates prefix `dir` from `auth`, a live node other than the
    /// serving one; returns when the prefix arrives.
    fn remote_prefix(&mut self, now: SimTime, dir: InodeId, auth: MdsId) -> SimTime;
    /// Charges every other live node for a hashed directory's listing.
    fn scatter_readdir(&mut self, now: SimTime);
    /// Lazy Hybrid: applies the lazy updates pending on `id` and returns
    /// how many there were (0 under every other strategy).
    fn lazy_trips(&mut self, id: InodeId) -> u64;
    /// Merges every outstanding replica and proxy write delta for `id`
    /// into the namespace; returns how many holders contributed.
    fn gather(&mut self, now: SimTime, node: &mut MdsNode, id: InodeId) -> usize;
    /// Applies `req`'s mutation and commits it to `node`'s journal;
    /// returns the commit completion time.
    fn apply_update(&mut self, now: SimTime, node: &mut MdsNode, req: &Request) -> SimTime;
    /// Pushes `id` and its prefixes into every live node's cache and marks
    /// it replicated (§4.4).
    fn replicate(&mut self, now: SimTime, node: &mut MdsNode, id: InodeId);
    /// Records one op-trace span.
    fn span(&mut self, client: ClientId, stage: SpanStage, at: SimTime, mds: MdsId);
    /// Cluster-wide accounting of one served op on `target`: directory
    /// hashing, per-subtree load, per-kind op counts.
    fn account(&mut self, target: InodeId, kind: OpKind);
}

/// Serves `req` at `node` — the authority, a replica holder, or a
/// forwarding dead-end standing in. Returns when the reply leaves the
/// node.
pub fn serve<P: Peers>(now: SimTime, node: &mut MdsNode, req: &Request, peers: &mut P) -> SimTime {
    let target = req.op.target();
    let update = req.op.is_update();
    let costs = peers.view().cfg.costs;
    let rtt = costs.net_hop.saturating_mul(2);

    // CPU component: requests queue on the node's serial CPU.
    let cpu_done = node.occupy(now, costs.cpu_per_op);
    // IO component, overlapped with other requests' CPU time.
    let mut io_done = now;

    // ---- prefix handling ------------------------------------------
    if peers.view().cfg.strategy.needs_path_traversal() {
        let tdone = traverse(now, node, target, peers);
        peers.span(req.client, SpanStage::Traverse, tdone, node.id);
        io_done = io_done.max(tdone);
    } else {
        // Lazy Hybrid: no traversal, but one network round trip per
        // pending lazy update on this item (§3.1.3).
        let trips = peers.lazy_trips(target);
        if trips > 0 {
            io_done = io_done.max(now + rtt.saturating_mul(trips));
        }
    }

    // ---- target access --------------------------------------------
    // A read of an item with outstanding shared-write or proxy deltas
    // triggers the §4.2 callback: gather the latest values first (one
    // round trip). A read through the cluster must never observe a value
    // older than one a replica or a proxy already acked.
    if !update && peers.gather(now, node, target) > 0 {
        io_done = io_done.max(now + rtt);
    }
    let (hit, done) = access_target(now, node, &req.op, peers);
    io_done = io_done.max(done);
    let probe = if hit { SpanStage::CacheHit } else { SpanStage::CacheMiss };
    peers.span(req.client, probe, now, node.id);

    // ---- mutation + journal commit ---------------------------------
    if update {
        io_done = io_done.max(peers.apply_update(now, node, req));
    }

    // ---- popularity & traffic control -------------------------------
    let pop = node.popularity.record(now, target);
    let write_pop = if update {
        node.update_popularity.record(now, target)
    } else {
        node.update_popularity.value(now, target)
    };
    let v = peers.view();
    if v.cfg.traffic_control
        && v.cfg.strategy.is_subtree()
        && pop > v.cfg.replication_threshold
        && !v.replicated.contains(&target)
        && !update
        // Read-mostly only: replicating write-hot metadata would send
        // client updates to random nodes just to be forwarded back —
        // unless shared writes let replicas absorb them (files only).
        && (write_pop < 0.1 * pop || (v.cfg.shared_writes && !v.ns.is_dir(target)))
    {
        peers.replicate(now, node, target);
    }

    peers.account(target, req.op.kind());
    node.life.served += 1;
    cpu_done.max(io_done)
}

/// Walks the prefix directories of `target` in `node`'s cache, loading
/// anything missing. Returns the IO completion time.
fn traverse<P: Peers>(now: SimTime, node: &mut MdsNode, target: InodeId, peers: &mut P) -> SimTime {
    let mut chain = std::mem::take(&mut node.chain);
    peers.view().ns.ancestors_into(target, &mut chain);
    let mut io_done = now;
    for &dir in &chain {
        if node.cache.lookup(dir, false) {
            continue;
        }
        node.life.prefix_misses += 1;
        // A dead authority is never asked: its live stand-in serves.
        let v = peers.view();
        let auth = v.live_authority(v.authority_of(dir));
        if auth == node.id {
            // Local miss: read from tier 2.
            node.life.disk_fetches += 1;
            io_done = io_done.max(peers.fetch(now, Read::Inode(dir)));
            install_read(node, &peers.view(), Read::Inode(dir), InsertKind::Prefix);
        } else {
            // Remote prefix: replicate from the peer authority. This is
            // the overhead that bloats hashed strategies' caches (§5.3.1).
            node.life.remote_prefix_fetches += 1;
            io_done = io_done.max(peers.remote_prefix(now, dir, auth));
            node.install(peers.view().ns, dir, InsertKind::Prefix);
        }
    }
    node.chain = chain;
    io_done
}

/// Ensures the op's target metadata is in `node`'s cache. Returns whether
/// it already was, and the IO completion time.
fn access_target<P: Peers>(
    now: SimTime,
    node: &mut MdsNode,
    op: &Op,
    peers: &mut P,
) -> (bool, SimTime) {
    let target = op.target();
    let mut io_done = now;
    let (read, kind) = if let Op::Readdir(dir) = *op {
        // A readdir touches the directory *contents* object.
        node.cache.lookup(dir, true);
        // An entry-hashed directory's listing must be gathered from every
        // node ("individual MDS nodes can act authoritatively … for all
        // directory operations except readdir", §4.3): one scatter/gather
        // round trip plus a small cost at each peer.
        if peers.view().hashed_dirs.contains(&dir) {
            io_done = now + peers.view().cfg.costs.net_hop.saturating_mul(2);
            peers.scatter_readdir(now);
        }
        // Under embedding the listing is served from cache only when every
        // child inode is cached; the inode-table layout reads the name
        // list every time (per-inode stats pay their own way).
        let v = peers.view();
        let embedded = v.layout == StoreLayout::EmbeddedDirectories;
        if embedded
            && v.ns.children_syms(dir).into_iter().flatten().all(|(_, c)| node.cache.peek(c))
        {
            return (true, io_done);
        }
        (Read::Dir(dir), InsertKind::Prefetch)
    } else {
        if node.cache.lookup(target, true) {
            return (true, io_done);
        }
        // Entries of a hashed directory live in per-entry storage
        // fragments; everything else follows the configured layout.
        let v = peers.view();
        let fragmented =
            v.ns.parent(target).ok().flatten().is_some_and(|p| v.hashed_dirs.contains(&p));
        (if fragmented { Read::Fragment(target) } else { Read::Inode(target) }, InsertKind::Target)
    };
    node.life.target_misses += 1;
    node.life.disk_fetches += 1;
    let done = peers.fetch(now, read);
    install_read(node, &peers.view(), read, kind);
    (false, io_done.max(done))
}

/// Caches everything `read` loaded at `node`: the read's own item as
/// `kind`, everything else riding along as prefetch (probation insertion,
/// §4.5).
pub(crate) fn install_read(node: &mut MdsNode, v: &View<'_>, read: Read, kind: InsertKind) {
    let (Read::Inode(primary) | Read::Dir(primary) | Read::Fragment(primary)) = read;
    for id in v.layout.loaded(v.ns, read) {
        node.install(v.ns, id, if id == primary { kind } else { InsertKind::Prefetch });
    }
}

#[cfg(test)]
mod tests {
    use dynmds_event::SimDuration;
    use dynmds_namespace::Permissions;
    use dynmds_partition::StrategyKind;

    use super::*;

    /// A `Peers` with no cluster behind it: it records what the core asks
    /// for and answers at once.
    struct Fake {
        cfg: SimConfig,
        ns: Namespace,
        partition: Partition,
        hashed_dirs: FxHashSet<InodeId>,
        replicated: FxHashSet<InodeId>,
        alive: Vec<bool>,
        layout: StoreLayout,
        /// Lazy updates pending on the next op's target.
        pending: u64,
        /// Whether the next gather finds a delta.
        dirty: bool,
        reads: Vec<Read>,
        remote: Vec<(InodeId, MdsId)>,
        scatters: u32,
        gathers: u32,
        spans: Vec<SpanStage>,
    }

    /// `/a/b/c/d/e` holding five files, and a sibling branch `/a/x/y`.
    fn namespace() -> (Namespace, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let mut dir = ns.root();
        for name in ["a", "b", "c", "d", "e"] {
            dir = ns.mkdir(dir, name, Permissions::directory(1)).unwrap();
        }
        let files =
            (0..5).map(|i| ns.create_file(dir, &format!("f{i}"), Permissions::shared(1)).unwrap());
        let files: Vec<InodeId> = files.collect();
        let a = ns.resolve("/a").unwrap();
        let x = ns.mkdir(a, "x", Permissions::directory(1)).unwrap();
        ns.mkdir(x, "y", Permissions::directory(1)).unwrap();
        (ns, files)
    }

    impl Fake {
        fn new(strategy: StrategyKind, layout: StoreLayout) -> (Fake, Vec<InodeId>) {
            let cfg = SimConfig::small(strategy);
            let (ns, files) = namespace();
            let partition = Partition::initial(strategy, &ns, cfg.n_mds);
            let alive = vec![true; cfg.n_mds as usize];
            let fake = Fake {
                cfg,
                ns,
                partition,
                hashed_dirs: FxHashSet::default(),
                replicated: FxHashSet::default(),
                alive,
                layout,
                pending: 0,
                dirty: false,
                reads: Vec::new(),
                remote: Vec::new(),
                scatters: 0,
                gathers: 0,
                spans: Vec::new(),
            };
            (fake, files)
        }

        /// A fresh node 0 caching only the root, as every node starts.
        fn node(&self) -> MdsNode {
            let mut node = MdsNode::new(MdsId(0), &self.cfg);
            node.cache.insert(self.ns.root(), None, InsertKind::Prefix);
            node
        }

        fn rtt(&self) -> SimDuration {
            self.cfg.costs.net_hop.saturating_mul(2)
        }
    }

    impl Peers for Fake {
        fn view(&self) -> View<'_> {
            View {
                cfg: &self.cfg,
                ns: &self.ns,
                partition: &self.partition,
                hashed_dirs: &self.hashed_dirs,
                replicated: &self.replicated,
                alive: &self.alive,
                layout: self.layout,
            }
        }
        fn fetch(&mut self, now: SimTime, read: Read) -> SimTime {
            self.reads.push(read);
            now + SimDuration::from_micros(1)
        }
        fn remote_prefix(&mut self, now: SimTime, dir: InodeId, auth: MdsId) -> SimTime {
            self.remote.push((dir, auth));
            now + self.rtt()
        }
        fn scatter_readdir(&mut self, _now: SimTime) {
            self.scatters += 1;
        }
        fn lazy_trips(&mut self, _id: InodeId) -> u64 {
            std::mem::take(&mut self.pending)
        }
        fn gather(&mut self, _now: SimTime, _node: &mut MdsNode, _id: InodeId) -> usize {
            self.gathers += 1;
            usize::from(std::mem::take(&mut self.dirty))
        }
        fn apply_update(&mut self, now: SimTime, _node: &mut MdsNode, _req: &Request) -> SimTime {
            now
        }
        fn replicate(&mut self, _now: SimTime, _node: &mut MdsNode, _id: InodeId) {}
        fn span(&mut self, _client: ClientId, stage: SpanStage, _at: SimTime, _mds: MdsId) {
            self.spans.push(stage);
        }
        fn account(&mut self, _target: InodeId, _kind: OpKind) {}
    }

    fn request(op: Op) -> Request {
        Request {
            client: ClientId(0),
            uid: 1,
            op,
            issued_at: SimTime::ZERO,
            hops: 0,
            retries: 0,
            via_proxy: false,
        }
    }

    const NOW: SimTime = SimTime::from_millis(10);

    #[test]
    fn prefix_cache_stays_a_parent_linked_tree_after_misses() {
        let (mut p, files) = Fake::new(StrategyKind::FileHash, StoreLayout::EmbeddedDirectories);
        let mut node = p.node();
        let y = p.ns.resolve("/a/x/y").unwrap();
        for target in [files[0], files[3], y] {
            serve(NOW, &mut node, &request(Op::Stat(target)), &mut p);
        }
        assert!(!p.remote.is_empty(), "the walk crossed prefixes owned elsewhere");
        node.cache.check_integrity();
        for id in node.cache.iter_ids() {
            let parent = p.ns.parent(id).unwrap();
            assert_eq!(node.cache.parent_of(id), Some(parent), "{id} linked to its parent");
            assert!(parent.is_none_or(|q| node.cache.peek(q)), "{id}'s parent is cached");
        }
        for anc in p.ns.ancestors(files[3]) {
            assert_eq!(node.cache.is_prefix(anc), Some(true), "prefix {anc} cached as a prefix");
        }
    }

    #[test]
    fn remote_prefix_is_asked_exactly_for_prefixes_owned_by_another_live_node() {
        let (mut p, files) = Fake::new(StrategyKind::FileHash, StoreLayout::InodeTable);
        let mut node = p.node();
        let mut chain = Vec::new();
        p.ns.ancestors_into(files[2], &mut chain);
        let (mut remote, mut local) = (Vec::new(), Vec::new());
        // The owner of one remote prefix is down; its stand-in is asked.
        let owner = |p: &Fake, d: InodeId| p.view().authority_of(d);
        let down = chain[1..].iter().map(|&d| owner(&p, d)).find(|&m| m != MdsId(0)).unwrap();
        p.alive[down.index()] = false;
        for &dir in &chain[1..] {
            let auth = p.view().live_authority(owner(&p, dir));
            assert_ne!(auth, down, "a dead node is never asked");
            if auth == node.id {
                local.push(Read::Inode(dir));
            } else {
                remote.push((dir, auth));
            }
        }
        assert!(!remote.is_empty() && !local.is_empty(), "the path mixes owners");
        serve(NOW, &mut node, &request(Op::Stat(files[2])), &mut p);
        assert_eq!(p.remote, remote);
        local.push(Read::Inode(files[2]));
        assert_eq!(p.reads, local, "local prefix misses, then the target, read tier 2");
        assert_eq!(node.life.remote_prefix_fetches, remote.len() as u64);
        // Cached now: a second walk asks nobody.
        serve(NOW, &mut node, &request(Op::Stat(files[2])), &mut p);
        assert_eq!(p.remote.len(), remote.len());
    }

    #[test]
    fn lazy_hybrid_waits_one_round_trip_per_pending_update() {
        let (mut p, files) = Fake::new(StrategyKind::LazyHybrid, StoreLayout::InodeTable);
        let cpu = NOW + p.cfg.costs.cpu_per_op;
        p.pending = 3;
        let waited = serve(NOW, &mut p.node(), &request(Op::Stat(files[0])), &mut p);
        assert!(NOW + p.rtt().saturating_mul(3) > cpu);
        assert_eq!(waited, NOW + p.rtt().saturating_mul(3));
        let clean = serve(NOW, &mut p.node(), &request(Op::Stat(files[0])), &mut p);
        assert_eq!(clean, cpu, "no pending update: the CPU is the critical path");
        assert!(p.remote.is_empty() && !p.spans.contains(&SpanStage::Traverse), "no traversal");
    }

    #[test]
    fn readdir_of_a_hashed_directory_scatters_once() {
        let (mut p, files) = Fake::new(StrategyKind::DynamicSubtree, StoreLayout::InodeTable);
        let e = p.ns.parent(files[0]).unwrap().unwrap();
        let mut node = p.node();
        serve(NOW, &mut node, &request(Op::Readdir(e)), &mut p);
        assert_eq!(p.scatters, 0, "an unhashed listing is the authority's alone");
        p.hashed_dirs.insert(e);
        let reply = serve(NOW, &mut node, &request(Op::Readdir(e)), &mut p);
        assert_eq!(p.scatters, 1);
        assert!(reply >= NOW + p.rtt(), "the scatter costs a round trip");
    }

    #[test]
    fn read_of_a_dirty_item_gathers_once() {
        let (mut p, files) = Fake::new(StrategyKind::DynamicSubtree, StoreLayout::InodeTable);
        let mut node = p.node();
        p.dirty = true;
        let reply = serve(NOW, &mut node, &request(Op::Stat(files[1])), &mut p);
        assert_eq!(p.gathers, 1);
        assert!(reply >= NOW + p.rtt(), "the gather costs a round trip");
        serve(NOW, &mut node, &request(Op::Close(files[1])), &mut p);
        assert_eq!(p.gathers, 1, "an update does not gather");
    }

    #[test]
    fn inode_table_readdir_installs_nothing() {
        let (mut p, files) = Fake::new(StrategyKind::FileHash, StoreLayout::InodeTable);
        let e = p.ns.parent(files[0]).unwrap().unwrap();
        let mut node = p.node();
        serve(NOW, &mut node, &request(Op::Readdir(e)), &mut p);
        assert_eq!(p.reads.last(), Some(&Read::Dir(e)), "the name list is read");
        assert_eq!(node.life.target_misses, 1);
        assert!(files.iter().all(|&f| !node.cache.peek(f)), "names only: no inode installed");
        assert_eq!(p.spans, [SpanStage::Traverse, SpanStage::CacheMiss]);
        // Under embedding the same listing brings every child inode in.
        p.layout = StoreLayout::EmbeddedDirectories;
        serve(NOW, &mut node, &request(Op::Readdir(e)), &mut p);
        assert!(files.iter().all(|&f| node.cache.peek(f)), "embedded inodes prefetched");
    }
}
