//! The MDS cluster: event handling around the request-service pipeline.
//!
//! [`Simulation`](crate::Simulation) drives one [`Cluster`], handing it
//! each event through [`Cluster::handle`]. A request follows §4:
//!
//! 1. **Routing** — the client picked a server (deepest known prefix, or
//!    the hash function); if that server is not authoritative and cannot
//!    serve a replica read, it forwards to the authority (one hop).
//! 2. **Service** — the node-local serve core ([`crate::serve`]): path
//!    traversal, target access, mutation and journal commit, popularity
//!    and traffic control. The cluster resolves the core's effects on
//!    other nodes at once (`ClusterPeers`, in `peers.rs`).
//! 3. **Reply** — carries location information that educates the client.

use dynmds_cache::InsertKind;
use dynmds_event::{EventQueue, SimDuration, SimRng, SimTime};
use dynmds_metrics::Summary;
use dynmds_namespace::{
    ClientId, FxHashMap, FxHashSet, InodeId, MdsId, Namespace, Permissions, Snapshot,
};
use dynmds_obs::span::NO_MDS;
use dynmds_obs::SnapshotSeries;
use dynmds_partition::{dentry_hash, Partition};
use dynmds_storage::{AnchorTable, MetadataStore, OsdPool, StoreLayout};
use dynmds_workload::{Op, Workload};

use crate::client::{ClientPool, KnownLocation};
use crate::config::SimConfig;
use crate::fault::NetFaultSpec;
use crate::node::{sample_row, sample_series, MdsNode};
use crate::obs::{ClusterObs, SpanStage};
use crate::peers::{all_nodes, ClusterPeers};
use crate::report::SimReport;
use crate::request::{Request, SimEvent};
use crate::serve::{serve, View};

/// One entry of the optional migration audit trail
/// ([`Cluster::migration_log`]): where a subtree moved and whether both
/// endpoints were alive when the balancer moved it.
#[derive(Clone, Copy, Debug)]
pub struct MigrationRecord {
    /// When the migration happened.
    pub at: SimTime,
    /// Subtree root that moved.
    pub root: InodeId,
    /// Exporting node.
    pub from: MdsId,
    /// Importing node.
    pub to: MdsId,
    /// Exporter liveness at migration time.
    pub from_alive: bool,
    /// Importer liveness at migration time.
    pub to_alive: bool,
}

/// Cluster-wide event counts, one set for both engines. The legacy
/// cluster keeps one, over the whole run: availability and the DST
/// digest read it as it stands, and [`Cluster::measured_counters`] gives
/// the share since measurement restarted. The sharded engine keeps one
/// per shard, summed when the run ends. A count an engine does not model
/// stays 0 there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Node failures injected.
    pub failures: u64,
    /// Node recoveries performed.
    pub recoveries: u64,
    /// Requests that timed out against a dead node and were re-driven.
    pub failover_timeouts: u64,
    /// Client retries driven (dead-node timeouts + lost messages).
    pub retries: u64,
    /// Operations abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Messages dropped by the network fault window.
    pub net_lost: u64,
    /// Messages duplicated by the network fault window.
    pub net_dup: u64,
    /// Subtree migrations performed.
    pub migrations: u64,
    /// Replica deltas merged at authorities (heartbeat + read callbacks).
    pub shared_write_flushes: u64,
    /// ESTALE replies: the target raced with an unlink.
    pub estale: u64,
    /// Replies a client discarded: duplicates and late answers to an op
    /// it had already finished.
    pub stale_replies: u64,
    /// Reads served from a client's lease without leaving the client.
    pub lease_hits: u64,
    /// Items replicated cluster-wide by traffic control.
    pub replications: u64,
    /// Replicated items that cooled down and were de-replicated.
    pub dereplications: u64,
    /// Delegation points the balancer created by splitting.
    pub delegation_splits: u64,
    /// Redundant delegation points merged away.
    pub delegation_merges: u64,
    /// Standby nodes the elastic controller activated.
    pub scale_outs: u64,
    /// Nodes the elastic controller parked.
    pub scale_ins: u64,
}

impl ClusterCounters {
    /// Applies `f` to every field pair of `self` and `other`.
    fn zip(&self, other: &ClusterCounters, f: impl Fn(u64, u64) -> u64) -> ClusterCounters {
        ClusterCounters {
            failures: f(self.failures, other.failures),
            recoveries: f(self.recoveries, other.recoveries),
            failover_timeouts: f(self.failover_timeouts, other.failover_timeouts),
            retries: f(self.retries, other.retries),
            gave_up: f(self.gave_up, other.gave_up),
            net_lost: f(self.net_lost, other.net_lost),
            net_dup: f(self.net_dup, other.net_dup),
            migrations: f(self.migrations, other.migrations),
            shared_write_flushes: f(self.shared_write_flushes, other.shared_write_flushes),
            estale: f(self.estale, other.estale),
            stale_replies: f(self.stale_replies, other.stale_replies),
            lease_hits: f(self.lease_hits, other.lease_hits),
            replications: f(self.replications, other.replications),
            dereplications: f(self.dereplications, other.dereplications),
            delegation_splits: f(self.delegation_splits, other.delegation_splits),
            delegation_merges: f(self.delegation_merges, other.delegation_merges),
            scale_outs: f(self.scale_outs, other.scale_outs),
            scale_ins: f(self.scale_ins, other.scale_ins),
        }
    }

    /// The counts accumulated since `base` was copied.
    pub fn since(&self, base: &ClusterCounters) -> ClusterCounters {
        self.zip(base, |a, b| a - b)
    }
}

impl<'a> std::iter::Sum<&'a ClusterCounters> for ClusterCounters {
    fn sum<I: Iterator<Item = &'a ClusterCounters>>(iter: I) -> Self {
        iter.fold(ClusterCounters::default(), |t, k| t.zip(k, |a, b| a + b))
    }
}

/// The whole simulated system. See module docs.
pub struct Cluster {
    /// Configuration of this run.
    pub cfg: SimConfig,
    /// Shared ground-truth namespace.
    pub ns: Namespace,
    /// Placement function.
    pub partition: Partition,
    /// Tier-2 store over the OSD pool.
    pub store: MetadataStore,
    /// Anchor table for multiply-linked inodes.
    pub anchors: AnchorTable,
    /// The metadata servers.
    pub nodes: Vec<MdsNode>,
    /// The client population.
    pub clients: ClientPool,
    /// Operation source.
    pub workload: Box<dyn Workload>,
    pub(crate) rng: SimRng,

    // --- traffic control state (§4.4) ---------------------------------
    /// Items currently replicated cluster-wide.
    pub(crate) replicated: FxHashSet<InodeId>,

    // --- dynamic directory hashing (§4.3) ------------------------------
    /// Directories currently spread entry-wise across the cluster.
    pub(crate) hashed_dirs: FxHashSet<InodeId>,

    // --- balancer bookkeeping (§4.3) -----------------------------------
    /// Per node: subtree roots imported through balancing (re-delegated
    /// first when shedding load).
    pub(crate) imported: Vec<Vec<InodeId>>,
    /// Ops per delegation root since the last heartbeat.
    pub(crate) subtree_ops: FxHashMap<InodeId, u64>,
    /// Last migration time per subtree root (anti-thrash cooldown).
    pub(crate) last_migrated: FxHashMap<InodeId, SimTime>,
    /// When each delegation point was created by a split (consolidation
    /// protection until it has had a chance to migrate).
    pub(crate) split_at: FxHashMap<InodeId, SimTime>,
    /// Exponentially smoothed load per node (heartbeat granularity).
    pub(crate) hb_ewma: Vec<f64>,
    /// Consecutive heartbeats each node has been over the imbalance
    /// threshold; migration needs persistence, not a noisy spike.
    pub(crate) busy_streak: Vec<u32>,
    /// Optional migration audit trail for tests: records the liveness of
    /// both endpoints at migration time. `None` (the default) costs one
    /// untaken branch per migration.
    pub migration_log: Option<Vec<MigrationRecord>>,

    // --- failover state (§2.1.2) ---------------------------------------
    /// Liveness per node.
    pub(crate) alive: Vec<bool>,

    // --- fault injection & retry (this crate's `fault` module) ----------
    /// Dedicated stream for fault draws (retry jitter, message loss and
    /// duplication). Fault-free runs never draw from it, keeping them
    /// byte-identical to builds without fault injection.
    pub(crate) fault_rng: SimRng,
    /// Active network fault window, if any.
    pub(crate) net_fault: Option<NetFaultSpec>,
    /// Operations issued by clients (including lease-served ones).
    pub ops_issued: u64,
    /// Operations that reached a terminal outcome (reply, ESTALE reply,
    /// or gave-up).
    pub ops_completed: u64,

    // --- accounting -----------------------------------------------------
    /// Cluster-wide event counts over the whole run.
    pub counters: ClusterCounters,
    /// `counters` when measurement last restarted.
    pub(crate) measure_base: ClusterCounters,
    /// Served operations, indexed by `OpKind as usize` (MDS-visible;
    /// lease-served reads are not included).
    pub op_counts: [u64; 12],

    // --- shared writes (§4.2, GPFS-style) ------------------------------
    /// Items with outstanding replica-absorbed write deltas.
    pub(crate) dirty_shared: FxHashSet<InodeId>,

    // --- hotspot proxy tier (ROADMAP item 4) ----------------------------
    /// The proxies fronting the cluster (empty = tier disabled; every
    /// proxy code path is gated on non-emptiness so proxy-off runs are
    /// byte-identical to pre-proxy builds).
    pub(crate) proxies: Vec<dynmds_proxy::ProxyCore>,
    /// Items with coalesced proxy write deltas not yet at the authority.
    pub(crate) proxy_dirty: FxHashSet<InodeId>,

    // --- observability ---------------------------------------------------
    /// Op-trace spans; inert (one branch per hook) unless tracing is
    /// enabled through [`SimConfig::obs`].
    pub obs: ClusterObs,
    /// DST probe (applied-op log + protocol invariants); absent unless a
    /// simulation-testing harness calls [`enable_dst_probe`]. Costs one
    /// untaken branch per hook when off, like `obs`.
    ///
    /// [`enable_dst_probe`]: Cluster::enable_dst_probe
    pub probe: Option<Box<crate::check::DstProbe>>,

    // --- metrics --------------------------------------------------------
    pub(crate) measure_start: SimTime,
    /// Per-node sample series: one row per sampling window since
    /// measurement last restarted.
    pub samples: SnapshotSeries,
    pub(crate) latency: Summary,
}

impl Cluster {
    /// Builds the cluster over a generated snapshot and workload.
    pub fn new(cfg: SimConfig, snapshot: Snapshot, workload: Box<dyn Workload>) -> Self {
        let ns = snapshot.ns;
        let partition = Partition::initial(cfg.strategy, &ns, cfg.n_mds);
        let layout = if cfg.strategy.embeds_inodes() && !cfg.force_inode_table {
            StoreLayout::EmbeddedDirectories
        } else {
            StoreLayout::InodeTable
        };
        let store = MetadataStore::new(layout, OsdPool::new(cfg.n_osds, cfg.costs.osd_disk));
        let mut nodes: Vec<MdsNode> =
            (0..cfg.n_mds).map(|i| MdsNode::new(MdsId(i), &cfg)).collect();
        // The root is known to (and cached by) every node from the start.
        for n in &mut nodes {
            n.cache.insert(ns.root(), None, InsertKind::Prefix);
        }
        let mut clients = ClientPool::new(cfg.n_clients, cfg.n_mds, cfg.seed);
        for c in 0..cfg.n_clients {
            let uid = workload.uid_of(ClientId(c));
            clients.set_uid(ClientId(c), uid);
        }
        let n = cfg.n_mds as usize;
        Cluster {
            rng: SimRng::seed_from_u64(cfg.seed ^ 0x5EED),
            ns,
            partition,
            store,
            anchors: AnchorTable::new(),
            nodes,
            clients,
            workload,
            replicated: FxHashSet::default(),
            hashed_dirs: FxHashSet::default(),
            imported: vec![Vec::new(); n],
            subtree_ops: FxHashMap::default(),
            last_migrated: FxHashMap::default(),
            split_at: FxHashMap::default(),
            hb_ewma: vec![0.0; n],
            busy_streak: vec![0; n],
            migration_log: None,
            alive: vec![true; n],
            fault_rng: SimRng::seed_from_u64(cfg.seed ^ 0xFA17),
            net_fault: None,
            ops_issued: 0,
            ops_completed: 0,
            counters: ClusterCounters::default(),
            measure_base: ClusterCounters::default(),
            op_counts: [0; 12],
            dirty_shared: FxHashSet::default(),
            proxies: (0..cfg.proxy.count)
                .map(|_| dynmds_proxy::ProxyCore::new(&cfg.proxy))
                .collect(),
            proxy_dirty: FxHashSet::default(),
            obs: ClusterObs::new(cfg.obs, cfg.n_clients as usize),
            probe: None,
            measure_start: SimTime::ZERO,
            samples: sample_series(n),
            latency: Summary::new(),
            cfg,
        }
    }

    /// Attaches a fresh [`DstProbe`](crate::check::DstProbe) so a DST
    /// harness can drain the applied-op log and protocol-invariant
    /// violations. Purely observational: enabling it never changes the
    /// simulation's behaviour or its RNG draws.
    pub fn enable_dst_probe(&mut self) {
        self.probe = Some(Box::new(crate::check::DstProbe::new(self.cfg.n_clients as usize)));
    }

    /// The shared state the serve core reads.
    pub fn view(&self) -> View<'_> {
        View {
            cfg: &self.cfg,
            ns: &self.ns,
            partition: &self.partition,
            hashed_dirs: &self.hashed_dirs,
            replicated: &self.replicated,
            alive: &self.alive,
            layout: self.store.layout(),
        }
    }

    /// The authoritative MDS for `id` ([`View::authority_of`]).
    pub fn authority_of(&self, id: InodeId) -> MdsId {
        self.view().authority_of(id)
    }

    /// The authoritative MDS for an *operation*: like
    /// [`authority_of`](Cluster::authority_of) on the target, except that
    /// namespace operations naming an entry of a hashed directory are
    /// owned by the entry's hash — "the authority for a given directory
    /// entry is defined by a hash of the file name and the directory inode
    /// number", letting creates into one huge directory spread across the
    /// whole cluster (§4.3).
    pub fn authority_for_op(&self, op: &Op) -> MdsId {
        if !self.hashed_dirs.is_empty() {
            let entry = match op {
                Op::Create { dir, name }
                | Op::Mkdir { dir, name }
                | Op::Unlink { dir, name }
                | Op::Rename { dir, name, .. }
                | Op::Link { dir, name, .. } => Some((*dir, name.as_str())),
                _ => None,
            };
            if let Some((dir, name)) = entry {
                if self.hashed_dirs.contains(&dir) {
                    return dentry_hash(dir, name, self.cfg.n_mds);
                }
            }
        }
        self.authority_of(op.target())
    }

    /// Whether this op qualifies for replica-absorbed shared writing:
    /// monotone size/mtime updates to a replicated, non-directory item.
    fn is_shared_write(&self, op: &Op) -> bool {
        self.cfg.shared_writes
            && self.cfg.strategy.is_subtree()
            && matches!(op, Op::Close(_) | Op::SetAttr(_))
            && self.replicated.contains(&op.target())
            && !self.ns.is_dir(op.target())
    }

    /// Restarts measurement: clears series, latency, cache statistics and
    /// proxy counters, and stores the readings that each node's
    /// [`measured`](MdsNode::measured) and
    /// [`measured_counters`](Cluster::measured_counters) subtract. Each
    /// node's heartbeat window carries across, so the first measured
    /// heartbeat still sees the warm-up ops since the one before it.
    /// Called after warm-up.
    pub fn reset_measurement(&mut self, now: SimTime) {
        self.measure_start = now;
        self.samples.reset();
        self.latency = Summary::new();
        for n in &mut self.nodes {
            n.reset_measurement();
        }
        for p in &mut self.proxies {
            p.reset_stats();
        }
        self.measure_base = self.counters;
        self.obs.reset();
    }

    /// Cluster-wide event counts since measurement last restarted.
    pub fn measured_counters(&self) -> ClusterCounters {
        self.counters.since(&self.measure_base)
    }

    /// Builds the final report.
    pub fn into_report(self, end: SimTime) -> SimReport {
        let obs = self.obs.export(&self);
        let nodes = self.nodes.iter().map(MdsNode::snapshot).collect();
        SimReport {
            strategy: self.cfg.strategy,
            n_mds: self.cfg.n_mds,
            measure_start: self.measure_start,
            measure_end: end,
            samples: self.samples,
            latency: self.latency,
            nodes,
            obs,
        }
    }

    // ================= event handlers ==================================

    fn on_issue(&mut self, now: SimTime, client: ClientId, queue: &mut EventQueue<SimEvent>) {
        let op = self.workload.next_op(&self.ns, client, now);
        let target = op.target();
        self.ops_issued += 1;
        self.obs.on_issue(now, client.0, crate::obs::op_kind_tag(op.kind()));
        if let Some(p) = self.probe.as_deref_mut() {
            p.on_issue(client);
        }
        // §4.2 client leases: attribute reads under a live lease never
        // leave the client.
        if self.cfg.client_leases
            && matches!(op, Op::Stat(_) | Op::Readdir(_))
            && self.ns.is_alive(target)
            && self.clients.lease_valid(client, target, now)
        {
            let local = SimDuration::from_micros(20);
            self.counters.lease_hits += 1;
            self.latency.record(local.as_secs_f64());
            self.obs.span(client.0, SpanStage::LeaseLocal, now, NO_MDS);
            self.obs.finish(client.0, SpanStage::Reply, now + local, NO_MDS);
            queue.schedule(now + local, SimEvent::Reply { client });
            return;
        }
        // Hotspot proxy tier (ROADMAP item 4): the client's proxy observes
        // every op; hot traffic is absorbed or relayed at the proxy, cold
        // traffic falls through to the pre-proxy path untouched.
        let op = if self.proxies.is_empty() {
            op
        } else {
            match self.proxy_route(now, client, op, queue) {
                Some(op) => op,
                None => return,
            }
        };
        // Subtree strategies: deepest-known-prefix routing (clients are
        // initially ignorant). Hashed strategies: the client computes the
        // placement itself and goes straight to the mapped server.
        let dest = if self.cfg.strategy.is_subtree() {
            // Possibly stale or dead — corrected by forwarding/timeout.
            self.clients.route(&self.ns, client, target)
        } else {
            // Hashed clients know the placement function, but *not* the
            // cluster's liveness map: they address the mapped server and
            // discover failures the same way subtree clients do — by
            // timing out and re-driving at a survivor.
            self.authority_for_op(&op)
        };
        let req = Request {
            client,
            uid: self.clients.uid(client),
            op,
            issued_at: now,
            hops: 0,
            retries: 0,
            via_proxy: false,
        };
        self.send_to_mds(now, dest, req, queue);
    }

    /// Routes one op through the client's proxy. Returns `Some(op)` when
    /// the target is cold (bypass: the caller continues on the pre-proxy
    /// path, which draws and emits exactly what it would without the
    /// tier), `None` when the proxy handled it — either absorbed outright
    /// (negative lookup / hot cached read / coalesced monotone write) or
    /// relayed to the authority with `via_proxy` set so the reply teaches
    /// the proxy's caches.
    fn proxy_route(
        &mut self,
        now: SimTime,
        client: ClientId,
        op: Op,
        queue: &mut EventQueue<SimEvent>,
    ) -> Option<Op> {
        let p = client.0 as usize % self.proxies.len();
        let target = op.target();
        let hot = self.proxies[p].observe(target, now);
        let cpu = dynmds_proxy::PROXY_CPU;
        // Absorbed answers cost client→proxy→client plus the proxy's CPU.
        let reply_at = now + self.cfg.costs.net_hop.saturating_mul(2) + cpu;

        // 1. Negative-lookup cache: a name known to be absent is answered
        //    at the proxy regardless of heat (the entry only exists
        //    because the item was hot enough to route here before).
        if let Op::Lookup { dir, name } = &op {
            if self.proxies[p].neg_lookup(*dir, name) {
                if let Some(probe) = self.probe.as_deref_mut() {
                    probe.on_proxy_neg_serve(now, client, *dir, name);
                }
                self.finish_at_proxy(now, client, reply_at, queue);
                return None;
            }
        }

        if !hot {
            return Some(op);
        }

        // 2. Hot read the proxy has read through, with no unflushed
        //    deltas that could make the cached copy stale.
        if !op.is_update() && self.ns.is_alive(target) && self.proxies[p].absorb_read(target) {
            if let Some(probe) = self.probe.as_deref_mut() {
                probe.on_proxy_read_serve(now, client, target);
            }
            self.finish_at_proxy(now, client, reply_at, queue);
            return None;
        }

        // 3. Coalesce monotone size/mtime bumps against a hot file: ack
        //    immediately, fold into one delta per item, push at the next
        //    heartbeat (or earlier, when a read forces a gather).
        if matches!(op, Op::Close(_) | Op::SetAttr(_))
            && self.ns.is_alive(target)
            && !self.ns.is_dir(target)
        {
            self.proxies[p].absorb_write(target);
            self.proxy_dirty.insert(target);
            self.finish_at_proxy(now, client, reply_at, queue);
            return None;
        }

        // 4. Hot but not absorbable: relay to the authority. One proxy
        //    hop replaces the client's own (possibly stale) routing.
        self.proxies[p].note_forwarded();
        let dest = self.live_authority(self.authority_for_op(&op));
        let req = Request {
            client,
            uid: self.clients.uid(client),
            op,
            issued_at: now,
            hops: 0,
            retries: 0,
            via_proxy: true,
        };
        self.send_to_mds(now + cpu, dest, req, queue);
        None
    }

    /// Completes an op absorbed at a proxy: latency sample, obs span,
    /// reply to the client. The cluster never saw the op.
    fn finish_at_proxy(
        &mut self,
        now: SimTime,
        client: ClientId,
        reply_at: SimTime,
        queue: &mut EventQueue<SimEvent>,
    ) {
        self.latency.record(reply_at.saturating_since(now).as_secs_f64());
        self.obs.finish(client.0, SpanStage::Reply, reply_at, NO_MDS);
        queue.schedule(reply_at, SimEvent::Reply { client });
    }

    /// The proxy tier's counters summed over every proxy (all zero
    /// when the tier is off).
    pub fn proxy_stats(&self) -> dynmds_proxy::ProxyStats {
        self.proxies.iter().map(|p| p.stats()).sum()
    }

    /// Puts a request on the wire towards `mds` at `at`, applying the
    /// active network fault window: a lost send is discovered by the
    /// client's timeout and re-driven through the retry policy; a
    /// duplicated send costs the receiver a discard.
    fn send_to_mds(
        &mut self,
        at: SimTime,
        mds: MdsId,
        req: Request,
        queue: &mut EventQueue<SimEvent>,
    ) {
        if let Some(nf) = self.net_fault {
            if nf.loss_p > 0.0 && self.fault_rng.chance(nf.loss_p) {
                self.counters.net_lost += 1;
                self.drive_retry(at + crate::failover::FAILOVER_TIMEOUT, req, queue);
                return;
            }
            if nf.dup_p > 0.0 && self.fault_rng.chance(nf.dup_p) {
                self.counters.net_dup += 1;
                queue.schedule(at + self.cfg.costs.net_hop, SimEvent::NetDup { mds });
            }
        }
        queue.schedule(at + self.cfg.costs.net_hop, SimEvent::Arrive { mds, req });
    }

    /// Client-side recovery after a failed delivery (dead-node timeout or
    /// lost message), detected at `detect_at`: capped retries with
    /// exponential backoff and seeded jitter, then a terminal gave-up.
    fn drive_retry(
        &mut self,
        detect_at: SimTime,
        mut req: Request,
        queue: &mut EventQueue<SimEvent>,
    ) {
        req.retries = req.retries.saturating_add(1);
        if req.retries > self.cfg.retry.max_retries {
            // Terminal outcome: the op is abandoned. No latency sample is
            // recorded (the op never completed) and the client moves on.
            self.counters.gave_up += 1;
            self.obs.finish(req.client.0, SpanStage::GaveUp, detect_at, NO_MDS);
            if let Some(p) = self.probe.as_deref_mut() {
                p.on_gave_up(detect_at, req.client, req.retries, self.cfg.retry.max_retries);
            }
            queue.schedule(detect_at, SimEvent::Reply { client: req.client });
            return;
        }
        self.counters.retries += 1;
        self.obs.span(req.client.0, SpanStage::Retry, detect_at, NO_MDS);
        let delay = self.cfg.retry.delay(req.retries, &mut self.fault_rng);
        let heir = self.live_authority(self.authority_for_op(&req.op));
        self.send_to_mds(detect_at + delay, heir, req, queue);
    }

    fn on_arrive(
        &mut self,
        now: SimTime,
        mds: MdsId,
        req: Request,
        queue: &mut EventQueue<SimEvent>,
    ) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.on_arrive(now, req.client, req.hops, req.retries);
        }
        // A dead host never answers: the request times out client-side
        // and is re-driven at the live authority through the retry
        // policy. Hops are preserved — a request that keeps landing on
        // dying nodes must not evade the forwarding bound.
        if !self.alive[mds.index()] {
            self.counters.failover_timeouts += 1;
            self.obs.span(req.client.0, SpanStage::DeadTimeout, now, mds.0);
            self.drive_retry(now + crate::failover::FAILOVER_TIMEOUT, req, queue);
            return;
        }

        let i = mds.index();
        self.nodes[i].life.received += 1;
        self.obs.span(req.client.0, SpanStage::Arrive, now, mds.0);

        let target = req.op.target();
        if !self.ns.is_alive(target) {
            // Raced with an unlink: cheap ESTALE reply.
            self.counters.estale += 1;
            self.obs.span(req.client.0, SpanStage::Estale, now, mds.0);
            let done = self.nodes[i].occupy(now, self.cfg.costs.cpu_forward);
            self.finish(mds, req, done, queue);
            return;
        }

        let auth = self.live_authority(self.authority_for_op(&req.op));
        let replica_read = !req.op.is_update()
            && self.replicated.contains(&target)
            && self.cfg.strategy.is_subtree();
        // §4.2 shared writes: size/mtime updates to a replicated file are
        // absorbed wherever they land and merged at the authority later.
        let shared_write = self.is_shared_write(&req.op);
        if mds != auth && !replica_read && !shared_write && req.hops < 3 {
            // Forward to the authority (§4.2: "it will ordinarily forward
            // the request to the authority").
            self.nodes[i].life.forwarded += 1;
            self.obs.span(req.client.0, SpanStage::Forward, now, mds.0);
            if let Some(p) = self.probe.as_deref_mut() {
                p.on_forward(now, req.client);
            }
            let done = self.nodes[i].occupy(now, self.cfg.costs.cpu_forward);
            let mut fwd = req;
            fwd.hops += 1;
            self.send_to_mds(done, auth, fwd, queue);
            return;
        }

        if mds != auth {
            // Serving without authority: a replica read or an absorbed
            // shared write.
            self.nodes[i].life.replica_serves += 1;
        }
        let reply_at = self.with_peers(i, |node, peers| serve(now, node, &req, peers));
        self.finish(mds, req, reply_at, queue);
    }
}

impl ClusterPeers<'_> {
    /// Applies a mutation to the namespace, journals it at `node`, and
    /// handles strategy-specific side effects. Returns the commit
    /// completion time.
    pub(crate) fn apply_update(
        &mut self,
        now: SimTime,
        node: &mut MdsNode,
        req: &Request,
    ) -> SimTime {
        let c = &mut *self.c;
        let mut touched: Vec<InodeId> = Vec::with_capacity(2);
        // DST bookkeeping (inert without a probe): the primary inode the
        // mutation touched, and whether it was replica-absorbed.
        let mut primary: Option<InodeId> = None;
        let mut shared_absorbed = false;

        match &req.op {
            Op::Close(f) | Op::SetAttr(f) => {
                if c.is_shared_write(&req.op) {
                    // Absorb at this replica; the authority merges later
                    // (§4.2: "replicas serving concurrent writers can
                    // periodically send their most recent value").
                    let e = node.write_deltas.entry(*f).or_insert((0, 0));
                    if matches!(req.op, Op::Close(_)) {
                        e.0 += 4096;
                    }
                    e.1 = e.1.max(now.as_micros());
                    c.dirty_shared.insert(*f);
                    node.life.shared_absorbed += 1;
                    touched.push(*f);
                    primary = Some(*f);
                    shared_absorbed = true;
                } else if c
                    .ns
                    .update_inode(*f, |ino| {
                        ino.mtime_us = now.as_micros();
                        if matches!(req.op, Op::Close(_)) {
                            ino.size = ino.size.saturating_add(4096);
                        }
                    })
                    .is_ok()
                {
                    touched.push(*f);
                    primary = Some(*f);
                }
            }
            Op::Create { dir, name } | Op::Mkdir { dir, name } => {
                let made = if matches!(req.op, Op::Create { .. }) {
                    c.ns.create_file(*dir, name, Permissions::shared(req.uid))
                } else {
                    c.ns.mkdir(*dir, name, Permissions::directory(req.uid))
                };
                if let Ok(id) = made {
                    c.partition.refresh(&c.ns, id);
                    node.install(&c.ns, id, InsertKind::Target);
                    touched.push(id);
                    touched.push(*dir);
                    primary = Some(id);
                }
            }
            Op::Unlink { dir, name } => {
                if let Ok(id) = c.ns.unlink(*dir, name) {
                    // A death or a promoted surviving link.
                    c.partition.refresh(&c.ns, id);
                    primary = Some(id);
                    if c.ns.is_alive(id) {
                        // A hard link was dropped; if only one link
                        // remains the inode no longer needs anchoring.
                        if c.ns.inode(id).map(|i| i.nlink).unwrap_or(0) <= 1
                            && c.anchors.contains(id)
                        {
                            c.anchors.unanchor(id);
                        } else if c.anchors.contains(id) {
                            // The removed dentry may have been the primary:
                            // the namespace promotes a surviving link, so
                            // the inode's parent can change and the anchor
                            // chain must be retargeted (no-op otherwise).
                            c.anchors.on_rename(&c.ns, id);
                        }
                    } else {
                        if c.anchors.contains(id) {
                            c.anchors.unanchor(id);
                        }
                        for n in all_nodes(self.lo, &mut *node, self.hi) {
                            let _ = n.cache.remove(id);
                            n.popularity.forget(id);
                        }
                        c.replicated.remove(&id);
                    }
                    touched.push(*dir);
                }
            }
            Op::Link { target, dir, name } if c.ns.link(*target, *dir, name).is_ok() => {
                // First extra link anchors the inode so it stays
                // locatable without a path (§4.5).
                if !c.anchors.contains(*target) {
                    c.anchors.anchor(&c.ns, *target);
                }
                touched.push(*target);
                touched.push(*dir);
                primary = Some(*target);
            }
            Op::Rename { dir, name, new_name } => {
                if let Ok(id) = c.ns.rename(*dir, name, *dir, new_name) {
                    c.partition.refresh(&c.ns, id);
                    if c.ns.is_dir(id) {
                        c.anchors.on_rename(&c.ns, id);
                        if let Some(lh) = c.partition.as_lazy_mut() {
                            lh.on_dir_move(id);
                        }
                        invalidate_replicas(all_nodes(self.lo, &mut *node, self.hi), id);
                    }
                    touched.push(*dir);
                    touched.push(id);
                    primary = Some(id);
                }
            }
            Op::Chmod { target, mode } if c.ns.chmod(*target, *mode).is_ok() => {
                if c.ns.is_dir(*target) {
                    if let Some(lh) = c.partition.as_lazy_mut() {
                        lh.on_dir_permission_change(*target);
                    }
                    invalidate_replicas(all_nodes(self.lo, &mut *node, self.hi), *target);
                }
                touched.push(*target);
                primary = Some(*target);
            }
            _ => {}
        }

        // Synchronous proxy invalidation: a committed mutation that can
        // change a name binding or an item's attributes retracts every
        // proxy's matching cache entries before the reply leaves, so a
        // proxy can never serve state older than an acked mutation.
        if !c.proxies.is_empty() && !touched.is_empty() {
            c.proxy_invalidate(&req.op, primary);
        }

        if let Some(p) = c.probe.as_deref_mut() {
            p.on_applied(
                now,
                node.id,
                req.client,
                req.uid,
                &req.op,
                !touched.is_empty(),
                primary,
                shared_absorbed,
            );
        }
        if touched.is_empty() {
            return now; // failed op: error reply, nothing committed
        }

        // Tier-1 commit: journal append on this node's journal device; the
        // reply waits for it ("all metadata transactions must be quickly
        // written to stable storage", §4.6).
        let (jdone, writebacks) = node.commit(now, &touched);
        c.obs.span(req.client.0, SpanStage::Journal, jdone, node.id.0);
        // Retired entries stream to tier 2 asynchronously (don't block the
        // reply, do consume pool throughput).
        for wb in writebacks {
            c.store.writeback(now, &c.ns, wb);
        }
        jdone
    }
}

/// Coherence callbacks for an updated item that other nodes replicate:
/// the authority notifies every replica (§4.2). Counted; the replica
/// entries stay cached (callback-updated, not discarded).
fn invalidate_replicas<'b>(nodes: impl Iterator<Item = &'b mut MdsNode>, id: InodeId) {
    for n in nodes {
        if n.cache.peek(id) {
            n.life.invalidations += 1;
        }
    }
}

impl Cluster {
    /// Retracts proxy cache entries made stale by a committed mutation.
    /// Runs on the authority's apply path (before the reply), mirroring
    /// the §4.2 replica callbacks: binding changes kill the directory's
    /// negative entries and cached readdir state, attribute changes kill
    /// the item's cached copy, and a dead inode is purged everywhere.
    fn proxy_invalidate(&mut self, op: &Op, primary: Option<InodeId>) {
        match op {
            Op::Create { dir, name } | Op::Mkdir { dir, name } | Op::Link { dir, name, .. } => {
                for p in &mut self.proxies {
                    p.invalidate_name(*dir, name);
                }
            }
            Op::Rename { dir, name, new_name } => {
                for p in &mut self.proxies {
                    p.invalidate_name(*dir, new_name);
                    p.invalidate_name(*dir, name);
                }
            }
            Op::Unlink { dir, .. } => {
                let dead = primary.filter(|&id| !self.ns.is_alive(id));
                for p in &mut self.proxies {
                    p.dir_mutated(*dir);
                    if let Some(id) = dead {
                        p.forget_item(id);
                    }
                }
            }
            Op::Close(f) | Op::SetAttr(f) => {
                for p in &mut self.proxies {
                    p.invalidate_item(*f);
                }
            }
            Op::Chmod { target, .. } => {
                for p in &mut self.proxies {
                    p.invalidate_item(*target);
                }
            }
            _ => {}
        }
    }

    /// Completes a request: schedules the reply and teaches the client
    /// where this part of the hierarchy lives.
    fn finish(
        &mut self,
        mds: MdsId,
        req: Request,
        reply_at: SimTime,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let target = req.op.target();
        // A relayed request's reply teaches the proxy's caches: a lookup
        // that found nothing seeds the negative cache, any other read
        // seeds the read-through cache.
        if req.via_proxy && !self.proxies.is_empty() {
            let p = req.client.0 as usize % self.proxies.len();
            match &req.op {
                Op::Lookup { dir, name } if self.ns.lookup(*dir, name).is_err() => {
                    self.proxies[p].note_negative(*dir, name);
                }
                // A lookup hit teaches nothing: only the authority's
                // "no such entry" verdict is cacheable at the proxy.
                Op::Lookup { .. } => {}
                op if !op.is_update() && self.ns.is_alive(target) => {
                    self.proxies[p].note_cached(target);
                }
                _ => {}
            }
        }
        if self.cfg.strategy.is_subtree() {
            if self.replicated.contains(&target) {
                self.clients.learn(req.client, target, KnownLocation::Everywhere);
            } else if self.ns.is_alive(target) {
                if let Some(sub) = self.partition.as_subtree() {
                    let root = sub.subtree_root_of(&self.ns, target);
                    self.clients.learn(
                        req.client,
                        root,
                        KnownLocation::Single(self.authority_of(target)),
                    );
                }
            }
        }
        let mut arrive = reply_at + self.cfg.costs.net_hop;
        if let Some(nf) = self.net_fault {
            if nf.loss_p > 0.0 && self.fault_rng.chance(nf.loss_p) {
                // Lost reply: the client's retransmission hits the
                // server's reply cache — modelled as a delayed delivery,
                // so the extra wait lands in the latency sample without
                // re-applying the operation.
                self.counters.net_lost += 1;
                arrive += crate::failover::FAILOVER_TIMEOUT;
            }
            if nf.dup_p > 0.0 && self.fault_rng.chance(nf.dup_p) {
                // Duplicate reply: discarded by the client; counted only.
                self.counters.net_dup += 1;
            }
        }
        // Attribute-read replies piggyback a lease (§4.2).
        if self.cfg.client_leases && !req.op.is_update() && self.ns.is_alive(target) {
            self.clients.grant_lease(req.client, target, arrive + self.cfg.lease_ttl);
        }
        self.latency.record(arrive.saturating_since(req.issued_at).as_secs_f64());
        self.obs.finish(req.client.0, SpanStage::Reply, arrive, mds.0);
        queue.schedule(arrive, SimEvent::Reply { client: req.client });
    }

    fn on_sample(&mut self, now: SimTime, queue: &mut EventQueue<SimEvent>) {
        let row = sample_row(self.nodes.len(), &mut self.nodes, &self.alive, &self.partition);
        self.samples.push_row(now.as_micros(), row);
        queue.schedule(now + self.cfg.sample_every, SimEvent::Sample);
    }
}

impl Cluster {
    /// Handles one event at virtual time `now`; follow-up events go into
    /// `queue` at `now` or later. [`Simulation`](crate::Simulation) calls
    /// this for every event it dispatches.
    pub fn handle(&mut self, now: SimTime, event: SimEvent, queue: &mut EventQueue<SimEvent>) {
        match event {
            SimEvent::Issue(client) => self.on_issue(now, client, queue),
            SimEvent::Arrive { mds, req } => self.on_arrive(now, mds, req, queue),
            SimEvent::Reply { client } => {
                self.ops_completed += 1;
                // think_scale is exactly 1.0 for every stationary workload,
                // and `mean * 1.0 == mean` bit-for-bit, so only diurnal /
                // bursty generators perturb the draw.
                let mean =
                    self.cfg.costs.think_mean.as_micros() as f64 * self.workload.think_scale(now);
                let think_us = self.rng.exponential(mean) as u64;
                queue.schedule(now + SimDuration::from_micros(think_us), SimEvent::Issue(client));
            }
            SimEvent::Heartbeat => {
                self.heartbeat(now);
                queue.schedule(now + self.cfg.heartbeat, SimEvent::Heartbeat);
            }
            SimEvent::Sample => self.on_sample(now, queue),
            SimEvent::Fault(step) => self.apply_fault(now, step),
            SimEvent::NetDup { mds } => {
                // A duplicated delivery: the server spends a discard's
                // worth of CPU recognizing the replayed request.
                if self.alive[mds.index()] {
                    self.nodes[mds.index()].occupy(now, self.cfg.costs.cpu_forward);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use dynmds_event::{EventQueue, SimTime};
    use dynmds_namespace::{ClientId, MdsId};
    use dynmds_partition::StrategyKind;
    use dynmds_workload::Op;

    use crate::request::{Request, SimEvent};
    use crate::testutil::tiny_cluster;

    fn request(op: Op) -> Request {
        Request {
            client: ClientId(0),
            uid: 1,
            op,
            issued_at: SimTime::from_millis(1),
            hops: 0,
            retries: 0,
            via_proxy: false,
        }
    }

    #[test]
    fn wrong_node_forwards_to_authority() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let file = c.ns.walk(c.ns.root()).find(|&i| !c.ns.is_dir(i)).unwrap();
        let auth = c.authority_of(file);
        let wrong = MdsId((auth.0 + 1) % 4);
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        c.handle(
            SimTime::from_millis(1),
            SimEvent::Arrive { mds: wrong, req: request(Op::Stat(file)) },
            &mut q,
        );
        assert_eq!(c.nodes[wrong.index()].life.forwarded, 1);
        assert_eq!(c.nodes[wrong.index()].life.served, 0);
        // The forwarded copy is queued for the authority.
        let ev = q.pop().expect("forwarded event");
        match ev.event {
            SimEvent::Arrive { mds, req } => {
                assert_eq!(mds, auth);
                assert_eq!(req.hops, 1);
            }
            other => panic!("expected Arrive, got {other:?}"),
        }
    }

    #[test]
    fn authority_serves_and_replies() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let file = c.ns.walk(c.ns.root()).find(|&i| !c.ns.is_dir(i)).unwrap();
        let auth = c.authority_of(file);
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        c.handle(
            SimTime::from_millis(1),
            SimEvent::Arrive { mds: auth, req: request(Op::Stat(file)) },
            &mut q,
        );
        assert_eq!(c.nodes[auth.index()].life.served, 1);
        assert!(c.nodes[auth.index()].cache.peek(file), "target cached after serve");
        // Prefix chain cached and pinned.
        for anc in c.ns.ancestors(file) {
            assert!(c.nodes[auth.index()].cache.peek(anc), "prefix {anc} cached");
        }
        // Reply scheduled; the client learned a route for the subtree.
        let ev = q.pop().expect("reply event");
        assert!(matches!(ev.event, SimEvent::Reply { client } if client == ClientId(0)));
        let sub = c.partition.as_subtree().unwrap();
        let root = sub.subtree_root_of(&c.ns, file);
        assert!(c.clients.knows(ClientId(0), root), "route learned from the reply");
    }

    #[test]
    fn stale_target_gets_cheap_reply() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let file = c.ns.walk(c.ns.root()).find(|&i| !c.ns.is_dir(i)).unwrap();
        let parent = c.ns.parent(file).unwrap().unwrap();
        let name = c.ns.name(file).unwrap().to_string();
        c.ns.unlink(parent, &name).unwrap();
        c.partition.refresh(&c.ns, file);
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        c.handle(
            SimTime::from_millis(1),
            SimEvent::Arrive { mds: MdsId(0), req: request(Op::Stat(file)) },
            &mut q,
        );
        assert_eq!(c.nodes[0].life.served, 0, "ESTALE is not a served op");
        assert_eq!(c.nodes[0].life.forwarded, 0);
        assert_eq!(c.nodes[0].life.received, 1);
        assert!(matches!(q.pop().unwrap().event, SimEvent::Reply { .. }));
    }

    #[test]
    fn create_lands_in_namespace_and_journal() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let dir = c.ns.resolve("/home/user0000").unwrap();
        let auth = c.authority_of(dir);
        let before = c.ns.total_items();
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        c.handle(
            SimTime::from_millis(1),
            SimEvent::Arrive {
                mds: auth,
                req: request(Op::Create { dir, name: "newfile".into() }),
            },
            &mut q,
        );
        assert_eq!(c.ns.total_items(), before + 1);
        let id = c.ns.lookup(dir, "newfile").unwrap();
        assert!(c.nodes[auth.index()].cache.peek(id), "new inode cached at creator");
        assert!(c.nodes[auth.index()].journal.contains(id), "journaled");
    }

    #[test]
    fn lazy_hybrid_serve_applies_pending_updates() {
        let mut c = tiny_cluster(StrategyKind::LazyHybrid);
        let file = c.ns.walk(c.ns.root()).find(|&i| !c.ns.is_dir(i)).unwrap();
        let parent = c.ns.parent(file).unwrap().unwrap();
        c.partition.as_lazy_mut().unwrap().on_dir_permission_change(parent);
        let auth = c.authority_of(file);
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        c.handle(
            SimTime::from_millis(1),
            SimEvent::Arrive { mds: auth, req: request(Op::Stat(file)) },
            &mut q,
        );
        let lh = c.partition.as_lazy().unwrap();
        assert_eq!(lh.lifetime_stats().permission_updates, 1, "pending ACL applied on access");
        assert_eq!(lh.pending_for(&c.ns, file).total(), 0);
    }

    #[test]
    fn dead_node_retry_preserves_forwarding_hops() {
        // Regression: the re-driven request used to restart with hops = 0,
        // letting a request bounce through dead nodes forever without
        // tripping the forwarding bound.
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        let file = c.ns.walk(c.ns.root()).find(|&i| !c.ns.is_dir(i)).unwrap();
        let dead = MdsId((c.authority_of(file).0 + 1) % 4);
        c.fail_node(SimTime::from_millis(1), dead);
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        let mut req = request(Op::Stat(file));
        req.hops = 2;
        c.handle(SimTime::from_millis(1), SimEvent::Arrive { mds: dead, req }, &mut q);
        assert_eq!(c.counters.failover_timeouts, 1);
        assert_eq!(c.counters.retries, 1);
        let ev = q.pop().expect("re-driven request queued");
        match ev.event {
            SimEvent::Arrive { mds, req } => {
                assert!(c.is_alive_node(mds), "retry targets a live node");
                assert_eq!(req.hops, 2, "forwarding hops must survive the retry");
                assert_eq!(req.retries, 1, "retry count advances instead");
            }
            other => panic!("expected Arrive, got {other:?}"),
        }
    }

    #[test]
    fn retry_budget_exhaustion_gives_up_with_a_bare_reply() {
        let mut c = tiny_cluster(StrategyKind::DynamicSubtree);
        c.cfg.retry.max_retries = 0;
        let file = c.ns.walk(c.ns.root()).find(|&i| !c.ns.is_dir(i)).unwrap();
        let dead = MdsId((c.authority_of(file).0 + 1) % 4);
        c.fail_node(SimTime::from_millis(1), dead);
        let mut q: EventQueue<SimEvent> = EventQueue::new();
        c.handle(
            SimTime::from_millis(1),
            SimEvent::Arrive { mds: dead, req: request(Op::Stat(file)) },
            &mut q,
        );
        assert_eq!(c.counters.gave_up, 1);
        assert_eq!(c.counters.retries, 0, "an abandoned op is not a retry");
        let ev = q.pop().expect("terminal reply queued");
        assert!(
            matches!(ev.event, SimEvent::Reply { client } if client == ClientId(0)),
            "exhausted budget must release the client, got {:?}",
            ev.event
        );
        assert!(q.pop().is_none(), "nothing else scheduled for the abandoned op");
    }
}
