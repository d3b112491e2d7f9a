//! Sharded simulation core: one run over K event queues with
//! conservative time-window synchronization (ROADMAP item 2).
//!
//! The legacy [`Simulation`](crate::Simulation) dispatches every event of
//! a run from one queue. This module partitions the cluster — MDS nodes
//! in contiguous blocks, clients by index — into K *shards*, each with
//! its own [`EventQueue`], per-entity RNG streams and counters, and
//! executes them window by window:
//!
//! * **Window protocol.** Virtual time advances in windows of length
//!   `L = net_hop`, the minimum cross-shard message latency (the
//!   *lookahead* of classic conservative parallel discrete-event
//!   simulation). Within a window every shard runs independently; any
//!   message sent at `t` is delivered at `t + L`, which is provably at
//!   or past the next window boundary, so no shard can affect another
//!   mid-window.
//! * **Cross-shard queues.** All entity-to-entity messages (requests,
//!   forwards, replies, loss notifications) go through per-destination
//!   outboxes — even when source and destination share a shard. How the
//!   outboxes empty depends on how the window runs. A window the work
//!   gate keeps *inline* runs on the coordinator and makes no driver
//!   call: it steps only the shards with an event before the window end
//!   and, after each step, schedules that shard's outboxes straight into
//!   the destination queues. A *pooled* window goes through the driver,
//!   which steps every shard; at the end of its step a shard swaps each
//!   non-empty outbox into its `[parity][src][dst]` mail cell, the
//!   barrier hands each shard the list of sources that wrote to it, and
//!   the destination schedules that mail itself at the start of its next
//!   step (or, if the next window runs inline, the coordinator schedules
//!   it before stepping that window). A message lands at exactly `send + L`, at or past
//!   the end of the window it was sent in, and every same-timestamp batch
//!   is sorted by its canonical key, whose equal keys mean identical
//!   events; the order mail is queued in, and the order shards are
//!   stepped in, therefore cannot change the run.
//! * **Shard-count invariance.** The *report surface* (rendered report,
//!   CSV fields, obs exports) is identical for any K. The argument is
//!   that entity state evolves identically: (1) every same-timestamp
//!   event batch is sorted by a K-independent canonical key
//!   (event class, destination entity, source rank, per-source send
//!   sequence) before processing; (2) every RNG draw comes from a
//!   per-entity stream seeded from the entity id alone, consumed in that
//!   canonical order; (3) all follow-up delays are at least 1 µs, so a
//!   batch never grows while it is being processed; (4) same-timestamp
//!   events for *different* entities commute (they touch only their own
//!   entity's state plus commutative counters), so it does not matter
//!   that K=1 interleaves two entities' batches where K=2 runs them on
//!   different shards; (5) barrier-global steps (faults, heartbeat
//!   balancing, traffic-control replication, sampling) fire on the
//!   shared window grid with effects applied in global node order. By
//!   induction over windows, every K produces the same state trajectory.
//!
//! The sharded engine is a *separate, simplified model* from the legacy
//! cluster — close enough to exhibit the paper's phenomena at scale but
//! not event-identical to it (see DESIGN.md §11 for the documented
//! deviations: frozen namespace shape, exact-item client routing,
//! heartbeat-quantized traffic control, omniscient loss notification).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use dynmds_cache::{InsertKind, MetaCache, Popularity};
use dynmds_event::{EventQueue, SimDuration, SimRng, SimTime};
use dynmds_namespace::{ClientId, FxHashMap, FxHashSet, InodeId, MdsId, Snapshot};
use dynmds_obs::{Registry, SnapshotSeries};
use dynmds_partition::{Partition, StrategyKind};
use dynmds_proxy::{ProxyCore, ProxyStats};
use dynmds_storage::{AccessKind, DiskFault, DiskModel};
use dynmds_workload::Workload;

use crate::config::SimConfig;
use crate::elastic::{ElasticCtl, ScaleAction};
use crate::fault::{DiskScope, FaultEvent, NetFaultSpec, RetryPolicy};
use crate::node::MdsNode;
use crate::report::NodeSnapshot;

// ---------------------------------------------------------------------
// parallel driver injection
// ---------------------------------------------------------------------

/// Parallel fan-out driver: must invoke `body(i)` exactly once for every
/// `i < n` (concurrently is fine), honoring the `threads` override the
/// way the harness worker policy does. Installed once by the harness so
/// the shard loop shares its scoped worker pool; without one, shards run
/// serially in id order (identical results — the driver only changes
/// wall-clock). Only pooled windows call it, each with every shard;
/// inline windows run on the calling thread and never reach it.
pub type ParallelDriver = fn(usize, Option<usize>, &(dyn Fn(usize) + Sync));

static DRIVER: OnceLock<ParallelDriver> = OnceLock::new();

/// Installs the process-wide shard fan-out driver. First caller wins;
/// later calls are ignored.
pub fn install_parallel_driver(driver: ParallelDriver) {
    let _ = DRIVER.set(driver);
}

/// Runs `f` once on every shard: through `driver` when one is given (the
/// call site passes the installed one) and there is more than one shard,
/// else serially in id order. `threads` goes to the driver unchanged.
/// Claim flags turn a driver that dispatches a shard twice, or never,
/// into a panic instead of two `&mut` aliases or a skipped shard. The
/// caller owns the flags (one per shard, all clear) so a per-window
/// fan-out allocates nothing; the final check clears them again.
fn for_each_shard<S: Send>(
    shards: &mut [S],
    claims: &[AtomicBool],
    driver: Option<ParallelDriver>,
    threads: Option<usize>,
    f: impl Fn(&mut S) + Sync,
) {
    let Some(driver) = driver.filter(|_| shards.len() > 1) else {
        for s in shards.iter_mut() {
            f(s);
        }
        return;
    };
    struct Base<S>(*mut S);
    // SAFETY: the one field points at `shards`, which stays mutably
    // borrowed for the whole fan-out. A worker makes a `&mut S` only for
    // a shard it claimed, so each `S` is reached from one thread at a
    // time, and `S: Send` lets it be used on that thread.
    unsafe impl<S: Send> Sync for Base<S> {}
    impl<S> Base<S> {
        fn at(&self, i: usize) -> *mut S {
            // SAFETY: the only caller indexes `claims[i]` first, and
            // `claims` has one flag per shard, so `i` is in bounds.
            unsafe { self.0.add(i) }
        }
    }
    assert_eq!(claims.len(), shards.len(), "one claim flag per shard");
    let base = Base(shards.as_mut_ptr());
    driver(shards.len(), threads, &|i| {
        assert!(!claims[i].swap(true, Ordering::AcqRel), "driver dispatched shard {i} twice");
        // SAFETY: this call just claimed shard `i`, so no other `&mut`
        // to it exists while `f` runs.
        f(unsafe { &mut *base.at(i) });
    });
    for (i, c) in claims.iter().enumerate() {
        assert!(c.swap(false, Ordering::AcqRel), "driver never dispatched shard {i}");
    }
}

fn _thread_bounds() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<Shard>();
    sync::<World>();
    sync::<Mail>();
}

// ---------------------------------------------------------------------
// events & messages
// ---------------------------------------------------------------------

/// One sharded-engine event. Cross-entity variants carry `(src, seq)` —
/// a sender rank plus the sender's private send counter — the
/// K-independent part of the canonical ordering key.
#[derive(Clone, Debug)]
enum Ev {
    /// A client issues (or re-issues) its next operation.
    Issue(ClientId),
    /// Retry wakeup after a lost request/reply; stale once the client
    /// has moved past `op_seq`.
    Retry { client: ClientId, op_seq: u32 },
    /// A request arrives at a node. `hop` > 0 marks an intra-cluster
    /// forward (already counted at the first receiver).
    Request {
        node: MdsId,
        client: ClientId,
        op_seq: u32,
        item: InodeId,
        write: bool,
        hop: u8,
        src: u64,
        seq: u64,
    },
    /// A reply (or, with `ok == false`, the simulator's omniscient
    /// lost-message notification) arrives at a client. `from_proxy`
    /// marks answers absorbed at a proxy (no route or lease learned).
    Reply {
        client: ClientId,
        op_seq: u32,
        item: InodeId,
        server: MdsId,
        lease_until: u64,
        ok: bool,
        from_proxy: bool,
        src: u64,
        seq: u64,
    },
    /// A hot-item op arrives at proxy `p` (hotspot proxy tier).
    PReq { p: u16, client: ClientId, op_seq: u32, item: InodeId, write: bool, src: u64, seq: u64 },
    /// A coalesced write delta arrives at the authority from a proxy
    /// (heartbeat flush).
    Coalesced { node: MdsId, item: InodeId, delta: u64, src: u64, seq: u64 },
}

/// Sender ranks: nodes order before clients, clients before proxies,
/// each by id.
fn node_rank(m: MdsId) -> u64 {
    m.0 as u64
}
fn client_rank(c: ClientId) -> u64 {
    (1 << 32) | c.0 as u64
}
fn proxy_rank(p: u16) -> u64 {
    (2 << 32) | p as u64
}

/// Canonical same-timestamp ordering key — a pure function of the event
/// content, never of queue insertion order, so it is identical for every
/// shard count. `Coalesced` shares the node-inbound class with `Request`
/// (per-source send sequences keep the pairs totally ordered).
fn canonical_key(ev: &Ev) -> (u8, u64, u64, u64) {
    match ev {
        Ev::Request { node, src, seq, .. } => (0, node.0 as u64, *src, *seq),
        Ev::Coalesced { node, src, seq, .. } => (0, node.0 as u64, *src, *seq),
        Ev::Reply { client, src, seq, .. } => (1, client.0 as u64, *src, *seq),
        Ev::Retry { client, op_seq } => (2, client.0 as u64, *op_seq as u64, 0),
        Ev::Issue(c) => (3, c.0 as u64, 0, 0),
        Ev::PReq { p, src, seq, .. } => (4, proxy_rank(*p), *src, *seq),
    }
}

/// An outbox entry: the event plus its send time; delivery is at
/// `send + net_hop`.
struct OutMsg {
    send: u64,
    ev: Ev,
}

/// Mail in flight between shards, one cell per `[parity][src][dst]`,
/// where parity is that of the pooled window the mail was sent in. A
/// cell is filled by `src` at the end of one pooled window step and
/// drained by `dst` before or at the start of the next executed window,
/// whose senders, if it is pooled, fill the cells of the other parity,
/// so the two sides never touch a cell at the same time and its lock is
/// never contended. Only pairs with mail touch a cell, once per window;
/// inline windows touch none.
struct Mail {
    k: usize,
    cells: Vec<Mutex<Vec<OutMsg>>>,
}

impl Mail {
    fn new(k: usize) -> Self {
        Mail { k, cells: (0..2 * k * k).map(|_| Mutex::new(Vec::new())).collect() }
    }

    fn cell(&self, parity: usize, src: usize, dst: usize) -> MutexGuard<'_, Vec<OutMsg>> {
        self.cells[(parity * self.k + src) * self.k + dst]
            .lock()
            .expect("a shard step panicked while holding this mail cell")
    }
}

// ---------------------------------------------------------------------
// order-free latency aggregation
// ---------------------------------------------------------------------

const LAT_BUCKETS: usize = 40;

/// Latency aggregate built purely from commutative integer updates
/// (count, sum, min, max, log2 bucket counts), so merging per-shard
/// aggregates in shard order yields the same bytes for every K.
#[derive(Clone, Debug)]
pub struct LatencyAgg {
    /// Completed-operation count.
    pub count: u64,
    /// Sum of latencies, µs.
    pub sum_us: u64,
    /// Minimum latency seen, µs (`u64::MAX` when empty).
    pub min_us: u64,
    /// Maximum latency seen, µs.
    pub max_us: u64,
    /// `buckets[i]` counts latencies with `floor(log2(us)) == i - 1`
    /// (bucket 0 is `0 µs`, i.e. client-local lease completions).
    pub buckets: [u64; LAT_BUCKETS],
}

impl LatencyAgg {
    fn new() -> Self {
        LatencyAgg { count: 0, sum_us: 0, min_us: u64::MAX, max_us: 0, buckets: [0; LAT_BUCKETS] }
    }

    fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        let b = if us == 0 { 0 } else { (64 - us.leading_zeros()) as usize };
        self.buckets[b.min(LAT_BUCKETS - 1)] += 1;
    }

    fn merge(&mut self, other: &LatencyAgg) {
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Bucket-resolution quantile: the lower bound (power of two) of the
    /// bucket containing the q-th latency.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        self.max_us
    }
}

// ---------------------------------------------------------------------
// per-shard state
// ---------------------------------------------------------------------

/// One MDS node as owned by a shard: the legacy node state plus a
/// private OSD-fetch device, RNG stream and send counter.
struct ShardNode {
    m: MdsNode,
    /// Per-node metadata-fetch device (the sharded model gives each node
    /// a private tier-2 pipe instead of the legacy shared OSD pool).
    osd: DiskModel,
    rng: SimRng,
    send_seq: u64,
    /// Replication candidates observed since the last heartbeat.
    hot_pending: Vec<InodeId>,
    /// `life.served` / `life.disk_fetches` at the last heartbeat, for
    /// balancer load deltas.
    hb_served: u64,
    hb_fetches: u64,
    /// Hot-object detector feeding the proxy tier (touched only when the
    /// tier is enabled; records reads *and* writes, unlike `popularity`).
    proxy_pop: Popularity,
    /// Proxy-tier hot candidates observed since the last heartbeat.
    proxy_hot_pending: Vec<InodeId>,
}

/// One hotspot proxy as owned by a shard: the shared state machine plus
/// this engine's transport. The namespace is frozen, so the core's
/// negative-lookup cache stays empty here.
#[derive(Debug)]
struct ProxySt {
    core: ProxyCore,
    /// Serial-CPU availability, µs.
    free_at: u64,
    send_seq: u64,
}

/// One client as owned by a shard.
struct ClientSt {
    rng: SimRng,
    /// Learned exact-item locations (the sharded model's simplification
    /// of the legacy deepest-known-prefix routing).
    routes: FxHashMap<InodeId, MdsId>,
    /// Item → lease expiry (µs).
    leases: FxHashMap<InodeId, u64>,
    op_seq: u32,
    pending: Option<PendingOp>,
    send_seq: u64,
}

struct PendingOp {
    item: InodeId,
    write: bool,
    issued: u64,
    retries: u8,
}

/// Counters aggregated into the report (all commutative integers).
#[derive(Clone, Debug, Default)]
struct ShardStats {
    ops: u64,
    lease_hits: u64,
    timeouts: u64,
    retries: u64,
    failed: u64,
    stale: u64,
}

/// Global state every shard may read during a window but only the
/// barrier (which holds `&mut` everything) may write.
struct World {
    snapshot: Snapshot,
    /// The placement, one for all shards: its table answers every
    /// snapshot id with one load. Only the barrier changes it, through
    /// [`Partition::delegate`], which repaints the moved region.
    partition: Partition,
    alive: Vec<bool>,
    /// The elastic controller; its `members` are the *announced*
    /// membership that unknown-item routing draws from.
    elastic: ElasticCtl,
    net: Option<NetFaultSpec>,
    replicated: FxHashSet<InodeId>,
    /// Items the proxy tier serves (heartbeat-announced, like
    /// `replicated`; empty whenever the tier is disabled).
    proxy_hot: FxHashSet<InodeId>,
}

struct Shard {
    queue: EventQueue<Ev>,
    cfg: SimConfig,
    node_lo: usize,
    nodes: Vec<ShardNode>,
    client_lo: u32,
    clients: Vec<ClientSt>,
    proxy_lo: u16,
    proxies: Vec<ProxySt>,
    workload: Box<dyn Workload + Send>,
    /// This shard's index: the `src` of the mail it posts.
    id: usize,
    /// Outgoing messages per destination shard, swapped into the mail
    /// cells at the end of each window step.
    outbox: Vec<Vec<OutMsg>>,
    /// Destination shards this window's step has sent to, in first-send
    /// order: an inline window delivers to them, and the barrier after a
    /// pooled one turns them into the destinations' `inbound`.
    sent_to: Vec<usize>,
    /// Source shards whose cells hold mail for this shard, scheduled at
    /// the start of its next pooled step, or by the coordinator before
    /// the next inline window steps.
    inbound: Vec<usize>,
    /// Cross-shard delivery latency, µs (== the window width): messages
    /// land at `send + hop_us`, always at or past the next barrier.
    hop_us: u64,
    /// Same-timestamp batch scratch (allocation reused across windows).
    batch: Vec<Ev>,
    /// Events the last [`Shard::run_window`] handled.
    window_events: u64,
    /// Earliest send time among the messages of the current pooled
    /// step (`u64::MAX` when it sent none); the barrier turns it into
    /// [`ShardedSimulation::mail_due`].
    first_send: u64,
    stats: ShardStats,
    lat: LatencyAgg,
}

/// Shard that owns node `m` under a contiguous block partition.
fn shard_of_node(m: usize, n_mds: usize, k: usize) -> usize {
    m * k / n_mds
}

/// Shard that owns client `c`.
fn shard_of_client(c: u32, n_clients: u32, k: usize) -> usize {
    (c as usize) * k / n_clients as usize
}

/// Shard that owns proxy `p`.
fn shard_of_proxy(p: usize, n_proxies: usize, k: usize) -> usize {
    p * k / n_proxies
}

/// Picks a uniformly random live node (the traffic-control client
/// behavior: replicated items go anywhere). Falls back to a uniform
/// node when the whole cluster is down.
fn pick_alive(alive: &[bool], rng: &mut SimRng) -> MdsId {
    let live = alive.iter().filter(|a| **a).count() as u64;
    if live == 0 {
        return MdsId(rng.below(alive.len() as u64) as u16);
    }
    let nth = rng.below(live);
    let mut seen = 0;
    for (i, &a) in alive.iter().enumerate() {
        if a {
            if seen == nth {
                return MdsId(i as u16);
            }
            seen += 1;
        }
    }
    unreachable!("counted {live} live nodes but found fewer")
}

impl Shard {
    fn node(&mut self, m: MdsId) -> &mut ShardNode {
        &mut self.nodes[m.index() - self.node_lo]
    }

    fn client(&mut self, c: ClientId) -> &mut ClientSt {
        &mut self.clients[(c.0 - self.client_lo) as usize]
    }

    /// One pooled window step of parity `parity`: schedules the mail
    /// posted to this shard in the previous window, if that one was
    /// pooled too, runs the window, then posts its outboxes to this
    /// window's cells.
    fn run_window(&mut self, world: &World, mail: &Mail, parity: usize, end: u64) {
        self.schedule_inbound(mail, parity ^ 1);
        self.first_send = u64::MAX;
        self.step(world, end);
        for &dst in &self.sent_to {
            let mut cell = mail.cell(parity, self.id, dst);
            debug_assert!(cell.is_empty(), "a cell is drained in the window after it is filled");
            // The swap hands the cell's drained allocation back as the outbox.
            std::mem::swap(&mut *cell, &mut self.outbox[dst]);
        }
    }

    /// Schedules the mail in the parity-`parity` cells of every source
    /// in `inbound` at its delivery time.
    fn schedule_inbound(&mut self, mail: &Mail, parity: usize) {
        for src in self.inbound.drain(..) {
            for m in mail.cell(parity, src, self.id).drain(..) {
                self.queue.schedule(SimTime::from_micros(m.send + self.hop_us), m.ev);
            }
        }
    }

    /// Runs every event strictly before `end` (µs), leaving what it sends
    /// in the outboxes. Same-timestamp batches are collected and
    /// canonically sorted before processing; follow-ups are always at
    /// least 1 µs out, so a batch is closed by the time it is sorted.
    /// Records how many events it handled.
    fn step(&mut self, world: &World, end: u64) {
        let mut batch = std::mem::take(&mut self.batch);
        let mut handled = 0;
        while let Some(tt) = self.queue.peek_time() {
            let t = tt.as_micros();
            if t >= end {
                break;
            }
            let first = self.queue.pop_due(tt).expect("peeked event is due");
            match self.queue.pop_due(tt) {
                // The common case by far is one event per timestamp;
                // handle it without touching the batch buffer at all.
                None => {
                    handled += 1;
                    self.handle(world, t, first);
                }
                Some(second) => {
                    batch.push(first);
                    batch.push(second);
                    while let Some(ev) = self.queue.pop_due(tt) {
                        batch.push(ev);
                    }
                    batch.sort_by_key(canonical_key);
                    handled += batch.len() as u64;
                    for ev in batch.drain(..) {
                        self.handle(world, t, ev);
                    }
                }
            }
        }
        self.batch = batch;
        self.window_events = handled;
    }

    fn handle(&mut self, world: &World, t: u64, ev: Ev) {
        match ev {
            Ev::Issue(c) => self.client_issue(world, t, c, false),
            Ev::Retry { client, op_seq } => {
                let cl = self.client(client);
                if cl.op_seq == op_seq && cl.pending.is_some() {
                    self.client_issue(world, t, client, true);
                }
            }
            Ev::Request { node, client, op_seq, item, write, hop, .. } => {
                self.node_request(world, t, node, client, op_seq, item, write, hop);
            }
            Ev::Reply { client, op_seq, item, server, lease_until, ok, from_proxy, .. } => {
                self.client_reply(t, client, op_seq, item, server, lease_until, ok, from_proxy);
            }
            Ev::PReq { p, client, op_seq, item, write, .. } => {
                self.proxy_request(world, t, p, client, op_seq, item, write);
            }
            Ev::Coalesced { node, item, delta, .. } => {
                self.node_coalesced(world, t, node, item, delta);
            }
        }
    }

    fn send(&mut self, dst_shard: usize, send: u64, ev: Ev) {
        let outbox = &mut self.outbox[dst_shard];
        if outbox.is_empty() {
            self.sent_to.push(dst_shard);
        }
        outbox.push(OutMsg { send, ev });
        self.first_send = self.first_send.min(send);
    }

    fn think_delay(rng: &mut SimRng, mean_us: f64) -> u64 {
        (rng.exponential(mean_us) as u64).max(1)
    }

    /// Think-time mean at `t`, µs: the base mean scaled by the workload's
    /// intensity envelope (diurnal/bursty shapes). The neutral envelope
    /// multiplies by exactly 1.0, which is a bit-exact identity.
    fn think_mean_us(&self, t: u64) -> f64 {
        self.cfg.costs.think_mean.as_micros() as f64
            * self.workload.think_scale(SimTime::from_micros(t))
    }

    // --- client side --------------------------------------------------

    fn client_issue(&mut self, world: &World, t: u64, c: ClientId, retrying: bool) {
        let k = self.outbox.len();
        let n_mds = self.cfg.n_mds;
        let think_us = self.think_mean_us(t);
        let leases_on = self.cfg.client_leases;
        let hashed = matches!(
            self.cfg.strategy,
            StrategyKind::DirHash | StrategyKind::FileHash | StrategyKind::LazyHybrid
        );

        let (item, write, op_seq);
        if retrying {
            self.stats.retries += 1;
            let cl = self.client(c);
            let p = cl.pending.as_mut().expect("retry fired without a pending op");
            p.retries += 1;
            item = p.item;
            write = p.write;
            op_seq = cl.op_seq;
        } else {
            let op = self.workload.next_op(&world.snapshot.ns, c, SimTime::from_micros(t));
            item = op.target();
            write = op.is_update();
            let cl = self.client(c);
            cl.op_seq = cl.op_seq.wrapping_add(1);
            op_seq = cl.op_seq;
            if leases_on && !write {
                match cl.leases.get(&item) {
                    Some(&exp) if exp > t => {
                        // Client-local completion: one event per op.
                        let next = t + Self::think_delay(&mut cl.rng, think_us);
                        self.stats.lease_hits += 1;
                        self.stats.ops += 1;
                        self.lat.record(0);
                        self.queue.schedule(SimTime::from_micros(next), Ev::Issue(c));
                        return;
                    }
                    Some(_) => {
                        cl.leases.remove(&item);
                    }
                    None => {}
                }
            }
            cl.pending = Some(PendingOp { item, write, issued: t, retries: 0 });
        }

        // Hotspot proxy tier: heartbeat-announced hot items route via the
        // client's proxy, which absorbs or relays them. Proxy links are
        // modelled as reliable local hops, so this leg draws no loss/dup
        // randomness; with the tier disabled `proxy_hot` is empty and
        // this branch is a no-op.
        let n_proxies = self.cfg.proxy.count;
        if n_proxies > 0 && world.proxy_hot.contains(&item) {
            let p = (c.0 % n_proxies as u32) as u16;
            let dst_shard = shard_of_proxy(p as usize, n_proxies as usize, k);
            let cl = self.client(c);
            let seq = cl.send_seq;
            cl.send_seq += 1;
            self.send(
                dst_shard,
                t,
                Ev::PReq { p, client: c, op_seq, item, write, src: client_rank(c), seq },
            );
            return;
        }

        // Route: replicated items may be read anywhere (traffic
        // control), hashed strategies compute the placement function
        // client-side, subtree clients use a learned exact location or
        // guess randomly.
        let dst = if world.replicated.contains(&item) && !write {
            pick_alive(&world.alive, &mut self.client(c).rng)
        } else if hashed {
            world.partition.authority(item)
        } else {
            let cl = self.client(c);
            match cl.routes.get(&item) {
                Some(&m) => m,
                // Unknown item: guess among announced members. With the
                // full pool announced this consumes the same single draw
                // as `below(n_mds)` and returns the same node.
                None => pick_alive(&world.elastic.members, &mut cl.rng),
            }
        };

        // In-transit request loss: the omniscient simulator converts it
        // straight into the retry wakeup the timeout would produce.
        if let Some(net) = world.net {
            if net.loss_p > 0.0 && self.client(c).rng.chance(net.loss_p) {
                self.fail_or_retry(t, c, op_seq, item, false);
                return;
            }
        }
        let dup = match world.net {
            Some(net) if net.dup_p > 0.0 => self.client(c).rng.chance(net.dup_p),
            _ => false,
        };
        let dst_shard = shard_of_node(dst.index(), n_mds as usize, k);
        for _ in 0..if dup { 2 } else { 1 } {
            let cl = self.client(c);
            let seq = cl.send_seq;
            cl.send_seq += 1;
            self.send(
                dst_shard,
                t,
                Ev::Request {
                    node: dst,
                    client: c,
                    op_seq,
                    item,
                    write,
                    hop: 0,
                    src: client_rank(c),
                    seq,
                },
            );
        }
    }

    /// Shared timeout handling for lost requests, lost replies and dead
    /// servers: schedule the backoff retry, or give up at the cap.
    fn fail_or_retry(&mut self, t: u64, c: ClientId, op_seq: u32, item: InodeId, drop_route: bool) {
        let think_us = self.think_mean_us(t);
        let retry_policy: RetryPolicy = self.cfg.retry;
        self.stats.timeouts += 1;
        let cl = self.client(c);
        if drop_route {
            cl.routes.remove(&item);
        }
        let p = cl.pending.as_ref().expect("timeout without a pending op");
        let (issued, retries) = (p.issued, p.retries);
        if retries >= retry_policy.max_retries {
            cl.pending = None;
            self.stats.failed += 1;
            let next = t + Self::think_delay(&mut self.client(c).rng, think_us);
            self.queue.schedule(SimTime::from_micros(next), Ev::Issue(c));
        } else {
            let delay = retry_policy.delay(retries + 1, &mut cl.rng).as_micros().max(1);
            let at = (issued + delay).max(t + 1);
            self.queue.schedule(SimTime::from_micros(at), Ev::Retry { client: c, op_seq });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn client_reply(
        &mut self,
        t: u64,
        c: ClientId,
        op_seq: u32,
        item: InodeId,
        server: MdsId,
        lease_until: u64,
        ok: bool,
        from_proxy: bool,
    ) {
        let think_us = self.think_mean_us(t);
        let cl = self.client(c);
        if cl.op_seq != op_seq || cl.pending.is_none() {
            self.stats.stale += 1;
            return;
        }
        if !ok {
            self.fail_or_retry(t, c, op_seq, item, true);
            return;
        }
        let p = cl.pending.take().unwrap();
        if !from_proxy {
            cl.routes.insert(item, server);
        }
        if lease_until > t {
            cl.leases.insert(item, lease_until);
        }
        let next = t + Self::think_delay(&mut cl.rng, think_us);
        self.stats.ops += 1;
        self.lat.record(t - p.issued);
        self.queue.schedule(SimTime::from_micros(next), Ev::Issue(c));
    }

    // --- server side --------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn node_request(
        &mut self,
        world: &World,
        t: u64,
        m: MdsId,
        client: ClientId,
        op_seq: u32,
        item: InodeId,
        write: bool,
        hop: u8,
    ) {
        let k = self.outbox.len();
        let n_mds = self.cfg.n_mds as usize;
        let n_clients = self.cfg.n_clients;
        let cpu = self.cfg.costs.cpu_per_op;
        let cpu_fwd = self.cfg.costs.cpu_forward;
        let leases_on = self.cfg.client_leases;
        let lease_ttl = self.cfg.lease_ttl.as_micros();
        let traffic_control = self.cfg.traffic_control;
        let threshold = self.cfg.replication_threshold;
        let proxy_on = self.cfg.proxy.count > 0;
        let proxy_threshold = self.cfg.proxy.hot_threshold;
        let client_shard = shard_of_client(client.0, n_clients, k);

        if !world.alive[m.index()] {
            // Dead node: the message vanishes; notify the client via the
            // loss path so its retry clock models the timeout.
            let n = self.node(m);
            let seq = n.send_seq;
            n.send_seq += 1;
            self.send(
                client_shard,
                t,
                Ev::Reply {
                    client,
                    op_seq,
                    item,
                    server: m,
                    lease_until: 0,
                    ok: false,
                    from_proxy: false,
                    src: node_rank(m),
                    seq,
                },
            );
            return;
        }

        let replicated = world.replicated.contains(&item) && !write;
        let auth = world.partition.authority(item);
        let n = self.node(m);
        n.m.win.received += 1;
        n.m.life.received += 1;

        if auth != m && !replicated && hop == 0 {
            // Wrong server: forward to the authority (subtree-strategy
            // clients route by learned locations and can be stale).
            n.m.win.forwarded += 1;
            n.m.life.forwarded += 1;
            let done = n.m.occupy(SimTime::from_micros(t), cpu_fwd).as_micros();
            let seq = n.send_seq;
            n.send_seq += 1;
            let auth_shard = shard_of_node(auth.index(), n_mds, k);
            self.send(
                auth_shard,
                done,
                Ev::Request {
                    node: auth,
                    client,
                    op_seq,
                    item,
                    write,
                    hop: 1,
                    src: node_rank(m),
                    seq,
                },
            );
            return;
        }

        // Serve (authoritative, replica, or end of a forward chain).
        let now = SimTime::from_micros(t);
        let hit = n.m.cache.lookup(item, true);
        let mut done = n.m.occupy(now, cpu);
        if !hit {
            n.m.win.misses += 1;
            n.m.life.disk_fetches += 1;
            done = done.max(n.osd.access(now, AccessKind::Read));
            let _ = n.m.cache.insert(item, None, InsertKind::Target);
        }
        if write {
            let _ = n.m.journal.append(item);
            done = done.max(n.m.journal_disk.access(now, AccessKind::Write));
        }
        n.m.win.served += 1;
        n.m.life.served += 1;
        if replicated && auth != m {
            n.m.life.replica_serves += 1;
        }
        if traffic_control && !write && !replicated {
            let pop = n.m.popularity.record(now, item);
            if pop >= threshold {
                n.hot_pending.push(item);
            }
        }
        // Hotspot proxy tier: nodes detect hot objects (reads and writes
        // both count) and announce them at the heartbeat.
        if proxy_on && !world.proxy_hot.contains(&item) {
            let v = n.proxy_pop.record(now, item);
            if v >= proxy_threshold {
                n.proxy_hot_pending.push(item);
            }
        }
        // Reply; in-transit reply loss is drawn from the node's stream.
        let ok = match world.net {
            Some(net) if net.loss_p > 0.0 => !n.rng.chance(net.loss_p),
            _ => true,
        };
        let done_us = done.as_micros();
        let lease_until = if ok && leases_on && !write { done_us + lease_ttl } else { 0 };
        let seq = n.send_seq;
        n.send_seq += 1;
        self.send(
            client_shard,
            done_us,
            Ev::Reply {
                client,
                op_seq,
                item,
                server: m,
                lease_until,
                ok,
                from_proxy: false,
                src: node_rank(m),
                seq,
            },
        );
    }

    // --- proxy side ---------------------------------------------------

    /// A hot-item op at proxy `p`: coalesce writes, absorb read-through
    /// reads, relay the rest to the authority with `hop = 1` (the node
    /// replies to the client directly; the relay doubles as the proxy's
    /// read-through fill).
    #[allow(clippy::too_many_arguments)]
    fn proxy_request(
        &mut self,
        world: &World,
        t: u64,
        p: u16,
        client: ClientId,
        op_seq: u32,
        item: InodeId,
        write: bool,
    ) {
        let k = self.outbox.len();
        let n_mds = self.cfg.n_mds as usize;
        let client_shard = shard_of_client(client.0, self.cfg.n_clients, k);
        let cpu = self.cfg.proxy.proxy_cpu_us.max(1);
        let lo = self.proxy_lo;
        let px = &mut self.proxies[(p - lo) as usize];
        let done = px.free_at.max(t) + cpu;
        px.free_at = done;

        let relay = if write {
            px.core.absorb_write(item);
            false
        } else if px.core.absorb_read(item) {
            false
        } else {
            px.core.note_forwarded();
            px.core.note_cached(item);
            true
        };
        let seq = px.send_seq;
        px.send_seq += 1;
        if relay {
            let auth = world.partition.authority(item);
            let auth_shard = shard_of_node(auth.index(), n_mds, k);
            self.send(
                auth_shard,
                done,
                Ev::Request {
                    node: auth,
                    client,
                    op_seq,
                    item,
                    write,
                    hop: 1,
                    src: proxy_rank(p),
                    seq,
                },
            );
        } else {
            self.send(
                client_shard,
                done,
                Ev::Reply {
                    client,
                    op_seq,
                    item,
                    server: MdsId(0),
                    lease_until: 0,
                    ok: true,
                    from_proxy: true,
                    src: proxy_rank(p),
                    seq,
                },
            );
        }
    }

    /// A coalesced delta lands at the authority: one CPU occupancy and
    /// one journal commit per item, however many client writes were
    /// folded into it. A dead authority drops the delta (the sharded
    /// model has no values to lose, only counters).
    fn node_coalesced(&mut self, world: &World, t: u64, m: MdsId, item: InodeId, _delta: u64) {
        if !world.alive[m.index()] {
            return;
        }
        let cpu = self.cfg.costs.cpu_per_op;
        let now = SimTime::from_micros(t);
        let n = self.node(m);
        let _ = n.m.journal.append(item);
        n.m.occupy(now, cpu);
        n.m.journal_disk.access(now, AccessKind::Write);
    }
}

// ---------------------------------------------------------------------
// barrier-global steps
// ---------------------------------------------------------------------

/// A scheduled global step, applied at the first window barrier at or
/// after its timestamp (the grid is K-independent, so the quantization
/// is identical for every shard count).
enum Step {
    Crash(MdsId),
    Recover(MdsId),
    Disk { scope: DiskScope, fault: Option<DiskFault>, node_salt: u64 },
    Net(Option<NetFaultSpec>),
}

// ---------------------------------------------------------------------
// the sharded simulation
// ---------------------------------------------------------------------

/// A configured sharded run. Behavior is deterministic for a fixed shard
/// count and report-surface-identical across shard counts; see the
/// module docs for the argument.
pub struct ShardedSimulation {
    cfg: SimConfig,
    shards: Vec<Shard>,
    /// Claim flags for [`for_each_shard`], one per shard, reused by
    /// every window.
    claims: Vec<AtomicBool>,
    /// The fan-out driver installed when the run was built.
    driver: Option<ParallelDriver>,
    world: World,
    mail: Mail,
    /// Parity of the next executed window, which names its mail cells.
    parity: usize,
    threads: Option<usize>,
    /// Events the last executed window handled, over all shards.
    last_window_events: u64,
    /// The shards an inline window steps: those with an event before its
    /// end, in id order (scratch reused by every window).
    busy: Vec<usize>,
    /// Earliest delivery time of the mail a pooled window left in the
    /// cells (`u64::MAX` when none): the idle-window skip reads it in
    /// place of the queue heads that mail has not joined yet.
    mail_due: u64,
    counts: RunCounts,
    window_us: u64,
    now_us: u64,
    steps: Vec<(u64, Step)>,
    next_step: usize,
    next_heartbeat: u64,
    next_sample: u64,
    /// Next-due-step calendar: the earliest time any barrier-global step
    /// (fault, heartbeat, sample) is due. Barriers with `now` before
    /// this fast-exit [`Self::apply_steps`] without touching the three
    /// schedules above, and the idle-window skip uses it as the global
    /// step bound.
    next_due: u64,
    measure_start: u64,
    migrations: u64,
    snapshots: Option<SnapshotSeries>,
}

/// How a run has executed so far; see [`ShardedSimulation::run_counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Windows run inline on the coordinator, with no driver call.
    pub inline_windows: u64,
    /// Windows handed to the driver, which steps every shard.
    pub pooled_windows: u64,
    /// Events handled, over all shards.
    pub events: u64,
}

/// Snapshot-series field layout (one slot per node each).
const SNAP_FIELDS: &[&str] = &["served", "forwarded", "received", "misses"];

/// Fewest events the previous executed window must have handled, over
/// all shards, for the next one to go to the pool. Events per executed
/// window of the benchmark's sharded workloads (DESIGN.md §11): the
/// day/night elastic load handles fewer than 8 in 99.8% of its windows,
/// so it stays inline; the dense K=8 run never fewer than 64, so it fans
/// out from its second window on; the scale tier handles 8 or more in
/// almost all of its windows and fans out too. The gate reads a count of
/// simulated events, the same for every K and host, never a host time.
const FANOUT_MIN_EVENTS: u64 = 8;

impl ShardedSimulation {
    /// Builds a run over `shards` event queues. The shard count is
    /// clamped to the node count; `threads` follows the worker policy of
    /// the harness (`None` = `DYNMDS_THREADS` / detected parallelism).
    /// `make_workload` is called once per shard and must yield identical
    /// generators — each shard invokes only the clients it owns, and
    /// per-client streams are independent, so the copies stay in lock
    /// step.
    pub fn new(
        cfg: SimConfig,
        shards: usize,
        threads: Option<usize>,
        snapshot: Snapshot,
        make_workload: &dyn Fn(&dynmds_namespace::Namespace) -> Box<dyn Workload + Send>,
    ) -> Self {
        assert!(!cfg.obs.trace, "per-op tracing is not supported by the sharded engine");
        if let Err(e) = cfg.faults.check_nodes(cfg.n_mds as usize) {
            panic!("fault schedule does not fit the cluster: {e}");
        }
        let k = shards.clamp(1, cfg.n_mds as usize);
        let n_mds = cfg.n_mds as usize;
        let n_clients = cfg.n_clients;
        let window_us = cfg.costs.net_hop.as_micros().max(1);
        let spread = cfg.costs.think_mean;

        let mut shard_vec = Vec::with_capacity(k);
        for s in 0..k {
            let workload = make_workload(&snapshot.ns);
            assert_eq!(
                workload.clients(),
                n_clients as usize,
                "workload must drive exactly the configured clients"
            );
            let node_lo = (0..n_mds).find(|&m| shard_of_node(m, n_mds, k) == s).unwrap_or(n_mds);
            let nodes: Vec<ShardNode> = (0..n_mds)
                .filter(|&m| shard_of_node(m, n_mds, k) == s)
                .map(|m| ShardNode {
                    m: MdsNode::new(
                        MdsId(m as u16),
                        cfg.cache_capacity,
                        cfg.journal_capacity,
                        cfg.costs.journal_disk,
                        cfg.popularity_half_life,
                    ),
                    osd: DiskModel::new(cfg.costs.osd_disk),
                    rng: SimRng::seed_from_u64(
                        cfg.seed ^ 0x0005_D0DE ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ),
                    send_seq: 0,
                    hot_pending: Vec::new(),
                    hb_served: 0,
                    hb_fetches: 0,
                    proxy_pop: Popularity::new(SimDuration::from_micros(cfg.proxy.half_life_us)),
                    proxy_hot_pending: Vec::new(),
                })
                .collect();
            let client_lo = (0..n_clients)
                .find(|&c| shard_of_client(c, n_clients, k) == s)
                .unwrap_or(n_clients);
            let clients: Vec<ClientSt> = (0..n_clients)
                .filter(|&c| shard_of_client(c, n_clients, k) == s)
                .map(|c| ClientSt {
                    rng: SimRng::seed_from_u64(
                        cfg.seed ^ 0x005D_C11E ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ),
                    routes: FxHashMap::default(),
                    leases: FxHashMap::default(),
                    op_seq: 0,
                    pending: None,
                    send_seq: 0,
                })
                .collect();
            let mut queue = EventQueue::new();
            // First requests spread over one think period, same ramp as
            // the legacy engine.
            for (i, _) in clients.iter().enumerate() {
                let c = client_lo + i as u32;
                let offset = if n_clients > 1 {
                    spread.as_micros() * c as u64 / n_clients as u64
                } else {
                    0
                };
                queue.schedule(SimTime::from_micros(offset), Ev::Issue(ClientId(c)));
            }
            let n_proxies = cfg.proxy.count as usize;
            let proxy_lo = (0..n_proxies)
                .find(|&p| shard_of_proxy(p, n_proxies, k) == s)
                .unwrap_or(n_proxies) as u16;
            let proxies: Vec<ProxySt> = (0..n_proxies)
                .filter(|&p| shard_of_proxy(p, n_proxies, k) == s)
                .map(|_| ProxySt { core: ProxyCore::new(&cfg.proxy), free_at: 0, send_seq: 0 })
                .collect();
            shard_vec.push(Shard {
                queue,
                cfg: cfg.clone(),
                hop_us: window_us,
                node_lo,
                nodes,
                client_lo,
                clients,
                proxy_lo,
                proxies,
                workload,
                id: s,
                outbox: (0..k).map(|_| Vec::new()).collect(),
                sent_to: Vec::new(),
                inbound: Vec::new(),
                batch: Vec::new(),
                window_events: 0,
                first_send: u64::MAX,
                stats: ShardStats::default(),
                lat: LatencyAgg::new(),
            });
        }

        let mut steps: Vec<(u64, Step)> = Vec::new();
        for ev in cfg.faults.expanded(n_mds) {
            match ev {
                FaultEvent::Crash { at, mds } => steps.push((at.as_micros(), Step::Crash(mds))),
                FaultEvent::Recover { at, mds } => steps.push((at.as_micros(), Step::Recover(mds))),
                FaultEvent::DiskDegrade { from, until, fault, scope } => {
                    let salt = cfg.seed ^ 0xD15C;
                    steps.push((
                        from.as_micros(),
                        Step::Disk { scope, fault: Some(fault), node_salt: salt },
                    ));
                    steps.push((
                        until.as_micros(),
                        Step::Disk { scope, fault: None, node_salt: salt },
                    ));
                }
                FaultEvent::NetFault { from, until, spec } => {
                    steps.push((from.as_micros(), Step::Net(Some(spec))));
                    steps.push((until.as_micros(), Step::Net(None)));
                }
            }
        }
        steps.sort_by_key(|(t, _)| *t); // stable: ties keep schedule order

        let snapshots =
            if cfg.obs.metrics { Some(SnapshotSeries::new(SNAP_FIELDS, n_mds)) } else { None };
        let heartbeat = cfg.heartbeat.as_micros();
        let sample = cfg.sample_every.as_micros();
        let mut sim = ShardedSimulation {
            world: World {
                partition: Partition::initial(cfg.strategy, &snapshot.ns, cfg.n_mds),
                snapshot,
                alive: vec![true; n_mds],
                elastic: ElasticCtl::new(cfg.elastic, cfg.heartbeat, n_mds),
                net: None,
                replicated: FxHashSet::default(),
                proxy_hot: FxHashSet::default(),
            },
            mail: Mail::new(k),
            parity: 0,
            claims: (0..k).map(|_| AtomicBool::new(false)).collect(),
            driver: DRIVER.get().copied(),
            shards: shard_vec,
            threads,
            last_window_events: 0,
            busy: Vec::with_capacity(k),
            mail_due: u64::MAX,
            counts: RunCounts::default(),
            window_us,
            now_us: 0,
            steps,
            next_step: 0,
            next_heartbeat: heartbeat,
            next_sample: sample,
            next_due: 0,
            measure_start: 0,
            migrations: 0,
            snapshots,
            cfg,
        };
        if sim.cfg.elastic.enabled {
            sim.park_initial_standby();
        }
        sim.recompute_next_due();
        sim
    }

    /// Construction-time provisioning for elastic runs: the pool holds
    /// `n_mds` nodes but only `min_nodes` start active. Each parked
    /// node's delegations move round-robin onto the active set and the
    /// starting membership is announced, so nothing routes to a parked
    /// node.
    fn park_initial_standby(&mut self) {
        let n_mds = self.cfg.n_mds as usize;
        let min = (self.cfg.elastic.min_nodes.max(1) as usize).min(n_mds);
        for parked in min..n_mds {
            let roots = match self.world.partition.as_subtree() {
                Some(sp) => sp.delegations_of(MdsId(parked as u16)),
                None => Vec::new(),
            };
            for (j, &r) in roots.iter().enumerate() {
                self.world.partition.delegate(&self.world.snapshot.ns, r, MdsId((j % min) as u16));
            }
            self.world.elastic.parked_roots[parked] = roots;
            self.world.elastic.members[parked] = false;
            self.world.alive[parked] = false;
        }
    }

    /// Actual shard count after clamping.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Windows and events executed so far. The executed-window total
    /// and the event count are the same for every shard count; only how
    /// the windows split between inline and pooled depends on it.
    pub fn run_counts(&self) -> RunCounts {
        self.counts
    }

    /// Advances all shards to `until_us`, window by window. Windows end on
    /// the fixed grid of multiples of the window width; a stop off the
    /// grid splits one window in two but moves no barrier, so how callers
    /// slice a run into `run_until` calls cannot change it. Windows go to
    /// the pool only when [`Self::run_inline`] opens the work gate;
    /// `force_dense` turns the gate and the idle-window skip off and fans
    /// every window out with the full worker count.
    fn run_windows(&mut self, until_us: u64) {
        self.apply_steps(self.now_us);
        while self.now_us < until_us {
            let end = if self.cfg.force_dense {
                self.next_grid().min(until_us)
            } else {
                match self.run_inline(until_us) {
                    Some(end) => end,
                    None => break,
                }
            };
            let (world, mail, parity) = (&self.world, &self.mail, self.parity);
            for_each_shard(&mut self.shards, &self.claims, self.driver, self.threads, |s| {
                s.run_window(world, mail, parity, end)
            });
            self.parity ^= 1;
            self.last_window_events = self.shards.iter().map(|s| s.window_events).sum();
            self.counts.pooled_windows += 1;
            self.counts.events += self.last_window_events;
            self.now_us = end;
            self.address_mail();
            self.apply_steps(end);
        }
    }

    /// Runs windows on this thread, with no driver call, until `until_us`
    /// (returns `None`) or until the work gate opens (returns the end of
    /// the window to hand to the pool). The gate opens when more than one
    /// shard has an event before the window end or mail in the cells, and
    /// the previous executed window handled at least [`FANOUT_MIN_EVENTS`]
    /// events; waking pool workers for a few events costs more than it
    /// saves.
    ///
    /// Each window steps only its busy shards, and after each step
    /// schedules the shard's outboxes straight into the destination
    /// queues. A message sent in `[w, end)` lands at `send + L ≥ w + L ≥
    /// end`, so no shard stepped later in the same window can see it, and
    /// the stepping order cannot matter. Inline windows write no mail
    /// cells, so they leave `parity` alone. Mail a pooled window left in
    /// the cells stays there if the next window is pooled too, whose
    /// steps schedule it on the workers; if it runs inline, this thread
    /// schedules it first, so the window's busy list sees it.
    ///
    /// Idle window spans — no queued event, no mail due and no calendar
    /// step due — are skipped in one jump, staying on the same grid. With
    /// `t_min` the minimum over every queue head, [`Self::mail_due`] and
    /// the next-due step, every window strictly before the one holding
    /// `t_min` pops no event and its barrier applies no step, so the jump
    /// lands on the grid barrier `⌊t_min / w⌋·w` with identical state. When nothing is due before
    /// `until_us`, time jumps to the final barrier and its steps (due
    /// exactly at `until_us`, as in a dense run) apply. `t_min` is a
    /// function of the pending-event multiset and the calendar, both
    /// shard-count-invariant at barriers, so every K takes the same jumps
    /// and executes the same windows.
    fn run_inline(&mut self, until_us: u64) -> Option<u64> {
        while self.now_us < until_us {
            let mut end = self.next_grid().min(until_us);
            let t_min = self.scan_busy(end).min(self.mail_due).min(self.next_due);
            if t_min >= self.next_grid() {
                if t_min >= until_us {
                    self.now_us = until_us;
                    self.apply_steps(until_us);
                    return None;
                }
                self.now_us = t_min / self.window_us * self.window_us;
                self.apply_steps(self.now_us);
                end = self.next_grid().min(until_us);
                self.scan_busy(end);
            }
            if self.last_window_events >= FANOUT_MIN_EVENTS && self.busy.len() > 1 {
                return Some(end);
            }
            if self.mail_due != u64::MAX {
                for s in &mut self.shards {
                    s.schedule_inbound(&self.mail, self.parity ^ 1);
                }
                self.mail_due = u64::MAX;
                self.scan_busy(end);
            }
            let mut events = 0;
            for j in 0..self.busy.len() {
                events += self.step_inline(self.busy[j], end);
            }
            self.last_window_events = events;
            self.counts.inline_windows += 1;
            self.counts.events += events;
            self.now_us = end;
            self.apply_steps(end);
        }
        None
    }

    /// One pass over the queue heads: fills `busy` with the shards that
    /// have an event before `end` or mail in the cells, and returns the
    /// earliest queued event time (`u64::MAX` when every queue is empty).
    fn scan_busy(&mut self, end: u64) -> u64 {
        self.busy.clear();
        let mut t_min = u64::MAX;
        for (i, s) in self.shards.iter().enumerate() {
            let head = s.queue.peek_time().map_or(u64::MAX, |t| t.as_micros());
            t_min = t_min.min(head);
            if head < end || !s.inbound.is_empty() {
                self.busy.push(i);
            }
        }
        t_min
    }

    /// Steps shard `i` to `end` and schedules what it sent straight into
    /// the destination queues; returns the events it handled.
    fn step_inline(&mut self, i: usize, end: u64) -> u64 {
        self.shards[i].step(&self.world, end);
        let mut sent_to = std::mem::take(&mut self.shards[i].sent_to);
        for dst in sent_to.drain(..) {
            let mut out = std::mem::take(&mut self.shards[i].outbox[dst]);
            let queue = &mut self.shards[dst].queue;
            for m in out.drain(..) {
                queue.schedule(SimTime::from_micros(m.send + self.window_us), m.ev);
            }
            self.shards[i].outbox[dst] = out;
        }
        self.shards[i].sent_to = sent_to;
        self.shards[i].window_events
    }

    /// The first grid barrier after `now_us`: where the current window ends.
    fn next_grid(&self) -> u64 {
        (self.now_us / self.window_us + 1) * self.window_us
    }

    /// Barrier side of a pooled window's mail: turns the destinations
    /// each shard sent to into each destination's list of sources to
    /// drain, and notes when the earliest of that mail lands. Costs one
    /// push per `(src, dst)` pair with mail.
    fn address_mail(&mut self) {
        self.mail_due = u64::MAX;
        for src in 0..self.shards.len() {
            let first = self.shards[src].first_send;
            if first != u64::MAX {
                self.mail_due = self.mail_due.min(first + self.window_us);
            }
            let mut sent_to = std::mem::take(&mut self.shards[src].sent_to);
            for dst in sent_to.drain(..) {
                self.shards[dst].inbound.push(src);
            }
            self.shards[src].sent_to = sent_to;
        }
    }

    /// Recomputes the next-due-step calendar after anything that moves
    /// one of the three global schedules.
    fn recompute_next_due(&mut self) {
        let step = self.steps.get(self.next_step).map_or(u64::MAX, |s| s.0);
        self.next_due = step.min(self.next_heartbeat).min(self.next_sample);
    }

    /// Applies every pending global step with timestamp ≤ `now`, then
    /// any heartbeat / sample ticks that have come due. O(1) via the
    /// next-due calendar when nothing is due (the per-window case).
    fn apply_steps(&mut self, now: u64) {
        if now < self.next_due {
            return;
        }
        while self.next_step < self.steps.len() && self.steps[self.next_step].0 <= now {
            match &self.steps[self.next_step] {
                (_, Step::Crash(m)) => {
                    let m = *m;
                    self.crash(m);
                }
                (_, Step::Recover(m)) => {
                    let m = *m;
                    self.world.alive[m.index()] = true;
                    // A recovered node is back in service whatever took it
                    // out; scaling re-parks it if the load doesn't justify
                    // the capacity.
                    self.world.elastic.members[m.index()] = true;
                }
                (_, Step::Disk { scope, fault, node_salt }) => {
                    let (scope, fault, salt) = (*scope, *fault, *node_salt);
                    for shard in &mut self.shards {
                        for n in &mut shard.nodes {
                            let node_seed =
                                salt ^ (n.m.id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            match scope {
                                DiskScope::Osd => n.osd.set_fault(fault, node_seed),
                                DiskScope::Journal => n.m.journal_disk.set_fault(fault, node_seed),
                                DiskScope::All => {
                                    n.osd.set_fault(fault, node_seed);
                                    n.m.journal_disk.set_fault(fault, node_seed ^ 1);
                                }
                            }
                        }
                    }
                }
                (_, Step::Net(spec)) => self.world.net = *spec,
            }
            self.next_step += 1;
        }
        while self.next_heartbeat <= now {
            self.heartbeat(self.next_heartbeat);
            self.next_heartbeat += self.cfg.heartbeat.as_micros().max(self.window_us);
        }
        while self.next_sample <= now {
            self.sample(self.next_sample);
            self.next_sample += self.cfg.sample_every.as_micros().max(self.window_us);
        }
        self.recompute_next_due();
    }

    /// Node failure: mark dead, drop its cache, and hand its delegations
    /// to the next live node in the ring (subtree strategies).
    fn crash(&mut self, dead: MdsId) {
        let n_mds = self.cfg.n_mds as usize;
        let k = self.shards.len();
        self.world.alive[dead.index()] = false;
        // A crashed node loses its in-memory state.
        let cache_capacity = self.cfg.cache_capacity;
        let node = self.shards[shard_of_node(dead.index(), n_mds, k)].node(dead);
        node.m.cache = MetaCache::new(cache_capacity);
        // The next live node in the ring inherits (`dead` is already down).
        let Some(heir) = self.live_ring(dead) else { return };
        let moves: Vec<_> = match self.world.partition.as_subtree() {
            Some(sp) => sp.delegations_of(dead).into_iter().map(|r| (r, dead, heir)).collect(),
            None => return,
        };
        self.redelegate(&moves);
    }

    /// Moves each `(root, from, to)` delegation and counts it as an
    /// export of `from` and an import of `to`. Entries with `from == to`
    /// are skipped.
    fn redelegate(&mut self, moves: &[(InodeId, MdsId, MdsId)]) {
        let n_mds = self.cfg.n_mds as usize;
        let k = self.shards.len();
        for &(r, from, to) in moves.iter().filter(|(_, from, to)| from != to) {
            self.world.partition.delegate(&self.world.snapshot.ns, r, to);
            self.shards[shard_of_node(from.index(), n_mds, k)].node(from).m.life.subtrees_out += 1;
            self.shards[shard_of_node(to.index(), n_mds, k)].node(to).m.life.subtrees_in += 1;
        }
    }

    /// Heartbeat: promote replication candidates cluster-wide (traffic
    /// control, quantized to the heartbeat), run the elastic controller,
    /// then the load balancer (rebalancing strategies only).
    fn heartbeat(&mut self, at: u64) {
        // Traffic control: union of per-node candidates. Set semantics
        // make the insertion order irrelevant (and the set is only ever
        // probed, never iterated).
        for shard in &mut self.shards {
            for n in &mut shard.nodes {
                for item in n.hot_pending.drain(..) {
                    self.world.replicated.insert(item);
                }
            }
        }
        // Hotspot proxy tier: announce the nodes' hot candidates (same
        // set semantics as traffic control) and push coalesced deltas to
        // the authorities.
        if self.cfg.proxy.enabled() {
            for shard in &mut self.shards {
                for n in &mut shard.nodes {
                    for item in n.proxy_hot_pending.drain(..) {
                        self.world.proxy_hot.insert(item);
                    }
                }
            }
            self.flush_proxies(at);
        }
        if !self.cfg.balancing && !self.cfg.elastic.enabled {
            return;
        }
        let n_mds = self.cfg.n_mds as usize;
        let miss_weight = self.cfg.miss_weight;
        // Load per node since the last heartbeat.
        let mut loads = vec![0f64; n_mds];
        for shard in &mut self.shards {
            for n in &mut shard.nodes {
                let served = n.m.life.served - n.hb_served;
                let fetches = n.m.life.disk_fetches - n.hb_fetches;
                n.hb_served = n.m.life.served;
                n.hb_fetches = n.m.life.disk_fetches;
                loads[n.m.id.index()] = served as f64 + miss_weight * fetches as f64;
            }
        }
        match self.world.elastic.step(&self.world.alive, &loads, at) {
            Some(ScaleAction::Activate(m)) => self.elastic_activate(m),
            Some(ScaleAction::Park(m)) => self.elastic_park(m, &loads),
            None => {}
        }
        if !self.cfg.balancing {
            return;
        }
        let live: Vec<usize> = (0..n_mds).filter(|&m| self.world.alive[m]).collect();
        if live.len() < 2 {
            return;
        }
        let mean = live.iter().map(|&m| loads[m]).sum::<f64>() / live.len() as f64;
        if mean <= 0.0 {
            return;
        }
        let root = self.world.snapshot.ns.root();
        let mut budget = self.cfg.max_migrations_per_heartbeat;
        let mut moves: Vec<(InodeId, MdsId, MdsId)> = Vec::new();
        for &m in &live {
            if budget == 0 {
                break;
            }
            if loads[m] <= self.cfg.imbalance_ratio * mean {
                continue;
            }
            // Shed the first (sorted) delegation that is not the tree
            // root to the least-loaded live node.
            let donor = MdsId(m as u16);
            let roots = match self.world.partition.as_subtree() {
                Some(sp) => sp.delegations_of(donor),
                None => return,
            };
            let Some(&subtree) = roots.iter().find(|&&r| r != root) else { continue };
            let target = *live
                .iter()
                .min_by(|&&a, &&b| loads[a].partial_cmp(&loads[b]).unwrap().then(a.cmp(&b)))
                .unwrap();
            if target == m {
                continue;
            }
            moves.push((subtree, donor, MdsId(target as u16)));
            budget -= 1;
            self.migrations += 1;
        }
        self.redelegate(&moves);
    }

    /// Heartbeat flush of proxy-coalesced write deltas: each proxy (in
    /// global id order) drains its pending map sorted by item and sends
    /// one `Coalesced` message per item to the item's live authority
    /// (ring-walk past dead nodes; a fully-dead cluster drops the
    /// delta). Deliveries are scheduled at `at + L`, the latency any
    /// cross-shard message pays; `at` and the message contents are
    /// K-independent, so the K-invariance argument is untouched.
    fn flush_proxies(&mut self, at: u64) {
        let n_mds = self.cfg.n_mds as usize;
        let k = self.shards.len();
        let hop = self.window_us;
        for s in 0..k {
            for i in 0..self.shards[s].proxies.len() {
                let drained = self.shards[s].proxies[i].core.drain_pending();
                let p = self.shards[s].proxy_lo + i as u16;
                for (item, delta) in drained {
                    let auth = self.world.partition.authority(item);
                    let Some(auth) = self.live_ring(auth) else { continue };
                    let px = &mut self.shards[s].proxies[i];
                    let seq = px.send_seq;
                    px.send_seq += 1;
                    let dst = shard_of_node(auth.index(), n_mds, k);
                    self.shards[dst].queue.schedule(
                        SimTime::from_micros(at + hop),
                        Ev::Coalesced { node: auth, item, delta, src: proxy_rank(p), seq },
                    );
                }
            }
        }
    }

    /// First live node at or after `m` in the ring (`None` when the
    /// whole cluster is down).
    fn live_ring(&self, m: MdsId) -> Option<MdsId> {
        let n = self.cfg.n_mds as usize;
        (0..n).map(|d| (m.index() + d) % n).find(|&i| self.world.alive[i]).map(|i| MdsId(i as u16))
    }

    /// Scale-out: a standby node rejoins and is handed back the
    /// delegations it parked with (empty on first-ever activation — the
    /// balancer then migrates load onto it, as onto a recovered node).
    fn elastic_activate(&mut self, m: MdsId) {
        self.world.alive[m.index()] = true;
        let roots = std::mem::take(&mut self.world.elastic.parked_roots[m.index()]);
        let Some(sp) = self.world.partition.as_subtree() else { return };
        // Count the handoff against the current owners.
        let moves: Vec<_> = roots
            .into_iter()
            .map(|r| (r, sp.delegation_of(r).expect("delegated root"), m))
            .collect();
        self.redelegate(&moves);
    }

    /// Scale-in: voluntary departure, distinct from a crash. The victim
    /// hands every delegation to the surviving nodes (round-robin over
    /// them, least-loaded first), clients that knew it as an authority
    /// are redirected, and only then does it stop serving and release its
    /// RAM — nothing orphaned, no request left to time out against it.
    fn elastic_park(&mut self, victim: MdsId, loads: &[f64]) {
        let n_mds = self.cfg.n_mds as usize;
        let k = self.shards.len();
        // The controller never parks the last live node, so heirs exist.
        let mut heirs: Vec<usize> =
            (0..n_mds).filter(|&i| self.world.alive[i] && i != victim.index()).collect();
        heirs.sort_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite").then(a.cmp(&b)));
        let roots = match self.world.partition.as_subtree() {
            Some(sp) => sp.delegations_of(victim),
            None => Vec::new(),
        };
        let moves: Vec<_> = roots
            .iter()
            .enumerate()
            .map(|(j, &r)| (r, victim, MdsId(heirs[j % heirs.len()] as u16)))
            .collect();
        self.redelegate(&moves);
        // The departing node's goodbye: rewrite every client route that
        // named it to the post-handoff authority. Per-entry rewrites are
        // order-independent, so map iteration order cannot leak in.
        let partition = &self.world.partition;
        for shard in &mut self.shards {
            for cl in &mut shard.clients {
                for (&item, m) in cl.routes.iter_mut() {
                    if *m == victim {
                        *m = partition.authority(item);
                    }
                }
            }
        }
        // Park: stop serving and release RAM only after the handoff.
        self.world.elastic.parked_roots[victim.index()] = roots;
        self.world.alive[victim.index()] = false;
        let cap = self.cfg.cache_capacity;
        self.shards[shard_of_node(victim.index(), n_mds, k)].node(victim).m.cache =
            MetaCache::new(cap);
    }

    /// Sample tick: one snapshot row of per-node window counters.
    fn sample(&mut self, at: u64) {
        let Some(series) = self.snapshots.as_mut() else {
            // Window counters still get drained so they always mean
            // "since the last sample".
            for shard in &mut self.shards {
                for n in &mut shard.nodes {
                    n.m.take_window();
                }
            }
            return;
        };
        let n_mds = self.cfg.n_mds as usize;
        let mut wins = vec![(0u64, 0u64, 0u64, 0u64); n_mds];
        for shard in &mut self.shards {
            for n in &mut shard.nodes {
                let w = n.m.take_window();
                wins[n.m.id.index()] = (w.served, w.forwarded, w.received, w.misses);
            }
        }
        let mut row = Vec::with_capacity(SNAP_FIELDS.len() * n_mds);
        row.extend(wins.iter().map(|w| w.0));
        row.extend(wins.iter().map(|w| w.1));
        row.extend(wins.iter().map(|w| w.2));
        row.extend(wins.iter().map(|w| w.3));
        series.push_row(at, row);
    }

    /// Resets measured statistics (end of warm-up).
    pub fn reset_measurement(&mut self) {
        for shard in &mut self.shards {
            shard.stats = ShardStats::default();
            shard.lat = LatencyAgg::new();
            for px in &mut shard.proxies {
                px.core.reset_stats();
            }
            for n in &mut shard.nodes {
                n.m.cache.reset_stats();
                n.m.life = Default::default();
                n.m.take_window();
                n.hb_served = 0;
                n.hb_fetches = 0;
            }
        }
        self.migrations = 0;
        self.world.elastic.reset_accounting(self.now_us);
        if let Some(s) = self.snapshots.as_mut() {
            s.reset();
        }
        self.measure_start = self.now_us;
    }

    /// Advances virtual time to `until` (no-op if already past it).
    pub fn run_until(&mut self, until: SimTime) {
        self.run_windows(until.as_micros());
    }

    /// Runs `warmup` unmeasured, resets statistics, runs `measure` more
    /// and reports.
    pub fn run_measured(mut self, warmup: SimDuration, measure: SimDuration) -> ShardReport {
        self.run_windows(warmup.as_micros());
        self.reset_measurement();
        self.run_windows(warmup.as_micros() + measure.as_micros());
        self.finish()
    }

    /// Stops and produces the report. All aggregation walks shards and
    /// nodes in global id order, so the output is identical for every
    /// shard count.
    pub fn finish(self) -> ShardReport {
        let mut stats = ShardStats::default();
        let mut lat = LatencyAgg::new();
        let proxy: ProxyStats =
            self.shards.iter().flat_map(|s| &s.proxies).map(|px| px.core.stats()).sum();
        let mut nodes = Vec::with_capacity(self.cfg.n_mds as usize);
        for shard in &self.shards {
            stats.ops += shard.stats.ops;
            stats.lease_hits += shard.stats.lease_hits;
            stats.timeouts += shard.stats.timeouts;
            stats.retries += shard.stats.retries;
            stats.failed += shard.stats.failed;
            stats.stale += shard.stats.stale;
            lat.merge(&shard.lat);
            for n in &shard.nodes {
                let cs = n.m.cache.stats();
                nodes.push(NodeSnapshot {
                    hit_rate: cs.hit_rate(),
                    prefix_fraction: n.m.cache.prefix_fraction(),
                    cache_len: n.m.cache.len(),
                    served: n.m.life.served,
                    forwarded: n.m.life.forwarded,
                    received: n.m.life.received,
                    disk_fetches: n.m.life.disk_fetches,
                    replica_serves: n.m.life.replica_serves,
                });
            }
        }
        // Provisioned capacity over the measurement window: the heartbeat
        // integral closed out to `now` for elastic runs, the full pool for
        // everything else.
        let provisioned_node_us = if self.cfg.elastic.enabled {
            let live = self.world.alive.iter().filter(|a| **a).count();
            self.world.elastic.provisioned_node_us(live, self.now_us)
        } else {
            self.cfg.n_mds as u64 * (self.now_us - self.measure_start)
        };
        let obs = self.cfg.obs.metrics.then(|| {
            build_obs(
                &self.cfg,
                &stats,
                &lat,
                &nodes,
                self.migrations,
                (self.world.elastic.scale_outs, self.world.elastic.scale_ins),
                &proxy,
                self.snapshots.as_ref(),
            )
        });
        ShardReport {
            strategy: self.cfg.strategy,
            n_mds: self.cfg.n_mds,
            shards: self.shards.len(),
            proxies: self.cfg.proxy.count,
            proxy,
            measure_start: SimTime::from_micros(self.measure_start),
            measure_end: SimTime::from_micros(self.now_us),
            nodes,
            ops: stats.ops,
            lease_hits: stats.lease_hits,
            timeouts: stats.timeouts,
            retries: stats.retries,
            failed: stats.failed,
            stale_replies: stats.stale,
            migrations: self.migrations,
            scale_outs: self.world.elastic.scale_outs,
            scale_ins: self.world.elastic.scale_ins,
            provisioned_node_us,
            latency: lat,
            obs,
        }
    }
}

// ---------------------------------------------------------------------
// report
// ---------------------------------------------------------------------

/// Results of a sharded run. Every field is derived from commutative
/// per-entity aggregates read out in global id order — the
/// shard-count-invariant report surface.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Cluster size.
    pub n_mds: u16,
    /// Shard count the run executed with (not part of `render`, which
    /// must be byte-identical across shard counts).
    pub shards: usize,
    /// Proxy-tier size the run was configured with (0 = tier off;
    /// `proxy` is then all zero and absent from `render`).
    pub proxies: u16,
    /// The proxy tier's counters, summed over every proxy.
    pub proxy: ProxyStats,
    /// Measurement window start.
    pub measure_start: SimTime,
    /// Measurement window end.
    pub measure_end: SimTime,
    /// Per-node lifetime counters, id order.
    pub nodes: Vec<NodeSnapshot>,
    /// Completed client operations in the measurement window.
    pub ops: u64,
    /// Operations served from a client lease.
    pub lease_hits: u64,
    /// Lost-message timeouts observed.
    pub timeouts: u64,
    /// Retransmissions issued.
    pub retries: u64,
    /// Operations abandoned at the retry cap.
    pub failed: u64,
    /// Replies discarded as stale (duplicates, late retries).
    pub stale_replies: u64,
    /// Balancer subtree migrations.
    pub migrations: u64,
    /// Elastic standby activations over the whole run.
    pub scale_outs: u64,
    /// Elastic voluntary departures over the whole run.
    pub scale_ins: u64,
    /// Provisioned capacity consumed in the measurement window, in
    /// node-microseconds (`n_mds` × span for statically provisioned
    /// runs; the heartbeat-integrated live population for elastic runs).
    pub provisioned_node_us: u64,
    /// Completion-latency aggregate.
    pub latency: LatencyAgg,
    /// Observability export, when `cfg.obs.metrics` was on.
    pub obs: Option<crate::obs::ObsExport>,
}

impl ShardReport {
    /// Measurement span in seconds.
    pub fn span_secs(&self) -> f64 {
        (self.measure_end.as_micros() - self.measure_start.as_micros()) as f64 / 1e6
    }

    /// Provisioned capacity in node-seconds.
    pub fn provisioned_node_secs(&self) -> f64 {
        self.provisioned_node_us as f64 / 1e6
    }

    /// Completed ops per second per MDS.
    pub fn avg_mds_throughput(&self) -> f64 {
        let span = self.span_secs();
        if span <= 0.0 {
            0.0
        } else {
            self.ops as f64 / span / self.n_mds as f64
        }
    }

    /// Renders the shard-count-invariant text report (the surface the
    /// golden-diff CI step compares).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== sharded {:?}: {} MDS, {:.1}s measured ===",
            self.strategy,
            self.n_mds,
            self.span_secs()
        );
        let _ = writeln!(
            out,
            "ops {} ({:.1}/s per MDS)  lease hits {}  timeouts {}  retries {}  failed {}  stale {}  migrations {}",
            self.ops,
            self.avg_mds_throughput(),
            self.lease_hits,
            self.timeouts,
            self.retries,
            self.failed,
            self.stale_replies,
            self.migrations
        );
        if self.strategy == StrategyKind::ElasticSubtree {
            let _ = writeln!(
                out,
                "elastic: node-secs {:.1}  scale-outs {}  scale-ins {}",
                self.provisioned_node_secs(),
                self.scale_outs,
                self.scale_ins
            );
        }
        if self.proxies > 0 {
            let _ = writeln!(
                out,
                "proxy ({}): absorbed {}  coalesced {}  forwarded {}  flushed {} in {} batches",
                self.proxies,
                self.proxy.read_absorbs,
                self.proxy.writes_coalesced,
                self.proxy.forwarded,
                self.proxy.flushed_items,
                self.proxy.flush_batches
            );
        }
        let _ = writeln!(
            out,
            "latency µs: mean {:.1}  p50 {}  p99 {}  max {}",
            self.latency.mean_us(),
            self.latency.quantile_us(0.50),
            self.latency.quantile_us(0.99),
            if self.latency.count == 0 { 0 } else { self.latency.max_us }
        );
        let mut table = dynmds_metrics::Table::new(
            "per-node",
            &["mds", "served", "fwd", "recv", "hit%", "prefix%", "cached", "fetches", "replica"],
        );
        for (i, n) in self.nodes.iter().enumerate() {
            table.row(&[
                i.to_string(),
                n.served.to_string(),
                n.forwarded.to_string(),
                n.received.to_string(),
                format!("{:.1}", n.hit_rate * 100.0),
                format!("{:.1}", n.prefix_fraction * 100.0),
                n.cache_len.to_string(),
                n.disk_fetches.to_string(),
                n.replica_serves.to_string(),
            ]);
        }
        out.push_str(&table.render());
        out
    }
}

/// Builds the deterministic obs export from the aggregates: counters in
/// fixed registration order, per-node slots in id order, latency
/// buckets, and the barrier-sampled snapshot series.
#[allow(clippy::too_many_arguments)]
fn build_obs(
    cfg: &SimConfig,
    stats: &ShardStats,
    lat: &LatencyAgg,
    nodes: &[NodeSnapshot],
    migrations: u64,
    (scale_outs, scale_ins): (u64, u64),
    ptotals: &ProxyStats,
    snapshots: Option<&SnapshotSeries>,
) -> crate::obs::ObsExport {
    let n_mds = cfg.n_mds as usize;
    let mut reg = Registry::new();
    let ops = reg.counter("client.ops", 1);
    let lease = reg.counter("client.lease_hits", 1);
    let timeouts = reg.counter("client.timeouts", 1);
    let retries = reg.counter("client.retries", 1);
    let failed = reg.counter("client.failed", 1);
    let stale = reg.counter("client.stale_replies", 1);
    let migr = reg.counter("balancer.migrations", 1);
    let souts = reg.counter("elastic_scale_outs", 1);
    let sins = reg.counter("elastic_scale_ins", 1);
    let served = reg.counter("mds.served", n_mds);
    let forwarded = reg.counter("mds.forwarded", n_mds);
    let received = reg.counter("mds.received", n_mds);
    let fetches = reg.counter("mds.disk_fetches", n_mds);
    let replica = reg.counter("mds.replica_serves", n_mds);
    let lat_hist = reg.counter("latency.log2_us", LAT_BUCKETS);
    reg.add(ops, 0, stats.ops);
    reg.add(lease, 0, stats.lease_hits);
    reg.add(timeouts, 0, stats.timeouts);
    reg.add(retries, 0, stats.retries);
    reg.add(failed, 0, stats.failed);
    reg.add(stale, 0, stats.stale);
    reg.add(migr, 0, migrations);
    reg.add(souts, 0, scale_outs);
    reg.add(sins, 0, scale_ins);
    for (i, n) in nodes.iter().enumerate() {
        reg.add(served, i, n.served);
        reg.add(forwarded, i, n.forwarded);
        reg.add(received, i, n.received);
        reg.add(fetches, i, n.disk_fetches);
        reg.add(replica, i, n.replica_serves);
    }
    for (i, &c) in lat.buckets.iter().enumerate() {
        reg.add(lat_hist, i, c);
    }
    // Proxy counters register last and only when the tier is on, so
    // proxy-off metric exports are byte-identical to pre-proxy builds.
    if cfg.proxy.count > 0 {
        let pa = reg.counter("proxy.absorbed", 1);
        let pc = reg.counter("proxy.coalesced", 1);
        let pf = reg.counter("proxy.forwarded", 1);
        let pfi = reg.counter("proxy.flushed_items", 1);
        let pfb = reg.counter("proxy.flushes", 1);
        reg.add(pa, 0, ptotals.read_absorbs);
        reg.add(pc, 0, ptotals.writes_coalesced);
        reg.add(pf, 0, ptotals.forwarded);
        reg.add(pfi, 0, ptotals.flushed_items);
        reg.add(pfb, 0, ptotals.flush_batches);
    }
    let snapshots_jsonl = snapshots.map(|s| s.to_jsonl()).unwrap_or_default();
    let summary = format!(
        "sharded run: {} ops, {} lease hits, {} timeouts, {} retries, {} migrations, {} scale-outs, {} scale-ins\n",
        stats.ops,
        stats.lease_hits,
        stats.timeouts,
        stats.retries,
        migrations,
        scale_outs,
        scale_ins
    );
    crate::obs::ObsExport {
        metrics_jsonl: reg.to_jsonl(),
        snapshots_jsonl,
        trace_jsonl: None,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_namespace::NamespaceSpec;
    use dynmds_workload::{GeneralWorkload, WorkloadConfig};

    fn build(strategy: StrategyKind, shards: usize, obs: bool) -> ShardedSimulation {
        let mut cfg = SimConfig::small(strategy);
        cfg.client_leases = true;
        if obs {
            cfg.obs = dynmds_obs::ObsConfig::metrics_only();
        }
        build_with(cfg, shards, Some(1))
    }

    /// A run of `cfg` over `shards` queues on a 6,000-item namespace with
    /// a `GeneralWorkload` driving every configured client.
    fn build_with(cfg: SimConfig, shards: usize, threads: Option<usize>) -> ShardedSimulation {
        let snap = NamespaceSpec::with_target_items(24, 6_000, cfg.seed ^ 0xF5).generate();
        let n_clients = cfg.n_clients as usize;
        let homes = snap.user_homes.clone();
        let shared = snap.shared_roots.clone();
        let wl_seed = cfg.seed ^ 0x17;
        ShardedSimulation::new(cfg, shards, threads, snap, &move |ns| {
            Box::new(GeneralWorkload::new(
                WorkloadConfig { seed: wl_seed, ..Default::default() },
                n_clients,
                &homes,
                &shared,
                ns,
            ))
        })
    }

    fn run(strategy: StrategyKind, shards: usize, obs: bool) -> ShardReport {
        build(strategy, shards, obs)
            .run_measured(SimDuration::from_secs(2), SimDuration::from_secs(4))
    }

    /// Fake fan-out driver: one scoped thread per item, and the item
    /// count and `threads` of its last call recorded per test thread.
    fn threaded_driver(n: usize, threads: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
        LAST_FANOUT.with(|c| c.set(Some((n, threads))));
        std::thread::scope(|s| {
            for i in 0..n {
                s.spawn(move || body(i));
            }
        });
    }

    thread_local! {
        static LAST_FANOUT: std::cell::Cell<Option<(usize, Option<usize>)>> =
            const { std::cell::Cell::new(None) };
    }

    /// Runs eight counters through `driver`; returns each one's run count.
    fn fan_out(driver: Option<ParallelDriver>, threads: Option<usize>) -> [u32; 8] {
        let mut shards = [0u32; 8];
        let claims: [AtomicBool; 8] = Default::default();
        for_each_shard(&mut shards, &claims, driver, threads, |s| *s += 1);
        assert!(claims.iter().all(|c| !c.load(Ordering::Relaxed)), "flags cleared for reuse");
        shards
    }

    #[test]
    fn fan_out_runs_every_shard_once_and_forwards_threads() {
        for threads in [Some(1), Some(3), None] {
            LAST_FANOUT.with(|c| c.set(None));
            assert_eq!(fan_out(Some(threaded_driver), threads), [1; 8]);
            assert_eq!(LAST_FANOUT.with(|c| c.get()), Some((8, threads)));
            assert_eq!(fan_out(None, threads), [1; 8]);
        }
        // One shard is stepped directly, as without a driver.
        let mut one = [0u32];
        LAST_FANOUT.with(|c| c.set(None));
        for_each_shard(&mut one, &[AtomicBool::new(false)], Some(threaded_driver), None, |s| {
            *s += 1
        });
        assert_eq!((one, LAST_FANOUT.with(|c| c.get())), ([1], None));
    }

    #[test]
    #[should_panic(expected = "driver dispatched shard 0 twice")]
    fn double_dispatch_panics() {
        fn twice(n: usize, _: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
            for i in 0..n {
                body(i);
                body(i);
            }
        }
        fan_out(Some(twice), None);
    }

    #[test]
    #[should_panic(expected = "driver never dispatched shard 7")]
    fn skipped_dispatch_panics() {
        fn short(n: usize, _: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
            (0..n - 1).for_each(body);
        }
        fan_out(Some(short), None);
    }

    /// Fake fan-out driver: steps every item inline in id order and
    /// appends the `threads` of each call to [`FANOUTS`].
    fn recording_driver(n: usize, threads: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
        FANOUTS.with(|f| f.borrow_mut().push(threads));
        (0..n).for_each(body);
    }

    thread_local! {
        static FANOUTS: std::cell::RefCell<Vec<Option<usize>>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Servers at the scale tier's cost point (30 µs per op, flash OSDs),
    /// so that thousands of clients load windows with dozens of events.
    fn fast_servers(cfg: &mut SimConfig) {
        cfg.costs.cpu_per_op = SimDuration::from_micros(30);
        cfg.costs.cpu_forward = SimDuration::from_micros(5);
        cfg.costs.osd_disk =
            dynmds_storage::DiskParams { latency: SimDuration::from_micros(200), iops: 20_000.0 };
    }

    /// The `threads` of every driver call of a K=4 run with three
    /// workers, and the run's counts: `n_mds` fast servers, `n_clients`
    /// clients at `think_us` mean think time.
    fn fanouts(
        n_mds: u16,
        n_clients: u32,
        think_us: u64,
        force_dense: bool,
    ) -> (Vec<Option<usize>>, RunCounts) {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = n_mds;
        cfg.n_clients = n_clients;
        cfg.costs.think_mean = SimDuration::from_micros(think_us);
        cfg.force_dense = force_dense;
        fast_servers(&mut cfg);
        let mut sim = build_with(cfg, 4, Some(3));
        sim.driver = Some(recording_driver);
        FANOUTS.with(|f| f.borrow_mut().clear());
        sim.run_until(SimTime::from_millis(500));
        let counts = sim.run_counts();
        assert!(sim.finish().ops > 0);
        (FANOUTS.with(|f| f.take()), counts)
    }

    #[test]
    fn sparse_windows_run_inline() {
        // Three clients thinking 20 ms each: no window handles 8 events,
        // so no window reaches the driver.
        let (calls, counts) = fanouts(4, 3, 20_000, false);
        assert!(counts.inline_windows > 50, "only {counts:?}");
        assert_eq!(counts.pooled_windows, 0, "{counts:?}");
        assert!(calls.is_empty(), "{calls:?}");
    }

    #[test]
    fn dense_windows_fan_out_once_the_first_is_seen() {
        // 2000 clients at 2 ms over 16 servers: every window after the
        // first has every shard busy and dozens of events. The first has
        // no predecessor to vouch for it, so it runs inline, with no
        // driver call.
        let (calls, counts) = fanouts(16, 2_000, 2_000, false);
        assert_eq!(counts.inline_windows, 1, "{counts:?}");
        assert_eq!(calls.len() as u64, counts.pooled_windows);
        assert!(calls.len() > 1_000, "only {} windows pooled", calls.len());
        assert!(calls.iter().all(|&t| t == Some(3)), "{calls:?}");
    }

    #[test]
    fn force_dense_fans_every_window_out_with_every_worker() {
        let (calls, _) = fanouts(4, 3, 20_000, true);
        assert_eq!(calls.len(), 5_000, "every 100 µs window of 0.5 s executes");
        assert!(calls.iter().all(|&t| t == Some(3)));
    }

    /// A load shape: wraps the general workload.
    type Shape = fn(GeneralWorkload) -> Box<dyn Workload + Send>;

    /// Eight fast servers under a shaped load: `clients` clients at a
    /// 1 ms mean think time, wrapped by `shape`.
    fn build_shaped(
        shards: usize,
        clients: u32,
        shape: Shape,
        force_dense: bool,
    ) -> ShardedSimulation {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.n_mds = 8;
        cfg.n_clients = clients;
        cfg.client_leases = true;
        cfg.costs.think_mean = SimDuration::from_millis(1);
        cfg.heartbeat = SimDuration::from_millis(40);
        cfg.sample_every = SimDuration::from_millis(20);
        cfg.obs = dynmds_obs::ObsConfig::metrics_only();
        cfg.force_dense = force_dense;
        fast_servers(&mut cfg);
        let snap = NamespaceSpec::with_target_items(24, 6_000, cfg.seed ^ 0xF5).generate();
        let (homes, shared) = (snap.user_homes.clone(), snap.shared_roots.clone());
        let n_clients = clients as usize;
        ShardedSimulation::new(cfg, shards, Some(2), snap, &move |ns| {
            shape(GeneralWorkload::new(WorkloadConfig::default(), n_clients, &homes, &shared, ns))
        })
    }

    /// 5 ms at full rate every 20 ms, think times ×40 in between.
    fn bursty(w: GeneralWorkload) -> Box<dyn Workload + Send> {
        use dynmds_workload::BurstyWorkload;
        let ms = SimDuration::from_millis;
        Box::new(BurstyWorkload::new(w, ms(20), ms(5), 40.0))
    }

    /// A 100 ms day/night cycle, think times up to ×150 at night.
    fn diurnal(w: GeneralWorkload) -> Box<dyn Workload + Send> {
        use dynmds_workload::DiurnalWorkload;
        Box::new(DiurnalWorkload::new(w, SimDuration::from_millis(100), 150.0))
    }

    fn unshaped(w: GeneralWorkload) -> Box<dyn Workload + Send> {
        Box::new(w)
    }

    #[test]
    fn executed_windows_and_events_are_shard_count_invariant() {
        let shapes: [(&str, u32, Shape); 3] =
            [("dense", 2_000, unshaped), ("sparse", 6, unshaped), ("diurnal", 2_000, diurnal)];
        for (name, clients, shape) in shapes {
            let run = |k: usize, dense: bool| {
                let mut sim = build_shaped(k, clients, shape, dense);
                sim.driver = Some(recording_driver);
                sim.run_until(SimTime::from_millis(300));
                sim.run_counts()
            };
            let base = run(1, false);
            assert_eq!(base.pooled_windows, 0, "{name}: one shard never fans out");
            assert!(base.events > 500, "{name}: {base:?}");
            for k in [2, 4, 8] {
                let c = run(k, false);
                assert_eq!(
                    (c.inline_windows + c.pooled_windows, c.events),
                    (base.inline_windows, base.events),
                    "{name}, K={k}: {c:?}"
                );
                if name != "sparse" {
                    assert!(c.pooled_windows > 0, "{name}, K={k}: {c:?}");
                }
            }
            let dense = run(4, true);
            assert_eq!((dense.inline_windows, dense.events), (0, base.events), "{name}");
        }
    }

    /// Runs `sim` to each time in `stops` (µs) in turn, resetting the
    /// statistics at the 100 ms stop, and reports. Also returns how often
    /// execution switched from inline windows to pooled ones and back.
    /// One call covers at most one window when the stops include every
    /// grid barrier, so the counts see every switch.
    fn run_in_stops(mut sim: ShardedSimulation, stops: &[u64]) -> (ShardReport, [u64; 2]) {
        let mut switches = [0; 2];
        let mut last_pooled = None;
        for &t in stops {
            let before = sim.run_counts();
            sim.run_until(SimTime::from_micros(t));
            let after = sim.run_counts();
            // Parity names a pooled window's cells; inline windows write
            // none, so only pooled windows flip it.
            assert_eq!(sim.parity as u64, after.pooled_windows % 2, "parity at {t} µs");
            if after != before {
                let pooled = after.pooled_windows > before.pooled_windows;
                if last_pooled == Some(!pooled) {
                    switches[usize::from(!pooled)] += 1;
                }
                last_pooled = Some(pooled);
            }
            if t == 100_000 {
                sim.reset_measurement();
            }
        }
        (sim.finish(), switches)
    }

    fn obs(r: &ShardReport) -> (String, String) {
        let o = r.obs.as_ref().expect("metrics on");
        (o.metrics_jsonl.clone(), o.snapshots_jsonl.clone())
    }

    #[test]
    fn mail_crosses_run_until_boundaries() {
        // K=4 with every window busy, and K=8 with most windows idle;
        // heartbeats (balancing) and samples fall inside the run.
        for (n_clients, think_us, k) in [(400, 1_000, 4), (6, 20_000, 8)] {
            let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
            cfg.n_mds = 8;
            cfg.n_clients = n_clients;
            cfg.costs.think_mean = SimDuration::from_micros(think_us);
            cfg.heartbeat = SimDuration::from_millis(40);
            cfg.sample_every = SimDuration::from_millis(20);
            cfg.obs = dynmds_obs::ObsConfig::metrics_only();
            let sim = || {
                let mut sim = build_with(cfg.clone(), k, Some(2));
                sim.driver = Some(threaded_driver);
                sim
            };
            let (whole, _) = run_in_stops(sim(), &[100_000, 300_000]);
            let (split, _) = run_in_stops(
                sim(),
                &[13, 37_913, 37_950, 100_000, 100_001, 123_457, 211_111, 299_999, 300_000],
            );
            assert!(whole.ops > 0);
            assert_eq!(whole.render(), split.render(), "{n_clients} clients, K={k}");
            assert_eq!(obs(&whole), obs(&split), "{n_clients} clients, K={k}");
        }
    }

    #[test]
    fn inline_and_pooled_windows_alternate_without_changing_the_run() {
        // Bursts open the gate and idle stretches close it again. Stepping
        // one grid window per call, with an off-grid stop inside every
        // third window, must match one shard and a force-dense run.
        let mut stops: Vec<u64> = (1..=3_000).map(|w| w * 100).collect();
        stops.extend((0..1_000).map(|w| w * 300 + 37));
        stops.sort_unstable();
        let mut gated = build_shaped(4, 2_000, bursty, false);
        gated.driver = Some(recording_driver);
        let (stepped, [up, down]) = run_in_stops(gated, &stops);
        assert!(up >= 10 && down >= 10, "{up} inline→pooled, {down} pooled→inline switches");
        let (one, _) = run_in_stops(build_shaped(1, 2_000, bursty, false), &[100_000, 300_000]);
        let mut dense = build_shaped(4, 2_000, bursty, true);
        dense.driver = Some(recording_driver);
        let (dense, _) = run_in_stops(dense, &[100_000, 300_000]);
        assert!(one.ops > 500, "only {} ops", one.ops);
        for (name, r) in [("one shard", &one), ("force dense", &dense)] {
            assert_eq!(stepped.render(), r.render(), "{name}");
            assert_eq!(obs(&stepped), obs(r), "{name}");
        }
    }

    #[test]
    fn sharded_run_serves_operations() {
        let r = run(StrategyKind::DynamicSubtree, 1, false);
        assert!(r.ops > 1_000, "only {} ops completed", r.ops);
        assert!(r.latency.count > 0);
        assert!(r.nodes.iter().map(|n| n.served).sum::<u64>() > 0);
    }

    #[test]
    fn fixed_shard_count_is_deterministic() {
        let a = run(StrategyKind::DynamicSubtree, 2, true);
        let b = run(StrategyKind::DynamicSubtree, 2, true);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.obs.as_ref().unwrap().metrics_jsonl, b.obs.as_ref().unwrap().metrics_jsonl);
        assert_eq!(
            a.obs.as_ref().unwrap().snapshots_jsonl,
            b.obs.as_ref().unwrap().snapshots_jsonl
        );
    }

    #[test]
    fn report_is_invariant_across_shard_counts() {
        let base = run(StrategyKind::DynamicSubtree, 1, true);
        for k in [2usize, 4] {
            let r = run(StrategyKind::DynamicSubtree, k, true);
            assert_eq!(base.render(), r.render(), "render diverged at {k} shards");
            assert_eq!(
                base.obs.as_ref().unwrap().metrics_jsonl,
                r.obs.as_ref().unwrap().metrics_jsonl,
                "obs metrics diverged at {k} shards"
            );
            assert_eq!(
                base.obs.as_ref().unwrap().snapshots_jsonl,
                r.obs.as_ref().unwrap().snapshots_jsonl,
                "obs snapshots diverged at {k} shards"
            );
        }
    }

    /// Proxy-on run over a deliberately narrow hot set so the tier
    /// actually absorbs work inside a short test window.
    fn run_proxied(shards: usize) -> ShardReport {
        use dynmds_workload::FlashCrowd;
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.client_leases = false;
        cfg.obs = dynmds_obs::ObsConfig::metrics_only();
        cfg.proxy.count = 2;
        cfg.proxy.hot_threshold = 8.0;
        let snap = NamespaceSpec::with_target_items(24, 6_000, cfg.seed ^ 0xF5).generate();
        let n_clients = cfg.n_clients as usize;
        ShardedSimulation::new(cfg, shards, Some(1), snap, &move |ns| {
            let target = ns.walk(ns.root()).find(|&i| !ns.is_dir(i)).expect("a file exists");
            Box::new(FlashCrowd::new(target, n_clients))
        })
        .run_measured(SimDuration::from_secs(2), SimDuration::from_secs(4))
    }

    #[test]
    fn proxied_run_absorbs_hot_traffic() {
        let r = run_proxied(1);
        assert!(r.ops > 1_000, "only {} ops completed", r.ops);
        assert!(
            r.proxy.read_absorbs + r.proxy.writes_coalesced > 0,
            "flash crowd never engaged the proxies: {r:?}"
        );
        assert!(r.proxy.flushed_items <= r.proxy.writes_coalesced);
    }

    #[test]
    fn proxied_report_is_invariant_across_shard_counts() {
        let base = run_proxied(1);
        assert!(
            base.proxy.read_absorbs + base.proxy.writes_coalesced > 0,
            "tier must act for this to bite"
        );
        for k in [2usize, 4] {
            let r = run_proxied(k);
            assert_eq!(base.render(), r.render(), "render diverged at {k} shards");
            assert_eq!(
                base.obs.as_ref().unwrap().metrics_jsonl,
                r.obs.as_ref().unwrap().metrics_jsonl,
                "obs metrics diverged at {k} shards"
            );
        }
    }

    #[test]
    fn hashed_strategy_runs_and_never_forwards() {
        let r = run(StrategyKind::FileHash, 2, false);
        assert!(r.ops > 1_000);
        assert_eq!(r.nodes.iter().map(|n| n.forwarded).sum::<u64>(), 0);
    }

    #[test]
    fn shard_count_clamps_to_node_count() {
        let sim = build(StrategyKind::DynamicSubtree, 64, false);
        assert_eq!(sim.shard_count(), 4, "small config has 4 nodes");
    }

    /// Elastic pool over a day/night load shape: tight heartbeat so the
    /// controller gets enough ticks inside a short test run.
    fn build_elastic(shards: usize, high: f64, low: f64) -> ShardedSimulation {
        use dynmds_workload::DiurnalWorkload;
        let mut cfg = SimConfig::small(StrategyKind::ElasticSubtree);
        cfg.client_leases = true;
        cfg.obs = dynmds_obs::ObsConfig::metrics_only();
        cfg.heartbeat = SimDuration::from_millis(250);
        cfg.elastic.min_nodes = 2;
        cfg.elastic.high_load_per_s = high;
        cfg.elastic.low_load_per_s = low;
        cfg.elastic.sustain = 2;
        cfg.elastic.cooldown_heartbeats = 1;
        let snap = NamespaceSpec::with_target_items(24, 6_000, cfg.seed ^ 0xF5).generate();
        let n_clients = cfg.n_clients as usize;
        let homes = snap.user_homes.clone();
        let shared = snap.shared_roots.clone();
        let wl_seed = cfg.seed ^ 0x17;
        ShardedSimulation::new(cfg, shards, Some(1), snap, &move |ns| {
            Box::new(DiurnalWorkload::new(
                GeneralWorkload::new(
                    WorkloadConfig { seed: wl_seed, ..Default::default() },
                    n_clients,
                    &homes,
                    &shared,
                    ns,
                ),
                SimDuration::from_secs(3),
                150.0,
            ))
        })
    }

    fn run_elastic(shards: usize, high: f64, low: f64) -> ShardReport {
        build_elastic(shards, high, low)
            .run_measured(SimDuration::from_secs(2), SimDuration::from_secs(6))
    }

    /// Day/night per-node rates measured on this configuration (daytime
    /// is server-saturated around 700–1500/s per node, the ×150 night
    /// trough is think-limited well under 200/s); the watermarks sit
    /// between the two plateaus.
    const ELASTIC_HIGH: f64 = 500.0;
    const ELASTIC_LOW: f64 = 250.0;

    /// Every delegation names a live node, and every down node is one
    /// the controller parked.
    fn assert_no_parked_owner(sim: &ShardedSimulation, when: &str) {
        for (root, owner) in sim.world.partition.as_subtree().unwrap().delegations() {
            assert!(sim.world.alive[owner.index()], "{when}: {root:?} owned by parked {owner:?}");
        }
        for m in 0..sim.world.alive.len() {
            assert_eq!(sim.world.alive[m], sim.world.elastic.members[m], "{when}: node {m}");
        }
    }

    /// The placement table holds the rule's from-scratch answer for
    /// every id below the id bound, and one past it.
    fn assert_placement_matches(sim: &ShardedSimulation, when: &str) {
        let ns = &sim.world.snapshot.ns;
        let part = &sim.world.partition;
        for id in (0..=ns.id_bound()).map(InodeId) {
            assert_eq!(part.authority(id), part.recompute(ns, id), "{when}: {id:?}");
        }
    }

    /// Runs `slices` slices of `slice_ms` each, checking the placement
    /// table after construction and after every slice.
    fn run_checking_placement(sim: &mut ShardedSimulation, slices: u64, slice_ms: u64) {
        assert_placement_matches(sim, "construction");
        for step in 1..=slices {
            sim.run_until(SimTime::from_millis(slice_ms * step));
            assert_placement_matches(sim, &format!("t={}ms", slice_ms * step));
        }
    }

    #[test]
    fn placement_follows_balancing_and_a_crash_with_links_and_tombstones() {
        let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        cfg.heartbeat = SimDuration::from_millis(250);
        // Crash the tree root's owner, so its delegations, the root's
        // among them, move to an heir.
        let root_owner = dynmds_partition::path_hash("/", cfg.n_mds);
        cfg.faults =
            crate::fault::FaultSchedule::parse(&format!("crash:{}@1s", root_owner.0)).unwrap();
        let mut snap = NamespaceSpec::with_target_items(24, 6_000, cfg.seed ^ 0xF5).generate();
        // A hard link into another home, and a tombstone.
        let ns = &mut snap.ns;
        let (home_a, home_b) = (snap.user_homes[0], snap.user_homes[1]);
        let file = ns.walk(home_a).find(|&i| !ns.is_dir(i)).expect("a file in home 0");
        ns.link(file, home_b, "hardlink").unwrap();
        let doomed = ns.walk(home_b).find(|&i| !ns.is_dir(i) && i != file).expect("a file");
        let (dir, name) =
            (ns.parent(doomed).unwrap().unwrap(), ns.name(doomed).unwrap().to_owned());
        ns.unlink(dir, &name).unwrap();
        assert!(!ns.is_alive(doomed));
        let n_clients = cfg.n_clients as usize;
        let (homes, shared) = (snap.user_homes.clone(), snap.shared_roots.clone());
        let mut sim = ShardedSimulation::new(cfg, 2, Some(1), snap, &move |ns| {
            Box::new(GeneralWorkload::new(
                WorkloadConfig::default(),
                n_clients,
                &homes,
                &shared,
                ns,
            ))
        });
        run_checking_placement(&mut sim, 12, 250);
        let root = sim.world.snapshot.ns.root();
        let now_owner = sim.world.partition.as_subtree().unwrap().delegation_of(root);
        assert_ne!(now_owner, Some(root_owner), "the crash moved the root");
        let r = sim.finish();
        assert!(r.migrations >= 1, "balancer idle: {r:?}");
    }

    #[test]
    fn placement_matches_hashed_strategies() {
        for strategy in [StrategyKind::FileHash, StrategyKind::LazyHybrid] {
            let mut sim = build(strategy, 2, false);
            run_checking_placement(&mut sim, 4, 250);
            assert!(sim.finish().ops > 0, "{strategy:?}");
        }
    }

    #[test]
    fn elastic_pool_scales_with_the_diurnal_cycle() {
        // Watermarks straddle the day/night per-node rates: daytime load
        // activates standby nodes, the night trough parks them again. At
        // every heartbeat no delegation may name a parked node, and the
        // placement table follows every move.
        let mut sim = build_elastic(2, ELASTIC_HIGH, ELASTIC_LOW);
        assert_eq!(sim.world.alive, [true, true, false, false], "pool starts at min_nodes");
        assert_no_parked_owner(&sim, "construction");
        assert_placement_matches(&sim, "construction");
        for step in 1..=32u64 {
            if step == 9 {
                sim.reset_measurement(); // after 2 s of warm-up
            }
            sim.run_until(SimTime::from_millis(250 * step));
            assert_no_parked_owner(&sim, &format!("t={}ms", 250 * step));
            assert_placement_matches(&sim, &format!("t={}ms", 250 * step));
        }
        let r = sim.finish();
        assert!(r.scale_outs >= 1, "daytime peak never activated a standby node");
        assert!(r.scale_ins >= 1, "night trough never parked a node");
        assert!(r.migrations >= 1, "the balancer never moved a subtree");
        assert!(r.ops > 1_000, "only {} ops completed", r.ops);
        assert!(
            r.provisioned_node_us
                < r.n_mds as u64 * (r.measure_end.as_micros() - r.measure_start.as_micros()),
            "elastic run should use less than the full static pool"
        );
    }

    #[test]
    fn elastic_report_is_invariant_across_shard_counts() {
        let base = run_elastic(1, ELASTIC_HIGH, ELASTIC_LOW);
        assert!(base.scale_outs + base.scale_ins > 0, "controller must act for this test to bite");
        for k in [2usize, 4] {
            let r = run_elastic(k, ELASTIC_HIGH, ELASTIC_LOW);
            assert_eq!(base.render(), r.render(), "render diverged at {k} shards");
            assert_eq!(
                base.obs.as_ref().unwrap().metrics_jsonl,
                r.obs.as_ref().unwrap().metrics_jsonl,
                "obs metrics diverged at {k} shards"
            );
        }
    }

    #[test]
    fn sustained_overload_fills_the_pool_and_hands_trees_back() {
        // A watermark below any observed load forces scale-out to the full
        // pool; the returning nodes must get delegations back.
        let sim = build_elastic(2, 0.001, 0.0);
        let r = sim.run_measured(SimDuration::from_secs(2), SimDuration::from_secs(4));
        assert_eq!(r.scale_outs, 2, "both standby nodes join under sustained overload");
        assert_eq!(r.scale_ins, 0);
        let served: Vec<u64> = r.nodes.iter().map(|n| n.served).collect();
        assert!(served[2] + served[3] > 0, "activated nodes serve traffic: {served:?}");
    }
}
