//! Per-shard state and the client, server and proxy event handlers.

use dynmds_cache::{InsertKind, Popularity};
use dynmds_event::{EventQueue, SimRng, SimTime};
use dynmds_namespace::{ClientId, FxHashMap, FxHashSet, InodeId, MdsId, Snapshot};
use dynmds_partition::Partition;
use dynmds_proxy::ProxyCore;
use dynmds_storage::{AccessKind, DiskModel};
use dynmds_workload::Workload;

use super::event::{canonical_key, client_rank, node_rank, proxy_rank, Ev, Mail, OutMsg};
use super::owner;
use super::report::LatencyAgg;
use crate::config::SimConfig;
use crate::elastic::ElasticCtl;
use crate::fault::{NetFaultSpec, RetryPolicy};
use crate::node::MdsNode;

/// One MDS node as owned by a shard: the legacy node state plus a
/// private OSD-fetch device, RNG stream and send counter.
pub(super) struct ShardNode {
    pub(super) m: MdsNode,
    /// Per-node metadata-fetch device (the sharded model gives each node
    /// a private tier-2 pipe instead of the legacy shared OSD pool).
    pub(super) osd: DiskModel,
    pub(super) rng: SimRng,
    pub(super) send_seq: u64,
    /// Replication candidates observed since the last heartbeat.
    pub(super) hot_pending: Vec<InodeId>,
    /// `life.served` / `life.disk_fetches` at the last heartbeat, for
    /// balancer load deltas.
    pub(super) hb_served: u64,
    pub(super) hb_fetches: u64,
    /// Hot-object detector feeding the proxy tier (touched only when the
    /// tier is enabled; records reads *and* writes, unlike `popularity`).
    pub(super) proxy_pop: Popularity,
    /// Proxy-tier hot candidates observed since the last heartbeat.
    pub(super) proxy_hot_pending: Vec<InodeId>,
}

/// One hotspot proxy as owned by a shard: the shared state machine plus
/// this engine's transport. The namespace is frozen, so the core's
/// negative-lookup cache stays empty here.
#[derive(Debug)]
pub(super) struct ProxySt {
    pub(super) core: ProxyCore,
    /// Serial-CPU availability, µs.
    pub(super) free_at: u64,
    pub(super) send_seq: u64,
}

/// One client as owned by a shard.
pub(super) struct ClientSt {
    pub(super) rng: SimRng,
    /// Learned exact-item locations (the sharded model's simplification
    /// of the legacy deepest-known-prefix routing).
    pub(super) routes: FxHashMap<InodeId, MdsId>,
    /// Item → lease expiry (µs).
    pub(super) leases: FxHashMap<InodeId, u64>,
    pub(super) op_seq: u32,
    pub(super) pending: Option<PendingOp>,
    pub(super) send_seq: u64,
}

pub(super) struct PendingOp {
    item: InodeId,
    write: bool,
    issued: u64,
    retries: u8,
}

/// Counters aggregated into the report (all commutative integers).
#[derive(Clone, Debug, Default)]
pub(super) struct ShardStats {
    pub(super) ops: u64,
    pub(super) lease_hits: u64,
    pub(super) timeouts: u64,
    pub(super) retries: u64,
    pub(super) failed: u64,
    pub(super) stale: u64,
}

/// The run's config and global state: every shard may read it during a
/// window, but only the barrier (which holds `&mut` everything) may write.
pub(super) struct World {
    /// The run's configuration, the one copy every handler reads.
    pub(super) cfg: SimConfig,
    /// Window width, µs, which is also the cross-shard delivery latency:
    /// messages land at `send + window_us`, at or past the next barrier.
    pub(super) window_us: u64,
    pub(super) snapshot: Snapshot,
    /// The placement, one for all shards: its table answers every
    /// snapshot id with one load. Only the barrier changes it, through
    /// [`Partition::delegate`], which repaints the moved region.
    pub(super) partition: Partition,
    pub(super) alive: Vec<bool>,
    /// The elastic controller; its `members` are the *announced*
    /// membership that unknown-item routing draws from.
    pub(super) elastic: ElasticCtl,
    pub(super) net: Option<NetFaultSpec>,
    pub(super) replicated: FxHashSet<InodeId>,
    /// Items the proxy tier serves (heartbeat-announced, like
    /// `replicated`; empty whenever the tier is disabled).
    pub(super) proxy_hot: FxHashSet<InodeId>,
}

pub(super) struct Shard {
    pub(super) queue: EventQueue<Ev>,
    pub(super) node_lo: usize,
    pub(super) nodes: Vec<ShardNode>,
    pub(super) client_lo: u32,
    pub(super) clients: Vec<ClientSt>,
    pub(super) proxy_lo: u16,
    pub(super) proxies: Vec<ProxySt>,
    pub(super) workload: Box<dyn Workload + Send>,
    /// This shard's index: the `src` of the mail it posts.
    pub(super) id: usize,
    /// Outgoing messages per destination shard, swapped into the mail
    /// cells at the end of each window step.
    pub(super) outbox: Vec<Vec<OutMsg>>,
    /// Destination shards this window's step has sent to, in first-send
    /// order: an inline window delivers to them, and the barrier after a
    /// pooled one turns them into the destinations' `inbound`.
    pub(super) sent_to: Vec<usize>,
    /// Source shards whose cells hold mail for this shard, scheduled at
    /// the start of its next pooled step, or by the coordinator before
    /// the next inline window steps.
    pub(super) inbound: Vec<usize>,
    /// Same-timestamp batch scratch (allocation reused across windows).
    pub(super) batch: Vec<Ev>,
    /// Events the last [`Shard::run_window`] handled.
    pub(super) window_events: u64,
    /// Earliest send time among the messages of the current pooled
    /// step (`u64::MAX` when it sent none); the barrier turns it into
    /// [`ShardedSimulation::mail_due`].
    pub(super) first_send: u64,
    pub(super) stats: ShardStats,
    pub(super) lat: LatencyAgg,
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
    pub(super) fn node(&mut self, m: MdsId) -> &mut ShardNode {
        &mut self.nodes[m.index() - self.node_lo]
    }

    fn client(&mut self, c: ClientId) -> &mut ClientSt {
        &mut self.clients[(c.0 - self.client_lo) as usize]
    }

    /// One pooled window step of parity `parity`: schedules the mail
    /// posted to this shard in the previous window, if that one was
    /// pooled too, runs the window, then posts its outboxes to this
    /// window's cells.
    pub(super) fn run_window(&mut self, world: &World, mail: &Mail, parity: usize, end: u64) {
        self.schedule_inbound(world, mail, parity ^ 1);
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
    pub(super) fn schedule_inbound(&mut self, world: &World, mail: &Mail, parity: usize) {
        for src in self.inbound.drain(..) {
            for m in mail.cell(parity, src, self.id).drain(..) {
                self.queue.schedule(SimTime::from_micros(m.send + world.window_us), m.ev);
            }
        }
    }

    /// Runs every event strictly before `end` (µs), leaving what it sends
    /// in the outboxes. Same-timestamp batches are collected and
    /// canonically sorted before processing; follow-ups are always at
    /// least 1 µs out, so a batch is closed by the time it is sorted.
    /// Records how many events it handled.
    pub(super) fn step(&mut self, world: &World, end: u64) {
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
            Ev::Reply { client: c, op_seq, item, server, lease_until, ok, from_proxy, .. } => {
                self.client_reply(world, t, c, op_seq, item, server, lease_until, ok, from_proxy);
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
    fn think_mean_us(&self, world: &World, t: u64) -> f64 {
        world.cfg.costs.think_mean.as_micros() as f64
            * self.workload.think_scale(SimTime::from_micros(t))
    }

    // --- client side --------------------------------------------------

    fn client_issue(&mut self, world: &World, t: u64, c: ClientId, retrying: bool) {
        let (cfg, k) = (&world.cfg, self.outbox.len());
        let think_us = self.think_mean_us(world, t);

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
            if cfg.client_leases && !write {
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
        if cfg.proxy.enabled() && world.proxy_hot.contains(&item) {
            let p = (c.0 % cfg.proxy.count as u32) as u16;
            let dst_shard = owner(p as usize, cfg.proxy.count as usize, k);
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
        } else if !cfg.strategy.is_subtree() {
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
                self.fail_or_retry(world, t, c, op_seq, item, false);
                return;
            }
        }
        let dup = match world.net {
            Some(net) if net.dup_p > 0.0 => self.client(c).rng.chance(net.dup_p),
            _ => false,
        };
        let dst_shard = owner(dst.index(), cfg.n_mds as usize, k);
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
    fn fail_or_retry(
        &mut self,
        world: &World,
        t: u64,
        c: ClientId,
        op_seq: u32,
        item: InodeId,
        drop_route: bool,
    ) {
        let think_us = self.think_mean_us(world, t);
        let retry_policy: RetryPolicy = world.cfg.retry;
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
        world: &World,
        t: u64,
        c: ClientId,
        op_seq: u32,
        item: InodeId,
        server: MdsId,
        lease_until: u64,
        ok: bool,
        from_proxy: bool,
    ) {
        let think_us = self.think_mean_us(world, t);
        let cl = self.client(c);
        if cl.op_seq != op_seq || cl.pending.is_none() {
            self.stats.stale += 1;
            return;
        }
        if !ok {
            self.fail_or_retry(world, t, c, op_seq, item, true);
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
        let (cfg, k) = (&world.cfg, self.outbox.len());
        let client_shard = owner(client.0 as usize, cfg.n_clients as usize, k);

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
            let done = n.m.occupy(SimTime::from_micros(t), cfg.costs.cpu_forward).as_micros();
            let seq = n.send_seq;
            n.send_seq += 1;
            let auth_shard = owner(auth.index(), cfg.n_mds as usize, k);
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
        let mut done = n.m.occupy(now, cfg.costs.cpu_per_op);
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
        if cfg.traffic_control && !write && !replicated {
            let pop = n.m.popularity.record(now, item);
            if pop >= cfg.replication_threshold {
                n.hot_pending.push(item);
            }
        }
        // Hotspot proxy tier: nodes detect hot objects (reads and writes
        // both count) and announce them at the heartbeat.
        if cfg.proxy.enabled() && !world.proxy_hot.contains(&item) {
            let v = n.proxy_pop.record(now, item);
            if v >= cfg.proxy.hot_threshold {
                n.proxy_hot_pending.push(item);
            }
        }
        // Reply; in-transit reply loss is drawn from the node's stream.
        let ok = match world.net {
            Some(net) if net.loss_p > 0.0 => !n.rng.chance(net.loss_p),
            _ => true,
        };
        let done_us = done.as_micros();
        let lease_until =
            if ok && cfg.client_leases && !write { done_us + cfg.lease_ttl.as_micros() } else { 0 };
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
        let (cfg, k) = (&world.cfg, self.outbox.len());
        let client_shard = owner(client.0 as usize, cfg.n_clients as usize, k);
        let px = &mut self.proxies[(p - self.proxy_lo) as usize];
        let done = px.free_at.max(t) + cfg.proxy.proxy_cpu_us.max(1);
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
            let auth_shard = owner(auth.index(), cfg.n_mds as usize, k);
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
        let now = SimTime::from_micros(t);
        let n = self.node(m);
        let _ = n.m.journal.append(item);
        n.m.occupy(now, world.cfg.costs.cpu_per_op);
        n.m.journal_disk.access(now, AccessKind::Write);
    }
}
