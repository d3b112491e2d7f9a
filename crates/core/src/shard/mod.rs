//! Sharded simulation core: one run over K event queues with
//! conservative time-window synchronization.
//!
//! The legacy [`Simulation`](crate::Simulation) dispatches every event of
//! a run from one queue. This module partitions the cluster — MDS nodes,
//! clients and proxies, each in contiguous blocks by id — into K
//! *shards*, each with its own [`EventQueue`], per-entity RNG streams and
//! counters, and executes them window by window:
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
//! deviations: frozen namespace shape, one flat cache lookup per item
//! with no prefix traversal, exact-item client routing,
//! heartbeat-quantized traffic control, omniscient loss notification).
//!
//! Submodules: `event` (events, their canonical order, mail), `handlers`
//! (per-shard state and the client, server and proxy handlers), `window`
//! (the window loop), `barrier` (barrier-global steps), `report` (the
//! report) and `driver` (the parallel fan-out). Both engines render
//! their obs export through one function, `obs::export`.

mod barrier;
mod driver;
mod event;
mod handlers;
mod report;
#[cfg(test)]
mod testkit;
mod window;

use std::ops::Range;
use std::sync::atomic::AtomicBool;

use dynmds_cache::Popularity;
use dynmds_event::{EventQueue, SimDuration, SimRng, SimTime};
use dynmds_namespace::{ClientId, FxHashMap, FxHashSet, MdsId, Snapshot};
use dynmds_obs::SnapshotSeries;
use dynmds_partition::{Partition, StrategyKind};
use dynmds_proxy::{ProxyCore, ProxyStats};
use dynmds_storage::DiskModel;
use dynmds_workload::Workload;

use crate::cluster::ClusterCounters;
use crate::config::SimConfig;
use crate::elastic::ElasticCtl;
use crate::fault::FaultStep;
use crate::node::{sample_series, MdsNode};
use crate::obs::{LatencyAgg, Measured};

use driver::DRIVER;
pub use driver::{install_parallel_driver, ParallelDriver};
use event::{Ev, Mail};
use handlers::{ClientSt, ProxySt, Shard, ShardNode, World};
pub use report::ShardReport;

/// The shard that owns entity `i` of `n` when they are split into `k`
/// contiguous blocks: the one ownership rule for nodes, clients and
/// proxies. `owner(i, n, k) == s` exactly when `i` is in `range(s, n, k)`.
fn owner(i: usize, n: usize, k: usize) -> usize {
    i * k / n
}

/// The ids shard `s` owns out of `n` split into `k` blocks,
/// `⌈s·n/k⌉..⌈(s+1)·n/k⌉`; empty when `n < k` leaves the shard none.
fn range(s: usize, n: usize, k: usize) -> Range<usize> {
    (s * n).div_ceil(k)..((s + 1) * n).div_ceil(k)
}

/// A configured sharded run. Behavior is deterministic for a fixed shard
/// count and report-surface-identical across shard counts; see the
/// module docs for the argument.
pub struct ShardedSimulation {
    shards: Vec<Shard>,
    /// Claim flags for [`for_each_shard`](driver::for_each_shard), one
    /// per shard, reused by every window.
    claims: Vec<AtomicBool>,
    /// The fan-out driver installed when the run was built.
    driver: Option<ParallelDriver>,
    /// The run's config and read-mostly state, shared by every shard.
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
    now_us: u64,
    steps: Vec<(u64, FaultStep)>,
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
    /// The shards' summed counters when measurement last restarted.
    measure_base: ClusterCounters,
    /// Per-node sample series: one row per sample tick since measurement
    /// last restarted.
    samples: SnapshotSeries,
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
        let n_clients = cfg.n_clients as usize;
        let spread = cfg.costs.think_mean.as_micros();
        let new_node = |m: usize| ShardNode {
            m: MdsNode::new(MdsId(m as u16), &cfg),
            osd: DiskModel::new(cfg.costs.osd_disk),
            rng: SimRng::seed_from_u64(
                cfg.seed ^ 0x0005_D0DE ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            send_seq: 0,
            hot_pending: Vec::new(),
            proxy_pop: Popularity::new(dynmds_proxy::HALF_LIFE),
            proxy_hot_pending: Vec::new(),
        };
        let new_client = |c: usize| ClientSt {
            rng: SimRng::seed_from_u64(
                cfg.seed ^ 0x005D_C11E ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            routes: FxHashMap::default(),
            leases: FxHashMap::default(),
            op_seq: 0,
            pending: None,
            send_seq: 0,
        };

        let mut shard_vec = Vec::with_capacity(k);
        for s in 0..k {
            let workload = make_workload(&snapshot.ns);
            assert_eq!(
                workload.clients(),
                n_clients,
                "workload must drive exactly the configured clients"
            );
            let (nodes, clients, proxies) =
                (range(s, n_mds, k), range(s, n_clients, k), range(s, cfg.proxy.count as usize, k));
            let mut queue = EventQueue::new();
            // First requests spread over one think period, same ramp as
            // the legacy engine.
            for c in clients.clone() {
                let offset = if n_clients > 1 { spread * c as u64 / n_clients as u64 } else { 0 };
                queue.schedule(SimTime::from_micros(offset), Ev::Issue(ClientId(c as u32)));
            }
            shard_vec.push(Shard {
                queue,
                node_lo: nodes.start,
                nodes: nodes.map(new_node).collect(),
                client_lo: clients.start as u32,
                clients: clients.map(new_client).collect(),
                proxy_lo: proxies.start as u16,
                proxies: proxies
                    .map(|_| ProxySt { core: ProxyCore::new(&cfg.proxy), free_at: 0, send_seq: 0 })
                    .collect(),
                workload,
                id: s,
                outbox: (0..k).map(|_| Vec::new()).collect(),
                sent_to: Vec::new(),
                inbound: Vec::new(),
                batch: Vec::new(),
                window_events: 0,
                first_send: u64::MAX,
                counters: ClusterCounters::default(),
                lat: LatencyAgg::new(),
            });
        }

        let steps =
            cfg.faults.steps(n_mds).into_iter().map(|(at, s)| (at.as_micros(), s)).collect();

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
                window_us: cfg.costs.net_hop.as_micros().max(1),
                cfg,
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
            now_us: 0,
            steps,
            next_step: 0,
            next_heartbeat: heartbeat,
            next_sample: sample,
            next_due: 0,
            measure_start: 0,
            measure_base: ClusterCounters::default(),
            samples: sample_series(n_mds),
        };
        if sim.world.cfg.strategy == StrategyKind::ElasticSubtree {
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
        let n_mds = self.world.cfg.n_mds as usize;
        let min = (self.world.cfg.elastic.min_nodes.max(1) as usize).min(n_mds);
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

    /// The shard that owns node `m`.
    fn node_shard(&mut self, m: MdsId) -> &mut Shard {
        let s = owner(m.index(), self.world.cfg.n_mds as usize, self.shards.len());
        &mut self.shards[s]
    }

    /// Node `m`, on the shard that owns it.
    fn node_mut(&mut self, m: MdsId) -> &mut ShardNode {
        self.node_shard(m).node(m)
    }

    /// The shards' counters summed, over the whole run.
    fn counters(&self) -> ClusterCounters {
        self.shards.iter().map(|s| &s.counters).sum()
    }

    /// The placement table.
    pub fn partition(&self) -> &Partition {
        &self.world.partition
    }

    /// Windows and events executed so far. The executed-window total
    /// and the event count are the same for every shard count; only how
    /// the windows split between inline and pooled depends on it.
    pub fn run_counts(&self) -> RunCounts {
        self.counts
    }

    /// Resets measured statistics (end of warm-up). Unlike the legacy
    /// engine's, this also opens a new heartbeat window on every node, so
    /// the first measured heartbeat loads on post-reset ops only.
    pub fn reset_measurement(&mut self) {
        self.measure_base = self.counters();
        for shard in &mut self.shards {
            shard.lat = LatencyAgg::new();
            for px in &mut shard.proxies {
                px.core.reset_stats();
            }
            for n in &mut shard.nodes {
                n.m.reset_measurement();
                n.m.take_heartbeat();
            }
        }
        self.world.elastic.reset_accounting(self.now_us);
        self.samples.reset();
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
        let cfg = &self.world.cfg;
        let (life, mut lat) = (self.counters(), LatencyAgg::new());
        let counters = life.since(&self.measure_base);
        let mut nodes = Vec::with_capacity(cfg.n_mds as usize);
        for shard in &self.shards {
            lat.merge(&shard.lat);
            nodes.extend(shard.nodes.iter().map(|n| &n.m));
        }
        let proxies: Vec<ProxyStats> =
            self.shards.iter().flat_map(|s| &s.proxies).map(|px| *px.core.stats()).collect();
        let elastic = cfg.strategy == StrategyKind::ElasticSubtree;
        let obs = cfg.obs.enabled().then(|| {
            crate::obs::export(&Measured {
                nodes: nodes.iter().map(|n| n.measured()).collect(),
                counters,
                elastic,
                proxies: &proxies,
                latency: &lat,
                samples: &self.samples,
                spans: None,
            })
        });
        // Provisioned capacity over the measurement window: the heartbeat
        // integral closed out to `now` for elastic runs, the full pool for
        // everything else.
        let provisioned_node_us = if elastic {
            let live = self.world.alive.iter().filter(|a| **a).count();
            self.world.elastic.provisioned_node_us(live, self.now_us)
        } else {
            cfg.n_mds as u64 * (self.now_us - self.measure_start)
        };
        ShardReport {
            strategy: cfg.strategy,
            n_mds: cfg.n_mds,
            proxies: cfg.proxy.count,
            proxy: proxies.iter().sum(),
            measure_start: SimTime::from_micros(self.measure_start),
            measure_end: SimTime::from_micros(self.now_us),
            nodes: nodes.iter().map(|n| n.snapshot()).collect(),
            ops: lat.count,
            lease_hits: counters.lease_hits,
            failed: counters.gave_up,
            migrations: counters.migrations,
            scale_outs: life.scale_outs,
            scale_ins: life.scale_ins,
            counters,
            provisioned_node_us,
            latency: lat,
            samples: self.samples,
            obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::testkit::*;
    use dynmds_partition::StrategyKind;

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
        let (snap, n_clients) = (snapshot(&cfg), cfg.n_clients as usize);
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
        assert_eq!(sim.shards.len(), 4, "small config has 4 nodes");
    }

    #[test]
    fn owner_and_range_agree_on_every_split() {
        // n < k leaves some blocks empty (fewer clients than shards), and
        // n = 0 is the proxy tier switched off.
        for n in 0..=100 {
            for k in 1..=100 {
                let mut next = 0;
                for s in 0..k {
                    let r = range(s, n, k);
                    assert_eq!(r.start, next, "n={n} k={k}: block {s} starts where {s}-1 ends");
                    next = r.end;
                    assert!(r.len() <= n.div_ceil(k), "n={n} k={k}: block {s} is {r:?}");
                    for i in r {
                        assert_eq!(owner(i, n, k), s, "n={n} k={k}: id {i}");
                    }
                }
                assert_eq!(next, n, "n={n} k={k}: the blocks cover every id");
            }
        }
        assert_eq!((0..3).map(|s| range(s, 4, 3)).collect::<Vec<_>>(), [0..2, 2..3, 3..4]);
    }
}
