//! Seeded fuzz scenarios: one `u64` expands deterministically into a full
//! cluster/workload/fault configuration, run against the oracle.
//!
//! Two entry points share one driver:
//!
//! * [`run_scenario`] generates the workload from the scenario seed and
//!   (optionally) records every generated op into a [`Trace`] for the
//!   shrinker;
//! * [`replay_trace`] re-runs a scenario while feeding the recorded trace
//!   back through [`TraceReplay`] — the only source of nondeterminism the
//!   trace wrapper replaces is the workload generator, so a replay walks
//!   the exact event sequence of the original run and reproduces its
//!   divergence (or proves a shrunk candidate no longer does).

use std::cell::RefCell;
use std::rc::Rc;

use dynmds_core::{
    ChurnSpec, DiskScope, FaultEvent, FaultSchedule, NetFaultSpec, RetryPolicy, SimConfig,
    Simulation,
};
use dynmds_event::{SimDuration, SimRng, SimTime};
use dynmds_namespace::{ClientId, Namespace, NamespaceSpec, Snapshot};
use dynmds_partition::StrategyKind;
use dynmds_storage::DiskFault;
use dynmds_workload::{
    GeneralWorkload, LookupChurn, Op, OpMix, Trace, TraceRecord, TraceReplay, Workload,
    WorkloadConfig,
};

use crate::oracle::Oracle;

/// Everything needed to reconstruct one fuzz run. All behaviour-affecting
/// randomness is materialized into these fields (the repro file stores
/// them verbatim), so a parsed repro rebuilds the identical simulation
/// without re-deriving anything from the seed.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The fuzz seed (also salts the cluster, snapshot and workload RNGs).
    pub seed: u64,
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Cluster size.
    pub n_mds: u16,
    /// Client count.
    pub n_clients: u32,
    /// Approximate initial namespace size.
    pub target_items: u64,
    /// Per-MDS cache capacity — kept small to force eviction churn.
    pub cache_capacity: usize,
    /// Dynamic directory-hashing threshold (0 = off).
    pub dir_hash_threshold: usize,
    /// GPFS-style shared writes (§4.2).
    pub shared_writes: bool,
    /// Client metadata leases (§4.2).
    pub client_leases: bool,
    /// Mean client think time, microseconds.
    pub think_us: u64,
    /// Retry backoff base, microseconds (cap is 8×).
    pub retry_base_us: u64,
    /// Retry budget.
    pub retry_max: u8,
    /// Heartbeat interval, microseconds.
    pub heartbeat_us: u64,
    /// Completed-op count at which the run stops.
    pub ops_target: u64,
    /// Hard stop (virtual time), microseconds.
    pub horizon_us: u64,
    /// Hotspot proxies in front of the cluster (0 = off).
    pub n_proxies: u16,
    /// Proxy hot-detector threshold (stored as an integer so the repro
    /// text round-trips exactly; the config maps it to `f64`).
    pub proxy_thr: u64,
    /// Run the sharded engine densely (every conservative window, on the
    /// full worker count) instead of skipping idle spans and running
    /// one-busy-shard windows on one thread. Both are
    /// invisible by construction, so the fuzzer draws this to keep both
    /// window paths under continuous test; the legacy oracle engine
    /// ignores it.
    pub force_dense: bool,
    /// Fault schedule (generated: scripted windows + churn; shrunk: an
    /// explicit event list with `churn: None`).
    pub faults: FaultSchedule,
}

impl Scenario {
    /// Expands `seed` into a scenario for `strategy`. Every draw comes
    /// from one stream seeded off `seed`, so the expansion is total and
    /// deterministic.
    pub fn from_seed(seed: u64, strategy: StrategyKind, ops_target: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x00D5_7F00).fork(strategy as u64);
        let n_mds = 2 + rng.below(5) as u16; // 2..=6
        let n_clients = u32::from(n_mds) * (2 + rng.below(5) as u32);
        let target_items = 300 + rng.below(1_200);
        let cache_capacity = (64 + rng.below(192)) as usize;
        let dir_hash_threshold = if rng.chance(0.3) { (24 + rng.below(48)) as usize } else { 0 };
        let shared_writes = strategy.is_subtree() && rng.chance(0.25);
        let client_leases = rng.chance(0.25);
        let think_us = 20_000 + rng.below(60_000); // 20–80 ms
        let retry_base_us = 100_000 + rng.below(400_000); // 0.1–0.5 s
        let retry_max = 2 + rng.below(5) as u8;
        let heartbeat_us = 500_000 + rng.below(1_500_000); // 0.5–2 s
                                                           // Long enough that the closed loop comfortably reaches the target.
        let horizon_us =
            (3 * ops_target * think_us / u64::from(n_clients)).clamp(8_000_000, 60_000_000);

        let mut events = Vec::new();
        let churn = rng.chance(0.8).then(|| ChurnSpec {
            mtbf: SimDuration::from_micros(2_000_000 + rng.below(6_000_000)),
            mttr: SimDuration::from_micros(300_000 + rng.below(2_000_000)),
            seed: rng.below(1 << 48),
            until: SimTime::ZERO + SimDuration::from_micros(horizon_us * 3 / 4),
            nodes: None,
        });
        if rng.chance(0.3) {
            let from = rng.below(horizon_us / 2);
            let until = from + 1_000_000 + rng.below(horizon_us / 3);
            events.push(FaultEvent::DiskDegrade {
                from: SimTime::ZERO + SimDuration::from_micros(from),
                until: SimTime::ZERO + SimDuration::from_micros(until),
                fault: DiskFault {
                    latency_mult: 1.0 + rng.unit() * 5.0,
                    iops_mult: 0.25 + rng.unit() * 0.75,
                    error_p: rng.unit() * 0.03,
                },
                scope: *rng.pick(&[DiskScope::Osd, DiskScope::Journal, DiskScope::All]),
            });
        }
        if rng.chance(0.4) {
            let from = rng.below(horizon_us / 2);
            let until = from + 1_000_000 + rng.below(horizon_us / 3);
            events.push(FaultEvent::NetFault {
                from: SimTime::ZERO + SimDuration::from_micros(from),
                until: SimTime::ZERO + SimDuration::from_micros(until),
                spec: NetFaultSpec { loss_p: rng.unit() * 0.06, dup_p: rng.unit() * 0.04 },
            });
        }
        // Proxy draws come LAST so every earlier field keeps the value it
        // had before proxies existed — old seeds expand to the same base
        // scenario plus an independent proxy layer.
        let n_proxies = if rng.below(100) < 40 { 1 + rng.below(3) as u16 } else { 0 };
        let proxy_thr = 8 + rng.below(48);
        // Drawn after the proxy fields for the same back-compat reason:
        // old seeds keep their exact pre-skip scenario plus this one bit.
        let force_dense = rng.below(100) < 25;

        Scenario {
            seed,
            strategy,
            n_mds,
            n_clients,
            target_items,
            cache_capacity,
            dir_hash_threshold,
            shared_writes,
            client_leases,
            think_us,
            retry_base_us,
            retry_max,
            heartbeat_us,
            ops_target,
            horizon_us,
            n_proxies,
            proxy_thr,
            force_dense,
            faults: FaultSchedule { events, churn },
        }
    }

    /// The simulator configuration this scenario runs under.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::small(self.strategy);
        cfg.n_mds = self.n_mds;
        cfg.n_clients = self.n_clients;
        cfg.cache_capacity = self.cache_capacity;
        cfg.journal_capacity = self.cache_capacity * 2;
        cfg.costs.think_mean = SimDuration::from_micros(self.think_us);
        cfg.heartbeat = SimDuration::from_micros(self.heartbeat_us);
        // Ops arrive slowly (20–80 ms think) against the default threshold
        // tuned for 1 ms; lower it so traffic control actually engages.
        cfg.replication_threshold = 12.0;
        cfg.dir_hash_threshold = self.dir_hash_threshold;
        cfg.shared_writes = self.shared_writes;
        cfg.client_leases = self.client_leases;
        cfg.seed = self.seed ^ 0xC1A5;
        cfg.retry = RetryPolicy {
            max_retries: self.retry_max,
            base: SimDuration::from_micros(self.retry_base_us),
            multiplier: 2.0,
            cap: SimDuration::from_micros(self.retry_base_us * 8),
            jitter_frac: 0.1,
        };
        cfg.faults = self.faults.clone();
        cfg.proxy.count = self.n_proxies;
        cfg.proxy.hot_threshold = self.proxy_thr as f64;
        cfg.force_dense = self.force_dense;
        cfg
    }

    /// The initial namespace (derived from the scenario seed alone).
    pub fn snapshot(&self) -> Snapshot {
        NamespaceSpec::with_target_items(
            self.n_clients as usize,
            self.target_items,
            self.seed ^ 0xF5,
        )
        .generate()
    }

    /// The generated workload: a randomized mix biased toward namespace
    /// mutations (links, renames, unlinks) to stress the anchor table and
    /// cache coherence. Proxy scenarios additionally wrap the mix in
    /// [`LookupChurn`] so negative-lookup caching and its invalidation
    /// paths see real traffic. Only used when *generating*; replays
    /// ignore it.
    pub fn workload(&self, snap: &Snapshot) -> Box<dyn Workload + Send> {
        self.workload_parts(&snap.user_homes, &snap.shared_roots, &snap.ns)
    }

    /// [`Scenario::workload`] from pre-split snapshot parts — for callers
    /// (the sharded cross-check) that hold only a `&Namespace` plus
    /// cloned home/shared lists. Deterministic in the scenario seed, so
    /// repeated calls build identical generators.
    pub fn workload_parts(
        &self,
        user_homes: &[dynmds_namespace::InodeId],
        shared_roots: &[dynmds_namespace::InodeId],
        ns: &dynmds_namespace::Namespace,
    ) -> Box<dyn Workload + Send> {
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x0317);
        let mix = OpMix {
            stat: 20.0 + rng.unit() * 20.0,
            open: 8.0 + rng.unit() * 8.0,
            readdir: 3.0 + rng.unit() * 5.0,
            create: 6.0 + rng.unit() * 12.0,
            mkdir: 1.0 + rng.unit() * 3.0,
            unlink: 4.0 + rng.unit() * 8.0,
            rename: 2.0 + rng.unit() * 6.0,
            chmod: 1.0 + rng.unit() * 4.0,
            setattr: 2.0 + rng.unit() * 4.0,
            link: 2.0 + rng.unit() * 6.0,
        };
        let cfg = WorkloadConfig {
            locality: 0.7 + rng.unit() * 0.3,
            dir_affinity: 0.5 + rng.unit() * 0.5,
            navigate_prob: rng.unit() * 0.3,
            readdir_stats: (3, 10),
            dir_rename_fraction: rng.unit() * 0.4,
            dir_chmod_fraction: rng.unit() * 0.4,
            mix,
            seed: self.seed ^ 0x17,
        };
        let general =
            GeneralWorkload::new(cfg, self.n_clients as usize, user_homes, shared_roots, ns);
        if self.n_proxies > 0 {
            let hot_dir = shared_roots.first().copied().unwrap_or_else(|| ns.root());
            Box::new(LookupChurn::new(general, hot_dir, 0.3, self.seed ^ 0x9A1))
        } else {
            Box::new(general)
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Order-independent fingerprint of the final state and counters; two
    /// runs of the same scenario must produce the same digest.
    pub digest: u64,
    /// Cluster completed-op counter at stop.
    pub ops_completed: u64,
    /// Oracle divergences (empty = clean run).
    pub divergences: Vec<String>,
    /// Recorded op stream (empty unless recording was requested).
    pub trace: Trace,
    /// Per-client credentials, for replays.
    pub uids: Vec<u32>,
    /// Oracle checkpoints executed.
    pub checkpoints: u64,
    /// Ops answered by the proxy tier (0 when the scenario runs without
    /// proxies) — lets tests prove the coherence oracle saw real proxy
    /// traffic rather than vacuously passing.
    pub proxy_absorbed: u64,
}

/// Shares a generated workload's op stream with the harness so the trace
/// survives the simulation consuming the boxed workload.
struct SharedRecorder<W: Workload> {
    inner: W,
    records: Rc<RefCell<Vec<TraceRecord>>>,
}

impl<W: Workload> Workload for SharedRecorder<W> {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op {
        let op = self.inner.next_op(ns, client, now);
        self.records.borrow_mut().push(TraceRecord {
            client: client.0,
            at_us: now.as_micros(),
            op: op.clone(),
        });
        op
    }

    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        self.inner.uid_of(client)
    }
}

/// Oracle checkpoint spacing (virtual time).
const CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(500);

fn drive(sc: &Scenario, snap: Snapshot, wl: Box<dyn Workload>, uids: Vec<u32>) -> RunOutcome {
    let mut sim = Simulation::new(sc.config(), snap, wl);
    sim.cluster_mut().enable_dst_probe();
    let mut oracle = Oracle::new(sim.cluster());
    let deadline = SimTime::ZERO + SimDuration::from_micros(sc.horizon_us);
    let mut t = SimTime::ZERO;
    loop {
        t += CHECKPOINT_EVERY;
        sim.run_until(t);
        if !oracle.drain_and_check(sim.cluster_mut()) {
            break;
        }
        if sim.cluster().ops_completed >= sc.ops_target || t >= deadline {
            break;
        }
    }
    let cl = sim.cluster();
    let mut digest = oracle.model.digest();
    for (i, w) in [
        cl.ops_issued,
        cl.ops_completed,
        cl.counters.migrations,
        cl.counters.failures,
        cl.counters.recoveries,
        cl.counters.retries,
        cl.counters.gave_up,
        cl.counters.net_lost,
        cl.counters.net_dup,
        cl.anchors.len() as u64,
    ]
    .into_iter()
    .enumerate()
    {
        digest = (digest ^ w.rotate_left(i as u32)).wrapping_mul(0x100_0000_01b3);
    }
    for node in &cl.nodes {
        digest = (digest ^ node.cache.len() as u64).wrapping_mul(0x100_0000_01b3);
    }
    let proxy = cl.proxy_stats();
    if sc.n_proxies > 0 {
        for (i, w) in
            [proxy.absorbed(), proxy.forwarded, proxy.flushed_items].into_iter().enumerate()
        {
            digest = (digest ^ w.rotate_left(17 + i as u32)).wrapping_mul(0x100_0000_01b3);
        }
    }
    RunOutcome {
        digest,
        ops_completed: cl.ops_completed,
        divergences: std::mem::take(&mut oracle.divergences),
        trace: Trace::default(),
        uids,
        checkpoints: oracle.checkpoints,
        proxy_absorbed: proxy.absorbed(),
    }
}

/// Runs a scenario with its generated workload. With `record`, the full
/// op stream comes back in `RunOutcome::trace`, ready for the shrinker.
pub fn run_scenario(sc: &Scenario, record: bool) -> RunOutcome {
    let snap = sc.snapshot();
    let wl = sc.workload(&snap);
    let uids: Vec<u32> = (0..sc.n_clients).map(|c| wl.uid_of(ClientId(c))).collect();
    if !record {
        return drive(sc, snap, wl, uids);
    }
    let records = Rc::new(RefCell::new(Vec::new()));
    let boxed = Box::new(SharedRecorder { inner: wl, records: Rc::clone(&records) });
    let mut out = drive(sc, snap, boxed, uids);
    out.trace =
        Trace { snapshot_seed: sc.seed ^ 0xF5, n_clients: sc.n_clients, records: records.take() };
    out
}

/// Re-runs a scenario with its workload replaced by a recorded trace.
/// Clients that exhaust their records idle on fallback stats, so shrunk
/// traces still drive a well-formed closed loop for the whole horizon.
pub fn replay_trace(sc: &Scenario, trace: &Trace, uids: &[u32]) -> RunOutcome {
    let snap = sc.snapshot();
    let wl = Box::new(TraceReplay::new(trace, uids.to_vec()));
    drive(sc, snap, wl, uids.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_strategy_sensitive() {
        let a = Scenario::from_seed(11, StrategyKind::DynamicSubtree, 500);
        let b = Scenario::from_seed(11, StrategyKind::DynamicSubtree, 500);
        assert_eq!(a.n_mds, b.n_mds);
        assert_eq!(a.think_us, b.think_us);
        assert_eq!(a.faults, b.faults);
        let c = Scenario::from_seed(11, StrategyKind::FileHash, 500);
        // Different strategy forks a different stream (fields may collide
        // by chance for one seed, but the full tuple should not).
        assert!(
            (a.n_mds, a.n_clients, a.think_us, a.retry_base_us)
                != (c.n_mds, c.n_clients, c.think_us, c.retry_base_us)
        );
    }

    #[test]
    fn scenario_bounds_hold() {
        let mut proxied = 0;
        let mut dense = 0;
        for seed in 0..50 {
            let sc = Scenario::from_seed(seed, StrategyKind::LazyHybrid, 1_000);
            assert!((2..=6).contains(&sc.n_mds));
            assert!(sc.n_clients >= 2 * u32::from(sc.n_mds));
            assert!(sc.cache_capacity >= 64);
            assert!((8_000_000..=60_000_000).contains(&sc.horizon_us));
            assert!(sc.retry_max >= 2);
            assert!(sc.n_proxies <= 3);
            assert!((8..56).contains(&sc.proxy_thr));
            proxied += u64::from(sc.n_proxies > 0);
            dense += u64::from(sc.force_dense);
        }
        // ~40% of seeds run with a proxy tier in front of the cluster.
        assert!(proxied > 5, "proxy draw never fires ({proxied}/50)");
        assert!(proxied < 45, "proxy draw always fires ({proxied}/50)");
        // ~25% of seeds run the sharded engine densely (skip disabled).
        assert!(dense > 3, "force-dense draw never fires ({dense}/50)");
        assert!(dense < 30, "force-dense draw always fires ({dense}/50)");
    }

    #[test]
    fn short_run_is_clean_and_repeatable() {
        let sc = Scenario::from_seed(3, StrategyKind::DynamicSubtree, 120);
        let a = run_scenario(&sc, true);
        assert!(a.divergences.is_empty(), "divergences: {:?}", a.divergences);
        assert!(a.checkpoints > 0);
        assert!(!a.trace.is_empty(), "recording captures the op stream");
        let b = run_scenario(&sc, true);
        assert_eq!(a.digest, b.digest, "same seed, same digest");
        assert_eq!(a.trace, b.trace, "same seed, same trace");
    }

    #[test]
    fn proxied_scenario_exercises_the_tier_and_stays_clean() {
        let mut sc = Scenario::from_seed(7, StrategyKind::DynamicSubtree, 400);
        sc.n_proxies = 2;
        sc.proxy_thr = 8;
        let out = run_scenario(&sc, true);
        assert!(out.divergences.is_empty(), "divergences: {:?}", out.divergences);
        assert!(out.proxy_absorbed > 0, "tier never engaged: the coherence oracle saw nothing");
        // The recorded trace carries the churn lookups, so a replay walks
        // the same proxy decisions and the oracle re-checks them.
        let rep = replay_trace(&sc, &out.trace, &out.uids);
        assert!(rep.divergences.is_empty());
        assert_eq!(rep.digest, out.digest);
        assert_eq!(rep.proxy_absorbed, out.proxy_absorbed);
    }

    #[test]
    fn replaying_a_recorded_trace_reproduces_the_run() {
        let sc = Scenario::from_seed(5, StrategyKind::StaticSubtree, 120);
        let rec = run_scenario(&sc, true);
        assert!(rec.divergences.is_empty());
        let rep = replay_trace(&sc, &rec.trace, &rec.uids);
        assert!(rep.divergences.is_empty());
        assert_eq!(rep.digest, rec.digest, "trace replay walks the same event sequence");
    }
}
