//! Top-level simulation runner.

use dynmds_event::{EventQueue, SimDuration, SimTime};
use dynmds_namespace::{ClientId, Snapshot};
use dynmds_workload::Workload;

use crate::cluster::Cluster;
use crate::config::SimConfig;
use crate::report::SimReport;
use crate::request::SimEvent;

/// A configured, runnable simulation: the cluster, its event queue and
/// the virtual clock.
pub struct Simulation {
    queue: EventQueue<SimEvent>,
    cluster: Cluster,
    now: SimTime,
}

impl Simulation {
    /// Builds a simulation with client start times spread over one mean
    /// think period (steady-state experiments).
    pub fn new(cfg: SimConfig, snapshot: Snapshot, workload: Box<dyn Workload>) -> Self {
        let spread = cfg.costs.think_mean;
        Self::with_start(cfg, snapshot, workload, SimTime::ZERO, spread)
    }

    /// Builds a simulation whose clients all fire their first request in
    /// the window `[start, start + spread]` — `spread = 0` is the
    /// flash-crowd setup ("10,000 clients simultaneously request the same
    /// file").
    pub fn with_start(
        cfg: SimConfig,
        snapshot: Snapshot,
        workload: Box<dyn Workload>,
        start: SimTime,
        spread: SimDuration,
    ) -> Self {
        assert!(
            !cfg.elastic.enabled,
            "elastic autoscaling runs on the sharded engine only (ShardedSimulation)"
        );
        assert_eq!(
            workload.clients(),
            cfg.n_clients as usize,
            "workload must drive exactly the configured clients"
        );
        let n_clients = cfg.n_clients;
        let heartbeat = cfg.heartbeat;
        let sample = cfg.sample_every;
        let mut q = EventQueue::new();
        // Expand the fault schedule before `Cluster::new` consumes `cfg`.
        let fault_events = cfg.faults.expanded(cfg.n_mds as usize);
        let cluster = Cluster::new(cfg, snapshot, workload);
        for ev in fault_events {
            use crate::fault::FaultEvent;
            match ev {
                FaultEvent::Crash { at, mds } => {
                    q.schedule(at, SimEvent::Fail(mds));
                }
                FaultEvent::Recover { at, mds } => {
                    q.schedule(at, SimEvent::Recover(mds));
                }
                FaultEvent::DiskDegrade { from, until, fault, scope } => {
                    q.schedule(from, SimEvent::SetDiskFault { scope, fault: Some(fault) });
                    q.schedule(until, SimEvent::SetDiskFault { scope, fault: None });
                }
                FaultEvent::NetFault { from, until, spec } => {
                    q.schedule(from, SimEvent::SetNetFault(Some(spec)));
                    q.schedule(until, SimEvent::SetNetFault(None));
                }
            }
        }
        for c in 0..n_clients {
            let offset = if n_clients > 1 {
                SimDuration::from_micros(spread.as_micros() * c as u64 / n_clients as u64)
            } else {
                SimDuration::ZERO
            };
            q.schedule(start + offset, SimEvent::Issue(ClientId(c)));
        }
        q.schedule(SimTime::ZERO + heartbeat, SimEvent::Heartbeat);
        q.schedule(SimTime::ZERO + sample, SimEvent::Sample);
        Simulation { queue: q, cluster, now: SimTime::ZERO }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulated system (inspection).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The simulated system (mutation, e.g. scripted fault injection).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Advances virtual time to `until`: dispatches every event due at or
    /// before it, one instant at a time (including zero-delay follow-ups
    /// scheduled mid-instant), and returns how many fired. The clock ends
    /// at `until` even if the tail was quiet, so rates over a window stay
    /// well defined.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let mut n = 0;
        while let Some(at) = self.queue.peek_time() {
            if at > until {
                break;
            }
            // An event scheduled between the last dispatch and a quiet
            // tail's horizon fires at the (later) clock, never before it.
            self.now = self.now.max(at);
            while let Some(ev) = self.queue.pop_due(at) {
                n += 1;
                self.cluster.handle(self.now, ev, &mut self.queue);
            }
        }
        self.now = self.now.max(until);
        n
    }

    /// Schedules a node failure (fault injection).
    pub fn schedule_failure(&mut self, at: SimTime, mds: dynmds_namespace::MdsId) {
        self.queue.schedule(at, SimEvent::Fail(mds));
    }

    /// Schedules a node recovery.
    pub fn schedule_recovery(&mut self, at: SimTime, mds: dynmds_namespace::MdsId) {
        self.queue.schedule(at, SimEvent::Recover(mds));
    }

    /// Runs `warmup` of unmeasured time, resets statistics, runs `measure`
    /// more, and reports.
    pub fn run_measured(mut self, warmup: SimDuration, measure: SimDuration) -> SimReport {
        let w_end = SimTime::ZERO + warmup;
        self.run_until(w_end);
        self.cluster.reset_measurement(w_end);
        let end = w_end + measure;
        self.run_until(end);
        self.finish()
    }

    /// Stops and produces the report.
    pub fn finish(self) -> SimReport {
        self.cluster.into_report(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_namespace::NamespaceSpec;
    use dynmds_partition::StrategyKind;
    use dynmds_workload::{GeneralWorkload, WorkloadConfig};

    fn snapshot(seed: u64) -> dynmds_namespace::Snapshot {
        NamespaceSpec::with_target_items(24, 8_000, seed).generate()
    }

    fn workload(
        snap: &dynmds_namespace::Snapshot,
        n_clients: usize,
        seed: u64,
    ) -> Box<GeneralWorkload> {
        Box::new(GeneralWorkload::new(
            WorkloadConfig { seed, ..Default::default() },
            n_clients,
            &snap.user_homes,
            &snap.shared_roots,
            &snap.ns,
        ))
    }

    fn run_small(strategy: StrategyKind) -> crate::report::SimReport {
        let cfg = SimConfig::small(strategy);
        let snap = snapshot(3);
        let wl = workload(&snap, cfg.n_clients as usize, 9);
        let sim = Simulation::new(cfg, snap, wl);
        sim.run_measured(SimDuration::from_secs(5), SimDuration::from_secs(10))
    }

    #[test]
    fn every_strategy_serves_operations() {
        for strategy in StrategyKind::ALL {
            let r = run_small(strategy);
            assert!(r.total_served() > 1_000, "{strategy} served only {} ops", r.total_served());
            assert!(r.avg_mds_throughput() > 10.0, "{strategy} throughput ~0");
            assert!(!r.latency.is_empty());
            assert!(r.latency.mean().unwrap() > 0.0);
        }
    }

    #[test]
    fn hashed_strategies_never_forward() {
        for strategy in [StrategyKind::DirHash, StrategyKind::FileHash, StrategyKind::LazyHybrid] {
            let r = run_small(strategy);
            assert_eq!(
                r.total_forwarded(),
                0,
                "{strategy}: clients compute the hash, no forwarding"
            );
        }
    }

    #[test]
    fn subtree_strategies_forward_while_discovering() {
        let cfg = SimConfig::small(StrategyKind::StaticSubtree);
        let snap = snapshot(3);
        let wl = workload(&snap, cfg.n_clients as usize, 9);
        let sim = Simulation::new(cfg, snap, wl);
        // No warm-up: the discovery phase is what we want to see.
        let r = sim.run_measured(SimDuration::ZERO, SimDuration::from_secs(5));
        assert!(r.total_forwarded() > 0, "initially ignorant clients must cause forwards");
        // But learning makes forwards a minority of traffic.
        let frac = r.total_forwarded() as f64 / r.total_received() as f64;
        assert!(frac < 0.5, "forward fraction {frac} stayed too high");
    }

    #[test]
    fn caches_populate_and_hit() {
        let r = run_small(StrategyKind::DynamicSubtree);
        for (i, n) in r.nodes.iter().enumerate() {
            assert!(n.cache_len > 0, "node {i} cache empty");
        }
        assert!(
            r.overall_hit_rate() > 0.5,
            "warm caches should mostly hit, got {}",
            r.overall_hit_rate()
        );
    }

    #[test]
    fn hashed_caches_hold_more_prefixes_than_subtree() {
        let sub = run_small(StrategyKind::StaticSubtree);
        let hash = run_small(StrategyKind::FileHash);
        assert!(
            hash.mean_prefix_pct() > sub.mean_prefix_pct(),
            "file hash {:.1}% vs static subtree {:.1}%",
            hash.mean_prefix_pct(),
            sub.mean_prefix_pct()
        );
    }

    #[test]
    fn namespace_grows_under_write_workload() {
        let cfg = SimConfig::small(StrategyKind::DynamicSubtree);
        let snap = snapshot(5);
        let before = snap.ns.total_items();
        let wl = workload(&snap, cfg.n_clients as usize, 11);
        let mut sim = Simulation::new(cfg, snap, wl);
        sim.run_until(SimTime::from_secs(10));
        let after = sim.cluster().ns.total_items();
        assert!(after > before, "creates must land: {before} -> {after}");
    }

    #[test]
    #[should_panic(expected = "sharded engine only")]
    fn legacy_engine_refuses_elastic_configs() {
        let cfg = SimConfig::small(StrategyKind::ElasticSubtree);
        assert!(cfg.elastic.enabled);
        let snap = snapshot(3);
        let wl = workload(&snap, cfg.n_clients as usize, 9);
        drop(Simulation::new(cfg, snap, wl));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_small(StrategyKind::DynamicSubtree);
        let b = run_small(StrategyKind::DynamicSubtree);
        assert_eq!(a.total_served(), b.total_served());
        assert_eq!(a.total_forwarded(), b.total_forwarded());
    }

    #[test]
    fn run_until_drains_through_the_horizon_and_advances_the_clock() {
        // A hand-built simulation with only inert events queued
        // (`SetNetFault(None)` schedules nothing), so every count is exact.
        let mut sim = Simulation {
            queue: EventQueue::new(),
            cluster: crate::testutil::tiny_cluster(StrategyKind::DynamicSubtree),
            now: SimTime::ZERO,
        };
        for us in [5, 10, 10, 15] {
            sim.queue.schedule(SimTime::from_micros(us), SimEvent::SetNetFault(None));
        }
        assert_eq!(sim.run_until(SimTime::from_micros(10)), 3, "t=5 and both t=10 events fire");
        assert_eq!(sim.queue.len(), 1, "the t=15 event stays queued");
        assert_eq!(sim.now(), SimTime::from_micros(10));
        assert_eq!(sim.run_until(SimTime::from_micros(12)), 0);
        assert_eq!(sim.now(), SimTime::from_micros(12), "the clock crosses a quiet tail");
        assert_eq!(sim.run_until(SimTime::from_secs(3)), 1);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert!(sim.queue.is_empty());
    }
}
