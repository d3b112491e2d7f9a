//! Test helpers shared by the shard module's unit tests.

use dynmds_event::SimDuration;
use dynmds_namespace::{NamespaceSpec, Snapshot};
use dynmds_partition::StrategyKind;
use dynmds_workload::{GeneralWorkload, Workload, WorkloadConfig};

use super::{ShardReport, ShardedSimulation};
use crate::config::SimConfig;

/// A load shape: wraps the general workload.
pub(super) type Shape = fn(GeneralWorkload) -> Box<dyn Workload + Send>;

pub(super) fn unshaped(w: GeneralWorkload) -> Box<dyn Workload + Send> {
    Box::new(w)
}

/// The test namespace: 24 user homes and about 6,000 items.
pub(super) fn snapshot(cfg: &SimConfig) -> Snapshot {
    NamespaceSpec::with_target_items(24, 6_000, cfg.seed ^ 0xF5).generate()
}

/// A workload config seeded from `cfg`.
pub(super) fn seeded(cfg: &SimConfig) -> WorkloadConfig {
    WorkloadConfig { seed: cfg.seed ^ 0x17, ..Default::default() }
}

/// A run of `cfg` over `shards` queues on `snap`, with a
/// `GeneralWorkload` of `wl` driving every configured client, wrapped by
/// `shape`.
pub(super) fn general(
    cfg: SimConfig,
    shards: usize,
    threads: Option<usize>,
    snap: Snapshot,
    wl: WorkloadConfig,
    shape: Shape,
) -> ShardedSimulation {
    let n_clients = cfg.n_clients as usize;
    let (homes, shared) = (snap.user_homes.clone(), snap.shared_roots.clone());
    ShardedSimulation::new(cfg, shards, threads, snap, &move |ns| {
        shape(GeneralWorkload::new(wl.clone(), n_clients, &homes, &shared, ns))
    })
}

pub(super) fn build(strategy: StrategyKind, shards: usize, obs: bool) -> ShardedSimulation {
    let mut cfg = SimConfig::small(strategy);
    cfg.client_leases = true;
    if obs {
        cfg.obs = dynmds_obs::ObsConfig::metrics_only();
    }
    build_with(cfg, shards, Some(1))
}

/// A run of `cfg` over `shards` queues on the test namespace with a
/// seeded `GeneralWorkload` driving every configured client.
pub(super) fn build_with(
    cfg: SimConfig,
    shards: usize,
    threads: Option<usize>,
) -> ShardedSimulation {
    let (snap, wl) = (snapshot(&cfg), seeded(&cfg));
    general(cfg, shards, threads, snap, wl, unshaped)
}

pub(super) fn run(strategy: StrategyKind, shards: usize, obs: bool) -> ShardReport {
    build(strategy, shards, obs).run_measured(SimDuration::from_secs(2), SimDuration::from_secs(4))
}

/// Fake fan-out driver: one scoped thread per item, and the item
/// count and `threads` of its last call recorded per test thread.
pub(super) fn threaded_driver(n: usize, threads: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
    LAST_FANOUT.with(|c| c.set(Some((n, threads))));
    std::thread::scope(|s| {
        for i in 0..n {
            s.spawn(move || body(i));
        }
    });
}

thread_local! {
    pub(super) static LAST_FANOUT: std::cell::Cell<Option<(usize, Option<usize>)>> =
        const { std::cell::Cell::new(None) };
}
