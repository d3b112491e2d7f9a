//! Per-MDS state — cache, journal, popularity, CPU, event counts — and
//! the per-node rules both engines share: build, crash, journal commit,
//! heartbeat load and sample row.
//!
//! Each served, forwarded, received or missed request increments one
//! field of the node's [`LifeCounters`], which is never reset. Every
//! window over those counts — the measurement window the reports read,
//! the sample window behind the per-node sample series, and the
//! heartbeat window the balancer loads on — is the difference from a
//! reading of `life` stored when the window opened.

use dynmds_cache::{InsertKind, MetaCache, Popularity};
use dynmds_event::{SimDuration, SimTime};
use dynmds_namespace::{InodeId, MdsId, Namespace};
use dynmds_obs::SnapshotSeries;
use dynmds_partition::Partition;
use dynmds_storage::{AccessKind, BoundedLog, DiskModel};

use crate::config::{SimConfig, JOURNAL_DISK, MISS_WEIGHT, POPULARITY_HALF_LIFE};
use crate::report::NodeSnapshot;

/// Fields of a per-node sample row, one slot per node each.
pub(crate) const SAMPLE_FIELDS: &[&str] = &[
    "served",
    "forwarded",
    "received",
    "misses",
    "cache_prefix",
    "cache_target",
    "journal_depth",
    "delegations",
    "alive",
];

/// An empty per-node sample series over `n_mds` nodes: one row per sample
/// tick, built by [`sample_row`].
pub fn sample_series(n_mds: usize) -> SnapshotSeries {
    SnapshotSeries::new(SAMPLE_FIELDS, n_mds)
}

/// One sample-series row: every node's sample window
/// ([`MdsNode::take_sample`]), cache split and journal depth, then its
/// delegation count under `partition` and its liveness. Field-major, each
/// field's slots in node-id order; `nodes` must cover ids `0..n_mds`.
pub fn sample_row<'a>(
    n_mds: usize,
    nodes: impl IntoIterator<Item = &'a mut MdsNode>,
    alive: &[bool],
    partition: &Partition,
) -> Vec<u64> {
    let mut row = vec![0; SAMPLE_FIELDS.len() * n_mds];
    for n in nodes {
        let (w, prefix) = (n.take_sample(), n.cache.prefix_count() as u64);
        let target = n.cache.len() as u64 - prefix;
        let depth = n.journal.len() as u64;
        let values = [w.served, w.forwarded, w.received, w.disk_fetches, prefix, target, depth];
        for (f, v) in values.into_iter().enumerate() {
            row[f * n_mds + n.id.index()] = v;
        }
    }
    if let Some(sub) = partition.as_subtree() {
        for (_, m) in sub.delegations() {
            row[7 * n_mds + m.index()] += 1;
        }
    }
    for (i, &a) in alive.iter().enumerate() {
        row[8 * n_mds + i] = a as u64;
    }
    row
}

/// One node's event counts since it was built. Never reset: a window is
/// the [`since`](LifeCounters::since) difference from a stored reading.
#[derive(Clone, Copy, Debug, Default)]
pub struct LifeCounters {
    /// Operations fully served.
    pub served: u64,
    /// Requests forwarded away.
    pub forwarded: u64,
    /// Requests received.
    pub received: u64,
    /// Disk fetches issued.
    pub disk_fetches: u64,
    /// Requests served without authority: replica reads and absorbed
    /// shared writes.
    pub replica_serves: u64,
    /// Prefix directories that missed this node's cache.
    pub prefix_misses: u64,
    /// Target cache probes that missed.
    pub target_misses: u64,
    /// Missing prefixes replicated from a peer authority.
    pub remote_prefix_fetches: u64,
    /// Mutations committed to this node's journal.
    pub journal_commits: u64,
    /// Journal entries retired to tier 2 by those commits.
    pub journal_writebacks: u64,
    /// Shared-write deltas absorbed here as a replica.
    pub shared_absorbed: u64,
    /// Working-set items preloaded into the cache from a journal.
    pub journal_warmed: u64,
    /// Replica invalidations processed.
    pub invalidations: u64,
    /// Subtrees imported by load balancing.
    pub subtrees_in: u64,
    /// Subtrees exported by load balancing.
    pub subtrees_out: u64,
}

impl LifeCounters {
    /// The counts accumulated since `base` was read.
    pub fn since(&self, base: &LifeCounters) -> LifeCounters {
        LifeCounters {
            served: self.served - base.served,
            forwarded: self.forwarded - base.forwarded,
            received: self.received - base.received,
            disk_fetches: self.disk_fetches - base.disk_fetches,
            replica_serves: self.replica_serves - base.replica_serves,
            prefix_misses: self.prefix_misses - base.prefix_misses,
            target_misses: self.target_misses - base.target_misses,
            remote_prefix_fetches: self.remote_prefix_fetches - base.remote_prefix_fetches,
            journal_commits: self.journal_commits - base.journal_commits,
            journal_writebacks: self.journal_writebacks - base.journal_writebacks,
            shared_absorbed: self.shared_absorbed - base.shared_absorbed,
            journal_warmed: self.journal_warmed - base.journal_warmed,
            invalidations: self.invalidations - base.invalidations,
            subtrees_in: self.subtrees_in - base.subtrees_in,
            subtrees_out: self.subtrees_out - base.subtrees_out,
        }
    }

    /// The heartbeat load over these counts: "a weighted combination of
    /// node throughput and cache misses" (§5.1).
    pub fn load(&self) -> f64 {
        self.served as f64 + MISS_WEIGHT * (self.prefix_misses + self.target_misses) as f64
    }
}

/// One metadata server.
pub struct MdsNode {
    /// This node's id.
    pub id: MdsId,
    /// Metadata cache (LRU + prefix pinning).
    pub cache: MetaCache,
    /// Decaying access counters for traffic control.
    pub popularity: Popularity,
    /// Decaying *update* counters: write-hot items must not be replicated
    /// (every replica write needs the authority anyway, and replication
    /// would misdirect client updates at random nodes).
    pub update_popularity: Popularity,
    /// Bounded update log (tier 1).
    pub journal: BoundedLog,
    /// Locally absorbed shared-write deltas (§4.2 GPFS-style): per inode,
    /// accumulated size growth and max mtime, pushed to the authority on
    /// the heartbeat.
    pub write_deltas: dynmds_namespace::FxHashMap<dynmds_namespace::InodeId, (u64, u64)>,
    /// Dedicated journal device (sequential appends).
    pub journal_disk: DiskModel,
    busy_until: SimTime,
    /// Event counts since the node was built.
    pub life: LifeCounters,
    /// `life` when measurement last restarted.
    measure_base: LifeCounters,
    /// `life` at the last sample tick.
    sample_base: LifeCounters,
    /// `life` at the last heartbeat.
    heartbeat_base: LifeCounters,
    /// Reusable root-first ancestor chain: traversal allocates nothing.
    pub(crate) chain: Vec<InodeId>,
}

impl MdsNode {
    /// Creates a node with the cache and journal `cfg` sizes, its cache
    /// under `cfg`'s prefetch insertion policy.
    pub fn new(id: MdsId, cfg: &SimConfig) -> Self {
        MdsNode {
            id,
            cache: MetaCache::with_probation(cfg.cache_capacity, !cfg.disable_prefetch_probation),
            popularity: Popularity::new(POPULARITY_HALF_LIFE),
            update_popularity: Popularity::new(POPULARITY_HALF_LIFE),
            journal: BoundedLog::new(cfg.journal_capacity),
            write_deltas: dynmds_namespace::FxHashMap::default(),
            journal_disk: DiskModel::new(JOURNAL_DISK),
            busy_until: SimTime::ZERO,
            life: LifeCounters::default(),
            measure_base: LifeCounters::default(),
            sample_base: LifeCounters::default(),
            heartbeat_base: LifeCounters::default(),
            chain: Vec::new(),
        }
    }

    /// Caches `id` as `kind`, linked to its namespace parent if (and only
    /// if) that parent is cached here: the cached subset stays a
    /// parent-linked tree.
    pub fn install(&mut self, ns: &Namespace, id: InodeId, kind: InsertKind) {
        let parent = ns.parent(id).ok().flatten().filter(|p| self.cache.peek(*p));
        self.cache.insert(id, parent, kind);
    }

    /// Caches a subtree's handed-over state: the prefix chain down to
    /// `root`, then the live `items` parents-first, directories as
    /// prefixes — what a migration or a journal replay brings in.
    pub fn install_subtree(&mut self, ns: &Namespace, root: InodeId, mut items: Vec<InodeId>) {
        let mut chain = std::mem::take(&mut self.chain);
        ns.ancestors_into(root, &mut chain);
        for &anc in &chain {
            self.install(ns, anc, InsertKind::Prefix);
        }
        self.chain = chain;
        items.sort_by_key(|&id| (ns.depth(id).unwrap_or(usize::MAX), id));
        for id in items.into_iter().filter(|&id| ns.is_alive(id)) {
            self.install(
                ns,
                id,
                if ns.is_dir(id) { InsertKind::Prefix } else { InsertKind::Target },
            );
        }
    }

    /// Occupies this node's CPU for `work`, no earlier than `now`; returns
    /// when the work completes. Requests queue behind each other — the
    /// serial-server model that makes a flooded authority slow (§5.4).
    pub fn occupy(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        let start = now.max(self.busy_until);
        self.busy_until = start + work;
        self.busy_until
    }

    /// When the CPU frees up.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// A crash: the cache empties under its own capacity and insertion
    /// policy, and a new heartbeat window opens. The journal survives, and
    /// so do the absorbed `write_deltas`: each was committed to this
    /// journal on shared storage before its reply left, and the heartbeat
    /// merge of the deltas stands in for an heir replaying it.
    pub fn lose_memory(&mut self) {
        self.cache.clear();
        self.take_heartbeat();
    }

    /// Commits `ids` to this node's journal (tier 1): appends them, makes
    /// one journal-device write, and counts the commit. Returns when the
    /// write completes and the entries the appends retired to tier 2.
    pub fn commit(&mut self, now: SimTime, ids: &[InodeId]) -> (SimTime, Vec<InodeId>) {
        let mut retired = Vec::new();
        for &id in ids {
            retired.extend(self.journal.append(id));
        }
        let done = self.journal_disk.access(now, AccessKind::Write);
        self.life.journal_commits += 1;
        self.life.journal_writebacks += retired.len() as u64;
        (done, retired)
    }

    /// Restarts measurement: clears the cache statistics and opens a new
    /// measurement window and a new sample window at the current counts.
    /// The heartbeat window is left alone.
    pub fn reset_measurement(&mut self) {
        self.cache.reset_stats();
        self.measure_base = self.life;
        self.sample_base = self.life;
    }

    /// Counts since measurement last restarted.
    pub fn measured(&self) -> LifeCounters {
        self.life.since(&self.measure_base)
    }

    /// Counts since the last sample tick (or measurement restart); opens
    /// the next sample window.
    pub fn take_sample(&mut self) -> LifeCounters {
        let window = self.life.since(&self.sample_base);
        self.sample_base = self.life;
        window
    }

    /// Counts since the last heartbeat; opens the next heartbeat window.
    pub fn take_heartbeat(&mut self) -> LifeCounters {
        let window = self.life.since(&self.heartbeat_base);
        self.heartbeat_base = self.life;
        window
    }

    /// This node's report row over the measurement window.
    pub fn snapshot(&self) -> NodeSnapshot {
        let m = self.measured();
        NodeSnapshot {
            hit_rate: self.cache.stats().hit_rate(),
            prefix_fraction: self.cache.prefix_fraction(),
            cache_len: self.cache.len(),
            served: m.served,
            forwarded: m.forwarded,
            received: m.received,
            disk_fetches: m.disk_fetches,
            replica_serves: m.replica_serves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> MdsNode {
        MdsNode::new(MdsId(0), &SimConfig::small(dynmds_partition::StrategyKind::DynamicSubtree))
    }

    #[test]
    fn cpu_serializes_work() {
        let mut n = node();
        let t0 = SimTime::from_micros(1000);
        let c1 = n.occupy(t0, SimDuration::from_micros(100));
        let c2 = n.occupy(t0, SimDuration::from_micros(100));
        assert_eq!(c1, SimTime::from_micros(1100));
        assert_eq!(c2, SimTime::from_micros(1200), "second op queues");
        assert_eq!(n.busy_until(), c2);
    }

    #[test]
    fn cpu_idles_between_sparse_work() {
        let mut n = node();
        n.occupy(SimTime::ZERO, SimDuration::from_micros(50));
        let done = n.occupy(SimTime::from_millis(10), SimDuration::from_micros(50));
        assert_eq!(done, SimTime::from_micros(10_050));
    }

    #[test]
    fn windows_are_differences_from_their_own_readings() {
        let mut n = node();
        n.life.served = 5;
        n.life.forwarded = 2;
        assert_eq!(n.take_heartbeat().served, 5);
        n.reset_measurement();
        n.life.served += 3;
        let sample = n.take_sample();
        assert_eq!((sample.served, sample.forwarded), (3, 0), "reset opened the sample window");
        assert_eq!(n.take_sample().served, 0, "taking a sample opens the next one");
        assert_eq!(n.measured().served, 3, "measured since the reset");
        assert_eq!(n.take_heartbeat().served, 3, "the reset left the heartbeat window alone");
        assert_eq!(n.life.served, 8, "life is never reset");
    }
}
