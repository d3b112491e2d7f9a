//! Per-MDS state: cache, journal, popularity, CPU, and the node's event
//! counts.
//!
//! Each served, forwarded, received or missed request increments one
//! field of the node's [`LifeCounters`], which is never reset. Every
//! window over those counts — the measurement window the reports read,
//! the sample window behind the per-node sample series, and the
//! heartbeat window the balancer loads on — is the difference from a
//! reading of `life` stored when the window opened.

use dynmds_cache::{MetaCache, Popularity};
use dynmds_event::{SimDuration, SimTime};
use dynmds_namespace::MdsId;
use dynmds_obs::SnapshotSeries;
use dynmds_storage::{BoundedLog, DiskModel};

use crate::config::{JOURNAL_DISK, POPULARITY_HALF_LIFE};
use crate::report::NodeSnapshot;

/// Fields of a per-node sample row, one slot per node each.
const SAMPLE_FIELDS: &[&str] = &["served", "forwarded", "received", "misses"];

/// An empty per-node sample series over `n_mds` nodes: one row per sample
/// tick, built by [`sample_row`].
pub fn sample_series(n_mds: usize) -> SnapshotSeries {
    SnapshotSeries::new(SAMPLE_FIELDS, n_mds)
}

/// One sample-series row: takes every node's sample window
/// ([`MdsNode::take_sample`]) and lays the counts out field-major, each
/// field's slots in node-id order. `nodes` must cover ids `0..n_mds`, in
/// any order.
pub fn sample_row<'a>(n_mds: usize, nodes: impl IntoIterator<Item = &'a mut MdsNode>) -> Vec<u64> {
    let mut row = vec![0; SAMPLE_FIELDS.len() * n_mds];
    for n in nodes {
        let w = n.take_sample();
        let i = n.id.index();
        row[i] = w.served;
        row[n_mds + i] = w.forwarded;
        row[2 * n_mds + i] = w.received;
        row[3 * n_mds + i] = w.disk_fetches;
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
}

impl MdsNode {
    /// Creates a node with the given cache/journal sizes.
    pub fn new(id: MdsId, cache_capacity: usize, journal_capacity: usize) -> Self {
        MdsNode {
            id,
            cache: MetaCache::new(cache_capacity),
            popularity: Popularity::new(POPULARITY_HALF_LIFE),
            update_popularity: Popularity::new(POPULARITY_HALF_LIFE),
            journal: BoundedLog::new(journal_capacity),
            write_deltas: dynmds_namespace::FxHashMap::default(),
            journal_disk: DiskModel::new(JOURNAL_DISK),
            busy_until: SimTime::ZERO,
            life: LifeCounters::default(),
            measure_base: LifeCounters::default(),
            sample_base: LifeCounters::default(),
            heartbeat_base: LifeCounters::default(),
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
        MdsNode::new(MdsId(0), 100, 100)
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
