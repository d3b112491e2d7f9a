//! Per-MDS state: cache, journal, popularity, CPU.

use dynmds_cache::{MetaCache, Popularity};
use dynmds_event::{SimDuration, SimTime};
use dynmds_namespace::MdsId;
use dynmds_storage::{BoundedLog, DiskModel, DiskParams};

use crate::config::POPULARITY_HALF_LIFE;

/// Counters reset every metrics sample window.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowCounters {
    /// Operations fully served (replies sent).
    pub served: u64,
    /// Requests forwarded to another node.
    pub forwarded: u64,
    /// Requests that arrived (served + forwarded).
    pub received: u64,
    /// Cache misses that went to disk.
    pub misses: u64,
}

/// Lifetime counters.
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
    /// Reads served from a non-authoritative replica.
    pub replica_serves: u64,
    /// Replica invalidations processed.
    pub invalidations: u64,
    /// Subtrees imported by load balancing.
    pub subtrees_in: u64,
    /// Subtrees exported by load balancing.
    pub subtrees_out: u64,
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
    /// Window counters, taken by the sampler.
    pub win: WindowCounters,
    /// Lifetime counters.
    pub life: LifeCounters,
}

impl MdsNode {
    /// Creates a node with the given cache/journal sizes.
    pub fn new(
        id: MdsId,
        cache_capacity: usize,
        journal_capacity: usize,
        journal_disk: DiskParams,
    ) -> Self {
        MdsNode {
            id,
            cache: MetaCache::new(cache_capacity),
            popularity: Popularity::new(POPULARITY_HALF_LIFE),
            update_popularity: Popularity::new(POPULARITY_HALF_LIFE),
            journal: BoundedLog::new(journal_capacity),
            write_deltas: dynmds_namespace::FxHashMap::default(),
            journal_disk: DiskModel::new(journal_disk),
            busy_until: SimTime::ZERO,
            win: WindowCounters::default(),
            life: LifeCounters::default(),
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

    /// Takes and resets the window counters.
    pub fn take_window(&mut self) -> WindowCounters {
        std::mem::take(&mut self.win)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> MdsNode {
        MdsNode::new(
            MdsId(0),
            100,
            100,
            DiskParams { latency: SimDuration::from_micros(500), iops: 5000.0 },
        )
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
    fn window_counters_reset_on_take() {
        let mut n = node();
        n.win.served = 5;
        n.win.forwarded = 2;
        let w = n.take_window();
        assert_eq!(w.served, 5);
        assert_eq!(w.forwarded, 2);
        assert_eq!(n.win.served, 0);
    }
}
