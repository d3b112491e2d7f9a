//! Pool of object-storage devices (OSDs) acting as the shared metadata
//! store.
//!
//! Directory objects, inode-table blocks and per-MDS journals all live as
//! objects spread across the pool; an object's home device is a
//! deterministic hash of its key, standing in for the paper's
//! pseudo-random CRUSH-precursor distribution function (§2.1.1) — the
//! property the simulator needs is only that placement is balanced and
//! computable by anyone from the key alone.

use dynmds_event::SimTime;

use crate::disk::{AccessKind, DiskFault, DiskModel, DiskParams, DiskStats};

/// A collection of identical simulated devices addressed by object key.
pub struct OsdPool {
    disks: Vec<DiskModel>,
}

impl OsdPool {
    /// Creates a pool of `n` devices with identical parameters.
    pub fn new(n: usize, params: DiskParams) -> Self {
        assert!(n > 0, "pool needs at least one device");
        OsdPool { disks: (0..n).map(|_| DiskModel::new(params)).collect() }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Deterministic device index for an object key (Fibonacci hashing —
    /// cheap and well spread for sequential inode numbers).
    pub fn place(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h % self.disks.len() as u64) as usize
    }

    /// Submits an access to `key`'s home device at `now`; returns the
    /// completion time.
    pub fn access(&mut self, now: SimTime, key: u64, kind: AccessKind) -> SimTime {
        let idx = self.place(key);
        self.disks[idx].access(now, kind)
    }

    /// Installs (or clears) the same degradation window on every device.
    /// Each device's error stream is reseeded from `base_seed` and its
    /// index so the pool replays identically for a given schedule.
    pub fn set_fault(&mut self, fault: Option<DiskFault>, base_seed: u64) {
        for (i, d) in self.disks.iter_mut().enumerate() {
            d.set_fault(fault, base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }

    /// Aggregate stats across all devices.
    pub fn total_stats(&self) -> DiskStats {
        let mut total = DiskStats::default();
        for d in &self.disks {
            total.reads += d.stats().reads;
            total.writes += d.stats().writes;
            total.errors += d.stats().errors;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_event::SimDuration;

    fn pool(n: usize) -> OsdPool {
        OsdPool::new(n, DiskParams { latency: SimDuration::from_millis(8), iops: 100.0 })
    }

    #[test]
    fn placement_is_deterministic() {
        let p = pool(7);
        for key in 0..100 {
            assert_eq!(p.place(key), p.place(key));
            assert!(p.place(key) < 7);
        }
    }

    #[test]
    fn placement_is_balanced() {
        let p = pool(8);
        let mut counts = [0usize; 8];
        for key in 0..8_000u64 {
            counts[p.place(key)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "imbalanced placement: {counts:?}");
        }
    }

    #[test]
    fn different_keys_can_proceed_in_parallel() {
        let mut p = pool(4);
        // Find two keys on different devices.
        let k1 = 0u64;
        let k2 = (1..100).find(|&k| p.place(k) != p.place(k1)).unwrap();
        let c1 = p.access(SimTime::ZERO, k1, AccessKind::Read);
        let c2 = p.access(SimTime::ZERO, k2, AccessKind::Read);
        assert_eq!(c1, c2, "independent devices don't queue behind each other");
    }

    #[test]
    fn same_key_serializes() {
        let mut p = pool(4);
        let c1 = p.access(SimTime::ZERO, 5, AccessKind::Read);
        let c2 = p.access(SimTime::ZERO, 5, AccessKind::Read);
        assert!(c2 > c1);
    }

    #[test]
    fn stats_aggregate_across_devices() {
        let mut p = pool(3);
        for key in 0..30 {
            p.access(SimTime::ZERO, key, AccessKind::Read);
        }
        p.access(SimTime::ZERO, 0, AccessKind::Write);
        let s = p.total_stats();
        assert_eq!(s.reads, 30);
        assert_eq!(s.writes, 1);
    }
}
