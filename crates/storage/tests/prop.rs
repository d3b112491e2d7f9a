//! Property tests: storage-layer conservation laws.

use dynmds_event::SimTime;
use dynmds_namespace::{InodeId, NamespaceSpec};
use dynmds_storage::{AccessKind, BoundedLog, DiskModel, DiskParams, OsdPool, Read, StoreLayout};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Journal conservation: every append ends up exactly one of
    /// {in log, retired, coalesced}; flush empties; working set ⊆ appended.
    #[test]
    fn journal_conservation(
        cap in 1usize..64,
        appends in prop::collection::vec(0u64..40, 1..300),
    ) {
        let mut log = BoundedLog::new(cap);
        let mut writebacks = 0u64;
        for &id in &appends {
            writebacks += log.append(InodeId(id)).len() as u64;
        }
        prop_assert_eq!(log.appended(), appends.len() as u64);
        prop_assert_eq!(
            log.retired() + log.coalesced() + log.len() as u64,
            log.appended()
        );
        prop_assert_eq!(writebacks, log.retired());
        prop_assert!(log.len() <= cap);
        // Working set only holds ids that were appended.
        for id in log.working_set() {
            prop_assert!(appends.contains(&id.0));
        }
        // Flush drains everything and keeps the books balanced.
        let flushed = log.flush();
        prop_assert!(log.is_empty());
        let mut unique: Vec<InodeId> = flushed.clone();
        unique.dedup();
        prop_assert_eq!(unique.len(), flushed.len(), "flush yields each id once");
        prop_assert_eq!(
            log.retired() + log.coalesced(),
            log.appended()
        );
    }

    /// Disk completions are monotone in submission order and never beat
    /// the device latency; sustained throughput respects the IOPS cap.
    #[test]
    fn disk_completions_monotone_and_capped(
        iops in 50.0f64..2000.0,
        gaps in prop::collection::vec(0u64..10_000, 2..200),
    ) {
        let params = DiskParams { latency: dynmds_event::SimDuration::from_millis(5), iops };
        let mut disk = DiskModel::new(params);
        let mut now = SimTime::ZERO;
        let mut prev_done = SimTime::ZERO;
        let mut first = SimTime::ZERO;
        for (k, &gap) in gaps.iter().enumerate() {
            now += dynmds_event::SimDuration::from_micros(gap);
            let done = disk.access(now, AccessKind::Read);
            prop_assert!(done >= now + params.latency, "latency floor");
            prop_assert!(done >= prev_done, "completion order matches submission");
            if k == 0 { first = done; }
            prev_done = done;
        }
        // Throughput cap: n accesses need at least (n-1)/iops seconds of
        // device time between first and last completion.
        let n = gaps.len() as f64;
        let span = prev_done.saturating_since(first).as_secs_f64();
        let submit_span = now.as_secs_f64();
        let min_span = ((n - 1.0) / iops - submit_span).max(0.0);
        prop_assert!(span + 1e-9 >= min_span, "cap violated: {span} < {min_span}");
    }

    /// Embedded fetches always load the requested inode plus only its
    /// siblings; inode-table fetches load exactly the request.
    #[test]
    fn fetch_loads_are_exact(seed in 0u64..200) {
        let snap = NamespaceSpec { users: 3, seed, ..Default::default() }.generate();
        let ns = snap.ns;
        let files: Vec<InodeId> = ns.live_ids().filter(|&i| !ns.is_dir(i)).collect();
        prop_assume!(!files.is_empty());
        let target = files[seed as usize % files.len()];

        let table: Vec<InodeId> = StoreLayout::InodeTable.loaded(&ns, Read::Inode(target)).collect();
        prop_assert_eq!(table, vec![target]);

        let emb: Vec<InodeId> =
            StoreLayout::EmbeddedDirectories.loaded(&ns, Read::Inode(target)).collect();
        prop_assert!(emb.contains(&target));
        let parent = ns.parent(target).unwrap().unwrap();
        for id in &emb {
            prop_assert_eq!(ns.parent(*id).unwrap(), Some(parent), "only siblings ride along");
        }
        prop_assert_eq!(emb.len(), ns.child_count(parent).unwrap());
    }

    /// Pool placement is stable and respects device count, whatever the
    /// keys.
    #[test]
    fn pool_placement_stable(n in 1usize..32, keys in prop::collection::vec(any::<u64>(), 1..100)) {
        let pool = OsdPool::new(n, DiskParams::default());
        for &k in &keys {
            let a = pool.place(k);
            prop_assert!(a < n);
            prop_assert_eq!(a, pool.place(k));
        }
    }
}
