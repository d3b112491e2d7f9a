//! Long-term metadata tier (tier 2) and its two on-disk layouts.
//!
//! The partitioning strategies differ in how metadata is laid out on disk
//! (§4.5, §5.3):
//!
//! * **Embedded directories** — subtree and directory-hash strategies store
//!   a directory's entries *and their inodes* together as one object.
//!   Fetching any entry loads the whole directory: one disk transaction,
//!   entire directory prefetched.
//! * **Inode table** — file-hash and Lazy Hybrid strategies scatter files
//!   individually, so each miss loads exactly one inode and directory
//!   entry lists are separate objects.
//!
//! The store does not hold metadata contents (the shared [`Namespace`] is
//! the single source of truth); it models *which items an access loads*
//! and *when the access completes* against the [`OsdPool`].

use dynmds_event::SimTime;
use dynmds_namespace::{InodeId, Namespace};

use crate::disk::AccessKind;
use crate::osd::OsdPool;

/// On-disk layout of tier 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreLayout {
    /// Directory objects with embedded inodes; fetches prefetch the whole
    /// containing directory.
    EmbeddedDirectories,
    /// Global inode table; fetches load exactly one inode.
    InodeTable,
}

impl StoreLayout {
    /// The ids that `read` brings into memory under this layout; a
    /// readdir under the inode table loads names only, so nothing.
    pub fn loaded(self, ns: &Namespace, read: Read) -> impl Iterator<Item = InodeId> + '_ {
        let embedded = self == StoreLayout::EmbeddedDirectories;
        let (dir, alone) = match read {
            Read::Inode(id) if embedded => {
                let siblings = ns.parent(id).ok().flatten().and_then(|p| ns.children_syms(p).ok());
                let alone = siblings.is_none().then_some(id);
                (siblings, alone)
            }
            Read::Dir(dir) if embedded => (ns.children_syms(dir).ok(), None),
            Read::Dir(_) => (None, None),
            Read::Inode(id) | Read::Fragment(id) => (None, Some(id)),
        };
        dir.into_iter().flatten().map(|(_, c)| c).chain(alone)
    }
}

/// One tier-2 metadata read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Read {
    /// An inode, through its layout's object.
    Inode(InodeId),
    /// A directory's contents (a readdir).
    Dir(InodeId),
    /// One entry of an entry-hashed directory (§4.3): the directory's
    /// storage fragments with it, one object per entry under either layout.
    Fragment(InodeId),
}

/// Tier-2 store front-end.
pub struct MetadataStore {
    layout: StoreLayout,
    pool: OsdPool,
    fetches: u64,
    writebacks: u64,
    coalesced_writebacks: u64,
    /// Last physical write per object key — journal retirements landing on
    /// a recently rewritten object are folded into that write (§4.6: the
    /// B-tree directory objects absorb "incremental updates … with minimal
    /// modifications to on-disk structures").
    recent_writes: dynmds_namespace::FxHashMap<u64, SimTime>,
    write_coalesce_window: SimTime,
}

/// How long after an object write further writebacks to the same object
/// are absorbed for free.
const WRITE_COALESCE_US: u64 = 500_000;

impl MetadataStore {
    /// Creates a store over `pool` with the given layout.
    pub fn new(layout: StoreLayout, pool: OsdPool) -> Self {
        MetadataStore {
            layout,
            pool,
            fetches: 0,
            writebacks: 0,
            coalesced_writebacks: 0,
            recent_writes: dynmds_namespace::FxHashMap::default(),
            write_coalesce_window: SimTime::from_micros(WRITE_COALESCE_US),
        }
    }

    /// The configured layout.
    pub fn layout(&self) -> StoreLayout {
        self.layout
    }

    /// The object key holding `id`'s inode.
    fn object_key(&self, ns: &Namespace, id: InodeId) -> u64 {
        match self.layout {
            // The inode is embedded in its parent's directory object; the
            // root (no parent) gets its own object.
            StoreLayout::EmbeddedDirectories => match ns.parent(id) {
                Ok(Some(p)) => p.0,
                _ => id.0,
            },
            StoreLayout::InodeTable => id.0,
        }
    }

    /// Performs `read` at `now`; returns when the access completes. What
    /// it loads is [`StoreLayout::loaded`]. A readdir is one object under
    /// either layout, but under the inode table it holds names only: the
    /// inodes still need individual reads (the paper's "inefficient
    /// metadata I/O" for file hashing).
    pub fn fetch(&mut self, now: SimTime, ns: &Namespace, read: Read) -> SimTime {
        self.fetches += 1;
        let key = match read {
            Read::Inode(id) => self.object_key(ns, id),
            Read::Dir(id) | Read::Fragment(id) => id.0,
        };
        self.pool.access(now, key, AccessKind::Read)
    }

    /// Writes `id`'s record back to tier 2 (journal retirement). Repeated
    /// writebacks to the same object within the coalescing window are
    /// absorbed by the previous physical write (incremental B-tree
    /// updates) and return immediately.
    pub fn writeback(&mut self, now: SimTime, ns: &Namespace, id: InodeId) -> SimTime {
        self.writebacks += 1;
        let key = self.object_key(ns, id);
        let window = self.write_coalesce_window.as_micros();
        if let Some(&last) = self.recent_writes.get(&key) {
            if now.saturating_since(last).as_micros() < window {
                self.coalesced_writebacks += 1;
                return now;
            }
        }
        self.recent_writes.insert(key, now);
        // Opportunistic pruning keeps the map bounded on long runs.
        if self.recent_writes.len() > 65_536 {
            self.recent_writes.retain(|_, &mut t| now.saturating_since(t).as_micros() < window);
        }
        self.pool.access(now, key, AccessKind::Write)
    }

    /// Total tier-2 fetch transactions.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Total tier-2 writeback requests (physical + coalesced).
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Writebacks absorbed by a recent write to the same object.
    pub fn coalesced_writebacks(&self) -> u64 {
        self.coalesced_writebacks
    }

    /// The underlying pool (for stats).
    pub fn pool(&self) -> &OsdPool {
        &self.pool
    }

    /// Applies (or clears) a degradation window on the whole pool.
    pub fn set_pool_fault(&mut self, fault: Option<crate::disk::DiskFault>, base_seed: u64) {
        self.pool.set_fault(fault, base_seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;
    use dynmds_namespace::Permissions;

    fn setup(layout: StoreLayout) -> (MetadataStore, Namespace, InodeId, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let dir = ns.mkdir(ns.root(), "d", Permissions::directory(1)).unwrap();
        let files: Vec<InodeId> = (0..5)
            .map(|i| ns.create_file(dir, &format!("f{i}"), Permissions::shared(1)).unwrap())
            .collect();
        let store = MetadataStore::new(layout, OsdPool::new(4, DiskParams::default()));
        (store, ns, dir, files)
    }

    fn loaded(layout: StoreLayout, ns: &Namespace, read: Read) -> Vec<InodeId> {
        layout.loaded(ns, read).collect()
    }

    #[test]
    fn embedded_fetch_loads_whole_directory() {
        let (mut store, ns, _, files) = setup(StoreLayout::EmbeddedDirectories);
        assert_eq!(
            loaded(store.layout(), &ns, Read::Inode(files[0])),
            files,
            "siblings prefetched"
        );
        assert!(store.fetch(SimTime::ZERO, &ns, Read::Inode(files[0])) > SimTime::ZERO);
    }

    #[test]
    fn inode_table_fetch_loads_one() {
        let (store, ns, _, files) = setup(StoreLayout::InodeTable);
        assert_eq!(loaded(store.layout(), &ns, Read::Inode(files[0])), vec![files[0]]);
    }

    #[test]
    fn readdir_loads_embedded_inodes_or_names_only() {
        let (_, ns, dir, files) = setup(StoreLayout::EmbeddedDirectories);
        assert_eq!(loaded(StoreLayout::EmbeddedDirectories, &ns, Read::Dir(dir)), files);
        let names_only = loaded(StoreLayout::InodeTable, &ns, Read::Dir(dir));
        assert!(names_only.is_empty(), "inodes require separate fetches");
    }

    #[test]
    fn fragment_loads_its_entry_under_either_layout() {
        let (_, ns, _, files) = setup(StoreLayout::EmbeddedDirectories);
        for layout in [StoreLayout::EmbeddedDirectories, StoreLayout::InodeTable] {
            assert_eq!(loaded(layout, &ns, Read::Fragment(files[1])), vec![files[1]]);
        }
    }

    #[test]
    fn root_fetch_works_without_parent() {
        let (store, ns, _, _) = setup(StoreLayout::EmbeddedDirectories);
        assert_eq!(loaded(store.layout(), &ns, Read::Inode(ns.root())), vec![ns.root()]);
    }

    #[test]
    fn siblings_share_an_object_under_embedding() {
        let (store, ns, _, files) = setup(StoreLayout::EmbeddedDirectories);
        let k0 = store.object_key(&ns, files[0]);
        let k1 = store.object_key(&ns, files[1]);
        assert_eq!(k0, k1);
    }

    #[test]
    fn siblings_scatter_under_inode_table() {
        let (store, ns, _, files) = setup(StoreLayout::InodeTable);
        let k0 = store.object_key(&ns, files[0]);
        let k1 = store.object_key(&ns, files[1]);
        assert_ne!(k0, k1);
    }

    #[test]
    fn counters_track_operations() {
        let (mut store, ns, dir, files) = setup(StoreLayout::EmbeddedDirectories);
        store.fetch(SimTime::ZERO, &ns, Read::Inode(files[0]));
        store.fetch(SimTime::ZERO, &ns, Read::Dir(dir));
        store.writeback(SimTime::ZERO, &ns, files[0]);
        assert_eq!(store.fetches(), 2);
        assert_eq!(store.writebacks(), 1);
        assert_eq!(store.pool().total_stats().total(), 3);
    }

    #[test]
    fn writebacks_to_one_object_coalesce() {
        let (mut store, ns, _, files) = setup(StoreLayout::EmbeddedDirectories);
        // Siblings share a directory object: the second writeback within
        // the window is free.
        let t1 = store.writeback(SimTime::ZERO, &ns, files[0]);
        let t2 = store.writeback(SimTime::from_micros(10), &ns, files[1]);
        assert!(t1 > SimTime::ZERO, "first write hits the pool");
        assert_eq!(t2, SimTime::from_micros(10), "coalesced write is free");
        assert_eq!(store.coalesced_writebacks(), 1);
        // Outside the window a real write happens again.
        let later = SimTime::from_secs(5);
        let t3 = store.writeback(later, &ns, files[2]);
        assert!(t3 > later);
        assert_eq!(store.writebacks(), 3);
    }

    #[test]
    fn scattered_inode_table_writebacks_do_not_coalesce() {
        let (mut store, ns, _, files) = setup(StoreLayout::InodeTable);
        store.writeback(SimTime::ZERO, &ns, files[0]);
        store.writeback(SimTime::ZERO, &ns, files[1]);
        assert_eq!(store.coalesced_writebacks(), 0, "distinct objects");
    }
}
