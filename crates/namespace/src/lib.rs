//! Hierarchical file-system namespace model.
//!
//! The SC'04 metadata study partitions a POSIX directory hierarchy across a
//! cluster of metadata servers. This crate is the shared model of that
//! hierarchy:
//!
//! * [`ids`] — strongly typed identifiers ([`InodeId`], [`MdsId`],
//!   [`ClientId`]) used across the workspace,
//! * [`inode`] — inode records, file types, and permission bits,
//! * [`tree`] — the [`Namespace`] arena tree with POSIX-shaped mutation
//!   operations (create, mkdir, rename, unlink, chmod, link),
//! * [`generate`] — a deterministic synthetic snapshot generator shaped
//!   like the paper's "large collection of home directories".
//!
//! The model stores inodes *embedded* in their containing directory — the
//! paper's §4.5 design — so a directory and its entries are a single unit
//! for storage, caching and prefetching purposes.

pub mod fx;
pub mod generate;
pub mod ids;
pub mod inode;
pub mod intern;
pub mod tree;

pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use generate::{NamespaceSpec, Snapshot, SnapshotStats, StreamingGenerator};
pub use ids::{ClientId, InodeId, MdsId};
pub use inode::{FileType, Inode, Permissions};
pub use intern::Interner;
pub use tree::{Namespace, NamespaceError};
