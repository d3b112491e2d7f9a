//! Simulated metadata storage substrate.
//!
//! The paper's simulation deliberately keeps the disk subsystem simple:
//! "we simplify the storage simulation to reflect average disk latencies
//! and transactional throughputs only" (§5.1). This crate implements that
//! model, plus the two-tier metadata store of §4.6:
//!
//! * [`disk`] — a single device with average access latency and a
//!   transactional-throughput (IOPS) cap,
//! * [`osd`] — a pool of such devices addressed by object key, the shared
//!   metadata store the MDS cluster sits on,
//! * [`journal`] — the bounded per-MDS update log (tier 1); entries that
//!   fall off the end without re-modification are written back to tier 2,
//! * [`store`] — the long-term tier: directory objects with embedded
//!   inodes (§4.5) for subtree/directory-hash strategies, or a per-inode
//!   table for file-hash and Lazy Hybrid strategies,
//! * [`anchor`] — the anchor table locating multiply-linked inodes.

pub mod anchor;
pub mod disk;
pub mod journal;
pub mod osd;
pub mod store;

pub use anchor::AnchorTable;
pub use disk::{AccessKind, DiskFault, DiskModel, DiskParams, DiskStats};
pub use journal::BoundedLog;
pub use osd::OsdPool;
pub use store::{MetadataStore, Read, StoreLayout};
