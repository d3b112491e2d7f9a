//! Metadata operations and the observed operation mix.

use dynmds_event::SimRng;
use dynmds_namespace::InodeId;

/// A metadata operation as submitted by a client (§2.2: "operations like
/// open, close, and setattr are applied to … inodes, and operations like
/// rename and unlink manipulate the directory entries").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read an inode's attributes.
    Stat(InodeId),
    /// Resolve `name` inside `dir` (may miss: the only op whose common
    /// case is a *negative* answer, which the proxy tier caches).
    Lookup {
        /// Directory being searched.
        dir: InodeId,
        /// Entry name being resolved.
        name: String,
    },
    /// Open a file (permission check + inode fetch).
    Open(InodeId),
    /// Close a previously opened file (size/mtime update).
    Close(InodeId),
    /// List a directory.
    Readdir(InodeId),
    /// Create a file in `dir`.
    Create {
        /// Containing directory.
        dir: InodeId,
        /// New entry name (unique per generator).
        name: String,
    },
    /// Create a subdirectory in `dir`.
    Mkdir {
        /// Containing directory.
        dir: InodeId,
        /// New entry name.
        name: String,
    },
    /// Remove the entry `name` from `dir`.
    Unlink {
        /// Containing directory.
        dir: InodeId,
        /// Entry to remove.
        name: String,
    },
    /// Rename `name` within `dir` to `new_name` (same-directory renames
    /// dominate real workloads).
    Rename {
        /// Containing directory.
        dir: InodeId,
        /// Old name.
        name: String,
        /// New name.
        new_name: String,
    },
    /// Change permissions of an inode. Directory chmods are the expensive
    /// case for Lazy Hybrid.
    Chmod {
        /// Target inode.
        target: InodeId,
        /// New mode bits.
        mode: u16,
    },
    /// Update timestamps/attributes of an inode (setattr/utimes).
    SetAttr(InodeId),
    /// Add a hard link `dir/name` → `target` (rare; exercises the anchor
    /// table of §4.5).
    Link {
        /// Existing file being linked.
        target: InodeId,
        /// Directory receiving the new dentry.
        dir: InodeId,
        /// New link name.
        name: String,
    },
}

impl Op {
    /// The kind tag for statistics.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Stat(_) => OpKind::Stat,
            Op::Lookup { .. } => OpKind::Lookup,
            Op::Open(_) => OpKind::Open,
            Op::Close(_) => OpKind::Close,
            Op::Readdir(_) => OpKind::Readdir,
            Op::Create { .. } => OpKind::Create,
            Op::Mkdir { .. } => OpKind::Mkdir,
            Op::Unlink { .. } => OpKind::Unlink,
            Op::Rename { .. } => OpKind::Rename,
            Op::Chmod { .. } => OpKind::Chmod,
            Op::SetAttr(_) => OpKind::SetAttr,
            Op::Link { .. } => OpKind::Link,
        }
    }

    /// Whether this operation mutates metadata (must be journaled).
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            Op::Close(_)
                | Op::Create { .. }
                | Op::Mkdir { .. }
                | Op::Unlink { .. }
                | Op::Rename { .. }
                | Op::Chmod { .. }
                | Op::SetAttr(_)
                | Op::Link { .. }
        )
    }

    /// The primary inode the operation touches (the directory for
    /// namespace ops).
    pub fn target(&self) -> InodeId {
        match self {
            Op::Stat(id) | Op::Open(id) | Op::Close(id) | Op::Readdir(id) | Op::SetAttr(id) => *id,
            Op::Create { dir, .. }
            | Op::Mkdir { dir, .. }
            | Op::Unlink { dir, .. }
            | Op::Rename { dir, .. }
            | Op::Lookup { dir, .. } => *dir,
            Op::Chmod { target, .. } => *target,
            Op::Link { target, .. } => *target,
        }
    }
}

/// Operation kinds, for accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum OpKind {
    Stat,
    Lookup,
    Open,
    Close,
    Readdir,
    Create,
    Mkdir,
    Unlink,
    Rename,
    Chmod,
    SetAttr,
    Link,
}

/// Relative frequencies of *initiating* operations. `Close` is not listed:
/// every `Open` enqueues its own `Close` (the open-close pair of §2.2), and
/// `Readdir` enqueues a burst of `Stat`s.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// Weight of `Stat`.
    pub stat: f64,
    /// Weight of `Open` (implies a later `Close`).
    pub open: f64,
    /// Weight of `Readdir` (implies a `Stat` burst).
    pub readdir: f64,
    /// Weight of `Create`.
    pub create: f64,
    /// Weight of `Mkdir`.
    pub mkdir: f64,
    /// Weight of `Unlink`.
    pub unlink: f64,
    /// Weight of `Rename`.
    pub rename: f64,
    /// Weight of `Chmod`.
    pub chmod: f64,
    /// Weight of `SetAttr`.
    pub setattr: f64,
    /// Weight of `Link` (hard links; "rare enough", §4.5).
    pub link: f64,
}

impl OpMix {
    /// General-purpose mix shaped after the Roselli et al. 2000 study:
    /// reads dominate, namespace changes and permission changes are rare.
    pub fn general() -> Self {
        OpMix {
            stat: 42.0,
            open: 22.0,
            readdir: 8.0,
            create: 3.0,
            mkdir: 0.4,
            unlink: 2.0,
            rename: 0.4,
            chmod: 0.6,
            setattr: 1.6,
            link: 0.1,
        }
    }

    /// Create-heavy mix used by clients that have just migrated into new
    /// territory (Figure 5: "create new files in portions of the
    /// hierarchy served by a single MDS").
    pub fn create_heavy() -> Self {
        OpMix {
            stat: 15.0,
            open: 10.0,
            readdir: 3.0,
            create: 60.0,
            mkdir: 4.0,
            unlink: 1.0,
            rename: 0.5,
            chmod: 0.5,
            setattr: 6.0,
            link: 0.0,
        }
    }

    /// Samples an initiating op kind.
    pub fn sample(&self, rng: &mut SimRng) -> OpKind {
        const KINDS: [OpKind; 10] = [
            OpKind::Stat,
            OpKind::Open,
            OpKind::Readdir,
            OpKind::Create,
            OpKind::Mkdir,
            OpKind::Unlink,
            OpKind::Rename,
            OpKind::Chmod,
            OpKind::SetAttr,
            OpKind::Link,
        ];
        let weights = [
            self.stat,
            self.open,
            self.readdir,
            self.create,
            self.mkdir,
            self.unlink,
            self.rename,
            self.chmod,
            self.setattr,
            self.link,
        ];
        KINDS[rng.weighted_index(&weights)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn kind_tags_match() {
        assert_eq!(Op::Stat(InodeId(1)).kind(), OpKind::Stat);
        assert_eq!(Op::Create { dir: InodeId(1), name: "x".into() }.kind(), OpKind::Create);
        assert_eq!(
            Op::Rename { dir: InodeId(1), name: "a".into(), new_name: "b".into() }.kind(),
            OpKind::Rename
        );
    }

    #[test]
    fn update_classification() {
        assert!(!Op::Stat(InodeId(1)).is_update());
        assert!(!Op::Lookup { dir: InodeId(1), name: "x".into() }.is_update());
        assert!(!Op::Open(InodeId(1)).is_update());
        assert!(!Op::Readdir(InodeId(1)).is_update());
        assert!(Op::Close(InodeId(1)).is_update());
        assert!(Op::Chmod { target: InodeId(1), mode: 0o600 }.is_update());
        assert!(Op::Unlink { dir: InodeId(1), name: "x".into() }.is_update());
    }

    #[test]
    fn target_extraction() {
        assert_eq!(Op::Open(InodeId(9)).target(), InodeId(9));
        assert_eq!(Op::Create { dir: InodeId(3), name: "x".into() }.target(), InodeId(3));
        assert_eq!(Op::Lookup { dir: InodeId(4), name: "x".into() }.target(), InodeId(4));
        assert_eq!(Op::Chmod { target: InodeId(7), mode: 0 }.target(), InodeId(7));
    }

    #[test]
    fn general_mix_is_read_dominated() {
        let mut rng = SimRng::seed_from_u64(1);
        let mix = OpMix::general();
        let mut counts: HashMap<OpKind, usize> = HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(mix.sample(&mut rng)).or_insert(0) += 1;
        }
        let stats = counts[&OpKind::Stat];
        let renames = counts.get(&OpKind::Rename).copied().unwrap_or(0);
        assert!(stats > 7_000, "stats should dominate: {counts:?}");
        assert!(renames < 300, "renames should be rare: {counts:?}");
        assert!(!counts.contains_key(&OpKind::Close), "close never initiates");
    }

    #[test]
    fn create_heavy_mix_is_create_dominated() {
        let mut rng = SimRng::seed_from_u64(2);
        let mix = OpMix::create_heavy();
        let creates = (0..10_000).filter(|_| mix.sample(&mut rng) == OpKind::Create).count();
        assert!(creates > 5_000, "got {creates}");
    }
}
