//! Inode records and permission bits.
//!
//! Inodes are deliberately small: the paper's data-distribution function
//! (§2.1.1) means the file→object mapping is "a few bytes", so a metadata
//! record is dominated by type, ownership, permissions and size. Fields the
//! simulator never branches on (timestamps beyond mtime, group bits beyond
//! the mode word) are omitted.

use crate::ids::InodeId;

/// Kind of a namespace entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file.
    File,
    /// Directory (may contain entries with embedded inodes).
    Directory,
}

impl FileType {
    /// Whether this entry may hold children.
    pub fn is_dir(self) -> bool {
        matches!(self, FileType::Directory)
    }
}

/// Simplified POSIX permission word: a uid plus a 9-bit rwx mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Permissions {
    /// Owning user.
    pub uid: u32,
    /// rwxrwxrwx bits (0o777 mask).
    pub mode: u16,
}

impl Permissions {
    /// Typical private-file permissions for `uid`.
    pub fn private(uid: u32) -> Self {
        Permissions { uid, mode: 0o600 }
    }

    /// Typical world-readable permissions for `uid`.
    pub fn shared(uid: u32) -> Self {
        Permissions { uid, mode: 0o644 }
    }

    /// Typical directory permissions for `uid`.
    pub fn directory(uid: u32) -> Self {
        Permissions { uid, mode: 0o755 }
    }

    /// Whether `uid` may traverse/read under these permissions. The check
    /// is the simplified POSIX rule the simulator needs: the owner uses the
    /// owner bits, everyone else the "other" bits.
    pub fn allows_read(&self, uid: u32) -> bool {
        if uid == self.uid {
            self.mode & 0o400 != 0
        } else {
            self.mode & 0o004 != 0
        }
    }

    /// Whether `uid` may execute/descend (for directories).
    pub fn allows_traverse(&self, uid: u32) -> bool {
        if uid == self.uid {
            self.mode & 0o100 != 0
        } else {
            self.mode & 0o001 != 0
        }
    }
}

/// A metadata record for one file or directory.
///
/// `Copy` is deliberate: the namespace stores inode fields as columns and
/// materializes this record by value on access, so the type must be cheap
/// to pass around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Inode {
    /// Unique identifier (never reused).
    pub id: InodeId,
    /// Entry kind.
    pub ftype: FileType,
    /// Ownership + mode.
    pub perm: Permissions,
    /// File size in bytes (directories report entry count via the tree).
    pub size: u64,
    /// Last-modification time, in simulator microseconds.
    pub mtime_us: u64,
    /// Hard-link count. Files with `nlink > 1` are the rare case that
    /// requires the anchor table (§4.5).
    pub nlink: u32,
}

impl Inode {
    /// Builds a fresh inode of the given type.
    pub fn new(id: InodeId, ftype: FileType, perm: Permissions) -> Self {
        Inode { id, ftype, perm, size: 0, mtime_us: 0, nlink: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_type_predicates() {
        assert!(FileType::Directory.is_dir());
        assert!(!FileType::File.is_dir());
    }

    #[test]
    fn owner_read_permission() {
        let p = Permissions::private(42);
        assert!(p.allows_read(42));
        assert!(!p.allows_read(43));
    }

    #[test]
    fn shared_read_permission() {
        let p = Permissions::shared(42);
        assert!(p.allows_read(42));
        assert!(p.allows_read(43));
    }

    #[test]
    fn traverse_permission() {
        let d = Permissions::directory(1);
        assert!(d.allows_traverse(1));
        assert!(d.allows_traverse(2));
        let locked = Permissions { uid: 1, mode: 0o700 };
        assert!(locked.allows_traverse(1));
        assert!(!locked.allows_traverse(2));
    }

    #[test]
    fn new_inode_defaults() {
        let ino = Inode::new(InodeId(5), FileType::File, Permissions::shared(1));
        assert_eq!(ino.id, InodeId(5));
        assert_eq!(ino.size, 0);
        assert_eq!(ino.nlink, 1);
        assert_eq!(ino.mtime_us, 0);
    }
}
