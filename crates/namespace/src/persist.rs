//! Namespace snapshot persistence.
//!
//! The paper pairs workload traces with "matching file system metadata
//! snapshots" (§5.2, §7). [`NamespaceImage`] is a serde-serializable,
//! lossless image of a [`Namespace`] — including tombstoned ids (so inode
//! numbers survive round trips exactly, which traces depend on) and
//! secondary hard-link dentries.

use serde::{Deserialize, Serialize};

use crate::ids::InodeId;
use crate::inode::{FileType, Inode, Permissions};
use crate::tree::{Namespace, NamespaceError, NONE_U32};

/// One arena slot in the image; `None` is a tombstone.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeImage {
    /// Primary parent id (`None` for the root).
    pub parent: Option<u64>,
    /// Primary dentry name.
    pub name: String,
    /// Entry kind: 0 file, 1 directory, 2 symlink.
    pub ftype: u8,
    /// Owning uid.
    pub uid: u32,
    /// Mode bits.
    pub mode: u16,
    /// File size.
    pub size: u64,
    /// Modification time (simulator microseconds).
    pub mtime_us: u64,
    /// Hard-link count.
    pub nlink: u32,
}

/// A lossless, serializable image of a namespace.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamespaceImage {
    /// Arena slots in id order; `None` marks a dead (tombstoned) id.
    pub slots: Vec<Option<NodeImage>>,
    /// Secondary hard-link dentries: `(dir, name, target)`.
    pub extra_links: Vec<(u64, String, u64)>,
}

/// Errors from importing an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImportError {
    /// A slot references a parent outside the arena or a dead slot.
    BadParent,
    /// A parent slot is not a directory.
    ParentNotDir,
    /// Slot 0 must be the live root with no parent.
    BadRoot,
    /// A duplicate dentry name inside one directory.
    DuplicateName,
    /// An extra link references a missing slot.
    BadLink,
    /// An entry kind tag is unknown.
    BadKind,
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ImportError::BadParent => "bad parent reference",
            ImportError::ParentNotDir => "parent is not a directory",
            ImportError::BadRoot => "slot 0 is not a valid root",
            ImportError::DuplicateName => "duplicate dentry name",
            ImportError::BadLink => "bad hard-link reference",
            ImportError::BadKind => "unknown entry kind",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ImportError {}

impl Namespace {
    /// Exports a lossless image of this namespace.
    pub fn to_image(&self) -> NamespaceImage {
        let bound = self.id_bound() as usize;
        let mut slots = Vec::with_capacity(bound);
        let mut extra_links = Vec::new();
        for idx in 0..bound {
            let id = InodeId(idx as u64);
            let Ok(ino) = self.inode(id) else {
                slots.push(None);
                continue;
            };
            let ftype = match ino.ftype {
                FileType::File => 0u8,
                FileType::Directory => 1,
                FileType::Symlink => 2,
            };
            slots.push(Some(NodeImage {
                parent: self.parent(id).expect("live").map(|p| p.0),
                name: self.name(id).expect("live").to_string(),
                ftype,
                uid: ino.perm.uid,
                mode: ino.perm.mode,
                size: ino.size,
                mtime_us: ino.mtime_us,
                nlink: ino.nlink,
            }));
            // Secondary dentries: children entries whose primary home is
            // elsewhere.
            if let Ok(kids) = self.children_syms(id) {
                for (sym, child) in kids {
                    let c = child.index();
                    let primary = self.parent[c] == idx as u32 && self.name_sym[c] == sym;
                    if !primary {
                        extra_links.push((idx as u64, self.resolve_sym(sym).to_string(), child.0));
                    }
                }
            }
        }
        NamespaceImage { slots, extra_links }
    }

    /// Rebuilds a namespace from an image, preserving every inode id.
    pub fn from_image(image: &NamespaceImage) -> Result<Namespace, ImportError> {
        if image.slots.is_empty() {
            return Err(ImportError::BadRoot);
        }
        // Pass 1: allocate all slots.
        let mut ns = Namespace::raw_empty();
        let mut live_files = 0u64;
        let mut live_dirs = 0u64;
        for (idx, slot) in image.slots.iter().enumerate() {
            let id = InodeId(idx as u64);
            match slot {
                None => {
                    let tomb = Inode::new(id, FileType::File, Permissions { uid: 0, mode: 0 });
                    ns.push_slot(None, "", &tomb, false);
                }
                Some(img) => {
                    let ftype = match img.ftype {
                        0 => FileType::File,
                        1 => FileType::Directory,
                        2 => FileType::Symlink,
                        _ => return Err(ImportError::BadKind),
                    };
                    let mut inode =
                        Inode::new(id, ftype, Permissions { uid: img.uid, mode: img.mode });
                    inode.size = img.size;
                    inode.mtime_us = img.mtime_us;
                    inode.nlink = img.nlink;
                    if ftype.is_dir() {
                        live_dirs += 1;
                    } else {
                        live_files += 1;
                    }
                    // Parents beyond the arena are caught in pass 2 before
                    // the namespace can escape with a truncated column.
                    let parent = img.parent.filter(|&p| p < image.slots.len() as u64).map(InodeId);
                    ns.push_slot(parent, &img.name, &inode, true);
                }
            }
        }
        // Root checks.
        let root_ok = matches!(
            &image.slots[0],
            Some(img) if img.parent.is_none() && img.ftype == 1
        );
        if !root_ok {
            return Err(ImportError::BadRoot);
        }
        // Pass 2: primary dentries.
        for (idx, slot) in image.slots.iter().enumerate() {
            let Some(img) = slot else { continue };
            let Some(parent) = img.parent else { continue };
            let p = parent as usize;
            if p >= image.slots.len() || image.slots[p].is_none() {
                return Err(ImportError::BadParent);
            }
            let ti = ns.childtab[p];
            if ti == NONE_U32 {
                return Err(ImportError::ParentNotDir);
            }
            if !ns.dentry_insert(ti as usize, &img.name, idx as u32) {
                return Err(ImportError::DuplicateName);
            }
        }
        // Pass 3: secondary hard links.
        for (dir, name, target) in &image.extra_links {
            let d = *dir as usize;
            let t = *target as usize;
            if d >= image.slots.len()
                || t >= image.slots.len()
                || image.slots[t].is_none()
                || image.slots[d].is_none()
            {
                return Err(ImportError::BadLink);
            }
            let ti = ns.childtab[d];
            if ti == NONE_U32 {
                return Err(ImportError::ParentNotDir);
            }
            if !ns.dentry_insert(ti as usize, name, t as u32) {
                return Err(ImportError::DuplicateName);
            }
        }
        ns.root = InodeId(0);
        ns.live_files = live_files;
        ns.live_dirs = live_dirs;
        Ok(ns)
    }

    /// Structural self-check used after imports and in tests: parents are
    /// live directories, dentry maps agree with parent pointers, counters
    /// match.
    pub fn validate(&self) -> Result<(), NamespaceError> {
        let mut files = 0u64;
        let mut dirs = 0u64;
        for id in self.live_ids() {
            if self.is_dir(id) {
                dirs += 1;
            } else {
                files += 1;
            }
            if let Some(p) = self.parent(id)? {
                if !self.is_dir(p) {
                    return Err(NamespaceError::NotADirectory);
                }
                let name = self.name(id)?;
                if self.lookup(p, name)? != id {
                    return Err(NamespaceError::NotFound);
                }
            }
        }
        if files != self.num_files() || dirs != self.num_dirs() {
            return Err(NamespaceError::NotFound);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::NamespaceSpec;

    fn mutated_namespace() -> Namespace {
        let mut ns = NamespaceSpec { users: 6, seed: 21, ..Default::default() }.generate().ns;
        // Exercise tombstones, renames, links.
        let home = ns.resolve("/home/user0000").unwrap();
        let victim =
            ns.children(home).unwrap().find(|&(_, c)| !ns.is_dir(c)).map(|(n, _)| n.to_string());
        if let Some(name) = victim {
            ns.unlink(home, &name).unwrap();
        }
        let file = ns.walk(ns.root()).find(|&i| !ns.is_dir(i)).unwrap();
        ns.link(file, home, "hardlink").unwrap();
        let dir = ns.children(home).unwrap().find(|&(_, c)| ns.is_dir(c)).map(|(_, c)| c);
        if let Some(d) = dir {
            let parent = ns.parent(d).unwrap().unwrap();
            let name = ns.name(d).unwrap().to_string();
            ns.rename(parent, &name, ns.root(), "moved").unwrap();
        }
        ns
    }

    #[test]
    fn image_round_trip_is_lossless() {
        let ns = mutated_namespace();
        let image = ns.to_image();
        let back = Namespace::from_image(&image).expect("valid image");
        back.validate().expect("rebuilt tree is sound");

        assert_eq!(back.total_items(), ns.total_items());
        assert_eq!(back.num_files(), ns.num_files());
        assert_eq!(back.num_dirs(), ns.num_dirs());
        assert_eq!(back.id_bound(), ns.id_bound(), "ids preserved exactly");
        for id in ns.live_ids() {
            assert!(back.is_alive(id));
            assert_eq!(back.path_of(id).unwrap(), ns.path_of(id).unwrap());
            assert_eq!(back.inode(id).unwrap(), ns.inode(id).unwrap());
        }
        // And the image of the rebuild equals the original image.
        assert_eq!(back.to_image(), image);
    }

    #[test]
    fn hard_links_survive_round_trip() {
        let ns = mutated_namespace();
        let image = ns.to_image();
        assert!(!image.extra_links.is_empty(), "fixture has a hard link");
        let back = Namespace::from_image(&image).unwrap();
        let home = back.resolve("/home/user0000").unwrap();
        let linked = back.lookup(home, "hardlink").unwrap();
        assert!(back.inode(linked).unwrap().nlink >= 2);
    }

    #[test]
    fn tombstones_keep_ids_stable() {
        let ns = mutated_namespace();
        let image = ns.to_image();
        let dead: Vec<usize> =
            image.slots.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(i, _)| i).collect();
        assert!(!dead.is_empty(), "fixture has tombstones");
        let back = Namespace::from_image(&image).unwrap();
        for idx in dead {
            assert!(!back.is_alive(InodeId(idx as u64)));
        }
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let ns = mutated_namespace();
        let good = ns.to_image();
        let err_of = |img: &NamespaceImage| Namespace::from_image(img).err();

        let mut bad = good.clone();
        bad.slots[0] = None;
        assert_eq!(err_of(&bad), Some(ImportError::BadRoot));

        let mut bad = good.clone();
        let slot = bad
            .slots
            .iter_mut()
            .filter_map(|s| s.as_mut())
            .find(|n| n.parent.is_some())
            .expect("a non-root slot exists");
        slot.parent = Some(999_999);
        assert_eq!(err_of(&bad), Some(ImportError::BadParent));

        let mut bad = good.clone();
        bad.extra_links.push((0, "x".into(), 999_999));
        assert_eq!(err_of(&bad), Some(ImportError::BadLink));

        let mut bad = good.clone();
        bad.slots.iter_mut().filter_map(|s| s.as_mut()).next().expect("a live slot exists").ftype =
            9;
        assert_eq!(err_of(&bad), Some(ImportError::BadKind));

        assert_eq!(err_of(&NamespaceImage::default()), Some(ImportError::BadRoot));
    }

    #[test]
    fn validate_accepts_generated_trees() {
        for seed in 0..5 {
            let snap = NamespaceSpec { users: 4, seed, ..Default::default() }.generate();
            snap.ns.validate().expect("generated trees are sound");
        }
    }
}
