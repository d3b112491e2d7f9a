//! The namespace tree: struct-of-arrays storage with interned names.
//!
//! Nodes are addressed by [`InodeId`], which doubles as the arena index.
//! Ids are never reused; unlinked nodes are tombstoned. Unlike the
//! original arena-of-structs layout, every field lives in its own dense
//! column and dentry names are interned `u32` symbols, so a node costs
//! ~39 bytes of column data plus its share of the directory tables —
//! the layout the 10⁸-inode scale tier (ROADMAP item 1) needs to fit in
//! memory. Directory children are kept in per-directory tables sorted by
//! name bytes, so iteration order — and therefore every simulation that
//! walks the tree — is deterministic and identical to the previous
//! `BTreeMap<Box<str>, _>` representation.
//!
//! Hard links are supported the way the paper treats them (§4.5): every
//! inode has one *primary* dentry (where the inode is embedded); additional
//! links are plain name→id entries, and the storage layer's anchor table is
//! responsible for locating multiply-linked inodes.

use std::fmt;

use crate::ids::InodeId;
use crate::inode::{FileType, Inode, Permissions};
use crate::intern::Interner;

/// Errors from namespace operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NamespaceError {
    /// No entry with that id / name.
    NotFound,
    /// Operation requires a directory but the target is not one.
    NotADirectory,
    /// Operation requires a non-directory but the target is a directory.
    IsADirectory,
    /// Name already taken in the target directory.
    AlreadyExists,
    /// Directory is not empty (rmdir semantics).
    NotEmpty,
    /// Rename would move a directory into its own subtree, or touch root.
    InvalidMove,
}

impl fmt::Display for NamespaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NamespaceError::NotFound => "entry not found",
            NamespaceError::NotADirectory => "not a directory",
            NamespaceError::IsADirectory => "is a directory",
            NamespaceError::AlreadyExists => "name already exists",
            NamespaceError::NotEmpty => "directory not empty",
            NamespaceError::InvalidMove => "invalid move",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NamespaceError {}

/// Column sentinel for "no parent" / "no directory table".
const NONE_U32: u32 = u32::MAX;

/// `flags` column: bit 0 marks a directory, bit 2 is liveness.
const FLAG_DIR: u8 = 0b001;
const FLAG_ALIVE: u8 = 0b100;

#[inline]
fn ftype_decode(flags: u8) -> FileType {
    if flags & FLAG_DIR != 0 {
        FileType::Directory
    } else {
        FileType::File
    }
}

/// One sorted dentry: interned name symbol plus child slot.
#[derive(Clone, Copy, Debug)]
struct DirEnt {
    sym: u32,
    child: u32,
}

/// The file-system hierarchy, stored as parallel columns indexed by
/// [`InodeId`].
pub struct Namespace {
    /// Interned dentry-name vocabulary shared by all columns.
    names: Interner,
    /// Primary parent slot; [`NONE_U32`] for the root and tombstones.
    parent: Vec<u32>,
    /// Interned name of the primary dentry.
    name_sym: Vec<u32>,
    /// File type + liveness bits.
    flags: Vec<u8>,
    /// Owning uid.
    uid: Vec<u32>,
    /// Mode bits.
    mode: Vec<u16>,
    /// File size in bytes.
    size: Vec<u64>,
    /// Last-modification time, simulator microseconds.
    mtime_us: Vec<u64>,
    /// Hard-link count.
    nlink: Vec<u32>,
    /// Index into `tables` for directories; [`NONE_U32`] otherwise.
    childtab: Vec<u32>,
    /// Per-directory dentry tables, each sorted by name bytes.
    tables: Vec<Vec<DirEnt>>,
    root: InodeId,
    live_files: u64,
    live_dirs: u64,
}

impl Namespace {
    /// Creates a namespace containing only the root directory, owned by
    /// uid 0.
    pub fn new() -> Self {
        let mut ns = Namespace {
            names: Interner::new(),
            parent: Vec::new(),
            name_sym: Vec::new(),
            flags: Vec::new(),
            uid: Vec::new(),
            mode: Vec::new(),
            size: Vec::new(),
            mtime_us: Vec::new(),
            nlink: Vec::new(),
            childtab: Vec::new(),
            tables: Vec::new(),
            root: InodeId(0),
            live_files: 0,
            live_dirs: 1,
        };
        let root = Inode::new(InodeId(0), FileType::Directory, Permissions::directory(0));
        ns.push_slot(None, "", &root);
        ns
    }

    /// Appends one live arena slot with the given fields, without touching
    /// any dentry table or live counter. `id` must equal the new slot index.
    fn push_slot(&mut self, parent: Option<InodeId>, name: &str, ino: &Inode) {
        let idx = self.parent.len();
        assert!(idx < NONE_U32 as usize, "namespace exceeds the u32 slot space");
        debug_assert_eq!(ino.id.index(), idx);
        let sym = self.names.intern(name);
        self.parent.push(parent.map(|p| p.0 as u32).unwrap_or(NONE_U32));
        self.name_sym.push(sym);
        self.flags.push(if ino.ftype.is_dir() { FLAG_DIR } else { 0 } | FLAG_ALIVE);
        self.uid.push(ino.perm.uid);
        self.mode.push(ino.perm.mode);
        self.size.push(ino.size);
        self.mtime_us.push(ino.mtime_us);
        self.nlink.push(ino.nlink);
        if ino.ftype.is_dir() {
            let t = u32::try_from(self.tables.len()).expect("directory table index overflow");
            self.tables.push(Vec::new());
            self.childtab.push(t);
        } else {
            self.childtab.push(NONE_U32);
        }
    }

    /// Sorted-position lookup of `name` in directory table `ti`.
    #[inline]
    fn find_in(&self, ti: usize, name: &str) -> Result<usize, usize> {
        let names = &self.names;
        self.tables[ti].binary_search_by(|e| names.resolve(e.sym).cmp(name))
    }

    /// Inserts `name → child` into directory table `ti`, keeping it
    /// sorted. Returns `false` (and inserts nothing) on a duplicate name.
    fn dentry_insert(&mut self, ti: usize, name: &str, child: u32) -> bool {
        match self.find_in(ti, name) {
            Ok(_) => false,
            Err(pos) => {
                let sym = self.names.intern(name);
                self.tables[ti].insert(pos, DirEnt { sym, child });
                true
            }
        }
    }

    /// Live slot index for `id`.
    #[inline]
    fn check(&self, id: InodeId) -> Result<usize, NamespaceError> {
        let i = id.index();
        if i < self.flags.len() && self.flags[i] & FLAG_ALIVE != 0 {
            Ok(i)
        } else {
            Err(NamespaceError::NotFound)
        }
    }

    /// Directory table index for a live directory `dir`.
    #[inline]
    fn dir_table(&self, dir: InodeId) -> Result<usize, NamespaceError> {
        let i = self.check(dir)?;
        let t = self.childtab[i];
        if t == NONE_U32 {
            return Err(NamespaceError::NotADirectory);
        }
        Ok(t as usize)
    }

    /// Root directory id.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// Number of live regular files.
    pub fn num_files(&self) -> u64 {
        self.live_files
    }

    /// Number of live directories (including root).
    pub fn num_dirs(&self) -> u64 {
        self.live_dirs
    }

    /// Total live metadata items.
    pub fn total_items(&self) -> u64 {
        self.live_files + self.live_dirs
    }

    /// Highest id ever allocated plus one (arena size).
    pub fn id_bound(&self) -> u64 {
        self.parent.len() as u64
    }

    /// Whether `id` refers to a live entry.
    pub fn is_alive(&self, id: InodeId) -> bool {
        self.check(id).is_ok()
    }

    /// The inode record for `id`, materialized from the columns.
    pub fn inode(&self, id: InodeId) -> Result<Inode, NamespaceError> {
        let i = self.check(id)?;
        Ok(Inode {
            id,
            ftype: ftype_decode(self.flags[i]),
            perm: Permissions { uid: self.uid[i], mode: self.mode[i] },
            size: self.size[i],
            mtime_us: self.mtime_us[i],
            nlink: self.nlink[i],
        })
    }

    /// Applies `f` to the inode record of `id` and writes the mutable
    /// fields (permissions, size, mtime, nlink) back to the columns. The
    /// id and file type are fixed at creation; changes to them are
    /// ignored. This replaces the old `inode_mut` accessor, which cannot
    /// exist over column storage.
    pub fn update_inode<R>(
        &mut self,
        id: InodeId,
        f: impl FnOnce(&mut Inode) -> R,
    ) -> Result<R, NamespaceError> {
        let i = self.check(id)?;
        let mut ino = self.inode(id)?;
        let r = f(&mut ino);
        self.uid[i] = ino.perm.uid;
        self.mode[i] = ino.perm.mode;
        self.size[i] = ino.size;
        self.mtime_us[i] = ino.mtime_us;
        self.nlink[i] = ino.nlink;
        Ok(r)
    }

    /// Primary parent directory of `id` (`None` for the root).
    pub fn parent(&self, id: InodeId) -> Result<Option<InodeId>, NamespaceError> {
        let i = self.check(id)?;
        let p = self.parent[i];
        Ok((p != NONE_U32).then_some(InodeId(p as u64)))
    }

    /// Name of the primary dentry of `id` (empty for the root).
    pub fn name(&self, id: InodeId) -> Result<&str, NamespaceError> {
        let i = self.check(id)?;
        Ok(self.names.resolve(self.name_sym[i]))
    }

    /// Interned symbol of the primary dentry name of `id`. Symbols are
    /// stable for the life of the namespace and equal symbols mean equal
    /// names, so hot paths can compare/hash names without touching bytes.
    pub fn name_sym(&self, id: InodeId) -> Result<u32, NamespaceError> {
        let i = self.check(id)?;
        Ok(self.name_sym[i])
    }

    /// The name behind an interned symbol obtained from
    /// [`name_sym`](Self::name_sym) or [`children_syms`](Self::children_syms).
    pub fn resolve_sym(&self, sym: u32) -> &str {
        self.names.resolve(sym)
    }

    /// Whether `id` is a directory.
    pub fn is_dir(&self, id: InodeId) -> bool {
        self.check(id).map(|i| self.flags[i] & FLAG_DIR != 0).unwrap_or(false)
    }

    /// Iterates `(name, child_id)` over a directory, in name order.
    pub fn children(
        &self,
        dir: InodeId,
    ) -> Result<impl Iterator<Item = (&str, InodeId)> + '_, NamespaceError> {
        let ti = self.dir_table(dir)?;
        Ok(self.tables[ti]
            .iter()
            .map(move |e| (self.names.resolve(e.sym), InodeId(e.child as u64))))
    }

    /// Iterates `(name_symbol, child_id)` over a directory, in name order,
    /// without resolving name bytes — the traversal hot path for consumers
    /// that only compare or hash names.
    pub fn children_syms(
        &self,
        dir: InodeId,
    ) -> Result<impl Iterator<Item = (u32, InodeId)> + '_, NamespaceError> {
        let ti = self.dir_table(dir)?;
        Ok(self.tables[ti].iter().map(|e| (e.sym, InodeId(e.child as u64))))
    }

    /// Number of entries in a directory.
    pub fn child_count(&self, dir: InodeId) -> Result<usize, NamespaceError> {
        let ti = self.dir_table(dir)?;
        Ok(self.tables[ti].len())
    }

    /// The `i`-th entry of a directory in name order, as
    /// `(name_symbol, child_id)`: one index into the sorted dentry table.
    /// Panics unless `i` is below [`child_count`](Self::child_count).
    pub fn child_at(&self, dir: InodeId, i: usize) -> Result<(u32, InodeId), NamespaceError> {
        let e = self.tables[self.dir_table(dir)?][i];
        Ok((e.sym, InodeId(e.child as u64)))
    }

    /// Looks up `name` in `dir`.
    pub fn lookup(&self, dir: InodeId, name: &str) -> Result<InodeId, NamespaceError> {
        let ti = self.dir_table(dir)?;
        match self.find_in(ti, name) {
            Ok(pos) => Ok(InodeId(self.tables[ti][pos].child as u64)),
            Err(_) => Err(NamespaceError::NotFound),
        }
    }

    /// Resolves an absolute `/`-separated path to an id.
    pub fn resolve(&self, path: &str) -> Result<InodeId, NamespaceError> {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup(cur, comp)?;
        }
        Ok(cur)
    }

    /// The absolute path of the primary dentry of `id`.
    pub fn path_of(&self, id: InodeId) -> Result<String, NamespaceError> {
        let mut syms: Vec<u32> = Vec::new();
        let mut i = self.check(id)?;
        while self.parent[i] != NONE_U32 {
            syms.push(self.name_sym[i]);
            i = self.check(InodeId(self.parent[i] as u64))?;
        }
        if syms.is_empty() {
            return Ok("/".to_string());
        }
        let mut out = String::new();
        for &s in syms.iter().rev() {
            out.push('/');
            out.push_str(self.names.resolve(s));
        }
        Ok(out)
    }

    /// Calls `f` once per path component of `id`'s primary path, **root
    /// first** — the same components [`path_of`](Self::path_of) would join
    /// with `/`, but without building a `String`. The root itself has zero
    /// components. Returns the component count. Deep paths beyond a small
    /// inline buffer spill to a heap allocation.
    pub fn visit_path<F: FnMut(&str)>(
        &self,
        id: InodeId,
        mut f: F,
    ) -> Result<usize, NamespaceError> {
        let mut head = [0u32; 32];
        let mut n = 0usize;
        let mut spill: Vec<u32> = Vec::new();
        let mut i = self.check(id)?;
        while self.parent[i] != NONE_U32 {
            let s = self.name_sym[i];
            if n < head.len() {
                head[n] = s;
            } else {
                spill.push(s);
            }
            n += 1;
            i = self.check(InodeId(self.parent[i] as u64))?;
        }
        for &s in spill.iter().rev() {
            f(self.names.resolve(s));
        }
        for k in (0..n.min(head.len())).rev() {
            f(self.names.resolve(head[k]));
        }
        Ok(n)
    }

    /// Raw parent pointer, ignoring liveness (tombstones have none).
    #[inline]
    fn parent_raw(&self, id: InodeId) -> Option<InodeId> {
        let i = id.index();
        if i < self.parent.len() && self.parent[i] != NONE_U32 {
            Some(InodeId(self.parent[i] as u64))
        } else {
            None
        }
    }

    /// Ancestors of `id`, nearest first, ending with the root. The entry
    /// itself is not included.
    pub fn ancestors(&self, id: InodeId) -> AncestorIter<'_> {
        let next = if self.check(id).is_ok() { self.parent_raw(id) } else { None };
        AncestorIter { ns: self, next }
    }

    /// Fills `buf` with the ancestors of `id`, **root first** — the
    /// reverse of [`ancestors`](Self::ancestors), and likewise excluding
    /// `id` itself. `buf` is cleared first; with sufficient capacity the
    /// call does not allocate.
    pub fn ancestors_into(&self, id: InodeId, buf: &mut Vec<InodeId>) {
        buf.clear();
        buf.extend(self.ancestors(id));
        buf.reverse();
    }

    /// Depth of `id` below the root (root is depth 0).
    pub fn depth(&self, id: InodeId) -> Result<usize, NamespaceError> {
        self.check(id)?;
        Ok(self.ancestors(id).count())
    }

    /// Whether `anc` is a strict ancestor of `id`.
    pub fn is_ancestor(&self, anc: InodeId, id: InodeId) -> bool {
        self.ancestors(id).any(|a| a == anc)
    }

    fn insert_child(
        &mut self,
        dir: InodeId,
        name: &str,
        ftype: FileType,
        perm: Permissions,
    ) -> Result<InodeId, NamespaceError> {
        let ti = self.dir_table(dir)?;
        if self.find_in(ti, name).is_ok() {
            return Err(NamespaceError::AlreadyExists);
        }
        let id = InodeId(self.parent.len() as u64);
        let ino = Inode::new(id, ftype, perm);
        self.push_slot(Some(dir), name, &ino);
        let inserted = self.dentry_insert(ti, name, id.0 as u32);
        debug_assert!(inserted, "checked for duplicates above");
        if ftype.is_dir() {
            self.live_dirs += 1;
        } else {
            self.live_files += 1;
        }
        Ok(id)
    }

    /// Creates a subdirectory.
    pub fn mkdir(
        &mut self,
        parent: InodeId,
        name: &str,
        perm: Permissions,
    ) -> Result<InodeId, NamespaceError> {
        self.insert_child(parent, name, FileType::Directory, perm)
    }

    /// Creates a regular file.
    pub fn create_file(
        &mut self,
        parent: InodeId,
        name: &str,
        perm: Permissions,
    ) -> Result<InodeId, NamespaceError> {
        self.insert_child(parent, name, FileType::File, perm)
    }

    /// Adds a hard link `dir/name` → `target`. The target must be a file
    /// (POSIX forbids directory hard links). The new link is secondary:
    /// the inode stays embedded at its primary dentry.
    pub fn link(
        &mut self,
        target: InodeId,
        dir: InodeId,
        name: &str,
    ) -> Result<(), NamespaceError> {
        let t = self.check(target)?;
        if self.flags[t] & FLAG_DIR != 0 {
            return Err(NamespaceError::IsADirectory);
        }
        let ti = self.dir_table(dir)?;
        if self.find_in(ti, name).is_ok() {
            return Err(NamespaceError::AlreadyExists);
        }
        self.dentry_insert(ti, name, target.0 as u32);
        self.nlink[t] += 1;
        Ok(())
    }

    /// Removes the entry `dir/name`. Directories must be empty. Removing a
    /// secondary hard link just drops the dentry; the inode dies when its
    /// last link is removed. Returns the id the dentry referred to.
    pub fn unlink(&mut self, dir: InodeId, name: &str) -> Result<InodeId, NamespaceError> {
        let ti = self.dir_table(dir)?;
        let pos = self.find_in(ti, name).map_err(|_| NamespaceError::NotFound)?;
        let ent = self.tables[ti][pos];
        let id = InodeId(ent.child as u64);
        let i = self.check(id)?;
        let is_dir = self.flags[i] & FLAG_DIR != 0;
        let was_primary = self.parent[i] == dir.0 as u32 && self.name_sym[i] == ent.sym;
        if is_dir {
            if !was_primary {
                return Err(NamespaceError::NotFound);
            }
            if !self.tables[self.childtab[i] as usize].is_empty() {
                return Err(NamespaceError::NotEmpty);
            }
        }
        self.tables[ti].remove(pos);
        self.nlink[i] -= 1;
        if self.nlink[i] == 0 {
            self.flags[i] &= !FLAG_ALIVE;
            self.parent[i] = NONE_U32;
            if is_dir {
                self.live_dirs -= 1;
            } else {
                self.live_files -= 1;
            }
        } else if was_primary {
            // Promote some surviving link to primary so path_of stays total.
            if let Some((p, sym)) = self.find_any_link(id) {
                self.parent[i] = p.0 as u32;
                self.name_sym[i] = sym;
            }
        }
        Ok(id)
    }

    /// Finds any surviving dentry referring to `id` (O(tree); hard links
    /// are rare, per the paper, so this never shows up in profiles).
    /// Returns the directory and the interned dentry name.
    fn find_any_link(&self, id: InodeId) -> Option<(InodeId, u32)> {
        let target = id.0 as u32;
        for idx in 0..self.parent.len() {
            if self.flags[idx] & FLAG_ALIVE == 0 || self.childtab[idx] == NONE_U32 {
                continue;
            }
            for e in &self.tables[self.childtab[idx] as usize] {
                if e.child == target {
                    return Some((InodeId(idx as u64), e.sym));
                }
            }
        }
        None
    }

    /// Moves/renames the primary dentry `old_dir/old_name` to
    /// `new_dir/new_name`. Refuses to move a directory into its own
    /// subtree, to move the root, or to clobber an existing name.
    pub fn rename(
        &mut self,
        old_dir: InodeId,
        old_name: &str,
        new_dir: InodeId,
        new_name: &str,
    ) -> Result<InodeId, NamespaceError> {
        let old_ti = self.dir_table(old_dir)?;
        let old_pos = self.find_in(old_ti, old_name).map_err(|_| NamespaceError::NotFound)?;
        let ent = self.tables[old_ti][old_pos];
        let id = InodeId(ent.child as u64);
        if id == self.root {
            return Err(NamespaceError::InvalidMove);
        }
        // A directory may not be moved under itself or its descendants.
        if self.is_dir(id) && (id == new_dir || self.is_ancestor(id, new_dir)) {
            return Err(NamespaceError::InvalidMove);
        }
        let new_ti = self.dir_table(new_dir)?;
        if self.find_in(new_ti, new_name).is_ok() && !(new_dir == old_dir && new_name == old_name) {
            return Err(NamespaceError::AlreadyExists);
        }
        // Re-locate after the table index may have shifted is unnecessary —
        // tables are stable between the lookups above — but the old entry
        // position is recomputed defensively if both dirs share a table.
        let old_pos = self.find_in(old_ti, old_name).expect("entry located above");
        self.tables[old_ti].remove(old_pos);
        self.dentry_insert(new_ti, new_name, id.0 as u32);
        let i = id.index();
        if self.parent[i] == old_dir.0 as u32 && self.name_sym[i] == ent.sym {
            self.parent[i] = new_dir.0 as u32;
            self.name_sym[i] = self.names.intern(new_name);
        }
        Ok(id)
    }

    /// Changes the mode bits of `id`.
    pub fn chmod(&mut self, id: InodeId, mode: u16) -> Result<(), NamespaceError> {
        let i = self.check(id)?;
        self.mode[i] = mode & 0o777;
        Ok(())
    }

    /// Counts live items in the subtree rooted at `id` (inclusive).
    pub fn subtree_count(&self, id: InodeId) -> Result<u64, NamespaceError> {
        self.check(id)?;
        Ok(self.walk(id).count() as u64)
    }

    /// Pre-order walk of the subtree rooted at `id` (inclusive).
    pub fn walk(&self, id: InodeId) -> WalkIter<'_> {
        let stack = if self.is_alive(id) { vec![id] } else { Vec::new() };
        WalkIter { ns: self, stack }
    }

    /// All live ids, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = InodeId> + '_ {
        self.flags
            .iter()
            .enumerate()
            .filter(|(_, &f)| f & FLAG_ALIVE != 0)
            .map(|(i, _)| InodeId(i as u64))
    }

    /// Structural self-check used in tests: parents are live directories,
    /// dentry maps agree with parent pointers, counters match.
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

    /// Releases excess column and table capacity back to the allocator.
    /// Amortized Vec growth can leave capacities near 2× length right
    /// after a build; the scale tier calls this once after materializing
    /// its snapshot so [`heap_bytes`](Self::heap_bytes) — and actual RSS —
    /// reflect the tree, not the growth schedule.
    pub fn shrink_to_fit(&mut self) {
        self.parent.shrink_to_fit();
        self.name_sym.shrink_to_fit();
        self.flags.shrink_to_fit();
        self.uid.shrink_to_fit();
        self.mode.shrink_to_fit();
        self.size.shrink_to_fit();
        self.mtime_us.shrink_to_fit();
        self.nlink.shrink_to_fit();
        self.childtab.shrink_to_fit();
        for t in &mut self.tables {
            t.shrink_to_fit();
        }
        self.tables.shrink_to_fit();
    }

    /// Heap bytes held by the namespace: every column's capacity, the
    /// directory tables, and the name interner. This is the number the
    /// scale tier budgets (`namespace_bytes_per_inode`); it counts
    /// capacities, matching what the allocator actually handed out.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = self.parent.capacity() * size_of::<u32>()
            + self.name_sym.capacity() * size_of::<u32>()
            + self.flags.capacity()
            + self.uid.capacity() * size_of::<u32>()
            + self.mode.capacity() * size_of::<u16>()
            + self.size.capacity() * size_of::<u64>()
            + self.mtime_us.capacity() * size_of::<u64>()
            + self.nlink.capacity() * size_of::<u32>()
            + self.childtab.capacity() * size_of::<u32>()
            + self.tables.capacity() * size_of::<Vec<DirEnt>>()
            + self.names.heap_bytes();
        for t in &self.tables {
            b += t.capacity() * size_of::<DirEnt>();
        }
        b
    }
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over ancestors, nearest first. See [`Namespace::ancestors`].
pub struct AncestorIter<'a> {
    ns: &'a Namespace,
    next: Option<InodeId>,
}

impl Iterator for AncestorIter<'_> {
    type Item = InodeId;
    fn next(&mut self) -> Option<InodeId> {
        let cur = self.next?;
        self.next = self.ns.parent_raw(cur);
        Some(cur)
    }
}

/// Pre-order subtree iterator. See [`Namespace::walk`].
pub struct WalkIter<'a> {
    ns: &'a Namespace,
    stack: Vec<InodeId>,
}

impl Iterator for WalkIter<'_> {
    type Item = InodeId;
    fn next(&mut self) -> Option<InodeId> {
        let cur = self.stack.pop()?;
        if let Ok(ti) = self.ns.dir_table(cur) {
            // Push in reverse name order so pop yields name order.
            let kids = self.ns.tables[ti].iter().rev();
            self.stack.extend(kids.map(|e| InodeId(e.child as u64)));
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perm() -> Permissions {
        Permissions::shared(1)
    }

    fn sample() -> (Namespace, InodeId, InodeId, InodeId) {
        // /home/alice/notes.txt
        let mut ns = Namespace::new();
        let home = ns.mkdir(ns.root(), "home", Permissions::directory(1)).unwrap();
        let alice = ns.mkdir(home, "alice", Permissions::directory(1)).unwrap();
        let notes = ns.create_file(alice, "notes.txt", perm()).unwrap();
        (ns, home, alice, notes)
    }

    #[test]
    fn fresh_namespace_has_only_root() {
        let ns = Namespace::new();
        assert_eq!(ns.total_items(), 1);
        assert_eq!(ns.num_dirs(), 1);
        assert_eq!(ns.num_files(), 0);
        assert_eq!(ns.path_of(ns.root()).unwrap(), "/");
        assert_eq!(ns.depth(ns.root()).unwrap(), 0);
    }

    #[test]
    fn create_and_lookup() {
        let (ns, home, alice, notes) = sample();
        assert_eq!(ns.lookup(ns.root(), "home").unwrap(), home);
        assert_eq!(ns.lookup(home, "alice").unwrap(), alice);
        assert_eq!(ns.lookup(alice, "notes.txt").unwrap(), notes);
        assert_eq!(ns.num_files(), 1);
        assert_eq!(ns.num_dirs(), 3);
    }

    #[test]
    fn paths_round_trip_through_resolve() {
        let (ns, _, alice, notes) = sample();
        assert_eq!(ns.path_of(notes).unwrap(), "/home/alice/notes.txt");
        assert_eq!(ns.resolve("/home/alice/notes.txt").unwrap(), notes);
        assert_eq!(ns.resolve("/home/alice").unwrap(), alice);
        assert_eq!(ns.resolve("/").unwrap(), ns.root());
        assert_eq!(ns.resolve("//home//alice/").unwrap(), alice);
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut ns, home, _, _) = sample();
        assert_eq!(ns.mkdir(home, "alice", perm()), Err(NamespaceError::AlreadyExists));
        assert_eq!(ns.create_file(home, "alice", perm()), Err(NamespaceError::AlreadyExists));
    }

    #[test]
    fn files_cannot_hold_children() {
        let (mut ns, _, _, notes) = sample();
        assert_eq!(ns.create_file(notes, "x", perm()), Err(NamespaceError::NotADirectory));
        assert_eq!(ns.lookup(notes, "x"), Err(NamespaceError::NotADirectory));
        assert!(ns.children(notes).is_err());
    }

    #[test]
    fn ancestors_walk_to_root() {
        let (ns, home, alice, notes) = sample();
        let ancs: Vec<InodeId> = ns.ancestors(notes).collect();
        assert_eq!(ancs, vec![alice, home, ns.root()]);
        assert_eq!(ns.depth(notes).unwrap(), 3);
        assert!(ns.is_ancestor(home, notes));
        assert!(!ns.is_ancestor(notes, home));
        assert!(!ns.is_ancestor(notes, notes), "not a strict ancestor of itself");
    }

    #[test]
    fn unlink_file_frees_it() {
        let (mut ns, _, alice, notes) = sample();
        assert_eq!(ns.unlink(alice, "notes.txt").unwrap(), notes);
        assert!(!ns.is_alive(notes));
        assert_eq!(ns.num_files(), 0);
        assert_eq!(ns.lookup(alice, "notes.txt"), Err(NamespaceError::NotFound));
        assert_eq!(ns.inode(notes), Err(NamespaceError::NotFound));
    }

    #[test]
    fn rmdir_requires_empty() {
        let (mut ns, home, _, _) = sample();
        assert_eq!(ns.unlink(home, "alice"), Err(NamespaceError::NotEmpty));
        let alice = ns.lookup(home, "alice").unwrap();
        ns.unlink(alice, "notes.txt").unwrap();
        ns.unlink(home, "alice").unwrap();
        assert_eq!(ns.num_dirs(), 2);
    }

    #[test]
    fn rename_moves_subtree() {
        let (mut ns, home, alice, notes) = sample();
        let bob = ns.mkdir(home, "bob", perm()).unwrap();
        ns.rename(home, "alice", bob, "alice2").unwrap();
        assert_eq!(ns.path_of(notes).unwrap(), "/home/bob/alice2/notes.txt");
        assert_eq!(ns.parent(alice).unwrap(), Some(bob));
        assert_eq!(ns.resolve("/home/bob/alice2/notes.txt").unwrap(), notes);
        assert_eq!(ns.resolve("/home/alice/notes.txt"), Err(NamespaceError::NotFound));
    }

    #[test]
    fn rename_within_directory_renames() {
        let (mut ns, _, alice, notes) = sample();
        ns.rename(alice, "notes.txt", alice, "todo.txt").unwrap();
        assert_eq!(ns.path_of(notes).unwrap(), "/home/alice/todo.txt");
    }

    #[test]
    fn rename_rejects_cycle() {
        let (mut ns, home, alice, _) = sample();
        let deep = ns.mkdir(alice, "deep", perm()).unwrap();
        assert_eq!(ns.rename(home, "alice", deep, "x"), Err(NamespaceError::InvalidMove));
        assert_eq!(ns.rename(home, "alice", alice, "x"), Err(NamespaceError::InvalidMove));
    }

    #[test]
    fn rename_rejects_clobber() {
        let (mut ns, home, _, _) = sample();
        ns.mkdir(home, "bob", perm()).unwrap();
        assert_eq!(ns.rename(home, "alice", home, "bob"), Err(NamespaceError::AlreadyExists));
    }

    #[test]
    fn rename_onto_itself_is_ok() {
        let (mut ns, home, alice, _) = sample();
        ns.rename(home, "alice", home, "alice").unwrap();
        assert_eq!(ns.parent(alice).unwrap(), Some(home));
    }

    #[test]
    fn hard_links_share_an_inode() {
        let (mut ns, home, alice, notes) = sample();
        ns.link(notes, home, "notes-link").unwrap();
        assert_eq!(ns.inode(notes).unwrap().nlink, 2);
        assert_eq!(ns.lookup(home, "notes-link").unwrap(), notes);
        // Primary path unchanged.
        assert_eq!(ns.path_of(notes).unwrap(), "/home/alice/notes.txt");
        // Dropping the secondary link keeps the inode alive.
        ns.unlink(home, "notes-link").unwrap();
        assert!(ns.is_alive(notes));
        assert_eq!(ns.inode(notes).unwrap().nlink, 1);
        // Dropping the last link kills it.
        ns.unlink(alice, "notes.txt").unwrap();
        assert!(!ns.is_alive(notes));
    }

    #[test]
    fn unlinking_primary_promotes_secondary() {
        let (mut ns, home, alice, notes) = sample();
        ns.link(notes, home, "notes-link").unwrap();
        ns.unlink(alice, "notes.txt").unwrap();
        assert!(ns.is_alive(notes));
        assert_eq!(ns.path_of(notes).unwrap(), "/home/notes-link");
        assert_eq!(ns.inode(notes).unwrap().nlink, 1);
    }

    #[test]
    fn directory_hard_links_rejected() {
        let (mut ns, home, alice, _) = sample();
        assert_eq!(ns.link(alice, home, "alias"), Err(NamespaceError::IsADirectory));
    }

    #[test]
    fn chmod_masks_mode() {
        let (mut ns, _, _, notes) = sample();
        ns.chmod(notes, 0o7777).unwrap();
        assert_eq!(ns.inode(notes).unwrap().perm.mode, 0o777);
    }

    #[test]
    fn subtree_count_counts_inclusively() {
        let (ns, home, alice, _) = sample();
        assert_eq!(ns.subtree_count(alice).unwrap(), 2);
        assert_eq!(ns.subtree_count(home).unwrap(), 3);
        assert_eq!(ns.subtree_count(ns.root()).unwrap(), 4);
    }

    #[test]
    fn walk_is_preorder_name_ordered() {
        let (mut ns, home, _, _) = sample();
        ns.mkdir(home, "bob", perm()).unwrap();
        let order: Vec<String> = ns.walk(ns.root()).map(|id| ns.path_of(id).unwrap()).collect();
        assert_eq!(order, vec!["/", "/home", "/home/alice", "/home/alice/notes.txt", "/home/bob"]);
    }

    #[test]
    fn walk_of_dead_node_is_empty() {
        let (mut ns, _, alice, notes) = sample();
        ns.unlink(alice, "notes.txt").unwrap();
        assert_eq!(ns.walk(notes).count(), 0);
    }

    #[test]
    fn live_ids_skip_tombstones() {
        let (mut ns, _, alice, notes) = sample();
        ns.unlink(alice, "notes.txt").unwrap();
        assert!(!ns.live_ids().any(|id| id == notes));
        assert_eq!(ns.live_ids().count(), 3);
    }

    #[test]
    fn children_iterate_in_name_order() {
        let mut ns = Namespace::new();
        for name in ["zeta", "alpha", "mid"] {
            ns.create_file(ns.root(), name, perm()).unwrap();
        }
        let names: Vec<&str> = ns.children(ns.root()).unwrap().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        for (i, (name, id)) in ns.children(ns.root()).unwrap().enumerate() {
            let (sym, at) = ns.child_at(ns.root(), i).unwrap();
            assert_eq!((ns.resolve_sym(sym), at), (name, id));
        }
    }

    #[test]
    fn ids_are_never_reused() {
        let mut ns = Namespace::new();
        let a = ns.create_file(ns.root(), "a", perm()).unwrap();
        ns.unlink(ns.root(), "a").unwrap();
        let b = ns.create_file(ns.root(), "a", perm()).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn update_inode_writes_back_mutable_fields() {
        let (mut ns, _, _, notes) = sample();
        let r = ns
            .update_inode(notes, |ino| {
                ino.size = 1234;
                ino.mtime_us = 99;
                ino.perm = Permissions { uid: 7, mode: 0o640 };
                ino.size
            })
            .unwrap();
        assert_eq!(r, 1234);
        let ino = ns.inode(notes).unwrap();
        assert_eq!(ino.size, 1234);
        assert_eq!(ino.mtime_us, 99);
        assert_eq!(ino.perm, Permissions { uid: 7, mode: 0o640 });
        assert_eq!(ns.update_inode(InodeId(9999), |_| ()), Err(NamespaceError::NotFound));
    }

    #[test]
    fn name_syms_are_shared_and_resolvable() {
        let (mut ns, home, alice, notes) = sample();
        let other = ns.create_file(home, "notes.txt", perm()).unwrap();
        // Same name in different directories shares one symbol.
        assert_eq!(ns.name_sym(notes).unwrap(), ns.name_sym(other).unwrap());
        assert_eq!(ns.resolve_sym(ns.name_sym(notes).unwrap()), "notes.txt");
        assert_ne!(ns.name_sym(alice).unwrap(), ns.name_sym(notes).unwrap());
        // children_syms mirrors children, in the same order.
        let by_name: Vec<InodeId> = ns.children(home).unwrap().map(|(_, c)| c).collect();
        let by_sym: Vec<InodeId> = ns.children_syms(home).unwrap().map(|(_, c)| c).collect();
        assert_eq!(by_name, by_sym);
        let syms: Vec<&str> =
            ns.children_syms(home).unwrap().map(|(s, _)| ns.resolve_sym(s)).collect::<Vec<_>>();
        assert_eq!(syms, vec!["alice", "notes.txt"]);
    }

    #[test]
    fn visit_path_matches_path_of() {
        let (mut ns, home, alice, notes) = sample();
        for id in [ns.root(), home, alice, notes] {
            let mut joined = String::new();
            let n = ns
                .visit_path(id, |c| {
                    joined.push('/');
                    joined.push_str(c);
                })
                .unwrap();
            if n == 0 {
                joined.push('/');
            }
            assert_eq!(joined, ns.path_of(id).unwrap());
            assert_eq!(n, ns.depth(id).unwrap());
        }
        // Deep chain exercises the spill path past the inline buffer.
        let mut cur = alice;
        for d in 0..40 {
            cur = ns.mkdir(cur, &format!("deep{d:02}"), perm()).unwrap();
        }
        let mut joined = String::new();
        let n = ns
            .visit_path(cur, |c| {
                joined.push('/');
                joined.push_str(c);
            })
            .unwrap();
        assert_eq!(n, 42);
        assert_eq!(joined, ns.path_of(cur).unwrap());
        assert!(ns.visit_path(InodeId(99999), |_| ()).is_err());
    }

    #[test]
    fn heap_bytes_is_compact() {
        let mut ns = Namespace::new();
        for d in 0..100 {
            let dir = ns.mkdir(ns.root(), &format!("d{d:03}"), perm()).unwrap();
            for f in 0..20 {
                ns.create_file(dir, &format!("f{f:03}"), perm()).unwrap();
            }
        }
        let grown = ns.heap_bytes();
        ns.shrink_to_fit();
        let shrunk = ns.heap_bytes();
        assert!(shrunk <= grown);
        let per_inode = shrunk as f64 / ns.total_items() as f64;
        assert!(per_inode < 64.0, "expected ≤64 B/inode, got {per_inode:.1}");
        assert!(per_inode > 8.0, "accounting is not free: {per_inode:.1}");
    }

    #[test]
    fn validate_accepts_generated_trees() {
        for seed in 0..5 {
            let snap = crate::NamespaceSpec { users: 4, seed, ..Default::default() }.generate();
            snap.ns.validate().expect("generated trees are sound");
        }
    }
}
