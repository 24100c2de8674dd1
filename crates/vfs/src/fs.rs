//! The inode table and all filesystem operations.

use crate::attr::{FileAttr, FileKind, SetAttrs};
use crate::error::{VfsError, VfsResult};
use crate::extents::Extents;
use crate::{access, Ino, UserContext};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The root directory's inode number.
pub const ROOT_INO: Ino = 1;

/// Maximum file name length (POSIX NAME_MAX).
const NAME_MAX: usize = 255;

/// One directory entry as returned by `readdir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry inode.
    pub ino: Ino,
    /// Entry name.
    pub name: String,
    /// Entry type.
    pub kind: FileKind,
    /// Opaque position cookie for resumable READDIR.
    pub cookie: u64,
}

enum Content {
    Regular(Extents),
    Dir { entries: BTreeMap<String, Ino>, parent: Ino },
    Symlink(String),
}

struct Node {
    attr: FileAttr,
    content: Content,
}

struct Inner {
    nodes: HashMap<Ino, Node>,
    next_ino: Ino,
}

/// The in-memory filesystem.
pub struct Vfs {
    inner: RwLock<Inner>,
    origin: Instant,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// A fresh filesystem containing only a root directory owned by root
    /// with mode 0755.
    pub fn new() -> Self {
        let origin = Instant::now();
        let root = Node {
            attr: FileAttr {
                ino: ROOT_INO,
                kind: FileKind::Directory,
                mode: 0o755,
                uid: 0,
                gid: 0,
                size: 0,
                nlink: 2,
                atime: 0,
                mtime: 0,
                ctime: 0,
            },
            content: Content::Dir { entries: BTreeMap::new(), parent: ROOT_INO },
        };
        let mut nodes = HashMap::new();
        nodes.insert(ROOT_INO, root);
        Self { inner: RwLock::new(Inner { nodes, next_ino: ROOT_INO + 1 }), origin }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    // ---- internal helpers (called with the lock held) ---------------------

    fn node(inner: &Inner, ino: Ino) -> VfsResult<&Node> {
        inner.nodes.get(&ino).ok_or(VfsError::Stale)
    }

    fn node_mut(inner: &mut Inner, ino: Ino) -> VfsResult<&mut Node> {
        inner.nodes.get_mut(&ino).ok_or(VfsError::Stale)
    }

    fn dir_entries(node: &Node) -> VfsResult<(&BTreeMap<String, Ino>, Ino)> {
        match &node.content {
            Content::Dir { entries, parent } => Ok((entries, *parent)),
            _ => Err(VfsError::NotDir),
        }
    }

    /// Whether `name` may name an entry: not empty, `.`, `..`, a path or
    /// longer than `NAME_MAX` bytes.
    pub fn check_name(name: &str) -> VfsResult<()> {
        if name.is_empty() || name == "." || name == ".." || name.contains('/') {
            return Err(VfsError::Inval);
        }
        if name.len() > NAME_MAX {
            return Err(VfsError::NameTooLong);
        }
        Ok(())
    }

    /// Permission to search (x) a directory.
    fn check_exec_dir(node: &Node, ctx: &UserContext) -> VfsResult<()> {
        if node.attr.kind != FileKind::Directory {
            return Err(VfsError::NotDir);
        }
        if !node.attr.permits(ctx.uid, &ctx.gids, 1) {
            return Err(VfsError::Access);
        }
        Ok(())
    }

    /// Permission to modify (w+x) a directory.
    fn check_write_dir(node: &Node, ctx: &UserContext) -> VfsResult<()> {
        Self::check_exec_dir(node, ctx)?;
        if !node.attr.permits(ctx.uid, &ctx.gids, 2) {
            return Err(VfsError::Access);
        }
        Ok(())
    }

    // ---- lookup & attributes ----------------------------------------------

    /// Look up `name` in directory `dir`.
    pub fn lookup(&self, dir: Ino, name: &str, ctx: &UserContext) -> VfsResult<FileAttr> {
        let inner = self.inner.read();
        let dnode = Self::node(&inner, dir)?;
        Self::check_exec_dir(dnode, ctx)?;
        let (entries, parent) = Self::dir_entries(dnode)?;
        let target = match name {
            "." => dir,
            ".." => parent,
            _ => *entries.get(name).ok_or(VfsError::NotFound)?,
        };
        Ok(Self::node(&inner, target)?.attr.clone())
    }

    /// Get attributes by inode.
    pub fn getattr(&self, ino: Ino) -> VfsResult<FileAttr> {
        Ok(Self::node(&self.inner.read(), ino)?.attr.clone())
    }

    /// Apply a SETATTR request.
    pub fn setattr(&self, ino: Ino, set: &SetAttrs, ctx: &UserContext) -> VfsResult<FileAttr> {
        let now = self.now();
        let mut inner = self.inner.write();
        let node = Self::node_mut(&mut inner, ino)?;
        let is_owner = ctx.uid == 0 || ctx.uid == node.attr.uid;
        if (set.mode.is_some() || set.uid.is_some() || set.gid.is_some()) && !is_owner {
            return Err(VfsError::Access);
        }
        if set.uid.is_some() && ctx.uid != 0 && set.uid != Some(node.attr.uid) {
            return Err(VfsError::Access); // only root may change ownership
        }
        if let Some(size) = set.size {
            if node.attr.kind == FileKind::Directory {
                return Err(VfsError::IsDir);
            }
            if !is_owner && !node.attr.permits(ctx.uid, &ctx.gids, 2) {
                return Err(VfsError::Access);
            }
            match &mut node.content {
                Content::Regular(data) => data.resize(size as usize),
                _ => return Err(VfsError::Inval),
            }
            node.attr.size = size;
            node.attr.mtime = now;
        }
        if let Some(mode) = set.mode {
            node.attr.mode = mode & 0o7777;
        }
        if let Some(uid) = set.uid {
            node.attr.uid = uid;
        }
        if let Some(gid) = set.gid {
            node.attr.gid = gid;
        }
        if let Some(atime) = set.atime {
            node.attr.atime = atime;
        }
        if let Some(mtime) = set.mtime {
            node.attr.mtime = mtime;
        }
        node.attr.ctime = now;
        Ok(node.attr.clone())
    }

    /// NFSv3-style ACCESS: which of the requested mask bits are granted.
    pub fn access(&self, ino: Ino, ctx: &UserContext, mask: u32) -> VfsResult<u32> {
        let inner = self.inner.read();
        let node = Self::node(&inner, ino)?;
        let a = &node.attr;
        let mut granted = 0;
        if a.permits(ctx.uid, &ctx.gids, 4) {
            granted |= access::READ;
        }
        if a.permits(ctx.uid, &ctx.gids, 2) {
            granted |= access::MODIFY | access::EXTEND | access::DELETE;
        }
        if a.permits(ctx.uid, &ctx.gids, 1) {
            granted |= access::EXECUTE | access::LOOKUP;
        }
        Ok(granted & mask)
    }

    // ---- data ---------------------------------------------------------------

    /// Read up to `count` bytes at `offset`; returns the data and EOF flag.
    pub fn read(&self, ino: Ino, offset: u64, count: u32, ctx: &UserContext) -> VfsResult<(Vec<u8>, bool)> {
        self.read_range(ino, offset, count, ctx, |data, start, end| {
            (data.gather(start, end), end == data.len())
        })
    }

    /// Like [`read`](Self::read), but hands the bytes to `f` in place —
    /// under the file system's read lock, so `f` must not call back into
    /// it — instead of copying them out. Only a range that crosses an
    /// extent boundary is gathered into a buffer first.
    pub fn read_with<R>(
        &self,
        ino: Ino,
        offset: u64,
        count: u32,
        ctx: &UserContext,
        f: impl FnOnce(&[u8], bool) -> R,
    ) -> VfsResult<R> {
        self.read_range(ino, offset, count, ctx, |data, start, end| {
            let eof = end == data.len();
            match data.slice(start, end) {
                Some(bytes) => f(bytes, eof),
                None => f(&data.gather(start, end), eof),
            }
        })
    }

    /// The bytes of regular file `ino` and the range `[start, end)` a
    /// READ of `count` at `offset` covers, clamped to the file, handed to
    /// `f` under the read lock.
    fn read_range<R>(
        &self,
        ino: Ino,
        offset: u64,
        count: u32,
        ctx: &UserContext,
        f: impl FnOnce(&Extents, usize, usize) -> R,
    ) -> VfsResult<R> {
        let inner = self.inner.read();
        let node = Self::node(&inner, ino)?;
        if !node.attr.permits(ctx.uid, &ctx.gids, 4) {
            return Err(VfsError::Access);
        }
        let data = match &node.content {
            Content::Regular(d) => d,
            Content::Dir { .. } => return Err(VfsError::IsDir),
            Content::Symlink(_) => return Err(VfsError::Inval),
        };
        let start = (offset as usize).min(data.len());
        let end = (start + count as usize).min(data.len());
        Ok(f(data, start, end))
    }

    /// Write `data` at `offset`, growing (and zero-filling) as needed.
    pub fn write(&self, ino: Ino, offset: u64, data: &[u8], ctx: &UserContext) -> VfsResult<FileAttr> {
        let now = self.now();
        let mut inner = self.inner.write();
        let node = Self::node_mut(&mut inner, ino)?;
        if !node.attr.permits(ctx.uid, &ctx.gids, 2) {
            return Err(VfsError::Access);
        }
        let buf = match &mut node.content {
            Content::Regular(d) => d,
            Content::Dir { .. } => return Err(VfsError::IsDir),
            Content::Symlink(_) => return Err(VfsError::Inval),
        };
        buf.write(offset as usize, data);
        node.attr.size = buf.len() as u64;
        node.attr.mtime = now;
        node.attr.ctime = now;
        Ok(node.attr.clone())
    }

    // ---- namespace ------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn insert_child(
        &self,
        inner: &mut Inner,
        dir: Ino,
        name: &str,
        kind: FileKind,
        mode: u32,
        ctx: &UserContext,
        content: Content,
    ) -> VfsResult<FileAttr> {
        Self::check_name(name)?;
        let now = self.now();
        {
            let dnode = Self::node(inner, dir)?;
            Self::check_write_dir(dnode, ctx)?;
            let (entries, _) = Self::dir_entries(dnode)?;
            if entries.contains_key(name) {
                return Err(VfsError::Exists);
            }
        }
        let ino = inner.next_ino;
        inner.next_ino += 1;
        let size = match &content {
            Content::Regular(d) => d.len() as u64,
            Content::Symlink(t) => t.len() as u64,
            Content::Dir { .. } => 0,
        };
        let attr = FileAttr {
            ino,
            kind,
            mode: mode & 0o7777,
            uid: ctx.uid,
            gid: ctx.gid(),
            size,
            nlink: if kind == FileKind::Directory { 2 } else { 1 },
            atime: now,
            mtime: now,
            ctime: now,
        };
        inner.nodes.insert(ino, Node { attr: attr.clone(), content });
        let dnode = Self::node_mut(inner, dir)?;
        if let Content::Dir { entries, .. } = &mut dnode.content {
            entries.insert(name.to_string(), ino);
            dnode.attr.size = entries.len() as u64 * 32;
        }
        dnode.attr.mtime = now;
        dnode.attr.ctime = now;
        if kind == FileKind::Directory {
            dnode.attr.nlink += 1;
        }
        Ok(attr)
    }

    /// Create a regular file. `exclusive` makes an existing entry an error;
    /// otherwise an existing regular file is returned (open-style create).
    pub fn create(
        &self,
        dir: Ino,
        name: &str,
        mode: u32,
        exclusive: bool,
        ctx: &UserContext,
    ) -> VfsResult<FileAttr> {
        {
            let inner = self.inner.read();
            let dnode = Self::node(&inner, dir)?;
            let (entries, _) = Self::dir_entries(dnode)?;
            if let Some(&existing) = entries.get(name) {
                if exclusive {
                    return Err(VfsError::Exists);
                }
                let node = Self::node(&inner, existing)?;
                if node.attr.kind != FileKind::Regular {
                    return Err(VfsError::Exists);
                }
                return Ok(node.attr.clone());
            }
        }
        let mut inner = self.inner.write();
        let content = Content::Regular(Extents::default());
        match self.insert_child(&mut inner, dir, name, FileKind::Regular, mode, ctx, content) {
            Err(VfsError::Exists) if !exclusive => {
                // Raced with another creator; return the existing file.
                let dnode = Self::node(&inner, dir)?;
                let (entries, _) = Self::dir_entries(dnode)?;
                let ino = *entries.get(name).ok_or(VfsError::NotFound)?;
                Ok(Self::node(&inner, ino)?.attr.clone())
            }
            other => other,
        }
    }

    /// Create a directory.
    pub fn mkdir(&self, dir: Ino, name: &str, mode: u32, ctx: &UserContext) -> VfsResult<FileAttr> {
        let mut inner = self.inner.write();
        self.insert_child(
            &mut inner,
            dir,
            name,
            FileKind::Directory,
            mode,
            ctx,
            Content::Dir { entries: BTreeMap::new(), parent: dir },
        )
    }

    /// Create a symbolic link to `target`.
    pub fn symlink(&self, dir: Ino, name: &str, target: &str, ctx: &UserContext) -> VfsResult<FileAttr> {
        let mut inner = self.inner.write();
        self.insert_child(
            &mut inner,
            dir,
            name,
            FileKind::Symlink,
            0o777,
            ctx,
            Content::Symlink(target.to_string()),
        )
    }

    /// Read a symlink's target.
    pub fn readlink(&self, ino: Ino) -> VfsResult<String> {
        let inner = self.inner.read();
        match &Self::node(&inner, ino)?.content {
            Content::Symlink(t) => Ok(t.clone()),
            _ => Err(VfsError::Inval),
        }
    }

    /// Create a hard link to `ino` named `name` in `dir`.
    pub fn link(&self, ino: Ino, dir: Ino, name: &str, ctx: &UserContext) -> VfsResult<FileAttr> {
        Self::check_name(name)?;
        let now = self.now();
        let mut inner = self.inner.write();
        if Self::node(&inner, ino)?.attr.kind == FileKind::Directory {
            return Err(VfsError::IsDir);
        }
        {
            let dnode = Self::node(&inner, dir)?;
            Self::check_write_dir(dnode, ctx)?;
            let (entries, _) = Self::dir_entries(dnode)?;
            if entries.contains_key(name) {
                return Err(VfsError::Exists);
            }
        }
        if let Content::Dir { entries, .. } = &mut Self::node_mut(&mut inner, dir)?.content {
            entries.insert(name.to_string(), ino);
        }
        let node = Self::node_mut(&mut inner, ino)?;
        node.attr.nlink += 1;
        node.attr.ctime = now;
        Ok(node.attr.clone())
    }

    /// Remove a non-directory entry.
    pub fn remove(&self, dir: Ino, name: &str, ctx: &UserContext) -> VfsResult<()> {
        Self::check_name(name)?;
        let now = self.now();
        let mut inner = self.inner.write();
        let target = {
            let dnode = Self::node(&inner, dir)?;
            Self::check_write_dir(dnode, ctx)?;
            let (entries, _) = Self::dir_entries(dnode)?;
            *entries.get(name).ok_or(VfsError::NotFound)?
        };
        if Self::node(&inner, target)?.attr.kind == FileKind::Directory {
            return Err(VfsError::IsDir);
        }
        if let Content::Dir { entries, .. } = &mut Self::node_mut(&mut inner, dir)?.content {
            entries.remove(name);
        }
        let dnode = Self::node_mut(&mut inner, dir)?;
        dnode.attr.mtime = now;
        dnode.attr.ctime = now;
        let node = Self::node_mut(&mut inner, target)?;
        node.attr.nlink -= 1;
        node.attr.ctime = now;
        if node.attr.nlink == 0 {
            inner.nodes.remove(&target);
        }
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, dir: Ino, name: &str, ctx: &UserContext) -> VfsResult<()> {
        Self::check_name(name)?;
        let now = self.now();
        let mut inner = self.inner.write();
        let target = {
            let dnode = Self::node(&inner, dir)?;
            Self::check_write_dir(dnode, ctx)?;
            let (entries, _) = Self::dir_entries(dnode)?;
            *entries.get(name).ok_or(VfsError::NotFound)?
        };
        {
            let tnode = Self::node(&inner, target)?;
            let (entries, _) = Self::dir_entries(tnode)?; // NotDir if file
            if !entries.is_empty() {
                return Err(VfsError::NotEmpty);
            }
        }
        if let Content::Dir { entries, .. } = &mut Self::node_mut(&mut inner, dir)?.content {
            entries.remove(name);
        }
        inner.nodes.remove(&target);
        let dnode = Self::node_mut(&mut inner, dir)?;
        dnode.attr.nlink -= 1;
        dnode.attr.mtime = now;
        dnode.attr.ctime = now;
        Ok(())
    }

    /// Rename, with POSIX overwrite semantics.
    pub fn rename(
        &self,
        from_dir: Ino,
        from_name: &str,
        to_dir: Ino,
        to_name: &str,
        ctx: &UserContext,
    ) -> VfsResult<()> {
        Self::check_name(from_name)?;
        Self::check_name(to_name)?;
        let now = self.now();
        let mut inner = self.inner.write();

        let src = {
            let d = Self::node(&inner, from_dir)?;
            Self::check_write_dir(d, ctx)?;
            let (entries, _) = Self::dir_entries(d)?;
            *entries.get(from_name).ok_or(VfsError::NotFound)?
        };
        {
            let d = Self::node(&inner, to_dir)?;
            Self::check_write_dir(d, ctx)?;
        }
        if from_dir == to_dir && from_name == to_name {
            return Ok(());
        }

        let src_kind = Self::node(&inner, src)?.attr.kind;

        // A directory may not be moved into its own subtree.
        if src_kind == FileKind::Directory {
            let mut cursor = to_dir;
            loop {
                if cursor == src {
                    return Err(VfsError::Inval);
                }
                let (_, parent) = Self::dir_entries(Self::node(&inner, cursor)?)?;
                if parent == cursor {
                    break;
                }
                cursor = parent;
            }
        }

        // Handle an existing target.
        let existing = {
            let d = Self::node(&inner, to_dir)?;
            let (entries, _) = Self::dir_entries(d)?;
            entries.get(to_name).copied()
        };
        if let Some(tgt) = existing {
            if tgt == src {
                return Ok(()); // hard links to the same inode
            }
            let tgt_kind = Self::node(&inner, tgt)?.attr.kind;
            match (src_kind, tgt_kind) {
                (FileKind::Directory, FileKind::Directory) => {
                    let (e, _) = Self::dir_entries(Self::node(&inner, tgt)?)?;
                    if !e.is_empty() {
                        return Err(VfsError::NotEmpty);
                    }
                    self_remove_entry(&mut inner, to_dir, to_name);
                    inner.nodes.remove(&tgt);
                    Self::node_mut(&mut inner, to_dir)?.attr.nlink -= 1;
                }
                (FileKind::Directory, _) => return Err(VfsError::NotDir),
                (_, FileKind::Directory) => return Err(VfsError::IsDir),
                _ => {
                    self_remove_entry(&mut inner, to_dir, to_name);
                    let t = Self::node_mut(&mut inner, tgt)?;
                    t.attr.nlink -= 1;
                    if t.attr.nlink == 0 {
                        inner.nodes.remove(&tgt);
                    }
                }
            }
        }

        self_remove_entry(&mut inner, from_dir, from_name);
        if let Content::Dir { entries, .. } = &mut Self::node_mut(&mut inner, to_dir)?.content {
            entries.insert(to_name.to_string(), src);
        }
        if src_kind == FileKind::Directory && from_dir != to_dir {
            Self::node_mut(&mut inner, from_dir)?.attr.nlink -= 1;
            Self::node_mut(&mut inner, to_dir)?.attr.nlink += 1;
            if let Content::Dir { parent, .. } = &mut Self::node_mut(&mut inner, src)?.content {
                *parent = to_dir;
            }
        }
        for d in [from_dir, to_dir] {
            let n = Self::node_mut(&mut inner, d)?;
            n.attr.mtime = now;
            n.attr.ctime = now;
        }
        Self::node_mut(&mut inner, src)?.attr.ctime = now;
        Ok(())
    }

    /// List a directory, including `.` and `..`, with stable cookies.
    pub fn readdir(&self, dir: Ino, ctx: &UserContext) -> VfsResult<Vec<DirEntry>> {
        let inner = self.inner.read();
        let dnode = Self::node(&inner, dir)?;
        if !dnode.attr.permits(ctx.uid, &ctx.gids, 4) {
            return Err(VfsError::Access);
        }
        let (entries, parent) = Self::dir_entries(dnode)?;
        let mut out = Vec::with_capacity(entries.len() + 2);
        out.push(DirEntry { ino: dir, name: ".".into(), kind: FileKind::Directory, cookie: 1 });
        out.push(DirEntry { ino: parent, name: "..".into(), kind: FileKind::Directory, cookie: 2 });
        for (i, (name, &ino)) in entries.iter().enumerate() {
            let kind = Self::node(&inner, ino)?.attr.kind;
            out.push(DirEntry { ino, name: clone_name(name), kind, cookie: 3 + i as u64 });
        }
        Ok(out)
    }

    /// Filesystem statistics: (total bytes stored, file count).
    pub fn statfs(&self) -> (u64, u64) {
        let inner = self.inner.read();
        let bytes = inner
            .nodes
            .values()
            .map(|n| match &n.content {
                Content::Regular(d) => d.len() as u64,
                _ => 0,
            })
            .sum();
        (bytes, inner.nodes.len() as u64)
    }

    /// Resolve a slash-separated absolute path to its attributes,
    /// following no symlinks (test/bootstrap convenience).
    pub fn resolve(&self, path: &str, ctx: &UserContext) -> VfsResult<FileAttr> {
        let mut cur = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup(cur, comp, ctx)?.ino;
        }
        self.getattr(cur)
    }

    /// Create all directories along `path` (mkdir -p), returning the leaf.
    pub fn mkdir_p(&self, path: &str, mode: u32, ctx: &UserContext) -> VfsResult<FileAttr> {
        let mut cur = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = match self.lookup(cur, comp, ctx) {
                Ok(a) if a.kind == FileKind::Directory => a.ino,
                Ok(_) => return Err(VfsError::NotDir),
                Err(VfsError::NotFound) => self.mkdir(cur, comp, mode, ctx)?.ino,
                Err(e) => return Err(e),
            };
        }
        self.getattr(cur)
    }
}

fn clone_name(s: &str) -> String {
    s.to_string()
}

fn self_remove_entry(inner: &mut Inner, dir: Ino, name: &str) {
    if let Some(node) = inner.nodes.get_mut(&dir) {
        if let Content::Dir { entries, .. } = &mut node.content {
            entries.remove(name);
            node.attr.size = entries.len() as u64 * 32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> (Vfs, UserContext) {
        (Vfs::new(), UserContext::root())
    }

    #[test]
    fn create_write_read() {
        let (fs, ctx) = fs();
        let f = fs.create(ROOT_INO, "hello.txt", 0o644, false, &ctx).unwrap();
        fs.write(f.ino, 0, b"hello world", &ctx).unwrap();
        let (data, eof) = fs.read(f.ino, 0, 1024, &ctx).unwrap();
        assert_eq!(data, b"hello world");
        assert!(eof);
        let (data, eof) = fs.read(f.ino, 6, 5, &ctx).unwrap();
        assert_eq!(data, b"world");
        assert!(eof);
        let (data, eof) = fs.read(f.ino, 0, 5, &ctx).unwrap();
        assert_eq!(data, b"hello");
        assert!(!eof);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let (fs, ctx) = fs();
        let f = fs.create(ROOT_INO, "sparse", 0o644, false, &ctx).unwrap();
        fs.write(f.ino, 100, b"end", &ctx).unwrap();
        let attr = fs.getattr(f.ino).unwrap();
        assert_eq!(attr.size, 103);
        let (data, _) = fs.read(f.ino, 0, 100, &ctx).unwrap();
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn mkdir_lookup_readdir() {
        let (fs, ctx) = fs();
        let d = fs.mkdir(ROOT_INO, "sub", 0o755, &ctx).unwrap();
        fs.create(d.ino, "a", 0o644, false, &ctx).unwrap();
        fs.create(d.ino, "b", 0o644, false, &ctx).unwrap();
        let entries = fs.readdir(d.ino, &ctx).unwrap();
        let names: Vec<_> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec![".", "..", "a", "b"]);
        assert_eq!(entries[1].ino, ROOT_INO);
        assert_eq!(fs.lookup(d.ino, "a", &ctx).unwrap().kind, FileKind::Regular);
        assert_eq!(fs.lookup(d.ino, "..", &ctx).unwrap().ino, ROOT_INO);
    }

    #[test]
    fn exclusive_create_conflicts() {
        let (fs, ctx) = fs();
        fs.create(ROOT_INO, "f", 0o644, true, &ctx).unwrap();
        assert_eq!(fs.create(ROOT_INO, "f", 0o644, true, &ctx), Err(VfsError::Exists));
        // Non-exclusive create returns the existing file.
        let again = fs.create(ROOT_INO, "f", 0o644, false, &ctx).unwrap();
        assert_eq!(again.ino, fs.lookup(ROOT_INO, "f", &ctx).unwrap().ino);
    }

    #[test]
    fn remove_and_stale_handles() {
        let (fs, ctx) = fs();
        let f = fs.create(ROOT_INO, "gone", 0o644, false, &ctx).unwrap();
        fs.remove(ROOT_INO, "gone", &ctx).unwrap();
        assert_eq!(fs.getattr(f.ino), Err(VfsError::Stale));
        assert_eq!(fs.lookup(ROOT_INO, "gone", &ctx), Err(VfsError::NotFound));
        assert_eq!(fs.remove(ROOT_INO, "gone", &ctx), Err(VfsError::NotFound));
    }

    #[test]
    fn rmdir_semantics() {
        let (fs, ctx) = fs();
        let d = fs.mkdir(ROOT_INO, "d", 0o755, &ctx).unwrap();
        fs.create(d.ino, "f", 0o644, false, &ctx).unwrap();
        assert_eq!(fs.rmdir(ROOT_INO, "d", &ctx), Err(VfsError::NotEmpty));
        fs.remove(d.ino, "f", &ctx).unwrap();
        fs.rmdir(ROOT_INO, "d", &ctx).unwrap();
        assert_eq!(fs.lookup(ROOT_INO, "d", &ctx), Err(VfsError::NotFound));
        // rmdir on a file is NotDir.
        fs.create(ROOT_INO, "f", 0o644, false, &ctx).unwrap();
        assert_eq!(fs.rmdir(ROOT_INO, "f", &ctx), Err(VfsError::NotDir));
    }

    #[test]
    fn hard_links_share_data() {
        let (fs, ctx) = fs();
        let f = fs.create(ROOT_INO, "orig", 0o644, false, &ctx).unwrap();
        fs.write(f.ino, 0, b"shared", &ctx).unwrap();
        let linked = fs.link(f.ino, ROOT_INO, "alias", &ctx).unwrap();
        assert_eq!(linked.nlink, 2);
        fs.remove(ROOT_INO, "orig", &ctx).unwrap();
        let (data, _) = fs.read(f.ino, 0, 100, &ctx).unwrap();
        assert_eq!(data, b"shared");
        assert_eq!(fs.getattr(f.ino).unwrap().nlink, 1);
        fs.remove(ROOT_INO, "alias", &ctx).unwrap();
        assert_eq!(fs.getattr(f.ino), Err(VfsError::Stale));
    }

    #[test]
    fn symlink_roundtrip() {
        let (fs, ctx) = fs();
        let l = fs.symlink(ROOT_INO, "lnk", "/GFS/data/file", &ctx).unwrap();
        assert_eq!(l.kind, FileKind::Symlink);
        assert_eq!(fs.readlink(l.ino).unwrap(), "/GFS/data/file");
        let f = fs.create(ROOT_INO, "reg", 0o644, false, &ctx).unwrap();
        assert_eq!(fs.readlink(f.ino), Err(VfsError::Inval));
    }

    #[test]
    fn rename_basic_and_overwrite() {
        let (fs, ctx) = fs();
        let f = fs.create(ROOT_INO, "a", 0o644, false, &ctx).unwrap();
        fs.write(f.ino, 0, b"data-a", &ctx).unwrap();
        fs.rename(ROOT_INO, "a", ROOT_INO, "b", &ctx).unwrap();
        assert_eq!(fs.lookup(ROOT_INO, "a", &ctx), Err(VfsError::NotFound));
        assert_eq!(fs.lookup(ROOT_INO, "b", &ctx).unwrap().ino, f.ino);

        // Overwrite an existing file.
        let g = fs.create(ROOT_INO, "c", 0o644, false, &ctx).unwrap();
        fs.rename(ROOT_INO, "b", ROOT_INO, "c", &ctx).unwrap();
        assert_eq!(fs.lookup(ROOT_INO, "c", &ctx).unwrap().ino, f.ino);
        assert_eq!(fs.getattr(g.ino), Err(VfsError::Stale));
    }

    #[test]
    fn rename_dir_into_own_subtree_rejected() {
        let (fs, ctx) = fs();
        let a = fs.mkdir(ROOT_INO, "a", 0o755, &ctx).unwrap();
        let b = fs.mkdir(a.ino, "b", 0o755, &ctx).unwrap();
        assert_eq!(
            fs.rename(ROOT_INO, "a", b.ino, "a2", &ctx),
            Err(VfsError::Inval)
        );
    }

    #[test]
    fn rename_dir_updates_parent() {
        let (fs, ctx) = fs();
        let a = fs.mkdir(ROOT_INO, "a", 0o755, &ctx).unwrap();
        let b = fs.mkdir(ROOT_INO, "b", 0o755, &ctx).unwrap();
        fs.rename(ROOT_INO, "a", b.ino, "a", &ctx).unwrap();
        assert_eq!(fs.lookup(a.ino, "..", &ctx).unwrap().ino, b.ino);
        let entries = fs.readdir(b.ino, &ctx).unwrap();
        assert!(entries.iter().any(|e| e.name == "a"));
    }

    #[test]
    fn permissions_enforced_for_non_root() {
        let (fs, root) = fs();
        let alice = UserContext::new(1000, 1000);
        let f = fs.create(ROOT_INO, "secret", 0o600, false, &root).unwrap();
        fs.write(f.ino, 0, b"root only", &root).unwrap();
        assert_eq!(fs.read(f.ino, 0, 10, &alice), Err(VfsError::Access));
        assert_eq!(fs.write(f.ino, 0, b"x", &alice), Err(VfsError::Access));
        // Root dir is 0755: alice cannot create there.
        assert_eq!(
            fs.create(ROOT_INO, "mine", 0o644, false, &alice),
            Err(VfsError::Access)
        );
        // But can in her own directory.
        let home = fs.mkdir(ROOT_INO, "home", 0o755, &root).unwrap();
        fs.setattr(home.ino, &SetAttrs { uid: Some(1000), gid: Some(1000), ..Default::default() }, &root)
            .unwrap();
        fs.create(home.ino, "mine", 0o644, false, &alice).unwrap();
    }

    #[test]
    fn setattr_ownership_rules() {
        let (fs, root) = fs();
        let alice = UserContext::new(1000, 1000);
        let bob = UserContext::new(2000, 2000);
        let home = fs.mkdir(ROOT_INO, "home", 0o777, &root).unwrap();
        let f = fs.create(home.ino, "f", 0o644, false, &alice).unwrap();
        // Owner can chmod.
        fs.setattr(f.ino, &SetAttrs { mode: Some(0o600), ..Default::default() }, &alice).unwrap();
        // Non-owner cannot.
        assert_eq!(
            fs.setattr(f.ino, &SetAttrs { mode: Some(0o666), ..Default::default() }, &bob),
            Err(VfsError::Access)
        );
        // Only root can chown.
        assert_eq!(
            fs.setattr(f.ino, &SetAttrs { uid: Some(2000), ..Default::default() }, &alice),
            Err(VfsError::Access)
        );
        fs.setattr(f.ino, &SetAttrs { uid: Some(2000), ..Default::default() }, &root).unwrap();
        assert_eq!(fs.getattr(f.ino).unwrap().uid, 2000);
    }

    #[test]
    fn truncate_and_extend() {
        let (fs, ctx) = fs();
        let f = fs.create(ROOT_INO, "t", 0o644, false, &ctx).unwrap();
        fs.write(f.ino, 0, b"0123456789", &ctx).unwrap();
        fs.setattr(f.ino, &SetAttrs { size: Some(4), ..Default::default() }, &ctx).unwrap();
        let (data, eof) = fs.read(f.ino, 0, 100, &ctx).unwrap();
        assert_eq!(data, b"0123");
        assert!(eof);
        fs.setattr(f.ino, &SetAttrs { size: Some(8), ..Default::default() }, &ctx).unwrap();
        let (data, _) = fs.read(f.ino, 0, 100, &ctx).unwrap();
        assert_eq!(data, b"0123\0\0\0\0");
    }

    #[test]
    fn access_mask_mapping() {
        let (fs, root) = fs();
        let alice = UserContext::new(1000, 1000);
        let f = fs.create(ROOT_INO, "f", 0o644, false, &root).unwrap();
        fs.setattr(f.ino, &SetAttrs { uid: Some(1000), ..Default::default() }, &root).unwrap();
        let granted = fs.access(f.ino, &alice, access::ALL).unwrap();
        assert_eq!(granted & access::READ, access::READ);
        assert_eq!(granted & access::MODIFY, access::MODIFY);
        assert_eq!(granted & access::EXECUTE, 0);
    }

    #[test]
    fn mtime_advances_on_write() {
        let (fs, ctx) = fs();
        let f = fs.create(ROOT_INO, "f", 0o644, false, &ctx).unwrap();
        let before = fs.getattr(f.ino).unwrap().mtime;
        std::thread::sleep(std::time::Duration::from_millis(2));
        fs.write(f.ino, 0, b"x", &ctx).unwrap();
        assert!(fs.getattr(f.ino).unwrap().mtime > before);
    }

    #[test]
    fn resolve_and_mkdir_p() {
        let (fs, ctx) = fs();
        fs.mkdir_p("/GFS/export/data", 0o755, &ctx).unwrap();
        let a = fs.resolve("/GFS/export", &ctx).unwrap();
        assert_eq!(a.kind, FileKind::Directory);
        // Idempotent.
        fs.mkdir_p("/GFS/export/data", 0o755, &ctx).unwrap();
        assert!(fs.resolve("/GFS/missing", &ctx).is_err());
    }

    #[test]
    fn bad_names_rejected() {
        let (fs, ctx) = fs();
        for bad in ["", ".", "..", "a/b"] {
            assert!(fs.create(ROOT_INO, bad, 0o644, false, &ctx).is_err(), "{bad:?}");
        }
        let long = "x".repeat(256);
        assert_eq!(
            fs.create(ROOT_INO, &long, 0o644, false, &ctx),
            Err(VfsError::NameTooLong)
        );
    }

    #[test]
    fn statfs_counts() {
        let (fs, ctx) = fs();
        let f = fs.create(ROOT_INO, "f", 0o644, false, &ctx).unwrap();
        fs.write(f.ino, 0, &vec![0u8; 1000], &ctx).unwrap();
        let (bytes, files) = fs.statfs();
        assert_eq!(bytes, 1000);
        assert_eq!(files, 2); // root + f
    }
}
