//! An in-memory POSIX-style filesystem — the storage the NFS server exports.
//!
//! The paper's server preloads benchmark files into memory so no physical
//! disk I/O pollutes the measurements; an in-memory filesystem is therefore
//! the faithful substrate for the exported `/GFS` tree. It implements the
//! full inode model NFSv3 needs: regular files, directories, symlinks,
//! hard links, UNIX permissions, uid/gid ownership, timestamps, and
//! sparse-file semantics (writes beyond EOF zero-fill, which the Seismic
//! workload relies on).
//!
//! Thread safety: one big `RwLock` around the inode table. The NFS server
//! serializes per connection anyway, and the paper's experiments are
//! single-client, so lock contention is not on any measured path.

mod attr;
mod error;
mod extents;
mod fs;

pub use attr::{FileAttr, FileKind, SetAttrs};
pub use error::{VfsError, VfsResult};
pub use fs::{DirEntry, Vfs, ROOT_INO};

/// Inode number.
pub type Ino = u64;

/// Identity a filesystem operation runs as (after any proxy mapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserContext {
    /// Effective uid.
    pub uid: u32,
    /// Effective gid plus supplementary groups.
    pub gids: Vec<u32>,
}

impl UserContext {
    /// A context with a single group.
    pub fn new(uid: u32, gid: u32) -> Self {
        Self { uid, gids: vec![gid] }
    }

    /// The superuser (bypasses permission checks, as in UNIX).
    pub fn root() -> Self {
        Self::new(0, 0)
    }

    /// Primary gid.
    pub fn gid(&self) -> u32 {
        self.gids.first().copied().unwrap_or(u32::MAX)
    }
}

/// Access mask bits, NFSv3 ACCESS-compatible.
pub mod access {
    /// Read file data / read directory.
    pub const READ: u32 = 0x01;
    /// Lookup names in a directory.
    pub const LOOKUP: u32 = 0x02;
    /// Modify file data / directory contents.
    pub const MODIFY: u32 = 0x04;
    /// Extend a file / add directory entries.
    pub const EXTEND: u32 = 0x08;
    /// Delete directory entries.
    pub const DELETE: u32 = 0x10;
    /// Execute file / traverse directory.
    pub const EXECUTE: u32 = 0x20;
    /// All bits.
    pub const ALL: u32 = 0x3f;
}
