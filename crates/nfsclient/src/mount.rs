//! The mounted filesystem: POSIX-style API over NFSv3 RPCs with caching.

use crate::cache::{AttrCache, PageCache};
use crate::{FsError, FsResult};
use sgfs_nfs3::{Fattr3, Fh3, FType3, Nfs3Client, Nfs3Error, NfsStat3, Sattr3, StableHow};
use sgfs_net::SimClock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Mount-time options, mirroring the relevant `mount -o` knobs.
#[derive(Clone)]
pub struct MountOptions {
    /// Read/write transfer size (the paper uses 32 KB).
    pub block_size: usize,
    /// Attribute cache minimum timeout (Linux default 3 s).
    pub ac_min: Duration,
    /// Attribute cache maximum timeout (Linux default 60 s).
    pub ac_max: Duration,
    /// Memory buffer-cache capacity in bytes (the paper's client VM has
    /// 256 MB; IOzone sizes its file at 2× this).
    pub mem_cache_bytes: usize,
    /// Close-to-open consistency: revalidate on open, flush on close.
    pub cto: bool,
    /// The testbed clock (cache timeouts run on simulated time).
    pub clock: Arc<SimClock>,
}

impl MountOptions {
    /// Defaults matching the paper's experimental setup, on `clock`.
    pub fn new(clock: Arc<SimClock>) -> Self {
        Self {
            block_size: 32 * 1024,
            ac_min: Duration::from_secs(3),
            ac_max: Duration::from_secs(60),
            mem_cache_bytes: 256 * 1024 * 1024,
            cto: true,
            clock,
        }
    }

    /// Shrink the memory cache (used by scaled-down benchmark runs).
    pub fn with_mem_cache(mut self, bytes: usize) -> Self {
        self.mem_cache_bytes = bytes;
        self
    }
}

/// Open-file flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create if absent.
    pub create: bool,
    /// Truncate to zero on open.
    pub truncate: bool,
    /// With `create`: fail if the file exists.
    pub exclusive: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn rdonly() -> Self {
        Self { read: true, ..Default::default() }
    }

    /// `O_RDWR`.
    pub fn rdwr() -> Self {
        Self { read: true, write: true, ..Default::default() }
    }

    /// `O_WRONLY|O_CREAT|O_TRUNC` — the common "write a file" open.
    pub fn create_truncate() -> Self {
        Self { read: false, write: true, create: true, truncate: true, exclusive: false }
    }
}

/// A file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(u64);

struct OpenFile {
    fh: Fh3,
    flags: OpenFlags,
    offset: u64,
    /// Locally known size (authoritative while we hold dirty pages).
    size: u64,
}

/// Per-procedure RPC counters — the evaluation harness reads these.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// GETATTR calls.
    pub getattr: u64,
    /// LOOKUP calls.
    pub lookup: u64,
    /// ACCESS calls.
    pub access: u64,
    /// READ calls.
    pub read: u64,
    /// WRITE calls.
    pub write: u64,
    /// Other calls (create/remove/readdir/commit/...).
    pub other: u64,
}

impl OpStats {
    /// Total RPCs issued.
    pub fn total(&self) -> u64 {
        self.getattr + self.lookup + self.access + self.read + self.write + self.other
    }
}

struct DnlcEntry {
    fh: Fh3,
    /// Parent directory mtime when this entry was learned; a refetch of
    /// the parent with a different mtime invalidates the entry.
    parent_mtime: u64,
}

/// A mounted NFS filesystem with kernel-client caching semantics.
pub struct NfsMount {
    nfs: Nfs3Client,
    root: Fh3,
    opts: MountOptions,
    attrs: AttrCache,
    pages: PageCache,
    /// Name lookup cache: (parent, name) → entry.
    dnlc: HashMap<(Fh3, String), DnlcEntry>,
    open_files: HashMap<Fd, OpenFile>,
    next_fd: u64,
    stats: OpStats,
}

impl NfsMount {
    /// Mount: wrap an NFS client bound to `root`.
    pub fn new(nfs: Nfs3Client, root: Fh3, opts: MountOptions) -> Self {
        let attrs = AttrCache::new(opts.ac_min, opts.ac_max);
        let pages = PageCache::new(opts.mem_cache_bytes, opts.block_size);
        Self {
            nfs,
            root,
            opts,
            attrs,
            pages,
            dnlc: HashMap::new(),
            open_files: HashMap::new(),
            next_fd: 3,
            stats: OpStats::default(),
        }
    }

    /// The root file handle.
    pub fn root(&self) -> &Fh3 {
        &self.root
    }

    /// The NFS client under the mount, for calls no system call here
    /// makes (an EXCLUSIVE CREATE). Its calls bypass the mount's caches.
    pub fn nfs(&mut self) -> &mut Nfs3Client {
        &mut self.nfs
    }

    /// RPC counters so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Page-cache hit/miss counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.pages.stats()
    }

    fn now(&self) -> Duration {
        self.opts.clock.now()
    }

    // ---- attribute handling -------------------------------------------------

    fn note_attr(&mut self, fh: &Fh3, attr: &Fattr3) {
        let now = self.now();
        if self.attrs.update(fh, attr, now) {
            // mtime/size changed behind our back: cached pages are stale.
            self.pages.invalidate_file(fh);
        }
    }

    /// Fresh attributes, fetching if the cache entry expired.
    fn revalidate(&mut self, fh: &Fh3) -> FsResult<Fattr3> {
        let now = self.now();
        if let Some(a) = self.attrs.get(fh, now) {
            return Ok(a.clone());
        }
        self.stats.getattr += 1;
        let attr = self.nfs.getattr(fh)?;
        self.note_attr(fh, &attr);
        Ok(attr)
    }

    /// Force a server round trip regardless of cache freshness
    /// (close-to-open open check).
    fn revalidate_forced(&mut self, fh: &Fh3) -> FsResult<Fattr3> {
        self.stats.getattr += 1;
        let attr = self.nfs.getattr(fh)?;
        self.note_attr(fh, &attr);
        Ok(attr)
    }

    // ---- path resolution ------------------------------------------------------

    fn lookup_component(&mut self, dir: &Fh3, name: &str) -> FsResult<Fh3> {
        // DNLC hit is valid only while the parent's attributes are fresh
        // and its mtime matches what the entry was learned under.
        let now = self.now();
        let parent_fresh_mtime =
            self.attrs.get(dir, now).map(|a| a.mtime.as_nanos());
        if let Some(entry) = self.dnlc.get(&(dir.clone(), name.to_string())) {
            if parent_fresh_mtime == Some(entry.parent_mtime) {
                return Ok(entry.fh.clone());
            }
        }
        self.stats.lookup += 1;
        let (fh, obj_attr) = self.nfs.lookup(dir, name)?;
        if let Some(a) = obj_attr {
            self.note_attr(&fh, &a);
        }
        // Learn/refresh the parent's mtime for the dnlc entry.
        let parent_mtime = match self.attrs.get(dir, self.now()) {
            Some(a) => a.mtime.as_nanos(),
            None => {
                let a = self.revalidate(dir)?;
                a.mtime.as_nanos()
            }
        };
        self.dnlc
            .insert((dir.clone(), name.to_string()), DnlcEntry { fh: fh.clone(), parent_mtime });
        Ok(fh)
    }

    /// Resolve an absolute path to `(parent_fh, leaf_name, leaf_fh?)`.
    fn resolve_parent(&mut self, path: &str) -> FsResult<(Fh3, String)> {
        let mut parts: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        let leaf = parts
            .pop()
            .ok_or_else(|| FsError::Usage(format!("path {path:?} has no leaf")))?;
        let mut cur = self.root.clone();
        for comp in parts {
            cur = self.lookup_component(&cur, comp)?;
        }
        Ok((cur, leaf.to_string()))
    }

    /// Resolve an absolute path fully.
    fn resolve(&mut self, path: &str) -> FsResult<Fh3> {
        let mut cur = self.root.clone();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup_component(&cur, comp)?;
        }
        Ok(cur)
    }

    fn invalidate_name(&mut self, dir: &Fh3, name: &str) {
        self.dnlc.remove(&(dir.clone(), name.to_string()));
        self.attrs.invalidate(dir);
    }

    // ---- public API --------------------------------------------------------------

    /// `stat(2)`.
    pub fn stat(&mut self, path: &str) -> FsResult<Fattr3> {
        let fh = self.resolve(path)?;
        self.revalidate(&fh)
    }

    /// `open(2)`.
    pub fn open(&mut self, path: &str, flags: OpenFlags, mode: u32) -> FsResult<Fd> {
        let (parent, leaf) = self.resolve_parent(path)?;
        let fh = match self.lookup_component(&parent, &leaf) {
            Ok(fh) => {
                if flags.create && flags.exclusive {
                    return Err(FsError::Nfs(Nfs3Error::Status(NfsStat3::Exist)));
                }
                fh
            }
            Err(FsError::Nfs(Nfs3Error::Status(NfsStat3::NoEnt))) if flags.create => {
                self.stats.other += 1;
                let (fh, attr) = self.nfs.create(
                    &parent,
                    &leaf,
                    Sattr3 { mode: Some(mode), ..Default::default() },
                )?;
                if let Some(a) = attr {
                    self.note_attr(&fh, &a);
                }
                self.invalidate_name(&parent, &leaf);
                fh
            }
            Err(e) => return Err(e),
        };

        // Close-to-open: a real GETATTR on every open.
        let attr = if self.opts.cto {
            self.revalidate_forced(&fh)?
        } else {
            self.revalidate(&fh)?
        };
        if attr.ftype == FType3::Dir {
            return Err(FsError::Nfs(Nfs3Error::Status(NfsStat3::IsDir)));
        }
        let mut size = attr.size;
        if flags.truncate && flags.write && size > 0 {
            self.stats.other += 1;
            self.nfs.setattr(&fh, &Sattr3 { size: Some(0), ..Default::default() })?;
            self.pages.invalidate_file(&fh);
            self.attrs.invalidate(&fh);
            size = 0;
        }
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.open_files.insert(fd, OpenFile { fh, flags, offset: 0, size });
        Ok(fd)
    }

    fn file(&self, fd: Fd) -> FsResult<&OpenFile> {
        self.open_files.get(&fd).ok_or_else(|| FsError::Usage(format!("bad fd {fd:?}")))
    }

    /// `lseek(2)` (absolute).
    pub fn seek(&mut self, fd: Fd, offset: u64) -> FsResult<()> {
        self.open_files
            .get_mut(&fd)
            .ok_or_else(|| FsError::Usage(format!("bad fd {fd:?}")))?
            .offset = offset;
        Ok(())
    }

    /// Sequential `read(2)` at the fd offset.
    pub fn read(&mut self, fd: Fd, len: usize) -> FsResult<Vec<u8>> {
        let offset = self.file(fd)?.offset;
        let data = self.pread(fd, offset, len)?;
        self.open_files.get_mut(&fd).expect("checked").offset += data.len() as u64;
        Ok(data)
    }

    /// Positional read.
    pub fn pread(&mut self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let (fh, flags, fsize) = {
            let f = self.file(fd)?;
            (f.fh.clone(), f.flags, f.size)
        };
        if !flags.read {
            return Err(FsError::Usage("fd not open for reading".into()));
        }
        // Dirty files: our local size is authoritative; clean files:
        // revalidate attributes when expired.
        let size = if self.pages.has_dirty(&fh) {
            fsize
        } else {
            let attr = self.revalidate(&fh)?;
            self.open_files.get_mut(&fd).expect("checked").size = attr.size;
            attr.size
        };
        if offset >= size {
            return Ok(Vec::new());
        }
        let len = len.min((size - offset) as usize);
        let ps = self.pages.page_size() as u64;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let page_idx = pos / ps;
            let page_off = (pos % ps) as usize;
            if self.pages.get(&fh, page_idx).is_none() {
                self.stats.read += 1;
                let res = self.nfs.read(&fh, page_idx * ps, ps as u32)?;
                if let Some(a) = &res.attr {
                    let now = self.now();
                    self.attrs.update(&fh, a, now);
                }
                // The fetched page moves into the cache and is read from
                // there, like a hit.
                for (wfh, widx, wdata) in self.pages.insert(&fh, page_idx, res.data, false) {
                    self.writeback(&wfh, widx, wdata)?;
                }
            }
            let page = self
                .pages
                .peek(&fh, page_idx)
                .expect("a page just hit or inserted is resident: eviction spares the newest");
            let take = ((end - pos) as usize).min(page.len().saturating_sub(page_off));
            if take == 0 {
                break; // short page: EOF inside this page
            }
            out.extend_from_slice(&page[page_off..page_off + take]);
            pos += take as u64;
        }
        Ok(out)
    }

    /// Sequential `write(2)` at the fd offset.
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        let offset = self.file(fd)?.offset;
        let n = self.pwrite(fd, offset, data)?;
        self.open_files.get_mut(&fd).expect("checked").offset += n as u64;
        Ok(n)
    }

    /// Positional write into the write-back cache.
    pub fn pwrite(&mut self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        let (fh, flags, fsize) = {
            let f = self.file(fd)?;
            (f.fh.clone(), f.flags, f.size)
        };
        if !flags.write {
            return Err(FsError::Usage("fd not open for writing".into()));
        }
        let ps = self.pages.page_size() as u64;
        let mut pos = offset;
        let end = offset + data.len() as u64;
        while pos < end {
            let page_idx = pos / ps;
            let page_off = (pos % ps) as usize;
            let take = ((end - pos) as usize).min(ps as usize - page_off);
            let chunk = &data[(pos - offset) as usize..(pos - offset) as usize + take];

            if !self.pages.write_into(&fh, page_idx, page_off, chunk) {
                // Page not resident. Full-page or append-beyond-EOF writes
                // need no fetch; interior partial writes read-modify-write.
                let page_start = page_idx * ps;
                let base: Vec<u8> = if (page_off == 0 && take == ps as usize)
                    || page_start >= fsize
                {
                    Vec::new() // fully overwritten below / zero-fill beyond EOF
                } else {
                    self.stats.read += 1;
                    let res = self.nfs.read(&fh, page_start, ps as u32)?;
                    res.data
                };
                // Only a hole in front of the write is zero-filled: the
                // chunk overwrites what the page has and extends the rest.
                let mut page = base;
                if page.len() < page_off {
                    page.resize(page_off, 0);
                }
                let overlap = (page.len() - page_off).min(take);
                page[page_off..page_off + overlap].copy_from_slice(&chunk[..overlap]);
                page.extend_from_slice(&chunk[overlap..]);
                for (wfh, widx, wdata) in self.pages.insert(&fh, page_idx, page, true) {
                    self.writeback(&wfh, widx, wdata)?;
                }
            }
            pos += take as u64;
        }
        let f = self.open_files.get_mut(&fd).expect("checked");
        f.size = f.size.max(end);
        Ok(data.len())
    }

    /// Write back an evicted dirty page.
    fn writeback(&mut self, fh: &Fh3, page_idx: u64, data: Vec<u8>) -> FsResult<()> {
        let ps = self.pages.page_size() as u64;
        let clock = &self.opts.clock;
        write_page(&mut self.nfs, &mut self.stats, &mut self.attrs, clock, fh, page_idx * ps, &data)
    }

    /// `fsync(2)`: push dirty pages and COMMIT.
    pub fn fsync(&mut self, fd: Fd) -> FsResult<()> {
        let fh = self.file(fd)?.fh.clone();
        self.flush_file(&fh)
    }

    /// Send every dirty page of `fh`, each encoded straight from the
    /// cache, then COMMIT.
    fn flush_file(&mut self, fh: &Fh3) -> FsResult<()> {
        let dirty = self.pages.take_dirty(fh);
        if dirty.is_empty() {
            return Ok(());
        }
        let ps = self.pages.page_size() as u64;
        let clock = &self.opts.clock;
        for idx in dirty {
            let page = self.pages.peek(fh, idx).expect("a flush evicts nothing");
            write_page(&mut self.nfs, &mut self.stats, &mut self.attrs, clock, fh, idx * ps, page)?;
        }
        self.stats.other += 1;
        let res = self.nfs.commit(fh, 0, 0)?;
        if let Some(a) = res.wcc.after {
            self.note_attr(fh, &a);
        }
        Ok(())
    }

    /// `close(2)`: with close-to-open, flushes and commits.
    pub fn close(&mut self, fd: Fd) -> FsResult<()> {
        let fh = self.file(fd)?.fh.clone();
        if self.opts.cto {
            self.flush_file(&fh)?;
        }
        self.open_files.remove(&fd);
        Ok(())
    }

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> FsResult<()> {
        let (parent, leaf) = self.resolve_parent(path)?;
        self.stats.other += 1;
        let (fh, attr) = self.nfs.mkdir(
            &parent,
            &leaf,
            Sattr3 { mode: Some(mode), ..Default::default() },
        )?;
        if let Some(a) = attr {
            self.note_attr(&fh, &a);
        }
        self.invalidate_name(&parent, &leaf);
        Ok(())
    }

    /// `rmdir(2)`.
    pub fn rmdir(&mut self, path: &str) -> FsResult<()> {
        let (parent, leaf) = self.resolve_parent(path)?;
        self.stats.other += 1;
        self.nfs.rmdir(&parent, &leaf)?;
        self.invalidate_name(&parent, &leaf);
        Ok(())
    }

    /// `unlink(2)`.
    pub fn unlink(&mut self, path: &str) -> FsResult<()> {
        let (parent, leaf) = self.resolve_parent(path)?;
        if let Ok(fh) = self.lookup_component(&parent, &leaf) {
            self.pages.invalidate_file(&fh);
            self.attrs.invalidate(&fh);
        }
        self.stats.other += 1;
        self.nfs.remove(&parent, &leaf)?;
        self.invalidate_name(&parent, &leaf);
        Ok(())
    }

    /// `rename(2)`.
    pub fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let (fparent, fleaf) = self.resolve_parent(from)?;
        let (tparent, tleaf) = self.resolve_parent(to)?;
        self.stats.other += 1;
        self.nfs.rename(&fparent, &fleaf, &tparent, &tleaf)?;
        self.invalidate_name(&fparent, &fleaf);
        self.invalidate_name(&tparent, &tleaf);
        Ok(())
    }

    /// `link(2)`.
    pub fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        let fh = self.resolve(existing)?;
        let (parent, leaf) = self.resolve_parent(new)?;
        self.stats.other += 1;
        if let Some(a) = self.nfs.link(&fh, &parent, &leaf)? {
            self.note_attr(&fh, &a);
        }
        self.invalidate_name(&parent, &leaf);
        Ok(())
    }

    /// `symlink(2)`.
    pub fn symlink(&mut self, target: &str, path: &str) -> FsResult<()> {
        let (parent, leaf) = self.resolve_parent(path)?;
        self.stats.other += 1;
        self.nfs.symlink(&parent, &leaf, target)?;
        self.invalidate_name(&parent, &leaf);
        Ok(())
    }

    /// `readlink(2)`.
    pub fn readlink(&mut self, path: &str) -> FsResult<String> {
        let fh = self.resolve(path)?;
        self.stats.other += 1;
        Ok(self.nfs.readlink(&fh)?)
    }

    /// `readdir(3)`: entry names, excluding `.`/`..`.
    pub fn readdir(&mut self, path: &str) -> FsResult<Vec<String>> {
        let fh = self.resolve(path)?;
        let mut names = Vec::new();
        let mut cookie = 0;
        loop {
            self.stats.other += 1;
            let res = self.nfs.readdir(&fh, cookie, 0, 8192)?;
            if let Some(a) = &res.dir_attr {
                let now = self.now();
                self.attrs.update(&fh, a, now);
            }
            for e in &res.entries {
                cookie = e.cookie;
                if e.name != "." && e.name != ".." {
                    names.push(e.name.clone());
                }
            }
            if res.eof {
                break;
            }
        }
        Ok(names)
    }

    /// `access(2)` via the NFSv3 ACCESS procedure — the call the SGFS
    /// server-side proxy intercepts for fine-grained grid ACLs.
    pub fn access(&mut self, path: &str, mask: u32) -> FsResult<u32> {
        let fh = self.resolve(path)?;
        self.stats.access += 1;
        Ok(self.nfs.access(&fh, mask)?)
    }

    /// `truncate(2)`.
    pub fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        let fh = self.resolve(path)?;
        self.stats.other += 1;
        self.nfs.setattr(&fh, &Sattr3 { size: Some(size), ..Default::default() })?;
        self.pages.invalidate_file(&fh);
        self.attrs.invalidate(&fh);
        Ok(())
    }

    /// Convenience: write an entire file.
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> FsResult<()> {
        let fd = self.open(path, OpenFlags::create_truncate(), 0o644)?;
        let mut off = 0;
        while off < data.len() {
            let n = self.write(fd, &data[off..])?;
            off += n;
        }
        self.close(fd)
    }

    /// Convenience: read an entire file.
    pub fn read_file(&mut self, path: &str) -> FsResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::rdonly(), 0)?;
        let mut out = Vec::new();
        loop {
            let chunk = self.read(fd, 256 * 1024)?;
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
        }
        self.close(fd)?;
        Ok(out)
    }

    /// Unmount: flush all dirty state and drop every cache (each benchmark
    /// run starts cold, as in the paper's methodology).
    pub fn unmount(&mut self) -> FsResult<()> {
        let dirty_fhs: Vec<Fh3> = {
            let fds: Vec<Fd> = self.open_files.keys().copied().collect();
            fds.iter().filter_map(|fd| self.open_files.get(fd).map(|f| f.fh.clone())).collect()
        };
        for fh in dirty_fhs {
            self.flush_file(&fh)?;
        }
        // Any dirty pages of closed files.
        let all_dirty = self.pages.all_dirty_fhs();
        for fh in all_dirty {
            self.flush_file(&fh)?;
        }
        self.pages.clear();
        self.attrs.clear();
        self.dnlc.clear();
        self.open_files.clear();
        Ok(())
    }
}

/// One UNSTABLE WRITE of a page's bytes at `offset`; its post-op
/// attributes refresh the attribute cache as of the reply.
fn write_page(
    nfs: &mut Nfs3Client,
    stats: &mut OpStats,
    attrs: &mut AttrCache,
    clock: &SimClock,
    fh: &Fh3,
    offset: u64,
    data: &[u8],
) -> FsResult<()> {
    stats.write += 1;
    let res = nfs.write(fh, offset, data, StableHow::Unstable)?;
    if let Some(a) = res.wcc.after {
        attrs.update(fh, &a, clock.now());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgfs_nfsd::{ExportEntry, Exports, NfsServer};
    use sgfs_oncrpc::msg::AuthSysParams;
    use sgfs_oncrpc::{LoopbackStream, OpaqueAuth};
    use sgfs_vfs::{UserContext, Vfs};

    fn testbed() -> (Arc<NfsServer>, NfsMount, Arc<SimClock>) {
        testbed_with_cache(8 * 1024 * 1024)
    }

    fn testbed_with_cache(cache_bytes: usize) -> (Arc<NfsServer>, NfsMount, Arc<SimClock>) {
        let vfs = Arc::new(Vfs::new());
        vfs.mkdir_p("/GFS", 0o777, &UserContext::root()).unwrap();
        let mut exports = Exports::new();
        exports.add(ExportEntry::localhost("/GFS"));
        let server = NfsServer::new(vfs, exports);
        let root = server.mount("/GFS", "localhost").unwrap();
        let mut nfs = Nfs3Client::new(Box::new(LoopbackStream::new(server.clone())));
        nfs.set_cred(OpaqueAuth::sys(&AuthSysParams::new("c", 1000, 1000)));
        let clock = SimClock::new();
        let opts = MountOptions::new(clock.clone()).with_mem_cache(cache_bytes);
        (server.clone(), NfsMount::new(nfs, root, opts), clock)
    }

    #[test]
    fn write_read_roundtrip_with_caching() {
        let (_s, mut m, _c) = testbed();
        let data: Vec<u8> = (0..200_000).map(|i| (i % 256) as u8).collect();
        m.write_file("/f.bin", &data).unwrap();
        assert_eq!(m.read_file("/f.bin").unwrap(), data);
        assert_eq!(m.stat("/f.bin").unwrap().size, data.len() as u64);
    }

    #[test]
    fn reads_hit_cache_second_time() {
        let (_s, mut m, _c) = testbed();
        m.write_file("/f", &vec![7u8; 100_000]).unwrap();
        let _ = m.read_file("/f").unwrap();
        let reads_after_first = m.stats().read;
        let _ = m.read_file("/f").unwrap();
        assert_eq!(m.stats().read, reads_after_first, "second read fully cached");
        let (hits, _misses) = m.cache_stats();
        assert!(hits > 0);
    }

    #[test]
    fn lru_thrashes_when_file_exceeds_cache() {
        // File 8 pages, cache 4 pages: reread issues READ RPCs again.
        let ps = 32 * 1024;
        let (_s, mut m, _c) = testbed_with_cache(4 * ps);
        m.write_file("/big", &vec![1u8; 8 * ps]).unwrap();
        let _ = m.read_file("/big").unwrap();
        let after_first = m.stats().read;
        assert!(after_first >= 8);
        let _ = m.read_file("/big").unwrap();
        assert!(
            m.stats().read >= after_first + 8,
            "reread misses: {} vs {}",
            m.stats().read,
            after_first
        );
    }

    #[test]
    fn writes_are_write_back_until_close() {
        let (_s, mut m, _c) = testbed();
        let fd = m.open("/wb", OpenFlags::create_truncate(), 0o644).unwrap();
        m.write(fd, &vec![9u8; 64 * 1024]).unwrap();
        assert_eq!(m.stats().write, 0, "nothing written yet (write-back)");
        m.close(fd).unwrap();
        assert_eq!(m.stats().write, 2, "two 32K pages flushed on close");
    }

    #[test]
    fn fsync_flushes_dirty_pages() {
        let (_s, mut m, _c) = testbed();
        let fd = m.open("/s", OpenFlags::create_truncate(), 0o644).unwrap();
        m.write(fd, b"dirty data").unwrap();
        m.fsync(fd).unwrap();
        assert_eq!(m.stats().write, 1);
        m.fsync(fd).unwrap();
        assert_eq!(m.stats().write, 1, "no dirty pages left");
        m.close(fd).unwrap();
    }

    #[test]
    fn read_own_writes_before_flush() {
        let (_s, mut m, _c) = testbed();
        let fd = m.open("/rw", OpenFlags { read: true, write: true, create: true, ..Default::default() }, 0o644).unwrap();
        m.write(fd, b"hello world").unwrap();
        let got = m.pread(fd, 6, 5).unwrap();
        assert_eq!(got, b"world");
        m.close(fd).unwrap();
    }

    #[test]
    fn partial_interior_write_preserves_data() {
        let (_s, mut m, _c) = testbed();
        m.write_file("/p", &vec![0xAAu8; 100_000]).unwrap();
        // Reopen and patch 10 bytes in the middle of page 1.
        let fd = m.open("/p", OpenFlags::rdwr(), 0).unwrap();
        m.pwrite(fd, 40_000, &[0xBB; 10]).unwrap();
        m.close(fd).unwrap();
        let data = m.read_file("/p").unwrap();
        assert_eq!(data.len(), 100_000);
        assert_eq!(data[39_999], 0xAA);
        assert_eq!(&data[40_000..40_010], &[0xBB; 10]);
        assert_eq!(data[40_010], 0xAA);
    }

    #[test]
    fn attr_cache_avoids_getattr_until_timeout() {
        let (_s, mut m, clock) = testbed();
        m.write_file("/a", b"x").unwrap();
        let _ = m.stat("/a").unwrap();
        let g1 = m.stats().getattr;
        let _ = m.stat("/a").unwrap();
        assert_eq!(m.stats().getattr, g1, "within attr timeout: cached");
        clock.advance(Duration::from_secs(120));
        let _ = m.stat("/a").unwrap();
        assert!(m.stats().getattr > g1, "expired: revalidated");
    }

    #[test]
    fn close_to_open_sees_remote_changes() {
        let (server, mut m, clock) = testbed();
        m.write_file("/shared", b"version-1").unwrap();
        let _ = m.read_file("/shared").unwrap();

        // Another party modifies the file directly on the server.
        let root = UserContext::root();
        let attr = server.vfs().resolve("/GFS/shared", &root).unwrap();
        server.vfs().write(attr.ino, 0, b"version-2", &root).unwrap();

        // The attr cache may still be fresh, but open() forces GETATTR
        // (close-to-open), which sees the new mtime and drops stale pages.
        clock.advance(Duration::from_secs(1));
        assert_eq!(m.read_file("/shared").unwrap(), b"version-2");
    }

    #[test]
    fn dnlc_avoids_repeat_lookups() {
        let (_s, mut m, _c) = testbed();
        m.mkdir("/d", 0o755).unwrap();
        m.write_file("/d/f", b"x").unwrap();
        let _ = m.stat("/d/f").unwrap();
        let lookups = m.stats().lookup;
        let _ = m.stat("/d/f").unwrap();
        assert_eq!(m.stats().lookup, lookups, "dnlc hit for both components");
    }

    #[test]
    fn directory_operations() {
        let (_s, mut m, _c) = testbed();
        m.mkdir("/dir", 0o755).unwrap();
        m.write_file("/dir/a", b"1").unwrap();
        m.write_file("/dir/b", b"2").unwrap();
        let mut names = m.readdir("/dir").unwrap();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        m.unlink("/dir/a").unwrap();
        m.rename("/dir/b", "/dir/c").unwrap();
        assert_eq!(m.readdir("/dir").unwrap(), vec!["c"]);
        assert!(m.stat("/dir/b").is_err());
        m.unlink("/dir/c").unwrap();
        m.rmdir("/dir").unwrap();
        assert!(m.stat("/dir").is_err());
    }

    #[test]
    fn symlinks() {
        let (_s, mut m, _c) = testbed();
        m.write_file("/target", b"data").unwrap();
        m.symlink("/target", "/lnk").unwrap();
        assert_eq!(m.readlink("/lnk").unwrap(), "/target");
    }

    #[test]
    fn exclusive_create() {
        let (_s, mut m, _c) = testbed();
        m.write_file("/x", b"1").unwrap();
        let res = m.open(
            "/x",
            OpenFlags { write: true, create: true, exclusive: true, ..Default::default() },
            0o644,
        );
        assert!(res.is_err());
    }

    #[test]
    fn truncate_on_open() {
        let (_s, mut m, _c) = testbed();
        m.write_file("/t", &vec![1u8; 1000]).unwrap();
        let fd = m.open("/t", OpenFlags::create_truncate(), 0o644).unwrap();
        m.close(fd).unwrap();
        assert_eq!(m.stat("/t").unwrap().size, 0);
    }

    #[test]
    fn unmount_flushes_everything() {
        let (server, mut m, _c) = testbed();
        let fd = m.open("/u", OpenFlags::create_truncate(), 0o644).unwrap();
        m.write(fd, b"must survive").unwrap();
        // No close: unmount must flush.
        m.unmount().unwrap();
        let root = UserContext::root();
        let attr = server.vfs().resolve("/GFS/u", &root).unwrap();
        let (data, _) = server.vfs().read(attr.ino, 0, 100, &root).unwrap();
        assert_eq!(data, b"must survive");
        let _ = fd;
    }

    #[test]
    fn sparse_write_via_seek() {
        let (_s, mut m, _c) = testbed();
        let fd = m.open("/sparse", OpenFlags { read: true, write: true, create: true, ..Default::default() }, 0o644).unwrap();
        m.pwrite(fd, 100_000, b"tail").unwrap();
        m.close(fd).unwrap();
        let attr = m.stat("/sparse").unwrap();
        assert_eq!(attr.size, 100_004);
        let fd = m.open("/sparse", OpenFlags::rdonly(), 0).unwrap();
        let head = m.pread(fd, 0, 10).unwrap();
        assert_eq!(head, vec![0u8; 10]);
        let tail = m.pread(fd, 100_000, 10).unwrap();
        assert_eq!(tail, b"tail");
        m.close(fd).unwrap();
    }
}
