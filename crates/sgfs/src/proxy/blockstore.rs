//! The client proxy's data-block cache backing stores.
//!
//! The paper's WAN configuration caches 32 KB data blocks on the client
//! host's local disk; the SFS-style daemon keeps a bounded in-memory block
//! cache instead. Both stores index blocks by `(file handle, offset)` and
//! track a dirty bit for write-back.
//!
//! The disk store can additionally run **crash-consistent**: with a
//! [`DurabilityPolicy`] whose journal is enabled, every dirty-block state
//! change is logged to a write-ahead journal (see
//! [`journal`](super::journal)) in the spool directory, the spool survives
//! restarts, and [`DiskStore::with_durability`] replays the journal to
//! re-mark surviving blocks dirty before the proxy serves its first call.

use super::journal::{Journal, NameRecord, RecoveryReport, Survivor};
use crate::config::DurabilityPolicy;
use sgfs_net::{CrashInjector, CrashPoint};
use sgfs_nfs3::Fh3;
use sgfs_obs::{Counter, Emitter, Hop, NO_PROC};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Key of one cached block.
pub type BlockKey = (Fh3, u64);

/// Metadata for one resident block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Block payload length.
    pub len: u32,
    /// Dirty (written back on flush) vs clean.
    pub dirty: bool,
}

/// A block store: where cached data blocks live.
///
/// Mutating operations return `io::Result` so a journaled disk store can
/// refuse to acknowledge state it could not make durable; the in-memory
/// store never fails. Callers distinguish an injected crash
/// ([`sgfs_net::crash::is_crash`]) — which must propagate — from a
/// genuine I/O error, which degrades the block to write-through.
pub trait BlockStore: Send {
    /// Fetch a block's bytes, if cached.
    fn get(&mut self, key: &BlockKey) -> Option<Vec<u8>>;
    /// Insert/overwrite a block.
    fn put(&mut self, key: BlockKey, data: &[u8], dirty: bool) -> std::io::Result<()>;
    /// Metadata without reading the payload.
    fn meta(&self, key: &BlockKey) -> Option<BlockMeta>;
    /// Mark a resident block clean (its WRITE was acked upstream).
    fn set_clean(&mut self, key: &BlockKey) -> std::io::Result<()>;
    /// Re-mark a resident block dirty — used when a flush fails (or the
    /// server's write verifier changes) after the block was already
    /// marked clean, so a later retry re-sends it.
    fn set_dirty(&mut self, key: &BlockKey) -> std::io::Result<()>;
    /// The server confirmed a COMMIT of `fh`: its clean blocks are now
    /// stable and need not survive a crash. No visible state changes;
    /// journaled stores use this to shrink the recovery set.
    fn commit_file(&mut self, _fh: &Fh3) -> std::io::Result<()> {
        Ok(())
    }
    /// Make one change to the client proxy's namespace log durable,
    /// before it is acknowledged. Only a journaled store keeps it.
    fn record_name(&mut self, _rec: &NameRecord) -> std::io::Result<()> {
        Ok(())
    }
    /// All block offsets cached for `fh`, sorted.
    fn blocks_of(&self, fh: &Fh3) -> Vec<u64>;
    /// All dirty block offsets for `fh`, sorted.
    fn dirty_blocks_of(&self, fh: &Fh3) -> Vec<u64>;
    /// Whether `fh` has a dirty block.
    fn has_dirty(&self, fh: &Fh3) -> bool {
        !self.dirty_blocks_of(fh).is_empty()
    }
    /// Whether [`record_name`](Self::record_name) keeps what it is given:
    /// a caller may skip building a record no one keeps.
    fn keeps_names(&self) -> bool {
        false
    }
    /// Every file handle with at least one dirty block.
    fn dirty_files(&self) -> Vec<Fh3>;
    /// Drop all blocks of `fh` (cached *and* dirty — deletion of a file
    /// discards its unflushed data, the paper's temporary-file win).
    fn drop_file(&mut self, fh: &Fh3);
    /// Total bytes cached.
    fn total_bytes(&self) -> u64;
    /// Total dirty bytes.
    fn dirty_bytes(&self) -> u64;
}

/// Disk-backed store: block payloads in spool files, with an in-memory
/// index. Real file I/O makes the disk-cache cost in the benchmarks
/// genuine.
///
/// Two modes:
///
/// * [`new`](Self::new) — ephemeral: the spool directory is cleared on
///   open and removed on drop (each benchmark session starts cold, per
///   the paper's methodology). A crash discards dirty blocks. Every
///   block lives in one shared spool file ([`Extents`]).
/// * [`with_durability`](Self::with_durability) — crash-consistent: the
///   spool and a write-ahead journal persist across restarts, and
///   construction replays the journal into the index. Each file handle
///   has a spool file of its own, written at block offsets (sparse), so
///   recovery finds a survivor's bytes from its key alone.
pub struct DiskStore {
    dir: PathBuf,
    index: Index,
    spool: Spool,
    journal: Option<Journal>,
    stats: Emitter,
    crash: Option<Arc<CrashInjector>>,
}

/// A [`DiskStore`]'s resident blocks, per file in offset order, with
/// running byte totals: a call about one file — a REMOVE dropping its
/// blocks, a reply asking whether it is dirty — touches that file's blocks
/// only, not every block the store holds.
#[derive(Default)]
struct Index {
    files: HashMap<Fh3, BTreeMap<u64, BlockMeta>>,
    total: u64,
    dirty: u64,
}

impl Index {
    fn get(&self, (fh, offset): &BlockKey) -> Option<BlockMeta> {
        self.files.get(fh)?.get(offset).copied()
    }

    fn insert(&mut self, (fh, offset): BlockKey, meta: BlockMeta) {
        let old = self.files.entry(fh).or_default().insert(offset, meta);
        self.count(meta, 1);
        if let Some(old) = old {
            self.count(old, -1);
        }
    }

    fn remove(&mut self, (fh, offset): &BlockKey) {
        let Some(blocks) = self.files.get_mut(fh) else { return };
        let Some(old) = blocks.remove(offset) else { return };
        if blocks.is_empty() {
            self.files.remove(fh);
        }
        self.count(old, -1);
    }

    /// Mark a resident block dirty or clean.
    fn mark(&mut self, (fh, offset): &BlockKey, dirty: bool) {
        let Some(meta) = self.files.get_mut(fh).and_then(|b| b.get_mut(offset)) else { return };
        let old = *meta;
        meta.dirty = dirty;
        self.count(old, -1);
        self.count(BlockMeta { dirty, ..old }, 1);
    }

    fn remove_file(&mut self, fh: &Fh3) {
        for meta in self.files.remove(fh).into_iter().flat_map(BTreeMap::into_values) {
            self.count(meta, -1);
        }
    }

    fn offsets(&self, fh: &Fh3, dirty_only: bool) -> Vec<u64> {
        let blocks = self.files.get(fh).into_iter().flatten();
        blocks.filter(|(_, m)| m.dirty || !dirty_only).map(|(o, _)| *o).collect()
    }

    fn count(&mut self, meta: BlockMeta, sign: i64) {
        let len = (meta.len as i64 * sign) as u64;
        self.total = self.total.wrapping_add(len);
        if meta.dirty {
            self.dirty = self.dirty.wrapping_add(len);
        }
    }
}

/// Where a [`DiskStore`] keeps its payloads.
enum Spool {
    /// Journal mode: one file per handle, opened on first use.
    PerHandle(HashMap<Fh3, File>),
    /// Ephemeral mode: one file for every block.
    Shared(Extents),
}

/// The ephemeral store's one spool file, cut into extents whose sizes
/// are powers of two (4 KiB and up). A block keeps its extent while its
/// payload fits; a freed extent goes to the next block of its size, so
/// the file grows only to the most the store ever held at once.
///
/// How long the host file system takes to create a file depends on what
/// it did in the minutes before (from 10 µs to 700 µs on a 2-CPU ext4
/// host): a store that created a file per cached handle made a session's
/// wall time, and with it the simulated runtime of a WAN session, swing
/// by that much for every file it cached. This one creates a file once.
struct Extents {
    file: File,
    /// Where each resident block's payload starts, and its extent's size,
    /// per file.
    at: HashMap<Fh3, HashMap<u64, (u64, u64)>>,
    /// Freed extents' starts, by size.
    free: HashMap<u64, Vec<u64>>,
    /// End of the highest extent handed out.
    end: u64,
}

/// The smallest extent: one page.
const MIN_EXTENT: u64 = 4096;

impl Extents {
    fn create(dir: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(dir.join("blocks.spool"))?;
        Ok(Self { file, at: HashMap::new(), free: HashMap::new(), end: 0 })
    }

    fn held(&self, (fh, offset): &BlockKey) -> Option<(u64, u64)> {
        self.at.get(fh)?.get(offset).copied()
    }

    fn read(&self, key: &BlockKey, buf: &mut [u8]) -> std::io::Result<()> {
        let Some((at, _)) = self.held(key) else {
            return Err(std::io::ErrorKind::NotFound.into());
        };
        self.file.read_exact_at(buf, at)
    }

    /// Write `data` as `key`'s payload: in place if its extent still
    /// fits it, else into another extent, freeing the old one only once
    /// the write has landed.
    fn write(&mut self, key: &BlockKey, data: &[u8]) -> std::io::Result<()> {
        let len = data.len() as u64;
        let held = self.held(key);
        let (at, size) = match held {
            Some((at, size)) if size >= len => (at, size),
            _ => {
                let size = len.next_power_of_two().max(MIN_EXTENT);
                let reused = self.free.get_mut(&size).and_then(Vec::pop);
                let at = reused.unwrap_or_else(|| {
                    self.end += size;
                    self.end - size
                });
                (at, size)
            }
        };
        let written = self.file.write_all_at(data, at);
        if held != Some((at, size)) {
            match written {
                Ok(()) => {
                    if let Some((old, old_size)) = held {
                        self.release(old, old_size);
                    }
                    self.at.entry(key.0.clone()).or_default().insert(key.1, (at, size));
                }
                Err(_) => self.release(at, size),
            }
        }
        written
    }

    fn forget(&mut self, fh: &Fh3) {
        for (at, size) in self.at.remove(fh).into_iter().flat_map(HashMap::into_values) {
            self.release(at, size);
        }
    }

    fn release(&mut self, at: u64, size: u64) {
        self.free.entry(size).or_default().push(at);
    }
}

impl DiskStore {
    /// Create an ephemeral store spooling under `dir` (created if
    /// missing, and cleared — each session starts with a cold cache, per
    /// the paper's methodology).
    pub fn new(dir: PathBuf) -> std::io::Result<Self> {
        Self::ephemeral(dir, Emitter::detached("blockstore"), None)
    }

    fn ephemeral(
        dir: PathBuf,
        stats: Emitter,
        crash: Option<Arc<CrashInjector>>,
    ) -> std::io::Result<Self> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        let spool = Spool::Shared(Extents::create(&dir)?);
        Ok(Self { dir, index: Index::default(), spool, journal: None, stats, crash })
    }

    /// Open a crash-consistent store under `dir`: recover the journal
    /// left by a previous incarnation (replaying up to the first torn
    /// record), re-mark every surviving block dirty, and start journaling
    /// new state. With `policy.journal` off this degenerates to
    /// [`new`](Self::new). Everything the store and its journal count
    /// goes through `stats`, the owning proxy's emitter.
    pub fn with_durability(
        dir: PathBuf,
        policy: DurabilityPolicy,
        stats: Emitter,
        crash: Option<Arc<CrashInjector>>,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        if !policy.journal {
            return Ok((Self::ephemeral(dir, stats, crash)?, RecoveryReport::default()));
        }
        std::fs::create_dir_all(&dir)?;
        let t0 = std::time::Instant::now();
        let mut report = Journal::recover(&dir);
        Journal::truncate_tail(&dir, &report)?;
        let mut store = Self {
            dir,
            index: Index::default(),
            spool: Spool::PerHandle(HashMap::new()),
            journal: None,
            stats: stats.clone(),
            crash: crash.clone(),
        };
        // Re-admit survivors, verifying the spool actually holds the
        // bytes the journal promises (spool writes precede journal
        // appends, so a shortfall means external tampering — skip and
        // count rather than resurrect garbage).
        let mut recovered: Vec<Survivor> = Vec::new();
        let mut recovered_bytes = 0u64;
        for s in std::mem::take(&mut report.survivors) {
            let (fh, offset) = &s.key;
            let end = *offset + s.len as u64;
            let ok = store
                .file_for(&fh.clone())
                .and_then(|f| f.metadata())
                .map(|m| m.len() >= end)
                .unwrap_or(false);
            if ok {
                store.index.insert(s.key.clone(), BlockMeta { len: s.len, dirty: true });
                recovered_bytes += s.len as u64;
                recovered.push(s);
            } else {
                stats.add(Counter::CacheIoErrors, 1);
            }
        }
        let mut journal =
            Journal::open(&store.dir, policy, &recovered, report.records_replayed)?;
        journal.seed_names(&report.names);
        journal.instrument(stats.clone(), crash);
        store.journal = Some(journal);
        report.survivors = recovered;
        stats.add(Counter::RecoveredBytes, recovered_bytes);
        stats.emit(Hop::RecoveryReplay, 0, NO_PROC, report.records_replayed);
        if report.torn_bytes > 0 {
            stats.emit(Hop::RecoveryTorn, 0, NO_PROC, report.torn_bytes);
        }
        // The event counts the blocks re-marked dirty; how long the
        // replay took is the hop's one latency sample.
        stats.emit(Hop::RecoveryComplete, 0, NO_PROC, report.survivors.len() as u64);
        stats.obs().record_hop(Hop::RecoveryComplete, t0.elapsed().as_nanos() as u64);
        Ok((store, report))
    }

    fn hit(&self, point: CrashPoint) -> std::io::Result<()> {
        match &self.crash {
            Some(c) => c.hit(point),
            None => Ok(()),
        }
    }

    fn count_io_error(&self) {
        self.stats.add(Counter::CacheIoErrors, 1);
    }

    /// Journal mode's spool file for `fh`, opened (or made) on first use.
    fn file_for(&mut self, fh: &Fh3) -> std::io::Result<&mut File> {
        let Spool::PerHandle(open) = &mut self.spool else {
            unreachable!("only a journaled store spools per handle");
        };
        if !open.contains_key(fh) {
            let path = self.dir.join(Self::spool_name(fh));
            let f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            open.insert(fh.clone(), f);
        }
        Ok(open.get_mut(fh).expect("just inserted"))
    }

    fn spool_name(fh: &Fh3) -> String {
        let name: String = fh.0.iter().map(|b| format!("{b:02x}")).collect();
        format!("{name}.spool")
    }

    fn read(&mut self, key: &BlockKey, buf: &mut [u8]) -> std::io::Result<()> {
        if let Spool::Shared(extents) = &self.spool {
            return extents.read(key, buf);
        }
        self.file_for(&key.0)?.read_exact_at(buf, key.1)
    }

    fn write(&mut self, key: &BlockKey, data: &[u8]) -> std::io::Result<()> {
        if let Spool::Shared(extents) = &mut self.spool {
            return extents.write(key, data);
        }
        self.file_for(&key.0)?.write_all_at(data, key.1)
    }
}

impl BlockStore for DiskStore {
    fn get(&mut self, key: &BlockKey) -> Option<Vec<u8>> {
        let meta = self.index.get(key)?;
        let mut buf = vec![0u8; meta.len as usize];
        match self.read(key, &mut buf) {
            Ok(()) => Some(buf),
            Err(_) => {
                // Spool read failed: the index promised bytes the disk
                // no longer yields. Evict the entry (forcing an upstream
                // re-READ) rather than serve a short block; count it.
                self.index.remove(key);
                self.count_io_error();
                None
            }
        }
    }

    fn put(&mut self, key: BlockKey, data: &[u8], dirty: bool) -> std::io::Result<()> {
        self.hit(CrashPoint::BeforeSpoolWrite)?;
        if let Err(e) = self.write(&key, data) {
            // Short writes / ENOSPC no longer insert a lying index entry;
            // the caller decides whether to degrade to write-through.
            self.count_io_error();
            return Err(e);
        }
        self.hit(CrashPoint::AfterSpoolWrite)?;
        if let Some(j) = &mut self.journal {
            j.record_put(&key, data.len() as u32, dirty)?;
        }
        self.index.insert(key, BlockMeta { len: data.len() as u32, dirty });
        Ok(())
    }

    fn meta(&self, key: &BlockKey) -> Option<BlockMeta> {
        self.index.get(key)
    }

    fn set_clean(&mut self, key: &BlockKey) -> std::io::Result<()> {
        if self.index.get(key).is_none() {
            return Ok(());
        }
        if let Some(j) = &mut self.journal {
            j.record_set_clean(key)?;
        }
        self.index.mark(key, false);
        Ok(())
    }

    fn set_dirty(&mut self, key: &BlockKey) -> std::io::Result<()> {
        let Some(meta) = self.index.get(key) else {
            return Ok(());
        };
        if let Some(j) = &mut self.journal {
            j.record_set_dirty(key, meta.len)?;
        }
        self.index.mark(key, true);
        Ok(())
    }

    fn commit_file(&mut self, fh: &Fh3) -> std::io::Result<()> {
        if let Some(j) = &mut self.journal {
            j.record_commit_file(fh)?;
        }
        Ok(())
    }

    fn record_name(&mut self, rec: &NameRecord) -> std::io::Result<()> {
        match &mut self.journal {
            Some(j) => j.record_name(rec),
            None => Ok(()),
        }
    }

    fn keeps_names(&self) -> bool {
        self.journal.is_some()
    }

    fn blocks_of(&self, fh: &Fh3) -> Vec<u64> {
        self.index.offsets(fh, false)
    }

    fn dirty_blocks_of(&self, fh: &Fh3) -> Vec<u64> {
        self.index.offsets(fh, true)
    }

    fn has_dirty(&self, fh: &Fh3) -> bool {
        self.index.files.get(fh).is_some_and(|blocks| blocks.values().any(|m| m.dirty))
    }

    fn dirty_files(&self) -> Vec<Fh3> {
        let files = self.index.files.iter();
        let mut v: Vec<Fh3> =
            files.filter(|(_, b)| b.values().any(|m| m.dirty)).map(|(f, _)| f.clone()).collect();
        v.sort();
        v
    }

    fn drop_file(&mut self, fh: &Fh3) {
        // Journal first: if the append fails (crash), the blocks stay
        // both in the index and in the recovery set — dropping from the
        // index but not the journal would resurrect deleted data.
        if let Some(j) = &mut self.journal {
            if j.record_drop_file(fh).is_err() {
                self.count_io_error();
                return;
            }
        }
        self.index.remove_file(fh);
        let unlinked = match &mut self.spool {
            Spool::Shared(extents) => {
                extents.forget(fh);
                true
            }
            Spool::PerHandle(open) => {
                open.remove(fh).is_none()
                    || std::fs::remove_file(self.dir.join(Self::spool_name(fh))).is_ok()
            }
        };
        if !unlinked {
            // The spool file lingers (it will be truncated on reuse or
            // removed with the directory); count, don't ignore.
            self.count_io_error();
        }
    }

    fn total_bytes(&self) -> u64 {
        self.index.total
    }

    fn dirty_bytes(&self) -> u64 {
        self.index.dirty
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        if let Some(j) = &mut self.journal {
            // Crash-consistent mode: the spool and journal ARE the
            // durable state; flush journal buffers and leave everything
            // in place for the next incarnation.
            let _ = j.sync();
            return;
        }
        // Close the spool file before removing it.
        self.spool = Spool::PerHandle(HashMap::new());
        if std::fs::remove_dir_all(&self.dir).is_err() && self.dir.exists() {
            self.count_io_error();
        }
    }
}

/// In-memory store (SFS-style daemon cache), bounded by FIFO eviction of
/// clean blocks.
pub struct MemStore {
    blocks: HashMap<BlockKey, (Vec<u8>, bool)>,
    order: std::collections::VecDeque<BlockKey>,
    capacity: u64,
    resident: u64,
}

impl MemStore {
    /// Store capped at `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            blocks: HashMap::new(),
            order: std::collections::VecDeque::new(),
            capacity,
            resident: 0,
        }
    }
}

impl BlockStore for MemStore {
    fn get(&mut self, key: &BlockKey) -> Option<Vec<u8>> {
        self.blocks.get(key).map(|(d, _)| d.clone())
    }

    fn put(&mut self, key: BlockKey, data: &[u8], dirty: bool) -> std::io::Result<()> {
        if let Some((old, _)) = self.blocks.insert(key.clone(), (data.to_vec(), dirty)) {
            self.resident -= old.len() as u64;
        } else {
            self.order.push_back(key);
        }
        self.resident += data.len() as u64;
        // Evict clean blocks FIFO while over budget.
        let mut scanned = 0;
        while self.resident > self.capacity && scanned < self.order.len() {
            let victim = match self.order.pop_front() {
                Some(v) => v,
                None => break,
            };
            match self.blocks.get(&victim) {
                Some((_, true)) => {
                    self.order.push_back(victim); // dirty: keep
                    scanned += 1;
                }
                Some((d, false)) => {
                    self.resident -= d.len() as u64;
                    self.blocks.remove(&victim);
                }
                None => {}
            }
        }
        Ok(())
    }

    fn meta(&self, key: &BlockKey) -> Option<BlockMeta> {
        self.blocks
            .get(key)
            .map(|(d, dirty)| BlockMeta { len: d.len() as u32, dirty: *dirty })
    }

    fn set_clean(&mut self, key: &BlockKey) -> std::io::Result<()> {
        if let Some((_, dirty)) = self.blocks.get_mut(key) {
            *dirty = false;
        }
        Ok(())
    }

    fn set_dirty(&mut self, key: &BlockKey) -> std::io::Result<()> {
        if let Some((_, dirty)) = self.blocks.get_mut(key) {
            *dirty = true;
        }
        Ok(())
    }

    fn blocks_of(&self, fh: &Fh3) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.blocks.keys().filter(|(f, _)| f == fh).map(|(_, o)| *o).collect();
        v.sort_unstable();
        v
    }

    fn dirty_blocks_of(&self, fh: &Fh3) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .blocks
            .iter()
            .filter(|((f, _), (_, dirty))| f == fh && *dirty)
            .map(|((_, o), _)| *o)
            .collect();
        v.sort_unstable();
        v
    }

    fn dirty_files(&self) -> Vec<Fh3> {
        let mut v: Vec<Fh3> = self
            .blocks
            .iter()
            .filter(|(_, (_, dirty))| *dirty)
            .map(|((f, _), _)| f.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    fn drop_file(&mut self, fh: &Fh3) {
        let dropped: Vec<BlockKey> =
            self.blocks.keys().filter(|(f, _)| f == fh).cloned().collect();
        for key in dropped {
            if let Some((d, _)) = self.blocks.remove(&key) {
                self.resident -= d.len() as u64;
            }
        }
        self.order.retain(|(f, _)| f != fh);
    }

    fn total_bytes(&self) -> u64 {
        self.resident
    }

    fn dirty_bytes(&self) -> u64 {
        self.blocks
            .values()
            .filter(|(_, dirty)| *dirty)
            .map(|(d, _)| d.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh(n: u64) -> Fh3 {
        Fh3::from_ino(1, n)
    }

    fn uncounted() -> Emitter {
        Emitter::detached("client")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sgfs-blockstore-test-{tag}-{}", std::process::id()))
    }

    fn exercise(store: &mut dyn BlockStore) {
        store.put((fh(1), 0), &[1; 100], false).unwrap();
        store.put((fh(1), 32768), &[2; 100], true).unwrap();
        store.put((fh(2), 0), &[3; 50], true).unwrap();

        assert_eq!(store.get(&(fh(1), 0)).unwrap(), vec![1; 100]);
        assert_eq!(store.get(&(fh(1), 32768)).unwrap(), vec![2; 100]);
        assert!(store.get(&(fh(1), 999)).is_none());
        assert!(store.meta(&(fh(1), 32768)).unwrap().dirty);
        assert_eq!(store.blocks_of(&fh(1)), vec![0, 32768]);
        assert_eq!(store.dirty_blocks_of(&fh(1)), vec![32768]);
        assert_eq!(store.dirty_files(), vec![fh(1), fh(2)]);
        assert_eq!(store.total_bytes(), 250);
        assert_eq!(store.dirty_bytes(), 150);

        store.set_clean(&(fh(1), 32768)).unwrap();
        assert_eq!(store.dirty_blocks_of(&fh(1)), Vec::<u64>::new());
        store.set_dirty(&(fh(1), 32768)).unwrap();
        assert_eq!(store.dirty_blocks_of(&fh(1)), vec![32768], "re-dirtied for retry");
        store.set_dirty(&(fh(9), 0)).unwrap(); // absent key: no-op
        store.set_clean(&(fh(1), 32768)).unwrap();
        store.commit_file(&fh(1)).unwrap();

        store.drop_file(&fh(1));
        assert!(store.get(&(fh(1), 0)).is_none());
        assert_eq!(store.get(&(fh(2), 0)).unwrap(), vec![3; 50]);
    }

    #[test]
    fn disk_store_semantics() {
        let mut store = DiskStore::new(temp_dir("disk")).unwrap();
        exercise(&mut store);
    }

    #[test]
    fn journaled_disk_store_semantics() {
        let dir = temp_dir("disk-journal");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let policy = DurabilityPolicy::default();
            let (mut store, report) =
                DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
            assert!(report.survivors.is_empty(), "cold start");
            exercise(&mut store);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_store_semantics() {
        let mut store = MemStore::new(1 << 20);
        exercise(&mut store);
    }

    #[test]
    fn disk_store_overwrite_block() {
        let mut store = DiskStore::new(temp_dir("ow")).unwrap();
        store.put((fh(1), 0), &[1; 100], false).unwrap();
        store.put((fh(1), 0), &[9; 80], true).unwrap();
        assert_eq!(store.get(&(fh(1), 0)).unwrap(), vec![9; 80]);
        assert!(store.meta(&(fh(1), 0)).unwrap().dirty);
        assert_eq!(store.total_bytes(), 80);
    }

    #[test]
    fn ephemeral_store_reuses_freed_extents_in_one_file() {
        let dir = temp_dir("extents");
        let mut store = DiskStore::new(dir.clone()).unwrap();
        let spool_len = || std::fs::metadata(dir.join("blocks.spool")).unwrap().len();
        store.put((fh(1), 0), &[1; 100], true).unwrap();
        store.put((fh(1), 32768), &[2; 5000], true).unwrap();
        assert_eq!(spool_len(), 4096 + 5000, "a 4 KiB extent, then an 8 KiB one");
        // A grown payload moves to a larger extent; a shrunk one stays.
        store.put((fh(1), 0), &[3; 6000], true).unwrap();
        store.put((fh(1), 32768), &[4; 10], true).unwrap();
        assert_eq!(store.get(&(fh(1), 0)).unwrap(), vec![3; 6000]);
        assert_eq!(store.get(&(fh(1), 32768)).unwrap(), vec![4; 10]);
        // Another handle takes the extents the dropped one freed.
        store.drop_file(&fh(1));
        for (i, n) in [(2u64, 7000usize), (3, 8000), (4, 4096)] {
            store.put((fh(i), 0), &vec![i as u8; n], false).unwrap();
        }
        // The three extents handed out so far: 4 KiB, 8 KiB and 8 KiB.
        assert!(spool_len() <= 4096 + 2 * 8192, "no extent past the high-water mark");
        for (i, n) in [(2u64, 7000usize), (3, 8000), (4, 4096)] {
            assert_eq!(store.get(&(fh(i), 0)).unwrap(), vec![i as u8; n]);
        }
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 1, "every block in one spool file");
        drop(store);
        assert!(!dir.exists());
    }

    #[test]
    fn mem_store_evicts_clean_not_dirty() {
        let mut store = MemStore::new(250);
        store.put((fh(1), 0), &[1; 100], true).unwrap(); // dirty: protected
        store.put((fh(1), 1), &[2; 100], false).unwrap();
        store.put((fh(1), 2), &[3; 100], false).unwrap(); // over budget
        assert!(store.get(&(fh(1), 0)).is_some(), "dirty block survives");
        assert!(store.total_bytes() <= 250);
    }

    #[test]
    fn disk_store_cleans_up_spool_dir() {
        let dir = temp_dir("cleanup");
        {
            let mut store = DiskStore::new(dir.clone()).unwrap();
            store.put((fh(1), 0), &[1; 10], false).unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spool removed on drop");
    }

    #[test]
    fn journaled_store_survives_restart() {
        let dir = temp_dir("restart");
        let _ = std::fs::remove_dir_all(&dir);
        let policy = DurabilityPolicy::default();
        {
            let (mut store, _) =
                DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
            store.put((fh(1), 0), &[7; 100], true).unwrap();
            store.put((fh(1), 32768), &[8; 64], true).unwrap();
            store.put((fh(2), 0), &[9; 10], false).unwrap(); // clean: not recovered
        }
        assert!(dir.exists(), "spool persists in journal mode");
        let (mut store, report) =
            DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
        assert_eq!(report.survivors.len(), 2);
        assert_eq!(store.dirty_blocks_of(&fh(1)), vec![0, 32768]);
        assert_eq!(store.get(&(fh(1), 0)).unwrap(), vec![7; 100], "payload recovered");
        assert_eq!(store.get(&(fh(1), 32768)).unwrap(), vec![8; 64]);
        assert!(store.get(&(fh(2), 0)).is_none(), "clean block not resurrected");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_blocks_do_not_recover() {
        let dir = temp_dir("committed");
        let _ = std::fs::remove_dir_all(&dir);
        let policy = DurabilityPolicy::default();
        {
            let (mut store, _) =
                DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
            store.put((fh(1), 0), &[7; 100], true).unwrap();
            store.set_clean(&(fh(1), 0)).unwrap();
            store.commit_file(&fh(1)).unwrap();
            store.put((fh(1), 32768), &[8; 64], true).unwrap(); // post-commit write
        }
        let (_store, report) =
            DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
        let keys: Vec<_> = report.survivors.iter().map(|s| s.key.clone()).collect();
        assert_eq!(keys, vec![(fh(1), 32768)], "only the uncommitted block recovers");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_before_commit_still_recovers_dirty() {
        let dir = temp_dir("clean-uncommitted");
        let _ = std::fs::remove_dir_all(&dir);
        let policy = DurabilityPolicy::default();
        {
            let (mut store, _) =
                DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
            store.put((fh(1), 0), &[7; 100], true).unwrap();
            store.set_clean(&(fh(1), 0)).unwrap(); // WRITE acked, COMMIT never ran
        }
        let (store, report) =
            DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
        assert_eq!(report.survivors.len(), 1);
        assert_eq!(store.dirty_blocks_of(&fh(1)), vec![0], "recovered dirty, not clean");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_file_stays_dropped_after_restart() {
        let dir = temp_dir("dropped");
        let _ = std::fs::remove_dir_all(&dir);
        let policy = DurabilityPolicy::default();
        {
            let (mut store, _) =
                DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
            store.put((fh(1), 0), &[7; 100], true).unwrap();
            store.drop_file(&fh(1));
        }
        let (_store, report) =
            DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
        assert!(report.survivors.is_empty(), "deleted data not resurrected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_disabled_policy_behaves_ephemeral() {
        let dir = temp_dir("nojournal");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let policy = DurabilityPolicy::none();
            let (mut store, _) =
                DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
            store.put((fh(1), 0), &[7; 100], true).unwrap();
        }
        assert!(!dir.exists(), "ephemeral mode cleans up");
    }

    #[test]
    fn recovery_counts_into_stats() {
        let dir = temp_dir("recovery-stats");
        let _ = std::fs::remove_dir_all(&dir);
        let policy = DurabilityPolicy::default();
        {
            let (mut store, _) =
                DiskStore::with_durability(dir.clone(), policy, uncounted(), None).unwrap();
            store.put((fh(1), 0), &[7; 100], true).unwrap();
        }
        let stats = uncounted();
        let (_store, _) =
            DiskStore::with_durability(dir.clone(), policy, stats.clone(), None).unwrap();
        assert_eq!(stats.sum(Hop::RecoveryComplete), 1, "blocks");
        assert_eq!(stats.get(Counter::RecoveredBytes), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
