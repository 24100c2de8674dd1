//! Write-ahead journal for the disk block cache.
//!
//! The write-back cache acknowledges WRITE calls as soon as the block is
//! spooled locally; without a journal, a proxy crash silently discards
//! every dirty block. This module makes the dirty-block *state* durable:
//! each `put(dirty)`, `set_clean`, `set_dirty`, `drop_file` and
//! per-file commit appends one checksummed, length-prefixed record to
//! `journal.wal` in the spool directory. The block *payloads* live in the
//! spool files (written before the journal records them), so a journal
//! record implies its payload is on disk.
//!
//! # Record format
//!
//! The file opens with the 8-byte magic `SGFSWAL1`. Each record is
//!
//! ```text
//! u32 body_len | u32 crc32(body) | body
//! ```
//!
//! with all integers little-endian and body =
//!
//! ```text
//! u8 op | u8 flag | u16 fh_len | fh bytes | u64 offset | u32 len
//! ```
//!
//! A namespace record (ops 6–10) keeps `op | 0 | u16 fh_len | fh` and
//! follows it with its own payload (see [`NameRecord`]): the namespace
//! log's entries live in the same file, so one replay recovers names and
//! blocks together.
//!
//! The CRC (IEEE 802.3, table-based — no external crate) covers the body
//! only; the length prefix is validated by bounds-checking against the
//! remaining file. Replay stops at the first short, oversized, or
//! checksum-failing record: everything before the tear is trusted,
//! everything after is discarded (it was never acknowledged as durable).
//!
//! # Recovery invariant
//!
//! A replayed block is re-marked **dirty** even if its last journal record
//! was `SET_CLEAN`: the cache marks blocks clean when the server's WRITE
//! reply arrives, *before* the COMMIT confirms stability, so clean-but-
//! uncommitted is not proof of durability. Re-sending an already-stable
//! block is idempotent under the NFSv3 write-verifier contract, so the
//! conservative choice costs bandwidth, never correctness. Only a
//! `COMMIT_FILE` record (appended after a successful COMMIT reply)
//! releases a file's cleaned blocks from the recovery set.
//!
//! # Compaction
//!
//! Dead records (clean erases, dropped files, superseded states)
//! accumulate; once they outnumber live entries and the journal holds at
//! least `compact_min_records` records, the live state is rewritten to
//! `journal.tmp`, fsynced, and renamed over `journal.wal` — the rename is
//! the atomic commit point, so a crash mid-compaction recovers from
//! either the old complete journal or the new complete one.

use super::blockstore::BlockKey;
use crate::config::DurabilityPolicy;
use sgfs_net::{CrashInjector, CrashPoint};
use sgfs_nfs3::Fh3;
use sgfs_obs::{Emitter, Hop, NO_PROC};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal file name inside the spool directory.
pub const JOURNAL_FILE: &str = "journal.wal";
/// Compaction scratch file, renamed over [`JOURNAL_FILE`] atomically.
pub const JOURNAL_TMP: &str = "journal.tmp";
/// File magic: identifies format version 1.
pub const MAGIC: &[u8; 8] = b"SGFSWAL1";

const OP_PUT: u8 = 1;
const OP_SET_CLEAN: u8 = 2;
const OP_SET_DIRTY: u8 = 3;
const OP_DROP_FILE: u8 = 4;
const OP_COMMIT_FILE: u8 = 5;
const OP_NAME_LOGGED: u8 = 6;
const OP_NAME_SHIPPED: u8 = 7;
const OP_NAME_CANCELLED: u8 = 8;
const OP_NAME_SENT: u8 = 9;
const OP_NAME_REFUSED: u8 = 10;

const FLAG_CLEAN: u8 = 0;
const FLAG_DIRTY: u8 = 1;

/// Longest record body we accept on replay: op header plus the largest
/// encodable file handle. Anything bigger is corruption, not data.
const MAX_BODY: usize = 2 + 2 + u16::MAX as usize + 8 + 4;

/// CRC-32 (IEEE 802.3, reflected), table-driven.
fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Replay-visible state of one journaled block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LiveState {
    /// Last record left the block dirty.
    Dirty,
    /// Last record marked it clean — still recovered dirty (see module
    /// docs), but released by a later `COMMIT_FILE`.
    Cleaned,
}

/// One block the journal says must survive a restart.
#[derive(Debug, Clone)]
pub struct Survivor {
    /// Block identity.
    pub key: BlockKey,
    /// Payload length in the spool file.
    pub len: u32,
}

/// One change to the client proxy's namespace log. A logged name's
/// blocks are keyed by its minted handle, so recovery needs both the
/// names still unshipped and the server handle of every minted one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameRecord {
    /// A name made locally: its minted handle, and the CREATE or MKDIR
    /// (procedure and XDR arguments) that makes it on the server.
    Logged {
        /// The minted handle.
        fh: Fh3,
        /// `procnum::CREATE` or `procnum::MKDIR`.
        proc: u32,
        /// The call's arguments.
        args: Vec<u8>,
    },
    /// Its call is about to leave: from here on the server may have
    /// made it without the journal hearing back.
    Sent {
        /// The minted handle.
        fh: Fh3,
    },
    /// The server refused its call: the server did not make it, and a
    /// name the entry meets there later is not its own.
    Refused {
        /// The minted handle.
        fh: Fh3,
    },
    /// The server made it, under `server`.
    Shipped {
        /// The minted handle.
        fh: Fh3,
        /// The server's handle for it.
        server: Fh3,
        /// The server's fileid for it, when its reply carried one.
        fileid: Option<u64>,
    },
    /// Gone: removed before it shipped, so the server never hears of it,
    /// or its last link removed on the server after it shipped.
    Cancelled {
        /// The minted handle.
        fh: Fh3,
    },
}

impl NameRecord {
    fn encode(&self) -> Vec<u8> {
        let (op, fh) = match self {
            NameRecord::Logged { fh, .. } => (OP_NAME_LOGGED, fh),
            NameRecord::Sent { fh } => (OP_NAME_SENT, fh),
            NameRecord::Refused { fh } => (OP_NAME_REFUSED, fh),
            NameRecord::Shipped { fh, .. } => (OP_NAME_SHIPPED, fh),
            NameRecord::Cancelled { fh } => (OP_NAME_CANCELLED, fh),
        };
        let mut body = vec![op, 0];
        body.extend_from_slice(&(fh.0.len() as u16).to_le_bytes());
        body.extend_from_slice(&fh.0);
        match self {
            NameRecord::Logged { proc, args, .. } => {
                body.extend_from_slice(&proc.to_le_bytes());
                body.extend_from_slice(args);
            }
            NameRecord::Shipped { server, fileid, .. } => {
                body.extend_from_slice(&(server.0.len() as u16).to_le_bytes());
                body.extend_from_slice(&server.0);
                if let Some(id) = fileid {
                    body.extend_from_slice(&id.to_le_bytes());
                }
            }
            NameRecord::Sent { .. }
            | NameRecord::Refused { .. }
            | NameRecord::Cancelled { .. } => {}
        }
        body
    }

    /// `None` for a block record or a malformed one.
    fn decode(body: &[u8]) -> Option<Self> {
        if !(OP_NAME_LOGGED..=OP_NAME_REFUSED).contains(&body[0]) {
            return None;
        }
        let take = |at: usize| -> Option<(Fh3, usize)> {
            let len = u16::from_le_bytes(body.get(at..at + 2)?.try_into().ok()?) as usize;
            Some((Fh3(body.get(at + 2..at + 2 + len)?.to_vec()), at + 2 + len))
        };
        let (fh, at) = take(2)?;
        match body[0] {
            OP_NAME_LOGGED => {
                let proc = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?);
                Some(NameRecord::Logged { fh, proc, args: body[at + 4..].to_vec() })
            }
            OP_NAME_SENT => Some(NameRecord::Sent { fh }),
            OP_NAME_REFUSED => Some(NameRecord::Refused { fh }),
            OP_NAME_SHIPPED => {
                let (server, at) = take(at)?;
                let fileid = match body.get(at..) {
                    Some([]) => None,
                    Some(id) => Some(u64::from_le_bytes(id.try_into().ok()?)),
                    None => return None,
                };
                Some(NameRecord::Shipped { fh, server, fileid })
            }
            OP_NAME_CANCELLED => Some(NameRecord::Cancelled { fh }),
            _ => None,
        }
    }
}

/// The namespace log as replay leaves it: the server handle of every
/// minted file that still has a name there, and the entries still
/// unshipped, in the order they were made, with the ones already sent.
#[derive(Debug, Default, Clone)]
struct Names {
    shipped: HashMap<Fh3, (Fh3, Option<u64>)>,
    /// Unshipped `Logged` records by the order made, and where each is.
    logged: BTreeMap<u64, NameRecord>,
    seq_of: HashMap<Fh3, u64>,
    next: u64,
    sent: HashSet<Fh3>,
}

impl Names {
    fn apply(&mut self, rec: NameRecord) {
        match rec {
            NameRecord::Logged { ref fh, .. } => {
                self.seq_of.insert(fh.clone(), self.next);
                self.logged.insert(self.next, rec);
                self.next += 1;
            }
            NameRecord::Sent { fh } => {
                if self.seq_of.contains_key(&fh) {
                    self.sent.insert(fh);
                }
            }
            NameRecord::Refused { fh } => {
                self.sent.remove(&fh);
            }
            NameRecord::Shipped { fh, server, fileid } => {
                self.unlog(&fh);
                self.shipped.insert(fh, (server, fileid));
            }
            NameRecord::Cancelled { fh } => {
                self.unlog(&fh);
                self.shipped.remove(&fh);
            }
        }
    }

    fn unlog(&mut self, fh: &Fh3) {
        if let Some(seq) = self.seq_of.remove(fh) {
            self.logged.remove(&seq);
        }
        self.sent.remove(fh);
    }

    fn len(&self) -> usize {
        self.shipped.len() + self.logged.len() + self.sent.len()
    }

    /// Shipped mappings first, then the unshipped entries in log order,
    /// then a `Sent` mark for each entry already sent.
    fn records(&self) -> Vec<NameRecord> {
        let mut shipped: Vec<_> = self.shipped.iter().collect();
        shipped.sort();
        let shipped = shipped.into_iter().map(|(fh, (server, fileid))| NameRecord::Shipped {
            fh: fh.clone(),
            server: server.clone(),
            fileid: *fileid,
        });
        let logged = self.logged.values().cloned();
        let sent = self.logged.values().filter_map(|rec| match rec {
            NameRecord::Logged { fh, .. } if self.sent.contains(fh) => {
                Some(NameRecord::Sent { fh: fh.clone() })
            }
            _ => None,
        });
        shipped.chain(logged).chain(sent).collect()
    }
}

/// What [`Journal::recover`] found on disk.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Blocks to re-mark dirty, spool payloads already on disk.
    pub survivors: Vec<Survivor>,
    /// The namespace log: a [`NameRecord::Shipped`] for every minted
    /// handle that reached the server and still has a name there, then a
    /// [`NameRecord::Logged`] for every entry that did not, in the order
    /// they were made, then a [`NameRecord::Sent`] for each of those the
    /// server may have made.
    pub names: Vec<NameRecord>,
    /// Journal records replayed before the tail (if any) was hit.
    pub records_replayed: u64,
    /// Bytes of torn/corrupt tail discarded (0 = clean shutdown tail).
    pub torn_bytes: u64,
}

/// Append-side state of the write-ahead journal.
pub struct Journal {
    path: PathBuf,
    tmp_path: PathBuf,
    file: File,
    policy: DurabilityPolicy,
    /// Mirror of the live (journaled, not yet committed/erased) entries,
    /// for compaction and the dead-record trigger.
    live: HashMap<BlockKey, (LiveState, u32)>,
    /// Mirror of the live namespace log.
    names: Names,
    /// Records in the file since the last compaction.
    records: u64,
    /// Appends since the last fsync.
    unsynced: u32,
    stats: Emitter,
    crash: Option<Arc<CrashInjector>>,
}

impl Journal {
    /// Open (creating or appending to) the journal in `dir`. `survivors`
    /// seeds the in-memory mirror when opening over a recovered journal.
    pub fn open(
        dir: &Path,
        policy: DurabilityPolicy,
        survivors: &[Survivor],
        records: u64,
    ) -> std::io::Result<Self> {
        let path = dir.join(JOURNAL_FILE);
        let fresh = !path.exists();
        let mut file =
            std::fs::OpenOptions::new().append(true).create(true).open(&path)?;
        if fresh || file.metadata()?.len() == 0 {
            file.write_all(MAGIC)?;
            file.sync_data()?;
        }
        let live = survivors
            .iter()
            .map(|s| (s.key.clone(), (LiveState::Dirty, s.len)))
            .collect();
        Ok(Self {
            path,
            tmp_path: dir.join(JOURNAL_TMP),
            file,
            policy,
            live,
            names: Names::default(),
            records,
            unsynced: 0,
            stats: Emitter::detached("journal"),
            crash: None,
        })
    }

    /// Count through the owning proxy's emitter instead of the journal's
    /// own, and attach the crash plane (session wiring).
    pub fn instrument(&mut self, stats: Emitter, crash: Option<Arc<CrashInjector>>) {
        self.stats = stats;
        self.crash = crash;
    }

    /// Seed the namespace mirror with what [`recover`](Self::recover)
    /// found, when opening over a recovered journal.
    pub fn seed_names(&mut self, names: &[NameRecord]) {
        for rec in names {
            self.names.apply(rec.clone());
        }
    }

    /// Journal one change to the namespace log.
    pub fn record_name(&mut self, rec: &NameRecord) -> std::io::Result<()> {
        self.append(&rec.encode())?;
        self.names.apply(rec.clone());
        self.maybe_compact()
    }

    fn encode_body(op: u8, flag: u8, fh: &Fh3, offset: u64, len: u32) -> Vec<u8> {
        let mut body = Vec::with_capacity(2 + 2 + fh.0.len() + 12);
        body.push(op);
        body.push(flag);
        body.extend_from_slice(&(fh.0.len() as u16).to_le_bytes());
        body.extend_from_slice(&fh.0);
        body.extend_from_slice(&offset.to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes());
        body
    }

    fn hit(&self, point: CrashPoint) -> std::io::Result<()> {
        match &self.crash {
            Some(c) => c.hit(point),
            None => Ok(()),
        }
    }

    fn append(&mut self, body: &[u8]) -> std::io::Result<()> {
        self.hit(CrashPoint::BeforeJournalAppend)?;
        let mut rec = Vec::with_capacity(8 + body.len());
        rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(body).to_le_bytes());
        rec.extend_from_slice(body);
        if let Some(c) = &self.crash {
            if let Err((prefix, e)) = c.hit_torn(rec.len()) {
                // Torn write: a seeded prefix reaches the file, then the
                // "process" dies. Recovery must detect and discard it.
                let _ = self.file.write_all(&rec[..prefix]);
                let _ = self.file.sync_data();
                return Err(e);
            }
        }
        self.file.write_all(&rec)?;
        self.hit(CrashPoint::AfterJournalAppend)?;
        self.records += 1;
        self.unsynced += 1;
        if self.policy.fsync_every > 0 && self.unsynced >= self.policy.fsync_every {
            self.hit(CrashPoint::BeforeJournalFsync)?;
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        self.stats.emit(Hop::JournalAppend, 0, NO_PROC, rec.len() as u64);
        Ok(())
    }

    /// Journal a dirty put (or a clean put overwriting a journaled key —
    /// the clean record erases the entry so recovery won't resurrect a
    /// server-sourced block as dirty). Returns whether a record was
    /// written.
    pub fn record_put(&mut self, key: &BlockKey, len: u32, dirty: bool) -> std::io::Result<bool> {
        if !dirty && !self.live.contains_key(key) {
            return Ok(false);
        }
        let flag = if dirty { FLAG_DIRTY } else { FLAG_CLEAN };
        let body = Self::encode_body(OP_PUT, flag, &key.0, key.1, len);
        self.append(&body)?;
        if dirty {
            self.live.insert(key.clone(), (LiveState::Dirty, len));
        } else {
            self.live.remove(key);
        }
        self.maybe_compact()?;
        Ok(true)
    }

    /// Journal a clean transition (flush acked the WRITE).
    pub fn record_set_clean(&mut self, key: &BlockKey) -> std::io::Result<()> {
        let Some(&(_, len)) = self.live.get(key) else { return Ok(()) };
        let body = Self::encode_body(OP_SET_CLEAN, FLAG_CLEAN, &key.0, key.1, len);
        self.append(&body)?;
        self.live.insert(key.clone(), (LiveState::Cleaned, len));
        self.maybe_compact()
    }

    /// Journal a re-dirty (flush failed / verifier changed).
    pub fn record_set_dirty(&mut self, key: &BlockKey, len: u32) -> std::io::Result<()> {
        let body = Self::encode_body(OP_SET_DIRTY, FLAG_DIRTY, &key.0, key.1, len);
        self.append(&body)?;
        self.live.insert(key.clone(), (LiveState::Dirty, len));
        self.maybe_compact()
    }

    /// Journal the drop of every block of `fh` (file deleted — unflushed
    /// data is intentionally discarded).
    pub fn record_drop_file(&mut self, fh: &Fh3) -> std::io::Result<()> {
        if !self.live.keys().any(|(f, _)| f == fh) {
            return Ok(());
        }
        let body = Self::encode_body(OP_DROP_FILE, 0, fh, 0, 0);
        self.append(&body)?;
        self.live.retain(|(f, _), _| f != fh);
        self.maybe_compact()
    }

    /// Journal a successful COMMIT of `fh`: its cleaned blocks are now
    /// server-stable and leave the recovery set. Dirty entries (written
    /// after the flush batch was sent) stay.
    pub fn record_commit_file(&mut self, fh: &Fh3) -> std::io::Result<()> {
        if !self
            .live
            .iter()
            .any(|((f, _), (st, _))| f == fh && *st == LiveState::Cleaned)
        {
            return Ok(());
        }
        let body = Self::encode_body(OP_COMMIT_FILE, 0, fh, 0, 0);
        self.append(&body)?;
        self.live
            .retain(|(f, _), (st, _)| f != fh || *st != LiveState::Cleaned);
        self.maybe_compact()
    }

    /// Force everything appended so far to disk (teardown).
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    fn maybe_compact(&mut self) -> std::io::Result<()> {
        if self.policy.compact_min_records == 0
            || self.records < self.policy.compact_min_records
            || self.records < 2 * (self.live.len() + self.names.len()) as u64
        {
            return Ok(());
        }
        self.hit(CrashPoint::DuringCompaction)?;
        let mut tmp = File::create(&self.tmp_path)?;
        tmp.write_all(MAGIC)?;
        let mut kept = 0u64;
        for (key, &(state, len)) in &self.live {
            let (op, flag) = match state {
                LiveState::Dirty => (OP_PUT, FLAG_DIRTY),
                LiveState::Cleaned => (OP_SET_CLEAN, FLAG_CLEAN),
            };
            let body = Self::encode_body(op, flag, &key.0, key.1, len);
            let mut rec = Vec::with_capacity(8 + body.len());
            rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
            rec.extend_from_slice(&crc32(&body).to_le_bytes());
            rec.extend_from_slice(&body);
            tmp.write_all(&rec)?;
            kept += 1;
        }
        for name in &self.names.records() {
            let body = name.encode();
            tmp.write_all(&(body.len() as u32).to_le_bytes())?;
            tmp.write_all(&crc32(&body).to_le_bytes())?;
            tmp.write_all(&body)?;
            kept += 1;
        }
        tmp.sync_data()?;
        drop(tmp);
        self.hit(CrashPoint::BeforeCompactionRename)?;
        std::fs::rename(&self.tmp_path, &self.path)?;
        self.file =
            std::fs::OpenOptions::new().append(true).open(&self.path)?;
        self.records = kept;
        self.unsynced = 0;
        self.stats.emit(Hop::JournalCompact, 0, NO_PROC, kept);
        Ok(())
    }

    /// Replay the journal in `dir`. Missing file ⇒ empty report (cold
    /// start). Never panics: a corrupt or torn tail is measured, reported
    /// and discarded, and the next [`open`](Self::open) truncation-free
    /// append continues after a [`truncate_tail`](Self::truncate_tail).
    pub fn recover(dir: &Path) -> RecoveryReport {
        let path = dir.join(JOURNAL_FILE);
        // An interrupted compaction may have died before the rename; the
        // tmp file is uncommitted state and must not survive.
        let _ = std::fs::remove_file(dir.join(JOURNAL_TMP));
        let mut report = RecoveryReport::default();
        let Ok(mut f) = File::open(&path) else { return report };
        let mut buf = Vec::new();
        if f.read_to_end(&mut buf).is_err() {
            return report;
        }
        if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
            report.torn_bytes = buf.len() as u64;
            return report;
        }
        let mut live: HashMap<BlockKey, (LiveState, u32)> = HashMap::new();
        let mut names = Names::default();
        let mut pos = MAGIC.len();
        let valid_end = loop {
            if pos == buf.len() {
                break pos; // clean end
            }
            if buf.len() - pos < 8 {
                break pos; // torn length/crc prefix
            }
            let body_len =
                u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let crc =
                u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
            if !(4..=MAX_BODY).contains(&body_len) || buf.len() - pos - 8 < body_len {
                break pos; // short or absurd record
            }
            let body = &buf[pos + 8..pos + 8 + body_len];
            if crc32(body) != crc {
                break pos; // torn/corrupt payload
            }
            match NameRecord::decode(body) {
                Some(rec) => names.apply(rec),
                None => Self::replay_body(body, &mut live),
            }
            report.records_replayed += 1;
            pos += 8 + body_len;
        };
        report.torn_bytes = (buf.len() - valid_end) as u64;
        report.survivors = live
            .into_iter()
            .map(|(key, (_, len))| Survivor { key, len })
            .collect();
        // Deterministic recovery order for tests and replay.
        report.survivors.sort_by(|a, b| a.key.cmp(&b.key));
        report.names = names.records();
        report
    }

    fn replay_body(body: &[u8], live: &mut HashMap<BlockKey, (LiveState, u32)>) {
        let op = body[0];
        let flag = body[1];
        if body.len() < 4 {
            return;
        }
        let fh_len = u16::from_le_bytes(body[2..4].try_into().expect("2 bytes")) as usize;
        if body.len() < 4 + fh_len + 12 {
            // CRC passed but lengths disagree: treat as a no-op rather
            // than indexing out of bounds.
            return;
        }
        let fh = Fh3(body[4..4 + fh_len].to_vec());
        let offset = u64::from_le_bytes(
            body[4 + fh_len..12 + fh_len].try_into().expect("8 bytes"),
        );
        let len = u32::from_le_bytes(
            body[12 + fh_len..16 + fh_len].try_into().expect("4 bytes"),
        );
        let key = (fh.clone(), offset);
        match op {
            OP_PUT if flag == FLAG_DIRTY => {
                live.insert(key, (LiveState::Dirty, len));
            }
            OP_PUT => {
                // Clean overwrite: server-sourced data replaced the dirty
                // block; nothing left to recover.
                live.remove(&key);
            }
            OP_SET_CLEAN => {
                if let Some(e) = live.get_mut(&key) {
                    e.0 = LiveState::Cleaned;
                }
            }
            OP_SET_DIRTY => {
                live.insert(key, (LiveState::Dirty, len));
            }
            OP_DROP_FILE => {
                live.retain(|(f, _), _| f != &fh);
            }
            OP_COMMIT_FILE => {
                live.retain(|(f, _), (st, _)| f != &fh || *st != LiveState::Cleaned);
            }
            _ => {} // unknown op from a future version: ignore
        }
    }

    /// Truncate any torn tail found by [`recover`](Self::recover) so new
    /// appends start at a record boundary. Call before [`open`].
    pub fn truncate_tail(dir: &Path, report: &RecoveryReport) -> std::io::Result<()> {
        if report.torn_bytes == 0 {
            return Ok(());
        }
        let path = dir.join(JOURNAL_FILE);
        let f = std::fs::OpenOptions::new().write(true).open(&path)?;
        let len = f.metadata()?.len();
        f.set_len(len.saturating_sub(report.torn_bytes))?;
        f.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgfs_net::CrashInjector;

    fn fh(n: u64) -> Fh3 {
        Fh3::from_ino(1, n)
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("sgfs-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn policy() -> DurabilityPolicy {
        DurabilityPolicy { journal: true, fsync_every: 1, compact_min_records: 0 }
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_dirty_puts() {
        let dir = tmp("roundtrip");
        let mut j = Journal::open(&dir, policy(), &[], 0).unwrap();
        j.record_put(&(fh(1), 0), 100, true).unwrap();
        j.record_put(&(fh(1), 32768), 64, true).unwrap();
        j.record_put(&(fh(2), 0), 10, false).unwrap(); // clean, unjournaled
        drop(j);
        let r = Journal::recover(&dir);
        assert_eq!(r.records_replayed, 2);
        assert_eq!(r.torn_bytes, 0);
        let keys: Vec<_> = r.survivors.iter().map(|s| s.key.clone()).collect();
        assert_eq!(keys, vec![(fh(1), 0), (fh(1), 32768)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_clean_still_recovers_commit_releases() {
        let dir = tmp("clean");
        let mut j = Journal::open(&dir, policy(), &[], 0).unwrap();
        j.record_put(&(fh(1), 0), 100, true).unwrap();
        j.record_set_clean(&(fh(1), 0)).unwrap();
        drop(j);
        let r = Journal::recover(&dir);
        assert_eq!(r.survivors.len(), 1, "clean-before-COMMIT still recovered");

        // Next incarnation: the survivor flushes again and this time the
        // COMMIT lands — only then does it leave the recovery set.
        let mut j = Journal::open(&dir, policy(), &r.survivors, r.records_replayed).unwrap();
        j.record_set_clean(&(fh(1), 0)).unwrap();
        j.record_commit_file(&fh(1)).unwrap();
        drop(j);
        let r = Journal::recover(&dir);
        assert!(r.survivors.is_empty(), "COMMIT releases cleaned blocks");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_file_erases_and_clean_put_erases() {
        let dir = tmp("drop");
        let mut j = Journal::open(&dir, policy(), &[], 0).unwrap();
        j.record_put(&(fh(1), 0), 100, true).unwrap();
        j.record_put(&(fh(2), 0), 50, true).unwrap();
        j.record_drop_file(&fh(1)).unwrap();
        // Server-sourced clean data overwrote the dirty block.
        j.record_put(&(fh(2), 0), 50, false).unwrap();
        drop(j);
        let r = Journal::recover(&dir);
        assert!(r.survivors.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_detected_and_truncated() {
        let dir = tmp("torn");
        let mut j = Journal::open(&dir, policy(), &[], 0).unwrap();
        j.record_put(&(fh(1), 0), 100, true).unwrap();
        j.record_put(&(fh(1), 32768), 64, true).unwrap();
        drop(j);
        // Tear the last record mid-payload.
        let path = dir.join(JOURNAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let r = Journal::recover(&dir);
        assert_eq!(r.records_replayed, 1, "tail record discarded");
        assert_eq!(r.survivors.len(), 1);
        assert!(r.torn_bytes > 0);
        Journal::truncate_tail(&dir, &r).unwrap();
        // Appends continue at a record boundary.
        let mut j = Journal::open(&dir, policy(), &r.survivors, r.records_replayed).unwrap();
        j.record_put(&(fh(3), 0), 9, true).unwrap();
        drop(j);
        let r = Journal::recover(&dir);
        assert_eq!(r.records_replayed, 2);
        assert_eq!(r.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_stops_replay_without_panic() {
        let dir = tmp("crc");
        let mut j = Journal::open(&dir, policy(), &[], 0).unwrap();
        j.record_put(&(fh(1), 0), 100, true).unwrap();
        j.record_put(&(fh(2), 0), 50, true).unwrap();
        drop(j);
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip a payload byte of the last record
        std::fs::write(&path, &bytes).unwrap();
        let r = Journal::recover(&dir);
        assert_eq!(r.records_replayed, 1);
        assert_eq!(r.survivors.len(), 1);
        assert!(r.torn_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_file_yields_empty_report() {
        let dir = tmp("garbage");
        std::fs::write(dir.join(JOURNAL_FILE), b"not a journal at all").unwrap();
        let r = Journal::recover(&dir);
        assert!(r.survivors.is_empty());
        assert_eq!(r.records_replayed, 0);
        assert!(r.torn_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_live_state_only() {
        let dir = tmp("compact");
        let pol = DurabilityPolicy { journal: true, fsync_every: 1, compact_min_records: 4 };
        let mut j = Journal::open(&dir, pol, &[], 0).unwrap();
        // 5 records, all live: below the dead-dominate trigger (5 < 10).
        for i in 0..4 {
            j.record_put(&(fh(1), i * 32768), 100, true).unwrap();
        }
        j.record_put(&(fh(2), 0), 64, true).unwrap();
        let size_before = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        // Dropping fh1 leaves 6 records, 1 live → compaction fires.
        j.record_drop_file(&fh(1)).unwrap();
        drop(j);
        let size_after = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert!(size_after < size_before, "compaction shrank the journal");
        let r = Journal::recover(&dir);
        assert_eq!(r.survivors.len(), 1);
        assert_eq!(r.survivors[0].key, (fh(2), 0));
        assert!(!dir.join(JOURNAL_TMP).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_injection_recovers_prefix() {
        let dir = tmp("torn-inject");
        let mut j = Journal::open(&dir, policy(), &[], 0).unwrap();
        j.crash = Some(CrashInjector::at(CrashPoint::TornJournalAppend, 2));
        j.record_put(&(fh(1), 0), 100, true).unwrap();
        let err = j.record_put(&(fh(2), 0), 50, true).unwrap_err();
        assert!(sgfs_net::crash::is_crash(&err));
        drop(j);
        let r = Journal::recover(&dir);
        assert_eq!(r.records_replayed, 1, "torn record never replayed");
        assert_eq!(r.survivors.len(), 1);
        assert_eq!(r.survivors[0].key, (fh(1), 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_namespace_log_recovers_in_order_through_compaction() {
        let dir = tmp("names");
        let pol = DurabilityPolicy { journal: true, fsync_every: 1, compact_min_records: 4 };
        let logged = |n: u64| NameRecord::Logged { fh: fh(n), proc: 9, args: vec![n as u8; 3] };
        let mut j = Journal::open(&dir, pol, &[], 0).unwrap();
        for n in 1..=4 {
            j.record_name(&logged(n)).unwrap();
        }
        let shipped = NameRecord::Shipped { fh: fh(1), server: fh(101), fileid: Some(7) };
        j.record_name(&shipped).unwrap();
        j.record_name(&NameRecord::Cancelled { fh: fh(3) }).unwrap();
        j.record_name(&NameRecord::Sent { fh: fh(4) }).unwrap();
        j.record_name(&NameRecord::Sent { fh: fh(2) }).unwrap();
        j.record_name(&NameRecord::Refused { fh: fh(2) }).unwrap();
        // A shipped name whose last link went is forgotten.
        j.record_name(&logged(5)).unwrap();
        j.record_name(&NameRecord::Sent { fh: fh(5) }).unwrap();
        j.record_name(&NameRecord::Shipped { fh: fh(5), server: fh(105), fileid: None }).unwrap();
        j.record_name(&NameRecord::Cancelled { fh: fh(5) }).unwrap();
        // Enough dead block records to force a compaction.
        for i in 0..8 {
            j.record_put(&(fh(50), i), 10, true).unwrap();
            j.record_drop_file(&fh(50)).unwrap();
        }
        drop(j);
        let r = Journal::recover(&dir);
        let sent = NameRecord::Sent { fh: fh(4) };
        assert_eq!(r.names, vec![shipped, logged(2), logged(4), sent]);
        assert!(r.survivors.is_empty());
        assert!(r.records_replayed < 4 + 2 + 7 + 16, "compacted: {}", r.records_replayed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_compaction_leaves_old_journal_valid() {
        let dir = tmp("compact-crash");
        // min=3 keeps the first two appends below the compaction
        // threshold so the armed kill fires on the third.
        let pol = DurabilityPolicy { journal: true, fsync_every: 1, compact_min_records: 3 };
        let mut j = Journal::open(&dir, pol, &[], 0).unwrap();
        j.record_put(&(fh(1), 0), 100, true).unwrap();
        j.record_drop_file(&fh(1)).unwrap();
        j.crash = Some(CrashInjector::at(CrashPoint::BeforeCompactionRename, 1));
        let err = j.record_put(&(fh(2), 0), 64, true).unwrap_err();
        assert!(sgfs_net::crash::is_crash(&err));
        drop(j);
        // The append itself landed before compaction started; the tmp
        // file is discarded and the old journal replays in full.
        let r = Journal::recover(&dir);
        assert_eq!(r.survivors.len(), 1);
        assert_eq!(r.survivors[0].key, (fh(2), 0));
        assert!(!dir.join(JOURNAL_TMP).exists(), "uncommitted compaction discarded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
