//! Deterministic kill-point injection for crash-consistency testing.
//!
//! The fault plane ([`FaultInjector`](crate::FaultInjector)) breaks the
//! *wire*; this module breaks the *process*. A [`CrashInjector`] arms one
//! [`CrashPoint`] — a named instant in the write-back cache's durability
//! protocol (spool write, journal append, fsync, compaction rename,
//! flush commit, namespace ship) — and when execution reaches that point for the N-th
//! time, every subsequent durability operation fails with a sentinel
//! error, freezing the on-disk state exactly as a killed process would
//! leave it. The driver observes the error, abandons the cache, and
//! "restarts" by recovering a fresh store from the same spool directory.
//!
//! Like the fault injector, schedules are drawn from a SplitMix64 seed so
//! a failing kill-point × schedule combination replays exactly.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Message prefix of every injected-crash error (see [`is_crash`]).
pub const CRASH_SENTINEL: &str = "injected crash";

/// Named instants in the durability protocol where a kill can be armed.
///
/// The points cover every ordering edge the recovery invariant depends
/// on: before/after the spool write, before/within/after the journal
/// append, around fsync and compaction, and around the flush COMMIT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before the block payload reaches the spool file.
    BeforeSpoolWrite,
    /// After the spool write, before the journal records it.
    AfterSpoolWrite,
    /// Before a journal record is appended.
    BeforeJournalAppend,
    /// Mid-append: only a seeded prefix of the record reaches the file
    /// (the torn-write case recovery must detect).
    TornJournalAppend,
    /// After the record is fully in the file, before any fsync.
    AfterJournalAppend,
    /// Before the journal fsync that would make appends durable.
    BeforeJournalFsync,
    /// While the compacted journal is being rewritten (tmp file partial).
    DuringCompaction,
    /// After the compacted file is written, before the rename commits it.
    BeforeCompactionRename,
    /// Mid-flush: blocks marked clean locally, COMMIT never sent.
    FlushBeforeCommit,
    /// After the server's COMMIT reply, before the journal learns of it.
    FlushAfterCommit,
    /// Between two dependency levels of a namespace ship: the parents
    /// are made on the server and journaled, their children not yet sent.
    ShipBetweenLevels,
    /// After a namespace ship's replies, before the journal learns which
    /// names the server made.
    ShipAfterReply,
}

/// Every kill point, for matrix iteration.
pub const ALL_CRASH_POINTS: [CrashPoint; 12] = [
    CrashPoint::BeforeSpoolWrite,
    CrashPoint::AfterSpoolWrite,
    CrashPoint::BeforeJournalAppend,
    CrashPoint::TornJournalAppend,
    CrashPoint::AfterJournalAppend,
    CrashPoint::BeforeJournalFsync,
    CrashPoint::DuringCompaction,
    CrashPoint::BeforeCompactionRename,
    CrashPoint::FlushBeforeCommit,
    CrashPoint::FlushAfterCommit,
    CrashPoint::ShipBetweenLevels,
    CrashPoint::ShipAfterReply,
];

/// Arms one kill point and trips every durability operation once hit.
pub struct CrashInjector {
    point: CrashPoint,
    /// Countdown of armed-point visits remaining before the trip.
    remaining: AtomicU32,
    tripped: AtomicBool,
    /// Seed material for torn-append prefix lengths.
    rng: AtomicU32,
}

impl CrashInjector {
    /// Arm `point` to fire on its `nth` visit (1 = first).
    pub fn at(point: CrashPoint, nth: u32) -> Arc<Self> {
        Arc::new(Self {
            point,
            remaining: AtomicU32::new(nth.max(1)),
            tripped: AtomicBool::new(false),
            rng: AtomicU32::new(0x9E37_79B9),
        })
    }

    /// Arm `point` with the visit count and tear positions drawn from
    /// `seed` (SplitMix64, like `FaultInjector`), so one seed defines one
    /// reproducible schedule.
    pub fn seeded(point: CrashPoint, seed: u64) -> Arc<Self> {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Arc::new(Self {
            point,
            remaining: AtomicU32::new(1 + (z % 4) as u32),
            tripped: AtomicBool::new(false),
            rng: AtomicU32::new((z >> 32) as u32 | 1),
        })
    }

    /// The armed kill point.
    pub fn point(&self) -> CrashPoint {
        self.point
    }

    fn crash_error(&self) -> io::Error {
        io::Error::other(format!("{CRASH_SENTINEL} at {:?}", self.point))
    }

    /// Execution reached `point`. Returns the sentinel error when this
    /// visit trips the kill (or the injector already tripped — a dead
    /// process performs no further I/O).
    pub fn hit(&self, point: CrashPoint) -> io::Result<()> {
        if self.tripped.load(Ordering::Acquire) {
            return Err(self.crash_error());
        }
        if point != self.point {
            return Ok(());
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.tripped.store(true, Ordering::Release);
            return Err(self.crash_error());
        }
        Ok(())
    }

    /// Torn-append variant of [`hit`](Self::hit): when the
    /// `TornJournalAppend` kill fires against a record of `len` bytes, the
    /// caller must write only the returned prefix length and then fail.
    /// `Ok(())` means write the whole record and continue.
    pub fn hit_torn(&self, len: usize) -> Result<(), (usize, io::Error)> {
        match self.hit(CrashPoint::TornJournalAppend) {
            Ok(()) => Ok(()),
            Err(e) => {
                // xorshift32 keeps successive tears (already-tripped
                // appends) deterministic too.
                let mut x = self.rng.load(Ordering::Relaxed);
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                self.rng.store(x, Ordering::Relaxed);
                Err(((x as usize) % len.max(1), e))
            }
        }
    }

    /// Whether the kill has fired (the "process" is dead).
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }
}

/// Whether `e` is an injected crash (as opposed to a genuine I/O error a
/// degraded cache should absorb).
pub fn is_crash(e: &io::Error) -> bool {
    e.to_string().contains(CRASH_SENTINEL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_nth_visit_then_stays_dead() {
        let inj = CrashInjector::at(CrashPoint::AfterJournalAppend, 3);
        assert!(inj.hit(CrashPoint::AfterJournalAppend).is_ok());
        assert!(inj.hit(CrashPoint::BeforeSpoolWrite).is_ok(), "other points pass");
        assert!(inj.hit(CrashPoint::AfterJournalAppend).is_ok());
        let err = inj.hit(CrashPoint::AfterJournalAppend).unwrap_err();
        assert!(is_crash(&err));
        assert!(inj.tripped());
        // Dead process: every later operation fails, any point.
        assert!(inj.hit(CrashPoint::BeforeSpoolWrite).is_err());
        assert!(inj.hit(CrashPoint::FlushAfterCommit).is_err());
    }

    #[test]
    fn seeded_schedules_replay() {
        let a = CrashInjector::seeded(CrashPoint::TornJournalAppend, 7);
        let b = CrashInjector::seeded(CrashPoint::TornJournalAppend, 7);
        let fire = |inj: &CrashInjector| loop {
            if let Err((prefix, _)) = inj.hit_torn(100) {
                return prefix;
            }
        };
        assert_eq!(fire(&a), fire(&b), "same seed, same tear position");
        assert!(fire(&a) < 100);
    }

    #[test]
    fn torn_prefix_is_shorter_than_record() {
        let inj = CrashInjector::at(CrashPoint::TornJournalAppend, 1);
        let (prefix, e) = inj.hit_torn(16).unwrap_err();
        assert!(prefix < 16);
        assert!(is_crash(&e));
    }
}
