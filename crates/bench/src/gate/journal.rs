//! Durability cost of the write-ahead journaled disk cache.
//!
//! 1. **Append tax** — microseconds per dirty-block `put` into the disk
//!    store with the journal off (the pre-journal baseline), with the
//!    journal on but unsynced, and with a periodic fsync cadence. The
//!    unsynced journal may add at most 1 ms per put — it is one small
//!    sequential append against a full block write.
//! 2. **Recovery cost** — milliseconds to replay the journal left by the
//!    journaled run and re-admit every survivor (the restart-time price
//!    of crash consistency), and the replay rate in records/s.
//! 3. **Compaction** — flush cycles (put → clean → commit) against a
//!    small compaction threshold: compaction must fire, and how small
//!    the journal stays.

use super::Check;
use crate::RunOpts;
use sgfs::config::DurabilityPolicy;
use sgfs::proxy::blockstore::{BlockStore, DiskStore};
use sgfs_nfs3::Fh3;
use sgfs_obs::{Emitter, Hop};
use std::path::PathBuf;
use std::time::Instant;

const FILES: u64 = 8;
const FSYNC_EVERY: u32 = 8;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgfs-journal-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journaled_store(dir: PathBuf, fsync_every: u32, compact_min_records: u64) -> DiskStore {
    let policy = DurabilityPolicy { journal: true, fsync_every, compact_min_records };
    DiskStore::with_durability(dir, policy, Emitter::detached("client"), None)
        .expect("journaled store")
        .0
}

/// Microseconds per put of `blocks` dirty blocks of `block_bytes`.
fn put_run(store: &mut DiskStore, blocks: usize, block_bytes: usize) -> f64 {
    let data = vec![0xABu8; block_bytes];
    let start = Instant::now();
    for i in 0..blocks as u64 {
        let fh = Fh3::from_ino(1, i % FILES);
        store.put((fh, (i / FILES) * block_bytes as u64), &data, true).expect("put");
    }
    start.elapsed().as_secs_f64() * 1e6 / blocks as f64
}

/// The append rows, and the unsynced run's directory: the recovery
/// measurement's input.
fn append(opts: &RunOpts) -> (Vec<Check>, PathBuf) {
    let blocks = if opts.quick { 2_000 } else { 16_000 };
    let block_bytes = 4096;

    let baseline_dir = bench_dir("baseline");
    let baseline =
        put_run(&mut DiskStore::new(baseline_dir).expect("baseline store"), blocks, block_bytes);

    let fsync_dir = bench_dir("fsync");
    let fsynced =
        put_run(&mut journaled_store(fsync_dir.clone(), FSYNC_EVERY, 0), blocks, block_bytes);
    let _ = std::fs::remove_dir_all(&fsync_dir);

    let wal_dir = bench_dir("wal");
    let journaled = put_run(&mut journaled_store(wal_dir.clone(), 0, 0), blocks, block_bytes);

    let rows = vec![
        Check::report("baseline_us_per_put", baseline, "us"),
        Check::report("journaled_us_per_put", journaled, "us"),
        Check::report("fsynced_us_per_put", fsynced, "us"),
        Check::at_most("journal_tax_us", journaled - baseline, "us", 1_000.0),
    ];
    (rows, wal_dir)
}

fn recovery(wal_dir: PathBuf) -> Vec<Check> {
    let policy = DurabilityPolicy { journal: true, fsync_every: 0, compact_min_records: 0 };
    let start = Instant::now();
    let (store, report) =
        DiskStore::with_durability(wal_dir.clone(), policy, Emitter::detached("client"), None)
            .expect("recovery");
    let recovery_s = start.elapsed().as_secs_f64();
    drop(store);
    let _ = std::fs::remove_dir_all(&wal_dir);
    vec![
        Check::report("recovery_records", report.records_replayed as f64, "count"),
        Check::report("recovery_survivors", report.survivors.len() as f64, "count"),
        Check::report("recovery_ms", recovery_s * 1_000.0, "ms"),
        Check::report("replay_records_s", report.records_replayed as f64 / recovery_s, "1/s"),
    ]
}

fn compaction(opts: &RunOpts) -> Vec<Check> {
    let cycles = if opts.quick { 32 } else { 128 };
    let blocks_per_cycle = 64u64;
    let dir = bench_dir("compact");
    let policy = DurabilityPolicy { journal: true, fsync_every: 0, compact_min_records: 256 };
    let stats = Emitter::detached("client");
    let (mut store, _) = DiskStore::with_durability(dir.clone(), policy, stats.clone(), None)
        .expect("compaction store");
    let fh = Fh3::from_ino(1, 1);
    let data = vec![0xCDu8; 4096];
    let start = Instant::now();
    for _ in 0..cycles {
        // One write-back flush cycle: dirty puts, WRITE acks, COMMIT.
        for b in 0..blocks_per_cycle {
            store.put((fh.clone(), b * 4096), &data, true).expect("put");
        }
        for b in 0..blocks_per_cycle {
            store.set_clean(&(fh.clone(), b * 4096)).expect("set_clean");
        }
        store.commit_file(&fh).expect("commit");
    }
    let total_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let final_wal_bytes = std::fs::metadata(dir.join(sgfs::proxy::journal::JOURNAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        Check::report("compaction_appends", stats.journal_appends() as f64, "count"),
        Check::at_least("compactions", stats.count(Hop::JournalCompact) as f64, "count", 1.0),
        Check::report("final_wal_bytes", final_wal_bytes as f64, "B"),
        Check::report("compaction_cycles_ms", total_ms, "ms"),
    ]
}

pub fn suite(opts: &RunOpts) -> Vec<Check> {
    let (mut rows, wal_dir) = append(opts);
    rows.extend(recovery(wal_dir));
    rows.extend(compaction(opts));
    rows
}
