//! Durability-cost benchmark for the write-ahead journaled disk cache,
//! written to `results/BENCH_journal.json`.
//!
//! Three measurements:
//!
//! 1. **Append tax** — microseconds per dirty-block `put` into the disk
//!    store with the journal off (the pre-journal baseline), with the
//!    journal on but unsynced, and with a periodic fsync cadence. The
//!    gate: the unsynced journal may add at most 1 ms per put — it is one
//!    small sequential append against a full block write.
//! 2. **Recovery cost** — milliseconds to replay the journal left by the
//!    journaled run and re-admit every survivor (the restart-time price
//!    of crash consistency), and the replay rate in records/s.
//! 3. **Compaction** — flush cycles (put → clean → commit) against a
//!    small compaction threshold: how many compactions fire and how
//!    small the journal stays.

use sgfs::config::DurabilityPolicy;
use sgfs::proxy::blockstore::{BlockStore, DiskStore};
use sgfs_bench::RunOpts;
use sgfs_nfs3::Fh3;
use sgfs_obs::{Emitter, Hop};
use std::path::PathBuf;
use std::time::Instant;

const FILES: u64 = 8;

#[derive(serde::Serialize)]
struct AppendResult {
    blocks: usize,
    block_bytes: usize,
    baseline_us_per_put: f64,
    journaled_us_per_put: f64,
    fsync_every: u32,
    fsynced_us_per_put: f64,
    /// Added journal cost per put (unsynced), in microseconds.
    journal_tax_us: f64,
    threshold_us: f64,
}

#[derive(serde::Serialize)]
struct RecoveryResult {
    survivors: usize,
    records_replayed: u64,
    recovery_ms: f64,
    replay_records_s: f64,
}

#[derive(serde::Serialize)]
struct CompactionResult {
    cycles: usize,
    blocks_per_cycle: usize,
    appends: u64,
    compactions: u64,
    final_wal_bytes: u64,
    total_ms: f64,
}

#[derive(serde::Serialize)]
struct BenchReport {
    append: AppendResult,
    recovery: RecoveryResult,
    compaction: CompactionResult,
}

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sgfs-journal-bench-{tag}-{}", std::process::id()))
}

/// Seconds to put `blocks` dirty blocks of `block_bytes` through `store`.
fn put_run(store: &mut DiskStore, blocks: usize, block_bytes: usize) -> f64 {
    let data = vec![0xABu8; block_bytes];
    let start = Instant::now();
    for i in 0..blocks as u64 {
        let fh = Fh3::from_ino(1, i % FILES);
        store.put((fh, (i / FILES) * block_bytes as u64), &data, true).expect("put");
    }
    start.elapsed().as_secs_f64()
}

fn bench_append(opts: &RunOpts) -> (AppendResult, PathBuf) {
    let blocks = if opts.quick { 2_000 } else { 16_000 };
    let block_bytes = 4096;
    let fsync_every = 8;

    let baseline_dir = bench_dir("baseline");
    let _ = std::fs::remove_dir_all(&baseline_dir);
    let mut baseline_store = DiskStore::new(baseline_dir).expect("baseline store");
    let baseline = put_run(&mut baseline_store, blocks, block_bytes);
    drop(baseline_store);

    let fsync_dir = bench_dir("fsync");
    let _ = std::fs::remove_dir_all(&fsync_dir);
    let policy = DurabilityPolicy { journal: true, fsync_every, compact_min_records: 0 };
    let (mut fsync_store, _) =
        DiskStore::with_durability(fsync_dir.clone(), policy, Emitter::detached("client"), None)
            .expect("fsynced store");
    let fsynced = put_run(&mut fsync_store, blocks, block_bytes);
    drop(fsync_store);
    let _ = std::fs::remove_dir_all(&fsync_dir);

    // The unsynced journaled run goes last and its directory is kept: it
    // is the recovery benchmark's input.
    let wal_dir = bench_dir("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let policy = DurabilityPolicy { journal: true, fsync_every: 0, compact_min_records: 0 };
    let (mut wal_store, _) =
        DiskStore::with_durability(wal_dir.clone(), policy, Emitter::detached("client"), None)
            .expect("journaled store");
    let journaled = put_run(&mut wal_store, blocks, block_bytes);
    drop(wal_store);

    let per = 1e6 / blocks as f64;
    (
        AppendResult {
            blocks,
            block_bytes,
            baseline_us_per_put: baseline * per,
            journaled_us_per_put: journaled * per,
            fsync_every,
            fsynced_us_per_put: fsynced * per,
            journal_tax_us: (journaled - baseline) * per,
            threshold_us: 1_000.0,
        },
        wal_dir,
    )
}

fn bench_recovery(wal_dir: PathBuf) -> RecoveryResult {
    let policy = DurabilityPolicy { journal: true, fsync_every: 0, compact_min_records: 0 };
    let start = Instant::now();
    let (store, report) =
        DiskStore::with_durability(wal_dir.clone(), policy, Emitter::detached("client"), None)
            .expect("recovery");
    let recovery_ms = start.elapsed().as_secs_f64() * 1_000.0;
    drop(store);
    let _ = std::fs::remove_dir_all(&wal_dir);
    RecoveryResult {
        survivors: report.survivors.len(),
        records_replayed: report.records_replayed,
        recovery_ms,
        replay_records_s: report.records_replayed as f64 / (recovery_ms / 1_000.0),
    }
}

fn bench_compaction(opts: &RunOpts) -> CompactionResult {
    let cycles = if opts.quick { 32 } else { 128 };
    let blocks_per_cycle = 64;
    let dir = bench_dir("compact");
    let _ = std::fs::remove_dir_all(&dir);
    let policy = DurabilityPolicy { journal: true, fsync_every: 0, compact_min_records: 256 };
    let stats = Emitter::detached("client");
    let (mut store, _) = DiskStore::with_durability(dir.clone(), policy, stats.clone(), None)
        .expect("compaction store");
    let fh = Fh3::from_ino(1, 1);
    let data = vec![0xCDu8; 4096];
    let start = Instant::now();
    for _ in 0..cycles {
        // One write-back flush cycle: dirty puts, WRITE acks, COMMIT.
        for b in 0..blocks_per_cycle as u64 {
            store.put((fh.clone(), b * 4096), &data, true).expect("put");
        }
        for b in 0..blocks_per_cycle as u64 {
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
    CompactionResult {
        cycles,
        blocks_per_cycle,
        appends: stats.journal_appends(),
        compactions: stats.count(Hop::JournalCompact),
        final_wal_bytes,
        total_ms,
    }
}

fn main() {
    let opts = RunOpts::parse();

    let (append, wal_dir) = bench_append(&opts);
    println!(
        "append:     baseline {:>6.1} us/put   journaled {:>6.1} us/put   \
         fsync/{} {:>7.1} us/put   tax {:+.1} us",
        append.baseline_us_per_put,
        append.journaled_us_per_put,
        append.fsync_every,
        append.fsynced_us_per_put,
        append.journal_tax_us
    );

    let recovery = bench_recovery(wal_dir);
    println!(
        "recovery:   {} records -> {} survivors in {:.2} ms ({:.0} records/s)",
        recovery.records_replayed,
        recovery.survivors,
        recovery.recovery_ms,
        recovery.replay_records_s
    );

    let compaction = bench_compaction(&opts);
    println!(
        "compaction: {} cycles, {} appends, {} compactions, final wal {} B in {:.1} ms",
        compaction.cycles,
        compaction.appends,
        compaction.compactions,
        compaction.final_wal_bytes,
        compaction.total_ms
    );

    let gate_ok = append.journal_tax_us <= append.threshold_us && compaction.compactions > 0;
    let report = BenchReport { append, recovery, compaction };
    sgfs_bench::save_json("BENCH_journal", &report);

    if !gate_ok {
        eprintln!(
            "FAIL: journal tax {:.1} us/put (limit {:.0}) or no compaction fired ({})",
            report.append.journal_tax_us,
            report.append.threshold_us,
            report.compaction.compactions
        );
        std::process::exit(1);
    }
}
