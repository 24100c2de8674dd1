//! PostMark (§6.2.2): the small-file mail/news/web-commerce workload.
//!
//! Three phases, exactly as Katcher's benchmark and the paper configure
//! them: create an initial pool (100 directories, 500 files of 512 B–16 KB),
//! run 1000 transactions (create/delete and read/append, 50/50 each), then
//! delete everything. Mostly metadata operations and small writes.

use crate::Prng;
use sgfs_net::SimClock;
use sgfs_nfsclient::{FsResult, NfsMount, OpenFlags};
use std::sync::Arc;
use std::time::Duration;

/// PostMark parameters (defaults = the paper's).
#[derive(Debug, Clone)]
pub struct PostmarkConfig {
    /// Initial directory count.
    pub dirs: usize,
    /// Initial file count.
    pub files: usize,
    /// Number of transactions.
    pub transactions: usize,
    /// Minimum file size.
    pub min_size: usize,
    /// Maximum file size.
    pub max_size: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for PostmarkConfig {
    fn default() -> Self {
        Self {
            dirs: 100,
            files: 500,
            transactions: 1000,
            min_size: 512,
            max_size: 16 * 1024,
            seed: 0xBEEF,
        }
    }
}

/// Per-phase runtimes.
#[derive(Debug, Clone)]
pub struct PostmarkResult {
    /// Pool creation.
    pub creation: Duration,
    /// Transaction phase.
    pub transaction: Duration,
    /// Pool deletion.
    pub deletion: Duration,
    /// Total.
    pub total: Duration,
    /// Files created, each deleted again before the run ends.
    pub created: usize,
}

fn dir_of(i: usize, dirs: usize) -> String {
    format!("/pm{:03}", i % dirs)
}

fn path_of(i: usize, dirs: usize) -> String {
    format!("{}/f{:05}", dir_of(i, dirs), i)
}

/// Run PostMark on the mounted filesystem.
pub fn run(
    mount: &mut NfsMount,
    clock: &Arc<SimClock>,
    cfg: &PostmarkConfig,
) -> FsResult<PostmarkResult> {
    let mut rng = Prng::new(cfg.seed);

    // --- creation phase ---
    let t0 = clock.now();
    for d in 0..cfg.dirs {
        mount.mkdir(&format!("/pm{d:03}"), 0o755)?;
    }
    // `live[i]` tracks whether file i currently exists.
    let mut live = vec![false; cfg.files + cfg.transactions];
    let mut next_new = cfg.files;
    for (i, alive) in live.iter_mut().enumerate().take(cfg.files) {
        let size = rng.range(cfg.min_size, cfg.max_size);
        mount.write_file(&path_of(i, cfg.dirs), &rng.bytes(size))?;
        *alive = true;
    }
    let creation = clock.now() - t0;

    // --- transaction phase ---
    let t0 = clock.now();
    let mut alive: Vec<usize> = (0..cfg.files).collect();
    for _ in 0..cfg.transactions {
        // Pair 1: create or delete (equal probability).
        if rng.below(2) == 0 || alive.is_empty() {
            let id = next_new;
            next_new += 1;
            let size = rng.range(cfg.min_size, cfg.max_size);
            mount.write_file(&path_of(id, cfg.dirs), &rng.bytes(size))?;
            alive.push(id);
        } else {
            let pick = rng.below(alive.len());
            let id = alive.swap_remove(pick);
            mount.unlink(&path_of(id, cfg.dirs))?;
        }
        // Pair 2: read or append (equal probability).
        if alive.is_empty() {
            continue;
        }
        let id = alive[rng.below(alive.len())];
        let path = path_of(id, cfg.dirs);
        if rng.below(2) == 0 {
            let _ = mount.read_file(&path)?;
        } else {
            let fd = mount.open(
                &path,
                OpenFlags { read: true, write: true, ..Default::default() },
                0,
            )?;
            let size = mount.stat(&path)?.size;
            let extra = rng.range(cfg.min_size / 2, cfg.min_size.max(2048));
            mount.pwrite(fd, size, &rng.bytes(extra))?;
            mount.close(fd)?;
        }
    }
    let transaction = clock.now() - t0;

    // --- deletion phase ---
    let t0 = clock.now();
    for id in alive {
        mount.unlink(&path_of(id, cfg.dirs))?;
    }
    for d in 0..cfg.dirs {
        mount.rmdir(&format!("/pm{d:03}"))?;
    }
    let deletion = clock.now() - t0;

    Ok(PostmarkResult {
        creation,
        transaction,
        deletion,
        total: creation + transaction + deletion,
        created: next_new,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgfs::session::{GridWorld, Session, SessionParams, SetupKind};

    #[test]
    fn postmark_leaves_filesystem_empty() {
        let world = GridWorld::new();
        let mut session =
            Session::build(&world, &SessionParams::lan(SetupKind::NfsV3)).unwrap();
        let cfg = PostmarkConfig {
            dirs: 5,
            files: 30,
            transactions: 60,
            ..Default::default()
        };
        let clock = session.clock().clone();
        let res = run(&mut session.mount, &clock, &cfg).unwrap();
        assert!(res.total >= res.creation + res.transaction);
        assert!(session.mount.readdir("/").unwrap().is_empty(), "all dirs deleted");
        session.finish().unwrap();
    }

    #[test]
    fn postmark_runs_on_sgfs_stack() {
        use sgfs::config::SecurityLevel;
        let world = GridWorld::new();
        let mut session = Session::build(
            &world,
            &SessionParams::lan(SetupKind::Sgfs(SecurityLevel::StrongCipher)),
        )
        .unwrap();
        let cfg = PostmarkConfig { dirs: 3, files: 15, transactions: 30, ..Default::default() };
        let clock = session.clock().clone();
        run(&mut session.mount, &clock, &cfg).unwrap();
        session.finish().unwrap();
    }
}
