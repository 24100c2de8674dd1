//! A session adds no thread of its own. On a shared server core the
//! process runs the shard loops and nothing else, however many sessions
//! are mounted: the client proxy runs on the thread that makes the NFS
//! call, its upstream pipelines are driven by the threads that wait on
//! them, and read-ahead is submitted and landed from there.
//!
//! One `#[test]` in this binary on purpose: the assertion reads the
//! process-wide count in `/proc/self/status`, which must be its own.

use sgfs::config::SecurityLevel;
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind};
use sgfs_oncrpc::{process_thread_count, ShardServer};
use sgfs_vfs::UserContext;
use std::time::{Duration, Instant};

/// Thread exits trail their join by a moment in `/proc`: poll until the
/// count reads `want` (or give up and return what it reads).
fn threads_settling_to(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = process_thread_count().expect("checked by the caller");
        if now == want || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn sessions_on_shared_pools_add_zero_threads() {
    let Some(bare) = process_thread_count() else {
        return; // no /proc/self/status on this platform
    };
    const SESSIONS: usize = 8;
    const SHARDS: usize = 2;
    const SCAN: usize = 256 * 1024;
    let world = GridWorld::new();
    let spool = std::env::temp_dir().join(format!("sgfs-session-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);

    let shards = ShardServer::new(SHARDS);
    let served = bare + SHARDS;
    assert_eq!(process_thread_count(), Some(served), "two shard loops");

    let mut sessions: Vec<Session> = (0..SESSIONS)
        .map(|i| {
            let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::AeadCipher));
            params.shard_server = Some(shards.clone());
            // Read-ahead rides the proxy's attribute cache, so give the
            // proxy one.
            params.disk_cache_dir = Some(spool.join(i.to_string()));
            params.readahead = Some(4);
            Session::build(&world, &params).expect("session")
        })
        .collect();
    assert_eq!(process_thread_count(), Some(served), "{SESSIONS} sessions built");

    for (i, session) in sessions.iter_mut().enumerate() {
        // A file the client has never seen, scanned cold: the sequential
        // READs are what read-ahead runs ahead of.
        let root = UserContext::root();
        let vfs = session.server().vfs();
        let gfs = vfs.resolve("/GFS", &root).expect("export");
        let f = vfs.create(gfs.ino, "scan.bin", 0o644, false, &root).expect("create");
        vfs.write(f.ino, 0, &vec![i as u8; SCAN], &root).expect("preload");
        assert_eq!(session.mount.read_file("/scan.bin").expect("scan"), vec![i as u8; SCAN]);

        let data: Vec<u8> = (0..100_000).map(|b| (b % 251) as u8 ^ i as u8).collect();
        session.mount.write_file("/mix.bin", &data).expect("write");
        assert_eq!(session.mount.read_file("/mix.bin").expect("read"), data);
        assert_eq!(session.mount.stat("/mix.bin").expect("stat").size, data.len() as u64);

        let stats = session.client_proxy_stats().expect("proxied stack");
        assert!(stats.prefetch_hits() > 0, "session {i}: read-ahead landed part of the scan");
    }
    assert_eq!(process_thread_count(), Some(served), "{SESSIONS} sessions driven");

    for session in sessions {
        session.finish().expect("teardown");
    }
    assert_eq!(process_thread_count(), Some(served), "teardown ends no thread either");
    drop(shards);
    assert_eq!(threads_settling_to(bare), bare, "only the shard loops ever had threads");
    let _ = std::fs::remove_dir_all(&spool);
}
