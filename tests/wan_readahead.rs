//! Sequential read-ahead is a property of every cached SGFS session, not
//! a depth someone sets: `SessionParams::wan` with `readahead` left alone
//! must hide most of a cold sequential scan's round trips, ask the server
//! for each block exactly once and for nothing past the end of the file,
//! and stay out of the way of every other access pattern.
//!
//! Upstream traffic is counted without a tracer: every record the client
//! proxy puts on the wire is either a forwarded downstream call
//! (`forwarded_by_proc`) or one it originated itself, and on a read-only
//! session the only calls it originates are speculative READs — so
//! `served − Σ forwarded` on the session's private shard core is the
//! number of speculative READs.

use sgfs::config::SecurityLevel;
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind};
use sgfs_nfs3::proc::procnum;
use sgfs_nfsclient::{NfsMount, OpenFlags};
use sgfs_vfs::{UserContext, Vfs};
use std::time::Duration;

const RTT: Duration = Duration::from_millis(40);
const BLOCK: usize = 32 * 1024;
const BLOCKS: usize = 64;

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i / BLOCK) as u8 ^ (i % 251) as u8 ^ salt).collect()
}

/// Put `data` at `/GFS/<path>` on the server, world-readable.
fn preload(vfs: &Vfs, path: &str, data: &[u8]) {
    let root = UserContext::root();
    let (dir, name) = path.rsplit_once('/').unwrap_or(("", path));
    let dir = vfs.mkdir_p(&format!("/GFS/{dir}"), 0o755, &root).expect("mkdir -p");
    let file = vfs.create(dir.ino, name, 0o644, false, &root).expect("create");
    vfs.write(file.ino, 0, data, &root).expect("preload");
}

/// What one read-only workload cost.
struct Cost {
    /// Time on the session's `SimClock` inside `work`.
    elapsed: Duration,
    prefetch_hits: u64,
    /// READs the kernel client's calls were forwarded as.
    demand_reads: u64,
    /// READs the proxy asked for on its own.
    speculative_reads: u64,
}

/// Mount a cold 40 ms sgfs-gcm session over `files`, run `work`, and
/// account for what went upstream.
fn session_cost(
    readahead: Option<u32>,
    files: &[(&str, &[u8])],
    work: impl FnOnce(&mut NfsMount),
) -> Cost {
    let world = GridWorld::new();
    let mut params = SessionParams::wan(SetupKind::Sgfs(SecurityLevel::AeadCipher), RTT);
    params.readahead = readahead;
    let mut session = Session::build(&world, &params).expect("WAN session");
    for (path, data) in files {
        preload(session.server().vfs(), path, data);
    }
    let clock = session.clock().clone();
    let shards = session.shard_server().clone();
    let stats = session.client_proxy_stats().expect("proxied stack").clone();

    let t0 = clock.now();
    work(&mut session.mount);
    let elapsed = clock.now() - t0;

    let (_, forwarded) = session
        .finish_with(|proxy| proxy.forwarded_by_proc())
        .expect("teardown");
    let forwarded = forwarded.expect("proxied stack");
    let upstream = shards.stats().served;
    Cost {
        elapsed,
        prefetch_hits: stats.prefetch_hits(),
        demand_reads: forwarded[procnum::READ as usize],
        speculative_reads: upstream - forwarded.iter().sum::<u64>(),
    }
}

/// Read `/scan.bin` front to back in `BLOCK`-sized calls.
fn scan(mount: &mut NfsMount, expect: &[u8]) {
    let fd = mount.open("/scan.bin", OpenFlags::rdonly(), 0).expect("open");
    for want in expect.chunks(BLOCK) {
        assert_eq!(mount.read(fd, BLOCK).expect("read"), want, "scan returned the wrong bytes");
    }
    assert!(mount.read(fd, BLOCK).expect("read at EOF").is_empty());
    mount.close(fd).expect("close");
}

#[test]
fn a_cold_sequential_scan_is_read_ahead_by_default() {
    let data = pattern(BLOCKS * BLOCK, 0x11);
    let cost = session_cost(None, &[("scan.bin", &data)], |mount| scan(mount, &data));
    let serial = RTT * BLOCKS as u32;

    // Exactly one READ per block crossed the WAN: none past EOF, none
    // twice, whichever path — demand or speculative — asked for it.
    assert_eq!(cost.demand_reads + cost.speculative_reads, BLOCKS as u64);
    assert!(
        cost.prefetch_hits >= BLOCKS as u64 - 4,
        "only the ramp's first blocks may miss: {} hits",
        cost.prefetch_hits
    );
    // Each host keeps its own clock, so a window of READs shares one
    // round trip: after the horizon's ramp (1, 2, 4, 8 blocks) the scan
    // runs at a window per RTT, ≈ 6.4 blocks per RTT over 64 blocks. Half
    // of serial leaves room for the ramp; a scan that exposes every round
    // trip is at `serial`.
    let per_rtt = BLOCKS as f64 / (cost.elapsed.as_secs_f64() / RTT.as_secs_f64());
    eprintln!("cold scan: {BLOCKS} blocks in {:?}, {per_rtt:.2} blocks per RTT", cost.elapsed);
    assert!(
        cost.elapsed <= serial / 2,
        "a read-ahead scan of {BLOCKS} blocks took {:?}; serial is {serial:?}",
        cost.elapsed
    );
}

#[test]
fn readahead_off_exposes_one_round_trip_per_block() {
    let data = pattern(BLOCKS / 4 * BLOCK, 0x22);
    let cost = session_cost(Some(0), &[("scan.bin", &data)], |mount| scan(mount, &data));
    assert_eq!(cost.demand_reads, BLOCKS as u64 / 4);
    assert_eq!(cost.speculative_reads, 0);
    assert_eq!(cost.prefetch_hits, 0);
    assert!(cost.elapsed >= RTT * (BLOCKS as u32 / 4), "only {:?}", cost.elapsed);
}

#[test]
fn scattered_reads_of_a_large_file_are_never_read_ahead() {
    let data = pattern(BLOCKS * BLOCK, 0x33);
    // Fixed scatter: no block follows its predecessor, none is block 0.
    let order = [41usize, 7, 58, 23, 12, 50, 3, 33, 19, 62, 27, 9];
    let cost = session_cost(None, &[("scan.bin", &data)], |mount| {
        let fd = mount.open("/scan.bin", OpenFlags::rdonly(), 0).expect("open");
        for block in order {
            let got = mount.pread(fd, (block * BLOCK) as u64, BLOCK).expect("pread");
            assert_eq!(got, data[block * BLOCK..(block + 1) * BLOCK], "block {block}");
        }
        mount.close(fd).expect("close");
    });
    assert_eq!(cost.demand_reads, order.len() as u64);
    assert_eq!(cost.speculative_reads, 0);
    assert_eq!(cost.prefetch_hits, 0);
}

#[test]
fn a_directory_of_small_files_is_never_read_ahead() {
    let files: Vec<(String, Vec<u8>)> =
        (0..12u8).map(|i| (format!("small/f{i}"), pattern(4096, i))).collect();
    let borrowed: Vec<(&str, &[u8])> =
        files.iter().map(|(p, d)| (p.as_str(), d.as_slice())).collect();
    let cost = session_cost(None, &borrowed, |mount| {
        for (path, data) in &files {
            assert_eq!(&mount.read_file(&format!("/{path}")).expect("read"), data);
        }
    });
    assert_eq!(cost.demand_reads, files.len() as u64);
    assert_eq!(cost.speculative_reads, 0);
    assert_eq!(cost.prefetch_hits, 0);
}
