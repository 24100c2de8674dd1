//! Fault-matrix tests for the fail-safe upstream channel.
//!
//! A seed-driven [`FaultInjector`] subjects the pipelined channel to
//! mid-record EOFs, partial writes, connect refusals and latency spikes;
//! the properties checked are the recovery contract of DESIGN.md:
//!
//! 1. Every `PendingReply::wait` terminates (success, clean error, or
//!    deadline) — no fault schedule may hang a caller.
//! 2. For idempotent calls the replies a faulted run produces are
//!    byte-identical to the fault-free run.
//! 3. A COMMIT never reaches the server before every WRITE it covers,
//!    even when the WRITEs were replayed across a reconnection; an NFS
//!    error status in a write-back reply fails that file, and fails over
//!    only a replica that alone answered it.
//! 4. A changed write verifier forces re-transmission of unstable WRITEs
//!    (the NFSv3 crash-recovery contract).
//! 5. The ACCESS cache answers only for bits it has actually checked.
//! 6. On a GTLS channel, byte corruption is detected by the record MAC
//!    and cured by a reconnect + handshake (plain transports cannot see
//!    corruption — TCP checksums are the only line of defense there, so
//!    the plain-transport matrix excludes the corruption fault).
//! 7. In a striped session, any seeded fault schedule on one upstream
//!    member leaves traffic on the other members unperturbed: every read
//!    still returns fault-free bytes (recovered in place or failed over
//!    to the block's surviving replica), and no healthy member is ever
//!    re-dialed or marked down.
//! 8. A mid-handshake fault surfaces as a value-level dial error and the
//!    next dial recovers the channel.
//! 9. (See 7 — the striped axis, run as a property over seeds.)
//! 10. Under sustained JUKEBOX pushback (server-side admission control)
//!     the client retries the same call verbatim with capped backoff,
//!     never duplicates a non-idempotent call, and completes the moment
//!     admission reopens.
//! 11. A READ after a WRITE or a resize of the same file is never served
//!     from read-ahead that was fetched before the change.

use proptest::prelude::*;
use sgfs::config::{CacheMode, RetryPolicy, SecurityLevel, SessionConfig, StripePolicy};
use sgfs::proxy::client::{ClientProxy, Upstream};
use sgfs::proxy::pipeline::Pipeline;
use sgfs::session::GridWorld;
use sgfs_gtls::{handshake_pair, GtlsHandshake, GtlsStream, HsStatus};
use sgfs_net::{pipe_pair, BoxStream, FaultInjector, FaultPlan, FaultStream, PipeEnd};
use sgfs_nfs3::proc::{
    procnum, AccessArgs, AccessRes, CommitArgs, CommitRes, GetAttrRes, ReadArgs, ReadRes, SetAttrArgs,
    WccRes, WriteArgs, WriteRes,
};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_obs::{Emitter, Gauge, Hop};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{CallHeader, OpaqueAuth, ReplyHeader};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// An encoded NFSv3 call record (valid `CallHeader` + body).
fn nfs_call(xid: u32, proc: u32, body: impl FnOnce(&mut XdrEncoder)) -> Vec<u8> {
    let header = CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc,
        cred: OpaqueAuth::sys(&AuthSysParams::new("test-host", 1001, 1001)),
        verf: OpaqueAuth::none(),
    };
    let mut enc = XdrEncoder::with_capacity(256);
    header.encode(&mut enc);
    body(&mut enc);
    enc.into_bytes()
}

/// The echo servers' deterministic request → reply transformation.
fn transform(request: &[u8]) -> Vec<u8> {
    let mut reply = request[0..4].to_vec();
    reply.extend_from_slice(b"ok:");
    reply.extend(request[4..].iter().rev());
    reply
}

fn base_attr(size: u64) -> Fattr3 {
    Fattr3 {
        ftype: FType3::Reg,
        mode: 0o644,
        nlink: 1,
        uid: 1001,
        gid: 1001,
        size,
        used: size,
        fsid: 1,
        fileid: 42,
        atime: NfsTime3 { seconds: 1, nseconds: 0 },
        mtime: NfsTime3 { seconds: 1, nseconds: 0 },
        ctime: NfsTime3 { seconds: 1, nseconds: 0 },
    }
}

fn reply_bytes<T: XdrEncode>(xid: u32, res: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(256);
    ReplyHeader::success(xid).encode(&mut enc);
    res.encode(&mut enc);
    enc.into_bytes()
}

fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        max_reconnects: 32,
        dial_attempts: 8,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        call_deadline: Some(Duration::from_secs(20)),
        ..RetryPolicy::default()
    }
}

// ---------------------------------------------------------------------
// 1+2. The plain-transport fault matrix: replies survive any schedule.
// ---------------------------------------------------------------------

fn echo_server(mut end: PipeEnd) {
    std::thread::spawn(move || loop {
        match read_record(&mut end) {
            Ok(Some(r)) => {
                if write_record(&mut end, &transform(&r)).is_err() {
                    return;
                }
            }
            _ => return,
        }
    });
}

/// A plan from the injector minus corruption: a plaintext pipe has no
/// MAC, so a flipped byte would be silently *delivered*, not recovered.
/// Corruption is exercised on the GTLS channel below.
fn plain_plan(inj: &FaultInjector) -> FaultPlan {
    let mut plan = inj.next_plan();
    plan.corrupt_read_at = None;
    plan
}

fn faulted_case(seed: u64, n: usize) {
    let inj = FaultInjector::new(seed, 4);

    let (first_end, first_srv) = pipe_pair();
    echo_server(first_srv);
    // Readiness watches the raw wire beneath the fault layer: arrivals
    // are arrivals whether or not the injector mangles the read.
    let first_watch = first_end.watch();
    let first = FaultStream::new(Box::new(first_end), plain_plan(&inj));

    let dialer = inj.clone();
    let reconnect = move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
        if dialer.refuse_connect() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "injected connect refusal",
            ));
        }
        let (end, srv) = pipe_pair();
        echo_server(srv);
        let watch = end.watch();
        Ok((
            Upstream::Plain(Box::new(FaultStream::new(Box::new(end), plain_plan(&dialer)))),
            watch,
        ))
    };

    let stats = Emitter::detached("client");
    let pipeline = Pipeline::with_recovery(
        Upstream::Plain(Box::new(first)),
        first_watch,
        8,
        None,
        stats.clone(),
        Some(Box::new(reconnect)),
        quick_retry(),
    );

    // All-idempotent workload: GETATTRs with distinct handles.
    let records: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            nfs_call(0x100 + i as u32, procnum::GETATTR, |enc| {
                Fh3::from_ino(1, i as u64).encode(enc)
            })
        })
        .collect();
    let expected: Vec<Vec<u8>> = records.iter().map(|r| transform(r)).collect();

    let pending = pipeline.submit_batch(records);
    for (i, (reply, want)) in pending.into_iter().zip(&expected).enumerate() {
        // Property 1: wait() terminates (the 20 s deadline converts any
        // residual hang into a loud failure). Property 2: with a finite
        // fault budget and an idempotent workload, recovery must deliver
        // every reply, byte-identical to the fault-free run.
        let got = reply.wait().unwrap_or_else(|e| {
            panic!(
                "call {i} failed under fault schedule: {e} (reconnects={}, replays={})",
                stats.reconnects(),
                stats.replays()
            )
        });
        prop_assert_eq!(&got, want, "call {} diverged from fault-free run", i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn faulted_channel_yields_fault_free_replies(seed: u64, n in 1usize..8) {
        faulted_case(seed, n);
    }
}

// ---------------------------------------------------------------------
// 3. COMMIT never precedes a WRITE replayed across a reconnection.
// ---------------------------------------------------------------------

/// Serves the full mock-NFS surface, logging `(proc, offset)` into a log
/// shared across connection generations.
fn logging_nfs_server(mut end: PipeEnd, log: Arc<Mutex<Vec<(u32, u64)>>>) {
    std::thread::spawn(move || loop {
        let record = match read_record(&mut end) {
            Ok(Some(r)) => r,
            _ => return,
        };
        let mut dec = XdrDecoder::new(&record);
        let header = CallHeader::decode(&mut dec).expect("call header");
        let reply = match header.proc {
            procnum::GETATTR => {
                log.lock().unwrap().push((header.proc, 0));
                reply_bytes(
                    header.xid,
                    &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) },
                )
            }
            procnum::WRITE => {
                let args =
                    WriteArgs::from_xdr_bytes(&record[dec.position()..]).expect("write args");
                log.lock().unwrap().push((header.proc, args.offset));
                reply_bytes(
                    header.xid,
                    &WriteRes {
                        status: NfsStat3::Ok,
                        wcc: WccData { before: None, after: Some(base_attr(args.offset)) },
                        count: args.data.len() as u32,
                        committed: StableHow::Unstable,
                        verf: 7,
                    },
                )
            }
            procnum::COMMIT => {
                log.lock().unwrap().push((header.proc, 0));
                reply_bytes(
                    header.xid,
                    &CommitRes {
                        status: NfsStat3::Ok,
                        wcc: WccData { before: None, after: Some(base_attr(0)) },
                        verf: 7,
                    },
                )
            }
            other => panic!("unexpected proc {other}"),
        };
        if write_record(&mut end, &reply).is_err() {
            return;
        }
    });
}

/// One downstream request through the proxy, on this thread; returns the
/// reply's result body (past the header).
fn call(proxy: &mut ClientProxy, record: &[u8]) -> Vec<u8> {
    let reply = proxy.process_one(record).expect("downstream reply");
    let mut dec = XdrDecoder::new(&reply);
    let _ = ReplyHeader::decode(&mut dec).expect("reply header");
    reply[dec.position()..].to_vec()
}

/// Absorb `blocks` unstable WRITEs into the proxy's write-back cache via
/// its downstream interface and hand the proxy back for flushing.
fn ingest_writes(mut proxy: ClientProxy, blocks: usize, block_len: usize) -> ClientProxy {
    let fh = Fh3::from_ino(1, 42);
    for i in 0..blocks {
        let record = nfs_call(0x200 + i as u32, procnum::WRITE, |enc| {
            WriteArgs {
                file: fh.clone(),
                offset: (i * block_len) as u64,
                stable: StableHow::Unstable,
                data: vec![i as u8; block_len],
            }
            .encode(enc)
        });
        let res = WriteRes::from_xdr_bytes(&call(&mut proxy, &record)).expect("write res");
        assert_eq!(res.status, NfsStat3::Ok, "block {i} not absorbed");
    }
    proxy
}

#[test]
fn commit_follows_writes_replayed_across_reconnect() {
    const BLOCKS: usize = 3;
    const BLOCK_LEN: usize = 512;
    let log: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));

    // Connection #1 swallows one record and dies without replying: the
    // flush's WRITEs are all in flight when the channel collapses.
    let (upstream_end, dead_srv) = pipe_pair();
    {
        let log = log.clone();
        std::thread::spawn(move || {
            let mut end = dead_srv;
            if let Ok(Some(record)) = read_record(&mut end) {
                let mut dec = XdrDecoder::new(&record);
                let header = CallHeader::decode(&mut dec).expect("call header");
                if header.proc == procnum::WRITE {
                    let args = WriteArgs::from_xdr_bytes(&record[dec.position()..])
                        .expect("write args");
                    log.lock().unwrap().push((header.proc, args.offset));
                }
            }
            // Drop: both pipe directions close, the pipeline recovers.
        });
    }

    let relog = log.clone();
    let reconnect = move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
        let (end, srv) = pipe_pair();
        logging_nfs_server(srv, relog.clone());
        let watch = end.watch();
        Ok((Upstream::Plain(Box::new(end)), watch))
    };

    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.window = 8;
    config.retry = quick_retry();
    let up_watch = upstream_end.watch();
    let proxy = ClientProxy::with_reconnector(
        Upstream::Plain(Box::new(upstream_end)),
        up_watch,
        &config,
        Some(Box::new(reconnect)),
    )
    .expect("proxy");
    let stats = proxy.stats().clone();

    let mut proxy = ingest_writes(proxy, BLOCKS, BLOCK_LEN);
    proxy.flush_all().expect("flush survives the reconnect");

    assert_eq!(stats.reconnects(), 1, "exactly one recovery episode");
    assert!(stats.replays() >= 1, "the in-flight WRITEs were replayed");

    let log = log.lock().unwrap().clone();
    let commits: Vec<usize> =
        (0..log.len()).filter(|&i| log[i].0 == procnum::COMMIT).collect();
    let writes: Vec<usize> =
        (0..log.len()).filter(|&i| log[i].0 == procnum::WRITE).collect();
    assert_eq!(commits.len(), 1, "exactly one COMMIT: {log:?}");
    assert!(
        writes.iter().all(|&w| w < commits[0]),
        "COMMIT preceded a (replayed) WRITE: {log:?}"
    );
    // Every block reached the server despite the dead first connection.
    let mut offsets: Vec<u64> = writes.iter().map(|&w| log[w].1).collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(
        offsets,
        (0..BLOCKS as u64).map(|i| i * BLOCK_LEN as u64).collect::<Vec<_>>(),
        "all blocks written back: {log:?}"
    );
}

/// A single upstream has nothing to degrade to, so an error on one call
/// must not take its only member out for good: a REMOVE lost on a wire
/// reset (non-idempotent — failed back to the caller, never replayed)
/// ends the proxy loop with that error, the pipeline reconnects on its
/// own, and the teardown flush still writes every dirty block back.
#[test]
fn lost_mutation_leaves_a_single_upstream_flushable() {
    const BLOCKS: usize = 3;
    const BLOCK_LEN: usize = 512;
    let log: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));

    // Connection #1 answers the attr fetch behind the first absorbed
    // WRITE, then dies on the REMOVE without replying.
    let (upstream_end, mut first_srv) = pipe_pair();
    std::thread::spawn(move || {
        while let Ok(Some(record)) = read_record(&mut first_srv) {
            let header = CallHeader::decode(&mut XdrDecoder::new(&record)).expect("call header");
            if header.proc != procnum::GETATTR {
                return;
            }
            let res = GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) };
            if write_record(&mut first_srv, &reply_bytes(header.xid, &res)).is_err() {
                return;
            }
        }
    });
    let relog = log.clone();
    let reconnect = move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
        let (end, srv) = pipe_pair();
        logging_nfs_server(srv, relog.clone());
        let watch = end.watch();
        Ok((Upstream::Plain(Box::new(end)), watch))
    };

    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.window = 8;
    config.retry = quick_retry();
    let up_watch = upstream_end.watch();
    let mut proxy = ClientProxy::with_reconnector(
        Upstream::Plain(Box::new(upstream_end)),
        up_watch,
        &config,
        Some(Box::new(reconnect)),
    )
    .expect("proxy");
    let stats = proxy.stats().clone();

    for i in 0..BLOCKS {
        let record = nfs_call(0x200 + i as u32, procnum::WRITE, |enc| {
            WriteArgs {
                file: Fh3::from_ino(1, 42),
                offset: (i * BLOCK_LEN) as u64,
                stable: StableHow::Unstable,
                data: vec![i as u8; BLOCK_LEN],
            }
            .encode(enc)
        });
        call(&mut proxy, &record);
    }
    let remove = nfs_call(0x300, procnum::REMOVE, |enc| {
        DirOpArgs3 { dir: Fh3::from_ino(1, 1), name: "gone".into() }.encode(enc)
    });
    assert!(proxy.process_one(&remove).is_err(), "the lost REMOVE surfaces its error");

    let flushed = proxy.flush_all().expect("teardown flush over the reconnected channel");
    assert_eq!(flushed, (BLOCKS * BLOCK_LEN) as u64);
    assert_eq!(proxy.dirty_bytes(), 0, "nothing stranded in the write-back cache");
    assert_eq!(stats.reconnects(), 1, "the pipeline recovered the channel by itself");
    assert_eq!(stats.count(Hop::ReplicaFailover), 0, "a single upstream never fails over");
    assert_eq!(stats.gauge(Gauge::Degraded), 0);
    assert!(proxy.stripe().is_up(0));
    assert_eq!(proxy.missed_blocks(0), 0, "nothing queued for a re-sync that cannot happen");

    let log = log.lock().unwrap().clone();
    let mut offsets: Vec<u64> =
        log.iter().filter(|(p, _)| *p == procnum::WRITE).map(|(_, o)| *o).collect();
    offsets.sort_unstable();
    assert_eq!(
        offsets,
        (0..BLOCKS as u64).map(|i| i * BLOCK_LEN as u64).collect::<Vec<_>>(),
        "every block written back once: {log:?}"
    );
    assert_eq!(log.last().map(|(p, _)| *p), Some(procnum::COMMIT), "{log:?}");
}

/// The flush round of a single upstream fails with the server's own
/// status — not a generic "member down" — and leaves the member in and
/// the blocks dirty, so a later flush simply tries again.
#[test]
fn rejected_write_back_surfaces_the_server_status() {
    let full = Arc::new(AtomicBool::new(true));
    let (upstream_end, mut srv) = pipe_pair();
    {
        let full = full.clone();
        std::thread::spawn(move || {
            while let Ok(Some(record)) = read_record(&mut srv) {
                let mut dec = XdrDecoder::new(&record);
                let header = CallHeader::decode(&mut dec).expect("call header");
                let reply = match header.proc {
                    procnum::GETATTR => reply_bytes(
                        header.xid,
                        &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) },
                    ),
                    procnum::WRITE => {
                        let status = if full.load(Ordering::SeqCst) {
                            NfsStat3::NoSpc
                        } else {
                            NfsStat3::Ok
                        };
                        reply_bytes(
                            header.xid,
                            &WriteRes {
                                status,
                                wcc: WccData { before: None, after: None },
                                count: 512,
                                committed: StableHow::Unstable,
                                verf: 7,
                            },
                        )
                    }
                    procnum::COMMIT => reply_bytes(
                        header.xid,
                        &CommitRes {
                            status: NfsStat3::Ok,
                            wcc: WccData { before: None, after: Some(base_attr(0)) },
                            verf: 7,
                        },
                    ),
                    other => panic!("unexpected proc {other}"),
                };
                if write_record(&mut srv, &reply).is_err() {
                    return;
                }
            }
        });
    }
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    let up_watch = upstream_end.watch();
    let proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), up_watch, &config)
        .expect("proxy");
    let stats = proxy.stats().clone();
    let mut proxy = ingest_writes(proxy, 2, 512);

    let err = proxy.flush_all().expect_err("the server is full");
    assert!(err.to_string().contains("NoSpc"), "the server's status surfaces: {err}");
    assert_eq!(proxy.dirty_bytes(), 1024, "rejected blocks stay dirty");
    assert_eq!((stats.count(Hop::ReplicaFailover), stats.gauge(Gauge::Degraded)), (0, 0));

    full.store(false, Ordering::SeqCst);
    assert_eq!(proxy.flush_all().expect("space is back"), 1024);
    assert_eq!(proxy.dirty_bytes(), 0);
}

/// A replica that answers every WRITE of `reject`'s file with its
/// status and serves the rest of the write-back surface, logging
/// `(proc, file)` for every WRITE it accepts and every COMMIT.
fn rejecting_server(
    mut end: PipeEnd,
    reject: Option<(Fh3, NfsStat3)>,
    log: Arc<Mutex<Vec<(u32, Fh3)>>>,
) {
    std::thread::spawn(move || {
        while let Ok(Some(record)) = read_record(&mut end) {
            let mut dec = XdrDecoder::new(&record);
            let header = CallHeader::decode(&mut dec).expect("call header");
            let args = &record[dec.position()..];
            let reply = match header.proc {
                procnum::GETATTR => reply_bytes(
                    header.xid,
                    &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) },
                ),
                procnum::WRITE => {
                    let a = WriteArgs::from_xdr_bytes(args).expect("write args");
                    let status = match &reject {
                        Some((fh, status)) if *fh == a.file => *status,
                        _ => {
                            log.lock().unwrap().push((procnum::WRITE, a.file.clone()));
                            NfsStat3::Ok
                        }
                    };
                    reply_bytes(
                        header.xid,
                        &WriteRes {
                            status,
                            wcc: WccData { before: None, after: None },
                            count: a.data.len() as u32,
                            committed: StableHow::Unstable,
                            verf: 7,
                        },
                    )
                }
                procnum::COMMIT => {
                    let a = CommitArgs::from_xdr_bytes(args).expect("commit args");
                    log.lock().unwrap().push((procnum::COMMIT, a.file));
                    reply_bytes(
                        header.xid,
                        &CommitRes {
                            status: NfsStat3::Ok,
                            wcc: WccData { before: None, after: Some(base_attr(0)) },
                            verf: 7,
                        },
                    )
                }
                other => panic!("unexpected proc {other}"),
            };
            if write_record(&mut end, &reply).is_err() {
                return;
            }
        }
    });
}

type ReplicaLog = Arc<Mutex<Vec<(u32, Fh3)>>>;

/// A width-2, 2-replica session over two `rejecting_server`s — member
/// `m` answers every WRITE of file A (`ino` 42) with `rejects[m]` — with
/// one 512-byte block each of files A and B (`ino` 43) absorbed.
fn two_replicas_two_files(rejects: [Option<NfsStat3>; 2]) -> (ClientProxy, Vec<ReplicaLog>) {
    let (file_a, file_b) = (Fh3::from_ino(1, 42), Fh3::from_ino(1, 43));
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.stripe = Some(StripePolicy { width: 2, replicas: 2, block_size: 512 });
    let mut upstreams = Vec::new();
    let mut logs = Vec::new();
    for reject in rejects {
        let (end, srv) = pipe_pair();
        let log = ReplicaLog::default();
        rejecting_server(srv, reject.map(|status| (file_a.clone(), status)), log.clone());
        let watch = end.watch();
        upstreams.push((Upstream::Plain(Box::new(end)), watch, None));
        logs.push(log);
    }
    let mut proxy = ClientProxy::with_stripe(upstreams, &config).expect("replicated proxy");
    for (i, file) in [file_a, file_b].into_iter().enumerate() {
        let record = nfs_call(0x400 + i as u32, procnum::WRITE, |enc| {
            WriteArgs { file, offset: 0, stable: StableHow::Unstable, data: vec![i as u8; 512] }
                .encode(enc)
        });
        let res = WriteRes::from_xdr_bytes(&call(&mut proxy, &record)).expect("write res");
        assert_eq!(res.status, NfsStat3::Ok, "block {i} absorbed");
    }
    (proxy, logs)
}

/// An NFS error status is the server's answer about one file, not a dead
/// wire: when both replicas answer every WRITE of file A with STALE, file
/// A fails its round and stays dirty, no member is failed over or owes a
/// re-sync, and file B still commits on both members.
#[test]
fn a_file_every_replica_rejects_fails_alone() {
    let (mut proxy, logs) = two_replicas_two_files([Some(NfsStat3::Stale); 2]);
    let stats = proxy.stats().clone();

    let err = proxy.flush_all().expect_err("file A is stale on both replicas");
    assert!(err.to_string().contains("Stale"), "the server's status surfaces: {err}");
    assert_eq!(
        (stats.count(Hop::ReplicaFailover), stats.gauge(Gauge::Degraded)),
        (0, 0),
        "a stale file fails no replica"
    );
    assert!(proxy.stripe().is_up(0) && proxy.stripe().is_up(1), "both members stay up");
    assert_eq!((proxy.missed_blocks(0), proxy.missed_blocks(1)), (0, 0), "no re-sync owed");
    assert_eq!(proxy.dirty_bytes(), 512, "file A's block is still dirty, file B's is clean");
    let file_b = Fh3::from_ino(1, 43);
    for (m, log) in logs.iter().enumerate() {
        let log = log.lock().unwrap();
        let committed = [(procnum::WRITE, file_b.clone()), (procnum::COMMIT, file_b.clone())];
        assert_eq!(log[..], committed, "member {m} took and committed file B alone");
    }
}

/// The other half of the rule: a replica that alone answers a file with
/// an error status has diverged from the replica that accepted it, so it
/// is failed over and owes a re-sync while the file goes clean through
/// the survivor.
#[test]
fn a_replica_that_alone_rejects_a_file_has_diverged() {
    let (mut proxy, logs) = two_replicas_two_files([None, Some(NfsStat3::NoSpc)]);
    let stats = proxy.stats().clone();

    assert_eq!(proxy.flush_all().expect("member 0 takes every block"), 1024);
    assert_eq!(proxy.dirty_bytes(), 0, "both files went clean through member 0");
    assert_eq!(
        (stats.count(Hop::ReplicaFailover), stats.gauge(Gauge::Degraded)),
        (1, 1),
        "member 1 failed over"
    );
    assert!(proxy.stripe().is_up(0) && !proxy.stripe().is_up(1));
    assert!(proxy.missed_blocks(1) > 0, "member 1 owes a re-sync");
    let commits: Vec<Fh3> = logs[0]
        .lock()
        .unwrap()
        .iter()
        .filter(|(proc, _)| *proc == procnum::COMMIT)
        .map(|(_, fh)| fh.clone())
        .collect();
    assert_eq!(commits, [Fh3::from_ino(1, 42), Fh3::from_ino(1, 43)], "member 0 committed both");
}

// ---------------------------------------------------------------------
// 4. A changed write verifier forces re-transmission of unstable WRITEs.
// ---------------------------------------------------------------------

#[test]
fn verifier_change_forces_unstable_write_resend() {
    const BLOCKS: usize = 3;
    const BLOCK_LEN: usize = 512;
    let log: Arc<Mutex<Vec<(u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));

    // A server that "reboots" after the first WRITE: later replies carry
    // a different verifier, so round one's unstable data must be treated
    // as lost and re-sent.
    let (upstream_end, srv) = pipe_pair();
    {
        let log = log.clone();
        std::thread::spawn(move || {
            let mut end = srv;
            let mut writes_served = 0u32;
            loop {
                let record = match read_record(&mut end) {
                    Ok(Some(r)) => r,
                    _ => return,
                };
                let mut dec = XdrDecoder::new(&record);
                let header = CallHeader::decode(&mut dec).expect("call header");
                let verf = if writes_served < 1 { 7 } else { 9 };
                let reply = match header.proc {
                    procnum::WRITE => {
                        let args = WriteArgs::from_xdr_bytes(&record[dec.position()..])
                            .expect("write args");
                        log.lock().unwrap().push((header.proc, args.offset));
                        writes_served += 1;
                        reply_bytes(
                            header.xid,
                            &WriteRes {
                                status: NfsStat3::Ok,
                                wcc: WccData {
                                    before: None,
                                    after: Some(base_attr(args.offset)),
                                },
                                count: args.data.len() as u32,
                                committed: StableHow::Unstable,
                                verf,
                            },
                        )
                    }
                    procnum::COMMIT => {
                        log.lock().unwrap().push((header.proc, 0));
                        reply_bytes(
                            header.xid,
                            &CommitRes {
                                status: NfsStat3::Ok,
                                wcc: WccData { before: None, after: Some(base_attr(0)) },
                                verf: 9,
                            },
                        )
                    }
                    procnum::GETATTR => reply_bytes(
                        header.xid,
                        &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) },
                    ),
                    other => panic!("unexpected proc {other}"),
                };
                if write_record(&mut end, &reply).is_err() {
                    return;
                }
            }
        });
    }

    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.window = 8;
    let up_watch = upstream_end.watch();
    let proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), up_watch, &config)
        .expect("proxy");
    let mut proxy = ingest_writes(proxy, BLOCKS, BLOCK_LEN);
    proxy.flush_all().expect("flush converges once the verifier settles");

    let log = log.lock().unwrap().clone();
    let writes = log.iter().filter(|(p, _)| *p == procnum::WRITE).count();
    let commits = log.iter().filter(|(p, _)| *p == procnum::COMMIT).count();
    // Round one saw verifiers 7 then 9 → every block re-sent in round
    // two, which COMMITs consistently at 9.
    assert_eq!(writes, 2 * BLOCKS, "verifier change re-sends every unstable WRITE: {log:?}");
    assert_eq!(commits, 2, "one COMMIT per flush round: {log:?}");
    assert_eq!(log.last().map(|(p, _)| *p), Some(procnum::COMMIT));
}

// ---------------------------------------------------------------------
// 5. ACCESS cache answers only for bits it has actually checked.
// ---------------------------------------------------------------------

#[test]
fn access_cache_consults_server_for_unchecked_bits() {
    let access_calls = Arc::new(AtomicU32::new(0));
    let (upstream_end, srv) = pipe_pair();
    {
        let access_calls = access_calls.clone();
        std::thread::spawn(move || {
            let mut end = srv;
            loop {
                let record = match read_record(&mut end) {
                    Ok(Some(r)) => r,
                    _ => return,
                };
                let mut dec = XdrDecoder::new(&record);
                let header = CallHeader::decode(&mut dec).expect("call header");
                let reply = match header.proc {
                    procnum::ACCESS => {
                        access_calls.fetch_add(1, Ordering::SeqCst);
                        let args = AccessArgs::from_xdr_bytes(&record[dec.position()..])
                            .expect("access args");
                        // Grant exactly what was asked: the cache must
                        // remember *which* bits were asked, not assume
                        // its stored mask answers every query.
                        reply_bytes(
                            header.xid,
                            &AccessRes {
                                status: NfsStat3::Ok,
                                obj_attr: Some(base_attr(0)),
                                access: args.access,
                            },
                        )
                    }
                    procnum::GETATTR => reply_bytes(
                        header.xid,
                        &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) },
                    ),
                    other => panic!("unexpected proc {other}"),
                };
                if write_record(&mut end, &reply).is_err() {
                    return;
                }
            }
        });
    }

    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    let up_watch = upstream_end.watch();
    let mut proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), up_watch, &config)
        .expect("proxy");

    let fh = Fh3::from_ino(1, 42);
    let mut ask = |xid: u32, mask: u32| -> u32 {
        let record = nfs_call(xid, procnum::ACCESS, |enc| {
            AccessArgs { object: fh.clone(), access: mask }.encode(enc)
        });
        let res = AccessRes::from_xdr_bytes(&call(&mut proxy, &record)).expect("access res");
        assert_eq!(res.status, NfsStat3::Ok);
        res.access
    };

    assert_eq!(ask(1, 0x1), 0x1);
    assert_eq!(access_calls.load(Ordering::SeqCst), 1, "first mask goes upstream");
    // The regression: 0x2 was never checked — a mask-blind cache would
    // answer "granted: 0" (or worse) from the 0x1 entry.
    assert_eq!(ask(2, 0x2), 0x2);
    assert_eq!(access_calls.load(Ordering::SeqCst), 2, "unchecked bit must go upstream");
    // Both bits now checked: the union is served from cache.
    assert_eq!(ask(3, 0x3), 0x3);
    assert_eq!(access_calls.load(Ordering::SeqCst), 2, "checked union served from cache");
    // A genuinely new bit still punches through.
    assert_eq!(ask(4, 0x4), 0x4);
    assert_eq!(access_calls.load(Ordering::SeqCst), 3);
}

// ---------------------------------------------------------------------
// 6. GTLS detects corruption; a reconnect (fresh handshake) cures it.
// ---------------------------------------------------------------------

/// Flips one ciphertext byte of the first GTLS data record after being
/// armed. The first armed read delivers the 5-byte record header
/// untouched; the second read's first byte is ciphertext/MAC material.
struct CorruptOnce {
    inner: PipeEnd,
    armed: Arc<AtomicBool>,
    armed_reads: u32,
    done: bool,
}

impl Read for CorruptOnce {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if self.armed.load(Ordering::SeqCst) && !self.done && n > 0 {
            self.armed_reads += 1;
            if self.armed_reads >= 2 {
                buf[0] ^= 0x55;
                self.done = true;
            }
        }
        Ok(n)
    }
}

impl std::io::Write for CorruptOnce {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn gtls_mac_detects_corruption_and_reconnect_cures_it() {
    let world = GridWorld::new();
    let material = world.material();

    let mut server_side = SessionConfig::new(SecurityLevel::IntegrityOnly);
    server_side.credential = Some(material.server.clone());
    server_side.trust = material.trust.clone();
    let mut client_side = SessionConfig::new(SecurityLevel::IntegrityOnly);
    client_side.credential = Some(material.user.clone());
    client_side.trust = material.trust.clone();
    let server_gtls = server_side.gtls().expect("suite");
    let client_gtls = client_side.gtls().expect("suite");

    // Acceptor: every dialed connection gets a full server handshake and
    // a GTLS-side echo loop.
    let (accept_tx, accept_rx) = mpsc::channel::<BoxStream>();
    std::thread::spawn(move || {
        while let Ok(end) = accept_rx.recv() {
            let cfg = server_gtls.clone();
            std::thread::spawn(move || {
                let mut tls = match GtlsStream::server(end, cfg) {
                    Ok(t) => t,
                    Err(_) => return,
                };
                loop {
                    match read_record(&mut tls) {
                        Ok(Some(r)) => {
                            if write_record(&mut tls, &transform(&r)).is_err() {
                                return;
                            }
                        }
                        _ => return,
                    }
                }
            });
        }
    });

    // Connection #1 through the corrupting tap (armed after handshake).
    let armed = Arc::new(AtomicBool::new(false));
    let (client_end, server_end) = pipe_pair();
    accept_tx.send(Box::new(server_end)).unwrap();
    // Watch the raw pipe beneath both the tap and the GTLS layer.
    let first_watch = client_end.watch();
    let tap = CorruptOnce {
        inner: client_end,
        armed: armed.clone(),
        armed_reads: 0,
        done: false,
    };
    let first =
        GtlsStream::client(Box::new(tap), client_gtls.clone()).expect("initial handshake");
    armed.store(true, Ordering::SeqCst);

    let redial_tx = accept_tx.clone();
    let reconnect = move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
        let (c, s) = pipe_pair();
        redial_tx.send(Box::new(s)).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "acceptor gone")
        })?;
        let watch = c.watch();
        let tls = GtlsStream::client(Box::new(c), client_gtls.clone())
            .map_err(std::io::Error::from)?;
        Ok((Upstream::Tls(Box::new(tls)), watch))
    };

    let stats = Emitter::detached("client");
    let pipeline = Pipeline::with_recovery(
        Upstream::Tls(Box::new(first)),
        first_watch,
        4,
        None,
        stats.clone(),
        Some(Box::new(reconnect)),
        quick_retry(),
    );

    let record = nfs_call(0x1, procnum::GETATTR, |enc| Fh3::from_ino(1, 1).encode(enc));
    let want = transform(&record);
    let got = pipeline.call(record).expect("reply survives the corrupted record");
    assert_eq!(got, want, "reply identical to the fault-free run");
    assert_eq!(stats.reconnects(), 1, "the MAC failure forced one reconnect");
    assert_eq!(
        pipeline.handshake_count(),
        Some(2),
        "the replacement channel ran a fresh full handshake"
    );
}

// ---------------------------------------------------------------------
// 7. The sharded-mode axis: faults on the readiness path still recover,
//    and a faulted session never disturbs its shard neighbors.
// ---------------------------------------------------------------------

/// Echo service driven by the shard event loop (no RPC decoding: the
/// transform makes reply/request correspondence byte-checkable).
struct ShardEcho;

impl sgfs_oncrpc::RecordService for ShardEcho {
    fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        Ok(transform(record))
    }
}

/// Pin a fresh faulted connection (seeded plan: mid-record EOF, partial
/// write, latency spike — everything but corruption, this is plaintext)
/// onto `shards` and return the client end.
fn add_faulted_session(
    shards: &Arc<sgfs_oncrpc::ShardServer>,
    inj: &Arc<FaultInjector>,
) -> PipeEnd {
    let (client_end, server_end) = pipe_pair();
    // Watch the raw wire, then wrap: readiness must see arrivals whether
    // or not the fault layer later mangles them.
    let watch = server_end.watch();
    let faulted = FaultStream::new(Box::new(server_end), plain_plan(inj));
    shards
        .add_session(Box::new(faulted), watch, Arc::new(ShardEcho))
        .expect("shard accepts the session");
    client_end
}

fn sharded_faulted_case(seed: u64, n: usize) {
    // ONE shard: the faulted session and its neighbors share an event
    // loop, so any interference would be on-thread and deterministic.
    let shards = sgfs_oncrpc::ShardServer::new(1);
    let inj = FaultInjector::new(seed, 4);

    // Three healthy neighbors, pinned before and driven concurrently.
    let neighbors: Vec<_> = (0..3u32)
        .map(|k| {
            let (client_end, server_end) = pipe_pair();
            let watch = server_end.watch();
            shards
                .add_session(Box::new(server_end), watch, Arc::new(ShardEcho))
                .expect("neighbor pinned");
            std::thread::spawn(move || {
                let mut end = client_end;
                for i in 0..24u32 {
                    let record = nfs_call(0x9000 + k * 64 + i, procnum::GETATTR, |enc| {
                        Fh3::from_ino(2, u64::from(i)).encode(enc)
                    });
                    write_record(&mut end, &record).expect("neighbor write");
                    let reply =
                        read_record(&mut end).expect("neighbor read").expect("neighbor reply");
                    assert_eq!(reply, transform(&record), "neighbor {k} reply diverged");
                }
            })
        })
        .collect();

    // The faulted session recovers through the same accept → pin path.
    let first = add_faulted_session(&shards, &inj);
    let first_watch = first.watch();
    let dial_shards = shards.clone();
    let dialer = inj.clone();
    let reconnect = move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
        if dialer.refuse_connect() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "injected connect refusal",
            ));
        }
        let end = add_faulted_session(&dial_shards, &dialer);
        let watch = end.watch();
        Ok((Upstream::Plain(Box::new(end)), watch))
    };
    let stats = Emitter::detached("client");
    let pipeline = Pipeline::with_recovery(
        Upstream::Plain(Box::new(first)),
        first_watch,
        8,
        None,
        stats.clone(),
        Some(Box::new(reconnect)),
        quick_retry(),
    );

    let records: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            nfs_call(0x700 + i as u32, procnum::GETATTR, |enc| {
                Fh3::from_ino(1, i as u64).encode(enc)
            })
        })
        .collect();
    let expected: Vec<Vec<u8>> = records.iter().map(|r| transform(r)).collect();
    let pending = pipeline.submit_batch(records);
    for (i, (reply, want)) in pending.into_iter().zip(&expected).enumerate() {
        let got = reply.wait().unwrap_or_else(|e| {
            panic!(
                "sharded call {i} failed under fault schedule: {e} (reconnects={})",
                stats.reconnects()
            )
        });
        prop_assert_eq!(&got, want, "sharded call {} diverged from fault-free run", i);
    }

    // The neighbors finished every round regardless of the fault storm.
    for (k, t) in neighbors.into_iter().enumerate() {
        t.join().unwrap_or_else(|_| panic!("neighbor {k} died"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn sharded_faulted_channel_recovers_without_neighbor_interference(
        seed: u64, n in 1usize..8,
    ) {
        sharded_faulted_case(seed, n);
    }
}

// ---------------------------------------------------------------------
// 8. A mid-handshake fault is a value-level dial error on the calling
//    thread — the resumable machine is simply dropped — and the next
//    dial recovers the channel.
// ---------------------------------------------------------------------

#[test]
fn mid_handshake_fault_fails_dial_cleanly_and_next_dial_recovers() {
    let world = GridWorld::new();
    let material = world.material();
    let mut server_side = SessionConfig::new(SecurityLevel::IntegrityOnly);
    server_side.credential = Some(material.server.clone());
    server_side.trust = material.trust.clone();
    let mut client_side = SessionConfig::new(SecurityLevel::IntegrityOnly);
    client_side.credential = Some(material.user.clone());
    client_side.trust = material.trust.clone();
    let server_gtls = server_side.gtls().expect("suite");
    let client_gtls = client_side.gtls().expect("suite");

    let shards = sgfs_oncrpc::ShardServer::new(1);
    let attempts = Arc::new(AtomicU32::new(0));
    // Server ends of stalled dials, kept alive and silent: the half-open
    // peer that would wedge a blocking handshake (and whatever thread ran
    // it) forever.
    let stalled: Arc<Mutex<Vec<PipeEnd>>> = Arc::new(Mutex::new(Vec::new()));

    let dial_attempts = attempts.clone();
    let dial_stalled = stalled.clone();
    let dial_shards = shards.clone();
    let sg = server_gtls.clone();
    let cg = client_gtls;
    let reconnect = move |_a: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
        let n = dial_attempts.fetch_add(1, Ordering::SeqCst);
        let (c, s) = pipe_pair();
        let c_watch = c.watch();
        if n < 2 {
            let mut hs = GtlsHandshake::client(Box::new(c), Some(c_watch), cg.clone());
            if n == 0 {
                // Fault axis A: the peer dies mid-handshake. The machine
                // reports it as a plain error on this very thread.
                drop(s);
                let err = hs.advance().expect_err("dead peer must fail the handshake");
                return Err(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, err));
            }
            // Fault axis B: the peer stays half-open but silent. The
            // machine parks at Pending; abandoning the dial is dropping a
            // value — no thread is left blocked on the dead handshake.
            dial_stalled.lock().unwrap().push(s);
            for _ in 0..3 {
                match hs.advance() {
                    Ok(HsStatus::Pending) => {}
                    other => panic!("silent peer must leave the machine pending: {other:?}"),
                }
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "mid-handshake stall abandoned",
            ));
        }
        // Healthy dial: both machines alternate inline, the fresh server
        // side pins straight onto the shard core.
        let s_watch = s.watch();
        let (client_tls, server_tls) = handshake_pair(
            GtlsHandshake::client(Box::new(c), Some(c_watch.clone()), cg.clone()),
            GtlsHandshake::server(Box::new(s), Some(s_watch.clone()), sg.clone()),
        )
        .map_err(std::io::Error::from)?;
        dial_shards
            .add_session(Box::new(server_tls), s_watch, Arc::new(ShardEcho))
            .expect("shard accepts the recovered session");
        Ok((Upstream::Tls(Box::new(client_tls)), c_watch))
    };

    // The first channel is born dead, so the first call triggers recovery
    // immediately and walks the dial sequence above.
    let (dead, gone) = pipe_pair();
    let dead_watch = dead.watch();
    drop(gone);
    let stats = Emitter::detached("client");
    let pipeline = Pipeline::with_recovery(
        Upstream::Plain(Box::new(dead)),
        dead_watch,
        4,
        None,
        stats.clone(),
        Some(Box::new(reconnect)),
        quick_retry(),
    );

    let record = nfs_call(0x1, procnum::GETATTR, |enc| Fh3::from_ino(1, 9).encode(enc));
    let want = transform(&record);
    let got = pipeline.call(record).expect("reply after two faulted dials");
    assert_eq!(got, want, "reply identical to the fault-free run");
    assert_eq!(attempts.load(Ordering::SeqCst), 3, "two faulted dials, then one good one");
    assert_eq!(stats.reconnects(), 1, "one recovery episode despite the handshake faults");
}

// ---------------------------------------------------------------------
// 9. The multi-upstream axis: a fault schedule on one stripe member is
//    that member's problem alone.
// ---------------------------------------------------------------------

/// Byte-checkable content replica for the striped axis: READ returns a
/// deterministic function of the offset, so a reply is verifiable no
/// matter which replica (or which connection generation) served it.
/// `dials` counts connection generations onto this member's content.
fn stripe_content_server(mut end: PipeEnd, dials: Arc<AtomicU32>) {
    dials.fetch_add(1, Ordering::SeqCst);
    std::thread::spawn(move || loop {
        let record = match read_record(&mut end) {
            Ok(Some(r)) => r,
            _ => return,
        };
        let mut dec = XdrDecoder::new(&record);
        let header = CallHeader::decode(&mut dec).expect("call header");
        let reply = match header.proc {
            procnum::READ => {
                let args =
                    ReadArgs::from_xdr_bytes(&record[dec.position()..]).expect("read args");
                let data = stripe_block_content(args.offset, args.count as usize);
                reply_bytes(
                    header.xid,
                    &ReadRes {
                        status: NfsStat3::Ok,
                        attr: Some(base_attr(1 << 20)),
                        count: data.len() as u32,
                        eof: false,
                        data,
                    },
                )
            }
            other => panic!("unexpected proc {other} at a stripe member"),
        };
        if write_record(&mut end, &reply).is_err() {
            return;
        }
    });
}

/// The deterministic block content every replica agrees on.
fn stripe_block_content(offset: u64, count: usize) -> Vec<u8> {
    vec![(offset / 512) as u8 ^ 0x5A; count]
}

/// One striped case: width 3, 2 replicas per block, one member under a
/// seeded fault schedule (mid-record EOFs, partial writes, refusals,
/// latency — every plaintext fault), the other two clean and, pointedly,
/// with **no reconnector**: if the victim's faults perturbed a neighbor
/// in any way that tore its connection, that neighbor would die
/// terminally and the case would fail loudly.
fn striped_faulted_case(seed: u64, victim: usize, blocks: u64) {
    let inj = FaultInjector::new(seed, 4);
    let dials: Vec<Arc<AtomicU32>> = (0..3).map(|_| Arc::new(AtomicU32::new(0))).collect();

    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::None; // forward everything: each READ hits the stripe
    config.window = 8;
    config.retry = quick_retry();
    config.stripe = Some(StripePolicy { width: 3, replicas: 2, block_size: 512 });

    let mut upstreams = Vec::new();
    for (m, dial) in dials.iter().enumerate() {
        let (end, srv) = pipe_pair();
        stripe_content_server(srv, dial.clone());
        let watch = end.watch();
        if m == victim {
            let first = FaultStream::new(Box::new(end), plain_plan(&inj));
            let dialer = inj.clone();
            let redial_count = dial.clone();
            let reconnect =
                move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
                    if dialer.refuse_connect() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionRefused,
                            "injected connect refusal",
                        ));
                    }
                    let (end, srv) = pipe_pair();
                    stripe_content_server(srv, redial_count.clone());
                    let watch = end.watch();
                    Ok((
                        Upstream::Plain(Box::new(FaultStream::new(
                            Box::new(end),
                            plain_plan(&dialer),
                        ))),
                        watch,
                    ))
                };
            upstreams.push((
                Upstream::Plain(Box::new(first)) as Upstream,
                watch,
                Some(Box::new(reconnect) as Box<dyn sgfs::proxy::retry::Reconnector>),
            ));
        } else {
            upstreams.push((Upstream::Plain(Box::new(end)) as Upstream, watch, None));
        }
    }
    let mut proxy = ClientProxy::with_stripe(upstreams, &config).expect("striped proxy");
    let stats = proxy.stats().clone();

    // Drive one READ per block through the proxy's downstream interface.
    let fh = Fh3::from_ino(1, 42);
    for b in 0..blocks {
        let record = nfs_call(0x500 + b as u32, procnum::READ, |enc| {
            ReadArgs { file: fh.clone(), offset: b * 512, count: 512 }.encode(enc)
        });
        let res = ReadRes::from_xdr_bytes(&call(&mut proxy, &record)).expect("read res");
        // Property 2 of the striped axis: every reply carries fault-free
        // bytes, whether the victim recovered in place or the read failed
        // over to the block's surviving replica.
        prop_assert_eq!(res.status, NfsStat3::Ok, "block {} read failed", b);
        prop_assert_eq!(
            &res.data,
            &stripe_block_content(b * 512, 512),
            "block {} diverged from the fault-free content",
            b
        );
    }

    let set = proxy.stripe();
    // The healthy members were never perturbed: still in the set, never
    // re-dialed (their dial count is the initial connection only).
    for (m, dial) in dials.iter().enumerate() {
        if m == victim {
            continue;
        }
        prop_assert!(set.is_up(m), "healthy member {} left the set (seed {})", m, seed);
        prop_assert_eq!(dial.load(Ordering::SeqCst), 1, "healthy member {} was re-dialed", m);
    }
    // The victim either recovered in place or failed over — never more
    // than one member down, and a failover is counted exactly once.
    prop_assert!(stats.gauge(Gauge::Degraded) <= 1, "more than the victim went down");
    prop_assert!(stats.count(Hop::ReplicaFailover) <= 1, "failover counted more than once");
    if !set.is_up(victim) {
        prop_assert_eq!(stats.count(Hop::ReplicaFailover), 1, "down victim without a counted failover");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn striped_member_faults_leave_neighbors_unperturbed(
        seed: u64,
        victim in 0usize..3,
        blocks in 4u64..16,
    ) {
        striped_faulted_case(seed, victim, blocks);
    }
}

// ---------------------------------------------------------------------
// 10. The overload axis: a client facing sustained JUKEBOX pushback
//     retries the exact same call under capped backoff, never
//     duplicates it, and completes once admission reopens.
// ---------------------------------------------------------------------

/// An upstream that sheds the first `sheds` arrivals of every call with
/// the production JUKEBOX reply (via [`sgfs::proxy::server::jukebox_nfs`],
/// the same bytes a real overloaded shard emits), then executes. Every
/// arriving record is logged verbatim; CREATE executions are counted.
fn pushback_nfs_server(
    mut end: PipeEnd,
    sheds: u32,
    log: Arc<Mutex<Vec<Vec<u8>>>>,
    executed: Arc<AtomicU32>,
) {
    std::thread::spawn(move || {
        let mut seen = 0u32;
        loop {
            let record = match read_record(&mut end) {
                Ok(Some(r)) => r,
                _ => return,
            };
            let mut dec = XdrDecoder::new(&record);
            let header = CallHeader::decode(&mut dec).expect("call header");
            log.lock().unwrap().push(record.clone());
            seen += 1;
            let reply = if seen <= sheds {
                sgfs::proxy::server::jukebox_nfs(header.xid, header.proc)
                    .expect("CREATE is shed-able")
            } else {
                match header.proc {
                    procnum::CREATE => {
                        executed.fetch_add(1, Ordering::SeqCst);
                        reply_bytes(
                            header.xid,
                            &sgfs_nfs3::proc::CreateRes {
                                status: NfsStat3::Ok,
                                obj: Some(Fh3::from_ino(1, 4242)),
                                obj_attr: Some(base_attr(0)),
                                dir_wcc: WccData { before: None, after: None },
                            },
                        )
                    }
                    other => panic!("unexpected proc {other} at the pushback server"),
                }
            };
            if write_record(&mut end, &reply).is_err() {
                return;
            }
        }
    });
}

#[test]
fn sustained_jukebox_retries_capped_backoff_without_duplicating_creates() {
    const SHEDS: u32 = 10;
    let log: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let executed = Arc::new(AtomicU32::new(0));

    let (upstream_end, srv) = pipe_pair();
    pushback_nfs_server(srv, SHEDS, log.clone(), executed.clone());

    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::None; // forward verbatim: the wire shows the app's call
    config.retry = RetryPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        jukebox_retries: 32,
        ..RetryPolicy::default()
    };
    let up_watch = upstream_end.watch();
    let mut proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), up_watch, &config)
        .expect("proxy");
    let stats = proxy.stats().clone();

    // One non-idempotent call; the server answers JUKEBOX ten times.
    let record = nfs_call(0x9000_0001, procnum::CREATE, |enc| {
        sgfs_nfs3::proc::CreateArgs {
            where_: DirOpArgs3 { dir: Fh3::from_ino(1, 2), name: "pushback".into() },
            how: sgfs_nfs3::proc::CreateMode::Unchecked(Sattr3::default()),
        }
        .encode(enc)
    });
    let t0 = std::time::Instant::now();
    let body = call(&mut proxy, &record);
    let elapsed = t0.elapsed();

    // Completion: the reply is the executed CREATE, not a passed-through
    // JUKEBOX.
    let res = sgfs_nfs3::proc::CreateRes::from_xdr_bytes(&body).expect("create res");
    assert_eq!(res.status, NfsStat3::Ok, "the call completed once admission reopened");
    assert_eq!(res.obj, Some(Fh3::from_ino(1, 4242)));

    // Never duplicated: the server saw exactly sheds + 1 arrivals, every
    // one byte-identical to the original call past the xid (the pipeline
    // rewrites xids to private wire xids by design — pipeline.rs module
    // docs — but header, cred, and args pass through untouched). JUKEBOX
    // means the server never executed the shed arrivals, which is what
    // makes the verbatim re-send safe for a non-idempotent CREATE.
    let log = log.lock().unwrap();
    assert_eq!(log.len() as u32, SHEDS + 1, "one arrival per shed plus the admitted one");
    for (i, arrival) in log.iter().enumerate() {
        assert_eq!(&arrival[4..], &record[4..], "arrival {i} is the verbatim original call");
    }
    assert_eq!(executed.load(Ordering::SeqCst), 1, "CREATE executed exactly once");
    assert_eq!(stats.jukebox_retries(), SHEDS as u64, "every shed counted as a retry");

    // Capped backoff: ten retries at base 1 ms doubling to a 4 ms cap
    // sleep at least 1+2+8×4 = 35 ms; uncapped doubling would sleep
    // over a second. The window between proves the cap held.
    assert!(elapsed >= Duration::from_millis(35), "backoff was real: {elapsed:?}");
    assert!(elapsed < Duration::from_millis(500), "backoff was capped: {elapsed:?}");
}

// ---------------------------------------------------------------------
// 11. Read-ahead never outlives a change to its file.
// ---------------------------------------------------------------------

/// A one-file NFS server holding real bytes: READ/WRITE/SETATTR(size)
/// apply to `file`, so what a READ returns is what the server holds.
fn one_file_server(mut end: PipeEnd, file: Arc<Mutex<Vec<u8>>>) {
    std::thread::spawn(move || loop {
        let record = match read_record(&mut end) {
            Ok(Some(r)) => r,
            _ => return,
        };
        let mut dec = XdrDecoder::new(&record);
        let header = CallHeader::decode(&mut dec).expect("call header");
        let args = &record[dec.position()..];
        let mut file = file.lock().unwrap();
        let reply = match header.proc {
            procnum::GETATTR => reply_bytes(
                header.xid,
                &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(file.len() as u64)) },
            ),
            procnum::READ => {
                let a = ReadArgs::from_xdr_bytes(args).expect("read args");
                let start = (a.offset as usize).min(file.len());
                let end = (start + a.count as usize).min(file.len());
                reply_bytes(
                    header.xid,
                    &ReadRes {
                        status: NfsStat3::Ok,
                        attr: Some(base_attr(file.len() as u64)),
                        count: (end - start) as u32,
                        eof: end == file.len(),
                        data: file[start..end].to_vec(),
                    },
                )
            }
            procnum::WRITE => {
                let a = WriteArgs::from_xdr_bytes(args).expect("write args");
                let end = a.offset as usize + a.data.len();
                if file.len() < end {
                    file.resize(end, 0);
                }
                file[a.offset as usize..end].copy_from_slice(&a.data);
                reply_bytes(
                    header.xid,
                    &WriteRes {
                        status: NfsStat3::Ok,
                        wcc: WccData { before: None, after: Some(base_attr(file.len() as u64)) },
                        count: a.data.len() as u32,
                        committed: StableHow::FileSync,
                        verf: 7,
                    },
                )
            }
            procnum::COMMIT => reply_bytes(
                header.xid,
                &CommitRes {
                    status: NfsStat3::Ok,
                    wcc: WccData { before: None, after: Some(base_attr(file.len() as u64)) },
                    verf: 7,
                },
            ),
            procnum::SETATTR => {
                let a = SetAttrArgs::from_xdr_bytes(args).expect("setattr args");
                if let Some(size) = a.new_attributes.size {
                    file.resize(size as usize, 0);
                }
                reply_bytes(
                    header.xid,
                    &WccRes {
                        status: NfsStat3::Ok,
                        wcc: WccData { before: None, after: Some(base_attr(file.len() as u64)) },
                    },
                )
            }
            other => panic!("unexpected proc {other} at the one-file server"),
        };
        drop(file);
        if write_record(&mut end, &reply).is_err() {
            return;
        }
    });
}

/// One 512-byte READ of block `block` of the one-file server's file.
fn read_block(proxy: &mut ClientProxy, xid: u32, block: usize) -> Vec<u8> {
    let record = nfs_call(xid, procnum::READ, |enc| {
        ReadArgs { file: Fh3::from_ino(1, 42), offset: (block * 512) as u64, count: 512 }
            .encode(enc)
    });
    let res = ReadRes::from_xdr_bytes(&call(proxy, &record)).expect("read res");
    assert_eq!(res.status, NfsStat3::Ok, "READ block {block}");
    res.data
}

/// READ blocks 0 and 1 → blocks 2 and 3 are read ahead → a WRITE lands
/// *inside* block 2 (not at its cache key) → READ block 2 must show it;
/// then a truncation → a READ past the new end must come back empty. Under
/// `CacheMode::None` the proxy forwards everything (read-ahead needs the
/// attribute cache), so that mode is the control the others must match.
fn read_after_change_case(cache: CacheMode) {
    const BLOCK: usize = 512;
    let label = format!("{cache:?}");
    let content: Vec<u8> = (0..8 * BLOCK).map(|i| (i / BLOCK) as u8 + 1).collect();
    let file = Arc::new(Mutex::new(content.clone()));
    let (upstream_end, srv) = pipe_pair();
    one_file_server(srv, file.clone());

    let mut config = SessionConfig::new(SecurityLevel::None);
    let caching = !matches!(cache, CacheMode::None);
    config.cache = cache;
    config.readahead = 4;
    config.retry = quick_retry();
    let up_watch = upstream_end.watch();
    let mut proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), up_watch, &config)
        .expect("proxy");

    let fh = Fh3::from_ino(1, 42);
    let mut xid = 0x700;
    let mut read = |proxy: &mut ClientProxy, block: usize| -> Vec<u8> {
        xid += 1;
        read_block(proxy, xid, block)
    };

    assert_eq!(read(&mut proxy, 0), content[..BLOCK], "{label}");
    assert_eq!(read(&mut proxy, 1), content[BLOCK..2 * BLOCK], "{label}");
    if caching {
        assert_eq!(proxy.stats().prefetch_hits(), 1, "{label}: block 1 was read ahead");
    }

    // Blocks 2 and 3 are in the landing zone (landed or on the wire) now.
    let patch_at = 2 * BLOCK + 100;
    let write = nfs_call(0x7f0, procnum::WRITE, |enc| {
        WriteArgs {
            file: fh.clone(),
            offset: patch_at as u64,
            stable: StableHow::Unstable,
            data: vec![0xEE; 50],
        }
        .encode(enc)
    });
    let res = WriteRes::from_xdr_bytes(&call(&mut proxy, &write)).expect("write res");
    assert_eq!(res.status, NfsStat3::Ok, "{label}: WRITE");
    let mut expected = content[2 * BLOCK..3 * BLOCK].to_vec();
    expected[100..150].fill(0xEE);
    assert_eq!(
        read(&mut proxy, 2),
        expected,
        "{label}: a READ after a WRITE must not come from pre-write read-ahead"
    );

    // Re-arm read-ahead behind block 3, then cut the file under it.
    assert_eq!(read(&mut proxy, 3), content[3 * BLOCK..4 * BLOCK], "{label}");
    let truncate = nfs_call(0x7f1, procnum::SETATTR, |enc| {
        SetAttrArgs {
            object: fh.clone(),
            new_attributes: Sattr3 { size: Some(4 * BLOCK as u64), ..Default::default() },
        }
        .encode(enc)
    });
    let res = WccRes::from_xdr_bytes(&call(&mut proxy, &truncate)).expect("setattr res");
    assert_eq!(res.status, NfsStat3::Ok, "{label}: SETATTR");
    assert_eq!(read(&mut proxy, 3), content[3 * BLOCK..4 * BLOCK], "{label}");
    assert_eq!(
        read(&mut proxy, 4),
        Vec::<u8>::new(),
        "{label}: a READ past a truncation must not come from pre-truncation read-ahead"
    );
}

#[test]
fn read_after_write_or_resize_is_never_served_from_stale_readahead() {
    read_after_change_case(CacheMode::None);
    read_after_change_case(CacheMode::MemoryMeta);
    let dir = std::env::temp_dir().join(format!("sgfs-fault-matrix-ra-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    read_after_change_case(CacheMode::Disk { dir: dir.clone() });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A proxy with an in-memory cache and a read-ahead ceiling of 8 over a
/// one-file server holding `blocks` 512-byte blocks, block `b` filled
/// with `b + 1`.
fn readahead_proxy(blocks: usize) -> (ClientProxy, Arc<Mutex<Vec<u8>>>) {
    let content: Vec<u8> = (0..blocks * 512).map(|i| (i / 512) as u8 + 1).collect();
    let file = Arc::new(Mutex::new(content));
    let (upstream_end, srv) = pipe_pair();
    one_file_server(srv, file.clone());
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.readahead = 8;
    config.retry = quick_retry();
    let up_watch = upstream_end.watch();
    let proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), up_watch, &config)
        .expect("proxy");
    (proxy, file)
}

/// Three sequential READs ramp the horizon to 4 with blocks 4..8 on the
/// wire or landed. A seek collapses the horizon and drops them: a later
/// READ of one of those blocks goes upstream again — shown by changing
/// the block on the server in between — instead of being served from a
/// reply that was asked for on behalf of a reader that left.
#[test]
fn a_seek_mid_ramp_drops_the_horizon_and_what_was_read_ahead() {
    let (mut proxy, file) = readahead_proxy(32);
    for block in 0..3 {
        assert_eq!(read_block(&mut proxy, 0x900 + block as u32, block), vec![block as u8 + 1; 512]);
    }
    assert_eq!(proxy.prefetch_horizon(), 4, "1 → 2 → 4");
    assert_eq!(proxy.stats().prefetch_hits(), 2, "blocks 1 and 2");

    assert_eq!(read_block(&mut proxy, 0x910, 20), vec![21; 512]);
    assert_eq!(proxy.prefetch_horizon(), 0, "a seek collapses the horizon");

    file.lock().unwrap()[5 * 512..6 * 512].fill(0x5A);
    assert_eq!(
        read_block(&mut proxy, 0x911, 5),
        vec![0x5A; 512],
        "block 5 was read ahead before the seek; that reply must never be served"
    );
    assert_eq!(proxy.stats().prefetch_hits(), 2, "no hit after the seek");
    // Sequential again from block 5: the ramp starts over.
    assert_eq!(read_block(&mut proxy, 0x912, 6), vec![7; 512]);
    assert_eq!(proxy.prefetch_horizon(), 1);
}

/// The server has not seen unflushed writes, so nothing is read ahead
/// for a file that has some: a re-scan of cached blocks 0 and 1 must not
/// fetch block 3 around the patch waiting in the write-back cache.
#[test]
fn nothing_is_read_ahead_behind_unflushed_writes() {
    let (mut proxy, _file) = readahead_proxy(8);
    for block in 0..2 {
        read_block(&mut proxy, 0xa00 + block as u32, block);
    }
    let write = nfs_call(0xa10, procnum::WRITE, |enc| {
        WriteArgs {
            file: Fh3::from_ino(1, 42),
            offset: 3 * 512 + 100,
            stable: StableHow::Unstable,
            data: vec![0xEE; 50],
        }
        .encode(enc)
    });
    let res = WriteRes::from_xdr_bytes(&call(&mut proxy, &write)).expect("write res");
    assert_eq!(res.status, NfsStat3::Ok);

    let mut patched = vec![4u8; 512];
    patched[100..150].fill(0xEE);
    for (block, expect) in [(0, vec![1; 512]), (1, vec![2; 512]), (2, vec![3; 512]), (3, patched)] {
        assert_eq!(read_block(&mut proxy, 0xa20 + block as u32, block), expect, "block {block}");
    }
}
