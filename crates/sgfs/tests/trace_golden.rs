//! Golden-trace tests: scripted workloads whose observability event
//! sequences are pinned exactly. Any silent behavior change — an extra
//! round trip, a lost cache hit, a COMMIT overtaking a WRITE, a replay
//! that stops happening — shows up as a diff against the golden
//! projection.
//!
//! Projections only keep hops emitted from a single thread per scenario
//! (cache decisions, upstream sends, flush rounds, replays), so the
//! sequences are deterministic; cross-thread hops (`upstream_reply`,
//! `backoff`) are asserted by count/structure instead. Each scenario runs
//! three times and the three projections must be identical.
//!
//! The single-upstream scenarios take the placement as an input and run
//! under both spellings of width 1 — no stripe policy, and an explicit
//! width-1 policy with a 512-byte stripe unit — and all six projections
//! must be identical: a single upstream is a full-copy member, so the
//! stripe unit must never show on the wire (no size-mirror SETATTR after
//! COMMIT, no extent split or READ clamp at a 512-byte boundary).

use sgfs::config::{
    CacheMode, DurabilityPolicy, RetryPolicy, SecurityLevel, SessionConfig, StripePolicy,
};
use sgfs::proxy::client::{ClientProxy, Upstream};
use sgfs::proxy::journal::JOURNAL_FILE;
use sgfs_net::{pipe_pair, PipeEnd};
use sgfs_nfs3::proc::{
    procnum, CommitRes, GetAttrRes, ReadArgs, ReadRes, WccRes, WriteArgs, WriteRes,
};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_obs::{Counter, Emitter, Hop, Obs, TraceEvent, ALL_HOPS};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{CallHeader, OpaqueAuth, ReplyHeader};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn nfs_call(xid: u32, proc: u32, body: impl FnOnce(&mut XdrEncoder)) -> Vec<u8> {
    let header = CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc,
        cred: OpaqueAuth::sys(&AuthSysParams::new("golden-host", 1001, 1001)),
        verf: OpaqueAuth::none(),
    };
    let mut enc = XdrEncoder::with_capacity(256);
    header.encode(&mut enc);
    body(&mut enc);
    enc.into_bytes()
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
        max_reconnects: 8,
        dial_attempts: 4,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        call_deadline: Some(Duration::from_secs(20)),
        ..RetryPolicy::default()
    }
}

/// A full mock-NFS responder with a stable write verifier.
fn nfs_server(mut end: PipeEnd) {
    std::thread::spawn(move || loop {
        let record = match read_record(&mut end) {
            Ok(Some(r)) => r,
            _ => return,
        };
        let mut dec = XdrDecoder::new(&record);
        let header = CallHeader::decode(&mut dec).expect("call header");
        let reply = match header.proc {
            procnum::GETATTR => reply_bytes(
                header.xid,
                &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) },
            ),
            procnum::WRITE => {
                let args =
                    WriteArgs::from_xdr_bytes(&record[dec.position()..]).expect("write args");
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
        if write_record(&mut end, &reply).is_err() {
            return;
        }
    });
}

fn traced_config(stripe: Option<StripePolicy>) -> (SessionConfig, Arc<Obs>) {
    let obs = Obs::new();
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.window = 8;
    config.retry = quick_retry();
    config.obs = Some(obs.clone());
    config.stripe = stripe;
    (config, obs)
}

/// The two spellings of the single-upstream placement.
const WIDTH_ONE: [Option<StripePolicy>; 2] =
    [None, Some(StripePolicy { width: 1, replicas: 1, block_size: 512 })];

/// Run a single-upstream scenario three times under each width-1
/// placement; every projection must equal every other.
fn assert_golden_under_width_one(scenario: fn(Option<StripePolicy>) -> Vec<String>) {
    let runs: Vec<Vec<String>> =
        WIDTH_ONE.iter().flat_map(|&stripe| (0..3).map(move |_| scenario(stripe))).collect();
    for (i, pair) in runs.windows(2).enumerate() {
        assert_eq!(pair[0], pair[1], "run {} diverged from run {}", i + 2, i + 1);
    }
}

/// Run `records` through the proxy's downstream interface one at a time
/// (request, await reply), then return the proxy for further driving.
fn drive(proxy: ClientProxy, records: &[Vec<u8>]) -> ClientProxy {
    drive_replies(proxy, records).0
}

/// [`drive`], also returning each reply's result body (past the header).
fn drive_replies(mut proxy: ClientProxy, records: &[Vec<u8>]) -> (ClientProxy, Vec<Vec<u8>>) {
    let mut bodies = Vec::with_capacity(records.len());
    for record in records {
        let reply = proxy.process_one(record).expect("downstream reply");
        let mut dec = XdrDecoder::new(&reply);
        ReplyHeader::decode(&mut dec).expect("reply header");
        bodies.push(reply[dec.position()..].to_vec());
    }
    (proxy, bodies)
}

/// The deterministic projection of a trace: hop names (tagged with the
/// procedure where meaningful), restricted to single-threaded hops.
fn golden(events: &[TraceEvent], keep: &[Hop]) -> Vec<String> {
    events
        .iter()
        .filter(|e| keep.contains(&e.hop))
        .map(|e| {
            if e.proc < sgfs_obs::NUM_PROCS as u32 {
                format!("{}:{}", e.hop.as_str(), sgfs_obs::proc_name(e.proc))
            } else {
                e.hop.as_str().to_string()
            }
        })
        .collect()
}

/// One emission, two views: hop by hop, what the emitters attached to
/// `obs` counted is what its (quiesced, un-wrapped) rings hold.
fn assert_counts_match_events(obs: &Obs, events: &[TraceEvent]) {
    for hop in ALL_HOPS {
        let traced = events.iter().filter(|e| e.hop == hop).count() as u64;
        assert_eq!(obs.counted(hop), traced, "{} counted != traced", hop.as_str());
    }
}

// ---------------------------------------------------------------------
// 1. Metadata cache: miss populates, hit short-circuits.
// ---------------------------------------------------------------------

fn cache_scenario(stripe: Option<StripePolicy>) -> Vec<String> {
    let (config, obs) = traced_config(stripe);
    let (upstream_end, srv) = pipe_pair();
    nfs_server(srv);
    let watch = upstream_end.watch();
    let proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), watch, &config)
        .expect("proxy");

    let fh = Fh3::from_ino(1, 42);
    let getattr =
        |xid: u32| nfs_call(xid, procnum::GETATTR, |enc| fh.clone().encode(enc));
    let proxy = drive(proxy, &[getattr(0x10), getattr(0x11), getattr(0x12)]);
    drop(proxy);

    let (events, dropped) = obs.events();
    assert_eq!(dropped, 0);
    // Exactly one call crossed the wire; the repeats were served locally.
    let sends: Vec<&TraceEvent> =
        events.iter().filter(|e| e.hop == Hop::UpstreamSend).collect();
    assert_eq!(sends.len(), 1, "repeat GETATTRs must not go upstream");
    assert_eq!(sends[0].proc, procnum::GETATTR);
    // The sole round trip was measured.
    assert_eq!(obs.hop_hist(Hop::UpstreamReply).count(), 1);
    assert_eq!(obs.proc_hist(procnum::GETATTR).unwrap().count(), 3);

    let g = golden(
        &events,
        &[Hop::CacheHit, Hop::CacheMiss, Hop::UpstreamSend],
    );
    assert_eq!(
        g,
        [
            "cache_miss:getattr",
            "upstream_send:getattr",
            "cache_hit:getattr",
            "cache_hit:getattr",
        ],
        "golden cache sequence changed"
    );
    g
}

#[test]
fn golden_cache_hit_miss_sequence() {
    assert_golden_under_width_one(cache_scenario);
}

// ---------------------------------------------------------------------
// 2. Split-phase flush: every WRITE is sent before the COMMIT.
// ---------------------------------------------------------------------

fn flush_scenario(stripe: Option<StripePolicy>) -> Vec<String> {
    const BLOCKS: usize = 3;
    const BLOCK_LEN: usize = 512;
    let (config, obs) = traced_config(stripe);
    let (upstream_end, srv) = pipe_pair();
    nfs_server(srv);
    let watch = upstream_end.watch();
    let proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), watch, &config)
        .expect("proxy");

    let fh = Fh3::from_ino(1, 42);
    let writes: Vec<Vec<u8>> = (0..BLOCKS)
        .map(|i| {
            nfs_call(0x20 + i as u32, procnum::WRITE, |enc| {
                WriteArgs {
                    file: fh.clone(),
                    offset: (i * BLOCK_LEN) as u64,
                    stable: StableHow::Unstable,
                    data: vec![i as u8; BLOCK_LEN],
                }
                .encode(enc)
            })
        })
        .collect();
    let mut proxy = drive(proxy, &writes);
    proxy.flush_all().expect("flush");
    drop(proxy);

    let (events, dropped) = obs.events();
    assert_eq!(dropped, 0);
    // The downstream WRITEs were absorbed locally (block store), not
    // forwarded: the only upstream WRITE traffic is the flush.
    assert_eq!(
        events.iter().filter(|e| e.hop == Hop::BlockWrite).count(),
        BLOCKS,
        "each absorbed WRITE hits the block store once"
    );
    let g = golden(&events, &[Hop::FlushRound, Hop::UpstreamSend]);
    // Split-phase contract, pinned exactly: the first absorbed WRITE
    // fetches base attributes upstream, then one flush round announcing
    // the dirty block count, all WRITEs, then the COMMIT.
    assert_eq!(
        g,
        [
            "upstream_send:getattr",
            "flush_round:commit",
            "upstream_send:write",
            "upstream_send:write",
            "upstream_send:write",
            "upstream_send:commit",
        ],
        "golden flush sequence changed"
    );
    let round = events.iter().find(|e| e.hop == Hop::FlushRound).unwrap();
    assert_eq!(round.aux, BLOCKS as u64, "flush round carries the dirty count");
    g
}

#[test]
fn golden_split_phase_flush_sequence() {
    assert_golden_under_width_one(flush_scenario);
}

// ---------------------------------------------------------------------
// 3. Replay after reconnect: in-flight WRITEs are replayed on the fresh
//    channel and the COMMIT still waits for all of them.
// ---------------------------------------------------------------------

fn replay_scenario(stripe: Option<StripePolicy>) -> Vec<String> {
    const BLOCKS: usize = 3;
    const BLOCK_LEN: usize = 512;
    let (config, obs) = traced_config(stripe);

    // Connection #1 answers metadata calls but swallows WRITEs until it
    // has seen every one, then dies without replying: the whole flush
    // window is in flight when the channel collapses, so the replay set
    // is exactly the three WRITEs.
    let (upstream_end, dead_srv) = pipe_pair();
    std::thread::spawn(move || {
        let mut end = dead_srv;
        let mut writes_seen = 0;
        while writes_seen < BLOCKS {
            match read_record(&mut end) {
                Ok(Some(record)) => match sgfs_obs::peek_proc(&record) {
                    p if p == procnum::WRITE => writes_seen += 1,
                    p if p == procnum::GETATTR => {
                        let reply = reply_bytes(
                            sgfs_obs::peek_xid(&record),
                            &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) },
                        );
                        if write_record(&mut end, &reply).is_err() {
                            return;
                        }
                    }
                    other => panic!("unexpected proc {other} on dying channel"),
                },
                _ => return,
            }
        }
        // Drop: both pipe directions close, the pipeline recovers.
    });

    let dials = Arc::new(AtomicU32::new(0));
    let dialed = dials.clone();
    let reconnect = move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
        dialed.fetch_add(1, Ordering::SeqCst);
        let (end, srv) = pipe_pair();
        nfs_server(srv);
        let watch = end.watch();
        Ok((Upstream::Plain(Box::new(end)), watch))
    };
    let up_watch = upstream_end.watch();
    let proxy = ClientProxy::with_reconnector(
        Upstream::Plain(Box::new(upstream_end)),
        up_watch,
        &config,
        Some(Box::new(reconnect)),
    )
    .expect("proxy");

    let fh = Fh3::from_ino(1, 42);
    let writes: Vec<Vec<u8>> = (0..BLOCKS)
        .map(|i| {
            nfs_call(0x30 + i as u32, procnum::WRITE, |enc| {
                WriteArgs {
                    file: fh.clone(),
                    offset: (i * BLOCK_LEN) as u64,
                    stable: StableHow::Unstable,
                    data: vec![i as u8; BLOCK_LEN],
                }
                .encode(enc)
            })
        })
        .collect();
    let mut proxy = drive(proxy, &writes);
    proxy.flush_all().expect("flush survives the reconnect");
    drop(proxy);
    assert_eq!(dials.load(Ordering::SeqCst), 1, "one successful re-dial");

    let (events, dropped) = obs.events();
    assert_eq!(dropped, 0);

    // Structure: exactly one recovery episode replaying all three WRITEs.
    let replays: Vec<&TraceEvent> =
        events.iter().filter(|e| e.hop == Hop::Replay).collect();
    assert_eq!(replays.len(), BLOCKS, "every in-flight WRITE was replayed");
    assert!(replays.iter().all(|e| e.proc == procnum::WRITE));
    assert_eq!(events.iter().filter(|e| e.hop == Hop::Reconnect).count(), 1);
    // Each replayed xid got its reply on the fresh channel, afterwards.
    for r in &replays {
        assert!(
            events
                .iter()
                .any(|e| e.hop == Hop::UpstreamReply && e.xid == r.xid && e.seq > r.seq),
            "replayed xid {:#x} never answered",
            r.xid
        );
    }
    // The COMMIT was sent only after every replay (split-phase across
    // the reconnect).
    let commit_send = events
        .iter()
        .find(|e| e.hop == Hop::UpstreamSend && e.proc == procnum::COMMIT)
        .expect("flush commits");
    assert!(
        replays.iter().all(|r| r.seq < commit_send.seq),
        "COMMIT overtook a replayed WRITE"
    );

    // Replays and the reconnect marker happen on one recovery thread
    // while the flusher is blocked, so they project deterministically.
    let g = golden(&events, &[Hop::FlushRound, Hop::Replay, Hop::Reconnect]);
    assert_eq!(
        g,
        [
            "flush_round:commit",
            "replay:write",
            "replay:write",
            "replay:write",
            "reconnect",
        ],
        "golden recovery sequence changed"
    );
    assert_eq!((obs.counted(Hop::Replay), obs.counted(Hop::Reconnect)), (BLOCKS as u64, 1));
    assert_counts_match_events(&obs, &events);
    g
}

#[test]
fn golden_replay_after_reconnect_sequence() {
    assert_golden_under_width_one(replay_scenario);
}

// ---------------------------------------------------------------------
// 4. Crash recovery: journal replay, torn-tail detection, and the
//    re-flush of the surviving dirty block — pinned exactly.
// ---------------------------------------------------------------------

fn recovery_scenario(stripe: Option<StripePolicy>) -> Vec<String> {
    const BLOCK_LEN: usize = 512;
    let dir =
        std::env::temp_dir().join(format!("sgfs-golden-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability =
        DurabilityPolicy { journal: true, fsync_every: 1, compact_min_records: 0 };
    let disk_config = |obs: &Arc<Obs>| {
        let mut config = SessionConfig::new(SecurityLevel::None);
        config.cache = CacheMode::Disk { dir: dir.clone() };
        config.window = 8;
        config.retry = quick_retry();
        config.durability = durability;
        config.obs = Some(obs.clone());
        config.stripe = stripe;
        config
    };
    let fh = Fh3::from_ino(1, 42);

    // Incarnation #1 absorbs two unstable WRITEs and dies without a
    // flush: the journal is the only thing standing between those acks
    // and data loss.
    {
        let obs = Obs::new();
        let (upstream_end, srv) = pipe_pair();
        nfs_server(srv);
        let watch = upstream_end.watch();
        let proxy =
            ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), watch, &disk_config(&obs))
                .expect("proxy");
        let writes: Vec<Vec<u8>> = (0..2)
            .map(|i| {
                nfs_call(0x40 + i as u32, procnum::WRITE, |enc| {
                    WriteArgs {
                        file: fh.clone(),
                        offset: (i * BLOCK_LEN) as u64,
                        stable: StableHow::Unstable,
                        data: vec![i as u8; BLOCK_LEN],
                    }
                    .encode(enc)
                })
            })
            .collect();
        let proxy = drive(proxy, &writes);
        drop(proxy);
        let (events, dropped) = obs.events();
        assert_eq!(dropped, 0);
        assert_eq!(
            events.iter().filter(|e| e.hop == Hop::JournalAppend).count(),
            2,
            "each absorbed WRITE journals exactly once"
        );
    }
    // A host crash mid-append: the second record's tail is torn off.
    let wal = dir.join(JOURNAL_FILE);
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    // Incarnation #2: recovery replays the intact prefix, reports the
    // tear, and the next flush re-sends the surviving block.
    let obs = Obs::new();
    let (upstream_end, srv) = pipe_pair();
    nfs_server(srv);
    let watch = upstream_end.watch();
    let mut proxy =
        ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), watch, &disk_config(&obs))
            .expect("proxy");
    let recovered =
        (proxy.stats().sum(Hop::RecoveryComplete), proxy.stats().get(Counter::RecoveredBytes));
    assert_eq!(recovered, (1, BLOCK_LEN as u64), "one block survives the tear");
    proxy.flush_all().expect("post-recovery flush");
    drop(proxy);
    let _ = std::fs::remove_dir_all(&dir);

    let (events, dropped) = obs.events();
    assert_eq!(dropped, 0);
    // Recovery latency landed in its histogram.
    assert_eq!(obs.hop_hist(Hop::RecoveryComplete).count(), 1);
    let replayed = events.iter().find(|e| e.hop == Hop::RecoveryReplay).unwrap();
    assert_eq!(replayed.aux, 1, "one journal record replayed before the tear");
    let torn = events.iter().find(|e| e.hop == Hop::RecoveryTorn).unwrap();
    assert!(torn.aux > 0, "torn bytes measured");
    let complete = events.iter().find(|e| e.hop == Hop::RecoveryComplete).unwrap();
    assert_eq!(complete.aux, 1, "one survivor re-marked dirty");

    let g = golden(
        &events,
        &[
            Hop::RecoveryReplay,
            Hop::RecoveryTorn,
            Hop::RecoveryComplete,
            Hop::FlushRound,
            Hop::UpstreamSend,
        ],
    );
    assert_eq!(
        g,
        [
            "recovery_replay",
            "recovery_torn",
            "recovery_complete",
            "flush_round:commit",
            "upstream_send:write",
            "upstream_send:commit",
        ],
        "golden recovery sequence changed"
    );
    g
}

#[test]
fn golden_recovery_sequence() {
    assert_golden_under_width_one(recovery_scenario);
}

// ---------------------------------------------------------------------
// 5. AEAD record plane: a GTLS session under AES-256-GCM emits one
//    suite-tagged record_seal/record_open pair per record, with the
//    exact payload byte counts — no hidden fragmentation or padding.
// ---------------------------------------------------------------------

fn aead_trace_scenario() -> Vec<String> {
    use sgfs_gtls::{CipherSuite, GtlsConfig, GtlsStream};
    use sgfs_pki::{CertificateAuthority, Credential, DistinguishedName, TrustStore};
    use std::io::{Read, Write};

    let mut rng = rand::thread_rng();
    let ca = CertificateAuthority::new(
        &DistinguishedName::parse("/O=Grid/CN=CA").unwrap(),
        512,
        &mut rng,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let mut cred = |cn: &str| {
        let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, &mut rng);
        let cert = ca.issue(&DistinguishedName::parse(cn).unwrap(), &key.public);
        Credential::new(cert, key)
    };
    let client_cfg = GtlsConfig::new(cred("/O=Grid/CN=alice"), trust.clone())
        .with_suite(CipherSuite::Aes256Gcm);
    let server_cfg = GtlsConfig::new(cred("/O=Grid/CN=fileserver"), trust)
        .with_suite(CipherSuite::Aes256Gcm);

    let (a, b) = pipe_pair();
    let h = std::thread::spawn(move || GtlsStream::server(Box::new(b), server_cfg).unwrap());
    let mut c = GtlsStream::client(Box::new(a), client_cfg).unwrap();
    let mut s = h.join().unwrap();
    assert!(c.suite().is_aead());

    // One shared domain, attached after the handshake; the scripted
    // ping-pong below then drives both ends from this single thread, so
    // the event interleaving is fully deterministic.
    let obs = Obs::new();
    c.obs = Some(Emitter::new(&obs, "client"));
    s.obs = Some(Emitter::new(&obs, "server"));

    let mut buf = vec![0u8; 4096];
    for &(c_to_s, len) in &[(true, 1024usize), (false, 2048), (true, 333), (false, 1)] {
        let (tx, rx) = if c_to_s { (&mut c, &mut s) } else { (&mut s, &mut c) };
        tx.write_all(&vec![0x5au8; len]).unwrap();
        rx.read_exact(&mut buf[..len]).unwrap();
    }

    let (events, dropped) = obs.events();
    assert_eq!(dropped, 0);
    let g: Vec<String> = events
        .iter()
        .filter(|e| matches!(e.hop, Hop::RecordSeal | Hop::RecordOpen))
        .map(|e| format!("{}:{}:{}", e.hop.as_str(), e.xid, e.aux))
        .collect();
    // suite wire id 6 = AES-256-GCM; aux = plaintext payload bytes.
    assert_eq!(
        g,
        [
            "record_seal:6:1024",
            "record_open:6:1024",
            "record_seal:6:2048",
            "record_open:6:2048",
            "record_seal:6:333",
            "record_open:6:333",
            "record_seal:6:1",
            "record_open:6:1",
        ],
        "golden AEAD record sequence changed"
    );
    g
}

#[test]
fn golden_aead_record_sequence() {
    let runs: Vec<Vec<String>> = (0..3).map(|_| aead_trace_scenario()).collect();
    assert_eq!(runs[0], runs[1], "run 2 diverged from run 1");
    assert_eq!(runs[1], runs[2], "run 3 diverged from run 2");
}

// ---------------------------------------------------------------------
// 6. Sharded accept plane: each accepted session emits exactly one
//    shard_accept (on the accepting thread) followed by one
//    shard_handoff (on its event loop), and the round-robin placement
//    `id % shards` is pinned in the aux field.
// ---------------------------------------------------------------------

fn shard_scenario() -> Vec<String> {
    use sgfs_oncrpc::{RecordService, ShardServer};

    struct Echo;
    impl RecordService for Echo {
        fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
            Ok(record.to_vec())
        }
    }

    let obs = Obs::new();
    let shards = ShardServer::with_obs(2, obs.clone());
    let mut clients = Vec::new();
    for _ in 0..4 {
        let (mut client, server_end) = pipe_pair();
        let watch = server_end.watch();
        shards.add_session(Box::new(server_end), watch, Arc::new(Echo)).unwrap();
        // One round trip serializes the interleaving: the echoed reply
        // proves this session's handoff completed before the next accept,
        // so the projection is deterministic despite the shard threads.
        write_record(&mut client, b"ping").unwrap();
        assert_eq!(read_record(&mut client).unwrap().expect("echo"), b"ping");
        clients.push(client);
    }
    let stats = shards.stats();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.served, 4);

    let (events, dropped) = obs.events();
    assert_eq!(dropped, 0);
    // xid carries the session id, aux the shard index (id % 2).
    let g: Vec<String> = events
        .iter()
        .filter(|e| matches!(e.hop, Hop::ShardAccept | Hop::ShardHandoff))
        .map(|e| format!("{}:{}:{}", e.hop.as_str(), e.xid, e.aux))
        .collect();
    assert_eq!(
        g,
        [
            "shard_accept:1:1",
            "shard_handoff:1:1",
            "shard_accept:2:0",
            "shard_handoff:2:0",
            "shard_accept:3:1",
            "shard_handoff:3:1",
            "shard_accept:4:0",
            "shard_handoff:4:0",
        ],
        "golden shard accept/handoff sequence changed"
    );
    g
}

#[test]
fn golden_shard_accept_handoff_sequence() {
    let runs: Vec<Vec<String>> = (0..3).map(|_| shard_scenario()).collect();
    assert_eq!(runs[0], runs[1], "run 2 diverged from run 1");
    assert_eq!(runs[1], runs[2], "run 3 diverged from run 2");
}

// ---------------------------------------------------------------------
// 7. Striped session: replicated flush, striped reads, failover — every
//    hop tagged with the upstream member that served it.
// ---------------------------------------------------------------------

/// A striped member's responder: the full mock-NFS surface plus READ
/// with deterministic content, dying (no reply, wire closed) on its
/// `die_on_read`-th READ when set.
fn striped_member_server(mut end: PipeEnd, mut die_on_read: Option<u32>) {
    std::thread::spawn(move || loop {
        let record = match read_record(&mut end) {
            Ok(Some(r)) => r,
            _ => return,
        };
        let mut dec = XdrDecoder::new(&record);
        let header = CallHeader::decode(&mut dec).expect("call header");
        let reply = match header.proc {
            procnum::GETATTR => reply_bytes(
                header.xid,
                &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(1 << 20)) },
            ),
            procnum::WRITE => {
                let args =
                    WriteArgs::from_xdr_bytes(&record[dec.position()..]).expect("write args");
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
            procnum::COMMIT => reply_bytes(
                header.xid,
                &CommitRes {
                    status: NfsStat3::Ok,
                    wcc: WccData { before: None, after: Some(base_attr(0)) },
                    verf: 7,
                },
            ),
            // Post-COMMIT size mirror from the striped flush.
            procnum::SETATTR => reply_bytes(
                header.xid,
                &WccRes {
                    status: NfsStat3::Ok,
                    wcc: WccData { before: None, after: Some(base_attr(0)) },
                },
            ),
            procnum::READ => {
                if let Some(n) = &mut die_on_read {
                    *n -= 1;
                    if *n == 0 {
                        return; // the seeded death: request dropped, wire closed
                    }
                }
                let args =
                    ReadArgs::from_xdr_bytes(&record[dec.position()..]).expect("read args");
                reply_bytes(
                    header.xid,
                    &ReadRes {
                        status: NfsStat3::Ok,
                        attr: Some(base_attr(1 << 20)),
                        count: args.count,
                        eof: false,
                        data: vec![(args.offset / 512) as u8; args.count as usize],
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

/// The per-member projection of the striped hops: which member served
/// each striped read, which members confirmed each replicated flush,
/// which member failed over.
fn striped_golden(events: &[TraceEvent]) -> Vec<String> {
    events
        .iter()
        .filter(|e| {
            matches!(e.hop, Hop::StripeRead | Hop::ReplicaWrite | Hop::ReplicaFailover)
        })
        .map(|e| format!("{}:m{}", e.hop.as_str(), e.aux))
        .collect()
}

fn striped_scenario() -> Vec<String> {
    let (config, obs) =
        traced_config(Some(StripePolicy { width: 3, replicas: 2, block_size: 512 }));
    // Member 2's death is scripted below; reads fail over to survivors.
    let mut upstreams = Vec::new();
    for m in 0..3u32 {
        let (end, srv) = pipe_pair();
        // Member 1 dies on its second READ (its first serves the striped
        // read of block 5; the second — block 8 — is dropped mid-air).
        striped_member_server(srv, if m == 1 { Some(2) } else { None });
        let watch = end.watch();
        upstreams.push((Upstream::Plain(Box::new(end)) as Upstream, watch, None));
    }
    let proxy = ClientProxy::with_stripe(upstreams, &config).expect("striped proxy");

    let fh = Fh3::from_ino(1, 42);
    // Replicated flush: three dirty blocks fan out to their mapped
    // member pairs; each member's batch is confirmed by its own COMMIT.
    let writes: Vec<Vec<u8>> = (0..3u64)
        .map(|b| {
            nfs_call(0x20 + b as u32, procnum::WRITE, |enc| {
                WriteArgs {
                    file: fh.clone(),
                    offset: b * 512,
                    stable: StableHow::Unstable,
                    data: vec![b as u8; 512],
                }
                .encode(enc)
            })
        })
        .collect();
    let mut proxy = drive(proxy, &writes);
    proxy.flush_file(&fh).expect("replicated flush");

    // Striped reads of uncached blocks: each lands on its block's
    // primary (blocks 3, 4, 5 → members 0, 2, 1), then block 8's primary
    // (member 1) dies mid-read and the block fails over to member 2.
    let reads: Vec<Vec<u8>> = [3u64, 4, 5, 8]
        .iter()
        .map(|&b| {
            nfs_call(0x40 + b as u32, procnum::READ, |enc| {
                ReadArgs { file: fh.clone(), offset: b * 512, count: 512 }.encode(enc)
            })
        })
        .collect();
    let proxy = drive(proxy, &reads);
    drop(proxy);

    let (events, dropped) = obs.events();
    assert_eq!(dropped, 0);
    let g = striped_golden(&events);
    assert_eq!(
        g,
        [
            "replica_write:m0",
            "replica_write:m1",
            "replica_write:m2",
            "stripe_read:m0",
            "stripe_read:m2",
            "stripe_read:m1",
            "replica_failover:m1",
            "stripe_read:m2",
        ],
        "golden striped sequence changed"
    );
    assert_eq!(obs.counted(Hop::ReplicaFailover), 1);
    assert_counts_match_events(&obs, &events);
    g
}

#[test]
fn golden_striped_failover_sequence() {
    let runs: Vec<Vec<String>> = (0..3).map(|_| striped_scenario()).collect();
    assert_eq!(runs[0], runs[1], "run 2 diverged from run 1");
    assert_eq!(runs[1], runs[2], "run 3 diverged from run 2");
}

// ---------------------------------------------------------------------
// 8. Unaligned I/O on a single upstream: one WRITE and one READ that each
//    straddle 512-byte boundaries. A full-copy member needs no stripe
//    bookkeeping, so under either width-1 placement the WRITE is absorbed
//    and flushed as one extent, the COMMIT is the last record of the
//    flush (no size-mirror SETATTR), and the READ comes back whole.
// ---------------------------------------------------------------------

fn unaligned_io_scenario(stripe: Option<StripePolicy>) -> Vec<String> {
    const LEN: usize = 1024;
    let (config, obs) = traced_config(stripe);
    let (upstream_end, srv) = pipe_pair();
    striped_member_server(srv, None);
    let watch = upstream_end.watch();
    let proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), watch, &config)
        .expect("proxy");

    let fh = Fh3::from_ino(1, 42);
    let write = nfs_call(0x50, procnum::WRITE, |enc| {
        WriteArgs {
            file: fh.clone(),
            offset: 256,
            stable: StableHow::Unstable,
            data: vec![0x5a; LEN],
        }
        .encode(enc)
    });
    let mut proxy = drive(proxy, &[write]);
    proxy.flush_file(&fh).expect("flush");

    // An uncached extent: the reply the kernel client sees is whole.
    let read = nfs_call(0x51, procnum::READ, |enc| {
        ReadArgs { file: fh.clone(), offset: 4096 + 256, count: LEN as u32 }.encode(enc)
    });
    let (proxy, bodies) = drive_replies(proxy, &[read]);
    drop(proxy);
    let res = ReadRes::from_xdr_bytes(&bodies[0]).expect("read res");
    assert_eq!(res.data.len(), LEN, "a single upstream serves the whole extent");

    let (events, dropped) = obs.events();
    assert_eq!(dropped, 0);
    let round = events.iter().find(|e| e.hop == Hop::FlushRound).unwrap();
    assert_eq!(round.aux, 1, "the unaligned WRITE was absorbed as one extent");
    let g = golden(&events, &[Hop::FlushRound, Hop::CacheMiss, Hop::UpstreamSend]);
    assert_eq!(
        g,
        [
            "upstream_send:getattr",
            "flush_round:commit",
            "upstream_send:write",
            "upstream_send:commit",
            "cache_miss:read",
            "upstream_send:read",
        ],
        "golden unaligned-I/O sequence changed"
    );
    g
}

#[test]
fn golden_unaligned_io_on_a_single_upstream() {
    assert_golden_under_width_one(unaligned_io_scenario);
}

// ---------------------------------------------------------------------
// 9. Read-ahead on a single upstream: a sequential scan is one demand
//    READ, then landing-zone hits, while exactly one READ per block —
//    demanded or read ahead — crosses the wire, and none at or past the
//    end of the file. Every READ enters the pipeline from the one thread
//    that drives the proxy, so the wire order is part of the golden; the
//    proxy-side and wire-side hops come from two threads and are
//    projected separately.
// ---------------------------------------------------------------------

/// Scan the first `reads` `block`-sized blocks of the mock's 1 MiB file
/// under read-ahead ceiling `depth`; `upstream` is how many READs that
/// must put on the wire.
fn readahead_scenario(
    mut config: SessionConfig,
    obs: Arc<Obs>,
    depth: u32,
    block: u32,
    reads: u32,
    upstream: usize,
) -> Vec<String> {
    config.readahead = depth;
    let (upstream_end, srv) = pipe_pair();
    striped_member_server(srv, None);
    let watch = upstream_end.watch();
    let proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), watch, &config)
        .expect("proxy");
    let stats = proxy.stats().clone();

    let fh = Fh3::from_ino(1, 42);
    let scan: Vec<Vec<u8>> = (0..reads)
        .map(|b| {
            nfs_call(0x60 + b, procnum::READ, |enc| {
                ReadArgs { file: fh.clone(), offset: (b * block) as u64, count: block }.encode(enc)
            })
        })
        .collect();
    let (proxy, bodies) = drive_replies(proxy, &scan);
    drop(proxy);
    for (b, body) in bodies.iter().enumerate() {
        let res = ReadRes::from_xdr_bytes(body).expect("read res");
        let fill = (b as u32 * block / 512) as u8;
        assert_eq!(res.data, vec![fill; block as usize], "block {b}");
    }
    assert_eq!(stats.prefetch_hits(), (reads - 1) as u64, "all but the first READ were read ahead");

    let (events, dropped) = obs.events();
    assert_eq!(dropped, 0);
    // A READ that found its block still on the wire waited for it
    // instead of asking again.
    let mut g = golden(&events, &[Hop::CacheHit, Hop::CacheMiss]);
    let mut expect = vec!["cache_miss:read"];
    expect.resize(reads as usize, "cache_hit:read");
    assert_eq!(g, expect, "golden read-ahead cache sequence changed");
    let sends = golden(&events, &[Hop::UpstreamSend]);
    assert_eq!(sends, vec!["upstream_send:read"; upstream], "golden read-ahead wire sequence changed");
    g.extend(sends);
    g
}

/// A ceiling of 2: blocks 0..4 are demanded and the ramp (1, then 2,
/// then 2) has asked for two more behind the last one.
fn shallow_readahead_scenario(stripe: Option<StripePolicy>) -> Vec<String> {
    let (config, obs) = traced_config(stripe);
    readahead_scenario(config, obs, 2, 512, 4, 6)
}

/// What a WAN session gets without asking: a disk cache and a pipeline
/// window's worth of read-ahead. The whole file is scanned in sixteen
/// 64 KiB blocks; the ramp reaches the ceiling by block 8 and its last
/// batch stops at EOF, so sixteen READs cross the wire — the scan's own.
fn default_disk_readahead_scenario(stripe: Option<StripePolicy>) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("sgfs-golden-readahead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut config, obs) = traced_config(stripe);
    config.cache = CacheMode::Disk { dir: dir.clone() };
    config.durability = DurabilityPolicy::none();
    let g = readahead_scenario(config, obs, sgfs::proxy::pipeline::DEFAULT_WINDOW, 64 * 1024, 16, 16);
    let _ = std::fs::remove_dir_all(&dir);
    g
}

#[test]
fn golden_readahead_requests_each_block_once() {
    assert_golden_under_width_one(shallow_readahead_scenario);
    assert_golden_under_width_one(default_disk_readahead_scenario);
}
