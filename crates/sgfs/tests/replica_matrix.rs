//! Replica-failover matrix for the multi-server data plane.
//!
//! Each case places one `ClientProxy` across a stripe set of mock NFS
//! servers (width 3, 2 replicas per block), kills exactly one member at a
//! seeded point — during read-ahead fan-out, in the middle of a
//! replicated flush, or while its reconnect handshake is in flight — and
//! proves the session degrades instead of failing:
//!
//! * reads re-route to the block's surviving replica,
//! * writes keep flowing at reduced redundancy (the `degraded` gauge
//!   rises, missed blocks are recorded for re-sync),
//! * and at the end the **file state reconstructed from the survivors is
//!   byte-identical** to a single-server oracle run of the same script.
//!
//! A separate case re-syncs the dead member from the write-back store and
//! checks it rejoins with byte-identical state; a thread-ceiling case
//! proves stripe width adds zero client threads at widths 1, 2 and 4
//! alike (every member pipeline is driven by the proxy's caller, and so
//! is read-ahead).

use sgfs::config::{CacheMode, RetryPolicy, SecurityLevel, SessionConfig, StripePolicy};
use sgfs::proxy::blockstore::BlockKey;
use sgfs::proxy::client::{ClientProxy, Upstream};
use sgfs::proxy::stripe::StripeMap;
use sgfs_net::{pipe_pair, PipeEnd};
use sgfs_nfs3::proc::{
    procnum, CommitRes, GetAttrRes, ReadArgs, ReadRes, SetAttrArgs, WccRes, WriteArgs, WriteRes,
};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_obs::{Gauge, Hop};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{CallHeader, OpaqueAuth, ReplyHeader};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BLOCK: usize = 512;
const WIDTH: u32 = 3;
const REPLICAS: u32 = 2;
const FILE_SIZE: u64 = 1 << 20;

/// What one mock replica durably holds: block content per (file, offset).
type ServerState = Arc<Mutex<BTreeMap<BlockKey, Vec<u8>>>>;

fn fh1() -> Fh3 {
    Fh3::from_ino(1, 42)
}

fn fh2() -> Fh3 {
    Fh3::from_ino(1, 43)
}

fn policy() -> StripePolicy {
    StripePolicy { width: WIDTH, replicas: REPLICAS, block_size: BLOCK as u32 }
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

/// A seeded kill switch: the server dies (drops its pipe without
/// replying) when the countdown of matching requests reaches zero.
#[derive(Clone)]
struct Kill {
    /// Which procedure arms the countdown (None = every request).
    proc: Option<u32>,
    countdown: Arc<AtomicU64>,
}

impl Kill {
    fn never() -> Self {
        Self { proc: None, countdown: Arc::new(AtomicU64::new(u64::MAX)) }
    }

    fn after(proc: Option<u32>, n: u64) -> Self {
        assert!(n >= 1);
        Self { proc, countdown: Arc::new(AtomicU64::new(n)) }
    }

    /// True when this request is the one the server dies on.
    fn fires(&self, proc: u32) -> bool {
        if self.proc.is_some_and(|p| p != proc) {
            return false;
        }
        self.countdown.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

/// Deterministic threshold in `1..=max` drawn from the seed.
fn seeded(seed: u64, max: u64) -> u64 {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % max + 1
}

/// The `(file, size)` of every size-mirror SETATTR a mock replica took.
type SizeLog = Arc<Mutex<Vec<(Fh3, u64)>>>;

/// Mock replica applying WRITEs/READs to `state`; verifier fixed at 7.
/// When the kill switch fires the request is *dropped* (never applied,
/// never answered) and the server thread exits, closing the wire.
fn byte_server(end: PipeEnd, state: ServerState, kill: Kill) {
    mirror_logging_byte_server(end, state, kill, SizeLog::default());
}

/// A [`byte_server`] that also logs the size mirrors it is sent.
fn mirror_logging_byte_server(mut end: PipeEnd, state: ServerState, kill: Kill, sizes: SizeLog) {
    std::thread::spawn(move || loop {
        let record = match read_record(&mut end) {
            Ok(Some(r)) => r,
            _ => return,
        };
        let mut dec = XdrDecoder::new(&record);
        let header = CallHeader::decode(&mut dec).expect("call header");
        if kill.fires(header.proc) {
            return;
        }
        let reply = match header.proc {
            procnum::GETATTR => reply_bytes(
                header.xid,
                &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(FILE_SIZE)) },
            ),
            procnum::WRITE => {
                let args =
                    WriteArgs::from_xdr_bytes(&record[dec.position()..]).expect("write args");
                let count = args.data.len() as u32;
                state.lock().unwrap().insert((args.file.clone(), args.offset), args.data);
                reply_bytes(
                    header.xid,
                    &WriteRes {
                        status: NfsStat3::Ok,
                        wcc: WccData { before: None, after: Some(base_attr(FILE_SIZE)) },
                        count,
                        committed: StableHow::Unstable,
                        verf: 7,
                    },
                )
            }
            procnum::READ => {
                let args =
                    ReadArgs::from_xdr_bytes(&record[dec.position()..]).expect("read args");
                let data = state
                    .lock()
                    .unwrap()
                    .get(&(args.file.clone(), args.offset))
                    .cloned()
                    .unwrap_or_default();
                reply_bytes(
                    header.xid,
                    &ReadRes {
                        status: NfsStat3::Ok,
                        attr: Some(base_attr(FILE_SIZE)),
                        count: data.len() as u32,
                        eof: false,
                        data,
                    },
                )
            }
            procnum::COMMIT => reply_bytes(
                header.xid,
                &CommitRes {
                    status: NfsStat3::Ok,
                    wcc: WccData { before: None, after: Some(base_attr(FILE_SIZE)) },
                    verf: 7,
                },
            ),
            // Post-COMMIT size mirror from the striped flush.
            procnum::SETATTR => {
                let args =
                    SetAttrArgs::from_xdr_bytes(&record[dec.position()..]).expect("setattr args");
                if let Some(size) = args.new_attributes.size {
                    sizes.lock().unwrap().push((args.object, size));
                }
                reply_bytes(
                    header.xid,
                    &WccRes {
                        status: NfsStat3::Ok,
                        wcc: WccData { before: None, after: Some(base_attr(FILE_SIZE)) },
                    },
                )
            }
            other => panic!("unexpected proc {other} at a mock replica"),
        };
        if write_record(&mut end, &reply).is_err() {
            return;
        }
    });
}

fn striped_config() -> SessionConfig {
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.window = 8;
    config.stripe = Some(policy());
    config.retry = RetryPolicy {
        max_reconnects: 32,
        dial_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        call_deadline: Some(Duration::from_secs(20)),
        ..RetryPolicy::default()
    };
    config
}

type Reconnector = Option<Box<dyn sgfs::proxy::retry::Reconnector>>;

/// One proxy striped across `WIDTH` mock replicas.
fn striped_proxy(
    states: &[ServerState],
    kills: &[Kill],
    reconnectors: Vec<Reconnector>,
    config: &SessionConfig,
) -> ClientProxy {
    let mut upstreams = Vec::new();
    for (i, reconnector) in reconnectors.into_iter().enumerate() {
        let (end, srv) = pipe_pair();
        byte_server(srv, states[i].clone(), kills[i].clone());
        let watch = end.watch();
        upstreams.push((Upstream::Plain(Box::new(end)) as Upstream, watch, reconnector));
    }
    ClientProxy::with_stripe(upstreams, config).expect("striped proxy")
}

/// Drives NFS records through a proxy's downstream interface, on the
/// calling thread.
struct Driver {
    proxy: ClientProxy,
    xid: u32,
}

impl Driver {
    fn start(proxy: ClientProxy) -> Self {
        Self { proxy, xid: 0x300 }
    }

    fn call<T: XdrEncode>(&mut self, proc: u32, args: &T) -> Vec<u8> {
        self.xid += 1;
        let header = CallHeader {
            xid: self.xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc,
            cred: OpaqueAuth::sys(&AuthSysParams::new("test-host", 1001, 1001)),
            verf: OpaqueAuth::none(),
        };
        let mut enc = XdrEncoder::with_capacity(256);
        header.encode(&mut enc);
        args.encode(&mut enc);
        let reply = self.proxy.process_one(&enc.into_bytes()).expect("downstream reply");
        let mut dec = XdrDecoder::new(&reply);
        let _ = ReplyHeader::decode(&mut dec).expect("reply header");
        reply[dec.position()..].to_vec()
    }

    /// Write one block; the write-back cache must always acknowledge.
    fn write(&mut self, fh: &Fh3, offset: u64, data: Vec<u8>) {
        let body = self.call(
            procnum::WRITE,
            &WriteArgs { file: fh.clone(), offset, stable: StableHow::Unstable, data },
        );
        let res = WriteRes::from_xdr_bytes(&body).expect("write res");
        assert_eq!(res.status, NfsStat3::Ok, "write-back ack");
    }

    /// Read one block back through the proxy.
    fn read(&mut self, fh: &Fh3, offset: u64) -> Vec<u8> {
        let body = self.call(
            procnum::READ,
            &ReadArgs { file: fh.clone(), offset, count: BLOCK as u32 },
        );
        let res = ReadRes::from_xdr_bytes(&body).expect("read res");
        assert_eq!(res.status, NfsStat3::Ok, "read through the stripe set");
        res.data
    }

    fn finish(self) -> ClientProxy {
        self.proxy
    }
}

/// The workload script: two write phases with a flush between them, one
/// overwrite, and a second file — enough flush rounds and distinct blocks
/// that every member serves several WRITEs per flush.
fn script_phase1() -> Vec<(Fh3, u64, Vec<u8>)> {
    (0..6u64).map(|i| (fh1(), i * BLOCK as u64, vec![0x10 + i as u8; BLOCK])).collect()
}

fn script_phase2() -> Vec<(Fh3, u64, Vec<u8>)> {
    vec![
        (fh1(), 0, vec![0xA0; BLOCK]), // overwrite a committed block
        (fh1(), 6 * BLOCK as u64, vec![0xA6; BLOCK]),
        (fh1(), 7 * BLOCK as u64, vec![0xA7; BLOCK]),
        (fh2(), 0, vec![0xB0; BLOCK]),
        (fh2(), BLOCK as u64, vec![0xB1; BLOCK]),
    ]
}

/// The single-server oracle: the same script through a one-upstream
/// proxy (the width-1 placement); its server state is the expected file
/// content.
fn oracle() -> BTreeMap<BlockKey, Vec<u8>> {
    let state: ServerState = Arc::new(Mutex::new(BTreeMap::new()));
    let (end, srv) = pipe_pair();
    byte_server(srv, state.clone(), Kill::never());
    let watch = end.watch();
    let mut config = striped_config();
    config.stripe = None;
    let proxy =
        ClientProxy::new(Upstream::Plain(Box::new(end)), watch, &config).expect("oracle proxy");
    let mut driver = Driver::start(proxy);
    for (fh, offset, data) in script_phase1() {
        driver.write(&fh, offset, data);
    }
    let mut proxy = driver.finish();
    proxy.flush_file(&fh1()).expect("oracle mid-script flush");
    let mut driver = Driver::start(proxy);
    for (fh, offset, data) in script_phase2() {
        driver.write(&fh, offset, data);
    }
    let mut proxy = driver.finish();
    proxy.flush_all().expect("oracle final flush");
    drop(proxy);
    let server = state.lock().unwrap().clone();
    assert_eq!(server.len(), 10, "oracle holds every distinct block");
    server
}

/// Assert the file is byte-identical when reconstructed from the
/// survivors: every surviving replica of every block holds exactly the
/// oracle content, and every block has at least one surviving replica.
fn assert_survivors_reconstruct(
    label: &str,
    oracle: &BTreeMap<BlockKey, Vec<u8>>,
    states: &[ServerState],
    victim: usize,
) {
    let map = StripeMap::new(policy());
    for (key, expected) in oracle {
        let members = map.members_of_block(map.block_of(key.1));
        let survivors: Vec<usize> = members.into_iter().filter(|&m| m != victim).collect();
        assert!(
            !survivors.is_empty(),
            "{label}: block at offset {} has no surviving replica",
            key.1
        );
        for m in survivors {
            let held = states[m].lock().unwrap().get(key).cloned();
            assert_eq!(
                held.as_deref(),
                Some(&expected[..]),
                "{label}: member {m} diverges from the oracle at offset {} of {:?}",
                key.1,
                key.0,
            );
        }
    }
}

/// Kill one replica mid-flush (its k-th WRITE of a replicated flush round
/// is dropped and the wire dies): the flush degrades to the survivors,
/// the missed blocks are recorded, and the final state reconstructs.
fn mid_flush_case(label: &str, victim: usize, seed: u64, oracle: &BTreeMap<BlockKey, Vec<u8>>) {
    let states: Vec<ServerState> = (0..WIDTH).map(|_| Arc::default()).collect();
    let mut kills = vec![Kill::never(); WIDTH as usize];
    kills[victim] = Kill::after(Some(procnum::WRITE), seeded(seed, 3));
    let config = striped_config();
    let proxy = striped_proxy(&states, &kills, (0..WIDTH).map(|_| None).collect(), &config);

    let mut driver = Driver::start(proxy);
    for (fh, offset, data) in script_phase1() {
        driver.write(&fh, offset, data);
    }
    let mut proxy = driver.finish();
    proxy.flush_file(&fh1()).unwrap_or_else(|e| panic!("{label}: degraded flush failed: {e}"));
    let stats = proxy.stats().clone();
    assert_eq!(stats.count(Hop::ReplicaFailover), 1, "{label}: exactly one member failed over");
    assert_eq!(stats.gauge(Gauge::Degraded), 1, "{label}: degraded gauge tracks the down member");
    assert!(
        proxy.missed_blocks(victim) > 0,
        "{label}: the dead member's missed blocks are recorded for re-sync"
    );

    // The session keeps writing at reduced redundancy.
    let mut driver = Driver::start(proxy);
    for (fh, offset, data) in script_phase2() {
        driver.write(&fh, offset, data);
    }
    let mut proxy = driver.finish();
    proxy.flush_all().unwrap_or_else(|e| panic!("{label}: final flush failed: {e}"));
    assert_eq!(stats.count(Hop::ReplicaFailover), 1, "{label}: no second failover");
    drop(proxy);

    assert_survivors_reconstruct(label, oracle, &states, victim);
}

/// Kill one replica while the client is re-dialing it: the wire dies at a
/// seeded request, and every reconnect attempt fails in the handshake.
/// The member must go down after the handshake budget, not wedge the
/// session.
fn mid_handshake_case(
    label: &str,
    victim: usize,
    seed: u64,
    oracle: &BTreeMap<BlockKey, Vec<u8>>,
) {
    let states: Vec<ServerState> = (0..WIDTH).map(|_| Arc::default()).collect();
    let mut kills = vec![Kill::never(); WIDTH as usize];
    kills[victim] = Kill::after(None, seeded(seed, 4));
    let handshakes = Arc::new(AtomicU64::new(0));
    let counter = handshakes.clone();
    let mut reconnectors: Vec<Reconnector> = (0..WIDTH).map(|_| None).collect();
    reconnectors[victim] = Some(Box::new(
        move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
            counter.fetch_add(1, Ordering::AcqRel);
            Err(std::io::Error::other("replica died mid-handshake"))
        },
    ));
    let mut config = striped_config();
    config.retry.max_reconnects = 2; // tight handshake budget
    let proxy = striped_proxy(&states, &kills, reconnectors, &config);

    let mut driver = Driver::start(proxy);
    for (fh, offset, data) in script_phase1() {
        driver.write(&fh, offset, data);
    }
    let mut proxy = driver.finish();
    proxy.flush_file(&fh1()).unwrap_or_else(|e| panic!("{label}: degraded flush failed: {e}"));
    let mut driver = Driver::start(proxy);
    for (fh, offset, data) in script_phase2() {
        driver.write(&fh, offset, data);
    }
    let mut proxy = driver.finish();
    proxy.flush_all().unwrap_or_else(|e| panic!("{label}: final flush failed: {e}"));

    let stats = proxy.stats().clone();
    assert_eq!(stats.count(Hop::ReplicaFailover), 1, "{label}: the victim failed over exactly once");
    assert_eq!(stats.gauge(Gauge::Degraded), 1, "{label}: degraded gauge");
    assert!(
        handshakes.load(Ordering::Acquire) > 0,
        "{label}: the kill landed during a reconnect handshake"
    );
    drop(proxy);

    assert_survivors_reconstruct(label, oracle, &states, victim);
}

/// Kill one replica during read-ahead fan-out: prefetches and foreground
/// reads re-route to each block's surviving replica, and every byte read
/// through the proxy still matches the pre-seeded file.
fn readahead_case(label: &str, victim: usize, seed: u64) {
    const BLOCKS: u64 = 12;
    let map = StripeMap::new(policy());
    // Pre-seed each replica with exactly the blocks the map assigns it.
    let states: Vec<ServerState> = (0..WIDTH).map(|_| Arc::default()).collect();
    let mut expected = Vec::new();
    for b in 0..BLOCKS {
        let data = vec![0xC0 + b as u8; BLOCK];
        for m in map.members_of_block(b) {
            states[m].lock().unwrap().insert((fh1(), b * BLOCK as u64), data.clone());
        }
        expected.push(data);
    }
    let mut kills = vec![Kill::never(); WIDTH as usize];
    kills[victim] = Kill::after(Some(procnum::READ), seeded(seed, 3));
    let mut config = striped_config();
    config.readahead = 4;
    let proxy = striped_proxy(&states, &kills, (0..WIDTH).map(|_| None).collect(), &config);

    let mut driver = Driver::start(proxy);
    for b in 0..BLOCKS {
        let data = driver.read(&fh1(), b * BLOCK as u64);
        assert_eq!(
            data, expected[b as usize],
            "{label}: block {b} read through the degraded stripe set"
        );
    }
    let proxy = driver.finish();
    let stats = proxy.stats();
    assert_eq!(stats.count(Hop::ReplicaFailover), 1, "{label}: the victim failed over exactly once");
    assert_eq!(stats.gauge(Gauge::Degraded), 1, "{label}: degraded gauge");
    assert!(
        stats.prefetch_hits() > 0,
        "{label}: read-ahead kept landing hits across the surviving members"
    );
}

/// The seeded grid: every member killed at every phase on three seeds.
#[test]
fn killing_any_single_replica_never_loses_bytes() {
    let _serial = serial();
    let oracle = oracle();
    for victim in 0..WIDTH as usize {
        for seed in [1u64, 2, 3] {
            mid_flush_case(&format!("flush-v{victim}-s{seed}"), victim, seed, &oracle);
            mid_handshake_case(
                &format!("handshake-v{victim}-s{seed}"),
                victim,
                seed,
                &oracle,
            );
            readahead_case(&format!("readahead-v{victim}-s{seed}"), victim, seed);
        }
    }
}

/// A rejoining replica is re-synced from the write-back store before it
/// re-enters the write set: after `resync_member` it holds byte-identical
/// state for every block it missed, has been sent the proxy's size of each
/// file (placement here is partial, so a flush mirrors it too), and the
/// degraded gauge drops to zero.
#[test]
fn rejoining_replica_is_resynced_from_the_journal() {
    let _serial = serial();
    let oracle = oracle();
    let victim = 1usize;
    let states: Vec<ServerState> = (0..WIDTH).map(|_| Arc::default()).collect();
    let mut kills = vec![Kill::never(); WIDTH as usize];
    kills[victim] = Kill::after(Some(procnum::WRITE), 2);
    // While the host is down every re-dial fails in the handshake; once
    // it is back, a re-dial reaches a fresh wire onto the old state.
    let host_up = Arc::new(AtomicBool::new(false));
    let dial_up = host_up.clone();
    let dial_state = states[victim].clone();
    let sizes = SizeLog::default();
    let dial_sizes = sizes.clone();
    let mut reconnectors: Vec<Reconnector> = (0..WIDTH).map(|_| None).collect();
    reconnectors[victim] = Some(Box::new(
        move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
            if !dial_up.load(Ordering::Acquire) {
                return Err(std::io::Error::other("host still down"));
            }
            let (end, srv) = pipe_pair();
            mirror_logging_byte_server(srv, dial_state.clone(), Kill::never(), dial_sizes.clone());
            let watch = end.watch();
            Ok((Upstream::Plain(Box::new(end)), watch))
        },
    ));
    let mut config = striped_config();
    config.retry.max_reconnects = 8;
    let proxy = striped_proxy(&states, &kills, reconnectors, &config);

    let mut driver = Driver::start(proxy);
    for (fh, offset, data) in script_phase1() {
        driver.write(&fh, offset, data);
    }
    let mut proxy = driver.finish();
    proxy.flush_file(&fh1()).expect("degraded flush");
    let mut driver = Driver::start(proxy);
    for (fh, offset, data) in script_phase2() {
        driver.write(&fh, offset, data);
    }
    let mut proxy = driver.finish();
    proxy.flush_all().expect("degraded final flush");
    assert!(proxy.missed_blocks(victim) > 0, "missed blocks queued for re-sync");
    assert_eq!(proxy.stats().gauge(Gauge::Degraded), 1);

    // The host comes back; re-sync replays the missed blocks from the
    // local store and returns the member to the write set.
    host_up.store(true, Ordering::Release);
    proxy.resync_member(victim).expect("re-sync");
    assert_eq!(proxy.missed_blocks(victim), 0, "re-sync drained the missed set");
    assert_eq!(proxy.stats().gauge(Gauge::Degraded), 0, "member is back in the write set");
    assert!(proxy.stripe().is_up(victim));
    let mut driver = Driver::start(proxy);
    let attr = GetAttrRes::from_xdr_bytes(&driver.call(procnum::GETATTR, &fh1()))
        .expect("getattr res")
        .attr
        .expect("fh1 attributes");
    assert!(
        sizes.lock().unwrap().contains(&(fh1(), attr.size)),
        "re-sync mirrors the proxy's size of fh1 ({}) to the rejoined member: {:?}",
        attr.size,
        sizes.lock().unwrap(),
    );
    drop(driver.finish());

    // The rejoined member now holds the oracle content for every block
    // the map assigns to it.
    let map = StripeMap::new(policy());
    for (key, expected) in &oracle {
        if !map.members_of_block(map.block_of(key.1)).any(|m| m == victim) {
            continue;
        }
        let held = states[victim].lock().unwrap().get(key).cloned();
        assert_eq!(
            held.as_deref(),
            Some(&expected[..]),
            "rejoined member diverges at offset {} of {:?}",
            key.1,
            key.0,
        );
    }
}

/// The thread-ceiling case reads the *process-wide* thread count, so no
/// other case may be spawning mock servers while it runs: every test in
/// this file holds this lock (the whole matrix takes ~0.1 s serially).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// The thread count once it has stopped moving: mock servers of an
/// earlier case (or width) exit asynchronously after their proxy drops.
fn settled_thread_count() -> usize {
    let mut last = thread_count();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = thread_count();
        if now == last {
            return now;
        }
        last = now;
    }
}

/// Neither stripe width nor read-ahead moves the client thread budget:
/// the proxy runs on its caller's thread, every member pipeline is driven
/// by the threads that wait on it, and read-ahead is submitted and landed
/// from there. At widths 1, 2 and 4 alike, building the proxy adds exactly
/// the mock server threads, and driving reads through it with read-ahead
/// landing hits adds none.
#[test]
fn stripe_width_adds_zero_client_reader_threads() {
    let _serial = serial();
    for (width, replicas) in [(1u32, 1u32), (2, 2), (4, 2)] {
        let mut config = striped_config();
        config.stripe = Some(StripePolicy { width, replicas, block_size: BLOCK as u32 });
        config.readahead = 4;
        let states: Vec<ServerState> = (0..width).map(|_| Arc::default()).collect();
        let kills = vec![Kill::never(); width as usize];

        let before = settled_thread_count();
        let proxy = striped_proxy(&states, &kills, (0..width).map(|_| None).collect(), &config);
        assert_eq!(
            thread_count() - before,
            width as usize,
            "building a width-{width} stripe set must only add the {width} mock servers \
             (a per-member reader thread would show up here)"
        );
        let mut driver = Driver::start(proxy);
        for b in 0..8 {
            driver.read(&fh1(), b * BLOCK as u64);
        }
        assert!(driver.proxy.stats().prefetch_hits() > 0, "width {width}: read-ahead ran");
        assert_eq!(
            thread_count() - before,
            width as usize,
            "width {width}: neither the proxy nor its read-ahead has a thread of its own"
        );
        // Dropping the proxy ends the mock servers.
        drop(driver);
        assert_eq!(
            settled_thread_count(),
            before,
            "width {width}: the thread count returns to baseline after teardown"
        );
    }
}

/// Regression for the rejoin/degraded-gauge contract. A member marked
/// down by a READ failover has an *empty* missed set — there is nothing
/// to replay, so no re-sync traffic would prove the revived channel on
/// its own. `resync_member` must probe the transport before returning
/// the member to the set and resetting `degraded`:
///
/// * while the host refuses dials, re-sync fails and `degraded` stays 1;
/// * when a dial "succeeds" onto a dead wire (the bug this pins down:
///   the old reset path marked the member up and zeroed the gauge on
///   pure faith in the fresh channel), the probe fails, re-sync errors,
///   and `degraded` stays 1;
/// * once the host is truly back, re-sync succeeds and `degraded` drops
///   to 0 with the member in the read/write set.
#[test]
fn empty_missed_set_rejoin_probes_the_channel_before_resetting_degraded() {
    let _serial = serial();
    const BLOCKS: u64 = 8;
    let victim = 1usize;
    let map = StripeMap::new(policy());
    let states: Vec<ServerState> = (0..WIDTH).map(|_| Arc::default()).collect();
    for b in 0..BLOCKS {
        let data = vec![0xD0 + b as u8; BLOCK];
        for m in map.members_of_block(b) {
            states[m].lock().unwrap().insert((fh1(), b * BLOCK as u64), data.clone());
        }
    }
    let mut kills = vec![Kill::never(); WIDTH as usize];
    kills[victim] = Kill::after(Some(procnum::READ), 1);

    // Dial behavior ladder: 0 = refuse, 1 = dead wire, 2 = healthy.
    let host_mode = Arc::new(AtomicU64::new(0));
    let dial_mode = host_mode.clone();
    let dial_state = states[victim].clone();
    let mut reconnectors: Vec<Reconnector> = (0..WIDTH).map(|_| None).collect();
    reconnectors[victim] = Some(Box::new(
        move |_attempt: u32| -> std::io::Result<(Upstream, sgfs_net::PipeWatch)> {
            match dial_mode.load(Ordering::Acquire) {
                0 => Err(std::io::Error::other("host refuses")),
                1 => {
                    // The dial layer connects but nothing is listening:
                    // the server end drops straight away.
                    let (end, srv) = pipe_pair();
                    drop(srv);
                    let watch = end.watch();
                    Ok((Upstream::Plain(Box::new(end)), watch))
                }
                _ => {
                    let (end, srv) = pipe_pair();
                    byte_server(srv, dial_state.clone(), Kill::never());
                    let watch = end.watch();
                    Ok((Upstream::Plain(Box::new(end)), watch))
                }
            }
        },
    ));
    let mut config = striped_config();
    config.retry.max_reconnects = 4;
    let proxy = striped_proxy(&states, &kills, reconnectors, &config);

    // The victim dies on its first READ; the block fails over to its
    // replica and the member is marked down — with nothing to replay.
    let mut driver = Driver::start(proxy);
    for b in 0..BLOCKS {
        let data = driver.read(&fh1(), b * BLOCK as u64);
        assert_eq!(data, vec![0xD0 + b as u8; BLOCK], "block {b} via the survivors");
    }
    let mut proxy = driver.finish();
    assert_eq!(proxy.stats().gauge(Gauge::Degraded), 1, "victim marked down");
    assert_eq!(proxy.missed_blocks(victim), 0, "a read-only outage misses no writes");

    // Rung 0: the host refuses dials — re-sync must fail closed.
    assert!(proxy.resync_member(victim).is_err(), "re-sync with the host down");
    assert_eq!(proxy.stats().gauge(Gauge::Degraded), 1, "degraded survives a refused dial");
    assert!(!proxy.stripe().is_up(victim));

    // Rung 1: the dial connects to a dead wire. Nothing is replayed
    // (empty missed set), so only the probe stands between this zombie
    // channel and a false rejoin.
    host_mode.store(1, Ordering::Release);
    assert!(proxy.resync_member(victim).is_err(), "probe must fail on a dead wire");
    assert_eq!(proxy.stats().gauge(Gauge::Degraded), 1, "degraded survives a dead-wire dial");
    assert!(!proxy.stripe().is_up(victim));

    // Rung 2: the host is really back; the probe proves the channel and
    // the gauge resets.
    host_mode.store(2, Ordering::Release);
    proxy.resync_member(victim).expect("re-sync over the healthy channel");
    assert_eq!(proxy.stats().gauge(Gauge::Degraded), 0, "fully re-synced stripe reports degraded == 0");
    assert!(proxy.stripe().is_up(victim));

    // And the rejoined member serves its share of reads again.
    let mut driver = Driver::start(proxy);
    for b in 0..BLOCKS {
        let data = driver.read(&fh1(), b * BLOCK as u64);
        assert_eq!(data, vec![0xD0 + b as u8; BLOCK], "block {b} after the rejoin");
    }
    drop(driver.finish());
}
