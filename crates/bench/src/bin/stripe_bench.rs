//! Multi-server data-plane benchmarks, written to
//! `results/BENCH_stripe.json`:
//!
//! 1. **Striped sequential read throughput** — the same 512 B-block
//!    sequential read script fanned split-phase across a width-4 stripe
//!    set vs a width-1 (single-upstream) set, both over emulated
//!    20 ms-RTT links in the testbed's virtual time. This drives the
//!    exact primitive the read-ahead worker and the session data plane
//!    use — `StripeMap` routing into each member's windowed pipeline —
//!    with the same small per-member window, so the only variable is how
//!    many servers the in-flight set can spread across.
//! 2. **Replicated flush** — a width-2, 2-replica stripe set flushes a
//!    dirty write-back cache; the two mock servers answer with *distinct*
//!    write verifiers (7 and 9) and the run asserts both per-member
//!    COMMIT confirmations landed and both replicas hold every block
//!    byte-identical to what the client wrote.
//!
//! The binary asserts the PR's acceptance thresholds (width-4 read
//! speedup ≥ 2×, both replica write verifiers confirmed with no block
//! missing) and exits nonzero if they regress.

use sgfs::config::{CacheMode, SecurityLevel, SessionConfig, StripePolicy};
use sgfs::proxy::blockstore::BlockKey;
use sgfs::proxy::client::{ClientProxy, Upstream};
use sgfs::proxy::pipeline::Pipeline;
use sgfs_bench::RunOpts;
use sgfs_net::{pipe_pair_over_link, Link, LinkSpec, PipeEnd, SimClock};
use sgfs_nfs3::proc::{
    procnum, CommitRes, GetAttrRes, ReadArgs, ReadRes, WccRes, WriteArgs, WriteRes,
};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_obs::{Gauge, Hop};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{CallHeader, OpaqueAuth, ReplyHeader};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BLOCK: usize = 512;
const FILE_SIZE: u64 = 1 << 20;

type ServerState = Arc<Mutex<BTreeMap<BlockKey, Vec<u8>>>>;

fn fh() -> Fh3 {
    Fh3::from_ino(1, 42)
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

/// Mock replica applying WRITEs/READs to `state`, answering WRITE and
/// COMMIT with this member's fixed write `verf`.
fn byte_server(mut end: PipeEnd, state: ServerState, verf: u64) {
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
                        verf,
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
                    verf,
                },
            ),
            // Post-COMMIT size mirror from the striped flush.
            procnum::SETATTR => reply_bytes(
                header.xid,
                &WccRes {
                    status: NfsStat3::Ok,
                    wcc: WccData { before: None, after: Some(base_attr(FILE_SIZE)) },
                },
            ),
            other => panic!("unexpected proc {other} at a mock replica"),
        };
        if write_record(&mut end, &reply).is_err() {
            return;
        }
    });
}

/// One proxy striped across mock replicas, member `i` behind `links[i]`
/// with a server answering with `verfs[i]`.
fn striped_proxy(
    links: &[Arc<Link>],
    states: &[ServerState],
    verfs: &[u64],
    config: &SessionConfig,
) -> ClientProxy {
    let mut upstreams = Vec::new();
    for ((state, &verf), link) in states.iter().zip(verfs).zip(links) {
        let (end, srv) = pipe_pair_over_link(link.clone());
        byte_server(srv, state.clone(), verf);
        let watch = end.watch();
        upstreams.push((Upstream::Plain(Box::new(end)) as Upstream, watch, None));
    }
    ClientProxy::with_stripe(upstreams, config).expect("striped proxy")
}

fn call_record<T: XdrEncode>(xid: u32, proc: u32, args: &T) -> Vec<u8> {
    let header = CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc,
        cred: OpaqueAuth::sys(&AuthSysParams::new("bench-host", 1001, 1001)),
        verf: OpaqueAuth::none(),
    };
    let mut enc = XdrEncoder::with_capacity(256);
    header.encode(&mut enc);
    args.encode(&mut enc);
    enc.into_bytes()
}

/// Drives NFS records through a proxy's downstream interface on the
/// calling thread — only the upstream stripe legs pay the emulated RTT.
struct Driver {
    proxy: ClientProxy,
    xid: u32,
}

impl Driver {
    fn start(proxy: ClientProxy) -> Self {
        Self { proxy, xid: 0x900 }
    }

    fn call<T: XdrEncode>(&mut self, proc: u32, args: &T) -> Vec<u8> {
        self.xid += 1;
        let reply = self
            .proxy
            .process_one(&call_record(self.xid, proc, args))
            .expect("downstream reply");
        let mut dec = XdrDecoder::new(&reply);
        let _ = ReplyHeader::decode(&mut dec).expect("reply header");
        reply[dec.position()..].to_vec()
    }

    fn write(&mut self, offset: u64, data: Vec<u8>) {
        let body = self.call(
            procnum::WRITE,
            &WriteArgs { file: fh(), offset, stable: StableHow::Unstable, data },
        );
        let res = WriteRes::from_xdr_bytes(&body).expect("write res");
        assert_eq!(res.status, NfsStat3::Ok, "write-back ack");
    }

    fn finish(self) -> ClientProxy {
        self.proxy
    }
}

fn stripe_config(width: u32, replicas: u32, window: u32, readahead: u32) -> SessionConfig {
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.window = window;
    config.readahead = readahead;
    config.stripe = Some(StripePolicy { width, replicas, block_size: BLOCK as u32 });
    config
}

#[derive(serde::Serialize)]
struct StripeReadResult {
    rtt_ms: u64,
    blocks: usize,
    block_bytes: usize,
    window_per_member: u32,
    width_1_s: f64,
    width_4_s: f64,
    speedup: f64,
    threshold: f64,
}

#[derive(serde::Serialize)]
struct ReplicatedFlushResult {
    rtt_ms: u64,
    width: u32,
    replicas: u32,
    blocks: usize,
    flush_s: f64,
    /// Per-member COMMIT confirmations whose write verifier matched.
    replica_writes: u64,
    verifiers: Vec<u64>,
    every_replica_complete: bool,
    degraded: u64,
}

#[derive(serde::Serialize)]
struct BenchReport {
    stripe_read: StripeReadResult,
    replicated_flush: ReplicatedFlushResult,
}

/// Virtual seconds to fan `blocks` sequential 512 B READs across a
/// stripe set of `width` members over `rtt` links — the exact primitive
/// read-ahead drives: `StripeMap` routes each block to its
/// member, and the member's windowed pipeline keeps the wire full.
///
/// Each member is an independent server behind its own link and its own
/// virtual clock (separate hosts share nothing but the client); elapsed
/// time is the slowest member's clock. Independent clocks keep one
/// member's arrival gates from inflating another member's stamps through
/// real-time scheduling skew, so the measurement is the stripe's
/// aggregate in-flight capacity and nothing else.
fn striped_read_time(rtt: Duration, width: u32, blocks: usize) -> f64 {
    let clocks: Vec<Arc<SimClock>> = (0..width).map(|_| SimClock::new()).collect();
    let links: Vec<Arc<Link>> =
        clocks.iter().map(|c| Link::new(LinkSpec::wan_rtt(rtt), c.clone())).collect();
    let states: Vec<ServerState> = (0..width).map(|_| Arc::default()).collect();
    // Pre-seed every member with its mapped slice of the file.
    let map = sgfs::proxy::stripe::StripeMap::new(StripePolicy {
        width,
        replicas: 1,
        block_size: BLOCK as u32,
    });
    for b in 0..blocks as u64 {
        let data = vec![b as u8; BLOCK];
        for m in map.members_of_block(b) {
            states[m].lock().unwrap().insert((fh(), b * BLOCK as u64), data.clone());
        }
    }
    // Width 1 is the single-upstream data plane — the stripe set of one,
    // assembled by the same constructor as any other width.
    const WINDOW: u32 = 2;
    let verfs = vec![7u64; width as usize];
    let config = stripe_config(width, 1, WINDOW, 0);
    let proxy = striped_proxy(&links, &states, &verfs, &config);
    let members: Vec<Pipeline> =
        (0..width as usize).map(|m| proxy.stripe().member(m)).collect();

    // `WINDOW` caller threads per member keep each member's window full,
    // exactly as the read-ahead fan-out does.
    let starts: Vec<Duration> = clocks.iter().map(|c| c.now()).collect();
    let callers: Vec<_> = (0..width as usize)
        .flat_map(|m| (0..WINDOW as usize).map(move |slot| (m, slot)))
        .map(|(m, slot)| {
            let member = members[m].clone();
            let mine: Vec<u64> = (0..blocks as u64)
                .filter(|&b| map.members_of_block(b).next() == Some(m))
                .skip(slot)
                .step_by(WINDOW as usize)
                .collect();
            std::thread::spawn(move || {
                for b in mine {
                    let offset = b * BLOCK as u64;
                    let record = call_record(
                        0x9000 + b as u32,
                        procnum::READ,
                        &ReadArgs { file: fh(), offset, count: BLOCK as u32 },
                    );
                    let reply = member.call(record).expect("striped read");
                    let mut dec = XdrDecoder::new(&reply);
                    let _ = ReplyHeader::decode(&mut dec).expect("reply header");
                    let res =
                        ReadRes::from_xdr_bytes(&reply[dec.position()..]).expect("read res");
                    assert_eq!(res.status, NfsStat3::Ok);
                    assert_eq!(
                        res.data,
                        vec![b as u8; BLOCK],
                        "block {b} through the stripe set"
                    );
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().expect("caller thread");
    }
    let elapsed = clocks
        .iter()
        .zip(&starts)
        .map(|(c, &s)| c.now() - s)
        .max()
        .expect("at least one member");
    drop(proxy);
    elapsed.as_secs_f64()
}

fn bench_stripe_read(opts: &RunOpts) -> StripeReadResult {
    let rtt = Duration::from_millis(20);
    let blocks = if opts.quick { 48 } else { 96 };
    let width_1_s = striped_read_time(rtt, 1, blocks);
    let width_4_s = striped_read_time(rtt, 4, blocks);
    StripeReadResult {
        rtt_ms: 20,
        blocks,
        block_bytes: BLOCK,
        window_per_member: 2,
        width_1_s,
        width_4_s,
        speedup: width_1_s / width_4_s,
        threshold: 2.0,
    }
}

fn bench_replicated_flush(opts: &RunOpts) -> ReplicatedFlushResult {
    let rtt = Duration::from_millis(20);
    let blocks = if opts.quick { 8 } else { 16 };
    let verfs = vec![7u64, 9u64];
    let clock = SimClock::new();
    let link = Link::new(LinkSpec::wan_rtt(rtt), clock.clone());
    let links = vec![link; 2];
    let states: Vec<ServerState> = (0..2).map(|_| Arc::default()).collect();
    let config = stripe_config(2, 2, 8, 0);
    let proxy = striped_proxy(&links, &states, &verfs, &config);

    let mut expected = BTreeMap::new();
    let mut driver = Driver::start(proxy);
    for b in 0..blocks as u64 {
        let data = vec![0x40 + b as u8; BLOCK];
        expected.insert((fh(), b * BLOCK as u64), data.clone());
        driver.write(b * BLOCK as u64, data);
    }
    let mut proxy = driver.finish();
    let start = clock.now();
    proxy.flush_all().expect("replicated flush");
    let flush_s = (clock.now() - start).as_secs_f64();
    let stats = proxy.stats().clone();
    drop(proxy);

    // Every replica must hold every block byte-identical to the write-back
    // cache's content: 2 replicas over width 2 places each block on both.
    let every_replica_complete = states.iter().all(|state| {
        let held = state.lock().unwrap();
        expected.iter().all(|(key, data)| held.get(key).map(|d| &d[..]) == Some(&data[..]))
    });
    ReplicatedFlushResult {
        rtt_ms: 20,
        width: 2,
        replicas: 2,
        blocks,
        flush_s,
        replica_writes: stats.count(Hop::ReplicaWrite),
        verifiers: verfs,
        every_replica_complete,
        degraded: stats.gauge(Gauge::Degraded),
    }
}

fn main() {
    let opts = RunOpts::parse();

    let stripe_read = bench_stripe_read(&opts);
    println!(
        "Striped read @ 20ms RTT:  width=1 {:>6.2} s   width=4 {:>6.2} s   speedup {:.1}x ({} blocks, window {})",
        stripe_read.width_1_s,
        stripe_read.width_4_s,
        stripe_read.speedup,
        stripe_read.blocks,
        stripe_read.window_per_member
    );

    let replicated_flush = bench_replicated_flush(&opts);
    println!(
        "Replicated flush (w=2 N=2): {} blocks in {:>5.2} s   {} verifier-confirmed members (verfs {:?})",
        replicated_flush.blocks,
        replicated_flush.flush_s,
        replicated_flush.replica_writes,
        replicated_flush.verifiers
    );

    let read_ok = stripe_read.speedup >= stripe_read.threshold;
    let flush_ok = replicated_flush.replica_writes == u64::from(replicated_flush.replicas)
        && replicated_flush.every_replica_complete
        && replicated_flush.degraded == 0;
    let report = BenchReport { stripe_read, replicated_flush };
    sgfs_bench::save_json("BENCH_stripe", &report);

    if !read_ok {
        eprintln!(
            "FAIL: width-4 striped read speedup below {}x",
            report.stripe_read.threshold
        );
    }
    if !flush_ok {
        eprintln!(
            "FAIL: replicated flush left a replica unconfirmed or incomplete \
             ({} of {} members verifier-confirmed, complete={}, degraded={})",
            report.replicated_flush.replica_writes,
            report.replicated_flush.replicas,
            report.replicated_flush.every_replica_complete,
            report.replicated_flush.degraded
        );
    }
    if !(read_ok && flush_ok) {
        std::process::exit(1);
    }
}
