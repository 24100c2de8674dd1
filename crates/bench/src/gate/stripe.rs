//! The multi-server data plane.
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
//!    write verifiers (7 and 9) and the rows require both per-member
//!    COMMIT confirmations and both replicas holding every block
//!    byte-identical to what the client wrote.

use super::mock::{base_attr, call_record, reply_bytes};
use super::Check;
use crate::RunOpts;
use sgfs::config::{CacheMode, SecurityLevel, SessionConfig, StripePolicy};
use sgfs::proxy::blockstore::BlockKey;
use sgfs::proxy::client::{ClientProxy, Upstream};
use sgfs::proxy::pipeline::Pipeline;
use sgfs_net::{pipe_pair_over_link, Link, LinkSpec, PipeEnd, SimClock};
use sgfs_nfs3::proc::{
    procnum, CommitRes, GetAttrRes, ReadArgs, ReadRes, WccRes, WriteArgs, WriteRes,
};
use sgfs_nfs3::types::*;
use sgfs_obs::{Gauge, Hop};
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{CallHeader, ReplyHeader};
use sgfs_xdr::{XdrDecode, XdrDecoder};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BLOCK: usize = 512;
const FILE_SIZE: u64 = 1 << 20;
const RTT: Duration = Duration::from_millis(20);

type ServerState = Arc<Mutex<BTreeMap<BlockKey, Vec<u8>>>>;

fn fh() -> Fh3 {
    Fh3::from_ino(1, 42)
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
        let attr = Some(base_attr(FILE_SIZE));
        let wcc = WccData { before: None, after: attr.clone() };
        let reply = match header.proc {
            procnum::GETATTR => {
                reply_bytes(header.xid, &GetAttrRes { status: NfsStat3::Ok, attr })
            }
            procnum::WRITE => {
                let args =
                    WriteArgs::from_xdr_bytes(&record[dec.position()..]).expect("write args");
                let count = args.data.len() as u32;
                state.lock().unwrap().insert((args.file.clone(), args.offset), args.data);
                reply_bytes(
                    header.xid,
                    &WriteRes {
                        status: NfsStat3::Ok,
                        wcc,
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
                        attr,
                        count: data.len() as u32,
                        eof: false,
                        data,
                    },
                )
            }
            procnum::COMMIT => {
                reply_bytes(header.xid, &CommitRes { status: NfsStat3::Ok, wcc, verf })
            }
            // Post-COMMIT size mirror from the striped flush.
            procnum::SETATTR => reply_bytes(header.xid, &WccRes { status: NfsStat3::Ok, wcc }),
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

fn stripe_config(width: u32, replicas: u32, window: u32) -> SessionConfig {
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.window = window;
    config.readahead = 0;
    config.stripe = Some(StripePolicy { width, replicas, block_size: BLOCK as u32 });
    config
}

/// Virtual seconds to fan `blocks` sequential 512 B READs across a
/// stripe set of `width` members over 20 ms links — the exact primitive
/// read-ahead drives: `StripeMap` routes each block to its
/// member, and the member's windowed pipeline keeps the wire full.
///
/// Each member is an independent server behind its own link and its own
/// virtual clock (separate hosts share nothing but the client); elapsed
/// time is the slowest member's clock. Independent clocks keep one
/// member's arrival gates from inflating another member's stamps through
/// real-time scheduling skew, so the measurement is the stripe's
/// aggregate in-flight capacity and nothing else.
fn striped_read_time(width: u32, blocks: usize) -> f64 {
    let clocks: Vec<Arc<SimClock>> = (0..width).map(|_| SimClock::new()).collect();
    let links: Vec<Arc<Link>> =
        clocks.iter().map(|c| Link::new(LinkSpec::wan_rtt(RTT), c.clone())).collect();
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
    let proxy = striped_proxy(&links, &states, &verfs, &stripe_config(width, 1, WINDOW));
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

fn stripe_read(opts: &RunOpts) -> Vec<Check> {
    let blocks = if opts.quick { 48 } else { 96 };
    let width_1_s = striped_read_time(1, blocks);
    let width_4_s = striped_read_time(4, blocks);
    vec![
        Check::report("read_width_1_s", width_1_s, "s"),
        Check::report("read_width_4_s", width_4_s, "s"),
        Check::at_least("read_width_4_speedup", width_1_s / width_4_s, "ratio", 2.0),
    ]
}

fn replicated_flush(opts: &RunOpts) -> Vec<Check> {
    let blocks = if opts.quick { 8 } else { 16 };
    let verfs = [7u64, 9u64];
    let clock = SimClock::new();
    let links = vec![Link::new(LinkSpec::wan_rtt(RTT), clock.clone()); 2];
    let states: Vec<ServerState> = (0..2).map(|_| Arc::default()).collect();
    let mut proxy = striped_proxy(&links, &states, &verfs, &stripe_config(2, 2, 8));

    // Acknowledged into the write-back cache on this thread; only the
    // flush below pays the emulated RTT.
    let mut expected = BTreeMap::new();
    for b in 0..blocks as u64 {
        let (offset, data) = (b * BLOCK as u64, vec![0x40 + b as u8; BLOCK]);
        expected.insert((fh(), offset), data.clone());
        let args = WriteArgs { file: fh(), offset, stable: StableHow::Unstable, data };
        let reply = proxy
            .process_one(&call_record(0x900 + b as u32, procnum::WRITE, &args))
            .expect("downstream reply");
        let mut dec = XdrDecoder::new(&reply);
        let _ = ReplyHeader::decode(&mut dec).expect("reply header");
        let res = WriteRes::from_xdr_bytes(&reply[dec.position()..]).expect("write res");
        assert_eq!(res.status, NfsStat3::Ok, "write-back ack");
    }
    let start = clock.now();
    proxy.flush_all().expect("replicated flush");
    let flush_s = (clock.now() - start).as_secs_f64();
    let stats = proxy.stats().clone();
    drop(proxy);

    // 2 replicas over width 2 places each block on both members.
    let every_replica_complete = states.iter().all(|state| {
        let held = state.lock().unwrap();
        expected.iter().all(|(key, data)| held.get(key).map(|d| &d[..]) == Some(&data[..]))
    });
    vec![
        Check::report("flush_s", flush_s, "s"),
        // Per-member COMMIT confirmations whose write verifier matched.
        Check::at_least(
            "flush_verifier_confirmed_members",
            stats.count(Hop::ReplicaWrite) as f64,
            "count",
            verfs.len() as f64,
        ),
        Check::holds("flush_every_block_on_every_replica", every_replica_complete),
        Check::at_most("flush_degraded", stats.gauge(Gauge::Degraded) as f64, "count", 0.0),
    ]
}

pub fn suite(opts: &RunOpts) -> Vec<Check> {
    [stripe_read(opts), replicated_flush(opts)].concat()
}
