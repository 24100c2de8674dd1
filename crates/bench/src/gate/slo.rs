//! Tail latency under overload.
//!
//! The question: when the shard is driven at ~4× its service capacity by
//! heavy-tailed open-loop neighbors, does admission control actually
//! protect a well-behaved session's tail latency — or does the SLO
//! quietly become "whatever the queue says"?
//!
//! 1. **Baseline** — a closed-loop probe [`ClientProxy`] (obs-attached,
//!    so every call feeds the per-procedure latency histograms) runs a
//!    GETATTR/READ/WRITE script against an idle shard. Snapshot p99 and
//!    p999 per procedure.
//! 2. **Overload** — the heavy-tailed [`sgfs_workloads::traffic`]
//!    schedule is `compress`ed 4×, and one open-loop flooder per traffic
//!    client replays it in a loop while a second probe proxy runs the
//!    same script. Snapshot again.
//! 3. **Rows** — per procedure, overload p99 ≤ `factor` × baseline p99
//!    plus a few DRR cycles (a cycle = flooders × `max_pump` × service
//!    delay — the shard is non-preemptive, so a record that just missed
//!    its turn waits one full cycle of neighbor turns, an irreducible
//!    quantum no admission policy can remove). Plus the server-side
//!    invariants: the storm was real (flooders saw JUKEBOX), every flood
//!    record was answered, the sampled backlog high-water mark stayed
//!    within budget + one worst-case simultaneous burst, and the shard
//!    drained back out of its overload band once the storm stopped.
//!
//! Every call builds a fresh server and sessions, so the runner's retry
//! measures from scratch.

use super::mock::{base_attr, call_record, reply_bytes};
use super::Check;
use crate::RunOpts;
use sgfs::config::{CacheMode, RetryPolicy, SecurityLevel, SessionConfig};
use sgfs::proxy::client::{ClientProxy, Upstream};
use sgfs::proxy::retry::is_jukebox_reply;
use sgfs::proxy::server::jukebox_nfs;
use sgfs_net::{pipe_pair, PipeEnd};
use sgfs_nfs3::proc::{procnum, GetAttrRes, ReadArgs, ReadRes, WriteArgs, WriteRes};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_obs::{LatencySummary, Obs};
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{AdmissionPolicy, CallHeader, RecordService, ShardServer};
use sgfs_workloads::traffic::{self, TrafficConfig, TrafficOp};
use sgfs_xdr::{XdrDecode, XdrDecoder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BLOCK: u32 = 512;
/// Simulated service time per executed record — the capacity yardstick.
const SERVICE_DELAY: Duration = Duration::from_micros(300);
/// How many times the calibrated schedule is compressed for phase 2.
const OVERLOAD_FACTOR: f64 = 4.0;
/// Allowed tail growth under overload, on top of the DRR-turn slack.
const P99_FACTOR_LIMIT: f64 = 3.0;
const P999_FACTOR_LIMIT: f64 = 3.0;

const POLICY: AdmissionPolicy = AdmissionPolicy {
    session_backlog_cap: 8 * 1024,
    shard_backlog_budget: 16 * 1024,
    quantum: 2 * 1024,
    max_pump: 4,
};

fn pattern(seed: u64) -> Vec<u8> {
    (0..BLOCK as u64).map(|i| seed.wrapping_add(i).wrapping_mul(2654435761) as u8).collect()
}

fn read_call(xid: u32, file: &Fh3, block: u64) -> Vec<u8> {
    let args = ReadArgs { file: file.clone(), offset: block * BLOCK as u64, count: BLOCK };
    call_record(xid, procnum::READ, &args)
}

fn write_call(xid: u32, file: &Fh3, block: u64) -> Vec<u8> {
    let args = WriteArgs {
        file: file.clone(),
        offset: block * BLOCK as u64,
        stable: StableHow::Unstable,
        data: pattern(block),
    };
    call_record(xid, procnum::WRITE, &args)
}

/// Stateless NFS backend: every executed record costs one service delay;
/// shed records cost nothing — which is the whole point of shedding.
struct SloNfs;

impl RecordService for SloNfs {
    fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        std::thread::sleep(SERVICE_DELAY);
        let mut dec = XdrDecoder::new(record);
        let header = CallHeader::decode(&mut dec).expect("call header");
        let args = &record[dec.position()..];
        let attr = Some(base_attr(BLOCK as u64));
        let reply = match header.proc {
            procnum::GETATTR => {
                reply_bytes(header.xid, &GetAttrRes { status: NfsStat3::Ok, attr })
            }
            procnum::READ => {
                let a = ReadArgs::from_xdr_bytes(args).expect("read args");
                reply_bytes(
                    header.xid,
                    &ReadRes {
                        status: NfsStat3::Ok,
                        attr,
                        count: BLOCK,
                        eof: false,
                        data: pattern(a.offset),
                    },
                )
            }
            procnum::WRITE => {
                let a = WriteArgs::from_xdr_bytes(args).expect("write args");
                reply_bytes(
                    header.xid,
                    &WriteRes {
                        status: NfsStat3::Ok,
                        wcc: WccData { before: None, after: attr },
                        count: a.data.len() as u32,
                        committed: StableHow::Unstable,
                        verf: 7,
                    },
                )
            }
            other => panic!("unexpected proc {other} at the SLO backend"),
        };
        Ok(reply)
    }

    fn shed_record(&self, record: &[u8]) -> Option<Vec<u8>> {
        let mut dec = XdrDecoder::new(record);
        let header = CallHeader::decode(&mut dec).ok()?;
        if header.prog != NFS_PROGRAM || header.vers != NFS_VERSION {
            return None;
        }
        jukebox_nfs(header.xid, header.proc)
    }
}

/// Pin a fresh plain session onto `shards`, returning the client end.
fn pin_session(shards: &ShardServer, service: Arc<dyn RecordService>) -> PipeEnd {
    let (client_end, server_end) = pipe_pair();
    let watch = server_end.watch();
    shards.add_session(Box::new(server_end), watch, service).expect("pin session");
    client_end
}

/// Encode one traffic-generator op against this flooder's file.
fn op_record(xid: u32, client: usize, op: TrafficOp) -> Vec<u8> {
    let fh = Fh3::from_ino(1, 100 + client as u64);
    match op {
        TrafficOp::Getattr => call_record(xid, procnum::GETATTR, &fh),
        TrafficOp::Read { block } => read_call(xid, &fh, block),
        TrafficOp::Write { block } => write_call(xid, &fh, block),
    }
}

/// Closed-loop probe: a full ClientProxy with an [`Obs`] attached, so
/// every downstream call lands in the per-procedure histograms. Returns
/// the snapshot-ready obs after `rounds` × {GETATTR, READ, WRITE}.
fn run_probe(shards: &ShardServer, service: Arc<dyn RecordService>, rounds: usize) -> Arc<Obs> {
    let obs = Obs::new();
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::None;
    config.window = 8;
    config.retry = RetryPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        jukebox_retries: 200,
        ..RetryPolicy::default()
    };
    config.obs = Some(obs.clone());
    let up_end = pin_session(shards, service);
    let up_watch = up_end.watch();
    let mut proxy = ClientProxy::new(Upstream::Plain(Box::new(up_end)), up_watch, &config)
        .expect("probe proxy");

    let fh = Fh3::from_ino(1, 7);
    let mut call = |record: Vec<u8>| {
        proxy.process_one(&record).expect("probe reply");
    };
    for i in 0..rounds as u32 {
        let block = u64::from(i % 32);
        call(call_record(0x4000_0000 + i, procnum::GETATTR, &fh));
        call(read_call(0x5000_0000 + i, &fh, block));
        call(write_call(0x6000_0000 + i, &fh, block));
    }
    obs
}

fn summary<'a>(snap: &'a [LatencySummary], name: &str) -> &'a LatencySummary {
    snap.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no '{name}' samples"))
}

/// Poll `done` every millisecond for up to two seconds.
fn within_2s(mut done: impl FnMut() -> bool) -> bool {
    (0..2000).any(|_| {
        let ok = done();
        if !ok {
            std::thread::sleep(Duration::from_millis(1));
        }
        ok
    })
}

/// One full measurement: baseline probe, 4× storm + contended probe,
/// drain check.
pub fn suite(opts: &RunOpts) -> Vec<Check> {
    let probe_rounds: usize = if opts.quick { 250 } else { 1_200 };

    let service: Arc<dyn RecordService> = Arc::new(SloNfs);
    let server_obs = Obs::new();
    let shards = ShardServer::with_admission(1, server_obs.clone(), POLICY);

    // Phase 1: baseline tail on an idle shard.
    let base = run_probe(&shards, service.clone(), probe_rounds).snapshot(16);

    // Phase 2: the calibrated heavy-tailed schedule, compressed 4×, one
    // open-loop flooder per traffic client, replayed until the probe is
    // done measuring.
    let traffic_config = TrafficConfig {
        clients: 4,
        mean_gap: Duration::from_millis(2),
        burst_min: 1,
        burst_max: 48,
        alpha: 1.2,
        read_fraction: 0.5,
        getattr_every: 8,
        file_blocks: 32,
        // The span is fixed in both modes: --full buys more probe
        // samples, not a different storm — the flooders replay the same
        // calibrated schedule for however long the probe measures.
        span: Duration::from_millis(150),
    };
    let mut schedule = traffic::schedule(&traffic_config, 0x510_beef);
    traffic::compress(&mut schedule, OVERLOAD_FACTOR);
    let max_record =
        schedule.iter().map(|a| op_record(1, a.client, a.op).len()).max().expect("schedule");
    let mut per_client: Vec<Vec<_>> = (0..traffic_config.clients).map(|_| Vec::new()).collect();
    for a in &schedule {
        per_client[a.client].push(*a);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let flooders: Vec<_> = per_client
        .into_iter()
        .enumerate()
        .map(|(client, arrivals)| {
            let mut end = pin_session(&shards, service.clone());
            let stop = stop.clone();
            std::thread::spawn(move || {
                let (mut offered, mut answered, mut jukeboxed) = (0u64, 0u64, 0u64);
                // Replay the compressed schedule until told to stop:
                // offer every record at its virtual time, then collect
                // one reply per request before the next pass, so the
                // wire queue stays bounded per pass.
                loop {
                    let epoch = Instant::now();
                    for (i, a) in arrivals.iter().enumerate() {
                        let due = epoch + a.at;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let xid = (client as u32) << 24 | i as u32;
                        write_record(&mut end, &op_record(xid, client, a.op))
                            .expect("flood write");
                        offered += 1;
                    }
                    for _ in 0..arrivals.len() {
                        let reply =
                            read_record(&mut end).expect("flood read").expect("flood reply");
                        answered += 1;
                        if is_jukebox_reply(&reply) {
                            jukeboxed += 1;
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (offered, answered, jukeboxed)
            })
        })
        .collect();

    // Let the storm trip admission before measuring the contended tail.
    assert!(within_2s(|| shards.stats().shed > 0), "the 4x storm must trip admission control");

    let over = run_probe(&shards, service.clone(), probe_rounds).snapshot(16);
    stop.store(true, Ordering::Relaxed);
    let (mut flood_offered, mut flood_answered, mut flood_jukeboxed) = (0u64, 0u64, 0u64);
    for f in flooders {
        let (o, a, j) = f.join().expect("flooder");
        flood_offered += o;
        flood_answered += a;
        flood_jukeboxed += j;
    }

    // Post-storm: queues drain, the hysteresis band exits.
    let drained = within_2s(|| {
        let s = shards.stats();
        s.backlog == 0 && s.overloaded == 0
    });

    let stats = shards.stats();
    let events = server_obs.snapshot(4096);
    let count_events = |hop: &str| events.events.iter().filter(|e| e.hop == hop).count() as f64;

    // One DRR cycle of a non-preemptive shard: each flooder's turn may
    // execute up to max_pump records before the scheduler comes back
    // around, so a probe record that just missed its turn waits a full
    // cycle — irreducible, so it is slack, not regression. p99 gets
    // three cycles (the probe can also queue behind its own previous
    // record, and every simulated service sleep overshoots its timer),
    // p999 four. Deliberately generous: the gate is against unbounded
    // queueing — without admission the 14k-record storm would post
    // seconds, two orders of magnitude past these limits.
    let cycle_us =
        (traffic_config.clients * POLICY.max_pump) as f64 * SERVICE_DELAY.as_micros() as f64;
    let mut rows = Vec::new();
    for name in ["getattr", "read", "write"] {
        let b = summary(&base.procs, name);
        let o = summary(&over.procs, name);
        let p99_limit_us = b.p99_micros * P99_FACTOR_LIMIT + 3.0 * cycle_us;
        // With O(10^3) samples p999 is the single worst sample, and
        // one descheduling hiccup on a shared host costs 100+ ms —
        // so the p999 gate is a rare-starvation tripwire floored at
        // 500 ms: above any plausible host hiccup, but far below a
        // probe call that actually waited behind a flood pass
        // (seconds of service time). Real tail regressions trip the
        // p99 gate, whose rank sits safely off the max.
        let p999_limit_us = (b.p999_micros * P999_FACTOR_LIMIT + 4.0 * cycle_us).max(500_000.0);
        rows.extend([
            Check::report(&format!("{name}_baseline_p99_us"), b.p99_micros, "us"),
            Check::report(&format!("{name}_baseline_p999_us"), b.p999_micros, "us"),
            Check::at_most(&format!("{name}_overload_p99_us"), o.p99_micros, "us", p99_limit_us),
            Check::at_most(&format!("{name}_overload_p999_us"), o.p999_micros, "us", p999_limit_us),
        ]);
    }

    // The server cannot shed a burst before it lands: the floor of what
    // admission can bound is the budget plus the worst-case bytes in
    // flight. At 4× compression several bursts per flooder can land
    // while the scheduler works its way back around to shed them, so
    // allow three simultaneous worst-case bursts per flooder (the
    // closed-loop probe adds at most one record). Still a bound tied to
    // burst physics, not offered load: the flooders offer megabytes.
    let hwm_limit = POLICY.shard_backlog_budget
        + 3 * traffic_config.clients * traffic_config.burst_max as usize * max_record;
    rows.extend([
        Check::report("flood_offered", flood_offered as f64, "count"),
        Check::at_most("flood_unanswered", (flood_offered - flood_answered) as f64, "count", 0.0),
        // The storm was real: flooders saw JUKEBOX, each one a shed the
        // shard counted and traced.
        Check::at_least("flood_jukeboxed", flood_jukeboxed as f64, "count", 1.0),
        Check::at_least("shard_shed", stats.shed as f64, "count", flood_jukeboxed as f64),
        Check::at_least("shed_events", count_events("shed"), "count", 1.0),
        Check::report("overload_events", count_events("overload"), "count"),
        Check::report("shard_served", stats.served as f64, "count"),
        Check::at_most("backlog_hwm", stats.backlog_hwm as f64, "B", hwm_limit as f64),
        Check::holds("drained", drained),
    ]);
    rows
}
