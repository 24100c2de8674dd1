//! Observability overhead.
//!
//! 1. **Emit cost** — nanoseconds per `Emitter::emit`: with tracing on
//!    (the counter add, one logical-clock tick, relaxed stores into the
//!    thread's ring shard) and with tracing off, where an emit is its
//!    counter add alone — the cost every call of every session pays.
//! 2. **Pipeline throughput, traced vs untraced** — the same call mix
//!    through the xid-demultiplexed pipeline over a loopback pipe, its
//!    emitter in an untraced domain vs a live [`Obs`] domain receiving
//!    two events and a histogram sample per call.
//! 3. **Snapshot cost** — milliseconds to render a populated domain to
//!    JSON (the FSS `Query` payload), which must be cheap enough to poll.

use super::{mock, Check};
use crate::RunOpts;
use sgfs::proxy::client::Upstream;
use sgfs::proxy::pipeline::Pipeline;
use sgfs_obs::{Emitter, Hop, Obs};
use std::time::Instant;

/// Nanoseconds one emit costs: the best of five batches of `events`. The
/// loop is deterministic, so whatever else the host runs only ever adds
/// to a batch; the fastest one is the cost.
fn ns_per_emit(em: &Emitter, events: usize) -> f64 {
    let batch = || {
        let start = Instant::now();
        for i in 0..events as u32 {
            em.emit(Hop::UpstreamSend, i, 6, 0);
        }
        start.elapsed().as_nanos() as f64 / events as f64
    };
    (0..5).map(|_| batch()).fold(f64::INFINITY, f64::min)
}

fn emit(opts: &RunOpts) -> Vec<Check> {
    let events = if opts.quick { 200_000 } else { 2_000_000 };
    let obs = Obs::new();
    let em = Emitter::new(&obs, "client");
    // Warm: registers this thread's shard.
    for i in 0..1_000u32 {
        em.emit(Hop::UpstreamSend, i, 6, 0);
    }
    let traced = ns_per_emit(&em, events);
    obs.set_enabled(false);
    let counting = ns_per_emit(&em, events);
    assert_eq!(em.count(Hop::UpstreamSend), 10 * events as u64 + 1_000, "every emit counted");
    vec![
        // The bound that enforces the ≤ 2 % tracing budget: a traced RPC
        // emits a handful of hops, so 50 ns/event against a
        // multi-microsecond call keeps tracing well under 2 % even on the
        // in-memory transport. The tight loop is stable on shared
        // hardware, unlike an end-to-end throughput ratio.
        Check::at_most("emit_traced_ns", traced, "ns", 50.0),
        // The counting-only emit: one uncontended relaxed add.
        Check::at_most("emit_counting_ns", counting, "ns", 10.0),
    ]
}

/// Wall seconds to push `calls` records through a fresh pipeline whose
/// emitter's domain has tracing on or off.
fn forwarding_run(calls: usize, record_bytes: usize, traced: bool) -> f64 {
    let (client_end, server_end) = sgfs_net::pipe_pair();
    mock::echo_upstream(server_end);
    let obs = if traced { Obs::new() } else { Obs::disabled() };
    let stats = Emitter::new(&obs, "client");
    let client_watch = client_end.watch();
    let pipeline =
        Pipeline::new(Upstream::Plain(Box::new(client_end)), client_watch, 8, None, stats);
    let call = |xid: u32| {
        let mut record = xid.to_be_bytes().to_vec();
        record.resize(record_bytes, 0);
        pipeline.call(record).expect("forwarded call");
    };
    // Warm both directions (and the obs shard registration) off the clock.
    (0..16).for_each(call);
    let start = Instant::now();
    (0x1000..0x1000 + calls as u32).for_each(call);
    start.elapsed().as_secs_f64()
}

fn overhead(opts: &RunOpts) -> Vec<Check> {
    let calls = if opts.quick { 40_000 } else { 60_000 };
    let record_bytes = 64;
    let repeats = 5;
    // The emit cost is tens of nanoseconds against a multi-microsecond
    // loopback RPC, so scheduler noise, not tracing, dominates this
    // ratio: on shared hardware back-to-back identical runs differ by
    // ±5%, which no estimator can resolve to 2%. The fine-grained ≤2%
    // budget is therefore enforced by the per-event emit bound above;
    // this end-to-end ratio is a gross-regression gate (a stray lock or
    // allocation on the traced path shows up as 2–10×, not 2%). Each
    // round still measures both arms back to back, alternating which
    // goes first, and takes the median per-round overhead to shed load
    // drift and spike rounds.
    let mut untraced = f64::INFINITY;
    let mut traced = f64::INFINITY;
    let mut per_round = Vec::with_capacity(repeats);
    for round in 0..repeats {
        let (u, t) = if round % 2 == 0 {
            let u = forwarding_run(calls, record_bytes, false);
            (u, forwarding_run(calls, record_bytes, true))
        } else {
            let t = forwarding_run(calls, record_bytes, true);
            (forwarding_run(calls, record_bytes, false), t)
        };
        untraced = untraced.min(u);
        traced = traced.min(t);
        per_round.push((t - u) / u);
    }
    per_round.sort_by(|a, b| a.partial_cmp(b).expect("finite overhead"));
    vec![
        Check::report("untraced_calls_s", calls as f64 / untraced, "1/s"),
        Check::report("traced_calls_s", calls as f64 / traced, "1/s"),
        Check::at_most("trace_overhead_frac", per_round[repeats / 2], "ratio", 0.10),
    ]
}

fn snapshot(opts: &RunOpts) -> Vec<Check> {
    let events = if opts.quick { 10_000 } else { 16_384 };
    let obs = Obs::new();
    let em = Emitter::new(&obs, "client");
    for i in 0..events as u32 {
        em.emit(Hop::UpstreamSend, i, 7, 64);
        obs.record_proc(7, 1_000 + (i as u64 % 1_000_000));
        obs.record_hop(Hop::UpstreamReply, 2_000 + (i as u64 % 500_000));
    }
    let start = Instant::now();
    let json = obs.json(256);
    let snapshot_ms = start.elapsed().as_secs_f64() * 1_000.0;
    vec![
        Check::report("snapshot_ms", snapshot_ms, "ms"),
        Check::report("snapshot_json_bytes", json.len() as f64, "B"),
    ]
}

pub fn suite(opts: &RunOpts) -> Vec<Check> {
    [emit(opts), overhead(opts), snapshot(opts)].concat()
}
