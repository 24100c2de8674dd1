//! Session-scale gate for the sharded server core, written to
//! `results/BENCH_scale.json`.
//!
//! Three measurements:
//!
//! 1. **Baseline latency** — one session on a one-shard server; p50/p99
//!    of a sequential echo round trip, the number a thread-per-connection
//!    design would also post.
//! 2. **Scale** — 1000+ sessions pinned onto a small shard pool. The
//!    gate: the process grows by at most `shards + 4` threads (a
//!    thread-per-connection design would add 1000+), and a low-load
//!    session driven while the other 999+ sit idle-but-pinned posts a
//!    p99 no worse than 2× the single-session baseline — pinned idle
//!    sessions must cost nothing on the hot path.
//! 3. **Aggregate throughput** — a bounded driver pool round-robins the
//!    whole population, reported for trend tracking (not gated: the
//!    number is driver-bound on small hosts).
//! 4. **Client plane** — 256 pipelines multiplexed onto a fixed
//!    [`ClientIoPool`]. The mirror-image gate of (2): the client side
//!    used to burn one reader thread per pipeline, so the population may
//!    now cost at most `pool + server shards + 4` threads while running,
//!    and the process must return to its pre-test thread count once the
//!    pipelines, pool, and server are dropped — a leaked reader fails
//!    the teardown check by exactly the number of zombies.

use sgfs::config::RetryPolicy;
use sgfs::proxy::client::Upstream;
use sgfs::proxy::pipeline::Pipeline;
use sgfs_bench::RunOpts;
use sgfs_net::{pipe_pair, PipeEnd};
use sgfs_oncrpc::record::{read_record_into, write_record_with};
use sgfs_oncrpc::{process_thread_count, ClientIoPool, RecordService, ShardServer};
use std::sync::Arc;
use std::time::Instant;

const RECORD_LEN: usize = 512;

/// Echo service: isolates the shard loop + transport from any NFS logic.
struct Echo;

impl RecordService for Echo {
    fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        Ok(record.to_vec())
    }
}

/// A driver-side session handle with reused buffers.
struct Client {
    end: PipeEnd,
    req: Vec<u8>,
    reply: Vec<u8>,
    scratch: Vec<u8>,
}

impl Client {
    fn new(end: PipeEnd) -> Self {
        Self { end, req: vec![0x42; RECORD_LEN], reply: Vec::new(), scratch: Vec::new() }
    }

    fn call(&mut self, xid: u32) {
        self.req[0..4].copy_from_slice(&xid.to_be_bytes());
        write_record_with(&mut self.end, &self.req, &mut self.scratch).expect("request");
        assert!(read_record_into(&mut self.end, &mut self.reply).expect("reply"));
        assert_eq!(&self.reply[0..4], &xid.to_be_bytes(), "xid echoed");
    }
}

fn add_echo_session(shards: &ShardServer) -> Client {
    let (client_end, server_end) = pipe_pair();
    let watch = server_end.watch();
    shards.add_session(Box::new(server_end), watch, Arc::new(Echo)).expect("add session");
    Client::new(client_end)
}

/// Sequential round trips; returns sorted per-call latencies in ns.
fn measure_latency(client: &mut Client, calls: usize) -> Vec<u64> {
    for i in 0..32u32 {
        client.call(i);
    }
    let mut lat = Vec::with_capacity(calls);
    for i in 0..calls as u32 {
        let start = Instant::now();
        client.call(0x100 + i);
        lat.push(start.elapsed().as_nanos() as u64);
    }
    lat.sort_unstable();
    lat
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

#[derive(serde::Serialize)]
struct LatencyResult {
    calls: usize,
    p50_us: f64,
    p99_us: f64,
}

fn latency_result(sorted: &[u64]) -> LatencyResult {
    LatencyResult {
        calls: sorted.len(),
        p50_us: percentile(sorted, 0.50) as f64 / 1_000.0,
        p99_us: percentile(sorted, 0.99) as f64 / 1_000.0,
    }
}

#[derive(serde::Serialize)]
struct ScaleResult {
    sessions: usize,
    shards: usize,
    threads_before: Option<usize>,
    threads_after: Option<usize>,
    thread_slack: usize,
    /// p99 of one driven session while the rest sit pinned and idle.
    low_load: LatencyResult,
    /// Allowed p99 degradation vs the single-session baseline.
    p99_factor_limit: f64,
    p99_factor: f64,
}

#[derive(serde::Serialize)]
struct ThroughputResult {
    drivers: usize,
    rounds: usize,
    calls: usize,
    wall_s: f64,
    calls_per_s: f64,
    served: u64,
}

#[derive(serde::Serialize)]
struct ClientPlaneResult {
    pipelines: usize,
    pool_threads: usize,
    server_shards: usize,
    threads_before: Option<usize>,
    threads_running: Option<usize>,
    threads_after_teardown: Option<usize>,
    thread_slack: usize,
    calls: usize,
    wall_s: f64,
    calls_per_s: f64,
    ceiling_ok: bool,
    teardown_ok: bool,
}

#[derive(serde::Serialize)]
struct BenchReport {
    record_bytes: usize,
    baseline: LatencyResult,
    scale: ScaleResult,
    throughput: ThroughputResult,
    client_plane: ClientPlaneResult,
    gate_ok: bool,
}

/// 256 pipelines on one fixed client I/O pool: thread ceiling while the
/// plane is live, and zero residue after teardown.
fn bench_client_plane(opts: &RunOpts) -> ClientPlaneResult {
    let pipelines: usize = 256;
    let pool_threads: usize = 2;
    let server_shards: usize = 2;
    let rounds: usize = if opts.quick { 4 } else { 16 };
    let drivers: usize = 8;
    let thread_slack: usize = 4;

    let threads_before = process_thread_count();
    let pool = ClientIoPool::new(pool_threads);
    let server = ShardServer::new(server_shards);
    let mut plane: Vec<Pipeline> = Vec::with_capacity(pipelines);
    for _ in 0..pipelines {
        let (client_end, server_end) = pipe_pair();
        let watch = server_end.watch();
        server.add_session(Box::new(server_end), watch, Arc::new(Echo)).expect("echo session");
        let client_watch = client_end.watch();
        plane.push(
            Pipeline::with_recovery_on(
                &pool,
                Upstream::Plain(Box::new(client_end)),
                client_watch,
                8,
                None,
                sgfs_obs::Emitter::detached("client"),
                None,
                RetryPolicy::default(),
            )
            .expect("pipeline on shared pool"),
        );
    }
    let threads_running = process_thread_count();

    let mut work: Vec<Vec<Pipeline>> = (0..drivers).map(|_| Vec::new()).collect();
    for (slot, p) in plane.drain(..).enumerate() {
        work[slot % drivers].push(p);
    }
    let start = Instant::now();
    let handles: Vec<_> = work
        .into_iter()
        .map(|mine| {
            std::thread::spawn(move || {
                for r in 0..rounds as u32 {
                    for p in mine.iter() {
                        let mut record = vec![0x37u8; RECORD_LEN];
                        record[0..4].copy_from_slice(&(0x2_0000 + r).to_be_bytes());
                        let reply = p.call(record.clone()).expect("pipeline call");
                        assert_eq!(reply, record, "echo through the shared pool");
                    }
                }
                // `mine` drops here: each pipeline retires off the pool
                // inside its driver, so teardown below waits only on the
                // pool and server workers.
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client driver");
    }
    let wall_s = start.elapsed().as_secs_f64();
    let calls = pipelines * rounds;

    drop(server);
    drop(pool);
    // The drops above join their workers, but /proc can trail the reaper
    // by a beat; poll briefly before declaring a leak.
    let mut threads_after_teardown = process_thread_count();
    if let Some(before) = threads_before {
        for _ in 0..2_000 {
            match threads_after_teardown {
                Some(now) if now > before => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    threads_after_teardown = process_thread_count();
                }
                _ => break,
            }
        }
    }

    let ceiling_ok = match (threads_before, threads_running) {
        (Some(before), Some(running)) => {
            running <= before + pool_threads + server_shards + thread_slack
        }
        _ => true, // no /proc on this host: the echo asserts still ran
    };
    let teardown_ok = match (threads_before, threads_after_teardown) {
        (Some(before), Some(after)) => after <= before,
        _ => true,
    };

    ClientPlaneResult {
        pipelines,
        pool_threads,
        server_shards,
        threads_before,
        threads_running,
        threads_after_teardown,
        thread_slack,
        calls,
        wall_s,
        calls_per_s: calls as f64 / wall_s,
        ceiling_ok,
        teardown_ok,
    }
}

fn main() {
    let opts = RunOpts::parse();
    let sessions: usize = 1024;
    let shards: usize = 4;
    let latency_calls = if opts.quick { 2_000 } else { 10_000 };
    let rounds = if opts.quick { 4 } else { 16 };
    let drivers = 8;

    // 1. Baseline: one session, one shard.
    let baseline = {
        let solo = ShardServer::new(1);
        let mut client = add_echo_session(&solo);
        latency_result(&measure_latency(&mut client, latency_calls))
    };
    println!(
        "baseline:   1 session / 1 shard        p50 {:>7.1} us   p99 {:>7.1} us",
        baseline.p50_us, baseline.p99_us
    );

    // 2. Scale: the full population on a small pool.
    let threads_before = process_thread_count();
    let pool = ShardServer::with_obs(shards, sgfs_obs::Obs::disabled());
    let mut clients: Vec<Client> = (0..sessions).map(|_| add_echo_session(&pool)).collect();
    let threads_after = process_thread_count();

    let low_load = {
        let mut probe = add_echo_session(&pool);
        latency_result(&measure_latency(&mut probe, latency_calls))
    };
    let p99_factor_limit = 2.0;
    let p99_factor = low_load.p99_us / baseline.p99_us.max(f64::EPSILON);
    let thread_slack = 4;
    println!(
        "low-load:   1 of {} sessions driven   p50 {:>7.1} us   p99 {:>7.1} us   ({:.2}x baseline)",
        sessions + 1,
        low_load.p50_us,
        low_load.p99_us,
        p99_factor
    );
    if let (Some(before), Some(after)) = (threads_before, threads_after) {
        println!(
            "threads:    {sessions} pinned sessions cost {} threads (before {before}, after {after})",
            after.saturating_sub(before)
        );
    }

    // 3. Aggregate throughput over the whole population.
    let served_before = pool.stats().served;
    let mut work: Vec<Vec<Client>> = (0..drivers).map(|_| Vec::new()).collect();
    for (slot, c) in clients.drain(..).enumerate() {
        work[slot % drivers].push(c);
    }
    let start = Instant::now();
    let handles: Vec<_> = work
        .into_iter()
        .map(|mut mine| {
            std::thread::spawn(move || {
                for r in 0..rounds as u32 {
                    for c in mine.iter_mut() {
                        c.call(0x1_0000 + r);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("driver");
    }
    let wall_s = start.elapsed().as_secs_f64();
    let calls = sessions * rounds;
    let served = pool.stats().served - served_before;
    let throughput = ThroughputResult {
        drivers,
        rounds,
        calls,
        wall_s,
        calls_per_s: calls as f64 / wall_s,
        served,
    };
    println!(
        "throughput: {} calls over {} sessions  {:>9.0} calls/s  ({} shard-served)",
        calls, sessions, throughput.calls_per_s, served
    );

    // 4. Client plane: 256 pipelines on a 2-thread client I/O pool.
    let client_plane = bench_client_plane(&opts);
    println!(
        "client:     {} pipelines / {} pool threads  {:>9.0} calls/s  ceiling {}  teardown {}",
        client_plane.pipelines,
        client_plane.pool_threads,
        client_plane.calls_per_s,
        if client_plane.ceiling_ok { "ok" } else { "FAIL" },
        if client_plane.teardown_ok { "ok" } else { "FAIL" },
    );
    if let (Some(before), Some(running), Some(after)) = (
        client_plane.threads_before,
        client_plane.threads_running,
        client_plane.threads_after_teardown,
    ) {
        println!(
            "            threads before {before}, running {running}, after teardown {after}"
        );
    }

    let threads_ok = match (threads_before, threads_after) {
        (Some(before), Some(after)) => after <= before + shards + thread_slack,
        _ => true, // no /proc on this host: latency gate still applies
    };
    let gate_ok = sessions >= 1000
        && threads_ok
        && p99_factor <= p99_factor_limit
        && client_plane.ceiling_ok
        && client_plane.teardown_ok;

    let report = BenchReport {
        record_bytes: RECORD_LEN,
        baseline,
        scale: ScaleResult {
            sessions,
            shards,
            threads_before,
            threads_after,
            thread_slack,
            low_load,
            p99_factor_limit,
            p99_factor,
        },
        throughput,
        client_plane,
        gate_ok,
    };
    sgfs_bench::save_json("BENCH_scale", &report);

    if !gate_ok {
        eprintln!(
            "FAIL: sessions={} threads_ok={} p99_factor={:.2} (limit {:.1}) \
             client_ceiling_ok={} client_teardown_ok={}",
            report.scale.sessions,
            threads_ok,
            report.scale.p99_factor,
            p99_factor_limit,
            report.client_plane.ceiling_ok,
            report.client_plane.teardown_ok
        );
        std::process::exit(1);
    }
}
