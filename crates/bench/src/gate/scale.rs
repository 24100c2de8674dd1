//! Session scale on the sharded server core and the pooled client plane.
//!
//! 1. **Baseline latency** — one session on a one-shard server; p50/p99
//!    of a sequential echo round trip, the number a thread-per-connection
//!    design would also post.
//! 2. **Scale** — 1000+ sessions pinned onto a small shard pool. The
//!    process may grow by at most `shards + 4` threads (a
//!    thread-per-connection design would add 1000+), and a low-load
//!    session driven while the other 999+ sit idle-but-pinned posts a
//!    p99 no worse than 2× the single-session baseline — pinned idle
//!    sessions must cost nothing on the hot path.
//! 3. **Aggregate throughput** — a bounded driver pool round-robins the
//!    whole population, reported for trend tracking (not gated: the
//!    number is driver-bound on small hosts).
//! 4. **Client plane** — 256 pipelines multiplexed onto a fixed
//!    [`ClientIoPool`]. The mirror image of (2): the population may cost
//!    at most `pool + server shards + 4` threads while running, and the
//!    process must return to its pre-test thread count once the
//!    pipelines, pool, and server are dropped — a leaked reader fails
//!    the teardown row by exactly the number of zombies.
//!
//! On a host without `/proc` the thread rows are absent from the table;
//! the echo asserts and the latency rows still run.

use super::Check;
use crate::RunOpts;
use sgfs::config::RetryPolicy;
use sgfs::proxy::client::Upstream;
use sgfs::proxy::pipeline::Pipeline;
use sgfs_net::{pipe_pair, PipeEnd};
use sgfs_oncrpc::record::{read_record_into, write_record_with};
use sgfs_oncrpc::{process_thread_count, ClientIoPool, RecordService, ShardServer};
use std::sync::Arc;
use std::time::Instant;

const RECORD_LEN: usize = 512;
const SESSIONS: usize = 1024;
const SHARDS: usize = 4;
const THREAD_SLACK: usize = 4;
const DRIVERS: usize = 8;

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
    fn call(&mut self, xid: u32) {
        self.req[0..4].copy_from_slice(&xid.to_be_bytes());
        write_record_with(&mut self.end, &self.req, &mut self.scratch).expect("request");
        assert!(read_record_into(&mut self.end, &mut self.reply).expect("reply"));
        assert_eq!(&self.reply[0..4], &xid.to_be_bytes(), "xid echoed");
    }
}

fn add_echo_session(shards: &ShardServer) -> Client {
    let (end, server_end) = pipe_pair();
    let watch = server_end.watch();
    shards.add_session(Box::new(server_end), watch, Arc::new(Echo)).expect("add session");
    Client { end, req: vec![0x42; RECORD_LEN], reply: Vec::new(), scratch: Vec::new() }
}

/// `(p50, p99)` in µs of `calls` sequential round trips, as `<what>_p50_us`
/// and `<what>_p99_us` rows; the p99 is also returned.
fn latency(what: &str, client: &mut Client, calls: usize) -> (Vec<Check>, f64) {
    for i in 0..32u32 {
        client.call(i);
    }
    let mut lat: Vec<u64> = (0..calls as u32)
        .map(|i| {
            let start = Instant::now();
            client.call(0x100 + i);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    lat.sort_unstable();
    let us = |p: f64| lat[((lat.len() as f64 - 1.0) * p).round() as usize] as f64 / 1_000.0;
    let rows = vec![
        Check::report(&format!("{what}_p50_us"), us(0.50), "us"),
        Check::report(&format!("{what}_p99_us"), us(0.99), "us"),
    ];
    (rows, us(0.99))
}

/// Spread `items` over [`DRIVERS`] threads running `work` on their share;
/// wall seconds until all are done.
fn drive<T: Send + 'static>(items: Vec<T>, work: fn(Vec<T>, u32), rounds: u32) -> f64 {
    let mut shares: Vec<Vec<T>> = (0..DRIVERS).map(|_| Vec::new()).collect();
    for (slot, item) in items.into_iter().enumerate() {
        shares[slot % DRIVERS].push(item);
    }
    let start = Instant::now();
    let handles: Vec<_> =
        shares.into_iter().map(|mine| std::thread::spawn(move || work(mine, rounds))).collect();
    for h in handles {
        h.join().expect("driver");
    }
    start.elapsed().as_secs_f64()
}

/// 256 pipelines on one fixed client I/O pool: thread ceiling while the
/// plane is live, and zero residue after teardown.
fn client_plane(opts: &RunOpts) -> Vec<Check> {
    let pipelines: usize = 256;
    let pool_threads: usize = 2;
    let server_shards: usize = 2;
    let rounds: u32 = if opts.quick { 4 } else { 16 };

    let threads_before = process_thread_count();
    let pool = ClientIoPool::new(pool_threads);
    let server = ShardServer::new(server_shards);
    let plane: Vec<Pipeline> = (0..pipelines)
        .map(|_| {
            let (client_end, server_end) = pipe_pair();
            let watch = server_end.watch();
            server.add_session(Box::new(server_end), watch, Arc::new(Echo)).expect("echo session");
            let client_watch = client_end.watch();
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
            .expect("pipeline on shared pool")
        })
        .collect();
    let threads_running = process_thread_count();

    // Each share of pipelines drops inside its driver, retiring off the
    // pool there, so teardown below waits only on the pool and server
    // workers.
    let wall_s = drive(
        plane,
        |mine, rounds| {
            for r in 0..rounds {
                for p in mine.iter() {
                    let mut record = vec![0x37u8; RECORD_LEN];
                    record[0..4].copy_from_slice(&(0x2_0000 + r).to_be_bytes());
                    let reply = p.call(record.clone()).expect("pipeline call");
                    assert_eq!(reply, record, "echo through the shared pool");
                }
            }
        },
        rounds,
    );

    drop(server);
    drop(pool);
    // The drops above join their workers, but /proc can trail the reaper
    // by a beat; poll briefly before declaring a leak.
    let mut threads_after = process_thread_count();
    for _ in 0..2_000 {
        if threads_after <= threads_before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        threads_after = process_thread_count();
    }

    let mut rows =
        vec![Check::report("client_calls_s", pipelines as f64 * rounds as f64 / wall_s, "1/s")];
    if let (Some(before), Some(running), Some(after)) =
        (threads_before, threads_running, threads_after)
    {
        rows.push(Check::at_most(
            "client_threads_added",
            running.saturating_sub(before) as f64,
            "count",
            (pool_threads + server_shards + THREAD_SLACK) as f64,
        ));
        rows.push(Check::at_most(
            "client_threads_leaked",
            after.saturating_sub(before) as f64,
            "count",
            0.0,
        ));
    }
    rows
}

pub fn suite(opts: &RunOpts) -> Vec<Check> {
    let latency_calls = if opts.quick { 2_000 } else { 10_000 };
    let rounds: u32 = if opts.quick { 4 } else { 16 };

    // 1. Baseline: one session, one shard.
    let (mut rows, baseline_p99) = {
        let solo = ShardServer::new(1);
        latency("baseline", &mut add_echo_session(&solo), latency_calls)
    };

    // 2. Scale: the full population on a small pool.
    let threads_before = process_thread_count();
    let pool = ShardServer::with_obs(SHARDS, sgfs_obs::Obs::disabled());
    let clients: Vec<Client> = (0..SESSIONS).map(|_| add_echo_session(&pool)).collect();
    let threads_after = process_thread_count();
    rows.push(Check::at_least("sessions", SESSIONS as f64, "count", 1000.0));
    if let (Some(before), Some(after)) = (threads_before, threads_after) {
        rows.push(Check::at_most(
            "session_threads_added",
            after.saturating_sub(before) as f64,
            "count",
            (SHARDS + THREAD_SLACK) as f64,
        ));
    }
    let (low_load, low_load_p99) =
        latency("low_load", &mut add_echo_session(&pool), latency_calls);
    rows.extend(low_load);
    rows.push(Check::at_most(
        "low_load_p99_factor",
        low_load_p99 / baseline_p99.max(f64::EPSILON),
        "ratio",
        2.0,
    ));

    // 3. Aggregate throughput over the whole population.
    let served_before = pool.stats().served;
    let wall_s = drive(
        clients,
        |mut mine, rounds| {
            for r in 0..rounds {
                for c in mine.iter_mut() {
                    c.call(0x1_0000 + r);
                }
            }
        },
        rounds,
    );
    rows.push(Check::report("calls_s", SESSIONS as f64 * rounds as f64 / wall_s, "1/s"));
    rows.push(Check::report("shard_served", (pool.stats().served - served_before) as f64, "count"));

    // 4. Client plane: 256 pipelines on a 2-thread client I/O pool.
    rows.extend(client_plane(opts));
    rows
}
