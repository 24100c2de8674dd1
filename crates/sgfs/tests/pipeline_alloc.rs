//! Steady-state allocation behaviour of the pipelined upstream channel.
//!
//! A counting global allocator watches the whole process while calls flow
//! through the pipeline against a buffer-reusing echo server. At steady
//! state the I/O thread recycles its buffers: the reply is handed to the
//! waiter by swapping the reply buffer with the (spent) request buffer,
//! so the only per-call allocations left are the pipeline's one copy of
//! the caller's record and the reply-channel plumbing. A per-reply
//! `clone()` of the record — the regression this test pins down — would
//! add a full record's worth of bytes to every call and trip the budget
//! immediately.

use sgfs::proxy::client::Upstream;
use sgfs::proxy::pipeline::Pipeline;
use sgfs_net::pipe_pair;
use sgfs_obs::Emitter;
use sgfs_oncrpc::record::{framed, read_record_at, read_record_into, write_marked, MARK_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::SeqCst)
}

/// The counter watches the whole process, so the two measurements must
/// not overlap: each test holds this lock for its duration.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Echoes records verbatim with reused buffers: the server side settles
/// to zero allocations, so the measurement isolates the client stack.
fn frugal_echo_server(mut end: sgfs_net::PipeEnd) {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        loop {
            match read_record_at(&mut end, &mut buf, MARK_LEN) {
                Ok(true) => {
                    if write_marked(&mut end, &mut buf).is_err() {
                        return;
                    }
                }
                _ => return,
            }
        }
    });
}

const RECORD_LEN: usize = 8 * 1024;

fn call_record(xid: u32) -> Vec<u8> {
    let mut r = Vec::with_capacity(RECORD_LEN);
    r.extend_from_slice(&xid.to_be_bytes());
    r.resize(RECORD_LEN, 0x42);
    r
}

fn pump(p: &Pipeline, n: u32) {
    let mut record = call_record(0);
    for i in 0..n {
        record[0..4].copy_from_slice(&i.to_be_bytes());
        let reply = p.call(&record).expect("echo reply");
        assert_eq!(reply.len(), RECORD_LEN);
        assert_eq!(&reply[0..4], &i.to_be_bytes(), "xid restored");
    }
}

/// Echo service for the shard-side contract: the shard's own read path
/// uses the per-shard shared record buffer, so the only service-side
/// allocation is the reply `Vec` this returns.
struct ShardEcho;

impl sgfs_oncrpc::RecordService for ShardEcho {
    fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        Ok(record.to_vec())
    }
}

#[test]
fn reply_handoff_is_clone_free_at_steady_state() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (client_end, server_end) = pipe_pair();
    frugal_echo_server(server_end);
    let watch = client_end.watch();
    let p =
        Pipeline::new(Upstream::Plain(Box::new(client_end)), watch, 4, None, Emitter::detached("client"));

    // Warm-up: settle the I/O thread's reply/scratch high-water marks and
    // the recycled-buffer pool that the reply swap feeds.
    pump(&p, 32);

    const CALLS: u64 = 64;
    let before = alloc_bytes();
    pump(&p, CALLS as u32);
    let per_call = (alloc_bytes() - before) / CALLS;

    // Budget: the pipeline's own copy of the record, the two in-memory-pipe
    // message copies (`PipeEnd::write` clones each write — the emulated
    // transport, not the pipeline), and channel plumbing. A per-reply
    // buffer clone in the I/O thread would add a further ~RECORD_LEN per
    // call and fail.
    let budget = (3 * RECORD_LEN + 4096) as u64;
    assert!(
        per_call < budget,
        "steady-state allocations {per_call} B/call exceed budget {budget} B/call \
         (a reply-path copy has crept back in?)"
    );
}

/// The sharded core must hold the same discipline with many sessions
/// multiplexed onto one event loop: the shard's record and scratch
/// buffers are shared across *all* pinned sessions, so interleaving
/// eight sessions round-robin — the worst case for any per-session
/// buffer scheme — must still cost only the unavoidable per-call
/// pieces: the emulated pipe's two message copies and the service's
/// reply `Vec`. A per-session read buffer (or a per-wake re-allocation
/// of the scratch) would multiply the budget and fail.
#[test]
fn shard_buffers_hold_high_water_across_interleaved_sessions() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SESSIONS: usize = 8;
    let shards = sgfs_oncrpc::ShardServer::new(1);
    let mut ends = Vec::new();
    for _ in 0..SESSIONS {
        let (client_end, server_end) = pipe_pair();
        let watch = server_end.watch();
        shards
            .add_session(Box::new(server_end), watch, std::sync::Arc::new(ShardEcho))
            .unwrap();
        ends.push(client_end);
    }

    // Reused client-side buffers: at steady state the client contributes
    // nothing, so the measurement isolates the shard loop + transport.
    let mut req = framed(&call_record(0));
    let mut reply = Vec::new();
    let mut drive = |rounds: u32, ends: &mut [sgfs_net::PipeEnd]| {
        for r in 0..rounds {
            for (s, end) in ends.iter_mut().enumerate() {
                let xid = r * SESSIONS as u32 + s as u32;
                req[MARK_LEN..MARK_LEN + 4].copy_from_slice(&xid.to_be_bytes());
                write_marked(end, &mut req).unwrap();
                assert!(read_record_into(end, &mut reply).unwrap());
                assert_eq!(reply.len(), RECORD_LEN);
                assert_eq!(&reply[0..4], &xid.to_be_bytes(), "xid restored by shard");
            }
        }
    };

    // Warm-up: every session visits the shard at least four times, so the
    // shared record/scratch buffers and the poller queues reach their
    // high-water capacity with session switching already in play.
    drive(4, &mut ends);

    const ROUNDS: u64 = 16;
    let before = alloc_bytes();
    drive(ROUNDS as u32, &mut ends);
    let per_call = (alloc_bytes() - before) / (ROUNDS * SESSIONS as u64);

    // Budget: two pipe message copies (request in, reply out — the
    // emulated transport clones each write) plus the echo's reply `Vec`,
    // with slack for poller/channel plumbing. A per-session or per-wake
    // shard buffer would add ≥ RECORD_LEN per call and trip this.
    let budget = (4 * RECORD_LEN + 4096) as u64;
    assert!(
        per_call < budget,
        "sharded steady-state allocations {per_call} B/call exceed budget {budget} B/call \
         (per-session buffers or a shard-side copy have crept in?)"
    );

    let stats = shards.stats();
    assert_eq!(stats.served, (ROUNDS + 4) * SESSIONS as u64, "every call shard-served");
}
