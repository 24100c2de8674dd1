//! Steady-state allocation behaviour of the GTLS record layer.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase that lets every scratch buffer reach its high-water capacity, the
//! record hot path (seal → open, 10k records with reused scratch) must
//! perform zero heap allocations. Only allocations made on the thread that
//! runs the measured loop count: the test harness allocates on its own
//! threads (a slow test's "has been running for over 60 seconds" notice,
//! another test's work), and those are not the record path's.

use sgfs_gtls::record::{HalfConn, CT_DATA};
use sgfs_gtls::suite::CipherSuite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. A `const` `Cell`
    /// needs no lazy initialization and no destructor, so reading it
    /// never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The allocations `f` makes on the calling thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOC_CALLS.load(Ordering::SeqCst) - before
}

/// The counter is shared by every thread that counts: two tests counting
/// at once would see each other's allocations, so every test holds this
/// while it runs.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn pair(suite: CipherSuite) -> (HalfConn, HalfConn) {
    let key = vec![0x5au8; suite.key_len()];
    let mac = vec![0xa5u8; suite.mac_key_len()];
    let iv = vec![0x1bu8; suite.iv_len()];
    (HalfConn::new(suite, &key, &mac, &iv), HalfConn::new(suite, &key, &mac, &iv))
}

/// Drive `n` records through seal_into/open_in_place with reused scratch.
fn pump(tx: &mut HalfConn, rx: &mut HalfConn, wire: &mut Vec<u8>, payload: &[u8], n: usize) {
    let mut rng = rand::thread_rng();
    for i in 0..n {
        // Vary the length so padding and MAC windows move around, but the
        // first (warm-up) record is the largest so capacity is settled.
        let len = if i == 0 { payload.len() } else { (i * 257) % payload.len() };
        wire.clear();
        tx.seal_into(CT_DATA, &payload[..len], &mut rng, wire);
        let (off, got) = rx.open_in_place(CT_DATA, wire).expect("record must open");
        assert_eq!(got, len, "record {i} length");
        assert!(wire[off..off + got].iter().all(|&b| b == 0x42), "record {i} payload");
    }
}

#[test]
fn seal_open_10k_records_zero_alloc_steady_state() {
    let _serial = serial();
    for suite in CipherSuite::all() {
        let (mut tx, mut rx) = pair(suite);
        let mut wire = Vec::new();
        let payload = vec![0x42u8; 8192];
        // Warm-up: settle thread-local RNG state and scratch capacity.
        pump(&mut tx, &mut rx, &mut wire, &payload, 64);

        let allocs = allocs_during(|| pump(&mut tx, &mut rx, &mut wire, &payload, 10_000));
        assert_eq!(
            allocs,
            0,
            "{suite:?}: heap allocations on the steady-state record path"
        );
    }
}

/// The sharded proxy core interleaves many GTLS sessions on one event
/// loop thread, so the record layer must stay allocation-free even when
/// the thread hops between connections record-by-record — each session's
/// HalfConns keep their own scratch, and switching sessions must never
/// force a re-grow. Eight sessions (cycling through every suite) are
/// pumped round-robin: after a warm-up lap the steady state is zero
/// allocations, same as the single-session contract.
#[test]
fn interleaved_sessions_zero_alloc_steady_state() {
    let _serial = serial();
    const SESSIONS: usize = 8;
    let suites = CipherSuite::all();
    let mut conns: Vec<(HalfConn, HalfConn)> =
        (0..SESSIONS).map(|i| pair(suites[i % suites.len()])).collect();
    let mut wires: Vec<Vec<u8>> = (0..SESSIONS).map(|_| Vec::new()).collect();
    let payload = vec![0x42u8; 8192];
    let mut rng = rand::thread_rng();

    let mut lap = |conns: &mut [(HalfConn, HalfConn)], wires: &mut [Vec<u8>], rounds: usize| {
        for r in 0..rounds {
            for (s, ((tx, rx), wire)) in conns.iter_mut().zip(wires.iter_mut()).enumerate() {
                // Vary length per (session, round) so every session's
                // padding and MAC windows move independently; round 0
                // sends the largest record to settle capacity.
                let len = if r == 0 { payload.len() } else { ((r * 257 + s * 131) % payload.len()).max(1) };
                wire.clear();
                tx.seal_into(CT_DATA, &payload[..len], &mut rng, wire);
                let (off, got) = rx.open_in_place(CT_DATA, wire).expect("record must open");
                assert_eq!(got, len, "session {s} round {r} length");
                assert!(wire[off..off + got].iter().all(|&b| b == 0x42));
            }
        }
    };

    // Warm-up: every session reaches its high-water scratch capacity
    // with interleaving already happening.
    lap(&mut conns, &mut wires, 8);

    assert_eq!(
        allocs_during(|| lap(&mut conns, &mut wires, 500)),
        0,
        "interleaving {SESSIONS} sessions on one thread must stay allocation-free"
    );
}

/// Scratch reuse must survive a mid-stream rekey: fresh HalfConns (new key
/// material, reset sequence numbers) continue into the same buffers.
#[test]
fn scratch_survives_renegotiation_mid_stream() {
    let _serial = serial();
    let suite = CipherSuite::Aes256CbcSha1;
    let (mut tx, mut rx) = pair(suite);
    let mut wire = Vec::new();
    let payload = vec![0x42u8; 4096];
    pump(&mut tx, &mut rx, &mut wire, &payload, 5_000);

    // Rekey: replace both directions, as GtlsStream::renegotiate does.
    let key = vec![0x33u8; suite.key_len()];
    let mac = vec![0xccu8; suite.mac_key_len()];
    tx = HalfConn::new(suite, &key, &mac, &[]);
    rx = HalfConn::new(suite, &key, &mac, &[]);
    // One warm record under the new keys, then steady state.
    pump(&mut tx, &mut rx, &mut wire, &payload, 1);

    let allocs = allocs_during(|| pump(&mut tx, &mut rx, &mut wire, &payload, 5_000));
    assert_eq!(allocs, 0, "post-rekey steady state must stay allocation-free");
}

/// A record sealed under the old keys must not open under the new ones.
#[test]
fn rekey_invalidates_old_records() {
    let _serial = serial();
    let suite = CipherSuite::Aes128CbcSha1;
    let (mut tx, _) = pair(suite);
    let mut rng = rand::thread_rng();
    let mut wire = Vec::new();
    tx.seal_into(CT_DATA, b"old-key record", &mut rng, &mut wire);

    let mut rx = HalfConn::new(suite, &[9u8; 16], &[9u8; 20], &[]);
    assert!(rx.open_in_place(CT_DATA, &mut wire).is_err());
}
