//! Heap traffic of the whole bulk data path at steady state.
//!
//! A counting global allocator watches the process — the caller, both
//! proxies, the GTLS channel, the shard worker and `nfsd` — while a LAN
//! `sgfs-gcm` session (no emulated latency, no hop charge) moves 32 KiB
//! blocks through an `NfsMount` whose page cache holds four of them, so
//! every READ misses and every WRITE evicts one dirty page upstream.
//!
//! Per 32 KiB call, over this same test at the parent of the change that
//! took the path to one copy per hop: READ 364 531 B, WRITE 299 807 B
//! (eleven and nine block-sized buffers). After it: READ 166 606 B — the
//! caller's returned `Vec`, the decoded READ result, the emulated pipe's
//! message, `nfsd`'s reply and the pipeline's reply-buffer regrowth — and
//! WRITE 101 595 B: the page, the pipeline's copy of the call and the
//! pipe's message. The budget is half of the parent's figure, so one
//! reintroduced `clone()` or staging buffer of a block trips it.

use sgfs::config::{HopCost, SecurityLevel};
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind};
use sgfs_nfsclient::OpenFlags;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

const BLOCK: usize = 32 * 1024;
const WARM: usize = 16;
const MEASURED: usize = 64;
/// Half of the parent's figures (see the module docs).
const READ_BUDGET: u64 = 364_531 / 2;
const WRITE_BUDGET: u64 = 299_807 / 2;

fn block(i: usize) -> Vec<u8> {
    (0..BLOCK).map(|j| (i * 31 + j % 251) as u8).collect()
}

/// Bytes allocated per call of `f(i)` for `i` in `MEASURED` calls after
/// `WARM` unmeasured ones.
fn per_call(mut f: impl FnMut(usize)) -> u64 {
    (0..WARM).for_each(&mut f);
    let before = alloc_bytes();
    (WARM..WARM + MEASURED).for_each(&mut f);
    (alloc_bytes() - before) / MEASURED as u64
}

#[test]
fn a_bulk_read_or_write_allocates_at_most_half_what_it_used_to() {
    let world = GridWorld::new();
    let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::AeadCipher));
    params.rtt = Duration::ZERO;
    params.hop_cost = HopCost::free();
    params.mem_cache_bytes = 4 * BLOCK;
    let mut session = Session::build(&world, &params).expect("LAN session");
    let blocks: Vec<Vec<u8>> = (0..WARM + MEASURED).map(block).collect();
    let mount = &mut session.mount;

    // The file is laid out first, so the measured WRITEs overwrite it:
    // growing the server's in-memory file is no part of the path.
    let fd = mount.open("/bulk.dat", OpenFlags::create_truncate(), 0o644).expect("create");
    for b in &blocks {
        mount.write(fd, &vec![0; b.len()]).expect("lay out");
    }
    mount.close(fd).expect("close flushes");
    let fd = mount.open("/bulk.dat", OpenFlags::rdwr(), 0).expect("reopen");
    let write = per_call(|i| assert_eq!(mount.write(fd, &blocks[i]).expect("write"), BLOCK));
    mount.close(fd).expect("close flushes the rest");

    let fd = mount.open("/bulk.dat", OpenFlags::rdonly(), 0).expect("open");
    let read = per_call(|i| assert!(mount.read(fd, BLOCK).expect("read") == blocks[i], "block {i}"));
    mount.close(fd).expect("close");
    session.finish().expect("teardown");

    eprintln!("per 32 KiB call: READ {read} B, WRITE {write} B");
    assert!(read <= READ_BUDGET, "READ allocates {read} B per call, budget {READ_BUDGET} B");
    assert!(write <= WRITE_BUDGET, "WRITE allocates {write} B per call, budget {WRITE_BUDGET} B");
}
