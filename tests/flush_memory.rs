//! Live heap while written bytes move: no stage of the write path holds a
//! second whole copy of the data it moves.
//!
//! A counting global allocator tracks the process's live heap bytes and
//! their high-water mark. A reallocation is counted as the moving one it
//! may be — the new block is live before the old one is freed — so a
//! buffer grown by doubling shows the copy it makes. Each case reads how
//! far one operation raises the mark above the live bytes it started
//! from:
//!
//! * a mount's `fsync` of 256 dirty 32 KiB pages stays under 4 blocks: it
//!   sends each page from the page cache, where cloning the flush set
//!   first raised it by the whole 8 MiB;
//! * `Session::finish` writing 256 dirty blocks back from the client
//!   proxy's disk cache stays within (window + 2) × 2 blocks: a member is
//!   fed its next block as a reply settles, where encoding the whole plan
//!   before submitting any of it held every record twice (16 MiB);
//! * an 8 MiB file appended through `Vfs::write` in 32 KiB calls peaks at
//!   its size plus 2 extents, where a file grown by doubling peaked at
//!   12 MiB, its old and new buffers live at once.
//!
//! The cases share the counters, so they run one at a time.

use sgfs::config::SecurityLevel;
use sgfs::proxy::pipeline::DEFAULT_WINDOW;
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind, FILE_UID};
use sgfs_nfs3::Nfs3Client;
use sgfs_nfsclient::{MountOptions, NfsMount, OpenFlags};
use sgfs_nfsd::{ExportEntry, Exports, NfsServer};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::{LoopbackStream, OpaqueAuth};
use sgfs_vfs::{SetAttrs, UserContext, Vfs, ROOT_INO};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct LiveAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn raise(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::SeqCst) + bytes as i64;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn lower(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        raise(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        lower(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        raise(new_size);
        lower(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: LiveAlloc = LiveAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// How far `f` raises the live heap's high-water mark above the live
/// bytes it starts from.
fn rise_of<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let r = f();
    (PEAK.load(Ordering::SeqCst) - base, r)
}

const BLOCK: usize = 32 * 1024;
const BLOCKS: usize = 256;
/// `sgfs-vfs`'s extent size.
const EXTENT: i64 = 64 * 1024;

fn block(i: usize) -> Vec<u8> {
    (0..BLOCK).map(|j| (i * 31 + j % 251) as u8).collect()
}

#[test]
fn an_fsync_sends_each_dirty_page_from_the_cache() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let vfs = Arc::new(Vfs::new());
    vfs.mkdir_p("/GFS", 0o777, &UserContext::root()).unwrap();
    let mut exports = Exports::new();
    exports.add(ExportEntry::localhost("/GFS"));
    let server = NfsServer::new(vfs, exports);
    let root = server.mount("/GFS", "localhost").unwrap();
    let mut nfs = Nfs3Client::new(Box::new(LoopbackStream::new(server.clone())));
    nfs.set_cred(OpaqueAuth::sys(&AuthSysParams::new("c", 1000, 1000)));
    let opts = MountOptions::new(sgfs_net::SimClock::new()).with_mem_cache(2 * BLOCKS * BLOCK);
    let mut mount = NfsMount::new(nfs, root, opts);

    // Laid out first, so the flush overwrites: the server's file does not
    // grow under the measurement.
    let fd = mount.open("/f.dat", OpenFlags::create_truncate(), 0o644).unwrap();
    for _ in 0..BLOCKS {
        mount.write(fd, &[0; BLOCK]).unwrap();
    }
    mount.close(fd).unwrap();
    let fd = mount.open("/f.dat", OpenFlags::rdwr(), 0).unwrap();
    for i in 0..BLOCKS {
        mount.write(fd, &block(i)).unwrap();
    }
    let writes = mount.stats().write;
    let (rise, flushed) = rise_of(|| mount.fsync(fd));
    flushed.unwrap();
    assert_eq!(mount.stats().write - writes, BLOCKS as u64, "one WRITE per dirty page");
    mount.close(fd).unwrap();
    assert_eq!(mount.read_file("/f.dat").unwrap()[BLOCK..2 * BLOCK], block(1));

    eprintln!("fsync of {BLOCKS} dirty pages raised the live heap by {rise} B");
    assert!(rise < 4 * BLOCK as i64, "fsync raised the live heap by {rise} B");
}

#[test]
fn a_session_writes_back_a_window_of_blocks_at_a_time() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let world = GridWorld::new();
    let mut params = SessionParams::wan(
        SetupKind::Sgfs(SecurityLevel::AeadCipher),
        Duration::from_millis(40),
    );
    // A mount cache of four pages: the unmount inside `finish` frees
    // next to nothing that could hide what the write-back holds.
    params.mem_cache_bytes = 4 * BLOCK;
    let mut session = Session::build(&world, &params).expect("WAN session");

    // Laid out at the server first, so the write-back overwrites.
    let vfs = session.server().vfs().clone();
    let root = UserContext::root();
    let export = vfs.resolve("/GFS", &root).unwrap();
    let file = vfs.create(export.ino, "wb.dat", 0o644, false, &root).unwrap();
    vfs.write(file.ino, 0, &vec![0; BLOCKS * BLOCK], &root).unwrap();
    let chown = SetAttrs { uid: Some(FILE_UID), gid: Some(FILE_UID), ..Default::default() };
    vfs.setattr(file.ino, &chown, &root).unwrap();

    // One window of blocks written back first, through a truncation
    // (the proxy flushes a file before it resizes it), grows the path's
    // buffers — GTLS records, the shard's and the server proxy's — to a
    // block once and for all.
    let mount = &mut session.mount;
    let fd = mount.open("/warm.dat", OpenFlags::create_truncate(), 0o644).unwrap();
    for i in 0..DEFAULT_WINDOW as usize {
        mount.write(fd, &block(i)).unwrap();
    }
    mount.close(fd).unwrap();
    mount.truncate("/warm.dat", 0).unwrap();

    // Close commits into the proxy's disk cache: all 256 blocks stay
    // dirty there until the session ends.
    let fd = mount.open("/wb.dat", OpenFlags::rdwr(), 0).unwrap();
    for i in 0..BLOCKS {
        mount.write(fd, &block(i)).unwrap();
    }
    mount.close(fd).unwrap();

    let (rise, report) = rise_of(|| session.finish());
    assert_eq!(report.expect("finish").writeback_bytes, (BLOCKS * BLOCK) as u64);
    let (data, _) = vfs.read(file.ino, BLOCK as u64, BLOCK as u32, &root).unwrap();
    assert_eq!(data, block(1), "the write-back landed");

    let budget = (DEFAULT_WINDOW as i64 + 2) * 2 * BLOCK as i64;
    eprintln!("write-back of {BLOCKS} blocks raised the live heap by {rise} B, budget {budget} B");
    assert!(rise <= budget, "write-back raised the live heap by {rise} B, budget {budget} B");
}

#[test]
fn a_growing_file_holds_its_size_plus_two_extents() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let vfs = Vfs::new();
    let root = UserContext::root();
    let file = vfs.create(ROOT_INO, "grow.dat", 0o644, false, &root).unwrap();
    let data = block(7);
    let (rise, ()) = rise_of(|| {
        for i in 0..BLOCKS {
            vfs.write(file.ino, (i * BLOCK) as u64, &data, &root).unwrap();
        }
    });
    assert_eq!(vfs.getattr(file.ino).unwrap().size, (BLOCKS * BLOCK) as u64);

    let budget = (BLOCKS * BLOCK) as i64 + 2 * EXTENT;
    eprintln!("an 8 MiB file grown in 32 KiB writes peaked at {rise} B, budget {budget} B");
    assert!(rise <= budget, "growing the file peaked at {rise} B, budget {budget} B");
}
