//! Kill-point crash matrix for the journaled write-back cache.
//!
//! Each case arms one [`CrashPoint`] in the durability protocol, drives a
//! write-back workload through a real `ClientProxy` over a mock NFS
//! server, lets the kill fire (freezing the spool directory exactly as a
//! dead process would leave it), then "restarts": a fresh proxy recovers
//! the journal from the same directory, the driver re-sends the writes
//! the dead proxy never acknowledged, and one flush must leave the server
//! byte-identical to a crash-free run of the same script.
//!
//! The invariant checked at every kill point × schedule:
//!
//! > Every **acknowledged** unstable write either already reached the
//! > server or survives the restart as a **dirty** block (never clean) —
//! > and a torn or corrupted journal tail is detected and discarded,
//! > never replayed and never fatal.
//!
//! The namespace log gets the same treatment against a real `sgfs-nfsd`:
//! every acknowledged logged name either reached the server or survives
//! the restart still logged, and ships before its blocks.

use sgfs::config::{CacheMode, DurabilityPolicy, RetryPolicy, SecurityLevel, SessionConfig};
use sgfs::proxy::blockstore::{BlockKey, BlockStore, DiskStore};
use sgfs::proxy::client::{ClientProxy, SharedClientProxy, Upstream};
use sgfs::proxy::journal::{Journal, NameRecord, JOURNAL_FILE};
use sgfs_net::crash::is_crash;
use sgfs_net::{pipe_pair, CrashInjector, CrashPoint, PipeEnd, ALL_CRASH_POINTS};
use sgfs_nfs3::proc::{
    procnum, CommitRes, CreateArgs, CreateMode, CreateRes, GetAttrRes, MkdirArgs, WriteArgs,
    WriteRes,
};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_obs::{Counter, Emitter, Hop};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{CallHeader, LoopbackStream, OpaqueAuth, ReplyHeader};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BLOCK: usize = 512;

/// What the mock server durably holds: block content per (file, offset).
/// The server's write verifier never changes, so every WRITE it has
/// replied to counts as stable — the strictest reading of "reached the
/// server".
type ServerState = Arc<Mutex<BTreeMap<BlockKey, Vec<u8>>>>;

fn fh1() -> Fh3 {
    Fh3::from_ino(1, 42)
}

fn fh2() -> Fh3 {
    Fh3::from_ino(1, 43)
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

fn nfs_call(xid: u32, proc: u32, body: impl FnOnce(&mut XdrEncoder)) -> Vec<u8> {
    let header = CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc,
        cred: OpaqueAuth::sys(&AuthSysParams::new("test-host", 1001, 1001)),
        verf: OpaqueAuth::none(),
    };
    let mut enc = XdrEncoder::with_capacity(256);
    header.encode(&mut enc);
    body(&mut enc);
    enc.into_bytes()
}

fn reply_bytes<T: XdrEncode>(xid: u32, res: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(256);
    ReplyHeader::success(xid).encode(&mut enc);
    res.encode(&mut enc);
    enc.into_bytes()
}

/// Mock NFS server applying WRITEs to `state`; verifier fixed at 7.
fn byte_server(mut end: PipeEnd, state: ServerState) {
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
                &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) },
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
                        wcc: WccData { before: None, after: Some(base_attr(0)) },
                        count,
                        committed: StableHow::Unstable,
                        verf: 7,
                    },
                )
            }
            procnum::COMMIT => reply_bytes(
                header.xid,
                &CommitRes {
                    status: NfsStat3::Ok,
                    wcc: WccData { before: None, after: Some(base_attr(0)) },
                    verf: 7,
                },
            ),
            other => panic!("unexpected proc {other}"),
        };
        if write_record(&mut end, &reply).is_err() {
            return;
        }
    });
}

fn durability() -> DurabilityPolicy {
    // Aggressive cadence so every kill point is actually reachable in a
    // short workload: fsync each append, compact early.
    DurabilityPolicy { journal: true, fsync_every: 1, compact_min_records: 4 }
}

fn config_for(dir: PathBuf, crash: Option<Arc<CrashInjector>>) -> SessionConfig {
    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::Disk { dir };
    config.window = 8;
    config.durability = durability();
    config.crash = crash;
    config.retry = RetryPolicy {
        call_deadline: Some(Duration::from_secs(20)),
        ..RetryPolicy::default()
    };
    config
}

fn proxy_to(state: &ServerState, config: &SessionConfig) -> Arc<SharedClientProxy> {
    let (end, srv) = pipe_pair();
    byte_server(srv, state.clone());
    let watch = end.watch();
    ClientProxy::new(Upstream::Plain(Box::new(end)), watch, config)
        .expect("proxy construction")
        .shared()
}

/// One WRITE of the workload script: (file, offset, payload).
type Write3 = (Fh3, u64, Vec<u8>);

/// Feed `writes` through the proxy's downstream interface — the loopback
/// a mount drives it over, which a dying proxy closes. Acknowledged
/// writes land in `acked` (latest content per block — an overwritten
/// block's obligation transfers to the new bytes); once the proxy dies,
/// this and every remaining write goes to `unacked` for the post-restart
/// re-send, exactly as a real client would retry unanswered calls.
/// Returns whether the proxy is still alive.
fn drive_session(
    proxy: &Arc<SharedClientProxy>,
    writes: &[Write3],
    acked: &mut BTreeMap<BlockKey, Vec<u8>>,
    unacked: &mut Vec<Write3>,
) -> bool {
    let mut down = LoopbackStream::over(proxy.clone());
    let mut alive = true;
    let mut xid = 0x300u32;
    let mut it = writes.iter();
    for (fh, offset, data) in it.by_ref() {
        xid += 1;
        let record = nfs_call(xid, procnum::WRITE, |enc| {
            WriteArgs {
                file: fh.clone(),
                offset: *offset,
                stable: StableHow::Unstable,
                data: data.clone(),
            }
            .encode(enc)
        });
        if write_record(&mut down, &record).is_err() {
            alive = false;
            unacked.push((fh.clone(), *offset, data.clone()));
            break;
        }
        match read_record(&mut down) {
            Ok(Some(reply)) => {
                let mut dec = XdrDecoder::new(&reply);
                let _ = ReplyHeader::decode(&mut dec).expect("reply header");
                let res =
                    WriteRes::from_xdr_bytes(&reply[dec.position()..]).expect("write res");
                assert_eq!(res.status, NfsStat3::Ok, "local write-back ack");
                acked.insert((fh.clone(), *offset), data.clone());
            }
            _ => {
                // The proxy died mid-call: the write was never acked.
                alive = false;
                unacked.push((fh.clone(), *offset, data.clone()));
                break;
            }
        }
    }
    for (fh, offset, data) in it {
        unacked.push((fh.clone(), *offset, data.clone()));
    }
    alive
}

struct Script {
    phase1: Vec<Write3>,
    phase2: Vec<Write3>,
}

/// Two write phases with a mid-script flush: phase 1 fills one file and
/// flushes it (COMMIT + journal compaction fire), phase 2 overwrites one
/// committed block and spreads new blocks over two files, and the final
/// flush_all covers both — visiting every kill point enough times for any
/// seeded countdown to land.
fn script() -> Script {
    let block = |tag: u8| vec![tag; BLOCK];
    let phase1 = (0..5u64)
        .map(|i| (fh1(), i * BLOCK as u64, block(0x10 + i as u8)))
        .collect();
    let phase2 = vec![
        (fh1(), 0, block(0xA0)), // overwrite a committed block
        (fh1(), 5 * BLOCK as u64, block(0xA5)),
        (fh1(), 6 * BLOCK as u64, block(0xA6)),
        (fh2(), 0, block(0xB0)),
        (fh2(), BLOCK as u64, block(0xB1)),
    ];
    Script { phase1, phase2 }
}

/// Run the full script. Any error must be the injected crash; on crash
/// every not-yet-submitted write is queued for the restart re-send.
fn execute(
    proxy: &Arc<SharedClientProxy>,
    script: &Script,
    acked: &mut BTreeMap<BlockKey, Vec<u8>>,
    unacked: &mut Vec<Write3>,
) -> bool {
    if !drive_session(proxy, &script.phase1, acked, unacked) {
        unacked.extend(script.phase2.iter().cloned());
        return true;
    }
    if let Err(e) = proxy.lock().flush_file(&fh1()) {
        assert!(is_crash(&e), "only injected crashes expected in flush: {e}");
        unacked.extend(script.phase2.iter().cloned());
        return true;
    }
    if !drive_session(proxy, &script.phase2, acked, unacked) {
        return true;
    }
    match proxy.lock().flush_all() {
        Ok(_) => false,
        Err(e) => {
            assert!(is_crash(&e), "only injected crashes expected in flush_all: {e}");
            true
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sgfs-crash-matrix-{tag}-{}", std::process::id()))
}

/// The crash-free run the matrix compares against.
fn oracle() -> BTreeMap<BlockKey, Vec<u8>> {
    let dir = temp_dir("oracle");
    let _ = std::fs::remove_dir_all(&dir);
    let state: ServerState = Arc::new(Mutex::new(BTreeMap::new()));
    let proxy = proxy_to(&state, &config_for(dir.clone(), None));
    let mut acked = BTreeMap::new();
    let mut unacked = Vec::new();
    let crashed = execute(&proxy, &script(), &mut acked, &mut unacked);
    assert!(!crashed && unacked.is_empty(), "oracle run is crash-free");
    drop(proxy);
    let _ = std::fs::remove_dir_all(&dir);
    let server = state.lock().unwrap().clone();
    assert_eq!(server, acked, "crash-free: the server holds exactly the acked blocks");
    server
}

fn crash_case(
    label: &str,
    inj: Arc<CrashInjector>,
    oracle: &BTreeMap<BlockKey, Vec<u8>>,
) {
    let point = inj.point();
    let dir = temp_dir(label);
    let _ = std::fs::remove_dir_all(&dir);
    let state: ServerState = Arc::new(Mutex::new(BTreeMap::new()));

    // --- Victim run: the kill may fire at any step. -------------------
    let proxy = proxy_to(&state, &config_for(dir.clone(), Some(inj.clone())));
    let mut acked = BTreeMap::new();
    let mut unacked = Vec::new();
    let crashed = execute(&proxy, &script(), &mut acked, &mut unacked);
    assert_eq!(
        crashed,
        inj.tripped(),
        "{label}: a tripped kill at {point:?} must surface as an error, never be swallowed"
    );
    drop(proxy); // abandon the "dead" proxy; the spool dir stays frozen

    // --- Invariant probe: recover the frozen directory directly. ------
    let (mut probe, report) =
        DiskStore::with_durability(dir.clone(), durability(), Emitter::detached("client"), None)
            .expect("recovery never fails on a torn journal");
    for s in &report.survivors {
        assert!(
            probe.meta(&s.key).expect("survivor resident").dirty,
            "{label}: survivor at offset {} recovered clean — a torn block must \
             re-flush, never pose as stable",
            s.key.1
        );
    }
    for (key, data) in &acked {
        let on_server = state.lock().unwrap().get(key) == Some(data);
        let survived = probe.get(key).as_deref() == Some(&data[..]);
        assert!(
            on_server || survived,
            "{label}: acked write at offset {} neither reached the server nor \
             survived restart as a dirty block",
            key.1
        );
    }
    drop(probe);

    // --- Restart: recover, re-send unacked writes, flush once. --------
    let proxy2 = proxy_to(&state, &config_for(dir.clone(), None));
    let recovered_bytes: u64 = report.survivors.iter().map(|s| s.len as u64).sum();
    let stats = proxy2.lock().stats().clone();
    assert_eq!(
        (stats.sum(Hop::RecoveryComplete), stats.get(Counter::RecoveredBytes)),
        (report.survivors.len() as u64, recovered_bytes),
        "{label}: recovery counters"
    );
    assert_eq!(
        proxy2.lock().dirty_bytes(),
        recovered_bytes,
        "{label}: every recovered block is dirty"
    );
    let mut acked2 = BTreeMap::new();
    let mut resend_unacked = Vec::new();
    let alive = drive_session(&proxy2, &unacked, &mut acked2, &mut resend_unacked);
    assert!(alive && resend_unacked.is_empty(), "{label}: re-send is crash-free");
    proxy2.lock().flush_all().unwrap_or_else(|e| panic!("{label}: post-recovery flush: {e}"));
    drop(proxy2);

    let server = state.lock().unwrap().clone();
    assert_eq!(
        &server, oracle,
        "{label}: server state after recovery + one flush diverges from the \
         crash-free run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The matrix: every kill point, firing on its first visit and on three
/// seeded schedules (visit countdown and tear positions drawn from the
/// seed, as in the fault matrix).
#[test]
fn every_kill_point_recovers_to_oracle_state() {
    let oracle = oracle();
    for (p, point) in ALL_CRASH_POINTS.into_iter().enumerate() {
        crash_case(&format!("p{p}-first"), CrashInjector::at(point, 1), &oracle);
        for seed in [1u64, 2, 3] {
            crash_case(
                &format!("p{p}-s{seed}"),
                CrashInjector::seeded(point, seed),
                &oracle,
            );
        }
    }
}

/// A journal whose tail was torn by the host (not our injector): replay
/// stops at the tear, recovery never panics, and the committed block does
/// not come back — in any state.
#[test]
fn torn_tail_is_detected_and_never_resurrects_committed_blocks() {
    let dir = temp_dir("torn-tail");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut store, _) =
            DiskStore::with_durability(dir.clone(), durability(), Emitter::detached("client"), None).unwrap();
        store.put((fh1(), 0), &[1; BLOCK], true).unwrap();
        store.set_clean(&(fh1(), 0)).unwrap();
        store.commit_file(&fh1()).unwrap(); // stable: must not recover
        store.put((fh1(), BLOCK as u64), &[2; BLOCK], true).unwrap();
        store.put((fh2(), 0), &[3; BLOCK], true).unwrap();
    }
    // Tear the journal mid-record, then smear garbage after it.
    let path = dir.join(JOURNAL_FILE);
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"\xde\xad\xbe\xef");
    std::fs::write(&path, &bytes).unwrap();

    let (mut store, report) =
        DiskStore::with_durability(dir.clone(), durability(), Emitter::detached("client"), None).unwrap();
    assert!(report.torn_bytes > 0, "tear detected and measured");
    let keys: Vec<_> = report.survivors.iter().map(|s| s.key.clone()).collect();
    assert_eq!(keys, vec![(fh1(), BLOCK as u64)], "the torn tail record is discarded");
    assert!(
        store.meta(&(fh1(), 0)).is_none(),
        "the committed block is not resurrected"
    );
    assert!(store.meta(&(fh1(), BLOCK as u64)).unwrap().dirty, "survivor is dirty");
    // The truncated journal accepts appends at a record boundary again.
    store.put((fh2(), BLOCK as u64), &[4; BLOCK], true).unwrap();
    drop(store);
    let (_store, report) =
        DiskStore::with_durability(dir.clone(), durability(), Emitter::detached("client"), None).unwrap();
    assert_eq!(report.torn_bytes, 0, "tail repaired by the previous recovery");
    assert_eq!(report.survivors.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption in the middle of the journal (bit rot, not a tear): replay
/// trusts the prefix, discards the rest, and the store stays functional.
#[test]
fn corrupted_record_stops_replay_and_store_stays_usable() {
    let dir = temp_dir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut store, _) =
            DiskStore::with_durability(dir.clone(), durability(), Emitter::detached("client"), None).unwrap();
        store.put((fh1(), 0), &[1; BLOCK], true).unwrap();
        store.put((fh1(), BLOCK as u64), &[2; BLOCK], true).unwrap();
        store.put((fh1(), 2 * BLOCK as u64), &[3; BLOCK], true).unwrap();
    }
    let path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let (mut store, report) =
        DiskStore::with_durability(dir.clone(), durability(), Emitter::detached("client"), None).unwrap();
    assert!(report.torn_bytes > 0);
    assert!(
        report.survivors.len() < 3,
        "records at and after the corruption are discarded"
    );
    for s in &report.survivors {
        assert!(store.meta(&s.key).unwrap().dirty, "prefix survivors recover dirty");
        assert!(store.get(&s.key).is_some(), "spool payload intact");
    }
    store.put((fh2(), 0), &[9; BLOCK], true).unwrap();
    drop(store);
    let (_store, report2) =
        DiskStore::with_durability(dir.clone(), durability(), Emitter::detached("client"), None).unwrap();
    assert_eq!(report2.torn_bytes, 0);
    assert_eq!(report2.survivors.len(), report.survivors.len() + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- The namespace log -----------------------------------------------------

/// One step of the namespace script; paths are below the export root.
#[derive(Clone, Copy)]
enum Step {
    /// GETATTR: a remounted client revalidates its root first, which
    /// also hands the proxy the caller's credential for the write-back.
    Revalidate(&'static str),
    Mkdir(&'static str),
    Create(&'static str),
    /// One block at offset 0, filled with the byte.
    Write(&'static str, u8),
    Remove(&'static str),
    Flush,
}

/// `/d` is made in the export root, which the session did not make, so
/// it goes upstream at once; everything below it is logged — a file with
/// data, a directory with a file with data, and a temporary that is
/// cancelled — and ships at the flush, `f` and `e` on the first
/// dependency level and `g` on the second.
const NAMES: [Step; 10] = [
    Step::Mkdir("d"),
    Step::Create("d/f"),
    Step::Write("d/f", 0xF1),
    Step::Mkdir("d/e"),
    Step::Create("d/e/g"),
    Step::Write("d/e/g", 0xE1),
    Step::Create("d/t"),
    Step::Write("d/t", 0x77),
    Step::Remove("d/t"),
    Step::Flush,
];

/// A real `sgfs-nfsd` exporting `/GFS`, owned by the caller, on its own
/// shard core.
struct NameServer {
    vfs: Arc<sgfs_vfs::Vfs>,
    service: Arc<sgfs_oncrpc::shard::RpcRecordService>,
    shards: Arc<sgfs_oncrpc::ShardServer>,
    root: Fh3,
}

impl NameServer {
    fn new() -> Self {
        let vfs = Arc::new(sgfs_vfs::Vfs::new());
        let root_ctx = sgfs_vfs::UserContext::root();
        let top = vfs.mkdir_p("/GFS", 0o755, &root_ctx).unwrap();
        let own = sgfs_vfs::SetAttrs { uid: Some(1001), gid: Some(1001), ..Default::default() };
        vfs.setattr(top.ino, &own, &root_ctx).unwrap();
        let mut exports = sgfs_nfsd::Exports::new();
        exports.add(sgfs_nfsd::ExportEntry::localhost("/GFS"));
        let server = sgfs_nfsd::NfsServer::new_no_squash(vfs.clone(), exports);
        let service = Arc::new(sgfs_oncrpc::shard::RpcRecordService(server));
        let shards = sgfs_oncrpc::ShardServer::new(1);
        Self { vfs, service, shards, root: Fh3::from_ino(1, top.ino) }
    }

    /// A client proxy on a fresh connection, recovering `config`'s spool.
    fn proxy(&self, config: &SessionConfig) -> ClientProxy {
        let (end, srv) = pipe_pair();
        let watch = srv.watch();
        self.shards.add_session(Box::new(srv), watch, self.service.clone()).unwrap();
        let watch = end.watch();
        ClientProxy::new(Upstream::Plain(Box::new(end)), watch, config).expect("proxy")
    }

    /// Every node below the export: path, kind, mode and content.
    fn tree(&self) -> Vec<(String, sgfs_vfs::FileKind, u32, Vec<u8>)> {
        let ctx = sgfs_vfs::UserContext::root();
        let mut out = Vec::new();
        let mut stack = vec![(String::new(), self.vfs.resolve("/GFS", &ctx).unwrap().ino)];
        while let Some((path, ino)) = stack.pop() {
            let a = self.vfs.getattr(ino).unwrap();
            if a.kind == sgfs_vfs::FileKind::Directory {
                for e in self.vfs.readdir(ino, &ctx).unwrap() {
                    if e.name != "." && e.name != ".." {
                        stack.push((format!("{path}/{}", e.name), e.ino));
                    }
                }
                out.push((path, a.kind, a.mode, Vec::new()));
            } else {
                let data = self.vfs.read(ino, 0, a.size as u32, &ctx).unwrap().0;
                out.push((path, a.kind, a.mode, data));
            }
        }
        out.sort_by(|x, y| x.0.cmp(&y.0));
        out
    }
}

/// Run `steps` through `proxy` as a mount would, learning each handle
/// from the reply that made it (`handles` maps paths; "" is the root).
/// Any error must be the injected crash.
fn run_names(
    proxy: &mut ClientProxy,
    steps: &[Step],
    handles: &mut BTreeMap<String, Fh3>,
) -> Result<(), std::io::Error> {
    let at = |handles: &BTreeMap<String, Fh3>, path: &str| {
        let (dir, name) = path.rsplit_once('/').unwrap_or(("", path));
        DirOpArgs3 { dir: handles[dir].clone(), name: name.into() }
    };
    for (xid, step) in (0x500u32..).zip(steps) {
        let record = match *step {
            Step::Revalidate(path) => {
                nfs_call(xid, procnum::GETATTR, |enc| handles[path].encode(enc))
            }
            Step::Mkdir(path) => nfs_call(xid, procnum::MKDIR, |enc| {
                let attributes = Sattr3 { mode: Some(0o755), ..Default::default() };
                MkdirArgs { where_: at(handles, path), attributes }.encode(enc)
            }),
            Step::Create(path) => nfs_call(xid, procnum::CREATE, |enc| {
                let how = CreateMode::Unchecked(Sattr3 { mode: Some(0o644), ..Default::default() });
                CreateArgs { where_: at(handles, path), how }.encode(enc)
            }),
            Step::Write(path, byte) => nfs_call(xid, procnum::WRITE, |enc| {
                let (file, data) = (handles[path].clone(), vec![byte; BLOCK]);
                WriteArgs { file, offset: 0, stable: StableHow::Unstable, data }.encode(enc)
            }),
            Step::Remove(path) => {
                nfs_call(xid, procnum::REMOVE, |enc| at(handles, path).encode(enc))
            }
            Step::Flush => {
                proxy.flush_all()?;
                continue;
            }
        };
        let reply = proxy.process_one(&record)?;
        let mut dec = XdrDecoder::new(&reply);
        ReplyHeader::decode(&mut dec).expect("reply header");
        let body = &reply[dec.position()..];
        assert_eq!(NfsStat3::from_xdr_bytes(&body[..4]).unwrap(), NfsStat3::Ok, "step {xid:#x}");
        if let Step::Mkdir(path) | Step::Create(path) = *step {
            let made = CreateRes::from_xdr_bytes(body).unwrap();
            handles.insert(path.into(), made.obj.expect("a handle"));
        }
    }
    Ok(())
}

/// The namespace log under a kill: after a logged CREATE and its WRITE,
/// after a logged MKDIR with a CREATE beneath it, in the middle of the
/// ship between its second and third dependency levels, and after the
/// second level's replies, before the journal heard which names the
/// server made — the
/// revived proxy's ship then meets EXIST for its own earlier calls and
/// must take those names as its own. In each case a fresh proxy recovers
/// the spool, the script carries on with the handles it was given, and
/// one flush leaves the server's tree as the crash-free run leaves it.
#[test]
fn a_killed_namespace_log_recovers_to_the_crash_free_tree() {
    let script = |dir: &PathBuf, crash| config_for(dir.clone(), crash);
    let oracle = {
        let dir = temp_dir("names-oracle");
        let _ = std::fs::remove_dir_all(&dir);
        let server = NameServer::new();
        let mut handles = BTreeMap::from([(String::new(), server.root.clone())]);
        let mut proxy = server.proxy(&script(&dir, None));
        run_names(&mut proxy, &NAMES, &mut handles).expect("crash-free");
        let upstream = proxy.forwarded_by_proc();
        assert_eq!(
            (upstream[procnum::MKDIR as usize], upstream[procnum::CREATE as usize]),
            (2, 2),
            "/d (the listed root's), /d/f, /d/e and /d/e/g at the flush; /d/t never"
        );
        assert_eq!(upstream[procnum::REMOVE as usize], 0);
        let _ = std::fs::remove_dir_all(&dir);
        server.tree()
    };
    assert_eq!(oracle.len(), 5, "{oracle:?}");

    // The ship's levels are /d, then /d/f and /d/e, then /d/e/g.
    let kill = |point| Some(CrashInjector::at(point, 2));
    let kills: [(&str, usize, Option<Arc<CrashInjector>>); 4] = [
        ("after-create-write", 3, None),
        ("after-mkdir-create", 5, None),
        ("mid-ship", NAMES.len(), kill(CrashPoint::ShipBetweenLevels)),
        ("after-ship-reply", NAMES.len(), kill(CrashPoint::ShipAfterReply)),
    ];
    for (label, kill_at, inj) in kills {
        let dir = temp_dir(&format!("names-{label}"));
        let _ = std::fs::remove_dir_all(&dir);
        let server = NameServer::new();
        let mut handles = BTreeMap::from([(String::new(), server.root.clone())]);
        let mut victim = server.proxy(&script(&dir, inj.clone()));
        match run_names(&mut victim, &NAMES[..kill_at], &mut handles) {
            Ok(()) => assert!(inj.is_none(), "{label}: the armed kill never fired"),
            Err(e) => assert!(is_crash(&e), "{label}: {e}"),
        }
        if inj.is_some() {
            // The second level reached the server; the third did not.
            let ctx = sgfs_vfs::UserContext::root();
            assert!(server.vfs.resolve("/GFS/d/e", &ctx).is_ok(), "{label}");
            assert!(server.vfs.resolve("/GFS/d/e/g", &ctx).is_err(), "{label}");
        }
        drop(victim); // killed: the spool directory stays as it was

        let mut revived = server.proxy(&script(&dir, None));
        let rest = if inj.is_some() { &NAMES[NAMES.len() - 1..] } else { &NAMES[kill_at..] };
        let rest = [&[Step::Revalidate("")][..], rest].concat();
        run_names(&mut revived, &rest, &mut handles)
            .unwrap_or_else(|e| panic!("{label}: after recovery: {e}"));
        assert_eq!(server.tree(), oracle, "{label}");
        assert_eq!(revived.dirty_bytes(), 0, "{label}");
        drop(revived);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A shipped name whose last link the server removed leaves the
/// journal's namespace log: recovery maps only the names the server
/// still has.
#[test]
fn a_removed_shipped_name_leaves_the_journal() {
    let dir = temp_dir("names-removed");
    let _ = std::fs::remove_dir_all(&dir);
    let server = NameServer::new();
    let mut handles = BTreeMap::from([(String::new(), server.root.clone())]);
    let mut proxy = server.proxy(&config_for(dir.clone(), None));
    let steps = [&NAMES[..], &[Step::Remove("d/f"), Step::Remove("d/e/g")]].concat();
    run_names(&mut proxy, &steps, &mut handles).expect("crash-free");
    drop(proxy);
    let mapped: Vec<Fh3> = Journal::recover(&dir)
        .names
        .into_iter()
        .map(|rec| match rec {
            NameRecord::Shipped { fh, .. } => fh,
            other => panic!("{other:?} after a flush"),
        })
        .collect();
    assert_eq!(mapped, vec![handles["d"].clone(), handles["d/e"].clone()]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A name another client took is refused, and the refusal is journaled:
/// a proxy revived from the spool fails the flush again instead of
/// taking the other client's file as its own earlier call's doing.
#[test]
fn a_refused_name_stays_refused_after_a_restart() {
    let dir = temp_dir("names-refused");
    let _ = std::fs::remove_dir_all(&dir);
    let server = NameServer::new();
    let mut handles = BTreeMap::from([(String::new(), server.root.clone())]);
    let mut proxy = server.proxy(&config_for(dir.clone(), None));
    run_names(&mut proxy, &NAMES[..3], &mut handles).expect("crash-free");
    // Another client makes /d, and /d/f in it, first.
    let ctx = sgfs_vfs::UserContext::root();
    let root = server.vfs.resolve("/GFS", &ctx).unwrap().ino;
    let d = server.vfs.mkdir(root, "d", 0o755, &ctx).unwrap().ino;
    let theirs = server.vfs.create(d, "f", 0o600, true, &ctx).unwrap().ino;
    server.vfs.write(theirs, 0, b"theirs", &ctx).unwrap();
    for attempt in ["first", "after a restart"] {
        let err = proxy.flush_all().expect_err(attempt).to_string();
        assert!(err.contains("Exist"), "{attempt}: {err}");
        drop(proxy);
        proxy = server.proxy(&config_for(dir.clone(), None));
        run_names(&mut proxy, &[Step::Revalidate("")], &mut handles).unwrap();
    }
    assert_eq!(server.vfs.read(theirs, 0, 64, &ctx).unwrap().0, b"theirs");
    let _ = std::fs::remove_dir_all(&dir);
}
