//! The client proxy's namespace cache against a serial oracle.
//!
//! One client proxy (memory cache, width 1) fronts a real `sgfs-nfsd`
//! over a shard; an oracle `NfsServer` on its own `Vfs` executes the same
//! calls serially. The proxy makes names in directories the session made
//! under handles it mints, and ships them later, so its handles and
//! fileids are not the oracle's: the harness keeps a bijection between
//! the two, learned from the replies that carry handles (CREATE, MKDIR,
//! LOOKUP, READDIRPLUS), sends each call with the proxy's handles, and
//! checks every handle and fileid a reply carries through it — a
//! mutation's post-operation attributes included. Every
//! GETATTR, LOOKUP and ACCESS reply the proxy hands back — answered from
//! its cache or forwarded — must equal the oracle's in everything but
//! times and a directory's size (the server's to choose: the proxy moves
//! a directory's attributes on without knowing it), every READDIR(PLUS)
//! must list the same names, every other reply must carry the same
//! status, and whenever the proxy has written back — a flush
//! mid-sequence, and at the end — the two exported trees must be
//! byte-identical.
//!
//! WRITEs are whole aligned blocks, as the kernel client sends them: the
//! block store keys an absorbed extent by its offset. Modes always leave
//! the owner (the caller) read and write permission on files and search
//! permission on directories: an absorbed WRITE and a cached LOOKUP are
//! not permission-checked until the server sees them.

use proptest::prelude::*;
use sgfs::config::{CacheMode, SecurityLevel, SessionConfig};
use sgfs::proxy::client::{ClientProxy, Upstream};
use sgfs_net::pipe_pair;
use sgfs_nfs3::proc::*;
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_nfsd::{ExportEntry, Exports, NfsServer};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::server::{process_record, RpcService};
use sgfs_oncrpc::shard::RpcRecordService;
use sgfs_oncrpc::{CallHeader, OpaqueAuth, ReplyHeader, ShardServer};
use sgfs_vfs::{FileKind, UserContext, Vfs};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

/// The caller, who owns the export.
const UID: u32 = 1000;
/// The directories calls name, each there while a directory holds that
/// path; the third is the second's child, so a RENAME can give a listed
/// directory another parent.
const DIRS: [&str; 3] = ["/GFS", "/GFS/d1", "/GFS/d1/d2"];
/// The last two are looked up only by the deterministic cases: the
/// generator picks among the first four.
const NAMES: [&str; 6] = ["a", "b", "d1", "d2", ".", ".."];
const BLOCK: u64 = 4096;
/// Files in the listing case's directory that no listing fits: the
/// budget is four READDIRPLUS batches of about 160 `sgfs-nfsd` entries.
const CROWD: usize = 700;

/// One generated call; a `(dir, name)` pair indexes [`DIRS`] × [`NAMES`].
#[derive(Debug, Clone, Copy)]
enum Op {
    /// GUARDED when the flag is set, UNCHECKED otherwise.
    Create(usize, usize, bool),
    Mkdir(usize, usize),
    /// The block of that index, filled with that byte.
    Write(usize, usize, u64, u8),
    SetSize(usize, usize, u64),
    SetMode(usize, usize, usize),
    GetAttr(usize, usize),
    /// A handle seen earlier in the run, which may have gone stale.
    GetAttrSeen(usize),
    Lookup(usize, usize),
    Access(usize, usize, u32),
    Readdir(usize, bool),
    Remove(usize, usize),
    Rmdir(usize, usize),
    Rename(usize, usize, usize, usize),
    Link(usize, usize, usize, usize),
    /// Write everything back, names included.
    Flush,
    /// A second writer makes an empty file of that name directly on the
    /// server's `Vfs` (and the oracle's), between two calls.
    Foreign(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..17, any::<u64>()).prop_map(|(kind, r)| {
        let pick = |shift: u32, n: u64| ((r >> shift) % n) as usize;
        // Half the calls land in the root, where most names live.
        let dir = |shift: u32| [0, 0, 1, 2][pick(shift, 4)];
        let (d, n, d2, n2) = (dir(0), pick(8, 4), dir(16), pick(24, 4));
        match kind {
            0 | 1 => Op::Create(d, n, r >> 32 & 1 == 1),
            2 => Op::Mkdir(d, n),
            3 | 4 => Op::Write(d, n, pick(32, 4) as u64, (r >> 40) as u8),
            5 => Op::SetSize(d, n, [0, 100, 5000, 20_000][pick(32, 4)]),
            6 => Op::SetMode(d, n, pick(32, 4)),
            7 => Op::GetAttr(d, n),
            8 => Op::GetAttrSeen(pick(32, 64)),
            9 => Op::Lookup(d, n),
            10 => Op::Access(d, n, [0x01, 0x20, 0x3f][pick(32, 3)]),
            11 => Op::Readdir(d, r >> 32 & 1 == 1),
            12 => Op::Remove(d, n),
            13 => Op::Rmdir(d, n),
            14 => Op::Rename(d, n, d2, n2),
            15 => Op::Link(d, n, d2, n2),
            _ => Op::Flush,
        }
    })
}

fn export() -> (Arc<NfsServer>, Arc<Vfs>) {
    let vfs = Arc::new(Vfs::new());
    let root = UserContext::root();
    let top = vfs.mkdir_p("/GFS", 0o755, &root).unwrap();
    let own = sgfs_vfs::SetAttrs { uid: Some(UID), gid: Some(UID), ..Default::default() };
    vfs.setattr(top.ino, &own, &root).unwrap();
    let mut exports = Exports::new();
    exports.add(ExportEntry::localhost("/GFS"));
    (NfsServer::new_no_squash(vfs.clone(), exports), vfs)
}

/// One side of a bijection, each value paired with at most one of the
/// other side's.
struct Bijection<T> {
    ours: HashMap<T, T>,
    theirs: HashMap<T, T>,
}

impl<T: Clone + Eq + Hash + std::fmt::Debug> Bijection<T> {
    fn new() -> Self {
        Self { ours: HashMap::new(), theirs: HashMap::new() }
    }

    /// Pair the proxy's `ours` with the oracle's `theirs`, or check they
    /// are already paired with each other.
    fn pair(&mut self, ours: &T, theirs: &T, what: &str) {
        let known = (self.ours.get(ours), self.theirs.get(theirs));
        match known {
            (None, None) => {
                self.ours.insert(ours.clone(), theirs.clone());
                self.theirs.insert(theirs.clone(), ours.clone());
            }
            (Some(t), Some(o)) if t == theirs && o == ours => {}
            _ => {
                panic!("{what}: proxy {ours:?} and oracle {theirs:?} break the bijection {known:?}")
            }
        }
    }

    fn ours(&self, theirs: &T) -> T {
        self.theirs.get(theirs).unwrap_or_else(|| panic!("no proxy twin of {theirs:?}")).clone()
    }
}

/// The proxy in front of its upstream server, and the oracle.
struct Rig {
    proxy: ClientProxy,
    upstream: Arc<Vfs>,
    oracle: Arc<NfsServer>,
    xid: u32,
    /// Oracle handles seen earlier in the run.
    seen: Vec<Fh3>,
    handles: Bijection<Fh3>,
    fileids: Bijection<u64>,
    /// Files a second writer made, as `(dir, name)` indices, that the
    /// proxy may not have seen: it may answer as if they were absent.
    unseen: HashSet<(usize, usize)>,
    /// Every file a second writer made, as `(dir, name)` indices: a
    /// listing the proxy cached before may lack it, as long as the session
    /// lasts.
    foreign: HashSet<(usize, usize)>,
    /// Whether the tree was there before the proxy (see [`Rig::listed`]):
    /// a file is then called by name first, as a mount would, and one the
    /// proxy never named (a second writer's it answers as absent) has no
    /// twin to call it by.
    listed: bool,
    /// The path of a name the proxy logged that a second writer took on
    /// the server: the flush must fail with EXIST naming it.
    conflict: Option<String>,
    _shards: Arc<ShardServer>,
}

impl Rig {
    fn new() -> Self {
        let (server, upstream) = export();
        let shards = ShardServer::new(1);
        let (client_end, server_end) = pipe_pair();
        let watch = server_end.watch();
        let service = Arc::new(RpcRecordService(server as Arc<dyn RpcService>));
        shards.add_session(Box::new(server_end), watch, service).unwrap();
        let mut config = SessionConfig::new(SecurityLevel::None);
        config.cache = CacheMode::MemoryMeta;
        let watch = client_end.watch();
        let upstream_end = Upstream::Plain(Box::new(client_end));
        let proxy = ClientProxy::new(upstream_end, watch, &config).unwrap();
        let oracle = export().0;
        let mut rig = Rig {
            proxy,
            upstream,
            oracle,
            xid: 1,
            seen: Vec::new(),
            handles: Bijection::new(),
            fileids: Bijection::new(),
            unseen: HashSet::new(),
            foreign: HashSet::new(),
            listed: false,
            conflict: None,
            _shards: shards,
        };
        // The export root is the one handle both sides share.
        let root = rig.oracle.vfs().resolve("/GFS", &UserContext::root()).unwrap().ino;
        rig.handles.pair(&Fh3::from_ino(1, root), &Fh3::from_ino(1, root), "root");
        rig.fileids.pair(&root, &root, "root");
        rig
    }

    /// A rig whose server and oracle hold the same tree before the proxy
    /// sees either, so the proxy learns it by listing: "a" (one block)
    /// and "d1" in the root, "b" and "d2" in d1, and [`CROWD`] files in
    /// d2, more than a listing takes. The rig learns the proxy's handle of
    /// each by looking it up.
    fn listed() -> Self {
        let mut rig = Rig::new();
        let owner = UserContext::new(UID, UID);
        for vfs in [&rig.upstream, rig.oracle.vfs()] {
            let at = |path: &str| vfs.resolve(path, &owner).unwrap().ino;
            let a = vfs.create(at(DIRS[0]), "a", 0o644, true, &owner).unwrap().ino;
            vfs.write(a, 0, &[0x11; BLOCK as usize], &owner).unwrap();
            vfs.mkdir(at(DIRS[0]), "d1", 0o755, &owner).unwrap();
            vfs.create(at(DIRS[1]), "b", 0o600, true, &owner).unwrap();
            let d2 = vfs.mkdir(at(DIRS[1]), "d2", 0o755, &owner).unwrap().ino;
            for i in 0..CROWD {
                vfs.create(d2, &format!("p{i:03}"), 0o644, true, &owner).unwrap();
            }
        }
        rig.listed = true;
        rig
    }

    /// The proxy's handle of the oracle's `fh`.
    fn ours(&self, fh: &Fh3) -> Fh3 {
        self.handles.ours(fh)
    }

    fn ours_at(&self, w: &DirOpArgs3) -> DirOpArgs3 {
        DirOpArgs3 { dir: self.ours(&w.dir), name: w.name.clone() }
    }

    /// Pair the handles of two replies, when both carry one.
    fn pair_fh(&mut self, got: &Option<Fh3>, want: &Option<Fh3>, what: &str) {
        match (got, want) {
            (Some(g), Some(w)) => self.handles.pair(g, w, what),
            (None, None) => {}
            _ => panic!("{what}: handle {got:?} where the oracle has {want:?}"),
        }
    }

    /// The compared part of two replies' attributes, the fileids paired:
    /// all but the times, the space used and a directory's size.
    fn same_attrs(&mut self, got: &Option<Fattr3>, want: &Option<Fattr3>, what: &str) {
        if let (Some(g), Some(w)) = (got, want) {
            self.fileids.pair(&g.fileid, &w.fileid, what);
        }
        assert_eq!(attrs(got), attrs(want), "{what}");
    }

    /// The handle and kind of `path` as the oracle has it now.
    fn resolve(&mut self, path: &str) -> Option<(Fh3, FileKind)> {
        let attr = self.oracle.vfs().resolve(path, &UserContext::root()).ok()?;
        let fh = Fh3::from_ino(1, attr.ino);
        self.seen.push(fh.clone());
        Some((fh, attr.kind))
    }

    fn dir(&mut self, d: usize) -> Option<Fh3> {
        if d > 0 {
            self.look_up([(0, 0), (0, 2), (1, 3)][d]);
        }
        self.resolve(DIRS[d]).filter(|(_, kind)| *kind == FileKind::Directory).map(|(fh, _)| fh)
    }

    /// In the listing case, LOOKUP `(d, n)` through the proxy first when
    /// the proxy has never named the file the oracle has there: a mount
    /// learns every handle from a reply.
    fn look_up(&mut self, (d, n): (usize, usize)) {
        if !self.listed {
            return;
        }
        let path = format!("{}/{}", DIRS[d], NAMES[n]);
        let Ok(attr) = self.oracle.vfs().resolve(&path, &UserContext::root()) else { return };
        if !self.handles.theirs.contains_key(&Fh3::from_ino(1, attr.ino)) {
            self.run(Op::Lookup(d, n));
        }
    }

    fn where_(&mut self, d: usize, n: usize) -> Option<DirOpArgs3> {
        Some(DirOpArgs3 { dir: self.dir(d)?, name: NAMES[n].into() })
    }

    fn object(&mut self, d: usize, n: usize) -> Option<(Fh3, FileKind)> {
        self.dir(d)?;
        self.look_up((d, n));
        let found = self.resolve(&format!("{}/{}", DIRS[d], NAMES[n]))?;
        // A second writer's file the proxy never named has no handle here.
        let named = !self.listed || self.handles.theirs.contains_key(&found.0);
        named.then_some(found)
    }

    /// One call through the proxy, with `ours` (the proxy's handles), and
    /// through the oracle, with `theirs`; both replies' result bodies.
    fn call(
        &mut self,
        proc: u32,
        ours: &dyn XdrEncode,
        theirs: &dyn XdrEncode,
    ) -> (Vec<u8>, Vec<u8>) {
        self.xid += 1;
        let header = CallHeader {
            xid: self.xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc,
            cred: OpaqueAuth::sys(&AuthSysParams::new("compute-host", UID, UID)),
            verf: OpaqueAuth::none(),
        };
        let record = |args: &dyn XdrEncode| {
            let mut enc = XdrEncoder::with_capacity(256);
            header.encode(&mut enc);
            args.encode(&mut enc);
            enc.into_bytes()
        };
        let proxied = self.proxy.process_one(&record(ours)).expect("the proxy stays up");
        let expected = process_record(&record(theirs), self.oracle.as_ref());
        (body(&proxied), body(&expected))
    }

    /// Run `op`; panic where the proxy's reply differs from the oracle's.
    fn run(&mut self, op: Op) {
        let (got, want) = match op {
            Op::Create(d, n, guarded) => {
                let Some(where_) = self.where_(d, n) else { return };
                let attrs = Sattr3 { mode: Some(0o644), ..Default::default() };
                let how = match guarded {
                    true => CreateMode::Guarded(attrs),
                    false => CreateMode::Unchecked(attrs),
                };
                let ours = CreateArgs { where_: self.ours_at(&where_), how: how.clone() };
                let sent = self.sent();
                let made = self.call(procnum::CREATE, &ours, &CreateArgs { where_, how });
                if self.logged_over_foreign(d, n, sent) {
                    return;
                }
                self.made(&made, &format!("{op:?}"));
                made
            }
            Op::Mkdir(d, n) => {
                let Some(where_) = self.where_(d, n) else { return };
                let attributes = Sattr3 { mode: Some(0o755), ..Default::default() };
                let ours =
                    MkdirArgs { where_: self.ours_at(&where_), attributes: attributes.clone() };
                let sent = self.sent();
                let made = self.call(procnum::MKDIR, &ours, &MkdirArgs { where_, attributes });
                if self.logged_over_foreign(d, n, sent) {
                    return;
                }
                self.made(&made, &format!("{op:?}"));
                made
            }
            Op::Write(d, n, block, byte) => {
                let Some((file, FileKind::Regular)) = self.object(d, n) else { return };
                let data = vec![byte; BLOCK as usize];
                let offset = block * BLOCK;
                let stable = StableHow::Unstable;
                let ours = WriteArgs { file: self.ours(&file), offset, stable, data: data.clone() };
                self.call(procnum::WRITE, &ours, &WriteArgs { file, offset, stable, data })
            }
            Op::SetSize(d, n, size) => {
                let Some((object, FileKind::Regular)) = self.object(d, n) else { return };
                let new_attributes = Sattr3 { size: Some(size), ..Default::default() };
                let ours = SetAttrArgs {
                    object: self.ours(&object),
                    new_attributes: new_attributes.clone(),
                };
                self.call(procnum::SETATTR, &ours, &SetAttrArgs { object, new_attributes })
            }
            Op::SetMode(d, n, m) => {
                let Some((object, kind)) = self.object(d, n) else { return };
                let modes = match kind {
                    FileKind::Directory => [0o700, 0o755, 0o711, 0o750],
                    _ => [0o600, 0o644, 0o700, 0o744],
                };
                let new_attributes = Sattr3 { mode: Some(modes[m]), ..Default::default() };
                let ours = SetAttrArgs {
                    object: self.ours(&object),
                    new_attributes: new_attributes.clone(),
                };
                self.call(procnum::SETATTR, &ours, &SetAttrArgs { object, new_attributes })
            }
            Op::GetAttr(d, n) => {
                let Some((fh, _)) = self.object(d, n) else { return };
                return self.getattr(&fh);
            }
            Op::GetAttrSeen(i) => {
                let Some(fh) = self.seen.get(i % self.seen.len().max(1)).cloned() else { return };
                if self.listed && !self.handles.theirs.contains_key(&fh) {
                    return; // a second writer's file the proxy never named
                }
                return self.getattr(&fh);
            }
            Op::Lookup(d, n) => {
                let Some(args) = self.where_(d, n) else { return };
                let (got, want) = self.call(procnum::LOOKUP, &self.ours_at(&args), &args);
                let (got, want) = (decode::<LookupRes>(&got), decode::<LookupRes>(&want));
                let what = format!("LOOKUP {}/{}", DIRS[d], NAMES[n]);
                if self.unseen.contains(&(d, n)) {
                    if (got.status, want.status) == (NfsStat3::NoEnt, NfsStat3::Ok) {
                        return; // as the proxy last saw the directory
                    }
                    self.unseen.remove(&(d, n));
                }
                assert_eq!(got.status, want.status, "{what}");
                self.pair_fh(&got.object, &want.object, &what);
                self.same_attrs(&got.obj_attr, &want.obj_attr, &what);
                // A failed LOOKUP carries the directory's attributes.
                if got.status != NfsStat3::Ok {
                    self.same_attrs(&got.dir_attr, &want.dir_attr, &what);
                }
                return;
            }
            Op::Access(d, n, mask) => {
                let Some((object, _)) = self.object(d, n) else { return };
                let ours = AccessArgs { object: self.ours(&object), access: mask };
                let (got, want) =
                    self.call(procnum::ACCESS, &ours, &AccessArgs { object, access: mask });
                let (got, want) = (decode::<AccessRes>(&got), decode::<AccessRes>(&want));
                let what = format!("ACCESS {mask:#x} of {}/{}", DIRS[d], NAMES[n]);
                assert_eq!((got.status, got.access), (want.status, want.access), "{what}");
                self.same_attrs(&got.obj_attr, &want.obj_attr, &what);
                return;
            }
            Op::Readdir(d, plus) => {
                let Some(dir) = self.dir(d) else { return };
                let ours = self.ours(&dir);
                let what = format!("READDIR (plus: {plus}) of {}", DIRS[d]);
                type Listing = (NfsStat3, Vec<(String, u64, Option<Fh3>)>);
                let listing = |body: &[u8]| -> Listing {
                    match plus {
                        true => {
                            let res = decode::<ReaddirPlusRes>(body);
                            let entries = res.entries.into_iter();
                            (res.status, entries.map(|e| (e.name, e.fileid, e.handle)).collect())
                        }
                        false => {
                            let res = decode::<ReaddirRes>(body);
                            let entries = res.entries.into_iter();
                            (res.status, entries.map(|e| (e.name, e.fileid, None)).collect())
                        }
                    }
                };
                let (got, want) = match plus {
                    true => {
                        let (dircount, maxcount) = (8192, 65536);
                        let args = |dir| ReaddirPlusArgs {
                            dir,
                            cookie: 0,
                            cookieverf: 0,
                            dircount,
                            maxcount,
                        };
                        self.call(procnum::READDIRPLUS, &args(ours), &args(dir))
                    }
                    false => {
                        let args =
                            |dir| ReaddirArgs { dir, cookie: 0, cookieverf: 0, count: 65536 };
                        self.call(procnum::READDIR, &args(ours), &args(dir))
                    }
                };
                let ((got_status, mut got), (want_status, mut want)) =
                    (listing(&got), listing(&want));
                let names = |l: &[(String, u64, Option<Fh3>)]| {
                    l.iter().map(|e| e.0.clone()).collect::<Vec<_>>()
                };
                // A listing cached from before some of a second writer's
                // names lacks them, and its batch, which they did not fill,
                // runs on: the rest must agree.
                let foreign: Vec<&str> =
                    self.foreign.iter().filter(|u| u.0 == d).map(|u| NAMES[u.1]).collect();
                if !foreign.is_empty() && names(&got) != names(&want) {
                    got.retain(|e| !foreign.contains(&e.0.as_str()));
                    want.retain(|e| !foreign.contains(&e.0.as_str()));
                    let shorter = got.len().min(want.len());
                    got.truncate(shorter);
                    want.truncate(shorter);
                }
                assert_eq!((got_status, names(&got)), (want_status, names(&want)), "{what}");
                for ((_, got_id, got_fh), (_, want_id, want_fh)) in got.iter().zip(&want) {
                    self.fileids.pair(got_id, want_id, &what);
                    self.pair_fh(got_fh, want_fh, &what);
                }
                return;
            }
            Op::Remove(d, n) | Op::Rmdir(d, n) => {
                let Some(args) = self.where_(d, n) else { return };
                self.unseen.remove(&(d, n));
                let proc =
                    if matches!(op, Op::Remove(..)) { procnum::REMOVE } else { procnum::RMDIR };
                self.call(proc, &self.ours_at(&args), &args)
            }
            Op::Rename(d, n, d2, n2) => {
                let (Some(from), Some(to)) = (self.where_(d, n), self.where_(d2, n2)) else {
                    return;
                };
                self.unseen.remove(&(d, n));
                self.unseen.remove(&(d2, n2));
                let ours = RenameArgs { from: self.ours_at(&from), to: self.ours_at(&to) };
                self.call(procnum::RENAME, &ours, &RenameArgs { from, to })
            }
            Op::Link(d, n, d2, n2) => {
                let Some((file, _)) = self.object(d, n) else { return };
                let Some(link) = self.where_(d2, n2) else { return };
                let ours = LinkArgs { file: self.ours(&file), link: self.ours_at(&link) };
                self.call(procnum::LINK, &ours, &LinkArgs { file, link })
            }
            Op::Flush => {
                self.proxy.flush_all().expect("write-back");
                assert_eq!(tree(&self.upstream), tree(self.oracle.vfs()), "after a flush");
                return;
            }
            Op::Foreign(d, n) => return self.foreign(d, n),
        };
        // Every result body opens with its status.
        assert_eq!(got[..4], want[..4], "status of {op:?}");
        self.pair_after(op, &got, &want);
    }

    /// Pair the fileids in the attributes a mutation's reply carries: a
    /// file or directory the mount knows by one fileid must never be
    /// handed on under another.
    fn pair_after(&mut self, op: Op, got: &[u8], want: &[u8]) {
        let slots = |body: &[u8]| match op {
            Op::Create(..) | Op::Mkdir(..) => vec![decode::<CreateRes>(body).dir_wcc.after],
            Op::Write(..) => vec![decode::<WriteRes>(body).wcc.after],
            Op::SetSize(..) | Op::SetMode(..) | Op::Remove(..) | Op::Rmdir(..) => {
                vec![decode::<WccRes>(body).wcc.after]
            }
            Op::Rename(..) => {
                let res = decode::<RenameRes>(body);
                vec![res.from_wcc.after, res.to_wcc.after]
            }
            Op::Link(..) => {
                let res = decode::<LinkRes>(body);
                vec![res.attr, res.dir_wcc.after]
            }
            _ => Vec::new(),
        };
        for (g, w) in slots(got).into_iter().zip(slots(want)) {
            if let (Some(g), Some(w)) = (g, w) {
                self.fileids.pair(&g.fileid, &w.fileid, &format!("attributes after {op:?}"));
            }
        }
    }

    /// Pair what a CREATE or MKDIR made on each side.
    fn made(&mut self, (got, want): &(Vec<u8>, Vec<u8>), what: &str) {
        let (got, want) = (decode::<CreateRes>(got), decode::<CreateRes>(want));
        if got.status == NfsStat3::Ok && want.status == NfsStat3::Ok {
            self.pair_fh(&got.obj, &want.obj, what);
            self.same_attrs(&got.obj_attr, &want.obj_attr, what);
        }
    }

    fn getattr(&mut self, fh: &Fh3) {
        let (got, want) = self.call(procnum::GETATTR, &self.ours(fh), fh);
        let (got, want) = (decode::<GetAttrRes>(&got), decode::<GetAttrRes>(&want));
        assert_eq!(got.status, want.status, "GETATTR {fh:?}");
        self.same_attrs(&got.attr, &want.attr, &format!("GETATTR {fh:?}"));
    }

    /// Write back, then compare the two trees; or, where a second writer
    /// took a name the proxy logged, see the write-back fail naming it.
    fn settle(mut self) {
        if let Some(path) = self.conflict.take() {
            let err = self.proxy.flush_all().expect_err("a taken name").to_string();
            // The path as far as the proxy knows the names above it: the
            // rig calls a directory by its handle without looking it up.
            let shown = err.split_once("name ").and_then(|(_, rest)| rest.split_once(" failed: "));
            let named = shown.is_some_and(|(shown, status)| {
                status == "Exist" && (path == shown || path.ends_with(&format!("/{shown}")))
            });
            assert!(named, "{path}: {err}");
            return;
        }
        self.proxy.flush_all().expect("write-back");
        assert_eq!(tree(&self.upstream), tree(self.oracle.vfs()));
    }

    /// Every call the proxy has sent upstream.
    fn sent(&self) -> u64 {
        self.proxy.forwarded_by_proc().iter().sum()
    }

    /// Whether the proxy just logged `(d, n)` (sent nothing since
    /// `sent`) over a second writer's file it had not seen: its flush
    /// must then fail naming it.
    fn logged_over_foreign(&mut self, d: usize, n: usize, sent: u64) -> bool {
        let logged = self.unseen.contains(&(d, n)) && self.sent() == sent;
        if logged {
            self.conflict = Some(path_in(d, n));
        }
        logged
    }

    /// A second writer makes the empty file `(d, n)` on the server, where
    /// neither it nor a directory on its path is missing. Where the
    /// oracle has the name already, the proxy logged it and has not
    /// shipped it: the second writer takes it, and the proxy's flush must
    /// fail. Otherwise the oracle gets the file too.
    fn foreign(&mut self, d: usize, n: usize) {
        let (root, writer) = (UserContext::root(), UserContext::new(UID, UID));
        let path = format!("{}/{}", DIRS[d], NAMES[n]);
        let Ok(dir) = self.upstream.resolve(DIRS[d], &root) else { return };
        if dir.kind != FileKind::Directory || self.upstream.resolve(&path, &root).is_ok() {
            return;
        }
        self.upstream.create(dir.ino, NAMES[n], 0o644, true, &writer).unwrap();
        match self.oracle.vfs().resolve(&path, &root) {
            Ok(_) => self.conflict = Some(path_in(d, n)),
            Err(_) => {
                let dir = self.oracle.vfs().resolve(DIRS[d], &root).unwrap().ino;
                self.oracle.vfs().create(dir, NAMES[n], 0o644, true, &writer).unwrap();
                self.unseen.insert((d, n));
                self.foreign.insert((d, n));
            }
        }
    }
}

/// `(d, n)`'s path below the export root, as a failed write-back names it.
fn path_in(d: usize, n: usize) -> String {
    let dir = DIRS[d].strip_prefix("/GFS").unwrap().trim_start_matches('/');
    if dir.is_empty() {
        NAMES[n].to_string()
    } else {
        format!("{dir}/{}", NAMES[n])
    }
}

/// The result body of an accepted reply.
fn body(reply: &[u8]) -> Vec<u8> {
    let mut dec = XdrDecoder::new(reply);
    ReplyHeader::decode(&mut dec).expect("reply header");
    reply[dec.position()..].to_vec()
}

fn decode<T: XdrDecode>(body: &[u8]) -> T {
    T::from_xdr_bytes(body).expect("result body")
}

/// The compared part of a reply's attributes: all but the fileid
/// (paired instead), the times, the space used and a directory's size.
fn attrs(a: &Option<Fattr3>) -> Option<(u32, u32, u32, u32, u32, u64)> {
    let size = |a: &Fattr3| if a.ftype == FType3::Dir { 0 } else { a.size };
    a.as_ref().map(|a| (a.ftype as u32, a.mode, a.nlink, a.uid, a.gid, size(a)))
}

/// Every node of the export: path, kind, mode, owner, link count and
/// content.
fn tree(vfs: &Vfs) -> Vec<(String, FileKind, u32, u32, u32, Vec<u8>)> {
    let root = UserContext::root();
    let mut out = Vec::new();
    let mut stack = vec![(String::from("/GFS"), vfs.resolve("/GFS", &root).unwrap().ino)];
    while let Some((path, ino)) = stack.pop() {
        let a = vfs.getattr(ino).unwrap();
        let data = match a.kind {
            FileKind::Regular => vfs.read(ino, 0, a.size as u32, &root).unwrap().0,
            _ => Vec::new(),
        };
        if a.kind == FileKind::Directory {
            for e in vfs.readdir(ino, &root).unwrap() {
                if e.name != "." && e.name != ".." {
                    stack.push((format!("{path}/{}", e.name), e.ino));
                }
            }
        }
        out.push((path, a.kind, a.mode, a.uid, a.nlink, data));
    }
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

fn check(ops: &[Op]) {
    let mut rig = Rig::new();
    for &op in ops {
        rig.run(op);
    }
    rig.settle();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn the_namespace_cache_answers_as_the_server_would(
        ops in proptest::collection::vec(op(), 1..64),
    ) {
        check(&ops);
    }
}

/// One generated call of the listing case: one in six is a second
/// writer's file.
fn listing_op() -> impl Strategy<Value = Op> {
    (op(), 0u8..6, any::<u64>()).prop_map(|(op, kind, r)| match kind {
        0 => Op::Foreign([0, 0, 1, 2][(r % 4) as usize], (r >> 8) as usize % 4),
        _ => op,
    })
}

/// `ops` on [`Rig::listed`], up to a conflict the flush must report.
fn check_listed(ops: &[Op]) {
    let mut rig = Rig::listed();
    for &op in ops {
        rig.run(op);
        if rig.conflict.is_some() {
            break;
        }
    }
    rig.settle();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Directories the proxy did not make, one too large to list, and a
    /// second writer changing them on the server: every answer equals the
    /// oracle's, but for a second writer's file the proxy has not seen
    /// yet, which it may answer as absent until a reply shows the change;
    /// a name the proxy logged that the second writer took fails the
    /// flush with EXIST, naming it.
    #[test]
    fn a_listed_directory_answers_as_the_server_would(
        ops in proptest::collection::vec(listing_op(), 1..64),
    ) {
        check_listed(&ops);
    }
}

/// A LOOKUP miss in a directory the proxy did not make lists it, and the
/// LOOKUPs after, present or absent, are answered from the listing; a
/// directory too large to list is asked every time.
#[test]
fn a_listed_directory_answers_its_lookups() {
    let (a, b, d1, d2) = (0, 1, 2, 3);
    let mut rig = Rig::listed();
    let sent = forwarded(&mut rig, &[Op::Lookup(0, a), Op::Lookup(0, b), Op::Lookup(1, b)]);
    assert_eq!(sent[procnum::LOOKUP as usize], 0, "{sent:?}");
    assert_eq!(sent[procnum::READDIRPLUS as usize], 2, "the root, then d1: {sent:?}");
    let crowded = [Op::Lookup(2, a), Op::Lookup(2, d1), Op::Lookup(2, d2)];
    let sent = forwarded(&mut rig, &crowded);
    assert_eq!(sent[procnum::LOOKUP as usize], 3, "{sent:?}");
    assert_eq!(sent[procnum::READDIRPLUS as usize], 4, "one listing, over budget: {sent:?}");
    rig.settle();
}

/// A second writer's file is absent to the proxy until a reply shows the
/// directory changed — here a LOOKUP of d1's "..", which carries the
/// root's attributes — and then the root is asked again.
#[test]
fn a_second_writers_name_is_seen_once_a_reply_shows_the_change() {
    let (a, b, dotdot) = (0, 1, 5);
    let mut rig = Rig::listed();
    rig.run(Op::Lookup(0, a));
    rig.run(Op::Foreign(0, b));
    assert_eq!(forwarded_lookups(&mut rig, &[Op::Lookup(0, b)]), 0, "answered as absent");
    assert!(rig.unseen.contains(&(0, b)));
    rig.run(Op::Lookup(1, dotdot));
    let sent = forwarded(&mut rig, &[Op::Lookup(0, b)]);
    assert_eq!(sent[procnum::READDIRPLUS as usize], 1, "the root listed again: {sent:?}");
    assert!(!rig.unseen.contains(&(0, b)), "seen, as the oracle has it");
    rig.settle();
}

/// A name logged in a listed directory that a second writer took on the
/// server fails the flush with EXIST, naming it.
#[test]
fn a_logged_name_a_second_writer_took_fails_the_flush() {
    let b = 1;
    let mut rig = Rig::listed();
    let sent = forwarded(&mut rig, &[Op::Create(0, b, true), Op::Write(0, b, 0, 7)]);
    assert_eq!(sent[procnum::CREATE as usize], 0, "logged: {sent:?}");
    rig.run(Op::Foreign(0, b));
    assert_eq!(rig.conflict.as_deref(), Some("b"));
    rig.settle();
}

/// A listed directory that stops being known ships the names logged in
/// it at once.
#[test]
fn a_dropped_directory_ships_its_logged_names_at_once() {
    let (b, d2, dotdot) = (1, 3, 5);
    let mut rig = Rig::listed();
    let sent = forwarded(&mut rig, &[Op::Create(0, b, false), Op::Foreign(0, d2)]);
    assert_eq!(sent[procnum::CREATE as usize], 0, "logged: {sent:?}");
    let sent = forwarded(&mut rig, &[Op::Lookup(1, dotdot)]);
    assert_eq!(sent[procnum::CREATE as usize], 1, "shipped: {sent:?}");
    let ctx = UserContext::root();
    assert!(rig.upstream.resolve("/GFS/b", &ctx).is_ok());
    rig.settle();
}

/// A READDIRPLUS entry carries the server's attributes of a file whose
/// write-back data it has not seen: the proxy's size must survive them.
#[test]
fn a_listing_keeps_a_dirty_files_size() {
    check(&[
        Op::Create(0, 0, false),
        Op::Write(0, 0, 1, 7),
        Op::Readdir(0, true),
        Op::GetAttr(0, 0),
    ]);
}

/// A SETATTR of a dirty file's mode changes no name and no size.
#[test]
fn a_mode_change_keeps_a_dirty_files_size() {
    check(&[
        Op::Create(0, 0, false),
        Op::Write(0, 0, 1, 7),
        Op::SetMode(0, 0, 0),
        Op::GetAttr(0, 0),
    ]);
}

/// An UNCHECKED CREATE of an existing name sets that file's mode: its
/// cached ACCESS verdicts are stale.
#[test]
fn a_create_over_an_existing_file_rechecks_its_access() {
    let (a, execute) = (0, 0x20);
    check(&[
        Op::Create(0, a, false),
        Op::SetMode(0, a, 3),
        Op::Access(0, a, execute),
        Op::Create(0, a, false),
        Op::Access(0, a, execute),
    ]);
}

/// A directory listed, then moved under another parent, lists a new "..".
#[test]
fn a_moved_directory_is_listed_afresh() {
    let (a, d1, d2) = (0, 2, 3);
    check(&[
        Op::Mkdir(0, d1),
        Op::Mkdir(1, d2),
        Op::Readdir(2, false),
        Op::Rename(1, d2, 0, a),
        Op::Rmdir(0, d1),
        Op::Rename(0, a, 0, d1),
        Op::Readdir(1, false),
    ]);
}

/// A dirty file unlinked by its second name, which only its LINK made
/// known, is gone: its write-back data must not be shipped to it.
#[test]
fn a_dirty_file_unlinked_by_its_link_name_is_dropped() {
    let (a, b) = (0, 1);
    check(&[
        Op::Create(0, a, false),
        Op::Write(0, a, 0, 7),
        Op::Link(0, a, 0, b),
        Op::Remove(0, a),
        Op::Remove(0, b),
    ]);
}

/// LOOKUPs run through `rig`; returns how many the proxy forwarded.
fn forwarded_lookups(rig: &mut Rig, ops: &[Op]) -> u64 {
    let before = rig.proxy.forwarded_by_proc()[procnum::LOOKUP as usize];
    for &op in ops {
        rig.run(op);
    }
    rig.proxy.forwarded_by_proc()[procnum::LOOKUP as usize] - before
}

/// A directory the session made is known completely: a name absent from
/// it is answered NOENT, with the directory's attributes, without asking
/// the server.
#[test]
fn an_absent_name_in_a_made_directory_is_answered_locally() {
    let (a, b, d1, d2) = (0, 1, 2, 3);
    let mut rig = Rig::new();
    for op in [Op::Mkdir(0, d1), Op::Create(1, a, false), Op::Mkdir(1, d2), Op::Remove(1, a)] {
        rig.run(op);
    }
    let absent = [Op::Lookup(1, a), Op::Lookup(1, b), Op::Lookup(2, a)];
    assert_eq!(forwarded_lookups(&mut rig, &absent), 0);
    rig.settle();
}

/// "." and ".." are the server's to resolve, in a made directory too.
#[test]
fn dot_and_dot_dot_in_a_made_directory_are_the_servers() {
    let (d1, d2, dot, dotdot) = (2, 3, 4, 5);
    let mut rig = Rig::new();
    rig.run(Op::Mkdir(0, d1));
    rig.run(Op::Mkdir(1, d2));
    let dots = [Op::Lookup(1, dot), Op::Lookup(1, dotdot), Op::Lookup(2, dotdot)];
    assert_eq!(forwarded_lookups(&mut rig, &dots), 3);
    rig.settle();
}

/// A directory removed and made again under the same name starts empty.
#[test]
fn a_directory_made_again_knows_none_of_its_old_names() {
    let (a, d1) = (0, 2);
    let mut rig = Rig::new();
    let ops = [
        Op::Mkdir(0, d1),
        Op::Create(1, a, false),
        Op::Lookup(1, a),
        Op::Remove(1, a),
        Op::Rmdir(0, d1),
        Op::Mkdir(0, d1),
    ];
    for op in ops {
        rig.run(op);
    }
    assert_eq!(forwarded_lookups(&mut rig, &[Op::Lookup(1, a)]), 0);
    rig.settle();
}

/// A made directory moved under another parent keeps its names, and its
/// ".." is the new parent.
#[test]
fn a_made_directory_moved_under_another_parent_stays_known() {
    let (a, b, d1, d2, dotdot) = (0, 1, 2, 3, 5);
    let mut rig = Rig::new();
    let ops = [
        Op::Mkdir(0, d1),
        Op::Mkdir(1, d2),
        Op::Create(2, a, false),
        Op::Lookup(2, dotdot),
        // d2 moves from d1 to the root, then takes the path "/GFS/d1".
        Op::Rename(1, d2, 0, a),
        Op::Rename(0, d1, 0, b),
        Op::Rename(0, a, 0, d1),
        Op::Lookup(1, dotdot),
        Op::Lookup(1, a),
    ];
    for op in ops {
        rig.run(op);
    }
    assert_eq!(forwarded_lookups(&mut rig, &[Op::Lookup(1, b)]), 0);
    rig.settle();
}

/// The name → handle map forgets every name of a file whose last link
/// it believes gone, and it believes so whenever the file's attributes
/// are not cached. A made directory's names must not follow it.
#[test]
fn a_name_the_handle_map_forgot_is_never_answered_absent() {
    let (a, b, d1, d2, mode) = (0, 1, 2, 3, 1);
    // "a" and "b" in d1 are links of one file; its third link, in the
    // root, goes while its attributes are not cached.
    let forget = [
        Op::Mkdir(0, d1),
        Op::Create(1, a, false),
        Op::Link(1, a, 1, b),
        Op::Link(1, a, 0, d2),
        Op::SetMode(1, a, mode),
        Op::Remove(0, d2),
    ];
    check(&[&forget[..], &[Op::Lookup(1, a), Op::Lookup(1, b)]].concat());
    // A RENAME onto another link of the same file leaves both names.
    check(&[&forget[..], &[Op::Rename(1, a, 1, b), Op::Lookup(1, a), Op::Lookup(1, b)]].concat());
}

/// What `ops` sent upstream, by procedure.
fn forwarded(rig: &mut Rig, ops: &[Op]) -> [u64; sgfs_obs::NUM_PROCS] {
    let before = rig.proxy.forwarded_by_proc();
    for &op in ops {
        rig.run(op);
    }
    let mut sent = rig.proxy.forwarded_by_proc();
    for (n, b) in sent.iter_mut().zip(before) {
        *n -= b;
    }
    sent
}

/// Names made and removed in a directory the session made never reach
/// the server, and neither does their data.
#[test]
fn a_name_removed_before_it_ships_never_reaches_the_server() {
    let (a, b, d1, d2) = (0, 1, 2, 3);
    let mut rig = Rig::new();
    rig.run(Op::Mkdir(0, d1));
    let ops = [
        Op::Create(1, a, false),
        Op::Write(1, a, 0, 7),
        Op::Mkdir(1, d2),
        Op::Create(2, b, true),
        Op::Lookup(2, b),
        Op::GetAttr(2, b),
        Op::Remove(2, b),
        Op::Rmdir(1, d2),
        Op::Remove(1, a),
        Op::Lookup(1, a),
        Op::GetAttr(0, d1),
    ];
    let sent = forwarded(&mut rig, &ops);
    assert_eq!(sent.iter().sum::<u64>(), 0, "{sent:?}");
    rig.settle();
}

/// A flush ships a logged tree parents first, then its data; the names
/// answer as the server's afterwards.
#[test]
fn a_flush_ships_a_logged_tree_parents_first() {
    let (a, d1, d2) = (0, 2, 3);
    let mut rig = Rig::new();
    let ops = [
        Op::Mkdir(0, d1),
        Op::Mkdir(1, d2),
        Op::Create(2, a, false),
        Op::Write(2, a, 1, 9),
        Op::Flush,
    ];
    let sent = forwarded(&mut rig, &ops);
    assert_eq!((sent[procnum::MKDIR as usize], sent[procnum::CREATE as usize]), (2, 1), "{sent:?}");
    for op in [Op::GetAttr(2, a), Op::Readdir(2, true), Op::Readdir(1, false), Op::Lookup(2, a)] {
        rig.run(op);
    }
    rig.settle();
}

/// A call the cache cannot answer about a logged name ships it first:
/// ACCESS, SETATTR, a listing, RENAME, LINK — and the name answers as
/// the oracle's does through all of them.
#[test]
fn a_call_the_cache_cannot_answer_ships_the_name_first() {
    let (a, b, d1, d2, mode) = (0, 1, 2, 3, 2);
    check(&[
        Op::Mkdir(0, d1),
        Op::Create(1, a, false),
        Op::Write(1, a, 0, 3),
        Op::Access(1, a, 0x3f),
        Op::Mkdir(1, d2),
        Op::SetMode(1, d2, mode),
        Op::Create(2, b, false),
        Op::Readdir(2, false),
        Op::Create(1, b, true),
        Op::Rename(1, b, 0, b),
        Op::Link(1, a, 2, a),
        Op::GetAttr(2, a),
        Op::Remove(1, a),
        Op::GetAttr(2, a),
    ]);
}

/// An RMDIR of a logged directory that holds a logged name is the
/// server's NOTEMPTY, not a cancellation; so is a REMOVE of a logged
/// directory, and an RMDIR of a logged file.
#[test]
fn a_logged_name_is_cancelled_only_by_a_call_the_server_would_accept() {
    let (a, d1, d2) = (0, 2, 3);
    check(&[
        Op::Mkdir(0, d1),
        Op::Mkdir(1, d2),
        Op::Create(2, a, false),
        Op::Rmdir(1, d2),
        Op::Remove(1, d2),
        Op::Rmdir(2, a),
        Op::GetAttr(1, d2),
        Op::Readdir(2, true),
    ]);
}

/// A shipped file keeps the fileid the mount knows through a mode change
/// and a truncation, whose replies the server fills with its own; once
/// removed, its minted handle is as stale as the server's handle is.
#[test]
fn a_shipped_file_keeps_its_fileid_until_it_is_removed() {
    let (a, d1, mode) = (0, 2, 1);
    let mut rig = Rig::new();
    let ops = [
        Op::Mkdir(0, d1),
        Op::Create(1, a, false),
        Op::Write(1, a, 0, 5),
        Op::Flush,
        Op::SetMode(1, a, mode),
        Op::SetSize(1, a, 100),
        Op::Write(1, a, 1, 6),
        Op::GetAttr(1, a),
    ];
    for op in ops {
        rig.run(op);
    }
    let (file, _) = rig.object(1, a).expect("made");
    rig.run(Op::Remove(1, a));
    rig.getattr(&file);
    rig.settle();
}

/// A file the mount reaches by a handle a READDIRPLUS gave, written and
/// then removed by name, is gone: its write-back data must not be shipped
/// to it.
#[test]
fn a_listed_handle_written_then_removed_is_dropped() {
    let a = 0;
    check_listed(&[Op::Readdir(0, true), Op::Write(0, a, 0, 7), Op::Remove(0, a)]);
}

