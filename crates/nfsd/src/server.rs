//! The NFSv3 server: dispatch of all 21 procedures onto a [`Vfs`].

use crate::exports::Exports;
use sgfs_nfs3::proc::{procnum, *};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_oncrpc::client::NoArgs;
use sgfs_oncrpc::server::Dispatch;
use sgfs_oncrpc::{AcceptStat, OpaqueAuth, RpcService};
use sgfs_vfs::{FileKind, Ino, UserContext, Vfs};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode};
use std::sync::Arc;

/// The uid/gid root is squashed to (traditional `nobody`).
const NOBODY: u32 = 65534;

/// A user-level NFSv3 server instance over one VFS.
pub struct NfsServer {
    vfs: Arc<Vfs>,
    exports: Exports,
    fsid: u64,
    /// Boot verifier returned by WRITE/COMMIT (detects server restarts).
    write_verf: u64,
    /// Whether this server squashes uid 0 (from the export entry used at
    /// mount; a single policy per server instance keeps things simple).
    root_squash: bool,
}

impl NfsServer {
    /// Create a server exporting `vfs` with the given exports table.
    pub fn new(vfs: Arc<Vfs>, exports: Exports) -> Arc<Self> {
        let root_squash = true;
        Arc::new(Self {
            vfs,
            exports,
            fsid: 1,
            write_verf: rand::random(),
            root_squash,
        })
    }

    /// Create with root squashing disabled (tests, trusted proxies).
    pub fn new_no_squash(vfs: Arc<Vfs>, exports: Exports) -> Arc<Self> {
        let mut s = Self {
            vfs,
            exports,
            fsid: 1,
            write_verf: rand::random(),
            root_squash: false,
        };
        s.fsid = 1;
        Arc::new(s)
    }

    /// The backing filesystem.
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// MOUNT analog: resolve an exported path for `host` to a root handle.
    ///
    /// Returns `None` when the path is not exported to that host — the
    /// paper's "export /GFS/X to localhost" restriction.
    pub fn mount(&self, path: &str, host: &str) -> Option<Fh3> {
        self.exports.check(path, host)?;
        let attr = self.vfs.resolve(path, &UserContext::root()).ok()?;
        if attr.kind != FileKind::Directory {
            return None;
        }
        Some(Fh3::from_ino(self.fsid, attr.ino))
    }

    fn ctx_from_cred(&self, cred: &OpaqueAuth) -> UserContext {
        match cred.as_sys() {
            Some(sys) => {
                let (mut uid, mut gids) = (sys.uid, sys.gids.clone());
                if gids.is_empty() {
                    gids.push(sys.gid);
                }
                if self.root_squash && uid == 0 {
                    uid = NOBODY;
                    gids = vec![NOBODY];
                }
                UserContext { uid, gids }
            }
            None => UserContext::new(NOBODY, NOBODY),
        }
    }

    fn ino(&self, fh: &Fh3) -> Result<Ino, NfsStat3> {
        match fh.to_ino() {
            Some((fsid, ino)) if fsid == self.fsid => Ok(ino),
            _ => Err(NfsStat3::Stale),
        }
    }

    fn post_attr(&self, ino: Ino) -> PostOpAttr {
        self.vfs.getattr(ino).ok().map(|a| Fattr3::from_vfs(&a, self.fsid))
    }

    fn wcc_before(&self, ino: Ino) -> Option<WccAttr> {
        self.vfs.getattr(ino).ok().map(|a| WccAttr {
            size: a.size,
            mtime: NfsTime3::from_nanos(a.mtime),
            ctime: NfsTime3::from_nanos(a.ctime),
        })
    }

    fn wcc(&self, before: Option<WccAttr>, ino: Ino) -> WccData {
        WccData { before, after: self.post_attr(ino) }
    }

    // ---- procedure bodies -------------------------------------------------

    fn getattr(&self, fh: &Fh3) -> GetAttrRes {
        match self.ino(fh).and_then(|ino| self.vfs.getattr(ino).map_err(Into::into)) {
            Ok(a) => GetAttrRes { status: NfsStat3::Ok, attr: Some(Fattr3::from_vfs(&a, self.fsid)) },
            Err(status) => GetAttrRes { status, attr: None },
        }
    }

    fn setattr(&self, args: &SetAttrArgs, ctx: &UserContext) -> WccRes {
        let ino = match self.ino(&args.object) {
            Ok(i) => i,
            Err(status) => return WccRes { status, wcc: WccData::default() },
        };
        let before = self.wcc_before(ino);
        match self.vfs.setattr(ino, &args.new_attributes.to_vfs(), ctx) {
            Ok(_) => WccRes { status: NfsStat3::Ok, wcc: self.wcc(before, ino) },
            Err(e) => WccRes { status: e.into(), wcc: self.wcc(before, ino) },
        }
    }

    fn lookup(&self, args: &DirOpArgs3, ctx: &UserContext) -> LookupRes {
        let dir_ino = match self.ino(&args.dir) {
            Ok(i) => i,
            Err(status) => {
                return LookupRes { status, object: None, obj_attr: None, dir_attr: None }
            }
        };
        match self.vfs.lookup(dir_ino, &args.name, ctx) {
            Ok(a) => LookupRes {
                status: NfsStat3::Ok,
                object: Some(Fh3::from_ino(self.fsid, a.ino)),
                obj_attr: Some(Fattr3::from_vfs(&a, self.fsid)),
                dir_attr: self.post_attr(dir_ino),
            },
            Err(e) => LookupRes {
                status: e.into(),
                object: None,
                obj_attr: None,
                dir_attr: self.post_attr(dir_ino),
            },
        }
    }

    fn access(&self, args: &AccessArgs, ctx: &UserContext) -> AccessRes {
        let ino = match self.ino(&args.object) {
            Ok(i) => i,
            Err(status) => return AccessRes { status, obj_attr: None, access: 0 },
        };
        match self.vfs.access(ino, ctx, args.access) {
            Ok(granted) => AccessRes {
                status: NfsStat3::Ok,
                obj_attr: self.post_attr(ino),
                access: granted,
            },
            Err(e) => AccessRes { status: e.into(), obj_attr: self.post_attr(ino), access: 0 },
        }
    }

    fn readlink(&self, fh: &Fh3) -> ReadlinkRes {
        let ino = match self.ino(fh) {
            Ok(i) => i,
            Err(status) => return ReadlinkRes { status, attr: None, path: String::new() },
        };
        match self.vfs.readlink(ino) {
            Ok(path) => ReadlinkRes { status: NfsStat3::Ok, attr: self.post_attr(ino), path },
            Err(e) => ReadlinkRes { status: e.into(), attr: self.post_attr(ino), path: String::new() },
        }
    }

    /// READ, encoded straight from the file's extent into the reply: the
    /// data is copied once, from the file into the reply record.
    fn read(&self, args: &ReadArgs, ctx: &UserContext) -> Dispatch {
        let failed = |status, attr| {
            Dispatch::reply(&ReadRes { status, attr, count: 0, eof: false, data: Vec::new() })
        };
        let ino = match self.ino(&args.file) {
            Ok(i) => i,
            Err(status) => return failed(status, None),
        };
        // Attributes first: the extent is encoded under the file system's
        // read lock, which `post_attr` would take again.
        let attr = self.post_attr(ino);
        // Sized from the extent, never from the client's `count`.
        let read = self.vfs.read_with(ino, args.offset, args.count, ctx, |data, eof| {
            let mut enc = Dispatch::encoder(READ_RES_FIXED + data.len());
            ReadRes::encode_ok(&mut enc, &attr, eof, data);
            enc
        });
        match read {
            Ok(enc) => Dispatch::Ok(enc.into_bytes()),
            Err(e) => failed(e.into(), self.post_attr(ino)),
        }
    }

    fn write(&self, args: &WriteArgsRef<'_>, ctx: &UserContext) -> WriteRes {
        let ino = match self.ino(&args.file) {
            Ok(i) => i,
            Err(status) => {
                return WriteRes {
                    status,
                    wcc: WccData::default(),
                    count: 0,
                    committed: StableHow::Unstable,
                    verf: self.write_verf,
                }
            }
        };
        let before = self.wcc_before(ino);
        match self.vfs.write(ino, args.offset, args.data, ctx) {
            Ok(_) => WriteRes {
                status: NfsStat3::Ok,
                wcc: self.wcc(before, ino),
                count: args.data.len() as u32,
                // The in-memory store is as durable as it gets: report the
                // requested stability (or better).
                committed: StableHow::FileSync,
                verf: self.write_verf,
            },
            Err(e) => WriteRes {
                status: e.into(),
                wcc: self.wcc(before, ino),
                count: 0,
                committed: StableHow::Unstable,
                verf: self.write_verf,
            },
        }
    }

    fn create(&self, args: &CreateArgs, ctx: &UserContext) -> CreateRes {
        let dir_ino = match self.ino(&args.where_.dir) {
            Ok(i) => i,
            Err(status) => {
                return CreateRes { status, obj: None, obj_attr: None, dir_wcc: WccData::default() }
            }
        };
        let before = self.wcc_before(dir_ino);
        let (mode, exclusive) = match &args.how {
            CreateMode::Unchecked(s) => (s.mode.unwrap_or(0o644), false),
            CreateMode::Guarded(s) => (s.mode.unwrap_or(0o644), true),
            CreateMode::Exclusive(_) => (0o644, true),
        };
        match self.vfs.create(dir_ino, &args.where_.name, mode, exclusive, ctx) {
            Ok(a) => {
                // Apply remaining sattr fields (e.g. size) for unchecked/guarded.
                if let CreateMode::Unchecked(s) | CreateMode::Guarded(s) = &args.how {
                    let vs = s.to_vfs();
                    if !vs.is_empty() {
                        let _ = self.vfs.setattr(a.ino, &vs, ctx);
                    }
                }
                CreateRes {
                    status: NfsStat3::Ok,
                    obj: Some(Fh3::from_ino(self.fsid, a.ino)),
                    obj_attr: self.post_attr(a.ino),
                    dir_wcc: self.wcc(before, dir_ino),
                }
            }
            Err(e) => CreateRes {
                status: e.into(),
                obj: None,
                obj_attr: None,
                dir_wcc: self.wcc(before, dir_ino),
            },
        }
    }

    fn mkdir(&self, args: &MkdirArgs, ctx: &UserContext) -> CreateRes {
        let dir_ino = match self.ino(&args.where_.dir) {
            Ok(i) => i,
            Err(status) => {
                return CreateRes { status, obj: None, obj_attr: None, dir_wcc: WccData::default() }
            }
        };
        let before = self.wcc_before(dir_ino);
        let mode = args.attributes.mode.unwrap_or(0o755);
        match self.vfs.mkdir(dir_ino, &args.where_.name, mode, ctx) {
            Ok(a) => CreateRes {
                status: NfsStat3::Ok,
                obj: Some(Fh3::from_ino(self.fsid, a.ino)),
                obj_attr: self.post_attr(a.ino),
                dir_wcc: self.wcc(before, dir_ino),
            },
            Err(e) => CreateRes {
                status: e.into(),
                obj: None,
                obj_attr: None,
                dir_wcc: self.wcc(before, dir_ino),
            },
        }
    }

    fn symlink(&self, args: &SymlinkArgs, ctx: &UserContext) -> CreateRes {
        let dir_ino = match self.ino(&args.where_.dir) {
            Ok(i) => i,
            Err(status) => {
                return CreateRes { status, obj: None, obj_attr: None, dir_wcc: WccData::default() }
            }
        };
        let before = self.wcc_before(dir_ino);
        match self.vfs.symlink(dir_ino, &args.where_.name, &args.target, ctx) {
            Ok(a) => CreateRes {
                status: NfsStat3::Ok,
                obj: Some(Fh3::from_ino(self.fsid, a.ino)),
                obj_attr: self.post_attr(a.ino),
                dir_wcc: self.wcc(before, dir_ino),
            },
            Err(e) => CreateRes {
                status: e.into(),
                obj: None,
                obj_attr: None,
                dir_wcc: self.wcc(before, dir_ino),
            },
        }
    }

    fn remove(&self, args: &DirOpArgs3, ctx: &UserContext, is_rmdir: bool) -> WccRes {
        let dir_ino = match self.ino(&args.dir) {
            Ok(i) => i,
            Err(status) => return WccRes { status, wcc: WccData::default() },
        };
        let before = self.wcc_before(dir_ino);
        let result = if is_rmdir {
            self.vfs.rmdir(dir_ino, &args.name, ctx)
        } else {
            self.vfs.remove(dir_ino, &args.name, ctx)
        };
        match result {
            Ok(()) => WccRes { status: NfsStat3::Ok, wcc: self.wcc(before, dir_ino) },
            Err(e) => WccRes { status: e.into(), wcc: self.wcc(before, dir_ino) },
        }
    }

    fn rename(&self, args: &RenameArgs, ctx: &UserContext) -> RenameRes {
        let (from_ino, to_ino) = match (self.ino(&args.from.dir), self.ino(&args.to.dir)) {
            (Ok(f), Ok(t)) => (f, t),
            _ => {
                return RenameRes {
                    status: NfsStat3::Stale,
                    from_wcc: WccData::default(),
                    to_wcc: WccData::default(),
                }
            }
        };
        let from_before = self.wcc_before(from_ino);
        let to_before = self.wcc_before(to_ino);
        let status = match self.vfs.rename(from_ino, &args.from.name, to_ino, &args.to.name, ctx)
        {
            Ok(()) => NfsStat3::Ok,
            Err(e) => e.into(),
        };
        RenameRes {
            status,
            from_wcc: self.wcc(from_before, from_ino),
            to_wcc: self.wcc(to_before, to_ino),
        }
    }

    fn link(&self, args: &LinkArgs, ctx: &UserContext) -> LinkRes {
        let (file_ino, dir_ino) = match (self.ino(&args.file), self.ino(&args.link.dir)) {
            (Ok(f), Ok(d)) => (f, d),
            _ => return LinkRes { status: NfsStat3::Stale, attr: None, dir_wcc: WccData::default() },
        };
        let before = self.wcc_before(dir_ino);
        match self.vfs.link(file_ino, dir_ino, &args.link.name, ctx) {
            Ok(_) => LinkRes {
                status: NfsStat3::Ok,
                attr: self.post_attr(file_ino),
                dir_wcc: self.wcc(before, dir_ino),
            },
            Err(e) => LinkRes {
                status: e.into(),
                attr: self.post_attr(file_ino),
                dir_wcc: self.wcc(before, dir_ino),
            },
        }
    }

    fn readdir(&self, args: &ReaddirArgs, ctx: &UserContext) -> ReaddirRes {
        let dir_ino = match self.ino(&args.dir) {
            Ok(i) => i,
            Err(status) => {
                return ReaddirRes {
                    status,
                    dir_attr: None,
                    cookieverf: 0,
                    entries: Vec::new(),
                    eof: false,
                }
            }
        };
        match self.vfs.readdir(dir_ino, ctx) {
            Ok(all) => {
                let mut entries = Vec::new();
                let mut bytes = 0usize;
                let mut eof = true;
                for e in all.into_iter().filter(|e| e.cookie > args.cookie) {
                    bytes += 24 + e.name.len();
                    if bytes > args.count as usize && !entries.is_empty() {
                        eof = false;
                        break;
                    }
                    entries.push(Entry3 { fileid: e.ino, name: e.name, cookie: e.cookie });
                }
                ReaddirRes {
                    status: NfsStat3::Ok,
                    dir_attr: self.post_attr(dir_ino),
                    cookieverf: 0,
                    entries,
                    eof,
                }
            }
            Err(e) => ReaddirRes {
                status: e.into(),
                dir_attr: self.post_attr(dir_ino),
                cookieverf: 0,
                entries: Vec::new(),
                eof: false,
            },
        }
    }

    fn readdirplus(&self, args: &ReaddirPlusArgs, ctx: &UserContext) -> ReaddirPlusRes {
        let dir_ino = match self.ino(&args.dir) {
            Ok(i) => i,
            Err(status) => {
                return ReaddirPlusRes {
                    status,
                    dir_attr: None,
                    cookieverf: 0,
                    entries: Vec::new(),
                    eof: false,
                }
            }
        };
        match self.vfs.readdir(dir_ino, ctx) {
            Ok(all) => {
                let mut entries = Vec::new();
                let mut bytes = 0usize;
                let mut eof = true;
                for e in all.into_iter().filter(|e| e.cookie > args.cookie) {
                    bytes += 200 + e.name.len();
                    if bytes > args.maxcount as usize && !entries.is_empty() {
                        eof = false;
                        break;
                    }
                    entries.push(EntryPlus3 {
                        fileid: e.ino,
                        name: e.name,
                        cookie: e.cookie,
                        attr: self.post_attr(e.ino),
                        handle: Some(Fh3::from_ino(self.fsid, e.ino)),
                    });
                }
                ReaddirPlusRes {
                    status: NfsStat3::Ok,
                    dir_attr: self.post_attr(dir_ino),
                    cookieverf: 0,
                    entries,
                    eof,
                }
            }
            Err(e) => ReaddirPlusRes {
                status: e.into(),
                dir_attr: self.post_attr(dir_ino),
                cookieverf: 0,
                entries: Vec::new(),
                eof: false,
            },
        }
    }

    fn fsstat(&self, fh: &Fh3) -> FsStatRes {
        let ino = match self.ino(fh) {
            Ok(i) => i,
            Err(status) => {
                return FsStatRes {
                    status,
                    attr: None,
                    tbytes: 0,
                    fbytes: 0,
                    abytes: 0,
                    tfiles: 0,
                    ffiles: 0,
                }
            }
        };
        let (used, files) = self.vfs.statfs();
        let total: u64 = 1 << 40;
        FsStatRes {
            status: NfsStat3::Ok,
            attr: self.post_attr(ino),
            tbytes: total,
            fbytes: total - used,
            abytes: total - used,
            tfiles: 1 << 20,
            ffiles: (1 << 20) - files,
        }
    }

    fn fsinfo(&self, fh: &Fh3) -> FsInfoRes {
        let attr = self.ino(fh).ok().and_then(|i| self.post_attr(i));
        FsInfoRes {
            status: NfsStat3::Ok,
            attr,
            // 32 KB read/write sizes — the paper's experimental setting.
            rtmax: 32 * 1024,
            rtpref: 32 * 1024,
            wtmax: 32 * 1024,
            wtpref: 32 * 1024,
            dtpref: 8 * 1024,
            maxfilesize: u64::MAX / 2,
        }
    }

    fn pathconf(&self, fh: &Fh3) -> PathConfRes {
        let attr = self.ino(fh).ok().and_then(|i| self.post_attr(i));
        PathConfRes { status: NfsStat3::Ok, attr, linkmax: 32000, name_max: 255 }
    }

    fn commit(&self, args: &CommitArgs) -> CommitRes {
        let ino = match self.ino(&args.file) {
            Ok(i) => i,
            Err(status) => {
                return CommitRes { status, wcc: WccData::default(), verf: self.write_verf }
            }
        };
        // All writes are already durable in the in-memory store.
        CommitRes {
            status: NfsStat3::Ok,
            wcc: WccData { before: None, after: self.post_attr(ino) },
            verf: self.write_verf,
        }
    }
}

/// Bytes of a successful READ result besides the data: status, post-op
/// attributes, count, eof, the opaque length and its padding.
const READ_RES_FIXED: usize = 4 + 4 + 84 + 4 + 4 + 4 + 3;

/// Decode args and run the body, mapping decode failures to GarbageArgs.
fn with_args<A: XdrDecode, R: XdrEncode>(
    args: &mut XdrDecoder<'_>,
    f: impl FnOnce(A) -> R,
) -> Dispatch {
    match A::decode(args) {
        Ok(a) => Dispatch::reply(&f(a)),
        Err(_) => Dispatch::Error(AcceptStat::GarbageArgs),
    }
}

impl RpcService for NfsServer {
    fn program(&self) -> u32 {
        NFS_PROGRAM
    }

    fn version(&self) -> u32 {
        NFS_VERSION
    }

    fn handle(&self, proc: u32, cred: &OpaqueAuth, args: &mut XdrDecoder<'_>) -> Dispatch {
        let ctx = self.ctx_from_cred(cred);
        match proc {
            procnum::NULL => Dispatch::reply(&NoArgs),
            procnum::GETATTR => with_args(args, |fh: Fh3| self.getattr(&fh)),
            procnum::SETATTR => with_args(args, |a: SetAttrArgs| self.setattr(&a, &ctx)),
            procnum::LOOKUP => with_args(args, |a: DirOpArgs3| self.lookup(&a, &ctx)),
            procnum::ACCESS => with_args(args, |a: AccessArgs| self.access(&a, &ctx)),
            procnum::READLINK => with_args(args, |fh: Fh3| self.readlink(&fh)),
            procnum::READ => match ReadArgs::decode(args) {
                Ok(a) => self.read(&a, &ctx),
                Err(_) => Dispatch::Error(AcceptStat::GarbageArgs),
            },
            procnum::WRITE => match WriteArgsRef::decode(args) {
                Ok(a) => Dispatch::reply(&self.write(&a, &ctx)),
                Err(_) => Dispatch::Error(AcceptStat::GarbageArgs),
            },
            procnum::CREATE => with_args(args, |a: CreateArgs| self.create(&a, &ctx)),
            procnum::MKDIR => with_args(args, |a: MkdirArgs| self.mkdir(&a, &ctx)),
            procnum::SYMLINK => with_args(args, |a: SymlinkArgs| self.symlink(&a, &ctx)),
            procnum::MKNOD => Dispatch::reply(&CreateRes {
                status: NfsStat3::NotSupp,
                obj: None,
                obj_attr: None,
                dir_wcc: WccData::default(),
            }),
            procnum::REMOVE => with_args(args, |a: DirOpArgs3| self.remove(&a, &ctx, false)),
            procnum::RMDIR => with_args(args, |a: DirOpArgs3| self.remove(&a, &ctx, true)),
            procnum::RENAME => with_args(args, |a: RenameArgs| self.rename(&a, &ctx)),
            procnum::LINK => with_args(args, |a: LinkArgs| self.link(&a, &ctx)),
            procnum::READDIR => with_args(args, |a: ReaddirArgs| self.readdir(&a, &ctx)),
            procnum::READDIRPLUS => with_args(args, |a: ReaddirPlusArgs| self.readdirplus(&a, &ctx)),
            procnum::FSSTAT => with_args(args, |fh: Fh3| self.fsstat(&fh)),
            procnum::FSINFO => with_args(args, |fh: Fh3| self.fsinfo(&fh)),
            procnum::PATHCONF => with_args(args, |fh: Fh3| self.pathconf(&fh)),
            procnum::COMMIT => with_args(args, |a: CommitArgs| self.commit(&a)),
            _ => Dispatch::Error(AcceptStat::ProcUnavail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exports::ExportEntry;
    use sgfs_nfs3::Nfs3Client;
    use sgfs_oncrpc::msg::AuthSysParams;
    use sgfs_oncrpc::LoopbackStream;
    use sgfs_vfs::ROOT_INO;

    fn testbed() -> (Arc<NfsServer>, Nfs3Client, Fh3) {
        let vfs = Arc::new(Vfs::new());
        vfs.mkdir_p("/GFS", 0o777, &UserContext::root()).unwrap();
        let mut exports = Exports::new();
        exports.add(ExportEntry::localhost("/GFS"));
        let server = NfsServer::new(vfs, exports);
        let root = server.mount("/GFS", "localhost").unwrap();
        let mut client = Nfs3Client::new(Box::new(LoopbackStream::new(server.clone())));
        client.set_cred(OpaqueAuth::sys(&AuthSysParams::new("client", 1000, 1000)));
        (server, client, root)
    }

    #[test]
    fn mount_respects_exports() {
        let (server, _c, _root) = testbed();
        assert!(server.mount("/GFS", "localhost").is_some());
        assert!(server.mount("/GFS", "remote").is_none());
        assert!(server.mount("/etc", "localhost").is_none());
    }

    #[test]
    fn full_file_lifecycle() {
        let (_s, mut c, root) = testbed();
        c.null().unwrap();
        let (fh, attr) = c.create(&root, "data.bin", Sattr3::default()).unwrap();
        assert_eq!(attr.unwrap().ftype, FType3::Reg);

        let payload: Vec<u8> = (0..100_000).map(|i| (i % 256) as u8).collect();
        let mut off = 0u64;
        for chunk in payload.chunks(32 * 1024) {
            let res = c.write(&fh, off, chunk, StableHow::Unstable).unwrap();
            assert_eq!(res.count as usize, chunk.len());
            off += chunk.len() as u64;
        }
        c.commit(&fh, 0, 0).unwrap();

        assert_eq!(c.getattr(&fh).unwrap().size, payload.len() as u64);
        let mut got = Vec::new();
        let mut off = 0u64;
        loop {
            let r = c.read(&fh, off, 32 * 1024).unwrap();
            got.extend_from_slice(&r.data);
            off += r.count as u64;
            if r.eof {
                break;
            }
        }
        assert_eq!(got, payload);

        c.remove(&root, "data.bin").unwrap();
        match c.getattr(&fh) {
            Err(Nfs3Error::Status(NfsStat3::Stale)) => {}
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    use sgfs_nfs3::Nfs3Error;

    #[test]
    fn directories_and_readdir() {
        let (_s, mut c, root) = testbed();
        let (sub, _) = c.mkdir(&root, "sub", Sattr3::default()).unwrap();
        for name in ["a", "b", "c"] {
            c.create(&sub, name, Sattr3::default()).unwrap();
        }
        let res = c.readdir(&sub, 0, 0, 4096).unwrap();
        assert!(res.eof);
        let names: Vec<_> = res.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec![".", "..", "a", "b", "c"]);

        // Chunked listing with a tiny count.
        let first = c.readdir(&sub, 0, 0, 60).unwrap();
        assert!(!first.eof);
        assert!(!first.entries.is_empty());
        let cookie = first.entries.last().unwrap().cookie;
        let rest = c.readdir(&sub, cookie, 0, 4096).unwrap();
        assert!(rest.eof);
        assert_eq!(
            first.entries.len() + rest.entries.len(),
            5,
            "chunks cover everything exactly once"
        );
    }

    #[test]
    fn readdirplus_carries_handles() {
        let (_s, mut c, root) = testbed();
        c.create(&root, "x", Sattr3::default()).unwrap();
        let res = c.readdirplus(&root, 0, 0, 64 * 1024).unwrap();
        let x = res.entries.iter().find(|e| e.name == "x").unwrap();
        let fh = x.handle.clone().unwrap();
        assert_eq!(c.getattr(&fh).unwrap().ftype, FType3::Reg);
        assert!(x.attr.is_some());
    }

    #[test]
    fn lookup_and_errors() {
        let (_s, mut c, root) = testbed();
        match c.lookup(&root, "missing") {
            Err(Nfs3Error::Status(NfsStat3::NoEnt)) => {}
            other => panic!("{other:?}"),
        }
        let bogus = Fh3::from_ino(1, 9999);
        match c.getattr(&bogus) {
            Err(Nfs3Error::Status(NfsStat3::Stale)) => {}
            other => panic!("{other:?}"),
        }
        let wrong_fsid = Fh3::from_ino(42, ROOT_INO);
        match c.getattr(&wrong_fsid) {
            Err(Nfs3Error::Status(NfsStat3::Stale)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rename_link_symlink() {
        let (_s, mut c, root) = testbed();
        let (fh, _) = c.create(&root, "orig", Sattr3::default()).unwrap();
        c.write(&fh, 0, b"payload", StableHow::FileSync).unwrap();
        c.rename(&root, "orig", &root, "renamed").unwrap();
        let (fh2, _) = c.lookup(&root, "renamed").unwrap();
        assert_eq!(fh2, fh);

        c.link(&fh, &root, "hardlink").unwrap();
        assert_eq!(c.getattr(&fh).unwrap().nlink, 2);

        let (lnk, _) = c.symlink(&root, "sym", "/GFS/renamed").unwrap();
        assert_eq!(c.readlink(&lnk).unwrap(), "/GFS/renamed");
    }

    #[test]
    fn access_and_permissions_respect_cred() {
        let (_s, mut c, root) = testbed();
        let (fh, _) = c.create(&root, "mine", Sattr3 { mode: Some(0o600), ..Default::default() })
            .unwrap();
        let granted = c.access(&fh, 0x3f).unwrap();
        assert_ne!(granted & 0x01, 0, "owner can read");

        // Another user cannot read the 0600 file.
        c.set_cred(OpaqueAuth::sys(&AuthSysParams::new("client", 2000, 2000)));
        let granted = c.access(&fh, 0x3f).unwrap();
        assert_eq!(granted, 0);
        match c.read(&fh, 0, 10) {
            Err(Nfs3Error::Status(NfsStat3::Acces)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn read_reply_is_sized_by_the_file_not_the_requested_count() {
        let (server, mut c, root) = testbed();
        let (fh, _) = c.create(&root, "small", Sattr3::default()).unwrap();
        c.write(&fh, 0, b"payload", StableHow::FileSync).unwrap();

        let r = c.read(&fh, 0, u32::MAX).unwrap();
        assert_eq!((r.count, r.eof, r.data.as_slice()), (7, true, &b"payload"[..]));

        let args = ReadArgs { file: fh, offset: 0, count: u32::MAX }.to_xdr_bytes();
        let cred = OpaqueAuth::sys(&AuthSysParams::new("client", 1000, 1000));
        match server.handle(procnum::READ, &cred, &mut XdrDecoder::new(&args)) {
            Dispatch::Ok(reply) => assert!(
                reply.capacity() < 4096,
                "a 7-byte READ reserved {} bytes",
                reply.capacity()
            ),
            _ => panic!("READ of a readable file failed"),
        }
    }

    #[test]
    fn root_is_squashed() {
        let (_s, mut c, root) = testbed();
        c.set_cred(OpaqueAuth::sys(&AuthSysParams::new("client", 0, 0)));
        let (fh, attr) = c.create(&root, "as-root", Sattr3::default()).unwrap();
        assert_eq!(attr.unwrap().uid, NOBODY, "uid 0 squashed to nobody");
        let _ = fh;
    }

    #[test]
    fn setattr_truncate_via_rpc() {
        let (_s, mut c, root) = testbed();
        let (fh, _) = c.create(&root, "t", Sattr3::default()).unwrap();
        c.write(&fh, 0, vec![7u8; 100], StableHow::FileSync).unwrap();
        c.setattr(&fh, &Sattr3 { size: Some(10), ..Default::default() }).unwrap();
        assert_eq!(c.getattr(&fh).unwrap().size, 10);
    }

    #[test]
    fn fsinfo_reports_32k_transfer_sizes() {
        let (_s, mut c, root) = testbed();
        let info = c.fsinfo(&root).unwrap();
        assert_eq!(info.rtmax, 32 * 1024);
        assert_eq!(info.wtmax, 32 * 1024);
        let stat = c.fsstat(&root).unwrap();
        assert!(stat.fbytes > 0);
        let pc = c.pathconf(&root).unwrap();
        assert_eq!(pc.name_max, 255);
    }
}
