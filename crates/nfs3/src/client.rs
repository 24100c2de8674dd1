//! Typed NFSv3 client stubs over any RPC transport.

use crate::proc::{procnum, *};
use crate::types::*;
use crate::{NFS_PROGRAM, NFS_VERSION};
use sgfs_net::BoxStream;
use sgfs_oncrpc::{OpaqueAuth, RpcClient, RpcError};

/// NFS client-side errors: RPC transport failures or NFS status codes.
#[derive(Debug)]
pub enum Nfs3Error {
    /// RPC-layer failure.
    Rpc(RpcError),
    /// The server returned a non-OK NFS status.
    Status(NfsStat3),
}

impl std::fmt::Display for Nfs3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Nfs3Error::Rpc(e) => write!(f, "NFS RPC error: {e}"),
            Nfs3Error::Status(s) => write!(f, "NFS error: {s:?}"),
        }
    }
}

impl std::error::Error for Nfs3Error {}

impl From<RpcError> for Nfs3Error {
    fn from(e: RpcError) -> Self {
        Nfs3Error::Rpc(e)
    }
}

/// Result alias.
pub type Nfs3Result<T> = Result<T, Nfs3Error>;

/// A typed NFSv3 client: one stub method per procedure.
pub struct Nfs3Client {
    rpc: RpcClient,
}

fn ok_status(status: NfsStat3) -> Nfs3Result<()> {
    if status == NfsStat3::Ok {
        Ok(())
    } else {
        Err(Nfs3Error::Status(status))
    }
}

impl Nfs3Client {
    /// Build over an established transport (plain, GTLS, or tunneled).
    pub fn new(stream: BoxStream) -> Self {
        Self { rpc: RpcClient::new(stream, NFS_PROGRAM, NFS_VERSION) }
    }

    /// Set the AUTH_SYS credential presented on each call.
    pub fn set_cred(&mut self, cred: OpaqueAuth) {
        self.rpc.set_cred(cred);
    }

    /// NULL — ping.
    pub fn null(&mut self) -> Nfs3Result<()> {
        self.rpc.null().map_err(Into::into)
    }

    /// GETATTR.
    pub fn getattr(&mut self, fh: &Fh3) -> Nfs3Result<Fattr3> {
        let res: GetAttrRes = self.rpc.call(procnum::GETATTR, fh)?;
        ok_status(res.status)?;
        Ok(res.attr.expect("OK GETATTR carries attributes"))
    }

    /// SETATTR.
    pub fn setattr(&mut self, fh: &Fh3, sattr: &Sattr3) -> Nfs3Result<WccData> {
        let args = SetAttrArgs { object: fh.clone(), new_attributes: sattr.clone() };
        let res: WccRes = self.rpc.call(procnum::SETATTR, &args)?;
        ok_status(res.status)?;
        Ok(res.wcc)
    }

    /// LOOKUP.
    pub fn lookup(&mut self, dir: &Fh3, name: &str) -> Nfs3Result<(Fh3, PostOpAttr)> {
        let args = DirOpArgs3 { dir: dir.clone(), name: name.into() };
        let res: LookupRes = self.rpc.call(procnum::LOOKUP, &args)?;
        ok_status(res.status)?;
        Ok((res.object.expect("OK LOOKUP carries a handle"), res.obj_attr))
    }

    /// ACCESS.
    pub fn access(&mut self, fh: &Fh3, mask: u32) -> Nfs3Result<u32> {
        let args = AccessArgs { object: fh.clone(), access: mask };
        let res: AccessRes = self.rpc.call(procnum::ACCESS, &args)?;
        ok_status(res.status)?;
        Ok(res.access)
    }

    /// READLINK.
    pub fn readlink(&mut self, fh: &Fh3) -> Nfs3Result<String> {
        let res: ReadlinkRes = self.rpc.call(procnum::READLINK, fh)?;
        ok_status(res.status)?;
        Ok(res.path)
    }

    /// READ.
    pub fn read(&mut self, fh: &Fh3, offset: u64, count: u32) -> Nfs3Result<ReadRes> {
        let args = ReadArgs { file: fh.clone(), offset, count };
        let res: ReadRes = self.rpc.call(procnum::READ, &args)?;
        ok_status(res.status)?;
        Ok(res)
    }

    /// WRITE, encoded straight from `data`.
    pub fn write(
        &mut self,
        fh: &Fh3,
        offset: u64,
        data: impl AsRef<[u8]>,
        stable: StableHow,
    ) -> Nfs3Result<WriteRes> {
        let args = WriteArgsRef { file: fh.clone(), offset, stable, data: data.as_ref() };
        let res: WriteRes = self.rpc.call(procnum::WRITE, &args)?;
        ok_status(res.status)?;
        Ok(res)
    }

    /// CREATE (unchecked by default).
    pub fn create(&mut self, dir: &Fh3, name: &str, attrs: Sattr3) -> Nfs3Result<(Fh3, PostOpAttr)> {
        self.create_how(dir, name, CreateMode::Unchecked(attrs))
    }

    /// CREATE with an explicit mode.
    pub fn create_how(&mut self, dir: &Fh3, name: &str, how: CreateMode) -> Nfs3Result<(Fh3, PostOpAttr)> {
        let args = CreateArgs { where_: DirOpArgs3 { dir: dir.clone(), name: name.into() }, how };
        let res: CreateRes = self.rpc.call(procnum::CREATE, &args)?;
        ok_status(res.status)?;
        Ok((res.obj.ok_or(Nfs3Error::Status(NfsStat3::ServerFault))?, res.obj_attr))
    }

    /// MKDIR.
    pub fn mkdir(&mut self, dir: &Fh3, name: &str, attrs: Sattr3) -> Nfs3Result<(Fh3, PostOpAttr)> {
        let args = MkdirArgs {
            where_: DirOpArgs3 { dir: dir.clone(), name: name.into() },
            attributes: attrs,
        };
        let res: CreateRes = self.rpc.call(procnum::MKDIR, &args)?;
        ok_status(res.status)?;
        Ok((res.obj.ok_or(Nfs3Error::Status(NfsStat3::ServerFault))?, res.obj_attr))
    }

    /// SYMLINK.
    pub fn symlink(&mut self, dir: &Fh3, name: &str, target: &str) -> Nfs3Result<(Fh3, PostOpAttr)> {
        let args = SymlinkArgs {
            where_: DirOpArgs3 { dir: dir.clone(), name: name.into() },
            attributes: Sattr3::default(),
            target: target.into(),
        };
        let res: CreateRes = self.rpc.call(procnum::SYMLINK, &args)?;
        ok_status(res.status)?;
        Ok((res.obj.ok_or(Nfs3Error::Status(NfsStat3::ServerFault))?, res.obj_attr))
    }

    /// REMOVE.
    pub fn remove(&mut self, dir: &Fh3, name: &str) -> Nfs3Result<WccData> {
        let args = DirOpArgs3 { dir: dir.clone(), name: name.into() };
        let res: WccRes = self.rpc.call(procnum::REMOVE, &args)?;
        ok_status(res.status)?;
        Ok(res.wcc)
    }

    /// RMDIR.
    pub fn rmdir(&mut self, dir: &Fh3, name: &str) -> Nfs3Result<WccData> {
        let args = DirOpArgs3 { dir: dir.clone(), name: name.into() };
        let res: WccRes = self.rpc.call(procnum::RMDIR, &args)?;
        ok_status(res.status)?;
        Ok(res.wcc)
    }

    /// RENAME.
    pub fn rename(&mut self, from_dir: &Fh3, from: &str, to_dir: &Fh3, to: &str) -> Nfs3Result<()> {
        let args = RenameArgs {
            from: DirOpArgs3 { dir: from_dir.clone(), name: from.into() },
            to: DirOpArgs3 { dir: to_dir.clone(), name: to.into() },
        };
        let res: RenameRes = self.rpc.call(procnum::RENAME, &args)?;
        ok_status(res.status)
    }

    /// LINK.
    pub fn link(&mut self, file: &Fh3, dir: &Fh3, name: &str) -> Nfs3Result<PostOpAttr> {
        let args = LinkArgs {
            file: file.clone(),
            link: DirOpArgs3 { dir: dir.clone(), name: name.into() },
        };
        let res: LinkRes = self.rpc.call(procnum::LINK, &args)?;
        ok_status(res.status)?;
        Ok(res.attr)
    }

    /// READDIR (one chunk; loop on `eof`/cookies for large directories).
    pub fn readdir(&mut self, dir: &Fh3, cookie: u64, cookieverf: u64, count: u32) -> Nfs3Result<ReaddirRes> {
        let args = ReaddirArgs { dir: dir.clone(), cookie, cookieverf, count };
        let res: ReaddirRes = self.rpc.call(procnum::READDIR, &args)?;
        ok_status(res.status)?;
        Ok(res)
    }

    /// READDIRPLUS (one chunk).
    pub fn readdirplus(
        &mut self,
        dir: &Fh3,
        cookie: u64,
        cookieverf: u64,
        maxcount: u32,
    ) -> Nfs3Result<ReaddirPlusRes> {
        let args = ReaddirPlusArgs {
            dir: dir.clone(),
            cookie,
            cookieverf,
            dircount: maxcount / 4,
            maxcount,
        };
        let res: ReaddirPlusRes = self.rpc.call(procnum::READDIRPLUS, &args)?;
        ok_status(res.status)?;
        Ok(res)
    }

    /// FSSTAT.
    pub fn fsstat(&mut self, root: &Fh3) -> Nfs3Result<FsStatRes> {
        let res: FsStatRes = self.rpc.call(procnum::FSSTAT, root)?;
        ok_status(res.status)?;
        Ok(res)
    }

    /// FSINFO.
    pub fn fsinfo(&mut self, root: &Fh3) -> Nfs3Result<FsInfoRes> {
        let res: FsInfoRes = self.rpc.call(procnum::FSINFO, root)?;
        ok_status(res.status)?;
        Ok(res)
    }

    /// PATHCONF.
    pub fn pathconf(&mut self, fh: &Fh3) -> Nfs3Result<PathConfRes> {
        let res: PathConfRes = self.rpc.call(procnum::PATHCONF, fh)?;
        ok_status(res.status)?;
        Ok(res)
    }

    /// COMMIT.
    pub fn commit(&mut self, fh: &Fh3, offset: u64, count: u32) -> Nfs3Result<CommitRes> {
        let args = CommitArgs { file: fh.clone(), offset, count };
        let res: CommitRes = self.rpc.call(procnum::COMMIT, &args)?;
        ok_status(res.status)?;
        Ok(res)
    }
}
