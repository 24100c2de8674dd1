//! The NFSv3 wire as both proxies read and write it: one reading of a
//! call ([`nfs_call`], [`Call`]), one reply writer ([`encode_reply`]), one
//! failure-reply table ([`failure`]) and the readers of a reply
//! ([`success_body`], [`decode_reply`]).

use sgfs_nfs3::proc::{procnum, *};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_oncrpc::{AcceptStat, CallHeader, OpaqueAuth, ReplyHeader};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};

/// An NFSv3 call record's header and argument bytes, or the RPC-level
/// error reply a record that is not one gets.
pub(crate) fn nfs_call(record: &[u8]) -> Result<(CallHeader, &[u8]), Vec<u8>> {
    let mut dec = XdrDecoder::new(record);
    let header =
        CallHeader::decode(&mut dec).map_err(|_| accept_error(0, AcceptStat::GarbageArgs))?;
    if header.prog != NFS_PROGRAM || header.vers != NFS_VERSION {
        return Err(accept_error(header.xid, AcceptStat::ProgUnavail));
    }
    Ok((header, &record[dec.position()..]))
}

/// A call's arguments as far as either proxy reads them, decoded once.
/// READ and WRITE are never decoded here: the data path peeks at them.
pub(crate) enum Call {
    GetAttr(Fh3),
    /// The arguments and the caller's uid.
    Access(AccessArgs, u32),
    Lookup(DirOpArgs3),
    /// Directory, cookie, and whether the listing is READDIRPLUS.
    Readdir(Fh3, u64, bool),
    SetAttr(SetAttrArgs),
    /// CREATE, SYMLINK or MKNOD: the name made, and how a CREATE makes it.
    Create(DirOpArgs3, Option<CreateMode>),
    /// MKDIR: the name made, a directory known completely once made, and
    /// its attributes.
    Mkdir(DirOpArgs3, Sattr3),
    /// REMOVE, or RMDIR when the flag is set.
    Remove(DirOpArgs3, bool),
    Rename(RenameArgs),
    Link(LinkArgs),
    /// Anything neither proxy answers nor learns from.
    Other,
}

impl Call {
    pub(crate) fn decode(proc: u32, args: &[u8], cred: &OpaqueAuth) -> Self {
        let call = match proc {
            procnum::GETATTR => Fh3::from_xdr_bytes(args).map(Call::GetAttr),
            procnum::ACCESS => {
                AccessArgs::from_xdr_bytes(args).map(|a| Call::Access(a, uid_of(cred)))
            }
            procnum::LOOKUP => DirOpArgs3::from_xdr_bytes(args).map(Call::Lookup),
            procnum::READDIR => {
                ReaddirArgs::from_xdr_bytes(args).map(|a| Call::Readdir(a.dir, a.cookie, false))
            }
            procnum::READDIRPLUS => {
                ReaddirPlusArgs::from_xdr_bytes(args).map(|a| Call::Readdir(a.dir, a.cookie, true))
            }
            procnum::SETATTR => SetAttrArgs::from_xdr_bytes(args).map(Call::SetAttr),
            procnum::CREATE => {
                CreateArgs::from_xdr_bytes(args).map(|a| Call::Create(a.where_, Some(a.how)))
            }
            procnum::MKDIR => {
                MkdirArgs::from_xdr_bytes(args).map(|a| Call::Mkdir(a.where_, a.attributes))
            }
            procnum::SYMLINK => {
                SymlinkArgs::from_xdr_bytes(args).map(|a| Call::Create(a.where_, None))
            }
            // Only the leading `where` is read; the node's type follows.
            procnum::MKNOD => {
                DirOpArgs3::decode(&mut XdrDecoder::new(args)).map(|w| Call::Create(w, None))
            }
            procnum::REMOVE | procnum::RMDIR => {
                let rmdir = proc == procnum::RMDIR;
                DirOpArgs3::from_xdr_bytes(args).map(|w| Call::Remove(w, rmdir))
            }
            procnum::RENAME => RenameArgs::from_xdr_bytes(args).map(Call::Rename),
            procnum::LINK => LinkArgs::from_xdr_bytes(args).map(Call::Link),
            _ => return Call::Other,
        };
        call.unwrap_or(Call::Other)
    }

    /// Every name the call makes, looks up or unlinks: both of a RENAME's,
    /// a LINK's new one.
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> {
        let (first, second) = match self {
            Call::Lookup(w) | Call::Create(w, _) | Call::Mkdir(w, _) | Call::Remove(w, _) => {
                (Some(w), None)
            }
            Call::Rename(a) => (Some(&a.from), Some(&a.to)),
            Call::Link(a) => (Some(&a.link), None),
            _ => (None, None),
        };
        first.into_iter().chain(second).map(|w| w.name.as_str())
    }
}

/// The uid a call's credential claims; `u32::MAX` for one without.
pub(crate) fn uid_of(cred: &OpaqueAuth) -> u32 {
    cred.as_sys().map(|s| s.uid).unwrap_or(u32::MAX)
}

/// Result bytes already in XDR form, such as a cached listing.
pub(crate) struct Encoded<'a>(pub(crate) &'a [u8]);

impl XdrEncode for Encoded<'_> {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_fixed_opaque(self.0);
    }
}

/// The accepted-success reply to call `xid`: the header, then `result`.
pub(crate) fn encode_reply<T: XdrEncode + ?Sized>(xid: u32, result: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(128);
    ReplyHeader::success(xid).encode(&mut enc);
    result.encode(&mut enc);
    enc.into_bytes()
}

/// An RPC-level accepted-error reply.
pub(crate) fn accept_error(xid: u32, stat: AcceptStat) -> Vec<u8> {
    ReplyHeader::Accepted { xid, verf: OpaqueAuth::none(), stat }.to_xdr_bytes()
}

/// The reply of a `proc` call that failed with `status`: the failure arm
/// of the procedure's result, every attribute it may carry left out. A
/// procedure without a status (NULL, an unknown number) gets SYSTEM_ERR
/// at the RPC level instead.
pub(crate) fn failure(xid: u32, proc: u32, status: NfsStat3) -> Vec<u8> {
    // A post_op_attr is one word, a wcc_data two.
    let absent = match proc {
        procnum::GETATTR => 0,
        procnum::LOOKUP | procnum::ACCESS | procnum::READLINK | procnum::READ => 1,
        procnum::READDIR | procnum::READDIRPLUS => 1,
        procnum::FSSTAT | procnum::FSINFO | procnum::PATHCONF => 1,
        procnum::SETATTR | procnum::WRITE | procnum::COMMIT => 2,
        procnum::CREATE | procnum::MKDIR | procnum::SYMLINK | procnum::MKNOD => 2,
        procnum::REMOVE | procnum::RMDIR => 2,
        procnum::LINK => 3,
        procnum::RENAME => 4,
        _ => return accept_error(xid, AcceptStat::SystemErr),
    };
    let mut body = status.to_xdr_bytes();
    body.resize(4 * (1 + absent), 0);
    encode_reply(xid, &Encoded(&body))
}

/// The result bytes of an accepted-success reply, if that is what it is.
pub(crate) fn success_body(reply: &[u8]) -> Option<&[u8]> {
    let mut dec = XdrDecoder::new(reply);
    match ReplyHeader::decode(&mut dec) {
        Ok(ReplyHeader::Accepted { stat: AcceptStat::Success, .. }) => {
            Some(&reply[dec.position()..])
        }
        _ => None,
    }
}

/// Decode the result body of an accepted-success reply record.
pub(crate) fn decode_reply<T: XdrDecode>(reply: &[u8]) -> std::io::Result<T> {
    success_body(reply)
        .and_then(|body| T::from_xdr_bytes(body).ok())
        .ok_or_else(|| std::io::Error::other("upstream reply rejected or malformed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The status of `body` read as `proc`'s result, which must take the
    /// whole body.
    fn status_of(proc: u32, body: &[u8]) -> sgfs_xdr::XdrResult<NfsStat3> {
        Ok(match proc {
            procnum::GETATTR => GetAttrRes::from_xdr_bytes(body)?.status,
            procnum::SETATTR | procnum::REMOVE | procnum::RMDIR => {
                WccRes::from_xdr_bytes(body)?.status
            }
            procnum::LOOKUP => LookupRes::from_xdr_bytes(body)?.status,
            procnum::ACCESS => AccessRes::from_xdr_bytes(body)?.status,
            procnum::READLINK => ReadlinkRes::from_xdr_bytes(body)?.status,
            procnum::READ => ReadRes::from_xdr_bytes(body)?.status,
            procnum::WRITE => WriteRes::from_xdr_bytes(body)?.status,
            procnum::CREATE | procnum::MKDIR | procnum::SYMLINK | procnum::MKNOD => {
                CreateRes::from_xdr_bytes(body)?.status
            }
            procnum::RENAME => RenameRes::from_xdr_bytes(body)?.status,
            procnum::LINK => LinkRes::from_xdr_bytes(body)?.status,
            procnum::READDIR => ReaddirRes::from_xdr_bytes(body)?.status,
            procnum::READDIRPLUS => ReaddirPlusRes::from_xdr_bytes(body)?.status,
            procnum::FSSTAT => FsStatRes::from_xdr_bytes(body)?.status,
            procnum::FSINFO => FsInfoRes::from_xdr_bytes(body)?.status,
            procnum::PATHCONF => PathConfRes::from_xdr_bytes(body)?.status,
            procnum::COMMIT => CommitRes::from_xdr_bytes(body)?.status,
            _ => unreachable!("procedure {proc}"),
        })
    }

    #[test]
    fn every_failure_reply_is_its_procedures_result_with_that_status() {
        for proc in procnum::GETATTR..=procnum::COMMIT {
            for status in [NfsStat3::Jukebox, NfsStat3::Acces, NfsStat3::Io] {
                let reply = failure(0x5eed, proc, status);
                assert_eq!(sgfs_obs::peek_xid(&reply), 0x5eed);
                let body = success_body(&reply).expect("an accepted success");
                let got = status_of(proc, body);
                assert_eq!(got, Ok(status), "procedure {proc}, {status:?}");
            }
        }
    }

    #[test]
    fn a_procedure_without_a_status_fails_at_the_rpc_level() {
        for proc in [procnum::NULL, procnum::COMMIT + 1, u32::MAX] {
            let reply = failure(9, proc, NfsStat3::Io);
            assert_eq!(reply, accept_error(9, AcceptStat::SystemErr), "procedure {proc}");
        }
    }

    #[test]
    fn the_shield_reads_every_name_a_call_makes_looks_up_or_unlinks() {
        let cred = OpaqueAuth::none();
        let w = |name: &str| DirOpArgs3 { dir: Fh3::from_ino(1, 2), name: name.into() };
        let names = |proc: u32, args: Vec<u8>| -> Vec<String> {
            Call::decode(proc, &args, &cred).names().map(String::from).collect()
        };
        // MKNOD's `where`, then a FIFO's type (NF3FIFO = 7) and attributes.
        let mut mknod = w("m").to_xdr_bytes();
        mknod.extend_from_slice(&7u32.to_xdr_bytes());
        mknod.extend_from_slice(&Sattr3::default().to_xdr_bytes());
        assert_eq!(names(procnum::MKNOD, mknod), ["m"]);
        let rename = RenameArgs { from: w("a"), to: w("b") }.to_xdr_bytes();
        assert_eq!(names(procnum::RENAME, rename), ["a", "b"]);
        let link = LinkArgs { file: Fh3::from_ino(1, 3), link: w("l") }.to_xdr_bytes();
        assert_eq!(names(procnum::LINK, link), ["l"]);
        assert_eq!(names(procnum::RMDIR, w("d").to_xdr_bytes()), ["d"]);
        assert!(names(procnum::GETATTR, Fh3::from_ino(1, 3).to_xdr_bytes()).is_empty());
    }
}
