//! Upstream reconnection and NFSv3 replay classification.
//!
//! When the secure channel between the proxies dies with a transient
//! transport error, the pipeline obtains a fresh [`Upstream`] from a
//! [`Reconnector`] and replays the calls that were in flight — but only
//! those the NFSv3 retransmission rules make safe. The classification
//! below is the paper's cache-consistency stance applied to recovery:
//! retransmission safety *is* idempotency, and a WRITE is only idempotent
//! when it is `UNSTABLE` (the write-back layer re-sends and COMMITs it
//! under the write-verifier protocol anyway).

use crate::proxy::client::Upstream;
use crate::proxy::wire::success_body;
use sgfs_net::PipeWatch;
use sgfs_nfs3::proc::{procnum, WriteArgsRef};
use sgfs_nfs3::types::{NfsStat3, StableHow};
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_oncrpc::CallHeader;
use sgfs_xdr::{XdrDecode, XdrDecoder};
use std::io;

/// Factory for replacement upstream channels.
///
/// `attempt` counts dials within one recovery episode (0-based), letting
/// an implementation vary behaviour per attempt (a test injector refusing
/// the first N connects, for instance). For `Upstream::Tls` the
/// implementation must re-run the full GTLS handshake — a reconnect is a
/// new connection, not a resumption; with the resumable
/// [`GtlsHandshake`](sgfs_gtls::GtlsHandshake) machine that handshake is
/// driven inline on the calling thread, never on a transient one.
///
/// Alongside the stream, the reconnector returns the [`PipeWatch`] of the
/// *raw transport* underneath it: the pipeline's waiting callers learn
/// from it when the replacement channel has input, as they did from the
/// dead one's.
pub trait Reconnector: Send {
    /// Dial a fresh upstream. `ConnectionRefused` (and other transient
    /// kinds) are retried under the session's `RetryPolicy`; fatal kinds
    /// abort recovery.
    fn reconnect(&mut self, attempt: u32) -> io::Result<(Upstream, PipeWatch)>;
}

impl<F> Reconnector for F
where
    F: FnMut(u32) -> io::Result<(Upstream, PipeWatch)> + Send,
{
    fn reconnect(&mut self, attempt: u32) -> io::Result<(Upstream, PipeWatch)> {
        self(attempt)
    }
}

/// Whether an encoded NFSv3 call record may be retransmitted on a fresh
/// channel without risking duplicate side effects.
///
/// Pure reads and probes are always safe. WRITE is safe only when
/// `stable == UNSTABLE`: the data is not durable until a COMMIT whose
/// verifier is checked, so a duplicate arrival is absorbed by the
/// crash-recovery protocol. Everything that mutates the namespace
/// (CREATE/REMOVE/RENAME/…), stable WRITEs, SETATTR and COMMIT are not
/// replayed — a lost reply leaves us unable to tell whether the first
/// transmission executed.
pub fn replayable(record: &[u8]) -> bool {
    let mut dec = XdrDecoder::new(record);
    let Ok(header) = CallHeader::decode(&mut dec) else { return false };
    if header.prog != NFS_PROGRAM || header.vers != NFS_VERSION {
        return false;
    }
    match header.proc {
        procnum::NULL
        | procnum::GETATTR
        | procnum::LOOKUP
        | procnum::ACCESS
        | procnum::READLINK
        | procnum::READ
        | procnum::READDIR
        | procnum::READDIRPLUS
        | procnum::FSSTAT
        | procnum::FSINFO
        | procnum::PATHCONF => true,
        procnum::WRITE => matches!(
            WriteArgsRef::decode(&mut dec),
            Ok(args) if args.stable == StableHow::Unstable
        ),
        _ => false,
    }
}

/// Whether an accepted NFS reply carries `NFS3ERR_JUKEBOX` as its status.
///
/// JUKEBOX is a different retry axis from [`replayable`]: a lost reply
/// leaves the client unsure whether the call executed, so only idempotent
/// calls may be retransmitted — but JUKEBOX is the server *telling* the
/// client the call was never executed (it was shed at admission before
/// dispatch). A jukeboxed call is therefore safe to re-send verbatim,
/// non-idempotent procedures included; the caller should back off first,
/// since the status means the server is deliberately pushing load away.
///
/// Every NFSv3 result struct leads with its `nfsstat3`, so the check is
/// uniform: an RPC-accepted, RPC-successful reply whose first result word
/// is 10008. NULL replies have an empty body and never match.
pub fn is_jukebox_reply(reply: &[u8]) -> bool {
    let status = success_body(reply).map(|body| NfsStat3::decode(&mut XdrDecoder::new(body)));
    matches!(status, Some(Ok(NfsStat3::Jukebox)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgfs_nfs3::proc::WriteArgs;
    use sgfs_nfs3::types::Fh3;
    use sgfs_oncrpc::{AuthSysParams, OpaqueAuth, ReplyHeader};
    use sgfs_xdr::{XdrEncode, XdrEncoder};

    fn record(proc: u32, body: impl FnOnce(&mut XdrEncoder)) -> Vec<u8> {
        let header = CallHeader {
            xid: 7,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc,
            cred: OpaqueAuth::sys(&AuthSysParams::new("host", 1001, 1001)),
            verf: OpaqueAuth::none(),
        };
        let mut enc = XdrEncoder::with_capacity(128);
        header.encode(&mut enc);
        body(&mut enc);
        enc.into_bytes()
    }

    fn write_record(stable: StableHow) -> Vec<u8> {
        record(procnum::WRITE, |enc| {
            WriteArgs {
                file: Fh3::from_ino(1, 42),
                offset: 0,
                stable,
                data: vec![0u8; 16],
            }
            .encode(enc)
        })
    }

    #[test]
    fn reads_and_probes_are_replayable() {
        for proc in [
            procnum::NULL,
            procnum::GETATTR,
            procnum::LOOKUP,
            procnum::ACCESS,
            procnum::READLINK,
            procnum::READ,
            procnum::READDIR,
            procnum::READDIRPLUS,
            procnum::FSSTAT,
            procnum::FSINFO,
            procnum::PATHCONF,
        ] {
            assert!(replayable(&record(proc, |_| ())), "proc {proc}");
        }
    }

    #[test]
    fn mutations_are_not_replayable() {
        for proc in [
            procnum::SETATTR,
            procnum::CREATE,
            procnum::MKDIR,
            procnum::SYMLINK,
            procnum::MKNOD,
            procnum::REMOVE,
            procnum::RMDIR,
            procnum::RENAME,
            procnum::LINK,
            procnum::COMMIT,
        ] {
            assert!(!replayable(&record(proc, |_| ())), "proc {proc}");
        }
    }

    #[test]
    fn only_unstable_writes_are_replayable() {
        assert!(replayable(&write_record(StableHow::Unstable)));
        assert!(!replayable(&write_record(StableHow::DataSync)));
        assert!(!replayable(&write_record(StableHow::FileSync)));
    }

    fn reply_with_status(status: NfsStat3) -> Vec<u8> {
        let mut enc = XdrEncoder::with_capacity(64);
        ReplyHeader::success(9).encode(&mut enc);
        status.encode(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn jukebox_replies_are_detected() {
        assert!(is_jukebox_reply(&reply_with_status(NfsStat3::Jukebox)));
        assert!(!is_jukebox_reply(&reply_with_status(NfsStat3::Ok)));
        assert!(!is_jukebox_reply(&reply_with_status(NfsStat3::Acces)));
    }

    #[test]
    fn bodyless_or_garbled_replies_are_not_jukebox() {
        // NULL replies carry no result body at all.
        let null_reply = ReplyHeader::success(9).to_xdr_bytes();
        assert!(!is_jukebox_reply(&null_reply));
        assert!(!is_jukebox_reply(b"not an rpc reply"));
        assert!(!is_jukebox_reply(&[]));
    }

    #[test]
    fn foreign_or_garbled_records_are_not_replayable() {
        assert!(!replayable(b"not an rpc record"));
        assert!(!replayable(&[]));
        let mut wrong_prog = record(procnum::GETATTR, |_| ());
        wrong_prog[4 + 4 + 4 + 3] ^= 1; // flip a program-number bit
        assert!(!replayable(&wrong_prog));
    }
}
