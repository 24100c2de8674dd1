//! ONC RPC server dispatch: one call record in, one reply record out.
//! Connections are served by the shard core ([`crate::shard`]), in-process
//! backends by [`crate::loopback`].

use crate::msg::{AcceptStat, AuthStat, CallHeader, OpaqueAuth, ReplyHeader};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};

/// Bytes of an accepted-success reply header with an `AUTH_NONE`
/// verifier ([`ReplyHeader::success`]): the headroom a result encoded by
/// [`Dispatch::reply`] or into a [`Dispatch::encoder`] keeps in front.
pub const REPLY_HEADROOM: usize = 24;

/// Outcome of dispatching one procedure.
pub enum Dispatch {
    /// Success: [`REPLY_HEADROOM`] reserved bytes, then the XDR result, as
    /// [`Dispatch::reply`] and [`Dispatch::encoder`] build it. The reply
    /// header is written into the headroom, so the result is never copied.
    Ok(Vec<u8>),
    /// Accepted-but-failed (e.g. `ProcUnavail`, `GarbageArgs`).
    Error(AcceptStat),
    /// Rejected at the auth layer (unauthorized grid user, bad cred).
    Deny(AuthStat),
}

impl Dispatch {
    /// Encode `v` as a successful result.
    pub fn reply<T: XdrEncode>(v: &T) -> Self {
        let mut enc = Self::encoder(256);
        v.encode(&mut enc);
        Dispatch::Ok(enc.into_bytes())
    }

    /// An encoder for a successful result of about `cap` bytes, positioned
    /// behind the reply header's headroom; wrap what it encodes in
    /// [`Dispatch::Ok`].
    pub fn encoder(cap: usize) -> XdrEncoder {
        let mut buf = Vec::with_capacity(REPLY_HEADROOM + cap);
        buf.resize(REPLY_HEADROOM, 0);
        XdrEncoder::from_vec(buf)
    }
}

/// A program implementation the server loop dispatches into.
///
/// One service handles exactly one (program, version); SGFS proxies
/// implement this to intercept NFS calls, and `sgfs-nfsd` implements it
/// as the terminal NFS server.
pub trait RpcService: Send + Sync {
    /// Program number served.
    fn program(&self) -> u32;
    /// Version served.
    fn version(&self) -> u32;
    /// Execute procedure `proc` with `args` positioned after the call
    /// header. `cred` is the caller's credential.
    fn handle(&self, proc: u32, cred: &OpaqueAuth, args: &mut XdrDecoder<'_>) -> Dispatch;
}

/// Decode one call record and produce the full reply record.
///
/// Exposed so proxies can reuse the exact server-side framing when they
/// terminate calls themselves (e.g. ACCESS interception).
pub fn process_record(record: &[u8], service: &dyn RpcService) -> Vec<u8> {
    let mut dec = XdrDecoder::new(record);
    let header = match CallHeader::decode(&mut dec) {
        Ok(h) => h,
        Err(_) => {
            // Can't even find an xid; best effort xid 0 garbage reply.
            let hdr = ReplyHeader::Accepted {
                xid: 0,
                verf: OpaqueAuth::none(),
                stat: AcceptStat::GarbageArgs,
            };
            return hdr.to_xdr_bytes();
        }
    };
    let reply = if header.prog != service.program() {
        Dispatch::Error(AcceptStat::ProgUnavail)
    } else if header.vers != service.version() {
        Dispatch::Error(AcceptStat::ProgMismatch)
    } else {
        service.handle(header.proc, &header.cred, &mut dec)
    };

    let mut enc = XdrEncoder::with_capacity(64);
    match reply {
        Dispatch::Ok(mut out) => {
            ReplyHeader::success(header.xid).encode(&mut enc);
            // An AUTH_NONE verifier has no body: the header is always
            // exactly the headroom the encoder reserved.
            assert_eq!(enc.len(), REPLY_HEADROOM, "reply header outgrew its headroom");
            out[..REPLY_HEADROOM].copy_from_slice(enc.as_bytes());
            out
        }
        Dispatch::Error(stat) => {
            ReplyHeader::Accepted { xid: header.xid, verf: OpaqueAuth::none(), stat }
                .encode(&mut enc);
            enc.into_bytes()
        }
        Dispatch::Deny(stat) => {
            ReplyHeader::Denied { xid: header.xid, stat }.encode(&mut enc);
            enc.into_bytes()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use crate::{LoopbackStream, RpcError};
    use sgfs_net::pipe_pair;
    use sgfs_xdr::XdrResult;
    use std::sync::Arc;

    /// Test program: proc 1 doubles a u32; proc 2 echoes opaque data;
    /// proc 3 denies everyone.
    struct Doubler;

    impl RpcService for Doubler {
        fn program(&self) -> u32 {
            0x2000_0001
        }
        fn version(&self) -> u32 {
            1
        }
        fn handle(&self, proc: u32, _cred: &OpaqueAuth, args: &mut XdrDecoder<'_>) -> Dispatch {
            match proc {
                0 => Dispatch::reply(&crate::client::NoArgs),
                1 => match args.get_u32() {
                    Ok(v) => Dispatch::reply(&(v * 2)),
                    Err(_) => Dispatch::Error(AcceptStat::GarbageArgs),
                },
                2 => {
                    let data: XdrResult<Vec<u8>> = args.get_opaque();
                    match data {
                        Ok(d) => Dispatch::reply(&d),
                        Err(_) => Dispatch::Error(AcceptStat::GarbageArgs),
                    }
                }
                3 => Dispatch::Deny(AuthStat::TooWeak),
                _ => Dispatch::Error(AcceptStat::ProcUnavail),
            }
        }
    }

    fn connect(prog: u32, vers: u32) -> RpcClient {
        RpcClient::new(Box::new(LoopbackStream::new(Arc::new(Doubler))), prog, vers)
    }

    fn start() -> RpcClient {
        connect(0x2000_0001, 1)
    }

    #[test]
    fn null_call() {
        start().null().unwrap();
    }

    #[test]
    fn doubles_values() {
        let mut c = start();
        for v in [0u32, 1, 21, 1 << 30] {
            let r: u32 = c.call(1, &v).unwrap();
            assert_eq!(r, v.wrapping_mul(2));
        }
    }

    #[test]
    fn echo_large_payload() {
        let mut c = start();
        let data: Vec<u8> = (0..100_000).map(|i| (i % 256) as u8).collect();
        let r: Vec<u8> = c.call(2, &data).unwrap();
        assert_eq!(r, data);
    }

    #[test]
    fn many_sequential_calls_share_connection() {
        let mut c = start();
        for i in 0..500u32 {
            let r: u32 = c.call(1, &i).unwrap();
            assert_eq!(r, i * 2);
        }
    }

    #[test]
    fn unknown_procedure() {
        let mut c = start();
        match c.call_raw(42, &7u32) {
            Err(RpcError::Accepted(AcceptStat::ProcUnavail)) => {}
            other => panic!("expected ProcUnavail, got {other:?}"),
        }
    }

    #[test]
    fn wrong_program_number() {
        let mut c = connect(0x2000_9999, 1);
        match c.call_raw(1, &7u32) {
            Err(RpcError::Accepted(AcceptStat::ProgUnavail)) => {}
            other => panic!("expected ProgUnavail, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version() {
        let mut c = connect(0x2000_0001, 9);
        match c.call_raw(1, &7u32) {
            Err(RpcError::Accepted(AcceptStat::ProgMismatch)) => {}
            other => panic!("expected ProgMismatch, got {other:?}"),
        }
    }

    #[test]
    fn denied_call() {
        let mut c = start();
        match c.call_raw(3, &0u32) {
            Err(RpcError::Denied(AuthStat::TooWeak)) => {}
            other => panic!("expected Denied, got {other:?}"),
        }
    }

    #[test]
    fn garbage_args_reported() {
        let mut c = start();
        // proc 1 wants a u32; send nothing.
        match c.call_raw(1, &crate::client::NoArgs) {
            Err(RpcError::Accepted(AcceptStat::GarbageArgs)) => {}
            other => panic!("expected GarbageArgs, got {other:?}"),
        }
    }

    #[test]
    fn server_eof_reported() {
        let (client_end, server_end) = pipe_pair();
        drop(server_end);
        let mut c = RpcClient::new(Box::new(client_end), 1, 1);
        assert!(matches!(c.null(), Err(RpcError::Io(_))));
    }
}
