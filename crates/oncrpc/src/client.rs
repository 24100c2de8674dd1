//! Blocking ONC RPC client.

use crate::error::RpcError;
use crate::msg::{AcceptStat, CallHeader, OpaqueAuth, ReplyHeader};
use crate::record::{read_record_into, write_marked, MARK_LEN};
use sgfs_net::BoxStream;
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};

/// A blocking RPC client bound to one program/version on one connection.
///
/// Mirrors TI-RPC's `clnt_tli_create`: the transport is supplied by the
/// caller, so the same client works over a plain pipe or a GTLS channel
/// (`sgfs-secrpc`'s `clnt_ssl_create` analog).
///
/// Calls are strictly sequential — the paper notes its SGFS prototype uses
/// blocking RPCs (one outstanding request), and this faithfully reproduces
/// that behaviour (and its performance cost relative to SFS). Each call
/// is encoded in place behind its record mark in one reused buffer and
/// its reply read into another, so at steady state a call copies its
/// arguments once on the way out and its reply once on the way in.
pub struct RpcClient {
    stream: BoxStream,
    prog: u32,
    vers: u32,
    next_xid: u32,
    cred: OpaqueAuth,
    /// The call being sent: [`MARK_LEN`] bytes of headroom, then the
    /// encoded call. Kept at its high-water capacity.
    call_buf: Vec<u8>,
    /// The last reply record, decoded in place.
    reply_buf: Vec<u8>,
}

impl RpcClient {
    /// Create a client for `prog`/`vers` over `stream`.
    pub fn new(stream: BoxStream, prog: u32, vers: u32) -> Self {
        Self {
            stream,
            prog,
            vers,
            next_xid: 1,
            cred: OpaqueAuth::none(),
            call_buf: Vec::new(),
            reply_buf: Vec::new(),
        }
    }

    /// Set the credential attached to subsequent calls.
    pub fn set_cred(&mut self, cred: OpaqueAuth) {
        self.cred = cred;
    }

    /// The credential currently attached to calls.
    pub fn cred(&self) -> &OpaqueAuth {
        &self.cred
    }

    /// Issue one call and block for its reply; on success the result
    /// bytes are `reply_buf[at..]` for the returned `at`.
    fn exchange(&mut self, proc: u32, args: &dyn XdrEncode) -> Result<usize, RpcError> {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        let header = CallHeader {
            xid,
            prog: self.prog,
            vers: self.vers,
            proc,
            cred: self.cred.clone(),
            verf: OpaqueAuth::none(),
        };
        let mut call = std::mem::take(&mut self.call_buf);
        call.clear();
        call.extend_from_slice(&[0; MARK_LEN]);
        let mut enc = XdrEncoder::from_vec(call);
        header.encode(&mut enc);
        args.encode(&mut enc);
        self.call_buf = enc.into_bytes();
        write_marked(&mut self.stream, &mut self.call_buf)?;

        if !read_record_into(&mut self.stream, &mut self.reply_buf)? {
            return Err(RpcError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed awaiting reply",
            )));
        }
        let mut dec = XdrDecoder::new(&self.reply_buf);
        match ReplyHeader::decode(&mut dec)? {
            ReplyHeader::Accepted { xid: rxid, stat, .. } => {
                if rxid != xid {
                    return Err(RpcError::XidMismatch { sent: xid, received: rxid });
                }
                if stat != AcceptStat::Success {
                    return Err(RpcError::Accepted(stat));
                }
                Ok(dec.position())
            }
            ReplyHeader::Denied { xid: rxid, stat } => {
                if rxid != xid {
                    return Err(RpcError::XidMismatch { sent: xid, received: rxid });
                }
                Err(RpcError::Denied(stat))
            }
        }
    }

    /// Issue one call and block for its reply, returning the raw XDR
    /// result bytes on success.
    pub fn call_raw(&mut self, proc: u32, args: &dyn XdrEncode) -> Result<Vec<u8>, RpcError> {
        let at = self.exchange(proc, args)?;
        Ok(self.reply_buf[at..].to_vec())
    }

    /// Issue one call and decode the result as `T`, straight from the
    /// reply buffer.
    pub fn call<T: XdrDecode>(&mut self, proc: u32, args: &dyn XdrEncode) -> Result<T, RpcError> {
        let at = self.exchange(proc, args)?;
        Ok(T::from_xdr_bytes(&self.reply_buf[at..])?)
    }

    /// The NULL procedure (0) — a no-op round trip used as a ping.
    pub fn null(&mut self) -> Result<(), RpcError> {
        self.exchange(0, &NoArgs).map(|_| ())
    }
}

/// Zero-size argument payload for procedures that take nothing.
pub struct NoArgs;

impl XdrEncode for NoArgs {
    fn encode(&self, _enc: &mut XdrEncoder) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AuthStat;
    use crate::shard::RecordService;
    use crate::LoopbackStream;
    use std::sync::Arc;

    /// Answers every call with the reply `make(call xid, call args)`.
    struct Scripted(fn(u32, &[u8]) -> Vec<u8>);

    impl RecordService for Scripted {
        fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
            let mut dec = XdrDecoder::new(record);
            let header = CallHeader::decode(&mut dec).expect("a call header");
            Ok((self.0)(header.xid, &record[dec.position()..]))
        }
    }

    fn client(make: fn(u32, &[u8]) -> Vec<u8>) -> RpcClient {
        RpcClient::new(Box::new(LoopbackStream::over(Arc::new(Scripted(make)))), 7, 1)
    }

    /// Echoes the call's arguments as the result.
    fn echo(xid: u32, args: &[u8]) -> Vec<u8> {
        [&ReplyHeader::success(xid).to_xdr_bytes()[..], args].concat()
    }

    /// The reply buffer is reused: a short reply after a long one must
    /// come back exact, with nothing of the long one behind it.
    #[test]
    fn a_shorter_reply_after_a_longer_one_shows_no_stale_bytes() {
        let mut c = client(echo);
        let long: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
        for data in [long.clone(), b"abc".to_vec(), Vec::new(), long] {
            let back: Vec<u8> = c.call(1, &data).unwrap();
            assert_eq!(back, data);
            assert_eq!(c.call_raw(1, &data).unwrap(), data.to_xdr_bytes());
        }
        c.null().unwrap();
    }

    #[test]
    fn a_reply_to_another_xid_is_a_mismatch() {
        let mut c = client(|xid, _| ReplyHeader::success(xid + 1).to_xdr_bytes());
        match c.call_raw(1, &NoArgs) {
            Err(RpcError::XidMismatch { sent: 1, received: 2 }) => {}
            other => panic!("expected XidMismatch, got {other:?}"),
        }
        let mut c = client(|xid, _| {
            ReplyHeader::Denied { xid: xid ^ 0xff, stat: AuthStat::TooWeak }.to_xdr_bytes()
        });
        assert!(matches!(c.null(), Err(RpcError::XidMismatch { .. })));
    }

    #[test]
    fn a_denied_call_is_reported_and_the_client_goes_on() {
        let mut c = client(|xid, args| {
            if args.is_empty() {
                ReplyHeader::Denied { xid, stat: AuthStat::TooWeak }.to_xdr_bytes()
            } else {
                echo(xid, args)
            }
        });
        assert!(matches!(c.null(), Err(RpcError::Denied(AuthStat::TooWeak))));
        assert_eq!(c.call::<u32>(1, &9u32).unwrap(), 9);
    }
}
