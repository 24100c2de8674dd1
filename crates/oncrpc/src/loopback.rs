//! Synchronous in-process RPC loopback.
//!
//! [`LoopbackStream`] stands in for a pipe-plus-server-thread when a caller
//! wants to talk to a service living in the *same* process: the server
//! proxy's terminal NFS server and ACL sidecar, and the kernel client's
//! loop-back hop to its client proxy. Writes accumulate record-marked
//! bytes; the moment a complete record has arrived it is dispatched
//! straight into the service on the caller's thread and the framed reply
//! is queued for subsequent reads. No thread, no pipe, no hand-off — which
//! is exactly what the sharded event loops need: a shard can drive a proxy
//! that in turn calls its local backend without ever parking itself on
//! another thread's progress.

use crate::record::MAX_RECORD;
use crate::server::RpcService;
use crate::shard::{RecordService, RpcRecordService};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// An in-process bidirectional "connection" to a [`RecordService`].
///
/// Implements `Read + Write` so it can sit anywhere a `BoxStream` does.
/// The request side parses RFC 5531 record marking incrementally, so a
/// writer that emits header and payload in separate calls (or splits a
/// record into fragments) still works. A record the service fails closes
/// the connection, exactly as a shard drops a session whose service
/// failed: that write and every later read or write is an error.
pub struct LoopbackStream {
    service: Arc<dyn RecordService>,
    /// The service failed a record; nothing is served any more.
    closed: bool,
    /// Bytes written but not yet forming a complete record.
    pending: Vec<u8>,
    /// Payload of the record being reassembled across fragments.
    partial: Vec<u8>,
    /// Framed replies waiting to be read.
    inbuf: Vec<u8>,
    /// Read cursor into `inbuf`.
    read_at: usize,
}

impl LoopbackStream {
    /// Connect to the RPC program `service`.
    pub fn new(service: Arc<dyn RpcService>) -> Self {
        Self::over(Arc::new(RpcRecordService(service)))
    }

    /// Connect to a per-record `service` (a proxy).
    pub fn over(service: Arc<dyn RecordService>) -> Self {
        Self {
            service,
            closed: false,
            pending: Vec::new(),
            partial: Vec::new(),
            inbuf: Vec::new(),
            read_at: 0,
        }
    }

    /// Dispatch every complete record sitting in `pending`.
    fn pump(&mut self) -> io::Result<()> {
        let mut consumed = 0;
        loop {
            let rest = &self.pending[consumed..];
            if rest.len() < 4 {
                break;
            }
            let word = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
            let last = word & 0x8000_0000 != 0;
            let len = (word & 0x7fff_ffff) as usize;
            if self.partial.len() + len > MAX_RECORD {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("loopback record exceeds {MAX_RECORD} bytes"),
                ));
            }
            if rest.len() < 4 + len {
                break;
            }
            self.partial.extend_from_slice(&rest[4..4 + len]);
            consumed += 4 + len;
            if last {
                let reply = match self.service.process_record(&self.partial) {
                    Ok(reply) => reply,
                    Err(e) => {
                        self.closed = true;
                        return Err(e);
                    }
                };
                self.partial.clear();
                // Frame the reply exactly as the wire would.
                let header = 0x8000_0000u32 | reply.len() as u32;
                self.inbuf.extend_from_slice(&header.to_be_bytes());
                self.inbuf.extend_from_slice(&reply);
            }
        }
        if consumed > 0 {
            self.pending.drain(..consumed);
        }
        // Reclaim the reply buffer once it has been fully read, so a
        // long-lived loopback stays at its high-water mark.
        if self.read_at == self.inbuf.len() && self.read_at > 0 {
            self.inbuf.clear();
            self.read_at = 0;
        }
        Ok(())
    }
}

impl Write for LoopbackStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Err(closed());
        }
        self.pending.extend_from_slice(buf);
        self.pump()?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for LoopbackStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.closed {
            return Err(closed());
        }
        let avail = &self.inbuf[self.read_at..];
        if avail.is_empty() {
            // A blocking transport would park here until the server
            // replied; in-process there is no server thread to wait for,
            // so an empty read means the caller consumed a reply it never
            // requested. Fail loudly rather than deadlock silently.
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "loopback read with no reply pending",
            ));
        }
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.read_at += n;
        if self.read_at == self.inbuf.len() {
            self.inbuf.clear();
            self.read_at = 0;
        }
        Ok(n)
    }
}

fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "loopback service failed; connection closed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use crate::msg::{AcceptStat, OpaqueAuth};
    use crate::server::Dispatch;
    use sgfs_xdr::{XdrDecoder, XdrEncode};

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
                0 => Dispatch::Ok(Vec::new()),
                1 => match args.get_u32() {
                    Ok(v) => Dispatch::reply(&(v * 2)),
                    Err(_) => Dispatch::Error(AcceptStat::GarbageArgs),
                },
                _ => Dispatch::Error(AcceptStat::ProcUnavail),
            }
        }
    }

    #[test]
    fn rpc_client_over_loopback() {
        let mut c = RpcClient::new(
            Box::new(LoopbackStream::new(Arc::new(Doubler))),
            0x2000_0001,
            1,
        );
        c.null().unwrap();
        for v in [0u32, 7, 1 << 20] {
            let r: u32 = c.call(1, &v).unwrap();
            assert_eq!(r, v * 2);
        }
    }

    #[test]
    fn split_writes_reassemble() {
        use crate::record::{read_record, write_record};
        let mut s = LoopbackStream::new(Arc::new(Doubler));
        // Build a null call and dribble it in byte by byte.
        let mut framed = Vec::new();
        let call = crate::msg::CallHeader {
            xid: 9,
            prog: 0x2000_0001,
            vers: 1,
            proc: 0,
            cred: OpaqueAuth::none(),
            verf: OpaqueAuth::none(),
        }
        .to_xdr_bytes();
        write_record(&mut framed, &call).unwrap();
        for b in framed {
            s.write_all(&[b]).unwrap();
        }
        let reply = read_record(&mut s).unwrap().unwrap();
        assert!(!reply.is_empty());
    }

    /// Serves `healthy` records, then fails every one.
    struct Mortal {
        healthy: std::sync::atomic::AtomicU32,
    }

    impl RecordService for Mortal {
        fn process_record(&self, record: &[u8]) -> io::Result<Vec<u8>> {
            use std::sync::atomic::Ordering::Relaxed;
            if self.healthy.load(Relaxed) == 0 {
                return Err(io::Error::other("service died"));
            }
            self.healthy.fetch_sub(1, Relaxed);
            Ok(record.to_vec())
        }
    }

    #[test]
    fn service_error_closes_the_loopback() {
        use crate::record::{read_record, write_record};
        let mut s = LoopbackStream::over(Arc::new(Mortal { healthy: 1.into() }));
        write_record(&mut s, b"first").unwrap();
        assert_eq!(read_record(&mut s).unwrap().unwrap(), b"first");
        // The failing record's write carries the service's own error...
        let err = write_record(&mut s, b"second").unwrap_err();
        assert_eq!(err.to_string(), "service died");
        // ...and the connection stays dead, whatever the service would say.
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(write_record(&mut s, b"third").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(s.read(&mut buf).unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn read_without_request_fails_loudly() {
        let mut s = LoopbackStream::new(Arc::new(Doubler));
        let mut buf = [0u8; 4];
        let err = s.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}
