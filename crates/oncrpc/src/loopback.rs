//! Synchronous in-process RPC loopback.
//!
//! [`LoopbackStream`] stands in for a pipe-plus-server-thread when a caller
//! wants to talk to a service living in the *same* process: the server
//! proxy's terminal NFS server and ACL sidecar, and the kernel client's
//! loop-back hop to its client proxy. The moment a write completes a
//! record it is dispatched straight into the service on the caller's
//! thread, and the reply is queued for subsequent reads. No thread, no
//! pipe, no hand-off — which is exactly what the sharded event loops need:
//! a shard can drive a proxy that in turn calls its local backend without
//! ever parking itself on another thread's progress.
//!
//! No copy either, in the common case of one whole record per write (what
//! [`crate::record::write_marked`] emits): the service reads the record
//! straight out of the caller's slice, and its reply `Vec` is queued as it
//! is, beside its record mark, until a read copies it out. Only bytes that
//! do not yet complete a record — a dribbled write, a fragment of a
//! multi-fragment record — are buffered.

use crate::record::{mark, MARK_LEN, MAX_RECORD};
use crate::server::RpcService;
use crate::shard::{RecordService, RpcRecordService};
use std::collections::VecDeque;
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
    /// Written bytes that do not complete a fragment yet.
    tail: Vec<u8>,
    /// Payload of the earlier fragments of a multi-fragment record.
    partial: Vec<u8>,
    /// Replies waiting to be read, each with its record mark.
    replies: VecDeque<([u8; MARK_LEN], Vec<u8>)>,
    /// Read cursor into the front reply's mark ‖ payload.
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
            tail: Vec::new(),
            partial: Vec::new(),
            replies: VecDeque::new(),
            read_at: 0,
        }
    }

    /// Dispatch every complete record at the front of `bytes`, returning
    /// how many bytes that consumed; the rest is an incomplete fragment.
    fn dispatch(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut at = 0;
        while let Some(word) = bytes.get(at..at + MARK_LEN) {
            let word = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            let last = word & 0x8000_0000 != 0;
            let len = (word & 0x7fff_ffff) as usize;
            if self.partial.len() + len > MAX_RECORD {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("loopback record exceeds {MAX_RECORD} bytes"),
                ));
            }
            let Some(fragment) = bytes.get(at + MARK_LEN..at + MARK_LEN + len) else { break };
            at += MARK_LEN + len;
            match (last, self.partial.is_empty()) {
                (false, _) => self.partial.extend_from_slice(fragment),
                (true, true) => self.serve(fragment)?,
                (true, false) => {
                    let mut record = std::mem::take(&mut self.partial);
                    record.extend_from_slice(fragment);
                    self.serve(&record)?;
                    record.clear();
                    self.partial = record;
                }
            }
        }
        Ok(at)
    }

    /// Run one whole record through the service and queue its reply.
    fn serve(&mut self, record: &[u8]) -> io::Result<()> {
        let reply = self.service.process_record(record)?;
        self.replies.push_back((mark(reply.len()), reply));
        Ok(())
    }
}

impl Write for LoopbackStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Err(closed());
        }
        // Records are served from `buf` itself unless an incomplete one
        // is already waiting for these bytes.
        let mut tail = std::mem::take(&mut self.tail);
        let served = if tail.is_empty() {
            self.dispatch(buf).map(|used| tail.extend_from_slice(&buf[used..]))
        } else {
            tail.extend_from_slice(buf);
            self.dispatch(&tail).map(|used| {
                tail.drain(..used);
            })
        };
        self.tail = tail;
        // A failed record or a corrupt mark leaves nothing to resume.
        self.closed = served.is_err();
        served.map(|()| buf.len())
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
        let Some((mark, reply)) = self.replies.front() else {
            // A blocking transport would park here until the server
            // replied; in-process there is no server thread to wait for,
            // so an empty read means the caller consumed a reply it never
            // requested. Fail loudly rather than deadlock silently.
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "loopback read with no reply pending",
            ));
        };
        let avail = match self.read_at.checked_sub(MARK_LEN) {
            None => &mark[self.read_at..],
            Some(at) => &reply[at..],
        };
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.read_at += n;
        if self.read_at == MARK_LEN + reply.len() {
            self.replies.pop_front();
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
                0 => Dispatch::reply(&crate::client::NoArgs),
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

    /// Serves `healthy` records, then fails every one; counts its calls.
    #[derive(Default)]
    struct Mortal {
        healthy: std::sync::atomic::AtomicU32,
        calls: std::sync::atomic::AtomicU32,
    }

    impl RecordService for Mortal {
        fn process_record(&self, record: &[u8]) -> io::Result<Vec<u8>> {
            use std::sync::atomic::Ordering::Relaxed;
            self.calls.fetch_add(1, Relaxed);
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
        let mut s = LoopbackStream::over(Arc::new(Mortal { healthy: 1.into(), ..Mortal::default() }));
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

    /// Logs every record it is handed and echoes it back tagged.
    #[derive(Default)]
    struct Recorder {
        seen: std::sync::Mutex<Vec<Vec<u8>>>,
    }

    impl RecordService for Recorder {
        fn process_record(&self, record: &[u8]) -> io::Result<Vec<u8>> {
            self.seen.lock().unwrap().push(record.to_vec());
            Ok([b"re:", record].concat())
        }
    }

    fn marked(record: &[u8]) -> Vec<u8> {
        [&mark(record.len())[..], record].concat()
    }

    /// However the bytes of a record stream are cut into writes, each
    /// record reaches the service exactly once, whole and in order, and
    /// its reply reads back framed.
    #[test]
    fn every_record_is_dispatched_once_in_order_however_writes_cut_it() {
        use crate::record::read_record;
        let service = Arc::new(Recorder::default());
        let mut s = LoopbackStream::over(service.clone());
        // A record dribbled in byte by byte.
        for b in marked(b"dribbled") {
            s.write_all(&[b]).unwrap();
        }
        // Two records in one write.
        s.write_all(&[marked(b"first"), marked(b"second")].concat()).unwrap();
        // A record plus the start of the next; the rest comes later.
        let next = marked(b"straddling");
        s.write_all(&[&marked(b"whole")[..], &next[..6]].concat()).unwrap();
        assert_eq!(service.seen.lock().unwrap().len(), 4, "the partial tail waits");
        s.write_all(&next[6..]).unwrap();
        // A multi-fragment record, its middle fragment split across writes.
        let mut fragments = Vec::new();
        for (i, frag) in [&b"multi-"[..], b"fragment-", b"record"].iter().enumerate() {
            let last = if i == 2 { 0x8000_0000 } else { 0 };
            fragments.extend_from_slice(&(frag.len() as u32 | last).to_be_bytes());
            fragments.extend_from_slice(frag);
        }
        s.write_all(&fragments[..14]).unwrap();
        s.write_all(&fragments[14..]).unwrap();

        let want: [&[u8]; 6] =
            [b"dribbled", b"first", b"second", b"whole", b"straddling", b"multi-fragment-record"];
        assert_eq!(*service.seen.lock().unwrap(), want);
        for record in want {
            assert_eq!(read_record(&mut s).unwrap().unwrap(), [b"re:", record].concat());
        }
        let mut buf = [0u8; 1];
        assert_eq!(s.read(&mut buf).unwrap_err().kind(), io::ErrorKind::WouldBlock);
    }

    /// A service error closes the stream at the failing record: a record
    /// behind it in the same write is never dispatched.
    #[test]
    fn a_failed_record_ends_the_write_it_arrived_in() {
        let service = Arc::new(Mortal { healthy: 1.into(), ..Mortal::default() });
        let mut s = LoopbackStream::over(service.clone());
        let three = [marked(b"served"), marked(b"fails"), marked(b"never")].concat();
        assert_eq!(s.write(&three).unwrap_err().to_string(), "service died");
        assert_eq!(service.calls.load(std::sync::atomic::Ordering::Relaxed), 2);
        let mut buf = [0u8; 4];
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
