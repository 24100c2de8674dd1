//! The `gfs-ssh` baseline: an SSH-like encrypted tunnel between proxies.
//!
//! The earlier GFS security model (reference \[45\] in the paper) runs the proxy
//! traffic through per-session SSH tunnels and authenticates the proxies
//! to each other with a middleware-distributed session key. This module
//! reproduces that stack: both tunnel endpoints prove knowledge of the
//! session key, derive AES-256-CBC + SHA1-HMAC record keys from it (the
//! paper configures the SSH tunnels with exactly those algorithms), and
//! then carry the already-proxied RPC stream as a [`TunnelStream`] over
//! the raw wire — the "double user-level forwarding" whose cost Figure 4
//! shows: every RPC message pays each tunnel endpoint's in+out hop
//! ([`HopCost`], doubled) and a second encryption layer.
//!
//! Establishment is two-phase ([`tunnel_start`] writes this side's hello,
//! [`TunnelPending::finish`] reads the peer's), so an in-process pair is
//! brought up on one thread: start both sides, then finish both — each
//! finish finds the peer's hello already in the pipe.

use crate::config::HopCost;
use sgfs_crypto::prf::prf_sha256;
use sgfs_crypto::{ct_eq, hmac_sha256};
use sgfs_gtls::record::{
    frame_header, read_frame, read_frame_into, write_assembled_frame, write_frame, HalfConn,
    CT_DATA,
};
use sgfs_gtls::CipherSuite;
use sgfs_net::{BoxStream, SimClock};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Tunnel chunk size: the most plaintext one frame carries.
const CHUNK: usize = 32 * 1024 + 512;

/// A tunnel endpoint that has written its own hello but not yet read the
/// peer's — the pause point that lets one thread establish both ends of
/// an in-process tunnel (start both, then finish both).
pub struct TunnelPending {
    wire: BoxStream,
    key: Vec<u8>,
    is_client: bool,
    hop: Option<(Arc<SimClock>, HopCost)>,
    my_nonce: [u8; 16],
}

/// Write this side's hello (`nonce, HMAC(key, role || nonce)`) — the MAC
/// proves knowledge of the session key, the inter-proxy authentication of
/// the session-key model — and return the endpoint paused before the
/// peer-hello read. `hop` is this end's host clock and the cost it pays
/// per forwarded message.
pub fn tunnel_start(
    mut wire: BoxStream,
    key: &[u8],
    is_client: bool,
    hop: Option<(Arc<SimClock>, HopCost)>,
) -> io::Result<TunnelPending> {
    let my_role: &[u8] = if is_client { b"tunnel-client" } else { b"tunnel-server" };
    let my_nonce: [u8; 16] = rand::random();
    let mut msg = my_role.to_vec();
    msg.extend_from_slice(&my_nonce);
    let mac = hmac_sha256(key, &msg);
    let mut hello = my_nonce.to_vec();
    hello.extend_from_slice(&mac);
    write_frame(&mut wire, CT_DATA, &hello)?;
    Ok(TunnelPending { wire, key: key.to_vec(), is_client, hop, my_nonce })
}

impl TunnelPending {
    /// Read and verify the peer's hello and derive the per-direction
    /// record states. Returns the endpoint's protected stream; a
    /// readiness watch over the raw wire observes it, as for GTLS.
    pub fn finish(self) -> io::Result<TunnelStream> {
        let TunnelPending { mut wire, key, is_client, hop, my_nonce } = self;
        let peer_role: &[u8] = if is_client { b"tunnel-server" } else { b"tunnel-client" };

        let (_, peer_hello) = read_frame(&mut wire)?;
        if peer_hello.len() != 16 + 32 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad tunnel hello"));
        }
        let peer_nonce = &peer_hello[..16];
        let mut expect = peer_role.to_vec();
        expect.extend_from_slice(peer_nonce);
        if !ct_eq(&hmac_sha256(&key, &expect), &peer_hello[16..]) {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "tunnel session key mismatch",
            ));
        }

        // Key block: client-write then server-write material, seeded by
        // the client's nonce, then the server's.
        let seed =
            if is_client { [&my_nonce[..], peer_nonce] } else { [peer_nonce, &my_nonce[..]] }
                .concat();
        let block = prf_sha256(&key, b"ssh tunnel keys", &seed, 2 * (32 + 20));
        let (c_key, rest) = block.split_at(32);
        let (c_mac, rest) = rest.split_at(20);
        let (s_key, s_mac) = rest.split_at(32);
        let suite = CipherSuite::Aes256CbcSha1;
        let c2s = HalfConn::new(suite, c_key, c_mac, &[]);
        let s2c = HalfConn::new(suite, s_key, s_mac, &[]);
        let (tx, rx) = if is_client { (c2s, s2c) } else { (s2c, c2s) };
        Ok(TunnelStream {
            wire,
            tx,
            rx,
            hop,
            read_buf: Vec::new(),
            read_pos: 0,
            read_end: 0,
            write_buf: Vec::new(),
        })
    }
}

/// One established tunnel endpoint: plaintext in and out, sealed frames
/// on the wire. Each write seals at most [`CHUNK`] bytes per frame and
/// sends each frame in one write call (the single-stamp rule); each read
/// opens one frame. Every frame charges this end's host twice its
/// [`HopCost`] — the tunnel daemon's read and write syscalls.
pub struct TunnelStream {
    wire: BoxStream,
    tx: HalfConn,
    rx: HalfConn,
    hop: Option<(Arc<SimClock>, HopCost)>,
    /// The current frame's body, opened in place; `read_pos..read_end` is
    /// unconsumed plaintext.
    read_buf: Vec<u8>,
    read_pos: usize,
    read_end: usize,
    /// Reused transmit buffer: one frame, header and sealed body.
    write_buf: Vec<u8>,
}

impl TunnelStream {
    fn charge(&self, len: usize) {
        if let Some((clock, hop)) = &self.hop {
            clock.advance(hop.of(len) * 2);
        }
    }
}

impl Read for TunnelStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.read_pos == self.read_end {
            let ct = match read_frame_into(&mut self.wire, &mut self.read_buf) {
                Ok(ct) => ct,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(0),
                Err(e) => return Err(e),
            };
            if ct != CT_DATA {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected tunnel frame type {ct}"),
                ));
            }
            let (off, len) =
                self.rx.open_in_place(CT_DATA, &mut self.read_buf).map_err(io::Error::from)?;
            self.charge(len);
            self.read_pos = off;
            self.read_end = off + len;
        }
        let n = buf.len().min(self.read_end - self.read_pos);
        buf[..n].copy_from_slice(&self.read_buf[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

impl Write for TunnelStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for chunk in buf.chunks(CHUNK) {
            self.charge(chunk.len());
            let header = frame_header(CT_DATA, self.tx.sealed_len(chunk.len()));
            self.write_buf.clear();
            self.write_buf.extend_from_slice(&header);
            self.tx.seal_into(CT_DATA, chunk, &mut rand::thread_rng(), &mut self.write_buf);
            write_assembled_frame(&mut self.wire, &self.write_buf)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.wire.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use sgfs_net::{pipe_pair, PipeEnd};

    fn key() -> Vec<u8> {
        b"shared-session-key-from-middleware".to_vec()
    }

    /// Both ends of a tunnel over `a` / `b`, established on this thread:
    /// start, start, finish, finish.
    fn establish(
        a: BoxStream,
        b: BoxStream,
        client_key: &[u8],
        server_key: &[u8],
    ) -> (io::Result<TunnelStream>, io::Result<TunnelStream>) {
        let client = tunnel_start(a, client_key, true, None).unwrap();
        let server = tunnel_start(b, server_key, false, None).unwrap();
        (client.finish(), server.finish())
    }

    fn pair() -> (TunnelStream, TunnelStream) {
        let (a, b) = pipe_pair();
        let (c, s) = establish(Box::new(a), Box::new(b), &key(), &key());
        (c.unwrap(), s.unwrap())
    }

    #[test]
    fn tunnel_roundtrip() {
        let (a, b) = pipe_pair();
        let server_watch = b.watch();
        let (c, s) = establish(Box::new(a), Box::new(b), &key(), &key());
        let (mut client_side, mut server_side) = (c.unwrap(), s.unwrap());

        client_side.write_all(b"rpc request").unwrap();
        assert!(server_watch.has_input(), "the raw wire carries the frame");
        let mut buf = [0u8; 11];
        server_side.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"rpc request");
        assert!(!server_watch.has_input(), "watch drained with the read");

        server_side.write_all(b"rpc reply").unwrap();
        let mut buf = [0u8; 9];
        client_side.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"rpc reply");

        drop(client_side);
        assert_eq!(server_side.read(&mut buf).unwrap(), 0, "peer close is EOF");
    }

    #[test]
    fn wrong_session_key_rejected() {
        let (a, b) = pipe_pair();
        let (c, s) = establish(Box::new(a), Box::new(b), b"key-two", b"key-one");
        for end in [c, s] {
            let err = end.err().expect("each side rejects the other's hello");
            assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        }
    }

    /// A wire end that keeps a copy of everything written through it.
    struct Tap(PipeEnd, Arc<Mutex<Vec<u8>>>);

    impl Read for Tap {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for Tap {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.1.lock().extend_from_slice(buf);
            self.0.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.0.flush()
        }
    }

    #[test]
    fn wire_carries_no_plaintext() {
        let (a, b) = pipe_pair();
        let captured = Arc::new(Mutex::new(Vec::new()));
        let (c, s) =
            establish(Box::new(Tap(a, captured.clone())), Box::new(b), &key(), &key());
        let (mut client_side, mut server_side) = (c.unwrap(), s.unwrap());

        let secret = b"TOPSECRET-GRID-DATA-TOPSECRET";
        client_side.write_all(secret).unwrap();
        let mut buf = vec![0u8; secret.len()];
        server_side.read_exact(&mut buf).unwrap();
        assert_eq!(buf, secret);

        let wire_bytes = captured.lock().clone();
        assert!(!wire_bytes.is_empty());
        assert!(
            !wire_bytes.windows(10).any(|w| w == &secret[..10]),
            "plaintext leaked onto the wire"
        );
    }

    #[test]
    fn large_transfer_through_tunnel() {
        let (mut client_side, mut server_side) = pair();
        let data: Vec<u8> = (0..500_000).map(|i| (i % 251) as u8).collect();
        // The pipe queues without bound, so one thread writes it all first.
        client_side.write_all(&data).unwrap();
        let mut got = vec![0u8; data.len()];
        server_side.read_exact(&mut got).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn a_frame_that_is_not_data_is_rejected() {
        let (mut client_side, mut server_side) = pair();
        // A record sealed as data under the right key, framed as handshake.
        let body = client_side.tx.seal(CT_DATA, b"payload", &mut rand::thread_rng());
        write_frame(&mut client_side.wire, sgfs_gtls::record::CT_HANDSHAKE, &body).unwrap();
        let err = server_side.read(&mut [0u8; 16]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
