//! [`GtlsStream`]: a protected byte stream over any transport.

use crate::config::GtlsConfig;
use crate::handshake::{
    client_handshake, server_handshake, HandshakeState, HsAdvance, HsChannel, HsOutcome,
    SessionKeys,
};
use crate::suite::CipherSuite;
use crate::record::{
    frame_header, read_frame, read_frame_into, write_assembled_frame, write_frame, HalfConn,
    CT_DATA, CT_HANDSHAKE, FRAME_HEADER, MAX_RECORD_PAYLOAD,
};
use crate::GtlsError;
use sgfs_net::{BoxStream, PipeWatch};
use sgfs_pki::ValidatedPeer;
use std::io::{self, Read, Write};

/// A mutually authenticated, integrity-protected (and, per suite,
/// encrypted) stream. Implements `Read`/`Write`, so the RPC layer runs
/// over it unchanged — exactly how the paper slides SSL under TI-RPC.
pub struct GtlsStream {
    inner: BoxStream,
    tx: HalfConn,
    rx: HalfConn,
    config: GtlsConfig,
    peer: ValidatedPeer,
    is_client: bool,
    /// The negotiated suite for the current epoch (updated on rekey).
    suite: CipherSuite,
    /// Reused receive buffer: holds the current record's wire body,
    /// decrypted in place; `read_pos..read_end` is unconsumed plaintext.
    read_buf: Vec<u8>,
    read_pos: usize,
    read_end: usize,
    /// Reused transmit buffer, kept at its high-water length: each
    /// outgoing record is framed and sealed into its front, then leaves
    /// in one write call.
    write_buf: Vec<u8>,
    /// When set, each record seal/open is emitted here, timed — the
    /// proxies pass their own emitter, which attributes the crypto work
    /// to their CPU accounting (without double-counting I/O waits) and,
    /// when the session traces, feeds its hop histograms and event stream.
    pub obs: Option<sgfs_obs::Emitter>,
    /// Completed handshakes (1 = initial; >1 means renegotiations ran).
    handshakes: u64,
}

/// Raw (pre-keys) handshake channel: plaintext frames on the transport.
struct RawChannel<'a>(&'a mut BoxStream);

impl HsChannel for RawChannel<'_> {
    fn hs_send(&mut self, msg: &[u8]) -> Result<(), GtlsError> {
        write_frame(self.0, CT_HANDSHAKE, msg)?;
        Ok(())
    }
    fn hs_recv(&mut self) -> Result<Vec<u8>, GtlsError> {
        let (ct, body) = read_frame(self.0)?;
        if ct != CT_HANDSHAKE {
            return Err(GtlsError::Handshake("expected handshake frame".into()));
        }
        Ok(body)
    }
}

/// Renegotiation channel: handshake messages protected by the *current*
/// session keys (stronger than TLS, which renegotiates partly in the
/// clear).
struct RekeyChannel<'a> {
    inner: &'a mut BoxStream,
    tx: &'a mut HalfConn,
    rx: &'a mut HalfConn,
}

impl HsChannel for RekeyChannel<'_> {
    fn hs_send(&mut self, msg: &[u8]) -> Result<(), GtlsError> {
        let wire = self.tx.seal(CT_HANDSHAKE, msg, &mut rand::thread_rng());
        write_frame(self.inner, CT_HANDSHAKE, &wire)?;
        Ok(())
    }
    fn hs_recv(&mut self) -> Result<Vec<u8>, GtlsError> {
        let (ct, body) = read_frame(self.inner)?;
        if ct != CT_HANDSHAKE {
            return Err(GtlsError::Handshake("expected handshake record".into()));
        }
        self.rx.open(CT_HANDSHAKE, body)
    }
}

/// What one [`GtlsHandshake::advance`] achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsStatus {
    /// Waiting for the peer's next message; re-advance on readiness.
    Pending,
    /// Handshake complete; call [`GtlsHandshake::into_stream`].
    Done,
}

/// A resumable handshake in progress over a transport.
///
/// Binds a [`HandshakeState`] machine to its stream and (optionally) the
/// stream's [`PipeWatch`]: each [`advance`](Self::advance) drives the
/// machine as far as the bytes on hand allow and returns
/// [`HsStatus::Pending`] instead of blocking when the peer's next
/// message has not arrived. A dialer (a session's connect, a
/// reconnector) parks the whole struct and re-advances on readiness —
/// no thread is ever dedicated to a connect, reconnect, or rekey.
/// Without a watch, `advance` blocks like the classic drivers.
///
/// Reading whole frames under `has_input()` is sound for the same
/// reason the sharded server's record reads are: every handshake frame
/// leaves its writer in one write call, so one pipe message holds one
/// complete frame.
pub struct GtlsHandshake {
    inner: BoxStream,
    watch: Option<PipeWatch>,
    config: GtlsConfig,
    state: HandshakeState,
    incoming: Option<Vec<u8>>,
    outcome: Option<Box<HsOutcome>>,
    is_client: bool,
}

impl GtlsHandshake {
    /// Begin a client-side handshake over `inner`. `watch` observes the
    /// transport's receive side; `None` makes `advance` block for input.
    pub fn client(inner: BoxStream, watch: Option<PipeWatch>, config: GtlsConfig) -> Self {
        let state = HandshakeState::client(config.clone());
        Self { inner, watch, config, state, incoming: None, outcome: None, is_client: true }
    }

    /// Begin a server-side handshake over `inner`.
    pub fn server(inner: BoxStream, watch: Option<PipeWatch>, config: GtlsConfig) -> Self {
        let state = HandshakeState::server(config.clone());
        Self { inner, watch, config, state, incoming: None, outcome: None, is_client: false }
    }

    /// Drive the handshake as far as currently possible. Errors are
    /// terminal (the underlying machine is poisoned).
    pub fn advance(&mut self) -> io::Result<HsStatus> {
        if self.outcome.is_some() {
            return Ok(HsStatus::Done);
        }
        let mut rng = rand::thread_rng();
        loop {
            match self.state.advance(self.incoming.take(), &mut rng).map_err(io::Error::from)? {
                HsAdvance::Send(msg) => write_frame(&mut self.inner, CT_HANDSHAKE, &msg)?,
                HsAdvance::Done(outcome) => {
                    self.outcome = Some(outcome);
                    return Ok(HsStatus::Done);
                }
                HsAdvance::NeedInput => {
                    if let Some(w) = &self.watch {
                        if !w.has_input() {
                            if w.is_closed() {
                                return Err(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "peer closed during GTLS handshake",
                                ));
                            }
                            return Ok(HsStatus::Pending);
                        }
                    }
                    let (ct, body) = read_frame(&mut self.inner)?;
                    if ct != CT_HANDSHAKE {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "expected handshake frame",
                        ));
                    }
                    self.incoming = Some(body);
                }
            }
        }
    }

    /// Finish: consume the driver and produce the protected stream.
    /// Fails unless [`advance`](Self::advance) has returned `Done`.
    pub fn into_stream(self) -> Result<GtlsStream, GtlsError> {
        let outcome = self
            .outcome
            .ok_or_else(|| GtlsError::Handshake("handshake not complete".into()))?;
        Ok(GtlsStream::from_keys(
            self.inner,
            self.config,
            outcome.keys,
            outcome.peer,
            self.is_client,
        ))
    }
}

/// Drive both ends of an in-process handshake to completion on the
/// calling thread — the no-spawn replacement for the old
/// "`GtlsStream::server` on a helper thread, `::client` here" pattern.
/// Both sides must carry watches (a blocking side would deadlock the
/// single driving thread).
pub fn handshake_pair(
    mut client: GtlsHandshake,
    mut server: GtlsHandshake,
) -> Result<(GtlsStream, GtlsStream), GtlsError> {
    assert!(client.watch.is_some() && server.watch.is_some(), "handshake_pair needs watches");
    // 5 messages (3 client→server flights, 2 back) ⇒ alternation
    // converges in a handful of rounds; the cap only guards against a
    // protocol bug turning into a spin.
    for _ in 0..16 {
        let c = client.advance()?;
        let s = server.advance()?;
        if c == HsStatus::Done && s == HsStatus::Done {
            return Ok((client.into_stream()?, server.into_stream()?));
        }
    }
    Err(GtlsError::Handshake("in-process handshake stalled".into()))
}

impl GtlsStream {
    /// Connect as the client (initiates the handshake).
    pub fn client(mut inner: BoxStream, config: GtlsConfig) -> Result<Self, GtlsError> {
        let mut ch = RawChannel(&mut inner);
        let (keys, peer) = client_handshake(&mut ch, &config, &mut rand::thread_rng())?;
        Ok(Self::from_keys(inner, config, keys, peer, true))
    }

    /// Accept as the server (responds to the handshake).
    pub fn server(mut inner: BoxStream, config: GtlsConfig) -> Result<Self, GtlsError> {
        let mut ch = RawChannel(&mut inner);
        let (keys, peer) = server_handshake(&mut ch, &config, &mut rand::thread_rng())?;
        Ok(Self::from_keys(inner, config, keys, peer, false))
    }

    fn from_keys(
        inner: BoxStream,
        config: GtlsConfig,
        keys: SessionKeys,
        peer: ValidatedPeer,
        is_client: bool,
    ) -> Self {
        let (tx, rx) = Self::split_keys(&keys, is_client);
        Self {
            inner,
            tx,
            rx,
            config,
            peer,
            is_client,
            suite: keys.suite,
            read_buf: Vec::new(),
            read_pos: 0,
            read_end: 0,
            write_buf: Vec::new(),
            obs: None,
            handshakes: 1,
        }
    }

    fn split_keys(keys: &SessionKeys, is_client: bool) -> (HalfConn, HalfConn) {
        let c2s = HalfConn::new(
            keys.suite,
            &keys.client_write_key,
            &keys.client_mac_key,
            &keys.client_iv,
        );
        let s2c = HalfConn::new(
            keys.suite,
            &keys.server_write_key,
            &keys.server_mac_key,
            &keys.server_iv,
        );
        if is_client {
            (c2s, s2c)
        } else {
            (s2c, c2s)
        }
    }

    /// The authenticated peer (leaf DN, effective grid DN, proxy flag).
    pub fn peer(&self) -> &ValidatedPeer {
        &self.peer
    }

    /// The cipher suite protecting the current epoch.
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// Number of completed handshakes on this connection.
    pub fn handshake_count(&self) -> u64 {
        self.handshakes
    }

    /// Override the handshake counter. A reconnecting session carries its
    /// cumulative count across connections: the replacement `GtlsStream`
    /// starts at 1, so the owner seeds it with the prior total.
    pub fn set_handshake_count(&mut self, n: u64) {
        self.handshakes = n;
    }

    /// Replace the security configuration (reloaded certificates, new
    /// suite preference). Takes effect at the next renegotiation — the
    /// paper's "signal the proxy to reload its configuration file".
    pub fn set_config(&mut self, config: GtlsConfig) {
        self.config = config;
    }

    /// Client-side: re-run the handshake over the protected channel,
    /// refreshing all key material (and picking up any config changes).
    pub fn renegotiate(&mut self) -> Result<(), GtlsError> {
        assert!(self.is_client, "renegotiation is client-initiated");
        let mut ch = RekeyChannel { inner: &mut self.inner, tx: &mut self.tx, rx: &mut self.rx };
        let (keys, peer) = client_handshake(&mut ch, &self.config, &mut rand::thread_rng())?;
        let (tx, rx) = Self::split_keys(&keys, true);
        self.tx = tx;
        self.rx = rx;
        self.suite = keys.suite;
        self.peer = peer;
        self.handshakes += 1;
        Ok(())
    }

    /// Server-side: service a renegotiation initiated by the peer, whose
    /// first handshake record (`first`) was already consumed by `read`.
    fn serve_renegotiation(&mut self, first: Vec<u8>) -> Result<(), GtlsError> {
        struct Replay<'a> {
            pending: Option<Vec<u8>>,
            ch: RekeyChannel<'a>,
        }
        impl HsChannel for Replay<'_> {
            fn hs_send(&mut self, msg: &[u8]) -> Result<(), GtlsError> {
                self.ch.hs_send(msg)
            }
            fn hs_recv(&mut self) -> Result<Vec<u8>, GtlsError> {
                match self.pending.take() {
                    Some(m) => Ok(m),
                    None => self.ch.hs_recv(),
                }
            }
        }
        let mut ch = Replay {
            pending: Some(first),
            ch: RekeyChannel { inner: &mut self.inner, tx: &mut self.tx, rx: &mut self.rx },
        };
        let (keys, peer) = server_handshake(&mut ch, &self.config, &mut rand::thread_rng())?;
        let (tx, rx) = Self::split_keys(&keys, false);
        self.tx = tx;
        self.rx = rx;
        self.suite = keys.suite;
        self.peer = peer;
        self.handshakes += 1;
        Ok(())
    }
}

impl Read for GtlsStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.read_pos == self.read_end {
            let ct = match read_frame_into(&mut self.inner, &mut self.read_buf) {
                Ok(ct) => ct,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(0),
                Err(e) => return Err(e),
            };
            match ct {
                CT_DATA => {
                    let t0 = std::time::Instant::now();
                    let (off, len) = self
                        .rx
                        .open_in_place(CT_DATA, &mut self.read_buf)
                        .map_err(io::Error::from)?;
                    if let Some(obs) = &self.obs {
                        let dt = t0.elapsed().as_nanos() as u64;
                        obs.emit(sgfs_obs::Hop::Open, 0, sgfs_obs::NO_PROC, dt);
                        // Deterministic per-suite event: xid = suite wire
                        // id, aux = payload bytes (golden-trace friendly,
                        // unlike the nanosecond aux above).
                        obs.emit(
                            sgfs_obs::Hop::RecordOpen,
                            self.suite as u32,
                            sgfs_obs::NO_PROC,
                            len as u64,
                        );
                    }
                    self.read_pos = off;
                    self.read_end = off + len;
                }
                CT_HANDSHAKE if !self.is_client => {
                    // Peer-initiated rekey arriving between requests —
                    // rare, so copying out of the receive buffer is fine.
                    let (off, len) = self
                        .rx
                        .open_in_place(CT_HANDSHAKE, &mut self.read_buf)
                        .map_err(io::Error::from)?;
                    let first = self.read_buf[off..off + len].to_vec();
                    self.serve_renegotiation(first).map_err(io::Error::from)?;
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected GTLS content type {ct}"),
                    ))
                }
            }
        }
        let n = buf.len().min(self.read_end - self.read_pos);
        buf[..n].copy_from_slice(&self.read_buf[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

impl Write for GtlsStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // One caller write = one logical message: seal it immediately
        // (chunked only when it exceeds the record size), so the whole
        // message leaves in back-to-back frames with coherent arrival
        // stamps on the emulated link. The record is framed and sealed in
        // the front of the write buffer, which never shrinks — no
        // allocation and no zero-fill at steady state — and departs in a
        // single write call.
        for chunk in buf.chunks(MAX_RECORD_PAYLOAD) {
            let t0 = std::time::Instant::now();
            let body = self.tx.sealed_len(chunk.len());
            let frame = FRAME_HEADER + body;
            if self.write_buf.len() < frame {
                self.write_buf.resize(frame, 0);
            }
            self.write_buf[..FRAME_HEADER].copy_from_slice(&frame_header(CT_DATA, body));
            self.tx.seal_to(
                CT_DATA,
                chunk,
                &mut rand::thread_rng(),
                &mut self.write_buf[FRAME_HEADER..frame],
            );
            if let Some(obs) = &self.obs {
                let dt = t0.elapsed().as_nanos() as u64;
                obs.emit(sgfs_obs::Hop::Seal, 0, sgfs_obs::NO_PROC, dt);
                obs.emit(
                    sgfs_obs::Hop::RecordSeal,
                    self.suite as u32,
                    sgfs_obs::NO_PROC,
                    chunk.len() as u64,
                );
            }
            write_assembled_frame(&mut self.inner, &self.write_buf[..frame])?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::CipherSuite;
    use sgfs_pki::{CertificateAuthority, Credential, DistinguishedName, TrustStore};
    use sgfs_crypto::rsa::RsaKeyPair;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        client_cfg: GtlsConfig,
        server_cfg: GtlsConfig,
    }

    fn world() -> World {
        let mut rng = rand::thread_rng();
        let ca = CertificateAuthority::new(&dn("/O=Grid/CN=CA"), 512, &mut rng);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());

        let ckey = RsaKeyPair::generate(512, &mut rng);
        let ccert = ca.issue(&dn("/O=Grid/CN=alice"), &ckey.public);
        let client = Credential::new(ccert, ckey);

        let skey = RsaKeyPair::generate(512, &mut rng);
        let scert = ca.issue(&dn("/O=Grid/CN=fileserver"), &skey.public);
        let server = Credential::new(scert, skey);

        World {
            client_cfg: GtlsConfig::new(client, trust.clone()),
            server_cfg: GtlsConfig::new(server, trust),
        }
    }

    fn connect(w: &World) -> (GtlsStream, GtlsStream) {
        let (a, b) = sgfs_net::pipe_pair();
        let server_cfg = w.server_cfg.clone();
        let h = std::thread::spawn(move || GtlsStream::server(Box::new(b), server_cfg).unwrap());
        let client = GtlsStream::client(Box::new(a), w.client_cfg.clone()).unwrap();
        (client, h.join().unwrap())
    }

    #[test]
    fn handshake_and_bidirectional_data() {
        let w = world();
        let (mut c, mut s) = connect(&w);
        assert_eq!(c.peer().effective_dn.to_string(), "/O=Grid/CN=fileserver");
        assert_eq!(s.peer().effective_dn.to_string(), "/O=Grid/CN=alice");

        c.write_all(b"request").unwrap();
        let mut buf = [0u8; 7];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"request");
        s.write_all(b"response!").unwrap();
        let mut buf = [0u8; 9];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"response!");
    }

    #[test]
    fn suite_negotiation_picks_client_preference() {
        let mut w = world();
        w.client_cfg = w.client_cfg.with_suite(CipherSuite::Rc4_128Sha1);
        let (c, _s) = connect(&w);
        // Just verify a connection was made under the restricted offer.
        assert_eq!(c.handshake_count(), 1);
    }

    #[test]
    fn no_common_suite_fails() {
        let mut w = world();
        w.client_cfg = w.client_cfg.with_suite(CipherSuite::NullSha1);
        w.server_cfg = w.server_cfg.with_suite(CipherSuite::Aes256CbcSha1);
        let (a, b) = sgfs_net::pipe_pair();
        let server_cfg = w.server_cfg.clone();
        let h = std::thread::spawn(move || GtlsStream::server(Box::new(b), server_cfg));
        let c = GtlsStream::client(Box::new(a), w.client_cfg.clone());
        assert!(c.is_err());
        assert!(h.join().unwrap().is_err());
    }

    #[test]
    fn expected_peer_mismatch_fails() {
        let mut w = world();
        w.client_cfg = w
            .client_cfg
            .with_expected_peer(dn("/O=Grid/CN=the-real-server"));
        let (a, b) = sgfs_net::pipe_pair();
        let server_cfg = w.server_cfg.clone();
        let _h = std::thread::spawn(move || GtlsStream::server(Box::new(b), server_cfg));
        match GtlsStream::client(Box::new(a), w.client_cfg.clone()) {
            Err(GtlsError::Validation(sgfs_pki::ValidationError::WrongIdentity { .. })) => {}
            other => panic!("expected WrongIdentity, got {:?}", other.err()),
        }
    }

    #[test]
    fn untrusted_client_rejected_by_server() {
        let mut rng = rand::thread_rng();
        let w = world();
        // Client credential from a rogue CA the server does not trust.
        let rogue = CertificateAuthority::new(&dn("/O=Evil/CN=CA"), 512, &mut rng);
        let key = RsaKeyPair::generate(512, &mut rng);
        let cert = rogue.issue(&dn("/O=Grid/CN=alice"), &key.public);
        let mut rogue_trust = TrustStore::new();
        rogue_trust.add_root(rogue.certificate().clone());
        // Rogue client trusts the real CA (so the server passes *its*
        // check) but presents an untrusted chain.
        let mut client_cfg = GtlsConfig::new(Credential::new(cert, key), w.client_cfg.trust.clone());
        client_cfg.suites = CipherSuite::all();

        let (a, b) = sgfs_net::pipe_pair();
        let server_cfg = w.server_cfg.clone();
        let h = std::thread::spawn(move || GtlsStream::server(Box::new(b), server_cfg));
        let _ = GtlsStream::client(Box::new(a), client_cfg);
        match h.join().unwrap() {
            Err(GtlsError::Validation(_)) => {}
            other => panic!("server should reject untrusted client, got {:?}", other.err()),
        }
    }

    #[test]
    fn delegated_proxy_authenticates_as_user() {
        let mut w = world();
        let proxy_cred = w
            .client_cfg
            .credential
            .issue_proxy(3600, 1, &mut rand::thread_rng());
        w.client_cfg.credential = proxy_cred;
        let (_c, s) = connect(&w);
        assert_eq!(s.peer().effective_dn.to_string(), "/O=Grid/CN=alice");
        assert!(s.peer().via_proxy);
    }

    #[test]
    fn renegotiation_refreshes_keys_and_keeps_data_flowing() {
        let w = world();
        let (mut c, mut s) = connect(&w);
        c.write_all(b"before").unwrap();
        let mut buf = [0u8; 6];
        s.read_exact(&mut buf).unwrap();

        // Server must be blocked in read to service the rekey.
        let h = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            (s, buf)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.renegotiate().unwrap();
        c.write_all(b"after").unwrap();
        let (s, buf) = h.join().unwrap();
        assert_eq!(&buf, b"after");
        assert_eq!(c.handshake_count(), 2);
        assert_eq!(s.handshake_count(), 2);
    }

    #[test]
    fn obs_hook_times_seal_and_open() {
        let w = world();
        let (mut c, mut s) = connect(&w);
        let obs = sgfs_obs::Obs::new();
        c.obs = Some(sgfs_obs::Emitter::new(&obs, "client"));
        s.obs = Some(sgfs_obs::Emitter::new(&obs, "server"));
        c.write_all(b"payload").unwrap();
        let mut buf = [0u8; 7];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(obs.hop_hist(sgfs_obs::Hop::Seal).count(), 1);
        assert_eq!(obs.hop_hist(sgfs_obs::Hop::Open).count(), 1);
        let (events, _) = obs.events();
        let hops: Vec<_> = events.iter().map(|e| e.hop).collect();
        assert_eq!(
            hops,
            [
                sgfs_obs::Hop::Seal,
                sgfs_obs::Hop::RecordSeal,
                sgfs_obs::Hop::Open,
                sgfs_obs::Hop::RecordOpen,
            ]
        );
        // The per-suite events are tagged with the suite wire id and the
        // payload byte count — both deterministic.
        assert_eq!(events[1].xid, c.suite() as u32);
        assert_eq!(events[1].aux, 7);
        assert_eq!(events[3].xid, s.suite() as u32);
        assert_eq!(events[3].aux, 7);
    }

    #[test]
    fn resumable_pair_handshakes_on_one_thread() {
        let w = world();
        let (a, b) = sgfs_net::pipe_pair();
        let (aw, bw) = (a.watch(), b.watch());
        let client = GtlsHandshake::client(Box::new(a), Some(aw), w.client_cfg.clone());
        let server = GtlsHandshake::server(Box::new(b), Some(bw), w.server_cfg.clone());
        let (mut c, mut s) = handshake_pair(client, server).unwrap();
        assert_eq!(c.peer().effective_dn.to_string(), "/O=Grid/CN=fileserver");
        assert_eq!(s.peer().effective_dn.to_string(), "/O=Grid/CN=alice");
        c.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn resumable_client_parks_at_pending_until_input() {
        let w = world();
        let (a, b) = sgfs_net::pipe_pair();
        let aw = a.watch();
        let mut client = GtlsHandshake::client(Box::new(a), Some(aw), w.client_cfg.clone());
        // First advance emits ClientHello and parks: no server yet.
        assert_eq!(client.advance().unwrap(), HsStatus::Pending);
        assert_eq!(client.advance().unwrap(), HsStatus::Pending, "re-advance is idempotent");
        assert!(client.into_stream().is_err(), "incomplete handshake yields no stream");
        drop(b);
    }

    #[test]
    fn resumable_client_fails_cleanly_on_mid_handshake_close() {
        let w = world();
        let (a, b) = sgfs_net::pipe_pair();
        let aw = a.watch();
        let mut client = GtlsHandshake::client(Box::new(a), Some(aw), w.client_cfg.clone());
        assert_eq!(client.advance().unwrap(), HsStatus::Pending);
        // Peer dies before ServerHello: the machine reports EOF instead
        // of leaving anything parked.
        drop(b);
        let err = client.advance().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // And keeps failing — no half-open state to resume into.
        assert!(client.advance().is_err());
    }

    #[test]
    fn large_transfer_all_suites() {
        for suite in CipherSuite::all() {
            let mut w = world();
            w.client_cfg = w.client_cfg.with_suite(suite);
            let (mut c, mut s) = connect(&w);
            let data: Vec<u8> = (0..300_000).map(|i| (i % 251) as u8).collect();
            let expected = data.clone();
            let h = std::thread::spawn(move || {
                let mut got = vec![0u8; expected.len()];
                s.read_exact(&mut got).unwrap();
                assert_eq!(got, expected);
            });
            c.write_all(&data).unwrap();
            h.join().unwrap();
        }
    }
}
