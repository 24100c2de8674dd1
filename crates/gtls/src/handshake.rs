//! The GTLS handshake: mutual certificate authentication, suite
//! negotiation, RSA key transport, and key derivation.
//!
//! The core is the sans-io [`HandshakeState`] machine: feed it handshake
//! messages as they arrive and it tells you what to do next —
//! [`HsAdvance::Send`] a message, wait for [`HsAdvance::NeedInput`], or
//! accept [`HsAdvance::Done`] key material. Event loops drive it one
//! readiness notification at a time without parking a thread; the
//! blocking [`client_handshake`]/[`server_handshake`] drivers below are
//! thin loops over the same machine.

use crate::config::GtlsConfig;
use crate::suite::CipherSuite;
use crate::GtlsError;
use rand::Rng;
use sgfs_crypto::prf::prf_sha256;
use sgfs_crypto::{ct_eq, Digest, Sha256};
use sgfs_pki::{Certificate, ValidatedPeer, ValidationError};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};

/// Length of the Finished verify_data.
const VERIFY_DATA_LEN: usize = 12;
/// Pre-master secret length (as in TLS).
const PREMASTER_LEN: usize = 48;
/// Master secret length.
const MASTER_LEN: usize = 48;

/// A channel that carries whole handshake messages.
///
/// The initial handshake runs over raw frames on the underlying stream;
/// renegotiation runs the same code over protected records — this trait is
/// the seam between the two.
pub trait HsChannel {
    /// Send one handshake message.
    fn hs_send(&mut self, msg: &[u8]) -> Result<(), GtlsError>;
    /// Receive one handshake message.
    fn hs_recv(&mut self) -> Result<Vec<u8>, GtlsError>;
}

/// Derived key material for one session (or one renegotiation epoch).
pub struct SessionKeys {
    /// The negotiated suite.
    pub suite: CipherSuite,
    /// Bulk key for client→server records.
    pub client_write_key: Vec<u8>,
    /// Bulk key for server→client records.
    pub server_write_key: Vec<u8>,
    /// MAC key for client→server records.
    pub client_mac_key: Vec<u8>,
    /// MAC key for server→client records.
    pub server_mac_key: Vec<u8>,
    /// Static AEAD nonce IV for client→server records (empty for
    /// non-AEAD suites).
    pub client_iv: Vec<u8>,
    /// Static AEAD nonce IV for server→client records.
    pub server_iv: Vec<u8>,
}

// ---- handshake messages -------------------------------------------------

struct ClientHello {
    random: [u8; 32],
    suites: Vec<u32>,
}

impl XdrEncode for ClientHello {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_fixed_opaque(&self.random);
        sgfs_xdr::encode_array(&self.suites, enc);
    }
}

impl XdrDecode for ClientHello {
    fn decode(dec: &mut XdrDecoder<'_>) -> sgfs_xdr::XdrResult<Self> {
        let mut random = [0u8; 32];
        random.copy_from_slice(&dec.get_fixed_opaque(32)?);
        Ok(Self { random, suites: sgfs_xdr::decode_array(dec, 16)? })
    }
}

struct ServerHello {
    random: [u8; 32],
    suite: u32,
    chain: Vec<Certificate>,
}

impl XdrEncode for ServerHello {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_fixed_opaque(&self.random);
        enc.put_u32(self.suite);
        sgfs_xdr::encode_array(&self.chain, enc);
    }
}

impl XdrDecode for ServerHello {
    fn decode(dec: &mut XdrDecoder<'_>) -> sgfs_xdr::XdrResult<Self> {
        let mut random = [0u8; 32];
        random.copy_from_slice(&dec.get_fixed_opaque(32)?);
        Ok(Self {
            random,
            suite: dec.get_u32()?,
            chain: sgfs_xdr::decode_array(dec, 8)?,
        })
    }
}

struct ClientKeyExchange {
    encrypted_premaster: Vec<u8>,
    chain: Vec<Certificate>,
    /// Signature with the client key over the transcript so far,
    /// proving possession (TLS CertificateVerify).
    verify_sig: Vec<u8>,
}

impl XdrEncode for ClientKeyExchange {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque(&self.encrypted_premaster);
        sgfs_xdr::encode_array(&self.chain, enc);
        enc.put_opaque(&self.verify_sig);
    }
}

impl XdrDecode for ClientKeyExchange {
    fn decode(dec: &mut XdrDecoder<'_>) -> sgfs_xdr::XdrResult<Self> {
        Ok(Self {
            encrypted_premaster: dec.get_opaque_max(1024)?,
            chain: sgfs_xdr::decode_array(dec, 8)?,
            verify_sig: dec.get_opaque_max(1024)?,
        })
    }
}

// ---- key derivation ------------------------------------------------------

fn derive_master(premaster: &[u8], client_random: &[u8; 32], server_random: &[u8; 32]) -> Vec<u8> {
    let mut seed = Vec::with_capacity(64);
    seed.extend_from_slice(client_random);
    seed.extend_from_slice(server_random);
    prf_sha256(premaster, b"master secret", &seed, MASTER_LEN)
}

fn derive_keys(
    suite: CipherSuite,
    master: &[u8],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> SessionKeys {
    let mut seed = Vec::with_capacity(64);
    seed.extend_from_slice(server_random);
    seed.extend_from_slice(client_random);
    let need = 2 * suite.mac_key_len() + 2 * suite.key_len() + 2 * suite.iv_len();
    let block = prf_sha256(master, b"key expansion", &seed, need);
    let (mac_len, key_len, iv_len) = (suite.mac_key_len(), suite.key_len(), suite.iv_len());
    let keys_end = 2 * mac_len + 2 * key_len;
    SessionKeys {
        suite,
        client_mac_key: block[..mac_len].to_vec(),
        server_mac_key: block[mac_len..2 * mac_len].to_vec(),
        client_write_key: block[2 * mac_len..2 * mac_len + key_len].to_vec(),
        server_write_key: block[2 * mac_len + key_len..keys_end].to_vec(),
        client_iv: block[keys_end..keys_end + iv_len].to_vec(),
        server_iv: block[keys_end + iv_len..].to_vec(),
    }
}

fn finished_data(master: &[u8], label: &[u8], transcript: &[u8]) -> Vec<u8> {
    let hash = Sha256::digest(transcript);
    prf_sha256(master, label, &hash, VERIFY_DATA_LEN)
}

// ---- the resumable state machine -----------------------------------------

/// What the machine wants next after one [`HandshakeState::advance`].
pub enum HsAdvance {
    /// Write this handshake message to the peer, then advance again.
    Send(Vec<u8>),
    /// Nothing to do until the peer's next message arrives.
    NeedInput,
    /// Handshake complete; the channel may switch to the derived keys.
    Done(Box<HsOutcome>),
}

/// The result of a completed handshake.
pub struct HsOutcome {
    /// Derived per-direction key material for the negotiated suite.
    pub keys: SessionKeys,
    /// The authenticated peer identity.
    pub peer: ValidatedPeer,
}

enum Phase {
    // Client side.
    ClientStart,
    AwaitServerHello {
        client_random: [u8; 32],
    },
    SendClientFinished {
        fin: Vec<u8>,
        master: Vec<u8>,
        suite: CipherSuite,
        client_random: [u8; 32],
        server_random: [u8; 32],
        peer: ValidatedPeer,
    },
    AwaitServerFinished {
        expected_fin: Vec<u8>,
        master: Vec<u8>,
        suite: CipherSuite,
        client_random: [u8; 32],
        server_random: [u8; 32],
        peer: ValidatedPeer,
    },
    // Server side.
    AwaitClientHello,
    AwaitKeyExchange {
        client_random: [u8; 32],
        server_random: [u8; 32],
        suite: CipherSuite,
        /// Transcript length as of ServerHello — the span the client's
        /// CertificateVerify signature covers.
        before_cke: usize,
    },
    AwaitClientFinished {
        master: Vec<u8>,
        suite: CipherSuite,
        client_random: [u8; 32],
        server_random: [u8; 32],
        peer: ValidatedPeer,
    },
    /// Server Finished emitted; the next advance reports completion.
    Complete(Box<HsOutcome>),
    Done,
    /// A prior advance failed; the machine is poisoned.
    Failed,
}

/// A resumable GTLS handshake.
///
/// One call to [`advance`](Self::advance) consumes at most one incoming
/// handshake message and yields at most one action, so an event loop can
/// park the machine at any `NeedInput` and resume it when readiness
/// fires — no thread ever blocks inside the handshake. Any protocol or
/// validation error poisons the machine: every later advance keeps
/// failing rather than resuming half-agreed state.
pub struct HandshakeState {
    config: GtlsConfig,
    transcript: Vec<u8>,
    phase: Phase,
}

impl HandshakeState {
    /// A client-side machine; the first advance emits ClientHello.
    pub fn client(config: GtlsConfig) -> Self {
        Self { config, transcript: Vec::new(), phase: Phase::ClientStart }
    }

    /// A server-side machine; waits for the peer's ClientHello.
    pub fn server(config: GtlsConfig) -> Self {
        Self { config, transcript: Vec::new(), phase: Phase::AwaitClientHello }
    }

    /// True once the handshake reached `Done` (terminal success).
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Advance the machine: `incoming` carries the peer's next handshake
    /// message when one has arrived (it must only be `Some` when the
    /// machine asked for input). Errors are terminal.
    pub fn advance<R: Rng>(
        &mut self,
        incoming: Option<Vec<u8>>,
        rng: &mut R,
    ) -> Result<HsAdvance, GtlsError> {
        match self.step(incoming, rng) {
            Ok(adv) => Ok(adv),
            Err(e) => {
                self.phase = Phase::Failed;
                Err(e)
            }
        }
    }

    fn step<R: Rng>(
        &mut self,
        incoming: Option<Vec<u8>>,
        rng: &mut R,
    ) -> Result<HsAdvance, GtlsError> {
        match (std::mem::replace(&mut self.phase, Phase::Failed), incoming) {
            // Phases that consume input stay put (reporting NeedInput)
            // until a message actually arrives, so redundant wakeups are
            // harmless.
            (
                phase @ (Phase::AwaitServerHello { .. }
                | Phase::AwaitServerFinished { .. }
                | Phase::AwaitClientHello
                | Phase::AwaitKeyExchange { .. }
                | Phase::AwaitClientFinished { .. }),
                None,
            ) => {
                self.phase = phase;
                Ok(HsAdvance::NeedInput)
            }
            (Phase::ClientStart, None) => {
                let mut client_random = [0u8; 32];
                rng.fill_bytes(&mut client_random);
                let hello = ClientHello {
                    random: client_random,
                    suites: self.config.suites.iter().map(|s| *s as u32).collect(),
                };
                let msg = hello.to_xdr_bytes();
                self.transcript.extend_from_slice(&msg);
                self.phase = Phase::AwaitServerHello { client_random };
                Ok(HsAdvance::Send(msg))
            }
            (Phase::AwaitServerHello { client_random }, Some(msg)) => {
                self.transcript.extend_from_slice(&msg);
                let sh = ServerHello::from_xdr_bytes(&msg)
                    .map_err(|e| GtlsError::Handshake(format!("bad ServerHello: {e}")))?;
                let suite = CipherSuite::from_u32(sh.suite).ok_or(GtlsError::NoCommonSuite)?;
                if !self.config.suites.contains(&suite) {
                    return Err(GtlsError::NoCommonSuite);
                }
                let peer = self.config.trust.validate_chain(&sh.chain, sgfs_pki::now())?;
                if let Some(expected) = &self.config.expected_peer {
                    if &peer.effective_dn != expected {
                        return Err(GtlsError::Validation(ValidationError::WrongIdentity {
                            expected: expected.to_string(),
                            actual: peer.effective_dn.to_string(),
                        }));
                    }
                }
                let server_key = &sh.chain[0].body.public_key;

                // ClientKeyExchange: premaster + our chain + possession
                // proof (signature over the transcript up to ServerHello).
                let mut premaster = vec![0u8; PREMASTER_LEN];
                rng.fill_bytes(&mut premaster);
                let encrypted_premaster = server_key
                    .encrypt(&premaster, rng)
                    .map_err(|e| GtlsError::Handshake(format!("premaster encryption: {e}")))?;
                let verify_sig = self.config.credential.sign(&self.transcript);
                let cke = ClientKeyExchange {
                    encrypted_premaster,
                    chain: self.config.credential.chain.clone(),
                    verify_sig,
                };
                let msg = cke.to_xdr_bytes();
                self.transcript.extend_from_slice(&msg);
                let master = derive_master(&premaster, &client_random, &sh.random);
                let fin = finished_data(&master, b"client finished", &self.transcript);
                self.transcript.extend_from_slice(&fin);
                self.phase = Phase::SendClientFinished {
                    fin,
                    master,
                    suite,
                    client_random,
                    server_random: sh.random,
                    peer,
                };
                Ok(HsAdvance::Send(msg))
            }
            (
                Phase::SendClientFinished { fin, master, suite, client_random, server_random, peer },
                None,
            ) => {
                let expected_fin = finished_data(&master, b"server finished", &self.transcript);
                self.phase = Phase::AwaitServerFinished {
                    expected_fin,
                    master,
                    suite,
                    client_random,
                    server_random,
                    peer,
                };
                Ok(HsAdvance::Send(fin))
            }
            (
                Phase::AwaitServerFinished {
                    expected_fin,
                    master,
                    suite,
                    client_random,
                    server_random,
                    peer,
                },
                Some(server_fin),
            ) => {
                if !ct_eq(&server_fin, &expected_fin) {
                    return Err(GtlsError::Handshake("server Finished mismatch".into()));
                }
                self.phase = Phase::Done;
                Ok(HsAdvance::Done(Box::new(HsOutcome {
                    keys: derive_keys(suite, &master, &client_random, &server_random),
                    peer,
                })))
            }
            (Phase::AwaitClientHello, Some(msg)) => {
                self.transcript.extend_from_slice(&msg);
                let hello = ClientHello::from_xdr_bytes(&msg)
                    .map_err(|e| GtlsError::Handshake(format!("bad ClientHello: {e}")))?;
                let suite = hello
                    .suites
                    .iter()
                    .filter_map(|v| CipherSuite::from_u32(*v))
                    .find(|s| self.config.suites.contains(s))
                    .ok_or(GtlsError::NoCommonSuite)?;
                let mut server_random = [0u8; 32];
                rng.fill_bytes(&mut server_random);
                let sh = ServerHello {
                    random: server_random,
                    suite: suite as u32,
                    chain: self.config.credential.chain.clone(),
                };
                let msg = sh.to_xdr_bytes();
                self.transcript.extend_from_slice(&msg);
                self.phase = Phase::AwaitKeyExchange {
                    client_random: hello.random,
                    server_random,
                    suite,
                    before_cke: self.transcript.len(),
                };
                Ok(HsAdvance::Send(msg))
            }
            (
                Phase::AwaitKeyExchange { client_random, server_random, suite, before_cke },
                Some(msg),
            ) => {
                self.transcript.extend_from_slice(&msg);
                let cke = ClientKeyExchange::from_xdr_bytes(&msg)
                    .map_err(|e| GtlsError::Handshake(format!("bad ClientKeyExchange: {e}")))?;
                let peer = self.config.trust.validate_chain(&cke.chain, sgfs_pki::now())?;
                if let Some(expected) = &self.config.expected_peer {
                    if &peer.effective_dn != expected {
                        return Err(GtlsError::Validation(ValidationError::WrongIdentity {
                            expected: expected.to_string(),
                            actual: peer.effective_dn.to_string(),
                        }));
                    }
                }
                cke.chain[0]
                    .body
                    .public_key
                    .verify(&self.transcript[..before_cke], &cke.verify_sig)
                    .map_err(|_| GtlsError::Handshake("client CertificateVerify failed".into()))?;
                let premaster = self
                    .config
                    .credential
                    .key
                    .decrypt(&cke.encrypted_premaster)
                    .map_err(|e| GtlsError::Handshake(format!("premaster decryption: {e}")))?;
                if premaster.len() != PREMASTER_LEN {
                    return Err(GtlsError::Handshake("premaster has wrong length".into()));
                }
                let master = derive_master(&premaster, &client_random, &server_random);
                self.phase = Phase::AwaitClientFinished {
                    master,
                    suite,
                    client_random,
                    server_random,
                    peer,
                };
                Ok(HsAdvance::NeedInput)
            }
            (
                Phase::AwaitClientFinished { master, suite, client_random, server_random, peer },
                Some(client_fin),
            ) => {
                let expected = finished_data(&master, b"client finished", &self.transcript);
                if !ct_eq(&client_fin, &expected) {
                    return Err(GtlsError::Handshake("client Finished mismatch".into()));
                }
                self.transcript.extend_from_slice(&client_fin);
                let server_fin = finished_data(&master, b"server finished", &self.transcript);
                self.phase = Phase::Complete(Box::new(HsOutcome {
                    keys: derive_keys(suite, &master, &client_random, &server_random),
                    peer,
                }));
                Ok(HsAdvance::Send(server_fin))
            }
            (Phase::Complete(outcome), None) => {
                self.phase = Phase::Done;
                Ok(HsAdvance::Done(outcome))
            }
            (Phase::Done, None) => Err(GtlsError::Handshake("handshake already complete".into())),
            (Phase::Failed, None) => {
                Err(GtlsError::Handshake("handshake previously failed".into()))
            }
            // Any other phase sends, or has ended: it awaits no message.
            (_, Some(_)) => Err(GtlsError::Handshake("unexpected handshake message".into())),
        }
    }
}

// ---- blocking drivers -----------------------------------------------------

fn drive_blocking<R: Rng>(
    mut state: HandshakeState,
    ch: &mut dyn HsChannel,
    rng: &mut R,
) -> Result<(SessionKeys, ValidatedPeer), GtlsError> {
    let mut incoming = None;
    loop {
        match state.advance(incoming.take(), rng)? {
            HsAdvance::Send(msg) => ch.hs_send(&msg)?,
            HsAdvance::NeedInput => incoming = Some(ch.hs_recv()?),
            HsAdvance::Done(outcome) => return Ok((outcome.keys, outcome.peer)),
        }
    }
}

/// Run the client side of the handshake over `ch`, blocking for input.
pub fn client_handshake<R: Rng>(
    ch: &mut dyn HsChannel,
    config: &GtlsConfig,
    rng: &mut R,
) -> Result<(SessionKeys, ValidatedPeer), GtlsError> {
    drive_blocking(HandshakeState::client(config.clone()), ch, rng)
}

/// Run the server side of the handshake over `ch`, blocking for input.
pub fn server_handshake<R: Rng>(
    ch: &mut dyn HsChannel,
    config: &GtlsConfig,
    rng: &mut R,
) -> Result<(SessionKeys, ValidatedPeer), GtlsError> {
    drive_blocking(HandshakeState::server(config.clone()), ch, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_derivation_is_symmetric_and_suite_sized() {
        let premaster = [7u8; PREMASTER_LEN];
        let cr = [1u8; 32];
        let sr = [2u8; 32];
        let master = derive_master(&premaster, &cr, &sr);
        assert_eq!(master.len(), MASTER_LEN);
        for suite in CipherSuite::all() {
            let k1 = derive_keys(suite, &master, &cr, &sr);
            let k2 = derive_keys(suite, &master, &cr, &sr);
            assert_eq!(k1.client_write_key, k2.client_write_key);
            assert_eq!(k1.client_write_key.len(), suite.key_len());
            assert_eq!(k1.client_mac_key.len(), suite.mac_key_len());
            assert_eq!(k1.client_iv.len(), suite.iv_len());
            assert_eq!(k1.server_iv.len(), suite.iv_len());
            if suite.encrypts() {
                assert_ne!(k1.client_write_key, k1.server_write_key);
            }
            if suite.is_aead() {
                assert_ne!(k1.client_iv, k1.server_iv, "{suite:?} per-direction IVs");
            } else {
                assert_ne!(k1.client_mac_key, k1.server_mac_key);
            }
        }
    }

    #[test]
    fn master_depends_on_all_inputs() {
        let base = derive_master(&[1; 48], &[2; 32], &[3; 32]);
        assert_ne!(derive_master(&[9; 48], &[2; 32], &[3; 32]), base);
        assert_ne!(derive_master(&[1; 48], &[9; 32], &[3; 32]), base);
        assert_ne!(derive_master(&[1; 48], &[2; 32], &[9; 32]), base);
    }

    /// One credential under its own CA, trusted by both ends.
    fn config() -> GtlsConfig {
        use sgfs_pki::{CertificateAuthority, Credential, DistinguishedName, TrustStore};
        let mut rng = rand::thread_rng();
        let dn = |s: &str| DistinguishedName::parse(s).unwrap();
        let ca = CertificateAuthority::new(&dn("/O=Grid/CN=CA"), 512, &mut rng);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, &mut rng);
        let cert = ca.issue(&dn("/O=Grid/CN=peer"), &key.public);
        GtlsConfig::new(Credential::new(cert, key), trust)
    }

    fn refused(r: Result<HsAdvance, GtlsError>) -> bool {
        matches!(r, Err(GtlsError::Handshake(m)) if m == "unexpected handshake message")
    }

    /// A message reaches only a phase that awaits one: any other phase
    /// refuses it and the machine is poisoned, while an awaiting phase
    /// given none reports `NeedInput` and still takes the message later.
    /// Neither case panics.
    #[test]
    fn only_an_awaiting_phase_takes_a_message() {
        let mut rng = rand::thread_rng();
        let cfg = config();

        // ClientStart sends its hello: a message there is refused.
        let mut early = HandshakeState::client(cfg.clone());
        assert!(refused(early.advance(Some(b"hello".to_vec()), &mut rng)));
        assert!(early.advance(None, &mut rng).is_err(), "poisoned");

        let mut client = HandshakeState::client(cfg.clone());
        let mut server = HandshakeState::server(cfg);
        for _ in 0..2 {
            assert!(matches!(server.advance(None, &mut rng), Ok(HsAdvance::NeedInput)));
        }
        let Ok(HsAdvance::Send(hello)) = client.advance(None, &mut rng) else { panic!("hello") };
        assert!(matches!(client.advance(None, &mut rng), Ok(HsAdvance::NeedInput)));
        let Ok(HsAdvance::Send(sh)) = server.advance(Some(hello), &mut rng) else { panic!("sh") };
        let Ok(HsAdvance::Send(cke)) = client.advance(Some(sh), &mut rng) else { panic!("cke") };
        assert!(matches!(server.advance(Some(cke), &mut rng), Ok(HsAdvance::NeedInput)));
        assert!(matches!(server.advance(None, &mut rng), Ok(HsAdvance::NeedInput)));
        let Ok(HsAdvance::Send(fin)) = client.advance(None, &mut rng) else { panic!("fin") };
        let Ok(HsAdvance::Send(_)) = server.advance(Some(fin), &mut rng) else { panic!("sfin") };
        // Complete has its outcome to report, not a message to take.
        assert!(refused(server.advance(Some(Vec::new()), &mut rng)));
        assert!(server.advance(None, &mut rng).is_err(), "poisoned");
    }

    #[test]
    fn finished_labels_differ() {
        let master = [5u8; 48];
        let t = b"transcript";
        assert_ne!(
            finished_data(&master, b"client finished", t),
            finished_data(&master, b"server finished", t)
        );
    }
}
