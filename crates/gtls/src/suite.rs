//! Cipher suites and per-direction cipher state.

use sgfs_crypto::cbc::{cbc_decrypt_in_place_ct, cbc_encrypt_padded};
use sgfs_crypto::{Aes, AesGcm, Rc4, AEAD_TAG_LEN};
use sgfs_crypto::chachapoly::ChaCha20Poly1305 as ChaChaPolyKey;
use rand::RngCore;

/// The negotiable cipher suites: the paper's three security levels plus
/// the single-pass AEAD modes that replace the two-pass CBC+HMAC path on
/// the hot data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum CipherSuite {
    /// Integrity only (SHA1-HMAC), no encryption — `sgfs-sha`.
    NullSha1 = 1,
    /// RC4 with a 128-bit key + SHA1-HMAC — `sgfs-rc`.
    Rc4_128Sha1 = 2,
    /// AES-128-CBC + SHA1-HMAC.
    Aes128CbcSha1 = 3,
    /// AES-256-CBC + SHA1-HMAC — `sgfs-aes`, the strong configuration.
    Aes256CbcSha1 = 4,
    /// AES-128-GCM (AEAD, single pass).
    Aes128Gcm = 5,
    /// AES-256-GCM (AEAD, single pass) — `sgfs-gcm`, the strongest offer.
    Aes256Gcm = 6,
    /// ChaCha20-Poly1305 (AEAD, single pass, no AES hardware needed).
    ChaCha20Poly1305 = 7,
}

impl CipherSuite {
    /// Decode from the wire discriminant.
    pub fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            1 => CipherSuite::NullSha1,
            2 => CipherSuite::Rc4_128Sha1,
            3 => CipherSuite::Aes128CbcSha1,
            4 => CipherSuite::Aes256CbcSha1,
            5 => CipherSuite::Aes128Gcm,
            6 => CipherSuite::Aes256Gcm,
            7 => CipherSuite::ChaCha20Poly1305,
            _ => return None,
        })
    }

    /// Symmetric key length in bytes (0 for the null cipher).
    pub fn key_len(self) -> usize {
        match self {
            CipherSuite::NullSha1 => 0,
            CipherSuite::Rc4_128Sha1 => 16,
            CipherSuite::Aes128CbcSha1 => 16,
            CipherSuite::Aes256CbcSha1 => 32,
            CipherSuite::Aes128Gcm => 16,
            CipherSuite::Aes256Gcm => 32,
            CipherSuite::ChaCha20Poly1305 => 32,
        }
    }

    /// MAC key length in bytes: SHA-1 HMAC for the legacy suites; the
    /// AEAD suites authenticate inside the cipher and need none.
    pub fn mac_key_len(self) -> usize {
        if self.is_aead() {
            0
        } else {
            20
        }
    }

    /// Per-direction implicit-IV length: the AEAD suites derive each
    /// record's nonce from a 12-byte static IV XOR the sequence number
    /// (TLS 1.3 style — nothing on the wire, no per-record randomness).
    pub fn iv_len(self) -> usize {
        if self.is_aead() {
            12
        } else {
            0
        }
    }

    /// Whether this suite is a single-pass AEAD mode.
    pub fn is_aead(self) -> bool {
        matches!(
            self,
            CipherSuite::Aes128Gcm | CipherSuite::Aes256Gcm | CipherSuite::ChaCha20Poly1305
        )
    }

    /// Whether this suite encrypts (false = integrity only).
    pub fn encrypts(self) -> bool {
        !matches!(self, CipherSuite::NullSha1)
    }

    /// Construct the per-direction cipher state from its key material.
    /// `iv` must be [`CipherSuite::iv_len`] bytes (empty for non-AEAD).
    pub fn new_state(self, key: &[u8], iv: &[u8]) -> CipherState {
        debug_assert_eq!(key.len(), self.key_len());
        debug_assert_eq!(iv.len(), self.iv_len());
        match self {
            CipherSuite::NullSha1 => CipherState::Null,
            CipherSuite::Rc4_128Sha1 => CipherState::Rc4(Box::new(Rc4::new(key))),
            CipherSuite::Aes128CbcSha1 | CipherSuite::Aes256CbcSha1 => {
                CipherState::AesCbc(Box::new(Aes::new(key)))
            }
            CipherSuite::Aes128Gcm | CipherSuite::Aes256Gcm => {
                CipherState::Gcm(Box::new(AesGcm::new(key)), iv.try_into().unwrap())
            }
            CipherSuite::ChaCha20Poly1305 => CipherState::ChaChaPoly(
                Box::new(ChaChaPolyKey::new(key.try_into().unwrap())),
                iv.try_into().unwrap(),
            ),
        }
    }

    /// All suites, strongest first — the default offer list. AEAD modes
    /// lead; the legacy CBC/RC4+HMAC suites follow so a legacy-only peer
    /// still finds common ground.
    pub fn all() -> Vec<CipherSuite> {
        vec![
            CipherSuite::Aes256Gcm,
            CipherSuite::ChaCha20Poly1305,
            CipherSuite::Aes128Gcm,
            CipherSuite::Aes256CbcSha1,
            CipherSuite::Aes128CbcSha1,
            CipherSuite::Rc4_128Sha1,
            CipherSuite::NullSha1,
        ]
    }

    /// The pre-AEAD offer list — what a peer from before this change
    /// offers; used by the negotiation tests to model legacy endpoints.
    pub fn legacy() -> Vec<CipherSuite> {
        vec![
            CipherSuite::Aes256CbcSha1,
            CipherSuite::Aes128CbcSha1,
            CipherSuite::Rc4_128Sha1,
            CipherSuite::NullSha1,
        ]
    }
}

/// Per-direction bulk cipher state.
///
/// RC4 is stateful (a keystream position); AES-CBC state is just the key
/// schedule since each record carries an explicit IV; the AEAD states
/// carry their static per-direction IV, combined with the record sequence
/// number into each nonce.
pub enum CipherState {
    /// No encryption.
    Null,
    /// RC4 keystream.
    Rc4(Box<Rc4>),
    /// AES key schedule for CBC with explicit per-record IVs.
    AesCbc(Box<Aes>),
    /// AES-GCM key plus the direction's static nonce IV.
    Gcm(Box<AesGcm>, [u8; 12]),
    /// ChaCha20-Poly1305 key plus the direction's static nonce IV.
    ChaChaPoly(Box<ChaChaPolyKey>, [u8; 12]),
}

impl CipherState {
    /// Bytes of per-record explicit header (the CBC IV) this cipher
    /// prepends to the wire body. AEAD nonces are implicit: zero.
    pub fn explicit_iv_len(&self) -> usize {
        match self {
            CipherState::AesCbc(_) => 16,
            _ => 0,
        }
    }

    /// Whether this state seals through the AEAD path (record header as
    /// AAD, implicit nonce, built-in authentication).
    pub fn is_aead(&self) -> bool {
        matches!(self, CipherState::Gcm(..) | CipherState::ChaChaPoly(..))
    }

    /// Bytes of wire body that protect `n` bytes of plaintext (a legacy
    /// suite's MAC included): plus the CBC IV and padding, or the AEAD
    /// tag.
    pub fn sealed_len(&self, n: usize) -> usize {
        match self {
            CipherState::Null | CipherState::Rc4(_) => n,
            CipherState::AesCbc(_) => 16 + (n / 16 + 1) * 16,
            CipherState::Gcm(..) | CipherState::ChaChaPoly(..) => n + AEAD_TAG_LEN,
        }
    }

    /// The record nonce: static IV with the sequence number XORed into
    /// the trailing 8 bytes (big-endian) — unique per record, no wire
    /// bytes, no randomness.
    fn aead_nonce(iv: &[u8; 12], seq: u64) -> [u8; 12] {
        let mut n = *iv;
        for (b, s) in n[4..].iter_mut().zip(seq.to_be_bytes()) {
            *b ^= s;
        }
        n
    }

    /// AEAD seal: write `ciphertext || tag` of `payload` into `out`
    /// (exactly [`sealed_len`](Self::sealed_len) bytes) under the record
    /// nonce for `seq`, authenticating `aad`. AES-GCM reads `payload` once
    /// and writes ciphertext straight into `out`. Panics on non-AEAD
    /// states — callers dispatch on [`Self::is_aead`].
    pub fn seal_aead(&self, seq: u64, aad: &[u8], payload: &[u8], out: &mut [u8]) {
        match self {
            CipherState::Gcm(gcm, iv) => gcm.seal_to(&Self::aead_nonce(iv, seq), aad, payload, out),
            CipherState::ChaChaPoly(cp, iv) => {
                cp.seal_to(&Self::aead_nonce(iv, seq), aad, payload, out)
            }
            _ => unreachable!("seal_aead on a non-AEAD cipher state"),
        }
    }

    /// AEAD open: verify and decrypt `buf` (`ciphertext || tag`) in
    /// place, returning the plaintext length. Panics on non-AEAD states.
    pub fn open_aead(
        &self,
        seq: u64,
        aad: &[u8],
        buf: &mut [u8],
    ) -> Result<usize, sgfs_crypto::AeadError> {
        match self {
            CipherState::Gcm(gcm, iv) => {
                gcm.open_in_place(&Self::aead_nonce(iv, seq), aad, buf)
            }
            CipherState::ChaChaPoly(cp, iv) => {
                cp.open_in_place(&Self::aead_nonce(iv, seq), aad, buf)
            }
            _ => unreachable!("open_aead on a non-AEAD cipher state"),
        }
    }

    /// Encrypt a legacy wire body in place: `body` is
    /// [`sealed_len`](Self::sealed_len) bytes, of which
    /// `body[..explicit_iv_len()]` is an IV slot this call fills,
    /// `body[explicit_iv_len()..filled]` the plaintext (plus MAC), and
    /// `body[filled..]` room for the CBC padding this call writes. No heap
    /// allocation.
    pub fn seal_body<R: RngCore>(&mut self, body: &mut [u8], filled: usize, rng: &mut R) {
        match self {
            CipherState::Null => {}
            CipherState::Rc4(rc4) => rc4.process(body),
            CipherState::AesCbc(aes) => {
                let pad = body.len() - filled;
                body[filled..].fill(pad as u8);
                let mut iv = [0u8; 16];
                rng.fill_bytes(&mut iv);
                body[..16].copy_from_slice(&iv);
                cbc_encrypt_padded(aes, &iv, &mut body[16..]);
            }
            CipherState::Gcm(..) | CipherState::ChaChaPoly(..) => {
                unreachable!("AEAD states seal through seal_aead")
            }
        }
    }

    /// Decrypt a wire body in place (legacy suites), returning the
    /// `(offset, len, ok)` window of the recovered plaintext-plus-MAC
    /// within `buf`. `ok` is false when CBC padding failed validation —
    /// reported as a flag rather than an error so the record layer can
    /// fold it into its MAC verdict without a distinguishable early exit
    /// (padding-oracle shape). No heap allocation.
    pub fn open_in_place(&mut self, buf: &mut [u8]) -> Result<(usize, usize, bool), String> {
        match self {
            CipherState::Null => Ok((0, buf.len(), true)),
            CipherState::Rc4(rc4) => {
                rc4.process(buf);
                Ok((0, buf.len(), true))
            }
            CipherState::AesCbc(aes) => {
                if buf.len() < 16 {
                    return Err("CBC record shorter than IV".into());
                }
                let mut iv = [0u8; 16];
                iv.copy_from_slice(&buf[..16]);
                let (len, ok) = cbc_decrypt_in_place_ct(aes, &iv, &mut buf[16..])
                    .map_err(|e| e.to_string())?;
                Ok((16, len, ok))
            }
            CipherState::Gcm(..) | CipherState::ChaChaPoly(..) => {
                unreachable!("AEAD states open through open_aead")
            }
        }
    }

    /// Encrypt `plain` (already carrying its MAC) into the wire form
    /// (legacy suites).
    pub fn seal<R: RngCore>(&mut self, plain: Vec<u8>, rng: &mut R) -> Vec<u8> {
        let ivl = self.explicit_iv_len();
        let mut out = vec![0u8; self.sealed_len(plain.len())];
        out[ivl..ivl + plain.len()].copy_from_slice(&plain);
        self.seal_body(&mut out, ivl + plain.len(), rng);
        out
    }

    /// Decrypt a wire payload back to plaintext-plus-MAC (legacy suites).
    pub fn open(&mut self, mut wire: Vec<u8>) -> Result<Vec<u8>, String> {
        let (off, len, ok) = self.open_in_place(&mut wire)?;
        if !ok {
            return Err("record authentication failed".into());
        }
        wire.copy_within(off..off + len, 0);
        wire.truncate(len);
        Ok(wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_discriminants_roundtrip() {
        for s in CipherSuite::all() {
            assert_eq!(CipherSuite::from_u32(s as u32), Some(s));
        }
        assert_eq!(CipherSuite::from_u32(0), None);
        assert_eq!(CipherSuite::from_u32(99), None);
    }

    #[test]
    fn seal_open_roundtrip_all_suites() {
        let mut rng = rand::thread_rng();
        for suite in CipherSuite::all() {
            let key = vec![0x42u8; suite.key_len()];
            let iv = vec![0x17u8; suite.iv_len()];
            let mut tx = suite.new_state(&key, &iv);
            let mut rx = suite.new_state(&key, &iv);
            for (seq, len) in [0usize, 1, 20, 100, 32 * 1024].into_iter().enumerate() {
                let plain: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
                if suite.is_aead() {
                    let mut buf = vec![0xEE; tx.sealed_len(plain.len())];
                    tx.seal_aead(seq as u64, b"hdr", &plain, &mut buf);
                    let n = rx.open_aead(seq as u64, b"hdr", &mut buf).unwrap();
                    assert_eq!(&buf[..n], &plain[..], "suite {suite:?} len {len}");
                } else {
                    let wire = tx.seal(plain.clone(), &mut rng);
                    let back = rx.open(wire).unwrap();
                    assert_eq!(back, plain, "suite {suite:?} len {len}");
                }
            }
        }
    }

    #[test]
    fn aead_nonce_unique_per_seq() {
        let iv = [0xAAu8; 12];
        let n0 = CipherState::aead_nonce(&iv, 0);
        let n1 = CipherState::aead_nonce(&iv, 1);
        let nbig = CipherState::aead_nonce(&iv, u64::MAX);
        assert_eq!(n0, iv, "seq 0 leaves the static IV untouched");
        assert_ne!(n0, n1);
        assert_ne!(n1, nbig);
        // XOR is an involution: same seq twice gives the same nonce.
        assert_eq!(n1, CipherState::aead_nonce(&iv, 1));
    }

    #[test]
    fn null_suite_does_not_hide_plaintext() {
        let mut st = CipherSuite::NullSha1.new_state(&[], &[]);
        let wire = st.seal(b"visible".to_vec(), &mut rand::thread_rng());
        assert_eq!(wire, b"visible");
    }

    #[test]
    fn encrypting_suites_hide_plaintext() {
        let mut rng = rand::thread_rng();
        for suite in [CipherSuite::Rc4_128Sha1, CipherSuite::Aes256CbcSha1] {
            let key = vec![7u8; suite.key_len()];
            let mut st = suite.new_state(&key, &[]);
            let plain = b"secret grid data secret grid data".to_vec();
            let wire = st.seal(plain.clone(), &mut rng);
            assert!(!wire.windows(8).any(|w| w == &plain[..8]), "{suite:?} leaked plaintext");
        }
    }

    #[test]
    fn aead_suites_hide_plaintext() {
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::Aes256Gcm, CipherSuite::ChaCha20Poly1305]
        {
            let key = vec![7u8; suite.key_len()];
            let st = suite.new_state(&key, &[3u8; 12]);
            let plain = b"secret grid data secret grid data".to_vec();
            let mut wire = vec![0; st.sealed_len(plain.len())];
            st.seal_aead(1, b"hdr", &plain, &mut wire);
            assert!(!wire.windows(8).any(|w| w == &plain[..8]), "{suite:?} leaked plaintext");
        }
    }

    #[test]
    fn suite_property_table_consistent() {
        for suite in CipherSuite::all() {
            if suite.is_aead() {
                assert_eq!(suite.mac_key_len(), 0, "{suite:?}");
                assert_eq!(suite.iv_len(), 12, "{suite:?}");
                assert!(suite.encrypts(), "{suite:?}");
            } else {
                assert_eq!(suite.mac_key_len(), 20, "{suite:?}");
                assert_eq!(suite.iv_len(), 0, "{suite:?}");
            }
        }
        // The default offer leads with AEAD and still contains every
        // legacy suite, so old peers can always agree.
        assert!(CipherSuite::all()[0].is_aead());
        for legacy in CipherSuite::legacy() {
            assert!(CipherSuite::all().contains(&legacy));
        }
    }

    #[test]
    fn short_cbc_record_rejected() {
        let mut st = CipherSuite::Aes256CbcSha1.new_state(&[0u8; 32], &[]);
        assert!(st.open(vec![1, 2, 3]).is_err());
    }
}
