//! The GTLS record layer: framing, sequence-numbered MACs, bulk crypto.

use crate::suite::{CipherState, CipherSuite};
use crate::GtlsError;
use rand::RngCore;
use sgfs_crypto::{ct_eq, HmacSha1Key};
use std::io::{Read, Write};

/// Content type: handshake / renegotiation traffic.
pub const CT_HANDSHAKE: u8 = 22;
/// Content type: application data.
pub const CT_DATA: u8 = 23;

/// Largest record payload we will emit or accept.
pub const MAX_RECORD_PAYLOAD: usize = 64 * 1024;

/// AEAD authentication tag length appended to each AEAD record.
pub const AEAD_TAG_LEN: usize = sgfs_crypto::AEAD_TAG_LEN;

/// The one error every record-open failure collapses into. Bad padding,
/// bad MAC, bad tag, short record — all indistinguishable to a peer, so
/// no padding/verification oracle exists.
fn auth_failure() -> GtlsError {
    GtlsError::RecordIntegrity("record authentication failed".into())
}

/// One direction of a protected connection.
///
/// Owns the bulk cipher state, MAC key, and the implicit 64-bit sequence
/// number that makes replayed or reordered records fail authentication.
/// Legacy suites MAC-then-encrypt with HMAC-SHA1; AEAD suites seal in a
/// single pass with the record header as associated data.
pub struct HalfConn {
    cipher: CipherState,
    /// Precomputed HMAC-SHA1 pad states; `None` for unprotected streams
    /// and for the AEAD suites (which authenticate inside the cipher).
    mac: Option<HmacSha1Key>,
    seq: u64,
}

impl HalfConn {
    /// Fresh direction state from negotiated key material. `iv` is the
    /// direction's static AEAD nonce IV (empty for non-AEAD suites).
    pub fn new(suite: CipherSuite, write_key: &[u8], mac_key: &[u8], iv: &[u8]) -> Self {
        let mac = if mac_key.is_empty() { None } else { Some(HmacSha1Key::new(mac_key)) };
        Self { cipher: suite.new_state(write_key, iv), mac, seq: 0 }
    }

    /// An unprotected direction (used only before the first handshake).
    pub fn plaintext() -> Self {
        Self { cipher: CipherState::Null, mac: None, seq: 0 }
    }

    fn mac(&self, content_type: u8, payload: &[u8]) -> [u8; 20] {
        // Streamed to avoid copying the payload: seq || type || len || data.
        let mut h = self.mac.as_ref().expect("mac-less HalfConn").begin();
        h.update(&self.seq.to_be_bytes());
        h.update(&[content_type]);
        h.update(&(payload.len() as u32).to_be_bytes());
        h.update(payload);
        h.finalize_fixed()
    }

    /// The AEAD associated data: the same record header the legacy MAC
    /// covers — `seq(8 BE) || content_type(1) || payload_len(4 BE)`.
    fn aad(&self, content_type: u8, payload_len: usize) -> [u8; 13] {
        let mut aad = [0u8; 13];
        aad[..8].copy_from_slice(&self.seq.to_be_bytes());
        aad[8] = content_type;
        aad[9..].copy_from_slice(&(payload_len as u32).to_be_bytes());
        aad
    }

    /// Protect `payload`, appending the wire body to `out`.
    ///
    /// `out[..out.len()]` on entry (e.g. a frame header) is preserved, so
    /// a whole framed record can be assembled in one reused buffer. The
    /// steady-state cost is zero heap allocations: the MAC/GHASH runs on
    /// precomputed states, encryption writes into `out` (AES-GCM straight
    /// from `payload`, the other suites in place over a copy), and `out`
    /// only grows until it reaches the connection's record-size
    /// high-water mark.
    pub fn seal_into<R: RngCore>(
        &mut self,
        content_type: u8,
        payload: &[u8],
        rng: &mut R,
        out: &mut Vec<u8>,
    ) {
        if self.cipher.is_aead() {
            // One call encrypts and authenticates, header as AAD, nonce
            // derived from the sequence counter — no per-record
            // randomness, no IV bytes on the wire.
            let aad = self.aad(content_type, payload.len());
            self.cipher.seal_aead(self.seq, &aad, payload, out);
            self.seq = self.seq.wrapping_add(1);
            return;
        }
        let start = out.len();
        out.resize(start + self.cipher.explicit_iv_len(), 0);
        out.extend_from_slice(payload);
        if self.mac.is_some() {
            let mac = self.mac(content_type, payload);
            out.extend_from_slice(&mac);
        }
        self.seq = self.seq.wrapping_add(1);
        self.cipher.seal_in_place(out, start, rng);
    }

    /// Unprotect a wire body in place, returning the `(offset, len)`
    /// window of the payload within `wire`. No heap allocation. Every
    /// failure mode returns the same opaque error.
    pub fn open_in_place(
        &mut self,
        content_type: u8,
        wire: &mut [u8],
    ) -> Result<(usize, usize), GtlsError> {
        if self.cipher.is_aead() {
            if wire.len() < AEAD_TAG_LEN {
                return Err(auth_failure());
            }
            let aad = self.aad(content_type, wire.len() - AEAD_TAG_LEN);
            let len = self
                .cipher
                .open_aead(self.seq, &aad, wire)
                .map_err(|_| auth_failure())?;
            self.seq = self.seq.wrapping_add(1);
            return Ok((0, len));
        }
        let (off, mut len, pad_ok) =
            self.cipher.open_in_place(wire).map_err(|_| auth_failure())?;
        let mut ok = pad_ok;
        if self.mac.is_some() {
            if len < 20 {
                return Err(auth_failure());
            }
            len -= 20;
            // The MAC always runs, even over a bad-padding plaintext, so
            // padding and MAC failures take the same code path and emerge
            // as the same error.
            let expected = self.mac(content_type, &wire[off..off + len]);
            ok &= ct_eq(&expected, &wire[off + len..off + len + 20]);
        }
        if !ok {
            return Err(auth_failure());
        }
        self.seq = self.seq.wrapping_add(1);
        Ok((off, len))
    }

    /// Protect `payload` into a wire body (MAC then encrypt).
    pub fn seal<R: RngCore>(&mut self, content_type: u8, payload: &[u8], rng: &mut R) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 56);
        self.seal_into(content_type, payload, rng, &mut out);
        out
    }

    /// Unprotect a wire body back into the payload (decrypt then verify).
    pub fn open(&mut self, content_type: u8, mut wire: Vec<u8>) -> Result<Vec<u8>, GtlsError> {
        let (off, len) = self.open_in_place(content_type, &mut wire)?;
        wire.copy_within(off..off + len, 0);
        wire.truncate(len);
        Ok(wire)
    }
}

/// Write one record: `[content_type u8][len u32 BE][body]`.
pub fn write_frame<W: Write + ?Sized>(
    w: &mut W,
    content_type: u8,
    body: &[u8],
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(5 + body.len());
    write_frame_with(w, content_type, body, &mut frame)
}

/// Like [`write_frame`] but assembles the frame in a caller-provided
/// scratch buffer, so a connection's write path allocates nothing at
/// steady state. One write call per frame either way: the emulated
/// transport stamps arrival times per write, and a frame is one logical
/// message.
pub fn write_frame_with<W: Write + ?Sized>(
    w: &mut W,
    content_type: u8,
    body: &[u8],
    scratch: &mut Vec<u8>,
) -> std::io::Result<()> {
    scratch.clear();
    scratch.push(content_type);
    scratch.extend_from_slice(&(body.len() as u32).to_be_bytes());
    scratch.extend_from_slice(body);
    w.write_all(scratch)?;
    w.flush()
}

/// Write a pre-assembled frame (`[content_type][len][body]` already laid
/// out in `frame`, as produced by [`frame_header_into`] + sealing into
/// the same buffer). One write call.
pub fn write_assembled_frame<W: Write + ?Sized>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    debug_assert!(frame.len() >= 5);
    w.write_all(frame)?;
    w.flush()
}

/// Reset `frame` to a 5-byte frame header with a zero length word; after
/// appending the body (e.g. via [`HalfConn::seal_into`]) call
/// [`finish_frame_header`] to patch the length in.
pub fn frame_header_into(frame: &mut Vec<u8>, content_type: u8) {
    frame.clear();
    frame.push(content_type);
    frame.extend_from_slice(&[0u8; 4]);
}

/// Patch the length word of a frame started by [`frame_header_into`].
pub fn finish_frame_header(frame: &mut [u8]) {
    let body_len = (frame.len() - 5) as u32;
    frame[1..5].copy_from_slice(&body_len.to_be_bytes());
}

/// Read one record, returning `(content_type, body)`.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> std::io::Result<(u8, Vec<u8>)> {
    let mut body = Vec::new();
    let ct = read_frame_into(r, &mut body)?;
    Ok((ct, body))
}

/// Like [`read_frame`] but reads the body into a caller-provided buffer
/// (resized to the body; whatever it held is overwritten), returning the
/// content type. At steady state the buffer has reached its high-water
/// capacity and no allocation occurs, and only the bytes by which a body
/// outgrows the previous one are zeroed before the read fills them.
/// After an error the buffer's contents are unspecified.
pub fn read_frame_into<R: Read + ?Sized>(r: &mut R, body: &mut Vec<u8>) -> std::io::Result<u8> {
    let mut hdr = [0u8; 5];
    r.read_exact(&mut hdr)?;
    let len = u32::from_be_bytes([hdr[1], hdr[2], hdr[3], hdr[4]]) as usize;
    if len > MAX_RECORD_PAYLOAD + 64 * 1024 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("GTLS record of {len} bytes too large"),
        ));
    }
    body.resize(len, 0);
    r.read_exact(body)?;
    Ok(hdr[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(suite: CipherSuite) -> (HalfConn, HalfConn) {
        let key = vec![9u8; suite.key_len()];
        let mac = vec![7u8; suite.mac_key_len()];
        let iv = vec![5u8; suite.iv_len()];
        (
            HalfConn::new(suite, &key, &mac, &iv),
            HalfConn::new(suite, &key, &mac, &iv),
        )
    }

    #[test]
    fn seal_open_all_suites() {
        let mut rng = rand::thread_rng();
        for suite in CipherSuite::all() {
            let (mut tx, mut rx) = pair(suite);
            for i in 0..20u32 {
                let payload = vec![i as u8; (i * 37) as usize % 2000];
                let wire = tx.seal(CT_DATA, &payload, &mut rng);
                let back = rx.open(CT_DATA, wire).unwrap();
                assert_eq!(back, payload, "{suite:?} record {i}");
            }
        }
    }

    #[test]
    fn replayed_record_rejected() {
        let mut rng = rand::thread_rng();
        let (mut tx, mut rx) = pair(CipherSuite::NullSha1);
        let wire = tx.seal(CT_DATA, b"once", &mut rng);
        assert!(rx.open(CT_DATA, wire.clone()).is_ok());
        // Same bytes again: the receiver's sequence number has advanced.
        assert!(matches!(rx.open(CT_DATA, wire), Err(GtlsError::RecordIntegrity(_))));
    }

    #[test]
    fn reordered_records_rejected() {
        let mut rng = rand::thread_rng();
        let (mut tx, mut rx) = pair(CipherSuite::Rc4_128Sha1);
        let w1 = tx.seal(CT_DATA, b"first", &mut rng);
        let w2 = tx.seal(CT_DATA, b"second", &mut rng);
        assert!(rx.open(CT_DATA, w2).is_err());
        // The failed open advanced nothing usable; stream is now broken,
        // which is the correct fail-closed behaviour.
        let _ = rx.open(CT_DATA, w1);
    }

    #[test]
    fn tampered_payload_rejected() {
        let mut rng = rand::thread_rng();
        for suite in CipherSuite::all() {
            let (mut tx, mut rx) = pair(suite);
            let mut wire = tx.seal(CT_DATA, b"important data here", &mut rng);
            let mid = wire.len() / 2;
            wire[mid] ^= 0x01;
            assert!(
                rx.open(CT_DATA, wire).is_err(),
                "{suite:?} accepted a tampered record"
            );
        }
    }

    #[test]
    fn wrong_content_type_rejected() {
        let mut rng = rand::thread_rng();
        let (mut tx, mut rx) = pair(CipherSuite::NullSha1);
        let wire = tx.seal(CT_DATA, b"data", &mut rng);
        assert!(rx.open(CT_HANDSHAKE, wire).is_err());
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, CT_DATA, b"hello").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        let (ct, body) = read_frame(&mut cur).unwrap();
        assert_eq!(ct, CT_DATA);
        assert_eq!(body, b"hello");
    }

    /// A reused body buffer is resized, not cleared: a shorter or longer
    /// frame after another must come back exact, nothing stale.
    #[test]
    fn reused_frame_buffer_holds_exactly_the_last_body() {
        let mut wire = Vec::new();
        let long = vec![0xA5u8; 3000];
        for body in [&long[..], b"hi", b"", &long[..]] {
            write_frame(&mut wire, CT_DATA, body).unwrap();
        }
        let mut cur = std::io::Cursor::new(wire);
        let mut buf = vec![0xEEu8; 64];
        for want in [&long[..], b"hi", b"", &long[..]] {
            assert_eq!(read_frame_into(&mut cur, &mut buf).unwrap(), CT_DATA);
            assert_eq!(buf, want);
        }
        assert!(read_frame_into(&mut cur, &mut buf).is_err(), "EOF");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = vec![CT_DATA];
        buf.extend_from_slice(&(200_000_000u32).to_be_bytes());
        let mut cur = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn different_keys_cannot_open() {
        let mut rng = rand::thread_rng();
        let (mut tx, _) = pair(CipherSuite::Aes256CbcSha1);
        let other_key = vec![1u8; 32];
        let mut rx = HalfConn::new(CipherSuite::Aes256CbcSha1, &other_key, &[7u8; 20], &[]);
        let wire = tx.seal(CT_DATA, b"secret", &mut rng);
        assert!(rx.open(CT_DATA, wire).is_err());
    }

    /// Padding corruption and MAC corruption on the CBC+HMAC path must be
    /// indistinguishable: same error variant, same message, no oracle.
    #[test]
    fn cbc_padding_and_mac_failures_are_indistinguishable() {
        let mut rng = rand::thread_rng();
        let payload = vec![0x5Au8; 100];

        // Corrupt the *last* ciphertext block: garbles the padding.
        let (mut tx, mut rx) = pair(CipherSuite::Aes256CbcSha1);
        let mut wire = tx.seal(CT_DATA, &payload, &mut rng);
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let pad_err = rx.open(CT_DATA, wire).unwrap_err();

        // Corrupt the *first* ciphertext block: padding stays intact (it
        // only garbles plaintext block 0), so only the MAC fails.
        let (mut tx, mut rx) = pair(CipherSuite::Aes256CbcSha1);
        let mut wire = tx.seal(CT_DATA, &payload, &mut rng);
        wire[16] ^= 0x01; // first byte after the explicit IV
        let mac_err = rx.open(CT_DATA, wire).unwrap_err();

        let (pad_s, mac_s) = (pad_err.to_string(), mac_err.to_string());
        assert_eq!(pad_s, mac_s, "corruption kinds must be indistinguishable");
        assert!(
            matches!(pad_err, GtlsError::RecordIntegrity(_))
                && matches!(mac_err, GtlsError::RecordIntegrity(_))
        );
        // And AEAD failures collapse to the same message too.
        let (mut tx, mut rx) = pair(CipherSuite::Aes256Gcm);
        let mut wire = tx.seal(CT_DATA, &payload, &mut rng);
        wire[0] ^= 0x01;
        assert_eq!(rx.open(CT_DATA, wire).unwrap_err().to_string(), pad_s);
    }

    #[test]
    fn aead_records_carry_no_iv_and_fixed_overhead() {
        let mut rng = rand::thread_rng();
        for suite in [CipherSuite::Aes128Gcm, CipherSuite::Aes256Gcm, CipherSuite::ChaCha20Poly1305]
        {
            let (mut tx, _) = pair(suite);
            let wire = tx.seal(CT_DATA, &[0u8; 1000], &mut rng);
            assert_eq!(wire.len(), 1000 + AEAD_TAG_LEN, "{suite:?} wire overhead");
        }
        // Legacy CBC pays IV + MAC + padding on the wire.
        let (mut tx, _) = pair(CipherSuite::Aes256CbcSha1);
        let wire = tx.seal(CT_DATA, &[0u8; 1000], &mut rng);
        assert!(wire.len() >= 1000 + 16 + 20, "CBC wire overhead");
    }

    /// An AES-GCM record body is exactly `AES-GCM(key, nonce = static IV
    /// XOR sequence number, AAD = seq ‖ type ‖ len, payload)`: ciphertext
    /// plus tag, nothing else on the wire.
    #[test]
    fn gcm_record_is_sealed_under_iv_xor_seq_with_header_aad() {
        let mut rng = rand::thread_rng();
        let suite = CipherSuite::Aes256Gcm;
        let key: Vec<u8> = (0..32).map(|i| i * 3 + 1).collect();
        let iv: [u8; 12] = std::array::from_fn(|i| 0x80 + i as u8);
        let mut tx = HalfConn::new(suite, &key, &[], &iv);
        let gcm = sgfs_crypto::AesGcm::new(&key);
        for (seq, len) in [0usize, 200, 4096].into_iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|i| (i * 5) as u8).collect();
            let mut nonce = iv;
            for (n, s) in nonce[4..].iter_mut().zip((seq as u64).to_be_bytes()) {
                *n ^= s;
            }
            let mut aad = (seq as u64).to_be_bytes().to_vec();
            aad.push(CT_HANDSHAKE);
            aad.extend_from_slice(&(len as u32).to_be_bytes());
            let wire = tx.seal(CT_HANDSHAKE, &payload, &mut rng);
            assert_eq!(wire, gcm.seal(&nonce, &aad, &payload), "record {seq}");
        }
    }

    #[test]
    fn aead_wrong_content_type_rejected() {
        let mut rng = rand::thread_rng();
        let (mut tx, mut rx) = pair(CipherSuite::ChaCha20Poly1305);
        let wire = tx.seal(CT_DATA, b"data", &mut rng);
        assert!(rx.open(CT_HANDSHAKE, wire).is_err());
    }
}
