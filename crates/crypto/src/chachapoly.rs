//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8): the one-time Poly1305 key
//! comes from ChaCha20 block 0, data is encrypted from counter 1, and
//! the MAC covers `aad || pad16 || ct || pad16 || le64(lens)`. Same
//! seal/open surface and opaque error as [`crate::AesGcm`], so the
//! record layer dispatches over both uniformly.

use crate::chacha::{ChaCha20, NONCE_LEN};
use crate::gcm::{AeadError, TAG_LEN};
use crate::poly1305::Poly1305;
use crate::ct_eq;

/// A ChaCha20-Poly1305 key.
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    chacha: ChaCha20,
}

impl ChaCha20Poly1305 {
    /// Load a 32-byte key.
    pub fn new(key: &[u8; 32]) -> Self {
        Self { chacha: ChaCha20::new(key) }
    }

    /// The per-nonce one-time Poly1305 key: first 32 keystream bytes of
    /// block 0.
    fn one_time_key(&self, nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
        let mut block = [0u8; 64];
        self.chacha.block(0, nonce, &mut block);
        block[..32].try_into().unwrap()
    }

    /// The RFC 8439 tag over `aad` and ciphertext.
    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(&self.one_time_key(nonce));
        let zeros = [0u8; 16];
        mac.update(aad);
        mac.update(&zeros[..(16 - aad.len() % 16) % 16]);
        mac.update(ct);
        mac.update(&zeros[..(16 - ct.len() % 16) % 16]);
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ct.len() as u64).to_le_bytes());
        mac.finalize()
    }

    /// Encrypt `buf[from..]` in place and append the 16-byte tag;
    /// `buf[..from]` is left untouched.
    pub fn seal_in_place(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], buf: &mut Vec<u8>, from: usize) {
        debug_assert!(from <= buf.len());
        self.chacha.xor_stream(1, nonce, &mut buf[from..]);
        let tag = self.tag(nonce, aad, &buf[from..]);
        buf.extend_from_slice(&tag);
    }

    /// Seal `plain` into `out`, which must be exactly
    /// `plain.len() + TAG_LEN` bytes (`ciphertext || tag`), overwriting
    /// whatever it held. No heap allocation.
    pub fn seal_to(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plain: &[u8], out: &mut [u8]) {
        assert_eq!(out.len(), plain.len() + TAG_LEN, "sealed record length");
        let (ct, tag) = out.split_at_mut(plain.len());
        ct.copy_from_slice(plain);
        self.chacha.xor_stream(1, nonce, ct);
        tag.copy_from_slice(&self.tag(nonce, aad, ct));
    }

    /// Verify and decrypt `buf` (`ciphertext || tag`) in place, returning
    /// the plaintext length. Tag checked (constant-time) before decrypting;
    /// every failure is the same opaque [`AeadError`].
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
    ) -> Result<usize, AeadError> {
        if buf.len() < TAG_LEN {
            return Err(AeadError);
        }
        let ct_len = buf.len() - TAG_LEN;
        let expected = self.tag(nonce, aad, &buf[..ct_len]);
        if !ct_eq(&expected, &buf[ct_len..]) {
            return Err(AeadError);
        }
        self.chacha.xor_stream(1, nonce, &mut buf[..ct_len]);
        Ok(ct_len)
    }

    /// Allocating convenience: seal `plain` into `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plain: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plain.len() + TAG_LEN);
        out.extend_from_slice(plain);
        self.seal_in_place(nonce, aad, &mut out, 0);
        out
    }

    /// Allocating convenience: open `ciphertext || tag` back to plaintext.
    pub fn open(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], wire: &[u8]) -> Result<Vec<u8>, AeadError> {
        let mut buf = wire.to_vec();
        let len = self.open_in_place(nonce, aad, &mut buf)?;
        buf.truncate(len);
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2.
        let key: [u8; 32] = (0x80..0xa0u8).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = from_hex("070000004041424344454647").try_into().unwrap();
        let aad = from_hex("50515253c0c1c2c3c4c5c6c7");
        let plain = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it."
            .to_vec();
        let aead = ChaCha20Poly1305::new(&key);
        let wire = aead.seal(&nonce, &aad, &plain);
        let mut expect = from_hex(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116",
        );
        expect.extend_from_slice(&from_hex("1ae10b594f09e26a7e902ecbd0600691"));
        assert_eq!(wire, expect);
        assert_eq!(aead.open(&nonce, &aad, &wire).unwrap(), plain);
    }

    #[test]
    fn tampered_anything_fails_opaquely() {
        let aead = ChaCha20Poly1305::new(&[5u8; 32]);
        let nonce = [9u8; 12];
        let wire = aead.seal(&nonce, b"hdr", b"some record payload");
        for i in 0..wire.len() {
            let mut w = wire.clone();
            w[i] ^= 0x80;
            assert_eq!(aead.open(&nonce, b"hdr", &w).unwrap_err(), AeadError, "byte {i}");
        }
        assert_eq!(aead.open(&nonce, b"HDR", &wire).unwrap_err(), AeadError);
        assert_eq!(aead.open(&[1u8; 12], b"hdr", &wire).unwrap_err(), AeadError);
        assert_eq!(aead.open(&nonce, b"hdr", &wire[..10]).unwrap_err(), AeadError);
    }

    #[test]
    fn in_place_matches_allocating_and_preserves_prefix() {
        let aead = ChaCha20Poly1305::new(&[3u8; 32]);
        let nonce = [1u8; 12];
        for len in [0usize, 1, 15, 16, 63, 64, 65, 8192] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
            let mut buf = vec![0xAB; 7];
            buf.extend_from_slice(&pt);
            aead.seal_in_place(&nonce, b"aad", &mut buf, 7);
            assert_eq!(&buf[..7], &[0xAB; 7][..], "prefix untouched len={len}");
            assert_eq!(&buf[7..], &aead.seal(&nonce, b"aad", &pt)[..], "len={len}");
            let n = aead.open_in_place(&nonce, b"aad", &mut buf[7..]).unwrap();
            assert_eq!(&buf[7..7 + n], &pt[..], "roundtrip len={len}");
        }
    }
}
