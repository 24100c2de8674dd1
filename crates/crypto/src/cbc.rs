//! CBC block-chaining mode with PKCS#7 padding, over [`crate::Aes`].
//!
//! GTLS records in the AES suites are `CBC(plaintext || padding)` with an
//! explicit per-record IV, mirroring TLS 1.1+ and the paper's
//! `AES-CBC` configurations.

use crate::Aes;

/// Errors from CBC decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbcError {
    /// Ciphertext length is zero or not a multiple of the block size.
    BadLength(usize),
    /// PKCS#7 padding was malformed after decryption.
    BadPadding,
}

impl std::fmt::Display for CbcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CbcError::BadLength(n) => write!(f, "CBC ciphertext length {n} invalid"),
            CbcError::BadPadding => write!(f, "CBC padding invalid"),
        }
    }
}

impl std::error::Error for CbcError {}

/// Encrypt `plaintext` with AES-CBC under `iv`, applying PKCS#7 padding.
///
/// Output length is `plaintext.len()` rounded up to the next multiple of 16
/// (a full padding block is added when already aligned).
pub fn cbc_encrypt(aes: &Aes, iv: &[u8; 16], plaintext: &[u8]) -> Vec<u8> {
    let mut data = Vec::with_capacity(plaintext.len() + 16);
    data.extend_from_slice(plaintext);
    cbc_encrypt_in_place(aes, iv, &mut data);
    data
}

/// Encrypt `buf`'s contents with AES-CBC under `iv` in place, appending
/// PKCS#7 padding. At steady state — a buffer whose capacity has grown to
/// its working-set high-water mark — this performs no heap allocation.
pub fn cbc_encrypt_in_place(aes: &Aes, iv: &[u8; 16], buf: &mut Vec<u8>) {
    cbc_encrypt_in_place_from(aes, iv, buf, 0);
}

/// Like [`cbc_encrypt_in_place`] but only `buf[from..]` is plaintext to
/// encrypt; `buf[..from]` (e.g. a frame header or explicit IV already in
/// the buffer) is left untouched.
pub fn cbc_encrypt_in_place_from(aes: &Aes, iv: &[u8; 16], buf: &mut Vec<u8>, from: usize) {
    debug_assert!(from <= buf.len());
    let pad = 16 - (buf.len() - from) % 16;
    buf.resize(buf.len() + pad, pad as u8);
    cbc_encrypt_padded(aes, iv, &mut buf[from..]);
}

/// Encrypt `buf` with AES-CBC under `iv` in place, its PKCS#7 padding
/// already written (`buf.len()` a multiple of 16). No heap allocation.
pub fn cbc_encrypt_padded(aes: &Aes, iv: &[u8; 16], buf: &mut [u8]) {
    assert!(buf.len().is_multiple_of(16), "CBC input must be padded to whole blocks");
    let mut prev = *iv;
    for chunk in buf.chunks_exact_mut(16) {
        let mut block = [0u8; 16];
        block.copy_from_slice(chunk);
        for (b, p) in block.iter_mut().zip(&prev) {
            *b ^= p;
        }
        aes.encrypt_block(&mut block);
        chunk.copy_from_slice(&block);
        prev = block;
    }
}

/// Decrypt AES-CBC ciphertext under `iv` and strip PKCS#7 padding.
pub fn cbc_decrypt(aes: &Aes, iv: &[u8; 16], ciphertext: &[u8]) -> Result<Vec<u8>, CbcError> {
    let mut out = ciphertext.to_vec();
    let len = cbc_decrypt_in_place(aes, iv, &mut out)?;
    out.truncate(len);
    Ok(out)
}

/// Decrypt AES-CBC ciphertext under `iv` in place, validating PKCS#7
/// padding. Returns the plaintext length; `buf[..len]` holds the
/// plaintext. Performs no heap allocation.
pub fn cbc_decrypt_in_place(aes: &Aes, iv: &[u8; 16], buf: &mut [u8]) -> Result<usize, CbcError> {
    if buf.is_empty() || !buf.len().is_multiple_of(16) {
        return Err(CbcError::BadLength(buf.len()));
    }
    // Unlike encryption, CBC decryption has no cross-block dependency in
    // the cipher itself — every block decrypts independently and only the
    // chaining XOR consumes the *ciphertext* of its predecessor. Decrypt
    // up to 64 blocks at a time through the interleaved bulk routine,
    // keeping the ciphertext the XOR needs in a fixed stack scratch.
    const CHUNK: usize = 64 * 16;
    let mut prev = *iv;
    let mut saved = [0u8; CHUNK];
    let mut off = 0;
    while off < buf.len() {
        let n = CHUNK.min(buf.len() - off);
        let chunk = &mut buf[off..off + n];
        saved[..n].copy_from_slice(chunk);
        aes.decrypt_blocks(chunk);
        for (i, block) in chunk.chunks_exact_mut(16).enumerate() {
            let x: &[u8] = if i == 0 { &prev } else { &saved[(i - 1) * 16..i * 16] };
            for (b, p) in block.iter_mut().zip(x) {
                *b ^= p;
            }
        }
        prev.copy_from_slice(&saved[n - 16..n]);
        off += n;
    }
    let pad = buf[buf.len() - 1] as usize;
    if pad == 0 || pad > 16 || pad > buf.len() {
        return Err(CbcError::BadPadding);
    }
    if buf[buf.len() - pad..].iter().any(|&b| b as usize != pad) {
        return Err(CbcError::BadPadding);
    }
    Ok(buf.len() - pad)
}

/// Like [`cbc_decrypt_in_place`], but padding validation is constant-time
/// and failure is *not* an early return: the record layer combines the
/// returned `pad_ok` flag with its MAC check so a forger cannot
/// distinguish "bad padding" from "bad MAC" by timing or by error kind
/// (the classic CBC padding-oracle shape).
///
/// Returns `(plaintext_len, pad_ok)`. When `pad_ok` is false the length
/// is computed from a clamped pad value and must not be trusted — the
/// caller still runs its MAC pass over it and rejects. Length errors
/// (empty / unaligned input) still return `Err` since the record framing
/// exposes lengths on the wire anyway.
pub fn cbc_decrypt_in_place_ct(
    aes: &Aes,
    iv: &[u8; 16],
    buf: &mut [u8],
) -> Result<(usize, bool), CbcError> {
    if buf.is_empty() || !buf.len().is_multiple_of(16) {
        return Err(CbcError::BadLength(buf.len()));
    }
    const CHUNK: usize = 64 * 16;
    let mut prev = *iv;
    let mut saved = [0u8; CHUNK];
    let mut off = 0;
    while off < buf.len() {
        let n = CHUNK.min(buf.len() - off);
        let chunk = &mut buf[off..off + n];
        saved[..n].copy_from_slice(chunk);
        aes.decrypt_blocks(chunk);
        for (i, block) in chunk.chunks_exact_mut(16).enumerate() {
            let x: &[u8] = if i == 0 { &prev } else { &saved[(i - 1) * 16..i * 16] };
            for (b, p) in block.iter_mut().zip(x) {
                *b ^= p;
            }
        }
        prev.copy_from_slice(&saved[n - 16..n]);
        off += n;
    }

    // Constant-time PKCS#7 validation: scan a fixed window of the last
    // 16 bytes regardless of the claimed pad value, accumulating a
    // difference mask instead of branching per byte.
    let len = buf.len();
    let pad = buf[len - 1] as usize;
    // valid_pad = 0xff if 1 <= pad <= 16 (buf.len() >= 16 always holds here).
    let valid_range = ((pad.wrapping_sub(1) < 16) as u8).wrapping_neg();
    // Clamp so the arithmetic below stays in range even when pad is junk.
    let clamped = if pad.wrapping_sub(1) < 16 { pad } else { 1 };
    let mut diff = 0u8;
    for (i, &b) in buf[len - 16..].iter().enumerate() {
        // in_pad = 0xff for the last `clamped` bytes of the window.
        let in_pad = ((i >= 16 - clamped) as u8).wrapping_neg();
        diff |= (b ^ clamped as u8) & in_pad;
    }
    let pad_ok = valid_range != 0 && diff == 0;
    Ok((len - clamped, pad_ok))
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

    // NIST SP 800-38A F.2.1 CBC-AES128 (first block; our API adds padding,
    // so check the first 16 output bytes only).
    #[test]
    fn nist_cbc_aes128_first_block() {
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv_bytes = from_hex("000102030405060708090a0b0c0d0e0f");
        let mut iv = [0u8; 16];
        iv.copy_from_slice(&iv_bytes);
        let pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
        let ct = cbc_encrypt(&Aes::new(&key), &iv, &pt);
        assert_eq!(&ct[..16], &from_hex("7649abac8119b246cee98e9b12e9197d")[..]);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let aes = Aes::new(&[3u8; 32]);
        let iv = [9u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 1000, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = cbc_encrypt(&aes, &iv, &pt);
            assert_eq!(ct.len() % 16, 0);
            assert!(ct.len() > pt.len(), "padding always adds bytes");
            assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tampered_ciphertext_fails_or_differs() {
        let aes = Aes::new(&[5u8; 16]);
        let iv = [0u8; 16];
        let pt = b"attack at dawn, attack at dawn!".to_vec();
        let mut ct = cbc_encrypt(&aes, &iv, &pt);
        ct[0] ^= 0xff;
        match cbc_decrypt(&aes, &iv, &ct) {
            Err(CbcError::BadPadding) => {}
            Ok(mangled) => assert_ne!(mangled, pt),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn bad_length_rejected() {
        let aes = Aes::new(&[5u8; 16]);
        let iv = [0u8; 16];
        assert_eq!(cbc_decrypt(&aes, &iv, &[0u8; 15]), Err(CbcError::BadLength(15)));
        assert_eq!(cbc_decrypt(&aes, &iv, &[]), Err(CbcError::BadLength(0)));
    }

    #[test]
    fn in_place_matches_allocating_api() {
        let aes = Aes::new(&[8u8; 32]);
        let iv = [4u8; 16];
        let mut scratch = Vec::new();
        for len in [0usize, 1, 15, 16, 17, 255, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            scratch.clear();
            scratch.extend_from_slice(&pt);
            cbc_encrypt_in_place(&aes, &iv, &mut scratch);
            assert_eq!(scratch, cbc_encrypt(&aes, &iv, &pt), "len {len}");
            let n = cbc_decrypt_in_place(&aes, &iv, &mut scratch).unwrap();
            assert_eq!(&scratch[..n], &pt[..], "len {len}");
        }
    }

    #[test]
    fn in_place_decrypt_rejects_bad_padding() {
        let aes = Aes::new(&[8u8; 16]);
        let iv = [0u8; 16];
        let mut buf = cbc_encrypt(&aes, &iv, b"hello world");
        let last = buf.len() - 1;
        buf[last] ^= 0x55;
        assert_eq!(cbc_decrypt_in_place(&aes, &iv, &mut buf), Err(CbcError::BadPadding));
        assert_eq!(cbc_decrypt_in_place(&aes, &iv, &mut [0u8; 9]), Err(CbcError::BadLength(9)));
    }

    #[test]
    fn ct_decrypt_matches_plain_decrypt() {
        let aes = Aes::new(&[6u8; 32]);
        let iv = [2u8; 16];
        for len in [0usize, 1, 15, 16, 17, 255, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 3 % 256) as u8).collect();
            let mut a = cbc_encrypt(&aes, &iv, &pt);
            let mut b = a.clone();
            let n1 = cbc_decrypt_in_place(&aes, &iv, &mut a).unwrap();
            let (n2, ok) = cbc_decrypt_in_place_ct(&aes, &iv, &mut b).unwrap();
            assert!(ok, "len {len}");
            assert_eq!(n1, n2, "len {len}");
            assert_eq!(a, b, "len {len}");
        }
    }

    #[test]
    fn ct_decrypt_flags_bad_padding_without_erroring() {
        let aes = Aes::new(&[6u8; 16]);
        let iv = [0u8; 16];
        let mut buf = cbc_encrypt(&aes, &iv, b"payload bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0x11;
        let (_, ok) = cbc_decrypt_in_place_ct(&aes, &iv, &mut buf).unwrap();
        assert!(!ok);
        // Length errors still surface (frame length is public anyway).
        assert_eq!(
            cbc_decrypt_in_place_ct(&aes, &iv, &mut [0u8; 9]),
            Err(CbcError::BadLength(9))
        );
    }

    #[test]
    fn wrong_iv_garbles_first_block_only() {
        let aes = Aes::new(&[1u8; 16]);
        let pt = vec![0x42u8; 48];
        let ct = cbc_encrypt(&aes, &[0u8; 16], &pt);
        // Decrypting with a wrong IV garbles block 0 but blocks 1.. decrypt fine.
        let out = cbc_decrypt(&aes, &[1u8; 16], &ct).unwrap();
        assert_ne!(&out[..16], &pt[..16]);
        assert_eq!(&out[16..48], &pt[16..48]);
    }
}
