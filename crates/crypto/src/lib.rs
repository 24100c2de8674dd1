//! Cryptographic primitives for SGFS, implemented from scratch.
//!
//! The paper's prototype links against OpenSSL; no such dependency is
//! available here, so this crate provides the exact primitives the paper's
//! evaluation exercises:
//!
//! * **Hashes** — SHA-1 (FIPS 180-1) and SHA-256 (FIPS 180-2), used for
//!   HMAC record integrity and certificate signatures respectively.
//! * **HMAC** (FIPS 198) — generic over the hash, giving the paper's
//!   SHA1-HMAC record integrity.
//! * **Symmetric ciphers** — AES-128/256 in CBC mode (the paper's
//!   "strong" suite, Rijndael) and RC4/ARCFOUR (the "medium" suite).
//! * **Public-key machinery** — arbitrary-precision unsigned integers,
//!   Miller–Rabin primality, and RSA key generation / PKCS#1-style
//!   signing and encryption used by the certificate and handshake layers.
//! * **Key derivation** — a TLS-1.2-style PRF for turning the handshake
//!   pre-master secret into record-layer keys.
//! * **AEAD suites** — AES-128/256-GCM (CTR and GHASH on one of three
//!   [`Rung`]s: VAES + VPCLMULQDQ, AES-NI + PCLMUL, or T-table + scalar)
//!   and scalar ChaCha20-Poly1305, the single-pass record-protection
//!   modes that replace the two-pass CBC+HMAC path on the hot data plane.
//!
//! None of this is intended to be side-channel hardened production crypto;
//! it is a faithful, tested reimplementation sufficient to reproduce the
//! performance/security trade-offs the paper measures.

pub mod aes;
pub mod bignum;
pub mod cbc;
pub mod chacha;
pub mod chachapoly;
pub mod gcm;
pub mod ghash;
pub mod hmac;
pub mod poly1305;
pub mod prf;
pub mod prime;
pub mod rc4;
pub mod rsa;
pub mod sha1;
pub mod sha256;

pub use aes::Aes;
pub use bignum::BigUint;
pub use chacha::ChaCha20;
pub use chachapoly::ChaCha20Poly1305;
pub use gcm::{AeadError, AesGcm, NONCE_LEN as AEAD_NONCE_LEN, TAG_LEN as AEAD_TAG_LEN};
pub use hmac::{hmac_sha1, hmac_sha256, Hmac, HmacSha1, HmacSha1Key};
pub use rc4::Rc4;
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use sha1::Sha1;
pub use sha256::Sha256;

/// A rung of the AES-GCM dispatch ladder: which kernels an [`Aes`]
/// schedule or a GHASH key runs. Each key takes the widest rung the CPU
/// reports, once, when it is made; the narrower rungs stay reachable
/// through the pinned constructors so tests can hold each one against
/// the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// T-table AES and bit-serial GHASH: every host, and the oracle.
    Portable,
    /// AES-NI and PCLMULQDQ on 128-bit registers.
    Narrow,
    /// VAES and VPCLMULQDQ on 256-bit registers (AVX2). Only the CTR
    /// pass and GHASH go wide; a call shorter than one wide group, and
    /// every single-block or ECB call, runs the narrow kernels.
    Wide,
}

impl Rung {
    /// The rungs this CPU runs for both AES and GHASH, narrowest first.
    pub fn available() -> impl Iterator<Item = Rung> {
        let top = Rung::detect(Unit::Aes).min(Rung::detect(Unit::Ghash));
        [Rung::Portable, Rung::Narrow, Rung::Wide].into_iter().filter(move |r| *r <= top)
    }

    /// The widest rung this CPU runs for `unit`. The narrow rung needs
    /// the unit's own instruction (`aes` or `pclmulqdq`) and `ssse3`; the
    /// wide one needs both instructions and `avx2` + `vaes` +
    /// `vpclmulqdq`, so AES and GHASH go wide together.
    pub(crate) fn detect(unit: Unit) -> Rung {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let narrow = has!("ssse3")
                && match unit {
                    Unit::Aes => has!("aes"),
                    Unit::Ghash => has!("pclmulqdq"),
                };
            if !narrow {
                return Rung::Portable;
            }
            let wide = has!("aes")
                && has!("pclmulqdq")
                && has!("avx2")
                && has!("vaes")
                && has!("vpclmulqdq");
            if wide {
                Rung::Wide
            } else {
                Rung::Narrow
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = unit;
            Rung::Portable
        }
    }
}

/// The two halves of AES-GCM, which [`Rung::detect`] checks separately.
#[derive(Clone, Copy)]
pub(crate) enum Unit {
    Aes,
    Ghash,
}

/// A streaming cryptographic hash.
///
/// Implemented by [`Sha1`] and [`Sha256`]; [`Hmac`] is generic over it.
pub trait Digest: Clone {
    /// Internal block length in bytes (64 for both SHA-1 and SHA-256).
    const BLOCK_LEN: usize;
    /// Output length in bytes.
    const OUTPUT_LEN: usize;

    /// Fresh hash state.
    fn new() -> Self;
    /// Absorb more input.
    fn update(&mut self, data: &[u8]);
    /// Finish and return the digest.
    fn finalize(self) -> Vec<u8>;

    /// One-shot convenience.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// Constant-time byte-slice equality.
///
/// Used wherever MACs or verifier values are compared, so an attacker
/// cannot learn a prefix match from timing.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
