//! AES-GCM (SP 800-38D) — authenticated encryption over the dispatched
//! AES backend ([`crate::Aes`]) and GHASH ([`crate::ghash`]), both on the
//! widest [`Rung`] the CPU runs: VAES + VPCLMULQDQ on 256-bit registers,
//! else AES-NI + PCLMUL, else T-table + scalar.
//!
//! The CTR pass belongs to the AES backend (`Aes::ctr_xor`: counter
//! blocks formed, encrypted 16 at a time on the wide rung, eight on
//! AES-NI, and XORed onto the data in registers) and the authentication
//! pass to GHASH (eight blocks per reduction on either hardware rung);
//! this module orders them, the same way on every rung. **Seal** is out
//! of place — the CTR pass reads the caller's plaintext once and writes
//! ciphertext where the record is being assembled, then GHASH reads that
//! ciphertext back. **Open** runs the other way round: GHASH over AAD ‖
//! ciphertext ‖ lengths, the tag compared in constant time, and only
//! then the CTR pass — no plaintext byte exists before the tag has
//! verified, and every failure is the same opaque [`AeadError`].
//! Neither direction allocates (beyond `out` growing by the record).

use crate::ghash::{ghash, GhashKey};
use crate::{ct_eq, Aes, Rung};

/// Opaque authenticated-decryption failure. Deliberately carries no
/// detail: distinguishing tag, padding, or length failures is exactly
/// the oracle AEAD removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "authenticated decryption failed")
    }
}

impl std::error::Error for AeadError {}

/// AEAD authentication tag length (GCM and ChaCha20-Poly1305 alike).
pub const TAG_LEN: usize = 16;
/// AEAD nonce length (96-bit, the GCM fast path and the RFC 8439 size).
pub const NONCE_LEN: usize = 12;

/// An AES-128/256-GCM key: the AES schedule plus the GHASH subkey.
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes,
    ghash: GhashKey,
}

impl AesGcm {
    /// Expand `key` (16 or 32 bytes) and derive `H = E_K(0^128)`.
    pub fn new(key: &[u8]) -> Self {
        Self::with_backends(Aes::new(key), |h| Some(GhashKey::new(h)))
            .expect("a GHASH key on the detected rung")
    }

    /// Like [`AesGcm::new`] but with GHASH pinned to the scalar backend
    /// (differential testing of the hardware GHASH paths).
    pub fn new_portable_ghash(key: &[u8]) -> Self {
        Self::with_backends(Aes::new(key), |h| GhashKey::with_rung(h, Rung::Portable))
            .expect("every host runs the portable rung")
    }

    /// Both AES and GHASH pinned to `rung`, or `None` when this CPU
    /// cannot run it: with [`Rung::available`], how tests hold every
    /// rung the host has against the others. [`Rung::Portable`], the
    /// differential oracle and what every key is off x86-64, runs on
    /// every host.
    pub fn with_rung(key: &[u8], rung: Rung) -> Option<Self> {
        Self::with_backends(Aes::with_rung(key, rung)?, |h| GhashKey::with_rung(h, rung))
    }

    /// `aes` with the GHASH key `ghash` makes of `H = E_K(0^128)`.
    fn with_backends(aes: Aes, ghash: impl FnOnce(&[u8; 16]) -> Option<GhashKey>) -> Option<Self> {
        let mut h = [0u8; 16];
        aes.encrypt_block(&mut h);
        Some(Self { ghash: ghash(&h)?, aes })
    }

    /// The narrower of the two halves' rungs: `Narrow` or above means
    /// both CTR and GHASH run in hardware, `Wide` that both run on
    /// 256-bit registers.
    pub fn rung(&self) -> Rung {
        self.aes.rung().min(self.ghash.rung())
    }

    /// The AES backend in use (`"vaes"`, `"aes-ni"` or `"t-table"`).
    pub fn aes_backend(&self) -> &'static str {
        self.aes.backend()
    }

    /// The GHASH backend in use (`"vpclmul"`, `"pclmul"` or `"scalar"`).
    pub fn ghash_backend(&self) -> &'static str {
        self.ghash.backend()
    }

    /// The pre-counter block `J0` for a 96-bit nonce.
    fn j0(nonce: &[u8; NONCE_LEN]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    }

    /// The tag: `GHASH(H, aad, ct) XOR E_K(J0)`, from the finished hash.
    fn tag(&self, j0: &[u8; 16], mut hash: [u8; 16]) -> [u8; 16] {
        let mut ekj0 = *j0;
        self.aes.encrypt_block(&mut ekj0);
        for (t, e) in hash.iter_mut().zip(&ekj0) {
            *t ^= e;
        }
        hash
    }

    /// Encrypt into `ct` — from `plain` when given (equal length), else
    /// in place — and return the tag over `aad` and the ciphertext.
    fn encrypt(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plain: Option<&[u8]>,
        ct: &mut [u8],
    ) -> [u8; TAG_LEN] {
        let j0 = Self::j0(nonce);
        // Counter 1 is the tag's; data starts at 2.
        self.aes.ctr_xor(&j0, 2, plain, ct);
        self.tag(&j0, ghash(&self.ghash, aad, ct))
    }

    /// Seal out of place into `out`, which must be exactly
    /// `plain.len() + TAG_LEN` bytes: `ciphertext || tag` of `plain`,
    /// reading `plain` once and overwriting whatever `out` held — a
    /// reused buffer needs no zero-fill. No heap allocation.
    pub fn seal_to(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plain: &[u8], out: &mut [u8]) {
        assert_eq!(out.len(), plain.len() + TAG_LEN, "sealed record length");
        let (ct, tag) = out.split_at_mut(plain.len());
        tag.copy_from_slice(&self.encrypt(nonce, aad, Some(plain), ct));
    }

    /// Seal out of place: append `ciphertext || tag` of `plain` to `out`
    /// ([`seal_to`](Self::seal_to) into the grown tail). `out`'s existing
    /// bytes (e.g. a frame header) are left untouched.
    pub fn seal_into(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plain: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + plain.len() + TAG_LEN, 0);
        self.seal_to(nonce, aad, plain, &mut out[start..]);
    }

    /// Encrypt `buf[from..]` in place and append the 16-byte tag.
    /// `buf[..from]` (e.g. a frame header already in the buffer) is left
    /// untouched. No heap allocation beyond `buf` growing by the tag.
    pub fn seal_in_place(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], buf: &mut Vec<u8>, from: usize) {
        let tag = self.encrypt(nonce, aad, None, &mut buf[from..]);
        buf.extend_from_slice(&tag);
    }

    /// Verify and decrypt `buf` (`ciphertext || tag`) in place, returning
    /// the plaintext length; `buf[..len]` holds the plaintext. The tag is
    /// checked in constant time before any byte is decrypted.
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
    ) -> Result<usize, AeadError> {
        if buf.len() < TAG_LEN {
            return Err(AeadError);
        }
        let (ct, tag) = buf.split_at_mut(buf.len() - TAG_LEN);
        let j0 = Self::j0(nonce);
        let expected = self.tag(&j0, ghash(&self.ghash, aad, ct));
        if !ct_eq(&expected, tag) {
            return Err(AeadError);
        }
        self.aes.ctr_xor(&j0, 2, None, ct);
        Ok(ct.len())
    }

    /// Allocating convenience: seal `plain` into `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plain: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plain.len() + TAG_LEN);
        self.seal_into(nonce, aad, plain, &mut out);
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

    fn nonce(hex: &str) -> [u8; 12] {
        from_hex(hex).try_into().unwrap()
    }

    struct Kat {
        key: &'static str,
        iv: &'static str,
        pt: &'static str,
        aad: &'static str,
        ct: &'static str,
        tag: &'static str,
    }

    /// NIST GCM spec test cases 1–4 (AES-128) and 13–16 (AES-256 subset).
    const KATS: &[Kat] = &[
        // TC1: empty everything.
        Kat {
            key: "00000000000000000000000000000000",
            iv: "000000000000000000000000",
            pt: "",
            aad: "",
            ct: "",
            tag: "58e2fccefa7e3061367f1d57a4e7455a",
        },
        // TC2: one zero block.
        Kat {
            key: "00000000000000000000000000000000",
            iv: "000000000000000000000000",
            pt: "00000000000000000000000000000000",
            aad: "",
            ct: "0388dace60b6a392f328c2b971b2fe78",
            tag: "ab6e47d42cec13bdf53a67b21257bddf",
        },
        // TC3: four full blocks, no AAD.
        Kat {
            key: "feffe9928665731c6d6a8f9467308308",
            iv: "cafebabefacedbaddecaf888",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            aad: "",
            ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            tag: "4d5c2af327cd64a62cf35abd2ba6fab4",
        },
        // TC4: 60-byte plaintext + 20-byte AAD (partial blocks both).
        Kat {
            key: "feffe9928665731c6d6a8f9467308308",
            iv: "cafebabefacedbaddecaf888",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            tag: "5bc94fbc3221a5db94fae95ae7121a47",
        },
        // TC13: AES-256, empty everything.
        Kat {
            key: "0000000000000000000000000000000000000000000000000000000000000000",
            iv: "000000000000000000000000",
            pt: "",
            aad: "",
            ct: "",
            tag: "530f8afbc74536b9a963b4f1c4cb738b",
        },
        // TC14: AES-256, one zero block.
        Kat {
            key: "0000000000000000000000000000000000000000000000000000000000000000",
            iv: "000000000000000000000000",
            pt: "00000000000000000000000000000000",
            aad: "",
            ct: "cea7403d4d606b6e074ec5d3baf39d18",
            tag: "d0d1c8a799996bf0265b98b5d48ab919",
        },
        // TC16: AES-256, 60-byte plaintext + 20-byte AAD.
        Kat {
            key: "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
            iv: "cafebabefacedbaddecaf888",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            ct: "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                 8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
            tag: "76fc6ece0f4e1768cddf8853bb2d551b",
        },
    ];

    /// Every backend pairing a key can be built with: each rung the host
    /// has (the widest is what `new` dispatches to), and the dispatched
    /// AES with scalar GHASH.
    fn pairings(key: &[u8]) -> Vec<(String, AesGcm)> {
        let mut all: Vec<_> = Rung::available()
            .map(|r| (format!("{r:?}"), AesGcm::with_rung(key, r).unwrap()))
            .collect();
        all.push(("portable-ghash".into(), AesGcm::new_portable_ghash(key)));
        all
    }

    #[test]
    fn nist_gcm_known_answers() {
        for (i, kat) in KATS.iter().enumerate() {
            for (pairing, gcm) in pairings(&from_hex(kat.key)) {
                let iv = nonce(kat.iv);
                let aad = from_hex(kat.aad);
                let pt = from_hex(kat.pt);
                let wire = gcm.seal(&iv, &aad, &pt);
                let mut expect = from_hex(kat.ct);
                expect.extend_from_slice(&from_hex(kat.tag));
                assert_eq!(wire, expect, "KAT {i} seal ({pairing})");
                assert_eq!(gcm.open(&iv, &aad, &wire).unwrap(), pt, "KAT {i} open ({pairing})");
            }
        }
    }

    /// Vectors long enough to fill the 8-block groups of both kernels
    /// (the NIST cases above stop at 64 bytes): AES-256-GCM, key
    /// `00..1f`, nonce `a0..ab`, AAD `00..0c`, `pt[i] = (131·i + 7) mod
    /// 256`; `(length, tag, SHA-256 of the ciphertext)` from OpenSSL.
    const LONG_KATS: &[(usize, &str, &str)] = &[
        (
            127,
            "41754515f2d91010c45f391e4bd431d4",
            "22c5b4bcb8ed5fb0d440138b360c37481cb0f5b659df7bb1fe07ff02ec35388d",
        ),
        (
            128,
            "da4846579f8270ec61e79401e431a583",
            "03dc6169e4dfe98cb08bb98a5fa98fb995b755a8b86fc5a7633fbb05e9ac07a4",
        ),
        (
            129,
            "b8818d0adb48fee8067513594cfd19dd",
            "aee1ae3e4230aae28f6c038e42eb42d51d564da0f586efd3bdfaf05fd593ae47",
        ),
        (
            1000,
            "e93817b0c3c216c9788b5a1c93ac6202",
            "3f5b8a02c014a41c13061caffaab3a9ed0bf727daf8b8bdd2f7b5941dbc80cd0",
        ),
        (
            32_900,
            "115b7ff28e9c44dc1f90cce0b1453880",
            "e874d54a659a6c910d4afdb062d2b49e1306718e8dd696b3427eb18fe622b5a1",
        ),
    ];

    #[test]
    fn long_known_answers_on_every_backend_pairing() {
        use crate::{Digest, Sha256};
        let key: Vec<u8> = (0..32).collect();
        let iv: [u8; 12] = std::array::from_fn(|i| 0xa0 + i as u8);
        let aad: Vec<u8> = (0..13).collect();
        for (pairing, gcm) in pairings(&key) {
            for &(n, tag, ct_sha256) in LONG_KATS {
                let pt: Vec<u8> = (0..n).map(|i| (131 * i + 7) as u8).collect();
                let wire = gcm.seal(&iv, &aad, &pt);
                let (ct, got_tag) = wire.split_at(n);
                assert_eq!(got_tag, &from_hex(tag)[..], "tag n={n} ({pairing})");
                assert_eq!(Sha256::digest(ct), from_hex(ct_sha256), "ciphertext n={n} ({pairing})");
                assert_eq!(gcm.open(&iv, &aad, &wire).unwrap(), pt, "open n={n} ({pairing})");
            }
        }
    }

    /// A failed open returns before the CTR pass: the buffer still holds
    /// the (tampered) ciphertext, not a decryption of it.
    #[test]
    fn failed_open_leaves_ciphertext_undecrypted() {
        let iv = [4u8; 12];
        for (pairing, gcm) in pairings(&[0x5eu8; 32]) {
            let pt = vec![0xabu8; 1000];
            let mut wire = gcm.seal(&iv, b"hdr", &pt);
            let last = wire.len() - 1;
            for flip in [0, 128, 999, 1000, last] {
                wire[flip] ^= 1;
                let before = wire.clone();
                assert_eq!(gcm.open_in_place(&iv, b"hdr", &mut wire), Err(AeadError));
                assert_eq!(wire, before, "byte {flip} ({pairing})");
                wire[flip] ^= 1;
            }
            assert_eq!(gcm.open_in_place(&iv, b"hdr", &mut wire), Ok(1000), "{pairing}");
            assert_eq!(&wire[..1000], &pt[..]);
        }
    }

    #[test]
    fn tampered_anything_fails_opaquely() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let iv = [1u8; 12];
        let aad = b"header".to_vec();
        let wire = gcm.seal(&iv, &aad, b"payload bytes here");
        // Flip each byte in turn: ciphertext, tag — same opaque error.
        for i in 0..wire.len() {
            let mut w = wire.clone();
            w[i] ^= 0x40;
            assert_eq!(gcm.open(&iv, &aad, &w).unwrap_err(), AeadError, "byte {i}");
        }
        // Wrong AAD, wrong nonce, truncated wire.
        assert_eq!(gcm.open(&iv, b"Header", &wire).unwrap_err(), AeadError);
        assert_eq!(gcm.open(&[2u8; 12], &aad, &wire).unwrap_err(), AeadError);
        assert_eq!(gcm.open(&iv, &aad, &wire[..15]).unwrap_err(), AeadError);
    }

    #[test]
    fn in_place_matches_allocating_and_preserves_prefix() {
        let gcm = AesGcm::new(&[9u8; 32]);
        let iv = [3u8; 12];
        for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 1000, 4095, 4096, 4097, 8192, 32_900] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 11) as u8).collect();
            let mut buf = vec![0xEE; 5];
            buf.extend_from_slice(&pt);
            gcm.seal_in_place(&iv, b"aad", &mut buf, 5);
            assert_eq!(&buf[..5], &[0xEE; 5][..], "prefix untouched len={len}");
            assert_eq!(&buf[5..], &gcm.seal(&iv, b"aad", &pt)[..], "len={len}");
            let n = gcm.open_in_place(&iv, b"aad", &mut buf[5..]).unwrap();
            assert_eq!(&buf[5..5 + n], &pt[..], "roundtrip len={len}");
        }
    }
}
