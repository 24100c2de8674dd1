//! AES (Rijndael, FIPS 197) block cipher with 128- and 256-bit keys.
//!
//! The paper's strongest configuration (`sgfs-aes`) encrypts RPC traffic
//! with AES-256 in CBC mode; CBC chaining lives in [`crate::cbc`], this
//! module implements the raw block transform and key schedule.
//!
//! Three rungs ([`Rung`]), picked once per key schedule:
//!
//! - **VAES** (`Rung::Wide`: x86-64 with `avx2` + `vaes` + `vpclmulqdq`
//!   besides AES-NI, detected at runtime): the CTR kernel (AES-GCM) on
//!   256-bit registers, two blocks per `VAESENC`, eight registers — 16
//!   blocks, 256 bytes — per group, counters stepped in registers and
//!   the keystream XORed between load and store. What is left after the
//!   last whole group, a call shorter than one group, and every block and
//!   ECB entry point run the AES-NI code below.
//! - **AES-NI** (`Rung::Narrow`: the `aes` and `ssse3` features): one
//!   `AESENC`/`AESDEC` per round, four blocks interleaved in the ECB bulk
//!   entry points (CBC decryption), eight in the CTR kernel, which also
//!   forms its counter blocks and XORs the keystream in registers.
//! - **T-tables** (`Rung::Portable`, every host): SubBytes, ShiftRows and
//!   MixColumns collapse into four 1 KiB lookup tables per direction,
//!   built once at compile time. The state is held as four big-endian
//!   `u32` column words, so a full round is 16 table loads, 12 XORs and
//!   the round-key XOR.
//!
//! All `unsafe` is inside the `ni` and `vaes` kernel modules; the safe
//! entry points below dispatch on the rung, which only `Rung::detect`
//! sets above `Portable`. The straightforward scalar implementation the
//! repository started with is preserved under [`mod@reference`] as the
//! differential-testing oracle and the baseline for throughput
//! comparisons.

use crate::{Rung, Unit};

/// Forward S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Multiply in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1.
const fn gmul(a: u8, b: u8) -> u8 {
    let (mut a, mut b, mut p) = (a, b, 0u8);
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

const fn build_inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// Inverse S-box, fixed at compile time.
const INV_SBOX: [u8; 256] = build_inv_sbox();

/// Encrypt tables: `TE[r][x]` is the MixColumns coefficient column
/// (2,1,1,3) applied to `S(x)`, rotated right `r` bytes — one table per
/// state row, packed big-endian.
const fn build_te() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let base = ((gmul(s, 2) as u32) << 24)
            | ((s as u32) << 16)
            | ((s as u32) << 8)
            | (gmul(s, 3) as u32);
        te[0][x] = base;
        te[1][x] = base.rotate_right(8);
        te[2][x] = base.rotate_right(16);
        te[3][x] = base.rotate_right(24);
        x += 1;
    }
    te
}

/// Decrypt tables: `TD[r][x]` is the inverse MixColumns coefficient
/// column (14,9,13,11) applied to `InvS(x)`, rotated right `r` bytes.
const fn build_td() -> [[u32; 256]; 4] {
    let mut td = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = INV_SBOX[x];
        let base = ((gmul(s, 14) as u32) << 24)
            | ((gmul(s, 9) as u32) << 16)
            | ((gmul(s, 13) as u32) << 8)
            | (gmul(s, 11) as u32);
        td[0][x] = base;
        td[1][x] = base.rotate_right(8);
        td[2][x] = base.rotate_right(16);
        td[3][x] = base.rotate_right(24);
        x += 1;
    }
    td
}

// `static`, not `const`: 8 KiB of tables referenced by address instead of
// inlined at each use site. Built entirely at compile time — nothing is
// recomputed per key schedule (or even per process).
static TE: [[u32; 256]; 4] = build_te();
static TD: [[u32; 256]; 4] = build_td();

/// An expanded AES key supporting block encryption and decryption.
///
/// Supports 16-byte (AES-128) and 32-byte (AES-256) keys — the two sizes
/// the paper's cipher suites use.
#[derive(Clone)]
pub struct Aes {
    /// Encryption round keys as big-endian column words, rounds 0..=Nr.
    enc_keys: Vec<[u32; 4]>,
    /// Decryption round keys for the equivalent inverse cipher: the
    /// encryption schedule reversed, inner rounds passed through
    /// InvMixColumns.
    dec_keys: Vec<[u32; 4]>,
    /// The same schedules in wire byte order, the layout the AES-NI
    /// `AESENC`/`AESDEC` instructions consume directly.
    enc_keys_bytes: Vec<[u8; 16]>,
    dec_keys_bytes: Vec<[u8; 16]>,
    /// The kernels this schedule runs: never above what [`Rung::detect`]
    /// reported for this CPU, which every `unsafe` call below relies on;
    /// `Portable` off x86-64.
    rung: Rung,
}

impl Aes {
    /// Expand `key` (16 or 32 bytes). Panics on other lengths: key sizes
    /// are fixed by the negotiated cipher suite, never attacker data.
    pub fn new(key: &[u8]) -> Self {
        Self::with_backend(key, Rung::detect(Unit::Aes))
    }

    /// Schedule pinned to `rung`, or `None` when this CPU cannot run it —
    /// how tests reach a narrower rung than [`Aes::new`] picks.
    /// [`Rung::Portable`], the T-table oracle, runs on every host.
    pub fn with_rung(key: &[u8], rung: Rung) -> Option<Self> {
        (rung <= Rung::detect(Unit::Aes)).then(|| Self::with_backend(key, rung))
    }

    fn with_backend(key: &[u8], rung: Rung) -> Self {
        let nk = match key.len() {
            16 => 4,
            32 => 8,
            n => panic!("unsupported AES key length {n}"),
        };
        let nr = nk + 6; // 10 rounds for AES-128, 14 for AES-256
        let nwords = 4 * (nr + 1);
        let mut w = vec![0u32; nwords];
        for i in 0..nk {
            w[i] = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut rcon = 1u8;
        for i in nk..nwords {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((rcon as u32) << 24);
                rcon = gmul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let enc_keys: Vec<[u32; 4]> =
            w.chunks_exact(4).map(|c| [c[0], c[1], c[2], c[3]]).collect();
        let mut dec_keys = vec![[0u32; 4]; nr + 1];
        dec_keys[0] = enc_keys[nr];
        dec_keys[nr] = enc_keys[0];
        for round in 1..nr {
            let src = enc_keys[nr - round];
            for c in 0..4 {
                dec_keys[round][c] = inv_mix_word(src[c]);
            }
        }
        let to_bytes = |keys: &[[u32; 4]]| {
            keys.iter()
                .map(|rk| {
                    let mut b = [0u8; 16];
                    for (c, w) in rk.iter().enumerate() {
                        b[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
                    }
                    b
                })
                .collect()
        };
        let enc_keys_bytes = to_bytes(&enc_keys);
        let dec_keys_bytes = to_bytes(&dec_keys);
        Self { enc_keys, dec_keys, enc_keys_bytes, dec_keys_bytes, rung }
    }

    /// Number of rounds (10 or 14).
    fn rounds(&self) -> usize {
        self.enc_keys.len() - 1
    }

    /// The rung this schedule dispatches to.
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// The CTR backend this schedule dispatches to, by name.
    pub fn backend(&self) -> &'static str {
        match self.rung {
            Rung::Wide => "vaes",
            Rung::Narrow => "aes-ni",
            Rung::Portable => "t-table",
        }
    }

    /// Whether the AES-NI instructions run this schedule's blocks (on the
    /// wide rung too: it widens only the CTR kernel).
    #[cfg(target_arch = "x86_64")]
    fn ni(&self) -> bool {
        self.rung >= Rung::Narrow
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if self.ni() {
            // SAFETY: the rung is at least `Narrow` only when the CPU
            // reports aes + ssse3.
            unsafe { ni::encrypt_block(&self.enc_keys_bytes, block) };
            return;
        }
        self.encrypt_block_table(block);
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if self.ni() {
            // SAFETY: the rung is at least `Narrow` only when the CPU
            // reports aes + ssse3.
            unsafe { ni::decrypt_block(&self.dec_keys_bytes, block) };
            return;
        }
        self.decrypt_block_table(block);
    }

    /// Encrypt a run of *independent* 16-byte blocks in place
    /// (`data.len()` must be a multiple of 16).
    ///
    /// Callers with chained blocks (CBC encryption) cannot use this; CBC
    /// *decryption* and any ECB/CTR-style bulk work can.
    pub fn encrypt_blocks(&self, data: &mut [u8]) {
        assert_eq!(data.len() % 16, 0, "partial AES block");
        #[cfg(target_arch = "x86_64")]
        if self.ni() {
            // SAFETY: the rung is at least `Narrow` only when the CPU
            // reports aes + ssse3.
            unsafe { ni::encrypt_blocks(&self.enc_keys_bytes, data) };
            return;
        }
        self.encrypt_blocks_table(data);
    }

    /// Decrypt a run of independent 16-byte blocks in place — the bulk
    /// half of CBC decryption (the chaining XOR happens afterwards).
    pub fn decrypt_blocks(&self, data: &mut [u8]) {
        assert_eq!(data.len() % 16, 0, "partial AES block");
        #[cfg(target_arch = "x86_64")]
        if self.ni() {
            // SAFETY: the rung is at least `Narrow` only when the CPU
            // reports aes + ssse3.
            unsafe { ni::decrypt_blocks(&self.dec_keys_bytes, data) };
            return;
        }
        self.decrypt_blocks_table(data);
    }

    /// CTR mode: XOR the keystream `E(prefix ‖ be32(ctr))`,
    /// `E(prefix ‖ be32(ctr+1))`, … into `dst`, where `prefix` is
    /// `j0[..12]` and the counter wraps modulo 2^32 (SP 800-38D `inc32`).
    /// With `src` the keystream is XORed onto `src` and written to `dst`
    /// (out of place, equal lengths); without, `dst` is transformed in
    /// place. A `src` of another length panics.
    pub(crate) fn ctr_xor(&self, j0: &[u8; 16], ctr: u32, src: Option<&[u8]>, dst: &mut [u8]) {
        assert!(src.is_none_or(|s| s.len() == dst.len()), "CTR source/destination length");
        #[cfg(target_arch = "x86_64")]
        if self.rung == Rung::Wide && dst.len() >= vaes::GROUP {
            // SAFETY: the rung is `Wide` only when the CPU reports aes +
            // ssse3 + avx2 + vaes.
            unsafe { vaes::ctr_xor(&self.enc_keys_bytes, j0, ctr, src, dst) };
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if self.ni() {
            // SAFETY: the rung is at least `Narrow` only when the CPU
            // reports aes + ssse3.
            unsafe { ni::ctr_xor(&self.enc_keys_bytes, j0, ctr, src, dst) };
            return;
        }
        self.ctr_xor_table(j0, ctr, src, dst);
    }

    /// Portable CTR: four counter blocks at a time through the T-table
    /// bulk path, XORed over `dst` bytewise.
    fn ctr_xor_table(&self, j0: &[u8; 16], mut ctr: u32, src: Option<&[u8]>, dst: &mut [u8]) {
        if let Some(src) = src {
            dst.copy_from_slice(src);
        }
        let mut ks = [0u8; 64];
        for chunk in dst.chunks_mut(64) {
            for block in ks.chunks_exact_mut(16) {
                block[..12].copy_from_slice(&j0[..12]);
                block[12..].copy_from_slice(&ctr.to_be_bytes());
                ctr = ctr.wrapping_add(1);
            }
            self.encrypt_blocks_table(&mut ks);
            for (d, k) in chunk.iter_mut().zip(&ks) {
                *d ^= k;
            }
        }
    }

    /// T-table single-block encryption (portable path).
    fn encrypt_block_table(&self, block: &mut [u8; 16]) {
        let nr = self.rounds();
        let mut w = load_state(block);
        xor_words(&mut w, &self.enc_keys[0]);
        for round in 1..nr {
            let rk = &self.enc_keys[round];
            w = [
                te_col(&w, 0) ^ rk[0],
                te_col(&w, 1) ^ rk[1],
                te_col(&w, 2) ^ rk[2],
                te_col(&w, 3) ^ rk[3],
            ];
        }
        let rk = &self.enc_keys[nr];
        let out = [
            sbox_col(&w, 0) ^ rk[0],
            sbox_col(&w, 1) ^ rk[1],
            sbox_col(&w, 2) ^ rk[2],
            sbox_col(&w, 3) ^ rk[3],
        ];
        store_state(&out, block);
    }

    /// T-table single-block decryption (portable path).
    fn decrypt_block_table(&self, block: &mut [u8; 16]) {
        let nr = self.rounds();
        let mut w = load_state(block);
        xor_words(&mut w, &self.dec_keys[0]);
        for round in 1..nr {
            let rk = &self.dec_keys[round];
            w = [
                td_col(&w, 0) ^ rk[0],
                td_col(&w, 1) ^ rk[1],
                td_col(&w, 2) ^ rk[2],
                td_col(&w, 3) ^ rk[3],
            ];
        }
        let rk = &self.dec_keys[nr];
        let out = [
            inv_sbox_col(&w, 0) ^ rk[0],
            inv_sbox_col(&w, 1) ^ rk[1],
            inv_sbox_col(&w, 2) ^ rk[2],
            inv_sbox_col(&w, 3) ^ rk[3],
        ];
        store_state(&out, block);
    }

    /// T-table bulk encryption: four blocks interleaved per iteration —
    /// a single block's rounds form one long dependency chain of table
    /// loads, so the core sits idle between them; four independent
    /// chains keep its load ports busy.
    fn encrypt_blocks_table(&self, data: &mut [u8]) {
        let mut quads = data.chunks_exact_mut(64);
        for quad in &mut quads {
            let (b0, rest) = quad.split_at_mut(16);
            let (b1, rest) = rest.split_at_mut(16);
            let (b2, b3) = rest.split_at_mut(16);
            let mut w = [
                load_state((&*b0).try_into().unwrap()),
                load_state((&*b1).try_into().unwrap()),
                load_state((&*b2).try_into().unwrap()),
                load_state((&*b3).try_into().unwrap()),
            ];
            let (first, rest) = self.enc_keys.split_first().unwrap();
            let (rk, mids) = rest.split_last().unwrap();
            for lane in w.iter_mut() {
                xor_words(lane, first);
            }
            for rk in mids {
                for lane in w.iter_mut() {
                    *lane = [
                        te_col(lane, 0) ^ rk[0],
                        te_col(lane, 1) ^ rk[1],
                        te_col(lane, 2) ^ rk[2],
                        te_col(lane, 3) ^ rk[3],
                    ];
                }
            }
            for lane in w.iter_mut() {
                *lane = [
                    sbox_col(lane, 0) ^ rk[0],
                    sbox_col(lane, 1) ^ rk[1],
                    sbox_col(lane, 2) ^ rk[2],
                    sbox_col(lane, 3) ^ rk[3],
                ];
            }
            store_state(&w[0], b0.try_into().unwrap());
            store_state(&w[1], b1.try_into().unwrap());
            store_state(&w[2], b2.try_into().unwrap());
            store_state(&w[3], b3.try_into().unwrap());
        }
        for block in quads.into_remainder().chunks_exact_mut(16) {
            self.encrypt_block_table(block.try_into().unwrap());
        }
    }

    /// T-table bulk decryption, same four-lane interleaving as
    /// [`encrypt_blocks_table`](Self::encrypt_blocks_table).
    fn decrypt_blocks_table(&self, data: &mut [u8]) {
        let mut quads = data.chunks_exact_mut(64);
        for quad in &mut quads {
            let (b0, rest) = quad.split_at_mut(16);
            let (b1, rest) = rest.split_at_mut(16);
            let (b2, b3) = rest.split_at_mut(16);
            let mut w = [
                load_state((&*b0).try_into().unwrap()),
                load_state((&*b1).try_into().unwrap()),
                load_state((&*b2).try_into().unwrap()),
                load_state((&*b3).try_into().unwrap()),
            ];
            let nr = self.rounds();
            for lane in w.iter_mut() {
                xor_words(lane, &self.dec_keys[0]);
            }
            for round in 1..nr {
                let rk = &self.dec_keys[round];
                for lane in w.iter_mut() {
                    *lane = [
                        td_col(lane, 0) ^ rk[0],
                        td_col(lane, 1) ^ rk[1],
                        td_col(lane, 2) ^ rk[2],
                        td_col(lane, 3) ^ rk[3],
                    ];
                }
            }
            let rk = &self.dec_keys[nr];
            for lane in w.iter_mut() {
                *lane = [
                    inv_sbox_col(lane, 0) ^ rk[0],
                    inv_sbox_col(lane, 1) ^ rk[1],
                    inv_sbox_col(lane, 2) ^ rk[2],
                    inv_sbox_col(lane, 3) ^ rk[3],
                ];
            }
            store_state(&w[0], b0.try_into().unwrap());
            store_state(&w[1], b1.try_into().unwrap());
            store_state(&w[2], b2.try_into().unwrap());
            store_state(&w[3], b3.try_into().unwrap());
        }
        for block in quads.into_remainder().chunks_exact_mut(16) {
            self.decrypt_block_table(block.try_into().unwrap());
        }
    }
}

/// Hardware AES (AES-NI) backend: one `AESENC`/`AESDEC` per round, four
/// blocks interleaved in the ECB bulk routines and eight in the CTR
/// kernel so the ~4-cycle instruction latency overlaps. Round keys
/// arrive in wire byte order ([`Aes`] keeps a byte-form copy of both
/// schedules); the decryption schedule is the same
/// equivalent-inverse-cipher form `AESDEC` expects, so no extra `AESIMC`
/// pass is needed.
#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::*;

    #[inline]
    unsafe fn key(keys: &[[u8; 16]], r: usize) -> __m128i {
        _mm_loadu_si128(keys[r].as_ptr().cast())
    }

    /// # Safety
    /// Requires a CPU with the `aes` feature.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn encrypt_block(keys: &[[u8; 16]], block: &mut [u8; 16]) {
        let nr = keys.len() - 1;
        let p = block.as_mut_ptr().cast::<__m128i>();
        let mut s = _mm_xor_si128(_mm_loadu_si128(p), key(keys, 0));
        for r in 1..nr {
            s = _mm_aesenc_si128(s, key(keys, r));
        }
        s = _mm_aesenclast_si128(s, key(keys, nr));
        _mm_storeu_si128(p, s);
    }

    /// # Safety
    /// Requires a CPU with the `aes` feature.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn decrypt_block(keys: &[[u8; 16]], block: &mut [u8; 16]) {
        let nr = keys.len() - 1;
        let p = block.as_mut_ptr().cast::<__m128i>();
        let mut s = _mm_xor_si128(_mm_loadu_si128(p), key(keys, 0));
        for r in 1..nr {
            s = _mm_aesdec_si128(s, key(keys, r));
        }
        s = _mm_aesdeclast_si128(s, key(keys, nr));
        _mm_storeu_si128(p, s);
    }

    /// # Safety
    /// Requires a CPU with the `aes` feature; `data.len() % 16 == 0`.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn encrypt_blocks(keys: &[[u8; 16]], data: &mut [u8]) {
        let nr = keys.len() - 1;
        let mut quads = data.chunks_exact_mut(64);
        for quad in &mut quads {
            let p = quad.as_mut_ptr().cast::<__m128i>();
            let k0 = key(keys, 0);
            let mut s0 = _mm_xor_si128(_mm_loadu_si128(p), k0);
            let mut s1 = _mm_xor_si128(_mm_loadu_si128(p.add(1)), k0);
            let mut s2 = _mm_xor_si128(_mm_loadu_si128(p.add(2)), k0);
            let mut s3 = _mm_xor_si128(_mm_loadu_si128(p.add(3)), k0);
            for r in 1..nr {
                let k = key(keys, r);
                s0 = _mm_aesenc_si128(s0, k);
                s1 = _mm_aesenc_si128(s1, k);
                s2 = _mm_aesenc_si128(s2, k);
                s3 = _mm_aesenc_si128(s3, k);
            }
            let k = key(keys, nr);
            _mm_storeu_si128(p, _mm_aesenclast_si128(s0, k));
            _mm_storeu_si128(p.add(1), _mm_aesenclast_si128(s1, k));
            _mm_storeu_si128(p.add(2), _mm_aesenclast_si128(s2, k));
            _mm_storeu_si128(p.add(3), _mm_aesenclast_si128(s3, k));
        }
        for block in quads.into_remainder().chunks_exact_mut(16) {
            encrypt_block(keys, block.try_into().unwrap());
        }
    }

    /// # Safety
    /// Requires a CPU with the `aes` feature; `data.len() % 16 == 0`.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn decrypt_blocks(keys: &[[u8; 16]], data: &mut [u8]) {
        let nr = keys.len() - 1;
        let mut quads = data.chunks_exact_mut(64);
        for quad in &mut quads {
            let p = quad.as_mut_ptr().cast::<__m128i>();
            let k0 = key(keys, 0);
            let mut s0 = _mm_xor_si128(_mm_loadu_si128(p), k0);
            let mut s1 = _mm_xor_si128(_mm_loadu_si128(p.add(1)), k0);
            let mut s2 = _mm_xor_si128(_mm_loadu_si128(p.add(2)), k0);
            let mut s3 = _mm_xor_si128(_mm_loadu_si128(p.add(3)), k0);
            for r in 1..nr {
                let k = key(keys, r);
                s0 = _mm_aesdec_si128(s0, k);
                s1 = _mm_aesdec_si128(s1, k);
                s2 = _mm_aesdec_si128(s2, k);
                s3 = _mm_aesdec_si128(s3, k);
            }
            let k = key(keys, nr);
            _mm_storeu_si128(p, _mm_aesdeclast_si128(s0, k));
            _mm_storeu_si128(p.add(1), _mm_aesdeclast_si128(s1, k));
            _mm_storeu_si128(p.add(2), _mm_aesdeclast_si128(s2, k));
            _mm_storeu_si128(p.add(3), _mm_aesdeclast_si128(s3, k));
        }
        for block in quads.into_remainder().chunks_exact_mut(16) {
            decrypt_block(keys, block.try_into().unwrap());
        }
    }

    /// Blocks the CTR kernel keeps in flight.
    const LANES: usize = 8;

    /// Encrypt the [`LANES`] counter blocks that follow `*ctr` and XOR
    /// them onto the 128 bytes at `src`, storing at `dst`; `*ctr`
    /// advances by [`LANES`]. `*ctr` holds a counter block byte-reversed,
    /// so its 32-bit counter is lane 0 in native order: `paddd` steps it
    /// (wrapping modulo 2^32) and one `pshufb` by `rev` restores wire
    /// order.
    ///
    /// # Safety
    /// Requires a CPU with `aes` + `ssse3`; `src` readable and `dst`
    /// writable for `16 * LANES` bytes (they may be the same address).
    #[inline]
    #[target_feature(enable = "aes,ssse3,sse2")]
    unsafe fn ctr_group(
        rk: &[__m128i],
        ctr: &mut __m128i,
        rev: __m128i,
        src: *const __m128i,
        dst: *mut __m128i,
    ) {
        let (k0, rest) = rk.split_first().unwrap();
        let (klast, mids) = rest.split_last().unwrap();
        let mut s = [_mm_setzero_si128(); LANES];
        for (i, lane) in s.iter_mut().enumerate() {
            let block = _mm_add_epi32(*ctr, _mm_set_epi32(0, 0, 0, i as i32));
            *lane = _mm_xor_si128(_mm_shuffle_epi8(block, rev), *k0);
        }
        *ctr = _mm_add_epi32(*ctr, _mm_set_epi32(0, 0, 0, LANES as i32));
        for k in mids {
            for lane in s.iter_mut() {
                *lane = _mm_aesenc_si128(*lane, *k);
            }
        }
        for (i, lane) in s.iter().enumerate() {
            let ks = _mm_aesenclast_si128(*lane, *klast);
            _mm_storeu_si128(dst.add(i), _mm_xor_si128(_mm_loadu_si128(src.add(i)), ks));
        }
    }

    /// CTR keystream XOR, counter blocks `j0[..12] ‖ be32(ctr)` onward:
    /// out of place from `src` into `dst` when `src` is given, else in
    /// place over `dst`. The round keys are loaded once per call. A
    /// `src` shorter than `dst` panics (it is sliced, never indexed by
    /// pointer).
    ///
    /// # Safety
    /// Requires a CPU with `aes` + `ssse3`.
    #[target_feature(enable = "aes,ssse3,sse2")]
    pub unsafe fn ctr_xor(
        keys: &[[u8; 16]],
        j0: &[u8; 16],
        ctr: u32,
        src: Option<&[u8]>,
        dst: &mut [u8],
    ) {
        const GROUP: usize = 16 * LANES;
        let mut rk = [_mm_setzero_si128(); 15];
        for (k, bytes) in rk.iter_mut().zip(keys) {
            *k = _mm_loadu_si128(bytes.as_ptr().cast());
        }
        let rk = &rk[..keys.len()];
        let rev = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut first = *j0;
        first[12..].copy_from_slice(&ctr.to_be_bytes());
        let mut ctr = _mm_shuffle_epi8(_mm_loadu_si128(first.as_ptr().cast()), rev);

        let mut done = 0;
        let mut groups = dst.chunks_exact_mut(GROUP);
        for group in &mut groups {
            // Both pointers come from slices of exactly GROUP bytes.
            let from = match src {
                Some(src) => src[done..done + GROUP].as_ptr(),
                None => group.as_ptr(),
            };
            ctr_group(rk, &mut ctr, rev, from.cast(), group.as_mut_ptr().cast());
            done += GROUP;
        }
        // A partial last group runs the same lanes over a stack copy.
        let tail = groups.into_remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; GROUP];
            match src {
                Some(src) => buf[..tail.len()].copy_from_slice(&src[done..]),
                None => buf[..tail.len()].copy_from_slice(tail),
            }
            ctr_group(rk, &mut ctr, rev, buf.as_ptr().cast(), buf.as_mut_ptr().cast());
            tail.copy_from_slice(&buf[..tail.len()]);
        }
    }
}

/// Wide CTR backend (VAES on 256-bit registers): each `VAESENC` runs one
/// round on two blocks, and a group keeps [`LANES`] registers — 16
/// blocks — in flight. Whole groups only; the rest of the call goes to
/// [`ni::ctr_xor`] with the counter advanced past them.
#[cfg(target_arch = "x86_64")]
mod vaes {
    use super::ni;
    use std::arch::x86_64::*;

    /// Registers in flight per group, two blocks each.
    const LANES: usize = 8;
    /// Bytes per group: a call shorter than this never enters the kernel.
    pub const GROUP: usize = 32 * LANES;

    /// Encrypt the 16 counter blocks that follow `*ctr` and XOR them onto
    /// the [`GROUP`] bytes at `src`, storing at `dst`; `*ctr` advances by
    /// 16. `*ctr` holds two consecutive counter blocks byte-reversed, one
    /// per 128-bit half, so each half's 32-bit counter is its lane 0 in
    /// native order: `vpaddd` steps both (wrapping modulo 2^32) and one
    /// `vpshufb` by `rev` restores wire order.
    ///
    /// # Safety
    /// Requires a CPU with `avx2` + `vaes`; `src` readable and `dst`
    /// writable for [`GROUP`] bytes (they may be the same address).
    #[inline]
    #[target_feature(enable = "avx2,vaes")]
    unsafe fn ctr_group(
        rk: &[__m256i],
        ctr: &mut __m256i,
        rev: __m256i,
        src: *const __m256i,
        dst: *mut __m256i,
    ) {
        let (k0, rest) = rk.split_first().expect("a schedule has 11 or 15 round keys");
        let (klast, mids) = rest.split_last().expect("a schedule has 11 or 15 round keys");
        let mut s = [_mm256_setzero_si256(); LANES];
        for (i, lane) in s.iter_mut().enumerate() {
            let step = 2 * i as i32;
            let block = _mm256_add_epi32(*ctr, _mm256_set_epi32(0, 0, 0, step, 0, 0, 0, step));
            *lane = _mm256_xor_si256(_mm256_shuffle_epi8(block, rev), *k0);
        }
        let step = 2 * LANES as i32;
        *ctr = _mm256_add_epi32(*ctr, _mm256_set_epi32(0, 0, 0, step, 0, 0, 0, step));
        for k in mids {
            for lane in s.iter_mut() {
                *lane = _mm256_aesenc_epi128(*lane, *k);
            }
        }
        for (i, lane) in s.iter().enumerate() {
            let ks = _mm256_aesenclast_epi128(*lane, *klast);
            _mm256_storeu_si256(dst.add(i), _mm256_xor_si256(_mm256_loadu_si256(src.add(i)), ks));
        }
    }

    /// [`ni::ctr_xor`]'s contract, run [`GROUP`] bytes at a time: the
    /// round keys are broadcast to both halves once per call, and the
    /// bytes after the last whole group take the narrow kernel.
    ///
    /// # Safety
    /// Requires a CPU with `aes` + `ssse3` + `avx2` + `vaes`.
    #[target_feature(enable = "aes,ssse3,avx2,vaes")]
    pub unsafe fn ctr_xor(
        keys: &[[u8; 16]],
        j0: &[u8; 16],
        ctr: u32,
        src: Option<&[u8]>,
        dst: &mut [u8],
    ) {
        let mut rk = [_mm256_setzero_si256(); 15];
        for (k, bytes) in rk.iter_mut().zip(keys) {
            *k = _mm256_broadcastsi128_si256(_mm_loadu_si128(bytes.as_ptr().cast()));
        }
        let rk = &rk[..keys.len()];
        let rev = _mm256_set_epi8(
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, //
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        );
        let mut first = *j0;
        first[12..].copy_from_slice(&ctr.to_be_bytes());
        let first = _mm_shuffle_epi8(
            _mm_loadu_si128(first.as_ptr().cast()),
            _mm256_castsi256_si128(rev),
        );
        // Blocks `ctr` and `ctr + 1`, low half first.
        let mut pair =
            _mm256_add_epi32(_mm256_broadcastsi128_si256(first), _mm256_set_epi32(0, 0, 0, 1, 0, 0, 0, 0));

        let whole = dst.len() - dst.len() % GROUP;
        let (head, tail) = dst.split_at_mut(whole);
        let (src_head, src_tail) = src.map(|s| s.split_at(whole)).unzip();
        match src_head {
            Some(src) => {
                for (d, s) in head.chunks_exact_mut(GROUP).zip(src.chunks_exact(GROUP)) {
                    ctr_group(rk, &mut pair, rev, s.as_ptr().cast(), d.as_mut_ptr().cast());
                }
            }
            None => {
                for d in head.chunks_exact_mut(GROUP) {
                    let p = d.as_mut_ptr().cast();
                    ctr_group(rk, &mut pair, rev, p, p);
                }
            }
        }
        let done = (whole / 16) as u32;
        ni::ctr_xor(keys, j0, ctr.wrapping_add(done), src_tail, tail);
    }
}

#[inline(always)]
fn load_state(block: &[u8; 16]) -> [u32; 4] {
    [
        u32::from_be_bytes(block[0..4].try_into().unwrap()),
        u32::from_be_bytes(block[4..8].try_into().unwrap()),
        u32::from_be_bytes(block[8..12].try_into().unwrap()),
        u32::from_be_bytes(block[12..16].try_into().unwrap()),
    ]
}

#[inline(always)]
fn store_state(w: &[u32; 4], block: &mut [u8; 16]) {
    block[0..4].copy_from_slice(&w[0].to_be_bytes());
    block[4..8].copy_from_slice(&w[1].to_be_bytes());
    block[8..12].copy_from_slice(&w[2].to_be_bytes());
    block[12..16].copy_from_slice(&w[3].to_be_bytes());
}

#[inline(always)]
fn xor_words(w: &mut [u32; 4], rk: &[u32; 4]) {
    for (a, b) in w.iter_mut().zip(rk) {
        *a ^= b;
    }
}

/// One encrypt-direction column: ShiftRows sources row r of output
/// column c from column (c+r) mod 4.
#[inline(always)]
fn te_col(w: &[u32; 4], c: usize) -> u32 {
    TE[0][(w[c] >> 24) as usize]
        ^ TE[1][((w[(c + 1) & 3] >> 16) & 0xff) as usize]
        ^ TE[2][((w[(c + 2) & 3] >> 8) & 0xff) as usize]
        ^ TE[3][(w[(c + 3) & 3] & 0xff) as usize]
}

/// One decrypt-direction column: InvShiftRows sources row r of output
/// column c from column (c-r) mod 4.
#[inline(always)]
fn td_col(w: &[u32; 4], c: usize) -> u32 {
    TD[0][(w[c] >> 24) as usize]
        ^ TD[1][((w[(c + 3) & 3] >> 16) & 0xff) as usize]
        ^ TD[2][((w[(c + 2) & 3] >> 8) & 0xff) as usize]
        ^ TD[3][(w[(c + 1) & 3] & 0xff) as usize]
}

/// Final encrypt round: SubBytes + ShiftRows only.
#[inline(always)]
fn sbox_col(w: &[u32; 4], c: usize) -> u32 {
    ((SBOX[(w[c] >> 24) as usize] as u32) << 24)
        | ((SBOX[((w[(c + 1) & 3] >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((w[(c + 2) & 3] >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(w[(c + 3) & 3] & 0xff) as usize] as u32)
}

/// Final decrypt round: InvSubBytes + InvShiftRows only.
#[inline(always)]
fn inv_sbox_col(w: &[u32; 4], c: usize) -> u32 {
    ((INV_SBOX[(w[c] >> 24) as usize] as u32) << 24)
        | ((INV_SBOX[((w[(c + 3) & 3] >> 16) & 0xff) as usize] as u32) << 16)
        | ((INV_SBOX[((w[(c + 2) & 3] >> 8) & 0xff) as usize] as u32) << 8)
        | (INV_SBOX[(w[(c + 1) & 3] & 0xff) as usize] as u32)
}

#[inline]
fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

/// InvMixColumns over one column word (key-schedule transform for the
/// equivalent inverse cipher).
fn inv_mix_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        gmul(a, 14) ^ gmul(b, 11) ^ gmul(c, 13) ^ gmul(d, 9),
        gmul(a, 9) ^ gmul(b, 14) ^ gmul(c, 11) ^ gmul(d, 13),
        gmul(a, 13) ^ gmul(b, 9) ^ gmul(c, 14) ^ gmul(d, 11),
        gmul(a, 11) ^ gmul(b, 13) ^ gmul(c, 9) ^ gmul(d, 14),
    ])
}

/// The original scalar implementation (xtime MixColumns, per-bit GF(2^8)
/// decrypt multiplies): retained as a differential-test oracle and as the
/// baseline the T-table path is benchmarked against.
pub mod reference {
    use super::{gmul, INV_SBOX, SBOX};

    /// Scalar AES oracle with the same API as [`super::Aes`].
    #[derive(Clone)]
    pub struct Aes {
        round_keys: Vec<[u8; 16]>,
    }

    impl Aes {
        /// Expand `key` (16 or 32 bytes).
        pub fn new(key: &[u8]) -> Self {
            let nk = match key.len() {
                16 => 4,
                32 => 8,
                n => panic!("unsupported AES key length {n}"),
            };
            let nr = nk + 6;
            let nwords = 4 * (nr + 1);
            let mut w = vec![[0u8; 4]; nwords];
            for i in 0..nk {
                w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
            }
            let mut rcon = 1u8;
            for i in nk..nwords {
                let mut temp = w[i - 1];
                if i % nk == 0 {
                    temp.rotate_left(1);
                    for t in temp.iter_mut() {
                        *t = SBOX[*t as usize];
                    }
                    temp[0] ^= rcon;
                    rcon = gmul(rcon, 2);
                } else if nk > 6 && i % nk == 4 {
                    for t in temp.iter_mut() {
                        *t = SBOX[*t as usize];
                    }
                }
                for j in 0..4 {
                    w[i][j] = w[i - nk][j] ^ temp[j];
                }
            }
            let round_keys = w
                .chunks_exact(4)
                .map(|c| {
                    let mut rk = [0u8; 16];
                    for (j, word) in c.iter().enumerate() {
                        rk[4 * j..4 * j + 4].copy_from_slice(word);
                    }
                    rk
                })
                .collect();
            Self { round_keys }
        }

        fn rounds(&self) -> usize {
            self.round_keys.len() - 1
        }

        /// Encrypt one 16-byte block in place.
        pub fn encrypt_block(&self, block: &mut [u8; 16]) {
            let nr = self.rounds();
            xor_block(block, &self.round_keys[0]);
            for round in 1..nr {
                sub_bytes(block, &SBOX);
                shift_rows(block);
                mix_columns(block);
                xor_block(block, &self.round_keys[round]);
            }
            sub_bytes(block, &SBOX);
            shift_rows(block);
            xor_block(block, &self.round_keys[nr]);
        }

        /// Decrypt one 16-byte block in place.
        pub fn decrypt_block(&self, block: &mut [u8; 16]) {
            let nr = self.rounds();
            xor_block(block, &self.round_keys[nr]);
            inv_shift_rows(block);
            sub_bytes(block, &INV_SBOX);
            for round in (1..nr).rev() {
                xor_block(block, &self.round_keys[round]);
                inv_mix_columns(block);
                inv_shift_rows(block);
                sub_bytes(block, &INV_SBOX);
            }
            xor_block(block, &self.round_keys[0]);
        }
    }

    #[inline]
    fn xor_block(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    #[inline]
    fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
        for b in state.iter_mut() {
            *b = sbox[*b as usize];
        }
    }

    /// State is column-major: byte `r + 4c` is row r, column c.
    #[inline]
    fn shift_rows(s: &mut [u8; 16]) {
        // row 1: left rotate by 1
        let t = s[1];
        s[1] = s[5];
        s[5] = s[9];
        s[9] = s[13];
        s[13] = t;
        // row 2: left rotate by 2
        s.swap(2, 10);
        s.swap(6, 14);
        // row 3: left rotate by 3 (= right rotate by 1)
        let t = s[15];
        s[15] = s[11];
        s[11] = s[7];
        s[7] = s[3];
        s[3] = t;
    }

    #[inline]
    fn inv_shift_rows(s: &mut [u8; 16]) {
        // row 1: right rotate by 1
        let t = s[13];
        s[13] = s[9];
        s[9] = s[5];
        s[5] = s[1];
        s[1] = t;
        // row 2: rotate by 2 (self-inverse)
        s.swap(2, 10);
        s.swap(6, 14);
        // row 3: left rotate by 1
        let t = s[3];
        s[3] = s[7];
        s[7] = s[11];
        s[11] = s[15];
        s[15] = t;
    }

    #[inline]
    fn xtime(b: u8) -> u8 {
        (b << 1) ^ (((b >> 7) & 1) * 0x1b)
    }

    #[inline]
    fn mix_columns(s: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            s[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
            s[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
            s[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
            s[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
        }
    }

    #[inline]
    fn inv_mix_columns(s: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
            s[4 * c] =
                gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            s[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            s[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            s[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
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

    // FIPS-197 Appendix C.1: AES-128.
    #[test]
    fn fips197_aes128() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::new(&key);
        let mut block = [0u8; 16];
        block.copy_from_slice(&from_hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    // FIPS-197 Appendix C.3: AES-256.
    #[test]
    fn fips197_aes256() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = Aes::new(&key);
        let mut block = [0u8; 16];
        block.copy_from_slice(&from_hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn encrypt_decrypt_inverse_many() {
        let aes = Aes::new(&[7u8; 32]);
        for seed in 0..64u8 {
            let mut block = [0u8; 16];
            for (i, b) in block.iter_mut().enumerate() {
                *b = seed.wrapping_mul(31).wrapping_add(i as u8);
            }
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig, "encryption must change the block");
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    /// The T-table path must agree with the scalar oracle bit-for-bit,
    /// both directions, both key sizes.
    #[test]
    fn ttable_matches_reference() {
        for key_len in [16usize, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 37 + 11) as u8).collect();
            let fast = Aes::new(&key);
            let oracle = reference::Aes::new(&key);
            for seed in 0..128u32 {
                let mut block = [0u8; 16];
                for (i, b) in block.iter_mut().enumerate() {
                    *b = (seed.wrapping_mul(2654435761).wrapping_add(i as u32 * 97) >> 13) as u8;
                }
                let mut expect = block;
                oracle.encrypt_block(&mut expect);
                let mut got = block;
                fast.encrypt_block(&mut got);
                assert_eq!(got, expect, "encrypt mismatch key_len={key_len} seed={seed}");
                let mut back = got;
                fast.decrypt_block(&mut back);
                assert_eq!(back, block, "decrypt mismatch key_len={key_len} seed={seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported AES key length")]
    fn bad_key_length_panics() {
        let _ = Aes::new(&[0u8; 24 - 1]);
    }

    #[test]
    #[should_panic(expected = "unsupported AES key length")]
    fn reference_bad_key_length_panics() {
        let _ = reference::Aes::new(&[0u8; 24 - 1]);
    }

    #[test]
    fn gmul_known_values() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        for x in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[x as usize] as usize], x);
        }
    }

    /// Both backends' bulk routines must agree with per-block ECB for
    /// every block count, including the < 4-block remainder path.
    #[test]
    fn bulk_blocks_match_per_block() {
        for key_len in [16usize, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 31 + 5) as u8).collect();
            for force_table in [false, true] {
                let aes = match force_table {
                    true => Aes::with_rung(&key, Rung::Portable).unwrap(),
                    false => Aes::new(&key),
                };
                let oracle = reference::Aes::new(&key);
                for blocks in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
                    let pt: Vec<u8> =
                        (0..blocks * 16).map(|i| (i as u32).wrapping_mul(167) as u8).collect();

                    let mut expect = pt.clone();
                    for b in expect.chunks_exact_mut(16) {
                        oracle.encrypt_block(b.try_into().unwrap());
                    }
                    let mut got = pt.clone();
                    aes.encrypt_blocks(&mut got);
                    assert_eq!(
                        got, expect,
                        "encrypt_blocks key_len={key_len} blocks={blocks} table={force_table}"
                    );

                    aes.decrypt_blocks(&mut got);
                    assert_eq!(
                        got, pt,
                        "decrypt_blocks key_len={key_len} blocks={blocks} table={force_table}"
                    );
                }
            }
        }
    }

    /// FIPS-197 single-block vectors through both backends.
    #[test]
    fn backends_agree_on_single_blocks() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        for force_table in [false, true] {
            let aes = match force_table {
                true => Aes::with_rung(&key, Rung::Portable).unwrap(),
                false => Aes::new(&key),
            };
            let mut block = [0u8; 16];
            block.copy_from_slice(&from_hex("00112233445566778899aabbccddeeff"));
            aes.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), from_hex("8ea2b7ca516745bfeafc49904b496089"));
            aes.decrypt_block(&mut block);
            assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
        }
    }

    /// CTR on every rung the host has, in place and out of place, against
    /// counter blocks built and encrypted one at a time by the scalar
    /// oracle — every length around the narrow kernel's 8-lane group and
    /// its stack-copied tail, around the wide kernel's 256-byte group and
    /// its hand-off to the narrow one, and a 32 KiB record ± 17 — over
    /// source and destination slices that start at different offsets
    /// into their buffers, with counters that wrap modulo 2^32 without
    /// carrying into the nonce prefix (SP 800-38D `inc32`), inside a wide
    /// group and at its edge.
    #[test]
    fn ctr_matches_per_block_oracle() {
        for key_len in [16usize, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 29 + 3) as u8).collect();
            let oracle = reference::Aes::new(&key);
            let j0 = [0xffu8; 16];
            for start in [2u32, 0xffff_fff0, 0xffff_fff9, 0xffff_ffff] {
                let lens = [111, 127, 128, 129, 255, 256, 257, 300, 511, 512, 513, 769];
                let records = [32_768 - 17, 32_768, 32_768 + 17];
                for (i, len) in (0..=40).chain(lens).chain(records).enumerate() {
                    let (from, to) = (i % 5, i % 3 * 7);
                    let backing: Vec<u8> = (0..from + len).map(|i| (i * 7 + 1) as u8).collect();
                    let src = &backing[from..];
                    let mut want = src.to_vec();
                    for (i, chunk) in want.chunks_mut(16).enumerate() {
                        let mut block = j0;
                        block[12..].copy_from_slice(&start.wrapping_add(i as u32).to_be_bytes());
                        oracle.encrypt_block(&mut block);
                        for (d, k) in chunk.iter_mut().zip(&block) {
                            *d ^= k;
                        }
                    }
                    let rungs = [Rung::Portable, Rung::Narrow, Rung::Wide];
                    for aes in rungs.into_iter().filter_map(|r| Aes::with_rung(&key, r)) {
                        let what = format!("{} key={key_len} start={start:#x} len={len}", aes.backend());
                        let mut in_place = vec![0xEEu8; to];
                        in_place.extend_from_slice(src);
                        aes.ctr_xor(&j0, start, None, &mut in_place[to..]);
                        assert_eq!(in_place[to..], want, "in place, {what}");
                        let mut out = vec![0xEEu8; to + len];
                        aes.ctr_xor(&j0, start, Some(src), &mut out[to..]);
                        assert_eq!(out[to..], want, "out of place, {what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "CTR source/destination length")]
    fn ctr_rejects_mismatched_lengths() {
        Aes::new(&[0u8; 16]).ctr_xor(&[0u8; 16], 2, Some(&[0u8; 31]), &mut [0u8; 32]);
    }

    #[test]
    #[should_panic(expected = "partial AES block")]
    fn bulk_rejects_partial_blocks() {
        Aes::new(&[0u8; 16]).encrypt_blocks(&mut [0u8; 17]);
    }
}
