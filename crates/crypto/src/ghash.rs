//! GHASH — the GF(2^128) universal hash authenticating AES-GCM records.
//!
//! Three rungs ([`Rung`]), picked once per hash key as in [`crate::aes`]:
//!
//! - **VPCLMULQDQ** (`Rung::Wide`: `avx2` + `vpclmulqdq` besides PCLMUL,
//!   detected at runtime): the same eight-block aggregated reduction as
//!   the PCLMUL loop below, held as four 256-bit registers of two blocks
//!   each against the same H¹…H⁸, one reduction per group on both
//!   halves at once; the accumulator's two halves fold into one value
//!   only after the last group. A run shorter than eight blocks, and
//!   what follows the last whole group, take the PCLMUL code.
//! - **PCLMUL** (`Rung::Narrow`: `pclmulqdq` + `ssse3`): eight blocks per
//!   reduction. The key holds H¹…H⁸, and a 128-byte group folds as
//!   `(Y⊕X₀)·H⁸ ⊕ X₁·H⁷ ⊕ … ⊕ X₇·H¹`, the eight carry-less 128×128
//!   products summed *unreduced*; the realignment shift and the modular
//!   reduction are linear, so they run once per group instead of once per
//!   block. The bit-reflection of the GCM polynomial is absorbed by a
//!   byte-swap on load plus that one-bit shift of the 256-bit sum. Fewer
//!   than eight trailing blocks take the one-multiply-one-reduction step
//!   per block.
//! - **Scalar** (`Rung::Portable`, every host, and the differential-testing
//!   oracle): the SP 800-38D shift-and-conditionally-reduce
//!   multiplication, one bit of the multiplier per step.
//!
//! Every rung shares the same element representation — a `u128` holding
//! the block's bytes big-endian, so bit 127 of the integer is the GHASH
//! coefficient of x^0 — which keeps the accumulator handoff between
//! kernels (and the equivalence proptests) trivial. All `unsafe` is
//! inside the `clmul` and `vpclmul` kernel modules.

use crate::{Rung, Unit};

/// The GHASH reduction constant: x^128 + x^7 + x^2 + x + 1 in the
/// bit-reflected big-endian-`u128` representation.
const R: u128 = 0xe1 << 120;

/// Multiply two field elements with GHASH's bit order (SP 800-38D
/// Algorithm 1). Runs in time independent of the operand values.
fn gf_mul(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    let mut i = 0;
    while i < 128 {
        // Constant-time select: mask is all-ones when bit i of y is set.
        let mask = (((y >> (127 - i)) & 1) as i128).wrapping_neg() as u128;
        z ^= v & mask;
        let lsb = ((v & 1) as i128).wrapping_neg() as u128;
        v >>= 1;
        v ^= R & lsb;
        i += 1;
    }
    z
}

/// Blocks folded per reduction on the PCLMUL path, and so the number of
/// powers of `H` a key holds.
const GROUP: usize = 8;

/// A GHASH key: the powers H¹…H⁸ of the hash subkey `H = E_K(0^128)`
/// (computed once per key, 128 bytes) plus the rung it runs on.
#[derive(Clone)]
pub struct GhashKey {
    /// `powers[i]` is `H^(i+1)`.
    powers: [u128; GROUP],
    /// Never above what [`Rung::detect`] reported for this CPU, which
    /// every `unsafe` call below relies on.
    rung: Rung,
}

impl GhashKey {
    /// Key from the 16-byte hash subkey, on the widest rung the CPU runs.
    pub fn new(h: &[u8; 16]) -> Self {
        Self::with_backend(h, Rung::detect(Unit::Ghash))
    }

    /// Key pinned to `rung`, or `None` when this CPU cannot run it.
    /// [`Rung::Portable`], the scalar oracle, runs on every host.
    pub fn with_rung(h: &[u8; 16], rung: Rung) -> Option<Self> {
        (rung <= Rung::detect(Unit::Ghash)).then(|| Self::with_backend(h, rung))
    }

    fn with_backend(h: &[u8; 16], rung: Rung) -> Self {
        let h = u128::from_be_bytes(*h);
        let mut key = Self { powers: [h; GROUP], rung };
        for i in 1..GROUP {
            key.powers[i] = key.mul(key.powers[i - 1], h);
        }
        key
    }

    /// The rung this key dispatches to.
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// The multiplication backend this key dispatches to, by name.
    pub fn backend(&self) -> &'static str {
        match self.rung {
            Rung::Wide => "vpclmul",
            Rung::Narrow => "pclmul",
            Rung::Portable => "scalar",
        }
    }

    /// Fresh streaming state under this key.
    pub fn begin(&self) -> Ghash<'_> {
        Ghash { key: self, y: 0, buf: [0u8; 16], buf_len: 0 }
    }

    /// One field multiplication on this key's backend.
    fn mul(&self, a: u128, b: u128) -> u128 {
        #[cfg(target_arch = "x86_64")]
        if self.rung >= Rung::Narrow {
            // SAFETY: the rung is at least `Narrow` only when the CPU
            // reports pclmulqdq + ssse3 support.
            return unsafe { clmul::mul(a, b) };
        }
        gf_mul(a, b)
    }

    /// Fold a run of whole blocks into accumulator `y`.
    fn blocks(&self, mut y: u128, data: &[u8]) -> u128 {
        debug_assert_eq!(data.len() % 16, 0);
        #[cfg(target_arch = "x86_64")]
        if self.rung == Rung::Wide && data.len() >= 16 * GROUP {
            // SAFETY: the rung is `Wide` only when the CPU reports
            // pclmulqdq + ssse3 + avx2 + vpclmulqdq support.
            return unsafe { vpclmul::ghash_blocks(&self.powers, y, data) };
        }
        #[cfg(target_arch = "x86_64")]
        if self.rung >= Rung::Narrow {
            // SAFETY: the rung is at least `Narrow` only when the CPU
            // reports pclmulqdq + ssse3 support.
            return unsafe { clmul::ghash_blocks(&self.powers, y, data) };
        }
        for block in data.chunks_exact(16) {
            y = gf_mul(y ^ u128::from_be_bytes(block.try_into().unwrap()), self.powers[0]);
        }
        y
    }
}

/// Streaming GHASH over arbitrary-length byte runs.
///
/// Partial blocks are buffered; [`Ghash::pad`] flushes the buffer
/// zero-padded to a block boundary, which is how GCM separates the AAD
/// and ciphertext segments.
pub struct Ghash<'a> {
    key: &'a GhashKey,
    y: u128,
    buf: [u8; 16],
    buf_len: usize,
}

impl Ghash<'_> {
    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = data.len().min(16 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                self.y = self.key.blocks(self.y, &{ self.buf });
                self.buf_len = 0;
            } else {
                // Buffer still partial ⇒ `take` consumed all of `data`.
                return;
            }
        }
        let whole = data.len() - data.len() % 16;
        if whole > 0 {
            self.y = self.key.blocks(self.y, &data[..whole]);
        }
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Zero-pad to the next block boundary (no-op when already aligned).
    pub fn pad(&mut self) {
        if self.buf_len > 0 {
            self.buf[self.buf_len..].fill(0);
            self.y = self.key.blocks(self.y, &{ self.buf });
            self.buf_len = 0;
        }
    }

    /// Finish (padding any tail) and return the 16-byte hash.
    pub fn finalize(mut self) -> [u8; 16] {
        self.pad();
        self.y.to_be_bytes()
    }

    /// Finish a GCM hash: pad the ciphertext segment, absorb the length
    /// block `[len(A)]₆₄ ‖ [len(C)]₆₄` (in bits), and return the hash.
    pub fn finalize_lengths(mut self, aad_len: usize, ct_len: usize) -> [u8; 16] {
        self.pad();
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
        lens[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
        self.update(&lens);
        self.finalize()
    }
}

/// One-shot GHASH of `aad` and `ct` with the GCM length block — the full
/// `GHASH(H, A, C)` of SP 800-38D §6.4.
pub fn ghash(key: &GhashKey, aad: &[u8], ct: &[u8]) -> [u8; 16] {
    let mut g = key.begin();
    g.update(aad);
    g.pad();
    g.update(ct);
    g.finalize_lengths(aad.len(), ct.len())
}

/// Carry-less-multiply backend. Operands live byte-swapped in XMM
/// registers (so the register integer equals the big-endian-`u128`
/// representation); the missing bit-reflection becomes a one-bit left
/// shift of the 256-bit product, then reduction modulo the reversed
/// polynomial — the classic Intel PCLMULQDQ white-paper formulation,
/// with the shift and the reduction hoisted out of the per-block work.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::GROUP;
    use std::arch::x86_64::*;

    #[inline]
    pub(super) unsafe fn to_xmm(v: u128) -> __m128i {
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    #[inline]
    pub(super) unsafe fn from_xmm(v: __m128i) -> u128 {
        let mut out = [0u8; 16];
        _mm_storeu_si128(out.as_mut_ptr().cast(), v);
        u128::from_le_bytes(out)
    }

    /// The 256-bit carry-less product `a·b` as unreduced schoolbook
    /// parts `(lo, mid, hi)`: the value is `lo ⊕ mid·2^64 ⊕ hi·2^128`.
    /// Parts of several products XOR together before one [`reduce`].
    ///
    /// # Safety
    /// Requires a CPU with `pclmulqdq` + `sse2`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    unsafe fn mul_wide(a: __m128i, b: __m128i) -> (__m128i, __m128i, __m128i) {
        let lo = _mm_clmulepi64_si128(a, b, 0x00);
        let mid = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10), _mm_clmulepi64_si128(a, b, 0x01));
        let hi = _mm_clmulepi64_si128(a, b, 0x11);
        (lo, mid, hi)
    }

    /// Realign and reduce a 256-bit sum of [`mul_wide`] parts to a field
    /// element.
    ///
    /// # Safety
    /// Requires a CPU with `sse2`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn reduce(lo: __m128i, mid: __m128i, hi: __m128i) -> __m128i {
        let mut lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
        let mut hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));
        // Shift the 256-bit product left by one bit: rev(A)·rev(B) is
        // rev(A·B) shifted right by one, so this realigns the product to
        // the byte-swapped representation.
        let c_lo = _mm_srli_epi32(lo, 31);
        let c_hi = _mm_srli_epi32(hi, 31);
        lo = _mm_slli_epi32(lo, 1);
        hi = _mm_slli_epi32(hi, 1);
        let c_cross = _mm_srli_si128(c_lo, 12);
        let c_hi = _mm_slli_si128(c_hi, 4);
        let c_lo = _mm_slli_si128(c_lo, 4);
        lo = _mm_or_si128(lo, c_lo);
        hi = _mm_or_si128(hi, c_hi);
        hi = _mm_or_si128(hi, c_cross);
        // Reduce modulo x^128 + x^7 + x^2 + x + 1 (reflected form):
        // first fold x^(31,30,25) contributions of the low half...
        let t7 = _mm_slli_epi32(lo, 31);
        let t8 = _mm_slli_epi32(lo, 30);
        let t9 = _mm_slli_epi32(lo, 25);
        let t7 = _mm_xor_si128(t7, t8);
        let t7 = _mm_xor_si128(t7, t9);
        let t8 = _mm_srli_si128(t7, 4);
        let t7 = _mm_slli_si128(t7, 12);
        lo = _mm_xor_si128(lo, t7);
        // ...then the right-shift terms, and fold into the high half.
        let u1 = _mm_srli_epi32(lo, 1);
        let u2 = _mm_srli_epi32(lo, 2);
        let u3 = _mm_srli_epi32(lo, 7);
        let u = _mm_xor_si128(_mm_xor_si128(u1, u2), _mm_xor_si128(u3, t8));
        _mm_xor_si128(hi, _mm_xor_si128(lo, u))
    }

    /// GF(2^128) multiply of byte-swapped operands.
    ///
    /// # Safety
    /// Requires a CPU with `pclmulqdq` + `sse2`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    unsafe fn gfmul(a: __m128i, b: __m128i) -> __m128i {
        let (lo, mid, hi) = mul_wide(a, b);
        reduce(lo, mid, hi)
    }

    /// One field multiplication (how a key derives its powers of `H`).
    ///
    /// # Safety
    /// Requires a CPU with `pclmulqdq` + `sse2`.
    #[target_feature(enable = "pclmulqdq,sse2")]
    pub unsafe fn mul(a: u128, b: u128) -> u128 {
        from_xmm(gfmul(to_xmm(a), to_xmm(b)))
    }

    /// Fold whole 16-byte blocks of `data` into accumulator `y`:
    /// [`GROUP`] blocks per reduction, then one block at a time.
    /// `powers[i]` is `H^(i+1)`.
    ///
    /// # Safety
    /// Requires a CPU with `pclmulqdq` + `ssse3`; `data.len() % 16 == 0`.
    #[target_feature(enable = "pclmulqdq,ssse3,sse2")]
    pub unsafe fn ghash_blocks(powers: &[u128; GROUP], y: u128, data: &[u8]) -> u128 {
        let bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut acc = to_xmm(y);
        let mut groups = data.chunks_exact(16 * GROUP);
        for group in &mut groups {
            // `group` is exactly GROUP blocks, so every load below is in
            // bounds; block i meets H^(GROUP-i).
            let p = group.as_ptr().cast::<__m128i>();
            let x = _mm_xor_si128(acc, _mm_shuffle_epi8(_mm_loadu_si128(p), bswap));
            let (mut lo, mut mid, mut hi) = mul_wide(x, to_xmm(powers[GROUP - 1]));
            for i in 1..GROUP {
                let x = _mm_shuffle_epi8(_mm_loadu_si128(p.add(i)), bswap);
                let (l, m, h) = mul_wide(x, to_xmm(powers[GROUP - 1 - i]));
                lo = _mm_xor_si128(lo, l);
                mid = _mm_xor_si128(mid, m);
                hi = _mm_xor_si128(hi, h);
            }
            acc = reduce(lo, mid, hi);
        }
        let h = to_xmm(powers[0]);
        for block in groups.remainder().chunks_exact(16) {
            let x = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), bswap);
            acc = gfmul(_mm_xor_si128(acc, x), h);
        }
        from_xmm(acc)
    }
}

/// Wide carry-less-multiply backend (VPCLMULQDQ on 256-bit registers):
/// [`clmul::ghash_blocks`]'s eight-block group as four registers of two
/// blocks, multiplied lane by lane against the same powers of `H` and
/// reduced lane by lane; the accumulator stays split across the two
/// halves until the last group.
///
/// The powers are *twisted* on the way in, once per call: `H^i·x⁻¹`
/// instead of `H^i`. A carry-less product of two bit-reflected operands
/// is the reflected product shifted right by one bit, which is the
/// reflected product times `x`; against a power divided by `x` it is
/// exactly the reflected 256-bit product of `X` and `H^i`, so the
/// reduction needs no realignment shift. In this representation
/// multiplying by `x⁻¹` is a one-bit left shift, plus the reflected
/// `x¹²⁷ + x⁶ + x + 1` (`0xc2…01`) when the bit shifted out was set.
///
/// The blocks' products are Karatsuba's three multiplications (the
/// middle one against `hi ⊕ lo` of each power, also formed once per
/// call), the accumulator's the schoolbook four, so it does not wait on
/// a shuffle; and the reduction is two carry-less multiplications by the
/// polynomial's low word rather than a chain of shifts. Both keep the
/// vector ports' work per group down, which is what bounds this loop.
#[cfg(target_arch = "x86_64")]
mod vpclmul {
    use super::{clmul, GROUP};
    use std::arch::x86_64::*;

    /// Registers per group, two blocks each.
    const REGS: usize = GROUP / 2;

    /// `v·x⁻¹` in the reflected representation (constant time).
    fn twist(v: u128) -> u128 {
        let carry = ((v >> 127) as i128).wrapping_neg() as u128;
        (v << 1) ^ (carry & POLY)
    }

    /// The reflected `x¹²⁷ + x⁶ + x + 1`; its high word, the reflected
    /// `x⁶³ + x⁶² + x⁵⁷`, is what [`reduce`] multiplies by.
    const POLY: u128 = 0xc200_0000_0000_0000_0000_0000_0000_0001;

    /// Each half's 128-bit words swapped: `hi ⊕ lo` of both words, in
    /// both words, with the `xor` below.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn swap_words(v: __m256i) -> __m256i {
        _mm256_shuffle_epi32(v, 0x4e)
    }

    /// The 256-bit carry-less product of each half of `a` with the same
    /// half of `b`, as unreduced schoolbook parts `(lo, mid, hi)` per
    /// half: `lo ⊕ mid·2⁶⁴ ⊕ hi·2¹²⁸`.
    ///
    /// # Safety
    /// Requires a CPU with `avx2` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx2,vpclmulqdq")]
    unsafe fn mul_wide(a: __m256i, b: __m256i) -> (__m256i, __m256i, __m256i) {
        let lo = _mm256_clmulepi64_epi128(a, b, 0x00);
        let mid = _mm256_xor_si256(
            _mm256_clmulepi64_epi128(a, b, 0x10),
            _mm256_clmulepi64_epi128(a, b, 0x01),
        );
        let hi = _mm256_clmulepi64_epi128(a, b, 0x11);
        (lo, mid, hi)
    }

    /// Reduce each half's 256-bit sum of parts modulo the GCM polynomial,
    /// already aligned by the twist. The lowest word holds the highest
    /// powers, `x¹⁹²…x²⁵⁵`; times the reflected `x⁶³ + x⁶² + x⁵⁷` (with
    /// the word itself moved up 64 bits, a word swap) it folds into the
    /// middle, whose low word then folds into the top the same way.
    ///
    /// # Safety
    /// Requires a CPU with `avx2` + `vpclmulqdq`.
    #[inline]
    #[target_feature(enable = "avx2,vpclmulqdq")]
    unsafe fn reduce(lo: __m256i, mid: __m256i, hi: __m256i) -> __m256i {
        let poly = _mm256_broadcastsi128_si256(clmul::to_xmm(POLY));
        let fold = _mm256_clmulepi64_epi128(poly, lo, 0x01);
        let mid = _mm256_xor_si256(_mm256_xor_si256(mid, swap_words(lo)), fold);
        let fold = _mm256_clmulepi64_epi128(poly, mid, 0x01);
        _mm256_xor_si256(_mm256_xor_si256(hi, swap_words(mid)), fold)
    }

    /// [`clmul::ghash_blocks`]'s contract, whole groups on 256-bit
    /// registers; the blocks after the last whole group take the narrow
    /// kernel.
    ///
    /// # Safety
    /// Requires a CPU with `pclmulqdq` + `ssse3` + `avx2` + `vpclmulqdq`;
    /// `data.len() % 16 == 0`.
    #[target_feature(enable = "pclmulqdq,ssse3,avx2,vpclmulqdq")]
    pub unsafe fn ghash_blocks(powers: &[u128; GROUP], y: u128, data: &[u8]) -> u128 {
        let bswap = _mm256_set_epi8(
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, //
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        );
        // Register i holds blocks 2i (low half) and 2i + 1, which meet
        // H^(GROUP-2i) and H^(GROUP-2i-1); `hk[i]` is their `hi ⊕ lo`.
        let h: [__m256i; REGS] = std::array::from_fn(|i| {
            _mm256_set_m128i(
                clmul::to_xmm(twist(powers[GROUP - 2 - 2 * i])),
                clmul::to_xmm(twist(powers[GROUP - 1 - 2 * i])),
            )
        });
        let hk = h.map(|h| _mm256_xor_si256(h, swap_words(h)));
        // The accumulator is the XOR of two halves, each meeting H⁸; it
        // starts as `y` and zero and is folded only at the end, so no
        // cross-half step sits on the chain from one group to the next.
        let top = _mm256_broadcastsi128_si256(clmul::to_xmm(twist(powers[GROUP - 1])));
        let mut acc = _mm256_zextsi128_si256(clmul::to_xmm(y));
        let mut groups = data.chunks_exact(16 * GROUP);
        for group in &mut groups {
            // `group` is exactly GROUP blocks, so every load below is in
            // bounds. `(Y⊕X₀)·H⁸ = Y·H⁸ ⊕ X₀·H⁸`: the blocks' products do
            // not wait for the accumulator.
            let p = group.as_ptr().cast::<__m256i>();
            let zero = _mm256_setzero_si256();
            let (mut lo, mut hi, mut mid) = (zero, zero, zero);
            for (i, (h, hk)) in h.iter().zip(&hk).enumerate() {
                let x = _mm256_shuffle_epi8(_mm256_loadu_si256(p.add(i)), bswap);
                let xk = _mm256_xor_si256(x, swap_words(x));
                lo = _mm256_xor_si256(lo, _mm256_clmulepi64_epi128(x, *h, 0x00));
                hi = _mm256_xor_si256(hi, _mm256_clmulepi64_epi128(x, *h, 0x11));
                mid = _mm256_xor_si256(mid, _mm256_clmulepi64_epi128(xk, *hk, 0x00));
            }
            // Karatsuba's middle term: (hi ⊕ lo)·(hi ⊕ lo) ⊕ lo·lo ⊕ hi·hi.
            let mid = _mm256_xor_si256(mid, _mm256_xor_si256(lo, hi));
            let (l, m, k) = mul_wide(acc, top);
            acc = reduce(
                _mm256_xor_si256(lo, l),
                _mm256_xor_si256(mid, m),
                _mm256_xor_si256(hi, k),
            );
        }
        let folded = _mm_xor_si128(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
        let y = clmul::from_xmm(folded);
        clmul::ghash_blocks(powers, y, groups.remainder())
    }
}

/// The scalar formulation as a standalone oracle, for differential tests
/// against whichever backend [`GhashKey::new`] picked.
pub mod reference {
    use super::GhashKey;
    use crate::Rung;

    /// One-shot scalar `GHASH(H, A, C)` including the length block.
    pub fn ghash(h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let key = GhashKey::with_rung(h, Rung::Portable).expect("every host runs the portable rung");
        super::ghash(&key, aad, ct)
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

    /// x^0 is the multiplicative identity; in the big-endian-`u128`
    /// representation its bit pattern is the top bit.
    #[test]
    fn gf_mul_identity_and_commutativity() {
        let one = 1u128 << 127;
        for v in [1u128, 0xdead_beef, u128::MAX, 0x8000_0000_0000_0000_0000_0000_0000_0001] {
            assert_eq!(gf_mul(v, one), v);
            assert_eq!(gf_mul(one, v), v);
            assert_eq!(gf_mul(v, 0), 0);
        }
        let (a, b) = (0x0123_4567_89ab_cdef_u128, 0xfeed_f00d_dead_beef_u128);
        assert_eq!(gf_mul(a, b), gf_mul(b, a));
    }

    /// GHASH slice of NIST GCM test case 2: H = E_K(0) under the zero
    /// AES-128 key, one ciphertext block, no AAD. The expected value is
    /// `tag XOR E_K(J0)` from the published vector.
    #[test]
    fn nist_gcm_tc2_ghash_slice() {
        let h_bytes = from_hex("66e94bd4ef8a2c3b884cfa59ca342b2e");
        let ct = from_hex("0388dace60b6a392f328c2b971b2fe78");
        let mut h = [0u8; 16];
        h.copy_from_slice(&h_bytes);
        let fast = ghash(&GhashKey::new(&h), &[], &ct);
        let slow = reference::ghash(&h, &[], &ct);
        assert_eq!(fast, slow, "backends disagree on TC2 slice");
        // Cross-checked through the full GCM vectors in crate::gcm; here
        // just pin that the hash is nonzero and backend-independent.
        assert_ne!(fast, [0u8; 16]);
    }

    #[test]
    fn backends_agree_on_all_alignments() {
        let mut h = [0u8; 16];
        for (i, b) in h.iter_mut().enumerate() {
            *b = (i * 17 + 3) as u8;
        }
        for rung in Rung::available() {
            let key = GhashKey::with_rung(&h, rung).unwrap();
            for aad_len in [0usize, 1, 13, 16, 17, 32, 63] {
                for ct_len in [0usize, 1, 15, 16, 31, 64, 100, 127, 128, 129, 255, 256, 400] {
                    let aad: Vec<u8> = (0..aad_len).map(|i| (i * 7) as u8).collect();
                    let ct: Vec<u8> = (0..ct_len).map(|i| (i * 13 + 1) as u8).collect();
                    assert_eq!(
                        ghash(&key, &aad, &ct),
                        reference::ghash(&h, &aad, &ct),
                        "{rung:?} aad={aad_len} ct={ct_len}"
                    );
                }
            }
        }
    }

    /// Streaming updates in odd-sized pieces must match the one-shot.
    #[test]
    fn streaming_matches_oneshot() {
        let h = [0x42u8; 16];
        let key = GhashKey::new(&h);
        let data: Vec<u8> = (0..129).map(|i| i as u8).collect();
        let mut g = key.begin();
        for chunk in data.chunks(7) {
            g.update(chunk);
        }
        let streamed = g.finalize();
        let mut g = key.begin();
        g.update(&data);
        assert_eq!(g.finalize(), streamed);
    }
}
