//! Property tests for the crypto primitives: inverses, algebraic laws,
//! and no-panic guarantees on arbitrary input.

use proptest::prelude::*;
use sgfs_crypto::bignum::BigUint;
use sgfs_crypto::cbc::{cbc_decrypt, cbc_decrypt_in_place_ct, cbc_encrypt};
use sgfs_crypto::ghash::{ghash, GhashKey};
use sgfs_crypto::{AeadError, Aes, AesGcm, ChaCha20Poly1305, Rc4, Rung};

/// Plaintext lengths on and around the 128-byte groups the AES-NI CTR and
/// PCLMUL GHASH kernels work in, and one longer than a 32 KiB record.
const GCM_EDGE_LENS: [usize; 15] =
    [0, 1, 15, 16, 17, 111, 112, 113, 127, 128, 129, 255, 256, 257, 32_900];

/// Lengths for the rung differentials: anything to 1 KiB (below, at and
/// across both kernels' groups), or a 32 KiB data record ± 17 bytes.
fn rung_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..=1024, (32_768usize - 17)..=(32_768 + 17)]
}

/// `len` pattern bytes at `offset` in a buffer `offset + len + slack`
/// long, so kernels meet slices that start at any alignment.
fn unaligned(offset: usize, len: usize, slack: usize, fill: u8) -> Vec<u8> {
    let mut buf = vec![0xa5; offset + len + slack];
    for (i, b) in buf[offset..offset + len].iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(167) ^ fill;
    }
    buf
}

fn big(bytes: &[u8]) -> BigUint {
    BigUint::from_bytes_be(bytes)
}

proptest! {
    #[test]
    fn bignum_add_sub_inverse(a in proptest::collection::vec(any::<u8>(), 0..40),
                              b in proptest::collection::vec(any::<u8>(), 0..40)) {
        let (a, b) = (big(&a), big(&b));
        let sum = a.add(&b);
        prop_assert_eq!(sum.sub(&b), a.clone());
        prop_assert_eq!(sum.sub(&a), b);
    }

    #[test]
    fn bignum_mul_commutative(a in proptest::collection::vec(any::<u8>(), 0..32),
                              b in proptest::collection::vec(any::<u8>(), 0..32)) {
        let (a, b) = (big(&a), big(&b));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn bignum_div_rem_identity(a in proptest::collection::vec(any::<u8>(), 0..48),
                               b in proptest::collection::vec(any::<u8>(), 1..32)) {
        let (a, b) = (big(&a), big(&b));
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b, "remainder below divisor");
        prop_assert_eq!(q.mul(&b).add(&r), a, "a = q*b + r");
    }

    #[test]
    fn bignum_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = big(&bytes);
        prop_assert_eq!(big(&v.to_bytes_be()), v);
    }

    #[test]
    fn bignum_shift_inverse(bytes in proptest::collection::vec(any::<u8>(), 0..32),
                            shift in 0usize..100) {
        let v = big(&bytes);
        prop_assert_eq!(v.shl(shift).shr(shift), v);
    }

    #[test]
    fn cbc_roundtrip(key in proptest::collection::vec(any::<u8>(), 32..=32),
                     iv in proptest::collection::vec(any::<u8>(), 16..=16),
                     pt in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let aes = Aes::new(&key);
        let mut ivb = [0u8; 16];
        ivb.copy_from_slice(&iv);
        let ct = cbc_encrypt(&aes, &ivb, &pt);
        prop_assert_eq!(cbc_decrypt(&aes, &ivb, &ct).unwrap(), pt);
    }

    #[test]
    fn cbc_decrypt_garbage_never_panics(
        key in proptest::collection::vec(any::<u8>(), 16..=16),
        ct in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let aes = Aes::new(&key);
        let _ = cbc_decrypt(&aes, &[0u8; 16], &ct);
    }

    #[test]
    fn rc4_roundtrip(key in proptest::collection::vec(any::<u8>(), 1..64),
                     pt in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let mut enc = Rc4::new(&key);
        let mut dec = Rc4::new(&key);
        let mut data = pt.clone();
        enc.process(&mut data);
        dec.process(&mut data);
        prop_assert_eq!(data, pt);
    }

    #[test]
    fn ghash_pclmul_matches_scalar_oracle(
        h in proptest::collection::vec(any::<u8>(), 16..=16),
        aad in proptest::collection::vec(any::<u8>(), 0..96),
        ct in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut hb = [0u8; 16];
        hb.copy_from_slice(&h);
        // `new` dispatches to PCLMUL when the CPU has it; the portable
        // rung pins the scalar oracle. Off x86-64 both run scalar, which still
        // covers the runtime-detection fallback path.
        let fast = ghash(&GhashKey::new(&hb), &aad, &ct);
        let slow = ghash(&GhashKey::with_rung(&hb, Rung::Portable).unwrap(), &aad, &ct);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn gcm_roundtrip_both_ghash_backends(
        key in prop_oneof![
            proptest::collection::vec(any::<u8>(), 16..=16),
            proptest::collection::vec(any::<u8>(), 32..=32),
        ],
        nonce in proptest::collection::vec(any::<u8>(), 12..=12),
        aad in proptest::collection::vec(any::<u8>(), 1..64),
        // Random lengths to 4 KiB, and the lengths around both kernels'
        // 8-block groups (plus one record-sized) half of the time.
        len in prop_oneof![
            0usize..=4096,
            (0..GCM_EDGE_LENS.len()).prop_map(|i| GCM_EDGE_LENS[i]),
        ],
        fill in any::<u8>(),
        bit in 0u8..8,
    ) {
        let mut n = [0u8; 12];
        n.copy_from_slice(&nonce);
        let pt: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(167) ^ fill).collect();
        // Whatever the CPU offers, the same with scalar GHASH, and the
        // fully portable oracle (T-table AES + scalar GHASH).
        let fast = AesGcm::new(&key);
        let mixed = AesGcm::new_portable_ghash(&key);
        let oracle = AesGcm::with_rung(&key, Rung::Portable).unwrap();
        let wire = fast.seal(&n, &aad, &pt);
        prop_assert_eq!(wire.len(), len + 16);
        prop_assert_eq!(&oracle.seal(&n, &aad, &pt), &wire, "fast ≡ oracle on ciphertext and tag");
        prop_assert_eq!(&mixed.seal(&n, &aad, &pt), &wire, "scalar GHASH ≡ PCLMUL");
        // `seal` is the out-of-place path; in place must produce the same bytes.
        for gcm in [&fast, &oracle] {
            let mut in_place = pt.clone();
            gcm.seal_in_place(&n, &aad, &mut in_place, 0);
            prop_assert_eq!(&in_place, &wire, "out-of-place seal ≡ in-place seal");
        }
        for gcm in [&fast, &mixed, &oracle] {
            prop_assert_eq!(gcm.open(&n, &aad, &wire).unwrap(), pt.clone());
        }

        // One flipped bit — either side of every 128-byte boundary of the
        // ciphertext, or in the tag — fails with the one opaque error and
        // leaves the buffer exactly as it arrived: nothing is decrypted
        // before the tag has verified.
        let mut flips: Vec<usize> = (0..len).step_by(128).flat_map(|b| [b.saturating_sub(1), b]).collect();
        flips.extend([len, len + 15]);
        for gcm in [&fast, &oracle] {
            for &at in &flips {
                let mut buf = wire.clone();
                buf[at] ^= 1 << bit;
                let arrived = buf.clone();
                prop_assert_eq!(gcm.open_in_place(&n, &aad, &mut buf), Err(AeadError), "flip at {}", at);
                prop_assert_eq!(&buf, &arrived, "flip at {}: buffer untouched", at);
            }
            let mut bad_aad = aad.clone();
            bad_aad[0] ^= 1 << bit;
            let mut buf = wire.clone();
            prop_assert_eq!(gcm.open_in_place(&n, &bad_aad, &mut buf), Err(AeadError));
            prop_assert_eq!(&buf, &wire, "bad AAD: buffer untouched");
        }
    }

    /// Wide ≡ AES-NI ≡ portable for AES-GCM: the same record from every
    /// rung, sealed out of place and in place at any alignment; each
    /// rung opens every rung's record; and a flipped ciphertext, tag or
    /// AAD bit fails opaquely, leaving the buffer as it arrived.
    #[test]
    fn gcm_rungs_agree_and_fail_closed(
        key in prop_oneof![
            proptest::collection::vec(any::<u8>(), 16..=16),
            proptest::collection::vec(any::<u8>(), 32..=32),
        ],
        nonce in proptest::collection::vec(any::<u8>(), 12..=12),
        aad in proptest::collection::vec(any::<u8>(), 1..40),
        len in rung_len(),
        offset in 0usize..32,
        fill in any::<u8>(),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let n: [u8; 12] = nonce.try_into().unwrap();
        let backing = unaligned(offset, len, 9, fill);
        let pt = &backing[offset..offset + len];
        let want = AesGcm::with_rung(&key, Rung::Portable).unwrap().seal(&n, &aad, pt);
        for rung in Rung::available() {
            let gcm = AesGcm::with_rung(&key, rung).unwrap();
            let mut out = vec![0xee; offset + len + 16 + 3];
            gcm.seal_to(&n, &aad, pt, &mut out[offset..offset + len + 16]);
            prop_assert_eq!(&out[offset..offset + len + 16], &want[..], "{:?} out of place", rung);
            let mut buf = unaligned(offset, len, 0, fill);
            gcm.seal_in_place(&n, &aad, &mut buf, offset);
            prop_assert_eq!(&buf[offset..], &want[..], "{:?} in place", rung);
            prop_assert_eq!(gcm.open_in_place(&n, &aad, &mut buf[offset..]), Ok(len));
            prop_assert_eq!(&buf[offset..offset + len], pt, "{:?} open", rung);

            let ct_at = if len > 0 { Some(at % len) } else { None };
            for flip in ct_at.into_iter().chain([len + at % 16]) {
                let mut buf = unaligned(offset, 0, 0, fill);
                buf.extend_from_slice(&want);
                buf[offset + flip] ^= 1 << bit;
                let arrived = buf.clone();
                prop_assert_eq!(gcm.open_in_place(&n, &aad, &mut buf[offset..]), Err(AeadError));
                prop_assert_eq!(&buf, &arrived, "{:?} flip at {}: buffer untouched", rung, flip);
            }
            let mut bad_aad = aad.clone();
            bad_aad[at % aad.len()] ^= 1 << bit;
            let mut buf = want.clone();
            prop_assert_eq!(gcm.open_in_place(&n, &bad_aad, &mut buf), Err(AeadError));
            prop_assert_eq!(&buf, &want, "{:?} bad AAD: buffer untouched", rung);
        }
    }

    #[test]
    fn chachapoly_roundtrip_and_tamper(
        key in proptest::collection::vec(any::<u8>(), 32..=32),
        nonce in proptest::collection::vec(any::<u8>(), 12..=12),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..2048),
        flip in any::<usize>(),
    ) {
        let mut k = [0u8; 32];
        k.copy_from_slice(&key);
        let mut n = [0u8; 12];
        n.copy_from_slice(&nonce);
        let aead = ChaCha20Poly1305::new(&k);
        let wire = aead.seal(&n, &aad, &pt);
        prop_assert_eq!(aead.open(&n, &aad, &wire).unwrap(), pt);
        let mut bad = wire.clone();
        let i = flip % bad.len();
        bad[i] ^= 1;
        prop_assert!(aead.open(&n, &aad, &bad).is_err());
    }

    #[test]
    fn cbc_ct_decrypt_agrees_with_plain(
        key in proptest::collection::vec(any::<u8>(), 16..=16),
        ct in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Arbitrary (mostly invalid) ciphertext: the constant-time path
        // must agree with the branching path on both the verdict and, when
        // valid, the recovered plaintext. Lengths are clamped to block
        // multiples by both, so compare full Result shapes.
        let aes = Aes::new(&key);
        let iv = [0u8; 16];
        let mut a = ct.clone();
        let plain = {
            let mut buf = ct.clone();
            sgfs_crypto::cbc::cbc_decrypt_in_place(&aes, &iv, &mut buf).map(|n| buf[..n].to_vec())
        };
        match cbc_decrypt_in_place_ct(&aes, &iv, &mut a) {
            Ok((n, true)) => prop_assert_eq!(plain.unwrap(), a[..n].to_vec()),
            Ok((_, false)) => prop_assert!(plain.is_err(), "ct says bad pad, plain must too"),
            Err(_) => prop_assert!(plain.is_err(), "length errors agree"),
        }
    }

    #[test]
    fn modpow_fermat_on_prime(base in 2u64..1_000_000) {
        // 1009 is prime: base^1008 ≡ 1 (mod 1009) when gcd(base,1009)=1.
        let p = BigUint::from_u64(1009);
        let b = BigUint::from_u64(base);
        prop_assume!(base % 1009 != 0);
        prop_assert_eq!(b.modpow(&BigUint::from_u64(1008), &p), BigUint::one());
    }
}
