//! AES-GCM known answers long enough to reach the 8-block kernels, and the
//! record layer's wire bytes pinned under fixed keys.
//!
//! The NIST vectors in `sgfs-crypto` stop at 64 bytes; the AES-NI CTR
//! kernel and the PCLMUL GHASH both work in 128-byte groups, so these
//! vectors straddle one group, several, and a whole 32 KiB record. The
//! second test seals records of every boundary length through a
//! `HalfConn` pair and compares a digest of everything put on the wire
//! with the value recorded before the kernels were rewritten: nonce, AAD,
//! tag and the +16 bytes per record are what they were.

use sgfs_crypto::{AesGcm, Digest, Sha256};
use sgfs_gtls::record::{HalfConn, AEAD_TAG_LEN, CT_DATA, CT_HANDSHAKE};
use sgfs_gtls::{CipherSuite, GtlsError};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// AES-256-GCM, key `00..1f`, nonce `a0..ab`, AAD `00..0c`,
/// `pt[i] = (131·i + 7) mod 256`: `(length, tag, SHA-256 of the
/// ciphertext)`, generated with OpenSSL.
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
fn long_vectors_match_openssl() {
    let key: Vec<u8> = (0..32).collect();
    let nonce: [u8; 12] = std::array::from_fn(|i| 0xa0 + i as u8);
    let aad: Vec<u8> = (0..13).collect();
    // The backends this CPU dispatches to, and the portable pair every
    // other host runs.
    for gcm in [AesGcm::new(&key), AesGcm::new_portable(&key)] {
        let backends = format!("{}+{}", gcm.aes_backend(), gcm.ghash_backend());
        for &(n, tag, ct_sha256) in LONG_KATS {
            let pt: Vec<u8> = (0..n).map(|i| (131 * i + 7) as u8).collect();
            let wire = gcm.seal(&nonce, &aad, &pt);
            let (ct, got_tag) = wire.split_at(n);
            assert_eq!(hex(got_tag), tag, "tag, n={n} ({backends})");
            assert_eq!(hex(&Sha256::digest(ct)), ct_sha256, "ciphertext, n={n} ({backends})");
            assert_eq!(gcm.open(&nonce, &aad, &wire).unwrap(), pt, "open, n={n} ({backends})");
        }
    }
}

/// Payload lengths on and around the kernels' 128-byte groups, and one
/// longer than a 32 KiB data record.
const RECORD_LENS: [usize; 15] =
    [0, 1, 15, 16, 17, 111, 112, 113, 127, 128, 129, 255, 256, 257, 32_900];

/// SHA-256 over the concatenated wire bodies of [`RECORD_LENS`] sealed in
/// order from sequence number 0 under the fixed keys below, per suite —
/// recorded at the commit before the AES-GCM kernels changed.
const WIRE_SHA256: [(CipherSuite, &str); 2] = [
    (CipherSuite::Aes256Gcm, "68514c755231ca1d5ae92f6324be5b45d90b797431c6980334990a3d3f232fa0"),
    (CipherSuite::Aes128Gcm, "c2e306ba8a1de933af7d4a0e589d0139f0d787d230dfa29533bc1db808948848"),
];

fn is_opaque_auth_failure(err: &GtlsError) -> bool {
    matches!(err, GtlsError::RecordIntegrity(msg) if msg == "record authentication failed")
}

#[test]
fn record_layer_wire_bytes_are_pinned() {
    // Never consulted: AEAD suites take no per-record randomness.
    let mut rng = rand::thread_rng();
    for (suite, expected) in WIRE_SHA256 {
        let key: Vec<u8> = (0..suite.key_len()).map(|i| (i * 7 + 1) as u8).collect();
        let iv: Vec<u8> = (0..suite.iv_len()).map(|i| (i * 13 + 5) as u8).collect();
        let mut tx = HalfConn::new(suite, &key, &[], &iv);
        let mut rx = HalfConn::new(suite, &key, &[], &iv);
        let mut all_wire = Sha256::new();
        let mut frame = Vec::new();
        for (seq, &len) in RECORD_LENS.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + seq) as u8).collect();
            // Seal behind a frame header, as the stream layer does.
            frame.clear();
            frame.extend_from_slice(b"HDR..");
            tx.seal_into(CT_DATA, &payload, &mut rng, &mut frame);
            assert_eq!(&frame[..5], b"HDR..", "{suite:?} len={len}: header untouched");
            let wire = frame[5..].to_vec();
            assert_eq!(wire.len(), len + AEAD_TAG_LEN, "{suite:?} len={len}: +16 B, nothing else");
            all_wire.update(&wire);

            // One flipped bit anywhere, or the wrong content type, is
            // rejected opaquely and leaves the receiver where it was…
            for at in [0, len / 2, len, wire.len() - 1] {
                let mut bad = wire.clone();
                bad[at] ^= 0x10;
                let err = rx.open_in_place(CT_DATA, &mut bad).unwrap_err();
                assert!(is_opaque_auth_failure(&err), "{suite:?} len={len} flip {at}: {err}");
            }
            let err = rx.open_in_place(CT_HANDSHAKE, &mut wire.clone()).unwrap_err();
            assert!(is_opaque_auth_failure(&err), "{suite:?} len={len} wrong type: {err}");
            // So is a truncated one, down to a body shorter than a tag.
            for keep in [wire.len() - 1, AEAD_TAG_LEN - 1] {
                let err = rx.open_in_place(CT_DATA, &mut wire[..keep].to_vec()).unwrap_err();
                assert!(is_opaque_auth_failure(&err), "{suite:?} len={len} cut to {keep}: {err}");
            }
            // …so the untouched record still opens, exactly,
            let mut good = wire.clone();
            let (off, got) = rx.open_in_place(CT_DATA, &mut good).expect("record opens");
            assert_eq!(&good[off..off + got], &payload[..], "{suite:?} len={len}: round trip");
            // and a replay of it does not: the sequence number advanced.
            let err = rx.open_in_place(CT_DATA, &mut wire.clone()).unwrap_err();
            assert!(is_opaque_auth_failure(&err), "{suite:?} len={len} replay: {err}");
        }
        // The sender's sequence number advanced too: the same payload
        // sealed again is a different record.
        let (mut first, mut second) = (Vec::new(), Vec::new());
        tx.seal_into(CT_DATA, b"same payload", &mut rng, &mut first);
        tx.seal_into(CT_DATA, b"same payload", &mut rng, &mut second);
        assert_ne!(first, second, "{suite:?}: nonce and AAD follow the sequence number");

        assert_eq!(hex(&all_wire.finalize()), expected, "{suite:?}: wire bytes changed");
    }
}
