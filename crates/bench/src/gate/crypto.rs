//! AES bulk throughput: the dispatched block transform (AES-NI where the
//! CPU has it, the T-table formulation otherwise) against the preserved
//! scalar [`reference`](sgfs_crypto::aes::reference) implementation — the
//! seed's per-byte `gmul` formulation and the differential oracle. The
//! contract's `crypto.*` rows time the dispatched path; only this ratio
//! to the oracle is measured here. Where the CPU runs AES-GCM's wide rung,
//! its 32 KiB record seal and open are measured against the narrow rung's
//! in the same sitting: a ratio the host's clock state moves on both
//! sides alike, so it shows the wide kernels are in use where the
//! contract's absolute floor must leave room for that state.

use super::Check;
use crate::RunOpts;
use sgfs_crypto::{aes, AesGcm, Rung};
use std::time::{Duration, Instant};

/// MiB/s of repeated in-place passes over a 16 KiB L1-resident buffer —
/// the shape the record layer drives AES at (independent blocks per
/// record, not one chained block), so the interleaved bulk routines can
/// overlap their table-load latency.
fn buffer_rate(mut pass: impl FnMut(&mut [u8]), total: usize) -> f64 {
    let mut buf = vec![0x5au8; 16 * 1024];
    // Warm the tables/caches before timing.
    for _ in 0..8 {
        pass(&mut buf);
    }
    let passes = (total / buf.len()).max(1);
    let start = Instant::now();
    for _ in 0..passes {
        pass(&mut buf);
    }
    let dt = start.elapsed().as_secs_f64();
    (passes * buf.len()) as f64 / dt / (1024.0 * 1024.0)
}

/// Seconds spent sealing and opening one 32 KiB record in place under
/// each key, `rounds` times over, the keys taking turns each round.
fn record_times(keys: &[AesGcm], rounds: usize) -> Vec<[Duration; 2]> {
    const RECORD: usize = 32 * 1024;
    let (nonce, aad) = ([7u8; 12], [1u8; 13]);
    let mut buf = vec![0x5au8; RECORD];
    let mut times = vec![[Duration::ZERO; 2]; keys.len()];
    for round in 0..=rounds {
        for (gcm, [seal, open]) in keys.iter().zip(&mut times) {
            for _ in 0..16 {
                let t = Instant::now();
                gcm.seal_in_place(&nonce, &aad, &mut buf, 0);
                let sealed = Instant::now();
                gcm.open_in_place(&nonce, &aad, &mut buf).expect("record opens");
                // The first round only warms the caches.
                if round > 0 {
                    *seal += sealed - t;
                    *open += sealed.elapsed();
                }
                buf.truncate(RECORD);
            }
        }
    }
    times
}

/// Where the wide rung runs: its seal and open against the narrow rung's.
fn wide_rung_rows(quick: bool) -> Vec<Check> {
    let key = [0x42u8; 32];
    let (Some(wide), Some(narrow)) =
        (AesGcm::with_rung(&key, Rung::Wide), AesGcm::with_rung(&key, Rung::Narrow))
    else {
        return Vec::new();
    };
    let times = record_times(&[wide, narrow], if quick { 64 } else { 512 });
    let (w, n) = (times[0], times[1]);
    let ratio = |i: usize| n[i].as_secs_f64() / w[i].as_secs_f64();
    vec![
        Check::at_least("gcm_wide_seal_speedup", ratio(0), "ratio", 1.5),
        Check::at_least("gcm_wide_open_speedup", ratio(1), "ratio", 1.5),
    ]
}

pub fn suite(opts: &RunOpts) -> Vec<Check> {
    let key = [0x42u8; 32];
    let fast = aes::Aes::new(&key);
    let slow = aes::reference::Aes::new(&key);
    let (fast_total, slow_total) =
        if opts.quick { (16 << 20, 2 << 20) } else { (128 << 20, 16 << 20) };
    println!("AES backend: {}", fast.backend());
    let encrypt = buffer_rate(|buf| fast.encrypt_blocks(buf), fast_total);
    let decrypt = buffer_rate(|buf| fast.decrypt_blocks(buf), fast_total);
    let reference_encrypt = buffer_rate(
        |buf| {
            for b in buf.chunks_exact_mut(16) {
                slow.encrypt_block(b.try_into().expect("16-byte chunk"));
            }
        },
        slow_total,
    );
    let reference_decrypt = buffer_rate(
        |buf| {
            for b in buf.chunks_exact_mut(16) {
                slow.decrypt_block(b.try_into().expect("16-byte chunk"));
            }
        },
        slow_total,
    );
    vec![
        Check::report("aes_encrypt_mb_s", encrypt, "MiB/s"),
        Check::report("aes_decrypt_mb_s", decrypt, "MiB/s"),
        Check::report("aes_reference_encrypt_mb_s", reference_encrypt, "MiB/s"),
        Check::report("aes_reference_decrypt_mb_s", reference_decrypt, "MiB/s"),
        Check::at_least("aes_encrypt_speedup", encrypt / reference_encrypt, "ratio", 5.0),
        Check::at_least("aes_decrypt_speedup", decrypt / reference_decrypt, "ratio", 5.0),
    ]
    .into_iter()
    .chain(wide_rung_rows(opts.quick))
    .collect()
}
