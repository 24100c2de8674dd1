//! AES bulk throughput: the dispatched block transform (AES-NI where the
//! CPU has it, the T-table formulation otherwise) against the preserved
//! scalar [`reference`](sgfs_crypto::aes::reference) implementation — the
//! seed's per-byte `gmul` formulation and the differential oracle. The
//! contract's `crypto.*` rows time the dispatched path; only this ratio
//! to the oracle is measured here.

use super::Check;
use crate::RunOpts;
use sgfs_crypto::aes;
use std::time::Instant;

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
}
