//! Floors on numbers the benchmark contract already prints.
//!
//! `benchmark/` measures every layer from outside and writes one
//! `{name, value, unit, …}` row per metric; what it measures is not
//! measured again here. A floor on such a number is one line of
//! [`FLOORS`], evaluated over the per-layer JSON that `BENCHMARK.json`'s
//! command writes for `--workload lan_smallfile --trace 1`. A file that
//! is not there, or a metric that is not in it, is a failed row — a floor
//! is never skipped because its number went missing.

use super::{Check, Limit};
use sgfs_crypto::Rung;
use std::path::Path;

enum Floor {
    /// Reported: the legacy CBC+HMAC suite the AEAD floors are held to.
    Baseline,
    /// At least this many times the slower direction of the baseline.
    OverBaseline(f64),
    /// At least this, where an `AesGcm` key runs both CTR and GHASH on
    /// this rung or a wider one — the kernels are in use, not merely
    /// present. Reported only on any other host.
    OnGcmRung(Rung, f64),
    /// At most this, on any host.
    AtMost(f64),
}

/// `(metric name in BENCHMARK.json, floor)`.
const FLOORS: &[(&str, Floor)] = &[
    ("gtls.seal_mb_s.aes256cbc-sha1", Floor::Baseline),
    ("gtls.open_mb_s.aes256cbc-sha1", Floor::Baseline),
    ("gtls.seal_mb_s.aes256gcm", Floor::OverBaseline(1.1)),
    ("gtls.open_mb_s.aes256gcm", Floor::OverBaseline(1.1)),
    ("gtls.seal_mb_s.chacha20poly1305", Floor::OverBaseline(1.1)),
    ("gtls.open_mb_s.chacha20poly1305", Floor::OverBaseline(1.1)),
    // Hardware AES and GHASH, on whichever rung.
    ("gtls.seal_mb_s.aes256gcm", Floor::OnGcmRung(Rung::Narrow, 2000.0)),
    ("gtls.open_mb_s.aes256gcm", Floor::OnGcmRung(Rung::Narrow, 2000.0)),
    // VAES + VPCLMULQDQ on 256-bit registers: set where every measured
    // full-size run clears it, the host's slow clock state included, in
    // which the wide rung reads what the narrow one does at full clock;
    // `gates crypto` times the two rungs side by side instead.
    ("gtls.seal_mb_s.aes256gcm", Floor::OnGcmRung(Rung::Wide, 3000.0)),
    ("gtls.open_mb_s.aes256gcm", Floor::OnGcmRung(Rung::Wide, 3000.0)),
    // A small call's thread hand-offs: a caller that waits drives its own
    // pipeline, so only the wire and the shard loop switch.
    ("proc.ctx_switches_per_op", Floor::AtMost(10.0)),
    // The session's shard loops, the workload's caller and the harness:
    // the client side adds no thread.
    ("proc.threads", Floor::AtMost(4.0)),
];

#[derive(serde::Deserialize)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

#[derive(serde::Deserialize)]
struct ContractRun {
    metrics: Vec<Metric>,
}

/// The rows of [`FLOORS`] over the contract run saved at `file`.
pub fn checks(file: &Path) -> Vec<Check> {
    let metrics = std::fs::read_to_string(file)
        .map_err(|e| e.to_string())
        .and_then(|json| serde_json::from_str::<ContractRun>(&json).map_err(|e| e.to_string()))
        .map(|run| run.metrics)
        .unwrap_or_else(|e| {
            eprintln!(
                "{}: {e}\n(BENCHMARK.json's command with --workload lan_smallfile --seed 2007 \
                 --seconds 20 --trace 1 writes it)",
                file.display()
            );
            Vec::new()
        });
    let find = |name: &str| metrics.iter().find(|m| m.name == name);
    let baseline = FLOORS
        .iter()
        .filter(|(_, floor)| matches!(floor, Floor::Baseline))
        .try_fold(f64::INFINITY, |slower, (name, _)| Some(slower.min(find(name)?.value)));
    let key = sgfs_crypto::AesGcm::new(&[0u8; 32]);
    println!("AES-GCM backends: {} + {}", key.aes_backend(), key.ghash_backend());

    FLOORS
        .iter()
        .map(|(name, floor)| {
            let limit = match floor {
                Floor::Baseline => Some(Limit::ReportOnly),
                Floor::OverBaseline(factor) => baseline.map(|b| Limit::AtLeast(factor * b)),
                Floor::OnGcmRung(rung, floor) if key.rung() >= *rung => {
                    Some(Limit::AtLeast(*floor))
                }
                Floor::OnGcmRung(..) => Some(Limit::ReportOnly),
                Floor::AtMost(ceiling) => Some(Limit::AtMost(*ceiling)),
            };
            match (find(name), limit) {
                (Some(m), Some(limit)) => {
                    Check { name: m.name.clone(), value: Some(m.value), unit: m.unit.clone(), limit }
                }
                // No number, or nothing to hold it to: the row exists and fails.
                _ => Check {
                    name: name.to_string(),
                    value: None,
                    unit: String::new(),
                    limit: Limit::AtLeast(0.0),
                },
            }
        })
        .collect()
}
