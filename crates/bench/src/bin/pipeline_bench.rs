//! Micro-benchmarks for the pipelined zero-copy secure data plane.
//!
//! Three measurements, written to `results/BENCH_pipeline.json`:
//!
//! 1. **AES bulk throughput** — the dispatched block transform (AES-NI
//!    where the CPU has it, the T-table formulation otherwise) against
//!    the preserved scalar [`reference`](sgfs_crypto::aes::reference)
//!    implementation (the seed's per-byte `gmul` formulation). The data
//!    plane encrypts every RPC byte twice (client + server proxy), so
//!    this ratio feeds straight into `sgfs-aes` runtime.
//! 2. **GTLS record seal/open** — full record protection (explicit IV,
//!    CBC, HMAC-SHA1 over seq‖type‖len‖payload) on reused scratch
//!    buffers, as the stream layer drives it at steady state.
//! 3. **Per-suite record throughput** — separate seal and open rates for
//!    the legacy CBC baseline and each AEAD suite (AES-GCM over
//!    AES-NI+PCLMUL, ChaCha20-Poly1305), with two regression gates:
//!    every AEAD suite must beat the legacy CBC+HMAC baseline, and where
//!    the keys dispatch to `aes-ni` + `pclmul`, `Aes256Gcm` must seal
//!    and open at ≥ 2 000 MB/s (the hardware kernels are in use, not
//!    merely present).
//! 4. **Pipelined vs serial RPC forwarding** — the same call mix over an
//!    emulated 20 ms-RTT link, window 1 (the old serial protocol) vs
//!    window 8, measured in the testbed's virtual time. Serial pays one
//!    RTT per call; the xid-demultiplexed window overlaps them.
//!
//! The binary asserts the acceptance thresholds (AES ≥ 5×, AEAD > CBC
//! baseline, hardware AES-256-GCM ≥ 2 000 MB/s, pipeline ≥ 2×) and exits
//! nonzero if they regress.

use sgfs::proxy::client::Upstream;
use sgfs::proxy::pipeline::Pipeline;
use sgfs_bench::RunOpts;
use sgfs_crypto::aes;
use sgfs_gtls::record::HalfConn;
use sgfs_gtls::CipherSuite;
use sgfs_net::{pipe_pair_over_link, Link, LinkSpec, SimClock};
use sgfs_obs::Emitter;
use sgfs_oncrpc::record::{read_record, write_record};
use std::time::{Duration, Instant};

#[derive(serde::Serialize)]
struct AesResult {
    backend: &'static str,
    encrypt_mb_s: f64,
    decrypt_mb_s: f64,
    reference_encrypt_mb_s: f64,
    reference_decrypt_mb_s: f64,
    speedup: f64,
    decrypt_speedup: f64,
    threshold: f64,
}

#[derive(serde::Serialize)]
struct RecordResult {
    payload_bytes: usize,
    records: usize,
    seal_open_records_s: f64,
    seal_open_mb_s: f64,
}

#[derive(serde::Serialize)]
struct SuiteRecordResult {
    suite: String,
    wire_id: u32,
    payload_bytes: usize,
    records: usize,
    seal_mb_s: f64,
    open_mb_s: f64,
}

#[derive(serde::Serialize)]
struct AeadGate {
    baseline_suite: String,
    baseline_mb_s: f64,
    /// Every AEAD suite's slower direction must exceed
    /// `baseline_mb_s * threshold_factor`.
    threshold_factor: f64,
}

#[derive(serde::Serialize)]
struct GcmGate {
    /// What an `AesGcm` key dispatches to on this host.
    aes_backend: &'static str,
    ghash_backend: &'static str,
    /// `Aes256Gcm`'s slower direction, MB/s.
    aes256gcm_mb_s: f64,
    /// Applied only on `aes-ni` + `pclmul`.
    threshold_mb_s: f64,
    applies: bool,
}

#[derive(serde::Serialize)]
struct PipelineResult {
    rtt_ms: u64,
    calls: usize,
    window_1_s: f64,
    window_8_s: f64,
    speedup: f64,
    threshold: f64,
    window_8_peak_depth: u64,
}

#[derive(serde::Serialize)]
struct BenchReport {
    aes: AesResult,
    record: RecordResult,
    record_suites: Vec<SuiteRecordResult>,
    aead_gate: AeadGate,
    gcm_gate: GcmGate,
    pipeline: PipelineResult,
}

/// MB/s of repeated in-place passes over a 16 KiB L1-resident buffer —
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

fn bench_aes(opts: &RunOpts) -> AesResult {
    let key = [0x42u8; 32];
    let fast = aes::Aes::new(&key);
    let slow = aes::reference::Aes::new(&key);
    let (fast_total, slow_total) = if opts.quick {
        (16 << 20, 2 << 20)
    } else {
        (128 << 20, 16 << 20)
    };
    let encrypt_mb_s = buffer_rate(|buf| fast.encrypt_blocks(buf), fast_total);
    let decrypt_mb_s = buffer_rate(|buf| fast.decrypt_blocks(buf), fast_total);
    let reference_encrypt_mb_s = buffer_rate(
        |buf| {
            for b in buf.chunks_exact_mut(16) {
                slow.encrypt_block(b.try_into().unwrap());
            }
        },
        slow_total,
    );
    let reference_decrypt_mb_s = buffer_rate(
        |buf| {
            for b in buf.chunks_exact_mut(16) {
                slow.decrypt_block(b.try_into().unwrap());
            }
        },
        slow_total,
    );
    AesResult {
        backend: fast.backend(),
        encrypt_mb_s,
        decrypt_mb_s,
        reference_encrypt_mb_s,
        reference_decrypt_mb_s,
        speedup: encrypt_mb_s / reference_encrypt_mb_s,
        decrypt_speedup: decrypt_mb_s / reference_decrypt_mb_s,
        threshold: 5.0,
    }
}

fn bench_record(opts: &RunOpts) -> RecordResult {
    let suite = CipherSuite::Aes256CbcSha1;
    let key = vec![7u8; suite.key_len()];
    let mac = vec![9u8; suite.mac_key_len()];
    let mut tx = HalfConn::new(suite, &key, &mac, &[]);
    let mut rx = HalfConn::new(suite, &key, &mac, &[]);
    let payload = vec![0xa5u8; 8 * 1024];
    let records = if opts.quick { 2_000 } else { 20_000 };
    let mut rng = rand::thread_rng();
    let mut wire: Vec<u8> = Vec::new();
    // Warm-up reaches the scratch buffer's high-water mark.
    for _ in 0..16 {
        wire.clear();
        tx.seal_into(sgfs_gtls::record::CT_DATA, &payload, &mut rng, &mut wire);
        rx.open_in_place(sgfs_gtls::record::CT_DATA, &mut wire).expect("round trip");
    }
    let start = Instant::now();
    for _ in 0..records {
        wire.clear();
        tx.seal_into(sgfs_gtls::record::CT_DATA, &payload, &mut rng, &mut wire);
        let (off, len) =
            rx.open_in_place(sgfs_gtls::record::CT_DATA, &mut wire).expect("round trip");
        assert_eq!(len, payload.len());
        assert_eq!(&wire[off..off + 4], &payload[..4]);
    }
    let dt = start.elapsed().as_secs_f64();
    RecordResult {
        payload_bytes: payload.len(),
        records,
        seal_open_records_s: records as f64 / dt,
        seal_open_mb_s: (records * payload.len()) as f64 / dt / (1024.0 * 1024.0),
    }
}

/// Separate seal and open throughput for one suite, on reused scratch.
///
/// Sealing times the tx half alone. Opening pre-seals small batches
/// off-clock (the rx sequence number must track the tx one) and times
/// only the `open_in_place` calls.
fn bench_suite_record(opts: &RunOpts, suite: CipherSuite) -> SuiteRecordResult {
    let key = vec![7u8; suite.key_len()];
    let mac = vec![9u8; suite.mac_key_len()];
    let iv = vec![3u8; suite.iv_len()];
    let payload = vec![0xa5u8; 8 * 1024];
    let records = if opts.quick { 2_000 } else { 20_000 };
    let mut rng = rand::thread_rng();
    let ct = sgfs_gtls::record::CT_DATA;

    let mut tx = HalfConn::new(suite, &key, &mac, &iv);
    let mut wire: Vec<u8> = Vec::new();
    for _ in 0..16 {
        wire.clear();
        tx.seal_into(ct, &payload, &mut rng, &mut wire);
    }
    let start = Instant::now();
    for _ in 0..records {
        wire.clear();
        tx.seal_into(ct, &payload, &mut rng, &mut wire);
    }
    let seal_dt = start.elapsed().as_secs_f64();

    let mut tx = HalfConn::new(suite, &key, &mac, &iv);
    let mut rx = HalfConn::new(suite, &key, &mac, &iv);
    const BATCH: usize = 256;
    let mut batch: Vec<Vec<u8>> = vec![Vec::new(); BATCH];
    let mut open_dt = 0.0;
    let mut done = 0;
    while done < records {
        let n = BATCH.min(records - done);
        for w in batch.iter_mut().take(n) {
            w.clear();
            tx.seal_into(ct, &payload, &mut rng, w);
        }
        let start = Instant::now();
        for w in batch.iter_mut().take(n) {
            let (off, len) = rx.open_in_place(ct, w).expect("round trip");
            assert_eq!(len, payload.len());
            assert_eq!(&w[off..off + 4], &payload[..4]);
        }
        open_dt += start.elapsed().as_secs_f64();
        done += n;
    }

    let mb = (records * payload.len()) as f64 / (1024.0 * 1024.0);
    SuiteRecordResult {
        suite: format!("{suite:?}"),
        wire_id: suite as u32,
        payload_bytes: payload.len(),
        records,
        seal_mb_s: mb / seal_dt,
        open_mb_s: mb / open_dt,
    }
}

/// A FIFO upstream that answers every record with an equal-length reply.
fn echo_upstream(mut end: sgfs_net::PipeEnd) {
    std::thread::spawn(move || {
        while let Ok(Some(record)) = read_record(&mut end) {
            if write_record(&mut end, &record).is_err() {
                return;
            }
        }
    });
}

/// Virtual seconds to push `calls` equal calls upstream over a `rtt`
/// link, `window` at a time: one caller submits each round as a batch —
/// which the pipeline admits whole before it collects any reply — and
/// waits for it, so a round costs one round trip in virtual time whatever
/// the scheduler does.
fn forwarding_time(rtt: Duration, calls: usize, window: u32) -> (f64, u64) {
    let clock = SimClock::new();
    let link = Link::new(LinkSpec::wan_rtt(rtt), clock.clone());
    let (client_end, server_end) = pipe_pair_over_link(link);
    echo_upstream(server_end);
    let stats = Emitter::detached("client");
    let watch = client_end.watch();
    let pipeline =
        Pipeline::new(Upstream::Plain(Box::new(client_end)), watch, window, None, stats.clone());
    let start = clock.now();
    let xids: Vec<u32> = (0..calls as u32).collect();
    for round in xids.chunks(window as usize) {
        let records = round
            .iter()
            .map(|xid| {
                let mut record = xid.to_be_bytes().to_vec();
                record.extend_from_slice(&[0u8; 60]);
                record
            })
            .collect();
        for reply in pipeline.submit_batch(records) {
            reply.wait().expect("forwarded call");
        }
    }
    let elapsed = clock.now() - start;
    (elapsed.as_secs_f64(), stats.pipeline_peak())
}

fn bench_pipeline(opts: &RunOpts) -> PipelineResult {
    let rtt = Duration::from_millis(20);
    let calls = if opts.quick { 32 } else { 64 };
    let (window_1_s, _) = forwarding_time(rtt, calls, 1);
    let (window_8_s, peak) = forwarding_time(rtt, calls, 8);
    PipelineResult {
        rtt_ms: 20,
        calls,
        window_1_s,
        window_8_s,
        speedup: window_1_s / window_8_s,
        threshold: 2.0,
        window_8_peak_depth: peak,
    }
}

fn main() {
    let opts = RunOpts::parse();

    let aes = bench_aes(&opts);
    println!(
        "AES-256 bulk:    [{}] enc {:>7.1} MB/s ({:.1}x over reference)   dec {:>7.1} MB/s ({:.1}x)",
        aes.backend, aes.encrypt_mb_s, aes.speedup, aes.decrypt_mb_s, aes.decrypt_speedup
    );

    let record = bench_record(&opts);
    println!(
        "GTLS record:     seal+open {:>7.0} rec/s ({:.1} MB/s at {} B payloads)",
        record.seal_open_records_s,
        record.seal_open_mb_s,
        record.payload_bytes
    );

    let record_suites: Vec<SuiteRecordResult> = [
        CipherSuite::Aes256CbcSha1,
        CipherSuite::Aes128Gcm,
        CipherSuite::Aes256Gcm,
        CipherSuite::ChaCha20Poly1305,
    ]
    .into_iter()
    .map(|s| bench_suite_record(&opts, s))
    .collect();
    for r in &record_suites {
        println!(
            "  suite {:<18} seal {:>8.1} MB/s   open {:>8.1} MB/s",
            r.suite, r.seal_mb_s, r.open_mb_s
        );
    }
    let baseline = &record_suites[0];
    let aead_gate = AeadGate {
        baseline_suite: baseline.suite.clone(),
        baseline_mb_s: baseline.seal_mb_s.min(baseline.open_mb_s),
        threshold_factor: 1.1,
    };
    let aead_ok = record_suites[1..].iter().all(|r| {
        r.seal_mb_s.min(r.open_mb_s) > aead_gate.baseline_mb_s * aead_gate.threshold_factor
    });

    let probe_key = sgfs_crypto::AesGcm::new(&[0u8; 32]);
    let gcm256 = record_suites
        .iter()
        .find(|r| r.wire_id == CipherSuite::Aes256Gcm as u32)
        .expect("Aes256Gcm is benchmarked");
    let gcm_gate = GcmGate {
        aes_backend: probe_key.aes_backend(),
        ghash_backend: probe_key.ghash_backend(),
        aes256gcm_mb_s: gcm256.seal_mb_s.min(gcm256.open_mb_s),
        threshold_mb_s: 2000.0,
        applies: probe_key.aes_backend() == "aes-ni" && probe_key.ghash_backend() == "pclmul",
    };
    let gcm_ok = !gcm_gate.applies || gcm_gate.aes256gcm_mb_s >= gcm_gate.threshold_mb_s;
    println!("  AES-GCM backends: {} + {}", gcm_gate.aes_backend, gcm_gate.ghash_backend);

    let pipeline = bench_pipeline(&opts);
    println!(
        "RPC @ 20ms RTT:  window=1 {:>6.2} s   window=8 {:>6.2} s   speedup {:.1}x (peak depth {})",
        pipeline.window_1_s, pipeline.window_8_s, pipeline.speedup, pipeline.window_8_peak_depth
    );

    let aes_ok = aes.speedup >= aes.threshold && aes.decrypt_speedup >= aes.threshold;
    let pipe_ok = pipeline.speedup >= pipeline.threshold;
    let report = BenchReport { aes, record, record_suites, aead_gate, gcm_gate, pipeline };
    sgfs_bench::save_json("BENCH_pipeline", &report);

    if !aes_ok {
        eprintln!("FAIL: AES T-table speedup below {}x", report.aes.threshold);
    }
    if !aead_ok {
        eprintln!(
            "FAIL: an AEAD suite fell below {}x the {} baseline ({:.1} MB/s)",
            report.aead_gate.threshold_factor,
            report.aead_gate.baseline_suite,
            report.aead_gate.baseline_mb_s
        );
    }
    if !gcm_ok {
        eprintln!(
            "FAIL: Aes256Gcm at {:.0} MB/s on {} + {}, below {:.0} MB/s",
            report.gcm_gate.aes256gcm_mb_s,
            report.gcm_gate.aes_backend,
            report.gcm_gate.ghash_backend,
            report.gcm_gate.threshold_mb_s
        );
    }
    if !pipe_ok {
        eprintln!("FAIL: pipeline speedup below {}x", report.pipeline.threshold);
    }
    if !(aes_ok && aead_ok && gcm_ok && pipe_ok) {
        std::process::exit(1);
    }
}
