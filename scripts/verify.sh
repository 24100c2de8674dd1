#!/bin/sh
# Tier-1 verification: build, lint, hang-watchdogged fault-injection
# suite, full test suite, benchmark binaries compile, bench gates, and
# the standalone benchmark/ package's smoke run. Run from the repository
# root.
set -eux

# Run a named suite under a watchdog. On a hang the plain `timeout`
# exit code said nothing about *which* suite died; this prints the
# suite name and how long it ran before the kill.
run_watchdog() {
    wd_limit=$1
    wd_name=$2
    shift 2
    wd_start=$(date +%s)
    if timeout "$wd_limit" "$@"; then
        return 0
    else
        wd_rc=$?
    fi
    wd_elapsed=$(( $(date +%s) - wd_start ))
    if [ "$wd_rc" -eq 124 ]; then
        echo "WATCHDOG: suite '$wd_name' hung — killed after ${wd_elapsed}s (limit ${wd_limit}s)" >&2
    else
        echo "WATCHDOG: suite '$wd_name' failed with rc=$wd_rc after ${wd_elapsed}s" >&2
    fi
    exit "$wd_rc"
}

cargo build --release
cargo clippy --workspace --all-targets -- -D warnings

# Fault-injection and golden-trace suites first and under a watchdog: a
# broken retry loop shows up as a hang, and it must fail loudly within
# 120 s rather than stall the whole run. Binaries are prebuilt so the
# timeout covers test execution only, not compilation.
cargo test -q --workspace --no-run
run_watchdog 120 fault_matrix   cargo test -q -p sgfs --test fault_matrix
run_watchdog 120 pipeline_alloc cargo test -q -p sgfs --test pipeline_alloc
run_watchdog 120 trace_golden   cargo test -q -p sgfs --test trace_golden
run_watchdog 120 crash_matrix   cargo test -q -p sgfs --test crash_matrix
run_watchdog 120 store_parity   cargo test -q -p sgfs --test store_parity

# Multi-server data plane: the replica-failover matrix (kill any single
# replica at any seeded point — mid-flush, mid-handshake, mid-read-ahead
# — and reconstruct byte-identical state from the survivors; re-sync a
# rejoining member; hold the client thread ceiling across stripe width).
run_watchdog 120 replica_matrix cargo test -q -p sgfs --test replica_matrix

# Default-on sequential read-ahead over a 40 ms WAN session: a cold scan
# hides its round trips with one READ per block and none past EOF;
# scattered reads and small files are left alone. A read-ahead that
# waits for a reply nobody sent shows up as a hang.
run_watchdog 120 wan_readahead  cargo test -q --test wan_readahead

# The metrics plane: over one scripted WAN session, what every emitter
# counted equals what the trace ring holds, turning tracing off changes
# no count, and the typed accessors read the same table.
run_watchdog 120 metrics_plane  cargo test -q --test metrics_plane

# The worker loop both planes run and its two owners: sgfs-oncrpc's
# module tests (pool: Rearm fairness, a full inbox blocking its pinner;
# shard and client_pool: thread ceilings, worker death, shutdown) at
# default parallelism, then the 64-session concurrency battery. A stuck
# loop or lost wakeup shows up as a hang here.
run_watchdog 120 oncrpc_lib     cargo test -q -p sgfs-oncrpc --lib
run_watchdog 120 scale_matrix   cargo test -q -p sgfs --test scale_matrix

# Overload control: sustained open-loop overload must keep the sampled
# backlog bounded and answer every request exactly once (executed or
# JUKEBOX), a flooding neighbor must not double a well-behaved session's
# p99, shed calls must complete byte-identical via verbatim retry, and
# JUKEBOX'd prefetches must keep halving the read-ahead horizon. A broken
# admission loop shows up as a hang, hence the watchdog.
run_watchdog 180 overload_matrix cargo test -q -p sgfs --test overload_matrix

# Client event plane: the submission ring (pipeline commands and the pin
# inbox ride it; a lost wakeup wedges a pipeline forever, hence the
# watchdog), then the pipeline property suite that drives records
# through the pooled reader.
run_watchdog 120 submit_ring    cargo test -q -p sgfs-net --lib submit::
run_watchdog 180 prop_pipeline  cargo test -q -p sgfs --test prop_pipeline

# AEAD record layer: RFC/NIST known-answer vectors, the OpenSSL vectors
# long enough to fill the 8-block AES-NI CTR and PCLMUL GHASH groups (on
# every backend pairing) and the CTR-vs-oracle sweep in aes::, then the
# hardware-vs-portable equivalence proptests (tag before decrypt, one
# opaque error), the tier-1 pin of the record layer's wire bytes, and the
# negotiation/rekey matrix.
run_watchdog 120 crypto_kat     cargo test -q -p sgfs-crypto --lib -- aes:: ghash:: gcm:: chacha:: poly1305:: chachapoly::
run_watchdog 120 prop_crypto    cargo test -q -p sgfs-crypto --test prop_crypto
run_watchdog 120 aead_kat       cargo test -q --test aead_kat
run_watchdog 120 gtls_negotiation cargo test -q -p sgfs-gtls --test negotiation

cargo test -q
cargo bench --no-run

# Observability overhead gate: an emit may cost at most 10 ns/event with
# tracing off (its counter add — every call of every session pays it) and
# 50 ns/event with tracing on (which keeps tracing under 2% of even the
# in-memory pipeline), and the measured traced-vs-untraced throughput
# ratio may not regress grossly (writes results/BENCH_obs.json; exits
# nonzero past any threshold).
cargo build --release -p sgfs-bench --bin obs_bench
run_watchdog 300 obs_bench ./target/release/obs_bench --quick

# Durability cost gate: the unsynced write-ahead journal may add at most
# 1 ms per dirty put and compaction must fire (writes
# results/BENCH_journal.json; exits nonzero past the threshold).
cargo build --release -p sgfs-bench --bin journal_bench
run_watchdog 120 journal_bench ./target/release/journal_bench --quick

# Per-suite record-throughput gate: every AEAD suite (AES-GCM,
# ChaCha20-Poly1305) must beat the legacy CBC+HMAC baseline, and where
# the keys dispatch to aes-ni + pclmul, Aes256Gcm must seal and open at
# >= 2000 MB/s (writes results/BENCH_pipeline.json; exits nonzero past
# a threshold).
cargo build --release -p sgfs-bench --bin pipeline_bench
run_watchdog 120 pipeline_bench ./target/release/pipeline_bench --quick

# Session-scale gate: 1000+ sessions pinned on a 4-shard pool may grow
# the process by at most shards+4 threads, and a low-load session's p99
# may degrade at most 2x vs a single-session baseline; the client-plane
# phase holds 256 pipelines on a 2-thread pool to pool+shards+4 threads
# and requires the count to return to baseline after teardown (writes
# results/BENCH_scale.json; exits nonzero past any threshold).
cargo build --release -p sgfs-bench --bin scale_bench
run_watchdog 120 scale_bench ./target/release/scale_bench --quick

# Multi-server data-plane gate: a width-4 striped read must run >= 2x
# faster than single-upstream at 20 ms simulated RTT, and an N=2
# replicated flush must confirm both members' write verifiers with every
# block on every replica (writes results/BENCH_stripe.json; exits
# nonzero past any threshold).
cargo build --release -p sgfs-bench --bin stripe_bench
run_watchdog 120 stripe_bench ./target/release/stripe_bench --quick

# Tail-latency SLO gate: a probe session's per-procedure p99 under a 4x
# heavy-tailed open-loop storm may exceed 3x its idle baseline by at
# most a few DRR cycles, the sampled backlog high-water mark must stay
# within budget + burst slack, every storm record must be answered, and
# the shard must drain out of its overload band afterwards (writes
# results/BENCH_slo.json; exits nonzero past any threshold).
cargo build --release -p sgfs-bench --bin slo_bench
run_watchdog 300 slo_bench ./target/release/slo_bench --quick

# The standalone benchmark package (BENCHMARK.json's `command`) is its
# own workspace: nothing above compiles it, so a refactor that breaks a
# `pub` item it calls would first be noticed by the benchmark pipeline.
# Build it against this tree, then run its correctness-only smoke pass
# (< 15 s: every workload, server tree compared to the model, nonzero
# exit on any failed call).
run_watchdog 600 benchmark_build cargo build --release --offline --manifest-path benchmark/Cargo.toml
run_watchdog 120 benchmark_quick benchmark/run.sh --quick
