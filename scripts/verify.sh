#!/bin/sh
# Tier-1 verification: build, lint, hang-watchdogged fault-injection
# suite, full test suite, the standalone benchmark/ package's build,
# smoke run and per-layer contract run, and the bench gates. Run from the
# repository root.
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

# Size of the proxy layer, for the record: counted lines per file (code
# before the first `#[cfg(test)]`, neither blank nor a comment line).
# Printed only; nothing is gated on it.
scripts/loc.sh crates/sgfs/src/proxy/*.rs

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

# Every crate's module tests, in one run — of the ten crates that carry
# them, most had no other stanza. Among them: sgfs-oncrpc's worker loop
# and its owner (pool: Rearm fairness, a full inbox blocking its
# pinner; shard: thread ceilings, unpinning, shutdown; loopback and
# client: every record dispatched once however writes cut it, no stale
# reply bytes); sgfs's proxy::pipeline, which only its callers drive (a
# batch lands through try_wait polling alone; a waiter keeps its
# siblings' queues moving; a rekey gives up at the call deadline;
# reconnect/replay and the deadline on the caller's thread; concurrent
# callers beside batches each get their own reply; a call queued while
# another caller sleeps on the wire goes out at once); sgfs-net's
# per-host clocks and submission ring (a lost wakeup wedges a loop);
# the AEAD known-answer vectors, the OpenSSL vectors long enough to fill
# the 8-block AES-NI CTR and PCLMUL GHASH groups and the CTR-vs-oracle
# sweep in sgfs-crypto; and the gate runner's own rules (a row on the
# wrong side fails by name, one retry, history round trip, an absent
# contract metric fails). A stuck loop or lost wake-up hangs rather than
# fails, hence the watchdog.
run_watchdog 120 workspace_lib  cargo test -q --workspace --lib

# The workspace's doctests, which neither stanza above nor tier-1 runs.
# Among them is sgfs-secrpc's usage example: a secure RPC server pinned
# onto a ShardServer, called over GTLS.
run_watchdog 180 doctests       cargo test -q --workspace --doc
run_watchdog 120 scale_matrix   cargo test -q -p sgfs --test scale_matrix

# Overload control: sustained open-loop overload must keep the sampled
# backlog bounded and answer every request exactly once (executed or
# JUKEBOX), a flooding neighbor must not double a well-behaved session's
# p99, shed calls must complete byte-identical via verbatim retry, and
# JUKEBOX'd prefetches must keep halving the read-ahead horizon. A broken
# admission loop shows up as a hang, hence the watchdog.
run_watchdog 180 overload_matrix cargo test -q -p sgfs --test overload_matrix

# The pipeline property suite: write-back WRITEs and COMMIT through a
# caller-driven pipeline against a server that withholds replies.
run_watchdog 180 prop_pipeline  cargo test -q -p sgfs --test prop_pipeline

# The namespace cache against a serial nfsd oracle: every GETATTR,
# LOOKUP, ACCESS and READDIR(PLUS) answer the client proxy gives equals
# the server's — through a handle bijection, since names made in the
# session's own directories get proxy-minted handles and ship later —
# and after every write-back the exported trees are identical.
run_watchdog 180 prop_namecache cargo test -q -p sgfs --test prop_namecache

# AEAD record layer beyond the module tests: the hardware-vs-portable
# equivalence proptests (tag before decrypt, one opaque error), the
# tier-1 pin of the record layer's wire bytes, and the negotiation/rekey
# matrix.
run_watchdog 120 prop_crypto    cargo test -q -p sgfs-crypto --test prop_crypto
run_watchdog 120 aead_kat       cargo test -q --test aead_kat
run_watchdog 120 gtls_negotiation cargo test -q -p sgfs-gtls --test negotiation

# Full session stacks through the kernel-client API, including what the
# write-back cache owes the server after RENAME-over, REMOVE of one of
# two links and a refused REMOVE.
run_watchdog 180 session_e2e    cargo test -q -p sgfs --test session_e2e

cargo test -q

# The standalone benchmark package (BENCHMARK.json's `command`) is its
# own workspace: nothing above compiles it, so a refactor that breaks a
# `pub` item it calls would first be noticed by the benchmark pipeline.
# Build it against this tree, then run its correctness-only smoke pass
# (< 15 s: every workload, server tree compared to the model, nonzero
# exit on any failed call).
run_watchdog 600 benchmark_build cargo build --release --offline --manifest-path benchmark/Cargo.toml
run_watchdog 120 benchmark_quick benchmark/run.sh --quick

# The per-layer contract run: BENCHMARK.json's command for the probed
# workload. It writes benchmark/out/run-lan_smallfile-t1.json, which the
# gates' `contract` suite holds its floors against.
run_watchdog 300 contract_run cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- \
    --workload lan_smallfile --seed 2007 --seconds 20 --trace 1

# Every bench floor, one runner (crates/bench/src/gate.rs lists them):
# obs, journal, scale, stripe, slo, crypto, pipeline, wan measure (wan
# gates what quick PostMark sends across the WAN, as counts); contract
# reads the run above. A suite with a failed row is measured once more
# from scratch; a row that fails both times is named on stderr and the
# run exits nonzero. Writes results/BENCH_gates.json and appends the run
# to results/history.jsonl (the table shows the previous run beside it).
cargo build --release -p sgfs-bench --bin gates
run_watchdog 600 gates ./target/release/gates --quick
