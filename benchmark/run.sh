#!/usr/bin/env bash
# Build the benchmark (release, offline) and run the whole set:
#
#   benchmark/run.sh [--seed N] [--workload W] [--quick]   every workload end to end,
#                                                           then per layer; merged report
#   benchmark/run.sh --selfcheck [...]                     the end-to-end set twice,
#                                                           compared against the bounds
#
# Everything it writes goes to benchmark/out/ and benchmark/target/.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=suite
args=()
for arg in "$@"; do
    if [ "$arg" = --selfcheck ]; then mode=selfcheck; else args+=("$arg"); fi
done
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/sgfs-benchmark" "$mode" "${args[@]}"
