#!/usr/bin/env bash
# Build the benchmark package in release and run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line printed is its result
#       as JSON (the form the pipeline calls)
#   benchmark/run.sh [--seed N] [--runs R] [--seconds S] [--quick]
#       every workload untraced (R times, seeds N, N+1, ...), then once
#       traced; prints every metric and writes out/results-seed<N>.json
#   benchmark/run.sh compare A.json B.json
#       judge result file B against A by each metric's bound
#
# Exits non-zero if the build fails, a run fails, or the answer oracle
# records a single failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/benchmark"

if [[ "${1:-}" == compare ]]; then
    exec "$bin" "$@"
fi
for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "$bin" "$@" --out "$here/out"
    fi
done
exec "$bin" suite "$@" --out "$here/out"
