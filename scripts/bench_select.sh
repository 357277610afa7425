#!/usr/bin/env bash
# Measures selection-loop synthesis wall-clock and candidates per second
# and writes BENCH_select.json at the repo root.
#
# Usage: scripts/bench_select.sh [--circuits s1196,s5378,s35932]
#                                [--threads N] [--t-len N] [--lg N]
#                                [--keep-every N]
#                                [--fault-model stuck-at|transition]
#                                [--reps N] [--golden]
# Extra arguments are forwarded to the synth_bench binary. The committed
# BENCH_select.json is regenerated with:
#   scripts/bench_select.sh --circuits s1196,s5378,s35932 --reps 3
set -euo pipefail

cd "$(dirname "$0")/.."

# The binary takes the last -o, so a user-supplied one overrides the default.
OUT="BENCH_select.json"
prev=""
for arg in "$@"; do
    [ "$prev" = "-o" ] && OUT="$arg"
    prev="$arg"
done
cargo run --release --offline -p wbist-bench --bin synth_bench -- -o BENCH_select.json "$@"
echo "benchmark results in $OUT" >&2
