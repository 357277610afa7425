#!/usr/bin/env bash
# Measures fault-simulator throughput (faults x cycles per second) across
# worker-thread counts and writes BENCH_sim.json at the repo root.
#
# Usage: scripts/bench_sim.sh [--circuits s1196,s5378,s35932] [--cycles N]
#                             [--threads 1,2,4,8] [--reps N] [--kernel K]
#                             [--thread-sweep] [--golden]
# Extra arguments are forwarded to the sim_bench binary. The committed
# BENCH_sim.json is regenerated with:
#   scripts/bench_sim.sh --circuits s1196,s5378,s35932 --cycles 128 --reps 3
set -euo pipefail

cd "$(dirname "$0")/.."

# The binary takes the last -o, so a user-supplied one overrides the default.
OUT="BENCH_sim.json"
prev=""
for arg in "$@"; do
    [ "$prev" = "-o" ] && OUT="$arg"
    prev="$arg"
done
cargo run --release --offline -p wbist-bench --bin sim_bench -- -o BENCH_sim.json "$@"
echo "benchmark results in $OUT" >&2
