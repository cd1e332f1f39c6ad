#!/usr/bin/env bash
# The one writer of results/. Builds once, runs every figure reproducer and
# full-size gate at its EXPERIMENTS.md iteration count into a scratch
# directory (stdout kept as the .txt beside each .json), and swaps the set
# into results/ only if every binary succeeded and every document carries
# the same provenance. On any failure results/ is left untouched. No
# network. Takes ~15 minutes; run nothing else meanwhile.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p rossf-bench
bin=target/release
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # run NAME BINARY [ARGS...]
    local name=$1 exe=$2
    shift 2
    echo "==> $exe $*"
    "$bin/$exe" "$@" | tee "$out/$name.txt"
}
run fig13 fig13_intra --iters 200 --out "$out"
run fig14 fig14_middleware --iters 200 --out "$out"
run fig16 fig16_inter --iters 120 --out "$out"
run fig18 fig18_slam --iters 100 --out "$out"
run table1 table1_applicability
run link_sweep link_sweep --iters 50 --out "$out"
run soak soak --out "$out"
run projection projection_gate --iters 60 --out "$out"
run bag bag_gate --out "$out"

shas=$(grep -ho '"git_sha": "[^"]*"' "$out"/*.json | sort -u)
if [ "$(wc -l <<<"$shas")" -ne 1 ] || grep -q unknown <<<"$shas"; then
    printf 'refusing to write results/: provenance must be one known sha, got:\n%s\n' "$shas" >&2
    exit 1
fi
rm -f results/BENCH_*.json results/TRACE_*.json
cp "$out"/* results/
echo "results/ written, $shas"
