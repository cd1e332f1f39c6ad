#!/usr/bin/env bash
# Build the benchmark in release mode, then hand every argument to it.
#
#   run.sh [--seed N] [--workload NAME] [--traced] [--smoke] [--repeat K]
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   (the driver's form)
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/rossf-benchmark" --out-dir "$here/out" "$@"
