#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

# results/ has one writer, scripts/figures.sh; the last step checks that no
# gate below touched it.
results_state() { { ls results; cat results/*; } | cksum; }
results_before=$(results_state)

echo "==> cargo build --release"
cargo build --release --workspace

# Every member's unit, integration and doc tests, once. Among them the suites
# this gate used to name one by one: the frame-corruption harness and the
# verifier allocation count (rossf-msg: verify_corruption, verify_alloc), the
# projection correctness suite (projection), the same-machine fast-path and
# shared-memory tier suites (rossf-ros: fastpath, shm — forked byte-identity,
# segment leak check, fault parity), options/stats (options), tracing (monotone
# timelines, id survival, zero-overhead), the fd/thread-leak churn (leak) and
# the bag format/recorder/replayer suite (rossf-bag). Below: one line per
# *binary* gate and per model-checked suite — those are not in this run.
echo "==> cargo test --workspace"
cargo test -q --workspace

# The message-path benchmark is its own package, and it builds the shm tier's
# SegmentPool, ShmLink and ShmReader directly: its unit tests are the one
# step that compiles it. Cargo rewrites benchmark/Cargo.lock on every build
# (the lock predates rossf-sys), and nothing under benchmark/ may change, so
# the lock is put back however the step ends.
echo "==> cargo test benchmark/ (the message-path benchmark's unit tests)"
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock && rm -f "$bench_lock"' EXIT
cargo test -q --manifest-path benchmark/Cargo.toml

# The SLAM kernels are written in 16-lane SSE2 and narrow integer lanes, and
# only optimized code is what the benchmark runs: their golden, oracle and
# allocation suites run again on a release build.
echo "==> cargo test --release -p rossf-slam (golden, oracle and alloc suites on optimized code)"
cargo test -q --release -p rossf-slam

# The allocator's arena arithmetic, the header records and the mask-then-table
# lookup oracle, and the cross-thread hand-off, as the benchmark runs them:
# optimized, with debug assertions off.
echo "==> cargo test --release -p rossf-sfm (core unit tests, lookup oracle, cross_thread on optimized code)"
cargo test -q --release -p rossf-sfm

echo "==> sfm_verify --self-test"
cargo run -q --release -p rossf-bench --bin sfm_verify -- --self-test

echo "==> sfm_trace --self-test"
cargo run -q --release -p rossf-bench --bin sfm_trace -- --self-test

echo "==> ratio gates (fast path vs forced TCP, tracing overhead, loaned shm vs fast path)"
cargo run -q --release -p rossf-bench --bin gates

echo "==> projection gate (>=5x fewer wire bytes for a small-subset subscription, p50 no worse)"
cargo run -q --release -p rossf-bench --bin projection_gate -- --iters 60

echo "==> churn soak smoke (thread count independent of link count, fds per link flat)"
cargo run -q --release -p rossf-bench --bin soak -- --smoke

echo "==> sfm_bag --self-test (record, verify, zero-copy replay, corruption rejection)"
cargo run -q --release -p rossf --bin sfm_bag -- --self-test

echo "==> bag gate smoke (record fig18 pipeline, byte-identical zero-copy replay, pacing)"
cargo run -q --release -p rossf-bench --bin bag_gate -- --smoke

echo "==> rossf-lint (unsafe/SeqCst annotations, Drop hygiene, and the confinement table: asm in crates/sys, listed thread owners, one module per tier, one fault gate, no poll/blocking receive/crossbeam/futex/hand-declared message)"
cargo run -q --release -p rossf-lint --bin rossf-lint -- .

echo "==> rossf-model --self-test (explorer catches the seeded racy ring, deterministically)"
cargo run -q --release -p rossf-model --bin rossf-model -- --self-test

# The shm ring, two-phase publish, refcounts and epochs; the reactor's wake
# handshake; the allocator's return list and a block's header record — each
# suite's seeded mutant must be caught.
echo "==> model-checked suites (rossf-shm, rossf-reactor, rossf-sfm)"
RUSTFLAGS="--cfg rossf_model" CARGO_TARGET_DIR=target/model \
    cargo test -q -p rossf-shm -p rossf-reactor -p rossf-sfm --test model

echo "==> cargo doc --workspace (warning-clean)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> results/ provenance (one git_sha across every results/*.json)"
shas=$(grep -ho '"git_sha": "[^"]*"' results/*.json | sort -u)
if [ "$(wc -l <<<"$shas")" -ne 1 ]; then
    printf 'FAIL: results/ mixes provenance:\n%s\n' "$shas"
    exit 1
fi

echo "==> gates wrote nothing under results/"
if [ "$(results_state)" != "$results_before" ]; then
    echo "FAIL: a gate rewrote results/ (scripts/figures.sh is its only writer):"
    git status --porcelain -- results/
    exit 1
fi

echo "All checks passed."
