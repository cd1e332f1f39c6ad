#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."
# without_tests: the Rust of the given files without their #[cfg(test)] modules.
source scripts/loc.sh

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

# The SLAM kernels are written in 16-lane SSE2 and narrow integer lanes, and
# only optimized code is what the benchmark runs: their golden, oracle and
# allocation suites run again on a release build.
echo "==> cargo test --release -p rossf-slam (golden, oracle and alloc suites on optimized code)"
cargo test -q --release -p rossf-slam

echo "==> sfm_verify --self-test"
cargo run -q --release -p rossf-bench --bin sfm_verify -- --self-test

echo "==> fast-path smoke (same-machine zero-copy vs forced TCP)"
cargo run -q --release -p rossf-bench --bin link_sweep -- --iters 150 --fastpath-smoke

echo "==> sfm_trace --self-test"
cargo run -q --release -p rossf-bench --bin sfm_trace -- --self-test

echo "==> tracing-overhead gate (traced p50 <= 1.05x untraced, fastpath + shm)"
cargo run -q --release -p rossf-bench --bin sfm_trace -- --overhead-gate

echo "==> loaned-publication gate (shm+loan one-way p50 <= 1.2x fastpath, all paper sizes)"
cargo run -q --release -p rossf-bench --bin loan_gate -- --iters 60

echo "==> projection gate (>=5x fewer wire bytes for a small-subset subscription, p50 no worse)"
cargo run -q --release -p rossf-bench --bin projection_gate -- --iters 60

echo "==> churn soak smoke (thread count independent of link count, fds per link flat)"
cargo run -q --release -p rossf-bench --bin soak -- --smoke

echo "==> sfm_bag --self-test (record, verify, zero-copy replay, corruption rejection)"
cargo run -q --release -p rossf --bin sfm_bag -- --self-test

echo "==> bag gate smoke (record fig18 pipeline, byte-identical zero-copy replay, pacing)"
cargo run -q --release -p rossf-bench --bin bag_gate -- --smoke

echo "==> rossf-lint (unsafe/SeqCst annotations, asm confined to crates/sys, Drop hygiene, thread-spawn allowlist)"
cargo run -q --release -p rossf-lint --bin rossf-lint -- .

ros_sources=$(find crates/ros/src -name '*.rs' | sort)
# The non-test lines of file $1 that `grep "${@:2}"` matches, each behind the
# file's name. Succeeds on no match, so under pipefail a loop of these fails
# only on its consumer's verdict, never on a clean last file.
matches() { without_tests "$1" | { grep "${@:2}" || true; } | sed "s|^|$1: |"; }

echo "==> no 20 ms poll and no blocking queue read left in crates/ros/src (every link is a reactor handler)"
if for f in $ros_sources; do matches "$f" 'from_millis(20)\|recv_timeout'; done | grep .; then
    echo "FAIL: a poll interval or blocking receive is back in the transport"; exit 1
fi

echo "==> one module per tier (a tier's writer, source and shm vocabulary are named only in crates/ros/src/tier/<tier>.rs)"
tier_names='tcp:TcpWriter tcp:TcpSource fastpath:FastSource shm:SHM_ shm:hung_up shm:Doorbell shm:RingCtl shm:ShmSource shm:ShmLink shm:ShmReader'
# A renamed type must not disarm the guard: each name has to exist in its own tier file.
for pair in $tier_names; do
    if ! matches "crates/ros/src/tier/${pair%%:*}.rs" -F -- "${pair#*:}" | grep . >/dev/null; then
        echo "FAIL: the tier guard's name ${pair#*:} is not in crates/ros/src/tier/${pair%%:*}.rs; update tier_names"; exit 1
    fi
done
if for f in $ros_sources; do
    for pair in $tier_names; do
        [ "$f" = "crates/ros/src/tier/${pair%%:*}.rs" ] || matches "$f" -F -- "${pair#*:}"
    done
done | grep .; then
    echo "FAIL: a tier's type or vocabulary is named outside its module under crates/ros/src/tier/"; exit 1
fi

echo "==> no crossbeam (a link's queue is publisher.rs's own)"
if grep -rn --include=Cargo.toml --include='*.rs' --exclude-dir={.git,target,.bench_build} crossbeam .; then
    echo "FAIL: crossbeam is named in a manifest or a Rust source"; exit 1
fi

echo "==> one definition per message (every struct under crates/msg/src is generated from crates/idl/msg)"
if ! grep -q '^hand-declared Sfm structs  *0$' <<<"$(scripts/loc.sh)"; then
    echo "FAIL: a hand-declared Sfm struct is back in crates/msg/src; define the message as a .msg file"; exit 1
fi

echo "==> one fault gate per link (the injector is consulted once, by publisher.rs's Gate, on every tier)"
sites=$(scripts/loc.sh | sed -n 's/^next_frame_action call sites *//p')
if [ "$sites" -gt 1 ]; then
    echo "FAIL: FaultInjector::next_frame_action has $sites non-test call sites; only the Gate may ask"; exit 1
fi
if for f in $ros_sources; do without_tests "$f" |
    awk -v f="$f" '/^impl Gate \{/ { gate = 1 } gate && /^}/ { gate = 0 } !gate && /FaultAction::/ { print f ": " $0 }'
done | grep .; then
    echo "FAIL: a fault verdict is acted on outside the Gate"; exit 1
fi

echo "==> no futex outside crates/model (a drained ring's reader has one wake-up, its doorbell)"
if futex_lines | grep .; then
    echo "FAIL: futex is named in a non-test source outside crates/model"; exit 1
fi

echo "==> rossf-model --self-test (explorer catches the seeded racy ring, deterministically)"
cargo run -q --release -p rossf-model --bin rossf-model -- --self-test

echo "==> model-checked shm interleaving suite (ring, two-phase publish, refcounts, epochs)"
RUSTFLAGS="--cfg rossf_model" CARGO_TARGET_DIR=target/model \
    cargo test -q -p rossf-shm --test model

echo "==> model-checked reactor wake handshake (two producers + the loop; the dropped re-check is caught)"
RUSTFLAGS="--cfg rossf_model" CARGO_TARGET_DIR=target/model \
    cargo test -q -p rossf-reactor --test model

echo "==> model-checked allocator return list (two foreign pushers + the owner; the split swap is caught)"
RUSTFLAGS="--cfg rossf_model" CARGO_TARGET_DIR=target/model \
    cargo test -q -p rossf-sfm --test model

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
