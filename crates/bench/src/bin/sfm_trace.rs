//! `sfm_trace` — the tracing subsystem's command-line harness.
//!
//! ```text
//! cargo run -p rossf-bench --release --bin sfm_trace [MODE] [--iters N]
//! ```
//!
//! Modes:
//!
//! * *(default)* — run a traced one-way 1MB pipeline on all three
//!   transport tiers and print the per-stage waterfall plus the
//!   telescoping-consistency summary (stage sum vs measured e2e mean).
//! * `--self-test` — run `rossf_trace::self_test()` (bucket boundaries,
//!   the 16-byte frame-tag codec, ring recorder, synthetic pipeline) and
//!   exit 0/1.
//! * `--overhead-gate` — measure the tracing overhead on the fast path
//!   and the shared-memory tier: best-of-3 traced vs untraced p50 per
//!   tier; fail (exit 1) when any traced p50 exceeds
//!   `1.05 x untraced p50 + 50 µs`.

use rossf_bench::experiments::{oneway_traced, oneway_untraced};
use rossf_bench::report::TraceWaterfall;
use rossf_bench::RunArgs;
use rossf_ros::LinkProfile;
use rossf_trace::Tier;
use std::process::ExitCode;

/// Slack multiplier the overhead gate allows on the traced p50.
const GATE_RATIO: f64 = 1.05;
/// Absolute floor added to the allowance so sub-millisecond runs aren't
/// judged by scheduler noise alone.
const GATE_EPSILON_MS: f64 = 0.05;
/// Best-of-N runs per arm: the minimum p50 filters out one-off stalls.
const GATE_RUNS: usize = 3;

enum Mode {
    Waterfall,
    SelfTest,
    OverheadGate,
}

fn main() -> ExitCode {
    let mut mode = Mode::Waterfall;
    let mut run_args = RunArgs::default();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--self-test" => mode = Mode::SelfTest,
            "--overhead-gate" => mode = Mode::OverheadGate,
            "--iters" => {
                let v = argv.next().expect("--iters needs a value");
                run_args.iters = v.parse().expect("--iters must be an integer");
            }
            "--quick" => run_args.iters = 30,
            other => {
                eprintln!(
                    "unknown argument `{other}`; expected --self-test, \
                     --overhead-gate, --iters N, --quick"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    match mode {
        Mode::SelfTest => self_test(),
        Mode::OverheadGate => overhead_gate(run_args),
        Mode::Waterfall => waterfall(&run_args),
    }
}

fn self_test() -> ExitCode {
    match rossf_trace::self_test() {
        Ok(()) => {
            println!("sfm_trace self-test: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sfm_trace self-test FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn waterfall(args: &RunArgs) -> ExitCode {
    let (w, h) = (664, 504); // ~1 MB RGB frame
    println!(
        "=== sfm_trace: stage-latency waterfall, 1MB one-way, {} msgs ===\n",
        args.iters
    );
    let link = LinkProfile::ten_gbe();
    let mut ok = true;
    for tier in [Tier::Tcp, Tier::Fastpath, Tier::Shm] {
        let (stats, snapshot) = oneway_traced(args, w, h, tier, link);
        let wf = TraceWaterfall::print(tier.name(), &stats, snapshot, " (target: <10%)");
        let err = wf.sum_error();
        // The tcp tier includes scheduler dwell in its enqueue stage, so
        // telescoping still holds; warn rather than fail on the noisier
        // tiers when the absolute gap is tiny.
        if err > 0.10 && (wf.stage_sum_us() - wf.e2e_mean_us).abs() > 100.0 {
            eprintln!(
                "warning: {} stage sum diverges from e2e by {:.1}%",
                tier.name(),
                err * 100.0
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn overhead_gate(mut args: RunArgs) -> ExitCode {
    // The gate cares about the fast path (no simulated wire latency to
    // hide behind) and doesn't need long runs.
    if args.iters == RunArgs::default().iters {
        args.iters = 100;
    }
    let (w, h) = (664, 504);
    println!(
        "=== sfm_trace: tracing-overhead gate (1MB, best of {GATE_RUNS} x {} msgs per tier) ===",
        args.iters
    );
    let mut ok = true;
    for tier in [Tier::Fastpath, Tier::Shm] {
        let best = |traced: bool| -> f64 {
            (0..GATE_RUNS)
                .map(|_| {
                    if traced {
                        oneway_traced(&args, w, h, tier, LinkProfile::UNLIMITED)
                            .0
                            .p50_ms
                    } else {
                        oneway_untraced(&args, w, h, tier, LinkProfile::UNLIMITED).p50_ms
                    }
                })
                .fold(f64::INFINITY, f64::min)
        };
        let untraced = best(false);
        let traced = best(true);
        let allowance = untraced * GATE_RATIO + GATE_EPSILON_MS;
        println!(
            "{:<9} untraced p50 {untraced:.3} ms, traced p50 {traced:.3} ms, \
             allowance {allowance:.3} ms ({GATE_RATIO}x + {GATE_EPSILON_MS} ms)",
            tier.name()
        );
        if traced > allowance {
            eprintln!(
                "overhead gate: FAIL ({} traced p50 exceeds allowance)",
                tier.name()
            );
            ok = false;
        }
    }
    if ok {
        println!("overhead gate: PASS");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
