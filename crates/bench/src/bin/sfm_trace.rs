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
//!
//! Tracing's overhead is gated by the `gates` binary.

use rossf_bench::experiments::oneway_traced;
use rossf_bench::report::TraceWaterfall;
use rossf_bench::RunArgs;
use rossf_ros::LinkProfile;
use rossf_trace::Tier;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut self_test_only = false;
    let mut run_args = RunArgs::default();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--self-test" => self_test_only = true,
            "--iters" => {
                let v = argv.next().expect("--iters needs a value");
                run_args.iters = v.parse().expect("--iters must be an integer");
            }
            "--quick" => run_args.iters = 30,
            other => {
                eprintln!("unknown argument `{other}`; expected --self-test, --iters N, --quick");
                return ExitCode::FAILURE;
            }
        }
    }
    if self_test_only {
        self_test()
    } else {
        waterfall(&run_args)
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
