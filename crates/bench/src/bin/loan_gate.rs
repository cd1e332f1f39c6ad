//! `loan_gate` — the loaned-publication latency gate.
//!
//! The point of building a message inside the shared-memory segment
//! (`Publisher::loan` / `publish_loaned`) is that the shm tier stops
//! paying the publish-side payload memcpy and lands next to the
//! same-process pointer-handoff fast path. This gate holds that claim:
//! for every paper payload size (~200 KB, ~1 MB, ~6 MB) the loaned shm
//! one-way p50 must stay within 1.2x of the fastpath one-way p50, plus a
//! 0.05 ms absolute slack so the 200 KB cell doesn't gate on scheduler
//! noise. The copy-publish shm p50 is printed alongside for context (it
//! is informational, not gated — it still pays one pooled copy).
//!
//! ```text
//! cargo run -p rossf-bench --release --bin loan_gate [-- --iters N]
//! ```

use rossf_baselines::WorkImage;
use rossf_bench::experiments::{oneway_loaned, oneway_untraced};
use rossf_bench::RunArgs;
use rossf_ros::LinkProfile;
use rossf_trace::Tier;
use std::process::ExitCode;

/// Allowed ratio of loaned-shm p50 to fastpath p50.
const RATIO: f64 = 1.2;
/// Absolute slack (ms) on top of the ratio bound.
const SLACK_MS: f64 = 0.05;

fn main() -> ExitCode {
    let args = RunArgs::from_env();
    // Only the TCP tier reads the link profile; passed for signature only.
    let link = LinkProfile::ten_gbe();
    println!("=== loan_gate: shm+loan one-way p50 <= {RATIO}x fastpath p50 + {SLACK_MS} ms ===");
    println!("workload: {} messages per cell\n", args.iters);
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>12} {:>8}",
        "size", "fastpath p50", "shm p50", "shm+loan p50", "bound (ms)", "verdict"
    );
    let mut ok = true;
    for (label, w, h) in WorkImage::PAPER_SIZES {
        let fast = oneway_untraced(&args, w, h, Tier::Fastpath, link);
        let copy = oneway_untraced(&args, w, h, Tier::Shm, link);
        let loaned = oneway_loaned(&args, w, h, Tier::Shm, link);
        let bound = fast.p50_ms * RATIO + SLACK_MS;
        let pass = loaned.p50_ms <= bound;
        ok &= pass;
        println!(
            "{:<8} {:>14.3} {:>14.3} {:>14.3} {:>12.3} {:>8}",
            label,
            fast.p50_ms,
            copy.p50_ms,
            loaned.p50_ms,
            bound,
            if pass { "ok" } else { "FAIL" }
        );
    }
    if ok {
        println!("\nloan gate passed at every paper size");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nloan gate FAILED: loaned shm publication is not keeping up with the fast path"
        );
        ExitCode::FAILURE
    }
}
