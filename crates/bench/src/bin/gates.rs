//! `gates` — the same-run ratio gates, one table.
//!
//! Each row measures two arms in this process and passes when B's one-way
//! or ping-pong p50 is at most `ratio` × A's p50 + `slack` (ms), each arm's
//! p50 the best of `best_of` runs of `iters` messages:
//!
//! * the same-machine fast path against the same 1 MB frames forced over
//!   TCP loopback — the fast path must be measurably faster (TCP p50 at
//!   least 1.5× the fast path's);
//! * tracing on against tracing off, 1 MB one-way on the fast path and on
//!   shared memory — tracing is cheap enough to leave on;
//! * a loaned shared-memory publication against the fast path's pointer
//!   hand-off at every paper size — building in the segment removes the
//!   publish-side copy.
//!
//! Takes no arguments, prints one line per row and exits 1 if any row
//! failed. Writes nothing.
//!
//! ```text
//! cargo run -p rossf-bench --release --bin gates
//! ```

use rossf_baselines::WorkImage;
use rossf_bench::experiments::{
    oneway_loaned, oneway_traced, oneway_untraced, pingpong_same_machine,
};
use rossf_bench::RunArgs;
use rossf_ros::LinkProfile;
use rossf_trace::Tier;
use std::process::ExitCode;

/// One arm: its label and a run's p50 (ms).
type Arm = (&'static str, Box<dyn Fn(&RunArgs) -> f64>);

/// One gate: pass when `b`'s p50 ≤ `ratio` × `a`'s p50 + `slack_ms`.
struct Gate {
    name: String,
    a: Arm,
    b: Arm,
    ratio: f64,
    slack_ms: f64,
    iters: usize,
    best_of: usize,
}

fn table() -> Vec<Gate> {
    // ~1 MB RGB frames: the ping-pong's 800×600 and the one-way tracing runs'.
    let (tracing_w, tracing_h) = (664, 504);
    let mut gates = vec![Gate {
        name: "fastpath vs forced TCP, 1MB ping-pong".into(),
        a: (
            "tcp",
            Box::new(|args| pingpong_same_machine(args, 800, 600, false).p50_ms),
        ),
        b: (
            "fastpath",
            Box::new(|args| pingpong_same_machine(args, 800, 600, true).p50_ms),
        ),
        ratio: 1.0 / 1.5,
        slack_ms: 0.0,
        iters: 150,
        best_of: 1,
    }];
    for tier in [Tier::Fastpath, Tier::Shm] {
        let link = LinkProfile::UNLIMITED;
        gates.push(Gate {
            name: format!("tracing overhead, {} 1MB one-way", tier.name()),
            a: (
                "untraced",
                Box::new(move |args| {
                    oneway_untraced(args, tracing_w, tracing_h, tier, link).p50_ms
                }),
            ),
            b: (
                "traced",
                Box::new(move |args| {
                    oneway_traced(args, tracing_w, tracing_h, tier, link)
                        .0
                        .p50_ms
                }),
            ),
            ratio: 1.05,
            slack_ms: 0.05,
            iters: 100,
            best_of: 3,
        });
    }
    // Only the TCP tier reads the link profile.
    let link = LinkProfile::ten_gbe();
    for (label, w, h) in WorkImage::PAPER_SIZES {
        gates.push(Gate {
            name: format!("loaned shm vs fastpath, {label} one-way"),
            a: (
                "fastpath",
                Box::new(move |args| oneway_untraced(args, w, h, Tier::Fastpath, link).p50_ms),
            ),
            b: (
                "shm+loan",
                Box::new(move |args| oneway_loaned(args, w, h, Tier::Shm, link).p50_ms),
            ),
            ratio: 1.2,
            slack_ms: 0.05,
            iters: 60,
            best_of: 1,
        });
    }
    gates
}

fn main() -> ExitCode {
    assert!(std::env::args().len() == 1, "gates takes no arguments");
    println!("=== gates: B's p50 <= ratio x A's p50 + slack, each arm the best of N runs ===");
    let mut ok = true;
    for gate in table() {
        let args = RunArgs {
            iters: gate.iters,
            ..RunArgs::default()
        };
        let best = |(_, run): &Arm| {
            (0..gate.best_of)
                .map(|_| run(&args))
                .fold(f64::INFINITY, f64::min)
        };
        let (a, b) = (best(&gate.a), best(&gate.b));
        let bound = gate.ratio * a + gate.slack_ms;
        let pass = b <= bound;
        ok &= pass;
        println!(
            "{:<40} {} p50 {a:.3} ms, {} p50 {b:.3} ms, bound {bound:.3} ms \
             ({:.3}x + {} ms, best of {} x {} msgs): {}",
            gate.name,
            gate.a.0,
            gate.b.0,
            gate.ratio,
            gate.slack_ms,
            gate.best_of,
            gate.iters,
            if pass { "ok" } else { "FAIL" }
        );
    }
    if ok {
        println!("gates: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("gates: FAIL");
        ExitCode::FAILURE
    }
}
