//! Fig. 16 — inter-machine ping-pong latency over a simulated Intel 82599
//! 10 GbE link (Fig. 15 topology: `pub` and `sub` on machine A, `trans`
//! on machine B).
//!
//! Besides the paper's ROS vs ROS-SF comparison, a third series runs the
//! SFM path with `validate_on_receive` enabled, pricing the structural
//! verifier on every received frame; a same-machine section contrasts the
//! transport tiers (zero-copy pointer handoff vs the same frames forced
//! over TCP loopback), and a one-way section prices loaned write-in-place
//! publication (`Publisher::loan`) against the copy-publish shm path and
//! the fast path.
//!
//! With `--out DIR`, writes `DIR/BENCH_fig16.json` with every measured
//! series and `DIR/TRACE_fig16.json` with the waterfalls.
//!
//! ```text
//! cargo run -p rossf-bench --release --bin fig16_inter [--iters N] [--hz F] [--out DIR]
//! ```

use rossf_baselines::WorkImage;
use rossf_bench::experiments::{
    oneway_loaned, oneway_loaned_traced, oneway_traced, oneway_untraced, pingpong_plain,
    pingpong_same_machine, pingpong_sfm, pingpong_shm,
};
use rossf_bench::report::{write_report, write_trace_report, ScenarioReport, TraceWaterfall};
use rossf_bench::{RunArgs, Stats};
use rossf_ros::LinkProfile;
use rossf_trace::Tier;

fn main() {
    let args = RunArgs::from_env();
    let link = LinkProfile::ten_gbe();
    let mut rows: Vec<ScenarioReport> = Vec::new();
    println!("=== Fig. 16: inter-machine ping-pong latency (ROS vs ROS-SF) ===");
    println!(
        "link: {} Gb/s, {} µs one-way; workload: {} messages per configuration\n",
        link.bandwidth_bps / 1_000_000_000,
        link.latency.as_micros(),
        args.iters
    );
    println!(
        "{:<8} {:<50} {:<50} {:<50} {:>10} {:>10}",
        "size",
        "ROS (mean ± std)",
        "ROS-SF (mean ± std)",
        "ROS-SF +verify (mean ± std)",
        "reduction",
        "verify Δ"
    );
    for (label, w, h) in WorkImage::PAPER_SIZES {
        let payload = u64::from(w) * u64::from(h) * 3;
        let ros = pingpong_plain(&args, w, h, link);
        let rossf = pingpong_sfm(&args, w, h, link, false);
        let verified = pingpong_sfm(&args, w, h, link, true);
        println!(
            "{:<8} {:<50} {:<50} {:<50} {:>9.1}% {:>9.1}%",
            label,
            ros.to_string(),
            rossf.to_string(),
            verified.to_string(),
            rossf.reduction_vs(&ros),
            // Positive = verification costs latency; near zero = free.
            -verified.reduction_vs(&rossf)
        );
        rows.push(ScenarioReport::from_stats(
            &format!("ros ten_gbe {label}"),
            payload,
            &ros,
        ));
        rows.push(ScenarioReport::from_stats(
            &format!("sfm ten_gbe {label}"),
            payload,
            &rossf,
        ));
        rows.push(ScenarioReport::from_stats(
            &format!("sfm+verify ten_gbe {label}"),
            payload,
            &verified,
        ));
    }

    println!("\n--- same-machine transport tiers: fastpath / shm / forced TCP ---");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "size", "TCP p50 (ms)", "fastpath p50", "shm p50", "fp speedup", "shm speedup"
    );
    let speedup = |tcp: &Stats, other: &Stats| {
        if other.p50_ms > 0.0 {
            tcp.p50_ms / other.p50_ms
        } else {
            f64::INFINITY
        }
    };
    let mut speedup_1mb = 0.0;
    let mut shm_speedup_1mb = 0.0;
    for (label, w, h) in WorkImage::PAPER_SIZES {
        let payload = u64::from(w) * u64::from(h) * 3;
        let tcp = pingpong_same_machine(&args, w, h, false);
        let fast = pingpong_same_machine(&args, w, h, true);
        let shm = pingpong_shm(&args, w, h);
        if label == "1MB" {
            speedup_1mb = speedup(&tcp, &fast);
            shm_speedup_1mb = speedup(&tcp, &shm);
        }
        println!(
            "{:<8} {:>14.3} {:>14.3} {:>14.3} {:>9.1}x {:>9.1}x",
            label,
            tcp.p50_ms,
            fast.p50_ms,
            shm.p50_ms,
            speedup(&tcp, &fast),
            speedup(&tcp, &shm)
        );
        for (tier, stats) in [("tcp", &tcp), ("fastpath", &fast), ("shm", &shm)] {
            rows.push(ScenarioReport::from_stats(
                &format!("same-machine {tier} {label}"),
                payload,
                stats,
            ));
        }
    }
    println!(
        "same-machine p50 speedup at 1MB: {speedup_1mb:.1}x (target: >=3x for the \
         zero-copy fast path)"
    );
    println!(
        "same-machine shm p50 speedup at 1MB: {shm_speedup_1mb:.1}x (target: >=3x \
         vs forced TCP)"
    );

    println!("\n--- same-machine one-way publish: fastpath vs shm copy vs shm loaned ---");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>10}",
        "size", "fastpath p50", "shm p50", "shm+loan p50", "loan/fp"
    );
    for (label, w, h) in WorkImage::PAPER_SIZES {
        let payload = u64::from(w) * u64::from(h) * 3;
        let fast = oneway_untraced(&args, w, h, Tier::Fastpath, link);
        let shm = oneway_untraced(&args, w, h, Tier::Shm, link);
        let loaned = oneway_loaned(&args, w, h, Tier::Shm, link);
        println!(
            "{:<8} {:>14.3} {:>14.3} {:>14.3} {:>9.2}x",
            label,
            fast.p50_ms,
            shm.p50_ms,
            loaned.p50_ms,
            if fast.p50_ms > 0.0 {
                loaned.p50_ms / fast.p50_ms
            } else {
                f64::NAN
            }
        );
        for (tier, stats) in [("fastpath", &fast), ("shm", &shm), ("shm+loan", &loaned)] {
            rows.push(ScenarioReport::from_stats(
                &format!("oneway {tier} {label}"),
                payload,
                stats,
            ));
        }
    }
    println!(
        "loaned publication builds the message inside the pool segment: the shm \
         publish-side memcpy is gone (gate: loan/fp <= 1.2x, see loan_gate)"
    );

    println!("\n--- stage-latency attribution: traced one-way 1MB frame, all tiers ---");
    let (w, h) = (664, 504); // ~1 MB RGB frame
    let mut tiers: Vec<TraceWaterfall> = Vec::new();
    for tier in [Tier::Tcp, Tier::Fastpath, Tier::Shm] {
        let (stats, snapshot) = oneway_traced(&args, w, h, tier, link);
        tiers.push(TraceWaterfall::print(
            tier.name(),
            &stats,
            snapshot,
            " (target: <10%)",
        ));
    }
    // The loaned shm waterfall: same tier, message built inside the
    // segment — the wire_write (publish-side copy) row is absent.
    let (stats, snapshot) = oneway_loaned_traced(&args, w, h, Tier::Shm, link);
    tiers.push(TraceWaterfall::print(
        "shm+loan",
        &stats,
        snapshot,
        " (no wire_write: built in-segment)",
    ));
    write_trace_report(args.out.as_deref(), "fig16", &tiers).expect("write TRACE_fig16.json");

    println!();
    println!(
        "note: divide the ping-pong latency by 2 for the approximate one-way \
         latency (paper §5.2); paper reference: up to ~69.9% reduction at 6MB. \
         `verify Δ` is the extra round-trip cost of validate_on_receive."
    );
    write_report(args.out.as_deref(), "fig16", &rows).expect("write BENCH_fig16.json");
}
