//! Fig. 13 — intra-machine transmission latency, ROS vs ROS-SF, at the
//! paper's three image sizes (~200 KB, ~1 MB, ~6 MB).
//!
//! ```text
//! cargo run -p rossf-bench --release --bin fig13_intra [--iters N] [--hz F] [--paper] [--out DIR]
//! ```

use rossf_baselines::WorkImage;
use rossf_bench::experiments::{intra_plain, intra_sfm, oneway_traced};
use rossf_bench::report::{write_report, write_trace_report, ScenarioReport, TraceWaterfall};
use rossf_bench::RunArgs;
use rossf_ros::LinkProfile;
use rossf_trace::Tier;

fn main() {
    let args = RunArgs::from_env();
    println!("=== Fig. 13: intra-machine latency (ROS vs ROS-SF) ===");
    println!(
        "workload: {} messages per configuration, pacing {:?}\n",
        args.iters,
        args.gap()
    );
    println!(
        "{:<8} {:<50} {:<50} {:>10}",
        "size", "ROS (mean ± std)", "ROS-SF (mean ± std)", "reduction"
    );
    let mut rows: Vec<ScenarioReport> = Vec::new();
    for (label, w, h) in WorkImage::PAPER_SIZES {
        let payload = u64::from(w) * u64::from(h) * 3;
        let ros = intra_plain(&args, w, h);
        let rossf = intra_sfm(&args, w, h);
        println!(
            "{:<8} {:<50} {:<50} {:>9.1}%",
            label,
            ros.to_string(),
            rossf.to_string(),
            rossf.reduction_vs(&ros)
        );
        rows.push(ScenarioReport::from_stats(
            &format!("ros intra {label}"),
            payload,
            &ros,
        ));
        rows.push(ScenarioReport::from_stats(
            &format!("sfm intra {label}"),
            payload,
            &rossf,
        ));
    }
    println!();
    println!(
        "paper reference: ROS-SF reduces mean latency, growing with size, \
         up to ~76.3% at 6MB"
    );

    println!("\n--- stage-latency attribution: traced one-way 1MB frame, intra tiers ---");
    let (w, h) = (664, 504); // ~1 MB RGB frame
    let mut tiers: Vec<TraceWaterfall> = Vec::new();
    // Intra-machine: the zero-copy fast path and the same frames forced
    // over unshaped loopback TCP.
    for tier in [Tier::Fastpath, Tier::Tcp] {
        let (stats, snapshot) = oneway_traced(&args, w, h, tier, LinkProfile::UNLIMITED);
        let wf = TraceWaterfall::print(tier.name(), &stats, snapshot, "");
        tiers.push(wf);
    }
    write_trace_report(args.out.as_deref(), "fig13", &tiers).expect("write TRACE_fig13.json");

    write_report(args.out.as_deref(), "fig13", &rows).expect("write BENCH_fig13.json");
}
