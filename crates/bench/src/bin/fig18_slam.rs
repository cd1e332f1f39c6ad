//! Fig. 18 — the ORB-SLAM application case study (Fig. 17 topology):
//! end-to-end latency from input-image creation to arrival of each of the
//! three outputs (pose, point cloud, debug image), ROS vs ROS-SF.
//!
//! ```text
//! cargo run -p rossf-bench --release --bin fig18_slam [--iters N] [--hz F] [--out DIR]
//! ```

use rossf_bench::experiments::{oneway_traced, slam_case_study, Family, SlamLatencies};
use rossf_bench::report::{write_report, write_trace_report, ScenarioReport, TraceWaterfall};
use rossf_bench::RunArgs;
use rossf_ros::LinkProfile;
use rossf_trace::Tier;
use std::time::Duration;

fn main() {
    let mut args = RunArgs::from_env();
    // SLAM frames cost ~34 ms each; keep the default run length moderate.
    if args.iters == RunArgs::default().iters {
        args.iters = 100;
    }
    let compute = Duration::from_millis(34); // paper: 30-40 ms per frame
    println!("=== Fig. 18: ORB-SLAM case study (640x480 TUM-like sequence) ===");
    println!(
        "workload: {} frames per family, calibrated compute {:?} per frame\n",
        args.iters, compute
    );

    let ros = slam_case_study(&args, Family::Plain, (640, 480), compute);
    let rossf = slam_case_study(&args, Family::Sfm, (640, 480), compute);

    print_family("ROS", &ros);
    print_family("ROS-SF", &rossf);

    println!("\nreduction by output:");
    for (name, a, b) in [
        ("pose", &rossf.pose, &ros.pose),
        ("point cloud", &rossf.cloud, &ros.cloud),
        ("debug image", &rossf.debug, &ros.debug),
    ] {
        println!("  {:<12} {:+.1}%", name, -a.reduction_vs(b));
    }
    println!(
        "\npaper reference: the 30-40 ms ORB-SLAM compute dominates, so the \
         overall reduction shrinks to roughly 5%"
    );
    // 640x480x24bit input frames drive every output; report per-output
    // latency series against that payload.
    let payload = 640 * 480 * 3;
    let mut rows: Vec<ScenarioReport> = Vec::new();
    for (family, lat) in [("ros", &ros), ("sfm", &rossf)] {
        rows.push(ScenarioReport::from_stats(
            &format!("{family} slam pose"),
            payload,
            &lat.pose,
        ));
        rows.push(ScenarioReport::from_stats(
            &format!("{family} slam cloud"),
            payload,
            &lat.cloud,
        ));
        rows.push(ScenarioReport::from_stats(
            &format!("{family} slam debug"),
            payload,
            &lat.debug,
        ));
    }
    write_report(args.out.as_deref(), "fig18", &rows).expect("write BENCH_fig18.json");

    // Stage-latency attribution for the SLAM input hop: one traced one-way
    // run at the 640x480 frame size on the intra-machine fast path.
    println!("\n--- stage-latency attribution: traced 640x480 input hop (fast path) ---");
    let (stats, snapshot) = oneway_traced(&args, 640, 480, Tier::Fastpath, LinkProfile::UNLIMITED);
    let wf = TraceWaterfall::print(Tier::Fastpath.name(), &stats, snapshot, "");
    write_trace_report(args.out.as_deref(), "fig18", &[wf]).expect("write TRACE_fig18.json");
}

fn print_family(name: &str, lat: &SlamLatencies) {
    println!("{name}:");
    println!("  pose        {}", lat.pose);
    println!("  point cloud {}", lat.cloud);
    println!("  debug image {}", lat.debug);
}
