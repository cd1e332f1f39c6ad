//! Supplementary experiment: the bandwidth sweep behind the paper's
//! motivation (§1): "Traditionally, the \[serialization\] time cost is
//! negligible compared to network transmission time. However, with the
//! development of high-speed networks ... the time cost caused by
//! serialization is not negligible anymore."
//!
//! Runs the Fig. 15 ping-pong topology at a 1 MB image size across link
//! speeds from 100 Mb/s to unlimited (loopback) and reports the ROS-SF
//! latency reduction at each: it should be small on slow links and grow
//! as the wire gets faster. With `--out DIR`, writes
//! `DIR/BENCH_link_sweep.json`.
//!
//! ```text
//! cargo run -p rossf-bench --release --bin link_sweep [--iters N] [--out DIR]
//! ```

use rossf_bench::experiments::{pingpong_plain, pingpong_sfm};
use rossf_bench::report::{write_report, ScenarioReport};
use rossf_bench::RunArgs;
use rossf_ros::LinkProfile;
use std::time::Duration;

/// The ~1 MB image configuration the sweep uses.
const SIZE: (u32, u32) = (800, 600);

fn main() {
    let mut args = RunArgs::from_env();
    if args.iters == RunArgs::default().iters {
        args.iters = 60; // slow links make each iteration expensive
    }
    let (w, h) = SIZE;
    let payload = u64::from(w) * u64::from(h) * 3;
    let links: [(&str, LinkProfile); 4] = [
        ("100Mb/s", LinkProfile::fast_ethernet()),
        ("1Gb/s", LinkProfile::gigabit()),
        ("10Gb/s", LinkProfile::ten_gbe()),
        (
            "unlimited",
            LinkProfile {
                bandwidth_bps: 0,
                latency: Duration::from_micros(50),
            },
        ),
    ];

    println!("=== Link-speed sweep: where serialization stops being negligible ===");
    println!(
        "workload: 1MB images, ping-pong, {} messages per cell\n",
        args.iters
    );
    println!(
        "{:<10} {:>14} {:>14} {:>11}",
        "link", "ROS mean (ms)", "ROS-SF (ms)", "reduction"
    );
    let mut rows: Vec<ScenarioReport> = Vec::new();
    for (label, link) in links {
        let ros = pingpong_plain(&args, w, h, link);
        let rossf = pingpong_sfm(&args, w, h, link, false);
        println!(
            "{:<10} {:>14.3} {:>14.3} {:>10.1}%",
            label,
            ros.mean_ms,
            rossf.mean_ms,
            rossf.reduction_vs(&ros)
        );
        rows.push(ScenarioReport::from_stats(
            &format!("ros {label} 1MB"),
            payload,
            &ros,
        ));
        rows.push(ScenarioReport::from_stats(
            &format!("sfm {label} 1MB"),
            payload,
            &rossf,
        ));
    }
    println!(
        "\nexpected shape: on a 100 Mb/s link the wire dominates and the \
         reduction is small; the faster the link, the larger ROS-SF's share \
         of the saved time"
    );
    write_report(args.out.as_deref(), "link_sweep", &rows).expect("write BENCH_link_sweep.json");
}
