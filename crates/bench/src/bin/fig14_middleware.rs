//! Fig. 14 — intra-machine latency at the 6 MB image size across six
//! middleware: ROS, ROS-SF, ProtoBuf, FlatBuf, RTI (XCDR2), RTI-FlatData.
//!
//! All six run over an identical TCP loopback pipe so the differences are
//! exactly what the paper attributes them to: construction,
//! serialization, and access costs.
//!
//! ```text
//! cargo run -p rossf-bench --release --bin fig14_middleware [--iters N] [--hz F] [--out DIR]
//! ```

use rossf_baselines::flatdata::FlatDataCodec;
use rossf_baselines::flatlite::FlatLiteCodec;
use rossf_baselines::protolite::ProtoCodec;
use rossf_baselines::roscodec::RosCodec;
use rossf_baselines::sfm_image::SfmCodec;
use rossf_baselines::xcdr::XcdrCodec;
use rossf_bench::experiments::codec_latency;
use rossf_bench::report::{write_report, ScenarioReport};
use rossf_bench::{RunArgs, Stats};

fn main() {
    let args = RunArgs::from_env();
    let (w, h) = (1920u32, 1080u32); // the paper's 6 MB configuration
    println!("=== Fig. 14: middleware comparison at 6MB (1920x1080x24bit) ===");
    println!(
        "workload: {} messages per middleware, pacing {:?}\n",
        args.iters,
        args.gap()
    );

    let results: Vec<(&str, bool, Stats)> = vec![
        ("ROS", false, codec_latency::<RosCodec>(&args, w, h)),
        ("ROS-SF", true, codec_latency::<SfmCodec>(&args, w, h)),
        ("ProtoBuf", false, codec_latency::<ProtoCodec>(&args, w, h)),
        ("FlatBuf", true, codec_latency::<FlatLiteCodec>(&args, w, h)),
        ("RTI", false, codec_latency::<XcdrCodec>(&args, w, h)),
        (
            "RTI-FlatData",
            true,
            codec_latency::<FlatDataCodec>(&args, w, h),
        ),
    ];

    println!("{:<14} {:<6} latency", "middleware", "SF?");
    for (name, sf, stats) in &results {
        println!(
            "{:<14} {:<6} {}",
            name,
            if *sf { "yes" } else { "no" },
            stats
        );
    }

    // The pairings the paper discusses: each serialization-free framework
    // vs its serializing counterpart.
    println!("\nserialization-free vs serializing counterparts:");
    for (sf_name, base_name) in [
        ("ROS-SF", "ROS"),
        ("FlatBuf", "ProtoBuf"),
        ("RTI-FlatData", "RTI"),
    ] {
        let sf = &results.iter().find(|r| r.0 == sf_name).expect("present").2;
        let base = &results
            .iter()
            .find(|r| r.0 == base_name)
            .expect("present")
            .2;
        println!(
            "  {sf_name:<14} vs {base_name:<10}: {:+.1}% latency",
            -sf.reduction_vs(base)
        );
    }
    println!(
        "\npaper reference: the three serialization-free systems cluster well \
         below their serializing counterparts; the FlatBuf-ProtoBuf gap is the \
         smallest of the three pairs"
    );
    let payload = u64::from(w) * u64::from(h) * 3;
    let rows: Vec<ScenarioReport> = results
        .iter()
        .map(|(name, _, stats)| ScenarioReport::from_stats(&format!("{name} 6MB"), payload, stats))
        .collect();
    write_report(args.out.as_deref(), "fig14", &rows).expect("write BENCH_fig14.json");
}
