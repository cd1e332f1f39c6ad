//! `projection_gate` — the selective-field-transmission gate.
//!
//! A subscriber that projects a small field subset
//! (`SubscriberOptions::project`) of a `sensor_msgs/PointCloud2` over
//! the shaped 10 GbE TCP model must observe **≥5× fewer bytes on the
//! wire** than full-frame delivery of the same stream, at a one-way p50
//! **no worse** than the full run (a small noise band on top — on a
//! shaped link the sliced sub-frame should in fact be much faster). The
//! sweep runs the paper payload sizes (~200 KB, ~1 MB, ~6 MB) and gates
//! every cell. Both runs receive with `validate_on_receive`, so every
//! projected sub-frame also proves itself against the projected schema;
//! a single verifier rejection fails the gate.
//!
//! With `--out DIR`, writes `DIR/BENCH_projection.json` with both rows
//! (the byte columns carry the measured wire totals).
//!
//! ```text
//! cargo run -p rossf-bench --release --bin projection_gate [-- --iters N] [--out DIR]
//! ```

use rossf_bench::report::{write_report, ScenarioReport};
use rossf_bench::{RunArgs, Stats};
use rossf_msg::sensor_msgs::SfmPointCloud2;
use rossf_ros::time::{now_nanos, RosTime};
use rossf_ros::{
    LinkProfile, MachineId, Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions,
    TransportConfig,
};
use rossf_sfm::{SfmBox, SfmShared};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

/// Required wire-byte reduction: full-frame bytes ≥ `REDUCTION` × projected.
const REDUCTION: f64 = 5.0;
/// Allowed fractional p50 growth of the projected run over the full run.
const P50_RATIO: f64 = 1.10;
/// Absolute p50 slack (ms) on top of the ratio bound.
const P50_SLACK_MS: f64 = 0.05;
/// Point payloads per message: the paper's ~200 KB / ~1 MB / ~6 MB cells.
const SIZES: &[(&str, usize)] = &[("200KB", 200 << 10), ("1MB", 1 << 20), ("6MB", 6 << 20)];

/// The small subset the projected subscriber asks for: the stamp it
/// needs for latency accounting plus the cloud's dimensions — everything
/// except the 1 MB `data` blob and the field descriptors.
const SUBSET: &[&str] = &["header.stamp", "height", "width", "point_step"];

/// Rounds per (size, mode) cell; the reported stats are the best round by
/// p50. A real slowdown raises every round; a scheduler hiccup on a shared
/// machine only inflates one.
const ROUNDS: u32 = 3;

/// What one delivery mode measured.
struct ModeOutcome {
    stats: Stats,
    bytes_sent: u64,
    received: u64,
    verify_rejects: u64,
    decode_errors: u64,
    projection_frames: u64,
}

fn cloud(seq: u32, t0: u64, point_bytes: usize) -> SfmBox<SfmPointCloud2> {
    let mut pc = SfmBox::<SfmPointCloud2>::new();
    pc.header.seq = seq;
    pc.header.stamp = RosTime::from_nanos(t0);
    pc.header.frame_id.assign("lidar");
    pc.height = 1;
    pc.width = (point_bytes / 16) as u32;
    pc.fields.resize(4);
    for (i, name) in ["x", "y", "z", "intensity"].iter().enumerate() {
        let f = &mut pc.fields.as_mut_slice()[i];
        f.name.assign(name);
        f.offset = i as u32 * 4;
        f.datatype = 7;
        f.count = 1;
    }
    pc.is_bigendian = 0;
    pc.point_step = 16;
    pc.row_step = point_bytes as u32;
    pc.data.resize(point_bytes);
    pc.is_dense = 1;
    pc
}

/// One-way latency run over the shaped inter-machine link: publisher on
/// machine A, subscriber on machine B, one message in flight. `project`
/// selects projected or full-frame delivery.
fn run_mode(args: &RunArgs, project: bool, point_bytes: usize) -> ModeOutcome {
    let master = Master::new();
    master
        .links()
        .connect(MachineId::A, MachineId::B, LinkProfile::ten_gbe());
    let config = TransportConfig {
        validate_on_receive: true,
        enable_fastpath: false,
        ..TransportConfig::default()
    };
    let nh_a = NodeHandle::with_config(&master, "cloud_pub", MachineId::A, config.clone());
    let nh_b = NodeHandle::with_config(&master, "cloud_sub", MachineId::B, config);
    let topic = "projection_gate/cloud";

    let publisher: Publisher<SfmBox<SfmPointCloud2>> =
        nh_a.advertise_with(topic, PublisherOptions::new().queue_size(8));
    let mut options = SubscriberOptions::new();
    if project {
        options = options.project(SUBSET);
    }
    let (tx, rx) = mpsc::channel();
    let sub = nh_b.subscribe_with(topic, options, move |m: SfmShared<SfmPointCloud2>| {
        let _ = tx.send(now_nanos().saturating_sub(m.header.stamp.as_nanos()));
    });
    nh_a.wait_for_subscribers(&publisher, 1);

    let mut lat = Vec::with_capacity(args.iters);
    for seq in 0..args.iters {
        let t0 = now_nanos();
        publisher.publish(&cloud(seq as u32, t0, point_bytes));
        lat.push(
            rx.recv_timeout(Duration::from_secs(30))
                .expect("projection_gate: message lost"),
        );
        std::thread::sleep(args.gap());
    }

    let ss = sub.stats();
    let snap = master.metrics().topic(topic).snapshot();
    ModeOutcome {
        stats: Stats::from_nanos(lat).with_wire_bytes(snap.bytes_sent, snap.bytes_received),
        bytes_sent: snap.bytes_sent,
        received: ss.received,
        verify_rejects: ss.verify_rejects,
        decode_errors: ss.decode_errors,
        projection_frames: snap.projection_frames,
    }
}

/// Run `measure` [`ROUNDS`] times and keep the round with the lowest
/// p50. The wire-byte and delivery counters are deterministic per round,
/// so the kept round's values stand for all of them.
fn best_outcome(mut measure: impl FnMut() -> ModeOutcome) -> ModeOutcome {
    let mut best = measure();
    for _ in 1..ROUNDS {
        let s = measure();
        if s.stats.p50_ms < best.stats.p50_ms {
            best = s;
        }
    }
    best
}

fn main() -> ExitCode {
    let args = RunArgs::from_env();
    println!(
        "=== projection_gate: projected bytes-on-wire <= full/{REDUCTION}, \
         p50 <= {P50_RATIO}x full + {P50_SLACK_MS} ms ==="
    );
    println!(
        "PointCloud2 over shaped 10 GbE TCP, subset {SUBSET:?}; \
         {} messages per cell, best of 3 rounds\n",
        args.iters
    );
    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>14} {:>10} {:>8}",
        "size", "full p50", "full wire B", "proj p50", "proj wire B", "reduction", "verdict"
    );

    let mut ok = true;
    let mut rows = Vec::new();
    let want = args.iters as u64;
    for &(label, point_bytes) in SIZES {
        let full = best_outcome(|| run_mode(&args, false, point_bytes));
        let projected = best_outcome(|| run_mode(&args, true, point_bytes));
        let mut cell_ok = true;
        let mut fail = |what: &str| {
            eprintln!("FAIL at {label}: {what}");
            cell_ok = false;
        };
        if full.received != want || projected.received != want {
            fail("not every published message was delivered");
        }
        if full.verify_rejects + projected.verify_rejects != 0 {
            fail("the structural verifier rejected frames (projected sub-frames must verify)");
        }
        if full.decode_errors + projected.decode_errors != 0 {
            fail("frames failed adoption");
        }
        if projected.projection_frames != want {
            fail("the projected link did not negotiate sub-frame delivery for every message");
        }
        if (projected.bytes_sent as f64) * REDUCTION > full.bytes_sent as f64 {
            fail("bytes-on-wire reduction is under the required factor");
        }
        let bound = full.stats.p50_ms * P50_RATIO + P50_SLACK_MS;
        if projected.stats.p50_ms > bound {
            fail("projected p50 is worse than full-frame delivery");
        }
        ok &= cell_ok;
        println!(
            "{:<8} {:>12.3} {:>14} {:>12.3} {:>14} {:>9.0}x {:>8}",
            label,
            full.stats.p50_ms,
            full.bytes_sent,
            projected.stats.p50_ms,
            projected.bytes_sent,
            full.bytes_sent as f64 / projected.bytes_sent.max(1) as f64,
            if cell_ok { "ok" } else { "FAIL" }
        );
        let payload = point_bytes as u64;
        rows.push(ScenarioReport::from_stats(
            &format!("cloud full ten_gbe {label}"),
            payload,
            &full.stats,
        ));
        rows.push(ScenarioReport::from_stats(
            &format!("cloud projected ten_gbe {label}"),
            payload,
            &projected.stats,
        ));
    }

    write_report(args.out.as_deref(), "projection", &rows).expect("write BENCH_projection.json");

    if ok {
        println!("\nprojection gate passed at every paper size");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nprojection gate FAILED");
        ExitCode::FAILURE
    }
}
