//! `bag_gate` — deterministic record/replay fidelity gate over the Fig. 18
//! SLAM pipeline.
//!
//! Three phases, all over serialization-free messages:
//!
//! 1. **Baseline** — the closed-loop SLAM pipeline (camera → orb_slam →
//!    pose/cloud/debug) with per-frame end-to-end latency.
//! 2. **Live + record** — the same pipeline with a streaming bag
//!    [`Recorder`] tapping all four topics. Gates: capture sheds nothing
//!    (`frames_dropped == 0`, every frame of every topic lands in the
//!    bag) and recording costs ≤ 5% extra latency (plus a small absolute
//!    slack for scheduler noise — the tap is one bounded-queue push).
//! 3. **Replay** — the bag is mapped and replayed zero-copy into a fresh
//!    graph. Gates: per-topic FNV of delivered bytes identical to the
//!    live run (byte-diff zero, order preserved), every delivered message
//!    aliases the bag mapping (no per-frame copy), and publish pacing
//!    tracks the recorded cadence within `max(3 ms, 15%)` of the mean
//!    inter-frame gap.
//!
//! ```text
//! cargo run -p rossf-bench --release --bin bag_gate [--smoke] [--iters N] [--out DIR]
//! ```
//!
//! With `--out DIR`, writes `DIR/BENCH_bag.json` with the latency rows plus
//! the bag counters. Exit status 0 only when every gate passes.

use rossf_bag::{fnv1a64, BagReader, Recorder, ReplayOptions, Replayer};
use rossf_bench::report::{write_report, ScenarioReport};
use rossf_bench::stats::Stats;
use rossf_msg::geometry_msgs::SfmPoseStamped;
use rossf_msg::sensor_msgs::{SfmImage, SfmPointCloud2};
use rossf_ros::time::{now_nanos, RosTime};
use rossf_ros::{Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions};
use rossf_sfm::{SfmBox, SfmShared};
use rossf_slam::dataset::Sequence;
use rossf_slam::pipeline::{frame_to_sfm, spawn_sfm, SlamConfig, SlamTopics};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload shape for one gate run.
struct GateConfig {
    width: u32,
    height: u32,
    frames: usize,
    compute: Duration,
    /// Relative + absolute bound on record overhead. The full run holds
    /// the paper-style ≤5% (+1 ms scheduler slack). The smoke run is a
    /// correctness gate on a tiny sample (n=12, 2 ms frames) where
    /// single-core wakeup noise dwarfs the tap cost, so it only bounds
    /// catastrophes (an accidental serialize/copy per frame is ≫2×).
    overhead_mult: f64,
    overhead_slack_ms: f64,
}

impl GateConfig {
    fn smoke() -> GateConfig {
        GateConfig {
            width: 160,
            height: 120,
            frames: 12,
            compute: Duration::from_millis(2),
            overhead_mult: 2.0,
            overhead_slack_ms: 5.0,
        }
    }

    fn full() -> GateConfig {
        GateConfig {
            width: 320,
            height: 240,
            frames: 48,
            compute: Duration::from_millis(10),
            overhead_mult: 1.05,
            overhead_slack_ms: 1.0,
        }
    }
}

/// Delivered-byte hashes of one live pipeline pass, per topic in
/// (image, pose, cloud, debug) order, plus the closed-loop latency.
struct LiveRun {
    stats: Stats,
    hashes: [Vec<u64>; 4],
    recorder: Option<(rossf_bag::RecorderStats, rossf_bag::BagSummary)>,
}

/// Run the SFM SLAM pipeline closed-loop for `cfg.frames` frames,
/// optionally recording all four topics to `record`.
fn live_run(cfg: &GateConfig, topics: &SlamTopics, record: Option<&Path>) -> LiveRun {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "bag_gate");
    let seq = Sequence::with_resolution(2022, cfg.width, cfg.height, 2.0);
    let publisher: Publisher<SfmBox<SfmImage>> =
        nh.advertise_with(&topics.image, PublisherOptions::new().queue_size(8));
    let _node = spawn_sfm(
        &nh,
        topics,
        cfg.width,
        cfg.height,
        SlamConfig {
            min_frame_compute: cfg.compute,
            threshold: 25,
        },
    );
    let (pose_tx, pose_rx) = mpsc::channel();
    let (cloud_tx, cloud_rx) = mpsc::channel();
    let (debug_tx, debug_rx) = mpsc::channel();
    let _subs = (
        nh.subscribe_with(
            &topics.pose,
            SubscriberOptions::new(),
            move |m: SfmShared<SfmPoseStamped>| {
                let _ = pose_tx.send(fnv1a64(m.publish_handle().as_slice()));
            },
        ),
        nh.subscribe_with(
            &topics.cloud,
            SubscriberOptions::new(),
            move |m: SfmShared<SfmPointCloud2>| {
                let _ = cloud_tx.send(fnv1a64(m.publish_handle().as_slice()));
            },
        ),
        nh.subscribe_with(
            &topics.debug,
            SubscriberOptions::new(),
            move |m: SfmShared<SfmImage>| {
                let _ = debug_tx.send(fnv1a64(m.publish_handle().as_slice()));
            },
        ),
    );
    nh.wait_for_subscribers(&publisher, 1);

    let recorder = record.map(|path| {
        let r = Recorder::builder()
            .topic::<SfmBox<SfmImage>>(&topics.image)
            .topic::<SfmBox<SfmPoseStamped>>(&topics.pose)
            .topic::<SfmBox<SfmPointCloud2>>(&topics.cloud)
            .topic::<SfmBox<SfmImage>>(&topics.debug)
            .queue_capacity(1024)
            .start(&nh, path)
            .expect("start recorder");
        assert!(
            r.wait_attached(1, Duration::from_secs(10)),
            "capture taps never attached to all publishers"
        );
        r
    });
    // Let the output subscribers finish their asynchronous handshakes.
    std::thread::sleep(Duration::from_millis(100));

    let timeout = Duration::from_secs(20);
    let mut lat = Vec::with_capacity(cfg.frames);
    let mut hashes: [Vec<u64>; 4] = Default::default();
    for i in 0..cfg.frames {
        let img = frame_to_sfm(&seq.frame(i), RosTime::from_nanos(now_nanos()));
        hashes[0].push(fnv1a64(img.publish_handle().as_slice()));
        let t0 = Instant::now();
        publisher.publish(&img);
        hashes[1].push(pose_rx.recv_timeout(timeout).expect("pose arrives"));
        hashes[2].push(cloud_rx.recv_timeout(timeout).expect("cloud arrives"));
        hashes[3].push(debug_rx.recv_timeout(timeout).expect("debug arrives"));
        lat.push(t0.elapsed().as_nanos() as u64);
        std::thread::sleep(Duration::from_millis(2));
    }

    let recorder = recorder.map(|r| {
        // The closed loop means every frame was delivered before the next
        // publish; wait for the taps to push the stragglers, then close.
        let want = (cfg.frames * 4) as u64;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let s = r.stats();
            if s.frames_recorded + s.frames_dropped >= want {
                break;
            }
            assert!(Instant::now() < deadline, "recorder never drained");
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = r.stats();
        let summary = r.finish().expect("close bag");
        (stats, summary)
    });
    LiveRun {
        stats: Stats::from_nanos(lat),
        hashes,
        recorder,
    }
}

/// What the replay phase observed, per topic in recording order.
struct ReplayRun {
    hashes: [Vec<u64>; 4],
    all_in_map: bool,
    publish_pacing_mean: Duration,
    publish_pacing_max: Duration,
    arrival_gap_errors: Stats,
    frames_replayed: u64,
}

/// Replay the bag into a fresh graph and collect delivered hashes,
/// pointer provenance, and pacing.
fn replay_run(cfg: &GateConfig, topics: &SlamTopics, path: &Path) -> ReplayRun {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "bag_gate_replay");
    let mut replayer = Replayer::open(path).expect("open bag for replay");
    assert!(
        !replayer.reader().recovered(),
        "cleanly finished bag must not need recovery"
    );
    let range = replayer.reader().addr_range();

    let collected: Arc<Mutex<[Vec<u64>; 4]>> = Arc::new(Mutex::new(Default::default()));
    let in_map = Arc::new(Mutex::new(true));
    let arrivals: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));

    // One adopted route + FNV subscriber per recorded topic. The
    // subscriber checks the delivered message's base pointer against the
    // bag mapping: fast-path delivery shares the adopted buffer, so a
    // pointer outside the map would mean a hidden copy.
    macro_rules! route {
        ($ty:ty, $topic:expr, $slot:expr, $track_arrival:expr) => {{
            let publisher =
                nh.advertise_with::<SfmShared<$ty>>($topic, PublisherOptions::new().queue_size(64));
            let collected = Arc::clone(&collected);
            let in_map = Arc::clone(&in_map);
            let arrivals = Arc::clone(&arrivals);
            let sub = nh.subscribe_with(
                $topic,
                SubscriberOptions::new(),
                move |m: SfmShared<$ty>| {
                    let base = m.base();
                    if base < range.0 || base >= range.1 {
                        *in_map.lock().unwrap() = false;
                    }
                    if $track_arrival {
                        arrivals.lock().unwrap().push(Instant::now());
                    }
                    collected.lock().unwrap()[$slot].push(fnv1a64(m.publish_handle().as_slice()));
                },
            );
            nh.wait_for_subscribers(&publisher, 1);
            replayer
                .route_adopted::<$ty>($topic, publisher)
                .expect("route recorded topic");
            sub
        }};
    }
    let _subs = (
        route!(SfmImage, &topics.image, 0, true),
        route!(SfmPoseStamped, &topics.pose, 1, false),
        route!(SfmPointCloud2, &topics.cloud, 2, false),
        route!(SfmImage, &topics.debug, 3, false),
    );

    let stats = replayer
        .run(ReplayOptions::default().verify(true))
        .expect("replay run");

    // Wait for the last deliveries to drain.
    let want = cfg.frames;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let c = collected.lock().unwrap();
        if c.iter().all(|v| v.len() >= want) {
            break;
        }
        drop(c);
        assert!(Instant::now() < deadline, "replay deliveries never drained");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Arrival pacing: the gaps between delivered image frames must track
    // the recorded stamp gaps.
    let reader = BagReader::open(path).expect("reopen for stamps");
    let image_conn = reader
        .connection(&topics.image)
        .expect("image connection recorded");
    let stamps: Vec<u64> = reader
        .entries(image_conn.id)
        .iter()
        .map(|e| e.stamp_nanos)
        .collect();
    let arrivals = arrivals.lock().unwrap();
    let mut errors = Vec::new();
    for i in 1..arrivals.len().min(stamps.len()) {
        let actual = arrivals[i].duration_since(arrivals[0]).as_nanos() as i128;
        let expected = (stamps[i] - stamps[0]) as i128;
        errors.push((actual - expected).unsigned_abs().min(u64::MAX as u128) as u64);
    }
    assert!(
        !errors.is_empty(),
        "need at least two frames to gauge pacing"
    );

    let hashes = collected.lock().unwrap().clone();
    let all_in_map = *in_map.lock().unwrap();
    ReplayRun {
        hashes,
        all_in_map,
        publish_pacing_mean: stats.pacing_mean_abs_error,
        publish_pacing_max: stats.pacing_max_abs_error,
        arrival_gap_errors: Stats::from_nanos(errors),
        frames_replayed: stats.frames_replayed,
    }
}

fn main() {
    let mut cfg = GateConfig::full();
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg = GateConfig::smoke(),
            "--iters" => {
                let v = args.next().expect("--iters needs a value");
                cfg.frames = v.parse().expect("--iters must be an integer");
            }
            "--out" => out = Some(args.next().expect("--out needs a directory").into()),
            other => {
                eprintln!("unknown argument `{other}`; expected --smoke, --iters N or --out DIR");
                std::process::exit(1);
            }
        }
    }
    println!(
        "=== bag gate: {}x{} SLAM pipeline, {} frames, {:?} compute/frame ===",
        cfg.width, cfg.height, cfg.frames, cfg.compute
    );
    let bag_path: PathBuf =
        std::env::temp_dir().join(format!("rossf_bag_gate_{}.bag", std::process::id()));

    // Phase 1+2 share one topic namespace so the bag's topic names match
    // the replay graph's; each phase runs its own master.
    let base_topics = SlamTopics::with_prefix("bag_gate_base");
    let rec_topics = SlamTopics::with_prefix("bag_gate_rec");
    println!("\n--- phase 1: live baseline ---");
    let baseline = live_run(&cfg, &base_topics, None);
    println!("baseline per-frame: {}", baseline.stats);

    println!("\n--- phase 2: live + record ---");
    let recorded = live_run(&cfg, &rec_topics, Some(&bag_path));
    println!("recording per-frame: {}", recorded.stats);
    let (rec_stats, rec_summary) = recorded.recorder.as_ref().expect("phase 2 records");
    println!(
        "bag: {} frames, {} bytes, {} dropped, {} connections",
        rec_summary.frames, rec_summary.bytes, rec_stats.frames_dropped, rec_summary.connections
    );

    println!("\n--- phase 3: zero-copy replay ---");
    let replay = replay_run(&cfg, &rec_topics, &bag_path);
    println!(
        "replayed {} frames; publish pacing mean {:?} max {:?}; arrival gap error {}",
        replay.frames_replayed,
        replay.publish_pacing_mean,
        replay.publish_pacing_max,
        replay.arrival_gap_errors
    );

    // --- gates ------------------------------------------------------------
    let mut failures = Vec::new();

    // Capture completeness: nothing shed, every frame of every topic.
    let want_frames = (cfg.frames * 4) as u64;
    if rec_stats.frames_dropped != 0 || rec_summary.frames != want_frames {
        failures.push(format!(
            "capture incomplete: {} recorded, {} dropped (want {want_frames}, 0 dropped)",
            rec_summary.frames, rec_stats.frames_dropped
        ));
    }

    // Record overhead (see `GateConfig::overhead_mult` for the bound's
    // rationale; the tap itself is one bounded-queue push per frame).
    let overhead_limit = baseline.stats.mean_ms * cfg.overhead_mult + cfg.overhead_slack_ms;
    if recorded.stats.mean_ms > overhead_limit {
        failures.push(format!(
            "record overhead too high: {:.3} ms vs baseline {:.3} ms (limit {:.3} ms)",
            recorded.stats.mean_ms, baseline.stats.mean_ms, overhead_limit
        ));
    }

    // Fidelity: replayed delivered bytes identical to live delivered
    // bytes, per topic, in order.
    for (name, idx) in [("image", 0), ("pose", 1), ("cloud", 2), ("debug", 3)] {
        if replay.hashes[idx] != recorded.hashes[idx] {
            failures.push(format!(
                "byte diff on `{name}`: live and replayed FNV streams differ \
                 ({} live, {} replayed)",
                recorded.hashes[idx].len(),
                replay.hashes[idx].len()
            ));
        }
    }
    if replay.frames_replayed != want_frames {
        failures.push(format!(
            "replay count {} != recorded count {want_frames}",
            replay.frames_replayed
        ));
    }

    // Zero-copy: every delivered message aliased the bag mapping.
    if !replay.all_in_map {
        failures.push("a replayed message did not alias the bag mapping (hidden copy)".into());
    }

    // Pacing: delivered image frames track the recorded cadence. Gated on
    // the *median* gap error — a single multi-ms scheduler stall (routine
    // on a 1-vCPU VM) inflates the mean for a dozen catch-up frames, but
    // only a systematically broken pacer shifts the median.
    let reader = BagReader::open(&bag_path).expect("reopen bag");
    let mean_gap = reader
        .stamp_range()
        .map(|(lo, hi)| Duration::from_nanos((hi - lo) / reader.frame_count().max(2)))
        .unwrap_or_default();
    let pacing_limit = Duration::from_millis(3).max(mean_gap.mul_f64(0.15));
    if replay.arrival_gap_errors.p50_ms > pacing_limit.as_secs_f64() * 1e3 {
        failures.push(format!(
            "replay pacing off cadence: median gap error {:.3} ms (limit {:?}, mean gap {:?})",
            replay.arrival_gap_errors.p50_ms, pacing_limit, mean_gap
        ));
    }

    // --- report -----------------------------------------------------------
    let payload = (cfg.width * cfg.height * 3) as u64;
    let rows = vec![
        ScenarioReport::from_stats("sfm slam baseline", payload, &baseline.stats),
        ScenarioReport::from_stats("sfm slam live+record", payload, &recorded.stats)
            .with_bag_counts(
                rec_stats.frames_recorded,
                rec_stats.frames_dropped,
                rec_stats.bytes_written,
                0,
            ),
        ScenarioReport::from_stats(
            "sfm slam replay arrival-gap error",
            payload,
            &replay.arrival_gap_errors,
        )
        .with_bag_counts(0, 0, 0, replay.frames_replayed),
    ];
    write_report(out.as_deref(), "bag", &rows).expect("write BENCH_bag.json");
    std::fs::remove_file(&bag_path).ok();

    if failures.is_empty() {
        println!(
            "\nbag gate PASS: capture complete, overhead {:.1}% (limit {:.0}%+{:.0}ms), \
             byte-diff zero on all 4 topics, all frames in-map, pacing within {:?}",
            (recorded.stats.mean_ms / baseline.stats.mean_ms - 1.0) * 100.0,
            (cfg.overhead_mult - 1.0) * 100.0,
            cfg.overhead_slack_ms,
            pacing_limit
        );
    } else {
        println!("\nbag gate FAIL:");
        for f in &failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
