//! Bag record/replay: capture a live serialization-free image stream to an
//! indexed bag file, then replay it zero-copy into a second topology — the
//! `rosbag` workflow over this middleware. Recording an SFM topic costs no
//! serialization: the capture tap shares the publisher's frame and the
//! writer thread appends those bytes verbatim. Replay maps the file and
//! adopts each frame in place, so the replayed messages alias the mapping.
//!
//! ```text
//! cargo run --example bag_tools
//! ```

use rossf::bag::{Recorder, ReplayOptions, Replayer};
use rossf::prelude::*;
use rossf_ros::time::RosTime;
use rossf_sfm::SfmBox;
use std::sync::mpsc;
use std::time::Duration;

const FRAMES: u32 = 6;

fn main() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "bag_demo");
    let path = std::env::temp_dir().join("rossf_demo.bag");

    // === record ==========================================================
    let publisher =
        nh.advertise_with::<SfmBox<SfmImage>>("camera/live", PublisherOptions::new().queue_size(8));
    let recorder = Recorder::builder()
        .topic::<SfmBox<SfmImage>>("camera/live")
        .start(&nh, &path)
        .expect("start recorder");
    assert!(
        recorder.wait_attached(1, Duration::from_secs(10)),
        "capture tap attaches to the live publisher"
    );

    for seq in 0..FRAMES {
        let mut img = SfmBox::<SfmImage>::new();
        img.header.seq = seq;
        img.header.stamp = RosTime::now();
        img.header.frame_id.assign("camera");
        img.height = 120;
        img.width = 160;
        img.encoding.assign("rgb8");
        img.step = 160 * 3;
        img.data.resize(160 * 120 * 3);
        img.data.as_mut_slice().fill(seq as u8);
        publisher.publish(&img);
    }
    // Wait for the writer thread to drain, then close the bag (writes the
    // footer index).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while recorder.stats().frames_recorded < FRAMES as u64 {
        assert!(std::time::Instant::now() < deadline, "recording stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    let dropped = recorder.stats().frames_dropped;
    let summary = recorder.finish().expect("close bag");
    println!(
        "recorded {} messages from `camera/live` ({} bytes on disk, {dropped} dropped)",
        summary.frames, summary.bytes
    );

    // === replay ==========================================================
    // A replayer maps the bag; `route_adopted` re-publishes each recorded
    // frame in place after checking the topic's recorded type and schema
    // hash against the publisher's.
    let mut replayer = Replayer::open(&path).expect("open bag");
    let replay_pub = nh.advertise_with::<SfmShared<SfmImage>>(
        "camera/replayed",
        PublisherOptions::new().queue_size(8),
    );
    let (tx, rx) = mpsc::channel();
    let map_range = replayer.reader().addr_range();
    let _sub = nh.subscribe_with(
        "camera/replayed",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmImage>| {
            let in_map = m.base() >= map_range.0 && m.base() < map_range.1;
            tx.send((m.header.seq, m.data[0], in_map)).unwrap();
        },
    );
    nh.wait_for_subscribers(&replay_pub, 1);
    replayer
        .route_adopted::<SfmImage>("camera/live", replay_pub)
        .expect("route recorded topic");
    // `rate(0 < r)` scales the recorded timing; 100x compresses the demo's
    // cadence while keeping the ordering and inter-frame ratios.
    let stats = replayer
        .run(ReplayOptions::default().rate(100.0).verify(true))
        .expect("replay bag");
    println!(
        "replayed {} messages onto `camera/replayed` in {:?}",
        stats.frames_replayed, stats.duration
    );
    for seq in 0..FRAMES {
        let (got_seq, probe, in_map) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("replayed frame arrives");
        assert_eq!(got_seq, seq);
        assert_eq!(probe, seq as u8, "pixel content survived the bag");
        assert!(in_map, "replayed frame aliases the bag mapping (no copy)");
    }
    std::fs::remove_file(&path).ok();
    println!("all replayed frames verified (zero-copy).");
}
