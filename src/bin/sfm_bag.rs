//! `sfm_bag` — record, inspect, verify and replay zero-copy bag files.
//!
//! The bag subsystem (`rossf_bag`) stores already-encoded SFM frames with
//! a footer index; recording taps the publisher's own `Arc`'d frames
//! (zero encode, zero copy) and replay adopts frames in place out of the
//! mapped file.
//!
//! ```text
//! sfm_bag record <out.bag> [--frames N] [--hz H]   # synthetic camera demo
//! sfm_bag info <file.bag>                          # connections + index
//! sfm_bag verify <file.bag>                        # strict structure + frames
//! sfm_bag replay <file.bag> [--rate R] [--loops N] # re-publish recorded topics
//! sfm_bag --self-test                              # end-to-end fidelity check
//! ```
//!
//! Exit status: 0 on success, 1 on any rejection or usage error.

use rossf::bag::{
    fnv1a64, schema_hash, BagReader, BagWriter, OpenMode, Recorder, ReplayOptions, Replayer,
};
use rossf::prelude::*;
use rossf_msg::nav_msgs::SfmOdometry;
use rossf_msg::sensor_msgs::{SfmLaserScan, SfmPointCloud2};
use rossf_ros::time::RosTime;
use rossf_sfm::SfmMessage;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: sfm_bag record <out.bag> [--frames N] [--hz H]\n       \
         sfm_bag info <file.bag>\n       \
         sfm_bag verify <file.bag>\n       \
         sfm_bag replay <file.bag> [--rate R] [--loops N]\n       \
         sfm_bag --self-test"
    );
    std::process::exit(1)
}

/// Parse `--flag value` pairs after the positional arguments.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Record a synthetic camera stream — the in-process stand-in for taping a
/// live robot. Shows the capture path end to end: publisher → tap →
/// writer thread → indexed file.
fn cmd_record(path: &str, args: &[String]) -> bool {
    let frames: u32 = flag(args, "--frames", 30);
    let hz: f64 = flag(args, "--hz", 60.0);
    let master = Master::new();
    let nh = NodeHandle::new(&master, "sfm_bag_record");
    let publisher = nh
        .advertise_with::<SfmBox<SfmImage>>("camera/image", PublisherOptions::new().queue_size(16));
    let recorder = match Recorder::builder()
        .topic::<SfmBox<SfmImage>>("camera/image")
        .queue_capacity(256)
        .start(&nh, path)
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot start recorder: {e}");
            return false;
        }
    };
    if !recorder.wait_attached(1, Duration::from_secs(5)) {
        eprintln!("capture tap never attached");
        return false;
    }
    let gap = Duration::from_secs_f64(1.0 / hz.max(1e-3));
    for seq in 0..frames {
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
        std::thread::sleep(gap);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while recorder.stats().frames_recorded + recorder.stats().frames_dropped < frames as u64 {
        if Instant::now() >= deadline {
            eprintln!("recording stalled");
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = recorder.stats();
    match recorder.finish() {
        Ok(summary) => {
            println!(
                "recorded {} frames ({} payload bytes, {} dropped) to {path}",
                summary.frames, stats.bytes_written, stats.frames_dropped
            );
            true
        }
        Err(e) => {
            eprintln!("recorder failed: {e}");
            false
        }
    }
}

fn cmd_info(path: &str) -> bool {
    let reader = match BagReader::open(std::path::Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return false;
        }
    };
    println!(
        "{path}: {} bytes, {} frames, {} connection(s){}{}",
        reader.size_bytes(),
        reader.frame_count(),
        reader.connections().len(),
        if reader.is_mapped() {
            ", mapped"
        } else {
            ", heap"
        },
        if reader.recovered() {
            format!(
                " — RECOVERED (lost {} tail bytes)",
                reader.lost_tail_bytes()
            )
        } else {
            String::new()
        }
    );
    if let Some((lo, hi)) = reader.stamp_range() {
        println!(
            "  span: {:.3}s ({lo}..{hi} ns)",
            (hi.saturating_sub(lo)) as f64 / 1e9
        );
    }
    for conn in reader.connections() {
        let entries = reader.entries(conn.id);
        let bytes: u64 = entries.iter().map(|e| e.len as u64).sum();
        println!(
            "  #{} {:<24} {:<24} {} frames, {} bytes, schema {:#018x}",
            conn.id,
            conn.topic,
            conn.type_name,
            entries.len(),
            bytes,
            conn.schema_hash
        );
    }
    true
}

/// Schema lookup for the standard message set, so `verify` and `replay`
/// can act on recorded type names.
fn known_schema(type_name: &str) -> Option<&'static rossf_sfm::MessageSchema> {
    match type_name {
        _ if type_name == SfmImage::type_name() => SfmImage::schema(),
        _ if type_name == SfmPointCloud2::type_name() => SfmPointCloud2::schema(),
        _ if type_name == SfmLaserScan::type_name() => SfmLaserScan::schema(),
        _ if type_name == SfmOdometry::type_name() => SfmOdometry::schema(),
        _ if type_name == SfmHeader::type_name() => SfmHeader::schema(),
        _ => None,
    }
}

fn cmd_verify(path: &str) -> bool {
    // Strict: footer must be present and agree with a full re-walk.
    let reader = match BagReader::open_with(std::path::Path::new(path), OpenMode::Strict) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: REJECTED — {e}");
            return false;
        }
    };
    println!(
        "{path}: structure OK ({} frames, {} connection(s))",
        reader.frame_count(),
        reader.connections().len()
    );
    let mut ok = true;
    for conn in reader.connections() {
        let Some(schema) = known_schema(&conn.type_name) else {
            println!(
                "  #{} {}: no known schema for `{}`, skipping frame verification",
                conn.id, conn.topic, conn.type_name
            );
            continue;
        };
        if conn.schema_hash != 0 && conn.schema_hash != schema_hash(schema) {
            println!(
                "  #{} {}: REJECTED — recorded schema {:#018x} != current {:#018x}",
                conn.id,
                conn.topic,
                conn.schema_hash,
                schema_hash(schema)
            );
            ok = false;
            continue;
        }
        let mut rejected = 0usize;
        for entry in reader.entries(conn.id) {
            let bytes = match reader.frame_bytes(entry) {
                Ok(b) => b,
                Err(e) => {
                    println!(
                        "  #{} {}: frame at {}: {e}",
                        conn.id, conn.topic, entry.offset
                    );
                    rejected += 1;
                    continue;
                }
            };
            if let Err(e) = rossf_sfm::verify_frame(schema, bytes) {
                println!(
                    "  #{} {}: frame at {} REJECTED — {e}",
                    conn.id, conn.topic, entry.offset
                );
                rejected += 1;
            }
        }
        if rejected == 0 {
            println!(
                "  #{} {}: {} frames verified against `{}`",
                conn.id,
                conn.topic,
                reader.entries(conn.id).len(),
                conn.type_name
            );
        } else {
            ok = false;
        }
    }
    ok
}

fn cmd_replay(path: &str, args: &[String]) -> bool {
    let rate: f64 = flag(args, "--rate", 1.0);
    let loops: u32 = flag(args, "--loops", 1);
    let mut replayer = match Replayer::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return false;
        }
    };
    let master = Master::new();
    let nh = NodeHandle::new(&master, "sfm_bag_replay");
    let conns: Vec<_> = replayer.reader().connections().to_vec();
    // Publishers must outlive the run; collect them (type-erased by the
    // route closures, so only drop order matters here).
    let mut routed = 0usize;
    for conn in &conns {
        macro_rules! route {
            ($ty:ty) => {{
                let publisher = nh.advertise_with::<SfmShared<$ty>>(
                    &conn.topic,
                    PublisherOptions::new().queue_size(64),
                );
                match replayer.route_adopted::<$ty>(&conn.topic, publisher) {
                    Ok(()) => {
                        routed += 1;
                        true
                    }
                    Err(e) => {
                        eprintln!("cannot route `{}`: {e}", conn.topic);
                        false
                    }
                }
            }};
        }
        let ok = match conn.type_name.as_str() {
            t if t == SfmImage::type_name() => route!(SfmImage),
            t if t == SfmPointCloud2::type_name() => route!(SfmPointCloud2),
            t if t == SfmLaserScan::type_name() => route!(SfmLaserScan),
            t if t == SfmOdometry::type_name() => route!(SfmOdometry),
            t if t == SfmHeader::type_name() => route!(SfmHeader),
            other => {
                eprintln!("skipping `{}`: unknown type `{other}`", conn.topic);
                true
            }
        };
        if !ok {
            return false;
        }
    }
    if routed == 0 {
        eprintln!("nothing to replay");
        return false;
    }
    match replayer.run(ReplayOptions::default().rate(rate).loops(loops)) {
        Ok(stats) => {
            println!(
                "replayed {} frames over {:?} (pacing error mean {:?}, max {:?})",
                stats.frames_replayed,
                stats.duration,
                stats.pacing_mean_abs_error,
                stats.pacing_max_abs_error
            );
            true
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            false
        }
    }
}

/// End-to-end fidelity check in a temp directory: record a live stream,
/// verify the file, replay it zero-copy, and prove the delivered bytes are
/// identical; then prove the rejection paths (bad magic, torn tail,
/// schema-fingerprint mismatch) fire.
fn self_test() -> bool {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("sfm_bag_selftest_{}.bag", std::process::id()));
    let path_str = path.to_string_lossy().to_string();
    let mut ok = true;
    const N: u32 = 10;

    // --- record a live synthetic stream ---------------------------------
    let master = Master::new();
    let nh = NodeHandle::new(&master, "sfm_bag_selftest");
    let publisher =
        nh.advertise_with::<SfmBox<SfmImage>>("cam/image", PublisherOptions::new().queue_size(16));
    let recorder = Recorder::builder()
        .topic::<SfmBox<SfmImage>>("cam/image")
        .start(&nh, &path)
        .expect("start recorder");
    assert!(recorder.wait_attached(1, Duration::from_secs(5)));
    let mut published = Vec::new();
    for seq in 0..N {
        let mut img = SfmBox::<SfmImage>::new();
        img.header.seq = seq;
        img.header.frame_id.assign("cam0");
        img.height = 8;
        img.width = 8;
        img.encoding.assign("rgb8");
        img.step = 24;
        img.data.resize(8 * 24);
        for (i, b) in img.data.as_mut_slice().iter_mut().enumerate() {
            *b = (seq as u8).wrapping_mul(37).wrapping_add(i as u8);
        }
        published.push(fnv1a64(img.publish_handle().as_slice()));
        publisher.publish(&img);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while recorder.stats().frames_recorded < N as u64 {
        assert!(Instant::now() < deadline, "recording stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = recorder.stats();
    let summary = recorder.finish().expect("finish bag");
    println!(
        "self-test record: {} frames, {} bytes, {} dropped",
        summary.frames, stats.bytes_written, stats.frames_dropped
    );
    ok &= summary.frames == N as u64 && stats.frames_dropped == 0;

    // --- info + strict verify --------------------------------------------
    ok &= cmd_info(&path_str);
    ok &= cmd_verify(&path_str);
    {
        let reader = BagReader::open(&path).expect("reopen");
        let conn = reader.connection("cam/image").expect("connection");
        let want = schema_hash(SfmImage::schema().expect("Image schema"));
        if conn.schema_hash != want {
            println!("self-test: recorded schema hash mismatch");
            ok = false;
        }
    }

    // --- zero-copy replay, byte-for-byte ---------------------------------
    let mut replayer = Replayer::open(&path).expect("open for replay");
    let range = replayer.reader().addr_range();
    let replay_pub = nh.advertise_with::<SfmShared<SfmImage>>(
        "cam/replay",
        PublisherOptions::new().queue_size(16),
    );
    let seen = Arc::new(Mutex::new(Vec::<(u64, bool)>::new()));
    let seen_cb = Arc::clone(&seen);
    let _sub = nh.subscribe_with(
        "cam/replay",
        SubscriberOptions::new(),
        move |img: SfmShared<SfmImage>| {
            let base = img.base();
            let hash = fnv1a64(img.publish_handle().as_slice());
            seen_cb
                .lock()
                .unwrap()
                .push((hash, base >= range.0 && base < range.1));
        },
    );
    nh.wait_for_subscribers(&replay_pub, 1);
    replayer
        .route_adopted::<SfmImage>("cam/image", replay_pub)
        .expect("route");
    let rstats = replayer
        .run(ReplayOptions::default().rate(1000.0).verify(true))
        .expect("replay run");
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.lock().unwrap().len() < N as usize {
        assert!(Instant::now() < deadline, "replay delivery stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    {
        let seen = seen.lock().unwrap();
        let hashes: Vec<u64> = seen.iter().map(|(h, _)| *h).collect();
        if hashes != published {
            println!("self-test: replayed bytes differ from recorded bytes");
            ok = false;
        } else {
            println!(
                "self-test replay: {} frames byte-identical (FNV), all in-map: {}",
                rstats.frames_replayed,
                seen.iter().all(|(_, m)| *m)
            );
        }
        ok &= seen.iter().all(|(_, in_map)| *in_map);
    }

    // --- rejection paths --------------------------------------------------
    let bytes = std::fs::read(&path).expect("read bag back");
    let mut mangled = bytes.clone();
    mangled[0] ^= 0xff;
    ok &= match BagReader::from_bytes(&mangled) {
        Err(e) => {
            println!("self-test: bad magic rejected — {e}");
            true
        }
        Ok(_) => {
            println!("self-test: bad magic NOT rejected");
            false
        }
    };
    let torn = &bytes[..bytes.len() - 32];
    ok &= match BagReader::from_bytes_strict(torn) {
        Err(e) => {
            println!("self-test: torn tail rejected in strict mode — {e}");
            true
        }
        Ok(_) => {
            println!("self-test: torn tail NOT rejected in strict mode");
            false
        }
    };
    ok &= match BagReader::from_bytes(torn) {
        Ok(r) if r.recovered() => {
            println!(
                "self-test: torn tail recovered {} complete frames in tolerant mode",
                r.frame_count()
            );
            true
        }
        other => {
            println!(
                "self-test: tolerant recovery failed ({:?})",
                other.map(|r| r.frame_count())
            );
            false
        }
    };

    // A bag whose connection claims the right type name but a different
    // schema fingerprint must refuse an adopted route.
    let fake = dir.join(format!("sfm_bag_selftest_fake_{}.bag", std::process::id()));
    {
        let mut w = BagWriter::create_path(&fake).expect("fake bag");
        let conn = w
            .add_connection("cam/image", SfmImage::type_name(), 0xdead_beef_dead_beef)
            .unwrap();
        let mut img = SfmBox::<SfmImage>::new();
        img.height = 1;
        img.width = 1;
        w.append(conn, 1, img.publish_handle().as_slice()).unwrap();
        w.finish().unwrap();
    }
    let mut fake_replayer = Replayer::open(&fake).expect("open fake");
    let fake_pub =
        nh.advertise_with::<SfmShared<SfmImage>>("cam/fake", PublisherOptions::new().queue_size(4));
    ok &= match fake_replayer.route_adopted::<SfmImage>("cam/image", fake_pub) {
        Err(e) => {
            println!("self-test: schema mismatch rejected — {e}");
            true
        }
        Ok(()) => {
            println!("self-test: schema mismatch NOT rejected");
            false
        }
    };

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&fake).ok();
    println!("self-test: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("record") => match args.get(1) {
            Some(path) => cmd_record(path, &args[2..]),
            None => usage(),
        },
        Some("info") => match args.get(1) {
            Some(path) => cmd_info(path),
            None => usage(),
        },
        Some("verify") => match args.get(1) {
            Some(path) => cmd_verify(path),
            None => usage(),
        },
        Some("replay") => match args.get(1) {
            Some(path) => cmd_replay(path, &args[2..]),
            None => usage(),
        },
        Some("--self-test") => self_test(),
        _ => usage(),
    };
    if !ok {
        std::process::exit(1);
    }
}
