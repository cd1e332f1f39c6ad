//! End-to-end field projection: a subscriber that declares a field subset
//! receives compact sub-frames over TCP (byte-identical selected fields,
//! empty unprojected ones), zero-copy tiers keep delivering full frames,
//! and peers that never negotiated the capability are untouched.

use rossf_msg::sensor_msgs::{Image, SfmImage};
use rossf_ros::{
    MachineId, Master, NodeHandle, Publisher, PublisherOptions, RosError, SubscriberOptions,
    TransportConfig,
};
use rossf_sfm::{FieldPath, SfmBox, SfmShared};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Force every link onto the socket path and verify each received frame
/// against its (projected) schema.
fn tcp_config() -> TransportConfig {
    TransportConfig {
        enable_fastpath: false,
        validate_on_receive: true,
        ..TransportConfig::default()
    }
}

fn image(rows: u32, cols: u32) -> SfmBox<SfmImage> {
    let mut img = SfmBox::<SfmImage>::new();
    img.header.seq = 7;
    img.header.stamp.sec = 123;
    img.header.stamp.nsec = 456;
    img.header.frame_id.assign("cam0");
    img.height = rows;
    img.width = cols;
    img.encoding.assign("mono8");
    img.step = cols;
    img.data.resize((rows * cols) as usize);
    img.data.as_mut_slice().fill(0xAB);
    img
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A projected TCP subscription delivers the selected fields byte-identically,
/// reads unprojected variable fields as empty, and moves far fewer bytes
/// than the full frame.
#[test]
fn projected_tcp_subscription_delivers_selected_fields() {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "proj", MachineId::A, tcp_config());
    let publisher: Publisher<SfmBox<SfmImage>> =
        nh.advertise_with("proj/image", PublisherOptions::new().queue_size(8));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh.subscribe_with(
        "proj/image",
        SubscriberOptions::new().project(&["header.stamp", "height", "width"]),
        move |m: SfmShared<SfmImage>| {
            assert_eq!(m.header.stamp.sec, 123);
            assert_eq!(m.header.stamp.nsec, 456);
            assert_eq!(m.height, 64);
            assert_eq!(m.width, 64);
            // Unprojected variable fields are valid-but-unassigned views.
            assert_eq!(m.data.len(), 0, "unprojected vec reads as empty");
            assert_eq!(m.encoding.as_str(), "", "unprojected string is empty");
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    assert_eq!(
        sub.projection().expect("projection resolved").spec(),
        "header.stamp,height,width"
    );

    nh.wait_for_subscribers(&publisher, 1);
    let n = 5u64;
    for _ in 0..n {
        publisher.publish(&image(64, 64));
    }
    wait_until("projected frames delivered", || {
        seen.load(Ordering::SeqCst) == n
    });

    let snap = master.metrics().topic("proj/image").snapshot();
    assert_eq!(snap.projection_handshakes, 1, "capability negotiated once");
    assert_eq!(snap.projection_frames, n, "every frame was sliced");
    assert_eq!(snap.verify_rejects, 0, "sub-frames pass projected verify");
    assert_eq!(snap.decode_errors, 0);
    let full = image(64, 64).whole_len() as u64;
    assert!(
        snap.bytes_sent < full * n / 5,
        "projected wire bytes ({}) should be well under a fifth of full frames ({})",
        snap.bytes_sent,
        full * n
    );
    assert_eq!(
        snap.bytes_received, snap.bytes_sent,
        "both ends account the same sliced byte count"
    );
}

/// One publisher fanning out to a projected TCP link, a full TCP link and a
/// zero-copy fastpath link at once: each tier sees its own frame shape and
/// the selected fields agree everywhere.
#[test]
fn mixed_fanout_serves_projected_full_and_fastpath_links() {
    let master = Master::new();
    // The publisher keeps the fast path enabled (so the in-process
    // subscriber below attaches zero-copy); the TCP subscribers force the
    // socket path through their own node config.
    let pub_config = TransportConfig {
        validate_on_receive: true,
        ..TransportConfig::default()
    };
    let nh_pub = NodeHandle::with_config(&master, "mix_pub", MachineId::A, pub_config);
    let publisher: Publisher<SfmBox<SfmImage>> =
        nh_pub.advertise_with("mix/image", PublisherOptions::new().queue_size(8));

    let proj_seen = Arc::new(AtomicU64::new(0));
    let full_seen = Arc::new(AtomicU64::new(0));
    let fast_seen = Arc::new(AtomicU64::new(0));

    let nh_tcp = NodeHandle::with_config(&master, "mix_tcp", MachineId::A, tcp_config());
    let c = Arc::clone(&proj_seen);
    let _proj_sub = nh_tcp.subscribe_with(
        "mix/image",
        SubscriberOptions::new().project(&["header", "height", "width", "step"]),
        move |m: SfmShared<SfmImage>| {
            assert_eq!((m.height, m.width, m.step), (48, 32, 32));
            assert_eq!(
                m.header.frame_id.as_str(),
                "cam0",
                "struct field keeps its content"
            );
            assert_eq!(m.data.len(), 0);
            c.fetch_add(1, Ordering::SeqCst);
        },
    );
    let c = Arc::clone(&full_seen);
    let _full_sub = nh_tcp.subscribe_with(
        "mix/image",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmImage>| {
            assert_eq!(m.data.len(), 48 * 32, "full link keeps the payload");
            assert_eq!(m.data.as_slice()[0], 0xAB);
            c.fetch_add(1, Ordering::SeqCst);
        },
    );
    // Same process, default config: this one attaches over the fast path
    // and must keep getting the publisher's full frame by pointer.
    let nh_fast = NodeHandle::new(&master, "mix_fast");
    let c = Arc::clone(&fast_seen);
    let _fast_sub = nh_fast.subscribe_with(
        "mix/image",
        SubscriberOptions::new().project(&["height"]),
        move |m: SfmShared<SfmImage>| {
            assert_eq!(m.height, 48);
            assert_eq!(
                m.data.len(),
                48 * 32,
                "zero-copy tier delivers the full frame"
            );
            c.fetch_add(1, Ordering::SeqCst);
        },
    );

    nh_pub.wait_for_subscribers(&publisher, 3);
    let n = 4u64;
    for _ in 0..n {
        publisher.publish(&image(48, 32));
    }
    wait_until("all three links delivered", || {
        proj_seen.load(Ordering::SeqCst) == n
            && full_seen.load(Ordering::SeqCst) == n
            && fast_seen.load(Ordering::SeqCst) == n
    });

    let snap = master.metrics().topic("mix/image").snapshot();
    assert_eq!(snap.projection_handshakes, 1, "only the projected TCP link");
    assert_eq!(snap.projection_frames, n);
    assert_eq!(snap.fastpath_frames, n);
    assert_eq!(snap.verify_rejects, 0);
    assert_eq!(snap.decode_errors, 0);
}

/// The typed accessor reports unprojected fields as absent (not garbage,
/// not empty-success) when asked through the projection descriptor.
#[test]
fn field_bytes_reports_unprojected_fields_absent() {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "absent", MachineId::A, tcp_config());
    let publisher: Publisher<SfmBox<SfmImage>> =
        nh.advertise_with("absent/image", PublisherOptions::new().queue_size(8));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let frames: Arc<std::sync::Mutex<Vec<Vec<u8>>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let frames_cb = Arc::clone(&frames);
    let sub = nh.subscribe_with(
        "absent/image",
        SubscriberOptions::new().project(&["height", "encoding"]),
        move |m: SfmShared<SfmImage>| {
            frames_cb.lock().unwrap().push(m.as_bytes().to_vec());
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh.wait_for_subscribers(&publisher, 1);
    publisher.publish(&image(16, 16));
    wait_until("frame delivered", || seen.load(Ordering::SeqCst) == 1);

    let projection = sub.projection().expect("resolved");
    let frame = frames.lock().unwrap()[0].clone();
    let height: FieldPath = "height".parse().unwrap();
    let encoding: FieldPath = "encoding".parse().unwrap();
    let data: FieldPath = "data".parse().unwrap();
    assert_eq!(
        projection.field_bytes(&frame, &height).unwrap(),
        16u32.to_ne_bytes()
    );
    // String content arrives as its stored bytes: the text plus the
    // NUL/alignment padding the frame carries for it.
    let enc = projection.field_bytes(&frame, &encoding).unwrap();
    assert!(enc.starts_with(b"mono8"), "got {enc:?}");
    assert!(enc[5..].iter().all(|&b| b == 0));
    let err = projection.field_bytes(&frame, &data).unwrap_err();
    assert_eq!(err.path, "data");
    assert!(err.to_string().contains("data"));
}

/// Projection requests fail loudly at subscribe time when they cannot be
/// honored: unresolvable paths and types without a layout schema.
#[test]
fn unresolvable_projections_are_rejected_at_subscribe_time() {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "reject", MachineId::A, tcp_config());

    let err = nh
        .try_subscribe_with(
            "reject/image",
            SubscriberOptions::new().project(&["no_such_field"]),
            |_m: SfmShared<SfmImage>| {},
        )
        .expect_err("bogus path must not subscribe");
    assert!(matches!(err, RosError::Projection(_)), "got {err:?}");

    // Plain (serialized) messages carry no SFM layout schema: the request
    // is refused instead of silently delivering full frames.
    let err = nh
        .try_subscribe_with(
            "reject/plain",
            SubscriberOptions::new().project(&["height"]),
            |_m: Arc<Image>| {},
        )
        .expect_err("schema-less type must not project");
    assert!(matches!(err, RosError::Rejected(_)), "got {err:?}");
}

/// A publisher that never learned the capability (no schema) keeps serving
/// subscribers that did not ask for one — the header field is simply
/// ignored and full frames flow.
#[test]
fn full_frame_links_are_untouched_by_the_capability() {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "plainfull", MachineId::A, tcp_config());
    let publisher: Publisher<SfmBox<SfmImage>> =
        nh.advertise_with("plainfull/image", PublisherOptions::new().queue_size(8));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let _sub = nh.subscribe_with(
        "plainfull/image",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmImage>| {
            assert_eq!(m.data.len(), 16 * 16);
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh.wait_for_subscribers(&publisher, 1);
    publisher.publish(&image(16, 16));
    wait_until("full frame delivered", || seen.load(Ordering::SeqCst) == 1);
    let snap = master.metrics().topic("plainfull/image").snapshot();
    assert_eq!(snap.projection_handshakes, 0);
    assert_eq!(snap.projection_frames, 0);
}
