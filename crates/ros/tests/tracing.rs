//! End-to-end tracing: timeline monotonicity on every transport tier,
//! trace-id survival across link faults and reconnects, the zero-overhead
//! guarantee for untraced endpoints, and the consolidated options/stats
//! API.
//!
//! The trace collector is process-global, so every test takes
//! [`TRACER_LOCK`] and resets the collector before driving traffic; event
//! assertions filter by topic to stay insensitive to leftover endpoints.

use rossf_ros::{
    MachineId, Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions, TransportConfig,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use rossf_trace::{check_monotone, tracer, Stage, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static TRACER_LOCK: Mutex<()> = Mutex::new(());

#[repr(C)]
#[derive(Debug)]
struct Payload {
    seq: u32,
    _pad: u32,
    data: SfmVec<u8>,
}
unsafe impl SfmPod for Payload {}
impl SfmValidate for Payload {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.data.validate_in(base, len)
    }
}
unsafe impl SfmMessage for Payload {
    fn type_name() -> &'static str {
        "test/TracePayload"
    }
    fn max_size() -> usize {
        4096
    }
}

fn msg(seq: u32) -> SfmBox<Payload> {
    let mut m = SfmBox::<Payload>::new();
    m.seq = seq;
    m.data.resize(64);
    m
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn topic_events(topic: &str) -> Vec<TraceEvent> {
    tracer()
        .events()
        .into_iter()
        .filter(|e| &*e.topic == topic)
        .collect()
}

fn stages_seen(events: &[TraceEvent]) -> Vec<Stage> {
    let mut stages: Vec<Stage> = events.iter().map(|e| e.stage).collect();
    stages.sort_unstable();
    stages.dedup();
    stages
}

/// Fast-path handoff: publisher-side spans are recorded before the frame is
/// deposited, subscriber-side spans after it is taken out, so the combined
/// stream is causally ordered per trace id.
#[test]
fn fastpath_timeline_is_monotone() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tracer().reset();
    let master = Master::new();
    let config = TransportConfig {
        validate_on_receive: true,
        ..TransportConfig::default()
    };
    let nh_pub = NodeHandle::with_config(&master, "pub", MachineId::A, config.clone());
    let nh_sub = NodeHandle::with_config(&master, "sub", MachineId::A, config);
    let publisher: Publisher<SfmBox<Payload>> = nh_pub.advertise_with(
        "trace/fastpath",
        PublisherOptions::new().queue_size(64).trace(true),
    );
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let _sub = nh_sub.subscribe_with(
        "trace/fastpath",
        SubscriberOptions::new().trace(true),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);
    for seq in 0..10 {
        publisher.publish(&msg(seq));
        std::thread::sleep(Duration::from_millis(1));
    }
    wait_until("10 fastpath frames", || seen.load(Ordering::SeqCst) == 10);

    let events = topic_events("trace/fastpath");
    check_monotone(&events).expect("fastpath timeline must be monotone");
    assert_eq!(
        stages_seen(&events),
        [
            Stage::Alloc,
            Stage::Encode,
            Stage::Enqueue,
            Stage::Verify,
            Stage::Adopt,
            Stage::Callback
        ],
        "fastpath skips the socket stages only"
    );
}

/// Forced-TCP loopback: both sides of the connection record causally
/// ordered spans. The two sides race only at the wire_write/wire_read
/// boundary (a socket write returning and the peer's read completing are
/// concurrent), so each side's stream is checked on its own.
#[test]
fn tcp_timeline_is_monotone_per_side() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tracer().reset();
    let master = Master::new();
    let config = TransportConfig {
        validate_on_receive: true,
        enable_fastpath: false,
        ..TransportConfig::default()
    };
    let nh_pub = NodeHandle::with_config(&master, "pub", MachineId::A, config.clone());
    let nh_sub = NodeHandle::with_config(&master, "sub", MachineId::A, config);
    let publisher: Publisher<SfmBox<Payload>> = nh_pub.advertise_with(
        "trace/tcp",
        PublisherOptions::new().queue_size(64).trace(true),
    );
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let _sub = nh_sub.subscribe_with(
        "trace/tcp",
        SubscriberOptions::new().trace(true),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);
    for seq in 0..10 {
        publisher.publish(&msg(seq));
        std::thread::sleep(Duration::from_millis(1));
    }
    wait_until("10 tcp frames", || seen.load(Ordering::SeqCst) == 10);

    let events = topic_events("trace/tcp");
    let pub_side: Vec<TraceEvent> = events
        .iter()
        .filter(|e| e.stage <= Stage::WireWrite)
        .cloned()
        .collect();
    let sub_side: Vec<TraceEvent> = events
        .iter()
        .filter(|e| e.stage >= Stage::WireRead && e.stage != Stage::Fault)
        .cloned()
        .collect();
    check_monotone(&pub_side).expect("publisher-side timeline must be monotone");
    check_monotone(&sub_side).expect("subscriber-side timeline must be monotone");
    assert_eq!(
        stages_seen(&events),
        [
            Stage::Alloc,
            Stage::Encode,
            Stage::Enqueue,
            Stage::WireWrite,
            Stage::WireRead,
            Stage::Verify,
            Stage::Adopt,
            Stage::Callback
        ],
        "forced TCP crosses every pipeline stage"
    );
    // Every message that reached the callback kept its identity across the
    // wire, in its trace trailer: subscriber-side spans never carry id 0.
    assert!(sub_side.iter().all(|e| e.trace_id != 0));
}

/// Trace ids survive a severed link and the subsequent reconnect: the new
/// connection is granted its own trace trailer in its handshake, so
/// post-heal frames are still attributed end to end. The injected sever is
/// tagged into the same event stream.
#[test]
fn trace_ids_survive_reconnect() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tracer().reset();
    let master = Master::new();
    let fault = master.links().inject(MachineId::A, MachineId::B);
    let config = TransportConfig {
        enable_fastpath: false,
        backoff: rossf_ros::BackoffPolicy {
            initial: Duration::from_millis(2),
            max: Duration::from_millis(40),
        },
        ..TransportConfig::default()
    };
    let nh_pub = NodeHandle::with_config(&master, "pub", MachineId::A, config.clone());
    let nh_sub = NodeHandle::with_config(&master, "sub", MachineId::B, config);
    let publisher: Publisher<SfmBox<Payload>> = nh_pub.advertise_with(
        "trace/reconnect",
        PublisherOptions::new().queue_size(64).trace(true),
    );
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh_sub.subscribe_with(
        "trace/reconnect",
        SubscriberOptions::new().trace(true),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);

    let mut seq = 0u32;
    let mut publish_until = |cond: &dyn Fn() -> bool, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "timeout publishing until {what}");
            publisher.publish(&msg(seq));
            seq += 1;
            std::thread::sleep(Duration::from_millis(3));
        }
    };

    publish_until(&|| seen.load(Ordering::SeqCst) >= 3, "first frames");
    let max_id_before = topic_events("trace/reconnect")
        .iter()
        .filter(|e| e.stage == Stage::WireRead)
        .map(|e| e.trace_id)
        .max()
        .expect("pre-fault frames must be correlated");

    fault.sever_now();
    publish_until(
        &|| sub.stats().reconnect_attempts >= 2,
        "reconnect attempts",
    );
    fault.heal();
    let resumed_from = seen.load(Ordering::SeqCst);
    publish_until(
        &|| seen.load(Ordering::SeqCst) > resumed_from,
        "delivery after heal",
    );
    assert!(sub.stats().reconnects >= 1);

    let events = topic_events("trace/reconnect");
    let post_heal_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.stage == Stage::WireRead && e.trace_id > max_id_before)
        .map(|e| e.trace_id)
        .collect();
    assert!(
        !post_heal_ids.is_empty(),
        "frames delivered over the new connection must still be correlated"
    );
    // The sever was tagged into the event stream with trace id 0.
    assert!(
        tracer()
            .events()
            .iter()
            .any(|e| e.stage == Stage::Fault && e.trace_id == 0),
        "injected fault must appear in the timeline"
    );
}

/// A fault event names the tier of the link it hit: a drop on a fast-path
/// link is tagged `Fastpath`, as the gate of that link applied it.
#[test]
fn a_fault_event_names_the_tier_of_its_link() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tracer().reset();
    let master = Master::new();
    master
        .links()
        .inject(MachineId::A, MachineId::A)
        .drop_frame(1);
    let nh = NodeHandle::new(&master, "faulty");
    let publisher: Publisher<SfmBox<Payload>> = nh.advertise_with(
        "trace/fault_tier",
        PublisherOptions::new().queue_size(8).trace(true),
    );
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let _sub = nh.subscribe_with(
        "trace/fault_tier",
        SubscriberOptions::new(),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh.wait_for_subscribers(&publisher, 1);
    for seq in 0..3 {
        publisher.publish(&msg(seq));
    }
    wait_until("the two surviving frames", || {
        seen.load(Ordering::SeqCst) == 2
    });
    assert!(master.metrics().topic("trace/fault_tier").fastpath_frames > 0);
    let fault_tiers: Vec<_> = tracer()
        .events()
        .iter()
        .filter(|e| e.stage == Stage::Fault)
        .map(|e| e.tier)
        .collect();
    assert_eq!(fault_tiers, [rossf_trace::Tier::Fastpath]);
}

/// The zero-overhead guarantee: endpoints without tracing enabled perform
/// no histogram writes at all — not "cheap writes", none.
#[test]
fn untraced_endpoints_write_no_histograms() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tracer().reset();
    let master = Master::new();
    let nh_pub = NodeHandle::new(&master, "pub");
    let nh_sub = NodeHandle::new(&master, "sub");
    let baseline = tracer().hist_writes();

    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("trace/off", PublisherOptions::new().queue_size(64));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let _sub = nh_sub.subscribe_with(
        "trace/off",
        SubscriberOptions::new(),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);
    for seq in 0..20 {
        publisher.publish(&msg(seq));
        std::thread::sleep(Duration::from_millis(1));
    }
    wait_until("delivery to drain", || {
        seen.load(Ordering::SeqCst)
            == publisher.stats().published - publisher.stats().frames_dropped
    });

    assert_eq!(
        tracer().hist_writes(),
        baseline,
        "untraced traffic must record zero histogram samples"
    );
}

/// Log2 histogram bucket boundaries through the public API: samples landing
/// on exact powers of two stay in their own bucket, one below lands in the
/// previous one, and the recorded extremes are exact.
#[test]
fn histogram_bucket_boundaries_are_exact() {
    use rossf_trace::{bucket_floor, bucket_index, StageHist};
    for exp in 1..20u32 {
        let v = 1u64 << exp;
        assert_eq!(
            bucket_index(v - 1) + 1,
            bucket_index(v),
            "2^{exp} must open a new bucket"
        );
        assert_eq!(
            bucket_floor(bucket_index(v)),
            v,
            "bucket floor is the power"
        );
    }
    let h = StageHist::new();
    h.record(1023);
    h.record(1024);
    h.record(1025);
    let snap = h.snapshot();
    assert_eq!(snap.count, 3);
    assert_eq!((snap.min_ns, snap.max_ns), (1023, 1025));
    assert_eq!(snap.buckets[bucket_index(1023)], 1);
    assert_eq!(
        snap.buckets[bucket_index(1024)],
        2,
        "1024 and 1025 share a bucket"
    );
}

/// The stats snapshots agree with the remaining accessor and the traffic.
#[test]
fn stats_snapshots_match_individual_accessors() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let master = Master::new();
    let nh_pub = NodeHandle::new(&master, "pub");
    let nh_sub = NodeHandle::new(&master, "sub");
    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("trace/stats", PublisherOptions::new().queue_size(16));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh_sub.subscribe_with(
        "trace/stats",
        SubscriberOptions::new(),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);
    for seq in 0..5 {
        publisher.publish(&msg(seq));
    }
    wait_until("5 frames", || seen.load(Ordering::SeqCst) == 5);

    let ps = publisher.stats();
    assert_eq!(publisher.subscriber_count(), 1);
    assert_eq!(ps.published, 5);

    let ss = sub.stats();
    assert_eq!(ss.frames_received, 5);
    assert_eq!(ss.decode_errors, 0);
    assert_eq!(ss.verify_rejects, 0);
    assert_eq!(ss.handshakes, 1);
    assert_eq!(
        master.metrics().topic("trace/stats").frames_received,
        ss.frames_received
    );
}
