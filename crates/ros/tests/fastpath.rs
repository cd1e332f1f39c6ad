//! The zero-copy same-machine fast path: pointer-identical delivery,
//! backpressure parity with the TCP path, transparent fallback, and a
//! clean message life cycle under fan-out. Fault parity is `reconnect.rs`'s
//! per-tier matrix.

use rossf_ros::{
    BackoffPolicy, MachineId, Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions,
    TransportConfig,
};
use rossf_sfm::{mm, SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

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
        "test/FastpathPayload"
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

fn fast_reconnect(enable_fastpath: bool) -> TransportConfig {
    TransportConfig {
        enable_fastpath,
        backoff: BackoffPolicy {
            initial: Duration::from_millis(2),
            max: Duration::from_millis(40),
        },
        ..TransportConfig::default()
    }
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The zero-copy proof of the acceptance criteria: the object the callback
/// receives points at the *same* `SfmAlloc` the publisher filled — no
/// socket, no copy, no re-materialization — and the fast-path counters
/// record the handshake and every frame.
#[test]
fn delivery_is_pointer_identical_to_the_published_buffer() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "zc");
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("fastpath/zero_copy", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "fastpath/zero_copy",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            tx.send((m.base(), m.seq, m.data.len())).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let adoptions_before = mm().stats().shared_adoptions;
    let m = msg(7);
    let pub_base = m.base();
    publisher.publish(&m);
    let (sub_base, seq, len) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(
        sub_base, pub_base,
        "subscriber shares the publisher's allocation"
    );
    assert_eq!((seq, len), (7, 64));
    assert!(mm().stats().shared_adoptions > adoptions_before);

    let snap = master.metrics().topic("fastpath/zero_copy");
    assert!(snap.fastpath_handshakes >= 1, "attach counted as fast-path");
    assert!(
        snap.fastpath_frames >= 1,
        "frame delivered by pointer handoff"
    );
    assert_eq!(snap.fastpath_frames, snap.frames_sent);
}

/// Three subscribers share every published allocation; two unsubscribe
/// early. The lifecycle sanitizer must see no double releases, no
/// expand-after-release, and no refcount anomalies — the shared adoptions
/// never touch the publisher's record.
#[test]
fn fanout_with_early_unsubscribes_keeps_lifecycle_clean() {
    let prev_policy = rossf_sfm::set_alert_policy(rossf_sfm::AlertPolicy::Count);
    mm().set_sanitizer(true);

    let master = Master::new();
    let nh = NodeHandle::new(&master, "fanout");
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("fastpath/fanout", PublisherOptions::new().queue_size(16));
    let counters: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut subs = Vec::new();
    for c in &counters {
        let c = Arc::clone(c);
        subs.push(nh.subscribe_with(
            "fastpath/fanout",
            SubscriberOptions::new(),
            move |m: SfmShared<Payload>| {
                assert_eq!(m.data.len(), 64);
                c.fetch_add(1, Ordering::SeqCst);
            },
        ));
    }
    nh.wait_for_subscribers(&publisher, 3);

    let adoptions_before = mm().stats().shared_adoptions;
    for seq in 0..4 {
        publisher.publish(&msg(seq));
    }
    wait_until("all three saw the first wave", || {
        counters.iter().all(|c| c.load(Ordering::SeqCst) >= 4)
    });

    // Two subscribers leave mid-stream; the third keeps receiving.
    subs.pop();
    subs.pop();
    wait_until("publisher pruned to one", || {
        publisher.publish(&msg(99));
        publisher.subscriber_count() == 1
    });
    let survivor_before = counters[0].load(Ordering::SeqCst);
    publisher.publish(&msg(100));
    wait_until("survivor still receiving", || {
        counters[0].load(Ordering::SeqCst) > survivor_before
    });
    drop(subs);
    drop(publisher);

    assert!(mm().stats().shared_adoptions >= adoptions_before + 3 * 4);
    let report = mm().sanitizer_report().expect("sanitizer enabled");
    assert_eq!(report.double_release, 0);
    assert_eq!(report.expand_after_release, 0);
    assert_eq!(report.refcount_anomaly, 0);

    mm().set_sanitizer(false);
    rossf_sfm::set_alert_policy(prev_policy);
}

/// Runs one single-message round trip and returns the received bytes plus
/// the topic's fast-path frame count.
fn roundtrip_bytes(pub_fastpath: bool, sub_fastpath: bool) -> (Vec<u8>, u64) {
    let master = Master::new();
    let nh_pub =
        NodeHandle::with_config(&master, "pub", MachineId::A, fast_reconnect(pub_fastpath));
    let nh_sub =
        NodeHandle::with_config(&master, "sub", MachineId::A, fast_reconnect(sub_fastpath));
    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("fastpath/fallback", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _sub = nh_sub.subscribe_with(
        "fastpath/fallback",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            tx.send(m.as_bytes().to_vec()).unwrap();
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);

    let mut m = msg(41);
    for (i, b) in (0..64).enumerate() {
        m.data[i] = (b * 3 + 1) as u8;
    }
    publisher.publish(&m);
    let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(got, m.publish_handle().as_slice().to_vec());
    let snap = master.metrics().topic("fastpath/fallback");
    (got, snap.fastpath_frames)
}

/// Either side opting out falls back to TCP transparently: the subscriber
/// receives byte-identical frames and no fast-path counters move.
#[test]
fn forced_tcp_fallback_is_byte_identical() {
    let (fast_bytes, fast_frames) = roundtrip_bytes(true, true);
    let (pub_off_bytes, pub_off_frames) = roundtrip_bytes(false, true);
    let (sub_off_bytes, sub_off_frames) = roundtrip_bytes(true, false);
    assert!(fast_frames > 0, "both-ends-on must use the fast path");
    assert_eq!(pub_off_frames, 0, "publisher opt-out must force TCP");
    assert_eq!(sub_off_frames, 0, "subscriber opt-out must force TCP");
    assert_eq!(fast_bytes, pub_off_bytes);
    assert_eq!(fast_bytes, sub_off_bytes);
}

/// `queue_size` backpressure applies to pointer handoff: while the
/// subscriber's callback is blocked, excess frames are dropped and counted
/// exactly as on the socket path, and delivery resumes once unblocked.
#[test]
fn queue_backpressure_drops_and_counts_when_full() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "bp");
    // Tiny transmission queue so the test saturates it instantly.
    let publisher: Publisher<SfmBox<Payload>> = nh.advertise_with(
        "fastpath/backpressure",
        PublisherOptions::new().queue_size(2),
    );
    let gate = Arc::new(Mutex::new(()));
    let seen = Arc::new(AtomicU64::new(0));
    let (gate_cb, seen_cb) = (Arc::clone(&gate), Arc::clone(&seen));
    let _sub = nh.subscribe_with(
        "fastpath/backpressure",
        SubscriberOptions::new(),
        move |_m: SfmShared<Payload>| {
            drop(gate_cb.lock().unwrap());
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let blocked = gate.lock().unwrap();
    // One frame can be in the callback and two in the queue; everything
    // beyond that must be dropped without blocking `publish`.
    wait_until("queue saturated", || {
        publisher.publish(&msg(0));
        publisher.stats().frames_dropped > 0
    });
    drop(blocked);

    let snap = master.metrics().topic("fastpath/backpressure");
    assert!(snap.frames_dropped > 0, "drops visible in shared metrics");
    assert!(snap.fastpath_frames > 0 || seen.load(Ordering::SeqCst) == 0);
    wait_until("delivery resumes after unblock", || {
        publisher.publish(&msg(1));
        seen.load(Ordering::SeqCst) >= 3
    });
}

/// `validate_on_receive` runs the structural verifier on fast-path frames
/// too — and clean frames still arrive zero-copy with nothing rejected.
#[test]
fn validate_on_receive_still_zero_copy() {
    let master = Master::new();
    let config = TransportConfig {
        validate_on_receive: true,
        ..TransportConfig::default()
    };
    let nh = NodeHandle::with_config(&master, "validate", MachineId::A, config);
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("fastpath/validate", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let sub = nh.subscribe_with(
        "fastpath/validate",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            tx.send(m.base()).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let m = msg(3);
    let pub_base = m.base();
    publisher.publish(&m);
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(10)).unwrap(),
        pub_base,
        "verification must not force a copy"
    );
    assert_eq!(sub.stats().verify_rejects, 0);
    assert!(master.metrics().topic("fastpath/validate").fastpath_frames > 0);
}

/// `subscriber_count` is a pure getter now: a dead connection's departure
/// becomes visible without any `publish` call mutating state on its
/// behalf.
#[test]
fn subscriber_count_observes_departure_without_publishing() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "getter");
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("fastpath/getter", PublisherOptions::new().queue_size(8));
    let sub = nh.subscribe_with(
        "fastpath/getter",
        SubscriberOptions::new(),
        |_m: SfmShared<Payload>| {},
    );
    nh.wait_for_subscribers(&publisher, 1);
    assert_eq!(publisher.subscriber_count(), 1);
    drop(sub);
    // No publishes: the count must still converge to zero purely by
    // observing the connection's liveness flag.
    wait_until("count reflects departure", || {
        publisher.subscriber_count() == 0
    });
}
