//! The options/stats API: a node's transport config round-trips into real
//! negotiation decisions, and `stats()` snapshots agree with the traffic on
//! every transport tier.

use rossf_ros::{
    MachineId, Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions, TransportConfig,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
        "test/OptionsPayload"
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

/// An endpoint's transport config is its node's: a publisher on a node
/// that opts out of both zero-copy tiers forces its links onto TCP even
/// though the subscriber's node would negotiate them.
#[test]
fn per_endpoint_transport_config_forces_the_tier() {
    let master = Master::new();
    let config = TransportConfig {
        shm_same_process: true,
        ..TransportConfig::default()
    };
    let nh = NodeHandle::with_config(&master, "override", MachineId::A, config);
    let tcp_only = TransportConfig {
        enable_fastpath: false,
        shm_same_process: false,
        ..nh.transport_config().clone()
    };
    let nh_pub = NodeHandle::with_config(&master, "override_pub", MachineId::A, tcp_only);
    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("options/override", PublisherOptions::new().queue_size(8));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let _sub = nh.subscribe_with(
        "options/override",
        SubscriberOptions::new(),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh.wait_for_subscribers(&publisher, 1);
    for seq in 0..3 {
        publisher.publish(&msg(seq));
    }
    wait_until("frames delivered over TCP", || {
        seen.load(Ordering::SeqCst) == 3
    });
    let snap = master.metrics().topic("options/override").snapshot();
    assert_eq!(snap.fastpath_frames, 0, "override must veto the fast path");
    assert_eq!(snap.shm_frames, 0, "override must veto the shm tier");
    assert_eq!(snap.frames_sent, 3, "frames still flow, over the socket");
}

/// Runs `n` frames under `config` and asserts that the `stats()` snapshots
/// agree with the traffic, then returns the per-topic metrics snapshot for
/// tier bookkeeping.
fn stats_scenario(config: TransportConfig, n: u64) -> rossf_ros::MetricsSnapshot {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "stats", MachineId::A, config);
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("options/stats", PublisherOptions::new().queue_size(64));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh.subscribe_with(
        "options/stats",
        SubscriberOptions::new(),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh.wait_for_subscribers(&publisher, 1);
    for seq in 0..n {
        publisher.publish(&msg(seq as u32));
    }
    wait_until("all frames delivered", || seen.load(Ordering::SeqCst) == n);
    // Delivery can outrun the send-side counter bump on the threaded
    // tiers; wait for the accounting to land before asserting on it.
    wait_until("send-side accounting settled", || {
        sub.stats().transport.frames_sent == n
    });

    let ps = publisher.stats();
    assert_eq!(ps.subscribers, publisher.subscriber_count());
    assert_eq!(ps.published, n);
    assert_eq!(ps.dropped, 0);

    let ss = sub.stats();
    assert_eq!(ss.received, n);
    assert_eq!(ss.decode_errors, 0);
    assert_eq!(ss.connections, 1);
    assert_eq!(ss.transport.frames_received, ss.received);
    assert_eq!(ss.transport.frames_sent, ps.published);

    master.metrics().topic("options/stats").snapshot()
}

/// `stats()` is coherent on every tier: each runs the full scenario.
#[test]
fn stats_are_consistent_on_every_tier() {
    // TCP: no zero-copy counters move.
    let tcp = stats_scenario(
        TransportConfig {
            enable_fastpath: false,
            ..TransportConfig::default()
        },
        5,
    );
    assert_eq!((tcp.fastpath_frames, tcp.shm_frames), (0, 0));

    // Fastpath: every frame is a pointer handoff.
    let fast = stats_scenario(TransportConfig::default(), 5);
    assert_eq!(fast.fastpath_frames, 5);
    assert_eq!(fast.shm_frames, 0);

    // Shm: every frame crosses a segment ring.
    let shm = stats_scenario(
        TransportConfig {
            enable_fastpath: false,
            shm_same_process: true,
            ..TransportConfig::default()
        },
        5,
    );
    assert_eq!(shm.shm_frames, 5);
    assert_eq!(shm.fastpath_frames, 0);
    assert!(shm.shm_handshakes >= 1);
}
