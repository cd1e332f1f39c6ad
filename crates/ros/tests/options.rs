//! The options/stats API: a node's transport config round-trips into real
//! negotiation decisions, `stats()` snapshots agree with the traffic on
//! every transport tier, and a topic's counters are the sum of its
//! endpoints' on every tier.

use rossf_ros::{
    MachineId, Master, MetricsSnapshot, NodeHandle, Publisher, PublisherOptions, SubscriberOptions,
    TransportConfig,
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
    let snap = master.metrics().topic("options/override");
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
        master.metrics().topic("options/stats").frames_sent == n
    });

    let ps = publisher.stats();
    assert_eq!(publisher.subscriber_count(), 1);
    assert_eq!(ps.published, n);
    assert_eq!(ps.frames_dropped, 0);

    let ss = sub.stats();
    let topic = master.metrics().topic("options/stats");
    assert_eq!(ss.frames_received, n);
    assert_eq!(ss.decode_errors, 0);
    assert_eq!(ss.handshakes, 1);
    assert_eq!(topic.frames_received, ss.frames_received);
    assert_eq!(topic.frames_sent, ps.published);

    master.metrics().topic("options/stats")
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

/// `a + b` field by field, keeping the deeper `queue_depth_hwm`. Spelled
/// out by name, apart from the registry's own sum, so a counter added to
/// the snapshot does not compile until it is summed here too.
fn sum(a: MetricsSnapshot, b: MetricsSnapshot) -> MetricsSnapshot {
    let MetricsSnapshot {
        published,
        frames_sent,
        bytes_sent,
        frames_dropped,
        frames_dropped_oversized,
        frames_faulted,
        frames_received,
        bytes_received,
        decode_errors,
        verify_rejects,
        frame_len_rejects,
        reconnect_attempts,
        reconnects,
        handshakes,
        disconnects,
        queue_depth_hwm,
        fastpath_handshakes,
        fastpath_frames,
        shm_handshakes,
        shm_frames,
        shm_attach_failures,
        projection_handshakes,
        projection_frames,
    } = b;
    MetricsSnapshot {
        published: a.published + published,
        frames_sent: a.frames_sent + frames_sent,
        bytes_sent: a.bytes_sent + bytes_sent,
        frames_dropped: a.frames_dropped + frames_dropped,
        frames_dropped_oversized: a.frames_dropped_oversized + frames_dropped_oversized,
        frames_faulted: a.frames_faulted + frames_faulted,
        frames_received: a.frames_received + frames_received,
        bytes_received: a.bytes_received + bytes_received,
        decode_errors: a.decode_errors + decode_errors,
        verify_rejects: a.verify_rejects + verify_rejects,
        frame_len_rejects: a.frame_len_rejects + frame_len_rejects,
        reconnect_attempts: a.reconnect_attempts + reconnect_attempts,
        reconnects: a.reconnects + reconnects,
        handshakes: a.handshakes + handshakes,
        disconnects: a.disconnects + disconnects,
        queue_depth_hwm: a.queue_depth_hwm.max(queue_depth_hwm),
        fastpath_handshakes: a.fastpath_handshakes + fastpath_handshakes,
        fastpath_frames: a.fastpath_frames + fastpath_frames,
        shm_handshakes: a.shm_handshakes + shm_handshakes,
        shm_frames: a.shm_frames + shm_frames,
        shm_attach_failures: a.shm_attach_failures + shm_attach_failures,
        projection_handshakes: a.projection_handshakes + projection_handshakes,
        projection_frames: a.projection_frames + projection_frames,
    }
}

/// The counting law on one tier: `N` frames to two subscribers over a
/// fault-free link, then, at quiescence, the topic's counters are the sum
/// of the publisher's and both subscribers' own, every frame sent is
/// accounted for by a subscriber, and a subscriber's departure takes none
/// of its counts with it. The departure itself is one more event on the
/// publisher's half of its link on a tier that has one: `departure_disconnects`.
/// Returns the topic's counters at quiescence.
fn counting_law(
    topic: &str,
    config: TransportConfig,
    departure_disconnects: u64,
) -> MetricsSnapshot {
    const N: u64 = 50;
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "law", MachineId::A, config);
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with(topic, PublisherOptions::new().queue_size(64));
    let mut subs: Vec<_> = (0..2)
        .map(|_| {
            let seen = Arc::new(AtomicU64::new(0));
            let seen_cb = Arc::clone(&seen);
            let sub = nh.subscribe_with(
                topic,
                SubscriberOptions::new(),
                move |_m: SfmShared<Payload>| {
                    seen_cb.fetch_add(1, Ordering::SeqCst);
                },
            );
            (sub, seen)
        })
        .collect();
    nh.wait_for_subscribers(&publisher, 2);
    for seq in 0..N {
        publisher.publish(&msg(seq as u32));
    }
    wait_until("quiescence", || {
        subs.iter()
            .all(|(_, seen)| seen.load(Ordering::SeqCst) == N)
            && master.metrics().topic(topic).frames_sent == 2 * N
    });

    let total = master.metrics().topic(topic);
    let endpoints = subs
        .iter()
        .map(|(sub, _)| sub.stats())
        .fold(publisher.stats(), sum);
    assert_eq!(total, endpoints, "the topic is the sum of its endpoints");
    assert_eq!(
        publisher.stats().frames_sent,
        2 * N,
        "every send is counted on the publisher's side, fast path included"
    );
    let accounted: u64 = subs
        .iter()
        .map(|(sub, _)| sub.stats())
        .map(|s| s.frames_received + s.verify_rejects + s.decode_errors)
        .sum();
    assert_eq!(
        total.frames_sent, accounted,
        "every frame sent is accounted for"
    );

    drop(subs.pop());
    let departed = MetricsSnapshot {
        disconnects: total.disconnects + departure_disconnects,
        ..total
    };
    wait_until("the departure to be seen", || {
        publisher.subscriber_count() == 1 && master.metrics().topic(topic) == departed
    });
    assert_eq!(
        master.metrics().topic(topic),
        departed,
        "a departed subscriber's counts stay in the topic"
    );
    total
}

#[test]
fn tcp_topic_counters_are_the_sum_of_its_endpoints() {
    let config = TransportConfig {
        enable_fastpath: false,
        ..TransportConfig::default()
    };
    let total = counting_law("law/tcp", config, 1);
    assert_eq!((total.fastpath_frames, total.shm_frames), (0, 0));
}

#[test]
fn fastpath_topic_counters_are_the_sum_of_its_endpoints() {
    let total = counting_law("law/fastpath", TransportConfig::default(), 0);
    assert_eq!(total.fastpath_frames, total.frames_sent);
}

#[test]
fn shm_topic_counters_are_the_sum_of_its_endpoints() {
    let config = TransportConfig {
        enable_fastpath: false,
        shm_same_process: true,
        ..TransportConfig::default()
    };
    let total = counting_law("law/shm", config, 1);
    assert_eq!(total.shm_frames, total.frames_sent);
}
