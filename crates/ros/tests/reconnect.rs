//! Transport robustness: subscriber reconnection under link faults and
//! publisher restarts, driven by the deterministic fault injector in
//! `rossf-netsim`.

use rossf_ros::{
    BackoffPolicy, MachineId, Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions,
    TransportConfig,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
        "test/ReconnectPayload"
    }
    fn max_size() -> usize {
        4096
    }
}

fn msg(seq: u32) -> SfmBox<Payload> {
    let mut m = SfmBox::<Payload>::new();
    m.seq = seq;
    m.data.resize(32);
    m
}

/// A reconnect-friendly config: fast, tightly capped backoff so tests
/// finish quickly.
fn fast_reconnect() -> TransportConfig {
    TransportConfig {
        handshake_timeout: Duration::from_secs(2),
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

/// Publish until `cond` holds, pacing gently; panics on timeout.
fn publish_until(
    publisher: &Publisher<SfmBox<Payload>>,
    seq: &mut u32,
    what: &str,
    cond: impl Fn() -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout publishing until {what}");
        publisher.publish(&msg(*seq));
        *seq += 1;
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// The transport tier a parameterized scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Link {
    /// Machine A to machine B over the reactor.
    Tcp,
    /// Same machine, same process: the pointer hand-off.
    Fastpath,
    /// Same machine, the ring, with publisher and subscriber in one
    /// process.
    Shm,
}

impl Link {
    /// The subscriber's machine (the publisher is always on A) and the
    /// config both nodes run.
    fn placement(self) -> (MachineId, TransportConfig) {
        let config = fast_reconnect();
        match self {
            Link::Tcp => (MachineId::B, config),
            Link::Fastpath => (MachineId::A, config),
            Link::Shm => (
                MachineId::A,
                TransportConfig {
                    enable_fastpath: false,
                    shm_same_process: true,
                    ..config
                },
            ),
        }
    }
}

/// One publisher on A and one subscriber placed for `link` on `topic`,
/// behind the link's fault injector; the callback records every `seq`.
struct Rig {
    fault: Arc<rossf_ros::FaultInjector>,
    publisher: Publisher<SfmBox<Payload>>,
    sub: rossf_ros::Subscriber<SfmShared<Payload>>,
    seen: Arc<Mutex<Vec<u32>>>,
    _nodes: (NodeHandle, NodeHandle),
}

fn rig(link: Link, topic: &str, faults: impl FnOnce(&rossf_ros::FaultInjector)) -> Rig {
    let (sub_machine, config) = link.placement();
    let master = Master::new();
    let fault = master.links().inject(MachineId::A, sub_machine);
    faults(&fault);
    let nh_pub = NodeHandle::with_config(&master, "pub", MachineId::A, config.clone());
    let nh_sub = NodeHandle::with_config(&master, "sub", sub_machine, config);
    let publisher = nh_pub.advertise_with(topic, PublisherOptions::new().queue_size(64));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen_cb = Arc::clone(&seen);
    let sub = nh_sub.subscribe_with(
        topic,
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            assert_eq!(m.data.len(), 32);
            seen_cb.lock().unwrap().push(m.seq);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);
    Rig {
        fault,
        publisher,
        sub,
        seen,
        _nodes: (nh_pub, nh_sub),
    }
}

impl Rig {
    /// The topic's counters: the sum over its endpoints.
    fn topic(&self) -> rossf_ros::MetricsSnapshot {
        let master = self._nodes.0.master();
        master.metrics().topic(self.publisher.topic())
    }
}

/// The flagship scenario of the acceptance criteria, on every tier: a link
/// is severed mid-stream (the transport-level equivalent of killing the
/// publisher's connection), the subscriber's supervisor retries under
/// backoff while the link is down, and once the link heals it reconnects
/// automatically and delivery resumes — with zero decode errors
/// throughout.
#[test]
fn severed_link_reconnects_after_heal_and_resumes_delivery() {
    for link in [Link::Tcp, Link::Fastpath, Link::Shm] {
        let Rig {
            fault,
            publisher,
            sub,
            seen,
            _nodes: (nh_pub, _),
        } = rig(link, "reconnect/sever", |_| {});
        let delivered = || seen.lock().unwrap().len() as u64;

        // Healthy traffic first.
        let mut seq = 0u32;
        publish_until(&publisher, &mut seq, "first frames", || delivered() >= 3);
        assert_eq!(sub.stats().reconnects, 0, "{link:?}");

        // Cut the cable mid-stream. The next frame's gate cuts the link;
        // while the latch is set the publisher refuses new handshakes and
        // attachments, so the supervisor's reconnect attempts fail and back
        // off.
        fault.sever_now();
        publish_until(
            &publisher,
            &mut seq,
            "reconnect attempts under sever",
            || sub.stats().reconnect_attempts >= 2,
        );
        assert_eq!(
            sub.stats().reconnects,
            0,
            "{link:?}: cannot reconnect while severed"
        );

        // Splice the cable. The next attempt (or the one after, if one was
        // mid-flight during heal) completes the handshake and the publisher
        // builds a fresh link.
        fault.heal();
        let resumed_from = delivered();
        publish_until(&publisher, &mut seq, "delivery after heal", || {
            delivered() > resumed_from
        });

        assert!(
            sub.stats().reconnects >= 1,
            "{link:?}: reconnect must be recorded"
        );
        assert_eq!(
            sub.stats().decode_errors,
            0,
            "{link:?}: no decode errors across the fault"
        );
        assert_eq!(fault.severs(), 1, "{link:?}");

        // The per-topic metrics saw the whole story.
        let snap = nh_pub.master().metrics().topic("reconnect/sever");
        assert!(snap.reconnects >= 1, "{link:?}");
        assert!(snap.reconnect_attempts >= 2, "{link:?}");
        assert!(snap.frames_received >= resumed_from, "{link:?}");
        assert_eq!(snap.decode_errors, 0, "{link:?}");
        assert_eq!(snap.fastpath_frames > 0, link == Link::Fastpath, "{link:?}");
        assert_eq!(snap.shm_frames > 0, link == Link::Shm, "{link:?}");
        if link == Link::Shm {
            assert!(snap.shm_handshakes >= 2, "both attachments negotiated shm");
        }
    }
}

/// A publisher process dying and restarting: the old registration vanishes
/// (its supervisor stands down instead of retrying a dead endpoint) and
/// the master's watcher channel delivers the replacement, so delivery
/// resumes on a new connection with zero decode errors.
#[test]
fn publisher_restart_resumes_delivery_via_watcher() {
    let master = Master::new();
    let nh_pub = NodeHandle::new(&master, "pub");
    let nh_sub = NodeHandle::with_config(&master, "sub", MachineId::A, fast_reconnect());

    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("reconnect/restart", PublisherOptions::new().queue_size(64));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh_sub.subscribe_with(
        "reconnect/restart",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            assert_eq!(m.data.len(), 32);
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);

    let mut seq = 0u32;
    publish_until(&publisher, &mut seq, "first frames", || {
        seen.load(Ordering::SeqCst) >= 3
    });

    // Kill the publisher mid-stream and bring up a replacement.
    drop(publisher);
    wait_until("unregistration", || {
        master.publisher_count("reconnect/restart") == 0
    });
    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("reconnect/restart", PublisherOptions::new().queue_size(64));
    nh_pub.wait_for_subscribers(&publisher, 1);

    let resumed_from = seen.load(Ordering::SeqCst);
    publish_until(&publisher, &mut seq, "delivery after restart", || {
        seen.load(Ordering::SeqCst) > resumed_from
    });
    assert_eq!(sub.stats().decode_errors, 0);
    assert_eq!(sub.stats().frames_received, seen.load(Ordering::SeqCst));
}

/// A drop fault discards exactly the scheduled frame with exactly the same
/// accounting on every tier; the link survives and later frames are
/// delivered in order. No pacing: the gate consults faults in publish
/// order.
#[test]
fn drop_fault_skips_frames_without_killing_connection() {
    for link in [Link::Tcp, Link::Fastpath, Link::Shm] {
        let rig = rig(link, "reconnect/drop", |fault| fault.drop_frame(2));
        for seq in 0..5 {
            rig.publisher.publish(&msg(seq));
        }
        wait_until("4 surviving frames", || rig.seen.lock().unwrap().len() == 4);
        assert_eq!(*rig.seen.lock().unwrap(), [0, 1, 3, 4], "{link:?}");
        let snap = rig.topic();
        let faulted = snap.frames_faulted;
        assert_eq!(
            (
                rig.sub.stats().frames_received,
                faulted,
                rig.fault.frames_dropped()
            ),
            (4, 1, 1),
            "{link:?}: (delivered, faulted, dropped)"
        );
        assert_eq!(
            rig.sub.stats().reconnects,
            0,
            "{link:?}: drops must not sever"
        );
        assert_eq!(rig.sub.stats().decode_errors, 0, "{link:?}");
        assert_eq!(snap.fastpath_frames > 0, link == Link::Fastpath, "{link:?}");
        assert_eq!(snap.shm_frames > 0, link == Link::Shm, "{link:?}");
    }
}

/// Delay faults hold a frame back without reordering or losing anything —
/// and without holding `publish` back — on every tier.
#[test]
fn delay_fault_postpones_delivery_without_loss() {
    for link in [Link::Tcp, Link::Fastpath, Link::Shm] {
        const DELAY: Duration = Duration::from_millis(120);
        const FRAMES: u32 = 5;
        let (sub_machine, config) = link.placement();
        let master = Master::new();
        let fault = master.links().inject(MachineId::A, sub_machine);
        fault.delay_frame(0, DELAY);
        let nh_pub = NodeHandle::with_config(&master, "pub", MachineId::A, config.clone());
        let nh_sub = NodeHandle::with_config(&master, "sub", sub_machine, config);

        let publisher: Publisher<SfmBox<Payload>> =
            nh_pub.advertise_with("reconnect/delay", PublisherOptions::new().queue_size(64));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_cb = Arc::clone(&seen);
        let _sub = nh_sub.subscribe_with(
            "reconnect/delay",
            SubscriberOptions::new(),
            move |m: SfmShared<Payload>| {
                seen_cb.lock().unwrap().push(m.seq);
            },
        );
        nh_pub.wait_for_subscribers(&publisher, 1);

        let start = Instant::now();
        for seq in 0..FRAMES {
            publisher.publish(&msg(seq));
        }
        let published_in = start.elapsed();
        wait_until("every frame", || {
            seen.lock().unwrap().len() == FRAMES as usize
        });
        assert!(
            start.elapsed() >= DELAY,
            "{link:?}: delivery can only complete after the injected delay"
        );
        assert!(
            published_in < DELAY,
            "{link:?}: a stalled link must not block publish ({published_in:?})"
        );
        assert_eq!(
            *seen.lock().unwrap(),
            (0..FRAMES).collect::<Vec<_>>(),
            "{link:?}: frames behind the delayed one wait for it, in order"
        );
        assert_eq!(fault.frames_delayed(), 1);
        assert_eq!(publisher.stats().frames_dropped, 0, "{link:?}");
        let snap = master.metrics().topic("reconnect/delay");
        assert_eq!(snap.fastpath_frames > 0, link == Link::Fastpath, "{link:?}");
        assert_eq!(snap.shm_frames > 0, link == Link::Shm, "{link:?}");
    }
}

/// A sever that lands while frames wait out a delay loses them with the
/// link, on every tier alike: none reaches the callback — not even once
/// the delay has passed — and each is counted, so every published frame
/// is accounted for as faulted or dropped.
#[test]
fn a_sever_under_a_delay_loses_and_counts_the_parked_frames() {
    const DELAY: Duration = Duration::from_millis(200);
    for link in [Link::Tcp, Link::Fastpath, Link::Shm] {
        let rig = rig(link, "reconnect/parked", |fault| {
            fault.delay_frame(0, DELAY)
        });
        for seq in 0..4 {
            rig.publisher.publish(&msg(seq));
        }
        rig.fault.sever_now();
        rig.publisher.publish(&msg(4));
        std::thread::sleep(DELAY + Duration::from_millis(100));
        assert_eq!(
            *rig.seen.lock().unwrap(),
            [],
            "{link:?}: a frame crossed a severed link"
        );
        let snap = rig.topic();
        assert_eq!(
            snap.frames_faulted + rig.publisher.stats().frames_dropped,
            rig.publisher.stats().published,
            "{link:?}: every frame is faulted or dropped"
        );
    }
}
