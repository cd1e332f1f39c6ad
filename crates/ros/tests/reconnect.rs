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
            multiplier: 2.0,
            jitter: 0.25,
            max_attempts: 0,
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

/// The flagship scenario of the acceptance criteria: a link is severed
/// mid-stream (the transport-level equivalent of killing the publisher's
/// connection), the subscriber's supervisor retries under backoff while
/// the link is down, and once the link heals it reconnects automatically
/// and delivery resumes — with zero decode errors throughout.
#[test]
fn severed_link_reconnects_after_heal_and_resumes_delivery() {
    let master = Master::new();
    let fault = master.links().inject(MachineId::A, MachineId::B);
    let nh_pub = NodeHandle::new(&master, "pub");
    let nh_sub = NodeHandle::with_config(&master, "sub", MachineId::B, fast_reconnect());

    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("reconnect/sever", PublisherOptions::new().queue_size(64));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh_sub.subscribe_with(
        "reconnect/sever",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            assert_eq!(m.data.len(), 32);
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);

    // Healthy traffic first.
    let mut seq = 0u32;
    publish_until(&publisher, &mut seq, "first frames", || {
        seen.load(Ordering::SeqCst) >= 3
    });
    assert_eq!(sub.reconnects(), 0);

    // Cut the cable mid-stream. The writer severs the socket on the next
    // frame; while the latch is set the publisher refuses new handshakes,
    // so the supervisor's reconnect attempts fail and back off.
    fault.sever_now();
    publish_until(
        &publisher,
        &mut seq,
        "reconnect attempts under sever",
        || sub.reconnect_attempts() >= 2,
    );
    assert_eq!(sub.reconnects(), 0, "cannot reconnect while severed");

    // Splice the cable. The next attempt (or the one after, if one was
    // mid-flight during heal) completes the handshake and the publisher
    // builds a fresh connection with a fresh transmission queue.
    fault.heal();
    let resumed_from = seen.load(Ordering::SeqCst);
    publish_until(&publisher, &mut seq, "delivery after heal", || {
        seen.load(Ordering::SeqCst) > resumed_from
    });

    assert!(sub.reconnects() >= 1, "reconnect must be recorded");
    assert_eq!(sub.decode_errors(), 0, "no decode errors across the fault");
    assert_eq!(fault.severs(), 1);

    // The shared per-topic metrics saw the whole story.
    let snap = sub.metrics().snapshot();
    assert!(snap.reconnects >= 1);
    assert!(snap.reconnect_attempts >= 2);
    assert!(snap.frames_received >= resumed_from);
    assert_eq!(snap.decode_errors, 0);
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
    assert_eq!(sub.decode_errors(), 0);
    assert_eq!(sub.received(), seen.load(Ordering::SeqCst));
}

/// Drop faults discard exactly the scheduled frames; the connection
/// survives and later frames are delivered in order.
#[test]
fn drop_fault_skips_frames_without_killing_connection() {
    let master = Master::new();
    let fault = master.links().inject(MachineId::A, MachineId::B);
    // Link-order frames 1 and 3 vanish on the wire.
    fault.drop_frame(1);
    fault.drop_frame(3);
    let nh_pub = NodeHandle::new(&master, "pub");
    let nh_sub = NodeHandle::with_config(&master, "sub", MachineId::B, fast_reconnect());

    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("reconnect/drop", PublisherOptions::new().queue_size(64));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen_cb = Arc::clone(&seen);
    let sub = nh_sub.subscribe_with(
        "reconnect/drop",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            seen_cb.lock().unwrap().push(m.seq);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);

    for seq in 0..6 {
        publisher.publish(&msg(seq));
        // Pace so link-order equals publish-order.
        std::thread::sleep(Duration::from_millis(5));
    }
    wait_until("4 surviving frames", || seen.lock().unwrap().len() == 4);
    assert_eq!(&*seen.lock().unwrap(), &[0, 2, 4, 5]);
    assert_eq!(fault.frames_dropped(), 2);
    assert_eq!(sub.reconnects(), 0, "drops must not sever");
    assert_eq!(sub.decode_errors(), 0);
    assert_eq!(sub.metrics().snapshot().frames_faulted, 2);
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
        assert_eq!(publisher.dropped(), 0, "{link:?}");
        let snap = publisher.metrics().snapshot();
        assert_eq!(snap.fastpath_frames > 0, link == Link::Fastpath, "{link:?}");
        assert_eq!(snap.shm_frames > 0, link == Link::Shm, "{link:?}");
    }
}

/// An exhausted backoff policy stands down instead of retrying forever.
#[test]
fn backoff_gives_up_after_max_attempts() {
    let master = Master::new();
    let fault = master.links().inject(MachineId::A, MachineId::B);
    let mut config = fast_reconnect();
    config.backoff.max_attempts = 2;
    let nh_pub = NodeHandle::new(&master, "pub");
    let nh_sub = NodeHandle::with_config(&master, "sub", MachineId::B, config);

    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("reconnect/giveup", PublisherOptions::new().queue_size(64));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh_sub.subscribe_with(
        "reconnect/giveup",
        SubscriberOptions::new(),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);
    let mut seq = 0u32;
    publish_until(&publisher, &mut seq, "first frame", || {
        seen.load(Ordering::SeqCst) >= 1
    });

    // Sever and never heal: the supervisor makes exactly max_attempts
    // retries, then stands down.
    fault.sever_now();
    publish_until(&publisher, &mut seq, "retries to exhaust", || {
        sub.reconnect_attempts() >= 2
    });
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(sub.reconnect_attempts(), 2, "no retries past max_attempts");
    assert_eq!(sub.reconnects(), 0);

    // Even after healing, the supervisor is gone — this subscription is
    // over (matching the policy the config asked for).
    fault.heal();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(sub.reconnects(), 0);
}
