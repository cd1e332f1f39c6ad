//! Every link is a handler on the one event loop, its setup included. What
//! that buys — teardown is an event whichever side goes first, an injected
//! delay parks a frame instead of sleeping a thread, a peer that connects
//! and never speaks pins nothing — and what it costs: callbacks run on the
//! loop thread, so a slow one delays every other link (DESIGN §9).

use rossf_ros::{
    MachineId, Master, NodeHandle, Publisher, PublisherOptions, RawFrameTap, SubscriberOptions,
    TransportConfig,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
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
        "test/HandlerPayload"
    }
    fn max_size() -> usize {
        4096
    }
}

fn msg(seq: u32) -> SfmBox<Payload> {
    let mut m = SfmBox::<Payload>::new();
    m.seq = seq;
    m.data.resize(16);
    m
}

/// Wait for `cond` without ever sleeping: the conditions below become true
/// because the loop thread handled an event, so yielding the core to it is
/// all the waiting there is to do.
fn yield_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::yield_now();
    }
}

/// A publisher on machine A and a node handle a subscriber of the given
/// tier would use.
fn tier(name: &str) -> (MachineId, TransportConfig) {
    match name {
        "tcp" => (MachineId::B, TransportConfig::default()),
        "fastpath" => (MachineId::A, TransportConfig::default()),
        "shm" => (
            MachineId::A,
            TransportConfig {
                enable_fastpath: false,
                shm_same_process: true,
                ..TransportConfig::default()
            },
        ),
        other => panic!("no tier `{other}`"),
    }
}

/// The subscriber goes first, the publisher publishes nothing afterwards:
/// its `subscriber_count` still falls, because the link's end is an event
/// on the loop (a hangup, a deregistration) — not something the next
/// publish or a poll interval discovers.
#[test]
fn a_dropped_subscriber_is_an_event_for_the_publisher_on_every_tier() {
    for name in ["tcp", "fastpath", "shm"] {
        let (sub_machine, config) = tier(name);
        let master = Master::new();
        let nh_pub = NodeHandle::with_config(&master, "pub", MachineId::A, config.clone());
        let nh_sub = NodeHandle::with_config(&master, "sub", sub_machine, config);
        let publisher: Publisher<SfmBox<Payload>> =
            nh_pub.advertise_with("handlers/drop", PublisherOptions::new().queue_size(8));
        let seen = Arc::new(AtomicU64::new(0));
        let seen_cb = Arc::clone(&seen);
        let sub = nh_sub.subscribe_with(
            "handlers/drop",
            SubscriberOptions::new(),
            move |_m: SfmShared<Payload>| {
                seen_cb.fetch_add(1, Ordering::SeqCst);
            },
        );
        yield_until("the link", || publisher.subscriber_count() == 1);
        publisher.publish(&msg(0));
        yield_until("a delivery", || seen.load(Ordering::SeqCst) == 1);

        drop(sub);
        yield_until(&format!("{name}: the publisher to see the drop"), || {
            publisher.subscriber_count() == 0
        });
        assert_eq!(
            publisher.stats().published,
            1,
            "{name}: no publish prompted it"
        );
    }
}

/// The same for a capture tap, which is one more fast-path attachment.
#[test]
fn a_dropped_tap_is_an_event_for_the_publisher() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "tap");
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("handlers/tap", PublisherOptions::new().queue_size(8));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let tap = RawFrameTap::attach(&nh, "handlers/tap", Payload::type_name(), move |_| {
        seen_cb.fetch_add(1, Ordering::SeqCst);
    })
    .unwrap();
    yield_until("the attachment", || publisher.subscriber_count() == 1);
    publisher.publish(&msg(0));
    yield_until("a capture", || seen.load(Ordering::SeqCst) == 1);

    drop(tap);
    yield_until("the publisher to see the detach", || {
        publisher.subscriber_count() == 0
    });
    publisher.publish(&msg(1));
    assert_eq!(seen.load(Ordering::SeqCst), 1, "no capture after the drop");
}

/// The publisher goes right after publishing: every queue link — a TCP
/// subscriber, a fast-path subscriber, a capture tap — still delivers what
/// was queued, all of it and in order, and then ends, leaving nothing on
/// the loop.
#[test]
fn the_queued_tail_survives_a_publisher_drop_on_every_queue_link() {
    const QUEUE: usize = 8;
    const K: u32 = QUEUE as u32;
    let reactor = rossf_reactor::runtime().reactor;
    for end in ["tcp", "fastpath", "tap"] {
        let baseline = reactor.live_links();
        let (sub_machine, config) = tier(if end == "tap" { "fastpath" } else { end });
        let master = Master::new();
        let nh_pub = NodeHandle::with_config(&master, "pub", MachineId::A, config.clone());
        let nh_sub = NodeHandle::with_config(&master, "sub", sub_machine, config);
        let publisher: Publisher<SfmBox<Payload>> =
            nh_pub.advertise_with("handlers/tail", PublisherOptions::new().queue_size(QUEUE));
        let (tx, seqs) = mpsc::channel();
        let _end: Box<dyn std::any::Any> = if end == "tap" {
            // A frame is the message's own bytes, `seq` first.
            let tap =
                RawFrameTap::attach(&nh_pub, "handlers/tail", Payload::type_name(), move |f| {
                    let seq = f.as_slice()[..4].try_into().unwrap();
                    let _ = tx.send(u32::from_ne_bytes(seq));
                });
            Box::new(tap.unwrap())
        } else {
            Box::new(nh_sub.subscribe_with(
                "handlers/tail",
                SubscriberOptions::new(),
                move |m: SfmShared<Payload>| {
                    let _ = tx.send(m.seq);
                },
            ))
        };
        yield_until("the link", || publisher.subscriber_count() == 1);

        for seq in 0..K {
            publisher.publish(&msg(seq));
        }
        drop(publisher);
        let got: Vec<u32> = (0..K)
            .map(|_| seqs.recv_timeout(LONG).expect(end))
            .collect();
        assert_eq!(
            got,
            (0..K).collect::<Vec<_>>(),
            "{end}: all of it, in order"
        );
        yield_until(&format!("{end}: every link of the graph to end"), || {
            reactor.live_links() <= baseline
        });
    }
}

/// One fast-path link in its own graph; the callback reports each arrival.
struct FastLink {
    publisher: Publisher<SfmBox<Payload>>,
    arrivals: mpsc::Receiver<(u32, Instant)>,
    _sub: rossf_ros::Subscriber<SfmShared<Payload>>,
}

fn fast_link(
    master: &Master,
    topic: &str,
    on_frame: impl Fn(u32) + Send + Sync + 'static,
) -> FastLink {
    let nh = NodeHandle::new(master, "node");
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with(topic, PublisherOptions::new().queue_size(16));
    let (tx, arrivals) = mpsc::channel();
    let sub = nh.subscribe_with(
        topic,
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            let _ = tx.send((m.seq, Instant::now()));
            on_frame(m.seq);
        },
    );
    yield_until("the link", || publisher.subscriber_count() == 1);
    FastLink {
        publisher,
        arrivals,
        _sub: sub,
    }
}

const LONG: Duration = Duration::from_secs(20);

/// An injected `Delay(50 ms)` on link A parks A's frame behind a reactor
/// timer. It does not sleep the loop: a frame published on link B *after*
/// the delayed one is delivered *before* it, the delayed frame still waits
/// out its delay, and A's own order holds.
#[test]
fn a_delay_fault_on_one_link_does_not_stall_another() {
    const DELAY: Duration = Duration::from_millis(50);
    // A link picks up its machine pair's injector when it attaches; the
    // two links live in separate graphs, so only A has one.
    let faulty = Master::new();
    faulty
        .links()
        .inject(MachineId::A, MachineId::A)
        .delay_frame(0, DELAY);
    let a = fast_link(&faulty, "handlers/delay_a", |_| {});
    let b = fast_link(&Master::new(), "handlers/delay_b", |_| {});

    let sent = Instant::now();
    a.publisher.publish(&msg(0)); // delayed
    a.publisher.publish(&msg(1)); // queued behind it
    b.publisher.publish(&msg(7));

    let (b_seq, b_at) = b.arrivals.recv_timeout(LONG).expect("B's frame");
    let (a0_seq, a0_at) = a.arrivals.recv_timeout(LONG).expect("A's delayed frame");
    let (a1_seq, _) = a.arrivals.recv_timeout(LONG).expect("A's second frame");
    assert_eq!((b_seq, a0_seq, a1_seq), (7, 0, 1), "A keeps its order");
    assert!(
        a0_at - sent >= DELAY,
        "the delay was served: {:?}",
        a0_at - sent
    );
    assert!(
        b_at < a0_at,
        "link B waited for link A's delay ({:?} vs {:?} after the publish)",
        b_at - sent,
        a0_at - sent
    );
}

/// The rule, demonstrated: callbacks run on the loop thread, so a callback
/// that takes 20 ms on link A holds up link B's callback for as long —
/// and costs nothing else: every frame on both links is still delivered,
/// in order. (Long work belongs on a thread the node owns; see the
/// `orb_slam` node in `rossf-slam`.)
#[test]
fn a_slow_callback_delays_the_other_links_and_loses_nothing() {
    const SLOW: Duration = Duration::from_millis(20);
    const FRAMES: u32 = 5;
    let (entered_tx, entered) = mpsc::channel();
    let a = fast_link(&Master::new(), "handlers/slow_a", move |seq| {
        let _ = entered_tx.send(seq);
        std::thread::sleep(SLOW);
    });
    let b = fast_link(&Master::new(), "handlers/slow_b", |_| {});

    a.publisher.publish(&msg(0));
    entered.recv_timeout(LONG).expect("A's callback is running");
    // The loop thread is inside A's callback from here on.
    b.publisher.publish(&msg(0));
    for seq in 1..FRAMES {
        a.publisher.publish(&msg(seq));
        b.publisher.publish(&msg(seq));
    }

    let (_, a0_at) = a.arrivals.recv_timeout(LONG).expect("A's first frame");
    let (b0_seq, b0_at) = b.arrivals.recv_timeout(LONG).expect("B's first frame");
    assert_eq!(b0_seq, 0);
    assert!(
        b0_at >= a0_at + SLOW,
        "B's callback ran while A's was still sleeping on the loop thread"
    );
    for seq in 1..FRAMES {
        assert_eq!(a.arrivals.recv_timeout(LONG).expect("A's frame").0, seq);
        assert_eq!(b.arrivals.recv_timeout(LONG).expect("B's frame").0, seq);
    }
    assert_eq!(
        a.publisher.stats().frames_dropped + b.publisher.stats().frames_dropped,
        0
    );
}

/// A handshake is a handler on the loop, not a blocking read on a worker,
/// so peers that connect and never speak pin nothing. Six silent
/// connections sit on a publisher's listener and six on a service's; a TCP
/// subscriber still gets its first frame, and a service client its reply,
/// within a second — and each silent connection is hung up on once the
/// node's 3 s handshake timeout has passed, not before.
#[test]
fn silent_peers_pin_nothing() {
    const TIMEOUT: Duration = Duration::from_secs(3);
    const PROMPT: Duration = Duration::from_secs(1);
    let master = Master::new();
    let config = TransportConfig {
        handshake_timeout: TIMEOUT,
        ..TransportConfig::default()
    };
    let nh = NodeHandle::with_config(&master, "silent", MachineId::A, config.clone());
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("handlers/silent", PublisherOptions::new().queue_size(16));
    let _server = nh
        .advertise_service("handlers/silent_svc", |req: SfmShared<Payload>| {
            msg(req.seq + 1)
        })
        .unwrap();
    let service_addr = master
        .services()
        .lookup("handlers/silent_svc")
        .unwrap()
        .addr;

    let connected = Instant::now();
    let silent: Vec<TcpStream> = [publisher.addr(), service_addr]
        .into_iter()
        .flat_map(|addr| (0..6).map(move |_| TcpStream::connect(addr).unwrap()))
        .collect();

    let started = Instant::now();
    let nh_sub = NodeHandle::with_config(&master, "sub", MachineId::B, config);
    let (tx, first) = mpsc::channel();
    let _sub = nh_sub.subscribe_with(
        "handlers/silent",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            let _ = tx.send(m.seq);
        },
    );
    let mut seq = 0;
    while first.recv_timeout(Duration::from_millis(5)).is_err() {
        assert!(
            started.elapsed() < PROMPT,
            "no frame on the TCP link after {:?}",
            started.elapsed()
        );
        publisher.publish(&msg(seq));
        seq += 1;
    }

    let started = Instant::now();
    let mut client = nh
        .service_client::<SfmBox<Payload>, SfmShared<Payload>>("handlers/silent_svc")
        .unwrap();
    assert_eq!(client.call(&msg(41)).unwrap().seq, 42);
    assert!(
        started.elapsed() < PROMPT,
        "the service replied after {:?}",
        started.elapsed()
    );

    for mut stream in silent {
        let deadline = connected + TIMEOUT + PROMPT;
        let left = deadline.saturating_duration_since(Instant::now());
        stream
            .set_read_timeout(Some(left.max(Duration::from_millis(1))))
            .unwrap();
        match stream.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("a silent connection is still open: {other:?}"),
        }
        let hung_up = connected.elapsed();
        assert!(
            (TIMEOUT..=TIMEOUT + PROMPT).contains(&hung_up),
            "hung up after {hung_up:?}"
        );
    }
}
