//! The cross-process shared-memory tier: zero-copy delivery out of mapped
//! segments, byte-identity with TCP, backpressure parity, segment
//! lifecycle hygiene, trace coverage — and a forked real-process
//! subscriber proving the tier across an actual process boundary. Fault
//! parity is `reconnect.rs`'s per-tier matrix.

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
        "test/ShmPayload"
    }
    fn max_size() -> usize {
        // Large enough that the fork test can push frames well past
        // MIN_SEGMENT_PAYLOAD and exercise multi-size segment pooling.
        512 * 1024
    }
}

fn sized_msg(seq: u32, len: usize) -> SfmBox<Payload> {
    let mut m = SfmBox::<Payload>::new();
    m.seq = seq;
    m.data.resize(len);
    for i in 0..len {
        m.data[i] = (seq as usize).wrapping_add(i.wrapping_mul(7)) as u8;
    }
    m
}

fn msg(seq: u32) -> SfmBox<Payload> {
    sized_msg(seq, 64)
}

/// Same-process shm configuration: the fast path is disabled so the
/// loopback negotiation lands on the shared-memory tier, and
/// `shm_same_process` overrides the distinct-process requirement so the
/// whole ring protocol runs inside one test process. Without it (`shm`
/// false) the same pair rides TCP.
fn shm_config(shm: bool) -> TransportConfig {
    TransportConfig {
        enable_fastpath: false,
        shm_same_process: shm,
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The zero-copy proof: the buffer the callback receives lives inside a
/// mapped shared-memory segment — not a heap re-materialization — and the
/// shm counters record the handshake and every frame.
#[test]
fn delivery_is_zero_copy_out_of_a_mapped_segment() {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "zc", MachineId::A, shm_config(true));
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/zero_copy", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "shm/zero_copy",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            tx.send((m.base(), m.seq, m.data.len())).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let m = msg(7);
    let pub_base = m.base();
    publisher.publish(&m);
    let (sub_base, seq, len) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_ne!(
        sub_base, pub_base,
        "shm crosses an address boundary: one copy into the segment"
    );
    assert!(
        rossf_shm::is_shm_mapped(sub_base),
        "subscriber buffer must live inside a mapped segment"
    );
    assert_eq!((seq, len), (7, 64));

    // The callback can fire before the link thread bumps its counters;
    // wait for the send-side accounting to land before asserting on it.
    let metrics = || master.metrics().topic("shm/zero_copy");
    wait_until("ring frame is accounted", || {
        let s = metrics();
        s.shm_frames >= 1 && s.shm_frames == s.frames_sent
    });
    let snap = metrics();
    assert!(snap.shm_handshakes >= 1, "handshake counted as shm");
    assert_eq!(snap.fastpath_frames, 0);
}

/// Runs one single-message round trip and returns the received bytes plus
/// the topic's shm frame count.
fn roundtrip_bytes(shm: bool) -> (Vec<u8>, u64) {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "rt", MachineId::A, shm_config(shm));
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/fallback", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "shm/fallback",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            tx.send(m.as_bytes().to_vec()).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let mut m = sized_msg(41, 64);
    for (i, b) in (0..64).enumerate() {
        m.data[i] = (b * 3 + 1) as u8;
    }
    publisher.publish(&m);
    let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(got, m.publish_handle().as_slice().to_vec());
    // Delivery can outrun the send-side counter bump; wait for it.
    let metrics = || master.metrics().topic("shm/fallback");
    wait_until("sent frame is accounted", || {
        let s = metrics();
        s.frames_sent >= 1 && (!shm || s.shm_frames >= 1)
    });
    (got, metrics().shm_frames)
}

/// Disabling the shm tier falls back to TCP transparently, and the frames
/// that cross the ring are byte-identical to the socket encoding.
#[test]
fn forced_tcp_fallback_is_byte_identical() {
    let (shm_bytes, shm_frames) = roundtrip_bytes(true);
    let (tcp_bytes, tcp_frames) = roundtrip_bytes(false);
    assert!(shm_frames > 0, "enabled run must use the shm tier");
    assert_eq!(tcp_frames, 0, "opt-out must force TCP");
    assert_eq!(shm_bytes, tcp_bytes);
}

/// Segment lifecycle hygiene under the two nastiest teardown orders: a
/// subscriber leaving mid-stream and a publisher dropping while its
/// subscriber is still attached. Every mapping must be withdrawn and the
/// sanitizer must see no refcount anomalies or leaked segments.
#[test]
fn early_unsubscribe_and_publisher_drop_leak_no_segments() {
    let prev_policy = rossf_sfm::set_alert_policy(rossf_sfm::AlertPolicy::Count);
    mm().set_sanitizer(true);
    wait_until("no segments left over from earlier tests", || {
        mm().live_segments() == 0
    });

    // Scenario A: one of two subscribers unsubscribes mid-stream.
    {
        let master = Master::new();
        let nh = NodeHandle::with_config(&master, "leak_a", MachineId::A, shm_config(true));
        let publisher: Publisher<SfmBox<Payload>> =
            nh.advertise_with("shm/leak_a", PublisherOptions::new().queue_size(16));
        let counters: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let mut subs = Vec::new();
        for c in &counters {
            let c = Arc::clone(c);
            subs.push(nh.subscribe_with(
                "shm/leak_a",
                SubscriberOptions::new(),
                move |m: SfmShared<Payload>| {
                    assert_eq!(m.data.len(), 64);
                    c.fetch_add(1, Ordering::SeqCst);
                },
            ));
        }
        nh.wait_for_subscribers(&publisher, 2);
        for seq in 0..4 {
            publisher.publish(&msg(seq));
        }
        wait_until("both saw the first wave", || {
            counters.iter().all(|c| c.load(Ordering::SeqCst) >= 4)
        });

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
    }
    wait_until("scenario A unmapped every segment", || {
        mm().live_segments() == 0
    });

    // Scenario B: the publisher drops while the subscriber is attached.
    {
        let master = Master::new();
        let nh = NodeHandle::with_config(&master, "leak_b", MachineId::A, shm_config(true));
        let publisher: Publisher<SfmBox<Payload>> =
            nh.advertise_with("shm/leak_b", PublisherOptions::new().queue_size(16));
        let seen = Arc::new(AtomicU64::new(0));
        let seen_cb = Arc::clone(&seen);
        let _sub = nh.subscribe_with(
            "shm/leak_b",
            SubscriberOptions::new(),
            move |_m: SfmShared<Payload>| {
                seen_cb.fetch_add(1, Ordering::SeqCst);
            },
        );
        nh.wait_for_subscribers(&publisher, 1);
        for seq in 0..4 {
            publisher.publish(&msg(seq));
        }
        wait_until("frames delivered before the drop", || {
            seen.load(Ordering::SeqCst) >= 4
        });
        drop(publisher);
        wait_until("scenario B unmapped every segment", || {
            mm().live_segments() == 0
        });
    }

    // Scenario C: loaned publication — one loan published, one dropped
    // unpublished — must be exactly as clean as ordinary publishes.
    {
        let master = Master::new();
        let nh = NodeHandle::with_config(&master, "leak_c", MachineId::A, shm_config(true));
        let publisher: Publisher<SfmBox<Payload>> =
            nh.advertise_with("shm/leak_c", PublisherOptions::new().queue_size(16));
        let seen = Arc::new(AtomicU64::new(0));
        let seen_cb = Arc::clone(&seen);
        let _sub = nh.subscribe_with(
            "shm/leak_c",
            SubscriberOptions::new(),
            move |m: SfmShared<Payload>| {
                assert_eq!(m.data.len(), 32);
                seen_cb.fetch_add(1, Ordering::SeqCst);
            },
        );
        nh.wait_for_subscribers(&publisher, 1);
        let mut loaned = loan_retrying(&publisher);
        assert!(loaned.is_shm_backed());
        loaned.seq = 50;
        loaned.data.resize(32);
        publisher.publish_loaned(loaned);
        wait_until("loaned frame delivered", || {
            seen.load(Ordering::SeqCst) >= 1
        });
        // An abandoned loan: dropped without publishing. Its allocation
        // record and the segment's write hold must both be released.
        let abandoned = loan_retrying(&publisher);
        assert!(abandoned.is_shm_backed());
        drop(abandoned);
    }
    wait_until("scenario C unmapped every segment", || {
        mm().live_segments() == 0
    });

    mm().check_leaks();
    let report = mm().sanitizer_report().expect("sanitizer enabled");
    assert_eq!(report.leaked_segments, 0, "no orphaned segment mappings");
    assert_eq!(report.double_release, 0);
    assert_eq!(report.refcount_anomaly, 0);
    assert_eq!(report.expand_after_release, 0);

    mm().set_sanitizer(false);
    rossf_sfm::set_alert_policy(prev_policy);
}

/// `queue_size` backpressure applies to the ring: while the subscriber's
/// callback is blocked, excess frames are dropped and counted exactly as
/// on the socket path, and delivery resumes once unblocked.
#[test]
fn queue_backpressure_drops_and_counts_when_full() {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "bp", MachineId::A, shm_config(true));
    // Tiny ring so the test saturates it instantly.
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/backpressure", PublisherOptions::new().queue_size(2));
    let gate = Arc::new(Mutex::new(()));
    let seen = Arc::new(AtomicU64::new(0));
    let (gate_cb, seen_cb) = (Arc::clone(&gate), Arc::clone(&seen));
    let _sub = nh.subscribe_with(
        "shm/backpressure",
        SubscriberOptions::new(),
        move |_m: SfmShared<Payload>| {
            drop(gate_cb.lock().unwrap());
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let blocked = gate.lock().unwrap();
    wait_until("queue saturated", || {
        publisher.publish(&msg(0));
        publisher.stats().frames_dropped > 0
            || master.metrics().topic("shm/backpressure").frames_dropped > 0
    });
    drop(blocked);

    let snap = master.metrics().topic("shm/backpressure");
    assert!(
        publisher.stats().frames_dropped > 0 || snap.frames_dropped > 0,
        "saturation must be visible as drops"
    );
    assert!(snap.shm_handshakes >= 1);
    assert!(
        (1..=2).contains(&snap.queue_depth_hwm),
        "the ring is the queue: its depth (at most its 2 slots) is the high-water mark, got {}",
        snap.queue_depth_hwm
    );
    wait_until("delivery resumes after unblock", || {
        publisher.publish(&msg(1));
        seen.load(Ordering::SeqCst) >= 3
    });
}

/// The ring is single-producer and `publish` commits into it inline, so
/// clones of one publisher on several threads meet at the per-link mutex:
/// nothing may be lost, duplicated, or reordered within a producer.
#[test]
fn concurrent_publishers_share_one_ring_without_loss_or_reorder() {
    const PRODUCERS: u32 = 4;
    const PER_PRODUCER: u32 = 500;
    // In flight per producer: all four together stay well inside the
    // pool's `DIR_CAP` segments, so no frame can be refused a segment.
    const WINDOW: u32 = 8;
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "mpsc", MachineId::A, shm_config(true));
    // A ring ample for everything that can be in flight.
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/mpsc", PublisherOptions::new().queue_size(256));
    let next: Arc<Vec<AtomicU64>> = Arc::new((0..PRODUCERS).map(|_| AtomicU64::new(0)).collect());
    let out_of_order = Arc::new(AtomicU64::new(0));
    let (next_cb, ooo_cb) = (Arc::clone(&next), Arc::clone(&out_of_order));
    let sub = nh.subscribe_with(
        "shm/mpsc",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            let (producer, i) = ((m.seq >> 16) as usize, u64::from(m.seq & 0xffff));
            // ORDER: test bookkeeping; one consumer thread runs this callback.
            if next_cb[producer].fetch_add(1, Ordering::SeqCst) != i {
                ooo_cb.fetch_add(1, Ordering::SeqCst);
            }
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let start = Arc::new(std::sync::Barrier::new(PRODUCERS as usize));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let (publisher, next, start) =
                (publisher.clone(), Arc::clone(&next), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_PRODUCER {
                    while u64::from(i)
                        >= next[p as usize].load(Ordering::SeqCst) + u64::from(WINDOW)
                    {
                        std::thread::yield_now();
                    }
                    publisher.publish(&msg(p << 16 | i));
                }
            })
        })
        .collect();
    for producer in producers {
        producer.join().expect("producer thread");
    }
    wait_until("every frame delivered", || {
        sub.stats().frames_received == u64::from(PRODUCERS * PER_PRODUCER)
    });
    assert_eq!(out_of_order.load(Ordering::SeqCst), 0, "per-producer order");
    for n in next.iter() {
        assert_eq!(n.load(Ordering::SeqCst), u64::from(PER_PRODUCER));
    }
    let snap = master.metrics().topic("shm/mpsc");
    assert_eq!(snap.frames_dropped, 0);
    assert_eq!(publisher.stats().frames_dropped, 0);
    assert_eq!(snap.shm_frames, u64::from(PRODUCERS * PER_PRODUCER));
}

/// `validate_on_receive` runs the structural verifier on mapped frames
/// too — and clean frames still arrive zero-copy with nothing rejected.
#[test]
fn validate_on_receive_still_zero_copy() {
    let master = Master::new();
    let config = TransportConfig {
        validate_on_receive: true,
        ..shm_config(true)
    };
    let nh = NodeHandle::with_config(&master, "validate", MachineId::A, config);
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/validate", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let sub = nh.subscribe_with(
        "shm/validate",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            tx.send(m.base()).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    publisher.publish(&msg(3));
    let sub_base = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(
        rossf_shm::is_shm_mapped(sub_base),
        "verification must not force a copy out of the segment"
    );
    assert_eq!(sub.stats().verify_rejects, 0);
    let metrics = || master.metrics().topic("shm/validate");
    wait_until("ring frame is accounted", || metrics().shm_frames > 0);
}

/// Same-process shm traffic records the full eight-stage pipeline at
/// `Tier::Shm`: the copy into the segment is the wire_write span and the
/// ring dwell is the wire_read span, each side causally ordered.
#[test]
fn shm_timeline_is_monotone_per_side() {
    use rossf_ros::{PublisherOptions, SubscriberOptions};
    use rossf_trace::{check_monotone, tracer, Stage, Tier, TraceEvent};

    tracer().reset();
    let master = Master::new();
    let config = TransportConfig {
        validate_on_receive: true,
        ..shm_config(true)
    };
    let nh = NodeHandle::with_config(&master, "trace", MachineId::A, config);
    let publisher: Publisher<SfmBox<Payload>> = nh.advertise_with(
        "shm/trace",
        PublisherOptions::new().queue_size(64).trace(true),
    );
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let _sub = nh.subscribe_with(
        "shm/trace",
        SubscriberOptions::new().trace(true),
        move |_m: SfmShared<Payload>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh.wait_for_subscribers(&publisher, 1);
    for seq in 0..10 {
        publisher.publish(&msg(seq));
        std::thread::sleep(Duration::from_millis(1));
    }
    wait_until("10 shm frames", || seen.load(Ordering::SeqCst) == 10);

    let events: Vec<TraceEvent> = tracer()
        .events()
        .into_iter()
        .filter(|e| &*e.topic == "shm/trace")
        .collect();
    let mut stages: Vec<Stage> = events.iter().map(|e| e.stage).collect();
    stages.sort_unstable();
    stages.dedup();
    assert_eq!(
        stages,
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
        "the shm tier crosses every pipeline stage"
    );
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
    assert!(events
        .iter()
        .filter(|e| e.stage == Stage::WireWrite || e.stage == Stage::WireRead)
        .all(|e| e.tier == Tier::Shm));
    assert!(sub_side.iter().all(|e| e.trace_id != 0));
}

/// A granted shm link that cannot be attached (here: an injected fault
/// standing in for a `/proc/<pid>/fd` open denied by the kernel's
/// ptrace-scope policy) must not strand the subscription: the supervisor
/// redoes the handshake with the shm offer withheld and the publisher
/// serves plain TCP instead.
#[test]
fn unattachable_grant_falls_back_to_tcp() {
    let master = Master::new();
    master
        .links()
        .inject(MachineId::A, MachineId::A)
        .deny_attach();
    let nh_pub = NodeHandle::with_config(&master, "att_pub", MachineId::A, shm_config(true));
    let nh_sub = NodeHandle::with_config(&master, "att_sub", MachineId::A, shm_config(true));
    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("shm/attach_fault", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let sub = nh_sub.subscribe_with(
        "shm/attach_fault",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            let _ = tx.send((m.seq, rossf_shm::is_shm_mapped(m.base())));
        },
    );

    // Publish once the fallback link is the only link: `publish` commits
    // into a granted ring at once, so a frame published while the doomed
    // grant is still spliced would be counted as a ring frame before the
    // subscriber's refusal reaches the publisher.
    wait_until("the renegotiated link replaces the grant", || {
        sub.connection_count() >= 2 && publisher.subscriber_count() == 1
    });
    // Delivery must still happen — over TCP, after the supervisor
    // renegotiates without the offer.
    let deadline = Instant::now() + Duration::from_secs(20);
    let (seq, mapped) = loop {
        publisher.publish(&msg(5));
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(got) => break got,
            Err(_) => assert!(
                Instant::now() < deadline,
                "fallback never delivered a frame"
            ),
        }
    };
    assert_eq!(seq, 5);
    assert!(!mapped, "fallback frames arrive over TCP, not a mapping");
    let snap = master.metrics().topic("shm/attach_fault");
    assert!(snap.shm_attach_failures >= 1, "attach failure counted");
    assert!(snap.shm_handshakes >= 1, "a grant was negotiated first");
    assert_eq!(snap.shm_frames, 0, "no frame crossed a ring");
    assert!(
        sub.stats().reconnect_attempts >= 1,
        "fallback is a renegotiation"
    );
    assert!(sub.stats().frames_received >= 1);
}

/// Child half of the crashed-subscriber test: stash (never release) every
/// mapped frame until `ROSSF_SHM_STASH_COUNT` are held, then exit without
/// running a single destructor — as close to a crash as a test can get.
/// Each stashed `SfmShared` pins one of the publisher's pool slots.
#[test]
fn shm_child_stash_entry() {
    let addr = match std::env::var("ROSSF_SHM_STASH_ADDR") {
        Ok(a) => a,
        Err(_) => return,
    };
    let count: usize = std::env::var("ROSSF_SHM_STASH_COUNT")
        .expect("stash count")
        .parse()
        .expect("stash count parses");
    let addr: std::net::SocketAddr = addr.parse().expect("stash addr parses");

    let master = Master::new();
    master
        .register_publisher("shm/crash", Payload::type_name(), addr, MachineId::A)
        .expect("register parent endpoint");
    let config = TransportConfig {
        enable_fastpath: false,
        ..TransportConfig::default()
    };
    let nh = NodeHandle::with_config(&master, "stash_child", MachineId::A, config);
    let stash: Arc<Mutex<Vec<SfmShared<Payload>>>> = Arc::new(Mutex::new(Vec::new()));
    let (tx, rx) = mpsc::channel();
    let stash_cb = Arc::clone(&stash);
    let _sub = nh.subscribe_with(
        "shm/crash",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            if rossf_shm::is_shm_mapped(m.base()) {
                let mut held = stash_cb.lock().unwrap();
                held.push(m);
                let _ = tx.send(held.len());
            }
        },
    );
    loop {
        let held = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("stash frame arrives");
        if held >= count {
            // Die abruptly: `exit` runs no destructors, so the stashed
            // frames' segment references are never released — exactly
            // what a crashed subscriber leaves behind.
            std::process::exit(0);
        }
    }
}

/// Subscriber-crash recovery: a subscriber process that dies while
/// holding a frame in *every* pool slot must not pin the publisher's
/// segment pool forever. The publisher notices the death on the liveness
/// socket, reclaims the dead reader's outstanding references, and a fresh
/// shm subscriber receives frames again — which is only possible if every
/// slot was un-pinned, since the dead child held all of them.
#[test]
fn crashed_subscriber_frames_are_reclaimed() {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "crash_pub", MachineId::A, shm_config(true));
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/crash", PublisherOptions::new().queue_size(64));

    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["shm_child_stash_entry", "--exact", "--test-threads", "1"])
        .env("ROSSF_SHM_STASH_ADDR", publisher.addr().to_string())
        .env("ROSSF_SHM_STASH_COUNT", rossf_shm::DIR_CAP.to_string())
        .spawn()
        .expect("spawn stashing child process");
    nh.wait_for_subscribers(&publisher, 1);

    // Feed the child until it holds a frame in every one of the pool's
    // DIR_CAP slots and dies with them. (A stashed frame keeps its slot
    // referenced, so each delivered frame claims a fresh slot.)
    let mut seq: u32 = 0;
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("poll child") {
            Some(status) => break status,
            None => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    panic!("child never exhausted the pool");
                }
                publisher.publish(&msg(seq));
                seq = seq.wrapping_add(1);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    };
    assert!(status.success(), "stashing child failed");

    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "shm/crash",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            let _ = tx.send(rossf_shm::is_shm_mapped(m.base()));
        },
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    let mapped = loop {
        publisher.publish(&msg(seq));
        seq = seq.wrapping_add(1);
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(mapped) => break mapped,
            Err(_) => assert!(
                Instant::now() < deadline,
                "no delivery after the crash — dead reader's slots were never reclaimed"
            ),
        }
    };
    assert!(mapped, "post-crash delivery must still ride the shm tier");
    let snap = master.metrics().topic("shm/crash");
    assert!(snap.shm_handshakes >= 2, "both links negotiated shm");
}

/// Child half of the forked-process test. Runs only when the parent set
/// the environment contract; in a normal test sweep it is a no-op.
///
/// The child builds its own master (the parent's registry is not shared),
/// points it at the parent's listening socket, subscribes with shm
/// enabled, and reports `fnv64(frame_bytes)` plus whether the buffer was
/// inside a mapped shm segment — one line per frame, in arrival order.
#[test]
fn shm_child_process_entry() {
    let addr = match std::env::var("ROSSF_SHM_CHILD_ADDR") {
        Ok(a) => a,
        Err(_) => return,
    };
    let out_path = std::env::var("ROSSF_SHM_CHILD_OUT").expect("child out path");
    let count: usize = std::env::var("ROSSF_SHM_CHILD_COUNT")
        .expect("child count")
        .parse()
        .expect("child count parses");
    let addr: std::net::SocketAddr = addr.parse().expect("child addr parses");

    let master = Master::new();
    master
        .register_publisher("shm/fork", Payload::type_name(), addr, MachineId::A)
        .expect("register parent endpoint");
    let config = TransportConfig {
        enable_fastpath: false,
        ..TransportConfig::default()
    };
    let nh = NodeHandle::with_config(&master, "fork_child", MachineId::A, config);
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "shm/fork",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            let mapped = rossf_shm::is_shm_mapped(m.base());
            let _ = tx.send((fnv1a(m.as_bytes()), mapped));
        },
    );

    let mut lines = String::new();
    for _ in 0..count {
        let (hash, mapped) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("child frame arrives");
        lines.push_str(&format!("{hash:016x} {}\n", u8::from(mapped)));
    }
    std::fs::write(&out_path, lines).expect("write child report");
}

/// The real-process acceptance test: a forked child process negotiates the
/// shm tier against this process's publisher and must observe frames
/// byte-identical to a plain-TCP witness subscriber — every one of them
/// served zero-copy out of a mapped segment, across frame sizes that span
/// multiple segment classes.
#[test]
fn forked_subscriber_receives_byte_identical_shm_frames() {
    let sizes: [usize; 10] = [1, 64, 17, 1000, 4096, 5, 66_000, 150_000, 300_000, 128];
    let master = Master::new();
    let nh_pub = NodeHandle::with_config(
        &master,
        "fork_pub",
        MachineId::A,
        TransportConfig {
            enable_fastpath: false,
            ..TransportConfig::default()
        },
    );
    let nh_tcp = NodeHandle::with_config(
        &master,
        "fork_tcp",
        MachineId::A,
        TransportConfig {
            enable_fastpath: false,
            ..TransportConfig::default()
        },
    );
    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("shm/fork", PublisherOptions::new().queue_size(64));
    let tcp_hashes = Arc::new(Mutex::new(Vec::new()));
    let tcp_cb = Arc::clone(&tcp_hashes);
    let _tcp_sub = nh_tcp.subscribe_with(
        "shm/fork",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            tcp_cb.lock().unwrap().push(fnv1a(m.as_bytes()));
        },
    );

    let out_path = std::env::temp_dir().join(format!("rossf-shm-fork-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&out_path);
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["shm_child_process_entry", "--exact", "--test-threads", "1"])
        .env("ROSSF_SHM_CHILD_ADDR", publisher.addr().to_string())
        .env("ROSSF_SHM_CHILD_OUT", &out_path)
        .env("ROSSF_SHM_CHILD_COUNT", sizes.len().to_string())
        .spawn()
        .expect("spawn child subscriber process");

    nh_pub.wait_for_subscribers(&publisher, 2);
    for (seq, &len) in sizes.iter().enumerate() {
        publisher.publish(&sized_msg(seq as u32, len));
        std::thread::sleep(Duration::from_millis(2));
    }
    wait_until("tcp witness saw every frame", || {
        tcp_hashes.lock().unwrap().len() == sizes.len()
    });

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("poll child") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("child subscriber process timed out");
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(status.success(), "child subscriber process failed");

    let report = std::fs::read_to_string(&out_path).expect("read child report");
    let _ = std::fs::remove_file(&out_path);
    let mut child_hashes = Vec::new();
    for line in report.lines() {
        let mut parts = line.split_whitespace();
        let hash = u64::from_str_radix(parts.next().expect("hash column"), 16).expect("hash");
        let mapped = parts.next().expect("mapped column") == "1";
        assert!(mapped, "child frame must live in a mapped shm segment");
        child_hashes.push(hash);
    }
    assert_eq!(
        child_hashes,
        *tcp_hashes.lock().unwrap(),
        "shm frames must be byte-identical to the TCP witness"
    );

    let snap = master.metrics().topic("shm/fork");
    assert!(
        snap.shm_handshakes >= 1,
        "child must negotiate the shm tier"
    );
    assert!(snap.shm_frames >= sizes.len() as u64);
}

// === Loaned write-in-place publication ===

/// Message type big enough for a loaned ~1.4 MB frame — `max_size` bounds
/// the loaned segment capacity, so it must clear the largest test payload.
#[repr(C)]
#[derive(Debug)]
struct BigPayload {
    seq: u32,
    _pad: u32,
    data: SfmVec<u8>,
}
unsafe impl SfmPod for BigPayload {}
impl SfmValidate for BigPayload {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.data.validate_in(base, len)
    }
}
unsafe impl SfmMessage for BigPayload {
    fn type_name() -> &'static str {
        "test/ShmBigPayload"
    }
    fn max_size() -> usize {
        2 * 1024 * 1024
    }
}

/// Loan a message, retrying through transient pool backpressure.
fn loan_retrying<T: SfmMessage>(publisher: &Publisher<SfmBox<T>>) -> rossf_ros::LoanedMessage<T> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(loaned) = publisher.loan() {
            return loaned;
        }
        assert!(Instant::now() < deadline, "loan backpressure never cleared");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Without a live shm tier, `loan` degrades to an ordinary heap message
/// and `publish_loaned` behaves exactly like `publish` — same callback,
/// same bytes, no shm frames. Covers: shm disabled entirely, shm enabled
/// but no subscriber granted yet, and a heap-backed loan that outlives
/// the idle period and is published over a live shm link.
#[test]
fn loan_falls_back_to_heap_when_shm_is_idle() {
    // Scenario 1: shm disabled — delivery over TCP.
    {
        let master = Master::new();
        let nh = NodeHandle::with_config(&master, "loan_fb", MachineId::A, shm_config(false));
        let publisher: Publisher<SfmBox<Payload>> =
            nh.advertise_with("shm/loan_fb", PublisherOptions::new().queue_size(8));
        let (tx, rx) = mpsc::channel();
        let _sub = nh.subscribe_with(
            "shm/loan_fb",
            SubscriberOptions::new(),
            move |m: SfmShared<Payload>| {
                tx.send((
                    m.seq,
                    m.data.as_slice().to_vec(),
                    rossf_shm::is_shm_mapped(m.base()),
                ))
                .unwrap();
            },
        );
        nh.wait_for_subscribers(&publisher, 1);

        let mut loaned = publisher.loan().expect("heap fallback is never refused");
        assert!(!loaned.is_shm_backed(), "no shm tier, no segment loan");
        loaned.seq = 11;
        loaned.data.resize(64);
        for i in 0..64 {
            loaned.data[i] = (i * 5 + 1) as u8;
        }
        let expect: Vec<u8> = (0..64).map(|i| (i * 5 + 1) as u8).collect();
        publisher.publish_loaned(loaned);
        let (seq, data, mapped) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!((seq, data), (11, expect));
        assert!(!mapped, "fallback frames arrive over TCP");
        assert_eq!(master.metrics().topic("shm/loan_fb").shm_frames, 0);
    }
    // Scenario 2: shm enabled but no subscriber has negotiated yet — the
    // pool does not exist, so the loan is heap-backed.
    {
        let master = Master::new();
        let nh = NodeHandle::with_config(&master, "loan_fb2", MachineId::A, shm_config(true));
        let publisher: Publisher<SfmBox<Payload>> =
            nh.advertise_with("shm/loan_fb2", PublisherOptions::new().queue_size(8));
        let loaned = publisher.loan().expect("no pool yet, heap fallback");
        assert!(!loaned.is_shm_backed());
        drop(loaned);
    }
    // Scenario 3: a loan taken while the tier was idle (heap-backed) is
    // published after a subscriber attached over shm — it takes the
    // ordinary copy-into-a-segment path and arrives intact.
    {
        let master = Master::new();
        let nh = NodeHandle::with_config(&master, "loan_fb3", MachineId::A, shm_config(true));
        let publisher: Publisher<SfmBox<Payload>> =
            nh.advertise_with("shm/loan_fb3", PublisherOptions::new().queue_size(8));
        let mut loaned = publisher.loan().expect("no pool yet, heap fallback");
        assert!(!loaned.is_shm_backed());
        let (tx, rx) = mpsc::channel();
        let _sub = nh.subscribe_with(
            "shm/loan_fb3",
            SubscriberOptions::new(),
            move |m: SfmShared<Payload>| {
                tx.send((
                    m.seq,
                    fnv1a(m.data.as_slice()),
                    rossf_shm::is_shm_mapped(m.base()),
                ))
                .unwrap();
            },
        );
        nh.wait_for_subscribers(&publisher, 1);
        loaned.seq = 12;
        loaned.data.resize(256);
        for i in 0..256 {
            loaned.data[i] = (i * 7 + 2) as u8;
        }
        let expect_hash = fnv1a(loaned.data.as_slice());
        publisher.publish_loaned(loaned);
        let (seq, hash, mapped) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!((seq, hash), (12, expect_hash));
        assert!(mapped, "the live link is shm: the heap loan was copied in");
    }
}

/// The write-in-place proof: a segment-backed loan's message lives inside
/// a tracked shared-memory mapping *while being built* — no staging heap
/// buffer exists at any point — and the subscriber receives those bytes
/// out of a mapped segment.
#[test]
fn loaned_message_is_built_inside_the_segment() {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "loan_zc", MachineId::A, shm_config(true));
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/loan_zc", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "shm/loan_zc",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            tx.send((
                m.seq,
                fnv1a(m.data.as_slice()),
                m.data.len(),
                rossf_shm::is_shm_mapped(m.base()),
            ))
            .unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let mut loaned = loan_retrying(&publisher);
    assert!(
        loaned.is_shm_backed(),
        "with a granted shm link the loan must be segment-backed"
    );
    let build_addr = &*loaned as *const Payload as usize;
    assert!(
        mm().address_in_segment(build_addr),
        "the message is being built directly inside a shared segment"
    );
    loaned.seq = 21;
    loaned.data.resize(1024);
    for i in 0..1024 {
        loaned.data[i] = (i.wrapping_mul(13) + 3) as u8;
    }
    let expect_hash = fnv1a(loaned.data.as_slice());
    publisher.publish_loaned(loaned);

    let (seq, hash, len, mapped) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!((seq, len), (21, 1024));
    assert_eq!(hash, expect_hash, "loaned bytes arrive unchanged");
    assert!(mapped, "delivery still rides the mapped segment");
    let metrics = || master.metrics().topic("shm/loan_zc");
    wait_until("loaned frame accounted as shm", || {
        metrics().shm_frames >= 1
    });
}

/// Loan backpressure: with every directory slot's write hold taken by
/// outstanding loans, the next loan reports `None`; dropping the loans
/// *without publishing* returns the holds and loaning resumes — the
/// drop-unpublished lifecycle leaks nothing.
#[test]
fn loan_backpressure_and_unpublished_drop_return_write_holds() {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "loan_bp", MachineId::A, shm_config(true));
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/loan_bp", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "shm/loan_bp",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            tx.send(m.seq).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let held: Vec<_> = (0..rossf_shm::DIR_CAP)
        .map(|_| {
            let l = loan_retrying(&publisher);
            assert!(l.is_shm_backed());
            l
        })
        .collect();
    assert!(
        publisher.loan().is_none(),
        "all {} slots held: loan must report backpressure",
        rossf_shm::DIR_CAP
    );
    drop(held);

    // Every hold is back: a full publish round trip works again.
    let mut loaned = loan_retrying(&publisher);
    assert!(loaned.is_shm_backed(), "dropped loans returned their holds");
    loaned.seq = 31;
    loaned.data.resize(16);
    publisher.publish_loaned(loaned);
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 31);
}

/// Child half of the segment-accounting test. Runs in a forked process so
/// `mm()`'s global segment map is hermetic (the parent suite's other
/// tests would perturb exact counts). Asserts the copy-per-link fix: one
/// publish fanned out to N shm subscribers settles at exactly **one** new
/// pool segment (plus one read-only mapping per reader), for both the
/// legacy copy path and the loaned path. Exits non-zero on any violation.
#[test]
fn shm_child_segment_count_entry() {
    if std::env::var("ROSSF_SHM_SEGCOUNT").is_err() {
        return;
    }
    const N: usize = 3;
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "segcount", MachineId::A, shm_config(true));
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/segcount", PublisherOptions::new().queue_size(16));
    let (tx, rx) = mpsc::channel();
    let mut subs = Vec::new();
    for _ in 0..N {
        let tx = tx.clone();
        subs.push(nh.subscribe_with(
            "shm/segcount",
            SubscriberOptions::new(),
            move |m: SfmShared<Payload>| {
                assert!(rossf_shm::is_shm_mapped(m.base()));
                tx.send(m.seq).unwrap();
            },
        ));
    }
    nh.wait_for_subscribers(&publisher, N);
    // Reader-side control mappings land asynchronously after the
    // handshake; wait for the segment count to hold still before taking
    // it as the baseline. No data segment exists until the first frame.
    let baseline = {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let v = mm().live_segments();
            let hold = Instant::now() + Duration::from_millis(300);
            let mut stable = true;
            while Instant::now() < hold {
                if mm().live_segments() != v {
                    stable = false;
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            if stable {
                break v;
            }
            assert!(Instant::now() < deadline, "segment count never settled");
        }
    };

    // Legacy publish: one pooled copy, descriptor fan-out to all N links.
    publisher.publish(&msg(40));
    for _ in 0..N {
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 40);
    }
    // One new pool segment + each of the N readers mapping it once. The
    // pre-fix behavior (one copy per link) would create N pool segments
    // and settle at baseline + 2N instead.
    wait_until("single shared segment for the legacy fan-out", || {
        mm().live_segments() == baseline + 1 + N
    });

    // Loaned publish: built in place in ONE segment shared by all links.
    // Loans are sized for `max_size`, a bigger segment class than the
    // 64-byte legacy frame above, so this creates exactly one more pool
    // segment (and each reader maps it once) — never one per link.
    let mut loaned = loan_retrying(&publisher);
    assert!(loaned.is_shm_backed());
    loaned.seq = 41;
    loaned.data.resize(64);
    publisher.publish_loaned(loaned);
    for _ in 0..N {
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 41);
    }
    wait_until("single shared segment for the loaned fan-out", || {
        mm().live_segments() == baseline + 2 * (1 + N)
    });

    // Let the readers' frame releases drain so the loan slot recycles,
    // then prove a second loaned publish *reuses* it: no growth at all.
    std::thread::sleep(Duration::from_millis(200));
    let mut loaned = loan_retrying(&publisher);
    assert!(loaned.is_shm_backed());
    loaned.seq = 42;
    loaned.data.resize(64);
    publisher.publish_loaned(loaned);
    for _ in 0..N {
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 42);
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        mm().live_segments(),
        baseline + 2 * (1 + N),
        "a repeated loaned publish reuses the recycled segment"
    );
}

/// With N same-process shm subscribers, one publish occupies exactly one
/// pool segment — the copy-per-link fix, verified end to end in a forked
/// child process whose segment accounting no other test can disturb.
#[test]
fn one_publish_occupies_one_segment_across_n_links() {
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "shm_child_segment_count_entry",
            "--exact",
            "--test-threads",
            "1",
        ])
        .env("ROSSF_SHM_SEGCOUNT", "1")
        .status()
        .expect("spawn segment-count child");
    assert!(status.success(), "segment accounting violated in child");
}

/// Child half of the loaned forked-process test: subscribes over shm and
/// reports `fnv64(bytes)` plus the mapped flag per frame, exactly like
/// [`shm_child_process_entry`] but on the loaned topic/type.
#[test]
fn shm_child_loan_entry() {
    let addr = match std::env::var("ROSSF_SHM_LOAN_ADDR") {
        Ok(a) => a,
        Err(_) => return,
    };
    let out_path = std::env::var("ROSSF_SHM_LOAN_OUT").expect("child out path");
    let count: usize = std::env::var("ROSSF_SHM_LOAN_COUNT")
        .expect("child count")
        .parse()
        .expect("child count parses");
    let addr: std::net::SocketAddr = addr.parse().expect("child addr parses");

    let master = Master::new();
    master
        .register_publisher("shm/loan_fork", BigPayload::type_name(), addr, MachineId::A)
        .expect("register parent endpoint");
    let config = TransportConfig {
        enable_fastpath: false,
        ..TransportConfig::default()
    };
    let nh = NodeHandle::with_config(&master, "loan_child", MachineId::A, config);
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "shm/loan_fork",
        SubscriberOptions::new(),
        move |m: SfmShared<BigPayload>| {
            let mapped = rossf_shm::is_shm_mapped(m.base());
            let _ = tx.send((fnv1a(m.as_bytes()), mapped));
        },
    );

    let mut lines = String::new();
    for _ in 0..count {
        let (hash, mapped) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("child frame arrives");
        lines.push_str(&format!("{hash:016x} {}\n", u8::from(mapped)));
    }
    std::fs::write(&out_path, lines).expect("write child report");
}

/// The loaned-path acceptance test across a real process boundary: a
/// forked child maps frames that were **built in place** in the parent's
/// pool segments — including a 1 MB payload — and must observe bytes
/// byte-identical to a plain-TCP witness subscriber fed from the same
/// loaned publishes (the mixed-tier fallback encoding).
#[test]
fn forked_subscriber_receives_byte_identical_loaned_frames() {
    let sizes: [usize; 5] = [64, 4096, 150_000, 1_000_000, 128];
    let master = Master::new();
    let nh_pub = NodeHandle::with_config(
        &master,
        "loan_fork_pub",
        MachineId::A,
        TransportConfig {
            enable_fastpath: false,
            ..TransportConfig::default()
        },
    );
    let nh_tcp = NodeHandle::with_config(
        &master,
        "loan_fork_tcp",
        MachineId::A,
        TransportConfig {
            enable_fastpath: false,
            ..TransportConfig::default()
        },
    );
    let publisher: Publisher<SfmBox<BigPayload>> =
        nh_pub.advertise_with("shm/loan_fork", PublisherOptions::new().queue_size(64));
    let tcp_hashes = Arc::new(Mutex::new(Vec::new()));
    let tcp_cb = Arc::clone(&tcp_hashes);
    let _tcp_sub = nh_tcp.subscribe_with(
        "shm/loan_fork",
        SubscriberOptions::new(),
        move |m: SfmShared<BigPayload>| {
            tcp_cb.lock().unwrap().push(fnv1a(m.as_bytes()));
        },
    );

    let out_path =
        std::env::temp_dir().join(format!("rossf-shm-loan-fork-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&out_path);
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["shm_child_loan_entry", "--exact", "--test-threads", "1"])
        .env("ROSSF_SHM_LOAN_ADDR", publisher.addr().to_string())
        .env("ROSSF_SHM_LOAN_OUT", &out_path)
        .env("ROSSF_SHM_LOAN_COUNT", sizes.len().to_string())
        .spawn()
        .expect("spawn child subscriber process");

    nh_pub.wait_for_subscribers(&publisher, 2);
    for (seq, &len) in sizes.iter().enumerate() {
        let mut loaned = loan_retrying(&publisher);
        assert!(
            loaned.is_shm_backed(),
            "with the child's shm link granted, loans are segment-backed"
        );
        loaned.seq = seq as u32;
        loaned.data.resize(len);
        for i in 0..len {
            loaned.data[i] = (seq.wrapping_add(i.wrapping_mul(11))) as u8;
        }
        publisher.publish_loaned(loaned);
        std::thread::sleep(Duration::from_millis(5));
    }
    wait_until("tcp witness saw every loaned frame", || {
        tcp_hashes.lock().unwrap().len() == sizes.len()
    });

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("poll child") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("loaned child subscriber timed out");
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(status.success(), "loaned child subscriber failed");

    let report = std::fs::read_to_string(&out_path).expect("read child report");
    let _ = std::fs::remove_file(&out_path);
    let mut child_hashes = Vec::new();
    for line in report.lines() {
        let mut parts = line.split_whitespace();
        let hash = u64::from_str_radix(parts.next().expect("hash column"), 16).expect("hash");
        let mapped = parts.next().expect("mapped column") == "1";
        assert!(mapped, "loaned frames must arrive out of a mapped segment");
        child_hashes.push(hash);
    }
    assert_eq!(
        child_hashes,
        *tcp_hashes.lock().unwrap(),
        "loaned shm frames must be byte-identical to the TCP witness"
    );
    let snap = master.metrics().topic("shm/loan_fork");
    assert!(snap.shm_frames >= sizes.len() as u64);
}

// === The control socket as the link's only liveness signal ===

/// Child half of the killed-publisher test: advertise on the shm tier,
/// report the listening address, and publish until killed. Exits by itself
/// after a minute so an aborted parent cannot leave it running.
#[test]
fn shm_child_publisher_entry() {
    let Ok(out_path) = std::env::var("ROSSF_SHM_ORPHAN_OUT") else {
        return;
    };
    let master = Master::new();
    let config = TransportConfig {
        enable_fastpath: false,
        ..TransportConfig::default()
    };
    let nh = NodeHandle::with_config(&master, "orphan_pub", MachineId::A, config);
    let publisher: Publisher<SfmBox<Payload>> =
        nh.advertise_with("shm/orphan", PublisherOptions::new().queue_size(64));
    // Written whole, then renamed: the parent never reads half an address.
    let partial = format!("{out_path}.partial");
    std::fs::write(&partial, publisher.addr().to_string()).expect("write child address");
    std::fs::rename(&partial, &out_path).expect("publish child address");
    let born = Instant::now();
    let mut seq = 0u32;
    while born.elapsed() < Duration::from_secs(60) {
        publisher.publish(&msg(seq));
        seq = seq.wrapping_add(1);
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Publisher-crash detection: the *publisher* process is killed outright —
/// it never closes the ring, never unregisters — while this process's
/// reader sits idle on an armed ring. There is no poll and no timeout on
/// the subscriber side any more, so the only thing that can end the link is
/// the control socket's EOF reaching the reader's handler; it does, and the
/// supervision starts retrying the (still registered) endpoint.
#[test]
fn killed_publisher_concludes_the_link_on_control_socket_eof() {
    let out_path =
        std::env::temp_dir().join(format!("rossf-shm-orphan-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&out_path);
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "shm_child_publisher_entry",
            "--exact",
            "--test-threads",
            "1",
        ])
        .env("ROSSF_SHM_ORPHAN_OUT", &out_path)
        .spawn()
        .expect("spawn child publisher process");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr: std::net::SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&out_path) {
            break text.parse().expect("child address parses");
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("child publisher never reported its address");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let _ = std::fs::remove_file(&out_path);

    let master = Master::new();
    master
        .register_publisher("shm/orphan", Payload::type_name(), addr, MachineId::A)
        .expect("register child endpoint");
    let nh = NodeHandle::with_config(&master, "orphan_sub", MachineId::A, shm_config(true));
    let mapped = Arc::new(AtomicU64::new(0));
    let mapped_cb = Arc::clone(&mapped);
    let sub = nh.subscribe_with(
        "shm/orphan",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            if rossf_shm::is_shm_mapped(m.base()) {
                mapped_cb.fetch_add(1, Ordering::SeqCst);
            }
        },
    );
    // Frames arriving zero-copy from the other process: every wake-up on
    // this link was a doorbell byte on the control socket.
    wait_until("frames over the cross-process ring", || {
        mapped.load(Ordering::SeqCst) >= 5
    });
    assert_eq!(sub.stats().reconnect_attempts, 0, "the link was healthy");
    let disconnects = master.metrics().topic("shm/orphan").disconnects;

    child.kill().expect("kill child publisher");
    child.wait().expect("reap child publisher");
    wait_until("the reader to conclude the orphaned link", || {
        sub.stats().reconnect_attempts >= 1
    });
    let after = master.metrics().topic("shm/orphan");
    assert!(after.disconnects > disconnects, "the link was concluded");
    assert_eq!(
        sub.stats().decode_errors,
        0,
        "an orphaned ring is not a corrupt one"
    );
}
