//! Concurrency stress: the global message manager and the transport under
//! multi-threaded churn. Lives in its own test binary so the live-record
//! accounting isn't disturbed by unrelated tests — and, within it, the
//! one test that asserts on that process-global accounting runs alone
//! (see [`MM_QUIET`]).

use rossf::netsim::MachineId;
use rossf::prelude::*;
use rossf::ros::wire::{write_frame, ConnectionHeader};
use rossf::sfm::mm;
use rossf_msg::sensor_msgs::SfmImage;
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmValidate, SfmVec};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// `mm()` is one manager per process and the harness runs this binary's
/// tests on parallel threads: a sibling's in-flight message is
/// indistinguishable from a leak of the churn test's own. The churn test
/// asserts on `mm().live()` under the write half; every test that
/// allocates messages holds the read half, so the siblings still overlap
/// each other. (Run alone, the churn test never failed — the failures
/// were isolation, not a late release.)
static MM_QUIET: RwLock<()> = RwLock::new(());

/// Held by a test for as long as it may have messages alive.
fn allocating() -> RwLockReadGuard<'static, ()> {
    // A sibling that panicked poisons the lock without invalidating `()`.
    MM_QUIET.read().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn concurrent_lifecycle_churn_leaves_no_records_behind() {
    let _alone = MM_QUIET.write().unwrap_or_else(|e| e.into_inner());
    let live_before = mm().live();
    let threads = 8;
    let per_thread = 200;

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let mut img = SfmBox::<SfmImage>::new();
                    img.header.seq = (t * per_thread + i) as u32;
                    img.header.frame_id.assign("stress");
                    img.encoding.assign("mono8");
                    img.data.resize(64 + (i % 512));
                    // Exercise all exit paths: plain drop, publish-then-
                    // drop, into_shared with clones.
                    match i % 3 {
                        0 => drop(img),
                        1 => {
                            let frame = img.publish_handle();
                            drop(img);
                            assert!(!frame.as_slice().is_empty());
                        }
                        _ => {
                            let shared = img.into_shared();
                            let c1 = shared.clone();
                            let c2 = shared.clone();
                            drop(shared);
                            assert_eq!(c1.data.len(), c2.data.len());
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics under churn");
    }

    assert_eq!(
        mm().live(),
        live_before,
        "every record must be released after churn"
    );
    let stats = mm().stats();
    assert!(stats.registered >= (threads * per_thread) as u64);
}

#[test]
fn publish_subscribe_storm() {
    let _allocating = allocating();
    // Several publishers and subscribers on one topic, messages flying
    // concurrently; every published frame must reach every subscriber.
    let master = Master::new();
    let nh = NodeHandle::new(&master, "storm");
    let n_pubs = 3;
    let n_subs = 3;
    let per_pub = 40u64;

    let publishers: Vec<_> = (0..n_pubs)
        .map(|_| {
            nh.advertise_with::<SfmBox<SfmImage>>(
                "storm/topic",
                PublisherOptions::new().queue_size(256),
            )
        })
        .collect();
    let counters: Vec<Arc<AtomicU64>> = (0..n_subs).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let _subs: Vec<_> = counters
        .iter()
        .map(|c| {
            let c = Arc::clone(c);
            nh.subscribe_with(
                "storm/topic",
                SubscriberOptions::new(),
                move |m: SfmShared<SfmImage>| {
                    assert_eq!(m.encoding.as_str(), "mono8");
                    c.fetch_add(1, Ordering::SeqCst);
                },
            )
        })
        .collect();
    for p in &publishers {
        nh.wait_for_subscribers(p, n_subs);
    }

    let handles: Vec<_> = publishers
        .into_iter()
        .map(|p| {
            std::thread::spawn(move || {
                for i in 0..per_pub {
                    let mut img = SfmBox::<SfmImage>::new();
                    img.header.seq = i as u32;
                    img.encoding.assign("mono8");
                    img.data.resize(256);
                    p.publish(&img);
                    // Pace so the bounded queues never drop on 1 CPU.
                    std::thread::sleep(Duration::from_micros(500));
                }
                p
            })
        })
        .collect();
    let publishers: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let expected = n_pubs as u64 * per_pub;
    let deadline = Instant::now() + Duration::from_secs(30);
    while counters.iter().any(|c| c.load(Ordering::SeqCst) < expected) {
        assert!(
            Instant::now() < deadline,
            "storm incomplete: {:?} (dropped: {:?})",
            counters
                .iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect::<Vec<_>>(),
            publishers
                .iter()
                .map(|p| p.stats().frames_dropped)
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for p in &publishers {
        assert_eq!(
            p.stats().frames_dropped,
            0,
            "no frame may be dropped at this pacing"
        );
    }
}

#[test]
fn dropped_accounting_is_exact_under_full_queue() {
    let _allocating = allocating();
    // Stall the writer thread with an injected delay so the transmission
    // queue fills deterministically, then count drops against the excess.
    let master = Master::new();
    let fault = master.links().inject(MachineId::A, MachineId::B);
    fault.delay_frame(0, Duration::from_millis(400));
    let nh_pub = NodeHandle::new(&master, "dropper");
    let nh_sub = NodeHandle::with_machine(&master, "sink", MachineId::B);

    let queue = 4usize;
    let extra = 3u64;
    let publisher = nh_pub.advertise_with::<SfmBox<SfmImage>>(
        "drop/exact",
        PublisherOptions::new().queue_size(queue),
    );
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let _sub = nh_sub.subscribe_with(
        "drop/exact",
        SubscriberOptions::new(),
        move |_m: SfmShared<SfmImage>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);

    let mut img = SfmBox::<SfmImage>::new();
    img.data.resize(64);

    // Frame 0 is dequeued immediately and held in the injected delay...
    publisher.publish(&img);
    std::thread::sleep(Duration::from_millis(100));
    // ...so these fill the queue to the brim, and the rest must be counted
    // as dropped — exactly, not approximately.
    for _ in 0..queue as u64 + extra {
        publisher.publish(&img);
    }
    assert_eq!(
        publisher.stats().frames_dropped,
        extra,
        "drops must equal the excess"
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    let expected = 1 + queue as u64;
    while seen.load(Ordering::SeqCst) < expected {
        assert!(Instant::now() < deadline, "queued frames not delivered");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(seen.load(Ordering::SeqCst), expected);

    let snap = master.metrics().topic("drop/exact");
    assert_eq!(snap.frames_dropped, extra);
    assert_eq!(
        snap.queue_depth_hwm, queue as u64,
        "high-water mark must reach the configured queue bound"
    );
}

#[repr(C)]
#[derive(Debug)]
struct Probe {
    seq: u32,
    _pad: u32,
    data: SfmVec<u8>,
}
unsafe impl SfmPod for Probe {}
impl SfmValidate for Probe {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.data.validate_in(base, len)
    }
}
unsafe impl SfmMessage for Probe {
    fn type_name() -> &'static str {
        "test/StressProbe"
    }
    fn max_size() -> usize {
        4096
    }
}

#[test]
fn malformed_frame_storm_counts_errors_without_desync() {
    let _allocating = allocating();
    // A hostile publisher interleaves many corrupt frames with valid ones;
    // every corrupt frame must increment decode_errors, every valid frame
    // must be delivered, and the connection must survive the whole storm.
    let master = Master::new();
    let nh = NodeHandle::new(&master, "victim");
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    master
        .register_publisher(
            "stress/malformed",
            Probe::type_name(),
            listener.local_addr().unwrap(),
            MachineId::A,
        )
        .unwrap();

    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh.subscribe_with(
        "stress/malformed",
        SubscriberOptions::new(),
        move |m: SfmShared<Probe>| {
            assert_eq!(m.data.len(), 32);
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );

    let (mut stream, _) = listener.accept().unwrap();
    {
        let mut r = std::io::BufReader::new(stream.try_clone().unwrap());
        ConnectionHeader::read_from(&mut r).unwrap();
    }
    ConnectionHeader::new()
        .with("type", Probe::type_name())
        .with("endian", ConnectionHeader::native_endian())
        .write_to(&mut stream)
        .unwrap();

    let frame = {
        let mut msg = SfmBox::<Probe>::new();
        msg.data.resize(32);
        msg.publish_handle().as_slice().to_vec()
    };
    let corrupt = {
        let mut bad = frame.clone();
        let off = core::mem::offset_of!(Probe, data) + 4;
        bad[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bad
    };

    let rounds = 50u64;
    let mut corrupt_sent = 0u64;
    let mut valid_sent = 0u64;
    for i in 0..rounds {
        if i % 3 == 1 {
            write_frame(&mut stream, &corrupt).unwrap();
            corrupt_sent += 1;
        } else {
            write_frame(&mut stream, &frame).unwrap();
            valid_sent += 1;
        }
    }
    stream.flush().unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.load(Ordering::SeqCst) < valid_sent || sub.stats().decode_errors < corrupt_sent {
        assert!(
            Instant::now() < deadline,
            "storm incomplete: seen {} of {valid_sent}, errors {} of {corrupt_sent}",
            seen.load(Ordering::SeqCst),
            sub.stats().decode_errors
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(sub.stats().frames_received, valid_sent);
    assert_eq!(sub.stats().decode_errors, corrupt_sent);

    // The connection is still alive: one more valid frame gets through.
    write_frame(&mut stream, &frame).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.load(Ordering::SeqCst) < valid_sent + 1 {
        assert!(Instant::now() < deadline, "connection died during storm");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(sub.stats().decode_errors, corrupt_sent);
}

#[test]
fn rapid_subscribe_unsubscribe_cycles() {
    let _allocating = allocating();
    let master = Master::new();
    let nh = NodeHandle::new(&master, "cycler");
    let publisher =
        nh.advertise_with::<SfmBox<SfmImage>>("cycle/topic", PublisherOptions::new().queue_size(8));

    for round in 0..10 {
        let (tx, rx) = std::sync::mpsc::channel();
        let sub = nh.subscribe_with(
            "cycle/topic",
            SubscriberOptions::new(),
            move |m: SfmShared<SfmImage>| {
                let _ = tx.send(m.header.seq);
            },
        );
        nh.wait_for_subscribers(&publisher, 1);
        let mut img = SfmBox::<SfmImage>::new();
        img.header.seq = round;
        img.data.resize(32);
        publisher.publish(&img);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            round,
            "round {round}"
        );
        drop(sub);
        // Publisher prunes the dead connection before the next round.
        let deadline = Instant::now() + Duration::from_secs(10);
        while publisher.subscriber_count() > 0 {
            assert!(Instant::now() < deadline, "connection not pruned");
            publisher.publish(&SfmBox::<SfmImage>::new());
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
