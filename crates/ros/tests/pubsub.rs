//! End-to-end pub/sub tests over real TCP loopback, for both message
//! families (plain/serialized and SFM/serialization-free), including
//! cross-machine link shaping.

use rossf_ros::ser::{ByteReader, DecodeError, RosField, RosMessage};
use rossf_ros::wire::MAX_FRAME_LEN;
use rossf_ros::{
    Decode, Encode, LinkProfile, MachineId, Master, NodeHandle, OutFrame, PublisherOptions,
    RosError, SubscriberOptions, TopicType, VecSlot,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmString, SfmValidate, SfmVec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

// === A hand-rolled plain message (the macro in rossf-msg does this) ===

#[derive(Debug, Clone, PartialEq, Default)]
struct Ping {
    seq: u32,
    stamp_nanos: u64,
    payload: Vec<u8>,
}

impl RosField for Ping {
    fn field_len(&self) -> usize {
        self.seq.field_len() + self.stamp_nanos.field_len() + self.payload.field_len()
    }
    fn write_field(&self, out: &mut Vec<u8>) {
        self.seq.write_field(out);
        self.stamp_nanos.write_field(out);
        self.payload.write_field(out);
    }
    fn read_field(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Ping {
            seq: u32::read_field(r)?,
            stamp_nanos: u64::read_field(r)?,
            payload: Vec::read_field(r)?,
        })
    }
}

impl RosMessage for Ping {
    fn ros_type_name() -> &'static str {
        "test/Ping"
    }
}

impl TopicType for Ping {
    fn topic_type() -> &'static str {
        "test/Ping"
    }
}

impl Encode for Ping {
    fn encode(&self) -> OutFrame {
        OutFrame::owned(Arc::new(self.to_bytes()))
    }
}

// === A hand-rolled SFM message ===

#[repr(C)]
#[derive(Debug)]
struct SfmPing {
    seq: u32,
    _pad: u32,
    stamp_nanos: u64,
    tag: SfmString,
    payload: SfmVec<u8>,
}
unsafe impl SfmPod for SfmPing {}
impl SfmValidate for SfmPing {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.tag.validate_in(base, len)?;
        self.payload.validate_in(base, len)
    }
}
unsafe impl SfmMessage for SfmPing {
    fn type_name() -> &'static str {
        "test/SfmPing"
    }
    fn max_size() -> usize {
        1 << 20
    }
}

// === A message of any length ===

/// `n` zero bytes on the wire; the callback sees `n`.
struct Zeros(usize);

impl TopicType for Zeros {
    fn topic_type() -> &'static str {
        "test/Zeros"
    }
}

impl Encode for Zeros {
    fn encode(&self) -> OutFrame {
        // Zeroed, so a frame refused by its length never touches its pages.
        OutFrame::owned(Arc::new(vec![0; self.0]))
    }
}

impl Decode for Zeros {
    type Slot = VecSlot;

    fn new_slot(len: usize) -> Result<VecSlot, RosError> {
        Ok(VecSlot::new(len))
    }

    fn finish_slot(slot: VecSlot) -> Result<Self, RosError> {
        Ok(Zeros(slot.as_slice().len()))
    }
}

fn recv_n<T>(rx: &mpsc::Receiver<T>, n: usize) -> Vec<T> {
    (0..n)
        .map(|i| {
            rx.recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("message {i}/{n} not delivered: {e}"))
        })
        .collect()
}

#[test]
fn plain_messages_roundtrip_over_tcp() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "pub");
    let publisher =
        nh.advertise_with::<Ping>("plain_roundtrip", PublisherOptions::new().queue_size(64));
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "plain_roundtrip",
        SubscriberOptions::new(),
        move |msg: Arc<Ping>| {
            tx.send(msg).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    for seq in 0..20u32 {
        publisher.publish(&Ping {
            seq,
            stamp_nanos: 7,
            payload: vec![seq as u8; 100],
        });
    }
    let got = recv_n(&rx, 20);
    for (i, msg) in got.iter().enumerate() {
        assert_eq!(msg.seq, i as u32, "in-order delivery");
        assert_eq!(msg.payload, vec![i as u8; 100]);
    }
    assert_eq!(publisher.stats().published, 20);
    assert_eq!(
        publisher.stats().dropped,
        0,
        "queue depth 64 must absorb the burst"
    );
}

#[test]
fn sfm_messages_roundtrip_over_tcp() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "pub");
    let publisher = nh
        .advertise_with::<SfmBox<SfmPing>>("sfm_roundtrip", PublisherOptions::new().queue_size(64));
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "sfm_roundtrip",
        SubscriberOptions::new(),
        move |msg: SfmShared<SfmPing>| {
            tx.send(msg).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    for seq in 0..10u32 {
        let mut msg = SfmBox::<SfmPing>::new();
        msg.seq = seq;
        msg.stamp_nanos = 1234567;
        msg.tag.assign("sfm");
        msg.payload.resize(4096);
        msg.payload.as_mut_slice().fill(seq as u8);
        publisher.publish(&msg);
    }
    let got = recv_n(&rx, 10);
    for (i, msg) in got.iter().enumerate() {
        assert_eq!(msg.seq, i as u32);
        assert_eq!(msg.tag.as_str(), "sfm");
        assert_eq!(msg.payload.len(), 4096);
        assert!(msg.payload.iter().all(|&b| b == i as u8));
    }
}

#[test]
fn multiple_subscribers_each_get_every_message() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "pub");
    let publisher =
        nh.advertise_with::<SfmBox<SfmPing>>("fanout", PublisherOptions::new().queue_size(16));
    let counters: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let _subs: Vec<_> = counters
        .iter()
        .map(|c| {
            let c = Arc::clone(c);
            nh.subscribe_with(
                "fanout",
                SubscriberOptions::new(),
                move |_msg: SfmShared<SfmPing>| {
                    c.fetch_add(1, Ordering::SeqCst);
                },
            )
        })
        .collect();
    nh.wait_for_subscribers(&publisher, 3);

    for _ in 0..5 {
        let mut msg = SfmBox::<SfmPing>::new();
        msg.payload.resize(64);
        publisher.publish(&msg);
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while counters.iter().any(|c| c.load(Ordering::SeqCst) < 5) {
        assert!(std::time::Instant::now() < deadline, "fanout incomplete");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn late_publisher_is_discovered_by_existing_subscriber() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "node");
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "late_pub",
        SubscriberOptions::new(),
        move |msg: Arc<Ping>| {
            tx.send(msg.seq).unwrap();
        },
    );
    // Publisher appears after the subscription.
    let publisher = nh.advertise_with::<Ping>("late_pub", PublisherOptions::new().queue_size(4));
    nh.wait_for_subscribers(&publisher, 1);
    publisher.publish(&Ping {
        seq: 99,
        ..Ping::default()
    });
    assert_eq!(recv_n(&rx, 1), vec![99]);
}

#[test]
fn type_mismatch_rejected_by_master() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "node");
    let _pub = nh.advertise_with::<Ping>("typed", PublisherOptions::new().queue_size(4));
    let result = nh.try_subscribe_with(
        "typed",
        SubscriberOptions::new(),
        |_msg: SfmShared<SfmPing>| {},
    );
    assert!(matches!(result, Err(RosError::TypeMismatch { .. })));
}

#[test]
fn shaped_cross_machine_link_slows_delivery() {
    let master = Master::new();
    // 80 Mb/s: a 1 MB frame takes ~100 ms on the wire.
    master.links().connect(
        MachineId::A,
        MachineId::B,
        LinkProfile {
            bandwidth_bps: 80_000_000,
            latency: Duration::from_millis(1),
        },
    );
    let nh_a = NodeHandle::new(&master, "pub");
    let nh_b = NodeHandle::with_machine(&master, "sub", MachineId::B);

    let publisher =
        nh_a.advertise_with::<SfmBox<SfmPing>>("shaped", PublisherOptions::new().queue_size(4));
    let (tx, rx) = mpsc::channel();
    let _sub = nh_b.subscribe_with(
        "shaped",
        SubscriberOptions::new(),
        move |msg: SfmShared<SfmPing>| {
            tx.send(msg.seq).unwrap();
        },
    );
    nh_a.wait_for_subscribers(&publisher, 1);

    let mut msg = SfmBox::<SfmPing>::new();
    msg.seq = 1;
    msg.payload.resize(1_000_000);
    let start = std::time::Instant::now();
    publisher.publish(&msg);
    assert_eq!(recv_n(&rx, 1), vec![1]);
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(90),
        "shaping not applied: {elapsed:?}"
    );
}

#[test]
fn unshaped_same_machine_is_fast() {
    let master = Master::new();
    master
        .links()
        .connect(MachineId::A, MachineId::B, LinkProfile::fast_ethernet());
    // Both nodes on machine A: the A<->B profile must NOT apply.
    let nh = NodeHandle::new(&master, "node");
    let publisher =
        nh.advertise_with::<SfmBox<SfmPing>>("local_fast", PublisherOptions::new().queue_size(4));
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "local_fast",
        SubscriberOptions::new(),
        move |msg: SfmShared<SfmPing>| {
            tx.send(msg.seq).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    let mut msg = SfmBox::<SfmPing>::new();
    msg.payload.resize(1_000_000);
    let start = std::time::Instant::now();
    publisher.publish(&msg);
    recv_n(&rx, 1);
    assert!(
        start.elapsed() < Duration::from_millis(80),
        "same-machine traffic must be unshaped (took {:?})",
        start.elapsed()
    );
}

#[test]
fn subscriber_drop_stops_delivery_and_publisher_notices() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "node");
    let publisher = nh.advertise_with::<Ping>("drop_sub", PublisherOptions::new().queue_size(4));
    let (tx, rx) = mpsc::channel();
    let sub = nh.subscribe_with(
        "drop_sub",
        SubscriberOptions::new(),
        move |msg: Arc<Ping>| {
            let _ = tx.send(msg.seq);
        },
    );
    nh.wait_for_subscribers(&publisher, 1);
    publisher.publish(&Ping::default());
    recv_n(&rx, 1);
    drop(sub);

    // Publisher eventually prunes the dead connection.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        publisher.publish(&Ping::default());
        if publisher.subscriber_count() == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connection not pruned"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn publisher_drop_ends_subscriber_connection() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "node");
    let publisher = nh.advertise_with::<Ping>("drop_pub", PublisherOptions::new().queue_size(4));
    let sub = nh.subscribe_with("drop_pub", SubscriberOptions::new(), |_msg: Arc<Ping>| {});
    nh.wait_for_subscribers(&publisher, 1);
    assert_eq!(master.publisher_count("drop_pub"), 1);
    drop(publisher);
    assert_eq!(master.publisher_count("drop_pub"), 0);
    drop(sub);
}

#[test]
fn ping_pong_relay_preserves_stamp() {
    // The Fig. 15 topology in miniature: pub -> trans -> sub.
    let master = Master::new();
    let nh = NodeHandle::new(&master, "a");
    let nh_b = NodeHandle::with_machine(&master, "b", MachineId::B);

    let pub1 = nh.advertise_with::<Ping>("pp1", PublisherOptions::new().queue_size(4));
    let pub2 = nh_b.advertise_with::<Ping>("pp2", PublisherOptions::new().queue_size(4));
    let pub2_clone = pub2.clone();
    let _trans = nh_b.subscribe_with("pp1", SubscriberOptions::new(), move |msg: Arc<Ping>| {
        pub2_clone.publish(&Ping {
            seq: msg.seq,
            stamp_nanos: msg.stamp_nanos,
            payload: msg.payload.clone(),
        });
    });
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with("pp2", SubscriberOptions::new(), move |msg: Arc<Ping>| {
        tx.send((msg.seq, msg.stamp_nanos)).unwrap();
    });
    nh.wait_for_subscribers(&pub1, 1);
    nh_b.wait_for_subscribers(&pub2, 1);

    pub1.publish(&Ping {
        seq: 5,
        stamp_nanos: 42,
        payload: vec![0; 10],
    });
    assert_eq!(recv_n(&rx, 1), vec![(5, 42)]);
}

/// A frame above `MAX_FRAME_LEN` is refused by the publisher before any
/// link sees it, on TCP and on the fast path alike: it is counted as
/// oversized and not as published, and the link it never entered stays up
/// and carries the next frame.
#[test]
fn an_oversized_frame_is_refused_at_the_publisher_and_the_link_stays_up() {
    for (sub_machine, fastpath_frames) in [(MachineId::B, 0), (MachineId::A, 1)] {
        let master = Master::new();
        let nh_pub = NodeHandle::new(&master, "big_pub");
        let nh_sub = NodeHandle::with_machine(&master, "big_sub", sub_machine);
        let publisher = nh_pub.advertise_with::<Zeros>("oversize", PublisherOptions::new());
        let (tx, rx) = mpsc::channel();
        let sub = nh_sub.subscribe_with("oversize", SubscriberOptions::new(), move |m: Zeros| {
            tx.send(m.0).unwrap();
        });
        nh_pub.wait_for_subscribers(&publisher, 1);

        publisher.publish(&Zeros(MAX_FRAME_LEN + 1));
        publisher.publish(&Zeros(16));
        assert_eq!(recv_n(&rx, 1), [16], "{sub_machine:?}: the normal frame");
        let stats = publisher.stats();
        assert_eq!(
            stats.transport.frames_dropped_oversized, 1,
            "{sub_machine:?}"
        );
        assert_eq!(stats.published, 1, "{sub_machine:?}");
        assert_eq!(stats.transport.fastpath_frames, fastpath_frames);
        assert_eq!(stats.subscribers, 1, "{sub_machine:?}: the link stayed up");
        assert_eq!(sub.stats().reconnect_attempts, 0, "{sub_machine:?}");
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "{sub_machine:?}: only the normal frame is delivered"
        );
    }
}
