//! The shaped-link contract, end to end over real sockets.
//!
//! The TCP writer is cut-through — a paced frame drains into the socket
//! while the modelled link carries it and only its last quantum waits — so
//! what these tests pin is what the *receiver* may observe: no frame
//! completes before `link start + transmit + latency`, a queued burst is
//! carried at link rate in order, and faults or teardown in the middle of a
//! held tail never surface a partial frame.
//!
//! Profiles are slow (100 Mb/s, 1 Gb/s) so model times dwarf scheduler
//! noise. Lower bounds are exact — the clock starts before `publish`, the
//! link cannot start earlier — and upper bounds are only there to catch a
//! hang.

use rossf_ros::{
    BackoffPolicy, LinkProfile, MachineId, Master, NodeHandle, PublisherOptions, SubscriberOptions,
    TransportConfig,
};
use rossf_sfm::{
    FieldDesc, MessageSchema, SfmBox, SfmError, SfmMessage, SfmPod, SfmReflect, SfmShared,
    SfmString, SfmValidate, SfmVec, StructDesc, TypeDesc,
};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A message with a schema (so it can be projected) and two byte vectors
/// (so a projection can leave one out).
#[repr(C)]
#[derive(Debug)]
struct Blob {
    seq: u32,
    _pad: u32,
    tag: SfmString,
    skipped: SfmVec<u8>,
    payload: SfmVec<u8>,
    trailer: SfmVec<u8>,
}
unsafe impl SfmPod for Blob {}
impl SfmValidate for Blob {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.tag.validate_in(base, len)?;
        self.skipped.validate_in(base, len)?;
        self.payload.validate_in(base, len)?;
        self.trailer.validate_in(base, len)
    }
}
impl SfmReflect for Blob {
    fn type_desc() -> TypeDesc {
        let field = |name: &str, offset, ty| FieldDesc {
            name: name.into(),
            offset,
            ty,
        };
        TypeDesc::Struct(StructDesc::new(
            "test/PacingBlob",
            std::mem::size_of::<Blob>(),
            std::mem::align_of::<Blob>(),
            vec![
                field("seq", 0, u32::type_desc()),
                field("tag", 8, SfmString::type_desc()),
                field("skipped", 16, SfmVec::<u8>::type_desc()),
                field("payload", 24, SfmVec::<u8>::type_desc()),
                field("trailer", 32, SfmVec::<u8>::type_desc()),
            ],
        ))
    }
}
unsafe impl SfmMessage for Blob {
    fn type_name() -> &'static str {
        "test/PacingBlob"
    }
    fn max_size() -> usize {
        (1 << 20) + (256 << 10)
    }
    fn schema() -> Option<&'static MessageSchema> {
        static SCHEMA: OnceLock<MessageSchema> = OnceLock::new();
        Some(SCHEMA.get_or_init(MessageSchema::of::<Blob>))
    }
}

/// A message whose payload bytes depend on `seq`, so a frame delivered
/// under the wrong sequence number — or stitched from two — cannot pass
/// for the right one.
fn blob(seq: u32, payload_len: usize) -> SfmBox<Blob> {
    let mut m = SfmBox::<Blob>::new();
    m.seq = seq;
    m.tag.assign("paced");
    m.payload.resize(payload_len);
    for (i, b) in m.payload.as_mut_slice().iter_mut().enumerate() {
        *b = (i as u32).wrapping_mul(31).wrapping_add(seq) as u8;
    }
    m
}

/// Bytes the frame occupies on the link: length prefix plus payload.
fn wire_bytes(m: &SfmBox<Blob>) -> usize {
    4 + m.publish_handle().len()
}

/// Generous: only there so a hang fails the test instead of the suite.
const SLACK: Duration = Duration::from_secs(5);

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One publisher on machine A, one subscriber on machine B behind
/// `profile`; every delivery is reported as (arrival time, frame bytes).
struct Rig {
    /// The link's fault injector (links pick theirs up at connect time).
    fault: std::sync::Arc<rossf_ros::FaultInjector>,
    publisher: rossf_ros::Publisher<SfmBox<Blob>>,
    sub: rossf_ros::Subscriber<SfmShared<Blob>>,
    rx: mpsc::Receiver<(Instant, Vec<u8>)>,
    _nodes: (NodeHandle, NodeHandle),
}

fn rig(topic: &str, profile: LinkProfile, config: TransportConfig) -> Rig {
    let master = Master::new();
    master.links().connect(MachineId::A, MachineId::B, profile);
    let fault = master.links().inject(MachineId::A, MachineId::B);
    let nh_a = NodeHandle::new(&master, "paced_pub");
    let nh_b = NodeHandle::with_config(&master, "paced_sub", MachineId::B, config);
    let publisher =
        nh_a.advertise_with::<SfmBox<Blob>>(topic, PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let sub = nh_b.subscribe_with(
        topic,
        SubscriberOptions::new(),
        move |m: SfmShared<Blob>| {
            let _ = tx.send((Instant::now(), m.as_bytes().to_vec()));
        },
    );
    nh_a.wait_for_subscribers(&publisher, 1);
    Rig {
        fault,
        publisher,
        sub,
        rx,
        _nodes: (nh_a, nh_b),
    }
}

fn slow() -> LinkProfile {
    LinkProfile {
        bandwidth_bps: 100_000_000,
        latency: Duration::from_millis(2),
    }
}

/// (a) One 1 MB frame: the bulk of it is in the receiver's socket buffer
/// within a millisecond of `publish`, and the frame still is not delivered
/// before the link model says its last byte arrived.
#[test]
fn a_large_frame_is_never_delivered_before_transmit_plus_latency() {
    let profile = slow();
    let rig = rig("pacing/one", profile, TransportConfig::default());
    let m = blob(1, 1 << 20);
    let floor = profile.transmit_time(wire_bytes(&m)) + profile.latency;
    assert!(floor > Duration::from_millis(80), "model sanity: {floor:?}");

    let start = Instant::now();
    rig.publisher.publish(&m);
    let (arrived, bytes) = rig.rx.recv_timeout(floor + SLACK).expect("frame lost");
    let elapsed = arrived - start;
    assert!(elapsed >= floor, "delivered after {elapsed:?} < {floor:?}");
    assert_eq!(bytes, m.publish_handle().as_slice());
}

/// (b) A burst queued at once is booked on the link back to back: frame k
/// (0-based) completes no sooner than `(k + 1) × transmit + latency`, and
/// the frames arrive in order, each byte-identical to what was published.
#[test]
fn a_queued_burst_is_carried_at_link_rate_in_order() {
    const N: u32 = 5;
    let profile = slow();
    let rig = rig("pacing/burst", profile, TransportConfig::default());
    let frames: Vec<SfmBox<Blob>> = (0..N).map(|seq| blob(seq, 250_000)).collect();
    let transmit = profile.transmit_time(wire_bytes(&frames[0]));

    let start = Instant::now();
    for m in &frames {
        rig.publisher.publish(m);
    }
    for (k, m) in frames.iter().enumerate() {
        let (arrived, bytes) = rig
            .rx
            .recv_timeout(transmit * N + SLACK)
            .expect("frame lost");
        let floor = transmit * (k as u32 + 1) + profile.latency;
        let elapsed = arrived - start;
        assert!(
            elapsed >= floor,
            "frame {k} delivered after {elapsed:?} < {floor:?}"
        );
        assert_eq!(bytes, m.publish_handle().as_slice(), "frame {k}");
    }
    assert_eq!(rig.publisher.stats().dropped, 0);
}

/// (c) A frame no larger than the held quantum is held whole: nothing of
/// it is on the wire before its time, exactly the whole-frame stall this
/// writer used to apply to every frame.
#[test]
fn a_small_frame_waits_out_the_whole_model_time() {
    let profile = LinkProfile {
        bandwidth_bps: 100_000_000,
        latency: Duration::from_millis(20),
    };
    let rig = rig("pacing/small", profile, TransportConfig::default());
    let m = blob(7, 32 << 10);
    let floor = profile.transmit_time(wire_bytes(&m)) + profile.latency;

    let start = Instant::now();
    rig.publisher.publish(&m);
    let (arrived, bytes) = rig.rx.recv_timeout(floor + SLACK).expect("frame lost");
    let elapsed = arrived - start;
    assert!(elapsed >= floor, "delivered after {elapsed:?} < {floor:?}");
    assert_eq!(bytes, m.publish_handle().as_slice());
}

/// (d) Projected sub-frames take the same write path: over a shaped link —
/// where the held tail spans two content segments and their pad — they are
/// byte-identical to the same projection over an unshaped one.
#[test]
fn a_projected_link_is_byte_identical_shaped_and_unshaped() {
    let master = Master::new();
    let shaped = MachineId::B;
    let unshaped = MachineId(7); // no entry in the link table: unlimited
    master
        .links()
        .connect(MachineId::A, shaped, LinkProfile::gigabit());
    let nh_a = NodeHandle::new(&master, "proj_pub");
    let publisher =
        nh_a.advertise_with::<SfmBox<Blob>>("pacing/proj", PublisherOptions::new().queue_size(8));
    let subscribe = |machine: MachineId| {
        let nh = NodeHandle::with_machine(&master, "proj_sub", machine);
        let (tx, rx) = mpsc::channel();
        let sub = nh.subscribe_with(
            "pacing/proj",
            SubscriberOptions::new().project(&["seq", "tag", "payload", "trailer"]),
            move |m: SfmShared<Blob>| {
                let _ = tx.send(m.as_bytes().to_vec());
            },
        );
        (nh, sub, rx)
    };
    let (_nh_b, sub_b, rx_b) = subscribe(shaped);
    let (_nh_c, _sub_c, rx_c) = subscribe(unshaped);
    nh_a.wait_for_subscribers(&publisher, 2);

    for seq in 0..3 {
        let mut m = blob(seq, 150_000);
        m.skipped.resize(90_001); // odd length: the next segment needs a pad
        m.trailer.assign(&vec![seq as u8 ^ 0x5A; 40_000]);
        publisher.publish(&m);
        let over_shaped = rx_b.recv_timeout(SLACK).expect("shaped frame lost");
        let over_unshaped = rx_c.recv_timeout(SLACK).expect("unshaped frame lost");
        assert!(
            over_shaped.len() > 190_000 && over_shaped.len() < m.publish_handle().len() - 90_000,
            "sub-frame carries payload + trailer, not `skipped`: {}",
            over_shaped.len()
        );
        assert_eq!(over_shaped, over_unshaped, "seq {seq}");
    }
    let snap = publisher.stats().transport;
    assert_eq!(snap.projection_handshakes, 2);
    assert_eq!(snap.projection_frames, 6);
    assert_eq!(sub_b.stats().decode_errors, 0);
    assert_eq!(snap.verify_rejects, 0);
}

fn fast_reconnect() -> TransportConfig {
    TransportConfig {
        backoff: BackoffPolicy {
            initial: Duration::from_millis(2),
            max: Duration::from_millis(20),
            multiplier: 2.0,
            jitter: 0.25,
            max_attempts: 0,
        },
        ..TransportConfig::default()
    }
}

/// (e) The link is cut while a frame's tail is held (its bulk already in
/// the receiver's buffer): the frame is never delivered, not even in part,
/// the link dies, and after the heal a reconnect delivers the next frame.
#[test]
fn a_sever_under_a_held_tail_delivers_nothing_partial() {
    let rig = rig("pacing/sever", slow(), fast_reconnect());
    let fault = &rig.fault;

    rig.publisher.publish(&blob(1, 1 << 20)); // ~84 ms on the link
    wait_until("frame 1 admitted to the link", || {
        fault.frames_passed() == 1
    });
    fault.sever_now();
    rig.publisher.publish(&blob(2, 64)); // meets the sever at admission
    wait_until("link torn down", || rig.publisher.subscriber_count() == 0);
    assert!(rig.rx.try_recv().is_err(), "a frame crossed a severed link");

    fault.heal();
    wait_until("reconnected", || rig.publisher.subscriber_count() == 1);
    let m = blob(3, 100_000);
    rig.publisher.publish(&m);
    let (_, bytes) = rig.rx.recv_timeout(SLACK).expect("frame after heal lost");
    assert_eq!(bytes, m.publish_handle().as_slice());
    assert!(rig.rx.try_recv().is_err(), "only frame 3 may ever arrive");
    assert_eq!(rig.sub.stats().received, 1);
    assert!(rig.sub.stats().reconnects >= 1);
}

/// (f) The publisher is dropped while a tail is held: the writer outlives
/// it just long enough to finish the frame on time, then closes the link.
#[test]
fn a_publisher_dropped_under_a_held_tail_still_delivers() {
    let profile = slow();
    let Rig {
        publisher, sub, rx, ..
    } = rig("pacing/drop", profile, TransportConfig::default());
    let m = blob(9, 1 << 20);
    let expected = m.publish_handle().as_slice().to_vec();
    let floor = profile.transmit_time(wire_bytes(&m)) + profile.latency;

    let start = Instant::now();
    publisher.publish(&m);
    drop(publisher);
    let (arrived, bytes) = rx.recv_timeout(floor + SLACK).expect("frame lost");
    assert!(arrived - start >= floor, "early: {:?}", arrived - start);
    assert_eq!(bytes, expected);
    // The writer closed the socket once the tail drained: the reader saw a
    // clean EOF between frames, not a truncation.
    wait_until("link closed", || sub.stats().transport.disconnects >= 1);
    assert_eq!(sub.stats().decode_errors, 0);
    assert_eq!(sub.stats().received, 1);
}
