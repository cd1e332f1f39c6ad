//! Record a live topic into a bag, then replay it onto a fresh topic —
//! for both message families.

use rossf_bag::{BagReader, BagWriter, Recorder, ReplayOptions, Replayer};
use rossf_ros::ser::{ByteReader, DecodeError, RosField, RosMessage};
use rossf_ros::{
    Encode, Master, NodeHandle, OutFrame, PublisherOptions, RosError, SubscriberOptions, TopicType,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Debug)]
struct Sample {
    seq: u32,
    _pad: u32,
    payload: SfmVec<u8>,
}
unsafe impl SfmPod for Sample {}
impl SfmValidate for Sample {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.payload.validate_in(base, len)
    }
}
unsafe impl SfmMessage for Sample {
    fn type_name() -> &'static str {
        "test/BagSample"
    }
    fn max_size() -> usize {
        1 << 16
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
struct PlainSample {
    seq: u32,
    payload: Vec<u8>,
}

impl RosField for PlainSample {
    fn field_len(&self) -> usize {
        self.seq.field_len() + self.payload.field_len()
    }
    fn write_field(&self, out: &mut Vec<u8>) {
        self.seq.write_field(out);
        self.payload.write_field(out);
    }
    fn read_field(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(PlainSample {
            seq: u32::read_field(r)?,
            payload: Vec::read_field(r)?,
        })
    }
}
impl RosMessage for PlainSample {
    fn ros_type_name() -> &'static str {
        "test/PlainBagSample"
    }
}
impl TopicType for PlainSample {
    fn topic_type() -> &'static str {
        "test/PlainBagSample"
    }
}
impl Encode for PlainSample {
    fn encode(&self) -> OutFrame {
        OutFrame::owned(Arc::new(self.to_bytes()))
    }
}

fn bag_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rossf_bag_rt_{tag}_{}.bag", std::process::id()))
}

/// Wait until the recorder has accepted `n` frames, then close the bag.
fn finish_after(recorder: Recorder, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while recorder.stats().frames_recorded < n {
        assert!(Instant::now() < deadline, "timeout waiting for {n} frames");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(recorder.stats().frames_dropped, 0);
    assert_eq!(recorder.finish().unwrap().frames, n);
}

#[test]
fn sfm_record_then_replay() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "recorder");
    let path = bag_path("sfm");

    // Record 5 SFM messages from a live topic.
    let publisher =
        nh.advertise_with::<SfmBox<Sample>>("bag/live", PublisherOptions::new().queue_size(8));
    let recorder = Recorder::builder()
        .topic::<SfmBox<Sample>>("bag/live")
        .start(&nh, &path)
        .unwrap();
    assert!(recorder.wait_attached(1, Duration::from_secs(10)));
    for seq in 0..5u32 {
        let mut msg = SfmBox::<Sample>::new();
        msg.seq = seq;
        msg.payload.resize(64 + seq as usize);
        publisher.publish(&msg);
    }
    finish_after(recorder, 5);

    // The bag on disk (as `rosbag record` would leave it): one connection,
    // five frames, stamps in capture order.
    let mut replayer = Replayer::open(&path).unwrap();
    let conn = replayer.reader().connection("bag/live").unwrap().clone();
    assert_eq!(conn.type_name, "test/BagSample");
    let entries = replayer.reader().entries(conn.id);
    assert_eq!(entries.len(), 5);
    assert!(entries
        .windows(2)
        .all(|w| w[0].stamp_nanos <= w[1].stamp_nanos));

    // Replay onto a different topic; a live subscriber receives all 5.
    let replay_pub =
        nh.advertise_with::<SfmShared<Sample>>("bag/replay", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "bag/replay",
        SubscriberOptions::new(),
        move |m: SfmShared<Sample>| {
            tx.send((m.seq, m.payload.len())).unwrap();
        },
    );
    nh.wait_for_subscribers(&replay_pub, 1);
    replayer
        .route_adopted::<Sample>("bag/live", replay_pub)
        .unwrap();
    let stats = replayer
        .run(ReplayOptions::default().rate(1000.0).verify(true))
        .unwrap();
    assert_eq!(stats.frames_replayed, 5);
    for seq in 0..5u32 {
        let (got_seq, got_len) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got_seq, seq);
        assert_eq!(got_len, 64 + seq as usize);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn plain_record_then_replay() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "recorder");
    let path = bag_path("plain");

    let publisher =
        nh.advertise_with::<PlainSample>("bag/plain", PublisherOptions::new().queue_size(8));
    let recorder = Recorder::builder()
        .topic::<PlainSample>("bag/plain")
        .start(&nh, &path)
        .unwrap();
    assert!(recorder.wait_attached(1, Duration::from_secs(10)));
    for seq in 0..3u32 {
        publisher.publish(&PlainSample {
            seq,
            payload: vec![seq as u8; 16],
        });
    }
    finish_after(recorder, 3);

    // Plain messages replay through the decode route (one copy per frame).
    let mut replayer = Replayer::open(&path).unwrap();
    let replay_pub = nh.advertise_with::<Arc<PlainSample>>(
        "bag/plain_replay",
        PublisherOptions::new().queue_size(8),
    );
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "bag/plain_replay",
        SubscriberOptions::new(),
        move |m: Arc<PlainSample>| {
            tx.send((*m).clone()).unwrap();
        },
    );
    nh.wait_for_subscribers(&replay_pub, 1);
    replayer
        .route_decoded::<Arc<PlainSample>>("bag/plain", replay_pub)
        .unwrap();
    let stats = replayer.run(ReplayOptions::default().rate(1000.0)).unwrap();
    assert_eq!(stats.frames_replayed, 3);
    for seq in 0..3u32 {
        let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(
            got,
            PlainSample {
                seq,
                payload: vec![seq as u8; 16]
            }
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_type_mismatch_rejected() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "mismatch");
    let mut writer = BagWriter::new(Vec::new()).unwrap();
    let conn = writer.add_connection("t", "other/Type", 0).unwrap();
    writer.append(conn, 1, &[0; 16]).unwrap();
    let (_, bytes) = writer.finish().unwrap();

    let mut replayer = Replayer::new(BagReader::from_bytes(&bytes).unwrap());
    let publisher = nh
        .advertise_with::<SfmShared<Sample>>("bag/mismatch", PublisherOptions::new().queue_size(4));
    assert!(matches!(
        replayer.route_decoded::<SfmShared<Sample>>("t", publisher),
        Err(RosError::TypeMismatch { .. })
    ));
}
