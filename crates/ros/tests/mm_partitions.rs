//! The regression guard for the message manager's header records: on the
//! ordinary pub/sub path a pose's whole life cycle — the publishing
//! thread builds, grows, publishes and drops its box, the loop adopts each
//! frame and releases it when the callback returns — reads and writes the
//! record in the block's own header, so `ManagerStats::table_locks` does
//! not move over TCP or over the fast path. Over shared memory the
//! subscriber's frame is an extern region, whose record lives in the
//! table: exactly its adopt and its release lock a partition, once each. A
//! change that puts a small message's record back in the table (or a lookup
//! that skips the header) moves the count by one or more per message.
//!
//! Alone in its binary: the counters are process-global.

use rossf_ros::{
    MachineId, Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions, TransportConfig,
};
use rossf_sfm::{mm, SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmString, SfmValidate};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[repr(C)]
struct Pose {
    frame_id: SfmString,
    seq: u32,
    _pad: u32,
    position: [f64; 3],
    orientation: [f64; 4],
}
unsafe impl SfmPod for Pose {}
impl SfmValidate for Pose {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.frame_id.validate_in(base, len)
    }
}
unsafe impl SfmMessage for Pose {
    fn type_name() -> &'static str {
        "test/Pose"
    }
    fn max_size() -> usize {
        256
    }
}

const POSES: u32 = 10_000;
/// Published ahead of the subscriber at most; under the queue size, so no
/// frame is dropped.
const WINDOW: u32 = 32;

/// Push [`POSES`] poses from this thread to a same-process subscriber under
/// `config` and return how many frames the topic's metrics put on the shm
/// ring, and the table locks the poses took once the link was up.
fn push_poses(topic: &str, config: TransportConfig) -> (u64, u64) {
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "poses", MachineId::A, config);
    let publisher: Publisher<SfmBox<Pose>> =
        nh.advertise_with(topic, PublisherOptions::new().queue_size(64));
    let received = Arc::new(AtomicU32::new(0));
    let seen = Arc::clone(&received);
    let _sub = nh.subscribe_with(
        topic,
        SubscriberOptions::new(),
        move |pose: SfmShared<Pose>| {
            assert_eq!(pose.frame_id.as_str(), "map");
            assert_eq!(pose.seq, seen.fetch_add(1, Ordering::Relaxed));
        },
    );
    nh.wait_for_subscribers(&publisher, 1);
    let locks = mm().stats().table_locks;
    let deadline = Instant::now() + Duration::from_secs(60);
    for seq in 0..POSES {
        while seq - received.load(Ordering::Relaxed) >= WINDOW {
            assert!(Instant::now() < deadline, "subscriber stalled at {seq}");
            std::thread::yield_now();
        }
        let mut pose = SfmBox::<Pose>::new();
        pose.frame_id.assign("map");
        pose.seq = seq;
        pose.position = [f64::from(seq), 0.5, -1.0];
        publisher.publish(&pose);
    }
    while received.load(Ordering::Relaxed) < POSES {
        assert!(Instant::now() < deadline, "last poses never arrived");
        std::thread::yield_now();
    }
    let locks = mm().stats().table_locks - locks;
    assert_eq!(publisher.stats().frames_dropped, 0);
    (master.metrics().topic(topic).shm_frames, locks)
}

#[test]
fn a_pose_takes_no_table_lock_but_an_shm_frames_adopt_and_release() {
    let before = mm().stats();
    // No pointer hand-off: every pose is copied out and adopted back.
    let shm = TransportConfig {
        enable_fastpath: false,
        shm_same_process: true,
        ..TransportConfig::default()
    };
    let (on_ring, locks) = push_poses("guard/shm", shm.clone());
    assert_eq!(on_ring, u64::from(POSES), "first pass rode the shm tier");
    assert_eq!(locks, 2 * u64::from(POSES), "the frame's adopt and release");
    let (on_ring, locks) = push_poses(
        "guard/tcp",
        TransportConfig {
            shm_same_process: false,
            ..shm
        },
    );
    assert_eq!(on_ring, 0, "second pass rode TCP");
    assert_eq!(locks, 0, "over TCP");
    let after = mm().stats();
    // Each pose is registered twice: the publisher's box, the adopted frame.
    assert_eq!(
        after.registered - before.registered,
        4 * u64::from(POSES),
        "both passes went through the manager on both sides"
    );
    // The default: the subscriber shares the publisher's block.
    let (on_ring, locks) = push_poses("guard/fastpath", TransportConfig::default());
    assert_eq!(on_ring, 0, "third pass rode the fast path");
    assert_eq!(locks, 0, "over the fast path");
    assert_eq!(
        mm().stats().shared_adoptions - after.shared_adoptions,
        u64::from(POSES),
        "every pose was shared in place"
    );
}
