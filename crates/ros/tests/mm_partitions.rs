//! The regression guard for the message manager's partitioned record
//! table: on the ordinary pub/sub path every thread works on messages of
//! its own — the publishing thread builds, publishes and drops its box, the
//! loop adopts each frame and releases it when the callback returns — so no
//! manager operation leaves its caller's home partition, and
//! `ManagerStats::foreign_lookups` does not move. A change that makes the
//! two threads meet on one partition's lock again (a handle that forgot its
//! stamp, a lookup that starts somewhere else) moves it by one per message.
//!
//! Alone in its binary: the counter is process-global.

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
/// ring.
fn push_poses(topic: &str, config: TransportConfig) -> u64 {
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
    assert_eq!(publisher.stats().dropped, 0);
    master.metrics().topic(topic).snapshot().shm_frames
}

#[test]
fn same_thread_pubsub_never_leaves_its_home_partition() {
    let before = mm().stats();
    // No pointer hand-off: every pose is copied out and adopted back.
    let shm = TransportConfig {
        enable_fastpath: false,
        shm_same_process: true,
        ..TransportConfig::default()
    };
    let on_ring = push_poses("guard/shm", shm.clone());
    assert_eq!(on_ring, u64::from(POSES), "first pass rode the shm tier");
    let on_ring = push_poses(
        "guard/tcp",
        TransportConfig {
            shm_same_process: false,
            ..shm
        },
    );
    assert_eq!(on_ring, 0, "second pass rode TCP");
    let after = mm().stats();
    // Each pose is registered twice: the publisher's box, the adopted frame.
    assert_eq!(
        after.registered - before.registered,
        4 * u64::from(POSES),
        "both passes went through the manager on both sides"
    );
    assert_eq!(after.foreign_lookups - before.foreign_lookups, 0);
}
