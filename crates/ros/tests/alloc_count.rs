//! The exact guard on heap traffic per message: with a counting global
//! allocator, a pose published to two subscribers over TCP, and a pose
//! published over same-process shared memory, each cost at most two calls
//! into the global allocator once the graph is warm — process-wide, the
//! publishing thread and the loop together. A message's block comes from
//! its thread's lists and goes home when another thread frees it; a
//! regression that puts a per-message `Box`, `Arc` or `Vec` back on the
//! path moves this count by one per message.
//!
//! Alone in its binary: the allocator is the process's.

use rossf_ros::{
    MachineId, Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions, TransportConfig,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmString, SfmValidate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts the calls that can hand out memory while `COUNTING` is on.
struct Counting;

// Relaxed everywhere: statistics, publishing no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter touches
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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

const WARM_UP: u32 = 2_000;
const POSES: u32 = 10_000;
/// Published ahead of the slowest subscriber at most; under the queue
/// size, so no frame is dropped.
const WINDOW: u32 = 32;
/// The bound: global-allocator calls per message.
const CALLS_PER_POSE: u64 = 2;

/// Warm a graph of one publisher on machine A and `subscribers` on
/// `machine`, then publish [`POSES`] poses and return the global-allocator
/// calls they cost, process-wide.
fn calls_for_poses(
    topic: &str,
    config: TransportConfig,
    machine: MachineId,
    subscribers: usize,
) -> u64 {
    let master = Master::new();
    let publisher_node = NodeHandle::with_config(&master, "poses", MachineId::A, config.clone());
    let subscriber_node = NodeHandle::with_config(&master, "sink", machine, config);
    let publisher: Publisher<SfmBox<Pose>> =
        publisher_node.advertise_with(topic, PublisherOptions::new().queue_size(64));
    let received: Vec<Arc<AtomicU32>> = (0..subscribers)
        .map(|_| Arc::new(AtomicU32::new(0)))
        .collect();
    let _subscriptions: Vec<_> = received
        .iter()
        .map(|seen| {
            let seen = Arc::clone(seen);
            subscriber_node.subscribe_with(
                topic,
                SubscriberOptions::new(),
                move |pose: SfmShared<Pose>| {
                    assert_eq!(pose.frame_id.as_str(), "map");
                    assert_eq!(pose.seq, seen.fetch_add(1, Ordering::Relaxed));
                },
            )
        })
        .collect();
    publisher_node.wait_for_subscribers(&publisher, subscribers);
    let deadline = Instant::now() + Duration::from_secs(120);
    let slowest = || {
        received
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    };
    let send = |seqs: std::ops::Range<u32>| {
        for seq in seqs.clone() {
            while seq - slowest() >= WINDOW {
                assert!(Instant::now() < deadline, "a subscriber stalled at {seq}");
                std::thread::yield_now();
            }
            let mut pose = SfmBox::<Pose>::new();
            pose.frame_id.assign("map");
            pose.seq = seq;
            pose.position = [f64::from(seq), 0.5, -1.0];
            publisher.publish(&pose);
        }
        while slowest() < seqs.end {
            assert!(Instant::now() < deadline, "the last poses never arrived");
            std::thread::yield_now();
        }
    };
    send(0..WARM_UP);
    CALLS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    send(WARM_UP..WARM_UP + POSES);
    COUNTING.store(false, Ordering::Relaxed);
    assert_eq!(publisher.stats().frames_dropped, 0);
    CALLS.load(Ordering::Relaxed)
}

#[test]
fn a_pose_costs_at_most_two_allocator_calls_on_tcp_and_on_shm() {
    // Machine B forces TCP: one frame written per subscriber, each read
    // into a block of the loop's and adopted there.
    let tcp = calls_for_poses("count/tcp", TransportConfig::default(), MachineId::B, 2);
    // Same process over the shm tier: copied into a segment, adopted in
    // place by the loop through a control block.
    let shm = calls_for_poses(
        "count/shm",
        TransportConfig {
            enable_fastpath: false,
            shm_same_process: true,
            ..TransportConfig::default()
        },
        MachineId::A,
        1,
    );
    let per_pose = |calls: u64| calls as f64 / f64::from(POSES);
    println!(
        "global-allocator calls per pose: tcp x2 {:.3}, shm {:.3}",
        per_pose(tcp),
        per_pose(shm)
    );
    let bound = CALLS_PER_POSE * u64::from(POSES);
    assert!(tcp <= bound, "tcp: {tcp} calls for {POSES} poses");
    assert!(shm <= bound, "shm: {shm} calls for {POSES} poses");
}
