//! The complete per-frame SLAM computation and its ROS node wrappers.
//!
//! [`SlamEngine`] bundles tracking + mapping and calibrates the per-frame
//! compute time to ORB-SLAM's 30–40 ms (§5.3: "the calculation time of the
//! ORB-SLAM algorithm is about 30-40 ms which is the major part of all
//! latencies") by doing additional real feature-extraction passes until
//! the budget is met. [`spawn_plain`] / [`spawn_sfm`] run the engine as
//! the `orb_slam` node of Fig. 17 over either message family, subscribing
//! to the input image topic and publishing pose, point cloud, and debug
//! image.
//!
//! Subscriber callbacks run on the process's event loop and must be short
//! (the transport's rule: a slow callback delays every other link), and
//! one frame's analysis is milliseconds. So the node's callback only hands
//! the frame — a pointer, no copy — to the node's own worker thread over a
//! bounded queue; the worker analyzes and publishes.

use crate::brief;
use crate::dataset::{rgb_to_gray_into, Frame};
use crate::debug_image::{annotate, annotate_in_place};
use crate::fast;
use crate::mapping::{map_points, to_point_cloud2, Intrinsics, MapPoint};
use crate::tracker::{PoseEstimate, Tracker};
use rossf_msg::geometry_msgs::{PoseStamped, SfmPoseStamped};
use rossf_msg::sensor_msgs::{Image, SfmImage, SfmPointCloud2};
use rossf_msg::std_msgs::Header;
use rossf_ros::time::RosTime;
use rossf_ros::{NodeHandle, Publisher, PublisherOptions, Subscriber, SubscriberOptions};
use rossf_sfm::{SfmBox, SfmShared};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SlamConfig {
    /// Minimum wall-clock compute per frame — the ORB-SLAM calibration
    /// knob (set to zero in unit tests).
    pub min_frame_compute: Duration,
    /// FAST threshold.
    pub threshold: u8,
}

impl Default for SlamConfig {
    fn default() -> Self {
        SlamConfig {
            // Middle of the paper's 30–40 ms range.
            min_frame_compute: Duration::from_millis(34),
            threshold: 25,
        }
    }
}

/// Per-frame outputs of the engine.
#[derive(Debug, Clone)]
pub struct FrameAnalysis {
    /// Camera pose after this frame.
    pub pose: PoseEstimate,
    /// Corners found in this frame.
    pub corners: Vec<fast::Corner>,
    /// BRIEF descriptors for the corners (border corners omitted).
    pub descriptors: Vec<brief::Described>,
    /// Back-projected map points.
    pub points: Vec<MapPoint>,
    /// Matches supporting the motion estimate.
    pub inliers: usize,
    /// Wall-clock compute spent.
    pub compute: Duration,
}

/// Tracking + mapping over a frame stream.
#[derive(Debug)]
pub struct SlamEngine {
    tracker: Tracker,
    intr: Intrinsics,
    config: SlamConfig,
    width: u32,
    height: u32,
}

impl SlamEngine {
    /// Engine for frames of the given size.
    pub fn new(width: u32, height: u32, config: SlamConfig) -> SlamEngine {
        SlamEngine {
            tracker: Tracker::new(width, height),
            intr: Intrinsics::tum_like(width, height),
            config,
            width,
            height,
        }
    }

    /// Analyze one grayscale frame.
    pub fn analyze(&mut self, gray: &[u8]) -> FrameAnalysis {
        let start = Instant::now();
        let result = self.tracker.track(gray);
        let points = map_points(&result.corners, result.pose, &self.intr);
        // The ORB descriptor stage (real work; also published as map-point
        // metadata by full ORB-SLAM).
        let descriptors = brief::describe_corners(gray, self.width, self.height, &result.corners);
        // Calibration: ORB-SLAM's full stack (pyramids, descriptors, BA)
        // costs 30–40 ms/frame; burn the remainder with genuine extra
        // detection passes so the latency *profile* matches.
        let mut extra_threshold = self.config.threshold;
        while start.elapsed() < self.config.min_frame_compute {
            extra_threshold = extra_threshold.wrapping_add(7) | 1;
            std::hint::black_box(fast::detect(
                gray,
                self.width,
                self.height,
                extra_threshold.max(10),
            ));
        }
        FrameAnalysis {
            pose: result.pose,
            corners: result.corners,
            descriptors,
            points,
            inliers: result.inliers,
            compute: start.elapsed(),
        }
    }
}

/// Topic names of the Fig. 17 topology.
#[derive(Debug, Clone)]
pub struct SlamTopics {
    /// Input images (`pub_tum` → `orb_slam`).
    pub image: String,
    /// Output camera poses.
    pub pose: String,
    /// Output feature point clouds.
    pub cloud: String,
    /// Output debug images.
    pub debug: String,
}

impl SlamTopics {
    /// Topic set with a common prefix (so tests can isolate topologies).
    pub fn with_prefix(prefix: &str) -> SlamTopics {
        SlamTopics {
            image: format!("{prefix}/camera/rgb"),
            pose: format!("{prefix}/orb_slam/pose"),
            cloud: format!("{prefix}/orb_slam/map_points"),
            debug: format!("{prefix}/orb_slam/debug_image"),
        }
    }
}

/// Frames the node's worker may have waiting — the `queue_size` of the
/// node's own publishers, so the node buffers as deep as its outputs do.
const NODE_QUEUE: usize = 16;

/// Counters shared by the node handle, its callback and its worker.
#[derive(Default)]
struct NodeCounters {
    frames: AtomicU64,
    dropped: AtomicU64,
    stop: AtomicBool,
}

/// A running `orb_slam` node; dropping it unsubscribes and stops the
/// node's worker.
pub struct OrbSlamNode<S: rossf_ros::Decode> {
    /// The input subscription; `None` only while dropping.
    sub: Option<Subscriber<S>>,
    /// The worker's queue; `None` is its wake-up call to exit.
    queue: SyncSender<Option<S>>,
    worker: Option<JoinHandle<()>>,
    counters: Arc<NodeCounters>,
}

impl<S: rossf_ros::Decode> OrbSlamNode<S> {
    /// Subscribe to `topic` and run `process` on every frame, in order, on
    /// the node's worker thread. `process` gets the frame and its sequence
    /// number.
    fn spawn(
        nh: &NodeHandle,
        topic: &str,
        mut process: impl FnMut(S, u32) + Send + 'static,
    ) -> OrbSlamNode<S> {
        let counters = Arc::new(NodeCounters::default());
        let (queue, frames) = sync_channel::<Option<S>>(NODE_QUEUE);
        let worker = {
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("rossf-slam-node".to_string())
                .spawn(move || {
                    while let Ok(Some(frame)) = frames.recv() {
                        // Acquire: pairs with the Release store in `drop`.
                        if counters.stop.load(Ordering::Acquire) {
                            break;
                        }
                        // Relaxed: a progress counter readers only poll;
                        // this thread alone writes it.
                        let seq = counters.frames.fetch_add(1, Ordering::Relaxed) as u32;
                        process(frame, seq);
                    }
                })
                .expect("spawn the orb_slam node's worker thread")
        };
        let sub = {
            let (queue, counters) = (queue.clone(), Arc::clone(&counters));
            nh.subscribe_with(topic, SubscriberOptions::new(), move |msg: S| {
                // On the event loop: hand the frame over and return. A full
                // queue means the worker is `NODE_QUEUE` frames behind; the
                // frame is dropped here, as a full transmission queue would
                // have dropped it one hop earlier.
                if queue.try_send(Some(msg)).is_err() {
                    // Relaxed: statistic.
                    counters.dropped.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        OrbSlamNode {
            sub: Some(sub),
            queue,
            worker: Some(worker),
            counters,
        }
    }

    /// Frames processed so far.
    pub fn frames_processed(&self) -> u64 {
        // Relaxed: monotonic progress counter; readers only poll it.
        self.counters.frames.load(Ordering::Relaxed)
    }

    /// Frames dropped because the worker was a full queue behind.
    pub fn frames_dropped(&self) -> u64 {
        // Relaxed: statistic.
        self.counters.dropped.load(Ordering::Relaxed)
    }
}

impl<S: rossf_ros::Decode> Drop for OrbSlamNode<S> {
    fn drop(&mut self) {
        self.sub = None;
        // The worker exits after the frame it is on: the flag covers a
        // queue too full to take the wake-up, the wake-up an empty one.
        // Release: pairs with the worker's Acquire load.
        self.counters.stop.store(true, Ordering::Release);
        let _ = self.queue.try_send(None);
        if let Some(worker) = self.worker.take() {
            // A worker that panicked already reported it; nothing to add.
            let _ = worker.join();
        }
    }
}

/// Spawn the `orb_slam` node over **ordinary** messages: every hop
/// serializes and de-serializes.
pub fn spawn_plain(
    nh: &NodeHandle,
    topics: &SlamTopics,
    width: u32,
    height: u32,
    config: SlamConfig,
) -> OrbSlamNode<Arc<Image>> {
    let pose_pub: Publisher<PoseStamped> =
        nh.advertise_with(&topics.pose, PublisherOptions::new().queue_size(16));
    let cloud_pub = nh.advertise_with::<rossf_msg::sensor_msgs::PointCloud2>(
        &topics.cloud,
        PublisherOptions::new().queue_size(16),
    );
    let debug_pub: Publisher<Image> =
        nh.advertise_with(&topics.debug, PublisherOptions::new().queue_size(16));
    let mut engine = SlamEngine::new(width, height, config);
    let mut gray = Vec::new();
    OrbSlamNode::spawn(nh, &topics.image, move |msg: Arc<Image>, seq| {
        rgb_to_gray_into(&msg.data, &mut gray);
        let analysis = engine.analyze(&gray);
        let stamp = msg.header.stamp;

        pose_pub.publish(&pose_msg(seq, stamp, analysis.pose));
        cloud_pub.publish(&to_point_cloud2(&analysis.points, stamp, seq));
        let annotated = annotate(&msg.data, msg.width, msg.height, &analysis.corners, 2);
        debug_pub.publish(&Image {
            header: Header {
                seq,
                stamp,
                frame_id: "camera".to_string(),
            },
            height: msg.height,
            width: msg.width,
            encoding: "rgb8".to_string(),
            is_bigendian: 0,
            step: msg.width * 3,
            data: annotated,
        });
    })
}

/// Spawn the `orb_slam` node over **serialization-free** messages: the
/// same pipeline, but every message is constructed in place and shipped
/// without (de)serialization. Note the construction statements are the
/// same shape as the plain version — the paper's transparency claim.
pub fn spawn_sfm(
    nh: &NodeHandle,
    topics: &SlamTopics,
    width: u32,
    height: u32,
    config: SlamConfig,
) -> OrbSlamNode<SfmShared<SfmImage>> {
    let pose_pub: Publisher<SfmBox<SfmPoseStamped>> =
        nh.advertise_with(&topics.pose, PublisherOptions::new().queue_size(16));
    let cloud_pub: Publisher<SfmBox<SfmPointCloud2>> =
        nh.advertise_with(&topics.cloud, PublisherOptions::new().queue_size(16));
    let debug_pub: Publisher<SfmBox<SfmImage>> =
        nh.advertise_with(&topics.debug, PublisherOptions::new().queue_size(16));
    let mut engine = SlamEngine::new(width, height, config);
    let mut gray = Vec::new();
    OrbSlamNode::spawn(nh, &topics.image, move |msg: SfmShared<SfmImage>, seq| {
        {
            rgb_to_gray_into(msg.data.as_slice(), &mut gray);
            let analysis = engine.analyze(&gray);
            let stamp = msg.header.stamp;

            // Pose (fixed-size: identical code either way).
            let mut pose = SfmBox::<SfmPoseStamped>::new();
            pose.header.seq = seq;
            pose.header.stamp = stamp;
            pose.header.frame_id.assign("map");
            fill_pose(&mut pose, analysis.pose);
            pose_pub.publish(&pose);

            // Point cloud, packed straight into the outgoing message.
            let mut cloud = SfmBox::<SfmPointCloud2>::new();
            cloud.header.seq = seq;
            cloud.header.stamp = stamp;
            cloud.header.frame_id.assign("map");
            cloud.height = 1;
            cloud.width = analysis.points.len() as u32;
            cloud.fields.resize(4);
            for (i, name) in ["x", "y", "z", "intensity"].iter().enumerate() {
                cloud.fields[i].name.assign(name);
                cloud.fields[i].offset = (i * 4) as u32;
                cloud.fields[i].datatype = 7;
                cloud.fields[i].count = 1;
            }
            cloud.is_bigendian = 0;
            cloud.point_step = 16;
            cloud.row_step = 16 * analysis.points.len() as u32;
            cloud.data.resize(16 * analysis.points.len());
            {
                let bytes = cloud.data.as_mut_slice();
                for (i, p) in analysis.points.iter().enumerate() {
                    for (j, v) in [p.xyz[0], p.xyz[1], p.xyz[2], p.intensity]
                        .iter()
                        .enumerate()
                    {
                        bytes[i * 16 + j * 4..i * 16 + j * 4 + 4].copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
            cloud.is_dense = 1;
            cloud_pub.publish(&cloud);

            // Debug image: copy pixels into the outgoing message once, then
            // annotate in place — no intermediate buffer.
            let mut debug = SfmBox::<SfmImage>::new();
            debug.header.seq = seq;
            debug.header.stamp = stamp;
            debug.header.frame_id.assign("camera");
            debug.height = msg.height;
            debug.width = msg.width;
            debug.encoding.assign("rgb8");
            debug.is_bigendian = 0;
            debug.step = msg.width * 3;
            debug.data.assign(msg.data.as_slice());
            annotate_in_place(
                debug.data.as_mut_slice(),
                msg.width,
                msg.height,
                &analysis.corners,
                2,
            );
            debug_pub.publish(&debug);
        }
    })
}

fn pose_msg(seq: u32, stamp: RosTime, pose: PoseEstimate) -> PoseStamped {
    let mut msg = PoseStamped {
        header: Header {
            seq,
            stamp,
            frame_id: "map".to_string(),
        },
        ..PoseStamped::default()
    };
    msg.pose.position.x = pose.x;
    msg.pose.position.y = pose.y;
    msg.pose.orientation.w = 1.0;
    msg
}

fn fill_pose(msg: &mut SfmBox<SfmPoseStamped>, pose: PoseEstimate) {
    msg.pose.position.x = pose.x;
    msg.pose.position.y = pose.y;
    msg.pose.position.z = 0.0;
    msg.pose.orientation.w = 1.0;
}

/// Build the plain input Image message for `frame` (the `pub_tum` node's
/// construction step).
pub fn frame_to_plain(frame: &Frame, stamp: RosTime) -> Image {
    Image {
        header: Header {
            seq: frame.index as u32,
            stamp,
            frame_id: "camera".to_string(),
        },
        height: frame.height,
        width: frame.width,
        encoding: "rgb8".to_string(),
        is_bigendian: 0,
        step: frame.width * 3,
        data: frame.rgb.clone(),
    }
}

/// Build the serialization-free input Image for `frame`.
pub fn frame_to_sfm(frame: &Frame, stamp: RosTime) -> SfmBox<SfmImage> {
    let mut img = SfmBox::<SfmImage>::new();
    img.header.seq = frame.index as u32;
    img.header.stamp = stamp;
    img.header.frame_id.assign("camera");
    img.height = frame.height;
    img.width = frame.width;
    img.encoding.assign("rgb8");
    img.is_bigendian = 0;
    img.step = frame.width * 3;
    img.data.assign(&frame.rgb);
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sequence;
    use rossf_msg::sensor_msgs::{PointCloud2, SfmPointCloud2};
    use rossf_ros::Master;
    use std::sync::mpsc;

    fn fast_config() -> SlamConfig {
        SlamConfig {
            min_frame_compute: Duration::ZERO,
            threshold: 25,
        }
    }

    #[test]
    fn engine_produces_points_and_tracks() {
        let seq = Sequence::with_resolution(31, 160, 120, 2.0);
        let mut engine = SlamEngine::new(160, 120, fast_config());
        engine.analyze(&seq.frame(0).to_gray());
        let a = engine.analyze(&seq.frame(1).to_gray());
        assert!(!a.corners.is_empty());
        assert_eq!(a.corners.len(), a.points.len());
        assert!(!a.descriptors.is_empty());
        assert!(a.descriptors.len() <= a.corners.len());
        assert!(a.inliers >= 3);
    }

    #[test]
    fn compute_calibration_is_enforced() {
        let seq = Sequence::with_resolution(33, 64, 48, 2.0);
        let cfg = SlamConfig {
            min_frame_compute: Duration::from_millis(12),
            threshold: 25,
        };
        let mut engine = SlamEngine::new(64, 48, cfg);
        let a = engine.analyze(&seq.frame(0).to_gray());
        assert!(a.compute >= Duration::from_millis(12));
    }

    #[test]
    fn five_node_topology_plain_end_to_end() {
        let master = Master::new();
        let nh = NodeHandle::new(&master, "test");
        let topics = SlamTopics::with_prefix("plain_e2e");
        let seq = Sequence::with_resolution(35, 128, 96, 2.0);

        let image_pub: Publisher<Image> =
            nh.advertise_with(&topics.image, PublisherOptions::new().queue_size(8));
        let node = spawn_plain(&nh, &topics, 128, 96, fast_config());

        let (pose_tx, pose_rx) = mpsc::channel();
        let _pose_sub = nh.subscribe_with(
            &topics.pose,
            SubscriberOptions::new(),
            move |m: Arc<PoseStamped>| {
                pose_tx.send(m).unwrap();
            },
        );
        let (cloud_tx, cloud_rx) = mpsc::channel();
        let _cloud_sub = nh.subscribe_with(
            &topics.cloud,
            SubscriberOptions::new(),
            move |m: Arc<PointCloud2>| {
                cloud_tx.send(m.width).unwrap();
            },
        );
        let (dbg_tx, dbg_rx) = mpsc::channel();
        let _dbg_sub = nh.subscribe_with(
            &topics.debug,
            SubscriberOptions::new(),
            move |m: Arc<Image>| {
                dbg_tx.send(m.data.len()).unwrap();
            },
        );
        nh.wait_for_subscribers(&image_pub, 1);
        std::thread::sleep(Duration::from_millis(50)); // output subs join

        for i in 0..3 {
            image_pub.publish(&frame_to_plain(&seq.frame(i), RosTime::now()));
            std::thread::sleep(Duration::from_millis(20));
        }
        let timeout = Duration::from_secs(10);
        for _ in 0..3 {
            let pose = pose_rx.recv_timeout(timeout).expect("pose arrives");
            assert_eq!(pose.header.frame_id, "map");
            let width = cloud_rx.recv_timeout(timeout).expect("cloud arrives");
            assert!(width > 0, "cloud has points");
            let bytes = dbg_rx.recv_timeout(timeout).expect("debug arrives");
            assert_eq!(bytes, 128 * 96 * 3);
        }
        assert_eq!(node.frames_processed(), 3);
    }

    #[test]
    fn five_node_topology_sfm_end_to_end() {
        let master = Master::new();
        let nh = NodeHandle::new(&master, "test");
        let topics = SlamTopics::with_prefix("sfm_e2e");
        let seq = Sequence::with_resolution(37, 128, 96, 2.0);

        let image_pub: Publisher<SfmBox<SfmImage>> =
            nh.advertise_with(&topics.image, PublisherOptions::new().queue_size(8));
        let node = spawn_sfm(&nh, &topics, 128, 96, fast_config());

        let (pose_tx, pose_rx) = mpsc::channel();
        let _pose_sub = nh.subscribe_with(
            &topics.pose,
            SubscriberOptions::new(),
            move |m: SfmShared<SfmPoseStamped>| {
                pose_tx
                    .send((m.pose.position.x, m.pose.orientation.w))
                    .unwrap();
            },
        );
        let (cloud_tx, cloud_rx) = mpsc::channel();
        let _cloud_sub = nh.subscribe_with(
            &topics.cloud,
            SubscriberOptions::new(),
            move |m: SfmShared<SfmPointCloud2>| {
                cloud_tx
                    .send((m.width, m.fields.len(), m.data.len()))
                    .unwrap();
            },
        );
        let (dbg_tx, dbg_rx) = mpsc::channel();
        let _dbg_sub = nh.subscribe_with(
            &topics.debug,
            SubscriberOptions::new(),
            move |m: SfmShared<SfmImage>| {
                dbg_tx.send(m.data.len()).unwrap();
            },
        );
        nh.wait_for_subscribers(&image_pub, 1);
        std::thread::sleep(Duration::from_millis(50));

        for i in 0..2 {
            image_pub.publish(&frame_to_sfm(&seq.frame(i), RosTime::now()));
            std::thread::sleep(Duration::from_millis(20));
        }
        let timeout = Duration::from_secs(10);
        for _ in 0..2 {
            let (_, w) = pose_rx.recv_timeout(timeout).expect("pose arrives");
            assert_eq!(w, 1.0);
            let (width, nfields, nbytes) = cloud_rx.recv_timeout(timeout).expect("cloud");
            assert_eq!(nfields, 4);
            assert_eq!(nbytes as u32, width * 16);
            let bytes = dbg_rx.recv_timeout(timeout).expect("debug arrives");
            assert_eq!(bytes, 128 * 96 * 3);
        }
        assert_eq!(node.frames_processed(), 2);
    }

    /// The node's callback never works on the loop thread: a burst the
    /// engine cannot keep up with is shed at the node's own queue, counted,
    /// and every frame is accounted for one way or the other.
    #[test]
    fn a_slow_engine_sheds_frames_at_the_node_queue() {
        const BURST: u64 = 3 * NODE_QUEUE as u64;
        let master = Master::new();
        let nh = NodeHandle::new(&master, "test");
        let topics = SlamTopics::with_prefix("sfm_shed");
        let seq = Sequence::with_resolution(41, 64, 48, 2.0);
        let image_pub: Publisher<SfmBox<SfmImage>> = nh.advertise_with(
            &topics.image,
            PublisherOptions::new().queue_size(BURST as usize),
        );
        let slow = SlamConfig {
            min_frame_compute: Duration::from_millis(10),
            threshold: 25,
        };
        let node = spawn_sfm(&nh, &topics, 64, 48, slow);
        nh.wait_for_subscribers(&image_pub, 1);
        let frame = frame_to_sfm(&seq.frame(0), RosTime::now());
        for _ in 0..BURST {
            image_pub.publish(&frame);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while node.frames_processed() + node.frames_dropped() < BURST {
            assert!(Instant::now() < deadline, "frames unaccounted for");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(node.frames_dropped() > 0, "a 3-queue burst must overflow");
        assert!(node.frames_processed() >= NODE_QUEUE as u64);
    }

    #[test]
    fn input_builders_agree() {
        let seq = Sequence::with_resolution(39, 64, 48, 2.0);
        let f = seq.frame(5);
        let stamp = RosTime { sec: 1, nsec: 2 };
        let plain = frame_to_plain(&f, stamp);
        let sfm = frame_to_sfm(&f, stamp);
        assert_eq!(sfm.to_plain(), plain);
    }
}
