//! The experiment runners behind the harness binaries.
//!
//! Every runner follows the paper's measurement protocol (Fig. 12): the
//! publisher stores the creation time inside the message, the (final)
//! subscriber subtracts it from its arrival time, and each message is
//! fully drained before the next is published (the paper's 10 Hz pacing
//! guarantees the same).

use crate::args::RunArgs;
use crate::stats::Stats;
use rossf_baselines::{Codec, WorkImage};
use rossf_msg::geometry_msgs::{PoseStamped, SfmPoseStamped};
use rossf_msg::sensor_msgs::{Image, PointCloud2, SfmImage, SfmPointCloud2};
use rossf_msg::std_msgs::Header;
use rossf_ros::time::{now_nanos, RosTime};
use rossf_ros::wire::{read_frame_len, write_frame};
use rossf_ros::{
    Decode, LinkProfile, MachineId, Master, NodeHandle, Publisher, PublisherOptions, Subscriber,
    SubscriberOptions, TransportConfig,
};
use rossf_sfm::{SfmBox, SfmShared};
use rossf_slam::dataset::{Frame, Sequence};
use rossf_slam::pipeline::{
    frame_to_plain, frame_to_sfm, spawn_plain, spawn_sfm, SlamConfig, SlamTopics,
};
use rossf_trace::Tier;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const RECV_TIMEOUT: Duration = Duration::from_secs(30);

fn unique_topic(prefix: &str) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!("{prefix}_{}", COUNTER.fetch_add(1, Ordering::Relaxed))
}

/// Start-of-cell hygiene: return pooled SFM buffers to the system so one
/// cell's allocator state cannot perturb the next (the pool is process-
/// global; without this, a serialization-free cell's retained buffers
/// measurably slow a following plain cell's large allocations).
fn fresh_cell() {
    rossf_sfm::drain_alloc_pool();
}

/// End-of-run transport dump: drops, reconnects, decode errors, and queue
/// depths next to the latency numbers, so an anomalous run is recognizable
/// without rerunning under instrumentation. Goes to stderr, keeping stdout
/// parseable.
fn dump_transport_metrics(label: &str, master: &Master) {
    let text = master.metrics().render();
    if !text.is_empty() {
        eprint!("# {label} transport metrics\n{text}");
    }
}

/// Total wire bytes `(sent, received)` across every topic of `master`,
/// attached to a run's [`Stats`] so report rows carry the byte columns.
fn wire_bytes(master: &Master) -> (u64, u64) {
    master
        .metrics()
        .snapshot()
        .iter()
        .fold((0, 0), |(sent, received), (_, m)| {
            (sent + m.bytes_sent, received + m.bytes_received)
        })
}

fn drain_one(rx: &mpsc::Receiver<u64>, what: &str) -> u64 {
    rx.recv_timeout(RECV_TIMEOUT)
        .unwrap_or_else(|e| panic!("{what}: message lost: {e}"))
}

/// The final subscriber of a runner (Fig. 12): reports each message's
/// creation-to-arrival latency on `tx`, the creation time read out of the
/// message by `stamp`.
fn latency_sub<D: Decode>(
    nh: &NodeHandle,
    topic: &str,
    tx: mpsc::Sender<u64>,
    stamp: impl Fn(&D) -> RosTime + Send + Sync + 'static,
) -> Subscriber<D> {
    nh.subscribe_with(topic, SubscriberOptions::new(), move |m: D| {
        let _ = tx.send(now_nanos().saturating_sub(stamp(&m).as_nanos()));
    })
}

/// The measured loop every runner shares (Fig. 12 protocol): `publish(seq,
/// t0)` sends one message carrying its creation time `t0`, the final
/// subscriber's latency sample is drained from `rx`, and the publisher
/// pauses for the pacing gap before the next.
fn measure(
    args: &RunArgs,
    rx: &mpsc::Receiver<u64>,
    what: &str,
    mut publish: impl FnMut(u32, u64),
) -> Stats {
    let mut lat = Vec::with_capacity(args.iters);
    for seq in 0..args.iters {
        publish(seq as u32, now_nanos());
        lat.push(drain_one(rx, what));
        std::thread::sleep(args.gap());
    }
    Stats::from_nanos(lat)
}

/// [`measure`] over a graph on `master`: the run's transport metrics go to
/// stderr and its wire-byte totals onto the returned [`Stats`].
fn measure_on(
    master: &Master,
    args: &RunArgs,
    rx: &mpsc::Receiver<u64>,
    label: &str,
    publish: impl FnMut(u32, u64),
) -> Stats {
    let stats = measure(args, rx, label, publish);
    dump_transport_metrics(label, master);
    let (sent, received) = wire_bytes(master);
    stats.with_wire_bytes(sent, received)
}

/// Fig. 3 construction pattern over an ordinary message — the creation
/// time goes inside.
fn plain_image(src: &WorkImage, frame_id: &str, seq: u32, t0: u64) -> Image {
    Image {
        header: Header {
            seq,
            stamp: RosTime::from_nanos(t0),
            frame_id: frame_id.to_string(),
        },
        height: src.height,
        width: src.width,
        encoding: src.encoding.clone(),
        is_bigendian: 0,
        step: src.width * 3,
        data: src.data.clone(),
    }
}

/// The identical statements over a serialization-free message (the
/// transparency claim in action), filling `img` in place — shared by the
/// heap-allocated and loaned (write-in-place) publish paths so every arm
/// runs statement-identical construction code.
fn fill_sfm_image(img: &mut SfmImage, src: &WorkImage, frame_id: &str, seq: u32, t0: u64) {
    img.header.seq = seq;
    img.header.stamp = RosTime::from_nanos(t0);
    img.header.frame_id.assign(frame_id);
    img.height = src.height;
    img.width = src.width;
    img.encoding.assign(&src.encoding);
    img.is_bigendian = 0;
    img.step = src.width * 3;
    img.data.assign(&src.data);
}

/// Build one synthetic `SfmImage` with the creation time inside.
fn sfm_image(src: &WorkImage, frame_id: &str, seq: u32, t0: u64) -> SfmBox<SfmImage> {
    let mut img = SfmBox::<SfmImage>::new();
    fill_sfm_image(&mut img, src, frame_id, seq, t0);
    img
}

/// Fig. 13, "ROS" series: ordinary messages over TCP loopback. Latency
/// covers construction + serialization + transmission + de-serialization.
pub fn intra_plain(args: &RunArgs, width: u32, height: u32) -> Stats {
    fresh_cell();
    let master = Master::new();
    let nh = NodeHandle::new(&master, "pub");
    let topic = unique_topic("fig13_plain");
    let publisher: Publisher<Image> =
        nh.advertise_with(&topic, PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _sub = latency_sub(&nh, &topic, tx, |m: &Arc<Image>| m.header.stamp);
    nh.wait_for_subscribers(&publisher, 1);

    let src = WorkImage::synthetic(width, height);
    measure_on(&master, args, &rx, "fig13 plain", |seq, t0| {
        publisher.publish(&plain_image(&src, "camera", seq, t0));
    })
}

/// Fig. 13, "ROS-SF" series: the same code shape over serialization-free
/// messages. Latency covers construction + transmission only.
pub fn intra_sfm(args: &RunArgs, width: u32, height: u32) -> Stats {
    fresh_cell();
    let master = Master::new();
    let nh = NodeHandle::new(&master, "pub");
    let topic = unique_topic("fig13_sfm");
    let publisher: Publisher<SfmBox<SfmImage>> =
        nh.advertise_with(&topic, PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _sub = latency_sub(&nh, &topic, tx, |m: &SfmShared<SfmImage>| m.header.stamp);
    nh.wait_for_subscribers(&publisher, 1);

    let src = WorkImage::synthetic(width, height);
    measure_on(&master, args, &rx, "fig13 sfm", |seq, t0| {
        publisher.publish(&sfm_image(&src, "camera", seq, t0));
    })
}

/// Fig. 14: one codec over a bare TCP loopback pipe (identical transport
/// for all six middleware; only construction/serialization/access
/// differ).
pub fn codec_latency<C: Codec>(args: &RunArgs, width: u32, height: u32) -> Stats {
    fresh_cell();
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).ok();
        let mut reader = std::io::BufReader::with_capacity(256 * 1024, stream);
        while let Ok(Some(len)) = read_frame_len(&mut reader) {
            let mut buf = vec![0u8; len];
            if reader.read_exact(&mut buf).is_err() {
                break;
            }
            let consumed = C::consume(&buf);
            if tx
                .send(now_nanos().saturating_sub(consumed.stamp_nanos))
                .is_err()
            {
                break;
            }
        }
    });

    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).ok();
    let mut src = WorkImage::synthetic(width, height);
    let stats = measure(args, &rx, C::NAME, |_, t0| {
        src.stamp_nanos = t0;
        let wire = C::make_wire(&src);
        write_frame(&mut stream, &wire).expect("write frame");
    });
    drop(stream);
    let _ = reader.join();
    stats
}

/// Fig. 16, "ROS" series: the ping-pong topology of Fig. 15 (`pub` and
/// `sub` on machine A, `trans` on machine B) over a shaped link. The
/// reported latency is the full round trip, as in the paper.
pub fn pingpong_plain(args: &RunArgs, width: u32, height: u32, link: LinkProfile) -> Stats {
    fresh_cell();
    let master = Master::new();
    master.links().connect(MachineId::A, MachineId::B, link);
    let nh_a = NodeHandle::new(&master, "machine_a");
    let nh_b = NodeHandle::with_machine(&master, "trans", MachineId::B);
    let t1 = unique_topic("fig16_plain_t1");
    let t2 = unique_topic("fig16_plain_t2");

    let pub1: Publisher<Image> = nh_a.advertise_with(&t1, PublisherOptions::new().queue_size(8));
    let pub2: Publisher<Image> = nh_b.advertise_with(&t2, PublisherOptions::new().queue_size(8));
    let pub2_cb = pub2.clone();
    let _trans = nh_b.subscribe_with(&t1, SubscriberOptions::new(), move |m: Arc<Image>| {
        // "it creates another Image message, whose timestamp is set to be
        // the same as the received message" — full reconstruction.
        let reply = Image {
            header: Header {
                seq: m.header.seq,
                stamp: m.header.stamp,
                frame_id: "pong".to_string(),
            },
            height: m.height,
            width: m.width,
            encoding: m.encoding.clone(),
            is_bigendian: 0,
            step: m.step,
            data: m.data.clone(),
        };
        pub2_cb.publish(&reply);
    });
    let (tx, rx) = mpsc::channel();
    let _sub = latency_sub(&nh_a, &t2, tx, |m: &Arc<Image>| m.header.stamp);
    nh_a.wait_for_subscribers(&pub1, 1);
    nh_b.wait_for_subscribers(&pub2, 1);

    let src = WorkImage::synthetic(width, height);
    measure_on(&master, args, &rx, "fig16 plain", |seq, t0| {
        pub1.publish(&plain_image(&src, "ping", seq, t0));
    })
}

/// Fig. 16, "ROS-SF" series. `validate` turns on
/// `TransportConfig::validate_on_receive` on both nodes, so every received
/// frame is proved sound against the schema before adoption; the delta
/// against the unvalidated run is the verifier's overhead.
pub fn pingpong_sfm(
    args: &RunArgs,
    width: u32,
    height: u32,
    link: LinkProfile,
    validate: bool,
) -> Stats {
    fresh_cell();
    let master = Master::new();
    master.links().connect(MachineId::A, MachineId::B, link);
    let config = TransportConfig {
        validate_on_receive: validate,
        ..TransportConfig::default()
    };
    let nh_a = NodeHandle::with_config(&master, "machine_a", MachineId::A, config.clone());
    let nh_b = NodeHandle::with_config(&master, "trans", MachineId::B, config);
    let t1 = unique_topic("fig16_sfm_t1");
    let t2 = unique_topic("fig16_sfm_t2");

    let pub1: Publisher<SfmBox<SfmImage>> =
        nh_a.advertise_with(&t1, PublisherOptions::new().queue_size(8));
    let pub2: Publisher<SfmBox<SfmImage>> =
        nh_b.advertise_with(&t2, PublisherOptions::new().queue_size(8));
    let pub2_cb = pub2.clone();
    let _trans = nh_b.subscribe_with(
        &t1,
        SubscriberOptions::new(),
        move |m: SfmShared<SfmImage>| {
            let mut reply = SfmBox::<SfmImage>::new();
            reply.header.seq = m.header.seq;
            reply.header.stamp = m.header.stamp;
            reply.header.frame_id.assign("pong");
            reply.height = m.height;
            reply.width = m.width;
            reply.encoding.assign(m.encoding.as_str());
            reply.step = m.step;
            reply.data.assign(m.data.as_slice());
            pub2_cb.publish(&reply);
        },
    );
    let (tx, rx) = mpsc::channel();
    let _sub = latency_sub(&nh_a, &t2, tx, |m: &SfmShared<SfmImage>| m.header.stamp);
    nh_a.wait_for_subscribers(&pub1, 1);
    nh_b.wait_for_subscribers(&pub2, 1);

    let src = WorkImage::synthetic(width, height);
    measure_on(&master, args, &rx, "fig16 sfm", |seq, t0| {
        pub1.publish(&sfm_image(&src, "ping", seq, t0));
    })
}

/// Same-machine ping-pong isolating the transport tier: the Fig. 15
/// topology with *all three* nodes on machine A, and a verbatim relay
/// (the received `SfmShared` is republished unchanged, as in the
/// zero-copy relay pattern) so the round trip measures message motion,
/// not reconstruction. With `fastpath` on, delivery is the pointer-handoff
/// same-machine tier; with it off, the identical frames travel the TCP
/// loopback wire — the pair quantifies the zero-copy fast path's gain.
pub fn pingpong_same_machine(args: &RunArgs, width: u32, height: u32, fastpath: bool) -> Stats {
    let config = TransportConfig {
        enable_fastpath: fastpath,
        ..TransportConfig::default()
    };
    let label = if fastpath {
        "fig16 same-machine fastpath"
    } else {
        "fig16 same-machine tcp"
    };
    pingpong_same_machine_with(args, width, height, config, label)
}

/// Fig. 16, `shm` series: the same verbatim-relay ping-pong forced onto
/// the cross-process shared-memory tier. The fast path is disabled and
/// `shm_same_process` lifted so the loopback negotiation lands on the
/// segment rings; every hop is one copy into a memfd segment and a
/// zero-copy adoption out of it. Contrasted with the TCP and fastpath
/// series, this prices the shm tier between "two socket traversals" and
/// "pure pointer handoff".
pub fn pingpong_shm(args: &RunArgs, width: u32, height: u32) -> Stats {
    let config = TransportConfig {
        enable_fastpath: false,
        shm_same_process: true,
        ..TransportConfig::default()
    };
    pingpong_same_machine_with(args, width, height, config, "fig16 same-machine shm")
}

fn pingpong_same_machine_with(
    args: &RunArgs,
    width: u32,
    height: u32,
    config: TransportConfig,
    label: &str,
) -> Stats {
    fresh_cell();
    let master = Master::new();
    let nh = NodeHandle::with_config(&master, "same_machine", MachineId::A, config);
    let t1 = unique_topic("fig16_local_t1");
    let t2 = unique_topic("fig16_local_t2");

    let pub1: Publisher<SfmBox<SfmImage>> =
        nh.advertise_with(&t1, PublisherOptions::new().queue_size(8));
    let pub2: Publisher<SfmShared<SfmImage>> =
        nh.advertise_with(&t2, PublisherOptions::new().queue_size(8));
    let pub2_cb = pub2.clone();
    let _trans = nh.subscribe_with(
        &t1,
        SubscriberOptions::new(),
        move |m: SfmShared<SfmImage>| {
            pub2_cb.publish(&m); // relay the received object verbatim
        },
    );
    let (tx, rx) = mpsc::channel();
    let _sub = latency_sub(&nh, &t2, tx, |m: &SfmShared<SfmImage>| m.header.stamp);
    nh.wait_for_subscribers(&pub1, 1);
    nh.wait_for_subscribers(&pub2, 1);

    let src = WorkImage::synthetic(width, height);
    measure_on(&master, args, &rx, label, |seq, t0| {
        pub1.publish(&sfm_image(&src, "ping", seq, t0));
    })
}

/// A traced one-way pipeline (single publisher, single subscriber, one
/// topic — the shape `rossf_trace::check_monotone` assumes) with per-stage
/// tracing enabled on both endpoints. Returns the end-to-end latency
/// summary and the per-stage histograms; because the stages telescope, the
/// sum of stage means should land near the e2e mean.
///
/// `validate_on_receive` is on so the `verify` stage appears in the
/// waterfall. `Tier::Tcp` is the shaped inter-machine link (publisher on
/// machine A, subscriber on B); `Tier::Shm` runs the segment rings in
/// same-process mode (`TransportConfig::shm_same_process`) so both ends
/// share the trace clock and the full waterfall telescopes.
///
/// # Panics
///
/// Panics when messages are lost or the trace table is missing.
pub fn oneway_traced(
    args: &RunArgs,
    width: u32,
    height: u32,
    tier: Tier,
    link: LinkProfile,
) -> (Stats, rossf_trace::TopicSnapshot) {
    let (stats, snapshot) = oneway_run(args, width, height, tier, link, true, false);
    (stats, snapshot.expect("trace table for traced run"))
}

/// The same one-way pipeline as [`oneway_traced`] with tracing left off —
/// the control arm of the tracing-overhead gate (`sfm_trace
/// --overhead-gate`). No clock reads or histogram writes happen on this
/// path.
pub fn oneway_untraced(
    args: &RunArgs,
    width: u32,
    height: u32,
    tier: Tier,
    link: LinkProfile,
) -> Stats {
    oneway_run(args, width, height, tier, link, false, false).0
}

/// The one-way pipeline published through the loaned write-in-place path:
/// every message is requested with [`Publisher::loan`], built directly in
/// its final backing store, and sent with `publish_loaned`. On the shm
/// tier the message is constructed inside the pool segment subscribers
/// map, so the publish-side payload memcpy (the `wire_write` stage)
/// disappears; on other tiers the loan transparently falls back to the
/// heap and the run measures the ordinary path.
///
/// # Panics
///
/// Panics when a loan is starved for more than ten seconds.
pub fn oneway_loaned(
    args: &RunArgs,
    width: u32,
    height: u32,
    tier: Tier,
    link: LinkProfile,
) -> Stats {
    oneway_run(args, width, height, tier, link, false, true).0
}

/// Traced variant of [`oneway_loaned`]: the per-stage waterfall of the
/// loaned publish path. On the shm tier the snapshot should carry **no**
/// `wire_write` cell — the copy stage is gone by construction.
///
/// # Panics
///
/// As [`oneway_loaned`], plus when the trace table is missing.
pub fn oneway_loaned_traced(
    args: &RunArgs,
    width: u32,
    height: u32,
    tier: Tier,
    link: LinkProfile,
) -> (Stats, rossf_trace::TopicSnapshot) {
    let (stats, snapshot) = oneway_run(args, width, height, tier, link, true, true);
    (stats, snapshot.expect("trace table for traced run"))
}

fn oneway_run(
    args: &RunArgs,
    width: u32,
    height: u32,
    tier: Tier,
    link: LinkProfile,
    traced: bool,
    loaned: bool,
) -> (Stats, Option<rossf_trace::TopicSnapshot>) {
    fresh_cell();
    let src = WorkImage::synthetic(width, height);
    let (tx, rx) = mpsc::channel();
    let on_message = move |m: SfmShared<SfmImage>| {
        let _ = tx.send(now_nanos().saturating_sub(m.header.stamp.as_nanos()));
    };
    let snapshot_of = |topic: &str| {
        traced.then(|| {
            rossf_trace::tracer()
                .topic_snapshot(topic)
                .expect("trace table for topic")
        })
    };

    let master = Master::new();
    let mut config = TransportConfig {
        validate_on_receive: true,
        ..TransportConfig::default()
    };
    let mut sub_machine = MachineId::A;
    let prefix = match tier {
        Tier::Tcp => {
            master.links().connect(MachineId::A, MachineId::B, link);
            config.enable_fastpath = false;
            sub_machine = MachineId::B;
            "trace_tcp"
        }
        Tier::Shm => {
            config.enable_fastpath = false;
            config.shm_same_process = true;
            "trace_shm"
        }
        Tier::Fastpath => "trace_fastpath",
    };
    let nh_pub = NodeHandle::with_config(&master, "trace_pub", MachineId::A, config.clone());
    let nh_sub = NodeHandle::with_config(&master, "trace_sub", sub_machine, config);
    let topic = unique_topic(prefix);
    let publisher: Publisher<SfmBox<SfmImage>> =
        nh_pub.advertise_with(&topic, PublisherOptions::new().queue_size(8).trace(traced));
    let _sub = nh_sub.subscribe_with(&topic, SubscriberOptions::new().trace(traced), on_message);
    nh_pub.wait_for_subscribers(&publisher, 1);
    let stats = measure_on(&master, args, &rx, "oneway", |seq, t0| {
        if !loaned {
            publisher.publish(&sfm_image(&src, "camera", seq, t0));
            return;
        }
        // Transient `None` means every loanable slot is still held
        // (segments recycle as the subscriber drops its adoption); with
        // one message in flight this resolves within microseconds.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut msg = loop {
            match publisher.loan() {
                Some(m) => break m,
                None => {
                    assert!(std::time::Instant::now() < deadline, "loan starved for 10s");
                    std::thread::yield_now();
                }
            }
        };
        fill_sfm_image(&mut msg, &src, "camera", seq, t0);
        publisher.publish_loaned(msg);
    });
    (stats, snapshot_of(&topic))
}

/// Latency sets measured by the three output subscribers of Fig. 17.
#[derive(Debug, Clone)]
pub struct SlamLatencies {
    /// `sub_pose` (geometry_msgs/PoseStamped).
    pub pose: Stats,
    /// `sub_cloud` (sensor_msgs/PointCloud2).
    pub cloud: Stats,
    /// `sub_debug` (sensor_msgs/Image).
    pub debug: Stats,
}

/// Which message family the SLAM topology runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Ordinary ROS messages.
    Plain,
    /// ROS-SF serialization-free messages.
    Sfm,
}

/// Fig. 18: the five-node ORB-SLAM topology. `frame_size` lets tests run
/// a downscaled sequence; the harness binary uses TUM's 640×480 and the
/// calibrated 30–40 ms compute.
pub fn slam_case_study(
    args: &RunArgs,
    family: Family,
    frame_size: (u32, u32),
    compute: Duration,
) -> SlamLatencies {
    fresh_cell();
    let (width, height) = frame_size;
    let master = Master::new();
    let nh = NodeHandle::new(&master, "slam_harness");
    let topics = SlamTopics::with_prefix(&unique_topic("fig18"));
    let seq = if frame_size == (640, 480) {
        Sequence::tum_like(2022)
    } else {
        Sequence::with_resolution(2022, width, height, 2.0)
    };
    let config = SlamConfig {
        min_frame_compute: compute,
        threshold: 25,
    };

    let (pose_tx, pose_rx) = mpsc::channel();
    let (cloud_tx, cloud_rx) = mpsc::channel();
    let (debug_tx, debug_rx) = mpsc::channel();

    // Per family: advertise the input, spawn the SLAM node, attach the three
    // output subscribers. The returned closure publishes one frame and owns
    // every handle that keeps the graph alive.
    type PublishFrame = Box<dyn Fn(&Frame, u64)>;
    let publish: PublishFrame = match family {
        Family::Plain => {
            let publisher: Publisher<Image> =
                nh.advertise_with(&topics.image, PublisherOptions::new().queue_size(8));
            let graph = (
                spawn_plain(&nh, &topics, width, height, config),
                latency_sub(&nh, &topics.pose, pose_tx, |m: &Arc<PoseStamped>| {
                    m.header.stamp
                }),
                latency_sub(&nh, &topics.cloud, cloud_tx, |m: &Arc<PointCloud2>| {
                    m.header.stamp
                }),
                latency_sub(&nh, &topics.debug, debug_tx, |m: &Arc<Image>| {
                    m.header.stamp
                }),
            );
            nh.wait_for_subscribers(&publisher, 1);
            Box::new(move |frame, t0| {
                let _alive = &graph;
                publisher.publish(&frame_to_plain(frame, RosTime::from_nanos(t0)));
            })
        }
        Family::Sfm => {
            let publisher: Publisher<SfmBox<SfmImage>> =
                nh.advertise_with(&topics.image, PublisherOptions::new().queue_size(8));
            let graph = (
                spawn_sfm(&nh, &topics, width, height, config),
                latency_sub(
                    &nh,
                    &topics.pose,
                    pose_tx,
                    |m: &SfmShared<SfmPoseStamped>| m.header.stamp,
                ),
                latency_sub(
                    &nh,
                    &topics.cloud,
                    cloud_tx,
                    |m: &SfmShared<SfmPointCloud2>| m.header.stamp,
                ),
                latency_sub(&nh, &topics.debug, debug_tx, |m: &SfmShared<SfmImage>| {
                    m.header.stamp
                }),
            );
            nh.wait_for_subscribers(&publisher, 1);
            Box::new(move |frame, t0| {
                let _alive = &graph;
                publisher.publish(&frame_to_sfm(frame, RosTime::from_nanos(t0)));
            })
        }
    };
    // Give the three output subscribers time to finish their handshakes
    // (they join the slam node's publishers asynchronously).
    std::thread::sleep(Duration::from_millis(100));

    let mut pose_lat = Vec::with_capacity(args.iters);
    let mut cloud_lat = Vec::with_capacity(args.iters);
    let mut debug_lat = Vec::with_capacity(args.iters);
    for i in 0..args.iters {
        publish(&seq.frame(i), now_nanos());
        pose_lat.push(drain_one(&pose_rx, "fig18 pose"));
        cloud_lat.push(drain_one(&cloud_rx, "fig18 cloud"));
        debug_lat.push(drain_one(&debug_rx, "fig18 debug"));
        std::thread::sleep(args.gap());
    }
    dump_transport_metrics("fig18 slam", &master);
    SlamLatencies {
        pose: Stats::from_nanos(pose_lat),
        cloud: Stats::from_nanos(cloud_lat),
        debug: Stats::from_nanos(debug_lat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossf_baselines::flatlite::FlatLiteCodec;
    use rossf_baselines::protolite::ProtoCodec;
    use rossf_baselines::roscodec::RosCodec;
    use rossf_baselines::sfm_image::SfmCodec;

    fn tiny() -> RunArgs {
        RunArgs {
            iters: 5,
            ..RunArgs::default()
        }
    }

    #[test]
    fn fig13_runners_produce_sane_latencies() {
        let plain = intra_plain(&tiny(), 32, 32);
        let sfm = intra_sfm(&tiny(), 32, 32);
        assert_eq!(plain.n, 5);
        assert_eq!(sfm.n, 5);
        assert!(plain.mean_ms > 0.0 && plain.mean_ms < 1000.0);
        assert!(sfm.mean_ms > 0.0 && sfm.mean_ms < 1000.0);
    }

    #[test]
    fn fig14_codec_runner_works_for_each_family() {
        assert_eq!(codec_latency::<RosCodec>(&tiny(), 16, 16).n, 5);
        assert_eq!(codec_latency::<SfmCodec>(&tiny(), 16, 16).n, 5);
        assert_eq!(codec_latency::<ProtoCodec>(&tiny(), 16, 16).n, 5);
        assert_eq!(codec_latency::<FlatLiteCodec>(&tiny(), 16, 16).n, 5);
    }

    #[test]
    fn fig16_pingpong_roundtrips() {
        let link = LinkProfile {
            bandwidth_bps: 1_000_000_000,
            latency: Duration::from_micros(100),
        };
        let plain = pingpong_plain(&tiny(), 32, 32, link);
        let sfm = pingpong_sfm(&tiny(), 32, 32, link, false);
        assert_eq!(plain.n, 5);
        assert_eq!(sfm.n, 5);
        // Both pay the propagation latency twice.
        assert!(plain.min_ms >= 0.2);
        assert!(sfm.min_ms >= 0.2);
    }

    #[test]
    fn fig16_pingpong_validated_matches_unvalidated_count() {
        let link = LinkProfile {
            bandwidth_bps: 1_000_000_000,
            latency: Duration::from_micros(100),
        };
        // With the verifier on, every valid frame still gets through: the
        // run completes with the same number of round trips.
        let validated = pingpong_sfm(&tiny(), 32, 32, link, true);
        assert_eq!(validated.n, 5);
        assert!(validated.min_ms >= 0.2);
    }

    #[test]
    fn fig16_same_machine_runs_on_every_tier() {
        let fast = pingpong_same_machine(&tiny(), 32, 32, true);
        let tcp = pingpong_same_machine(&tiny(), 32, 32, false);
        assert_eq!(fast.n, 5);
        assert_eq!(tcp.n, 5);
        assert!(fast.mean_ms > 0.0 && fast.mean_ms < 1000.0);
        assert!(tcp.mean_ms > 0.0 && tcp.mean_ms < 1000.0);
        let shm = pingpong_shm(&tiny(), 32, 32);
        assert_eq!(shm.n, 5);
        assert!(shm.mean_ms > 0.0 && shm.mean_ms < 1000.0);
    }

    #[test]
    fn oneway_traced_covers_every_tier() {
        let link = LinkProfile {
            bandwidth_bps: 1_000_000_000,
            latency: Duration::from_micros(100),
        };
        use rossf_trace::Stage;
        let all_stages = vec![
            Stage::Alloc,
            Stage::Encode,
            Stage::Enqueue,
            Stage::WireWrite,
            Stage::WireRead,
            Stage::Verify,
            Stage::Adopt,
            Stage::Callback,
        ];
        for (tier, want_stages) in [
            (
                Tier::Fastpath,
                vec![
                    Stage::Alloc,
                    Stage::Encode,
                    Stage::Enqueue,
                    Stage::Verify,
                    Stage::Adopt,
                    Stage::Callback,
                ],
            ),
            (Tier::Tcp, all_stages.clone()),
            (Tier::Shm, all_stages),
        ] {
            let (stats, snap) = oneway_traced(&tiny(), 32, 32, tier, link);
            assert_eq!(stats.n, 5, "{tier:?}");
            for stage in want_stages {
                let cell = snap
                    .cells
                    .iter()
                    .find(|c| c.stage == stage)
                    .unwrap_or_else(|| panic!("{tier:?} missing stage {stage:?}"));
                assert_eq!(cell.hist.count, 5, "{tier:?} stage {stage:?} sample count");
            }
            // The telescoping property that makes the waterfall meaningful:
            // per-stage means sum to the neighborhood of the measured e2e
            // (loose here — CI boxes are noisy; the harness binaries report
            // the exact error).
            let sum_ms = snap.stage_sum_ns(true) / 1e6;
            assert!(
                sum_ms > 0.0 && sum_ms < stats.mean_ms * 3.0,
                "{tier:?}: stage sum {sum_ms} ms vs e2e mean {} ms",
                stats.mean_ms
            );
        }
    }

    #[test]
    fn oneway_loaned_shm_trace_omits_the_copy_stage() {
        let link = LinkProfile {
            bandwidth_bps: 1_000_000_000,
            latency: Duration::from_micros(100),
        };
        use rossf_trace::Stage;
        let (stats, snap) = oneway_loaned_traced(&tiny(), 32, 32, Tier::Shm, link);
        assert_eq!(stats.n, 5);
        // The message is built inside the segment, so the publish-side
        // payload copy (wire_write) must not appear in the waterfall.
        let copied: Vec<_> = snap
            .cells
            .iter()
            .filter(|c| c.stage == Stage::WireWrite && c.hist.count > 0)
            .collect();
        assert!(
            copied.is_empty(),
            "loaned shm publish recorded a copy stage: {copied:?}"
        );
        // Every other stage of the shm waterfall is still present.
        for stage in [
            Stage::Alloc,
            Stage::Encode,
            Stage::Enqueue,
            Stage::WireRead,
            Stage::Verify,
            Stage::Adopt,
            Stage::Callback,
        ] {
            let cell = snap
                .cells
                .iter()
                .find(|c| c.stage == stage)
                .unwrap_or_else(|| panic!("loaned shm missing stage {stage:?}"));
            assert_eq!(cell.hist.count, 5, "loaned shm stage {stage:?}");
        }
    }

    #[test]
    fn oneway_loaned_falls_back_on_non_shm_tiers() {
        let link = LinkProfile {
            bandwidth_bps: 1_000_000_000,
            latency: Duration::from_micros(100),
        };
        // Fastpath delivery grants no shm loans; the heap fallback must
        // keep the run indistinguishable from an ordinary publish.
        let fast = oneway_loaned(&tiny(), 32, 32, Tier::Fastpath, link);
        assert_eq!(fast.n, 5);
        assert!(fast.mean_ms > 0.0 && fast.mean_ms < 1000.0);
    }

    #[test]
    fn fig18_slam_runner_both_families() {
        let args = RunArgs {
            iters: 3,
            ..RunArgs::default()
        };
        let plain = slam_case_study(&args, Family::Plain, (96, 72), Duration::ZERO);
        let sfm = slam_case_study(&args, Family::Sfm, (96, 72), Duration::ZERO);
        for s in [
            &plain.pose,
            &plain.cloud,
            &plain.debug,
            &sfm.pose,
            &sfm.cloud,
            &sfm.debug,
        ] {
            assert_eq!(s.n, 3);
            assert!(s.mean_ms > 0.0);
        }
    }
}
