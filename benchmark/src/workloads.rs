//! The six workloads. Five are one publisher feeding one or two
//! subscribers ([`PubSub`]) and differ only in message, tier and topology;
//! the sixth is the five-node SLAM pipeline ([`Slam`]).
//!
//! All traffic is loopback or in-process: no real link is crossed. The
//! "10 GbE" link is `rossf-netsim`'s pacing model.

use crate::harness::{Graph, Sent, SetupSpans, Sink, Spec, Tier, Workload, LOAN_RETRY};
use crate::inputs::{ImageInput, PoseInput, SlamInput, IMAGE_HEIGHT, IMAGE_WIDTH};
use crate::spans::Span;
use crate::stats;
use rossf_msg::geometry_msgs::{PoseStamped, SfmPoseStamped};
use rossf_msg::sensor_msgs::{Image, SfmImage, SfmPointCloud2};
use rossf_msg::std_msgs::Header;
use rossf_ros::ser::RosMessage;
use rossf_ros::time::{now_nanos, RosTime};
use rossf_ros::{
    LinkProfile, MachineId, Master, NodeHandle, Publisher, PublisherOptions, Subscriber,
    SubscriberOptions, TransportConfig,
};
use rossf_sfm::{verify_frame_for, SfmBox, SfmMessage, SfmReflect, SfmShared};
use rossf_slam::debug_image::annotate;
use rossf_slam::pipeline::{
    frame_to_sfm, spawn_sfm, OrbSlamNode, SlamConfig, SlamEngine, SlamTopics,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The names `--workload` accepts, in the order a full run uses.
pub const NAMES: [&str; 6] = [
    "img1m_loan_shm",
    "img1m_heap_fastpath",
    "img1m_tcp10g",
    "pose_shm",
    "pose_tcp_fanout2",
    "slam_320x240",
];

/// Build the workload called `name` from `seed`. `corrupt` perturbs the
/// checker's expectation (test only: every delivery must then fail).
pub fn by_name(name: &str, seed: u64, corrupt: bool) -> Option<Box<dyn Workload>> {
    let image = || ImagePayload {
        input: ImageInput::new(seed, IMAGE_WIDTH, IMAGE_HEIGHT),
        corrupt,
    };
    let pose = || PosePayload {
        input: PoseInput::new(seed),
        corrupt,
    };
    let shm = TransportConfig {
        enable_fastpath: false,
        shm_same_process: true,
        ..TransportConfig::default()
    };
    Some(match name {
        "img1m_loan_shm" => Box::new(PubSub {
            spec: Spec {
                name: "img1m_loan_shm",
                window: 4,
                tier: Tier::Shm,
                message_bytes: IMAGE_BYTES,
            },
            payload: Arc::new(image()),
            config: shm,
            link: None,
            subscriber_machine: MachineId::A,
            subscribers: 1,
            loaned: true,
            queue_size: 8,
        }),
        "img1m_heap_fastpath" => Box::new(PubSub {
            spec: Spec {
                name: "img1m_heap_fastpath",
                window: 4,
                tier: Tier::Fastpath,
                message_bytes: IMAGE_BYTES,
            },
            payload: Arc::new(image()),
            config: TransportConfig::default(),
            link: None,
            subscriber_machine: MachineId::A,
            subscribers: 1,
            loaned: false,
            queue_size: 8,
        }),
        "img1m_tcp10g" => Box::new(PubSub {
            spec: Spec {
                name: "img1m_tcp10g",
                window: 4,
                tier: Tier::Tcp,
                message_bytes: IMAGE_BYTES,
            },
            payload: Arc::new(image()),
            config: TransportConfig {
                enable_fastpath: false,
                validate_on_receive: true,
                ..TransportConfig::default()
            },
            link: Some(LinkProfile::ten_gbe()),
            subscriber_machine: MachineId::B,
            subscribers: 1,
            loaned: false,
            queue_size: 8,
        }),
        "pose_shm" => Box::new(PubSub {
            spec: Spec {
                name: "pose_shm",
                window: 32,
                tier: Tier::Shm,
                message_bytes: POSE_BYTES,
            },
            payload: Arc::new(pose()),
            config: shm,
            link: None,
            subscriber_machine: MachineId::A,
            subscribers: 1,
            loaned: false,
            queue_size: 64,
        }),
        "pose_tcp_fanout2" => Box::new(PubSub {
            spec: Spec {
                name: "pose_tcp_fanout2",
                window: 32,
                tier: Tier::Tcp,
                message_bytes: POSE_BYTES,
            },
            payload: Arc::new(pose()),
            config: TransportConfig {
                validate_on_receive: true,
                ..TransportConfig::default()
            },
            link: None,
            subscriber_machine: MachineId::B,
            subscribers: 2,
            loaned: false,
            queue_size: 64,
        }),
        "slam_320x240" => Box::new(Slam::new(seed, corrupt)),
        _ => return None,
    })
}

/// Wire size of the 800×600 rgb8 image: skeleton, two strings, payload
/// (`ros.wire_bytes_per_msg` reports the same number).
const IMAGE_BYTES: usize = 1_440_068;
/// Wire size of a `PoseStamped` with frame id `map`.
const POSE_BYTES: usize = 84;

/// What a [`PubSub`] workload publishes and how a delivery is checked.
pub trait Payload: Send + Sync + 'static {
    type Msg: SfmMessage + SfmReflect;

    /// Assign every field of message `seq`; the user's cost.
    fn fill(&self, msg: &mut Self::Msg, seq: u64, stamp_ns: u64);

    /// Compare every scalar and string field, the payload length and a
    /// seeded sample of payload bytes with what `fill` wrote for `seq`.
    fn check(&self, msg: &Self::Msg, seq: u64) -> Result<(), String>;

    fn stamp_ns(msg: &Self::Msg) -> u64;

    /// Address of the bulk of the message, for the zero-copy check.
    fn payload_addr(msg: &Self::Msg) -> usize;

    /// `(encode_us, decode_us)` of the equivalent plain ROS1 message.
    fn serialization_reference_us(&self) -> (f64, f64);

    /// Hash of everything this payload generated from the seed.
    fn input_hash(&self) -> u64;
}

fn expect<T: PartialEq + std::fmt::Debug>(field: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{field}: got {got:?}, expected {want:?}"))
    }
}

/// Yield until `connected()`: `NodeHandle::wait_for_subscribers` without
/// its 1 ms polling step, which made a ~1 ms handshake read as 1, 2 or 3
/// polls and the set-up time jump between them from run to run.
///
/// # Panics
///
/// After five seconds — a graph that does not connect must be loud, not
/// measured.
fn wait_until(what: &str, mut connected: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !connected() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::yield_now();
    }
}

/// Median time of `f` over `iters` calls, in microseconds.
fn median_us<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&samples)
}

fn plain_reference_us<M: RosMessage>(plain: &M, iters: usize) -> (f64, f64) {
    let bytes = plain.to_bytes();
    (
        median_us(iters, || plain.to_bytes()),
        median_us(iters, || M::from_bytes(&bytes).expect("reference decode")),
    )
}

pub struct ImagePayload {
    input: ImageInput,
    corrupt: bool,
}

impl Payload for ImagePayload {
    type Msg = SfmImage;

    fn fill(&self, msg: &mut SfmImage, seq: u64, stamp_ns: u64) {
        msg.header.seq = seq as u32;
        msg.header.stamp = RosTime::from_nanos(stamp_ns);
        msg.header.frame_id.assign("camera");
        msg.height = self.input.height;
        msg.width = self.input.width;
        msg.encoding.assign("rgb8");
        msg.is_bigendian = 0;
        msg.step = self.input.width * 3;
        msg.data.assign(&self.input.pixels);
    }

    fn check(&self, msg: &SfmImage, seq: u64) -> Result<(), String> {
        expect("header.seq", msg.header.seq, seq as u32)?;
        expect("header.frame_id", msg.header.frame_id.as_str(), "camera")?;
        expect("height", msg.height, self.input.height)?;
        expect(
            "width",
            msg.width,
            self.input.width + u32::from(self.corrupt),
        )?;
        expect("encoding", msg.encoding.as_str(), "rgb8")?;
        expect("is_bigendian", msg.is_bigendian, 0)?;
        expect("step", msg.step, self.input.width * 3)?;
        let data = msg.data.as_slice();
        expect("data.len", data.len(), self.input.pixels.len())?;
        for &at in &self.input.samples {
            if data[at] != self.input.pixels[at] {
                return Err(format!(
                    "data[{at}]: got {}, expected {}",
                    data[at], self.input.pixels[at]
                ));
            }
        }
        Ok(())
    }

    fn stamp_ns(msg: &SfmImage) -> u64 {
        msg.header.stamp.as_nanos()
    }

    fn payload_addr(msg: &SfmImage) -> usize {
        msg.data.as_slice().as_ptr() as usize
    }

    fn serialization_reference_us(&self) -> (f64, f64) {
        let plain = Image {
            header: Header {
                seq: 0,
                stamp: RosTime::from_nanos(0),
                frame_id: "camera".to_string(),
            },
            height: self.input.height,
            width: self.input.width,
            encoding: "rgb8".to_string(),
            is_bigendian: 0,
            step: self.input.width * 3,
            data: self.input.pixels.clone(),
        };
        plain_reference_us(&plain, 50)
    }

    fn input_hash(&self) -> u64 {
        self.input.hash()
    }
}

pub struct PosePayload {
    input: PoseInput,
    corrupt: bool,
}

impl Payload for PosePayload {
    type Msg = SfmPoseStamped;

    fn fill(&self, msg: &mut SfmPoseStamped, seq: u64, stamp_ns: u64) {
        let v = self.input.values(seq);
        msg.header.seq = seq as u32;
        msg.header.stamp = RosTime::from_nanos(stamp_ns);
        msg.header.frame_id.assign("map");
        msg.pose.position.x = v[0];
        msg.pose.position.y = v[1];
        msg.pose.position.z = v[2];
        msg.pose.orientation.x = v[3];
        msg.pose.orientation.y = v[4];
        msg.pose.orientation.z = v[5];
        msg.pose.orientation.w = v[6];
    }

    fn check(&self, msg: &SfmPoseStamped, seq: u64) -> Result<(), String> {
        let v = self.input.values(seq);
        expect("header.seq", msg.header.seq, seq as u32)?;
        expect("header.frame_id", msg.header.frame_id.as_str(), "map")?;
        let got = [
            msg.pose.position.x,
            msg.pose.position.y,
            msg.pose.position.z,
            msg.pose.orientation.x,
            msg.pose.orientation.y,
            msg.pose.orientation.z,
            msg.pose.orientation.w + f64::from(u8::from(self.corrupt)),
        ];
        expect("pose", got, v)
    }

    fn stamp_ns(msg: &SfmPoseStamped) -> u64 {
        msg.header.stamp.as_nanos()
    }

    fn payload_addr(msg: &SfmPoseStamped) -> usize {
        msg as *const SfmPoseStamped as usize
    }

    fn serialization_reference_us(&self) -> (f64, f64) {
        let mut plain = PoseStamped {
            header: Header {
                seq: 0,
                stamp: RosTime::from_nanos(0),
                frame_id: "map".to_string(),
            },
            ..PoseStamped::default()
        };
        plain.pose.position.x = 1.0;
        plain.pose.orientation.w = 1.0;
        plain_reference_us(&plain, 2000)
    }

    fn input_hash(&self) -> u64 {
        self.input.hash()
    }
}

/// One publisher, `subscribers` subscribers, one topic.
pub struct PubSub<P: Payload> {
    spec: Spec,
    payload: Arc<P>,
    config: TransportConfig,
    /// Shaping between machine A and the subscribers' machine.
    link: Option<LinkProfile>,
    subscriber_machine: MachineId,
    subscribers: usize,
    /// Build each message in place through `Publisher::loan`.
    loaned: bool,
    queue_size: usize,
}

struct PubSubGraph<P: Payload> {
    // Field order is drop order: endpoints go before the master.
    publisher: Publisher<SfmBox<P::Msg>>,
    _subscribers: Vec<Subscriber<SfmShared<P::Msg>>>,
    sinks: Vec<Arc<Sink>>,
    master: Master,
    payload: Arc<P>,
    loaned: bool,
    traced: bool,
}

/// The subscriber callback of every [`PubSub`] workload.
fn deliver<P: Payload>(sink: &Sink, payload: &P, expected_seq: &AtomicU64, msg: SfmShared<P::Msg>) {
    let entered = sink.enter(P::stamp_ns(&msg));
    // Relaxed: one thread runs this link's callbacks, in order.
    let seq = expected_seq.fetch_add(1, Ordering::Relaxed);
    let verdict = payload.check(&msg, seq);
    if !sink.traced() {
        drop(msg);
        sink.complete(verdict);
        return;
    }
    sink.observe_payload_addr(seq, P::payload_addr(&msg));
    complete_traced(sink, seq, entered, msg, verdict);
}

/// How a callback ends in the traced pass: verify the whole frame, release
/// the message, record the callback-side spans, report the verdict.
fn complete_traced<T: SfmMessage + SfmReflect>(
    sink: &Sink,
    seq: u64,
    entered: u64,
    msg: SfmShared<T>,
    mut verdict: Result<(), String>,
) {
    let verify_start = now_nanos();
    let verified = verify_frame_for::<T>(msg.as_bytes());
    let verify_end = now_nanos();
    if let (Ok(()), Err(e)) = (&verdict, verified) {
        verdict = Err(format!("verify_frame_for: {e}"));
    }
    let exit = now_nanos();
    drop(msg);
    let released = now_nanos();
    for (name, start_ns, end_ns) in [
        ("callback", entered, exit),
        ("core.verify", verify_start, verify_end),
        ("core.release", exit, released),
    ] {
        sink.record_span(Span {
            id: seq,
            name,
            start_ns,
            end_ns,
        });
    }
    sink.complete(verdict);
}

impl<P: Payload> Workload for PubSub<P> {
    fn spec(&self) -> Spec {
        self.spec
    }

    fn build(&self, traced: bool, setup: &mut SetupSpans) -> Box<dyn Graph> {
        let master = Master::new();
        if let Some(link) = self.link {
            master
                .links()
                .connect(MachineId::A, self.subscriber_machine, link);
        }
        let topic = format!("bench/{}", self.spec.name);
        let publisher_node =
            NodeHandle::with_config(&master, "generator", MachineId::A, self.config.clone());
        let subscriber_node = NodeHandle::with_config(
            &master,
            "sink",
            self.subscriber_machine,
            self.config.clone(),
        );

        let t0 = Instant::now();
        let publisher: Publisher<SfmBox<P::Msg>> = publisher_node.advertise_with(
            &topic,
            PublisherOptions::new()
                .queue_size(self.queue_size)
                .trace(traced),
        );
        let t1 = Instant::now();
        let sinks: Vec<Arc<Sink>> = (0..self.subscribers).map(|_| Sink::new()).collect();
        let subscribers: Vec<_> = sinks
            .iter()
            .map(|sink| {
                let sink = Arc::clone(sink);
                let payload = Arc::clone(&self.payload);
                let expected_seq = AtomicU64::new(0);
                subscriber_node.subscribe_with(
                    &topic,
                    SubscriberOptions::new().trace(traced),
                    move |msg: SfmShared<P::Msg>| deliver(&sink, &*payload, &expected_seq, msg),
                )
            })
            .collect();
        let t2 = Instant::now();
        wait_until("subscribers connected", || {
            publisher.subscriber_count() >= self.subscribers
        });
        let t3 = Instant::now();
        setup.advertise_ns = (t1 - t0).as_nanos() as u64;
        setup.subscribe_ns = (t2 - t1).as_nanos() as u64;
        setup.connect_wait_ns = (t3 - t2).as_nanos() as u64;

        Box::new(PubSubGraph {
            publisher,
            _subscribers: subscribers,
            sinks,
            master,
            payload: Arc::clone(&self.payload),
            loaned: self.loaned,
            traced,
        })
    }

    fn input_hash(&self) -> u64 {
        self.payload.input_hash()
    }

    fn serialization_reference_us(&self) -> (f64, f64) {
        self.payload.serialization_reference_us()
    }

    fn traced_topics(&self) -> Vec<String> {
        vec![format!("bench/{}", self.spec.name)]
    }
}

impl<P: Payload> PubSubGraph<P> {
    fn note_addr(&self, seq: u64, msg: &P::Msg) {
        if self.traced {
            for sink in &self.sinks {
                sink.note_publisher_addr(seq, P::payload_addr(msg));
            }
        }
    }
}

impl<P: Payload> Graph for PubSubGraph<P> {
    fn send(&mut self, seq: u64, spans: Option<&mut Vec<Span>>) -> Sent {
        // The stamp: before construction, as in the paper's Fig. 12.
        let stamp = now_nanos();
        // Untraced sends read no further clock.
        let traced = spans.is_some();
        let clock = || if traced { now_nanos() } else { 0 };
        // Assign the fields of a freshly acquired message; returns when
        // it was acquired and when it was filled.
        let fill = |msg: &mut P::Msg| {
            let acquired = clock();
            self.payload.fill(msg, seq, stamp);
            let filled = clock();
            self.note_addr(seq, msg);
            (acquired, filled)
        };
        let (acquired, filled, published) = if self.loaned {
            let mut msg = loop {
                match self.publisher.loan() {
                    Some(msg) => break msg,
                    None if now_nanos() - stamp > LOAN_RETRY.as_nanos() as u64 => {
                        return Sent::Refused
                    }
                    None => std::thread::yield_now(),
                }
            };
            let (acquired, filled) = fill(&mut msg);
            self.publisher.publish_loaned(msg);
            (acquired, filled, clock())
        } else {
            let mut msg = SfmBox::<P::Msg>::new();
            let (acquired, filled) = fill(&mut msg);
            self.publisher.publish(&msg);
            (acquired, filled, clock())
        };
        if let Some(spans) = spans {
            let acquire = if self.loaned {
                "ros.loan"
            } else {
                "core.alloc"
            };
            for (name, start_ns, end_ns) in [
                ("construct", stamp, filled),
                (acquire, stamp, acquired),
                ("core.fill", acquired, filled),
                ("ros.publish_call", filled, published),
            ] {
                spans.push(Span {
                    id: seq,
                    name,
                    start_ns,
                    end_ns,
                });
            }
        }
        Sent::Published
    }

    fn sinks(&self) -> &[Arc<Sink>] {
        &self.sinks
    }

    fn master(&self) -> &Master {
        &self.master
    }
}

/// Frames whose expected outputs are computed by a direct `SlamEngine`
/// run; later frames are checked on every field that does not depend on
/// the engine's state.
const SLAM_REFERENCE_FRAMES: usize = 256;

/// What the SLAM node must publish for message `index`.
struct SlamExpectation {
    pose_x: f64,
    pose_y: f64,
    points: usize,
    /// `(offset, value)` samples of the annotated debug image.
    debug_samples: Vec<(usize, u8)>,
}

/// The Fig. 17/18 topology: generator → `orb_slam` node → three outputs.
pub struct Slam {
    input: Arc<SlamInput>,
    expectations: Arc<Vec<SlamExpectation>>,
    analyze_us: f64,
    corrupt: bool,
}

impl Slam {
    const SPEC: Spec = Spec {
        name: "slam_320x240",
        window: 2,
        tier: Tier::Fastpath,
        message_bytes: 320 * 240 * 3 + 68,
    };

    fn config() -> SlamConfig {
        SlamConfig {
            min_frame_compute: Duration::ZERO,
            threshold: 25,
        }
    }

    fn new(seed: u64, corrupt: bool) -> Slam {
        let input = SlamInput::new(seed);
        // The reference: the same frames, in the order every graph
        // receives them, through an engine of our own.
        let mut engine = SlamEngine::new(input.width, input.height, Slam::config());
        let mut sample_at = crate::inputs::SplitMix64::new(seed ^ 0x736C_616D);
        let mut analyze = Vec::with_capacity(SLAM_REFERENCE_FRAMES);
        let expectations = (0..SLAM_REFERENCE_FRAMES as u64)
            .map(|index| {
                let frame = input.frame_for(index);
                let gray = frame.to_gray();
                let start = Instant::now();
                let analysis = engine.analyze(&gray);
                analyze.push(start.elapsed().as_nanos() as f64 / 1e3);
                let debug = annotate(&frame.rgb, frame.width, frame.height, &analysis.corners, 2);
                SlamExpectation {
                    pose_x: analysis.pose.x,
                    pose_y: analysis.pose.y,
                    points: analysis.points.len(),
                    debug_samples: (0..crate::inputs::PAYLOAD_SAMPLES)
                        .map(|_| {
                            let at = (sample_at.next_u64() % debug.len() as u64) as usize;
                            (at, debug[at])
                        })
                        .collect(),
                }
            })
            .collect();
        Slam {
            input: Arc::new(input),
            expectations: Arc::new(expectations),
            analyze_us: stats::median(&analyze),
            corrupt,
        }
    }
}

struct SlamGraph {
    publisher: Publisher<SfmBox<SfmImage>>,
    _node: OrbSlamNode<SfmShared<SfmImage>>,
    _pose: Subscriber<SfmShared<SfmPoseStamped>>,
    _cloud: Subscriber<SfmShared<SfmPointCloud2>>,
    _debug: Subscriber<SfmShared<SfmImage>>,
    /// pose, cloud, debug — the debug image's callback is the latency.
    sinks: [Arc<Sink>; 3],
    master: Master,
    input: Arc<SlamInput>,
    /// Stamps of the frames in flight, by `seq % len`: the outputs must
    /// carry the stamp of the frame they were computed from.
    stamps: Arc<[AtomicU64; 64]>,
}

impl Workload for Slam {
    fn spec(&self) -> Spec {
        Slam::SPEC
    }

    fn build(&self, traced: bool, setup: &mut SetupSpans) -> Box<dyn Graph> {
        let master = Master::new();
        let nh = NodeHandle::new(&master, "slam_harness");
        let topics = SlamTopics::with_prefix("bench/slam");
        let (width, height) = (self.input.width, self.input.height);
        let stamps: Arc<[AtomicU64; 64]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        let sinks = [Sink::new(), Sink::new(), Sink::new()];

        let t0 = Instant::now();
        let publisher: Publisher<SfmBox<SfmImage>> = nh.advertise_with(
            &topics.image,
            PublisherOptions::new().queue_size(8).trace(traced),
        );
        let node = spawn_sfm(&nh, &topics, width, height, Slam::config());
        let t1 = Instant::now();

        // Relaxed on `stamps`: the transport's hand-off orders the
        // generator's store before the callbacks that read it.
        let stamp_of = |stamps: &[AtomicU64; 64], seq: u64| {
            stamps[seq as usize % stamps.len()].load(Ordering::Relaxed)
        };
        let options = || SubscriberOptions::new().trace(traced);

        let pose = {
            let sink = Arc::clone(&sinks[0]);
            let (expectations, stamps) = (Arc::clone(&self.expectations), Arc::clone(&stamps));
            let corrupt = self.corrupt;
            let expected_seq = AtomicU64::new(0);
            nh.subscribe_with(
                &topics.pose,
                options(),
                move |m: SfmShared<SfmPoseStamped>| {
                    let seq = expected_seq.fetch_add(1, Ordering::Relaxed);
                    let verdict = (|| {
                        expect("pose.header.seq", m.header.seq, seq as u32)?;
                        expect(
                            "pose.header.stamp",
                            m.header.stamp.as_nanos(),
                            stamp_of(&stamps, seq),
                        )?;
                        expect("pose.header.frame_id", m.header.frame_id.as_str(), "map")?;
                        expect("pose.orientation.w", m.pose.orientation.w, 1.0)?;
                        if let Some(want) = expectations.get(seq as usize) {
                            let x = m.pose.position.x + f64::from(u8::from(corrupt));
                            expect("pose.position.x", x, want.pose_x)?;
                            expect("pose.position.y", m.pose.position.y, want.pose_y)?;
                        }
                        Ok(())
                    })();
                    drop(m);
                    sink.complete(verdict);
                },
            )
        };
        let cloud = {
            let sink = Arc::clone(&sinks[1]);
            let (expectations, stamps) = (Arc::clone(&self.expectations), Arc::clone(&stamps));
            let expected_seq = AtomicU64::new(0);
            nh.subscribe_with(
                &topics.cloud,
                options(),
                move |m: SfmShared<SfmPointCloud2>| {
                    let seq = expected_seq.fetch_add(1, Ordering::Relaxed);
                    let verdict = (|| {
                        expect("cloud.header.seq", m.header.seq, seq as u32)?;
                        expect(
                            "cloud.header.stamp",
                            m.header.stamp.as_nanos(),
                            stamp_of(&stamps, seq),
                        )?;
                        expect("cloud.header.frame_id", m.header.frame_id.as_str(), "map")?;
                        expect("cloud.height", m.height, 1)?;
                        expect("cloud.fields.len", m.fields.len(), 4)?;
                        expect("cloud.point_step", m.point_step, 16)?;
                        expect("cloud.row_step", m.row_step, 16 * m.width)?;
                        expect("cloud.data.len", m.data.len(), 16 * m.width as usize)?;
                        if let Some(want) = expectations.get(seq as usize) {
                            expect("cloud.width", m.width as usize, want.points)?;
                        }
                        Ok(())
                    })();
                    drop(m);
                    sink.complete(verdict);
                },
            )
        };
        let debug = {
            let sink = Arc::clone(&sinks[2]);
            let (expectations, stamps) = (Arc::clone(&self.expectations), Arc::clone(&stamps));
            let expected_seq = AtomicU64::new(0);
            nh.subscribe_with(&topics.debug, options(), move |m: SfmShared<SfmImage>| {
                let entered = sink.enter(m.header.stamp.as_nanos());
                let seq = expected_seq.fetch_add(1, Ordering::Relaxed);
                let verdict = (|| {
                    expect("debug.header.seq", m.header.seq, seq as u32)?;
                    expect(
                        "debug.header.stamp",
                        m.header.stamp.as_nanos(),
                        stamp_of(&stamps, seq),
                    )?;
                    expect(
                        "debug.header.frame_id",
                        m.header.frame_id.as_str(),
                        "camera",
                    )?;
                    expect("debug.height", m.height, height)?;
                    expect("debug.width", m.width, width)?;
                    expect("debug.encoding", m.encoding.as_str(), "rgb8")?;
                    expect("debug.step", m.step, width * 3)?;
                    let data = m.data.as_slice();
                    expect("debug.data.len", data.len(), (width * height * 3) as usize)?;
                    if let Some(want) = expectations.get(seq as usize) {
                        for &(at, value) in &want.debug_samples {
                            expect("debug.data sample", data[at], value)?;
                        }
                    }
                    Ok(())
                })();
                if !sink.traced() {
                    drop(m);
                    sink.complete(verdict);
                    return;
                }
                complete_traced(&sink, seq, entered, m, verdict);
            })
        };
        let t2 = Instant::now();
        // The node's three publishers are its own; the outputs are
        // connected once each of our subscribers has handshaken.
        wait_until("SLAM graph connected", || {
            publisher.subscriber_count() >= 1
                && pose.connection_count() >= 1
                && cloud.connection_count() >= 1
                && debug.connection_count() >= 1
        });
        let t3 = Instant::now();
        setup.advertise_ns = (t1 - t0).as_nanos() as u64;
        setup.subscribe_ns = (t2 - t1).as_nanos() as u64;
        setup.connect_wait_ns = (t3 - t2).as_nanos() as u64;

        Box::new(SlamGraph {
            publisher,
            _node: node,
            _pose: pose,
            _cloud: cloud,
            _debug: debug,
            sinks,
            master,
            input: Arc::clone(&self.input),
            stamps,
        })
    }

    fn input_hash(&self) -> u64 {
        self.input.hash()
    }

    fn serialization_reference_us(&self) -> (f64, f64) {
        let frame = self.input.frame_for(0);
        let plain = rossf_slam::pipeline::frame_to_plain(frame, RosTime::from_nanos(0));
        plain_reference_us(&plain, 200)
    }

    fn slam_analyze_us(&self) -> f64 {
        self.analyze_us
    }

    fn traced_topics(&self) -> Vec<String> {
        let t = SlamTopics::with_prefix("bench/slam");
        vec![t.image, t.pose, t.cloud, t.debug]
    }
}

impl Graph for SlamGraph {
    fn send(&mut self, seq: u64, spans: Option<&mut Vec<Span>>) -> Sent {
        let frame = self.input.frame_for(seq);
        let stamp = now_nanos();
        self.stamps[seq as usize % self.stamps.len()].store(stamp, Ordering::Relaxed);
        // `frame_to_sfm` is the pipeline's own construction step
        // (allocation and assignment in one call, so one `construct` span
        // with no children); the sequence number is ours.
        let mut msg = frame_to_sfm(frame, RosTime::from_nanos(stamp));
        msg.header.seq = seq as u32;
        let filled = if spans.is_some() { now_nanos() } else { 0 };
        self.publisher.publish(&msg);
        if let Some(spans) = spans {
            let published = now_nanos();
            for (name, start_ns, end_ns) in [
                ("construct", stamp, filled),
                ("ros.publish_call", filled, published),
            ] {
                spans.push(Span {
                    id: seq,
                    name,
                    start_ns,
                    end_ns,
                });
            }
        }
        Sent::Published
    }

    fn sinks(&self) -> &[Arc<Sink>] {
        &self.sinks
    }

    fn latency_sinks(&self) -> &[Arc<Sink>] {
        &self.sinks[2..]
    }

    fn master(&self) -> &Master {
        &self.master
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_image(corrupt: bool) -> ImagePayload {
        ImagePayload {
            input: ImageInput::new(11, 32, 24),
            corrupt,
        }
    }

    #[test]
    fn image_checker_accepts_what_fill_wrote_and_nothing_else() {
        let payload = small_image(false);
        let mut msg = SfmBox::<SfmImage>::new();
        payload.fill(&mut msg, 5, 1234);
        assert_eq!(ImagePayload::stamp_ns(&msg), 1234);
        assert_eq!(payload.check(&msg, 5), Ok(()));
        let wrong_seq = payload.check(&msg, 6).unwrap_err();
        assert!(wrong_seq.contains("header.seq"), "{wrong_seq}");

        // A flipped payload byte at a sampled offset is caught.
        let at = payload.input.samples[0];
        msg.data.as_mut_slice()[at] ^= 0xFF;
        assert!(payload.check(&msg, 5).unwrap_err().contains("data["));
    }

    #[test]
    fn corrupted_expectation_fails_every_delivery() {
        let honest = small_image(false);
        let corrupted = small_image(true);
        let mut msg = SfmBox::<SfmImage>::new();
        honest.fill(&mut msg, 0, 1);
        assert!(corrupted.check(&msg, 0).unwrap_err().contains("width"));

        let pose = |corrupt| PosePayload {
            input: PoseInput::new(3),
            corrupt,
        };
        let mut msg = SfmBox::<SfmPoseStamped>::new();
        pose(false).fill(&mut msg, 9, 1);
        assert_eq!(pose(false).check(&msg, 9), Ok(()));
        assert!(pose(true).check(&msg, 9).is_err());
        assert!(pose(false).check(&msg, 10).is_err());
    }

    #[test]
    fn every_listed_workload_resolves_and_names_itself() {
        for name in NAMES {
            if name == "slam_320x240" {
                continue; // builds its reference run; covered by --smoke
            }
            let workload = by_name(name, 1, false).expect(name);
            assert_eq!(workload.spec().name, name);
        }
        assert!(by_name("no_such_workload", 1, false).is_none());
    }
}
