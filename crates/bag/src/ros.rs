//! Bag record/replay on live topics — the `rosbag` facility of the ROS
//! ecosystem, the glue between this crate's file format and the
//! [`rossf_ros`] middleware.
//!
//! [`Recorder`] taps every same-machine publisher of the selected topics
//! through [`RawFrameTap`] and streams the publisher's own `Arc`'d frames
//! to a [`StreamRecorder`] writer thread — zero encode and zero payload
//! copy on the capture path. [`Replayer`] maps a finished bag and
//! re-publishes its frames on the recorded cadence; for SFM messages the
//! frames are *adopted in place* out of the mapping
//! ([`Replayer::route_adopted`]), so playback is also copy-free. For a bag
//! as plain records (no live topics), use [`BagWriter`](crate::BagWriter)
//! and [`BagReader`] directly.
//!
//! Each side counts its own traffic, once: the recorder in
//! [`Recorder::stats`] (frames recorded and shed, bytes queued), the
//! replayer in the [`ReplayStats`] a run returns. The topics' transport
//! counters see a replayer as the publisher it publishes through, and a
//! recorder's taps not at all.

use crate::{
    build_schedule, schema_hash, BagError, BagReader, BagSummary, FrameBytes, IndexEntry,
    RecorderStats, StreamRecorder, TopicSpec,
};
use rossf_ros::time::now_nanos;
use rossf_ros::{Decode, Encode, NodeHandle, OutFrame, Publisher, RawFrameTap, RecvSlot, RosError};
use rossf_sfm::{SfmMessage, SfmShared};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bridge a bag-subsystem error into the middleware's error type.
fn bag_err(e: BagError) -> RosError {
    match e {
        BagError::Io(e) => RosError::Io(e),
        BagError::TypeMismatch {
            topic,
            recorded,
            attempted,
        } => RosError::TypeMismatch {
            topic,
            registered: recorded,
            attempted,
        },
        other => RosError::BadHeader(format!("bag: {other}")),
    }
}

/// Adapter letting a captured [`OutFrame`] ride the recorder queue without
/// copying: the queue holds the publisher's `Arc`'d buffer until the writer
/// thread appends it.
struct FrameView(OutFrame);

impl FrameBytes for FrameView {
    fn bytes(&self) -> &[u8] {
        self.0.as_slice()
    }
}

/// Configures a streaming [`Recorder`]; see [`Recorder::builder`].
#[derive(Debug, Default)]
pub struct RecorderBuilder {
    topics: Vec<TopicSpec>,
    queue_capacity: usize,
}

impl RecorderBuilder {
    /// Record `topic`, carrying messages of type `M`. The bag stores `M`'s
    /// type name and schema fingerprint (0 when `M` exports no schema), so
    /// replay can refuse mismatched routes.
    #[must_use]
    pub fn topic<M: Encode>(mut self, topic: &str) -> Self {
        self.topics.push(TopicSpec {
            topic: topic.to_string(),
            type_name: M::topic_type().to_string(),
            schema_hash: M::schema().map(schema_hash).unwrap_or(0),
        });
        self
    }

    /// Capacity of the bounded writer queue (frames). When the disk cannot
    /// keep up the queue fills and further captures are *shed*, never
    /// blocking a publisher; sheds show up in `frames_dropped`.
    #[must_use]
    pub fn queue_capacity(mut self, frames: usize) -> Self {
        self.queue_capacity = frames.max(1);
        self
    }

    /// Create the bag file at `path` and attach a capture tap to every
    /// configured topic.
    ///
    /// # Errors
    ///
    /// I/O errors creating the file; [`RosError::TypeMismatch`] if a topic
    /// already carries a different type.
    pub fn start(self, nh: &NodeHandle, path: impl AsRef<Path>) -> Result<Recorder, RosError> {
        let capacity = if self.queue_capacity == 0 {
            256
        } else {
            self.queue_capacity
        };
        let stream =
            StreamRecorder::create(path.as_ref(), &self.topics, capacity).map_err(bag_err)?;
        let mut taps = Vec::with_capacity(self.topics.len());
        for (i, spec) in self.topics.iter().enumerate() {
            let channel = stream
                .channel(i as u32)
                .expect("connection ids are dense topic indices");
            let tap = RawFrameTap::attach(nh, &spec.topic, &spec.type_name, move |frame| {
                channel.record(now_nanos(), Box::new(FrameView(frame.clone())));
            })?;
            taps.push(tap);
        }
        Ok(Recorder {
            stream: Some(stream),
            taps,
            topics: self.topics,
        })
    }
}

/// A live streaming bag recorder (see the module docs).
///
/// Dropping without [`Recorder::finish`] still closes the bag cleanly (the
/// writer thread appends the footer), but discards the summary.
pub struct Recorder {
    stream: Option<StreamRecorder>,
    taps: Vec<RawFrameTap>,
    topics: Vec<TopicSpec>,
}

impl Recorder {
    /// Start configuring a recorder.
    pub fn builder() -> RecorderBuilder {
        RecorderBuilder {
            topics: Vec::new(),
            queue_capacity: 256,
        }
    }

    /// The topics being recorded, in connection-id order.
    pub fn topics(&self) -> &[TopicSpec] {
        &self.topics
    }

    /// Live counters: frames accepted, frames shed, payload bytes queued.
    pub fn stats(&self) -> RecorderStats {
        self.stream
            .as_ref()
            .expect("stream lives until finish()")
            .stats()
    }

    /// Wait until every topic has at least `publishers_per_topic` live
    /// capture attachments, so no frame published after this returns is
    /// missed. Returns `false` on timeout.
    pub fn wait_attached(&self, publishers_per_topic: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.taps.iter().all(|tap| {
            let left = deadline.saturating_duration_since(Instant::now());
            tap.wait_attached(publishers_per_topic, left)
        })
    }

    /// Detach every tap, drain the queue, write the footer index and close
    /// the file.
    ///
    /// # Errors
    ///
    /// I/O errors from the writer thread (the bag may be incomplete).
    pub fn finish(mut self) -> Result<BagSummary, RosError> {
        // Taps first: once a tap's drop returns its callback never runs
        // again, so no capture races the queue drain below.
        self.taps.clear();
        let stream = self.stream.take().expect("finish consumes the recorder");
        stream.finish().map_err(bag_err)
    }
}

/// Playback pacing and verification options for [`Replayer::run`].
#[derive(Clone, Copy, Debug)]
pub struct ReplayOptions {
    /// Rate multiplier: `2.0` replays twice as fast as recorded. Must be
    /// positive.
    pub rate: f64,
    /// Number of passes over the bag (minimum 1 even if 0 is given).
    pub loops: u32,
    /// Structurally verify each frame (`Decode::verify_frame`) before
    /// publishing it.
    pub verify: bool,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            rate: 1.0,
            loops: 1,
            verify: false,
        }
    }
}

impl ReplayOptions {
    /// Set the rate multiplier.
    #[must_use]
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Set the number of passes.
    #[must_use]
    pub fn loops(mut self, loops: u32) -> Self {
        self.loops = loops;
        self
    }

    /// Enable per-frame structural verification.
    #[must_use]
    pub fn verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }
}

/// What a [`Replayer::run`] pass actually did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Frames published (across all loops).
    pub frames_replayed: u64,
    /// Wall-clock duration of the whole run.
    pub duration: Duration,
    /// Mean absolute deviation of each frame's publish instant from its
    /// scheduled instant.
    pub pacing_mean_abs_error: Duration,
    /// Worst single-frame deviation.
    pub pacing_max_abs_error: Duration,
}

/// Publishes one routed connection's frame; `bool` is the verify flag.
type RouteFn = Box<dyn Fn(&IndexEntry, bool) -> Result<(), RosError> + Send>;

/// Replays a recorded bag through live publishers (see the module docs).
///
/// Route each recorded topic to a publisher with
/// [`route_adopted`](Replayer::route_adopted) (zero-copy, SFM types) or
/// [`route_decoded`](Replayer::route_decoded) (any `Decode + Encode`
/// type), then [`run`](Replayer::run). Unrouted topics are skipped.
pub struct Replayer {
    reader: Arc<BagReader>,
    routes: HashMap<u32, RouteFn>,
}

impl Replayer {
    /// Open the bag at `path` (tolerant mode: a torn tail from a crashed
    /// recorder is recovered, check [`BagReader::recovered`]).
    ///
    /// # Errors
    ///
    /// I/O and format errors from [`BagReader::open`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, RosError> {
        BagReader::open(path.as_ref())
            .map(Self::new)
            .map_err(bag_err)
    }

    /// Wrap an already-opened reader.
    pub fn new(reader: BagReader) -> Self {
        Replayer {
            reader: Arc::new(reader),
            routes: HashMap::new(),
        }
    }

    /// The underlying reader (topics, index, mapping address range).
    pub fn reader(&self) -> &BagReader {
        &self.reader
    }

    /// Validate a route against the recorded connection: topic known and
    /// not yet routed, type name equal, schema fingerprints equal when both
    /// sides have one.
    fn check_route<D: Decode>(&self, recorded_topic: &str) -> Result<u32, RosError> {
        let conn = self
            .reader
            .connection(recorded_topic)
            .ok_or_else(|| bag_err(BagError::UnknownTopic(recorded_topic.to_string())))?;
        if self.routes.contains_key(&conn.id) {
            return Err(RosError::BadHeader(format!(
                "bag topic `{recorded_topic}` already routed"
            )));
        }
        if conn.type_name != D::topic_type() {
            return Err(RosError::TypeMismatch {
                topic: recorded_topic.to_string(),
                registered: conn.type_name.clone(),
                attempted: D::topic_type().to_string(),
            });
        }
        let attempted = D::schema().map(schema_hash).unwrap_or(0);
        if conn.schema_hash != 0 && attempted != 0 && conn.schema_hash != attempted {
            return Err(bag_err(BagError::SchemaMismatch {
                topic: recorded_topic.to_string(),
                recorded: conn.schema_hash,
                attempted,
            }));
        }
        Ok(conn.id)
    }

    /// Route `recorded_topic` to `publisher`, adopting each frame *in
    /// place* out of the bag mapping — no decode, no payload copy; the
    /// published message points straight at the mapped file. `_nh` is
    /// unused: the run counts its frames itself ([`ReplayStats`]); it stays
    /// for source compatibility.
    ///
    /// # Errors
    ///
    /// [`RosError::TypeMismatch`]/[`RosError::BadHeader`] when the route
    /// does not match the recorded connection (unknown topic, duplicate
    /// route, wrong type, schema-fingerprint mismatch).
    pub fn route_adopted<T: SfmMessage>(
        &mut self,
        recorded_topic: &str,
        _nh: &NodeHandle,
        publisher: Publisher<SfmShared<T>>,
    ) -> Result<(), RosError> {
        let conn_id = self.check_route::<SfmShared<T>>(recorded_topic)?;
        let reader = Arc::clone(&self.reader);
        self.routes.insert(
            conn_id,
            Box::new(move |entry, verify| {
                if verify {
                    let bytes = reader.frame_bytes(entry).map_err(bag_err)?;
                    <SfmShared<T> as Decode>::verify_frame(bytes)?;
                }
                let (alloc, len) = reader.adopt_frame(entry).map_err(bag_err)?;
                let msg = SfmShared::<T>::adopt_extern(alloc, len)?;
                publisher.publish(&msg);
                Ok(())
            }),
        );
        Ok(())
    }

    /// Route `recorded_topic` to `publisher` through the generic decode
    /// path (one copy per frame): works for any message family, including
    /// plain serialized types.
    ///
    /// # Errors
    ///
    /// As [`Replayer::route_adopted`].
    pub fn route_decoded<D: Decode + Encode>(
        &mut self,
        recorded_topic: &str,
        _nh: &NodeHandle,
        publisher: Publisher<D>,
    ) -> Result<(), RosError> {
        let conn_id = self.check_route::<D>(recorded_topic)?;
        let reader = Arc::clone(&self.reader);
        self.routes.insert(
            conn_id,
            Box::new(move |entry, verify| {
                let bytes = reader.frame_bytes(entry).map_err(bag_err)?;
                if verify {
                    D::verify_frame(bytes)?;
                }
                let mut slot = D::new_slot(bytes.len())?;
                slot.as_mut_slice().copy_from_slice(bytes);
                let msg = D::finish_slot(slot)?;
                publisher.publish(&msg);
                Ok(())
            }),
        );
        Ok(())
    }

    /// Replay every routed topic on the recorded cadence.
    ///
    /// Frames from all routed connections merge into one stamp-ordered
    /// stream; each frame's publish instant is the *cumulative* recorded
    /// gap from the start (rate-adjusted), so pacing error does not
    /// accumulate across frames.
    ///
    /// # Errors
    ///
    /// [`RosError::BadHeader`] on a non-positive rate; route errors
    /// (adoption, verification) abort the run.
    pub fn run(&self, opts: ReplayOptions) -> Result<ReplayStats, RosError> {
        if opts.rate.is_nan() || opts.rate <= 0.0 {
            return Err(RosError::BadHeader(format!(
                "replay rate must be positive, got {}",
                opts.rate
            )));
        }
        let mut conns: Vec<u32> = self.routes.keys().copied().collect();
        conns.sort_unstable();
        let schedule = build_schedule(&self.reader, &conns, opts.rate);
        let started = Instant::now();
        let mut frames = 0u64;
        let mut err_sum = Duration::ZERO;
        let mut err_max = Duration::ZERO;
        for pass in 0..opts.loops.max(1) {
            if pass > 0 {
                sleep_until(Instant::now() + schedule.loop_gap);
            }
            let mut target = Instant::now();
            for item in &schedule.items {
                target += item.delay;
                sleep_until(target);
                let lag = Instant::now().saturating_duration_since(target);
                let route = self
                    .routes
                    .get(&item.conn_id)
                    .expect("schedule only covers routed connections");
                route(&item.entry, opts.verify)?;
                frames += 1;
                err_sum += lag;
                err_max = err_max.max(lag);
            }
        }
        Ok(ReplayStats {
            frames_replayed: frames,
            duration: started.elapsed(),
            pacing_mean_abs_error: if frames > 0 {
                err_sum / frames as u32
            } else {
                Duration::ZERO
            },
            pacing_max_abs_error: err_max,
        })
    }
}

/// Sleep to `target` with sub-millisecond accuracy: coarse `thread::sleep`
/// for the bulk, then a short spin for the tail (OS sleep granularity is
/// too coarse for inter-frame gaps of a fast sensor).
fn sleep_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(500) {
            std::thread::sleep(left - Duration::from_micros(400));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use rossf_ros::{Master, PublisherOptions, SubscriberOptions};
    use rossf_sfm::{SfmBox, SfmError, SfmPod, SfmValidate, SfmVec};

    #[repr(C)]
    struct BagMsg {
        data: SfmVec<u8>,
    }
    unsafe impl SfmPod for BagMsg {}
    impl SfmValidate for BagMsg {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.data.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for BagMsg {
        fn type_name() -> &'static str {
            "test/BagMsg"
        }
        fn max_size() -> usize {
            512
        }
    }

    fn fnv(bytes: &[u8]) -> u64 {
        crate::fnv1a64(bytes)
    }

    #[test]
    fn recorder_and_adopted_replay_end_to_end() {
        let master = Master::new();
        let nh = NodeHandle::new(&master, "bag_e2e");
        let publisher =
            nh.advertise_with::<SfmBox<BagMsg>>("bag/cam", PublisherOptions::new().queue_size(16));

        let path = std::env::temp_dir().join(format!("rossf_bag_e2e_{}.bag", std::process::id()));
        let recorder = Recorder::builder()
            .topic::<SfmBox<BagMsg>>("bag/cam")
            .queue_capacity(64)
            .start(&nh, &path)
            .unwrap();
        assert!(recorder.wait_attached(1, Duration::from_secs(5)));

        let mut published = Vec::new();
        for i in 0..8u8 {
            let mut msg = SfmBox::<BagMsg>::new();
            msg.data.resize((i as usize % 5) + 3);
            for (j, b) in msg.data.as_mut_slice().iter_mut().enumerate() {
                *b = i.wrapping_mul(31).wrapping_add(j as u8);
            }
            published.push(fnv(msg.encode().as_slice()));
            publisher.publish(&msg);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while recorder.stats().frames_recorded < 8 {
            assert!(Instant::now() < deadline, "recorder never saw all frames");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = recorder.stats();
        assert_eq!(stats.frames_dropped, 0);
        let summary = recorder.finish().unwrap();
        assert_eq!(summary.frames, 8);
        // The recorder is the one count of what it captured (its
        // `frames_dropped` is checked above).
        assert_eq!(stats.frames_recorded, 8);
        assert!(stats.bytes_written > 0);

        // Replay into a fresh topic; the subscriber proves zero-copy by
        // checking the delivered message aliases the bag mapping.
        let mut replayer = Replayer::open(&path).unwrap();
        assert!(!replayer.reader().recovered());
        let range = replayer.reader().addr_range();
        let replay_pub = nh.advertise_with::<SfmShared<BagMsg>>(
            "bag/cam_rp",
            PublisherOptions::new().queue_size(16),
        );
        let seen = Arc::new(Mutex::new(Vec::<(u64, bool)>::new()));
        let seen_cb = Arc::clone(&seen);
        let _sub = nh.subscribe_with(
            "bag/cam_rp",
            SubscriberOptions::new(),
            move |msg: SfmShared<BagMsg>| {
                let base = msg.base();
                let in_map = base >= range.0 && base < range.1;
                let frame = msg.encode();
                seen_cb.lock().push((fnv(frame.as_slice()), in_map));
            },
        );
        std::thread::sleep(Duration::from_millis(50)); // let the sub attach
        replayer
            .route_adopted::<BagMsg>("bag/cam", &nh, replay_pub)
            .unwrap();
        let stats = replayer
            .run(ReplayOptions::default().rate(1000.0).verify(true))
            .unwrap();
        // The replayer is the one count of what it re-published.
        assert_eq!(stats.frames_replayed, 8);

        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.lock().len() < 8 {
            assert!(Instant::now() < deadline, "replayed frames never delivered");
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen = seen.lock();
        assert_eq!(
            seen.iter().map(|(h, _)| *h).collect::<Vec<_>>(),
            published,
            "replayed bytes must equal recorded bytes, in order"
        );
        assert!(
            seen.iter().all(|(_, in_map)| *in_map),
            "every replayed message must alias the bag mapping (zero copy)"
        );
        drop(seen);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_route_type_mismatch_refused() {
        let master = Master::new();
        let nh = NodeHandle::new(&master, "bag_mismatch");
        let publisher =
            nh.advertise_with::<SfmBox<BagMsg>>("bag/typed", PublisherOptions::new().queue_size(4));
        let path = std::env::temp_dir().join(format!("rossf_bag_mm_{}.bag", std::process::id()));
        let recorder = Recorder::builder()
            .topic::<SfmBox<BagMsg>>("bag/typed")
            .start(&nh, &path)
            .unwrap();
        assert!(recorder.wait_attached(1, Duration::from_secs(5)));
        let mut msg = SfmBox::<BagMsg>::new();
        msg.data.resize(4);
        publisher.publish(&msg);
        let deadline = Instant::now() + Duration::from_secs(5);
        while recorder.stats().frames_recorded < 1 {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        recorder.finish().unwrap();

        #[repr(C)]
        struct OtherMsg {
            data: SfmVec<u8>,
        }
        unsafe impl SfmPod for OtherMsg {}
        impl SfmValidate for OtherMsg {
            fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
                self.data.validate_in(base, len)
            }
        }
        unsafe impl SfmMessage for OtherMsg {
            fn type_name() -> &'static str {
                "test/OtherMsg"
            }
            fn max_size() -> usize {
                512
            }
        }

        let mut replayer = Replayer::open(&path).unwrap();
        let wrong = nh.advertise_with::<SfmShared<OtherMsg>>(
            "bag/typed_rp",
            PublisherOptions::new().queue_size(4),
        );
        let err = replayer
            .route_adopted::<OtherMsg>("bag/typed", &nh, wrong)
            .unwrap_err();
        assert!(matches!(err, RosError::TypeMismatch { .. }));
        let missing = nh.advertise_with::<SfmShared<OtherMsg>>(
            "bag/typed_rp2",
            PublisherOptions::new().queue_size(4),
        );
        let err = replayer
            .route_adopted::<OtherMsg>("no/such_topic", &nh, missing)
            .unwrap_err();
        assert!(matches!(err, RosError::BadHeader(_)));
        std::fs::remove_file(&path).ok();
    }
}
