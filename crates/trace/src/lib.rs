//! # rossf-trace — end-to-end message tracing and stage-latency attribution
//!
//! The paper's evaluation (Figs. 13–16) decomposes middleware cost into
//! serialization, transmission, and notification; this crate gives the
//! reproduction the same decomposition at runtime. Every traced message
//! carries a process-unique **trace id** and the transport records a
//! monotonic timestamp pair (start, end) at each pipeline stage it crosses:
//!
//! | stage           | span measured                                        |
//! |-----------------|------------------------------------------------------|
//! | `alloc`         | buffer allocation + field construction, up to publish|
//! | `encode`        | `publish` entry → encoded frame ready                |
//! | `enqueue`       | deposited in a transmission queue → taken out        |
//! | `wire_write`    | admission → frame stamped sent (incl. link shaping)  |
//! | `wire_read`     | stamped sent → payload fully read at the peer        |
//! | `verify`        | structural verification (`validate_on_receive`)      |
//! | `adopt`         | frame → callback argument (adoption / decode)        |
//! | `callback`      | `callback_enter` → `callback_exit`                   |
//!
//! Spans are aggregated into fixed **log2-bucket histograms** per
//! topic × stage × tier (TCP / same-machine fast path / shared memory) and
//! appended to a bounded **ring-buffer event recorder** holding the raw
//! timeline — netsim fault events are tagged into the same stream, so a
//! delayed frame and its inflated `wire_write` show up side by side.
//!
//! The trace id travels with its frame, never in a side table:
//!
//! * **fast path** — directly on the `Arc`'d frame (the frame
//!   object reaches the subscriber pointer-identical, tag included);
//! * **shared memory** — as the two [`FrameMeta`] words of the ring
//!   descriptor that names the frame's segment;
//! * **TCP** — as a 16-byte [`FrameMeta`] trailer after each frame's
//!   payload, on a link whose two ends are both traced (granted in the
//!   connection handshake). The payload bytes stay verbatim, and an
//!   untraced link is byte-identical to one that predates tracing.
//!
//! [`FrameMeta::sent_ns`] is on [`now_nanos`]'s clock, `CLOCK_MONOTONIC`
//! since boot, so a reader in another process on the same host starts its
//! `wire_read` span exactly where the writer's `wire_write` ended.
//!
//! The whole layer is disabled by default: endpoints opt in via
//! `PublisherOptions`/`SubscriberOptions` (crate `rossf-ros`), and every
//! instrumentation site is gated so an untraced run performs **zero
//! histogram writes** (asserted by the overhead smoke test).

#![deny(missing_docs)]

mod clock;
mod hist;
mod meta;
mod ring;
mod selftest;
mod stage;
mod waterfall;

pub use clock::now_nanos;
pub use hist::{bucket_floor, bucket_index, HistSnapshot, StageHist, BUCKETS};
pub use meta::FrameMeta;
pub use ring::{EventRing, TraceEvent, DEFAULT_RING_CAPACITY};
pub use selftest::self_test;
pub use stage::{Stage, Tier, STAGE_COUNT, TIER_COUNT};
pub use waterfall::{check_monotone, render_waterfall, StageCell, TopicSnapshot};

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-topic histogram table: one [`StageHist`] per stage × tier.
///
/// Obtained from [`Tracer::topic`] and cached by each traced endpoint so the
/// hot path is an `Arc` deref plus relaxed atomic adds — no lock, no lookup.
pub struct TopicTrace {
    topic: Arc<str>,
    hists: Vec<StageHist>, // STAGE_COUNT * TIER_COUNT, row-major by stage
}

impl TopicTrace {
    fn new(topic: &str) -> Self {
        TopicTrace {
            topic: Arc::from(topic),
            hists: (0..STAGE_COUNT * TIER_COUNT)
                .map(|_| StageHist::new())
                .collect(),
        }
    }

    /// Topic name this table aggregates.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The histogram for one (stage, tier) cell.
    pub fn hist(&self, stage: Stage, tier: Tier) -> &StageHist {
        &self.hists[stage.index() * TIER_COUNT + tier.index()]
    }

    /// Snapshot every non-empty (stage, tier) cell.
    pub fn snapshot(&self) -> TopicSnapshot {
        let mut cells = Vec::new();
        for stage in Stage::ALL {
            for tier in Tier::ALL {
                let h = self.hist(stage, tier).snapshot();
                if h.count > 0 {
                    cells.push(StageCell {
                        stage,
                        tier,
                        hist: h,
                    });
                }
            }
        }
        TopicSnapshot {
            topic: self.topic.to_string(),
            cells,
        }
    }
}

impl std::fmt::Debug for TopicTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopicTrace")
            .field("topic", &self.topic)
            .finish()
    }
}

/// The process-wide trace collector: topic tables, the raw event ring, and
/// the trace-id allocator.
pub struct Tracer {
    /// Armed when any endpoint enables tracing; sites that cannot see an
    /// endpoint flag (e.g. buffer allocation in `rossf-sfm`) consult this.
    armed: AtomicBool,
    topics: Mutex<HashMap<String, Arc<TopicTrace>>>,
    ring: EventRing,
    next_id: AtomicU64,
    /// Total histogram samples recorded since process start (or the last
    /// [`Tracer::reset`]); the disabled-overhead smoke test asserts this
    /// stays flat across an untraced run.
    hist_writes: AtomicU64,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            armed: AtomicBool::new(false),
            topics: Mutex::new(HashMap::new()),
            ring: EventRing::new(DEFAULT_RING_CAPACITY),
            next_id: AtomicU64::new(1),
            hist_writes: AtomicU64::new(0),
        }
    }

    /// Arm the collector (idempotent). Called when an endpoint with tracing
    /// enabled is created.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Disarm the collector. Existing endpoints that hold a [`TopicTrace`]
    /// keep recording; this only stops ambient sites (allocation stamping,
    /// fault tagging).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// `true` once any traced endpoint exists.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Drop all recorded data (topic tables, ring). The armed flag
    /// and the trace-id allocator are left alone, so endpoints created
    /// before the reset keep working — they just start writing into fresh
    /// tables. Benchmark cells call this between traced runs.
    pub fn reset(&self) {
        self.topics.lock().clear();
        self.ring.clear();
        self.hist_writes.store(0, Ordering::Relaxed);
    }

    /// The histogram table for `topic`, created on first use. Both ends of
    /// a traced topic share one instance.
    pub fn topic(&self, topic: &str) -> Arc<TopicTrace> {
        Arc::clone(
            self.topics
                .lock()
                .entry(topic.to_string())
                .or_insert_with(|| Arc::new(TopicTrace::new(topic))),
        )
    }

    /// Allocate a fresh nonzero trace id.
    pub fn next_trace_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one completed stage span: histogram sample plus a raw event
    /// at the span's end timestamp.
    pub fn span(
        &self,
        table: &TopicTrace,
        stage: Stage,
        tier: Tier,
        trace_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let dur = end_ns.saturating_sub(start_ns);
        table.hist(stage, tier).record(dur);
        self.hist_writes.fetch_add(1, Ordering::Relaxed);
        self.ring.push(TraceEvent {
            ts_ns: end_ns,
            trace_id,
            topic: Arc::clone(&table.topic),
            stage,
            tier,
            dur_ns: dur,
        });
    }

    /// Tag a netsim fault into the event stream (trace id 0: faults hit a
    /// link, not one message). `label` names the link, `dur_ns` is the
    /// injected delay (0 for drop/sever).
    pub fn fault_event(&self, label: &str, tier: Tier, dur_ns: u64) {
        self.ring.push(TraceEvent {
            ts_ns: now_nanos(),
            trace_id: 0,
            topic: Arc::from(label),
            stage: Stage::Fault,
            tier,
            dur_ns,
        });
    }

    /// Copy of the raw event timeline, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.drain_copy()
    }

    /// Snapshot every topic table, sorted by topic name.
    pub fn snapshot(&self) -> Vec<TopicSnapshot> {
        let mut all: Vec<TopicSnapshot> =
            self.topics.lock().values().map(|t| t.snapshot()).collect();
        all.sort_by(|a, b| a.topic.cmp(&b.topic));
        all
    }

    /// Snapshot one topic's table, if it exists.
    pub fn topic_snapshot(&self, topic: &str) -> Option<TopicSnapshot> {
        self.topics.lock().get(topic).map(|t| t.snapshot())
    }

    /// Total histogram samples recorded since start / last reset.
    pub fn hist_writes(&self) -> u64 {
        self.hist_writes.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("armed", &self.armed())
            .field("topics", &self.topics.lock().len())
            .field("hist_writes", &self.hist_writes())
            .finish()
    }
}

/// The process-global tracer every instrumentation site reports into.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_tables_are_shared_and_record() {
        let t = Tracer::new();
        let a = t.topic("camera/image");
        let b = t.topic("camera/image");
        assert!(Arc::ptr_eq(&a, &b));
        t.span(&a, Stage::Encode, Tier::Tcp, 7, 100, 350);
        let snap = b.hist(Stage::Encode, Tier::Tcp).snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum_ns, 250);
        assert_eq!(t.hist_writes(), 1);
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, 7);
        assert_eq!(events[0].dur_ns, 250);
    }

    #[test]
    fn reset_clears_data_but_not_ids() {
        let t = Tracer::new();
        let id1 = t.next_trace_id();
        let table = t.topic("x");
        t.span(&table, Stage::Adopt, Tier::Fastpath, id1, 0, 5);
        t.fault_event("a->b", Tier::Tcp, 0);
        t.reset();
        assert_eq!(t.hist_writes(), 0);
        assert!(t.events().is_empty());
        assert!(t.snapshot().is_empty());
        assert!(t.next_trace_id() > id1, "id allocator survives reset");
    }

    #[test]
    fn arm_is_idempotent_and_reversible() {
        let t = Tracer::new();
        assert!(!t.armed());
        t.arm();
        t.arm();
        assert!(t.armed());
        t.disarm();
        assert!(!t.armed());
    }

    #[test]
    fn snapshot_sorted_and_filtered_to_nonempty() {
        let t = Tracer::new();
        let b = t.topic("beta");
        let a = t.topic("alpha");
        t.span(&b, Stage::Callback, Tier::Fastpath, 1, 0, 10);
        t.span(&a, Stage::Callback, Tier::Fastpath, 2, 0, 10);
        let snaps = t.snapshot();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].topic, "alpha");
        assert_eq!(snaps[1].topic, "beta");
        assert_eq!(snaps[0].cells.len(), 1, "empty cells omitted");
        assert!(t.topic_snapshot("beta").is_some());
        assert!(t.topic_snapshot("missing").is_none());
    }

    #[test]
    fn global_tracer_is_a_singleton() {
        let a = tracer() as *const Tracer;
        let b = tracer() as *const Tracer;
        assert_eq!(a, b);
    }
}
