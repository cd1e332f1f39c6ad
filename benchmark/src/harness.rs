//! The closed-loop load generator: one generator thread driving one built
//! graph through a latency phase (window 1) and a throughput phase
//! (window W), with every delivery checked in the subscriber callback.
//!
//! A *graph* is whatever a workload builds out of the public API (master,
//! nodes, publishers, subscribers, links). The harness never looks inside
//! it: it asks it to send message `seq`, and watches the [`Sink`]s its
//! callbacks report into.

use crate::alloc_count;
use crate::placement::Placement;
use crate::procfs;
use crate::spans::Span;
use crate::stats;
use crate::window::Window;
use rossf_ros::time::now_nanos;
use rossf_ros::Master;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A delivery missing for this long is counted as failed.
pub const DELIVERY_TIMEOUT: Duration = Duration::from_secs(2);
/// A refused loan is retried for this long before it counts as refused.
pub const LOAN_RETRY: Duration = Duration::from_millis(10);
/// How long teardown may take to bring `mm().live()` back to zero.
const TEARDOWN_TIMEOUT: Duration = Duration::from_secs(2);
/// Messages sent before the phases of a round, at the workload's window.
pub const WARMUP_MESSAGES: u64 = 64;
/// Messages delivered in a cold-build cycle before it is torn down.
const SETUP_MESSAGES: u64 = 8;
/// Ring of publisher-side payload addresses the zero-copy check compares
/// against; larger than any window.
const ADDR_RING: usize = 64;
/// Latency samples a sink has room for without regrowing: more than the
/// fastest workload delivers in a latency phase.
const LATENCY_SAMPLES: usize = 1 << 17;

/// The tier a workload's name promises; `ros.tier_share` is the share of
/// frames that really used it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Shm,
    Fastpath,
    Tcp,
}

/// How much a callback does beyond checking the delivery. The harness
/// switches it at phase boundaries, while nothing is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkMode {
    /// Warm-up and throughput phase: check the message, count it. No
    /// clock read, no sample, so the phase's CPU, memory and allocation
    /// counts are the program's and not the benchmark's.
    Check = 0,
    /// Latency phase: also record stamp → callback entry.
    Sample = 1,
    /// Latency phase of a traced round: also verify the whole frame,
    /// record spans and check for zero copy.
    Trace = 2,
}

/// What one subscriber callback reports to the generator.
#[derive(Debug)]
pub struct Sink {
    mode: AtomicU8,
    /// Deliveries completed (checked and released). `Release` on the
    /// callback side pairs with `Acquire` in [`Sink::delivered`], so what
    /// the callback pushed into the vectors below is visible to a
    /// generator that has seen the count.
    delivered: AtomicU64,
    /// Stamp → callback entry, one sample per delivery, in order.
    latencies_ns: Mutex<Vec<u64>>,
    /// Deliveries that failed a check (at most one count per delivery).
    mismatched: AtomicU64,
    first_mismatch: Mutex<Option<String>>,
    /// Traced pass: callback-side spans and zero-copy observations.
    spans: Mutex<Vec<Span>>,
    addr_observed: AtomicU64,
    zero_copy: AtomicU64,
    publisher_addr: [AtomicUsize; ADDR_RING],
}

impl Sink {
    pub fn new() -> Arc<Sink> {
        Arc::new(Sink {
            mode: AtomicU8::new(SinkMode::Check as u8),
            delivered: AtomicU64::new(0),
            // Room for a whole latency phase, so the vector never regrows
            // (and never leaves freed copies behind) while measuring.
            latencies_ns: Mutex::new(Vec::with_capacity(LATENCY_SAMPLES)),
            mismatched: AtomicU64::new(0),
            first_mismatch: Mutex::new(None),
            spans: Mutex::new(Vec::new()),
            addr_observed: AtomicU64::new(0),
            zero_copy: AtomicU64::new(0),
            publisher_addr: std::array::from_fn(|_| AtomicUsize::new(0)),
        })
    }

    fn mode(&self) -> u8 {
        // Relaxed: switched only while nothing is in flight; the next
        // message's hand-off orders the store before the callback.
        self.mode.load(Ordering::Relaxed)
    }

    fn set_mode(&self, mode: SinkMode) {
        self.mode.store(mode as u8, Ordering::Relaxed);
    }

    /// Whether callbacks should do the traced pass's extra work.
    pub fn traced(&self) -> bool {
        self.mode() == SinkMode::Trace as u8
    }

    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Acquire)
    }

    pub fn mismatched(&self) -> u64 {
        // Relaxed: a statistic, read after the deliveries it counts.
        self.mismatched.load(Ordering::Relaxed)
    }

    pub fn first_mismatch(&self) -> Option<String> {
        self.first_mismatch.lock().expect("sink lock").clone()
    }

    /// First statement of a callback. In the latency phase: read the
    /// clock and record the latency against the stamp the message carries
    /// (the paper's protocol, Fig. 12), and return the entry time.
    /// Otherwise nothing, and zero.
    pub fn enter(&self, stamp_ns: u64) -> u64 {
        if self.mode() == SinkMode::Check as u8 {
            return 0;
        }
        let now = now_nanos();
        self.latencies_ns
            .lock()
            .expect("sink lock")
            .push(now.saturating_sub(stamp_ns));
        now
    }

    /// Last statement of a callback. `verdict` is the checker's: `Err`
    /// says what did not match.
    pub fn complete(&self, verdict: Result<(), String>) {
        if let Err(what) = verdict {
            self.mismatched.fetch_add(1, Ordering::Relaxed);
            self.first_mismatch
                .lock()
                .expect("sink lock")
                .get_or_insert(what);
        }
        self.delivered.fetch_add(1, Ordering::Release);
    }

    pub fn record_span(&self, span: Span) {
        self.spans.lock().expect("sink lock").push(span);
    }

    /// Generator side: remember where message `seq`'s payload lives.
    pub fn note_publisher_addr(&self, seq: u64, addr: usize) {
        // Relaxed: the transport's own hand-off orders it before the
        // callback that reads it.
        self.publisher_addr[seq as usize % ADDR_RING].store(addr, Ordering::Relaxed);
    }

    /// Callback side: the payload was not copied if it sits where the
    /// publisher built it, or inside a reader-side shared-memory mapping.
    pub fn observe_payload_addr(&self, seq: u64, addr: usize) {
        let published = self.publisher_addr[seq as usize % ADDR_RING].load(Ordering::Relaxed);
        self.addr_observed.fetch_add(1, Ordering::Relaxed);
        if addr == published || rossf_shm::is_shm_mapped(addr) {
            self.zero_copy.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn take_latencies(&self) -> Vec<u64> {
        std::mem::replace(
            &mut *self.latencies_ns.lock().expect("sink lock"),
            Vec::with_capacity(LATENCY_SAMPLES),
        )
    }

    fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("sink lock"))
    }
}

/// Outcome of one [`Graph::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sent {
    Published,
    /// No loan within [`LOAN_RETRY`]; nothing was published.
    Refused,
}

/// One built graph. Dropping it is the teardown.
pub trait Graph {
    /// Construct and publish message number `seq` (0-based, consecutive
    /// per graph). The latency stamp is taken before construction. With
    /// `spans`, record the generator-side spans of this message.
    fn send(&mut self, seq: u64, spans: Option<&mut Vec<Span>>) -> Sent;

    /// One sink per subscriber callback. A message is complete when every
    /// sink has it.
    fn sinks(&self) -> &[Arc<Sink>];

    /// The sinks whose samples define a message's latency: per message,
    /// the latest of them. Defaults to all. Callbacks of other sinks do
    /// not call [`Sink::enter`].
    fn latency_sinks(&self) -> &[Arc<Sink>] {
        self.sinks()
    }

    fn master(&self) -> &Master;
}

/// How long each step of a cold build took, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSpans {
    pub advertise_ns: u64,
    pub subscribe_ns: u64,
    pub connect_wait_ns: u64,
    pub first_delivery_ns: u64,
    pub teardown_ns: u64,
    /// `Master::new` → teardown complete.
    pub total_ns: u64,
}

/// Static facts about a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Window of the throughput phase.
    pub window: u64,
    pub tier: Tier,
    /// Wire bytes of one message, for the direct layer probes.
    pub message_bytes: usize,
}

pub trait Workload {
    fn spec(&self) -> Spec;

    /// Cold build: `Master::new` → advertise → subscribe → links up. The
    /// build fills in the first three `setup` fields.
    fn build(&self, traced: bool, setup: &mut SetupSpans) -> Box<dyn Graph>;

    /// Hash of everything generated from the seed.
    fn input_hash(&self) -> u64;

    /// Reference cost of plain ROS1 serialization of the equivalent
    /// message: `(encode_us, decode_us)`.
    fn serialization_reference_us(&self) -> (f64, f64);

    /// `SlamEngine::analyze` per frame, for the workload that has one.
    fn slam_analyze_us(&self) -> f64 {
        0.0
    }

    /// Topics the tracer's stage histograms are read from.
    fn traced_topics(&self) -> Vec<String>;
}

fn completed(graph: &dyn Graph) -> u64 {
    graph
        .sinks()
        .iter()
        .map(|s| s.delivered())
        .min()
        .unwrap_or(0)
}

fn set_mode(graph: &dyn Graph, mode: SinkMode) {
    for sink in graph.sinks() {
        sink.set_mode(mode);
    }
}

fn mismatched(graph: &dyn Graph) -> u64 {
    graph.sinks().iter().map(|s| s.mismatched()).sum()
}

/// Yield until `done()` or the delivery timeout; `false` on timeout.
fn yield_until(mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    let mut spins = 0u32;
    while !done() {
        std::thread::yield_now();
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(1024) && start.elapsed() > DELIVERY_TIMEOUT {
            return false;
        }
    }
    true
}

/// Transport counters summed over every topic of a graph's master.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportTotals {
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub frames_dropped: u64,
    pub decode_errors: u64,
    pub verify_rejects: u64,
    pub queue_depth_hwm: u64,
    pub fastpath_frames: u64,
    pub shm_frames: u64,
}

impl TransportTotals {
    pub fn of(master: &Master) -> TransportTotals {
        let mut t = TransportTotals::default();
        for (_, m) in master.metrics().snapshot() {
            t.frames_sent += m.frames_sent;
            t.bytes_sent += m.bytes_sent;
            t.frames_dropped += m.frames_dropped + m.frames_dropped_oversized + m.frames_faulted;
            t.decode_errors += m.decode_errors;
            t.verify_rejects += m.verify_rejects;
            t.queue_depth_hwm = t.queue_depth_hwm.max(m.queue_depth_hwm);
            t.fastpath_frames += m.fastpath_frames;
            t.shm_frames += m.shm_frames;
        }
        t
    }

    /// Counters accumulated since `earlier` (the high-water mark is a
    /// level, not a count, and is kept as is).
    pub fn since(&self, earlier: &TransportTotals) -> TransportTotals {
        TransportTotals {
            frames_sent: self.frames_sent - earlier.frames_sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            frames_dropped: self.frames_dropped - earlier.frames_dropped,
            decode_errors: self.decode_errors - earlier.decode_errors,
            verify_rejects: self.verify_rejects - earlier.verify_rejects,
            queue_depth_hwm: self.queue_depth_hwm,
            fastpath_frames: self.fastpath_frames - earlier.fastpath_frames,
            shm_frames: self.shm_frames - earlier.shm_frames,
        }
    }

    /// Share of sent frames that travelled on `tier`.
    pub fn tier_share(&self, tier: Tier) -> f64 {
        if self.frames_sent == 0 {
            return 0.0;
        }
        let on_tier = match tier {
            Tier::Shm => self.shm_frames,
            Tier::Fastpath => self.fastpath_frames,
            Tier::Tcp => self.frames_sent - self.shm_frames - self.fastpath_frames,
        };
        on_tier as f64 / self.frames_sent as f64
    }
}

/// Whole-process counters the kernel and the allocator keep, sampled
/// around the throughput phase.
#[derive(Debug, Clone, Copy, Default)]
struct OsSample {
    cpu_ns_background: u64,
    context_switches: u64,
    minor_faults: u64,
    heap_allocs: u64,
    heap_bytes: u64,
}

impl OsSample {
    fn take(generator_tid: Option<u32>, full: bool) -> OsSample {
        let (heap_allocs, heap_bytes) = alloc_count::snapshot();
        OsSample {
            cpu_ns_background: procfs::cpu_ns_except(generator_tid),
            // The per-task status walk is only worth its cost when the
            // traced pass reports it.
            context_switches: if full { procfs::context_switches() } else { 0 },
            minor_faults: if full {
                procfs::process_stat().minor_faults
            } else {
                0
            },
            heap_allocs,
            heap_bytes,
        }
    }
}

/// Everything measured in one round.
#[derive(Debug, Clone, Default)]
pub struct RoundResult {
    pub traced: bool,
    /// Latency-phase samples (µs, sorted): stamp → callback entry.
    pub latencies_us: Vec<f64>,
    pub throughput_msgs_s: f64,
    /// Throughput phase, per delivered message: the generator's time
    /// outside its window wait (construction and the publish call) plus
    /// every other thread's on-CPU time.
    pub cpu_us_per_msg: f64,
    /// The other threads' share of that alone.
    pub bg_cpu_us_per_msg: f64,
    pub gen_wait_share: f64,
    pub threads: u64,
    /// Messages the generator tried to send in both phases.
    pub attempted: u64,
    /// Of those: refused, dropped, missing after the timeout, or
    /// delivered but failing a check.
    pub failed: u64,
    pub loans_refused: u64,
    pub first_mismatch: Option<String>,
    /// `mm().live()` once teardown finished (must be 0).
    pub mm_live_after: u64,
    pub transport: TransportTotals,
    pub mm_registered_per_msg: f64,
    pub mm_shared_adoptions_per_msg: f64,
    /// Traced rounds: latency-phase spans of both sides, and the tracer's
    /// stage means (µs) by stage name.
    pub spans: Vec<Span>,
    pub stage_means_us: Vec<(&'static str, f64)>,
    pub zero_copy_share: f64,
    pub ctx_switches_per_msg: f64,
    pub minor_faults_per_msg: f64,
    pub heap_allocs_per_msg: f64,
    pub heap_bytes_per_msg: f64,
}

/// Per-phase bookkeeping shared by the two phases.
struct Phase<'a> {
    graph: &'a mut dyn Graph,
    window: Window,
    next_seq: &'a mut u64,
    /// `completed()` when the phase began.
    base: u64,
    refused: u64,
    lost: u64,
}

impl<'a> Phase<'a> {
    fn new(graph: &'a mut dyn Graph, limit: u64, next_seq: &'a mut u64) -> Phase<'a> {
        let base = completed(graph);
        Phase {
            graph,
            window: Window::new(limit),
            next_seq,
            base,
            refused: 0,
            lost: 0,
        }
    }

    fn done(&self) -> u64 {
        completed(self.graph) - self.base
    }

    /// Send one message if the window allows; `false` when it is full.
    fn try_send(&mut self, spans: Option<&mut Vec<Span>>) -> bool {
        let done = self.done();
        if !self.window.try_send(done) {
            return false;
        }
        match self.graph.send(*self.next_seq, spans) {
            Sent::Published => *self.next_seq += 1,
            Sent::Refused => {
                self.refused += 1;
                self.window.write_off(1);
            }
        }
        true
    }

    /// Wait for at least one more completion than `seen`; on timeout give
    /// up on everything outstanding.
    fn wait_past(&mut self, seen: u64) {
        let graph = &*self.graph;
        let base = self.base;
        if !yield_until(|| completed(graph) - base > seen) {
            self.give_up();
        }
    }

    /// Wait until nothing is in flight.
    fn drain(&mut self) {
        let graph = &*self.graph;
        let base = self.base;
        let window = &self.window;
        if !yield_until(|| window.in_flight(completed(graph) - base) == 0) {
            self.give_up();
        }
    }

    fn give_up(&mut self) {
        let outstanding = self.window.in_flight(self.done());
        self.lost += outstanding;
        self.window.write_off(outstanding);
    }

    fn attempted(&self) -> u64 {
        self.window.sent()
    }
}

/// Messages the graph completed, as the latency of each: the latest
/// callback entry among the latency sinks, message by message.
fn drain_latencies(graph: &dyn Graph) -> Vec<u64> {
    let mut per_sink: Vec<Vec<u64>> = graph
        .latency_sinks()
        .iter()
        .map(|s| s.take_latencies())
        .collect();
    let shortest = per_sink.iter().map(Vec::len).min().unwrap_or(0);
    let mut out = per_sink.pop().unwrap_or_default();
    out.truncate(shortest);
    for other in &per_sink {
        for (slot, sample) in out.iter_mut().zip(other) {
            *slot = (*slot).max(*sample);
        }
    }
    out
}

/// Dropping a graph only asks its link threads to stop. Teardown is over
/// when the message manager reports no live message (every thread has let
/// go of its frames) and the process is back to the `threads_before` it
/// had before the build — otherwise the stragglers' unmapping and exiting
/// runs into whatever is built or measured next. Returns the messages
/// still live when the wait ended (zero, unless something leaked).
fn wait_for_teardown(threads_before: u64) -> u64 {
    let start = Instant::now();
    loop {
        let live = rossf_sfm::mm().live() as u64;
        let settled = live == 0 && thread_count() <= threads_before;
        if settled || start.elapsed() > TEARDOWN_TIMEOUT {
            return live;
        }
        // Yield, not sleep: a sleep's ~0.1 ms granularity is a fifth of
        // a small graph's whole set-up cycle.
        std::thread::yield_now();
    }
}

fn thread_count() -> u64 {
    procfs::process_stat().num_threads
}

/// Cold build with the generator thread free to run on any CPU for the
/// duration, then back on its own for the phases.
fn build(
    workload: &dyn Workload,
    traced: bool,
    setup: &mut SetupSpans,
    placement: Option<&Placement>,
) -> Box<dyn Graph> {
    if let Some(placement) = placement {
        placement.for_build();
    }
    let graph = workload.build(traced, setup);
    if let Some(placement) = placement {
        placement.for_phases();
    }
    graph
}

/// One cold-build cycle: build, deliver a few messages, tear down. This
/// is what `setup_s` times.
pub fn cold_cycle(
    workload: &dyn Workload,
    placement: Option<&Placement>,
) -> (SetupSpans, RoundFailures) {
    let mut setup = SetupSpans::default();
    let threads_before = thread_count();
    let t0 = Instant::now();
    let mut graph = build(workload, false, &mut setup, placement);
    let built = Instant::now();
    let mut next_seq = 0u64;
    let mut first_delivery_ns = 0;
    let mut phase = Phase::new(graph.as_mut(), 1, &mut next_seq);
    for i in 0..SETUP_MESSAGES {
        phase.try_send(None);
        phase.drain();
        if i == 0 {
            first_delivery_ns = built.elapsed().as_nanos() as u64;
        }
    }
    let mut failures = RoundFailures {
        attempted: phase.attempted(),
        failed: phase.refused + phase.lost + mismatched(graph.as_ref()),
        first_mismatch: graph.sinks().iter().find_map(|s| s.first_mismatch()),
        mm_live_after: 0,
    };
    let teardown = Instant::now();
    drop(graph);
    failures.mm_live_after = wait_for_teardown(threads_before);
    setup.first_delivery_ns = first_delivery_ns;
    setup.teardown_ns = teardown.elapsed().as_nanos() as u64;
    setup.total_ns = t0.elapsed().as_nanos() as u64;
    (setup, failures)
}

/// What went wrong in a cold cycle (nothing, at the seed commit).
#[derive(Debug, Clone, Default)]
pub struct RoundFailures {
    pub attempted: u64,
    pub failed: u64,
    pub first_mismatch: Option<String>,
    pub mm_live_after: u64,
}

/// One round: cold build, warm-up, latency phase, throughput phase,
/// teardown. `phase` is the length of each of the two phases.
pub fn run_round(
    workload: &dyn Workload,
    traced: bool,
    phase_len: Duration,
    placement: Option<&Placement>,
) -> RoundResult {
    let spec = workload.spec();
    let generator_tid = procfs::current_tid();
    let mut result = RoundResult {
        traced,
        ..RoundResult::default()
    };
    if traced {
        rossf_trace::tracer().reset();
    }

    let threads_before = thread_count();
    // A round's build is not one of the timed set-up cycles.
    let mut graph = build(workload, traced, &mut SetupSpans::default(), placement);
    let mut next_seq = 0u64;

    // Warm-up: lets pools, segments and lazy set-up settle. Checked like
    // every delivery, but not part of `attempted`.
    let mut warmup = Phase::new(graph.as_mut(), spec.window, &mut next_seq);
    while warmup.attempted() < WARMUP_MESSAGES {
        if !warmup.try_send(None) {
            let seen = warmup.done();
            warmup.wait_past(seen);
        }
    }
    warmup.drain();
    let warmup_failed = warmup.refused + warmup.lost;
    set_mode(
        graph.as_ref(),
        if traced {
            SinkMode::Trace
        } else {
            SinkMode::Sample
        },
    );

    let transport_before = TransportTotals::of(graph.master());
    let mm_before = rossf_sfm::mm().stats();

    // Latency phase: window 1 — publish, yield-wait for the callback,
    // publish the next.
    let mut gen_spans: Vec<Span> = Vec::new();
    let mut latency = Phase::new(graph.as_mut(), 1, &mut next_seq);
    let start = Instant::now();
    while start.elapsed() < phase_len {
        latency.try_send(traced.then_some(&mut gen_spans));
        latency.drain();
    }
    let (lat_attempted, lat_failed, lat_refused) = (
        latency.attempted(),
        latency.refused + latency.lost,
        latency.refused,
    );
    result.latencies_us = stats::sorted_us(&drain_latencies(graph.as_ref()));
    if traced {
        result.spans = gen_spans;
        result.spans.extend(callback_spans(
            graph.sinks().iter().map(|s| s.take_spans()).collect(),
        ));
        // Relaxed: read after the drain that ended the phase.
        let total = |count: fn(&Sink) -> &AtomicU64| -> u64 {
            graph
                .sinks()
                .iter()
                .map(|s| count(s).load(Ordering::Relaxed))
                .sum()
        };
        result.zero_copy_share =
            total(|s| &s.zero_copy) as f64 / total(|s| &s.addr_observed).max(1) as f64;
        // The tracer's stage means, read now so they describe the same
        // window-1 deliveries as the latency samples.
        result.stage_means_us = stage_means_us(&workload.traced_topics());
    }
    set_mode(graph.as_ref(), SinkMode::Check);

    // Throughput phase: window W in flight, yield-wait when full.
    let mut throughput = Phase::new(graph.as_mut(), spec.window, &mut next_seq);
    if traced {
        alloc_count::set_enabled(true);
    }
    let os_before = OsSample::take(generator_tid, traced);
    let start = Instant::now();
    let mut waited = Duration::ZERO;
    while start.elapsed() < phase_len {
        if !throughput.try_send(None) {
            let wait_start = Instant::now();
            let seen = throughput.done();
            throughput.wait_past(seen);
            waited += wait_start.elapsed();
        }
    }
    let issue_time = start.elapsed();
    throughput.drain();
    let elapsed = start.elapsed();
    let os_after = OsSample::take(generator_tid, traced);
    alloc_count::set_enabled(false);
    let delivered = throughput.done();
    let (thr_attempted, thr_failed, thr_refused) = (
        throughput.attempted(),
        throughput.refused + throughput.lost,
        throughput.refused,
    );
    result.threads = thread_count();

    let per_msg = |delta: u64| delta as f64 / delivered.max(1) as f64;
    result.throughput_msgs_s = delivered as f64 / elapsed.as_secs_f64();
    result.bg_cpu_us_per_msg =
        per_msg(os_after.cpu_ns_background - os_before.cpu_ns_background) / 1e3;
    result.cpu_us_per_msg = (issue_time - waited).as_secs_f64() * 1e6 / delivered.max(1) as f64
        + result.bg_cpu_us_per_msg;
    result.gen_wait_share = waited.as_secs_f64() / issue_time.as_secs_f64();
    result.ctx_switches_per_msg = per_msg(os_after.context_switches - os_before.context_switches);
    result.minor_faults_per_msg = per_msg(os_after.minor_faults - os_before.minor_faults);
    result.heap_allocs_per_msg = per_msg(os_after.heap_allocs - os_before.heap_allocs);
    result.heap_bytes_per_msg = per_msg(os_after.heap_bytes - os_before.heap_bytes);

    result.transport = TransportTotals::of(graph.master()).since(&transport_before);
    let mm_after = rossf_sfm::mm().stats();
    let messages = (lat_attempted + thr_attempted).max(1) as f64;
    result.mm_registered_per_msg = (mm_after.registered - mm_before.registered) as f64 / messages;
    result.mm_shared_adoptions_per_msg =
        (mm_after.shared_adoptions - mm_before.shared_adoptions) as f64 / messages;
    result.attempted = lat_attempted + thr_attempted;
    result.loans_refused = lat_refused + thr_refused;
    // A frame the transport dropped never arrives, so it is already in
    // `lost`; a delivery that failed its check arrived but does not count.
    result.failed = (lat_failed + thr_failed + warmup_failed + mismatched(graph.as_ref()))
        .min(result.attempted);
    result.first_mismatch = graph.sinks().iter().find_map(|s| s.first_mismatch());

    drop(graph);
    result.mm_live_after = wait_for_teardown(threads_before);
    if traced {
        rossf_trace::tracer().disarm();
    }
    result
}

/// Callback-side spans of all sinks as one span set per message: with
/// several subscribers, the one whose callback began last — the delivery
/// that completed the message.
fn callback_spans(mut per_sink: Vec<Vec<Span>>) -> Vec<Span> {
    if per_sink.len() <= 1 {
        return per_sink.pop().unwrap_or_default();
    }
    let mut last: std::collections::HashMap<u64, (usize, u64)> = std::collections::HashMap::new();
    for (sink, spans) in per_sink.iter().enumerate() {
        for span in spans.iter().filter(|s| s.name == "callback") {
            let slot = last.entry(span.id).or_insert((sink, span.start_ns));
            if span.start_ns > slot.1 {
                *slot = (sink, span.start_ns);
            }
        }
    }
    per_sink
        .into_iter()
        .enumerate()
        .flat_map(|(sink, spans)| {
            let last = &last;
            spans
                .into_iter()
                .filter(move |s| last.get(&s.id).is_some_and(|(owner, _)| *owner == sink))
        })
        .collect()
}

/// Mean of every stage the tracer recorded on `topics`, over all tiers,
/// in microseconds.
fn stage_means_us(topics: &[String]) -> Vec<(&'static str, f64)> {
    let mut sums: Vec<(&'static str, f64, u64)> = Vec::new();
    for topic in topics {
        let Some(snapshot) = rossf_trace::tracer().topic_snapshot(topic) else {
            continue;
        };
        for cell in &snapshot.cells {
            let name = cell.stage.name();
            let total = cell.hist.mean_ns() * cell.hist.count as f64;
            match sums.iter_mut().find(|(n, _, _)| *n == name) {
                Some(slot) => {
                    slot.1 += total;
                    slot.2 += cell.hist.count;
                }
                None => sums.push((name, total, cell.hist.count)),
            }
        }
    }
    sums.into_iter()
        .map(|(name, total, count)| (name, total / count.max(1) as f64 / 1e3))
        .collect()
}
