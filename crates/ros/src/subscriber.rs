//! The subscriber side of a topic.
//!
//! `subscribe` registers a callback with the master and connects to every
//! current and future publisher of the topic. Each publisher endpoint is
//! owned by a [`Supervision`] state machine: connect attempts and
//! handshakes run as short jobs on the process-wide job pool, the
//! steady-state link runs as a nonblocking [`Link`] state machine on the
//! shared [reactor](rossf_reactor) — the reader loop of the paper's Fig. 9
//! (obtain the next frame, verify, adopt, invoke the callback), whose
//! tier-specific half is a [`Source`], found with the rest of its tier under
//! `crate::tier`: bytes off a socket (TCP), pointers off the publisher's
//! queue (fast path), descriptors off a shared-memory ring (shm) — and
//! reconnect backoff is a reactor timer instead of a sleeping thread.
//! Injected link faults never reach this side: the publisher applies them
//! where the frame enters the link, so a source only ever sees the frames
//! the link carried, and a severed link simply ends. When a connection
//! dies while the publisher is still registered, the supervision
//! re-resolves the endpoint via the master and reconnects
//! under the node's [`BackoffPolicy`](crate::config::BackoffPolicy). A
//! publisher that unregisters ends its supervision; a replacement
//! publisher arrives through the master's watcher callback with a fresh
//! registration and gets a fresh supervision. No tier costs a thread per
//! link, so **callbacks run on the loop thread and must be short**
//! (DESIGN §9): a slow callback delays every other link in the process.

use crate::config::TransportConfig;
use crate::error::RosError;
use crate::master::{Master, PublisherEndpoint};
use crate::metrics::{Counters, MetricsSnapshot};
use crate::options::SubscriberOptions;
use crate::tier::{fastpath, shm, tcp};
use crate::traits::Decode;
use crate::wire::{ConnectionHeader, PROJECT_FIELD, TRACE_FIELD};
use rossf_netsim::MachineId;
use rossf_reactor::{runtime, Ctl, Event, Handler, Token};
use rossf_trace::{now_nanos, tracer, Stage, Tier, TopicTrace};
use std::collections::{HashSet, VecDeque};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

/// Frames one link dispatch may deliver before yielding the shared loop
/// (re-notifying itself for the rest), so one firehose link cannot starve
/// the others.
pub(crate) const FRAMES_PER_DISPATCH: usize = 64;

/// At most this many blocking connect+handshake attempts may occupy job
/// pool workers at once. The publisher's accept-side handshakes run on
/// the same pool: capping the subscriber side below the pool size
/// guarantees a worker is always free to answer, so a fan-in of
/// thousands of simultaneous subscribes cannot deadlock the pool against
/// itself.
const MAX_INFLIGHT_CONNECTS: usize = 2;

/// Connect-slot gate: held permits plus the attempts parked waiting for
/// one. A release hands its permit straight to the next parked attempt,
/// so waiters resume in FIFO order with no polling.
struct ConnectGate {
    inflight: usize,
    parked: VecDeque<Box<dyn FnOnce() + Send>>,
}

fn connect_gate() -> &'static Mutex<ConnectGate> {
    static GATE: OnceLock<Mutex<ConnectGate>> = OnceLock::new();
    GATE.get_or_init(|| {
        Mutex::new(ConnectGate {
            inflight: 0,
            parked: VecDeque::new(),
        })
    })
}

/// Run `attempt` now if a connect slot is free, otherwise park it until
/// one frees up. Callers run on a pool worker; parked attempts are
/// respawned onto the pool by the releasing slot holder.
fn with_connect_slot(attempt: Box<dyn FnOnce() + Send>) {
    let attempt = {
        let mut gate = connect_gate().lock();
        if gate.inflight < MAX_INFLIGHT_CONNECTS {
            gate.inflight += 1;
            attempt
        } else {
            gate.parked.push_back(attempt);
            return;
        }
    };
    attempt();
}

/// Release a connect slot, transferring it to the next parked attempt
/// when one is waiting.
fn release_connect_slot() {
    let next = {
        let mut gate = connect_gate().lock();
        match gate.parked.pop_front() {
            // The permit moves to the parked attempt unreleased.
            Some(job) => Some(job),
            None => {
                gate.inflight -= 1;
                None
            }
        }
    };
    if let Some(job) = next {
        runtime().pool.spawn(job);
    }
}

/// The state a subscription's links share: what every tier's source
/// delivers into.
pub(crate) struct SubCore<D: Decode> {
    topic: String,
    machine: MachineId,
    master: Master,
    registration: u64,
    config: TransportConfig,
    /// This subscription's counters: its links count the events of their
    /// half here.
    pub(crate) counters: Arc<Counters>,
    callback: Box<dyn Fn(D) + Send + Sync>,
    shutdown: AtomicBool,
    /// Reactor tokens of the live links and of attempts still connecting
    /// ([`Supervision::token`]), for `Drop` to deregister. `resume` removes
    /// an attempt's entry however it ends — dead entries never accumulate.
    links: Mutex<HashSet<Token>>,
    /// The topic's tracing table when this subscription was created with
    /// `SubscriberOptions::trace(true)`; `None` keeps the receive path free
    /// of clock reads and histogram writes.
    pub(crate) trace: Option<Arc<TopicTrace>>,
    /// The resolved field projection when this subscription was created
    /// with `SubscriberOptions::project(..)`. Offered to every TCP
    /// publisher at handshake time; links whose publisher echoed the spec
    /// carry sliced sub-frames verified against the projected schema.
    /// Zero-copy tiers (fast path, shm) ignore it and deliver full frames.
    pub(crate) projection: Option<Arc<rossf_sfm::Projection>>,
}

/// Owns one publisher endpoint for the life of its registration. The
/// retry state travels through the connection it establishes (the link's
/// reactor handler holds the box) and comes back via
/// [`Supervision::resume`] when the connection ends; backoff waits are
/// reactor timers, so an endpoint between attempts costs no thread.
struct Supervision<D: Decode> {
    core: Arc<SubCore<D>>,
    ep: PublisherEndpoint,
    /// Failed attempts since the last healthy connection.
    attempt: u32,
    /// Whether any connection to this endpoint ever completed a handshake
    /// (a later success is then a *re*connect).
    was_connected: bool,
    /// Once a granted shm link fails to attach (e.g. the `/proc` fd
    /// hand-off is denied by a ptrace-scope policy), stop offering the
    /// capability to this endpoint: the next handshake omits the offer and
    /// the publisher serves plain TCP instead.
    shm_blocked: bool,
    /// The reactor token reserved for the current attempt's link handler
    /// (a fresh one per attempt), before the peer is contacted: a fast-path publisher notifies it
    /// after each deposit, and a shm handshake names it as the doorbell of
    /// a same-process grant.
    token: Token,
}

impl<D: Decode> Supervision<D> {
    /// Start supervising `ep`: the first connection attempt goes straight
    /// to the pool, no initial backoff.
    fn launch(core: Arc<SubCore<D>>, ep: PublisherEndpoint) {
        let sup = Box::new(Supervision {
            core,
            ep,
            attempt: 0,
            was_connected: false,
            shm_blocked: false,
            token: runtime().reactor.reserve(),
        });
        runtime().pool.spawn(move || sup.step());
    }

    /// One connection attempt. Runs on the job pool — bounded by the
    /// connect and handshake timeouts, never connection-lifetime. Exactly
    /// one continuation follows: `resume` directly on failure, or through
    /// the link handler the attempt handed the box to.
    fn step(self: Box<Self>) {
        let core = Arc::clone(&self.core);
        // Relaxed: standalone exit flag, polled — a stale read only costs
        // one extra attempt.
        if core.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // A `Drop` that sweeps `links` before this insert misses the
        // token; the handler registered under it then concludes at its
        // first event, on the flag above.
        let reactor = runtime().reactor;
        core.links.lock().insert(self.token);
        // The zero-copy fast path applies when both sides opted in, share a
        // simulated machine, and the publisher lives in this process (its
        // endpoint carries its core as a local port). The strong
        // `port` reference ends with the attach call: holding it any longer
        // would keep the publisher core (and its master registration)
        // alive after the last `Publisher` handle drops — for the link's
        // life, or for as long as this worker takes to finish the step.
        // The queue closes when the publisher tears down.
        let local = core.config.enable_fastpath && self.ep.machine == core.machine;
        let port = local.then(|| self.ep.port.upgrade()).flatten();
        let token = self.token;
        if let Some(attached) = port.map(|port| port.attach_local(D::topic_type(), token, false)) {
            match attached {
                Ok((queue, sent)) => {
                    core.count_handshake(self.was_connected);
                    reactor.attach(token, Link::boxed(self, fastpath::source(queue, sent)));
                }
                Err(e) => self.resume(Err(e), false, false),
            }
            return;
        }
        // The blocking connect+handshake goes through the connect gate;
        // everything after the handshake is nonblocking.
        with_connect_slot(Box::new(move || self.connect_step()));
    }

    /// The gated blocking span of an attempt — TCP connect plus handshake
    /// (TCPROS-style) — then the hand-off of the established connection to
    /// the reactor. Holds a connect slot for exactly the blocking part.
    fn connect_step(self: Box<Self>) {
        let core = Arc::clone(&self.core);
        let mut request = ConnectionHeader::request(&core.topic, D::topic_type(), core.machine);
        // The shm offer is withheld after a grant failed to attach, so the
        // publisher serves this connection over plain TCP.
        if !self.shm_blocked {
            request = shm::offer(request, self.token);
        }
        // Request the field projection by its canonical spec. The grant is
        // an exact echo; a publisher that predates projection (or cannot
        // resolve the spec) simply omits the field and serves full frames.
        if let Some(projection) = &core.projection {
            request = request.with(PROJECT_FIELD, projection.spec());
        }
        // A traced subscription asks for the trace trailer; a traced
        // publisher echoes the field exactly, and only that echo grants it.
        if core.trace.is_some() {
            request = request.with(TRACE_FIELD, "1");
        }
        let dialed = tcp::dial(self.ep.addr, &request, core.config.handshake_timeout);
        release_connect_slot();
        let (stream, reply) = match dialed {
            Ok(dialed) => dialed,
            Err(e) => return self.resume(Err(e), false, false),
        };
        core.count_handshake(self.was_connected);
        // Steady state is nonblocking on every tier.
        if let Err(e) = stream.set_nonblocking(true) {
            return self.resume(Err(e.into()), false, false);
        }
        let (reactor, token) = (runtime().reactor, self.token);
        let fd = stream.as_raw_fd();
        if shm::granted(&reply) {
            // Any failure between the grant and a working reader is
            // reported as an attach failure: the supervisor then redoes the
            // handshake with the shm offer withheld and the publisher serves
            // plain TCP, instead of re-granting a link this process can
            // never attach.
            let loopback = core.master.links().fault(core.machine, core.machine);
            match shm::attach::<D>(&reply, stream, loopback) {
                Ok(source) => {
                    reactor.register_as(token, fd, true, false, Link::boxed(self, source))
                }
                Err(e) => self.resume(Err(e), true, true),
            }
            return;
        }
        let projection = core.projection.as_deref();
        let source = tcp::source::<D>(stream, &reply, projection, core.trace.is_some());
        reactor.register_as(token, fd, true, false, Link::boxed(self, source));
    }

    /// A connection (or attempt) ended: decide between standing down and
    /// scheduling the next attempt. Runs wherever the connection concluded
    /// (reactor thread or pool); everything here is brief and nonblocking,
    /// and the backoff wait is a reactor timer.
    fn resume(
        mut self: Box<Self>,
        result: Result<(), RosError>,
        handshaken: bool,
        shm_attach_failed: bool,
    ) {
        let core = Arc::clone(&self.core);
        core.links.lock().remove(&self.token);
        if shm_attach_failed {
            self.shm_blocked = true;
            core.counters
                .shm_attach_failures
                .fetch_add(1, Ordering::Relaxed);
        }
        if handshaken {
            self.was_connected = true;
            // A handshake whose shm grant could not be attached never
            // delivered a frame: keep escalating backoff instead of
            // restarting the schedule on every futile grant.
            if !shm_attach_failed {
                self.attempt = 0; // healthy link existed; restart the schedule
            }
            core.counters.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        // Relaxed: standalone exit flag.
        if core.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match result {
            // The peer refused this subscription outright (type or
            // endianness mismatch): retrying cannot change the answer. An
            // unattachable (or malformed) shm grant is exempt: the retry
            // renegotiates without the offer, which *can* change the
            // answer.
            Err(RosError::Rejected(_)) | Err(RosError::TypeMismatch { .. })
                if !shm_attach_failed =>
            {
                return
            }
            // Clean EOF or a transport-level failure: retryable.
            _ => {}
        }
        // Reconnect only while this exact registration is still current; a
        // replacement publisher has a fresh id and arrives via the
        // master's watcher callback.
        if core
            .master
            .lookup_publisher(&core.topic, self.ep.id)
            .is_none()
        {
            return;
        }
        let delay = core
            .config
            .backoff
            .delay(self.attempt, self.ep.id ^ core.registration);
        self.attempt = self.attempt.saturating_add(1);
        self.token = runtime().reactor.reserve();
        core.counters
            .reconnect_attempts
            .fetch_add(1, Ordering::Relaxed);
        // The wait costs no thread; the timer re-enters `step` on the
        // pool. Teardown during the wait is caught by step's shutdown
        // check (the timer itself holds no core reference that matters).
        runtime().reactor.timer(delay, move |_| {
            runtime().pool.spawn(move || self.step());
        });
    }
}

impl<D: Decode> SubCore<D> {
    /// A handshake completed, on whichever tier.
    fn count_handshake(&self, is_reconnect: bool) {
        self.counters.handshakes.fetch_add(1, Ordering::Relaxed);
        if is_reconnect {
            self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one receive tail, shared by every tier: the span of the hop the
    /// frame just crossed, verify (optional), adopt, account, invoke the
    /// callback — the end of the paper's Fig. 9 reader loop — with one
    /// telescoping span per step. What differs per tier is only how a frame
    /// is verified and adopted (the two closures) and how its trace id was
    /// recovered: `hop` is the hop's stage, the id (0 = untraced) and, when
    /// the sender's stamp is usable on this clock, when the hop began.
    // Inlined: every frame runs it, called from a source in another module
    // (`pose_tcp_fanout2` lost 2–4 % of its throughput with it out of line).
    #[inline]
    pub(crate) fn deliver<F>(
        &self,
        tier: Tier,
        hop: (Stage, u64, Option<u64>),
        len: usize,
        mut frame: F,
        verify: impl FnOnce(&mut F) -> bool,
        adopt: impl FnOnce(F) -> Result<D, RosError>,
    ) {
        let (hop, id, mut t_prev) = hop;
        let table = self.trace.as_deref().filter(|_| id != 0);
        let mut span = |stage: Stage| {
            if let Some(table) = table {
                let t = now_nanos();
                if let Some(t_prev) = t_prev {
                    tracer().span(table, stage, tier, id, t_prev, t);
                }
                t_prev = Some(t);
            }
        };
        span(hop);
        if self.config.validate_on_receive {
            if !verify(&mut frame) {
                // Structurally corrupt: drop the frame without adopting
                // it. Framing (length prefix, descriptor) is intact, so
                // the link stays in sync and lives on.
                self.counters.verify_rejects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            span(Stage::Verify);
        }
        match adopt(frame) {
            Ok(msg) => {
                span(Stage::Adopt);
                let counters = &self.counters;
                counters.frames_received.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_received
                    .fetch_add(len as u64, Ordering::Relaxed);
                (self.callback)(msg);
                span(Stage::Callback);
            }
            Err(_) => self.count_decode_error(),
        }
    }

    pub(crate) fn count_decode_error(&self) {
        self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// What one [`Source::advance`] call produced.
pub(crate) enum Progress {
    /// A complete frame was delivered (or deliberately discarded).
    Frame,
    /// Nothing more to take right now; the next event (readable socket,
    /// notify, doorbell, timer) resumes the link.
    Idle,
    /// The link ended cleanly: EOF on a frame boundary, the publisher's
    /// queue or ring closed and drained, a cut by the publisher's fault
    /// gate.
    Eof,
}

/// The tier-specific half of a [`Link`]: where the next frame comes from
/// and how it is verified and adopted. Everything runs on the reactor
/// thread and must not block.
pub(crate) trait Source<D: Decode>: Send + 'static {
    /// A dispatch begins: take note of what `event` says before frames
    /// are pulled.
    fn wake(&mut self, _event: Event) {}

    /// Deliver at most one frame through [`SubCore::deliver`].
    fn advance(&mut self, core: &SubCore<D>) -> Result<Progress, RosError>;
}

/// The steady-state half of a subscription to one publisher, on any tier:
/// a reactor handler that pumps its [`Source`] — a bounded batch per
/// dispatch, the delivery tail (verify, adopt, callback) inline — and
/// hands the endpoint back to its supervision when the link concludes.
struct Link<D: Decode, S: Source<D>> {
    /// The endpoint's supervision, handed back when the link concludes.
    /// `None` only transiently during conclusion.
    sup: Option<Box<Supervision<D>>>,
    source: S,
}

impl<D: Decode, S: Source<D>> Link<D, S> {
    fn boxed(sup: Box<Supervision<D>>, source: S) -> Box<dyn Handler> {
        Box::new(Link {
            sup: Some(sup),
            source,
        })
    }

    /// The link is over (EOF, error, or shutdown): hand the box back to
    /// its supervision — which decides on a reconnect, briefly and
    /// nonblockingly, right here on the reactor thread — and close. The
    /// close drops this handler and with it the socket, queue end or ring
    /// mapping the source owns.
    fn conclude(&mut self, result: Result<(), RosError>, ctl: &mut Ctl) {
        if let Some(sup) = self.sup.take() {
            sup.resume(result, true, false);
        }
        ctl.close();
    }
}

impl<D: Decode, S: Source<D>> Handler for Link<D, S> {
    fn on_event(&mut self, event: Event, ctl: &mut Ctl) {
        // Every wake — readable, notify, timer, even `Closed` — is a pump.
        // After a hangup the kernel still holds the already-received tail
        // and the ring its committed descriptors; pumping drains them to a
        // definite end, so no delivered frame is lost to teardown ordering.
        let Some(core) = self.sup.as_ref().map(|s| Arc::clone(&s.core)) else {
            return ctl.close();
        };
        self.source.wake(event);
        for _ in 0..FRAMES_PER_DISPATCH {
            // Relaxed: standalone exit flag, polled — a stale read only
            // costs one extra frame.
            if core.shutdown.load(Ordering::Relaxed) {
                return self.conclude(Ok(()), ctl);
            }
            match self.source.advance(&core) {
                Ok(Progress::Frame) => {}
                Ok(Progress::Idle) => return,
                Ok(Progress::Eof) => return self.conclude(Ok(()), ctl),
                Err(e) => return self.conclude(Err(e), ctl),
            }
        }
        // Yield the shared loop so one firehose link cannot starve the
        // rest; the notify re-runs this handler after the other ready
        // links get their turn.
        ctl.notify_self();
    }
}

/// Master-watcher state: endpoints that arrive before the core is built
/// are buffered; afterwards they launch supervisions directly. The weak
/// reference keeps the watcher from pinning a dropped subscription alive.
enum WatchState<D: Decode> {
    Pending(Vec<PublisherEndpoint>),
    Live(Weak<SubCore<D>>),
}

/// A live subscription: holds the callback and the per-publisher
/// supervisions.
///
/// Messages stop being delivered when the `Subscriber` is dropped (the
/// paper's `ros::Subscriber` semantics).
pub struct Subscriber<D: Decode> {
    core: Arc<SubCore<D>>,
}

impl<D: Decode> Subscriber<D> {
    pub(crate) fn create_with<F>(
        master: &Master,
        topic: &str,
        options: SubscriberOptions,
        machine: MachineId,
        config: TransportConfig,
        callback: F,
    ) -> Result<Self, RosError>
    where
        F: Fn(D) + Send + Sync + 'static,
    {
        let trace = if options.trace {
            tracer().arm();
            Some(tracer().topic(topic))
        } else {
            None
        };
        // Resolve the requested projection against the message type's
        // schema up front: an unknown or unprojectable path fails the
        // subscription here, loudly, instead of silently degrading every
        // link to full frames.
        let projection = match &options.project {
            Some(paths) => {
                let Some(schema) = D::schema() else {
                    return Err(RosError::Rejected(format!(
                        "projection requires a layout schema, but `{}` exports none",
                        D::topic_type()
                    )));
                };
                let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
                Some(Arc::new(rossf_sfm::Projection::resolve(schema, &refs)?))
            }
            None => None,
        };
        // The watcher callback fires under no lock of ours, possibly
        // before the core exists (a publisher registering concurrently
        // with us): buffer endpoints until the core is live, then launch
        // supervisions directly. Returning `false` after shutdown lets the
        // master prune the watcher entry.
        let cell: Arc<Mutex<WatchState<D>>> = Arc::new(Mutex::new(WatchState::Pending(Vec::new())));
        let watch_cell = Arc::clone(&cell);
        let (endpoints, registration) = master.register_subscriber_watch(
            topic,
            D::topic_type(),
            Arc::new(move |ep| {
                let mut state = watch_cell.lock();
                match &mut *state {
                    WatchState::Pending(buf) => {
                        buf.push(ep);
                        true
                    }
                    WatchState::Live(weak) => match weak.upgrade() {
                        // Relaxed: standalone exit flag; a stale read only
                        // costs one futile supervision launch, which
                        // re-checks it.
                        Some(core) if !core.shutdown.load(Ordering::Relaxed) => {
                            drop(state);
                            Supervision::launch(core, ep);
                            true
                        }
                        _ => false,
                    },
                }
            }),
        )?;
        let core = Arc::new(SubCore {
            topic: topic.to_string(),
            machine,
            master: master.clone(),
            registration,
            config,
            counters: master.metrics().register(topic),
            callback: Box::new(callback),
            shutdown: AtomicBool::new(false),
            links: Mutex::new(HashSet::new()),
            trace,
            projection,
        });
        // Go live: endpoints buffered by the watcher while the core was
        // being built are launched alongside the registration snapshot.
        // (The snapshot and the watcher installation were atomic under the
        // master's shard lock, so the two sets are disjoint and complete.)
        let buffered = {
            let mut state = cell.lock();
            match std::mem::replace(&mut *state, WatchState::Live(Arc::downgrade(&core))) {
                WatchState::Pending(buf) => buf,
                WatchState::Live(_) => Vec::new(),
            }
        };
        for ep in endpoints.into_iter().chain(buffered) {
            Supervision::launch(Arc::clone(&core), ep);
        }
        Ok(Subscriber { core })
    }

    /// The topic subscribed to.
    pub fn topic(&self) -> &str {
        &self.core.topic
    }

    /// Publisher connections that completed the handshake.
    pub fn connection_count(&self) -> u64 {
        // Relaxed: a count, publishing no other memory.
        self.core.counters.handshakes.load(Ordering::Relaxed)
    }

    /// The resolved field projection this subscription negotiates with
    /// publishers, when created with `SubscriberOptions::project(..)`.
    /// Useful as a receive-side *view* on the zero-copy tiers, which
    /// always deliver the full frame.
    pub fn projection(&self) -> Option<&rossf_sfm::Projection> {
        self.core.projection.as_deref()
    }

    /// This subscription's own counters: what it and its links counted.
    /// The topic's, summed over every endpoint on it, are
    /// [`MetricsRegistry::topic`](crate::MetricsRegistry::topic).
    pub fn stats(&self) -> MetricsSnapshot {
        self.core.counters.snapshot()
    }
}

impl<D: Decode> Drop for Subscriber<D> {
    fn drop(&mut self) {
        // Relaxed: standalone exit flag — every link checks it per frame,
        // and a connection about to go live re-checks it under the links
        // lock, which provides the ordering for the sweep below.
        self.core.shutdown.store(true, Ordering::Relaxed);
        self.core
            .master
            .unregister_subscriber(&self.core.topic, self.core.registration);
        // End every live link with an event: deregistering drops the
        // handler and the socket, queue end or ring mapping it owns, which
        // is what the publisher's side of the link sees. (A connection
        // still handshaking on a pool worker has no handler yet; the one
        // it registers concludes at its first event, on the flag above.)
        let reactor = runtime().reactor;
        for token in self.core.links.lock().drain() {
            reactor.deregister(token);
        }
    }
}

impl<D: Decode> std::fmt::Debug for Subscriber<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counters = self.core.counters.snapshot();
        f.debug_struct("Subscriber")
            .field("topic", &self.core.topic)
            .field("frames_received", &counters.frames_received)
            .field("reconnects", &counters.reconnects)
            .finish()
    }
}
