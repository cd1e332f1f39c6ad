//! The subscriber side of a topic.
//!
//! `subscribe` registers a callback with the master and connects to every
//! current and future publisher of the topic. Each publisher endpoint is
//! owned by a [`Supervision`] state machine: connect attempts and
//! handshakes run as short jobs on the process-wide job pool, the
//! steady-state link runs as a nonblocking [`Link`] state machine on the
//! shared [reactor](rossf_reactor) — the reader loop of the paper's Fig. 9
//! (obtain the next frame, verify, adopt, invoke the callback), whose
//! tier-specific half is a [`Source`]: bytes off a socket ([`TcpSource`]),
//! pointers off the publisher's queue ([`FastSource`]), descriptors off a
//! shared-memory ring ([`ShmSource`]) — and
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
use crate::fastpath::{LocalSinkHandle, FASTPATH_FIELD};
use crate::master::{Master, PublisherEndpoint};
use crate::metrics::TransportMetrics;
use crate::options::{SubscriberOptions, SubscriberStats};
use crate::shm::{
    SHM_EPOCH_FIELD, SHM_FD_FIELD, SHM_FIELD, SHM_PID_FIELD, SHM_PUB_PID_FIELD, SHM_TOKEN_FIELD,
};
use crate::tcp::{dial, FrameReader, Step};
use crate::traits::{Decode, RecvSlot};
use crate::wire::{ConnectionHeader, PROJECT_FIELD};
use crossbeam::channel::TryRecvError;
use rossf_netsim::MachineId;
use rossf_reactor::{runtime, Ctl, Event, Handler, Token};
use rossf_shm::{ShmReader, TakeError};
use rossf_trace::{now_nanos, tracer, Stage, Tier, TopicTrace};
use std::collections::{HashSet, VecDeque};
use std::io::Read;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use parking_lot::Mutex;

/// How long a traced reader waits for the writer's sidecar note to carry
/// the write-*completion* stamp before giving up on the `wire_read` span.
/// The writer settles the note within microseconds of the last frame byte;
/// this bound only matters when the writer thread is preempted in between.
const SIDECAR_SETTLE_WAIT: Duration = Duration::from_millis(2);

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

struct SubCore<D: Decode> {
    topic: String,
    machine: MachineId,
    master: Master,
    registration: u64,
    config: TransportConfig,
    metrics: Arc<TransportMetrics>,
    callback: Box<dyn Fn(D) + Send + Sync>,
    shutdown: AtomicBool,
    /// Reactor tokens of the live links and of attempts still connecting
    /// ([`Supervision::token`]), for `Drop` to deregister. `resume` removes
    /// an attempt's entry however it ends — dead entries never accumulate.
    links: Mutex<HashSet<Token>>,
    received: AtomicU64,
    received_bytes: AtomicU64,
    decode_errors: AtomicU64,
    connected: AtomicU64,
    reconnect_attempts: AtomicU64,
    reconnects: AtomicU64,
    /// The topic's tracing table when this subscription was created with
    /// `SubscriberOptions::trace(true)`; `None` keeps the receive path free
    /// of clock reads and histogram writes.
    trace: Option<Arc<TopicTrace>>,
    /// The resolved field projection when this subscription was created
    /// with `SubscriberOptions::project(..)`. Offered to every TCP
    /// publisher at handshake time; links whose publisher echoed the spec
    /// carry sliced sub-frames verified against the projected schema.
    /// Zero-copy tiers (fast path, shm) ignore it and deliver full frames.
    projection: Option<Arc<rossf_sfm::Projection>>,
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
        // attach port is registered with our master).
        let local = core.config.enable_fastpath && self.ep.machine == core.machine;
        if let Some(port) = local.then(|| core.master.local_port(self.ep.id)).flatten() {
            let (topic, token) = (&core.topic, self.token);
            match LocalSinkHandle::attach(port, topic, D::topic_type(), core.machine, token, false)
            {
                Ok(sink) => {
                    core.count_handshake(self.was_connected);
                    reactor.attach(token, Link::boxed(self, FastSource(sink)));
                    return;
                }
                // The publisher refused the *capability*, not the
                // subscription (peer predates the fast path): fall back to
                // plain TCP in this same attempt.
                Err(RosError::Rejected(ref msg)) if msg.contains(FASTPATH_FIELD) => {}
                Err(e) => {
                    self.resume(Err(e), false, false);
                    return;
                }
            }
        }
        // The blocking connect+handshake goes through the connect gate;
        // everything after the handshake is nonblocking.
        with_connect_slot(Box::new(move || self.connect_step()));
    }

    /// The gated blocking span of an attempt — TCP connect plus handshake
    /// — then the hand-off of the established connection to the reactor.
    /// Holds a connect slot for exactly the blocking part.
    fn connect_step(self: Box<Self>) {
        let core = Arc::clone(&self.core);
        let offer_shm = (!self.shm_blocked).then_some(self.token);
        let established = core.connect_tcp(&self.ep, self.was_connected, offer_shm);
        release_connect_slot();
        let (stream, shm_grant, projected) = match established {
            Ok(established) => established,
            // `connect_tcp` can only fail before the handshake completes.
            Err(e) => return self.resume(Err(e), false, false),
        };
        let (reactor, token) = (runtime().reactor, self.token);
        let fd = stream.as_raw_fd();
        if let Some(reply) = shm_grant {
            // Any failure between the grant and a working reader —
            // malformed grant fields, a `/proc` fd hand-off denied by the
            // kernel's ptrace-scope policy, an epoch mismatch from a
            // recycled publisher incarnation — is reported as an attach
            // failure: the supervisor then redoes the handshake with the
            // shm offer withheld and the publisher serves plain TCP,
            // instead of re-granting a link this process can never attach.
            match core.attach_shm(&reply) {
                Ok(shm) => {
                    let source = ShmSource {
                        stream,
                        shm,
                        eof: false,
                    };
                    reactor.register_as(token, fd, true, false, Link::boxed(self, source));
                }
                Err(e) => self.resume(Err(e), true, true),
            }
            return;
        }
        // The connection key mirrors the writer's `conn_key(local, peer)`:
        // our peer is its local address, so the pair (and hence the key)
        // agrees. A reconnect gets a fresh ephemeral port and therefore a
        // fresh key — sequence numbers restart cleanly.
        let conn_key = match (stream.peer_addr(), stream.local_addr()) {
            (Ok(peer), Ok(local)) => rossf_trace::conn_key(&peer.to_string(), &local.to_string()),
            _ => 0,
        };
        let source: TcpSource<D> = TcpSource {
            stream,
            conn_key,
            projected,
            wire_seq: 0,
            reader: FrameReader::new(core.config.max_frame_len),
        };
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
            core.metrics
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
            core.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
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
        if core.config.backoff.exhausted(self.attempt) {
            return;
        }
        let delay = core
            .config
            .backoff
            .delay(self.attempt, self.ep.id ^ core.registration);
        self.attempt = self.attempt.saturating_add(1);
        self.token = runtime().reactor.reserve();
        core.reconnect_attempts.fetch_add(1, Ordering::Relaxed);
        core.metrics
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
        self.connected.fetch_add(1, Ordering::Relaxed);
        self.metrics.handshakes.fetch_add(1, Ordering::Relaxed);
        if is_reconnect {
            self.reconnects.fetch_add(1, Ordering::Relaxed);
            self.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one receive tail, shared by every tier: verify (optional),
    /// adopt, account, invoke the callback — the end of the paper's
    /// Fig. 9 reader loop — with one telescoping span per step. What
    /// differs per tier is only how a frame is verified and adopted (the
    /// two closures) and how its trace id was recovered: `span_start` is
    /// that id (0 = untraced) plus the timestamp the `verify` span starts
    /// from.
    fn deliver<F>(
        &self,
        tier: Tier,
        len: usize,
        span_start: (u64, u64),
        mut frame: F,
        verify: impl FnOnce(&mut F) -> bool,
        adopt: impl FnOnce(F) -> Result<D, RosError>,
    ) {
        let (id, mut t_prev) = span_start;
        let table = self.trace.as_deref().filter(|_| id != 0);
        let mut span = |stage: Stage| {
            if let Some(table) = table {
                let t = now_nanos();
                tracer().span(table, stage, tier, id, t_prev, t);
                t_prev = t;
            }
        };
        if self.config.validate_on_receive {
            if !verify(&mut frame) {
                // Structurally corrupt: drop the frame without adopting
                // it. Framing (length prefix, descriptor) is intact, so
                // the link stays in sync and lives on.
                self.metrics.verify_rejects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            span(Stage::Verify);
        }
        match adopt(frame) {
            Ok(msg) => {
                span(Stage::Adopt);
                self.received.fetch_add(1, Ordering::Relaxed);
                self.received_bytes.fetch_add(len as u64, Ordering::Relaxed);
                self.metrics.frames_received.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .bytes_received
                    .fetch_add(len as u64, Ordering::Relaxed);
                (self.callback)(msg);
                span(Stage::Callback);
            }
            Err(_) => self.count_decode_error(),
        }
    }

    /// The receive-side spans of one frame begin: when this subscription
    /// traces and the frame carries trace id `id`, record the hop's `stage`
    /// from `since` (if the sender's stamp is usable) to now, and return
    /// the `span_start` [`SubCore::deliver`] continues from.
    fn hop_span(&self, tier: Tier, stage: Stage, id: u64, since: Option<u64>) -> (u64, u64) {
        match self.trace.as_deref() {
            Some(table) if id != 0 => {
                let t = now_nanos();
                if let Some(since) = since {
                    tracer().span(table, stage, tier, id, since, t);
                }
                (id, t)
            }
            _ => (0, 0),
        }
    }

    fn count_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
        self.metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Connect and handshake (TCPROS-style) with one TCP publisher endpoint
    /// — the short, blocking prefix of a connection's life (runs on the job
    /// pool). `offer_shm` is the attempt's token when the shm tier may be
    /// offered. Returns the socket, nonblocking from here on, the reply
    /// header when the publisher granted the shared-memory tier (`None` for
    /// plain TCP), and whether the publisher granted our field projection
    /// (meaningful only on the plain-TCP outcome; shm links always carry
    /// full frames).
    fn connect_tcp(
        &self,
        ep: &PublisherEndpoint,
        is_reconnect: bool,
        offer_shm: Option<Token>,
    ) -> Result<(TcpStream, Option<ConnectionHeader>, bool), RosError> {
        let mut request = ConnectionHeader::request(&self.topic, D::topic_type(), self.machine);
        // Offer the shared-memory tier: the publisher grants it only when
        // both sides share a machine and (normally) live in different
        // processes, so the offer also carries our pid — and the reactor
        // token of the handler that will drain the ring, which a publisher
        // in this same process notifies directly as the link's doorbell.
        // The offer is withheld after a grant failed to attach
        // (`offer_shm == None`) so the publisher serves this connection
        // over plain TCP.
        if let Some(token) = offer_shm.filter(|_| self.config.enable_shm) {
            request = request
                .with(SHM_FIELD, "1")
                .with(SHM_PID_FIELD, std::process::id().to_string())
                .with(SHM_TOKEN_FIELD, token.raw().to_string());
        }
        // Request the field projection by its canonical spec. The grant is
        // an exact echo; a publisher that predates projection (or cannot
        // resolve the spec) simply omits the field and serves full frames.
        if let Some(projection) = &self.projection {
            request = request.with(PROJECT_FIELD, projection.spec());
        }
        let (stream, reply) = dial(ep.addr, &request, self.config.handshake_timeout)?;
        self.count_handshake(is_reconnect);
        // Steady state is nonblocking on every tier.
        stream.set_nonblocking(true)?;
        // Projection is granted only by an exact spec echo — anything else
        // (no echo, a different spec) means full frames on this link.
        let projected = self
            .projection
            .as_ref()
            .is_some_and(|p| reply.get(PROJECT_FIELD) == Some(p.spec()));
        // An shm grant means frames arrive as ring descriptors, not socket
        // bytes; the socket stays open as the link's control plane — the
        // doorbell, and the peer-is-gone signal.
        let shm_grant = (reply.get(SHM_FIELD) == Some("1")).then_some(reply);
        Ok((stream, shm_grant, projected))
    }

    /// Attach the shm link a reply grants. An attach denial latched on the
    /// loopback link's
    /// fault injector stands in for the real-world `/proc/<pid>/fd`
    /// denials that cannot be provoked deterministically in a test.
    fn attach_shm(&self, reply: &ConnectionHeader) -> Result<ShmReader, RosError> {
        let field = |name: &str| -> Result<u64, RosError> {
            reply
                .get(name)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| {
                    RosError::Rejected(format!("malformed shm grant: bad `{name}` field"))
                })
        };
        let pub_pid = field(SHM_PUB_PID_FIELD)? as u32;
        let (ctrl_fd, epoch) = (field(SHM_FD_FIELD)? as i32, field(SHM_EPOCH_FIELD)?);
        let injector = self.master.links().fault(self.machine, self.machine);
        if injector.is_some_and(|f| f.attach_denied()) {
            return Err(RosError::Io(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "injected shm attach fault",
            )));
        }
        ShmReader::connect(pub_pid, ctrl_fd, epoch).map_err(RosError::Io)
    }
}

/// What one [`Source::advance`] call produced.
enum Progress {
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
trait Source<D: Decode>: Send + 'static {
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

/// The fast path's source: the receiving end of a transmission queue the
/// publisher deposits already-encoded [`OutFrame`](crate::wire::OutFrame)s
/// into, notifying this link's token after each. Frames are adopted via
/// [`Decode::from_local_frame`] — for serialization-free messages the
/// subscriber object points at the publisher's allocation.
/// `validate_on_receive` and all metrics accounting mirror the socket
/// path; injected faults were applied before the frame entered the queue.
struct FastSource(LocalSinkHandle);

impl<D: Decode> Source<D> for FastSource {
    fn advance(&mut self, core: &SubCore<D>) -> Result<Progress, RosError> {
        // Relaxed: standalone flag; the cut's notify orders it. A link the
        // publisher's fault gate cut ends at once, with whatever it still
        // queues; re-attach is refused until the link heals.
        if !self.0.alive.load(Ordering::Relaxed) {
            return Ok(Progress::Eof);
        }
        let frame = match self.0.rx.try_recv() {
            Ok(frame) => frame,
            Err(TryRecvError::Empty) => return Ok(Progress::Idle),
            // Publisher gone.
            Err(TryRecvError::Disconnected) => return Ok(Progress::Eof),
        };
        // Pointer handoff needs no sidecar: the trace id rides on the
        // frame's own tag, and the queue dwell (plus any injected delay)
        // is the `enqueue` span.
        let tag = frame.trace();
        let since = (tag.enqueued_ns != 0).then_some(tag.enqueued_ns);
        let span_start = core.hop_span(Tier::Fastpath, Stage::Enqueue, tag.id, since);
        let len = frame.len();
        // There is no writer on this path: account the "send" at the
        // moment of delivery so both paths report the same totals.
        core.metrics.frames_sent.fetch_add(1, Ordering::Relaxed);
        core.metrics
            .bytes_sent
            .fetch_add(len as u64, Ordering::Relaxed);
        core.metrics.fastpath_frames.fetch_add(1, Ordering::Relaxed);
        core.deliver(
            Tier::Fastpath,
            len,
            span_start,
            frame,
            |frame| D::verify_frame(frame.as_slice()).is_ok(),
            |frame| D::from_local_frame(&frame),
        );
        Ok(Progress::Frame)
    }
}

/// The shared-memory tier's source: descriptors off the publisher's ring,
/// frames mapped read-only straight out of the publisher's segments —
/// zero subscriber-side payload copies for SFM messages. The handshake
/// socket is the link's control plane and the fd this link is registered
/// under: the publisher writes one byte on it when it pushes into a ring
/// this side armed (a publisher in this same process notifies the token
/// instead), and EOF on it means the publisher is gone even if it never
/// managed to mark the ring closed (crash recovery).
struct ShmSource {
    stream: TcpStream,
    shm: ShmReader,
    /// The control socket reported EOF (or failed): no push will follow.
    eof: bool,
}

impl<D: Decode> Source<D> for ShmSource {
    fn wake(&mut self, event: Event) {
        if !matches!(event, Event::Readable | Event::Closed) {
            return;
        }
        // Doorbell bytes carry no information beyond the wake-up that
        // brought us here; take them in bulk so the socket buffer never
        // fills. The socket is level-triggered: whatever one read leaves
        // behind (more bytes, the EOF after them) raises the next event.
        use std::io::ErrorKind::{Interrupted, WouldBlock};
        match (&self.stream).read(&mut [0u8; 256]) {
            Ok(0) => self.eof = true,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
            Err(_) => self.eof = true,
        }
    }

    fn advance(&mut self, core: &SubCore<D>) -> Result<Progress, RosError> {
        // Read before the pop: whatever was committed before the ring
        // closed (or the publisher died) is visible to a pop that follows
        // seeing it, so an empty ring then is the end, not a race.
        let ending = self.eof || self.shm.is_closed();
        let frame = match self.shm.try_take() {
            Ok(Some(frame)) => frame,
            Ok(None) if ending => return Ok(Progress::Eof),
            // Drained: arm the doorbell and look once more — the push that
            // raced the arming rang nothing.
            Ok(None) if self.shm.arm() => return Ok(Progress::Idle),
            Ok(None) => return Ok(Progress::Frame),
            Err(TakeError::Stale) => {
                // Abandoned frame from a recycled publisher incarnation —
                // counted like a decode failure.
                core.count_decode_error();
                return Ok(Progress::Frame);
            }
            // The ring can no longer be trusted to be in sync: tear the
            // link down (retryable under backoff).
            Err(TakeError::Corrupt(e)) => return Err(RosError::Io(e)),
        };
        let desc = *frame.descriptor();
        // The descriptor's timestamps are on the *publisher's* trace clock,
        // meaningful here only when the publisher is this same process (the
        // `shm_same_process` bench mode); a cross-process link skips the
        // span rather than mixing clocks.
        let same_clock = self.shm.publisher_pid() == std::process::id() && desc.pushed_ns != 0;
        let since = same_clock.then_some(desc.pushed_ns);
        let span_start = core.hop_span(Tier::Shm, Stage::WireRead, desc.trace_id, since);
        // A frame rejected by the verifier is dropped unadopted, which
        // releases its segment reference; the ring stays in sync.
        core.deliver(
            Tier::Shm,
            frame.len(),
            span_start,
            frame,
            |frame| D::verify_frame(frame.as_slice()).is_ok(),
            D::from_mapped_frame,
        );
        Ok(Progress::Frame)
    }
}

/// The TCP tier's source: length-prefixed frames off a nonblocking socket,
/// reassembled by a [`FrameReader`] straight into their receive slots.
struct TcpSource<D: Decode> {
    stream: TcpStream,
    /// Sidecar rendezvous key shared with the writer (peer, local).
    conn_key: u64,
    /// The publisher granted `SubCore::projection` for this link: frames
    /// are sliced sub-frames, verified with the projected verifier.
    projected: bool,
    /// Frames consumed off the stream, in wire order; counted
    /// unconditionally so it stays in lockstep with the writer's count of
    /// frames actually written.
    wire_seq: u64,
    reader: FrameReader<D>,
}

impl<D: Decode> Source<D> for TcpSource<D> {
    fn wake(&mut self, _event: Event) {
        self.reader.wake();
    }

    fn advance(&mut self, core: &SubCore<D>) -> Result<Progress, RosError> {
        match self.reader.advance(&mut &self.stream) {
            Ok(Step::Frame { slot, len }) => {
                self.deliver(core, slot, len);
                Ok(Progress::Frame)
            }
            Ok(Step::Oversized) => {
                // The frame still occupied a wire slot; consume its sidecar
                // note so it does not accumulate.
                core.count_decode_error();
                if core.trace.is_some() {
                    let _ = tracer().sidecar().take(self.conn_key, self.wire_seq);
                }
                self.wire_seq += 1;
                Ok(Progress::Frame)
            }
            Ok(Step::Idle) => Ok(Progress::Idle),
            Ok(Step::Eof) => Ok(Progress::Eof),
            Err(e) => {
                if matches!(e, RosError::FrameTooLarge { .. }) {
                    core.metrics
                        .frame_len_rejects
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }
}

impl<D: Decode> TcpSource<D> {
    /// A complete body sits in its slot: run the delivery tail of the
    /// paper's Fig. 9 — recover the trace id, verify (optional), finish,
    /// invoke the callback.
    fn deliver(&mut self, core: &SubCore<D>, slot: D::Slot, len: usize) {
        let seq = self.wire_seq;
        self.wire_seq += 1;
        // Recover the frame's trace id from the writer's sidecar note; the
        // `wire_read` span starts at the writer's send timestamp. The last
        // frame byte wakes this loop at the same moment the writer moves
        // to stamp its completion time, so wait a bounded moment for the
        // note to settle; if it still hasn't (writer preempted), only the
        // id is recovered — measuring from the provisional write-start
        // stamp would double-count `wire_write`. (A same-process writer
        // shares this reactor thread, so its note is always settled by the
        // time this dispatch runs — the wait only triggers cross-process.)
        let note = core.trace.as_ref().and_then(|_| {
            tracer()
                .sidecar()
                .take_settled(self.conn_key, seq, SIDECAR_SETTLE_WAIT)
        });
        let span_start = note.map_or((0, 0), |note| {
            let since = note.settled.then_some(note.sent_ns);
            core.hop_span(Tier::Tcp, Stage::WireRead, note.trace_id, since)
        });
        // A projected link carries sub-frames: unselected fields are
        // deliberately zeroed, which the full verifier would accept but
        // the projected verifier additionally *requires* — so corrupt
        // leftovers in unselected pairs are caught, not adopted.
        let projection = core.projection.as_deref().filter(|_| self.projected);
        core.deliver(
            Tier::Tcp,
            len,
            span_start,
            slot,
            |slot| match projection {
                Some(projection) => projection.verify_projected(slot.as_mut_slice()).is_ok(),
                None => D::verify_frame(slot.as_mut_slice()).is_ok(),
            },
            D::finish_slot,
        );
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
        default_config: TransportConfig,
        callback: F,
    ) -> Result<Self, RosError>
    where
        F: Fn(D) + Send + Sync + 'static,
    {
        let config = options.transport.unwrap_or(default_config);
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
            metrics: master.metrics().topic(topic),
            callback: Box::new(callback),
            shutdown: AtomicBool::new(false),
            links: Mutex::new(HashSet::new()),
            received: AtomicU64::new(0),
            received_bytes: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            connected: AtomicU64::new(0),
            reconnect_attempts: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
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

    /// Messages delivered to the callback so far.
    ///
    /// Counter getters use `Relaxed` loads: each counter is internally
    /// consistent on its own and none is used to publish other memory.
    pub fn received(&self) -> u64 {
        self.core.received.load(Ordering::Relaxed)
    }

    /// Total payload bytes delivered (the numerator of a `rostopic bw`
    /// style bandwidth estimate).
    pub fn received_bytes(&self) -> u64 {
        self.core.received_bytes.load(Ordering::Relaxed)
    }

    /// Frames that failed decoding/adoption.
    pub fn decode_errors(&self) -> u64 {
        self.core.decode_errors.load(Ordering::Relaxed)
    }

    /// Frames rejected by the structural verifier
    /// (`TransportConfig::validate_on_receive`) and dropped unadopted.
    pub fn verify_rejects(&self) -> u64 {
        self.core.metrics.verify_rejects.load(Ordering::Relaxed)
    }

    /// Publisher connections that completed the handshake.
    pub fn connection_count(&self) -> u64 {
        self.core.connected.load(Ordering::Relaxed)
    }

    /// Connection attempts made after a connection died (successful or
    /// not).
    pub fn reconnect_attempts(&self) -> u64 {
        self.core.reconnect_attempts.load(Ordering::Relaxed)
    }

    /// Reconnections that completed a handshake after a previous
    /// connection to the same publisher registration died.
    pub fn reconnects(&self) -> u64 {
        self.core.reconnects.load(Ordering::Relaxed)
    }

    /// The shared per-topic transport metrics this subscription reports
    /// into.
    pub fn metrics(&self) -> Arc<TransportMetrics> {
        Arc::clone(&self.core.metrics)
    }

    /// The resolved field projection this subscription negotiates with
    /// publishers, when created with `SubscriberOptions::project(..)`.
    /// Useful as a receive-side *view* on the zero-copy tiers, which
    /// always deliver the full frame.
    pub fn projection(&self) -> Option<&rossf_sfm::Projection> {
        self.core.projection.as_deref()
    }

    /// One coherent snapshot of this subscription's counters.
    pub fn stats(&self) -> SubscriberStats {
        let transport = self.core.metrics.snapshot();
        SubscriberStats {
            received: self.received(),
            received_bytes: self.received_bytes(),
            decode_errors: self.decode_errors(),
            verify_rejects: self.verify_rejects(),
            connections: self.connection_count(),
            reconnect_attempts: self.reconnect_attempts(),
            reconnects: self.reconnects(),
            bytes_sent: transport.bytes_sent,
            bytes_received: transport.bytes_received,
            transport,
        }
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
        f.debug_struct("Subscriber")
            .field("topic", &self.core.topic)
            .field("received", &self.received())
            .field("reconnects", &self.reconnects())
            .finish()
    }
}
