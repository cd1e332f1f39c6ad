//! The subscriber side of a topic.
//!
//! `subscribe` registers a callback with the master and connects to every
//! current and future publisher of the topic. Each publisher endpoint is
//! owned by a [`Supervision`] state machine: connect attempts and
//! handshakes run as short jobs on the process-wide job pool, the
//! steady-state TCP reader runs as a nonblocking state machine on the
//! shared [reactor](rossf_reactor) (the reader loop of the paper's Fig. 9
//! — read the frame length, obtain a receive slot from the [`Decode`]
//! impl, read the payload into it, finish, invoke the callback), and
//! reconnect backoff is a reactor timer instead of a sleeping thread. When
//! a connection dies while the publisher is still registered, the
//! supervision re-resolves the endpoint via the master and reconnects
//! under the node's [`BackoffPolicy`](crate::config::BackoffPolicy). A
//! publisher that unregisters ends its supervision; a replacement
//! publisher arrives through the master's watcher callback with a fresh
//! registration and gets a fresh supervision. Only the shared-memory and
//! fast-path tiers keep dedicated threads — their drains block on rings
//! and channels, not fds.

use crate::config::TransportConfig;
use crate::error::RosError;
use crate::fastpath::{next_fault, LocalAttach, LocalSinkHandle, FASTPATH_FIELD};
use crate::master::{Master, PublisherEndpoint};
use crate::metrics::TransportMetrics;
use crate::options::{SubscriberOptions, SubscriberStats};
use crate::shm::{
    peer_gone, SHM_EPOCH_FIELD, SHM_FD_FIELD, SHM_FIELD, SHM_PID_FIELD, SHM_PUB_PID_FIELD,
};
use crate::traits::{Decode, RecvSlot};
use crate::wire::{grow_socket_buffers, ConnectionHeader, PROJECT_FIELD};
use rossf_netsim::{FaultAction, MachineId};
use rossf_reactor::{runtime, Ctl, Event, Handler};
use rossf_shm::{ShmReader, TakeError};
use rossf_trace::{now_nanos, tracer, Stage, Tier, TopicTrace};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::ops::ControlFlow;
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

/// Per-link read buffer. Small reads coalesce through it (one syscall
/// drains many small frames); payload remainders at least this large are
/// read straight into the receive slot, so big frames never pay a copy
/// through the buffer.
const READ_BUF: usize = 64 * 1024;

/// Frames one reader dispatch may deliver before yielding the shared loop
/// (re-notifying itself for the rest), so one firehose connection cannot
/// starve the other links.
const FRAMES_PER_DISPATCH: usize = 64;

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
    /// Live connection streams, keyed by a per-core serial so each reader
    /// removes exactly its own entry when the connection ends — dead
    /// streams never accumulate.
    streams: Mutex<HashMap<u64, TcpStream>>,
    next_stream_key: AtomicU64,
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

/// A freshly handshaken connection, on its way to its consumer: the
/// reactor (plain frames) or a dedicated shm consumer thread (`shm_grant`
/// holds the publisher's reply).
struct Established {
    stream: TcpStream,
    /// This connection's entry in `SubCore::streams`.
    key: u64,
    shm_grant: Option<ConnectionHeader>,
    /// The publisher granted our projection: frames on this link are
    /// sliced sub-frames, verified against the projected schema.
    projected: bool,
}

/// Owns one publisher endpoint for the life of its registration — the
/// state-machine form of the old per-endpoint supervisor thread. The
/// retry state travels through the connection it establishes (the reactor
/// handler or consumer thread holds the box) and comes back via
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
        });
        runtime().pool.spawn(move || sup.step());
    }

    /// One connection attempt. Runs on the job pool — bounded by the
    /// connect and handshake timeouts, never connection-lifetime. Exactly
    /// one continuation follows: `resume` directly on failure, or through
    /// whatever long-lived consumer the attempt handed the box to.
    fn step(self: Box<Self>) {
        let core = Arc::clone(&self.core);
        // Relaxed: standalone exit flag, polled — a stale read only costs
        // one extra attempt.
        if core.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if let Some(port) = core.local_port(&self.ep) {
            match LocalSinkHandle::attach(port, &core.topic, D::topic_type(), core.machine) {
                Ok(sink) => {
                    core.count_handshake(self.was_connected);
                    return self.consume_on_thread("rossf-fast-sub", move |core| {
                        core.run_local_sink(&sink);
                        (Ok(()), false)
                    });
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
    /// — then the hand-off of the established connection to its consumer.
    /// Holds a connect slot for exactly the blocking part.
    fn connect_step(self: Box<Self>) {
        let core = Arc::clone(&self.core);
        let established = core.connect_tcp(&self.ep, self.was_connected, !self.shm_blocked);
        release_connect_slot();
        let est = match established {
            Ok(Some(est)) => est,
            Ok(None) => return, // shutdown raced the connect
            // `connect_tcp` can only fail before the handshake completes.
            Err(e) => return self.resume(Err(e), false, false),
        };
        let (stream, key) = (est.stream, est.key);
        if let Some(reply) = est.shm_grant {
            return self.consume_on_thread("rossf-shm-sub", move |core| {
                let mut shm_attach_failed = false;
                let result = core.run_shm_connection(stream, &reply, &mut shm_attach_failed);
                core.streams.lock().remove(&key);
                (result, shm_attach_failed)
            });
        }
        // Steady state joins the shared event loop; the box rides inside
        // the handler until the connection concludes. The connection key
        // mirrors the writer's `conn_key(local, peer)`: our peer is its
        // local address, so the pair (and hence the key) agrees. A
        // reconnect gets a fresh ephemeral port and therefore a fresh key
        // — sequence numbers restart cleanly.
        let conn_key = match (stream.peer_addr(), stream.local_addr()) {
            (Ok(peer), Ok(local)) => rossf_trace::conn_key(&peer.to_string(), &local.to_string()),
            _ => 0,
        };
        let fd = stream.as_raw_fd();
        let reader: TcpReader<D> = TcpReader {
            stream,
            sup: Some(self),
            stream_key: key,
            conn_key,
            projected: est.projected,
            wire_seq: 0,
            state: ReadState::Prefix {
                prefix: [0; 4],
                filled: 0,
            },
            rbuf: vec![0u8; READ_BUF].into_boxed_slice(),
            rpos: 0,
            rlen: 0,
            drained: false,
        };
        runtime()
            .reactor
            .register(fd, true, false, Box::new(reader));
    }

    /// Run a zero-copy link's consumer for the life of the link, then
    /// resume. Ring and queue drains block on futexes and channels, not
    /// fds, so they get a dedicated thread — never a pool worker. `run`
    /// reports the link's result and whether a shm grant failed to attach.
    fn consume_on_thread(
        self: Box<Self>,
        name: &str,
        run: impl FnOnce(&SubCore<D>) -> (Result<(), RosError>, bool) + Send + 'static,
    ) {
        // Could not spawn: `self` moved into the failed closure and is
        // gone; the endpoint is re-supervised only if a fresh registration
        // arrives.
        let _ = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let (result, shm_attach_failed) = run(&self.core);
                self.resume(result, true, shm_attach_failed);
            });
    }

    /// A connection (or attempt) ended: decide between standing down and
    /// scheduling the next attempt — the tail of the old supervisor loop.
    /// Runs wherever the connection concluded (reactor thread, consumer
    /// thread, pool); everything here is brief and nonblocking, and the
    /// backoff wait is a reactor timer.
    fn resume(
        mut self: Box<Self>,
        result: Result<(), RosError>,
        handshaken: bool,
        shm_attach_failed: bool,
    ) {
        let core = Arc::clone(&self.core);
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
    /// The publisher's local attach port, if the zero-copy fast path
    /// applies to this endpoint: both sides opted in, same simulated
    /// machine, and the publisher lives in this process (its port is
    /// registered with our master).
    fn local_port(&self, ep: &PublisherEndpoint) -> Option<Arc<dyn LocalAttach>> {
        if self.config.enable_fastpath && ep.machine == self.machine {
            self.master.local_port(ep.id)
        } else {
            None
        }
    }

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

    fn count_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
        self.metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// One fast-path attachment lifetime: the pointer-handoff analogue of
    /// the TCP reader. Frames arrive as already-encoded
    /// [`OutFrame`](crate::OutFrame)s straight from the publisher's
    /// transmission queue and are adopted via [`Decode::from_local_frame`]
    /// — for serialization-free messages, the subscriber object points at
    /// the publisher's allocation. Fault injection, `validate_on_receive`,
    /// and all metrics accounting mirror the socket path. Blocks for the
    /// attachment's lifetime — runs on its own thread.
    fn run_local_sink(&self, sink: &LocalSinkHandle) {
        sink.drain(&self.shutdown, |frame| {
            // The loopback link's fault injector applies to pointer handoff
            // exactly as it does to socket writes.
            match next_fault(&sink.injector) {
                FaultAction::Pass => {}
                FaultAction::Delay(d) => std::thread::sleep(d),
                FaultAction::Drop => {
                    self.metrics.frames_faulted.fetch_add(1, Ordering::Relaxed);
                    return ControlFlow::Continue(());
                }
                FaultAction::Sever => {
                    // The frame is lost and the attachment is cut; re-attach
                    // is refused until the link heals, so report retryable.
                    self.metrics.frames_faulted.fetch_add(1, Ordering::Relaxed);
                    return ControlFlow::Break(());
                }
            }
            // Pointer handoff needs no sidecar: the trace id rides on the
            // frame's own tag, and the queue dwell (plus any injected
            // delay) is the `enqueue` span.
            let tag = frame.trace();
            let span_start = match self.trace.as_deref() {
                Some(table) if tag.id != 0 && tag.enqueued_ns != 0 => {
                    let t = now_nanos();
                    let since = tag.enqueued_ns;
                    tracer().span(table, Stage::Enqueue, Tier::Fastpath, tag.id, since, t);
                    (tag.id, t)
                }
                _ => (0, 0),
            };
            let len = frame.len();
            // There is no writer thread on this path: account the "send" at
            // the moment of delivery so both paths report the same totals.
            self.metrics.frames_sent.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .bytes_sent
                .fetch_add(len as u64, Ordering::Relaxed);
            self.metrics.fastpath_frames.fetch_add(1, Ordering::Relaxed);
            self.deliver(
                Tier::Fastpath,
                len,
                span_start,
                frame,
                |frame| D::verify_frame(frame.as_slice()).is_ok(),
                |frame| D::from_local_frame(&frame),
            );
            ControlFlow::Continue(())
        });
    }

    /// Connect and handshake with one TCP publisher endpoint — the short,
    /// blocking prefix of a connection's life (runs on the job pool). On
    /// success the socket is registered in `streams` (so `Drop` can
    /// unblock it) under the returned key; the long-lived consumer the
    /// caller starts owns removing that entry. `None` means shutdown raced
    /// the connect.
    fn connect_tcp(
        &self,
        ep: &PublisherEndpoint,
        is_reconnect: bool,
        offer_shm: bool,
    ) -> Result<Option<Established>, RosError> {
        let stream = TcpStream::connect(ep.addr)?;
        stream.set_nodelay(true)?;
        let key = self.next_stream_key.fetch_add(1, Ordering::Relaxed);
        {
            let mut streams = self.streams.lock();
            // Relaxed: re-checked under the streams lock, which orders
            // this insert against Drop's drain of the map.
            if self.shutdown.load(Ordering::Relaxed) {
                return Ok(None);
            }
            streams.insert(key, stream.try_clone()?);
        }
        // Grown before the handshake so the very first data frame already
        // sees full-size kernel buffers (also covers the shm control
        // stream, where it is merely harmless).
        grow_socket_buffers(&stream);
        let handshake = self
            .handshake_tcp(&stream, is_reconnect, offer_shm)
            .and_then(|(shm_grant, projected)| {
                if shm_grant.is_none() {
                    stream.set_nonblocking(true)?;
                }
                Ok((shm_grant, projected))
            });
        match handshake {
            Ok((shm_grant, projected)) => Ok(Some(Established {
                stream,
                key,
                shm_grant,
                projected,
            })),
            Err(e) => {
                self.streams.lock().remove(&key);
                Err(e)
            }
        }
    }

    /// TCPROS-style connection handshake on a blocking socket. Returns the
    /// reply header when the publisher granted the shared-memory tier
    /// (`None` for plain TCP) plus whether the publisher granted our field
    /// projection (meaningful only on the plain-TCP outcome; shm links
    /// always carry full frames). The reply is read *unbuffered* — header
    /// parsing does exact reads only — so no frame bytes are swallowed
    /// into a buffer before the socket is handed to the nonblocking
    /// reader.
    fn handshake_tcp(
        &self,
        stream: &TcpStream,
        is_reconnect: bool,
        offer_shm: bool,
    ) -> Result<(Option<ConnectionHeader>, bool), RosError> {
        // A peer that accepts the connection but never answers the
        // handshake must not pin a pool worker forever.
        stream.set_read_timeout(Some(self.config.handshake_timeout))?;
        let mut request = ConnectionHeader::request(&self.topic, D::topic_type(), self.machine);
        // Offer the shared-memory tier: the publisher grants it only when
        // both sides share a machine and (normally) live in different
        // processes, so the offer also carries our pid. The offer is
        // withheld after a grant failed to attach (`offer_shm == false`)
        // so the publisher serves this connection over plain TCP.
        if offer_shm && self.config.enable_shm {
            request = request
                .with(SHM_FIELD, "1")
                .with(SHM_PID_FIELD, std::process::id().to_string());
        }
        // Request the field projection by its canonical spec. The grant is
        // an exact echo; a publisher that predates projection (or cannot
        // resolve the spec) simply omits the field and serves full frames.
        if let Some(projection) = &self.projection {
            request = request.with(PROJECT_FIELD, projection.spec());
        }
        let mut io = stream;
        request.write_to(&mut io)?;
        let reply = ConnectionHeader::read_from(&mut io)?;
        reply.check_reply()?;
        // Steady state is nonblocking (reactor) or probe-driven (shm);
        // either way the handshake timeout must not linger.
        stream.set_read_timeout(None)?;
        self.count_handshake(is_reconnect);
        // Projection is granted only by an exact spec echo — anything else
        // (no echo, a different spec) means full frames on this link.
        let projected = self
            .projection
            .as_ref()
            .is_some_and(|p| reply.get(PROJECT_FIELD) == Some(p.spec()));
        // An shm grant means frames arrive as ring descriptors, not socket
        // bytes; the socket stays open purely as the liveness channel.
        Ok((
            (reply.get(SHM_FIELD) == Some("1")).then_some(reply),
            projected,
        ))
    }

    /// Attach the shm link a reply grants; returns the reader and the
    /// publisher's pid. An attach denial latched on the loopback link's
    /// fault injector stands in for the real-world `/proc/<pid>/fd`
    /// denials that cannot be provoked deterministically in a test.
    fn attach_shm(&self, reply: &ConnectionHeader) -> Result<(ShmReader, u32), RosError> {
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
        let shm = ShmReader::connect(pub_pid, ctrl_fd, epoch).map_err(RosError::Io)?;
        Ok((shm, pub_pid))
    }

    /// One shared-memory link lifetime: adopt the publisher's control
    /// segment and consume descriptors until either side tears down.
    /// Frames are mapped read-only straight out of the publisher's
    /// segments — zero subscriber-side payload copies for SFM messages.
    /// The handshake socket is kept open purely as a liveness channel:
    /// EOF means the publisher process is gone even if it never managed
    /// to mark the ring closed (crash recovery).
    fn run_shm_connection(
        &self,
        stream: TcpStream,
        reply: &ConnectionHeader,
        shm_attach_failed: &mut bool,
    ) -> Result<(), RosError> {
        // Any failure between the grant and a working reader — malformed
        // grant fields, a `/proc` fd hand-off denied by the kernel's
        // ptrace-scope policy, an epoch mismatch from a recycled publisher
        // incarnation — flags `shm_attach_failed`: the supervisor then
        // redoes the handshake with the shm offer withheld and the
        // publisher serves plain TCP, instead of re-granting a link this
        // process can never attach.
        let (shm, pub_pid) = match self.attach_shm(reply) {
            Ok(attached) => attached,
            Err(e) => {
                *shm_attach_failed = true;
                return Err(e);
            }
        };
        stream.set_nonblocking(true)?;

        let own_pid = std::process::id();
        loop {
            // Relaxed: standalone exit flag, polled — a stale read
            // only costs one extra loop iteration.
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let frame = match shm.take(Duration::from_millis(20)) {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    if shm.is_closed() && shm.pending() == 0 {
                        break; // graceful teardown, ring drained
                    }
                    // A publisher that died without closing the ring.
                    if peer_gone(&stream) {
                        break;
                    }
                    continue;
                }
                Err(TakeError::Stale) => {
                    // Abandoned frame from a recycled publisher
                    // incarnation — counted like a decode failure.
                    self.count_decode_error();
                    continue;
                }
                // The ring can no longer be trusted to be in sync: tear
                // the link down (retryable under backoff).
                Err(TakeError::Corrupt(e)) => return Err(RosError::Io(e)),
            };
            let desc = *frame.descriptor();
            let span_start = match self.trace.as_deref() {
                Some(table) if desc.trace_id != 0 => {
                    let t = now_nanos();
                    // The descriptor's timestamps are on the *publisher's*
                    // trace clock, meaningful here only when the publisher
                    // is this same process (the `shm_same_process` bench
                    // mode); a cross-process link skips the span rather
                    // than mixing clocks.
                    if pub_pid == own_pid && desc.pushed_ns != 0 {
                        let (id, since) = (desc.trace_id, desc.pushed_ns);
                        tracer().span(table, Stage::WireRead, Tier::Shm, id, since, t);
                    }
                    (desc.trace_id, t)
                }
                _ => (0, 0),
            };
            // A frame rejected by the verifier is dropped unadopted, which
            // releases its segment reference; the ring stays in sync.
            self.deliver(
                Tier::Shm,
                frame.len(),
                span_start,
                frame,
                |frame| D::verify_frame(frame.as_slice()).is_ok(),
                D::from_mapped_frame,
            );
        }
        Ok(())
    }
}

/// What one [`TcpReader::advance`] call produced.
enum Progress {
    /// A complete frame was delivered (or deliberately discarded).
    Frame,
    /// The socket has no more bytes right now; wait for the next event.
    NeedSocket,
    /// Clean end-of-stream on a frame boundary.
    Eof,
}

/// Frame-reassembly state for one nonblocking TCP link — which part of the
/// `len ∥ payload` wire unit the next byte belongs to.
enum ReadState<D: Decode> {
    /// Accumulating the 4-byte little-endian length prefix.
    Prefix { prefix: [u8; 4], filled: usize },
    /// Accumulating a frame body straight into its receive slot.
    Body {
        slot: D::Slot,
        len: usize,
        filled: usize,
    },
    /// Discarding the body of a frame whose slot could not be allocated
    /// (oversized for the message type), to stay in sync with the stream.
    Skip { remaining: usize },
}

/// The steady-state half of a TCP subscription: a reactor handler that
/// reassembles length-prefixed frames from a nonblocking socket and runs
/// the delivery tail (verify, finish, callback) inline — the reader loop of
/// the paper's Fig. 9, minus the thread it used to occupy.
struct TcpReader<D: Decode> {
    stream: TcpStream,
    /// The endpoint's supervision, handed back when the connection
    /// concludes. `None` only transiently during conclusion.
    sup: Option<Box<Supervision<D>>>,
    /// This connection's entry in `SubCore::streams`.
    stream_key: u64,
    /// Sidecar rendezvous key shared with the writer (peer, local).
    conn_key: u64,
    /// The publisher granted `SubCore::projection` for this link: frames
    /// are sliced sub-frames, verified with the projected verifier.
    projected: bool,
    /// Frames consumed off the stream, in wire order; counted
    /// unconditionally so it stays in lockstep with the writer's count of
    /// frames actually written.
    wire_seq: u64,
    state: ReadState<D>,
    /// Read coalescing buffer: one syscall drains many small frames.
    /// Payload remainders of at least the buffer's size bypass it and read
    /// directly into the slot.
    rbuf: Box<[u8]>,
    rpos: usize,
    rlen: usize,
    /// The last `read` returned fewer bytes than it was offered, so the
    /// socket is empty until the next readiness event says otherwise
    /// (sockets are watched level-triggered: bytes — or EOF — that arrive
    /// after the short read raise a new event). Cleared by every dispatch.
    drained: bool,
}

impl<D: Decode> Handler for TcpReader<D> {
    fn on_event(&mut self, _event: Event, ctl: &mut Ctl) {
        // Every wake — readable, a self-yield notify, even `Closed` — is a
        // pump. After a hangup the kernel still holds the already-received
        // tail; level-triggered reads can no longer block, so pumping
        // drains it to a definite EOF or error and no delivered frame is
        // lost to teardown ordering.
        let Some(core) = self.sup.as_ref().map(|s| Arc::clone(&s.core)) else {
            ctl.close();
            return;
        };
        self.drained = false;
        let mut delivered = 0usize;
        loop {
            // Relaxed: standalone exit flag, polled — a stale read only
            // costs one extra frame.
            if core.shutdown.load(Ordering::Relaxed) {
                self.conclude(Ok(()), ctl);
                return;
            }
            match self.advance(&core) {
                Ok(Progress::Frame) => {
                    delivered += 1;
                    if delivered >= FRAMES_PER_DISPATCH {
                        // Yield the shared loop so one firehose link cannot
                        // starve the rest; the notify re-runs this handler
                        // after the other ready links get their turn.
                        let token = ctl.token();
                        ctl.reactor().notify(token);
                        return;
                    }
                }
                Ok(Progress::NeedSocket) => return,
                Ok(Progress::Eof) => {
                    self.conclude(Ok(()), ctl);
                    return;
                }
                Err(e) => {
                    self.conclude(Err(e), ctl);
                    return;
                }
            }
        }
    }
}

impl<D: Decode> TcpReader<D> {
    /// Make progress until a frame completes or the socket runs dry.
    fn advance(&mut self, core: &Arc<SubCore<D>>) -> Result<Progress, RosError> {
        loop {
            // Resolve completed states before demanding bytes, so
            // zero-length bodies and finished skips never stall waiting
            // for input that is not owed.
            match &mut self.state {
                ReadState::Body { len, filled, .. } if *filled == *len => {
                    return self.deliver(core);
                }
                ReadState::Skip { remaining } if *remaining == 0 => {
                    self.state = ReadState::Prefix {
                        prefix: [0; 4],
                        filled: 0,
                    };
                    continue;
                }
                _ => {}
            }
            if self.rpos == self.rlen {
                if self.drained {
                    return Ok(Progress::NeedSocket);
                }
                // Large body remainders bypass the coalescing buffer: read
                // straight into the slot, no intermediate copy.
                if let ReadState::Body { slot, len, filled } = &mut self.state {
                    if *len - *filled >= self.rbuf.len() {
                        let want = *len - *filled;
                        match self.stream.read(&mut slot.as_mut_slice()[*filled..*len]) {
                            Ok(0) => {
                                // EOF inside a frame: truncation.
                                return Err(RosError::Io(std::io::Error::from(
                                    std::io::ErrorKind::UnexpectedEof,
                                )));
                            }
                            Ok(n) => {
                                *filled += n;
                                self.drained = n < want;
                                continue;
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                return Ok(Progress::NeedSocket)
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(e) => return Err(RosError::Io(e)),
                        }
                    }
                }
                match self.stream.read(&mut self.rbuf) {
                    Ok(0) => {
                        // Clean EOF only lands between frames; mid-frame it
                        // is a truncation.
                        return match &self.state {
                            ReadState::Prefix { filled: 0, .. } => Ok(Progress::Eof),
                            _ => Err(RosError::Io(std::io::Error::from(
                                std::io::ErrorKind::UnexpectedEof,
                            ))),
                        };
                    }
                    Ok(n) => {
                        self.rpos = 0;
                        self.rlen = n;
                        self.drained = n < self.rbuf.len();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return Ok(Progress::NeedSocket)
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(RosError::Io(e)),
                }
            }
            let avail = &self.rbuf[self.rpos..self.rlen];
            match &mut self.state {
                ReadState::Prefix { prefix, filled } => {
                    let take = avail.len().min(4 - *filled);
                    prefix[*filled..*filled + take].copy_from_slice(&avail[..take]);
                    *filled += take;
                    self.rpos += take;
                    if *filled < 4 {
                        continue;
                    }
                    let len = u32::from_le_bytes(*prefix) as usize;
                    if len > core.config.max_frame_len {
                        // Protocol violation (a corrupt or hostile prefix
                        // can claim up to 4 GiB): reject before allocating
                        // anything and tear the connection down — the
                        // stream cannot be trusted to be in sync anymore.
                        core.metrics
                            .frame_len_rejects
                            .fetch_add(1, Ordering::Relaxed);
                        return Err(RosError::FrameTooLarge {
                            len,
                            max: core.config.max_frame_len,
                        });
                    }
                    match D::new_slot(len) {
                        Ok(slot) => {
                            self.state = ReadState::Body {
                                slot,
                                len,
                                filled: 0,
                            };
                        }
                        Err(_) => {
                            // Oversized for this message type (but within
                            // the transport cap): skip the body to stay in
                            // sync. The frame still occupied a wire slot;
                            // consume its sidecar note so it does not
                            // accumulate.
                            core.count_decode_error();
                            if core.trace.is_some() {
                                let _ = tracer().sidecar().take(self.conn_key, self.wire_seq);
                            }
                            self.wire_seq += 1;
                            self.state = ReadState::Skip { remaining: len };
                        }
                    }
                }
                ReadState::Body { slot, len, filled } => {
                    let take = avail.len().min(*len - *filled);
                    slot.as_mut_slice()[*filled..*filled + take].copy_from_slice(&avail[..take]);
                    *filled += take;
                    self.rpos += take;
                }
                ReadState::Skip { remaining } => {
                    let take = avail.len().min(*remaining);
                    *remaining -= take;
                    self.rpos += take;
                }
            }
        }
    }

    /// A complete body sits in its slot: run the delivery tail of the
    /// paper's Fig. 9 — recover the trace id, verify (optional), finish,
    /// invoke the callback — and reset for the next prefix.
    fn deliver(&mut self, core: &Arc<SubCore<D>>) -> Result<Progress, RosError> {
        let state = std::mem::replace(
            &mut self.state,
            ReadState::Prefix {
                prefix: [0; 4],
                filled: 0,
            },
        );
        let ReadState::Body { slot, len, .. } = state else {
            unreachable!("deliver outside Body");
        };
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
        let note = core.trace.as_deref().and_then(|table| {
            let note = tracer()
                .sidecar()
                .take_settled(self.conn_key, seq, SIDECAR_SETTLE_WAIT)?;
            Some((table, note))
        });
        let span_start = match note {
            Some((table, note)) if note.trace_id != 0 => {
                let t = now_nanos();
                if note.settled {
                    let (id, since) = (note.trace_id, note.sent_ns);
                    tracer().span(table, Stage::WireRead, Tier::Tcp, id, since, t);
                }
                (note.trace_id, t)
            }
            _ => (0, 0),
        };
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
        Ok(Progress::Frame)
    }

    /// The connection is over (EOF, error, or shutdown): hand the box back
    /// to its supervision — which decides on a reconnect, briefly and
    /// nonblockingly, right here on the reactor thread — and close. The
    /// close drops this handler and with it the socket.
    fn conclude(&mut self, result: Result<(), RosError>, ctl: &mut Ctl) {
        if let Some(sup) = self.sup.take() {
            sup.core.streams.lock().remove(&self.stream_key);
            sup.resume(result, true, false);
        }
        ctl.close();
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
            streams: Mutex::new(HashMap::new()),
            next_stream_key: AtomicU64::new(0),
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
        // Relaxed: standalone exit flag — every reader either polls it in
        // a loop or re-checks it under the streams lock, which provides
        // the ordering for the map cleanup below.
        self.core.shutdown.store(true, Ordering::Relaxed);
        self.core
            .master
            .unregister_subscriber(&self.core.topic, self.core.registration);
        // Unblock reader threads stuck in read().
        for s in self.core.streams.lock().values() {
            let _ = s.shutdown(Shutdown::Both);
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
