//! The publisher side of a topic: the tier-agnostic core every link hangs
//! off.
//!
//! `advertise` binds a TCP listener and registers it with the master —
//! and, with the fast path enabled, the core itself as the publisher's
//! local port. Each subscriber gets its own bounded *transmission queue*
//! (the queue of paper Fig. 8: `publish` deposits a cheap clone of the
//! encoded frame — for serialization-free messages, a clone of the buffer
//! pointer — and returns). Every link passes one admission
//! (`PubCore::admit`), whichever door it came through (the TCP handshake or
//! a same-process attach), and is spliced into the fan-out list with a sink
//! of one of two kinds:
//!
//! * a **queue** — a [`QueueTx`]/[`QueueRx`] pair over one bounded
//!   `VecDeque`, drained on the process-wide [reactor](rossf_reactor) by
//!   the TCP tier's writer, a same-process subscriber's fast-path handler
//!   or a capture tap; `publish` notifies the drainer's token after each
//!   deposit;
//! * a **ring** — the shm tier's descriptor ring, which *is* the queue.
//!
//! Either sink also says whether its link lives: nothing beside it does.
//! Both halves of each tier's link live in one module under `crate::tier`;
//! this one knows a tier only through the three sink operations
//! `Conn::{wrap, deposit, cut}` and the liveness query `Conn::is_live`, and
//! no tier costs either side a thread.
//! Any [`FaultInjector`](rossf_netsim::FaultInjector) attached to the link
//! is applied where the frame enters the link, by the link's one [`Gate`],
//! which `fan_out` consults once per frame in publish order on every tier:
//! delayed frames are parked behind a reactor timer without reordering,
//! dropped frames are skipped and counted, and a sever cuts the link at
//! once — the frames parked on it are lost and counted too — and refuses
//! new connections until healed.

use crate::config::TransportConfig;
use crate::error::RosError;
use crate::loan::LoanedMessage;
use crate::master::Master;
use crate::metrics::{Counters, MetricsSnapshot};
use crate::options::PublisherOptions;
use crate::tier::shm::{self, Ring};
use crate::tier::tcp::{self, accept_handshake, Acceptor};
use crate::traits::Encode;
use crate::wire::{ConnectionHeader, OutFrame, MAX_FRAME_LEN, PROJECT_FIELD, TRACE_FIELD};
use parking_lot::Mutex;
use rossf_netsim::{FaultAction, FaultInjector, MachineId};
use rossf_reactor::{runtime, Reactor, Token};
use rossf_sfm::{SfmAlloc, SfmBox, SfmMessage};
use rossf_shm::{FrameMeta, SegmentPool, SharedFrame};
use rossf_trace::{now_nanos, tracer, Stage, Tier, TopicTrace};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// One subscriber link as `fan_out` sees it.
struct Conn {
    /// Reactor registration of the handler this link's events go to — the
    /// TCP writer, fast-path subscriber or tap draining `sink`, or a shm
    /// link's control socket. A deposit notifies a queue's drainer, a cut
    /// notifies any handler, and `Drop` notifies every token after closing
    /// the queues and rings so each handler observes the disconnect.
    token: Token,
    sink: Sink,
    /// `None` — no lock, no atomic on the publish path — when the link's
    /// machine pair has no fault injector, and for a capture tap, which
    /// records what the publisher emitted.
    gate: Option<Gate>,
}

/// Where a link's frames wait for the subscriber, and what says whether the
/// link lives.
enum Sink {
    /// A bounded queue (TCP, fast path, tap); dropping it closes the queue.
    Queue(QueueTx),
    /// A shm link's descriptor ring; dropping it tears the link down.
    Ring(Arc<Ring>),
}

/// A queue link's transmission queue (paper Fig. 8), shared by its two
/// halves: `fan_out` pushes the link's clone of each frame through the
/// [`QueueTx`], and the link's drainer on the reactor pops it through the
/// [`QueueRx`]. Neither side ever waits on it, so it has no condition
/// variable; its one state is the link's liveness.
struct LinkQueue {
    frames: Mutex<VecDeque<OutFrame>>,
    capacity: usize,
    /// [`OPEN`], [`CLOSED`] or [`DEAD`]; it only ever rises.
    state: AtomicU8,
}

/// Both halves are in place.
const OPEN: u8 = 0;
/// The publisher's half is gone: the drainer delivers the tail, then ends.
const CLOSED: u8 = 1;
/// The link was cut, or the drainer left: it ends now, tail and all.
const DEAD: u8 = 2;

/// The two halves of a new queue link holding at most `capacity` frames.
pub(crate) fn link_queue(capacity: usize) -> (QueueTx, QueueRx) {
    let queue = Arc::new(LinkQueue {
        frames: Mutex::new(VecDeque::new()),
        capacity,
        state: AtomicU8::new(OPEN),
    });
    (QueueTx(Arc::clone(&queue)), QueueRx(queue))
}

impl LinkQueue {
    fn state(&self) -> u8 {
        // Acquire: pairs with the Release of the close (`QueueTx`'s drop)
        // and of `kill`, so a drainer that sees the queue closed sees every
        // frame pushed before it.
        self.state.load(Ordering::Acquire)
    }

    fn kill(&self) {
        self.state.fetch_max(DEAD, Ordering::Release);
    }
}

/// The publisher's half of a queue link; dropping it closes the queue.
pub(crate) struct QueueTx(Arc<LinkQueue>);

/// What became of one frame pushed into a queue.
pub(crate) enum Push {
    /// Queued; the depth the push left, this frame included.
    Depth(usize),
    /// The queue is at capacity: the frame is handed back.
    Full(OutFrame),
    /// The link is dead.
    Dead,
}

impl QueueTx {
    /// Queue `frame` under one acquisition of the queue's lock.
    #[inline]
    pub(crate) fn push(&self, frame: OutFrame) -> Push {
        if self.0.state() == DEAD {
            return Push::Dead;
        }
        let mut frames = self.0.frames.lock();
        if frames.len() >= self.0.capacity {
            return Push::Full(frame);
        }
        frames.push_back(frame);
        Push::Depth(frames.len())
    }
}

impl Drop for QueueTx {
    fn drop(&mut self) {
        // Release: pairs with the drainer's Acquire in `LinkQueue::state`.
        self.0.state.fetch_max(CLOSED, Ordering::Release);
    }
}

/// The drainer's half of a queue link, held by the TCP tier's writer, the
/// fast path's source or a capture tap; dropping it ends the link.
pub(crate) struct QueueRx(Arc<LinkQueue>);

/// What one [`QueueRx::pop`] found.
pub(crate) enum Pop {
    /// The oldest queued frame.
    Frame(OutFrame),
    /// Nothing queued; the next deposit notifies the drainer.
    Empty,
    /// The link is over: the publisher left and the tail is drained, or
    /// the link was cut.
    Ended,
}

impl QueueRx {
    /// Take the oldest queued frame.
    pub(crate) fn pop(&self) -> Pop {
        // Read before the pop: an empty queue seen after the close is the
        // end, not a race with a last push.
        let state = self.0.state();
        if state == DEAD {
            return Pop::Ended;
        }
        match self.0.frames.lock().pop_front() {
            Some(frame) => Pop::Frame(frame),
            None if state == CLOSED => Pop::Ended,
            None => Pop::Empty,
        }
    }

    /// Whether the publisher cut the link: it ends at once, with whatever
    /// the drainer still holds.
    pub(crate) fn is_cut(&self) -> bool {
        self.0.state() == DEAD
    }
}

impl Drop for QueueRx {
    fn drop(&mut self) {
        self.0.kill();
    }
}

/// One publish's frame in the form a sink takes it.
pub(crate) enum Parcel {
    /// The link's own clone of the frame, stamped with its enqueue time
    /// (`TraceTag` is `Copy`, so clones do not alias).
    Frame(OutFrame),
    /// The publish's one shared segment and the descriptor to commit for
    /// it: a parked shm frame keeps the segment every other link of its
    /// publish commits against.
    Shared(SharedFrame, FrameMeta),
}

/// What became of one frame offered to one link.
pub(crate) enum Deposit {
    /// Queued, committed, parked behind a delay — or consumed by an
    /// injected drop fault, which is accounted where it fires.
    Taken,
    /// Backpressure: the queue or ring was full (the sink hands the parcel
    /// back), or no pool segment was free. The frame is dropped for this
    /// subscriber only — unless it was parked, see [`Gate::resume`].
    Full(Option<Parcel>),
    /// The link is gone; prune it.
    Dead,
}

impl Conn {
    /// The first half of a deposit: put one publish's frame in the form
    /// this link's sink takes — a clone stamped with its enqueue time for a
    /// queue, a descriptor against the publish's one shared segment for a
    /// ring ([`Ring::wrap`]). `None`: no segment was free.
    // Inlined, as are `deposit`, `Ring::wrap` and `Ring::commit`: every
    // publish runs them once per link (`pose_shm` lost 5–15 % of its
    // throughput with them out of line).
    #[inline]
    fn wrap(
        &self,
        core: &PubCore,
        frame: &OutFrame,
        entered: u64,
        shared: &mut Option<Option<SharedFrame>>,
    ) -> Option<Parcel> {
        match &self.sink {
            Sink::Queue(_) => {
                let mut own = frame.clone();
                if own.trace().id != 0 {
                    own.trace_mut().enqueued_ns = now_nanos();
                }
                Some(Parcel::Frame(own))
            }
            Sink::Ring(ring) => ring.wrap(core.trace.as_deref(), frame, entered, shared),
        }
    }

    /// The second half of a deposit: hand the parcel to the link. A
    /// queue's drainer is notified — coalesced, so a burst of publishes
    /// costs one dispatch, and free while the loop is awake; a ring
    /// commits the descriptor.
    #[inline]
    fn deposit(&self, core: &PubCore, parcel: Parcel) -> Deposit {
        match (&self.sink, parcel) {
            (Sink::Queue(queue), Parcel::Frame(frame)) => match queue.push(frame) {
                Push::Depth(depth) => {
                    core.counters.observe_queue_depth(depth as u64);
                    core.reactor.notify(self.token);
                    Deposit::Taken
                }
                Push::Full(frame) => Deposit::Full(Some(Parcel::Frame(frame))),
                Push::Dead => Deposit::Dead,
            },
            (Sink::Ring(ring), Parcel::Shared(sf, meta)) => ring.commit(&core.reactor, sf, meta),
            _ => unreachable!("a parcel is deposited in the sink that wrapped it"),
        }
    }

    /// Cut the link at once, like a yanked cable: whatever it still holds
    /// is lost. A queue's drainer finds the link ended at its next event —
    /// the TCP writer shuts its socket, the fast-path source concludes; a
    /// ring is torn down and its control handler hangs up.
    fn cut(&self, core: &PubCore) {
        match &self.sink {
            Sink::Queue(queue) => queue.0.kill(),
            Sink::Ring(ring) => ring.teardown(),
        }
        core.reactor.notify(self.token);
    }

    /// Whether the link still lives: neither cut nor left by its other
    /// half.
    fn is_live(&self) -> bool {
        match &self.sink {
            Sink::Queue(queue) => queue.0.state() != DEAD,
            Sink::Ring(ring) => ring.is_live(),
        }
    }
}

/// How long a parked frame that found its link's queue or ring full waits
/// to be offered again: the gate accepted it, so it waits for room
/// instead of being dropped.
const FULL_RETRY: Duration = Duration::from_millis(1);

/// Frames a gate holds back, oldest first, each with the delay it still
/// owes once it reaches the head (zero for frames merely queued behind a
/// delayed one).
type Parked = VecDeque<(Parcel, Duration)>;

/// A link's fault gate: the one place an injected fault is applied — where
/// `fan_out` hands the frame to the link, once per frame, in publish
/// order, on every tier alike.
struct Gate {
    injector: Arc<FaultInjector>,
    /// The link's tier, which the fault events it traces name.
    tier: Tier,
    /// Non-empty means one reactor timer is pending for the head. Holds
    /// the frame serving its delay plus at most `queue_size` behind it, as
    /// a queue behind the frame on the wire would.
    parked: Mutex<Parked>,
}

impl Gate {
    /// Apply the injector's verdict to one frame about to enter `conn`'s
    /// link: pass it on, drop it, park it behind a delay (or behind the
    /// frames already parked), or cut the link.
    fn pass(
        &self,
        core: &Arc<PubCore>,
        conn: &Arc<Conn>,
        wrap: impl FnOnce() -> Option<Parcel>,
    ) -> Deposit {
        let mut parked = self.parked.lock();
        if !conn.is_live() {
            return Deposit::Dead;
        }
        let action = self.injector.next_frame_action();
        self.trace(action);
        let delay = match action {
            FaultAction::Pass => Duration::ZERO,
            FaultAction::Delay(d) => d,
            FaultAction::Drop => {
                core.counters.frames_faulted.fetch_add(1, Ordering::Relaxed);
                return Deposit::Taken;
            }
            FaultAction::Sever => return self.sever(core, conn, &mut parked, 1),
        };
        if parked.is_empty() && delay.is_zero() {
            return wrap().map_or(Deposit::Full(None), |parcel| conn.deposit(core, parcel));
        }
        let room = parked.len() <= core.queue_size;
        let Some(parcel) = room.then(wrap).flatten() else {
            return Deposit::Full(None);
        };
        if parked.is_empty() {
            self.arm(core, conn, delay);
        }
        // The queue's depth: the frames behind the one serving its delay.
        core.counters.observe_queue_depth(parked.len() as u64);
        parked.push_back((parcel, delay));
        Deposit::Taken
    }

    /// The head parked frame's delay elapsed, or a full sink has had a
    /// moment to drain: deposit the head and everything queued behind it,
    /// in order, up to the next frame that owes a delay of its own. A link
    /// severed meanwhile takes them all with it. Runs on the reactor
    /// thread — deposits only, the copies were paid by `publish`.
    fn resume(&self, core: &Arc<PubCore>, conn: &Arc<Conn>) {
        let mut parked = self.parked.lock();
        if !conn.is_live() {
            return parked.clear(); // the subscriber left; its frames go with it
        }
        if self.injector.is_severed() {
            self.trace(FaultAction::Sever);
            self.sever(core, conn, &mut parked, 0);
            return;
        }
        if let Some(head) = parked.front_mut() {
            head.1 = Duration::ZERO;
        }
        while let Some((parcel, _)) = parked.pop_front_if(|p| p.1.is_zero()) {
            match conn.deposit(core, parcel) {
                Deposit::Taken => {}
                Deposit::Full(parcel) => {
                    if let Some(parcel) = parcel {
                        parked.push_front((parcel, FULL_RETRY));
                    }
                    break;
                }
                Deposit::Dead => return parked.clear(),
            }
        }
        if let Some(next) = parked.front() {
            self.arm(core, conn, next.1);
        }
    }

    /// Cut `conn`'s link: the frames parked on it are lost with it and
    /// counted as faulted, with the `lost` ones that met the sever.
    fn sever(&self, core: &PubCore, conn: &Conn, parked: &mut Parked, lost: usize) -> Deposit {
        let faulted = (lost + parked.len()) as u64;
        core.counters
            .frames_faulted
            .fetch_add(faulted, Ordering::Relaxed);
        parked.clear();
        conn.cut(core);
        Deposit::Dead
    }

    /// Arm the timer that resumes the gate after `after`. It holds the
    /// publisher and the link weakly — a publisher dropped or a link
    /// pruned mid-delay takes its parked frames with it — and upgrades the
    /// publisher first, so the publisher's `Drop` cannot run under
    /// `resume`.
    fn arm(&self, core: &Arc<PubCore>, conn: &Arc<Conn>, after: Duration) {
        let (weak_core, weak_conn) = (Arc::downgrade(core), Arc::downgrade(conn));
        core.reactor.timer(after, move |_| {
            let Some(core) = weak_core.upgrade() else {
                return;
            };
            if let Some(conn) = weak_conn.upgrade() {
                if let Some(gate) = &conn.gate {
                    gate.resume(&core, &conn);
                }
            }
        });
    }

    /// Tag an injected fault into the tracing event stream (trace id 0: a
    /// fault hits a link, not one message) under this link's tier, so a
    /// waterfall can show a delayed frame next to its inflated span. A
    /// no-op unless the tracer is armed.
    fn trace(&self, action: FaultAction) {
        let tracer = tracer();
        if action != FaultAction::Pass && tracer.armed() {
            let delay = if let FaultAction::Delay(d) = action {
                d
            } else {
                Duration::ZERO
            };
            let label = format!("netsim/{action:?}@frame{}", self.injector.frames_seen());
            tracer.fault_event(&label, self.tier, delay.as_nanos() as u64);
        }
    }
}

/// A new fan-out list: the links of `conns` still alive, then `joining`.
fn live_conns(conns: &[Arc<Conn>], joining: Option<Arc<Conn>>) -> Arc<[Arc<Conn>]> {
    let live = conns.iter().filter(|c| c.is_live());
    live.cloned().chain(joining).collect()
}

/// The state every clone of a [`Publisher`] shares, and the master's
/// local port for same-process subscribers.
pub(crate) struct PubCore {
    topic: String,
    type_name: &'static str,
    addr: SocketAddr,
    machine: MachineId,
    /// Frames each link's transmission queue (or ring) holds, at least 1.
    queue_size: usize,
    config: TransportConfig,
    /// This publisher's counters, held by its links too: each counts the
    /// events of its half here.
    counters: Arc<Counters>,
    master: Master,
    /// Set once right after master registration (0 until then); the id is
    /// not known when the core is built because the fast-path registration
    /// needs a `Weak` of the finished core.
    registration: AtomicU64,
    /// The fan-out list. Immutable once built — `splice` and the pruning
    /// pass swap in a new one — so a publish takes it with one `Arc::clone`.
    conns: Mutex<Arc<[Arc<Conn>]>>,
    shutdown: AtomicBool,
    /// The topic's tracing table when this publisher was created with
    /// `PublisherOptions::trace(true)`; `None` keeps the publish path free
    /// of clock reads and histogram writes.
    trace: Option<Arc<TopicTrace>>,
    /// [`Tier::index`] the publish-side `alloc`/`encode` spans are
    /// attributed to: the tier of the most recently spliced link.
    tier_hint: AtomicU8,
    /// Segment pool shared by every shm link this publisher grants, so the
    /// memfd count stays bounded by [`rossf_shm::DIR_CAP`] no matter how
    /// many subscribers attach. Created lazily on the first grant.
    shm_pool: Mutex<Option<Arc<SegmentPool>>>,
    /// The message type's layout schema, resolved from `M::schema()` at
    /// advertise time; used to answer subscriber projection requests.
    /// `None` means projection requests are silently declined (the link
    /// carries full frames).
    schema: Option<&'static rossf_sfm::MessageSchema>,
    /// The process-wide event loop this publisher's listener, TCP writers
    /// and shm control sockets are registered on.
    reactor: Reactor,
    /// Reactor registration of the accept handler; set once right after
    /// `advertise` registers it, deregistered (closing the listener) when
    /// the core drops.
    listener_token: OnceLock<Token>,
}

impl PubCore {
    /// Encode `msg` once (for serialization-free messages this only
    /// clones the buffer pointer) — the shared head of `publish` and
    /// `publish_loaned`. Tracing rides on the frame's tag: a single clock
    /// read brackets `encode`, and `alloc` falls out of the allocation
    /// timestamp the buffer already carries. Untraced publishers skip
    /// every clock read on this path.
    fn encode(&self, msg: &impl Encode) -> OutFrame {
        let t_pub = self.trace.as_ref().map(|_| now_nanos());
        let mut frame = msg.encode();
        if let (Some(table), Some(t0)) = (self.trace.as_deref(), t_pub) {
            let t1 = now_nanos();
            let id = tracer().next_trace_id();
            let tier = Tier::ALL[self.tier_hint.load(Ordering::Relaxed) as usize];
            let tag = frame.trace_mut();
            tag.id = id;
            if tag.born_ns != 0 && tag.born_ns <= t0 {
                tracer().span(table, Stage::Alloc, tier, id, tag.born_ns, t0);
            }
            tracer().span(table, Stage::Encode, tier, id, t0, t1);
        }
        frame
    }

    /// The checks every subscriber link passes, whichever door it came
    /// through (the TCP handshake or a same-process attach), for a
    /// subscriber of `sub_type`. `sub_machine` picks the link whose fault
    /// injector governs the connection — the injector is returned for the
    /// link's [`Gate`] — and is `None` for a capture tap, whose link has no
    /// gate: it records what the publisher emitted, not what a lossy link
    /// let through, and a severed link does not refuse it.
    ///
    /// # Errors
    ///
    /// [`RosError::Rejected`] for a permanent refusal (type mismatch) — the
    /// text of the TCP `error=` reply; [`RosError::Io`] for a transient one
    /// (publisher shutting down, link severed) that the subscriber retries
    /// under its backoff schedule until the link heals.
    fn admit(
        &self,
        sub_type: &str,
        sub_machine: Option<MachineId>,
    ) -> Result<Option<Arc<FaultInjector>>, RosError> {
        let refuse = |why: &str| {
            RosError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                why,
            ))
        };
        // Relaxed: standalone exit flag (see the accept closure).
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(refuse("publisher shutting down"));
        }
        if sub_type != self.type_name {
            return Err(RosError::Rejected(format!(
                "topic carries {} not {}",
                self.type_name, sub_type
            )));
        }
        let injector = sub_machine.and_then(|m| self.master.links().fault(self.machine, m));
        if injector.as_ref().is_some_and(|f| f.is_severed()) {
            return Err(refuse("link severed"));
        }
        Ok(injector)
    }

    /// Splice an admitted link into the fan-out list — pruning dead
    /// entries while the lock is held anyway (the accept/attach-side half
    /// of the pruning that `subscriber_count` no longer does) behind the
    /// fault gate `injector` calls for, count its handshake, and attribute
    /// publish-side spans to its tier (a heuristic: the most recent arrival
    /// wins).
    fn splice(&self, tier: Tier, token: Token, sink: Sink, injector: Option<Arc<FaultInjector>>) {
        let gate = injector.map(|injector| Gate {
            injector,
            tier,
            parked: Mutex::new(VecDeque::new()),
        });
        let conn = Conn { token, sink, gate };
        {
            let mut conns = self.conns.lock();
            *conns = live_conns(&conns, Some(Arc::new(conn)));
        }
        self.counters.handshakes.fetch_add(1, Ordering::Relaxed);
        self.tier_hint.store(tier.index() as u8, Ordering::Relaxed);
    }

    /// Serve one subscriber connecting over TCP: answer its handshake and
    /// put the link — on the shm tier when [`shm::grant`] grants it, plain
    /// TCP otherwise — on the shared event loop. The link's handler owns the
    /// socket and holds no strong core reference, or dropping the last
    /// `Publisher` could never close the queue it serves.
    fn handle_subscriber(self: Arc<Self>, mut stream: TcpStream) -> Result<(), RosError> {
        let request = accept_handshake(&stream, self.config.handshake_timeout)?;
        let sub_machine: MachineId = request
            .get("machine")
            .and_then(|m| m.parse::<u32>().ok())
            .unwrap_or_default()
            .into();
        let sub_type = request.get("type").unwrap_or_default();
        let injector = match self.admit(sub_type, Some(sub_machine)) {
            Ok(injector) => injector,
            Err(e) => {
                // A permanent refusal is spelled out in an `error=` reply;
                // a transient one closes without a reply, so the
                // subscriber sees a transport failure and keeps retrying.
                if let RosError::Rejected(why) = &e {
                    ConnectionHeader::new()
                        .with("error", why.as_str())
                        .write_to(&mut stream)?;
                }
                return Err(e);
            }
        };
        let reply = ConnectionHeader::new()
            .with("type", self.type_name)
            .with("topic", &self.topic)
            .with("endian", ConnectionHeader::native_endian());
        let same_machine = sub_machine == self.machine;
        let (pool, depth) = (&self.shm_pool, self.queue_size);
        let same_process = self.config.shm_same_process;
        if let Some(grant) = shm::grant(&request, same_process, same_machine, pool, depth) {
            let (token, ring) = grant.open(stream, reply, &self.counters, &self.reactor)?;
            self.splice(Tier::Shm, token, Sink::Ring(ring), injector);
            return Ok(());
        }
        let projection = tcp::grant_projection(&request, self.schema);
        let reply = match &projection {
            Some(p) => reply.with(PROJECT_FIELD, p.spec()),
            None => reply,
        };
        let trailer = tcp::grant_trace(&request, self.trace.is_some());
        let reply = if trailer {
            reply.with(TRACE_FIELD, "1")
        } else {
            reply
        };
        reply.write_to(&mut stream)?;
        if projection.is_some() {
            self.counters
                .projection_handshakes
                .fetch_add(1, Ordering::Relaxed);
        }
        let (tx, rx) = link_queue(self.queue_size);
        let fd = stream.as_raw_fd();
        let writer = tcp::writer(
            stream,
            rx,
            &self.counters,
            self.trace.clone(),
            projection,
            trailer,
            self.master.links().profile(self.machine, sub_machine),
        )?;
        let token = self.reactor.register(fd, false, false, Box::new(writer));
        self.splice(Tier::Tcp, token, Sink::Queue(tx), injector);
        Ok(())
    }

    /// Attach a subscriber of `sub_type` in this very process: splice a
    /// new bounded transmission queue into the fan-out list and return its
    /// drainer's half, with this publisher's counters — a fast-path link
    /// has no writer, so its drainer counts the send. `wake` is the reactor
    /// registration that drains it: `fan_out` notifies it after every
    /// deposit, and `Drop` when the publisher goes. A local attach is same-machine by construction, so
    /// the loopback link's fault injector governs it — unless it is a
    /// capture `tap`, whose link has no gate.
    ///
    /// # Errors
    ///
    /// Those of [`PubCore::admit`], exactly as the TCP handshake refuses.
    pub(crate) fn attach_local(
        &self,
        sub_type: &str,
        wake: Token,
        tap: bool,
    ) -> Result<(QueueRx, Arc<Counters>), RosError> {
        let injector = self.admit(sub_type, (!tap).then_some(self.machine))?;
        let (tx, rx) = link_queue(self.queue_size);
        self.counters
            .fastpath_handshakes
            .fetch_add(1, Ordering::Relaxed);
        self.splice(Tier::Fastpath, wake, Sink::Queue(tx), injector);
        Ok((rx, Arc::clone(&self.counters)))
    }

    /// Fan one encoded frame out to every subscriber link — the shared
    /// tail of `publish` and `publish_loaned`. Never blocks; a full queue
    /// or ring drops the frame for that subscriber only. A link with a
    /// fault [`Gate`] hands the frame to its gate instead of its sink.
    ///
    /// This is also the one place that decides who performs the single
    /// shared-memory copy of a publish. `shared` starts as the loan's own
    /// segment (the message was built there, nothing to copy) or empty;
    /// the first shm link to take the frame fills it with one
    /// `prepare_shared` copy on this thread — the thread that already paid
    /// `encode` — and every later link commits a descriptor against the
    /// same segment. `Some(None)` is an exhausted pool, a verdict the
    /// remaining links of the publish share.
    fn fan_out(self: &Arc<Self>, frame: OutFrame, loaned: Option<SharedFrame>) {
        if frame.len() > MAX_FRAME_LEN {
            self.counters
                .frames_dropped_oversized
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.counters.published.fetch_add(1, Ordering::Relaxed);
        // Snapshot the connection list so the fan-out runs without the
        // lock: a concurrent accept, attach, or `publish` from another
        // clone is never serialized behind this one.
        let snapshot = Arc::clone(&self.conns.lock());
        // Publish entry: where every shm link's `enqueue` span starts.
        let entered = if frame.trace().id != 0 {
            now_nanos()
        } else {
            0
        };
        let mut shared = loaned.map(Some);
        let mut saw_dead = false;
        for conn in snapshot.iter() {
            let mut wrap = || conn.wrap(self, &frame, entered, &mut shared);
            let deposit = match &conn.gate {
                None => wrap().map_or(Deposit::Full(None), |parcel| conn.deposit(self, parcel)),
                Some(gate) => gate.pass(self, conn, wrap),
            };
            match deposit {
                Deposit::Taken => {}
                Deposit::Full(_) => {
                    self.counters.frames_dropped.fetch_add(1, Ordering::Relaxed);
                }
                // The sink that said so is dead already: prune it.
                Deposit::Dead => saw_dead = true,
            }
        }
        if saw_dead {
            let mut conns = self.conns.lock();
            *conns = live_conns(&conns, None);
        }
    }
}

impl Drop for PubCore {
    fn drop(&mut self) {
        // Relaxed: standalone exit flag; worker threads only ever exit
        // on observing it, so no write ordering is required.
        self.shutdown.store(true, Ordering::Relaxed);
        // Relaxed: `registration` was stored before this core was shared
        // (`Arc::downgrade` in `advertise`), and Arc's refcount already
        // orders construction before Drop.
        self.master
            .unregister_publisher(&self.topic, self.registration.load(Ordering::Relaxed));
        // Close every queue and ring — dropping the links does both, and
        // the parked frames go with them — *before* notifying the handlers:
        // the queues must be closed first so each woken drainer — TCP
        // writer, fast-path subscriber or tap — observes the close, drains
        // its tail, and deregisters itself; a closed ring's control handler
        // hangs up, which is what wakes its subscriber.
        let conns = std::mem::replace(&mut *self.conns.lock(), Arc::new([]));
        let tokens: Vec<Token> = conns.iter().map(|c| c.token).collect();
        drop(conns);
        for token in tokens {
            self.reactor.notify(token);
        }
        // Deregistering drops the accept handler and with it the listener.
        if let Some(token) = self.listener_token.get() {
            self.reactor.deregister(*token);
        }
    }
}

/// A handle for publishing messages of type `M` on one topic (the object
/// returned by `nh.advertise_with(...)`, the paper's Fig. 3 `advertise`).
///
/// Cloning shares the same underlying listener and connections; the
/// listener shuts down when the last clone drops.
pub struct Publisher<M: Encode> {
    core: Arc<PubCore>,
    _marker: PhantomData<fn(&M)>,
}

impl<M: Encode> Clone for Publisher<M> {
    fn clone(&self) -> Self {
        Publisher {
            core: Arc::clone(&self.core),
            _marker: PhantomData,
        }
    }
}

impl<M: Encode> Publisher<M> {
    pub(crate) fn create_with(
        master: &Master,
        topic: &str,
        options: PublisherOptions,
        machine: MachineId,
        config: TransportConfig,
    ) -> Result<Self, RosError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let trace = if options.trace {
            tracer().arm();
            Some(tracer().topic(topic))
        } else {
            None
        };
        let core = Arc::new(PubCore {
            topic: topic.to_string(),
            type_name: M::topic_type(),
            addr,
            machine,
            queue_size: options.queue_size.max(1),
            config,
            counters: master.metrics().register(topic),
            master: master.clone(),
            registration: AtomicU64::new(0),
            conns: Mutex::new(Arc::new([])),
            shutdown: AtomicBool::new(false),
            trace,
            tier_hint: AtomicU8::new(Tier::Tcp.index() as u8),
            shm_pool: Mutex::new(None),
            schema: M::schema(),
            reactor: runtime().reactor,
            listener_token: OnceLock::new(),
        });
        // A fast-path-capable publisher's endpoint carries its core as a
        // local port, so same-machine subscribers in this process can skip
        // the socket.
        let port = if core.config.enable_fastpath {
            Arc::downgrade(&core)
        } else {
            Weak::new()
        };
        let registration =
            master.register_publisher_local(topic, M::topic_type(), addr, machine, port)?;
        // Relaxed: see the Drop-side load — Arc orders this store.
        core.registration.store(registration, Ordering::Relaxed);
        // The listener joins the shared event loop: the handler owns the
        // socket and only a `Weak` core reference, so an orphaned acceptor
        // cannot keep a dropped publisher alive. Handshakes go to the job
        // pool (header reads and shm link creation block).
        let weak = Arc::downgrade(&core);
        let token = Acceptor::register(&core.reactor, listener, move |stream| {
            // Relaxed: standalone exit flag.
            let live = |c: &Arc<PubCore>| !c.shutdown.load(Ordering::Relaxed);
            let Some(core) = weak.upgrade().filter(live) else {
                return false;
            };
            runtime().pool.spawn(move || {
                let _ = core.handle_subscriber(stream);
            });
            true
        });
        let _ = core.listener_token.set(token);
        Ok(Publisher {
            core,
            _marker: PhantomData,
        })
    }

    /// Publish a message: encode once (for serialization-free messages this
    /// only clones the buffer pointer) and enqueue on every subscriber
    /// connection. Never blocks; if a connection's transmission queue is
    /// full the frame is dropped for that subscriber (counted in
    /// [`MetricsSnapshot::frames_dropped`]). A frame larger than
    /// [`MAX_FRAME_LEN`] is refused outright and counted in
    /// `frames_dropped_oversized` — every subscriber would reject it anyway.
    pub fn publish(&self, msg: &M) {
        self.core.fan_out(self.core.encode(msg), None);
    }

    /// The topic this publisher serves.
    pub fn topic(&self) -> &str {
        &self.core.topic
    }

    /// Address subscribers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr
    }

    /// Number of currently connected subscribers.
    ///
    /// A pure read: dead entries are counted out here but pruned on the
    /// publish and accept/attach paths, so calling a getter never mutates
    /// transport state.
    pub fn subscriber_count(&self) -> usize {
        self.core
            .conns
            .lock()
            .iter()
            .filter(|c| c.is_live())
            .count()
    }

    /// This publisher's own counters: what it and its links counted. The
    /// topic's, summed over every endpoint on it, are
    /// [`MetricsRegistry::topic`](crate::MetricsRegistry::topic).
    pub fn stats(&self) -> MetricsSnapshot {
        self.core.counters.snapshot()
    }
}

impl<T: SfmMessage> Publisher<SfmBox<T>> {
    /// Loan a message to build **in place inside a shared-memory pool
    /// segment** — the write-in-place publication API (paper §4.3's
    /// "message memory is the wire buffer", taken to its conclusion: the
    /// wire buffer is the *shared* buffer, so publishing copies nothing).
    ///
    /// The loan is segment-backed when the shm tier is live for this
    /// publisher (at least one shm subscriber has handshaken).
    /// Otherwise the loan transparently falls back to an ordinary heap
    /// allocation and behaves exactly like `SfmBox::new()` — caller code
    /// is identical either way.
    ///
    /// Returns `None` **only** as backpressure: the shm pool is active but
    /// every loanable segment's write hold is taken (by other outstanding
    /// loans or in-flight frames). Back off and retry, or fall back to
    /// [`publish`](Publisher::publish).
    ///
    /// Dropping the loan without publishing is clean — the segment's
    /// write hold returns to the pool and the allocation record is
    /// released (no sanitizer leak).
    pub fn loan(&self) -> Option<LoanedMessage<T>> {
        // A pool exists only once a shm link was granted.
        let Some(pool) = self.core.shm_pool.lock().clone() else {
            return Some(LoanedMessage::new(SfmBox::new(), None));
        };
        let frame = pool.loan(T::max_size())?;
        // The SharedFrame clone in the guard keeps the segment's
        // write hold (and therefore its generation stamp) alive
        // for as long as any clone of the allocation lives —
        // including fast-path subscribers sharing the buffer.
        let guard = frame.clone();
        // SAFETY: the payload region is 64-byte offset into a
        // page-aligned mapping (so 8-aligned), valid for
        // `capacity() >= max_size` bytes while the guard lives,
        // and the write hold guarantees no other writer aliases
        // it until descriptors are committed.
        let mut alloc = unsafe { SfmAlloc::from_extern(frame.payload_ptr(), T::max_size(), guard) };
        if tracer().armed() {
            // A loan is a genuine allocation event: stamp its
            // birth so the `alloc` span anchors here rather than
            // vanishing with the reader-side `from_extern` zero.
            alloc.set_born_ns(now_nanos());
        }
        // SAFETY: region writable for the full capacity (publisher
        // maps its own pool segments read-write) and un-aliased
        // while building (write hold held above).
        let msg = unsafe { SfmBox::from_alloc(alloc) };
        Some(LoanedMessage::new(msg, Some(frame)))
    }

    /// Publish a loaned message. For a segment-backed loan the payload is
    /// already in shared memory, so shm subscribers get **zero payload
    /// copies end to end**: the fan-out starts from the loan's own segment
    /// and every shm link commits only a 64-byte descriptor.
    /// TCP and fast-path subscribers are served from the same bytes
    /// through the ordinary serialization-free frame (the publisher's
    /// read-write mapping backs those reads), so mixed-tier fan-out needs
    /// no second encoding.
    ///
    /// Tracing is that of [`publish`](Publisher::publish): `alloc` spans
    /// the loan's lifetime and `encode` the handle construction — with the
    /// `wire_write` copy stage absent by construction on shm links.
    pub fn publish_loaned(&self, loaned: LoanedMessage<T>) {
        let (msg, shm) = loaned.into_parts();
        let frame = self.core.encode(&msg);
        if let Some(sf) = &shm {
            // Stamp how many bytes of the segment the message actually
            // used — descriptors publish this length, not the capacity.
            sf.set_len(frame.len());
        }
        self.core.fan_out(frame, shm);
    }
}

impl<M: Encode> std::fmt::Debug for Publisher<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher")
            .field("topic", &self.core.topic)
            .field("type", &self.core.type_name)
            .field("subscribers", &self.core.conns.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmValidate, SfmVec};

    #[repr(C)]
    struct P {
        data: SfmVec<u8>,
    }
    unsafe impl SfmPod for P {}
    impl SfmValidate for P {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.data.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for P {
        fn type_name() -> &'static str {
            "test/AttachP"
        }
        fn max_size() -> usize {
            256
        }
    }

    /// A same-process attach is admitted exactly like the TCP handshake:
    /// mismatched types get the same diagnostic as the TCP `error=` reply,
    /// and a severed loopback link refuses only *transiently* (an `Io`
    /// error the supervisor retries) until it heals.
    #[test]
    fn attach_local_is_admitted_like_a_handshake() {
        let master = Master::new();
        let machine = MachineId(77);
        let publisher: Publisher<SfmBox<P>> = Publisher::create_with(
            &master,
            "attach/neg",
            PublisherOptions::new().queue_size(4),
            machine,
            TransportConfig::default(),
        )
        .unwrap();
        let core = &*publisher.core;
        // Nothing listens on the token: these attachments are never drained.
        let wake = core.reactor.reserve();

        match core.attach_local("wrong/Type", wake, false) {
            Err(RosError::Rejected(msg)) => {
                assert_eq!(msg, "topic carries test/AttachP not wrong/Type");
            }
            Err(e) => panic!("expected type rejection, got {e:?}"),
            Ok(_) => panic!("attach with wrong type must fail"),
        }

        let fault = master.links().inject(machine, machine);
        fault.sever_now();
        match core.attach_local(P::type_name(), wake, false) {
            Err(RosError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused);
            }
            Err(e) => panic!("expected transient refusal, got {e:?}"),
            Ok(_) => panic!("attach over a severed link must fail"),
        }
        fault.heal();

        let sink = core
            .attach_local(P::type_name(), wake, false)
            .map_err(|e| format!("healed attach must succeed: {e:?}"))
            .unwrap();
        assert_eq!(publisher.subscriber_count(), 1);
        drop(sink);
        assert_eq!(
            publisher.subscriber_count(),
            0,
            "dropping the sink releases the connection without a publish"
        );
    }

    /// A one-byte frame carrying `n`.
    fn frame(n: u8) -> OutFrame {
        OutFrame::owned(Arc::new(vec![n]))
    }

    /// A push, comparably: the depth it left, or the byte of the frame a
    /// full queue handed back, or `None` for a dead link.
    fn push(tx: &QueueTx, n: u8) -> Result<usize, Option<u8>> {
        match tx.push(frame(n)) {
            Push::Depth(depth) => Ok(depth),
            Push::Full(frame) => Err(Some(frame.as_slice()[0])),
            Push::Dead => Err(None),
        }
    }

    /// A pop, comparably: the frame's byte, or what the queue said instead.
    fn pop(rx: &QueueRx) -> Result<u8, &'static str> {
        match rx.pop() {
            Pop::Frame(frame) => Ok(frame.as_slice()[0]),
            Pop::Empty => Err("empty"),
            Pop::Ended => Err("ended"),
        }
    }

    /// The publisher's half goes: the drainer still gets the tail, in
    /// order, and only then is the link over.
    #[test]
    fn a_closed_queue_drains_its_tail_then_ends() {
        let (tx, rx) = link_queue(4);
        assert_eq!(pop(&rx), Err("empty"));
        for n in 1..=3 {
            push(&tx, n).unwrap();
        }
        drop(tx);
        assert!(!rx.is_cut());
        let drained: Vec<_> = (0..4).map(|_| pop(&rx)).collect();
        assert_eq!(drained, [Ok(1), Ok(2), Ok(3), Err("ended")]);
        assert_eq!(pop(&rx), Err("ended"));
    }

    /// A cut ends the link at once: the frames still queued are never
    /// delivered, and nothing more is taken.
    #[test]
    fn a_cut_ends_the_queue_at_once_with_frames_in_it() {
        let (tx, rx) = link_queue(4);
        push(&tx, 1).unwrap();
        push(&tx, 2).unwrap();
        tx.0.kill();
        assert!(rx.is_cut());
        assert_eq!(pop(&rx), Err("ended"));
        assert_eq!(push(&tx, 3), Err(None));
    }

    /// The drainer goes: the next push finds the link dead, and a publisher
    /// counts the link out at once, with no publish, then prunes it at the
    /// next publish without counting a drop.
    #[test]
    fn a_departed_drainer_ends_the_link_for_the_publisher() {
        let (tx, rx) = link_queue(2);
        push(&tx, 1).unwrap();
        drop(rx);
        assert_eq!(push(&tx, 2), Err(None));

        let publisher: Publisher<SfmBox<P>> = Publisher::create_with(
            &Master::new(),
            "queue/departed",
            PublisherOptions::new().queue_size(4),
            MachineId::A,
            TransportConfig::default(),
        )
        .unwrap();
        let core = &*publisher.core;
        let rx = core
            .attach_local(P::type_name(), core.reactor.reserve(), false)
            .unwrap();
        assert_eq!(publisher.subscriber_count(), 1);
        drop(rx);
        assert_eq!(publisher.subscriber_count(), 0);
        assert_eq!(core.conns.lock().len(), 1, "counted out, not yet pruned");
        publisher.publish(&SfmBox::new());
        assert_eq!(core.conns.lock().len(), 0);
        assert_eq!(publisher.stats().frames_dropped, 0);
    }

    /// A push reports the depth it left, its own frame included, and a
    /// full queue hands the frame back.
    #[test]
    fn a_push_returns_the_depth_it_left() {
        let (tx, rx) = link_queue(3);
        assert_eq!([push(&tx, 1), push(&tx, 2)], [Ok(1), Ok(2)]);
        assert_eq!(pop(&rx), Ok(1));
        assert_eq!([push(&tx, 3), push(&tx, 4)], [Ok(2), Ok(3)]);
        assert_eq!(push(&tx, 5), Err(Some(5)));
        assert_eq!(pop(&rx), Ok(2));
        assert_eq!(push(&tx, 6), Ok(3));
    }
}
