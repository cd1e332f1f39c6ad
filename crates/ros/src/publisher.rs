//! The publisher side of a topic.
//!
//! `advertise` binds a TCP listener and registers it with the master. Each
//! subscriber that connects gets its own bounded *transmission queue* (the
//! queue of paper Fig. 8: `publish` deposits a cheap clone of the encoded
//! frame — for serialization-free messages, a clone of the buffer pointer —
//! and returns). Every link passes one admission (`PubCore::admit`) and
//! differs only in what its queue is:
//!
//! * **TCP** — a bounded channel drained on the process-wide
//!   [reactor](rossf_reactor): the listener and every writer are
//!   nonblocking state machines on one shared event loop. Cross-machine
//!   connections are paced by the master's
//!   [`LinkTable`](rossf_netsim::LinkTable): a frame drains into the
//!   socket while the modelled link carries it, and only its last
//!   [`PACE_TAIL`](crate::tcp::PACE_TAIL) bytes wait on a reactor timer
//!   for the link to finish.
//! * **fast path** — a bounded channel whose receiving end the
//!   same-process subscriber's reactor handler drains; `publish` notifies
//!   its token after each deposit, exactly as it notifies a TCP writer.
//! * **shared memory** — the link's descriptor ring *is* the queue:
//!   `publish` copies a heap-built message once into a pooled segment (a
//!   loaned message is already there) and commits one descriptor per shm
//!   link inline, under a per-link mutex. The handshake socket stays on
//!   the reactor as the control plane: the "subscriber gone" signal one
//!   way, the [`Doorbell`] the other — rung only when the subscriber has
//!   drained the ring and armed it, so a busy link pays for no wake-up.
//!
//! No tier costs either side a thread. Any
//! [`FaultInjector`](rossf_netsim::FaultInjector) attached to the link is
//! applied where the frame enters the link, by the link's one [`Gate`],
//! which `fan_out` consults once per frame in publish order on every tier:
//! delayed frames are parked behind a reactor timer without reordering,
//! dropped frames are skipped and counted, and a sever cuts the link at
//! once — the frames parked on it are lost and counted too — and refuses
//! new connections until healed.

use crate::config::TransportConfig;
use crate::error::RosError;
use crate::fastpath::{LocalAttach, LocalSinkHandle, FASTPATH_FIELD, TAP_FIELD};
use crate::loan::LoanedMessage;
use crate::master::Master;
use crate::metrics::TransportMetrics;
use crate::options::{PublisherOptions, PublisherStats};
use crate::shm::{
    peer_gone, SHM_EPOCH_FIELD, SHM_FD_FIELD, SHM_FIELD, SHM_PID_FIELD, SHM_PUB_PID_FIELD,
    SHM_TOKEN_FIELD,
};
use crate::tcp::{accept_handshake, Acceptor, Flush, Pending, WriteQueue, WRITE_BATCH};
use crate::traits::Encode;
use crate::wire::{grow_socket_buffers, ConnectionHeader, OutFrame, PROJECT_FIELD};
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use rossf_netsim::{FaultAction, FaultInjector, MachineId, Shaper};
use rossf_reactor::{runtime, Ctl, Event, Handler, Reactor, Token};
use rossf_sfm::{SfmAlloc, SfmBox, SfmMessage};
use rossf_shm::{FrameMeta, PushOutcome, SegmentPool, SharedFrame, ShmLink};
use rossf_trace::{now_nanos, tracer, Stage, Tier, TopicTrace};
use std::collections::VecDeque;
use std::io::Write;
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Admission batches one writer dispatch may process before yielding the
/// shared loop back (leftover frames re-notify the token), so a firehose
/// topic cannot starve other links.
const BATCHES_PER_DISPATCH: usize = 4;

/// One subscriber link as `fan_out` sees it.
struct Conn {
    alive: Arc<AtomicBool>,
    /// Reactor registration of the handler this link's events go to — the
    /// TCP writer or the fast-path subscriber draining `sink`, or a shm
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

/// Where a link's frames wait for the subscriber.
enum Sink {
    /// A bounded channel (TCP and fast path); dropping it closes the queue.
    Queue(Sender<OutFrame>),
    /// A shm link's descriptor ring; dropping it tears the link down.
    Ring(Arc<Ring>),
}

/// One publish's frame in the form a sink takes it.
enum Parcel {
    /// The link's own clone of the frame, stamped with its enqueue time
    /// (`TraceTag` is `Copy`, so clones do not alias).
    Frame(OutFrame),
    /// The publish's one shared segment and the descriptor to commit for
    /// it: a parked shm frame keeps the segment every other link of its
    /// publish commits against.
    Shared(SharedFrame, FrameMeta),
}

/// What became of one frame offered to one link.
enum Deposit {
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
    /// this link's sink takes — a stamped clone for a queue; for a ring, a
    /// descriptor against the publish's shared segment, which the first
    /// ring to need it fills (see [`PubCore::fan_out`]). On a ring,
    /// `enqueue` spans publish entry to here and `wire_write` the copy, so
    /// the stages telescope as on every tier. `None`: no segment was free.
    // Inlined, as are `deposit` and `Ring::commit`: every publish runs
    // them once per link (`pose_shm` lost 5–15 % of its throughput with
    // them out of line).
    #[inline]
    fn wrap(
        &self,
        core: &PubCore,
        frame: &OutFrame,
        entered: u64,
        shared: &mut Option<Option<SharedFrame>>,
    ) -> Option<Parcel> {
        let tag = frame.trace();
        let ring = match &self.sink {
            Sink::Queue(_) => {
                let mut own = frame.clone();
                if tag.id != 0 {
                    own.trace_mut().enqueued_ns = now_nanos();
                }
                return Some(Parcel::Frame(own));
            }
            Sink::Ring(ring) => ring,
        };
        let table = core.trace.as_deref().filter(|_| tag.id != 0);
        let mut pushed_ns = 0;
        if let Some(table) = table {
            pushed_ns = now_nanos();
            tracer().span(table, Stage::Enqueue, Tier::Shm, tag.id, entered, pushed_ns);
        }
        let resolved = shared.get_or_insert_with(|| {
            let copy = ring.pool.prepare_shared(frame.as_slice());
            // Only the link that copied has a copy stage to attribute; a
            // descriptor-only commit (every loaned publish) has none.
            if let (Some(table), Some(_)) = (table, &copy) {
                let t = now_nanos();
                tracer().span(table, Stage::WireWrite, Tier::Shm, tag.id, pushed_ns, t);
                pushed_ns = t;
            }
            copy
        });
        let Some(sf) = resolved.clone() else {
            // Pool exhausted: some slots may only look pinned because the
            // reader abandoned their references — settle those before the
            // next frame retries.
            if let Some(link) = &*ring.link.lock() {
                link.reconcile_abandoned();
            }
            return None;
        };
        let meta = FrameMeta {
            trace_id: tag.id,
            born_ns: tag.born_ns,
            enqueued_ns: entered,
            pushed_ns,
        };
        Some(Parcel::Shared(sf, meta))
    }

    /// The second half of a deposit: hand the parcel to the link. A
    /// queue's drainer is notified — coalesced, so a burst of publishes
    /// costs one dispatch, and free while the loop is awake; a ring
    /// commits the descriptor.
    #[inline]
    fn deposit(&self, core: &PubCore, parcel: Parcel) -> Deposit {
        match (&self.sink, parcel) {
            (Sink::Queue(queue), Parcel::Frame(frame)) => match queue.try_send(frame) {
                Ok(()) => {
                    core.metrics.observe_queue_depth(queue.len() as u64);
                    core.reactor.notify(self.token);
                    Deposit::Taken
                }
                Err(TrySendError::Full(frame)) => Deposit::Full(Some(Parcel::Frame(frame))),
                Err(TrySendError::Disconnected(_)) => Deposit::Dead,
            },
            (Sink::Ring(ring), Parcel::Shared(sf, meta)) => ring.commit(core, sf, meta),
            _ => unreachable!("a parcel is deposited in the sink that wrapped it"),
        }
    }

    /// Cut the link at once, like a yanked cable: whatever it still holds
    /// is lost. A queue's drainer finds the link dead at its next event —
    /// the TCP writer shuts its socket, the fast-path source concludes; a
    /// ring is torn down and its control handler hangs up.
    fn cut(&self, core: &PubCore) {
        match &self.sink {
            // Release: pairs with the pruners' Acquire loads.
            Sink::Queue(_) => self.alive.store(false, Ordering::Release),
            Sink::Ring(ring) => ring.teardown(),
        }
        core.reactor.notify(self.token);
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
        if !conn.alive.load(Ordering::Acquire) {
            return Deposit::Dead;
        }
        let action = self.injector.next_frame_action();
        self.trace(action);
        let delay = match action {
            FaultAction::Pass => Duration::ZERO,
            FaultAction::Delay(d) => d,
            FaultAction::Drop => {
                core.metrics.frames_faulted.fetch_add(1, Ordering::Relaxed);
                return Deposit::Taken;
            }
            FaultAction::Sever => return self.sever(core, conn, &mut parked, 1),
        };
        if parked.is_empty() && delay.is_zero() {
            return wrap().map_or(Deposit::Full(None), |parcel| conn.deposit(core, parcel));
        }
        let room = parked.len() <= core.queue_size.max(1);
        let Some(parcel) = room.then(wrap).flatten() else {
            return Deposit::Full(None);
        };
        if parked.is_empty() {
            self.arm(core, conn, delay);
        }
        // The queue's depth: the frames behind the one serving its delay.
        core.metrics.observe_queue_depth(parked.len() as u64);
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
        if !conn.alive.load(Ordering::Acquire) {
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
        core.metrics
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

/// Publisher half of one shared-memory link. The ring is single-producer,
/// so everything that touches it — `publish` on any clone of the
/// publisher, a gate's timer, teardown — goes through `link`.
struct Ring {
    /// `None` once the link is torn down.
    link: Mutex<Option<ShmLink>>,
    /// The publisher's segment pool, which `link` commits against.
    pool: Arc<SegmentPool>,
    doorbell: Doorbell,
    alive: Arc<AtomicBool>,
    metrics: Arc<TransportMetrics>,
    /// The subscriber's process id: a peer that *crashed* leaves holds on
    /// popped frames that only the publisher can reclaim.
    sub_pid: u32,
}

/// How a shm link's publisher tells a subscriber that drained the ring,
/// armed it and returned to its event loop that there is a frame again —
/// the only difference between a cross-process link and a same-process
/// one. Rung after a commit only when [`ShmLink::disarm`] says the ring was
/// armed, so a subscriber still busy draining costs nothing.
enum Doorbell {
    /// One byte on the link's control socket, which the subscriber's loop
    /// watches. A full socket buffer already holds unread doorbells, so a
    /// write that would block is simply dropped.
    Socket(Arc<TcpStream>),
    /// The subscriber's handler lives on this process's reactor: notify it
    /// (a write to the loop's eventfd only if the loop sleeps).
    Notify(Token),
}

impl Doorbell {
    fn ring(&self, reactor: &Reactor) {
        match self {
            Doorbell::Socket(stream) => {
                let _ = (&**stream).write(&[1]);
            }
            Doorbell::Notify(token) => reactor.notify(*token),
        }
    }
}

/// How long after a link's teardown the publisher keeps checking whether
/// the subscriber *process* died: waits of `10 ms << attempt`, about
/// 0.6 s in all. The EOF that triggers teardown usually arrives while the
/// peer is mid-exit.
const RECLAIM_ATTEMPTS: u32 = 6;

/// Reclaim the holds a dead subscriber process left on popped frames so no
/// pool slot stays pinned by a crashed reader. A peer that is still alive
/// keeps them — stashed message buffers may legally outlive the
/// subscription, and the reader releases them itself. Runs on the job pool
/// (the liveness check reads `/proc`); the waits are reactor timers.
fn reclaim_when_gone(link: ShmLink, sub_pid: u32, attempt: u32) {
    if !rossf_sys::process_alive(sub_pid) {
        link.reclaim_reader_holds();
    } else if attempt < RECLAIM_ATTEMPTS {
        runtime()
            .reactor
            .timer(Duration::from_millis(10 << attempt), move |_| {
                runtime()
                    .pool
                    .spawn(move || reclaim_when_gone(link, sub_pid, attempt + 1));
            });
    }
}

impl Ring {
    /// Publish one descriptor; the ring's verdict is the deposit's. A
    /// subscriber that went idle on an armed ring gets its doorbell.
    #[inline]
    fn commit(&self, core: &PubCore, sf: SharedFrame, meta: FrameMeta) -> Deposit {
        let mut link = self.link.lock();
        let Some(link) = link.as_mut() else {
            return Deposit::Dead;
        };
        match link.commit_shared(&sf, meta) {
            PushOutcome::Pushed => {
                if link.disarm() {
                    self.doorbell.ring(&core.reactor);
                }
                let metrics = &self.metrics;
                metrics.frames_sent.fetch_add(1, Ordering::Relaxed);
                metrics
                    .bytes_sent
                    .fetch_add(sf.len() as u64, Ordering::Relaxed);
                metrics.shm_frames.fetch_add(1, Ordering::Relaxed);
                // The push just loaded both ring indices; reading them
                // back is two cache-hot loads.
                metrics.observe_queue_depth(link.pending());
                Deposit::Taken
            }
            PushOutcome::RingFull | PushOutcome::NoSegment => {
                Deposit::Full(Some(Parcel::Shared(sf, meta)))
            }
        }
    }

    /// Tear the link down, from whichever side notices first (a sever, the
    /// control socket's handler on EOF, the last link entry dropping):
    /// close the ring (the control socket's handler, notified by the
    /// caller, then hangs up, which is the subscriber's wake-up), recycle
    /// the descriptors it never consumed, settle reader-abandoned
    /// references, and mark the connection dead. Idempotent — whoever
    /// takes the link out does the work and counts the disconnect.
    fn teardown(&self) {
        let Some(link) = self.link.lock().take() else {
            return;
        };
        link.close();
        link.drain();
        link.reconcile_abandoned();
        // Release: pairs with the pruners' Acquire loads.
        self.alive.store(false, Ordering::Release);
        self.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
        if self.sub_pid != std::process::id() {
            let sub_pid = self.sub_pid;
            runtime()
                .pool
                .spawn(move || reclaim_when_gone(link, sub_pid, 0));
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Reactor handler for a shm link's handshake socket, kept open as the
/// control plane: the link ends when the subscriber's end is gone. A
/// notify arrives when the ring was torn down from the publisher's side
/// (sever, publisher drop); hanging up then tells the subscriber.
struct RingCtl {
    /// Shared with the ring's [`Doorbell::Socket`], so the descriptor can
    /// outlive this handler by a pruning pass: the hang-up is explicit.
    stream: Arc<TcpStream>,
    /// Weak: the ring lives as long as its link entry in the publisher.
    ring: Weak<Ring>,
}

impl Handler for RingCtl {
    fn on_event(&mut self, _event: Event, ctl: &mut Ctl) {
        let ring = self.ring.upgrade();
        let torn_down = ring.as_ref().is_none_or(|r| r.link.lock().is_none());
        if torn_down || peer_gone(&self.stream) {
            if let Some(ring) = ring {
                ring.teardown();
            }
            let _ = self.stream.shutdown(Shutdown::Both);
            ctl.close();
        }
    }
}

/// Reactor handler for one TCP subscriber link. Frames arrive on the
/// bounded transmission queue (`fan_out` notifies the token after
/// depositing), pick up their enqueue/wire-write trace spans and sidecar
/// notes, and drain to the nonblocking socket
/// through a [`WriteQueue`]. Link shaping is cut-through: admission books
/// the modelled link for the frame and stamps when its last byte is `due`
/// at the receiver; the frame joins the write queue at once and only its
/// [`PACE_TAIL`](crate::tcp::PACE_TAIL) waits, on one reactor timer, for
/// that instant. The link contract is the model's: no frame completes at
/// the receiver before `link start + transmit + latency`, and back-to-back
/// frames leave at exactly link rate.
struct TcpWriter {
    stream: TcpStream,
    rx: Receiver<OutFrame>,
    /// Cleared by the link's gate to cut it (an injected sever).
    alive: Arc<AtomicBool>,
    metrics: Arc<TransportMetrics>,
    trace: Option<Arc<TopicTrace>>,
    conn_key: u64,
    /// The field projection negotiated at handshake time: every frame on
    /// this link is sliced to the selected ranges before it hits the wire.
    /// `None` = full frames.
    projection: Option<Arc<rossf_sfm::Projection>>,
    /// Frames actually written on this socket, in wire order. Dropped
    /// frames never reach the stream, so they must not advance the
    /// sequence the reader counts.
    wire_seq: u64,
    shaper: Shaper,
    /// Frames admitted and (possibly partially) written.
    writeq: WriteQueue,
    /// `due` of the held tail the outstanding pacing timer was armed for.
    /// Every publish notifies the writer, and each of those pumps finds the
    /// same tail held: comparing against this keeps it one timer per tail.
    pace_armed: Option<Instant>,
    /// Current writability interest, tracked to skip no-op updates.
    want_writable: bool,
    /// The transmission queue's senders are gone (publisher dropped): die
    /// once the tail drains.
    disconnected: bool,
}

impl Handler for TcpWriter {
    fn on_event(&mut self, event: Event, ctl: &mut Ctl) {
        // Relaxed: standalone flag; the cut's notify orders it. A cut link
        // goes down like a yanked cable, with whatever it still holds.
        if !self.alive.load(Ordering::Relaxed) {
            let _ = self.stream.shutdown(Shutdown::Both);
            return self.die(ctl);
        }
        match event {
            Event::Closed => self.die(ctl),
            // Notify (frames deposited / queue closed), Writable (socket
            // unblocked), Timer (the held pace tail is due), or a spurious
            // Readable: drive the machine.
            _ => self.pump(ctl),
        }
    }
}

impl TcpWriter {
    /// Admit one frame: stamp trace spans and the sidecar
    /// note, assign its wire sequence, book the link for it, and queue it
    /// for writing.
    fn admit(&mut self, frame: OutFrame) {
        // Slice the frame down to the negotiated projection. Slicing fails
        // only when the frame violates its own schema (unreachable for
        // locally built messages): drop it rather than leak a full frame
        // onto a link whose reader verifies against the projected schema.
        let plan = match self.projection.as_deref() {
            Some(projection) => match projection.slice(frame.as_slice()) {
                Ok(plan) => Some(plan),
                Err(_) => {
                    self.metrics.frames_dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            },
            None => None,
        };
        let tag = frame.trace();
        let mut pending = match Pending::new(frame, plan) {
            Ok(pending) => pending,
            // Unreachable in practice (`fan_out` bounds frames by
            // `max_frame_len`).
            Err(_) => {
                self.metrics.frames_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        // `enqueue` span ends (and the sidecar note lands) *before* the
        // frame bytes can hit the socket, so the reader can never observe
        // the frame without its note.
        if let (Some(table), true) = (self.trace.as_deref(), tag.id != 0) {
            let t = now_nanos();
            tracer().span(table, Stage::Enqueue, Tier::Tcp, tag.id, tag.enqueued_ns, t);
            tracer()
                .sidecar()
                .insert(self.conn_key, self.wire_seq, tag.id, t);
            (pending.trace_id, pending.t_start) = (tag.id, t);
        }
        pending.seq = self.wire_seq;
        self.wire_seq += 1;
        // One reservation per frame, made at admission, so a queued burst
        // is booked back to back: the link latency once, plus the transmit
        // time of prefix and payload — the *wire* payload, so a projected
        // link is paced by what it actually transmits.
        let wait = self.shaper.profile().latency + self.shaper.reserve(4 + pending.wire_len);
        pending.due = (!wait.is_zero()).then(|| Instant::now() + wait);
        self.writeq.push(pending);
    }

    /// Drive the machine: flush queued bytes, then admit more frames, up
    /// to [`BATCHES_PER_DISPATCH`] rounds before yielding the shared loop.
    fn pump(&mut self, ctl: &mut Ctl) {
        for _ in 0..BATCHES_PER_DISPATCH {
            let held = match self.flush_writeq() {
                Flush::Blocked => {
                    self.set_writable(true, ctl);
                    return;
                }
                Flush::Dead => {
                    self.die(ctl);
                    return;
                }
                Flush::Drained => None,
                Flush::Held(due) => Some(due),
            };
            self.set_writable(false, ctl);
            if let Some(due) = held.filter(|_| self.pace_armed != held) {
                self.pace_armed = held;
                ctl.arm_timer(due.saturating_duration_since(Instant::now()));
            }
            // Admission goes on while a tail is held: the frames queued
            // behind it are booked on the link now, back to back, not when
            // the socket gets round to them.
            while self.writeq.len() < WRITE_BATCH {
                match self.rx.try_recv() {
                    Ok(frame) => self.admit(frame),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.disconnected = true;
                        break;
                    }
                }
            }
            if held.is_some() {
                // Nothing may pass the held tail; its timer resumes us.
                return;
            }
            if self.writeq.is_empty() {
                // The queue is drained too: idle until the next notify, or
                // done once the publisher is gone.
                if self.disconnected {
                    self.die(ctl);
                }
                return;
            }
        }
        // Batch cap hit with work remaining: hand the loop back to other
        // links and reschedule ourselves.
        if !self.writeq.is_empty() || !self.rx.is_empty() {
            ctl.notify_self();
        }
    }

    /// Flush the write queue to the socket; each frame whose last byte went
    /// out has its wire-write span closed, its sidecar note settled, and is
    /// counted sent.
    fn flush_writeq(&mut self) -> Flush {
        let (metrics, trace, conn_key) = (&*self.metrics, self.trace.as_deref(), self.conn_key);
        self.writeq.flush(&mut &self.stream, |p| {
            if let (Some(table), true) = (trace, p.trace_id != 0) {
                let t1 = now_nanos();
                tracer().span(
                    table,
                    Stage::WireWrite,
                    Tier::Tcp,
                    p.trace_id,
                    p.t_start,
                    t1,
                );
                tracer().sidecar().update_sent(conn_key, p.seq, t1);
            }
            metrics.frames_sent.fetch_add(1, Ordering::Relaxed);
            metrics
                .bytes_sent
                .fetch_add(p.wire_len as u64, Ordering::Relaxed);
            if p.plan.is_some() {
                metrics.projection_frames.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    fn set_writable(&mut self, want: bool, ctl: &mut Ctl) {
        if self.want_writable != want {
            self.want_writable = want;
            // Readability is never wanted: hangup delivery does not
            // require it.
            ctl.set_interest(false, want);
        }
    }

    /// Tear the link down: mark the connection dead for the pruners, count
    /// the disconnect, and drop out of the loop (closing the socket). Runs
    /// once: the close ends the handler.
    fn die(&mut self, ctl: &mut Ctl) {
        // Relaxed: standalone liveness flag; the pruner that reads it takes
        // the sink lock, which orders the removal.
        self.alive.store(false, Ordering::Relaxed);
        self.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
        ctl.close();
    }
}

/// A new fan-out list: the links of `conns` still alive, then `joining`.
fn live_conns(conns: &[Arc<Conn>], joining: Option<Arc<Conn>>) -> Arc<[Arc<Conn>]> {
    let live = conns.iter().filter(|c| c.alive.load(Ordering::Acquire));
    live.cloned().chain(joining).collect()
}

struct PubCore {
    topic: String,
    type_name: &'static str,
    addr: SocketAddr,
    machine: MachineId,
    queue_size: usize,
    config: TransportConfig,
    metrics: Arc<TransportMetrics>,
    master: Master,
    /// Set once right after master registration (0 until then); the id is
    /// not known when the core is built because the fast-path registration
    /// needs a `Weak` of the finished core.
    registration: AtomicU64,
    /// The fan-out list. Immutable once built — `splice` and the pruning
    /// pass swap in a new one — so a publish takes it with one `Arc::clone`.
    conns: Mutex<Arc<[Arc<Conn>]>>,
    shutdown: AtomicBool,
    published: AtomicU64,
    dropped: AtomicU64,
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
    /// through (the TCP handshake or a same-process attach), and the base
    /// reply header. `sub_machine` picks the link whose fault injector
    /// governs the connection; the injector is returned for the link's
    /// [`Gate`].
    ///
    /// # Errors
    ///
    /// [`RosError::Rejected`] for a permanent refusal (type mismatch) — the
    /// text of the TCP `error=` reply; [`RosError::Io`] for a transient one
    /// (publisher shutting down, link severed) that the subscriber retries
    /// under its backoff schedule until the link heals.
    fn admit(
        &self,
        header: &ConnectionHeader,
        sub_machine: MachineId,
    ) -> Result<(ConnectionHeader, Option<Arc<FaultInjector>>), RosError> {
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
        let sub_type = header.get("type").unwrap_or_default();
        if sub_type != self.type_name {
            return Err(RosError::Rejected(format!(
                "topic carries {} not {}",
                self.type_name, sub_type
            )));
        }
        let injector = self.master.links().fault(self.machine, sub_machine);
        if injector.as_ref().is_some_and(|f| f.is_severed()) {
            return Err(refuse("link severed"));
        }
        let reply = ConnectionHeader::new()
            .with("type", self.type_name)
            .with("topic", &self.topic)
            .with("endian", ConnectionHeader::native_endian());
        Ok((reply, injector))
    }

    /// Splice an admitted link into the fan-out list — pruning dead
    /// entries while the lock is held anyway (the accept/attach-side half
    /// of the pruning that `subscriber_count` no longer does) behind the
    /// fault gate `injector` calls for, count its handshake, and attribute
    /// publish-side spans to its tier (a heuristic: the most recent arrival
    /// wins).
    fn splice(
        &self,
        tier: Tier,
        alive: Arc<AtomicBool>,
        token: Token,
        sink: Sink,
        injector: Option<Arc<FaultInjector>>,
    ) {
        let gate = injector.map(|injector| Gate {
            injector,
            tier,
            parked: Mutex::new(VecDeque::new()),
        });
        let conn = Conn {
            alive,
            token,
            sink,
            gate,
        };
        {
            let mut conns = self.conns.lock();
            *conns = live_conns(&conns, Some(Arc::new(conn)));
        }
        self.metrics.handshakes.fetch_add(1, Ordering::Relaxed);
        self.tier_hint.store(tier.index() as u8, Ordering::Relaxed);
    }

    fn handle_subscriber(self: Arc<Self>, mut stream: TcpStream) -> Result<(), RosError> {
        let header = accept_handshake(&stream, self.config.handshake_timeout)?;
        let sub_machine: MachineId = header
            .get("machine")
            .and_then(|m| m.parse::<u32>().ok())
            .unwrap_or_default()
            .into();
        let (mut reply, injector) = match self.admit(&header, sub_machine) {
            Ok(admitted) => admitted,
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

        // Shared-memory eligibility: both sides opted in, same simulated
        // machine, and a *different* process (same-process traffic prefers
        // the fast path unless `shm_same_process` overrides). Link creation
        // failure withholds the grant silently — the connection proceeds
        // over TCP with byte-identical frames.
        let sub_pid = header
            .get(SHM_PID_FIELD)
            .and_then(|p| p.parse::<u32>().ok());
        let shm_link = if self.config.enable_shm
            && header.get(SHM_FIELD) == Some("1")
            && sub_machine == self.machine
            && sub_pid.is_some_and(|p| p != std::process::id() || self.config.shm_same_process)
        {
            let pool = {
                let mut pool = self.shm_pool.lock();
                Arc::clone(pool.get_or_insert_with(|| Arc::new(SegmentPool::new())))
            };
            ShmLink::create(pool, self.queue_size.max(1), rossf_shm::fresh_epoch()).ok()
        } else {
            None
        };

        // Field-projection negotiation (TCP only — the zero-copy tiers
        // always carry the full frame). The grant is echoed back only when
        // the spec resolves against this publisher's schema *and* is already
        // canonical, so both sides agree byte-for-byte on what was granted;
        // anything else falls back to full frames, which old subscribers
        // (that never sent the field) handle unchanged.
        let projection = match (&shm_link, header.get(PROJECT_FIELD), self.schema) {
            (None, Some(spec), Some(schema)) => rossf_sfm::Projection::from_spec(schema, spec)
                .ok()
                .filter(|p| p.spec() == spec)
                .map(Arc::new),
            _ => None,
        };

        if let Some(link) = &shm_link {
            reply = reply
                .with(SHM_FIELD, "1")
                .with(SHM_PUB_PID_FIELD, std::process::id().to_string())
                .with(SHM_FD_FIELD, link.ctrl_fd().to_string())
                .with(SHM_EPOCH_FIELD, link.epoch().to_string());
        }
        if let Some(p) = &projection {
            reply = reply.with(PROJECT_FIELD, p.spec());
        }
        reply.write_to(&mut stream)?;

        // Hand the socket to the shared event loop. Either handler owns
        // the stream and must not hold a strong core reference, or dropping
        // the last Publisher could never close the queue it serves.
        let alive = Arc::new(AtomicBool::new(true));
        let fd = stream.as_raw_fd();
        if let Some(link) = shm_link {
            stream.set_nonblocking(true)?;
            self.metrics.shm_handshakes.fetch_add(1, Ordering::Relaxed);
            let stream = Arc::new(stream);
            // A subscriber in this very process named the reactor token of
            // the handler draining the ring; any other hears the socket.
            let doorbell = header
                .get(SHM_TOKEN_FIELD)
                .and_then(|t| t.parse().ok())
                .filter(|_| sub_pid == Some(std::process::id()))
                .map_or_else(
                    || Doorbell::Socket(Arc::clone(&stream)),
                    |raw| Doorbell::Notify(Token::from_raw(raw)),
                );
            let ring = Arc::new(Ring {
                pool: Arc::clone(link.pool()),
                link: Mutex::new(Some(link)),
                doorbell,
                alive: Arc::clone(&alive),
                metrics: Arc::clone(&self.metrics),
                // The grant condition above guarantees `sub_pid`.
                sub_pid: sub_pid.unwrap_or_default(),
            });
            let ctl = RingCtl {
                stream,
                ring: Arc::downgrade(&ring),
            };
            let token = self.reactor.register(fd, true, false, Box::new(ctl));
            self.splice(Tier::Shm, alive, token, Sink::Ring(ring), injector);
            return Ok(());
        }

        // The writer is a nonblocking state machine driven by
        // notify/timer/writable events. Its connection key mirrors the
        // reader's `conn_key(peer, local)` — same address pair, same order.
        let conn_key = match (stream.local_addr(), stream.peer_addr()) {
            (Ok(local), Ok(peer)) => rossf_trace::conn_key(&local.to_string(), &peer.to_string()),
            _ => 0,
        };
        grow_socket_buffers(&stream);
        stream.set_nonblocking(true)?;
        if projection.is_some() {
            self.metrics
                .projection_handshakes
                .fetch_add(1, Ordering::Relaxed);
        }
        let (tx, rx) = bounded::<OutFrame>(self.queue_size.max(1));
        let writer = TcpWriter {
            stream,
            rx,
            alive: Arc::clone(&alive),
            metrics: Arc::clone(&self.metrics),
            trace: self.trace.clone(),
            conn_key,
            projection,
            wire_seq: 0,
            // Link shaping: pace the data path if the subscriber lives on
            // a different simulated machine.
            shaper: Shaper::new(self.master.links().profile(self.machine, sub_machine)),
            writeq: WriteQueue::default(),
            pace_armed: None,
            want_writable: false,
            disconnected: false,
        };
        let token = self.reactor.register(fd, false, false, Box::new(writer));
        self.splice(Tier::Tcp, alive, token, Sink::Queue(tx), injector);
        Ok(())
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
        if frame.len() > self.config.max_frame_len {
            self.metrics
                .frames_dropped_oversized
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.published.fetch_add(1, Ordering::Relaxed);
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
                Deposit::Full(_) => self.count_drop(),
                Deposit::Dead => {
                    conn.alive.store(false, Ordering::Release);
                    saw_dead = true;
                }
            }
        }
        if saw_dead {
            let mut conns = self.conns.lock();
            *conns = live_conns(&conns, None);
        }
    }

    fn count_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        self.metrics.frames_dropped.fetch_add(1, Ordering::Relaxed);
    }
}

impl LocalAttach for PubCore {
    fn attach_local(
        &self,
        header: &ConnectionHeader,
        wake: Token,
    ) -> Result<LocalSinkHandle, RosError> {
        // A local attach is same-machine by construction, so the loopback
        // link's fault injector governs it.
        let (reply, injector) = self.admit(header, self.machine)?;
        if header.get(FASTPATH_FIELD) != Some("1") {
            // Peer predates the capability: permanent refusal, the
            // subscriber falls back to TCP for this endpoint.
            return Err(RosError::Rejected(
                "fastpath capability missing from header".to_string(),
            ));
        }
        let (tx, rx) = bounded::<OutFrame>(self.queue_size.max(1));
        let alive = Arc::new(AtomicBool::new(true));
        self.metrics
            .fastpath_handshakes
            .fetch_add(1, Ordering::Relaxed);
        // A capture tap records what the publisher emitted, not what a
        // lossy link let through: its link has no gate.
        let injector = injector.filter(|_| header.get(TAP_FIELD) != Some("1"));
        let sink = Sink::Queue(tx);
        self.splice(Tier::Fastpath, Arc::clone(&alive), wake, sink, injector);
        Ok(LocalSinkHandle {
            reply: reply.with(FASTPATH_FIELD, "1"),
            rx,
            alive,
        })
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
        // the senders must be gone first so each woken drainer — TCP
        // writer or fast-path subscriber — observes the disconnect, drains
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
        default_config: TransportConfig,
    ) -> Result<Self, RosError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let config = options.transport.unwrap_or(default_config);
        let queue_size = if options.queue_size == 0 {
            config.queue_size
        } else {
            options.queue_size
        };
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
            queue_size,
            config,
            metrics: master.metrics().topic(topic),
            master: master.clone(),
            registration: AtomicU64::new(0),
            conns: Mutex::new(Arc::new([])),
            shutdown: AtomicBool::new(false),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            trace,
            tier_hint: AtomicU8::new(Tier::Tcp.index() as u8),
            shm_pool: Mutex::new(None),
            schema: M::schema(),
            reactor: runtime().reactor,
            listener_token: OnceLock::new(),
        });
        // Fast-path-capable publishers register a local attach port so
        // same-machine subscribers in this process can skip the socket.
        let registration = if core.config.enable_fastpath {
            let weak = Arc::downgrade(&core);
            let port: Weak<dyn LocalAttach> = weak;
            master.register_publisher_local(topic, M::topic_type(), addr, machine, port)?
        } else {
            master.register_publisher(topic, M::topic_type(), addr, machine)?
        };
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
    /// [`Publisher::dropped`]). A frame larger than the configured
    /// `max_frame_len` is refused outright — every subscriber would reject
    /// it anyway.
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
            .filter(|c| c.alive.load(Ordering::Acquire))
            .count()
    }

    /// Frames published so far (per `publish` call, not per connection).
    pub fn published(&self) -> u64 {
        self.core.published.load(Ordering::Relaxed)
    }

    /// Frames dropped because a subscriber's queue was full.
    pub fn dropped(&self) -> u64 {
        self.core.dropped.load(Ordering::Relaxed)
    }

    /// The shared per-topic transport metrics this publisher reports into.
    pub fn metrics(&self) -> Arc<TransportMetrics> {
        Arc::clone(&self.core.metrics)
    }

    /// One coherent snapshot of this publisher's counters.
    pub fn stats(&self) -> PublisherStats {
        let transport = self.core.metrics.snapshot();
        PublisherStats {
            published: self.published(),
            dropped: self.dropped(),
            subscribers: self.subscriber_count(),
            bytes_sent: transport.bytes_sent,
            bytes_received: transport.bytes_received,
            transport,
        }
    }
}

impl<T: SfmMessage> Publisher<SfmBox<T>> {
    /// Loan a message to build **in place inside a shared-memory pool
    /// segment** — the write-in-place publication API (paper §4.3's
    /// "message memory is the wire buffer", taken to its conclusion: the
    /// wire buffer is the *shared* buffer, so publishing copies nothing).
    ///
    /// The loan is segment-backed when the shm tier is live for this
    /// publisher (enabled and at least one shm subscriber has handshaken).
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
        if self.core.config.enable_shm {
            let pool = self.core.shm_pool.lock().clone();
            if let Some(pool) = pool {
                let frame = pool.loan(T::max_size())?;
                // The SharedFrame clone in the guard keeps the segment's
                // write hold (and therefore its generation stamp) alive
                // for as long as any clone of the allocation lives —
                // including fast-path subscribers sharing the buffer.
                let guard: Box<dyn std::any::Any + Send + Sync> = Box::new(frame.clone());
                // SAFETY: the payload region is 64-byte offset into a
                // page-aligned mapping (so 8-aligned), valid for
                // `capacity() >= max_size` bytes while the guard lives,
                // and the write hold guarantees no other writer aliases
                // it until descriptors are committed.
                let mut alloc =
                    unsafe { SfmAlloc::from_extern(frame.payload_ptr(), T::max_size(), guard) };
                if tracer().armed() {
                    // A loan is a genuine allocation event: stamp its
                    // birth so the `alloc` span anchors here rather than
                    // vanishing with the reader-side `from_extern` zero.
                    alloc.set_born_ns(now_nanos());
                }
                // SAFETY: region writable for the full capacity (publisher
                // maps its own pool segments read-write) and un-aliased
                // while building (write hold held above).
                let msg = unsafe { SfmBox::from_alloc(Arc::new(alloc)) };
                return Some(LoanedMessage::new(msg, Some(frame)));
            }
        }
        Some(LoanedMessage::new(SfmBox::new(), None))
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

    /// Counts the timer events a writer is dispatched.
    struct CountTimers {
        writer: TcpWriter,
        timers: Arc<AtomicU64>,
    }

    impl Handler for CountTimers {
        fn on_event(&mut self, event: Event, ctl: &mut Ctl) {
            if event == Event::Timer {
                self.timers.fetch_add(1, Ordering::Relaxed);
            }
            self.writer.on_event(event, ctl);
        }
    }

    /// One pacing timer per held tail, however often the writer is pumped
    /// meanwhile: every `publish` notifies it, and a timer armed per pump is
    /// a loop wake-up per pump (measured: +220 µs of background CPU per
    /// 1 MB message). Four frames go out, the token is notified throughout,
    /// and the writer sees at most four timer events.
    #[test]
    fn a_held_tail_arms_one_timer_however_often_it_is_pumped() {
        use std::io::Read;
        const FRAMES: usize = 4;
        const LEN: usize = 200_000; // 16 ms each at 100 Mb/s
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let fd = stream.as_raw_fd();
        let (tx, rx) = bounded::<OutFrame>(FRAMES);
        let metrics = Arc::new(TransportMetrics::default());
        let timers = Arc::new(AtomicU64::new(0));
        let writer = TcpWriter {
            stream,
            rx,
            alive: Arc::new(AtomicBool::new(true)),
            metrics: Arc::clone(&metrics),
            trace: None,
            conn_key: 0,
            projection: None,
            wire_seq: 0,
            shaper: Shaper::new(rossf_netsim::LinkProfile {
                bandwidth_bps: 100_000_000,
                latency: Duration::from_millis(1),
            }),
            writeq: WriteQueue::default(),
            pace_armed: None,
            want_writable: false,
            disconnected: false,
        };
        let reactor = Reactor::new("test-pace-timer");
        let counted = CountTimers {
            writer,
            timers: Arc::clone(&timers),
        };
        let token = reactor.register(fd, false, false, Box::new(counted));
        for _ in 0..FRAMES {
            tx.try_send(OutFrame::owned(Arc::new(vec![0x5A; LEN])))
                .unwrap();
        }
        let reader = std::thread::spawn(move || {
            let mut wire = vec![0u8; FRAMES * (4 + LEN)];
            client.read_exact(&mut wire).unwrap();
            wire
        });
        while !reader.is_finished() {
            reactor.notify(token);
            std::thread::sleep(Duration::from_micros(200));
        }
        let wire = reader.join().unwrap();
        for frame in wire.chunks(4 + LEN) {
            assert_eq!(frame[..4], (LEN as u32).to_le_bytes());
            assert!(frame[4..].iter().all(|&b| b == 0x5A));
        }
        assert_eq!(metrics.snapshot().frames_sent, FRAMES as u64);
        let fired = timers.load(Ordering::Relaxed);
        assert!(
            (1..=FRAMES as u64).contains(&fired),
            "{fired} timer events for {FRAMES} paced frames"
        );
        reactor.shutdown();
    }

    fn request(ty: &str, fastpath: Option<&str>) -> ConnectionHeader {
        let h = ConnectionHeader::request("attach/neg", ty, MachineId(0));
        match fastpath {
            Some(v) => h.with(FASTPATH_FIELD, v),
            None => h,
        }
    }

    /// The connection-header capability negotiation: a peer that predates
    /// the fast path (no `fastpath` field) is refused *permanently* with a
    /// message naming the capability, so the subscriber knows to fall back
    /// to TCP rather than retry. Mismatched types get the same diagnostic
    /// as the TCP `error=` reply, and a severed loopback link refuses only
    /// *transiently* (an `Io` error the supervisor retries).
    #[test]
    fn attach_local_negotiates_capability_and_faults() {
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

        match core.attach_local(&request(P::type_name(), None), wake) {
            Err(RosError::Rejected(msg)) => assert!(msg.contains(FASTPATH_FIELD)),
            Err(e) => panic!("expected capability rejection, got {e:?}"),
            Ok(_) => panic!("attach without capability must fail"),
        }
        match core.attach_local(&request("wrong/Type", Some("1")), wake) {
            Err(RosError::Rejected(msg)) => {
                assert_eq!(msg, "topic carries test/AttachP not wrong/Type");
            }
            Err(e) => panic!("expected type rejection, got {e:?}"),
            Ok(_) => panic!("attach with wrong type must fail"),
        }

        let fault = master.links().inject(machine, machine);
        fault.sever_now();
        match core.attach_local(&request(P::type_name(), Some("1")), wake) {
            Err(RosError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused);
            }
            Err(e) => panic!("expected transient refusal, got {e:?}"),
            Ok(_) => panic!("attach over a severed link must fail"),
        }
        fault.heal();

        let sink = core
            .attach_local(&request(P::type_name(), Some("1")), wake)
            .map_err(|e| format!("healed attach must succeed: {e:?}"))
            .unwrap();
        assert_eq!(sink.reply.get(FASTPATH_FIELD), Some("1"));
        assert_eq!(sink.reply.get("type"), Some(P::type_name()));
        assert_eq!(publisher.subscriber_count(), 1);
        drop(sink);
        assert_eq!(
            publisher.subscriber_count(),
            0,
            "dropping the sink releases the connection without a publish"
        );
    }
}
