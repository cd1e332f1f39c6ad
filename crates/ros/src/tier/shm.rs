//! The shared-memory tier, both halves of a link, and the handshake
//! vocabulary between them.
//!
//! The capability is negotiated in the TCP handshake: the subscriber's
//! request [`offer`]s it (plus the identity the publisher needs to judge
//! eligibility), and the publisher's reply either [`grant`]s it — carrying
//! everything the subscriber needs to [`attach`] to the ring — or omits it,
//! in which case the connection proceeds as plain TCP with byte-identical
//! frames.
//!
//! On the publisher's side the link's descriptor [`Ring`] *is* the
//! transmission queue: `publish` copies a heap-built message once into a
//! pooled segment (a loaned message is already there) and commits one
//! descriptor per shm link inline, under a per-link mutex. On the
//! subscriber's side a [`Source`] pops the descriptors on the reactor
//! thread and maps each frame read-only straight out of the publisher's
//! segments — zero subscriber-side payload copies for SFM messages.
//!
//! The handshake socket stays open as the link's control plane, watched by
//! the reactor at both ends. Publisher to subscriber it carries the
//! doorbell — one byte per commit into a ring the subscriber drained and
//! armed, so a busy link pays for no wake-up (a subscriber in the
//! publisher's own process is notified instead) — and either end's EOF
//! tells the other its peer is gone, even a publisher that crashed before
//! it could close the ring.

use crate::error::RosError;
use crate::metrics::Counters;
use crate::publisher::{Deposit, Parcel};
use crate::subscriber::{Progress, Source, SubCore};
use crate::traits::Decode;
use crate::wire::{ConnectionHeader, OutFrame};
use parking_lot::Mutex;
use rossf_netsim::FaultInjector;
use rossf_reactor::{runtime, Ctl, Event, Handler, Reactor, Token};
use rossf_shm::{FrameMeta, PushOutcome, SegmentPool, SharedFrame, ShmLink, ShmReader, TakeError};
use rossf_trace::{now_nanos, tracer, Stage, Tier, TopicTrace};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Request *and* reply field: `shm=1` in the request offers the
/// capability; `shm=1` in the reply grants it.
const SHM_FIELD: &str = "shm";

/// Request field: the subscriber's process id. The publisher grants shm
/// only to a *different* process on the same machine (the fast path
/// already covers same-process), unless `shm_same_process` overrides.
const SHM_PID_FIELD: &str = "pid";

/// Request field: the reactor token of the subscriber-side handler that
/// will drain the ring. Meaningful only to a publisher in the same process
/// (`pid` matches its own — the `shm_same_process` mode), which rings the
/// link's doorbell with a notify to it instead of a byte on the socket.
const SHM_TOKEN_FIELD: &str = "shm_token";

/// Reply field: the publisher's process id — the `<pid>` of the
/// `/proc/<pid>/fd/<fd>` path the subscriber opens segments through.
const SHM_PUB_PID_FIELD: &str = "shm_pid";

/// Reply field: the control segment's fd number in the publisher process.
const SHM_FD_FIELD: &str = "shm_fd";

/// Reply field: the epoch stamp of this publisher incarnation. The
/// subscriber verifies the mapped control segment carries the same stamp;
/// a mismatch means the fd was recycled by a crashed-and-restarted
/// publisher and the subscriber falls back to TCP.
const SHM_EPOCH_FIELD: &str = "shm_epoch";

/// The subscriber's offer, added to its handshake `request`: `token` is
/// the reactor token of the handler that will drain the ring, which a
/// publisher in this same process notifies directly as the link's
/// doorbell.
pub(crate) fn offer(request: ConnectionHeader, token: Token) -> ConnectionHeader {
    request
        .with(SHM_FIELD, "1")
        .with(SHM_PID_FIELD, std::process::id().to_string())
        .with(SHM_TOKEN_FIELD, token.raw().to_string())
}

/// The publisher's answer to an offer. The tier is granted when the
/// subscriber offered it in `request`, the two share a simulated machine,
/// and the subscriber is a *different* process — same-process traffic
/// prefers the fast path unless the publisher's node sets
/// `shm_same_process`. The link gets room for `depth` frames in the
/// publisher's segment pool, created in `pool` on the first grant so the
/// memfd count stays bounded by [`rossf_shm::DIR_CAP`] however many
/// subscribers attach. `None` leaves the connection to TCP — silently when
/// the link cannot be created: frames are byte-identical either way.
pub(crate) fn grant(
    request: &ConnectionHeader,
    shm_same_process: bool,
    same_machine: bool,
    pool: &Mutex<Option<Arc<SegmentPool>>>,
    depth: usize,
) -> Option<Grant> {
    let me = std::process::id();
    let offered = request.get(SHM_FIELD) == Some("1");
    let sub_pid = request.get(SHM_PID_FIELD)?.parse::<u32>().ok()?;
    let process_eligible = sub_pid != me || shm_same_process;
    if !(offered && same_machine && process_eligible) {
        return None;
    }
    let pool = Arc::clone(
        pool.lock()
            .get_or_insert_with(|| Arc::new(SegmentPool::new())),
    );
    let link = ShmLink::create(pool, depth, rossf_shm::fresh_epoch()).ok()?;
    // A subscriber in this very process named the reactor token of the
    // handler draining the ring; any other hears the socket.
    let notify = request
        .get(SHM_TOKEN_FIELD)
        .and_then(|t| t.parse().ok())
        .filter(|_| sub_pid == me)
        .map(Token::from_raw);
    Some(Grant {
        link,
        sub_pid,
        notify,
    })
}

/// A link [`grant`] created, before the reply that announces it.
pub(crate) struct Grant {
    link: ShmLink,
    sub_pid: u32,
    /// The token a same-process subscriber's doorbell is rung on.
    notify: Option<Token>,
}

impl Grant {
    /// Answer the handshake on `stream` with `reply` plus the grant — the
    /// publisher's pid, the ring's control fd and the epoch, all a
    /// subscriber needs to attach — and put the socket on `reactor` as the
    /// link's control plane. Returns the control handler's token and the
    /// ring `fan_out` commits into.
    pub(crate) fn open(
        self,
        mut stream: TcpStream,
        reply: ConnectionHeader,
        counters: &Arc<Counters>,
        reactor: &Reactor,
    ) -> Result<(Token, Arc<Ring>), RosError> {
        reply
            .with(SHM_FIELD, "1")
            .with(SHM_PUB_PID_FIELD, std::process::id().to_string())
            .with(SHM_FD_FIELD, self.link.ctrl_fd().to_string())
            .with(SHM_EPOCH_FIELD, self.link.epoch().to_string())
            .write_to(&mut stream)?;
        stream.set_nonblocking(true)?;
        counters.shm_handshakes.fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        let stream = Arc::new(stream);
        let doorbell = match self.notify {
            Some(token) => Doorbell::Notify(token),
            None => Doorbell::Socket(Arc::clone(&stream)),
        };
        let ring = Arc::new(Ring {
            pool: Arc::clone(self.link.pool()),
            link: Mutex::new(Some(self.link)),
            doorbell,
            alive: AtomicBool::new(true),
            counters: Arc::clone(counters),
            sub_pid: self.sub_pid,
        });
        let ctl = RingCtl {
            stream,
            ring: Arc::downgrade(&ring),
        };
        let token = reactor.register(fd, true, false, Box::new(ctl));
        Ok((token, ring))
    }
}

/// Whether the publisher's `reply` granted the tier: frames then arrive as
/// ring descriptors, not socket bytes.
pub(crate) fn granted(reply: &ConnectionHeader) -> bool {
    reply.get(SHM_FIELD) == Some("1")
}

/// The subscriber half of a granted link: attach to the ring `reply`
/// describes and read descriptors off it, with the handshake socket
/// `stream` — nonblocking — as the control plane. An attach denial latched
/// on the `loopback` link's fault injector stands in for the real-world
/// `/proc/<pid>/fd` denials that cannot be provoked deterministically in a
/// test.
///
/// # Errors
///
/// Any failure between the grant and a working reader: malformed grant
/// fields, the fd hand-off denied, an epoch mismatch from a recycled
/// publisher incarnation.
pub(crate) fn attach<D: Decode>(
    reply: &ConnectionHeader,
    stream: TcpStream,
    loopback: Option<Arc<FaultInjector>>,
) -> Result<impl Source<D>, RosError> {
    let field = |name: &str| -> Result<u64, RosError> {
        reply
            .get(name)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| RosError::Rejected(format!("malformed shm grant: bad `{name}` field")))
    };
    let pub_pid = field(SHM_PUB_PID_FIELD)? as u32;
    let (ctrl_fd, epoch) = (field(SHM_FD_FIELD)? as i32, field(SHM_EPOCH_FIELD)?);
    if loopback.is_some_and(|f| f.attach_denied()) {
        return Err(RosError::Io(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            "injected shm attach fault",
        )));
    }
    let shm = ShmReader::connect(pub_pid, ctrl_fd, epoch).map_err(RosError::Io)?;
    Ok(ShmSource {
        stream,
        shm,
        eof: false,
    })
}

/// Read what a control socket holds and say whether the peer's end is
/// gone: EOF or a hard error. Any bytes are doorbells — the subscriber
/// writes nothing after the handshake, so only its end ever reads any —
/// and carry no information beyond the wake-up that brought the caller
/// here; they are taken in bulk so the socket buffer never fills. Both ends
/// are watched level-triggered: whatever one read leaves behind (more
/// bytes, the EOF after them) raises the next event.
fn hung_up(mut stream: &TcpStream) -> bool {
    use std::io::ErrorKind::{Interrupted, WouldBlock};
    match stream.read(&mut [0u8; 256]) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(e.kind(), WouldBlock | Interrupted),
    }
}

/// Publisher half of one shared-memory link. The ring is single-producer,
/// so everything that touches it — `publish` on any clone of the
/// publisher, a gate's timer, teardown — goes through `link`.
pub(crate) struct Ring {
    /// `None` once the link is torn down.
    link: Mutex<Option<ShmLink>>,
    /// The publisher's segment pool, which `link` commits against.
    pool: Arc<SegmentPool>,
    doorbell: Doorbell,
    /// Cleared by `teardown`: the link's liveness, as its publisher sees it.
    alive: AtomicBool,
    /// The publisher's counters.
    counters: Arc<Counters>,
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
    /// The first half of a deposit on this ring: a descriptor against the
    /// publish's one shared segment, which the first ring of the publish to
    /// need it fills with one copy of `frame` (see `PubCore::fan_out`).
    /// `enqueue` spans publish entry (`entered`) to here and `wire_write`
    /// the copy, so the stages telescope as on every tier. `None`: no
    /// segment was free.
    #[inline]
    pub(crate) fn wrap(
        &self,
        trace: Option<&TopicTrace>,
        frame: &OutFrame,
        entered: u64,
        shared: &mut Option<Option<SharedFrame>>,
    ) -> Option<Parcel> {
        let tag = frame.trace();
        let table = trace.filter(|_| tag.id != 0);
        let mut sent_ns = 0;
        if let Some(table) = table {
            sent_ns = now_nanos();
            tracer().span(table, Stage::Enqueue, Tier::Shm, tag.id, entered, sent_ns);
        }
        let resolved = shared.get_or_insert_with(|| {
            let copy = self.pool.prepare_shared(frame.as_slice());
            // Only the link that copied has a copy stage to attribute; a
            // descriptor-only commit (every loaned publish) has none.
            if let (Some(table), Some(_)) = (table, &copy) {
                let t = now_nanos();
                tracer().span(table, Stage::WireWrite, Tier::Shm, tag.id, sent_ns, t);
                sent_ns = t;
            }
            copy
        });
        let Some(sf) = resolved.clone() else {
            // Pool exhausted: some slots may only look pinned because the
            // reader abandoned their references — settle those before the
            // next frame retries.
            if let Some(link) = &*self.link.lock() {
                link.reconcile_abandoned();
            }
            return None;
        };
        let meta = FrameMeta {
            trace_id: tag.id,
            sent_ns,
        };
        Some(Parcel::Shared(sf, meta))
    }

    /// Publish one descriptor; the ring's verdict is the deposit's. A
    /// subscriber that went idle on an armed ring gets its doorbell.
    #[inline]
    pub(crate) fn commit(&self, reactor: &Reactor, sf: SharedFrame, meta: FrameMeta) -> Deposit {
        let mut link = self.link.lock();
        let Some(link) = link.as_mut() else {
            return Deposit::Dead;
        };
        match link.commit_shared(&sf, meta) {
            PushOutcome::Pushed => {
                if link.disarm() {
                    self.doorbell.ring(reactor);
                }
                let counters = &self.counters;
                counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_sent
                    .fetch_add(sf.len() as u64, Ordering::Relaxed);
                counters.shm_frames.fetch_add(1, Ordering::Relaxed);
                // The push just loaded both ring indices; reading them
                // back is two cache-hot loads.
                counters.observe_queue_depth(link.pending());
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
    /// references, and mark the link dead. Idempotent — whoever takes the
    /// link out does the work and counts the disconnect.
    pub(crate) fn teardown(&self) {
        let Some(link) = self.link.lock().take() else {
            return;
        };
        // Release: pairs with the Acquire in `is_live`.
        self.alive.store(false, Ordering::Release);
        link.close();
        link.drain();
        link.reconcile_abandoned();
        self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
        if self.sub_pid != std::process::id() {
            let sub_pid = self.sub_pid;
            runtime()
                .pool
                .spawn(move || reclaim_when_gone(link, sub_pid, 0));
        }
    }

    /// Whether the link still lives: not torn down from either side.
    pub(crate) fn is_live(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Reactor handler for the publisher's end of a link's control socket: the
/// link ends when the subscriber's end is gone. A notify arrives when the
/// ring was torn down from the publisher's side (sever, publisher drop);
/// hanging up then tells the subscriber.
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
        if torn_down || hung_up(&self.stream) {
            if let Some(ring) = ring {
                ring.teardown();
            }
            let _ = self.stream.shutdown(Shutdown::Both);
            ctl.close();
        }
    }
}

/// The subscriber half as a reactor-driven source, registered under the
/// control socket: the publisher writes one byte on it when it commits into
/// a ring this side armed (a publisher in this same process notifies the
/// token instead), and EOF on it means the publisher is gone even if it
/// never managed to mark the ring closed (crash recovery).
struct ShmSource {
    stream: TcpStream,
    shm: ShmReader,
    /// The control socket reported EOF (or failed): no push will follow.
    eof: bool,
}

impl<D: Decode> Source<D> for ShmSource {
    fn wake(&mut self, event: Event) {
        if matches!(event, Event::Readable | Event::Closed) && hung_up(&self.stream) {
            self.eof = true;
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
        // A frame rejected by the verifier is dropped unadopted, which
        // releases its segment reference; the ring stays in sync. `sent_ns`
        // is on the host clock, so `wire_read` starts there whichever
        // process published.
        core.deliver(
            Tier::Shm,
            (Stage::WireRead, desc.trace_id, Some(desc.sent_ns)),
            frame.len(),
            frame,
            |frame| D::verify_frame(frame.as_slice()).is_ok(),
            D::from_mapped_frame,
        );
        Ok(Progress::Frame)
    }
}
