//! The TCP tier, both halves of a link: the publisher's [`TcpWriter`] and
//! the subscriber's [`TcpSource`], the field-projection grant between them,
//! and the wire machinery they share with services, one of each — the
//! [`Acceptor`] a listener runs behind, the two handshake halves
//! ([`accept_handshake`], [`dial`]), the nonblocking [`FrameReader`] that
//! reassembles `len ∥ payload` units, and the [`WriteQueue`] that drains
//! them to a socket. Reader and writer work over any `impl Read` /
//! `impl Write`, so tests (and in-memory byte pipes) can drive them without
//! a socket.
//!
//! A link is paced by the master's [`LinkTable`](rossf_netsim::LinkTable)
//! when its ends sit on different simulated machines: a frame drains into
//! the socket while the modelled link carries it, and only its last
//! [`PACE_TAIL`] bytes wait on a reactor timer for the link to finish. A
//! link whose two ends are both traced is granted a trace trailer in the
//! handshake ([`grant_trace`]): each frame is followed by its 16-byte
//! [`FrameMeta`], stamped when the trailer is first offered to a write, and
//! the source's `wire_read` span starts at that stamp — in this process or
//! another. Every other link's wire is `len ∥ payload`.

use crate::error::RosError;
use crate::metrics::Counters;
use crate::publisher::{Pop, QueueRx};
use crate::subscriber::{Progress, Source, SubCore};
use crate::traits::{Decode, RecvSlot};
use crate::wire::{
    frame_len_prefix, ConnectionHeader, OutFrame, MAX_FRAME_LEN, PROJECT_FIELD, TRACE_FIELD,
};
use rossf_netsim::{LinkProfile, Shaper};
use rossf_reactor::{Ctl, Event, Handler, Reactor, Token};
use rossf_sfm::{MessageSchema, Projection};
use rossf_trace::{now_nanos, tracer, FrameMeta, Stage, Tier, TopicTrace};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reactor handler for a listening socket: accepts ready connections and
/// hands each to `on_conn`, which must not block the shared loop (header
/// reads and shm link creation do, so owners spawn the handshake onto the
/// job pool). `on_conn` answering `false` means the owner is gone or
/// shutting down: the handler closes itself, dropping the listener — so it
/// should hold its owner weakly, or an orphaned acceptor keeps it alive.
pub(crate) struct Acceptor<F> {
    listener: TcpListener,
    on_conn: F,
}

impl<F: FnMut(TcpStream) -> bool + Send + 'static> Acceptor<F> {
    /// Put `listener` (already nonblocking) on `reactor`.
    pub(crate) fn register(reactor: &Reactor, listener: TcpListener, on_conn: F) -> Token {
        let fd = listener.as_raw_fd();
        reactor.register(fd, true, false, Box::new(Acceptor { listener, on_conn }))
    }
}

impl<F: FnMut(TcpStream) -> bool + Send + 'static> Handler for Acceptor<F> {
    fn on_event(&mut self, event: Event, ctl: &mut Ctl) {
        if matches!(event, Event::Closed) {
            ctl.close();
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if !(self.on_conn)(stream) {
                        ctl.close();
                        return;
                    }
                }
                // Drained — or a transient accept error (ECONNABORTED and
                // friends): the next readable event retries.
                Err(_) => return,
            }
        }
    }
}

/// Accepting side of the connection handshake, on a blocking socket: read
/// the peer's request header. A connector that never sends one must not pin
/// a pool worker, so the read is bounded by `timeout`; the header is read
/// *unbuffered* — header parsing does exact reads only — so no byte that
/// follows it is swallowed before the socket goes nonblocking.
pub(crate) fn accept_handshake(
    stream: &TcpStream,
    timeout: Duration,
) -> Result<ConnectionHeader, RosError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut io = stream;
    let header = ConnectionHeader::read_from(&mut io)?;
    stream.set_read_timeout(None)?;
    Ok(header)
}

/// Connecting side of the handshake: connect to `addr`, send `request`,
/// and judge the reply ([`ConnectionHeader::check_reply`]). A peer that
/// accepts the connection but never answers must not pin the caller, so
/// the reply read is bounded by `timeout` — and unbuffered, as in
/// [`accept_handshake`]. The socket comes back blocking, with no timeout
/// left on it.
pub(crate) fn dial(
    addr: SocketAddr,
    request: &ConnectionHeader,
    timeout: Duration,
) -> Result<(TcpStream, ConnectionHeader), RosError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // Grown before the handshake so the very first data frame already sees
    // full-size kernel buffers.
    grow_socket_buffers(&stream);
    stream.set_read_timeout(Some(timeout))?;
    let mut io = &stream;
    request.write_to(&mut io)?;
    let reply = ConnectionHeader::read_from(&mut io)?;
    reply.check_reply()?;
    stream.set_read_timeout(None)?;
    Ok((stream, reply))
}

/// Kernel socket buffer size requested for every data-path TCP link.
///
/// Nonblocking sockets move at most one kernel buffer per reactor round
/// trip (write → EAGAIN → EPOLLOUT → write), and TCP's *initial* buffers
/// are tens of kilobytes — a 6 MB frame would take hundreds of loop
/// iterations before auto-tuning catches up. Pre-sizing both directions
/// lets a paper-scale frame cross in a handful of syscalls. The kernel
/// clamps the request to `net.core.{w,r}mem_max`, and buffer memory is
/// only consumed by bytes actually queued, so idle links cost nothing.
const SOCK_BUF_BYTES: usize = 4 << 20;

/// Best-effort growth of `stream`'s kernel buffers to [`SOCK_BUF_BYTES`].
///
/// Failure is ignored: an untuned socket is slower, never incorrect.
pub(crate) fn grow_socket_buffers(stream: &TcpStream) {
    let _ = rossf_sys::set_socket_buffers(stream.as_raw_fd(), SOCK_BUF_BYTES);
}

/// The publisher's answer to a subscriber's field-projection `request`:
/// granted — and echoed back in the reply — only when the spec resolves
/// against the publisher's `schema` *and* is already canonical, so both
/// sides agree byte-for-byte on what was granted. Anything else, including
/// no request from a subscriber that predates projection, means full
/// frames. Only TCP links are projected: the zero-copy tiers always carry
/// the full frame.
pub(crate) fn grant_projection(
    request: &ConnectionHeader,
    schema: Option<&'static MessageSchema>,
) -> Option<Arc<Projection>> {
    let spec = request.get(PROJECT_FIELD)?;
    let projection = Projection::from_spec(schema?, spec).ok()?;
    (projection.spec() == spec).then(|| Arc::new(projection))
}

/// The publisher's answer to a subscriber's trace request: a trailer on
/// every frame only when the subscriber asked (`trace=1`) and this
/// publisher is `traced` too. The reply echoes the field exactly when this
/// says yes, and the subscriber reads only that exact echo as the grant, so
/// a peer that predates the field, or is untraced, gets untagged frames.
pub(crate) fn grant_trace(request: &ConnectionHeader, traced: bool) -> bool {
    traced && request.get(TRACE_FIELD) == Some("1")
}

/// Bound a length prefix taken off a socket, before anything is sized from
/// it: a corrupt or hostile prefix can claim up to 4 GiB.
pub(crate) fn check_frame_len(len: usize, max: usize) -> Result<usize, RosError> {
    if len > max {
        return Err(RosError::FrameTooLarge { len, max });
    }
    Ok(len)
}

/// Per-link read buffer. Small reads coalesce through it (one syscall
/// drains many small frames); payload remainders at least this large are
/// read straight into the receive slot, so big frames never pay a copy
/// through the buffer.
const READ_BUF: usize = 64 * 1024;

/// Frame-reassembly state for one nonblocking TCP link — which part of the
/// `len ∥ payload ∥ trailer` wire unit the next byte belongs to.
enum ReadState<D: Decode> {
    /// Accumulating the 4-byte little-endian length prefix.
    Prefix { prefix: [u8; 4], filled: usize },
    /// Accumulating a frame body straight into its receive slot, then its
    /// trailer (if the link has one) into the reader's `tail`: `filled`
    /// counts both.
    Body {
        slot: D::Slot,
        len: usize,
        filled: usize,
    },
    /// Discarding the body and trailer of a frame whose slot could not be
    /// allocated (oversized for the message type), to stay in sync with
    /// the stream.
    Skip { remaining: usize },
}

impl<D: Decode> ReadState<D> {
    /// On a frame boundary: the next byte starts a length prefix.
    const START: Self = ReadState::Prefix {
        prefix: [0; 4],
        filled: 0,
    };
}

/// What one [`FrameReader::advance`] call produced.
pub(crate) enum Step<D: Decode> {
    /// A complete `len`-byte body sits in its slot; `meta` is its trailer
    /// (all zeros on a link without one).
    Frame {
        slot: D::Slot,
        len: usize,
        meta: FrameMeta,
    },
    /// A frame within the transport cap but oversized for `D` arrived: no
    /// slot could be allocated, and its body and trailer are being skipped
    /// so the stream stays in sync. The frame still occupied a wire slot.
    Oversized,
    /// The stream ran dry mid-unit; the next readiness event resumes it.
    Idle,
    /// Clean EOF on a frame boundary.
    Eof,
}

/// Reassembles length-prefixed frames from a nonblocking byte stream
/// straight into their receive slots.
pub(crate) struct FrameReader<D: Decode> {
    state: ReadState<D>,
    /// Largest prefix accepted: [`MAX_FRAME_LEN`] on every socket, smaller
    /// in unit tests.
    max_frame_len: usize,
    /// Bytes of trailer after every body: [`FrameMeta::LEN`] on a link
    /// granted one, else 0.
    trailer: usize,
    /// The current frame's trailer bytes.
    tail: [u8; FrameMeta::LEN],
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

impl<D: Decode> FrameReader<D> {
    /// A reader of frames up to `max_frame_len` bytes, each followed by a
    /// `trailer` of 0 bytes (untraced links, services) or
    /// [`FrameMeta::LEN`].
    pub(crate) fn new(max_frame_len: usize, trailer: usize) -> Self {
        debug_assert!(trailer == 0 || trailer == FrameMeta::LEN);
        FrameReader {
            state: ReadState::START,
            max_frame_len,
            trailer,
            tail: [0; FrameMeta::LEN],
            rbuf: vec![0u8; READ_BUF].into_boxed_slice(),
            rpos: 0,
            rlen: 0,
            drained: false,
        }
    }

    /// A dispatch begins: the stream may have bytes again.
    pub(crate) fn wake(&mut self) {
        self.drained = false;
    }

    /// Make progress until a frame completes or the stream runs dry.
    ///
    /// # Errors
    ///
    /// [`RosError::FrameTooLarge`] for a prefix above the cap — a protocol
    /// violation, rejected before anything is allocated; the stream cannot
    /// be trusted to be in sync anymore. [`RosError::Io`] for a read
    /// failure or an EOF that truncates a frame.
    pub(crate) fn advance(&mut self, io: &mut impl Read) -> Result<Step<D>, RosError> {
        let trailer = self.trailer;
        loop {
            // Resolve completed states before demanding bytes, so
            // zero-length bodies and finished skips never stall waiting
            // for input that is not owed.
            match &mut self.state {
                ReadState::Body { len, filled, .. } if *filled == *len + trailer => {
                    let state = std::mem::replace(&mut self.state, ReadState::START);
                    let ReadState::Body { slot, len, .. } = state else {
                        unreachable!("checked Body above");
                    };
                    let meta = match trailer {
                        0 => FrameMeta::default(),
                        _ => FrameMeta::from_le_bytes(self.tail),
                    };
                    return Ok(Step::Frame { slot, len, meta });
                }
                ReadState::Skip { remaining } if *remaining == 0 => {
                    self.state = ReadState::START;
                    continue;
                }
                _ => {}
            }
            if self.rpos == self.rlen {
                if self.drained {
                    return Ok(Step::Idle);
                }
                // Large body remainders bypass the coalescing buffer: read
                // straight into the slot, no intermediate copy.
                let (dest, direct) = match &mut self.state {
                    ReadState::Body { slot, len, filled }
                        if len.saturating_sub(*filled) >= self.rbuf.len() =>
                    {
                        (&mut slot.as_mut_slice()[*filled..*len], true)
                    }
                    _ => (&mut self.rbuf[..], false),
                };
                let want = dest.len();
                let n = match io.read(dest) {
                    // Clean EOF only lands between frames; mid-frame it is
                    // a truncation.
                    Ok(0) => {
                        return match &self.state {
                            ReadState::Prefix { filled: 0, .. } => Ok(Step::Eof),
                            _ => Err(RosError::Io(std::io::Error::from(
                                std::io::ErrorKind::UnexpectedEof,
                            ))),
                        };
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(Step::Idle),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(RosError::Io(e)),
                };
                self.drained = n < want;
                match &mut self.state {
                    ReadState::Body { filled, .. } if direct => {
                        *filled += n;
                        continue;
                    }
                    _ => (self.rpos, self.rlen) = (0, n),
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
                    let len = check_frame_len(len, self.max_frame_len)?;
                    match D::new_slot(len) {
                        Ok(slot) => {
                            self.state = ReadState::Body {
                                slot,
                                len,
                                filled: 0,
                            };
                        }
                        Err(_) => {
                            self.state = ReadState::Skip {
                                remaining: len + trailer,
                            };
                            return Ok(Step::Oversized);
                        }
                    }
                }
                ReadState::Body { slot, len, filled } => {
                    let take = if *filled < *len {
                        let take = avail.len().min(*len - *filled);
                        slot.as_mut_slice()[*filled..*filled + take]
                            .copy_from_slice(&avail[..take]);
                        take
                    } else {
                        let at = *filled - *len;
                        let take = avail.len().min(trailer - at);
                        self.tail[at..at + take].copy_from_slice(&avail[..take]);
                        take
                    };
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
}

/// Most frames a writer wakeup admits into one socket flush. Bounds the
/// latency a freshly queued frame can hide behind a long batch while still
/// amortizing the per-wakeup syscall cost.
const WRITE_BATCH: usize = 32;

/// One frame admitted to the wire: its length prefix, payload, trace
/// trailer (on a granted link), and the trace bookkeeping captured at
/// admission.
pub(crate) struct Pending {
    frame: OutFrame,
    prefix: [u8; 4],
    /// The projected slice plan when this link negotiated a projection:
    /// the wire unit is then the plan's patched skeleton plus the selected
    /// content segments of `frame`, not the whole frame. `None` = full
    /// frame.
    plan: Option<rossf_sfm::SlicedFrame>,
    /// Payload bytes this frame occupies on the wire (the plan's sub-frame
    /// length, or the full frame length).
    wire_len: usize,
    /// When the modelled link has carried the frame's last byte to the
    /// receiver (`link start + transmit + latency`); `None` on an unshaped
    /// link, which then never reads a clock to write.
    due: Option<Instant>,
    /// Trace id (0 = untraced) and the wire-write span's start time.
    trace_id: u64,
    t_start: u64,
    /// On a link granted a trace trailer: the encoded [`FrameMeta`] that
    /// follows the payload. Written once, with `sent_ns`, the first time a
    /// write is offered any of it, so a partial write resends stable bytes.
    trailer: Option<[u8; FrameMeta::LEN]>,
    /// When the trailer was stamped (0 = not yet, or no trailer): the end
    /// of the `wire_write` span and the start of the reader's `wire_read`.
    sent_ns: u64,
}

/// What a paced frame holds back until its `due`: the last quantum, not the
/// frame. Everything before it goes to the socket at admission — cache-hot
/// from `publish`, which is when a real sender's `writev` copies a frame
/// into its socket buffer — so the two kernel copies of the hop overlap the
/// wire time instead of queuing behind it, while the receiver still cannot
/// complete the frame before the link model says its last byte arrived.
/// 64 KiB is one GSO burst, the unit a 10 GbE NIC hands the stack; a frame
/// no larger than this (every pose) is held whole.
pub(crate) const PACE_TAIL: usize = 64 * 1024;

impl Pending {
    /// `frame` as one wire unit — whole, or sliced to `plan` — unpaced and
    /// untraced until the caller says otherwise.
    ///
    /// # Errors
    ///
    /// [`RosError::FrameTooLarge`] for a payload the 4-byte prefix cannot
    /// describe.
    pub(crate) fn new(
        frame: OutFrame,
        plan: Option<rossf_sfm::SlicedFrame>,
    ) -> Result<Self, RosError> {
        let wire_len = plan.as_ref().map_or(frame.len(), |p| p.wire_len);
        Ok(Pending {
            prefix: frame_len_prefix(wire_len)?.to_le_bytes(),
            frame,
            plan,
            wire_len,
            due: None,
            trace_id: 0,
            t_start: 0,
            trailer: None,
            sent_ns: 0,
        })
    }

    /// Bytes on the wire: length prefix, payload and trailer.
    fn total(&self) -> usize {
        4 + self.wire_len + self.trailer.map_or(0, |t| t.len())
    }

    /// How many of the frame's leading bytes the link lets into the socket
    /// at `now()` — a clock only a paced frame reads.
    fn released(&self, now: impl FnOnce() -> Instant) -> usize {
        match self.due {
            Some(due) if now() < due => self.total().saturating_sub(PACE_TAIL),
            _ => self.total(),
        }
    }
}

/// Zero source for projected sub-frame alignment pads (at most 7 bytes
/// each, so one small constant serves every segment).
static PAD_ZEROS: [u8; 8] = [0; 8];

/// Slices offered to one vectored write: two per unprojected frame (prefix,
/// payload) for a full batch. A flush with more to say — projected frames
/// carry two more per content segment, a traced link's frames one more for
/// the trailer — offers what fits; the byte count the write returns is all
/// `flush` accounts by, so the rest simply goes out with the next call.
const WRITE_SLICES: usize = 2 * WRITE_BATCH;

/// A fixed, stack-held list of wire slices.
struct WireSlices<'a> {
    slices: [IoSlice<'a>; WRITE_SLICES],
    len: usize,
}

impl<'a> WireSlices<'a> {
    fn new() -> Self {
        WireSlices {
            slices: [IoSlice::new(&[]); WRITE_SLICES],
            len: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.len == WRITE_SLICES
    }

    fn as_slice(&self) -> &[IoSlice<'a>] {
        &self.slices[..self.len]
    }
}

/// One frame's offer to a vectored write: its wire bytes in order, less the
/// first `skip` (already on the wire from a previous partial write), up to
/// `budget` bytes (what the link has released beyond them) or a full `out`.
struct Offer<'o, 'a> {
    out: &'o mut WireSlices<'a>,
    skip: usize,
    budget: usize,
}

impl<'a> Offer<'_, 'a> {
    /// Whether any of the next `len` bytes would be offered.
    fn reaches(&self, len: usize) -> bool {
        self.skip < len && self.budget > 0 && !self.out.is_full()
    }

    fn emit(&mut self, bytes: &'a [u8]) {
        if !self.reaches(bytes.len()) {
            // Already written — or nothing more goes into this write.
            self.skip = self.skip.saturating_sub(bytes.len());
            return;
        }
        let take = (bytes.len() - self.skip).min(self.budget);
        let out = &mut *self.out;
        out.slices[out.len] = IoSlice::new(&bytes[self.skip..self.skip + take]);
        out.len += 1;
        self.skip = 0;
        self.budget -= take;
    }
}

/// Append `p`'s wire slices — length prefix, then payload: the whole frame,
/// or for a projected link the patched skeleton followed by each selected
/// content segment behind its alignment pad; then the trace trailer, if the
/// link has one — skipping the first `skip` bytes and stopping after
/// `budget` more or when `out` is full ([`Offer`]). The trailer is stamped
/// the first time any of it is offered.
fn push_wire_slices<'a>(out: &mut WireSlices<'a>, p: &'a mut Pending, skip: usize, budget: usize) {
    let Pending {
        frame,
        prefix,
        plan,
        trace_id,
        trailer,
        sent_ns,
        ..
    } = p;
    let mut offer = Offer { out, skip, budget };
    offer.emit(prefix);
    match plan {
        Some(plan) => {
            offer.emit(&plan.skeleton);
            let frame = frame.as_slice();
            for seg in &plan.segments {
                offer.emit(&PAD_ZEROS[..seg.pad]);
                offer.emit(&frame[seg.src.clone()]);
            }
        }
        None => offer.emit(frame.as_slice()),
    }
    if let Some(trailer) = trailer {
        if *sent_ns == 0 && offer.reaches(trailer.len()) {
            *sent_ns = now_nanos();
            let meta = FrameMeta {
                trace_id: *trace_id,
                sent_ns: *sent_ns,
            };
            *trailer = meta.to_le_bytes();
        }
        offer.emit(trailer);
    }
}

/// Outcome of one attempt to flush a [`WriteQueue`] to its socket.
pub(crate) enum Flush {
    /// Everything queued is on the wire.
    Drained,
    /// The socket would block; wait for writability.
    Blocked,
    /// The head frame's tail is held until the link has carried it; nothing
    /// more may be written before then.
    Held(Instant),
    /// The peer is gone (EOF on write or a hard error).
    Dead,
}

/// Frames admitted to one nonblocking socket and (possibly partially)
/// written: drained in vectored batches with no payload copy, resumable
/// after a partial write. Link shaping is cut-through: a frame whose `due`
/// lies ahead goes out at once except for its [`PACE_TAIL`], which waits
/// for that instant.
#[derive(Default)]
pub(crate) struct WriteQueue {
    /// Head first.
    frames: VecDeque<Pending>,
    /// Bytes of the head frame (prefix + payload) already on the wire.
    head_written: usize,
}

impl WriteQueue {
    pub(crate) fn push(&mut self, p: Pending) {
        self.frames.push_back(p);
    }

    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// One vectored write over everything the link has released, resuming
    /// the head frame at its partial-write offset. Frames are offered in
    /// stream order up to the first held tail; `done` sees each frame whose
    /// last byte hit the socket.
    pub(crate) fn flush(&mut self, io: &mut impl Write, mut done: impl FnMut(Pending)) -> Flush {
        while !self.frames.is_empty() {
            let wrote = {
                let mut slices = WireSlices::new();
                let mut skip = self.head_written;
                let mut held = None;
                // Read once per write, and only when a paced frame asks.
                let mut now = None;
                for p in self.frames.iter_mut() {
                    if slices.is_full() {
                        break;
                    }
                    let released = p.released(|| *now.get_or_insert_with(Instant::now));
                    let (total, due) = (p.total(), p.due);
                    push_wire_slices(&mut slices, p, skip, released.saturating_sub(skip));
                    skip = 0;
                    if released < total {
                        held = due;
                        break;
                    }
                }
                if let (0, Some(due)) = (slices.len, held) {
                    return Flush::Held(due);
                }
                io.write_vectored(slices.as_slice())
            };
            match wrote {
                Ok(0) => return Flush::Dead,
                Ok(mut n) => {
                    while n > 0 {
                        let head_len = match self.frames.front() {
                            Some(p) => p.total(),
                            None => break,
                        };
                        let remaining = head_len - self.head_written;
                        if n >= remaining {
                            n -= remaining;
                            self.head_written = 0;
                            done(self.frames.pop_front().expect("head frame exists"));
                        } else {
                            self.head_written += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Blocked,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Flush::Dead,
            }
        }
        Flush::Drained
    }
}

/// Admission batches one writer dispatch may process before yielding the
/// shared loop back (leftover frames re-notify the token), so a firehose
/// topic cannot starve other links.
const BATCHES_PER_DISPATCH: usize = 4;

/// The publisher half of a TCP link, on a socket that has answered the
/// handshake: a writer draining `rx` — the link's transmission queue — to
/// the socket, ready to register on the reactor. `profile` is the modelled
/// link between the two machines (unshaped within one), `projection` what
/// [`grant_projection`] granted and `trailer` what [`grant_trace`] did.
pub(crate) fn writer(
    stream: TcpStream,
    rx: QueueRx,
    counters: &Arc<Counters>,
    trace: Option<Arc<TopicTrace>>,
    projection: Option<Arc<Projection>>,
    trailer: bool,
    profile: LinkProfile,
) -> std::io::Result<impl Handler> {
    grow_socket_buffers(&stream);
    stream.set_nonblocking(true)?;
    Ok(TcpWriter {
        stream,
        rx,
        counters: Arc::clone(counters),
        trace,
        projection,
        trailer,
        shaper: Shaper::new(profile),
        writeq: WriteQueue::default(),
        pace_armed: None,
        want_writable: false,
        disconnected: false,
    })
}

/// Reactor handler for one TCP subscriber link. Frames arrive on the
/// bounded transmission queue (`fan_out` notifies the token after
/// depositing), pick up their enqueue/wire-write trace spans and, on a
/// link granted one, their trace trailer, and drain to the nonblocking socket
/// through a [`WriteQueue`]. Link shaping is cut-through: admission books
/// the modelled link for the frame and stamps when its last byte is `due`
/// at the receiver; the frame joins the write queue at once and only its
/// [`PACE_TAIL`] waits, on one reactor timer, for
/// that instant. The link contract is the model's: no frame completes at
/// the receiver before `link start + transmit + latency`, and back-to-back
/// frames leave at exactly link rate.
struct TcpWriter {
    stream: TcpStream,
    /// The link's transmission queue, and its liveness: the link's gate cuts
    /// it (an injected sever), and this writer's departure ends it.
    rx: QueueRx,
    /// The publisher's counters.
    counters: Arc<Counters>,
    trace: Option<Arc<TopicTrace>>,
    /// The field projection negotiated at handshake time: every frame on
    /// this link is sliced to the selected ranges before it hits the wire.
    /// `None` = full frames.
    projection: Option<Arc<Projection>>,
    /// The handshake granted a trace trailer: every frame carries one.
    trailer: bool,
    shaper: Shaper,
    /// Frames admitted and (possibly partially) written.
    writeq: WriteQueue,
    /// `due` of the held tail the outstanding pacing timer was armed for.
    /// Every publish notifies the writer, and each of those pumps finds the
    /// same tail held: comparing against this keeps it one timer per tail.
    pace_armed: Option<Instant>,
    /// Current writability interest, tracked to skip no-op updates.
    want_writable: bool,
    /// The transmission queue ended (publisher dropped): die once the tail
    /// drains.
    disconnected: bool,
}

impl Handler for TcpWriter {
    fn on_event(&mut self, event: Event, ctl: &mut Ctl) {
        // A cut link goes down like a yanked cable, with whatever it still
        // holds.
        if self.rx.is_cut() {
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
    /// Admit one frame: close its `enqueue` span, book the link for it,
    /// and queue it for writing.
    fn admit(&mut self, frame: OutFrame) {
        // Slice the frame down to the negotiated projection. Slicing fails
        // only when the frame violates its own schema (unreachable for
        // locally built messages): drop it rather than leak a full frame
        // onto a link whose reader verifies against the projected schema.
        let plan = match self.projection.as_deref() {
            Some(projection) => match projection.slice(frame.as_slice()) {
                Ok(plan) => Some(plan),
                Err(_) => {
                    self.counters.frames_dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            },
            None => None,
        };
        let tag = frame.trace();
        let mut pending = match Pending::new(frame, plan) {
            Ok(pending) => pending,
            // Unreachable in practice (`fan_out` bounds frames by
            // `MAX_FRAME_LEN`).
            Err(_) => {
                self.counters.frames_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if let (Some(table), true) = (self.trace.as_deref(), tag.id != 0) {
            let t = now_nanos();
            tracer().span(table, Stage::Enqueue, Tier::Tcp, tag.id, tag.enqueued_ns, t);
            (pending.trace_id, pending.t_start) = (tag.id, t);
        }
        if self.trailer {
            pending.trailer = Some([0; FrameMeta::LEN]);
        }
        // One reservation per frame, made at admission, so a queued burst
        // is booked back to back: the link latency once, plus the transmit
        // time of prefix, payload and trailer — the *wire* payload, so a
        // projected link is paced by what it actually transmits.
        let wait = self.shaper.profile().latency + self.shaper.reserve(pending.total());
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
                match self.rx.pop() {
                    Pop::Frame(frame) => self.admit(frame),
                    Pop::Empty => break,
                    Pop::Ended => {
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
        // Batch cap hit with frames still queued for the socket (every
        // round above that empties `writeq` returns): hand the loop back to
        // other links and reschedule ourselves.
        ctl.notify_self();
    }

    /// Flush the write queue to the socket; each frame whose last byte went
    /// out has its wire-write span closed and is counted sent. On a link
    /// with a trailer the span ends at the trailer's stamp, where the
    /// reader's `wire_read` begins: the last write's copy counts in the
    /// reader's span. Without one it ends now. `bytes_sent` counts payload
    /// bytes only.
    fn flush_writeq(&mut self) -> Flush {
        let (counters, trace) = (&*self.counters, self.trace.as_deref());
        self.writeq.flush(&mut &self.stream, |p| {
            if let (Some(table), true) = (trace, p.trace_id != 0) {
                let t1 = match p.sent_ns {
                    0 => now_nanos(),
                    sent_ns => sent_ns,
                };
                tracer().span(
                    table,
                    Stage::WireWrite,
                    Tier::Tcp,
                    p.trace_id,
                    p.t_start,
                    t1,
                );
            }
            counters.frames_sent.fetch_add(1, Ordering::Relaxed);
            counters
                .bytes_sent
                .fetch_add(p.wire_len as u64, Ordering::Relaxed);
            if p.plan.is_some() {
                counters.projection_frames.fetch_add(1, Ordering::Relaxed);
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

    /// Tear the link down: count the disconnect and drop out of the loop.
    /// Runs once: the close drops the handler, closing the socket and
    /// ending the queue for the publisher's pruners.
    fn die(&mut self, ctl: &mut Ctl) {
        self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
        ctl.close();
    }
}

/// The subscriber half of a TCP link, on the (nonblocking) socket that
/// `reply` answered the handshake on: a source reading frames of at most
/// [`MAX_FRAME_LEN`] bytes, projected when the reply echoed the
/// subscription's `projection`, and each followed by a trace trailer when
/// a `traced` subscription's `trace=1` was echoed — an exact echo is the
/// grant, anything else means full, untagged frames.
pub(crate) fn source<D: Decode>(
    stream: TcpStream,
    reply: &ConnectionHeader,
    projection: Option<&Projection>,
    traced: bool,
) -> impl Source<D> {
    let trailer = traced && reply.get(TRACE_FIELD) == Some("1");
    TcpSource {
        stream,
        projected: projection.is_some_and(|p| reply.get(PROJECT_FIELD) == Some(p.spec())),
        reader: FrameReader::new(MAX_FRAME_LEN, if trailer { FrameMeta::LEN } else { 0 }),
    }
}

/// The TCP tier's source: length-prefixed frames off a nonblocking socket,
/// reassembled by a [`FrameReader`] straight into their receive slots.
struct TcpSource<D: Decode> {
    stream: TcpStream,
    /// The publisher granted `SubCore::projection` for this link: frames
    /// are sliced sub-frames, verified with the projected verifier.
    projected: bool,
    reader: FrameReader<D>,
}

impl<D: Decode> Source<D> for TcpSource<D> {
    fn wake(&mut self, _event: Event) {
        self.reader.wake();
    }

    fn advance(&mut self, core: &SubCore<D>) -> Result<Progress, RosError> {
        match self.reader.advance(&mut &self.stream) {
            Ok(Step::Frame { slot, len, meta }) => {
                self.deliver(core, slot, len, meta);
                Ok(Progress::Frame)
            }
            Ok(Step::Oversized) => {
                core.count_decode_error();
                Ok(Progress::Frame)
            }
            Ok(Step::Idle) => Ok(Progress::Idle),
            Ok(Step::Eof) => Ok(Progress::Eof),
            Err(e) => {
                if matches!(e, RosError::FrameTooLarge { .. }) {
                    core.counters
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
    /// paper's Fig. 9 — verify (optional), finish, invoke the callback —
    /// under the trace id its trailer carried; the `wire_read` span starts
    /// at the writer's stamp.
    fn deliver(&mut self, core: &SubCore<D>, slot: D::Slot, len: usize, meta: FrameMeta) {
        // A projected link carries sub-frames: unselected fields are
        // deliberately zeroed, which the full verifier would accept but
        // the projected verifier additionally *requires* — so corrupt
        // leftovers in unselected pairs are caught, not adopted.
        let projection = core.projection.as_deref().filter(|_| self.projected);
        core.deliver(
            Tier::Tcp,
            (Stage::WireRead, meta.trace_id, Some(meta.sent_ns)),
            len,
            slot,
            |slot| match projection {
                Some(projection) => projection.verify_projected(slot.as_mut_slice()).is_ok(),
                None => D::verify_frame(slot.as_mut_slice()).is_ok(),
            },
            D::finish_slot,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::link_queue;
    use crate::traits::{TopicType, VecSlot};
    use crate::wire::tests::Rng;
    use crate::{
        Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions, TransportConfig,
    };
    use rossf_netsim::MachineId;
    use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
    use std::sync::atomic::AtomicU64;

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
        let (tx, rx) = link_queue(FRAMES);
        let counters = Arc::new(Counters::default());
        let timers = Arc::new(AtomicU64::new(0));
        let writer = TcpWriter {
            stream,
            rx,
            counters: Arc::clone(&counters),
            trace: None,
            projection: None,
            trailer: false,
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
            tx.push(OutFrame::owned(Arc::new(vec![0x5A; LEN])));
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
        assert_eq!(counters.snapshot().frames_sent, FRAMES as u64);
        let fired = timers.load(Ordering::Relaxed);
        assert!(
            (1..=FRAMES as u64).contains(&fired),
            "{fired} timer events for {FRAMES} paced frames"
        );
        reactor.shutdown();
    }

    fn pending(wire_len: usize, due: Option<Instant>) -> Pending {
        let frame = OutFrame::owned(Arc::new(vec![0xA5; wire_len]));
        let mut p = Pending::new(frame, None).unwrap();
        p.due = due;
        p
    }

    /// What the link has released of a frame: all but the last quantum
    /// before `due`, everything from `due` on; a frame no larger than the
    /// quantum is held whole, and an unshaped frame never is.
    #[test]
    fn a_paced_frame_releases_all_but_its_tail_until_due() {
        let due = Instant::now() + Duration::from_secs(3600);
        let (before, after) = (due - Duration::from_nanos(1), due + Duration::from_nanos(1));
        let big = pending(1 << 20, Some(due));
        assert_eq!(big.total(), 4 + (1 << 20));
        assert_eq!(big.released(|| before), big.total() - PACE_TAIL);
        assert_eq!(big.released(|| due), big.total());
        assert_eq!(big.released(|| after), big.total());

        for len in [0, 100, PACE_TAIL - 4] {
            let small = pending(len, Some(due));
            assert_eq!(small.released(|| before), 0, "len {len}: held whole");
            assert_eq!(small.released(|| due), small.total());
        }
        assert_eq!(pending(PACE_TAIL - 3, Some(due)).released(|| before), 1);
        let unshaped = pending(1 << 20, None);
        assert_eq!(
            unshaped.released(|| unreachable!("an unshaped frame reads no clock")),
            unshaped.total()
        );
    }

    /// The slice builder honours `skip` and `budget` together, across the
    /// prefix/payload boundary.
    #[test]
    fn wire_slices_stop_at_the_budget() {
        let mut p = pending(10, None);
        let mut offered = |skip, budget| {
            let mut out = WireSlices::new();
            push_wire_slices(&mut out, &mut p, skip, budget);
            out.as_slice().iter().map(|s| s.len()).collect::<Vec<_>>()
        };
        assert_eq!(offered(0, 14), [4, 10]);
        assert_eq!(offered(0, 6), [4, 2]);
        assert_eq!(offered(2, 1), [1]);
        assert_eq!(offered(6, 3), [3]);
        assert_eq!(offered(6, 0), [0usize; 0]);
    }

    /// Any bytes are a message.
    struct Raw;

    impl TopicType for Raw {
        fn topic_type() -> &'static str {
            "test/Raw"
        }
    }

    impl Decode for Raw {
        type Slot = VecSlot;

        fn new_slot(len: usize) -> Result<VecSlot, RosError> {
            Ok(VecSlot::new(len))
        }

        fn finish_slot(_: VecSlot) -> Result<Self, RosError> {
            Ok(Raw)
        }
    }

    /// A message type that must never get as far as a slot.
    struct Untouchable;

    impl TopicType for Untouchable {
        fn topic_type() -> &'static str {
            "test/Untouchable"
        }
    }

    impl Decode for Untouchable {
        type Slot = VecSlot;

        fn new_slot(len: usize) -> Result<VecSlot, RosError> {
            panic!("a slot of {len} bytes was sized from an unchecked prefix");
        }

        fn finish_slot(_: VecSlot) -> Result<Self, RosError> {
            unreachable!("no slot is ever handed out")
        }
    }

    /// A socket stand-in: hands out `data` stopping at every offset in
    /// `cuts` (ascending), then reports EOF. Records the largest buffer it
    /// was offered.
    struct Chunked<'a> {
        data: &'a [u8],
        pos: usize,
        cuts: &'a [usize],
        widest_offer: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            // A body remainder below the buffer's size coalesces through
            // it: no read is ever issued for less.
            assert!(buf.len() >= READ_BUF, "a {}-byte read", buf.len());
            self.widest_offer = self.widest_offer.max(buf.len());
            let next = self.cuts.partition_point(|&c| c <= self.pos);
            let stop = self.cuts.get(next).copied();
            let n = (stop.unwrap_or(self.data.len()) - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn stream_of(frames: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for frame in frames {
            crate::wire::write_frame(&mut wire, frame).unwrap();
        }
        wire
    }

    /// What a reader produced, in order: a frame with its trailer, or
    /// `None` for an oversized one it skipped.
    type Tagged = Vec<Option<(Vec<u8>, FrameMeta)>>;

    /// Run a reader over `data` arriving in the pieces `cuts` dictates, one
    /// dispatch per piece, to its end; what it produced and the largest
    /// read it issued. Every frame carries a `trailer`-byte tag.
    fn reassemble_tagged<D: Decode<Slot = VecSlot>>(
        data: &[u8],
        cuts: &[usize],
        max_frame_len: usize,
        trailer: usize,
    ) -> Result<(Tagged, usize), RosError> {
        let mut reader = FrameReader::<D>::new(max_frame_len, trailer);
        let mut io = Chunked {
            data,
            pos: 0,
            cuts,
            widest_offer: 0,
        };
        let mut frames = Vec::new();
        loop {
            reader.wake();
            match reader.advance(&mut io)? {
                Step::Frame { slot, len, meta } => {
                    assert_eq!(slot.as_slice().len(), len);
                    frames.push(Some((slot.into_bytes(), meta)));
                }
                Step::Idle => {}
                Step::Oversized => frames.push(None),
                Step::Eof => return Ok((frames, io.widest_offer)),
            }
        }
    }

    /// [`reassemble_tagged`] on an untraced link, where no frame is
    /// oversized for its type: the bodies.
    fn reassemble<D: Decode<Slot = VecSlot>>(
        data: &[u8],
        cuts: &[usize],
        max_frame_len: usize,
    ) -> Result<(Vec<Vec<u8>>, usize), RosError> {
        let (tagged, widest) = reassemble_tagged::<D>(data, cuts, max_frame_len, 0)?;
        let frames = tagged.into_iter().map(|frame| {
            let (body, meta) = frame.expect("no frame here is oversized for its type");
            assert_eq!(meta, FrameMeta::default(), "an untraced link has no tags");
            body
        });
        Ok((frames.collect(), widest))
    }

    /// Pins existing behaviour: however a valid stream is split — at every
    /// byte boundary, plus up to three random cuts — the same frames come
    /// out, a zero-length one included. The big frame straddles the
    /// coalescing/direct-read boundary: a remainder of at least
    /// [`READ_BUF`] is read straight into the slot (the one read wider
    /// than the buffer), anything less goes through the buffer.
    #[test]
    fn any_split_of_a_stream_reassembles_to_the_same_frames() {
        let mut rng = Rng(0x5EC7_10F5_2022);
        let big: Vec<u8> = (0..READ_BUF + 5).map(|_| rng.next_u64() as u8).collect();
        let frames: [&[u8]; 3] = [&[1, 2, 3], &big, &[]];
        let wire = stream_of(&frames);
        let mut direct_reads = 0;
        for at in 1..wire.len() {
            let mut cuts = vec![at];
            cuts.extend((0..rng.below(4)).map(|_| 1 + rng.below(wire.len() - 1)));
            cuts.sort_unstable();
            let (got, widest) = reassemble::<Raw>(&wire, &cuts, 1 << 20).unwrap();
            assert!(got.iter().map(Vec::as_slice).eq(frames), "cuts {cuts:?}");
            assert!(widest <= big.len(), "cuts {cuts:?}: a {widest}-byte read");
            direct_reads += usize::from(widest > READ_BUF);
        }
        assert!(
            direct_reads > 0,
            "no split left a remainder to read directly"
        );
    }

    /// A prefix above the cap is refused on the prefix alone — the message
    /// type here panics if asked for a slot — and the cap itself is
    /// inclusive.
    #[test]
    fn an_oversized_prefix_is_refused_before_any_slot_is_allocated() {
        const MAX: usize = 1024;
        for claimed in [MAX as u32 + 1, u32::MAX] {
            let mut wire = claimed.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0xEE; 64]);
            match reassemble::<Untouchable>(&wire, &[], MAX) {
                Err(RosError::FrameTooLarge { len, max }) => {
                    assert_eq!((len, max), (claimed as usize, MAX));
                }
                other => panic!("prefix {claimed}: {:?}", other.map(|(f, _)| f.len())),
            }
        }
        let wire = stream_of(&[&[7; MAX]]);
        let (got, _) = reassemble::<Raw>(&wire, &[], MAX).unwrap();
        assert_eq!(got, [vec![7; MAX]]);
    }

    /// EOF on a frame boundary ends the stream cleanly with every frame
    /// before it delivered; anywhere else — mid-prefix or mid-body — it is
    /// a truncation.
    #[test]
    fn eof_is_clean_only_on_a_frame_boundary() {
        let frames: [&[u8]; 3] = [&[1, 2, 3], &[9; 300], &[]];
        let wire = stream_of(&frames);
        let boundaries = [0, 7, 311, 315];
        assert_eq!(wire.len(), 315);
        for end in 0..=wire.len() {
            let result = reassemble::<Raw>(&wire[..end], &[], 1 << 20);
            match boundaries.iter().position(|&b| b == end) {
                Some(whole) => assert_eq!(result.unwrap().0.len(), whole, "eof at {end}"),
                None => match result {
                    Err(RosError::Io(e)) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "eof at {end}");
                    }
                    other => panic!("eof at {end}: {:?}", other.map(|(f, _)| f.len())),
                },
            }
        }
    }

    /// `frames` as a traced link carries them: `len ∥ payload ∥ tag`.
    fn tagged_stream_of(frames: &[(&[u8], FrameMeta)]) -> Vec<u8> {
        let mut wire = Vec::new();
        for (frame, meta) in frames {
            crate::wire::write_frame(&mut wire, frame).unwrap();
            wire.extend_from_slice(&meta.to_le_bytes());
        }
        wire
    }

    fn tag(trace_id: u64) -> FrameMeta {
        FrameMeta {
            trace_id,
            sent_ns: trace_id.wrapping_add(1_000_000),
        }
    }

    /// A traced stream fed one byte per read, and in random chunkings,
    /// yields the same frames with the same tags — a zero-length body and
    /// one that straddles the direct-read boundary included.
    #[test]
    fn a_traced_stream_reassembles_to_the_same_frames_and_tags_however_split() {
        let mut rng = Rng(0x7A11_E125_2022);
        let big: Vec<u8> = (0..READ_BUF + 5).map(|_| rng.next_u64() as u8).collect();
        let frames: [(&[u8], FrameMeta); 4] = [
            (&[1, 2, 3], tag(1)),
            (&big, tag(2)),
            (&[], tag(3)),
            (&[9; 40], tag(u64::MAX)),
        ];
        let want: Tagged = frames.iter().map(|(f, m)| Some((f.to_vec(), *m))).collect();
        let wire = tagged_stream_of(&frames);
        let every_byte: Vec<usize> = (1..wire.len()).collect();
        let (got, _) =
            reassemble_tagged::<Raw>(&wire, &every_byte, 1 << 20, FrameMeta::LEN).unwrap();
        assert_eq!(got, want, "one byte per read");
        for round in 0..300 {
            let mut cuts: Vec<usize> = (0..1 + rng.below(6))
                .map(|_| 1 + rng.below(wire.len() - 1))
                .collect();
            cuts.sort_unstable();
            let (got, _) = reassemble_tagged::<Raw>(&wire, &cuts, 1 << 20, FrameMeta::LEN).unwrap();
            assert_eq!(got, want, "round {round}, cuts {cuts:?}");
        }
    }

    /// Bytes, but nothing longer than [`Tiny::MAX`].
    struct Tiny;

    impl Tiny {
        const MAX: usize = 8;
    }

    impl TopicType for Tiny {
        fn topic_type() -> &'static str {
            "test/Tiny"
        }
    }

    impl Decode for Tiny {
        type Slot = VecSlot;

        fn new_slot(len: usize) -> Result<VecSlot, RosError> {
            if len > Tiny::MAX {
                return Err(RosError::FrameTooLarge {
                    len,
                    max: Tiny::MAX,
                });
            }
            Ok(VecSlot::new(len))
        }

        fn finish_slot(_: VecSlot) -> Result<Self, RosError> {
            Ok(Tiny)
        }
    }

    /// A frame within the transport cap but too big for the type is skipped
    /// together with its trailer, wherever the stream is cut, and the frame
    /// after it arrives whole with its own tag.
    #[test]
    fn an_oversized_frame_is_skipped_with_its_trailer() {
        let frames: [(&[u8], FrameMeta); 3] = [
            (&[1, 2, 3, 4], tag(1)),
            (&[0xEE; 100], tag(2)),
            (&[5, 6, 7], tag(3)),
        ];
        let wire = tagged_stream_of(&frames);
        let want: Tagged = vec![
            Some((vec![1, 2, 3, 4], tag(1))),
            None,
            Some((vec![5, 6, 7], tag(3))),
        ];
        for at in 0..wire.len() {
            let (got, _) =
                reassemble_tagged::<Tiny>(&wire, &[at], 1 << 20, FrameMeta::LEN).unwrap();
            assert_eq!(got, want, "cut at {at}");
        }
    }

    /// A socket stand-in that takes at most `chunk` bytes per write.
    struct Trickle {
        wire: Vec<u8>,
        chunk: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Frames with trailers, a zero-length payload among them, written a few
    /// bytes per call: each trailer is stamped once, when first offered, so
    /// the bytes resent after a partial write agree with the stamp the
    /// writer's span ends at — and the reader gets every frame and tag back.
    #[test]
    fn a_zero_length_payload_with_a_trailer_round_trips_through_partial_writes() {
        let payloads: [&[u8]; 3] = [&[], &[7; 33], &[]];
        for chunk in [1, 3, 16, 1000] {
            let mut queue = WriteQueue::default();
            for (i, payload) in payloads.iter().enumerate() {
                let mut p =
                    Pending::new(OutFrame::owned(Arc::new(payload.to_vec())), None).unwrap();
                p.trace_id = 10 + i as u64;
                p.trailer = Some([0; FrameMeta::LEN]);
                assert_eq!(p.total(), 4 + payload.len() + FrameMeta::LEN);
                queue.push(p);
            }
            let mut io = Trickle {
                wire: Vec::new(),
                chunk,
            };
            let mut stamps = Vec::new();
            let before = now_nanos();
            assert!(matches!(
                queue.flush(&mut io, |p| stamps.push((p.trace_id, p.sent_ns))),
                Flush::Drained
            ));
            let (got, _) =
                reassemble_tagged::<Raw>(&io.wire, &[], 1 << 20, FrameMeta::LEN).unwrap();
            assert_eq!(got.len(), payloads.len(), "chunk {chunk}");
            for ((frame, payload), (trace_id, sent_ns)) in got.iter().zip(payloads).zip(stamps) {
                let (body, meta) = frame.as_ref().expect("fits");
                assert_eq!(body.as_slice(), payload);
                assert_eq!(*meta, FrameMeta { trace_id, sent_ns }, "chunk {chunk}");
                assert!(sent_ns >= before, "chunk {chunk}: stamped during the flush");
            }
        }
    }

    /// An SFM message type for the links below.
    #[repr(C)]
    struct Tagged64 {
        data: SfmVec<u8>,
    }
    // SAFETY: one `SfmVec`, `repr(C)`, all-zero valid.
    unsafe impl SfmPod for Tagged64 {}
    impl SfmValidate for Tagged64 {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.data.validate_in(base, len)
        }
    }
    // SAFETY: `Tagged64` is an `SfmPod` whose offsets stay in its buffer.
    unsafe impl SfmMessage for Tagged64 {
        fn type_name() -> &'static str {
            "test/Tagged64"
        }
        fn max_size() -> usize {
            256
        }
    }

    fn tagged64(seq: u8) -> SfmBox<Tagged64> {
        let mut m = SfmBox::<Tagged64>::new();
        m.data.resize(64);
        for (i, b) in m.data.iter_mut().enumerate() {
            *b = seq.wrapping_add(i as u8);
        }
        m
    }

    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "timeout waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn tcp_only() -> TransportConfig {
        TransportConfig {
            enable_fastpath: false,
            ..TransportConfig::default()
        }
    }

    /// A publisher of `topic` that this process does not know as one — the
    /// subscriber dials `addr` like a remote peer's.
    fn remote_master(topic: &str, addr: SocketAddr) -> Master {
        let master = Master::new();
        master
            .register_publisher(topic, Tagged64::type_name(), addr, MachineId::A)
            .unwrap();
        master
    }

    /// Relay one connection between a subscriber and `upstream`, recording
    /// every byte the publisher sends. Joins to the recording once both
    /// ends have closed.
    fn recording_proxy(upstream: SocketAddr) -> (SocketAddr, std::thread::JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let relay = std::thread::spawn(move || {
            let (down, _) = listener.accept().unwrap();
            let up = TcpStream::connect(upstream).unwrap();
            let (mut up_rx, mut down_tx) = (up.try_clone().unwrap(), down.try_clone().unwrap());
            let recorder = std::thread::spawn(move || {
                let (mut seen, mut buf) = (Vec::new(), [0u8; 4096]);
                while let Ok(n @ 1..) = up_rx.read(&mut buf) {
                    seen.extend_from_slice(&buf[..n]);
                    if down_tx.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                let _ = down_tx.shutdown(Shutdown::Both);
                seen
            });
            let _ = std::io::copy(&mut &down, &mut &up);
            let _ = up.shutdown(Shutdown::Both);
            recorder.join().unwrap()
        });
        (addr, relay)
    }

    /// The trailer is granted only when both ends are traced, over forced
    /// TCP: only that link's frames carry one, an untraced link's bytes
    /// are exactly `len ∥ payload`, and `bytes_sent` counts payload only —
    /// equal in all four cases.
    #[test]
    fn only_a_traced_pair_is_granted_the_trailer() {
        const FRAMES: u8 = 5;
        let mut bytes_sent = Vec::new();
        for (pub_traced, sub_traced) in [(false, false), (true, false), (false, true), (true, true)]
        {
            let topic = format!("trailer/grant/{pub_traced}/{sub_traced}");
            let pub_master = Master::new();
            let nh_pub = NodeHandle::with_config(&pub_master, "pub", MachineId::A, tcp_only());
            let publisher: Publisher<SfmBox<Tagged64>> = nh_pub.advertise_with(
                &topic,
                PublisherOptions::new().queue_size(16).trace(pub_traced),
            );
            let (proxy, recording) = recording_proxy(publisher.addr());
            let sub_master = remote_master(&topic, proxy);
            let nh_sub = NodeHandle::with_config(&sub_master, "sub", MachineId::A, tcp_only());
            let received = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let sink = Arc::clone(&received);
            let sub = nh_sub.subscribe_with(
                &topic,
                SubscriberOptions::new().trace(sub_traced),
                move |m: SfmShared<Tagged64>| sink.lock().push(m.as_bytes().to_vec()),
            );
            nh_pub.wait_for_subscribers(&publisher, 1);
            for seq in 0..FRAMES {
                publisher.publish(&tagged64(seq));
            }
            wait_for(&topic, || received.lock().len() == FRAMES as usize);
            bytes_sent.push(publisher.stats().bytes_sent);
            drop(sub);
            let wire = recording.join().unwrap();

            let granted = pub_traced && sub_traced;
            let mut rest = &wire[..];
            let reply = ConnectionHeader::read_from(&mut rest).unwrap();
            assert_eq!(reply.get(TRACE_FIELD), granted.then_some("1"), "{topic}");
            let mut want = Vec::new();
            for payload in received.lock().iter() {
                crate::wire::write_frame(&mut want, payload).unwrap();
                if granted {
                    let at = want.len();
                    want.extend_from_slice(&rest[at..at + FrameMeta::LEN]);
                    let meta = FrameMeta::from_le_bytes(want[at..].try_into().unwrap());
                    assert_ne!(meta.trace_id, 0, "{topic}: a traced frame's tag");
                    assert_ne!(meta.sent_ns, 0, "{topic}: a stamped tag");
                }
            }
            assert_eq!(rest, want, "{topic}: the recorded wire");
            if granted {
                let read = tracer()
                    .events()
                    .into_iter()
                    .filter(|e| &*e.topic == topic.as_str() && e.stage == Stage::WireRead);
                assert_eq!(
                    read.count(),
                    FRAMES as usize,
                    "{topic}: every frame attributed"
                );
            }
        }
        assert!(
            bytes_sent.iter().all(|&b| b == bytes_sent[0]),
            "{bytes_sent:?}"
        );
    }

    /// A peer's `sent_ns` is trusted for nothing but a saturating
    /// subtraction: a stamp of 0 or `u64::MAX` records a `wire_read` span
    /// clamped at the reader's clock, and delivery goes on.
    #[test]
    fn a_hostile_sent_ns_records_a_saturated_span() {
        const TOPIC: &str = "trailer/hostile";
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let master = remote_master(TOPIC, listener.local_addr().unwrap());
        let stamps = [0, u64::MAX];
        let payload = crate::traits::Encode::encode(&tagged64(0))
            .as_slice()
            .to_vec();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = ConnectionHeader::read_from(&mut stream).unwrap();
            assert_eq!(
                request.get(TRACE_FIELD),
                Some("1"),
                "a traced subscriber asks"
            );
            ConnectionHeader::new()
                .with("type", Tagged64::type_name())
                .with(TRACE_FIELD, "1")
                .write_to(&mut stream)
                .unwrap();
            for (i, sent_ns) in stamps.into_iter().enumerate() {
                crate::wire::write_frame(&mut stream, &payload).unwrap();
                let meta = FrameMeta {
                    trace_id: 0xBAD0 + i as u64,
                    sent_ns,
                };
                stream.write_all(&meta.to_le_bytes()).unwrap();
            }
            let _ = stream.read(&mut [0u8; 1]); // until the subscriber hangs up
        });
        let nh = NodeHandle::with_config(&master, "sub", MachineId::A, tcp_only());
        let seen = Arc::new(AtomicU64::new(0));
        let seen_cb = Arc::clone(&seen);
        let sub = nh.subscribe_with(
            TOPIC,
            SubscriberOptions::new().trace(true),
            move |_: SfmShared<Tagged64>| {
                seen_cb.fetch_add(1, Ordering::SeqCst);
            },
        );
        wait_for("both hostile frames", || seen.load(Ordering::SeqCst) == 2);
        drop(sub);
        peer.join().unwrap();
        let read: Vec<_> = tracer()
            .events()
            .into_iter()
            .filter(|e| &*e.topic == TOPIC && e.stage == Stage::WireRead)
            .collect();
        assert_eq!(read.len(), 2);
        for (e, sent_ns) in read.iter().zip(stamps) {
            assert_eq!(e.ts_ns - e.dur_ns, sent_ns.min(e.ts_ns), "{e:?}");
        }
    }
}
