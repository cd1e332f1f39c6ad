//! The TCP tier's wire machinery, one of each, shared by topics and
//! services: the [`Acceptor`] a listener runs behind, the two handshake
//! halves ([`accept_handshake`], [`dial`]), the nonblocking [`FrameReader`]
//! that reassembles `len ∥ payload` units, and the [`WriteQueue`] that
//! drains them to a socket. Reader and writer work over any `impl Read` /
//! `impl Write`, so tests (and in-memory byte pipes) can drive them without
//! a socket.

use crate::error::RosError;
use crate::traits::{Decode, RecvSlot};
use crate::wire::{frame_len_prefix, grow_socket_buffers, ConnectionHeader, OutFrame};
use rossf_reactor::{Ctl, Event, Handler, Reactor, Token};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
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

impl<D: Decode> ReadState<D> {
    /// On a frame boundary: the next byte starts a length prefix.
    const START: Self = ReadState::Prefix {
        prefix: [0; 4],
        filled: 0,
    };
}

/// What one [`FrameReader::advance`] call produced.
pub(crate) enum Step<D: Decode> {
    /// A complete `len`-byte body sits in its slot.
    Frame { slot: D::Slot, len: usize },
    /// A frame within the transport cap but oversized for `D` arrived: no
    /// slot could be allocated, and its body is being skipped so the stream
    /// stays in sync. The frame still occupied a wire slot.
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
    /// Largest prefix accepted (`TransportConfig::max_frame_len`).
    max_frame_len: usize,
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
    pub(crate) fn new(max_frame_len: usize) -> Self {
        FrameReader {
            state: ReadState::START,
            max_frame_len,
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
        loop {
            // Resolve completed states before demanding bytes, so
            // zero-length bodies and finished skips never stall waiting
            // for input that is not owed.
            match &mut self.state {
                ReadState::Body { len, filled, .. } if *filled == *len => {
                    let state = std::mem::replace(&mut self.state, ReadState::START);
                    let ReadState::Body { slot, len, .. } = state else {
                        unreachable!("checked Body above");
                    };
                    return Ok(Step::Frame { slot, len });
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
                    ReadState::Body { slot, len, filled } if *len - *filled >= self.rbuf.len() => {
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
                            self.state = ReadState::Skip { remaining: len };
                            return Ok(Step::Oversized);
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
}

/// Most frames a writer wakeup admits into one socket flush. Bounds the
/// latency a freshly queued frame can hide behind a long batch while still
/// amortizing the per-wakeup syscall cost.
pub(crate) const WRITE_BATCH: usize = 32;

/// One frame admitted to the wire: its length prefix, payload, and the
/// trace bookkeeping captured at admission.
pub(crate) struct Pending {
    frame: OutFrame,
    prefix: [u8; 4],
    /// The projected slice plan when this link negotiated a projection:
    /// the wire unit is then the plan's patched skeleton plus the selected
    /// content segments of `frame`, not the whole frame. `None` = full
    /// frame.
    pub(crate) plan: Option<rossf_sfm::SlicedFrame>,
    /// Payload bytes this frame occupies on the wire (the plan's sub-frame
    /// length, or the full frame length).
    pub(crate) wire_len: usize,
    /// When the modelled link has carried the frame's last byte to the
    /// receiver (`link start + transmit + latency`); `None` on an unshaped
    /// link, which then never reads a clock to write.
    pub(crate) due: Option<Instant>,
    /// Trace id (0 = untraced) and the wire-write span's start time.
    pub(crate) trace_id: u64,
    pub(crate) t_start: u64,
    /// Position of this frame in the socket's wire order — the sidecar key
    /// the subscriber-side reader settles against.
    pub(crate) seq: u64,
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
            seq: 0,
        })
    }

    /// Bytes on the wire: length prefix plus payload.
    fn total(&self) -> usize {
        4 + self.wire_len
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
/// carry two more per content segment — offers what fits; the byte count
/// the write returns is all `flush` accounts by, so the rest simply goes
/// out with the next call.
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

/// Append `p`'s wire slices — length prefix, then payload: the whole frame,
/// or for a projected link the patched skeleton followed by each selected
/// content segment behind its alignment pad — skipping the first `skip`
/// bytes (already on the wire from a previous partial write) and stopping
/// after `budget` bytes (what the link has released beyond them) or when
/// `out` is full.
fn push_wire_slices<'a>(
    out: &mut WireSlices<'a>,
    p: &'a Pending,
    mut skip: usize,
    mut budget: usize,
) {
    let mut emit = |bytes: &'a [u8]| {
        if skip >= bytes.len() {
            skip -= bytes.len();
        } else if budget > 0 && !out.is_full() {
            let take = (bytes.len() - skip).min(budget);
            out.slices[out.len] = IoSlice::new(&bytes[skip..skip + take]);
            out.len += 1;
            skip = 0;
            budget -= take;
        }
    };
    emit(&p.prefix);
    match &p.plan {
        Some(plan) => {
            emit(&plan.skeleton);
            let frame = p.frame.as_slice();
            for seg in &plan.segments {
                emit(&PAD_ZEROS[..seg.pad]);
                emit(&frame[seg.src.clone()]);
            }
        }
        None => emit(p.frame.as_slice()),
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
                for p in &self.frames {
                    if slices.is_full() {
                        break;
                    }
                    let released = p.released(|| *now.get_or_insert_with(Instant::now));
                    push_wire_slices(&mut slices, p, skip, released.saturating_sub(skip));
                    skip = 0;
                    if released < p.total() {
                        held = p.due;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{TopicType, VecSlot};
    use crate::wire::tests::Rng;
    use std::sync::Arc;

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
        let p = pending(10, None);
        let offered = |skip, budget| {
            let mut out = WireSlices::new();
            push_wire_slices(&mut out, &p, skip, budget);
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
            let stop = self.cuts.iter().copied().find(|&c| c > self.pos);
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

    /// Run a reader over `data` arriving in the pieces `cuts` dictates, one
    /// dispatch per piece, to its end; the frames it produced and the
    /// largest read it issued.
    fn reassemble<D: Decode<Slot = VecSlot>>(
        data: &[u8],
        cuts: &[usize],
        max_frame_len: usize,
    ) -> Result<(Vec<Vec<u8>>, usize), RosError> {
        let mut reader = FrameReader::<D>::new(max_frame_len);
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
                Step::Frame { slot, len } => {
                    assert_eq!(slot.as_slice().len(), len);
                    frames.push(slot.into_bytes());
                }
                Step::Idle => {}
                Step::Oversized => panic!("no frame here is oversized for its type"),
                Step::Eof => return Ok((frames, io.widest_offer)),
            }
        }
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
}
