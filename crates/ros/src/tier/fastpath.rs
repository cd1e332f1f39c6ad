//! Zero-copy same-machine fast path (the intra-process transport tier).
//!
//! When the master resolves a subscription whose publisher endpoint lives
//! on the same simulated machine *within the same process*, the subscriber
//! attaches to the publisher's transmission queue directly — a call on the
//! publisher core its endpoint carries as a local port, with its type name
//! and the reactor token of the handler that will drain the queue. `publish` deposits the encoded [`OutFrame`](crate::OutFrame) — for
//! serialization-free messages, a refcount-managed buffer pointer
//! ([`rossf_sfm::PublishedBuffer`]) — and notifies that handler, which
//! drains the queue on the loop thread and adopts that very allocation via
//! [`Decode::from_local_frame`]. No socket, no kernel copies, no
//! re-materialization: publisher and subscriber observe the *same* bytes,
//! `Published → Destructed` governed purely by the buffer refcount (paper
//! §4.2).
//!
//! The node's [`TransportConfig::enable_fastpath`](crate::TransportConfig)
//! guards the tier: either side opting out falls back to TCP transparently,
//! producing byte-identical frames. The attach is admitted exactly like a
//! TCP handshake (type check, a severed loopback link refuses it
//! transiently), and the fast path keeps the TCP path's invariants — the
//! loopback [`FaultInjector`](rossf_netsim::FaultInjector) applies where the
//! frame enters the link, through the publisher's one fault gate, exactly as
//! on TCP; the publisher's queue size bounds the link with `frames_dropped`
//! accounting, and the node's `validate_on_receive` runs when enabled. A
//! capture tap attaches the same way, to a link with no gate.

use crate::error::RosError;
use crate::metrics::Counters;
use crate::publisher::{Pop, QueueRx};
use crate::subscriber::{Progress, Source, SubCore};
use crate::traits::Decode;
use rossf_trace::{Stage, Tier};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The subscriber half of a fast-path link: a source draining `queue`, the
/// drainer's half of the transmission queue a same-process attach made,
/// counting each frame's send into its publisher's `counters`.
pub(crate) fn source<D: Decode>(queue: QueueRx, counters: Arc<Counters>) -> impl Source<D> {
    FastSource { queue, counters }
}

/// The fast path's source. Dropping it ends the link, so the publisher's
/// `subscriber_count` and pruning see the detach the moment the draining
/// handler goes.
struct FastSource {
    queue: QueueRx,
    /// The publisher's counters: the link has no writer, so the send is
    /// counted here, at delivery.
    counters: Arc<Counters>,
}

/// Frames are adopted via [`Decode::from_local_frame`] — for
/// serialization-free messages the subscriber object points at the
/// publisher's allocation. `validate_on_receive` and all counting mirror
/// the socket path; injected faults were applied before the frame
/// entered the queue.
impl<D: Decode> Source<D> for FastSource {
    fn advance(&mut self, core: &SubCore<D>) -> Result<Progress, RosError> {
        // The publisher gone and its tail delivered, or the link cut by its
        // fault gate — at once, with whatever it still queues; re-attach is
        // refused until the link heals.
        let frame = match self.queue.pop() {
            Pop::Frame(frame) => frame,
            Pop::Empty => return Ok(Progress::Idle),
            Pop::Ended => return Ok(Progress::Eof),
        };
        // Pointer handoff needs no sidecar: the trace id rides on the
        // frame's own tag, and the queue dwell (plus any injected delay)
        // is the `enqueue` span.
        let tag = frame.trace();
        let since = (tag.enqueued_ns != 0).then_some(tag.enqueued_ns);
        let len = frame.len();
        // There is no writer on this path: count the send, into the
        // publisher's counters, at the moment of delivery so every tier
        // reports the same totals.
        let sent = &self.counters;
        sent.frames_sent.fetch_add(1, Ordering::Relaxed);
        sent.bytes_sent.fetch_add(len as u64, Ordering::Relaxed);
        sent.fastpath_frames.fetch_add(1, Ordering::Relaxed);
        core.deliver(
            Tier::Fastpath,
            (Stage::Enqueue, tag.id, since),
            len,
            frame,
            |frame| D::verify_frame(frame.as_slice()).is_ok(),
            |frame| D::from_local_frame(&frame),
        );
        Ok(Progress::Frame)
    }
}
