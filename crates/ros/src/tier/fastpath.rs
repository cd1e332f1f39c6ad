//! Zero-copy same-machine fast path (the intra-process transport tier).
//!
//! When the master resolves a subscription whose publisher endpoint lives
//! on the same simulated machine *within the same process*, the subscriber
//! attaches to the publisher's transmission queue directly — a call on the
//! publisher core it finds in the master's local-port registry, with its
//! type name and the reactor token of the handler that will drain the
//! queue. `publish` deposits the encoded [`OutFrame`] — for
//! serialization-free messages, a refcount-managed buffer pointer
//! ([`rossf_sfm::PublishedBuffer`]) — and notifies that handler, which
//! drains the queue on the loop thread and adopts that very allocation via
//! [`Decode::from_local_frame`]. No socket, no kernel copies, no
//! re-materialization: publisher and subscriber observe the *same* bytes,
//! `Published → Destructed` governed purely by the buffer refcount (paper
//! §4.2).
//!
//! The `enable_fastpath` flag on
//! [`TransportConfig`](crate::TransportConfig) guards the tier: either side
//! opting out falls back to TCP transparently, producing byte-identical
//! frames. The attach is admitted exactly like a TCP handshake (type check,
//! a severed loopback link refuses it transiently), and the fast path keeps
//! the TCP path's invariants — the loopback
//! [`FaultInjector`](rossf_netsim::FaultInjector) applies where the frame
//! enters the link, through the publisher's one fault gate, exactly as on
//! TCP; `queue_size` backpressure is honored with `frames_dropped`
//! accounting, and `validate_on_receive` runs when enabled. A capture tap
//! attaches the same way, to a link with no gate.

use crate::error::RosError;
use crate::subscriber::{Progress, Source, SubCore};
use crate::traits::Decode;
use crate::wire::OutFrame;
use crossbeam::channel::{Receiver, TryRecvError};
use rossf_trace::{Stage, Tier};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The subscriber's end of a fast-path attachment: the receiving half of
/// the transmission queue and the liveness flag shared with the
/// publisher's connection entry. As a [`Source`] it is the fast path's
/// subscriber half; a capture tap drains `rx` itself.
pub(crate) struct LocalSinkHandle {
    /// Receiving end of the bounded per-connection transmission queue.
    pub(crate) rx: Receiver<OutFrame>,
    /// Cleared on drop so the publisher's `subscriber_count` and pruning
    /// see the detach the moment the draining handler goes — and by the
    /// publisher's fault gate to cut the link.
    pub(crate) alive: Arc<AtomicBool>,
}

impl Drop for LocalSinkHandle {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Release);
    }
}

/// Frames are adopted via [`Decode::from_local_frame`] — for
/// serialization-free messages the subscriber object points at the
/// publisher's allocation. `validate_on_receive` and all metrics accounting
/// mirror the socket path; injected faults were applied before the frame
/// entered the queue.
impl<D: Decode> Source<D> for LocalSinkHandle {
    fn advance(&mut self, core: &SubCore<D>) -> Result<Progress, RosError> {
        // Relaxed: standalone flag; the cut's notify orders it. A link the
        // publisher's fault gate cut ends at once, with whatever it still
        // queues; re-attach is refused until the link heals.
        if !self.alive.load(Ordering::Relaxed) {
            return Ok(Progress::Eof);
        }
        let frame = match self.rx.try_recv() {
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
            (Stage::Enqueue, tag.id, since),
            len,
            frame,
            |frame| D::verify_frame(frame.as_slice()).is_ok(),
            |frame| D::from_local_frame(&frame),
        );
        Ok(Progress::Frame)
    }
}
