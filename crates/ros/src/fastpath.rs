//! Zero-copy same-machine fast path (the intra-process transport tier).
//!
//! When the master resolves a subscription whose publisher endpoint lives
//! on the same simulated machine *within the same process*, the subscriber
//! attaches to the publisher's transmission queue directly: `publish`
//! deposits the encoded [`OutFrame`] — for serialization-free messages, a
//! refcount-managed buffer pointer ([`rossf_sfm::PublishedBuffer`]) — and
//! notifies the subscriber's reactor handler, which drains the queue on the
//! loop thread and adopts that very allocation via
//! [`Decode::from_local_frame`](crate::Decode::from_local_frame). No
//! socket, no kernel copies, no re-materialization: publisher and
//! subscriber observe the *same* bytes, `Published → Destructed` governed
//! purely by the buffer refcount (paper §4.2).
//!
//! The capability is negotiated through the connection header (`fastpath`
//! field) and guarded by the `enable_fastpath` flag on
//! [`TransportConfig`](crate::TransportConfig): either side opting out
//! falls back to TCP transparently, producing byte-identical frames. The fast
//! path keeps the TCP path's invariants — the loopback
//! [`FaultInjector`](rossf_netsim::FaultInjector) applies where the frame
//! enters the link, through the publisher's one fault gate, exactly as on
//! TCP; `queue_size` backpressure is honored with `frames_dropped`
//! accounting, and `validate_on_receive` runs when enabled.

use crate::error::RosError;
use crate::wire::{ConnectionHeader, OutFrame};
use crossbeam::channel::Receiver;
use rossf_netsim::MachineId;
use rossf_reactor::Token;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Header value marking both the subscriber's request and the publisher's
/// reply as fast-path capable.
pub(crate) const FASTPATH_FIELD: &str = "fastpath";

/// Header value marking a capture tap's request: its link bypasses the
/// publisher's fault gate, so the tap sees what the publisher emitted.
pub(crate) const TAP_FIELD: &str = "tap";

/// A publisher that can accept same-process subscribers without a socket.
///
/// Implemented by the publisher core; the master holds a `Weak` reference
/// in its local-port registry so a dropped publisher disappears from
/// endpoint resolution automatically.
pub(crate) trait LocalAttach: Send + Sync {
    /// Validate `header` exactly like the TCP handshake would and, on
    /// success, splice a new bounded transmission queue into the
    /// publisher's connection list, returning the subscriber's end.
    /// `wake` is the reactor registration that drains that end: the
    /// publisher notifies it after every deposit and when it tears down.
    ///
    /// # Errors
    ///
    /// * [`RosError::Rejected`] for permanent refusals (type mismatch,
    ///   missing `fastpath` capability field) — mirrors the TCP `error=`
    ///   reply header.
    /// * [`RosError::Io`] for transient refusals (severed link, publisher
    ///   shutting down) — mirrors a TCP connect/handshake failure, so the
    ///   subscriber retries under its backoff schedule.
    fn attach_local(
        &self,
        header: &ConnectionHeader,
        wake: Token,
    ) -> Result<LocalSinkHandle, RosError>;
}

/// The subscriber's end of a fast-path attachment: the reply header, the
/// receiving half of the transmission queue, and the liveness flag shared
/// with the publisher's connection entry.
pub(crate) struct LocalSinkHandle {
    /// The publisher's reply header (type/topic/endian/fastpath), checked
    /// by the subscriber exactly like a TCP reply.
    pub(crate) reply: ConnectionHeader,
    /// Receiving end of the bounded per-connection transmission queue.
    pub(crate) rx: Receiver<OutFrame>,
    /// Cleared on drop so the publisher's `subscriber_count` and pruning
    /// see the detach the moment the draining handler goes — and by the
    /// publisher's fault gate to cut the link.
    pub(crate) alive: Arc<AtomicBool>,
}

impl LocalSinkHandle {
    /// Attach to a same-process publisher's local port and validate the
    /// reply exactly like a TCP reply — the whole fast-path handshake,
    /// shared by subscribers and capture taps (`tap`: the link bypasses
    /// the publisher's fault gate).
    ///
    /// The strong `port` reference ends here: holding it for the link's
    /// life would keep the publisher core (and its master registration)
    /// alive after the last `Publisher` handle drops. The sink's queue
    /// disconnects when the publisher tears down.
    ///
    /// # Errors
    ///
    /// Those of [`LocalAttach::attach_local`], plus [`RosError::Rejected`]
    /// for a reply that refuses the subscription.
    pub(crate) fn attach(
        port: Arc<dyn LocalAttach>,
        topic: &str,
        type_name: &str,
        machine: MachineId,
        wake: Token,
        tap: bool,
    ) -> Result<LocalSinkHandle, RosError> {
        let mut request =
            ConnectionHeader::request(topic, type_name, machine).with(FASTPATH_FIELD, "1");
        if tap {
            request = request.with(TAP_FIELD, "1");
        }
        let sink = port.attach_local(&request, wake)?;
        sink.reply.check_reply()?;
        Ok(sink)
    }
}

impl Drop for LocalSinkHandle {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Release);
    }
}
