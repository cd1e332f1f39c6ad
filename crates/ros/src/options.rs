//! Consolidated endpoint options and statistics.
//!
//! [`PublisherOptions`] / [`SubscriberOptions`] gather every per-endpoint
//! knob — queue size, a per-endpoint transport-config override, and the
//! tracing switch — into one builder, consumed by
//! [`NodeHandle::advertise_with`](crate::NodeHandle::advertise_with) and
//! [`NodeHandle::subscribe_with`](crate::NodeHandle::subscribe_with) (and by
//! [`LocalBus::subscribe_with`](crate::LocalBus::subscribe_with) for the
//! in-process bus). The `_with` forms are the only advertise/subscribe
//! entry points.
//!
//! [`PublisherStats`] / [`SubscriberStats`] are the matching read side: one
//! coherent snapshot of an endpoint's counters plus its per-topic transport
//! metrics, replacing a fistful of individual getter calls.

use crate::config::TransportConfig;
use crate::metrics::MetricsSnapshot;

/// Per-publisher options consumed by
/// [`NodeHandle::advertise_with`](crate::NodeHandle::advertise_with).
///
/// ```
/// use rossf_ros::PublisherOptions;
/// let opts = PublisherOptions::new().queue_size(8).trace(true);
/// assert_eq!(opts.queue_size_hint(), 8);
/// assert!(opts.trace_enabled());
/// ```
#[derive(Debug, Clone)]
pub struct PublisherOptions {
    pub(crate) queue_size: usize,
    pub(crate) transport: Option<TransportConfig>,
    pub(crate) trace: bool,
    pub(crate) shm_loans: bool,
}

impl Default for PublisherOptions {
    /// Loaned publication is on by default: it only engages when a loan is
    /// actually requested *and* the shm tier is active, so there is nothing
    /// to pay otherwise.
    fn default() -> Self {
        PublisherOptions {
            queue_size: 0,
            transport: None,
            trace: false,
            shm_loans: true,
        }
    }
}

impl PublisherOptions {
    /// Defaults: node-config queue size, node transport config, no tracing,
    /// loaned publication allowed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound each subscriber connection's transmission queue (`0` = use the
    /// effective [`TransportConfig::queue_size`]).
    pub fn queue_size(mut self, n: usize) -> Self {
        self.queue_size = n;
        self
    }

    /// Override the node's transport config for this publisher only.
    pub fn transport(mut self, config: TransportConfig) -> Self {
        self.transport = Some(config);
        self
    }

    /// Record per-stage tracing spans for every message this publisher
    /// sends (see the `rossf-trace` crate). Off by default; when off the
    /// publish path performs zero clock reads and histogram writes.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Allow [`Publisher::loan`](crate::Publisher::loan) to hand out
    /// shared-memory-backed loans (on by default). When disabled — or when
    /// the shm tier is off or has no subscribers yet — `loan` falls back to
    /// an ordinary heap allocation and `publish_loaned` behaves exactly
    /// like `publish`.
    pub fn shm_loans(mut self, on: bool) -> Self {
        self.shm_loans = on;
        self
    }

    /// The configured queue size (0 = config default).
    pub fn queue_size_hint(&self) -> usize {
        self.queue_size
    }

    /// The per-endpoint transport override, if any.
    pub fn transport_override(&self) -> Option<&TransportConfig> {
        self.transport.as_ref()
    }

    /// Whether tracing is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// Whether shared-memory loans are allowed.
    pub fn shm_loans_enabled(&self) -> bool {
        self.shm_loans
    }
}

/// Per-subscriber options consumed by
/// [`NodeHandle::subscribe_with`](crate::NodeHandle::subscribe_with) and
/// [`LocalBus::subscribe_with`](crate::LocalBus::subscribe_with).
///
/// `queue_size` is accepted for API fidelity with ROS (backpressure on the
/// socket path comes from TCP itself).
#[derive(Debug, Clone, Default)]
pub struct SubscriberOptions {
    pub(crate) queue_size: usize,
    pub(crate) transport: Option<TransportConfig>,
    pub(crate) trace: bool,
    pub(crate) project: Option<Vec<String>>,
}

impl SubscriberOptions {
    /// Defaults: node transport config, no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advisory queue size (kept for ROS API fidelity).
    pub fn queue_size(mut self, n: usize) -> Self {
        self.queue_size = n;
        self
    }

    /// Override the node's transport config for this subscription only.
    pub fn transport(mut self, config: TransportConfig) -> Self {
        self.transport = Some(config);
        self
    }

    /// Record per-stage tracing spans for every message this subscription
    /// delivers. Off by default; when off the receive path performs zero
    /// clock reads and histogram writes.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Subscribe to a *projection* of the message: only the named fields
    /// (dotted paths, e.g. `"header.stamp"` or `"pose"`) are transmitted
    /// over TCP links whose publisher supports projection; everything else
    /// arrives zeroed/unassigned. Paths are resolved against the message
    /// type's layout schema at `subscribe_with` time — unknown fields fail
    /// the subscription with [`RosError::Projection`](crate::RosError).
    ///
    /// Zero-copy tiers (same-process fast path, shared memory) always
    /// deliver the full message — a projection there would *add* a copy;
    /// publishers that predate projection simply send full frames.
    pub fn project(mut self, paths: &[&str]) -> Self {
        self.project = Some(paths.iter().map(|s| s.to_string()).collect());
        self
    }

    /// The configured queue size (0 = config default).
    pub fn queue_size_hint(&self) -> usize {
        self.queue_size
    }

    /// The per-endpoint transport override, if any.
    pub fn transport_override(&self) -> Option<&TransportConfig> {
        self.transport.as_ref()
    }

    /// Whether tracing is enabled.
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// The requested projection paths, if any.
    pub fn projection_paths(&self) -> Option<&[String]> {
        self.project.as_deref()
    }
}

/// One coherent snapshot of a publisher's counters
/// ([`Publisher::stats`](crate::Publisher::stats)).
#[derive(Debug, Clone)]
pub struct PublisherStats {
    /// Frames published (per `publish` call, not per connection).
    pub published: u64,
    /// Frames dropped because a subscriber's transmission queue was full.
    pub dropped: u64,
    /// Currently connected subscribers.
    pub subscribers: usize,
    /// Payload bytes written to the wire on this topic (projected frames
    /// count their sliced length, not the full message).
    pub bytes_sent: u64,
    /// Payload bytes read from the wire on this topic.
    pub bytes_received: u64,
    /// The shared per-topic transport counters.
    pub transport: MetricsSnapshot,
}

/// One coherent snapshot of a subscriber's counters
/// ([`Subscriber::stats`](crate::Subscriber::stats)).
#[derive(Debug, Clone)]
pub struct SubscriberStats {
    /// Messages delivered to the callback.
    pub received: u64,
    /// Total payload bytes delivered.
    pub received_bytes: u64,
    /// Frames that failed decoding/adoption.
    pub decode_errors: u64,
    /// Frames rejected by the structural verifier and dropped unadopted.
    pub verify_rejects: u64,
    /// Publisher connections that completed the handshake.
    pub connections: u64,
    /// Connection attempts made after a connection died.
    pub reconnect_attempts: u64,
    /// Reconnections that completed a handshake.
    pub reconnects: u64,
    /// Payload bytes written to the wire on this topic.
    pub bytes_sent: u64,
    /// Payload bytes read from the wire on this topic (projected frames
    /// count their sliced length, not the full message).
    pub bytes_received: u64,
    /// The shared per-topic transport counters.
    pub transport: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_chain_and_default_off() {
        let p = PublisherOptions::new();
        assert_eq!(p.queue_size_hint(), 0);
        assert!(p.transport_override().is_none());
        assert!(!p.trace_enabled());
        assert!(p.shm_loans_enabled(), "loans allowed by default");
        assert!(!PublisherOptions::new().shm_loans(false).shm_loans_enabled());

        let p = PublisherOptions::new()
            .queue_size(16)
            .transport(TransportConfig::default())
            .trace(true);
        assert_eq!(p.queue_size_hint(), 16);
        assert!(p.transport_override().is_some());
        assert!(p.trace_enabled());

        let s = SubscriberOptions::new().queue_size(4).trace(true);
        assert_eq!(s.queue_size_hint(), 4);
        assert!(s.trace_enabled());
        assert!(s.transport_override().is_none());
        assert!(s.projection_paths().is_none());

        let s = SubscriberOptions::new().project(&["header.stamp", "pose"]);
        assert_eq!(
            s.projection_paths().unwrap(),
            &["header.stamp".to_string(), "pose".to_string()]
        );
    }
}
