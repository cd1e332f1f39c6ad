//! Consolidated endpoint options and statistics.
//!
//! [`PublisherOptions`] / [`SubscriberOptions`] gather every per-endpoint
//! knob — queue size, a per-endpoint transport-config override, and the
//! tracing switch — into one builder, consumed by
//! [`NodeHandle::advertise_with`](crate::NodeHandle::advertise_with) and
//! [`NodeHandle::subscribe_with`](crate::NodeHandle::subscribe_with). The
//! `_with` forms are the only advertise/subscribe entry points.
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
/// use rossf_ros::{Master, NodeHandle, Publisher, PublisherOptions};
/// # use rossf_sfm::*;
/// # #[repr(C)] pub struct Tick { pub seq: u64 }
/// # unsafe impl SfmPod for Tick {}
/// # impl SfmValidate for Tick {
/// #     fn validate_in(&self, _: usize, _: usize) -> Result<(), SfmError> { Ok(()) }
/// # }
/// # unsafe impl SfmMessage for Tick {
/// #     fn type_name() -> &'static str { "doc/Tick" }
/// #     fn max_size() -> usize { 64 }
/// # }
/// let master = Master::new();
/// let node = NodeHandle::new(&master, "talker");
/// let opts = PublisherOptions::new().queue_size(8).trace(true);
/// let publisher: Publisher<SfmBox<Tick>> = node.advertise_with("tick", opts);
/// assert_eq!(publisher.stats().published, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PublisherOptions {
    pub(crate) queue_size: usize,
    pub(crate) transport: Option<TransportConfig>,
    pub(crate) trace: bool,
}

impl PublisherOptions {
    /// Defaults: node-config queue size, node transport config, no tracing.
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
}

/// Per-subscriber options consumed by
/// [`NodeHandle::subscribe_with`](crate::NodeHandle::subscribe_with).
#[derive(Debug, Clone, Default)]
pub struct SubscriberOptions {
    pub(crate) transport: Option<TransportConfig>,
    pub(crate) trace: bool,
    pub(crate) project: Option<Vec<String>>,
}

impl SubscriberOptions {
    /// Defaults: node transport config, no tracing.
    pub fn new() -> Self {
        Self::default()
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
        assert_eq!(p.queue_size, 0);
        assert!(p.transport.is_none());
        assert!(!p.trace);

        let p = PublisherOptions::new()
            .queue_size(16)
            .transport(TransportConfig::default())
            .trace(true);
        assert_eq!(p.queue_size, 16);
        assert!(p.transport.is_some());
        assert!(p.trace);

        let s = SubscriberOptions::new().trace(true);
        assert!(s.trace);
        assert!(s.transport.is_none());
        assert!(s.project.is_none());

        let s = SubscriberOptions::new().project(&["header.stamp", "pose"]);
        assert_eq!(
            s.project.unwrap(),
            ["header.stamp".to_string(), "pose".to_string()]
        );
    }
}
