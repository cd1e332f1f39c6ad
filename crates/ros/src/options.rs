//! Endpoint options.
//!
//! [`PublisherOptions`] / [`SubscriberOptions`] gather the per-endpoint
//! knobs — a publisher's queue size, the tracing switch, a subscriber's
//! field projection — consumed by
//! [`NodeHandle::advertise_with`](crate::NodeHandle::advertise_with) and
//! [`NodeHandle::subscribe_with`](crate::NodeHandle::subscribe_with). The
//! transport config is the node's
//! ([`NodeHandle::with_config`](crate::NodeHandle::with_config)): no knob is
//! set in both layers.

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
#[derive(Debug, Clone)]
pub struct PublisherOptions {
    pub(crate) queue_size: usize,
    pub(crate) trace: bool,
}

impl Default for PublisherOptions {
    fn default() -> Self {
        PublisherOptions {
            queue_size: 8,
            trace: false,
        }
    }
}

impl PublisherOptions {
    /// Defaults: a queue of 8 frames per subscriber link, no tracing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound each subscriber link's transmission queue to `n` frames (at
    /// least 1).
    pub fn queue_size(mut self, n: usize) -> Self {
        self.queue_size = n;
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
    pub(crate) trace: bool,
    pub(crate) project: Option<Vec<String>>,
}

impl SubscriberOptions {
    /// Defaults: full frames, no tracing.
    pub fn new() -> Self {
        Self::default()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_chain_and_default_off() {
        let p = PublisherOptions::new();
        assert_eq!(p.queue_size, 8);
        assert!(!p.trace);

        let p = PublisherOptions::new().queue_size(16).trace(true);
        assert_eq!(p.queue_size, 16);
        assert!(p.trace);

        let s = SubscriberOptions::new().trace(true);
        assert!(s.trace);
        assert!(s.project.is_none());

        let s = SubscriberOptions::new().project(&["header.stamp", "pose"]);
        assert_eq!(
            s.project.unwrap(),
            ["header.stamp".to_string(), "pose".to_string()]
        );
    }
}
