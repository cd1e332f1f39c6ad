//! Per-topic transport metrics.
//!
//! Every publisher and subscriber connection accounts its traffic against
//! the [`TransportMetrics`] for its topic, obtained from the master's
//! [`MetricsRegistry`]. Counters are plain relaxed atomics — cheap enough
//! to leave on during benchmarks, which dump the registry at the end of a
//! run so anomalies (drops, reconnects, decode errors) are visible next to
//! the latency numbers.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! transport_counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Shared atomic counters for one topic's transport activity.
        #[derive(Debug, Default)]
        pub struct TransportMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// Plain-value copy of a [`TransportMetrics`] at one instant.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl TransportMetrics {
            /// Copy the current counter values.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl MetricsSnapshot {
            /// `counter=value` pairs in declaration order (for rendering).
            fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

transport_counters! {
    /// Frames written to subscriber sockets.
    frames_sent,
    /// Payload bytes written to subscriber sockets.
    bytes_sent,
    /// Frames dropped because a connection's transmission queue was full.
    frames_dropped,
    /// Publishes refused because the encoded frame exceeded
    /// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN).
    frames_dropped_oversized,
    /// Frames discarded or lost to injected link faults.
    frames_faulted,
    /// Frames delivered to subscriber callbacks.
    frames_received,
    /// Payload bytes delivered to subscriber callbacks.
    bytes_received,
    /// Frames that failed decode/adoption (corrupt or oversized payloads).
    decode_errors,
    /// Frames rejected by the structural verifier
    /// (`validate_on_receive`): dropped without adoption, connection kept.
    verify_rejects,
    /// Length prefixes rejected for exceeding `MAX_FRAME_LEN` (connection
    /// torn down without allocating).
    frame_len_rejects,
    /// Subscriber connection attempts after the initial one.
    reconnect_attempts,
    /// Reconnections that completed a handshake.
    reconnects,
    /// Handshakes completed (both roles).
    handshakes,
    /// Connections that ended, cleanly or not.
    disconnects,
    /// Deepest any transmission queue has been on this topic.
    queue_depth_hwm,
    /// Handshakes completed over the zero-copy same-machine fast path
    /// (counted once per attach, publisher side).
    fastpath_handshakes,
    /// Frames delivered by pointer handoff instead of a socket (subset of
    /// `frames_sent`).
    fastpath_frames,
    /// Handshakes that negotiated the shared-memory tier (counted once per
    /// link, publisher side).
    shm_handshakes,
    /// Frames delivered through a shared-memory ring instead of a socket
    /// (subset of `frames_sent`).
    shm_frames,
    /// Granted shm links the subscriber could not attach (it then redoes
    /// the handshake with the offer withheld and falls back to plain TCP).
    shm_attach_failures,
    /// TCP handshakes that negotiated a field projection (counted once per
    /// link, publisher side). Frames on such links are sliced sub-frames.
    projection_handshakes,
    /// Frames transmitted as projected sub-frames (subset of `frames_sent`).
    projection_frames,
    /// Frames accepted by a bag recorder's capture tap on this topic.
    bag_frames_recorded,
    /// Captured frames shed because the recorder's bounded writer queue
    /// was full (recording never backpressures the publisher).
    bag_frames_dropped,
    /// Payload bytes accepted for bag writing on this topic.
    bag_bytes_written,
    /// Frames re-published onto this topic by a bag replayer.
    bag_frames_replayed,
}

impl TransportMetrics {
    /// Record `depth` as a queue high-water-mark candidate.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }
}

/// Master-owned map from topic name to its shared metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    topics: Mutex<HashMap<String, Arc<TransportMetrics>>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics for `topic`, created on first use. Publisher and
    /// subscriber ends of the same topic share one instance.
    pub fn topic(&self, topic: &str) -> Arc<TransportMetrics> {
        Arc::clone(self.topics.lock().entry(topic.to_string()).or_default())
    }

    /// Snapshot every topic, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricsSnapshot)> {
        let mut all: Vec<_> = self
            .topics
            .lock()
            .iter()
            .map(|(name, m)| (name.clone(), m.snapshot()))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Human-readable dump of all topics' non-zero counters, one topic per
    /// line — what the bench binaries print after a run.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (topic, snap) in self.snapshot() {
            let mut line = format!("[transport] {topic}:");
            let mut any = false;
            for (name, value) in snap.fields() {
                if value != 0 {
                    let _ = write!(line, " {name}={value}");
                    any = true;
                }
            }
            if !any {
                line.push_str(" (idle)");
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_metrics_are_shared() {
        let r = MetricsRegistry::new();
        let a = r.topic("camera/image");
        let b = r.topic("camera/image");
        a.frames_sent.fetch_add(3, Ordering::Relaxed);
        assert_eq!(b.snapshot().frames_sent, 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn hwm_only_rises() {
        let m = TransportMetrics::default();
        m.observe_queue_depth(5);
        m.observe_queue_depth(2);
        assert_eq!(m.snapshot().queue_depth_hwm, 5);
        m.observe_queue_depth(9);
        assert_eq!(m.snapshot().queue_depth_hwm, 9);
    }

    #[test]
    fn render_lists_topics_sorted_with_nonzero_counters() {
        let r = MetricsRegistry::new();
        r.topic("zeta").frames_sent.store(2, Ordering::Relaxed);
        r.topic("alpha").decode_errors.store(1, Ordering::Relaxed);
        r.topic("idle/topic");
        let text = r.render();
        let alpha = text.find("alpha").unwrap();
        let idle = text.find("idle/topic").unwrap();
        let zeta = text.find("zeta").unwrap();
        assert!(alpha < idle && idle < zeta, "sorted by topic");
        assert!(text.contains("decode_errors=1"));
        assert!(text.contains("frames_sent=2"));
        assert!(text.contains("(idle)"));
        assert!(!text.contains("frames_sent=0"), "zero counters omitted");
    }

    #[test]
    fn snapshot_is_plain_values() {
        let r = MetricsRegistry::new();
        r.topic("t").bytes_sent.store(10, Ordering::Relaxed);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "t");
        assert_eq!(snap[0].1.bytes_sent, 10);
    }
}
