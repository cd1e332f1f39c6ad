//! Transport counters: one block per endpoint, summed per topic.
//!
//! Every publisher and every subscriber owns one block of counters and
//! counts each event it sees there, once. A link counts into the block of
//! the endpoint that owns its half: the TCP writer, the shm ring, the fault
//! gate and the accept path into the publisher's; the receive tail,
//! supervision and the TCP reader into the subscriber's. The fast path has
//! no writer, so its delivery counts the send into the publisher's block.
//! `Publisher::stats` and `Subscriber::stats` read the endpoint's own block;
//! the master's [`MetricsRegistry`] sums a topic's blocks. Counters are
//! plain relaxed atomics — cheap enough to leave on during benchmarks, which
//! dump the registry at the end of a run so anomalies (drops, reconnects,
//! decode errors) are visible next to the latency numbers.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! transport_counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// One endpoint's counters, owned by its publisher or subscriber
        /// core and held by the links that count on its behalf.
        #[derive(Debug, Default)]
        pub(crate) struct Counters {
            $(pub(crate) $name: AtomicU64,)+
        }

        /// Plain-value copy of one endpoint's counters, or their sum over
        /// a topic's endpoints.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Counters {
            /// Copy the current counter values.
            pub(crate) fn snapshot(&self) -> MetricsSnapshot {
                // Relaxed: each counter is consistent on its own, and none
                // publishes other memory.
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }
        }

        impl MetricsSnapshot {
            /// Add `other`'s counts to these, keeping the deeper
            /// `queue_depth_hwm`: a high-water mark is a level, not a count.
            fn absorb(&mut self, other: &MetricsSnapshot) {
                let hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
                $(self.$name += other.$name;)+
                self.queue_depth_hwm = hwm;
            }

            /// `counter=value` pairs in declaration order (for rendering).
            fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }
    };
}

transport_counters! {
    /// `publish` calls that reached the fan-out (an oversized frame is
    /// refused before it), once each however many subscribers there are.
    published,
    /// Frames written to subscriber links.
    frames_sent,
    /// Payload bytes written to subscriber links.
    bytes_sent,
    /// Frames dropped because a link's transmission queue was full, or a
    /// projected link could not slice them.
    frames_dropped,
    /// Publishes refused because the encoded frame exceeded
    /// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN).
    frames_dropped_oversized,
    /// Frames discarded or lost to injected link faults.
    frames_faulted,
    /// Frames delivered to subscriber callbacks.
    frames_received,
    /// Payload bytes delivered to subscriber callbacks (projected frames
    /// count their sliced length, not the full message).
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
    /// Handshakes completed, counted by each side of the link.
    handshakes,
    /// Link halves that ended, cleanly or not, counted by each side.
    disconnects,
    /// Deepest any transmission queue has been.
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
}

impl Counters {
    /// Record `depth` as a queue high-water-mark candidate.
    pub(crate) fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }
}

/// One topic's blocks: those of its live endpoints, and the total of those
/// whose endpoints are gone.
#[derive(Debug, Default)]
struct TopicBlocks {
    live: Vec<Arc<Counters>>,
    retired: MetricsSnapshot,
}

impl TopicBlocks {
    /// Fold every block that only the registry still holds into `retired`:
    /// its endpoint and links are gone, so its counts are final.
    fn retire(&mut self) {
        let retired = &mut self.retired;
        self.live.retain_mut(|block| match Arc::get_mut(block) {
            Some(block) => {
                retired.absorb(&block.snapshot());
                false
            }
            None => true,
        });
    }

    /// The topic's totals: the retired ones plus every live block's.
    fn total(&mut self) -> MetricsSnapshot {
        self.retire();
        let mut total = self.retired;
        for block in &self.live {
            total.absorb(&block.snapshot());
        }
        total
    }
}

/// Master-owned view of every topic's counters: each topic's numbers are
/// the sum of its endpoints', and never go backwards when an endpoint
/// leaves.
#[derive(Debug)]
pub struct MetricsRegistry {
    topics: Mutex<HashMap<String, TopicBlocks>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        MetricsRegistry {
            topics: Mutex::new(HashMap::new()),
        }
    }

    /// A fresh block for a new endpoint on `topic`, summed into the topic
    /// from now on.
    pub(crate) fn register(&self, topic: &str) -> Arc<Counters> {
        let mut topics = self.topics.lock();
        let blocks = topics.entry(topic.to_string()).or_default();
        blocks.retire();
        let block = Arc::new(Counters::default());
        blocks.live.push(Arc::clone(&block));
        block
    }

    /// The sum of every endpoint's counters on `topic`, live or gone; all
    /// zero for a topic no endpoint ever joined.
    pub fn topic(&self, topic: &str) -> MetricsSnapshot {
        self.topics
            .lock()
            .get_mut(topic)
            .map_or_else(MetricsSnapshot::default, TopicBlocks::total)
    }

    /// Every topic's totals, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricsSnapshot)> {
        let mut all: Vec<_> = self
            .topics
            .lock()
            .iter_mut()
            .map(|(name, blocks)| (name.clone(), blocks.total()))
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
    fn a_topic_is_the_sum_of_its_endpoints() {
        let r = MetricsRegistry::new();
        let a = r.register("camera/image");
        let b = r.register("camera/image");
        a.frames_sent.fetch_add(3, Ordering::Relaxed);
        b.frames_received.fetch_add(2, Ordering::Relaxed);
        let topic = r.topic("camera/image");
        assert_eq!((topic.frames_sent, topic.frames_received), (3, 2));
        assert_eq!(a.snapshot().frames_received, 0, "each block is its own");
        assert_eq!(r.topic("no/such/topic"), MetricsSnapshot::default());
    }

    #[test]
    fn hwm_only_rises() {
        let m = Counters::default();
        m.observe_queue_depth(5);
        m.observe_queue_depth(2);
        assert_eq!(m.snapshot().queue_depth_hwm, 5);
        m.observe_queue_depth(9);
        assert_eq!(m.snapshot().queue_depth_hwm, 9);
    }

    /// A thousand endpoints come and go: the topic keeps every count they
    /// made and the deepest queue any of them saw, and holds none of their
    /// blocks afterwards.
    #[test]
    fn departed_endpoints_fold_into_the_topic_exactly() {
        const BLOCKS: u64 = 1_000;
        let r = MetricsRegistry::new();
        let blocks: Vec<_> = (0..BLOCKS).map(|_| r.register("churn")).collect();
        for (i, block) in (0..).zip(&blocks) {
            block.frames_sent.fetch_add(i, Ordering::Relaxed);
            block.bytes_sent.fetch_add(2 * i, Ordering::Relaxed);
            block.handshakes.fetch_add(1, Ordering::Relaxed);
            block.observe_queue_depth(i % 97);
        }
        let before = r.topic("churn");
        let sum = BLOCKS * (BLOCKS - 1) / 2;
        assert_eq!(
            (before.frames_sent, before.bytes_sent, before.handshakes),
            (sum, 2 * sum, BLOCKS)
        );
        assert_eq!(before.queue_depth_hwm, 96);
        // Half go, then the rest, with a snapshot between.
        let (gone, rest) = blocks.split_at(BLOCKS as usize / 2);
        let rest = rest.to_vec();
        drop(gone.to_vec());
        drop(blocks);
        assert_eq!(r.topic("churn"), before);
        drop(rest);
        assert_eq!(r.snapshot(), [("churn".to_string(), before)]);
        assert!(r.topics.lock()["churn"].live.is_empty());
        // A newcomer starts from zero and adds to the retired total.
        let newcomer = r.register("churn");
        newcomer.frames_sent.fetch_add(1, Ordering::Relaxed);
        assert_eq!(r.topic("churn").frames_sent, sum + 1);
        assert_eq!(r.topics.lock()["churn"].live.len(), 1);
    }

    #[test]
    fn render_lists_topics_sorted_with_nonzero_counters() {
        let r = MetricsRegistry::new();
        r.register("zeta").frames_sent.store(2, Ordering::Relaxed);
        r.register("alpha")
            .decode_errors
            .store(1, Ordering::Relaxed);
        let _idle = r.register("idle/topic");
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
        let block = r.register("t");
        block.bytes_sent.store(10, Ordering::Relaxed);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "t");
        assert_eq!(snap[0].1.bytes_sent, 10);
    }
}
