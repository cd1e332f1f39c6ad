//! Bounded ring-buffer recorder for raw timeline events.
//!
//! The histograms answer "where does time go on average"; the ring answers
//! "what happened to message 4127". It keeps the most recent
//! [`DEFAULT_RING_CAPACITY`] events (stage completions and injected link
//! faults) and evicts the oldest on overflow, so a long traced run has
//! bounded memory no matter how many messages flow.

use crate::stage::{Stage, Tier};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default event capacity of the global ring (~1 MiB of events).
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// One recorded timeline event: a completed stage span (or a fault tag).
///
/// `ts_ns` is the span's *end* on the host's monotonic clock;
/// `ts_ns - dur_ns` is its start.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span end, nanoseconds on the [`now_nanos`](crate::now_nanos) clock.
    pub ts_ns: u64,
    /// The message's trace id (0 for fault events).
    pub trace_id: u64,
    /// Topic the span belongs to (the link label for fault events).
    pub topic: Arc<str>,
    /// Stage completed.
    pub stage: Stage,
    /// Transport tier the span was measured on.
    pub tier: Tier,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

/// Bounded FIFO of [`TraceEvent`]s.
pub struct EventRing {
    inner: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl EventRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&self, event: TraceEvent) {
        let mut ring = self.inner.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Copy the buffered events, oldest first (the ring keeps them).
    pub fn drain_copy(&self) -> Vec<TraceEvent> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all buffered events.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: id * 10,
            trace_id: id,
            topic: Arc::from("t"),
            stage: Stage::Encode,
            tier: Tier::Fastpath,
            dur_ns: 1,
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let ring = EventRing::new(4);
        for id in 0..10 {
            ring.push(ev(id));
        }
        assert_eq!(ring.len(), 4);
        let events = ring.drain_copy();
        let ids: Vec<u64> = events.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest evicted first");
        assert_eq!(ring.len(), 4, "drain_copy is non-destructive");
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = EventRing::new(0);
        ring.push(ev(1));
        ring.push(ev(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.drain_copy()[0].trace_id, 2);
    }
}
