//! TCP trace-id correlation without touching the wire format.
//!
//! A serialization-free frame on the wire is the message's bytes, verbatim
//! — adding a trace header would break the format's core claim. Instead,
//! both ends of a TCP connection live in this process, so the writer leaves
//! a note in a shared map: *frame `seq` of connection `key` carries trace
//! id `id` and finished writing at `sent_ns`*. The reader, which counts the
//! frames it pulls off the same ordered byte stream, looks the note up by
//! the identical `(key, seq)` and recovers both the id and the `wire_read`
//! span start.
//!
//! The connection key is derived from the socket address pair — the writer
//! hashes `(local, peer)`, the reader `(peer, local)`, which are the same
//! two addresses in the same order. A reconnect allocates a fresh ephemeral
//! port, hence a fresh key and fresh sequence numbers: trace ids survive
//! reconnects without any reset handshake.
//!
//! The map is bounded: entries for frames the reader never consumes (frames
//! in flight when a connection dies, untraced readers) are evicted FIFO.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

/// Maximum entries the sidecar retains before FIFO eviction.
pub const SIDECAR_CAPACITY: usize = 8_192;

/// Derive the shared connection key from the socket address pair. The
/// writer passes `(its local addr, its peer addr)`; the reader passes
/// `(its peer addr, its local addr)` — the same pair, so the keys agree.
pub fn conn_key(publisher_addr: &str, subscriber_addr: &str) -> u64 {
    let mut h = DefaultHasher::new();
    publisher_addr.hash(&mut h);
    subscriber_addr.hash(&mut h);
    h.finish()
}

/// One writer-side note about a frame in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SidecarEntry {
    /// The frame's trace id.
    pub trace_id: u64,
    /// When the socket write of the frame's last byte completed,
    /// nanoseconds.
    pub sent_ns: u64,
}

#[derive(Default)]
struct SidecarInner {
    map: HashMap<(u64, u64), SidecarEntry>,
    fifo: VecDeque<(u64, u64)>,
}

/// Bounded `(connection key, frame seq) → (trace id, sent timestamp)` map.
pub struct Sidecar {
    inner: Mutex<SidecarInner>,
    capacity: usize,
}

impl Sidecar {
    /// A sidecar retaining at most `capacity` in-flight entries.
    pub fn new(capacity: usize) -> Self {
        Sidecar {
            inner: Mutex::new(SidecarInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// File the note for `(key, seq)` once the frame's last byte is
    /// written. The writer and a reader in its process share one event
    /// loop, so the reader cannot complete the frame before the note lands.
    pub fn insert(&self, key: u64, seq: u64, trace_id: u64, sent_ns: u64) {
        let mut inner = self.inner.lock();
        if inner.map.len() >= self.capacity {
            // Evict the oldest note still pending (its reader is gone or
            // untraced).
            while let Some(old) = inner.fifo.pop_front() {
                if inner.map.remove(&old).is_some() {
                    break;
                }
            }
        }
        inner
            .map
            .insert((key, seq), SidecarEntry { trace_id, sent_ns });
        inner.fifo.push_back((key, seq));
    }

    /// Consume the note for `(key, seq)`, if the writer left one.
    pub fn take(&self, key: u64, seq: u64) -> Option<SidecarEntry> {
        self.inner.lock().map.remove(&(key, seq))
    }

    /// Entries currently pending.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every pending entry.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.fifo.clear();
    }
}

impl std::fmt::Debug for Sidecar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sidecar")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_ends_derive_the_same_key() {
        // Writer: (local=pub, peer=sub); reader: (peer=pub, local=sub).
        let writer = conn_key("127.0.0.1:4000", "127.0.0.1:51234");
        let reader = conn_key("127.0.0.1:4000", "127.0.0.1:51234");
        assert_eq!(writer, reader);
        // Order matters: a different pairing is a different connection.
        assert_ne!(writer, conn_key("127.0.0.1:51234", "127.0.0.1:4000"));
    }

    #[test]
    fn insert_take_roundtrip() {
        let s = Sidecar::new(16);
        s.insert(1, 0, 42, 1500);
        assert_eq!(
            s.take(1, 0),
            Some(SidecarEntry {
                trace_id: 42,
                sent_ns: 1500,
            })
        );
        assert_eq!(s.take(1, 0), None, "take consumes");
        assert!(s.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest_pending() {
        let s = Sidecar::new(3);
        for seq in 0..5u64 {
            s.insert(7, seq, seq + 100, 0);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.take(7, 0), None, "oldest evicted");
        assert_eq!(s.take(7, 1), None, "second oldest evicted");
        assert!(s.take(7, 4).is_some(), "newest survives");
    }

    #[test]
    fn eviction_skips_already_taken_entries() {
        let s = Sidecar::new(2);
        s.insert(1, 0, 10, 0);
        s.insert(1, 1, 11, 0);
        assert!(s.take(1, 0).is_some());
        // Map has 1 entry, fifo has 2 stale keys; the next two inserts must
        // evict only genuinely pending entries.
        s.insert(1, 2, 12, 0);
        assert!(s.take(1, 1).is_some(), "not evicted while capacity allows");
        s.clear();
        assert!(s.is_empty());
    }
}
