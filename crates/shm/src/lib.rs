//! # rossf-shm — the cross-process shared-memory transport tier
//!
//! ROS-SF's serialization-free format makes a message's wire bytes *be*
//! its memory layout; this crate carries that payoff across process
//! boundaries. A frame enters a ring one way: as a [`SharedFrame`], one
//! memfd-backed shared segment per publish, into which a heap-built frame
//! is copied **at most once** ([`SegmentPool::prepare_shared`]) and a
//! *loaned* one is built in place with no copy at all
//! ([`SegmentPool::loan`]). Each subscriber link then gets a 64-byte
//! descriptor against that one segment
//! ([`ShmLink::commit_shared`]) in a lock-free SPMC ring; the subscriber
//! maps the segment read-only and hands the bytes straight to `sfm::mm` —
//! zero copies on the subscriber side.
//!
//! Three mechanisms make that safe:
//!
//! * **Cross-process reference counts** live in each segment's header:
//!   the segment recycles only after the publisher's write hold, the
//!   in-flight descriptor, and every subscriber-held frame have all
//!   released (the `seg` module).
//! * **Generation stamps** detect stale frames: descriptors carry the
//!   generation they were published under, and a reader whose pop
//!   observes a different generation in the segment header abandons the
//!   frame instead of reading torn bytes ([`reader::TakeError::Stale`]).
//! * **Epoch stamps** recover from publisher crashes: each control
//!   segment is stamped with its publisher incarnation's epoch, promised
//!   out-of-band in the connection handshake; a mismatch at
//!   [`ShmReader::connect`] means the fd was recycled by a different
//!   incarnation and the subscriber falls back to TCP.
//!
//! Fd hand-off needs no fd-passing protocol: both processes run as the
//! same user, so the subscriber opens the publisher's memfd through
//! `/proc/<pid>/fd/<fd>` ([`rossf_sys::open_peer_fd`]). A reader is an
//! event-loop handler, and one that drained the ring is woken one way: it
//! arms the ring, looks once more, and goes idle until the producer rings
//! its link's doorbell (the `ring` module's docs) — no polling, no
//! spinning.
//!
//! The tier is a Linux mechanism; `rossf-sys` refuses any target other
//! than x86-64 Linux at compile time, so a build that exists has it.

#![deny(missing_docs)]

mod link;
mod reader;
mod ring;
mod seg;
mod shared;
pub mod sync;

pub use link::{PushOutcome, ShmLink};
pub use reader::{is_shm_mapped, MappedFrame, SegmentMap, ShmReader, TakeError};
pub use ring::{ControlSegment, Descriptor};
/// The trace tag a descriptor carries: `rossf-trace`'s one tag shape.
pub use rossf_trace::FrameMeta;
pub use seg::{drain_idle_segments, Segment, SegmentPool, DIR_CAP, MIN_SEGMENT_PAYLOAD};
pub use shared::SharedFrame;

/// Always `true`: `rossf-sys` refuses to compile for any target without
/// the tier's syscalls. Kept because callers outside the workspace (the
/// message-path benchmark) still ask.
pub fn supported() -> bool {
    true
}

/// Mint a fresh epoch stamp for a publisher incarnation — unique across
/// the crashes and restarts the crash-recovery scheme must distinguish.
///
/// Pid plus a counter is not enough: a supervisor-restarted publisher
/// binary has deterministic fd numbers and a counter restarting at 1, so
/// a recycled pid would reproduce the exact epoch a stale grant promised
/// and the subscriber would adopt the wrong incarnation's ring. The seed
/// therefore also mixes in the process start time from `/proc/self/stat`
/// (distinct for any two incarnations of one pid) and the wall clock,
/// whitened through splitmix64 so every bit of the stamp varies.
pub fn fresh_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let wall = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(
            u64::from(std::process::id())
                ^ proc_start_ticks().rotate_left(17)
                ^ wall.rotate_left(34),
        )
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64(seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// splitmix64's finalizer: a bijective mix, so distinct inputs always
/// yield distinct epochs for one seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// This process's start time in clock ticks since boot (field 22 of
/// `/proc/self/stat`); 0 when unreadable.
fn proc_start_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The parenthesised comm may contain spaces; fields resume after the
    // last ')'. starttime is overall field 22 → 20th after the state.
    let Some(end) = stat.rfind(')') else { return 0 };
    stat[end + 1..]
        .split_whitespace()
        .nth(19)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// `mm()` is one manager per process and the harness runs this crate's
/// unit tests on parallel threads: a sibling mapping or unmapping a segment
/// moves `mm().live_segments()` under a test that compares two readings of
/// it. Tests that map segments share this lock; one that counts takes it
/// exclusively — the segments, or the idle list every pool's drop feeds.
/// (Seen 1 run in 7 before the lock; isolation, not a leak.)
#[cfg(test)]
pub(crate) mod census {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    static QUIET: RwLock<()> = RwLock::new(());

    /// Held by a test for as long as it may have segments mapped.
    pub fn mapping() -> RwLockReadGuard<'static, ()> {
        // A sibling that panicked poisons the lock without invalidating `()`.
        QUIET.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Held by a test that asserts on the process-wide segment count or
    /// on the idle segment list.
    pub fn counting() -> RwLockWriteGuard<'static, ()> {
        QUIET.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_unique_within_a_process() {
        let a = fresh_epoch();
        let b = fresh_epoch();
        let c = fresh_epoch();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn epoch_seed_reflects_process_start_time() {
        assert_ne!(
            super::proc_start_ticks(),
            0,
            "start time read from /proc/self/stat"
        );
    }
}
