//! `rossf-model` — a loom-style deterministic interleaving explorer for
//! the shm tier's lock-free protocols.
//!
//! # Why
//!
//! The shared-memory tier (`rossf-shm`) rests on a handful of lock-free
//! protocols: a bounded SPMC descriptor ring, cross-process segment
//! refcounts, the hold/abandon/reclaim accounting that survives reader
//! crashes, and the arm/doorbell handshake that wakes a drained reader.
//! Ordinary unit tests only ever see a few interleavings of these; this
//! crate re-executes small 2–3 thread scenarios under a cooperative
//! scheduler that *enumerates* interleavings (CHESS-style stateless model
//! checking with a bounded number of preemptions and state-hash pruning),
//! deterministically reproducing any failing schedule as a decision list
//! plus a full operation trace.
//!
//! # How it plugs in
//!
//! `crates/shm` routes all of its atomics and segment-pool locks through a
//! `sync` facade. A normal build compiles the facade to the real
//! `std`/`parking_lot` primitives with zero overhead; building
//! with `RUSTFLAGS="--cfg rossf_model"` swaps in the shadow types from
//! [`sync`] here, and the scenarios in `crates/shm/tests/model.rs` drive
//! them through [`Model::explore`]. `scripts/check.sh` runs both modes.
//!
//! # What the model covers — and what it does not
//!
//! Every shadow operation is performed at `SeqCst`, so the explorer
//! enumerates *sequentially consistent* interleavings only: it catches
//! lost updates, double releases, refcount underflows, stale-generation
//! windows, deadlocks and lost wakeups, but not bugs that require weak
//! memory reordering to manifest (those are addressed by the `// ORDER:`
//! lint in `rossf-lint` plus conservative orderings at the few
//! publication edges). Timeouts are modeled as infinite so a missing
//! wake deterministically shows up as a deadlock. Spurious CAS failures
//! are not modeled.
//!
//! # Example
//!
//! ```
//! use rossf_model::{Model, spawn, sync::AtomicU64};
//! use std::sync::Arc;
//! use std::sync::atomic::Ordering;
//!
//! // Two increments on one counter: with a proper fetch_add every
//! // interleaving conserves the count.
//! Model::new().check(|| {
//!     let c = Arc::new(AtomicU64::new(0));
//!     let c2 = Arc::clone(&c);
//!     let t = spawn(move || {
//!         c2.fetch_add(1, Ordering::Relaxed);
//!     });
//!     c.fetch_add(1, Ordering::Relaxed);
//!     t.join();
//!     assert_eq!(c.load(Ordering::Relaxed), 2);
//! });
//! ```

#![deny(missing_docs)]

mod sched;
pub mod sync;

pub use sched::{fail, spawn, Event, Failure, JoinHandle, Model, Outcome, MAIN_THREAD};

/// Self-test scenarios used by the `rossf-model --self-test` binary and
/// the crate's integration tests: a miniature descriptor ring in two
/// variants — a correct one (CAS head) that must pass exhaustively, and a
/// deliberately racy one (non-atomic load-then-store head bump) that the
/// explorer must catch deterministically.
pub mod selftest {
    use super::sync::AtomicU64;
    use super::{spawn, Model};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    const SLOTS: usize = 4;

    /// A miniature bounded SPMC ring: one sequence word per slot, a shared
    /// head cursor, Vyukov-style. `racy_head` selects a broken pop that
    /// bumps the head with a load-then-store instead of a CAS.
    struct MiniRing {
        seq: [AtomicU64; SLOTS],
        val: [AtomicU64; SLOTS],
        head: AtomicU64,
        tail: AtomicU64,
        racy_head: bool,
    }

    impl MiniRing {
        fn new(racy_head: bool) -> MiniRing {
            MiniRing {
                seq: std::array::from_fn(|i| AtomicU64::new(i as u64)),
                val: std::array::from_fn(|_| AtomicU64::new(0)),
                head: AtomicU64::new(0),
                tail: AtomicU64::new(0),
                racy_head,
            }
        }

        fn push(&self, v: u64) -> bool {
            let t = self.tail.load(Ordering::Acquire);
            let slot = (t as usize) % SLOTS;
            if self.seq[slot].load(Ordering::Acquire) != t {
                return false;
            }
            self.val[slot].store(v, Ordering::Relaxed);
            self.seq[slot].store(t + 1, Ordering::Release);
            self.tail.store(t + 1, Ordering::Release);
            true
        }

        fn pop(&self) -> Option<u64> {
            loop {
                let h = self.head.load(Ordering::Acquire);
                let slot = (h as usize) % SLOTS;
                if self.seq[slot].load(Ordering::Acquire) != h + 1 {
                    return None;
                }
                if self.racy_head {
                    // The seeded bug: a check-then-act head bump. Two
                    // consumers can both read h and both consume slot h.
                    self.head.store(h + 1, Ordering::Release);
                    let v = self.val[slot].load(Ordering::Relaxed);
                    self.seq[slot].store(h + SLOTS as u64, Ordering::Release);
                    return Some(v);
                }
                if self
                    .head
                    .compare_exchange(h, h + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    let v = self.val[slot].load(Ordering::Relaxed);
                    self.seq[slot].store(h + SLOTS as u64, Ordering::Release);
                    return Some(v);
                }
            }
        }
    }

    fn scenario(racy_head: bool) {
        let ring = Arc::new(MiniRing::new(racy_head));
        let taken = Arc::new(AtomicU64::new(0));
        for v in 1..=2u64 {
            assert!(ring.push(v), "ring full during setup");
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let r = Arc::clone(&ring);
                let t = Arc::clone(&taken);
                spawn(move || {
                    if let Some(v) = r.pop() {
                        // Sum doubles as a duplicate detector: values are
                        // distinct, so sum > 3 ⇔ some value delivered twice.
                        t.fetch_add(v, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for c in consumers {
            c.join();
        }
        let mut sum = taken.load(Ordering::Relaxed);
        while let Some(v) = ring.pop() {
            sum += v;
        }
        assert_eq!(sum, 3, "descriptors lost or delivered twice (sum {sum})");
    }

    /// Explore the correct CAS-head ring; must find no failing schedule.
    pub fn run_correct() -> super::Outcome {
        Model::new().explore(|| scenario(false))
    }

    /// Explore the racy load-then-store ring; must find a failure.
    pub fn run_racy() -> super::Outcome {
        Model::new().explore(|| scenario(true))
    }

    /// Replay one exact schedule against the racy ring (deterministic
    /// reproduction of a failure found by [`run_racy`]).
    pub fn replay_racy(schedule: &[usize]) -> Option<super::Failure> {
        Model::new().replay(|| scenario(true), schedule)
    }
}
