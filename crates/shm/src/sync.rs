//! Synchronization facade for the shm tier.
//!
//! Every atomic, futex call, and pool lock in this crate goes through this
//! module instead of naming `std::sync::atomic` / `parking_lot` /
//! [`rossf_sys`] directly. A normal build re-exports the real primitives
//! with zero overhead. Building with `RUSTFLAGS="--cfg rossf_model"` swaps
//! in the shadow types from `rossf-model`, which are
//! `#[repr(transparent)]` over the std atomics — so the pointer casts that
//! conjure atomics inside mmap'd segments keep working — but yield to a
//! deterministic scheduler around every operation, letting
//! `crates/shm/tests/model.rs` enumerate interleavings of the
//! ring/refcount/hold protocols.

#[cfg(not(rossf_model))]
pub use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize};

#[cfg(rossf_model)]
pub use rossf_model::sync::{AtomicU32, AtomicU64, AtomicUsize};

pub use std::sync::atomic::Ordering;

#[cfg(not(rossf_model))]
pub use parking_lot::Mutex;

#[cfg(rossf_model)]
pub use rossf_model::sync::Mutex;

use std::time::Duration;

#[cfg(test)]
thread_local! {
    /// Futex calls (waits and wakes) the current thread made through this
    /// facade — how a test shows that a code path makes none.
    pub(crate) static FUTEX_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Sleep until `word` changes away from `expected` or `timeout` elapses
/// (spurious wakeups allowed; callers re-check their condition). Model
/// builds treat the timeout as infinite so a lost wakeup surfaces as a
/// deadlock instead of being papered over by the timer.
pub fn futex_wait(word: &AtomicU32, expected: u32, timeout: Duration) {
    #[cfg(test)]
    FUTEX_CALLS.with(|c| c.set(c.get() + 1));
    #[cfg(not(rossf_model))]
    rossf_sys::futex_wait(word, expected, timeout);
    #[cfg(rossf_model)]
    rossf_model::sync::futex_wait(word, expected, timeout.as_millis() as i32);
}

/// Wake every waiter parked on `word`.
pub fn futex_wake(word: &AtomicU32) {
    #[cfg(test)]
    FUTEX_CALLS.with(|c| c.set(c.get() + 1));
    #[cfg(not(rossf_model))]
    rossf_sys::futex_wake(word);
    #[cfg(rossf_model)]
    rossf_model::sync::futex_wake(word);
}

/// Memory fence (model builds: a scheduler yield point).
pub fn fence(order: Ordering) {
    #[cfg(not(rossf_model))]
    std::sync::atomic::fence(order);
    #[cfg(rossf_model)]
    rossf_model::sync::fence(order);
}
