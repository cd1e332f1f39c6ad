//! Synchronization facade for the shm tier.
//!
//! Every atomic and pool lock in this crate goes through this module
//! instead of naming `std::sync::atomic` / `parking_lot` directly. A normal
//! build re-exports the real primitives with zero overhead. Building with
//! `RUSTFLAGS="--cfg rossf_model"` swaps in the shadow types from
//! `rossf-model`, which are `#[repr(transparent)]` over the std atomics —
//! so the pointer casts that conjure atomics inside mmap'd segments keep
//! working — but yield to a deterministic scheduler around every
//! operation, letting `crates/shm/tests/model.rs` enumerate interleavings
//! of the ring/refcount/hold protocols.
//!
//! Two pieces of process-local bookkeeping outside every modeled protocol
//! use the real primitives in both builds: the idle segment list's lock
//! and a segment's highest stamped length (`seg.rs`). So the model sees
//! the same operations whether a pool creates a segment or takes an idle
//! one, and explorations running side by side never share a shadow lock.

#[cfg(not(rossf_model))]
pub use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize};

#[cfg(rossf_model)]
pub use rossf_model::sync::{AtomicU32, AtomicU64, AtomicUsize};

pub use std::sync::atomic::Ordering;

#[cfg(not(rossf_model))]
pub use parking_lot::Mutex;

#[cfg(rossf_model)]
pub use rossf_model::sync::Mutex;
