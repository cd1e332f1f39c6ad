//! Synchronization facade for the allocator's blocks.
//!
//! Every atomic in `alloc.rs` — a block's counts and birth stamp, its free
//! list link, and the partitions' return lists — goes through this module
//! instead of naming `std::sync::atomic` directly. A normal build
//! re-exports the real primitives with zero overhead. Building with
//! `RUSTFLAGS="--cfg rossf_model"` swaps in the shadow types from
//! `rossf-model`, which yield to a deterministic scheduler around every
//! operation, letting `crates/core/tests/model.rs` enumerate the
//! interleavings of foreign pushers and the owning drainer (same shape as
//! `crates/shm/src/sync.rs` and `crates/reactor/src/sync.rs`).

#[cfg(not(rossf_model))]
pub(crate) use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize};

#[cfg(rossf_model)]
pub(crate) use rossf_model::sync::{AtomicU32, AtomicU64, AtomicUsize};

// No model scenario reaches a block's data pointer: the real atomic in
// both builds.
pub(crate) use std::sync::atomic::{fence, AtomicPtr, Ordering};
