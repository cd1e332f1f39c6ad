//! Synchronization facade for the reactor's wake handshake.
//!
//! [`WakeGate`](crate::WakeGate) names its atomic through this module
//! instead of `std::sync::atomic` directly. A normal build re-exports the
//! real primitive with zero overhead. Building with
//! `RUSTFLAGS="--cfg rossf_model"` swaps in the shadow type from
//! `rossf-model`, which yields to a deterministic scheduler around every
//! operation, letting `crates/reactor/tests/model.rs` enumerate the
//! interleavings of producers and the loop (same shape as
//! `crates/shm/src/sync.rs`).

#[cfg(not(rossf_model))]
pub use std::sync::atomic::AtomicU32;

#[cfg(rossf_model)]
pub use rossf_model::sync::AtomicU32;

pub use std::sync::atomic::Ordering;
