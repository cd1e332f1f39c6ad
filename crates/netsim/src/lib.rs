//! # rossf-netsim — link simulation for the inter-machine experiments
//!
//! The paper's inter-machine evaluation (§5.2) runs on two machines joined
//! by an Intel 82599 10 Gigabit Ethernet controller. This reproduction runs
//! on one host, so the "wire" is simulated: every byte stream crossing a
//! simulated machine boundary is shaped to a configurable bandwidth and
//! one-way latency.
//!
//! The model is deliberately simple — a busy-until pacing model:
//!
//! * transmitting `n` bytes occupies the link for `n * 8 / bandwidth`
//!   seconds, tracked by a per-link *busy-until* instant so back-to-back
//!   writes queue behind each other like frames on a NIC;
//! * each frame additionally pays the propagation `latency` once.
//!
//! What matters for reproducing Fig. 16 is the *ratio* between
//! serialization time and wire time, and a paced 10 Gb/s stream reproduces
//! exactly that (see DESIGN.md, substitutions table).
//!
//! The crate keeps the model, not the waiting: [`Shaper::reserve`] books
//! the link and says how long the frame's last byte is owed, and the
//! transport that owns the socket (the reactor's TCP writer) holds the
//! frame's tail back on a timer until then — nothing here sleeps.
//!
//! ```
//! use rossf_netsim::{LinkProfile, Shaper};
//!
//! let profile = LinkProfile::fast_ethernet();
//! let frame = 10_000_000; // 0.8 s on a 100 Mb/s link
//! let mut link = Shaper::new(profile);
//! let first = link.reserve(frame);
//! assert!(first >= profile.transmit_time(frame));
//! // A back-to-back frame queues behind the first.
//! assert!(link.reserve(frame) > first);
//! ```

#![deny(missing_docs)]

mod fault;
mod link;
mod machine;
mod shaper;

pub use fault::{FaultAction, FaultInjector};
pub use link::{LinkProfile, LinkTable};
pub use machine::MachineId;
pub use shaper::Shaper;
