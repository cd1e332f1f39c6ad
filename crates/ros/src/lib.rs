//! # rossf-ros — the mini-ROS publish/subscribe substrate
//!
//! A from-scratch implementation of the slice of ROS1 that the ROS-SF paper
//! optimizes:
//!
//! * a **master** ([`Master`]) registering topics, publishers, and
//!   subscribers;
//! * **nodes** ([`NodeHandle`]) with the classic `advertise` / `subscribe`
//!   API of the paper's Fig. 3;
//! * a **TCPROS-style transport**: a TCP connection per (publisher,
//!   subscriber) pair, a connection-header handshake, and 4-byte
//!   length-prefixed message frames, with a bounded per-connection
//!   transmission queue;
//! * the **ROS1 serialization format** ([`ser`]) used by the baseline
//!   (plain-message) path;
//! * pluggable **link shaping** (via `rossf-netsim`) so "inter-machine"
//!   topologies can be reproduced on one host.
//!
//! Messages integrate through two traits:
//!
//! * [`Encode`] — how a published value becomes wire bytes. Plain messages
//!   serialize (generated by `ros_message!` in `rossf-msg`);
//!   [`SfmBox`](rossf_sfm::SfmBox)/[`SfmShared`](rossf_sfm::SfmShared)
//!   *are* their wire bytes (the serialization-free path: the
//!   implementation here just clones the buffer pointer, paper Fig. 8).
//! * [`Decode`] — how wire bytes become the callback argument. Plain
//!   messages de-serialize into `Arc<M>`; SFM messages are read **directly
//!   into their final allocation** and adopted (the paper's dummy
//!   de-serialization routine, Fig. 9).
//!
//! ```
//! use rossf_ros::ser::{ByteReader, RosField};
//!
//! // The ROS1 wire format, usable standalone:
//! let mut buf = Vec::new();
//! "rgb8".to_string().write_field(&mut buf);
//! 42u32.write_field(&mut buf);
//! let mut r = ByteReader::new(&buf);
//! assert_eq!(String::read_field(&mut r).unwrap(), "rgb8");
//! assert_eq!(u32::read_field(&mut r).unwrap(), 42);
//! ```

#![deny(missing_docs)]

pub mod config;
mod error;
mod loan;
mod master;
pub mod metrics;
mod node;
mod options;
mod publisher;
pub mod ser;
pub mod service;
mod subscriber;
pub mod tap;
pub mod time;
mod traits;
/// The transport tiers, one module each, holding both halves of a link.
mod tier {
    pub(crate) mod fastpath;
    pub(crate) mod shm;
    pub(crate) mod tcp;
}
pub mod wire;

pub use config::{BackoffPolicy, TransportConfig};
pub use error::RosError;
pub use loan::LoanedMessage;
pub use master::{Master, PublisherEndpoint};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use node::NodeHandle;
pub use options::{PublisherOptions, SubscriberOptions};
pub use publisher::Publisher;
pub use service::{ServiceClient, ServiceServer};
pub use subscriber::Subscriber;
pub use tap::RawFrameTap;
pub use traits::{decode_plain, Decode, Encode, RecvSlot, TopicType, VecSlot};
pub use wire::{ConnectionHeader, FramePayload, OutFrame, TraceTag};

pub use rossf_netsim::{FaultAction, FaultInjector, LinkProfile, LinkTable, MachineId};
