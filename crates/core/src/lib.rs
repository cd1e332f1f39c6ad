//! # rossf-sfm — the SFM serialization-free message format
//!
//! This crate is the Rust implementation of the core contribution of
//! *ROS-SF: A Transparent and Efficient ROS Middleware using
//! Serialization-Free Message* (Middleware '22): the **SFM** serialization
//! format (§4.1) and the **message life-cycle manager** (§4.2).
//!
//! A *serialization-free message* is a message whose in-memory representation
//! **is** its wire representation. Publishing such a message requires no
//! serialization and receiving it requires no de-serialization: the bytes are
//! written to / read from the transport verbatim.
//!
//! ## The SFM layout in one paragraph
//!
//! Every message type has a fixed-size *skeleton* — a `#[repr(C)]` struct.
//! Fixed-size fields (integers, floats, nested message skeletons, fixed
//! arrays) live inline. Variable-size fields ([`SfmString`], [`SfmVec`])
//! occupy exactly 8 bytes in the skeleton: a `u32` length followed by a `u32`
//! offset, where the offset is relative to **the address of the offset word
//! itself** (paper Fig. 7: the `encoding` content at `0x0004 + 20 = 0x0018`).
//! Content bytes are appended to the end of the *whole message*. Because all
//! offsets are self-relative the whole message is position-independent: it
//! can be transmitted and re-mapped at any base address.
//!
//! ## Life-cycle management in one paragraph
//!
//! Messages are allocated once at their type's [`SfmMessage::max_size`]
//! (so field addresses never move) and registered with the global
//! [`MessageManager`] ([`mm()`]). When a variable-size field needs content
//! space, the manager locates the owning record *by the field's address*
//! (binary search over records ordered by start address, §4.3.3) and extends
//! the whole message. Records track the paper's `Allocated → Published →
//! Destructed` state machine; reference counts on the underlying buffer
//! guarantee the memory outlives both the developer's message object and the
//! transmission queue, with zero copies (Figs. 8–9).
//!
//! ## Quick example
//!
//! ```
//! use rossf_sfm::{SfmBox, SfmString, SfmVec, SfmMessage, SfmPod, SfmValidate, SfmError};
//!
//! // Normally generated by `rossf-idl`/`ros_message!`; spelled out here.
//! #[repr(C)]
//! #[derive(Debug)]
//! pub struct SfmImage {
//!     pub encoding: SfmString,
//!     pub height: u32,
//!     pub width: u32,
//!     pub data: SfmVec<u8>,
//! }
//! unsafe impl SfmPod for SfmImage {}
//! impl SfmValidate for SfmImage {
//!     fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
//!         self.encoding.validate_in(base, len)?;
//!         self.data.validate_in(base, len)
//!     }
//! }
//! unsafe impl SfmMessage for SfmImage {
//!     fn type_name() -> &'static str { "demo/Image" }
//!     fn max_size() -> usize { 4096 }
//! }
//!
//! let mut img = SfmBox::<SfmImage>::new();
//! img.encoding.assign("rgb8");
//! img.height = 10;
//! img.width = 10;
//! img.data.resize(10 * 10 * 3);
//! assert_eq!(img.encoding.as_str(), "rgb8");
//! assert_eq!(img.data.len(), 300);
//! // The wire bytes are simply the whole message — no serialization step.
//! let frame = img.publish_handle();
//! assert!(frame.len() >= core::mem::size_of::<SfmImage>() + 8 + 300);
//! ```
//!
//! ## The three usage assumptions (§4.3.3)
//!
//! * **One-Shot String Assignment** — a [`SfmString`] may be assigned once.
//! * **One-Shot Vector Resizing** — a [`SfmVec`] may be resized once.
//! * **No Modifier** — mutating methods that can reallocate (`push_back`,
//!   `pop_back`, …) do not exist on the SFM types (a compile error in the
//!   paper; simply absent API here).
//!
//! Violations of the first two raise an *alert* through the configurable
//! [`AlertPolicy`] (the paper raises a run-time prompt).

#![deny(missing_docs)]

mod alert;
mod alloc;
mod boxed;
mod error;
mod manager;
mod message;
pub mod path;
pub mod project;
mod recv;
mod string;
mod sync;
mod vec;
pub mod verify;

pub use alert::{
    alert_counts, lifecycle_alert_count, reset_alert_counts, set_alert_policy, AlertKind,
    AlertPolicy,
};
#[cfg(rossf_model)]
#[doc(hidden)]
pub use alloc::model;
pub use alloc::{drain_alloc_pool, DrainedPool, SfmAlloc, SFM_ALLOC_ALIGN};
pub use alloc::{LARGE_BYTE_CAP, LARGE_PER_CLASS};
pub use boxed::{PublishedBuffer, SfmBox, SfmShared};
pub use error::SfmError;
pub use manager::{
    mm, LifecycleEvent, LifecycleOp, ManagerStats, MessageManager, MessageState, RecordInfo,
    SanitizerReport,
};
pub use message::{SfmMessage, SfmPod, SfmValidate};
pub use path::{FieldPath, FieldRange, PathError, PathSegment};
pub use project::{FieldAbsent, FrameSegment, Projection, SlicedFrame};
pub use recv::SfmRecvBuffer;
pub use string::SfmString;
pub use vec::{SfmVec, SfmVecIter};
pub use verify::{
    verify_frame, verify_frame_for, FieldDesc, MessageSchema, SfmReflect, StructDesc, TypeDesc,
    VerifyError, VerifyErrorKind, VerifyReport,
};

/// Round `n` up to the next multiple of `align` (`align` must be a power of
/// two). Used for string padding (paper Fig. 7 pads `"rgb8"` to 8 bytes) and
/// content alignment.
#[inline]
pub const fn align_up(n: usize, align: usize) -> usize {
    (n + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::align_up;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 4), 0);
        assert_eq!(align_up(1, 4), 4);
        assert_eq!(align_up(4, 4), 4);
        assert_eq!(align_up(5, 4), 8);
        assert_eq!(align_up(5, 8), 8);
        assert_eq!(align_up(9, 8), 16);
        assert_eq!(align_up(300, 1), 300);
    }

    #[test]
    fn align_up_is_monotone_and_aligned() {
        for n in 0..200usize {
            for a in [1usize, 2, 4, 8, 16] {
                let r = align_up(n, a);
                assert!(r >= n);
                assert_eq!(r % a, 0);
                assert!(r - n < a);
            }
        }
    }
}
