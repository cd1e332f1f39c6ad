//! # rossf-bag — zero-copy indexed record/replay for serialization-free messages
//!
//! The central claim of ROS-SF is that the frame *is* the message. This
//! crate is where that claim pays off operationally: recording a topic is a
//! raw append of the publisher's already-encoded frame (no serialization,
//! no per-record copy beyond the file write), and replay adopts frames in
//! place out of a memory-mapped bag (no decode, no payload memcpy).
//!
//! The format layers know about SFM allocations and the file, not about
//! topics' live plumbing; [`ros`] is the one module that does:
//!
//! * [`mod@format`] — the on-disk layout (records, footer index, checksums) and
//!   the [`format::schema_hash`] fingerprint that guards replay type safety.
//! * [`writer`] — the append-only [`writer::BagWriter`] and the
//!   [`writer::StreamRecorder`] engine (bounded queue + writer thread with
//!   explicit drop accounting).
//! * [`reader`] — mapped [`reader::BagReader`] with footer-driven indexing,
//!   crash recovery by complete-record scan, strict structural
//!   verification, and in-place frame adoption.
//! * [`replay`] — the deterministic pacing schedule (stamp-merged, rate
//!   scaled).
//! * [`ros`] — the ROS glue: the [`Recorder`] that captures live topics
//!   through `rossf_ros`'s [`RawFrameTap`](rossf_ros::RawFrameTap) and the
//!   paced [`Replayer`] that publishes a bag back onto them. The `sfm_bag`
//!   CLI fronts both.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod format;
pub mod reader;
pub mod replay;
pub mod ros;
pub mod sys;
pub mod writer;

pub use format::{fnv1a64, schema_hash, BagError, Connection, Fnv64, IndexEntry};
pub use reader::{BagReader, OpenMode};
pub use replay::{build_schedule, Schedule, ScheduleItem};
pub use ros::{Recorder, RecorderBuilder, ReplayOptions, ReplayStats, Replayer};
pub use writer::{
    BagSummary, BagWriter, FrameBytes, RecorderChannel, RecorderStats, StreamRecorder, TopicSpec,
};
