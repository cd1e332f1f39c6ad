//! # rossf — a Rust reproduction of ROS-SF (Middleware '22)
//!
//! Facade crate re-exporting the whole reproduction of *ROS-SF: A
//! Transparent and Efficient ROS Middleware using Serialization-Free
//! Message*:
//!
//! * [`sfm`] — the SFM serialization-free message format and life-cycle
//!   manager (the paper's core contribution).
//! * [`ros`] — the mini-ROS pub/sub middleware substrate (master, nodes,
//!   TCPROS-style transport, ROS1 serialization).
//! * [`msg`] — the standard message set (`sensor_msgs`, `geometry_msgs`,
//!   `std_msgs`, `stereo_msgs`) in plain and SFM form.
//! * [`idl`] — the SFM Generator: `.msg` IDL parser and code generator.
//! * [`netsim`] — bandwidth/latency link shaping for the inter-machine
//!   experiments.
//! * [`baselines`] — ProtoBuf-, FlatBuffer-, XCDR2- and FlatData-style
//!   codecs used in the Fig. 14 comparison.
//! * [`checker`] — the ROS-SF Converter-style applicability checker
//!   (Table 1).
//! * [`slam`] — the ORB-SLAM-like case-study pipeline (Figs. 17–18).
//! * [`bag`] — zero-copy indexed record/replay of SFM frames, and its
//!   `Recorder`/`Replayer` for live topics (the `sfm_bag` CLI drives it).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and experiment index.
//!
//! ```
//! use rossf::prelude::*;
//!
//! let master = Master::new();
//! let nh = NodeHandle::new(&master, "demo");
//! let publisher =
//!     nh.advertise_with::<SfmBox<SfmImage>>("camera/image", PublisherOptions::new().queue_size(8));
//! let (tx, rx) = std::sync::mpsc::channel();
//! let _sub = nh.subscribe_with(
//!     "camera/image",
//!     SubscriberOptions::new(),
//!     move |img: SfmShared<SfmImage>| {
//!         tx.send(img.height).unwrap();
//!     },
//! );
//! nh.wait_for_subscribers(&publisher, 1);
//!
//! let mut img = SfmBox::<SfmImage>::new();
//! img.height = 480;
//! img.width = 640;
//! img.encoding.assign("rgb8");
//! img.data.resize(16);
//! publisher.publish(&img);
//! assert_eq!(rx.recv().unwrap(), 480);
//! ```

#![deny(missing_docs)]

pub use rossf_bag as bag;
pub use rossf_baselines as baselines;
pub use rossf_checker as checker;
pub use rossf_idl as idl;
pub use rossf_msg as msg;
pub use rossf_netsim as netsim;
pub use rossf_ros as ros;
pub use rossf_sfm as sfm;
pub use rossf_slam as slam;

/// Convenience re-exports covering the common publish/subscribe workflow.
pub mod prelude {
    pub use rossf_msg::sensor_msgs::{Image, SfmImage};
    pub use rossf_msg::std_msgs::{Header, SfmHeader};
    pub use rossf_ros::{
        BackoffPolicy, Master, NodeHandle, Publisher, PublisherOptions, Subscriber,
        SubscriberOptions, TransportConfig,
    };
    pub use rossf_sfm::{SfmBox, SfmShared, SfmString, SfmVec};
}
