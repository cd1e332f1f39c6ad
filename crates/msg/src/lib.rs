//! # rossf-msg — the standard message set, in plain and SFM form
//!
//! Every message the paper's evaluation touches (`sensor_msgs/Image`,
//! `CompressedImage`, `PointCloud`, `PointCloud2`, `LaserScan`,
//! `geometry_msgs/PoseStamped`, `stereo_msgs/DisparityImage`, and their
//! dependencies), each defined twice:
//!
//! * a **plain** struct (`Image`) — the ordinary ROS representation of the
//!   paper's Fig. 2, serialized with the ROS1 format on publish;
//! * an **SFM skeleton** struct (`SfmImage`) — the serialization-free
//!   representation of §4.1, transmitted verbatim.
//!
//! Neither is written by hand. Each message is defined once, as ROS `.msg`
//! text in `crates/idl/msg/<pkg>/<Name>.msg`; the build script runs the SFM
//! Generator (`rossf-idl`, §4.3.1) over that tree and each module here
//! includes its package's output — both structs, with the `.msg` comments as
//! their rustdoc, plus a [`ros_message_impls!`] invocation that emits the
//! entire trait stack. Adding a message is adding a `.msg` file and its
//! `max_size` row in `build.rs`. The paper's transparency claim is visible
//! here: publisher code for the two representations is virtually
//! identical:
//!
//! ```
//! use rossf_msg::sensor_msgs::{Image, SfmImage};
//! use rossf_sfm::SfmBox;
//!
//! // Ordinary ROS message (Fig. 3):
//! let mut img = Image::default();
//! img.encoding = "rgb8".to_string();
//! img.height = 10;
//! img.width = 10;
//! img.data.resize(10 * 10 * 3, 0);
//!
//! // Serialization-free message — same statements, same field access:
//! let mut sfm = SfmBox::<SfmImage>::new();
//! sfm.encoding.assign("rgb8");
//! sfm.height = 10;
//! sfm.width = 10;
//! sfm.data.resize(10 * 10 * 3);
//!
//! assert_eq!(sfm.to_plain().data.len(), img.data.len());
//! ```

#![deny(missing_docs)]

// Generator output spells paths as `::rossf_msg::...`; this lets it compile
// when included inside this very crate.
extern crate self as rossf_msg;

#[macro_use]
mod macros;

pub mod geometry_msgs;
pub mod nav_msgs;
pub mod sensor_msgs;
pub mod std_msgs;
pub mod stereo_msgs;
pub mod tf2_msgs;
pub mod visualization_msgs;

pub use rossf_ros::time::RosTime;
