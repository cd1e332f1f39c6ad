//! `nav_msgs`: odometry and paths — the first package the SFM Generator
//! built end to end; `tests/nav_msgs.rs` exercises it.

include!(concat!(env!("OUT_DIR"), "/nav_msgs.rs"));
