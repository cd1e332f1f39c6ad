//! `tf2_msgs`: the transform-tree broadcast message.

include!(concat!(env!("OUT_DIR"), "/tf2_msgs.rs"));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry_msgs::{Quaternion, Transform, TransformStamped, Vector3};
    use crate::std_msgs::Header;
    use rossf_ros::ser::RosMessage;
    use rossf_sfm::SfmBox;

    fn tree() -> TFMessage {
        TFMessage {
            transforms: ["base_link", "laser", "camera_link", "imu"]
                .iter()
                .enumerate()
                .map(|(i, child)| TransformStamped {
                    header: Header {
                        seq: i as u32,
                        frame_id: "odom".to_string(),
                        ..Header::default()
                    },
                    child_frame_id: (*child).to_string(),
                    transform: Transform {
                        translation: Vector3 {
                            x: i as f64 * 0.1,
                            ..Vector3::default()
                        },
                        rotation: Quaternion {
                            w: 1.0,
                            ..Quaternion::default()
                        },
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn tf_message_roundtrips() {
        let t = tree();
        assert_eq!(TFMessage::from_bytes(&t.to_bytes()).unwrap(), t);
        let boxed = SfmTFMessage::boxed_from_plain(&t);
        assert_eq!(boxed.transforms.len(), 4);
        assert_eq!(boxed.transforms[1].child_frame_id.as_str(), "laser");
        assert_eq!(boxed.to_plain(), t);
    }

    #[test]
    fn direct_sfm_tf_construction() {
        let mut msg = SfmBox::<SfmTFMessage>::new();
        msg.transforms.resize(2);
        msg.transforms[0].header.frame_id.assign("map");
        msg.transforms[0].child_frame_id.assign("odom");
        msg.transforms[0].transform.rotation.w = 1.0;
        msg.transforms[1].header.frame_id.assign("odom");
        msg.transforms[1].child_frame_id.assign("base_link");
        assert_eq!(msg.transforms[1].header.frame_id.as_str(), "odom");
        assert!(msg.whole_len() > core::mem::size_of::<SfmTFMessage>());
    }
}
