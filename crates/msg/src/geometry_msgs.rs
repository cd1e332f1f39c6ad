//! `geometry_msgs`: points, orientations, and stamped poses — the output
//! side of the ORB-SLAM case study (Fig. 17 publishes
//! `geometry_msgs/PoseStamped`).

include!(concat!(env!("OUT_DIR"), "/geometry_msgs.rs"));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::std_msgs::Header;
    use rossf_ros::ser::RosMessage;
    use rossf_ros::time::RosTime;
    use rossf_sfm::SfmBox;

    fn sample_pose() -> PoseStamped {
        PoseStamped {
            header: Header {
                seq: 3,
                stamp: RosTime { sec: 9, nsec: 8 },
                frame_id: "world".into(),
            },
            pose: Pose {
                position: Point {
                    x: 1.0,
                    y: -2.5,
                    z: 0.25,
                },
                orientation: Quaternion {
                    x: 0.0,
                    y: 0.0,
                    z: 0.6,
                    w: 0.8,
                },
            },
        }
    }

    #[test]
    fn pose_stamped_serialization_roundtrip() {
        let p = sample_pose();
        let bytes = p.to_bytes();
        // header(4+8+4+5) + pose(3*8 + 4*8)
        assert_eq!(bytes.len(), 21 + 56);
        assert_eq!(PoseStamped::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn nested_sfm_conversion_roundtrip() {
        let p = sample_pose();
        let boxed = SfmPoseStamped::boxed_from_plain(&p);
        assert_eq!(boxed.header.frame_id.as_str(), "world");
        assert_eq!(boxed.pose.position.y, -2.5);
        assert_eq!(boxed.pose.orientation.w, 0.8);
        assert_eq!(boxed.to_plain(), p);
    }

    #[test]
    fn nested_string_grows_the_outer_message() {
        let mut boxed = SfmBox::<SfmPoseStamped>::new();
        let skeleton = core::mem::size_of::<SfmPoseStamped>();
        assert_eq!(boxed.whole_len(), skeleton);
        boxed.header.frame_id.assign("odom");
        assert!(boxed.whole_len() > skeleton);
    }

    #[test]
    fn fixed_size_messages_have_equal_skeleton_and_whole() {
        let mut b = SfmBox::<SfmPose>::new();
        b.position.x = 5.0;
        assert_eq!(b.whole_len(), core::mem::size_of::<SfmPose>());
    }

    #[test]
    fn point32_is_12_bytes_on_the_wire() {
        let p = Point32 {
            x: 1.0,
            y: 2.0,
            z: 3.0,
        };
        assert_eq!(p.to_bytes().len(), 12);
    }

    fn sample() -> TransformStamped {
        TransformStamped {
            header: Header {
                seq: 2,
                stamp: RosTime { sec: 10, nsec: 20 },
                frame_id: "base_link".into(),
            },
            child_frame_id: "camera_link".into(),
            transform: Transform {
                translation: Vector3 {
                    x: 0.1,
                    y: 0.0,
                    z: 0.3,
                },
                rotation: Quaternion {
                    x: 0.0,
                    y: 0.0,
                    z: 0.0,
                    w: 1.0,
                },
            },
        }
    }

    #[test]
    fn transform_stamped_roundtrips() {
        let t = sample();
        assert_eq!(TransformStamped::from_bytes(&t.to_bytes()).unwrap(), t);
        let boxed = SfmTransformStamped::boxed_from_plain(&t);
        assert_eq!(boxed.child_frame_id.as_str(), "camera_link");
        assert_eq!(boxed.transform.translation.z, 0.3);
        assert_eq!(boxed.to_plain(), t);
    }
}
