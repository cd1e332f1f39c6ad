//! `std_msgs`: the standard header carried by every stamped message.

include!(concat!(env!("OUT_DIR"), "/std_msgs.rs"));

#[cfg(test)]
mod tests {
    use super::*;
    use rossf_ros::ser::RosMessage;
    use rossf_ros::time::RosTime;
    use rossf_sfm::SfmBox;

    #[test]
    fn serialized_layout_matches_ros1() {
        let h = Header {
            seq: 7,
            stamp: RosTime { sec: 1, nsec: 2 },
            frame_id: "map".into(),
        };
        let bytes = h.to_bytes();
        // seq(4) + stamp(8) + len(4) + "map"(3)
        assert_eq!(bytes.len(), 19);
        assert_eq!(&bytes[0..4], &7u32.to_le_bytes());
        assert_eq!(&bytes[12..16], &3u32.to_le_bytes());
        assert_eq!(&bytes[16..19], b"map");
        assert_eq!(Header::from_bytes(&bytes).unwrap(), h);
    }

    #[test]
    fn sfm_conversion_roundtrip() {
        let h = Header {
            seq: 42,
            stamp: RosTime {
                sec: 100,
                nsec: 999,
            },
            frame_id: "camera_link".into(),
        };
        let boxed = SfmHeader::boxed_from_plain(&h);
        assert_eq!(boxed.seq, 42);
        assert_eq!(boxed.frame_id.as_str(), "camera_link");
        assert_eq!(boxed.to_plain(), h);
    }

    #[test]
    fn skeleton_size_is_fixed() {
        // seq(4) + stamp(8) + frame_id skeleton(8) = 20, padded to 4-align.
        assert_eq!(core::mem::size_of::<SfmHeader>(), 20);
    }

    #[test]
    fn standalone_sfm_header_topic_type() {
        use rossf_sfm::SfmMessage;
        assert_eq!(SfmHeader::type_name(), "std_msgs/Header");
        let b = SfmBox::<SfmHeader>::new();
        assert_eq!(b.whole_len(), core::mem::size_of::<SfmHeader>());
    }

    #[test]
    fn string_msg_roundtrips() {
        let m = StringMsg {
            data: "hello rossf".to_string(),
        };
        assert_eq!(StringMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        let boxed = SfmStringMsg::boxed_from_plain(&m);
        assert_eq!(boxed.data.as_str(), "hello rossf");
        assert_eq!(boxed.to_plain(), m);
    }

    #[test]
    fn numeric_singletons_roundtrip() {
        let i = Int32 { data: -7 };
        assert_eq!(Int32::from_bytes(&i.to_bytes()).unwrap(), i);
        assert_eq!(i.to_bytes().len(), 4);
        let f = Float64 { data: 2.5 };
        assert_eq!(Float64::from_bytes(&f.to_bytes()).unwrap(), f);
        let c = ColorRGBA {
            r: 1.0,
            g: 0.5,
            b: 0.25,
            a: 1.0,
        };
        assert_eq!(ColorRGBA::from_bytes(&c.to_bytes()).unwrap(), c);
        assert_eq!(SfmColorRGBA::boxed_from_plain(&c).to_plain(), c);
    }

    #[test]
    fn multi_array_with_dimensions_roundtrips() {
        let m = Float64MultiArray {
            layout: MultiArrayLayout {
                dim: vec![
                    MultiArrayDimension {
                        label: "rows".to_string(),
                        size: 2,
                        stride: 6,
                    },
                    MultiArrayDimension {
                        label: "cols".to_string(),
                        size: 3,
                        stride: 3,
                    },
                ],
                data_offset: 0,
            },
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        assert_eq!(Float64MultiArray::from_bytes(&m.to_bytes()).unwrap(), m);
        let boxed = SfmFloat64MultiArray::boxed_from_plain(&m);
        assert_eq!(boxed.layout.dim.len(), 2);
        assert_eq!(boxed.layout.dim[1].label.as_str(), "cols");
        assert_eq!(boxed.data.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(boxed.to_plain(), m);
    }

    #[test]
    fn sfm_multiarray_direct_construction() {
        // Nested-message vectors whose element strings grow the outer
        // message — the deepest nesting the std_msgs set exercises.
        let mut m = SfmBox::<SfmFloat64MultiArray>::new();
        m.layout.dim.resize(2);
        m.layout.dim[0].label.assign("rows");
        m.layout.dim[0].size = 4;
        m.layout.dim[1].label.assign("cols");
        m.layout.dim[1].size = 4;
        m.data.resize(16);
        m.data[15] = 0.5;
        assert_eq!(m.layout.dim[0].label.as_str(), "rows");
        assert_eq!(m.data[15], 0.5);
    }
}
