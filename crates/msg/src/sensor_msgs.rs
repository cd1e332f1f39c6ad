//! `sensor_msgs`: the sensor payloads of the paper's evaluation — images
//! (Figs. 12–16), point clouds and laser scans (Table 1).

include!(concat!(env!("OUT_DIR"), "/sensor_msgs.rs"));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry_msgs::Point32;
    use crate::std_msgs::Header;
    use rossf_ros::ser::RosMessage;
    use rossf_ros::time::RosTime;
    use rossf_sfm::{SfmBox, SfmMessage};

    fn sample_image(w: u32, h: u32) -> Image {
        let mut img = Image {
            header: Header {
                seq: 1,
                stamp: RosTime { sec: 2, nsec: 3 },
                frame_id: "camera".into(),
            },
            height: h,
            width: w,
            encoding: "rgb8".into(),
            is_bigendian: 0,
            step: w * 3,
            data: vec![0; (w * h * 3) as usize],
        };
        for (i, b) in img.data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        img
    }

    #[test]
    fn image_serialization_roundtrip() {
        let img = sample_image(16, 8);
        let bytes = img.to_bytes();
        let back = Image::from_bytes(&bytes).unwrap();
        assert_eq!(back, img);
        // Serialized length: header(4+8+4+6) + h(4) + w(4) + enc(4+4)
        //                    + bigendian(1) + step(4) + data(4 + 384)
        assert_eq!(bytes.len(), 22 + 4 + 4 + 8 + 1 + 4 + 4 + 384);
    }

    #[test]
    fn image_sfm_conversion_roundtrip() {
        let img = sample_image(10, 10);
        let boxed = SfmImage::boxed_from_plain(&img);
        assert_eq!(boxed.encoding.as_str(), "rgb8");
        assert_eq!(boxed.data.len(), 300);
        assert_eq!(boxed.header.frame_id.as_str(), "camera");
        assert_eq!(boxed.to_plain(), img);
    }

    #[test]
    fn image_constructed_like_fig3() {
        // The paper's Fig. 3 publisher code, in SFM form — statement for
        // statement.
        let mut img = SfmBox::<SfmImage>::new();
        img.encoding.assign("rgb8");
        img.height = 10;
        img.width = 10;
        img.data.resize(10 * 10 * 3);
        assert_eq!(img.height, 10);
        assert_eq!(img.width, 10);
        assert_eq!(img.data.len(), 300);
    }

    #[test]
    fn pointcloud_with_channels_roundtrip() {
        let pc = PointCloud {
            header: Header::default(),
            points: (0..50)
                .map(|i| Point32 {
                    x: i as f32,
                    y: -(i as f32),
                    z: 0.5,
                })
                .collect(),
            channels: vec![
                ChannelFloat32 {
                    name: "intensity".into(),
                    values: (0..50).map(|i| i as f32 * 0.1).collect(),
                },
                ChannelFloat32 {
                    name: "ring".into(),
                    values: vec![1.0; 50],
                },
            ],
        };
        let back = PointCloud::from_bytes(&pc.to_bytes()).unwrap();
        assert_eq!(back, pc);

        let boxed = SfmPointCloud::boxed_from_plain(&pc);
        assert_eq!(boxed.points.len(), 50);
        assert_eq!(boxed.points[49].x, 49.0);
        assert_eq!(boxed.channels.len(), 2);
        assert_eq!(boxed.channels[0].name.as_str(), "intensity");
        assert_eq!(boxed.channels[1].values.len(), 50);
        assert_eq!(boxed.to_plain(), pc);
    }

    #[test]
    fn pointcloud2_roundtrip() {
        let pc2 = PointCloud2 {
            header: Header::default(),
            height: 1,
            width: 100,
            fields: vec![
                PointField {
                    name: "x".into(),
                    offset: 0,
                    datatype: 7,
                    count: 1,
                },
                PointField {
                    name: "y".into(),
                    offset: 4,
                    datatype: 7,
                    count: 1,
                },
                PointField {
                    name: "z".into(),
                    offset: 8,
                    datatype: 7,
                    count: 1,
                },
            ],
            is_bigendian: 0,
            point_step: 12,
            row_step: 1200,
            data: (0..1200).map(|i| (i % 256) as u8).collect(),
            is_dense: 1,
        };
        assert_eq!(PointCloud2::from_bytes(&pc2.to_bytes()).unwrap(), pc2);
        let boxed = SfmPointCloud2::boxed_from_plain(&pc2);
        assert_eq!(boxed.fields.len(), 3);
        assert_eq!(boxed.fields[2].name.as_str(), "z");
        assert_eq!(boxed.data.len(), 1200);
        assert_eq!(boxed.to_plain(), pc2);
    }

    #[test]
    fn laser_scan_roundtrip() {
        let scan = LaserScan {
            header: Header::default(),
            angle_min: -1.57,
            angle_max: 1.57,
            angle_increment: 0.01,
            time_increment: 0.0001,
            scan_time: 0.1,
            range_min: 0.1,
            range_max: 30.0,
            ranges: (0..314).map(|i| 1.0 + i as f32 * 0.01).collect(),
            intensities: vec![100.0; 314],
        };
        assert_eq!(LaserScan::from_bytes(&scan.to_bytes()).unwrap(), scan);
        let boxed = SfmLaserScan::boxed_from_plain(&scan);
        assert_eq!(boxed.ranges.len(), 314);
        assert!((boxed.ranges[313] - 4.13).abs() < 1e-4);
        assert_eq!(boxed.to_plain(), scan);
    }

    #[test]
    fn camera_info_with_fixed_arrays_roundtrip() {
        let mut info = CameraInfo {
            height: 480,
            width: 640,
            distortion_model: "plumb_bob".into(),
            d: vec![0.1, -0.2, 0.0, 0.0, 0.0],
            ..CameraInfo::default()
        };
        info.k[0] = 525.0;
        info.k[4] = 525.0;
        info.k[8] = 1.0;
        info.p[0] = 525.0;
        assert_eq!(CameraInfo::from_bytes(&info.to_bytes()).unwrap(), info);
        let boxed = SfmCameraInfo::boxed_from_plain(&info);
        assert_eq!(boxed.k[4], 525.0);
        assert_eq!(boxed.d.len(), 5);
        assert_eq!(boxed.to_plain(), info);
    }

    #[test]
    fn compressed_image_roundtrip() {
        let ci = CompressedImage {
            header: Header::default(),
            format: "jpeg".into(),
            data: vec![0xff, 0xd8, 0xff, 0xe0],
        };
        assert_eq!(CompressedImage::from_bytes(&ci.to_bytes()).unwrap(), ci);
        let boxed = SfmCompressedImage::boxed_from_plain(&ci);
        assert_eq!(boxed.format.as_str(), "jpeg");
        assert_eq!(boxed.to_plain(), ci);
    }

    #[test]
    fn type_names_match_ros() {
        assert_eq!(SfmImage::type_name(), "sensor_msgs/Image");
        assert_eq!(SfmPointCloud2::type_name(), "sensor_msgs/PointCloud2");
        assert_eq!(SfmLaserScan::type_name(), "sensor_msgs/LaserScan");
        assert_eq!(
            <Image as rossf_ros::TopicType>::topic_type(),
            SfmImage::type_name()
        );
    }

    #[test]
    fn corrupted_image_frame_fails_decode() {
        let img = sample_image(4, 4);
        let mut bytes = img.to_bytes();
        let n = bytes.len();
        bytes.truncate(n - 10);
        assert!(Image::from_bytes(&bytes).is_err());
    }

    #[test]
    fn six_megabyte_image_wire_equivalence() {
        // The paper's largest size: 1920x1080x24bit ≈ 6 MB. The SFM whole
        // message and the ROS serialized buffer both carry the payload; the
        // SFM one *is* the in-memory layout.
        let img = sample_image(192, 108); // scaled down 10x for test speed
        let ros_bytes = img.to_bytes();
        let boxed = SfmImage::boxed_from_plain(&img);
        let sfm_frame = boxed.publish_handle();
        assert!(sfm_frame.len() >= ros_bytes.len() - 64);
        assert_eq!(boxed.to_plain(), img);
    }
}
