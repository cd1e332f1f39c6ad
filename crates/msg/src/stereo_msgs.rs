//! `stereo_msgs`: the disparity-image type from the paper's second failure
//! case (Fig. 20 — `StereoProcessor::processDisparity`).

include!(concat!(env!("OUT_DIR"), "/stereo_msgs.rs"));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor_msgs::{Image, RegionOfInterest};
    use crate::std_msgs::Header;
    use rossf_ros::ser::RosMessage;
    use rossf_sfm::SfmBox;

    fn sample() -> DisparityImage {
        DisparityImage {
            header: Header {
                seq: 1,
                frame_id: "left_camera".into(),
                ..Header::default()
            },
            image: Image {
                height: 8,
                width: 8,
                encoding: "32FC1".into(),
                step: 32,
                data: vec![7u8; 256],
                ..Image::default()
            },
            f: 525.0,
            t: 0.12,
            valid_window: RegionOfInterest {
                x_offset: 1,
                y_offset: 1,
                height: 6,
                width: 6,
                do_rectify: 0,
            },
            min_disparity: 0.0,
            max_disparity: 64.0,
            delta_d: 0.125,
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let d = sample();
        assert_eq!(DisparityImage::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn sfm_conversion_roundtrip() {
        let d = sample();
        let boxed = SfmDisparityImage::boxed_from_plain(&d);
        assert_eq!(boxed.image.encoding.as_str(), "32FC1");
        assert_eq!(boxed.image.data.len(), 256);
        assert_eq!(boxed.f, 525.0);
        assert_eq!(boxed.to_plain(), d);
    }

    #[test]
    fn fig20_pattern_inner_image_resize_grows_outer_message() {
        // `sensor_msgs::Image& dimage = disparity.image;
        //  dimage.data.resize(dimage.step * dimage.height);`
        let mut disparity = SfmBox::<SfmDisparityImage>::new();
        let before = disparity.whole_len();
        let dimage = &mut disparity.image;
        dimage.step = 32;
        dimage.height = 8;
        dimage.data.resize((32 * 8) as usize);
        assert_eq!(disparity.whole_len(), before + 256);
        assert_eq!(disparity.image.data.len(), 256);
    }

    #[test]
    fn fig20_second_resize_is_the_documented_violation() {
        let _g = rossf_sfm_alert_guard();
        rossf_sfm::reset_alert_counts();
        let mut disparity = SfmBox::<SfmDisparityImage>::new();
        disparity.image.data.resize(64);
        // A caller that passes an already-resized output argument:
        disparity.image.data.resize(128);
        assert_eq!(rossf_sfm::alert_counts().1, 1);
        rossf_sfm::reset_alert_counts();
    }

    /// Serializes alert-policy mutation across tests in this binary.
    fn rossf_sfm_alert_guard() -> impl Drop {
        struct Guard(rossf_sfm::AlertPolicy);
        impl Drop for Guard {
            fn drop(&mut self) {
                rossf_sfm::set_alert_policy(self.0);
            }
        }
        Guard(rossf_sfm::set_alert_policy(rossf_sfm::AlertPolicy::Count))
    }
}
