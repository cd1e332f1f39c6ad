//! `visualization_msgs`: RViz markers — one of the richest message types
//! in common use (nested pose, scale, color, point/color arrays, strings
//! and a lifetime duration), and therefore a thorough exercise of the SFM
//! generator's field kinds.

include!(concat!(env!("OUT_DIR"), "/visualization_msgs.rs"));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry_msgs::{Point, Vector3};
    use crate::std_msgs::{ColorRGBA, Header};
    use rossf_ros::ser::RosMessage;
    use rossf_ros::time::RosDuration;
    use rossf_sfm::SfmBox;

    fn line_marker() -> Marker {
        Marker {
            header: Header {
                seq: 1,
                frame_id: "map".to_string(),
                ..Header::default()
            },
            ns: "trajectory".to_string(),
            id: 7,
            marker_type: Marker::LINE_STRIP,
            action: Marker::ADD,
            scale: Vector3 {
                x: 0.05,
                ..Vector3::default()
            },
            color: ColorRGBA {
                r: 0.1,
                g: 0.9,
                b: 0.1,
                a: 1.0,
            },
            lifetime: RosDuration { sec: 5, nsec: 0 },
            points: (0..16)
                .map(|i| Point {
                    x: i as f64 * 0.5,
                    y: (i as f64 * 0.3).sin(),
                    z: 0.0,
                })
                .collect(),
            colors: (0..16)
                .map(|i| ColorRGBA {
                    r: i as f32 / 16.0,
                    g: 0.5,
                    b: 0.5,
                    a: 1.0,
                })
                .collect(),
            text: String::new(),
            ..Marker::default()
        }
    }

    #[test]
    fn marker_serialization_roundtrip() {
        let m = line_marker();
        assert_eq!(Marker::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn marker_sfm_conversion_roundtrip() {
        let m = line_marker();
        let boxed = SfmMarker::boxed_from_plain(&m);
        assert_eq!(boxed.ns.as_str(), "trajectory");
        assert_eq!(boxed.points.len(), 16);
        assert_eq!(boxed.colors[15].r, 15.0 / 16.0);
        assert_eq!(boxed.lifetime, RosDuration { sec: 5, nsec: 0 });
        assert_eq!(boxed.to_plain(), m);
    }

    #[test]
    fn marker_array_nests_rich_messages() {
        let arr = MarkerArray {
            markers: vec![line_marker(), {
                let mut t = line_marker();
                t.id = 8;
                t.marker_type = Marker::TEXT_VIEW_FACING;
                t.text = "goal".to_string();
                t.points.clear();
                t.colors.clear();
                t
            }],
        };
        assert_eq!(MarkerArray::from_bytes(&arr.to_bytes()).unwrap(), arr);
        let boxed = SfmMarkerArray::boxed_from_plain(&arr);
        assert_eq!(boxed.markers.len(), 2);
        assert_eq!(boxed.markers[1].text.as_str(), "goal");
        assert_eq!(boxed.markers[0].points.len(), 16);
        assert_eq!(boxed.to_plain(), arr);
    }

    #[test]
    fn direct_sfm_construction_of_nested_array() {
        // Deep nesting: vector of markers, each with strings and vectors
        // of nested skeletons, all growing one whole message.
        let mut arr = SfmBox::<SfmMarkerArray>::new();
        arr.markers.resize(3);
        for i in 0..3 {
            arr.markers[i].ns.assign("layer");
            arr.markers[i].id = i as i32;
            arr.markers[i].points.resize(4);
            arr.markers[i].points[3].x = i as f64;
        }
        assert_eq!(arr.markers[2].points[3].x, 2.0);
        assert_eq!(arr.markers[0].ns.as_str(), "layer");
    }
}
