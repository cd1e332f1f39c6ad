//! Build script: the paper's Fig. 10b pipeline (`IDL → SFM Generator →
//! message classes → compile`), run on every build. Every message this
//! crate ships is defined once, in `crates/idl/msg/<pkg>/<Name>.msg`; the
//! SFM Generator (`rossf-idl`) turns that tree into one module per package
//! (`$OUT_DIR/<pkg>.rs`), which `src/<pkg>.rs` includes.

use rossf_idl::{generate, Catalog, GenConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The `max_size` bound of every shipped type — the IDL-level constant the
/// paper requires developers to provide (§4.2); a definition without a row
/// here fails the build. Variable-size types are sized for the largest
/// workload in the evaluation (1920×1080×24-bit images, ~6 MB) plus
/// headroom. A bound is part of the type's `schema_hash`, which bags record.
const MAX_SIZES: &[(&str, usize)] = &[
    ("geometry_msgs/Point", 64),
    ("geometry_msgs/Point32", 32),
    ("geometry_msgs/Pose", 128),
    ("geometry_msgs/PoseStamped", 1 << 10),
    ("geometry_msgs/PoseWithCovariance", 1 << 20),
    ("geometry_msgs/Quaternion", 64),
    ("geometry_msgs/Transform", 128),
    ("geometry_msgs/TransformStamped", 1 << 10),
    ("geometry_msgs/Twist", 1 << 20),
    ("geometry_msgs/TwistWithCovariance", 1 << 20),
    ("geometry_msgs/Vector3", 64),
    ("nav_msgs/Odometry", 8 << 10),
    ("nav_msgs/Path", 1 << 20),
    ("sensor_msgs/CameraInfo", 16 << 10),
    ("sensor_msgs/ChannelFloat32", 1 << 20),
    ("sensor_msgs/CompressedImage", 4 << 20),
    // Fits a 1920×1080 RGB frame.
    ("sensor_msgs/Image", 8 << 20),
    // A dense 2D scan.
    ("sensor_msgs/LaserScan", 64 << 10),
    // ~100k points with two float channels.
    ("sensor_msgs/PointCloud", 4 << 20),
    ("sensor_msgs/PointCloud2", 8 << 20),
    ("sensor_msgs/PointField", 512),
    ("sensor_msgs/RegionOfInterest", 64),
    ("std_msgs/ColorRGBA", 32),
    ("std_msgs/Float64", 16),
    ("std_msgs/Float64MultiArray", 1 << 20),
    // Standalone topic use.
    ("std_msgs/Header", 1 << 10),
    ("std_msgs/Int32", 16),
    ("std_msgs/MultiArrayDimension", 256),
    ("std_msgs/MultiArrayLayout", 4 << 10),
    ("std_msgs/String", 64 << 10),
    // Contains a full Image.
    ("stereo_msgs/DisparityImage", 9 << 20),
    ("tf2_msgs/TFMessage", 64 << 10),
    ("visualization_msgs/Marker", 1 << 20),
    ("visualization_msgs/MarkerArray", 4 << 20),
];

fn main() {
    println!("cargo:rerun-if-changed=build.rs");

    let catalog = Catalog::with_standard_messages();
    let config = MAX_SIZES
        .iter()
        .fold(GenConfig::default(), |c, (name, max)| {
            c.with_max_size(name, *max)
        });
    let mut modules = BTreeMap::<&str, String>::new();
    for spec in catalog.standard_specs() {
        let full = spec.full_name();
        assert!(
            config.max_size_overrides.contains_key(&full),
            "no max_size stated for {full}"
        );
        let code =
            generate(spec, &catalog, &config).unwrap_or_else(|e| panic!("generating {full}: {e}"));
        let module = modules.entry(&spec.package).or_default();
        module.push_str(&code);
        module.push('\n');
    }

    let out = PathBuf::from(std::env::var("OUT_DIR").expect("OUT_DIR set by cargo"));
    for (package, code) in modules {
        std::fs::write(out.join(format!("{package}.rs")), code).expect("write generated module");
    }
}
