//! Cross-check of the two independent schema derivations, over every
//! shipped type.
//!
//! `ros_message_impls!` derives each type's verifier schema from the real
//! Rust layout (`offset_of!` + `size_of` on the compiled struct);
//! `rossf_idl::SchemaBuilder` replays the `#[repr(C)]` layout algorithm
//! over the parsed `.msg` text. Both start from the same `.msg` tree, but
//! one goes through the generator, the macro and rustc and the other
//! through none of them: if the generator reorders a field, drops a
//! manifest entry or picks a wrong Rust type, or the layout rules regress,
//! these tests catch it as a schema mismatch.
//!
//! The table below also pins each skeleton's `size_of` and `schema_hash`
//! to the values of the commit that recorded them: bags store the hash, so
//! a layout-visible change to a shipped type orphans recorded files and
//! must be made knowingly, by editing its row.

use rossf_bag::schema_hash;
use rossf_idl::{Catalog, SchemaBuilder};
use rossf_msg::sensor_msgs::{SfmImage, SfmPointCloud2};
use rossf_sfm::{verify_frame, MessageSchema, SfmBox, SfmMessage, TypeDesc};

/// One compiled skeleton with its pinned `size_of` and `schema_hash`.
struct Compiled {
    schema: &'static MessageSchema,
    size_of: usize,
    pinned: (usize, u64),
}

macro_rules! compiled {
    ($($m:ident :: $t:ident => $pinned:expr),* $(,)?) => {
        vec![$( {
            use rossf_msg::$m::$t as T;
            Compiled {
                schema: T::schema().expect("generated types export a schema"),
                size_of: core::mem::size_of::<T>(),
                pinned: $pinned,
            }
        } ),*]
    };
}

/// Every shipped skeleton, in the `.msg` tree's order (package, then name).
fn compiled() -> Vec<Compiled> {
    compiled![
        geometry_msgs::SfmPoint => (24, 0x22af3d46866ff3ae),
        geometry_msgs::SfmPoint32 => (12, 0x931abcda9939f13b),
        geometry_msgs::SfmPose => (56, 0x23cf74433dbd0a9d),
        geometry_msgs::SfmPoseStamped => (80, 0x43c0f038a884aa89),
        geometry_msgs::SfmPoseWithCovariance => (344, 0x9a09dbe5da5b094e),
        geometry_msgs::SfmQuaternion => (32, 0xf54f37f465ee07f6),
        geometry_msgs::SfmTransform => (56, 0x78c2c1aa2634c557),
        geometry_msgs::SfmTransformStamped => (88, 0xa961e681721c0f85),
        geometry_msgs::SfmTwist => (48, 0x17dcefb3451e5456),
        geometry_msgs::SfmTwistWithCovariance => (336, 0xa0ff7ec069622a43),
        geometry_msgs::SfmVector3 => (24, 0x36b5fa393318a456),
        nav_msgs::SfmOdometry => (712, 0x6b41bbb2371eac19),
        nav_msgs::SfmPath => (28, 0x944e69ca55ee7572),
        sensor_msgs::SfmCameraInfo => (320, 0x277265b892920742),
        sensor_msgs::SfmChannelFloat32 => (16, 0xdf9de08f31f9e52c),
        sensor_msgs::SfmCompressedImage => (36, 0xced81a8423e4f050),
        sensor_msgs::SfmImage => (52, 0xfbc2bed16dcccc13),
        sensor_msgs::SfmLaserScan => (64, 0xad6d9e36622ee103),
        sensor_msgs::SfmPointCloud => (36, 0xf562aa482cde6636),
        sensor_msgs::SfmPointCloud2 => (60, 0x7e58091ff60acf8c),
        sensor_msgs::SfmPointField => (20, 0x69cdb812e490e7e7),
        sensor_msgs::SfmRegionOfInterest => (20, 0x1780f94e097806ed),
        std_msgs::SfmColorRGBA => (16, 0xca109ef5d8b79ba4),
        std_msgs::SfmFloat64 => (8, 0x4dc8878c90178eaa),
        std_msgs::SfmFloat64MultiArray => (20, 0x1aba938b83e8a1ab),
        std_msgs::SfmHeader => (20, 0x20c56437e55242d4),
        std_msgs::SfmInt32 => (4, 0xa06fb7aefe10c934),
        std_msgs::SfmMultiArrayDimension => (16, 0xec31eb6662ca0289),
        std_msgs::SfmMultiArrayLayout => (12, 0x961cc324df261317),
        std_msgs::SfmStringMsg => (8, 0x2a76d8c245ac636c),
        stereo_msgs::SfmDisparityImage => (112, 0x10305c1b7875c6bf),
        tf2_msgs::SfmTFMessage => (8, 0x6a0fde93e347e12c),
        visualization_msgs::SfmMarker => (184, 0xd1ea2a89753b479b),
        visualization_msgs::SfmMarkerArray => (8, 0xac782960a43028dc),
    ]
}

#[test]
fn every_shipped_type_agrees_with_its_msg_definition() {
    let catalog = Catalog::with_standard_messages();
    let compiled = compiled();
    let tree: Vec<String> = catalog
        .standard_specs()
        .iter()
        .map(|s| s.full_name())
        .collect();
    let table: Vec<&str> = compiled.iter().map(|c| c.schema.type_name()).collect();
    assert_eq!(table, tree, "one `compiled()` row per .msg file, in order");

    for (spec, c) in catalog.standard_specs().iter().zip(&compiled) {
        let from_idl = SchemaBuilder::new(&catalog)
            .schema(spec, c.schema.max_size)
            .unwrap();
        assert_eq!(&from_idl, c.schema, "{}", spec.full_name());
        assert_eq!(c.schema.root.size, c.size_of, "{}", spec.full_name());
    }
}

#[test]
fn layouts_and_schema_hashes_match_the_recorded_pins() {
    for c in compiled() {
        let name = c.schema.type_name();
        let now = (c.size_of, schema_hash(c.schema));
        assert!(
            now == c.pinned,
            "{name} is now ({}, {:#018x}): layout or max_size changed, and bags recorded \
             with the pinned hash will not replay",
            now.0,
            now.1
        );
    }
}

#[test]
fn point_cloud2_vecmsg_carries_the_element_skeleton() {
    // The fields vector must carry the full PointField element skeleton.
    let fields = SfmPointCloud2::schema()
        .unwrap()
        .root
        .fields()
        .iter()
        .find(|f| f.name == "fields")
        .unwrap();
    let TypeDesc::Vec(elem) = &fields.ty else {
        panic!("fields must be a vec");
    };
    assert!(elem.has_indirection(), "PointField contains a string");
}

#[test]
fn published_image_verifies_under_both_schemas() {
    let mut img = SfmBox::<SfmImage>::new();
    img.header.seq = 7;
    img.header.frame_id.assign("camera");
    img.height = 4;
    img.width = 4;
    img.encoding.assign("rgb8");
    img.step = 12;
    img.data.resize(48);
    let frame = img.publish_handle().as_slice().to_vec();

    verify_frame(SfmImage::schema().unwrap(), &frame).expect("macro schema accepts");
    let catalog = Catalog::with_standard_messages();
    let from_idl = SchemaBuilder::new(&catalog)
        .schema(
            catalog.find("sensor_msgs/Image").unwrap(),
            SfmImage::max_size(),
        )
        .unwrap();
    verify_frame(&from_idl, &frame).expect("IDL schema accepts");
}

#[test]
fn odometry_frame_verifies_against_its_schema() {
    use rossf_msg::nav_msgs::SfmOdometry;
    let schema = SfmOdometry::schema().expect("generated types export a schema");
    assert_eq!(schema.type_name(), "nav_msgs/Odometry");

    let mut odom = SfmBox::<SfmOdometry>::new();
    odom.header.frame_id.assign("odom");
    odom.child_frame_id.assign("base_link");
    let frame = odom.publish_handle().as_slice().to_vec();
    let report = verify_frame(schema, &frame).unwrap();
    assert_eq!(report.regions, 2); // the two strings
}

#[test]
fn schema_is_cached_per_type() {
    let a = SfmImage::schema().unwrap() as *const MessageSchema;
    let b = SfmImage::schema().unwrap() as *const MessageSchema;
    assert_eq!(a, b);
}
