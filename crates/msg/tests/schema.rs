//! Cross-check of the two independent schema derivations.
//!
//! `ros_message_impls!` derives each type's verifier schema from the real
//! Rust layout (`offset_of!` + `size_of`); `rossf_idl::SchemaBuilder`
//! replays the `#[repr(C)]` layout algorithm over the parsed `.msg` text.
//! If the hand-written skeleton structs, the field manifests, and the IDL
//! ever disagree — a reordered field, a missing manifest entry, a layout
//! regression — these tests catch it as a schema mismatch.

use rossf_idl::{parse_msg, Catalog, SchemaBuilder};
use rossf_msg::sensor_msgs::{SfmImage, SfmPointCloud2};
use rossf_msg::std_msgs::SfmHeader;
use rossf_sfm::{verify_frame, MessageSchema, SfmBox, SfmMessage, SfmReflect, TypeDesc};

const HEADER_MSG: &str = "
uint32 seq
time stamp
string frame_id
";

const IMAGE_MSG: &str = "
Header header
uint32 height
uint32 width
string encoding
uint8 is_bigendian
uint32 step
uint8[] data
";

const POINT_FIELD_MSG: &str = "
string name
uint32 offset
uint8 datatype
uint32 count
";

const POINT_CLOUD2_MSG: &str = "
Header header
uint32 height
uint32 width
PointField[] fields
uint8 is_bigendian
uint32 point_step
uint32 row_step
uint8[] data
uint8 is_dense
";

/// Catalog holding the real ROS definitions of every type under test, so
/// the IDL side elaborates the *entire* tree (Header included) from text.
fn idl_catalog() -> Catalog {
    let mut c = Catalog::new();
    for (pkg, name, text) in [
        ("std_msgs", "Header", HEADER_MSG),
        ("sensor_msgs", "PointField", POINT_FIELD_MSG),
        ("sensor_msgs", "Image", IMAGE_MSG),
        ("sensor_msgs", "PointCloud2", POINT_CLOUD2_MSG),
    ] {
        c.add(parse_msg(pkg, name, text).unwrap()).unwrap();
    }
    c
}

fn idl_schema(full_name: &str, max_size: usize) -> MessageSchema {
    let catalog = idl_catalog();
    let spec = catalog
        .specs()
        .iter()
        .find(|s| s.full_name() == full_name)
        .unwrap()
        .clone();
    SchemaBuilder::new(&catalog)
        .schema(&spec, max_size)
        .unwrap()
}

#[test]
fn header_schemas_agree() {
    let from_idl = idl_schema("std_msgs/Header", 1024);
    let TypeDesc::Struct(from_macro) = SfmHeader::type_desc() else {
        panic!("SfmHeader must reflect as a struct");
    };
    assert_eq!(from_idl.root, from_macro);
}

#[test]
fn image_schemas_agree() {
    let from_idl = idl_schema("sensor_msgs/Image", SfmImage::max_size());
    let from_macro = SfmImage::schema().expect("generated types export a schema");
    assert_eq!(&from_idl, from_macro);
}

#[test]
fn point_cloud2_schemas_agree_including_nested_vecmsg() {
    let from_idl = idl_schema("sensor_msgs/PointCloud2", SfmPointCloud2::max_size());
    let from_macro = SfmPointCloud2::schema().unwrap();
    assert_eq!(&from_idl, from_macro);
    // The fields vector must carry the full PointField element skeleton.
    let fields = from_macro
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
    verify_frame(
        &idl_schema("sensor_msgs/Image", SfmImage::max_size()),
        &frame,
    )
    .expect("IDL schema accepts");
}

#[test]
fn generated_nav_msgs_types_export_schemas() {
    // nav_msgs is emitted by build.rs through the real generator, so this
    // proves the macro's schema path on generated code too.
    use rossf_msg::nav_msgs::SfmOdometry;
    let schema = SfmOdometry::schema().expect("generated nav_msgs export a schema");
    assert_eq!(schema.type_name(), "nav_msgs/Odometry");
    assert_eq!(schema.root.size, core::mem::size_of::<SfmOdometry>());

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
