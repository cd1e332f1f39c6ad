//! `sfm_verify` — offline triage for raw SFM frames.
//!
//! Runs the schema-driven structural verifier
//! ([`rossf_sfm::verify_frame`]) outside the transport, against frames
//! captured to disk or synthesized in-process:
//!
//! ```text
//! sfm_verify --list                        # known message types
//! sfm_verify --dump-schema sensor_msgs/Image
//! sfm_verify --type sensor_msgs/Image frame.bin [more.bin ...]
//! sfm_verify --self-test                   # exercises accept+reject paths
//! ```
//!
//! Exit status: 0 when every checked frame verifies (and the self-test
//! passes), 1 on any rejection or usage error — scriptable in CI.

use rossf_msg::nav_msgs::SfmOdometry;
use rossf_msg::sensor_msgs::{SfmCameraInfo, SfmImage, SfmLaserScan, SfmPointCloud2};
use rossf_msg::std_msgs::SfmHeader;
use rossf_sfm::{verify_frame, MessageSchema, SfmBox, SfmMessage, StructDesc, TypeDesc};

/// One registered message type the tool can verify against.
struct Entry {
    name: &'static str,
    schema: fn() -> &'static MessageSchema,
}

/// Types with exported schemas, addressable by ROS type name.
fn registry() -> Vec<Entry> {
    fn entry<T: SfmMessage>() -> Entry {
        Entry {
            name: T::type_name(),
            schema: || T::schema().expect("registered type exports a schema"),
        }
    }
    vec![
        entry::<SfmHeader>(),
        entry::<SfmImage>(),
        entry::<SfmCameraInfo>(),
        entry::<SfmLaserScan>(),
        entry::<SfmPointCloud2>(),
        entry::<SfmOdometry>(),
    ]
}

fn lookup(name: &str) -> Option<&'static MessageSchema> {
    registry()
        .iter()
        .find(|e| e.name == name)
        .map(|e| (e.schema)())
}

fn type_desc_label(ty: &TypeDesc) -> String {
    match ty {
        TypeDesc::Prim { size, align } => format!("prim(size={size}, align={align})"),
        TypeDesc::Str => "string".to_string(),
        TypeDesc::Vec(elem) => format!("vec<{}>", type_desc_label(elem)),
        TypeDesc::Struct(s) => s.name.clone(),
        TypeDesc::Array { elem, len } => format!("[{}; {len}]", type_desc_label(elem)),
    }
}

fn dump_struct(s: &StructDesc, indent: usize) {
    let pad = "  ".repeat(indent);
    println!("{pad}{} (size={}, align={})", s.name, s.size, s.align);
    for f in s.fields() {
        println!(
            "{pad}  +{:<4} {:<16} {}",
            f.offset,
            f.name,
            type_desc_label(&f.ty)
        );
        if let TypeDesc::Struct(inner) = &f.ty {
            dump_struct(inner, indent + 2);
        } else if let TypeDesc::Vec(elem) = &f.ty {
            if let TypeDesc::Struct(inner) = elem.as_ref() {
                dump_struct(inner, indent + 2);
            }
        }
    }
}

fn verify_bytes(schema: &MessageSchema, label: &str, bytes: &[u8]) -> bool {
    match verify_frame(schema, bytes) {
        Ok(report) => {
            println!(
                "{label}: OK ({} bytes, {} fields walked, {} content regions, {} gap bytes)",
                bytes.len(),
                report.fields_walked,
                report.regions,
                report.gap_bytes
            );
            true
        }
        Err(e) => {
            println!("{label}: REJECTED — {e}");
            false
        }
    }
}

/// Exercise both verdicts in-process: a freshly published Image and
/// PointCloud2 must verify, and targeted corruptions of each must be
/// rejected with a diagnostic naming the failing field.
fn self_test() -> bool {
    let mut ok = true;

    let mut img = SfmBox::<SfmImage>::new();
    img.header.frame_id.assign("cam0");
    img.height = 4;
    img.width = 4;
    img.encoding.assign("rgb8");
    img.step = 12;
    img.data.assign(&[7u8; 48]);
    let frame = img.publish_handle().as_slice().to_vec();
    let schema = SfmImage::schema().expect("Image exports a schema");
    ok &= verify_bytes(schema, "self-test image (valid)", &frame);

    // Point the data offset past the end of the frame.
    let mut corrupt = frame.clone();
    let data_pair = core::mem::offset_of!(SfmImage, data);
    corrupt[data_pair + 4..data_pair + 8].copy_from_slice(&u32::MAX.to_ne_bytes());
    ok &= !verify_bytes(schema, "self-test image (data offset OOB)", &corrupt);

    // Truncate: content regions now extend past the frame.
    let truncated = &frame[..frame.len() - 8];
    ok &= !verify_bytes(schema, "self-test image (truncated)", truncated);

    let mut pc = SfmBox::<SfmPointCloud2>::new();
    pc.header.frame_id.assign("lidar");
    pc.height = 1;
    pc.width = 2;
    pc.fields.resize(1);
    pc.fields.as_mut_slice()[0].name.assign("x");
    pc.fields.as_mut_slice()[0].datatype = 7;
    pc.fields.as_mut_slice()[0].count = 1;
    pc.point_step = 4;
    pc.row_step = 8;
    pc.data.assign(&[0u8; 8]);
    pc.is_dense = 1;
    let pc_frame = pc.publish_handle().as_slice().to_vec();
    let pc_schema = SfmPointCloud2::schema().expect("PointCloud2 exports a schema");
    ok &= verify_bytes(pc_schema, "self-test cloud (valid)", &pc_frame);

    // Blow up the vector length so elements overrun their region.
    let mut pc_corrupt = pc_frame.clone();
    let fields_pair = core::mem::offset_of!(SfmPointCloud2, fields);
    pc_corrupt[fields_pair..fields_pair + 4].copy_from_slice(&1_000_000u32.to_ne_bytes());
    ok &= !verify_bytes(
        pc_schema,
        "self-test cloud (field count forged)",
        &pc_corrupt,
    );

    if ok {
        println!("self-test: PASS");
    } else {
        println!("self-test: FAIL");
    }
    ok
}

fn usage() -> ! {
    eprintln!(
        "usage: sfm_verify --list\n       \
         sfm_verify --dump-schema <type>\n       \
         sfm_verify --type <type> <file> [file ...]\n       \
         sfm_verify --self-test"
    );
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            for e in registry() {
                let s = (e.schema)();
                println!(
                    "{:<28} skeleton {} bytes, max frame {} bytes",
                    e.name, s.root.size, s.max_size
                );
            }
        }
        Some("--dump-schema") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let Some(schema) = lookup(name) else {
                eprintln!("unknown type `{name}` (try --list)");
                std::process::exit(1);
            };
            dump_struct(&schema.root, 0);
            println!("max frame: {} bytes", schema.max_size);
            // Every path a projection subscription may select
            // (`SubscriberOptions::project`), with its projectability.
            println!("projection paths:");
            for path in schema.resolvable_paths() {
                let path = path.to_string();
                let verdict = match rossf_sfm::Projection::resolve(schema, &[&path]) {
                    Ok(_) => "ok",
                    Err(rossf_sfm::PathError::Unprojectable { .. }) => "unprojectable",
                    Err(_) => "unresolvable",
                };
                println!("  {path:<24} {verdict}");
            }
        }
        Some("--type") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let files = &args[2..];
            if files.is_empty() {
                usage();
            }
            let Some(schema) = lookup(name) else {
                eprintln!("unknown type `{name}` (try --list)");
                std::process::exit(1);
            };
            let mut all_ok = true;
            for path in files {
                match std::fs::read(path) {
                    Ok(bytes) => all_ok &= verify_bytes(schema, path, &bytes),
                    Err(e) => {
                        eprintln!("{path}: cannot read: {e}");
                        all_ok = false;
                    }
                }
            }
            if !all_ok {
                std::process::exit(1);
            }
        }
        Some("--self-test") => {
            if !self_test() {
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
