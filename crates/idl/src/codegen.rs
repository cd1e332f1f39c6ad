//! Rust code generation from parsed `.msg` specs.

use crate::model::{Arity, Catalog, Constant, Field, FieldType, MessageSpec};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Options controlling generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// `max_size` used for message types without an override — the IDL
    /// bound of §4.2.
    pub default_max_size: usize,
    /// Per-type overrides, keyed by full name (`pkg/Name`).
    pub max_size_overrides: BTreeMap<String, usize>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            default_max_size: 1 << 20,
            max_size_overrides: BTreeMap::new(),
        }
    }
}

impl GenConfig {
    /// Set the `max_size` for one message type.
    pub fn with_max_size(mut self, full_name: &str, max: usize) -> Self {
        self.max_size_overrides.insert(full_name.to_string(), max);
        self
    }
}

/// The `ros_message_impls!` field kind for `field`, plus the plain and SFM
/// Rust types.
fn field_plan(field: &Field, catalog: &Catalog) -> Result<(&'static str, String, String), String> {
    let unsupported = |what: &str| {
        Err(format!(
            "unsupported construct in field `{}`: {what}",
            field.name
        ))
    };
    match (&field.arity, &field.ty) {
        (Arity::Scalar, FieldType::RosString) => Ok((
            "string",
            "String".to_string(),
            "::rossf_sfm::SfmString".to_string(),
        )),
        (Arity::Scalar, FieldType::Named(n)) => {
            let r = catalog
                .resolve(n)
                .ok_or_else(|| format!("unresolved message type `{n}`"))?;
            Ok(("nested", r.plain.clone(), r.sfm.clone()))
        }
        (Arity::Scalar, FieldType::Time | FieldType::Duration) => {
            let p = field.ty.rust_prim().expect("time types are primitive");
            Ok(("time", p.to_string(), p.to_string()))
        }
        (Arity::Scalar, ty) => {
            let p = ty.rust_prim().expect("remaining scalars are primitive");
            Ok(("prim", p.to_string(), p.to_string()))
        }
        (Arity::DynamicArray, FieldType::Bool | FieldType::UInt8) => Ok((
            "bytes",
            "Vec<u8>".to_string(),
            "::rossf_sfm::SfmVec<u8>".to_string(),
        )),
        (Arity::DynamicArray, FieldType::RosString) => Ok((
            "vecstr",
            "Vec<String>".to_string(),
            "::rossf_sfm::SfmVec<::rossf_sfm::SfmString>".to_string(),
        )),
        (Arity::DynamicArray, FieldType::Named(n)) => {
            let r = catalog
                .resolve(n)
                .ok_or_else(|| format!("unresolved message type `{n}`"))?;
            Ok((
                "vecmsg",
                format!("Vec<{}>", r.plain),
                format!("::rossf_sfm::SfmVec<{}>", r.sfm),
            ))
        }
        (Arity::DynamicArray, ty) => {
            let p = ty
                .rust_prim()
                .expect("remaining element types are primitive");
            Ok((
                "vec",
                format!("Vec<{p}>"),
                format!("::rossf_sfm::SfmVec<{p}>"),
            ))
        }
        (Arity::FixedArray(n), ty) => match ty.rust_prim() {
            Some(p) if !matches!(ty, FieldType::Time | FieldType::Duration) => {
                Ok(("arr", format!("[{p}; {n}]"), format!("[{p}; {n}]")))
            }
            _ => unsupported("fixed arrays of strings, times, or messages"),
        },
    }
}

fn constant_decl(c: &Constant) -> Result<String, String> {
    let (ty, value) = match &c.ty {
        FieldType::Bool => (
            "bool".to_string(),
            match c.value.as_str() {
                "True" | "true" | "1" => "true".to_string(),
                "False" | "false" | "0" => "false".to_string(),
                other => return Err(format!("bad bool constant `{other}`")),
            },
        ),
        FieldType::RosString => ("&str".to_string(), format!("{:?}", c.value)),
        ty => {
            let p = ty
                .rust_prim()
                .ok_or_else(|| format!("constant `{}` has non-primitive type", c.name))?;
            (p.to_string(), c.value.clone())
        }
    };
    Ok(format!("    pub const {}: {} = {};\n", c.name, ty, value))
}

fn doc_line(out: &mut String, indent: &str, text: &str) {
    let line = format!("{indent}/// {}", text.replace('\n', " "));
    let _ = writeln!(out, "{}", line.trim_end());
}

/// Whether `spec` holds no string or dynamic array at any depth, so its
/// plain struct can be `Copy`. `visiting` stops a cyclic definition.
fn is_fixed_size<'c>(
    spec: &'c MessageSpec,
    catalog: &'c Catalog,
    visiting: &mut Vec<&'c MessageSpec>,
) -> bool {
    if visiting.iter().any(|v| std::ptr::eq(*v, spec)) {
        return false;
    }
    visiting.push(spec);
    let fixed = spec.fields.iter().all(|f| match (&f.arity, &f.ty) {
        (Arity::DynamicArray, _) | (_, FieldType::RosString) => false,
        (_, FieldType::Named(n)) => catalog
            .find(n)
            .is_some_and(|nested| is_fixed_size(nested, catalog, visiting)),
        _ => true,
    });
    visiting.pop();
    fixed
}

/// Generate the Rust source for one message: the plain struct, the SFM
/// skeleton, constants, and the `ros_message_impls!` invocation.
///
/// # Errors
///
/// A human-readable message naming the unresolved type or unsupported
/// construct.
pub fn generate(
    spec: &MessageSpec,
    catalog: &Catalog,
    config: &GenConfig,
) -> Result<String, String> {
    let full = spec.full_name();
    let max = config
        .max_size_overrides
        .get(&full)
        .copied()
        .unwrap_or(config.default_max_size);

    let plans: Vec<_> = spec
        .fields
        .iter()
        .map(|f| field_plan(f, catalog).map(|p| (f, p)))
        .collect::<Result<_, _>>()?;

    // `Default` cannot be derived when a fixed array exceeds 32 elements
    // (e.g. the 6x6 covariance of nav_msgs/Odometry); emit it by hand then.
    let needs_manual_default = spec
        .fields
        .iter()
        .any(|f| matches!(f.arity, Arity::FixedArray(n) if n > 32));

    let name = &spec.rust_name;
    let copy = if is_fixed_size(spec, catalog, &mut Vec::new()) {
        ", Copy"
    } else {
        ""
    };
    let default = if needs_manual_default {
        ""
    } else {
        ", Default"
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by rossf-idl from `{full}.msg` — do not edit."
    );
    let _ = writeln!(out);

    // Plain struct.
    match &spec.doc {
        Some(doc) => doc.lines().for_each(|l| doc_line(&mut out, "", l)),
        None => doc_line(&mut out, "", &format!("`{full}` (generated).")),
    }
    let _ = writeln!(out, "#[derive(Debug, Clone{copy}, PartialEq{default})]");
    let _ = writeln!(out, "pub struct {} {{", name);
    for (f, (_, plain_ty, _)) in &plans {
        doc_line(
            &mut out,
            "    ",
            f.comment
                .as_deref()
                .unwrap_or(&format!("`{}` field.", f.name)),
        );
        let _ = writeln!(out, "    pub {}: {},", f.name, plain_ty);
    }
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);

    if needs_manual_default {
        let _ = writeln!(out, "impl Default for {} {{", name);
        let _ = writeln!(out, "    fn default() -> Self {{");
        let _ = writeln!(out, "        {} {{", name);
        for (f, _) in &plans {
            match f.arity {
                Arity::FixedArray(n) => {
                    let _ = writeln!(out, "            {}: [Default::default(); {}],", f.name, n);
                }
                _ => {
                    let _ = writeln!(out, "            {}: Default::default(),", f.name);
                }
            }
        }
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "}}");
        let _ = writeln!(out);
    }

    // Constants.
    if !spec.constants.is_empty() {
        let _ = writeln!(out, "impl {} {{", name);
        for c in &spec.constants {
            doc_line(&mut out, "    ", &format!("IDL constant `{}`.", c.name));
            out.push_str(&constant_decl(c)?);
        }
        let _ = writeln!(out, "}}");
        let _ = writeln!(out);
    }

    // SFM skeleton.
    doc_line(
        &mut out,
        "",
        &format!("Serialization-free skeleton of [`{}`] (generated).", name),
    );
    let _ = writeln!(out, "#[repr(C)]");
    let _ = writeln!(out, "#[derive(Debug)]");
    let _ = writeln!(out, "pub struct Sfm{} {{", name);
    for (f, (_, _, sfm_ty)) in &plans {
        doc_line(
            &mut out,
            "    ",
            f.comment
                .as_deref()
                .unwrap_or(&format!("`{}` field.", f.name)),
        );
        let _ = writeln!(out, "    pub {}: {},", f.name, sfm_ty);
    }
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);

    // Trait stack.
    let _ = writeln!(out, "::rossf_msg::ros_message_impls! {{");
    let _ = writeln!(
        out,
        "    {} / Sfm{} : \"{}\", max_size = {},",
        name, name, full, max
    );
    let _ = writeln!(out, "    fields = {{");
    for (f, (kind, _, _)) in &plans {
        let _ = writeln!(out, "        {kind} {},", f.name);
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_msg;

    fn image_spec() -> MessageSpec {
        parse_msg(
            "sensor_msgs",
            "Image",
            "Header header\nuint32 height\nuint32 width\nstring encoding\n\
             uint8 is_bigendian\nuint32 step\nuint8[] data\n",
        )
        .unwrap()
    }

    #[test]
    fn image_generation_matches_handwritten_structure() {
        let catalog = Catalog::with_standard_messages();
        let config = GenConfig::default().with_max_size("sensor_msgs/Image", 8 << 20);
        let code = generate(&image_spec(), &catalog, &config).unwrap();
        assert!(code.contains("pub struct Image {"));
        assert!(code.contains("pub struct SfmImage {"));
        assert!(code.contains("pub header: ::rossf_msg::std_msgs::Header,"));
        assert!(code.contains("pub header: ::rossf_msg::std_msgs::SfmHeader,"));
        assert!(code.contains("pub encoding: ::rossf_sfm::SfmString,"));
        assert!(code.contains("pub data: ::rossf_sfm::SfmVec<u8>,"));
        assert!(code.contains("max_size = 8388608"));
        assert!(code.contains("bytes data,"));
        assert!(code.contains("nested header,"));
        assert!(code.contains("string encoding,"));
    }

    #[test]
    fn kinds_cover_every_arity_type_combination() {
        let spec = parse_msg(
            "demo",
            "Kinds",
            "bool flag\nfloat64 value\ntime stamp\nduration span\nstring label\n\
             Header header\nuint8[] blob\nfloat32[] floats\nstring[] names\n\
             geometry_msgs/Point32[] points\nfloat64[9] matrix\n",
        )
        .unwrap();
        let catalog = Catalog::with_standard_messages();
        let code = generate(&spec, &catalog, &GenConfig::default()).unwrap();
        for needle in [
            "prim flag",
            "prim value",
            "time stamp",
            "time span",
            "string label",
            "nested header",
            "bytes blob",
            "vec floats",
            "vecstr names",
            "vecmsg points",
            "arr matrix",
        ] {
            assert!(code.contains(needle), "missing `{needle}` in:\n{code}");
        }
        assert!(code.contains("pub matrix: [f64; 9],"));
        assert!(code.contains("pub stamp: ::rossf_ros::time::RosTime,"));
        assert!(code.contains("pub span: ::rossf_ros::time::RosDuration,"));
        assert!(code.contains("pub names: ::rossf_sfm::SfmVec<::rossf_sfm::SfmString>,"));
    }

    #[test]
    fn constants_generated() {
        let spec = parse_msg(
            "sensor_msgs",
            "PointField",
            "uint8 INT8=1\nuint8 FLOAT32=7\nstring DEFAULT_NAME=xyz\nbool FLAG=True\nstring name\n",
        )
        .unwrap();
        let catalog = Catalog::with_standard_messages();
        let code = generate(&spec, &catalog, &GenConfig::default()).unwrap();
        assert!(code.contains("pub const INT8: u8 = 1;"));
        assert!(code.contains("pub const FLOAT32: u8 = 7;"));
        // `&'static str` trips clippy::redundant_static_lifetimes in the includer.
        assert!(code.contains("pub const DEFAULT_NAME: &str = \"xyz\";"));
        assert!(code.contains("pub const FLAG: bool = true;"));
    }

    #[test]
    fn user_definitions_may_reference_every_shipped_type() {
        let spec = parse_msg(
            "demo",
            "Scene",
            "geometry_msgs/TransformStamped t\nstd_msgs/ColorRGBA c\n\
             visualization_msgs/Marker[] m\nstd_msgs/String label\n",
        )
        .unwrap();
        let mut catalog = Catalog::with_standard_messages();
        catalog.add(spec).unwrap();
        let code = catalog.generate_all(&GenConfig::default()).unwrap();
        for needle in [
            "pub t: ::rossf_msg::geometry_msgs::SfmTransformStamped,",
            "pub c: ::rossf_msg::std_msgs::ColorRGBA,",
            "pub m: ::rossf_sfm::SfmVec<::rossf_msg::visualization_msgs::SfmMarker>,",
            "pub label: ::rossf_msg::std_msgs::SfmStringMsg,",
        ] {
            assert!(code.contains(needle), "missing `{needle}` in:\n{code}");
        }
    }

    #[test]
    fn type_doc_is_the_leading_comment_block() {
        let catalog = Catalog::new();
        let documented = parse_msg(
            "demo",
            "Blip",
            "# A radar return.\n#\n# Range in m.\nfloat32 r\n",
        );
        let code = generate(&documented.unwrap(), &catalog, &GenConfig::default()).unwrap();
        assert!(code.contains("/// A radar return.\n///\n/// Range in m.\n#[derive("));
        assert!(!code.contains("(generated).\n#[derive(Debug, Clone"));

        let bare = parse_msg("demo", "Blip", "float32 r\n").unwrap();
        let code = generate(&bare, &catalog, &GenConfig::default()).unwrap();
        assert!(code.contains("/// `demo/Blip` (generated).\n#[derive("));
    }

    #[test]
    fn copy_is_derived_exactly_for_fixed_size_messages() {
        let catalog = Catalog::with_standard_messages();
        let derive_of = |text: &str| {
            let spec = parse_msg("demo", "M", text).unwrap();
            let code = generate(&spec, &catalog, &GenConfig::default()).unwrap();
            let line = code.lines().find(|l| l.starts_with("#[derive(")).unwrap();
            line.to_string()
        };
        let fixed = "#[derive(Debug, Clone, Copy, PartialEq, Default)]";
        assert_eq!(derive_of("float64 x\ntime t\nfloat64[9] k\n"), fixed);
        assert_eq!(derive_of("geometry_msgs/Pose p\n"), fixed);
        assert_eq!(
            derive_of("float64[36] covariance\n"),
            "#[derive(Debug, Clone, Copy, PartialEq)]"
        );
        let growable = "#[derive(Debug, Clone, PartialEq, Default)]";
        assert_eq!(derive_of("string s\n"), growable);
        assert_eq!(derive_of("float64[] v\n"), growable);
        assert_eq!(derive_of("geometry_msgs/PoseStamped p\n"), growable);
    }

    #[test]
    fn rust_name_override_renames_both_structs_and_keeps_the_ros_name() {
        let catalog = Catalog::with_standard_messages();
        let spec = catalog.find("std_msgs/String").unwrap();
        let code = generate(spec, &catalog, &GenConfig::default()).unwrap();
        assert!(code.contains("pub struct StringMsg {"));
        assert!(code.contains("pub struct SfmStringMsg {"));
        assert!(code.contains("StringMsg / SfmStringMsg : \"std_msgs/String\","));
    }

    #[test]
    fn output_does_not_depend_on_the_order_specs_were_added_in() {
        let specs = [
            parse_msg("b_msgs", "Alpha", "a_msgs/Zed z\n").unwrap(),
            parse_msg("a_msgs", "Zed", "float64 x\n").unwrap(),
            parse_msg("a_msgs", "Able", "Zed[] zs\n").unwrap(),
        ];
        let generate_in = |order: [usize; 3]| {
            let mut catalog = Catalog::new();
            for i in order {
                catalog.add(specs[i].clone()).unwrap();
            }
            catalog.generate_all(&GenConfig::default()).unwrap()
        };
        let code = generate_in([0, 1, 2]);
        assert_eq!(code, generate_in([2, 1, 0]));
        let at = |needle: &str| code.find(needle).unwrap();
        assert!(at("pub struct Able") < at("pub struct Zed"));
        assert!(at("pub struct Zed") < at("pub struct Alpha"));
    }

    #[test]
    fn unresolved_type_is_an_error() {
        let spec = parse_msg("demo", "Bad", "mystery_msgs/Unknown field\n").unwrap();
        let catalog = Catalog::with_standard_messages();
        let err = generate(&spec, &catalog, &GenConfig::default()).unwrap_err();
        assert!(err.contains("mystery_msgs/Unknown"));
    }

    #[test]
    fn fixed_message_arrays_unsupported() {
        let spec = parse_msg("demo", "Bad", "Header[4] headers\n").unwrap();
        let catalog = Catalog::with_standard_messages();
        assert!(generate(&spec, &catalog, &GenConfig::default()).is_err());
    }

    #[test]
    fn catalog_generate_all_chains_local_types() {
        let mut catalog = Catalog::with_standard_messages();
        catalog
            .add(parse_msg("demo", "Inner", "float64 x\n").unwrap())
            .unwrap();
        catalog
            .add(parse_msg("demo", "Outer", "Inner inner\nInner[] more\n").unwrap())
            .unwrap();
        let code = catalog.generate_all(&GenConfig::default()).unwrap();
        assert!(code.contains("pub inner: Inner,"));
        assert!(code.contains("pub inner: SfmInner,"));
        assert!(code.contains("pub more: ::rossf_sfm::SfmVec<SfmInner>,"));
    }
}
