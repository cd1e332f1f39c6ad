//! The data model of the ROS `.msg` IDL.

use crate::parse::parse_msg;
use std::collections::BTreeMap;
use std::fmt;

/// A field's base type in the ROS IDL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    /// `bool` (wire: one byte; SFM: `u8`).
    Bool,
    /// `int8` / the deprecated alias `byte`.
    Int8,
    /// `uint8` / the deprecated alias `char`.
    UInt8,
    /// `int16`.
    Int16,
    /// `uint16`.
    UInt16,
    /// `int32`.
    Int32,
    /// `uint32`.
    UInt32,
    /// `int64`.
    Int64,
    /// `uint64`.
    UInt64,
    /// `float32`.
    Float32,
    /// `float64`.
    Float64,
    /// `time` (u32 sec + u32 nsec).
    Time,
    /// `duration` (i32 sec + i32 nsec).
    Duration,
    /// `string`.
    RosString,
    /// A nested message, e.g. `Header` or `geometry_msgs/Point32`.
    Named(String),
}

impl FieldType {
    /// Parse an IDL base-type token.
    pub fn from_token(tok: &str) -> FieldType {
        match tok {
            "bool" => FieldType::Bool,
            "int8" | "byte" => FieldType::Int8,
            "uint8" | "char" => FieldType::UInt8,
            "int16" => FieldType::Int16,
            "uint16" => FieldType::UInt16,
            "int32" => FieldType::Int32,
            "uint32" => FieldType::UInt32,
            "int64" => FieldType::Int64,
            "uint64" => FieldType::UInt64,
            "float32" => FieldType::Float32,
            "float64" => FieldType::Float64,
            "time" => FieldType::Time,
            "duration" => FieldType::Duration,
            "string" => FieldType::RosString,
            other => FieldType::Named(other.to_string()),
        }
    }

    /// The Rust primitive spelled by this type, if it is a fixed-size
    /// primitive.
    pub fn rust_prim(&self) -> Option<&'static str> {
        Some(match self {
            FieldType::Bool | FieldType::UInt8 => "u8",
            FieldType::Int8 => "i8",
            FieldType::Int16 => "i16",
            FieldType::UInt16 => "u16",
            FieldType::Int32 => "i32",
            FieldType::UInt32 => "u32",
            FieldType::Int64 => "i64",
            FieldType::UInt64 => "u64",
            FieldType::Float32 => "f32",
            FieldType::Float64 => "f64",
            FieldType::Time => "::rossf_ros::time::RosTime",
            FieldType::Duration => "::rossf_ros::time::RosDuration",
            FieldType::RosString | FieldType::Named(_) => return None,
        })
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FieldType::Bool => "bool",
            FieldType::Int8 => "int8",
            FieldType::UInt8 => "uint8",
            FieldType::Int16 => "int16",
            FieldType::UInt16 => "uint16",
            FieldType::Int32 => "int32",
            FieldType::UInt32 => "uint32",
            FieldType::Int64 => "int64",
            FieldType::UInt64 => "uint64",
            FieldType::Float32 => "float32",
            FieldType::Float64 => "float64",
            FieldType::Time => "time",
            FieldType::Duration => "duration",
            FieldType::RosString => "string",
            FieldType::Named(n) => n,
        };
        f.write_str(s)
    }
}

/// Whether a field is a scalar, fixed array, or dynamic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// `T name`.
    Scalar,
    /// `T[N] name`.
    FixedArray(usize),
    /// `T[] name`.
    DynamicArray,
}

/// One field of a message.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Base type.
    pub ty: FieldType,
    /// Scalar / fixed / dynamic.
    pub arity: Arity,
    /// Trailing `#` comment from the IDL, if any (becomes a doc comment).
    pub comment: Option<String>,
}

/// A `CONSTANT = value` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Constant {
    /// Constant name (SCREAMING_SNAKE by ROS convention).
    pub name: String,
    /// Base type.
    pub ty: FieldType,
    /// Literal value text, verbatim from the IDL.
    pub value: String,
}

/// A parsed `.msg` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageSpec {
    /// Package, e.g. `sensor_msgs`.
    pub package: String,
    /// Message name, e.g. `Image`.
    pub name: String,
    /// Name of the generated plain struct (the skeleton is `Sfm` + this).
    /// The message name unless overridden with
    /// [`MessageSpec::with_rust_name`].
    pub rust_name: String,
    /// The leading comment block of the definition, one line per `\n`
    /// (becomes the struct's doc comment).
    pub doc: Option<String>,
    /// Fields in declaration order (the order SFM skeletons must keep).
    pub fields: Vec<Field>,
    /// Constants.
    pub constants: Vec<Constant>,
}

impl MessageSpec {
    /// Full ROS type name, `package/Name`.
    pub fn full_name(&self) -> String {
        format!("{}/{}", self.package, self.name)
    }

    /// Generate the Rust structs under `rust_name` while the ROS type name
    /// stays `package/Name` — for a message whose name would shadow a type
    /// the generated code spells (`std_msgs/String` → `StringMsg`).
    pub fn with_rust_name(mut self, rust_name: &str) -> Self {
        self.rust_name = rust_name.to_string();
        self
    }
}

/// The `.msg` tree shipped as `rossf-msg` (`crates/idl/msg/<pkg>/<Name>.msg`),
/// embedded by the build script as `(package, name, text)` sorted by
/// package, then name. The one place a shipped message is defined.
const STANDARD_TREE: &[(&str, &str, &str)] =
    include!(concat!(env!("OUT_DIR"), "/standard_tree.rs"));

/// Shipped types whose Rust name differs from their ROS name.
const STANDARD_RUST_NAMES: &[(&str, &str)] = &[("std_msgs/String", "StringMsg")];

/// How a named message type is spelled in generated Rust code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedType {
    /// Path of the plain struct, e.g. `::rossf_msg::std_msgs::Header`.
    pub plain: String,
    /// Path of the SFM skeleton, e.g. `::rossf_msg::std_msgs::SfmHeader`.
    pub sfm: String,
}

/// A set of message specs plus the resolution table mapping named types to
/// Rust paths. Generation happens per catalog so cross-references inside
/// one generated module resolve to the local structs.
#[derive(Debug, Default)]
pub struct Catalog {
    specs: Vec<MessageSpec>,
    standard: Vec<MessageSpec>,
    resolutions: BTreeMap<String, ResolvedType>,
}

impl Catalog {
    /// Empty catalog with no standard-library resolutions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Catalog pre-populated with every message type shipped in
    /// `rossf-msg`, resolvable both bare (`Header`) and package-qualified
    /// (`std_msgs/Header`) to its `::rossf_msg::<pkg>::<Name>` path. The
    /// set is the embedded `.msg` tree `rossf-msg` itself is generated
    /// from, so the two cannot disagree.
    pub fn with_standard_messages() -> Self {
        let mut c = Self::new();
        for &(pkg, name, text) in STANDARD_TREE {
            let rust_name = STANDARD_RUST_NAMES
                .iter()
                .find(|(full, _)| full.split_once('/') == Some((pkg, name)))
                .map_or(name, |(_, rust)| rust);
            let spec = parse_msg(pkg, name, text)
                .unwrap_or_else(|e| panic!("shipped definition {pkg}/{name}.msg: {e}"))
                .with_rust_name(rust_name);
            let path = format!("::rossf_msg::{pkg}::");
            c.register(&spec, &path);
            c.standard.push(spec);
        }
        c
    }

    fn register(&mut self, spec: &MessageSpec, path: &str) {
        let resolved = ResolvedType {
            plain: format!("{path}{}", spec.rust_name),
            sfm: format!("{path}Sfm{}", spec.rust_name),
        };
        self.resolutions.insert(spec.full_name(), resolved.clone());
        self.resolutions.insert(spec.name.clone(), resolved);
    }

    /// Register a spec. Its own name becomes resolvable (bare and
    /// qualified) so later specs in the same catalog can reference it.
    ///
    /// # Errors
    ///
    /// Returns the spec back if a different definition is already
    /// registered under the same full name.
    pub fn add(&mut self, spec: MessageSpec) -> Result<(), Box<MessageSpec>> {
        if self.specs.iter().any(|s| s.full_name() == spec.full_name()) {
            return Err(Box::new(spec));
        }
        self.register(&spec, "");
        self.specs.push(spec);
        Ok(())
    }

    /// Resolve a named type to its Rust spellings.
    pub fn resolve(&self, name: &str) -> Option<&ResolvedType> {
        self.resolutions.get(name)
    }

    /// The definition behind a named type, bare or qualified: a registered
    /// spec first, then the shipped set.
    pub fn find(&self, name: &str) -> Option<&MessageSpec> {
        self.specs
            .iter()
            .chain(&self.standard)
            .find(|s| s.full_name() == name || s.name == name)
    }

    /// The registered specs, in insertion order.
    pub fn specs(&self) -> &[MessageSpec] {
        &self.specs
    }

    /// The shipped definitions (empty unless built by
    /// [`Catalog::with_standard_messages`]), sorted by package, then name.
    /// They resolve to `::rossf_msg` paths and are not part of
    /// [`Catalog::generate_all`]; `rossf-msg`'s build script generates them.
    pub fn standard_specs(&self) -> &[MessageSpec] {
        &self.standard
    }

    /// Generate Rust source for every registered spec, ordered by package,
    /// then name, whatever order they were added in.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unresolvable or unsupported
    /// construct, if any.
    pub fn generate_all(&self, config: &crate::GenConfig) -> Result<String, String> {
        let mut specs: Vec<&MessageSpec> = self.specs.iter().collect();
        specs.sort_by_key(|s| (&s.package, &s.name));
        let mut out = String::new();
        for spec in specs {
            out.push_str(&crate::generate(spec, self, config)?);
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_type_token_roundtrip() {
        for tok in [
            "bool", "int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64",
            "float32", "float64", "time", "duration", "string",
        ] {
            let ty = FieldType::from_token(tok);
            assert_eq!(ty.to_string(), tok);
        }
        assert_eq!(
            FieldType::from_token("geometry_msgs/Point32"),
            FieldType::Named("geometry_msgs/Point32".into())
        );
        // Deprecated aliases map onto the modern types.
        assert_eq!(FieldType::from_token("byte"), FieldType::Int8);
        assert_eq!(FieldType::from_token("char"), FieldType::UInt8);
    }

    #[test]
    fn rust_prims() {
        assert_eq!(FieldType::UInt32.rust_prim(), Some("u32"));
        assert_eq!(FieldType::Bool.rust_prim(), Some("u8"));
        assert_eq!(FieldType::RosString.rust_prim(), None);
        assert_eq!(FieldType::Named("X".into()).rust_prim(), None);
    }

    #[test]
    fn standard_catalog_resolves_bare_and_qualified() {
        let c = Catalog::with_standard_messages();
        assert_eq!(
            c.resolve("Header").unwrap().sfm,
            "::rossf_msg::std_msgs::SfmHeader"
        );
        assert_eq!(
            c.resolve("std_msgs/Header").unwrap().plain,
            "::rossf_msg::std_msgs::Header"
        );
        assert!(c.resolve("nonexistent/Type").is_none());
    }

    #[test]
    fn standard_catalog_is_the_whole_tree_in_package_then_name_order() {
        let c = Catalog::with_standard_messages();
        let names: Vec<String> = c.standard_specs().iter().map(|s| s.full_name()).collect();
        assert_eq!(names.len(), STANDARD_TREE.len());
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        for spec in c.standard_specs() {
            let r = c
                .resolve(&spec.full_name())
                .expect("every shipped type resolves");
            assert_eq!(
                r.sfm,
                format!("::rossf_msg::{}::Sfm{}", spec.package, spec.rust_name)
            );
            assert_eq!(c.find(&spec.name), Some(spec));
        }
        assert!(c.specs().is_empty(), "shipped types are not re-generated");
    }

    #[test]
    fn add_registers_local_resolution_and_rejects_duplicates() {
        let mut c = Catalog::new();
        let spec = parse_msg("p", "M", "").unwrap();
        c.add(spec.clone()).unwrap();
        assert_eq!(c.resolve("M").unwrap().sfm, "SfmM");
        assert_eq!(c.resolve("p/M").unwrap().plain, "M");
        assert!(c.add(spec).is_err());
        assert_eq!(c.specs().len(), 1);
    }
}
