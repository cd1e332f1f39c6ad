//! Runtime schema export: compute the structural-verifier schema
//! ([`rossf_sfm::MessageSchema`]) straight from the parsed IDL model.
//!
//! The verifier in `rossf-sfm` walks raw buffers using a [`TypeDesc`] tree.
//! Generated message types produce that tree from the real Rust layout
//! (`offset_of!`, via `ros_message_impls!`); this module produces the same
//! tree from the *IDL* by replaying the `#[repr(C)]` layout algorithm over
//! a [`MessageSpec`]. The two derivations are independent, which makes them
//! a cross-check on each other (`crates/msg/tests/schema.rs` walks every
//! shipped type): a generator that reorders a field or writes a wrong
//! manifest entry, or a layout regression, shows up as a schema mismatch.
//!
//! It also lets tools verify captured buffers for message types that only
//! exist as `.msg` text — `sfm_verify` can load a definition and triage a
//! frame without any generated code.

use crate::model::{Arity, Catalog, FieldType, MessageSpec};
use rossf_sfm::{align_up, FieldDesc, MessageSchema, StructDesc, TypeDesc};
use std::collections::BTreeMap;

/// Why a schema could not be computed from the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A named field type had neither a provided descriptor nor a spec in
    /// the catalog.
    Unresolved {
        /// The unresolved type name, as written in the IDL.
        name: String,
    },
    /// Message definitions reference each other cyclically (not legal ROS).
    Cycle {
        /// The type whose elaboration re-entered itself.
        name: String,
    },
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Unresolved { name } => {
                write!(f, "cannot resolve field type `{name}` to a layout")
            }
            SchemaError::Cycle { name } => {
                write!(f, "cyclic message definition involving `{name}`")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Computes [`TypeDesc`]/[`MessageSchema`] values from IDL specs,
/// memoizing nested types.
///
/// Named types are resolved in order against (1) descriptors provided via
/// [`SchemaBuilder::provide`] — the escape hatch for types that exist only
/// as compiled Rust — and (2) the catalog's definitions ([`Catalog::find`]:
/// registered specs, then the shipped `.msg` tree), elaborated recursively.
pub struct SchemaBuilder<'c> {
    catalog: &'c Catalog,
    known: BTreeMap<String, TypeDesc>,
    in_progress: Vec<String>,
}

impl<'c> SchemaBuilder<'c> {
    /// Builder over `catalog`'s specs, with no external types provided yet.
    pub fn new(catalog: &'c Catalog) -> Self {
        SchemaBuilder {
            catalog,
            known: BTreeMap::new(),
            in_progress: Vec::new(),
        }
    }

    /// Provide the descriptor of an externally defined type under `name`
    /// (use both the bare and the `package/Name` spelling if the IDL may
    /// reference either).
    pub fn provide(&mut self, name: &str, desc: TypeDesc) {
        self.known.insert(name.to_string(), desc);
    }

    /// The `repr(C)` layout descriptor of one scalar IDL base type.
    fn base_desc(&mut self, ty: &FieldType) -> Result<TypeDesc, SchemaError> {
        Ok(match ty {
            FieldType::Bool | FieldType::UInt8 | FieldType::Int8 => {
                TypeDesc::Prim { size: 1, align: 1 }
            }
            FieldType::Int16 | FieldType::UInt16 => TypeDesc::Prim { size: 2, align: 2 },
            FieldType::Int32 | FieldType::UInt32 | FieldType::Float32 => {
                TypeDesc::Prim { size: 4, align: 4 }
            }
            FieldType::Int64 | FieldType::UInt64 | FieldType::Float64 => {
                TypeDesc::Prim { size: 8, align: 8 }
            }
            // Two u32/i32 words: 8 bytes at alignment 4.
            FieldType::Time | FieldType::Duration => TypeDesc::Prim { size: 8, align: 4 },
            FieldType::RosString => TypeDesc::Str,
            FieldType::Named(name) => self.named_desc(name)?,
        })
    }

    fn named_desc(&mut self, name: &str) -> Result<TypeDesc, SchemaError> {
        if let Some(d) = self.known.get(name) {
            return Ok(d.clone());
        }
        if self.in_progress.iter().any(|n| n == name) {
            return Err(SchemaError::Cycle {
                name: name.to_string(),
            });
        }
        let spec = self
            .catalog
            .find(name)
            .cloned()
            .ok_or_else(|| SchemaError::Unresolved {
                name: name.to_string(),
            })?;
        self.in_progress.push(name.to_string());
        let desc = self.type_desc(&spec);
        self.in_progress.pop();
        let desc = desc?;
        self.known.insert(name.to_string(), desc.clone());
        Ok(desc)
    }

    /// Elaborate `spec` into the descriptor of its SFM skeleton by replaying
    /// the `#[repr(C)]` layout algorithm over its fields.
    ///
    /// # Errors
    ///
    /// [`SchemaError`] when a named field type cannot be resolved.
    pub fn type_desc(&mut self, spec: &MessageSpec) -> Result<TypeDesc, SchemaError> {
        let mut fields = Vec::with_capacity(spec.fields.len());
        let mut offset = 0usize;
        let mut struct_align = 1usize;
        for field in &spec.fields {
            let base = self.base_desc(&field.ty)?;
            let ty = match field.arity {
                Arity::Scalar => base,
                Arity::FixedArray(n) => TypeDesc::Array {
                    elem: Box::new(base),
                    len: n,
                },
                Arity::DynamicArray => TypeDesc::Vec(Box::new(base)),
            };
            let align = ty.align();
            offset = align_up(offset, align);
            struct_align = struct_align.max(align);
            let size = ty.size();
            fields.push(FieldDesc {
                name: field.name.clone(),
                offset,
                ty,
            });
            offset += size;
        }
        Ok(TypeDesc::Struct(StructDesc::new(
            spec.full_name(),
            align_up(offset, struct_align),
            struct_align,
            fields,
        )))
    }

    /// Full verifier schema for `spec` with the given `max_size` (the bound
    /// the generator writes into the `ros_message_impls!` invocation).
    ///
    /// # Errors
    ///
    /// As [`SchemaBuilder::type_desc`].
    pub fn schema(
        &mut self,
        spec: &MessageSpec,
        max_size: usize,
    ) -> Result<MessageSchema, SchemaError> {
        let TypeDesc::Struct(root) = self.type_desc(spec)? else {
            unreachable!("type_desc of a spec is always a struct");
        };
        Ok(MessageSchema { root, max_size })
    }
}

/// One-shot helper: schema of `spec` against `catalog`, with `time` /
/// `duration` / `Header`-style externals supplied via `provide` first when
/// needed.
///
/// # Errors
///
/// As [`SchemaBuilder::schema`].
pub fn schema_from_spec(
    catalog: &Catalog,
    spec: &MessageSpec,
    max_size: usize,
) -> Result<MessageSchema, SchemaError> {
    SchemaBuilder::new(catalog).schema(spec, max_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_msg;

    #[test]
    fn flat_message_layout() {
        // uint32 a; float64 b; uint8 c — classic padding case.
        let spec = parse_msg("t", "Flat", "uint32 a\nfloat64 b\nuint8 c\n").unwrap();
        let catalog = Catalog::new();
        let schema = schema_from_spec(&catalog, &spec, 1024).unwrap();
        assert_eq!(schema.root.size, 24); // 4 + pad4 + 8 + 1 + pad7
        assert_eq!(schema.root.align, 8);
        assert_eq!(schema.root.fields()[0].offset, 0);
        assert_eq!(schema.root.fields()[1].offset, 8);
        assert_eq!(schema.root.fields()[2].offset, 16);
        assert_eq!(schema.max_size, 1024);
    }

    #[test]
    fn strings_vectors_and_arrays() {
        let spec = parse_msg(
            "t",
            "Mixed",
            "string name\nfloat32[] values\nfloat64[3] fixed\nuint8[] blob\n",
        )
        .unwrap();
        let catalog = Catalog::new();
        let schema = schema_from_spec(&catalog, &spec, 4096).unwrap();
        let f = schema.root.fields();
        assert_eq!(f[0].ty, TypeDesc::Str);
        assert_eq!(
            f[1].ty,
            TypeDesc::Vec(Box::new(TypeDesc::Prim { size: 4, align: 4 }))
        );
        assert!(matches!(f[2].ty, TypeDesc::Array { len: 3, .. }));
        // name{0,8} values{8,8} fixed aligned to 8 → 16..40, blob 40..48.
        assert_eq!(f[2].offset, 16);
        assert_eq!(f[3].offset, 40);
        assert_eq!(schema.root.size, 48);
    }

    #[test]
    fn nested_types_resolve_through_the_catalog() {
        let mut catalog = Catalog::new();
        catalog
            .add(parse_msg("t", "Point", "float64 x\nfloat64 y\n").unwrap())
            .unwrap();
        let spec = parse_msg("t", "Path", "Point[] points\nstring frame\n").unwrap();
        let schema = schema_from_spec(&catalog, &spec, 1 << 16).unwrap();
        let TypeDesc::Vec(elem) = &schema.root.fields()[0].ty else {
            panic!("points must be a vec");
        };
        assert_eq!(elem.size(), 16);
        assert!(!elem.has_indirection());
    }

    #[test]
    fn provided_external_descriptors_win() {
        let catalog = Catalog::new();
        let spec = parse_msg("t", "Stamped", "Header header\nuint32 seq2\n").unwrap();
        let mut b = SchemaBuilder::new(&catalog);
        // Header: seq u32 @0, stamp time @4, frame_id string @12 → 20 bytes.
        b.provide(
            "Header",
            TypeDesc::Struct(StructDesc::new(
                "std_msgs/Header",
                20,
                4,
                vec![
                    FieldDesc {
                        name: "seq".into(),
                        offset: 0,
                        ty: TypeDesc::Prim { size: 4, align: 4 },
                    },
                    FieldDesc {
                        name: "stamp".into(),
                        offset: 4,
                        ty: TypeDesc::Prim { size: 8, align: 4 },
                    },
                    FieldDesc {
                        name: "frame_id".into(),
                        offset: 12,
                        ty: TypeDesc::Str,
                    },
                ],
            )),
        );
        let schema = b.schema(&spec, 4096).unwrap();
        assert_eq!(schema.root.fields()[0].offset, 0);
        assert_eq!(schema.root.fields()[1].offset, 20);
        assert_eq!(schema.root.size, 24);
    }

    #[test]
    fn unresolved_named_type_errors() {
        let catalog = Catalog::new();
        let spec = parse_msg("t", "Bad", "Mystery m\n").unwrap();
        let err = schema_from_spec(&catalog, &spec, 64).unwrap_err();
        assert_eq!(
            err,
            SchemaError::Unresolved {
                name: "Mystery".into()
            }
        );
        assert!(err.to_string().contains("Mystery"));
    }

    #[test]
    fn cyclic_definitions_error_instead_of_looping() {
        let mut catalog = Catalog::new();
        catalog.add(parse_msg("t", "A", "B b\n").unwrap()).unwrap();
        catalog.add(parse_msg("t", "B", "A a\n").unwrap()).unwrap();
        let spec = catalog.specs()[0].clone();
        let err = schema_from_spec(&catalog, &spec, 64).unwrap_err();
        assert!(matches!(err, SchemaError::Cycle { .. }));
    }
}
