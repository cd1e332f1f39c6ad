//! First-class field paths into an SFM skeleton.
//!
//! A [`FieldPath`] names one field of a message by the same dotted/indexed
//! syntax the verifier prints in its diagnostics (`points[2].name`): field
//! segments descend into nested skeleton structs, index segments descend
//! into fixed arrays. [`MessageSchema::resolve_path`] turns a path into a
//! [`FieldRange`] — the field's inline byte range in the skeleton plus its
//! [`TypeDesc`] — which is what the projection resolver
//! ([`Projection`](crate::Projection)) and tooling (`sfm_verify
//! --dump-schema`) consume.
//!
//! The verifier's walker builds its diagnostic paths through the same
//! [`child_path`]/[`index_path`] helpers, so a path printed by a
//! [`VerifyError`](crate::VerifyError) parses back into the `FieldPath`
//! that resolves to the failing field (indices into dynamic `SfmVec`
//! content parse but resolve to [`PathError::DynamicIndex`] — their
//! offsets are runtime values, not schema constants).

use crate::verify::{MessageSchema, TypeDesc};
use core::fmt;

/// One step of a [`FieldPath`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathSegment {
    /// Descend into a named field of a struct skeleton.
    Field(String),
    /// Descend into one element of a fixed array (or, in verifier
    /// diagnostics, of a dynamic vector).
    Index(usize),
}

/// A parsed path from a message root to one of its fields, e.g.
/// `header.stamp` or `k[4]`.
///
/// ```
/// use rossf_sfm::FieldPath;
/// let p: FieldPath = "points[2].name".parse().unwrap();
/// assert_eq!(p.to_string(), "points[2].name");
/// assert_eq!(p.segments().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldPath {
    segments: Vec<PathSegment>,
}

impl FieldPath {
    /// Parse the dotted/indexed syntax (`a.b[3].c`).
    ///
    /// # Errors
    ///
    /// [`PathError::Parse`] on empty input, malformed brackets, or segment
    /// names that are not identifiers.
    pub fn parse(spec: &str) -> Result<FieldPath, PathError> {
        let malformed = |reason: &str| PathError::Parse {
            spec: spec.to_string(),
            reason: reason.to_string(),
        };
        let bytes = spec.as_bytes();
        let mut segments = Vec::new();
        let mut i = 0usize;
        let mut expect_name = true;
        while i < bytes.len() {
            match bytes[i] {
                b'[' => {
                    if expect_name || segments.is_empty() {
                        return Err(malformed("index before any field name"));
                    }
                    let close = spec[i..]
                        .find(']')
                        .map(|j| i + j)
                        .ok_or_else(|| malformed("unterminated `[`"))?;
                    let index: usize = spec[i + 1..close]
                        .parse()
                        .map_err(|_| malformed("index is not a number"))?;
                    segments.push(PathSegment::Index(index));
                    i = close + 1;
                }
                b'.' => {
                    if expect_name {
                        return Err(malformed("empty field name"));
                    }
                    expect_name = true;
                    i += 1;
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    if !expect_name {
                        return Err(malformed("field name not separated by `.`"));
                    }
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    segments.push(PathSegment::Field(spec[start..i].to_string()));
                    expect_name = false;
                }
                _ => return Err(malformed("unexpected character")),
            }
        }
        if segments.is_empty() {
            return Err(malformed("empty path"));
        }
        if expect_name {
            return Err(malformed("trailing `.`"));
        }
        Ok(FieldPath { segments })
    }

    /// The parsed segments, root first.
    pub fn segments(&self) -> &[PathSegment] {
        &self.segments
    }
}

impl fmt::Display for FieldPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, seg) in self.segments.iter().enumerate() {
            match seg {
                PathSegment::Field(name) if i == 0 => write!(f, "{name}")?,
                PathSegment::Field(name) => write!(f, ".{name}")?,
                PathSegment::Index(idx) => write!(f, "[{idx}]")?,
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for FieldPath {
    type Err = PathError;
    fn from_str(s: &str) -> Result<Self, PathError> {
        FieldPath::parse(s)
    }
}

/// Why a path could not be parsed or resolved against a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// No paths were given where at least one is required.
    Empty,
    /// The spec string does not parse as a field path.
    Parse {
        /// The offending input.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A named field does not exist in the struct reached so far.
    UnknownField {
        /// Path of the struct that was searched (empty = message root).
        path: String,
        /// The name that was not found.
        name: String,
    },
    /// A field segment was applied to a non-struct field.
    NotAStruct {
        /// Path of the non-struct field.
        path: String,
    },
    /// An index segment was applied to a field that is neither a fixed
    /// array nor a vector.
    NotIndexable {
        /// Path of the non-indexable field.
        path: String,
    },
    /// An index segment was applied to a dynamic `SfmVec`: element offsets
    /// are runtime values carried by each frame, not schema constants.
    DynamicIndex {
        /// Path of the vector field.
        path: String,
    },
    /// An index segment exceeds a fixed array's length.
    IndexOutOfRange {
        /// Path of the array field.
        path: String,
        /// The requested index.
        index: usize,
        /// The array's length.
        len: usize,
    },
    /// The field cannot be carried by a projected sub-frame (a vector whose
    /// elements hold their own `{len, offset}` pairs cannot be relocated
    /// without rewriting them).
    Unprojectable {
        /// Path of the unprojectable field.
        path: String,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => write!(f, "no field paths given"),
            PathError::Parse { spec, reason } => {
                write!(f, "cannot parse field path `{spec}`: {reason}")
            }
            PathError::UnknownField { path, name } if path.is_empty() => {
                write!(f, "no field `{name}` at the message root")
            }
            PathError::UnknownField { path, name } => {
                write!(f, "no field `{name}` in `{path}`")
            }
            PathError::NotAStruct { path } => {
                write!(f, "`{path}` is not a nested message")
            }
            PathError::NotIndexable { path } => {
                write!(f, "`{path}` is not an array or vector")
            }
            PathError::DynamicIndex { path } => {
                write!(
                    f,
                    "`{path}` is a dynamic vector; element offsets are not schema constants"
                )
            }
            PathError::IndexOutOfRange { path, index, len } => {
                write!(f, "index {index} exceeds the length {len} of `{path}`")
            }
            PathError::Unprojectable { path } => {
                write!(
                    f,
                    "`{path}` holds nested `{{len, offset}}` pairs and cannot be \
                     relocated into a projected sub-frame"
                )
            }
        }
    }
}

impl std::error::Error for PathError {}

/// The resolution of a [`FieldPath`]: where the field's inline bytes live
/// in the skeleton, and what type they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldRange {
    /// Byte offset of the field inside the root skeleton.
    pub offset: usize,
    /// Inline size of the field in bytes (8 for strings and vectors — the
    /// `{len, offset}` pair; content bytes live outside the skeleton).
    pub len: usize,
    /// The field's resolved type.
    pub ty: TypeDesc,
}

impl MessageSchema {
    /// Resolve `path` against this schema to the field's skeleton range.
    ///
    /// # Errors
    ///
    /// Any [`PathError`] resolution failure; parse errors cannot occur
    /// (the path is already parsed).
    pub fn resolve_path(&self, path: &FieldPath) -> Result<FieldRange, PathError> {
        let mut segs = path.segments().iter();
        let first = segs.next().ok_or(PathError::Empty)?;
        let PathSegment::Field(name) = first else {
            return Err(PathError::NotIndexable {
                path: String::new(),
            });
        };
        let field = self
            .root
            .fields()
            .iter()
            .find(|f| f.name == *name)
            .ok_or_else(|| PathError::UnknownField {
                path: String::new(),
                name: name.clone(),
            })?;
        let mut at = field.offset;
        let mut ty = &field.ty;
        let mut walked = name.clone();
        for seg in segs {
            match (seg, ty) {
                (PathSegment::Field(name), TypeDesc::Struct(desc)) => {
                    let f = desc
                        .fields()
                        .iter()
                        .find(|f| f.name == *name)
                        .ok_or_else(|| PathError::UnknownField {
                            path: walked.clone(),
                            name: name.clone(),
                        })?;
                    at += f.offset;
                    ty = &f.ty;
                    walked = child_path(&walked, name);
                }
                (PathSegment::Field(_), _) => return Err(PathError::NotAStruct { path: walked }),
                (PathSegment::Index(i), TypeDesc::Array { elem, len }) => {
                    if *i >= *len {
                        return Err(PathError::IndexOutOfRange {
                            path: walked,
                            index: *i,
                            len: *len,
                        });
                    }
                    at += i * elem.size();
                    ty = elem;
                    walked = index_path(&walked, *i);
                }
                (PathSegment::Index(_), TypeDesc::Vec(_)) => {
                    return Err(PathError::DynamicIndex { path: walked })
                }
                (PathSegment::Index(_), _) => return Err(PathError::NotIndexable { path: walked }),
            }
        }
        Ok(FieldRange {
            offset: at,
            len: ty.size(),
            ty: ty.clone(),
        })
    }

    /// Every path of this schema that [`MessageSchema::resolve_path`]
    /// resolves (leaves of the inline layout plus every enclosing struct),
    /// in layout order — what `sfm_verify --dump-schema` prints.
    pub fn resolvable_paths(&self) -> Vec<FieldPath> {
        fn walk(prefix: &str, ty: &TypeDesc, out: &mut Vec<FieldPath>) {
            match ty {
                TypeDesc::Struct(desc) => {
                    for f in desc.fields() {
                        let p = child_path(prefix, &f.name);
                        out.push(FieldPath::parse(&p).expect("generated path parses"));
                        walk(&p, &f.ty, out);
                    }
                }
                // One representative element is enough to show the shape.
                TypeDesc::Array { elem, len }
                    if *len > 0 && matches!(**elem, TypeDesc::Struct(_)) =>
                {
                    walk(&index_path(prefix, 0), elem, out);
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        walk("", &TypeDesc::Struct(self.root.clone()), &mut out);
        out
    }
}

/// Append a field name to a parent path (`""` + `header` → `header`,
/// `header` + `stamp` → `header.stamp`) — the verifier's diagnostics and
/// the projection resolver build paths through this same helper so the two
/// syntaxes can never drift apart.
pub fn child_path(parent: &str, name: &str) -> String {
    if parent.is_empty() {
        name.to_string()
    } else {
        format!("{parent}.{name}")
    }
}

/// Append an element index to a parent path (`points` + 2 → `points[2]`).
pub fn index_path(parent: &str, index: usize) -> String {
    format!("{parent}[{index}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for spec in [
            "header",
            "header.stamp",
            "fields[1].name",
            "k[4]",
            "a.b[0].c[12]",
        ] {
            let p = FieldPath::parse(spec).unwrap();
            assert_eq!(p.to_string(), spec, "{spec}");
            let again: FieldPath = p.to_string().parse().unwrap();
            assert_eq!(again, p);
        }
    }

    #[test]
    fn malformed_paths_rejected() {
        for bad in [
            "", ".", "a.", ".a", "a..b", "[0]", "a[", "a[x]", "a[0", "a b", "a.[0]",
        ] {
            assert!(
                matches!(FieldPath::parse(bad), Err(PathError::Parse { .. })),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn path_helpers_match_parser() {
        let p = index_path(&child_path(&child_path("", "a"), "b"), 3);
        assert_eq!(p, "a.b[3]");
        FieldPath::parse(&p).unwrap();
    }
}
