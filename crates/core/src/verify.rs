//! Schema-driven structural verification of raw SFM buffers.
//!
//! The serialization-free trick — the wire format *is* the in-memory layout
//! (§4.1) — removes the implicit validation a deserializer performs: a
//! subscriber adopts raw bytes as a live message, so a corrupted or
//! adversarial `{len, offset}` pair becomes an out-of-bounds (or unaligned)
//! read instead of a parse error. This module closes that gap with a
//! *static analysis over the buffer*: given a runtime description of the
//! skeleton layout (a [`MessageSchema`]), [`verify_frame`] walks the raw
//! bytes **without materializing the message** and proves every structural
//! invariant of the format:
//!
//! * every `{len: u32, offset: u32}` pair's self-relative offset lands
//!   inside the whole message;
//! * content regions lie within the frame, are aligned for their element
//!   type, and overlap neither the skeleton nor each other;
//! * vectors of nested skeletons are sized consistently
//!   (`len * size_of::<Elem>()` without overflow) and their element
//!   skeletons are recursively valid;
//! * the total used size reconstructed from the regions matches the frame
//!   length exactly (no unreachable tail a conforming publisher could not
//!   have produced).
//!
//! The verifier is deliberately *stricter* than the field-by-field
//! [`SfmValidate`](crate::SfmValidate) pass run at adoption: anything the
//! verifier accepts, `SfmValidate` accepts, but the verifier additionally
//! rejects frames that are in-bounds yet could only have been produced by a
//! non-conforming (or hostile) publisher. Every rejection names the failing
//! field path (`points[2].name`) so corrupt captures can be triaged
//! offline (`sfm_verify` binary) as well as on the receive path
//! (`TransportConfig::validate_on_receive`).
//!
//! **Cost.** The verifier runs where de-serialization used to, once per
//! received frame, so a frame that passes pays for one walk and nothing
//! else: the schema is walked by reference, claimed regions live in a small
//! inline list, disjointness is proved as regions arrive in ascending order
//! (the sort is only for frames whose fields were assigned out of
//! declaration order), and no path text is built. Diagnostics are *lazy*:
//! only when that quiet walk finds a violation is the same walk run again
//! with a recorder that renders paths, which is where every [`VerifyError`]
//! comes from.
//!
//! Schemas come from two independent sources that are cross-checked in
//! tests: the `ros_message_impls!` generator derives them from the real
//! Rust layout (`offset_of!`), and `rossf-idl` computes them from the
//! parsed `.msg` model (`rossf_idl::schema_from_spec`).

use crate::message::SfmMessage;
use crate::string::SfmString;
use crate::vec::SfmVec;
use core::fmt;

/// Runtime description of one SFM field type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDesc {
    /// A fixed-size leaf the verifier does not look inside (primitives,
    /// `time`/`duration`, and anything else without stored offsets).
    Prim {
        /// Size in bytes.
        size: usize,
        /// Required alignment in bytes.
        align: usize,
    },
    /// An `SfmString` skeleton: `{stored: u32, off: u32}`.
    Str,
    /// An `SfmVec<Elem>` skeleton: `{len: u32, off: u32}` with contiguous
    /// elements of the boxed type in the content region.
    Vec(Box<TypeDesc>),
    /// A nested message skeleton, laid out inline.
    Struct(StructDesc),
    /// A fixed array `[Elem; len]`, laid out inline.
    Array {
        /// Element type.
        elem: Box<TypeDesc>,
        /// Element count.
        len: usize,
    },
}

impl TypeDesc {
    /// Size of a value of this type inside a skeleton.
    pub fn size(&self) -> usize {
        match self {
            TypeDesc::Prim { size, .. } => *size,
            TypeDesc::Str | TypeDesc::Vec(_) => 8,
            TypeDesc::Struct(s) => s.size,
            TypeDesc::Array { elem, len } => elem.size() * len,
        }
    }

    /// Alignment of a value of this type inside a skeleton.
    pub fn align(&self) -> usize {
        match self {
            TypeDesc::Prim { align, .. } => *align,
            TypeDesc::Str | TypeDesc::Vec(_) => 4,
            TypeDesc::Struct(s) => s.align,
            TypeDesc::Array { elem, .. } => elem.align(),
        }
    }

    /// `true` if a value of this type can reference content outside its own
    /// inline bytes (directly or transitively). Decided once per struct
    /// when its [`StructDesc`] is built, so the verifier's per-field test
    /// does not recurse.
    pub fn has_indirection(&self) -> bool {
        match self {
            TypeDesc::Prim { .. } => false,
            TypeDesc::Str | TypeDesc::Vec(_) => true,
            TypeDesc::Struct(s) => s.indirect,
            TypeDesc::Array { elem, .. } => elem.has_indirection(),
        }
    }
}

/// One named field of a [`StructDesc`], at a fixed skeleton offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDesc {
    /// Field name from the IDL.
    pub name: String,
    /// Byte offset inside the skeleton (`repr(C)` layout).
    pub offset: usize,
    /// Field type.
    pub ty: TypeDesc,
}

/// Runtime description of a skeleton struct's `repr(C)` layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDesc {
    /// ROS type name (e.g. `sensor_msgs/Image`) or a local struct name.
    pub name: String,
    /// `size_of` the skeleton, padding included.
    pub size: usize,
    /// `align_of` the skeleton.
    pub align: usize,
    /// Fields in declaration order. Private: `indirect` is derived from
    /// them, and the verifier skips structs it says carry no pairs.
    fields: Vec<FieldDesc>,
    /// Whether any field (transitively) holds a `{len, offset}` pair.
    indirect: bool,
}

impl StructDesc {
    /// Describe a skeleton struct; `fields` in declaration order.
    pub fn new(name: impl Into<String>, size: usize, align: usize, fields: Vec<FieldDesc>) -> Self {
        let indirect = fields.iter().any(|f| f.ty.has_indirection());
        StructDesc {
            name: name.into(),
            size,
            align,
            fields,
            indirect,
        }
    }

    /// Fields in declaration order.
    pub fn fields(&self) -> &[FieldDesc] {
        &self.fields
    }
}

/// The full verification schema of one message type: its root skeleton plus
/// the type-level bounds the receive path already enforces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSchema {
    /// Root skeleton layout.
    pub root: StructDesc,
    /// The type's `max_size` (upper bound on any frame).
    pub max_size: usize,
}

impl MessageSchema {
    /// Build the schema of a reflectable message type.
    ///
    /// # Panics
    ///
    /// Panics if `T::type_desc()` is not a struct — impossible for types
    /// generated by `ros_message_impls!`.
    pub fn of<T: SfmMessage + SfmReflect>() -> MessageSchema {
        let TypeDesc::Struct(root) = T::type_desc() else {
            panic!(
                "message type {} does not reflect as a struct",
                T::type_name()
            );
        };
        debug_assert_eq!(root.size, core::mem::size_of::<T>());
        MessageSchema {
            root,
            max_size: T::max_size(),
        }
    }

    /// The ROS type name carried by the root skeleton.
    pub fn type_name(&self) -> &str {
        &self.root.name
    }
}

/// Types that can describe their own SFM layout at runtime.
///
/// Implemented for the primitive field types, `SfmString`, `SfmVec`, fixed
/// arrays, and (via `ros_message_impls!`) every generated skeleton struct.
pub trait SfmReflect {
    /// The layout description of this type.
    fn type_desc() -> TypeDesc;
}

macro_rules! prim_reflect {
    ($($t:ty),*) => {$(
        impl SfmReflect for $t {
            fn type_desc() -> TypeDesc {
                TypeDesc::Prim {
                    size: core::mem::size_of::<$t>(),
                    align: core::mem::align_of::<$t>(),
                }
            }
        }
    )*};
}
prim_reflect!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

impl SfmReflect for SfmString {
    fn type_desc() -> TypeDesc {
        TypeDesc::Str
    }
}

impl<T: SfmReflect + crate::SfmPod> SfmReflect for SfmVec<T> {
    fn type_desc() -> TypeDesc {
        TypeDesc::Vec(Box::new(T::type_desc()))
    }
}

impl<T: SfmReflect, const N: usize> SfmReflect for [T; N] {
    fn type_desc() -> TypeDesc {
        TypeDesc::Array {
            elem: Box::new(T::type_desc()),
            len: N,
        }
    }
}

/// What structural invariant a frame violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// The frame cannot contain the root skeleton.
    FrameTooSmall {
        /// Skeleton size required.
        need: usize,
        /// Frame length available.
        have: usize,
    },
    /// The frame exceeds the type's declared `max_size`.
    FrameTooLarge {
        /// Declared `max_size`.
        max_size: usize,
        /// Frame length.
        have: usize,
    },
    /// A content region escapes the frame.
    OutOfBounds {
        /// Frame-relative region start.
        start: usize,
        /// Frame-relative region end (exclusive).
        end: usize,
        /// Frame length.
        frame_len: usize,
    },
    /// `len * size_of::<Elem>()` overflowed.
    LengthOverflow {
        /// Stored element count.
        len: u32,
        /// Element size.
        elem_size: usize,
    },
    /// A content region is not aligned for its element type — adopting the
    /// frame would hand out misaligned slices (undefined behaviour).
    Misaligned {
        /// Frame-relative region start.
        start: usize,
        /// Required alignment.
        align: usize,
    },
    /// A zero offset paired with a nonzero length/stored count: the
    /// unassigned state must be all-zero.
    ZeroOffsetNonZeroLen {
        /// The stored length word.
        len: u32,
    },
    /// A nonzero offset paired with a zero element count — not producible
    /// by a conforming one-shot publisher.
    ZeroLenNonZeroOffset,
    /// A string's stored size is not a positive multiple of 4 (the NUL +
    /// padding rule of §4.1, Fig. 7).
    BadStringStored {
        /// The stored size word.
        stored: u32,
    },
    /// Two content regions (or a region and the skeleton) overlap.
    Overlap {
        /// Path of the previously recorded region.
        other: String,
    },
    /// The regions reconstruct a whole-message size different from the
    /// frame length (trailing bytes no field references, or a truncated
    /// tail).
    SizeMismatch {
        /// Reconstructed used size.
        used: usize,
        /// Frame length.
        frame_len: usize,
    },
    /// A field excluded by a negotiated [`Projection`](crate::Projection)
    /// carries a nonzero `{len, offset}` pair — the frame did not come
    /// from a conforming projecting publisher.
    UnprojectedNonZero,
}

/// A structural verification failure, naming the failing field path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Dotted/indexed path from the message root, e.g. `points[2].name`;
    /// `<whole-message>` for frame-level failures.
    pub path: String,
    /// What went wrong.
    pub kind: VerifyErrorKind,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at `{}`: ", self.path)?;
        match &self.kind {
            VerifyErrorKind::FrameTooSmall { need, have } => {
                write!(
                    f,
                    "frame of {have} bytes cannot hold the {need}-byte skeleton"
                )
            }
            VerifyErrorKind::FrameTooLarge { max_size, have } => {
                write!(f, "frame of {have} bytes exceeds max_size {max_size}")
            }
            VerifyErrorKind::OutOfBounds {
                start,
                end,
                frame_len,
            } => write!(
                f,
                "content region [{start}, {end}) escapes the {frame_len}-byte frame"
            ),
            VerifyErrorKind::LengthOverflow { len, elem_size } => {
                write!(f, "element count {len} x size {elem_size} overflows")
            }
            VerifyErrorKind::Misaligned { start, align } => {
                write!(f, "content region at {start} is not {align}-byte aligned")
            }
            VerifyErrorKind::ZeroOffsetNonZeroLen { len } => {
                write!(f, "zero offset with nonzero length {len}")
            }
            VerifyErrorKind::ZeroLenNonZeroOffset => {
                write!(f, "zero length with nonzero offset")
            }
            VerifyErrorKind::BadStringStored { stored } => write!(
                f,
                "string stored size {stored} is not a positive multiple of 4"
            ),
            VerifyErrorKind::Overlap { other } => {
                write!(f, "content region overlaps region of `{other}`")
            }
            VerifyErrorKind::SizeMismatch { used, frame_len } => write!(
                f,
                "regions reconstruct a whole message of {used} bytes but the frame is {frame_len}"
            ),
            VerifyErrorKind::UnprojectedNonZero => write!(
                f,
                "field is excluded by the negotiated projection but its pair is nonzero"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Statistics of a successful verification, for reports and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Fields visited (leaves included).
    pub fields_walked: usize,
    /// Content regions proved in-bounds and disjoint (root skeleton
    /// excluded).
    pub regions: usize,
    /// Bytes covered by the skeleton plus content regions.
    pub covered_bytes: usize,
    /// Alignment-gap bytes between regions (present but unreferenced).
    pub gap_bytes: usize,
}

/// One proved content region; `id` is its claim order (the root skeleton
/// is 0), which is what the path recorder names it by.
#[derive(Clone, Copy, Default)]
struct Region {
    start: usize,
    end: usize,
    id: usize,
}

/// Regions kept on the stack; a message with more spills to the heap.
const INLINE_REGIONS: usize = 32;

/// The claimed regions of one frame, in claim order until sorted.
struct Regions {
    inline: [Region; INLINE_REGIONS],
    spill: Vec<Region>,
    len: usize,
}

impl Regions {
    fn new() -> Self {
        Regions {
            inline: [Region::default(); INLINE_REGIONS],
            spill: Vec::new(),
            len: 0,
        }
    }

    fn push(&mut self, start: usize, end: usize) {
        let region = Region {
            start,
            end,
            id: self.len,
        };
        if self.len < INLINE_REGIONS {
            self.inline[self.len] = region;
        } else {
            if self.len == INLINE_REGIONS {
                self.spill.reserve(4 * INLINE_REGIONS);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(region);
        }
        self.len += 1;
    }

    fn as_mut_slice(&mut self) -> &mut [Region] {
        if self.len <= INLINE_REGIONS {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

/// How the walk names fields and regions. The success path never needs a
/// name, so [`verify_frame`] first walks with [`Quiet`] — paths are `()`,
/// nothing allocates — and only a frame that pass rejects is walked again
/// with [`Rendered`], which produces the diagnostic text. Both passes run
/// the same [`Walker`], so they cannot disagree on what is a violation.
trait PathRecorder {
    /// The name of the field being walked; the default names the root.
    type Path: Default;
    fn child(&self, parent: &Self::Path, name: &str) -> Self::Path;
    fn index(&self, parent: &Self::Path, index: usize) -> Self::Path;
    /// `path` owns the region just claimed (claim order = region id).
    fn claimed(&mut self, path: &Self::Path);
    /// Diagnostic text of a field path.
    fn text(&self, path: &Self::Path) -> String;
    /// Diagnostic text of the owner of region `id`.
    fn region(&self, id: usize) -> String;
}

/// Records nothing; every text is the (unallocated) empty string.
struct Quiet;

impl PathRecorder for Quiet {
    type Path = ();
    fn child(&self, _: &(), _: &str) {}
    fn index(&self, _: &(), _: usize) {}
    fn claimed(&mut self, _: &()) {}
    fn text(&self, _: &()) -> String {
        String::new()
    }
    fn region(&self, _: usize) -> String {
        String::new()
    }
}

/// Renders paths through the shared [`crate::path`] helpers, so a printed
/// diagnostic always parses back as a `FieldPath`.
struct Rendered {
    /// Owner path per region id; the root skeleton is region 0.
    regions: Vec<String>,
}

impl PathRecorder for Rendered {
    type Path = String;
    fn child(&self, parent: &String, name: &str) -> String {
        crate::path::child_path(parent, name)
    }
    fn index(&self, parent: &String, index: usize) -> String {
        crate::path::index_path(parent, index)
    }
    fn claimed(&mut self, path: &String) {
        self.regions.push(path.clone());
    }
    fn text(&self, path: &String) -> String {
        path.clone()
    }
    fn region(&self, id: usize) -> String {
        self.regions[id].clone()
    }
}

struct Walker<'f, P: PathRecorder> {
    frame: &'f [u8],
    paths: P,
    regions: Regions,
    /// Highest region end claimed so far (the skeleton's to begin with).
    high_end: usize,
    /// Every region so far started at or after `high_end` — what
    /// append-only growth produces when fields are assigned in declaration
    /// order. While it holds, the regions are disjoint by construction.
    ascending: bool,
    covered: usize,
    fields_walked: usize,
}

impl<P: PathRecorder> Walker<'_, P> {
    fn read_u32(&self, at: usize) -> u32 {
        // Bounds are guaranteed by the caller (skeleton ranges are checked
        // before descending).
        u32::from_ne_bytes(self.frame[at..at + 4].try_into().expect("4 bytes"))
    }

    fn fail(&self, path: &P::Path, kind: VerifyErrorKind) -> VerifyError {
        VerifyError {
            path: self.paths.text(path),
            kind,
        }
    }

    /// Prove a content region of `bytes` bytes referenced from the
    /// `{len, off}` pair at skeleton offset `pair_at`, then record it.
    /// Returns the frame-relative region start.
    fn claim_region(
        &mut self,
        path: &P::Path,
        pair_at: usize,
        off: u32,
        bytes: usize,
        align: usize,
    ) -> Result<usize, VerifyError> {
        // Offsets are relative to the address of the offset word itself
        // (the second u32 of the pair).
        let start = pair_at + 4 + off as usize;
        let end = match start.checked_add(bytes) {
            Some(e) => e,
            None => {
                return Err(self.fail(
                    path,
                    VerifyErrorKind::OutOfBounds {
                        start,
                        end: usize::MAX,
                        frame_len: self.frame.len(),
                    },
                ))
            }
        };
        if end > self.frame.len() {
            return Err(self.fail(
                path,
                VerifyErrorKind::OutOfBounds {
                    start,
                    end,
                    frame_len: self.frame.len(),
                },
            ));
        }
        if align > 1 && !start.is_multiple_of(align) {
            return Err(self.fail(path, VerifyErrorKind::Misaligned { start, align }));
        }
        self.paths.claimed(path);
        self.regions.push(start, end);
        self.ascending &= start >= self.high_end;
        self.high_end = self.high_end.max(end);
        self.covered += bytes;
        Ok(start)
    }

    /// Walk one field whose inline bytes start at frame offset `at`.
    fn walk_field(&mut self, path: &P::Path, at: usize, ty: &TypeDesc) -> Result<(), VerifyError> {
        self.fields_walked += 1;
        match ty {
            TypeDesc::Prim { .. } => Ok(()),
            TypeDesc::Str => {
                let stored = self.read_u32(at);
                let off = self.read_u32(at + 4);
                if off == 0 {
                    if stored != 0 {
                        return Err(
                            self.fail(path, VerifyErrorKind::ZeroOffsetNonZeroLen { len: stored })
                        );
                    }
                    return Ok(());
                }
                if stored == 0 || !stored.is_multiple_of(4) {
                    return Err(self.fail(path, VerifyErrorKind::BadStringStored { stored }));
                }
                self.claim_region(path, at, off, stored as usize, 1)?;
                Ok(())
            }
            TypeDesc::Vec(elem) => {
                let len = self.read_u32(at);
                let off = self.read_u32(at + 4);
                if off == 0 {
                    if len != 0 {
                        return Err(self.fail(path, VerifyErrorKind::ZeroOffsetNonZeroLen { len }));
                    }
                    return Ok(());
                }
                if len == 0 {
                    return Err(self.fail(path, VerifyErrorKind::ZeroLenNonZeroOffset));
                }
                let elem_size = elem.size();
                let bytes = (len as usize).checked_mul(elem_size).ok_or_else(|| {
                    self.fail(path, VerifyErrorKind::LengthOverflow { len, elem_size })
                })?;
                let start = self.claim_region(path, at, off, bytes, elem.align())?;
                // Recurse into element skeletons only when they can carry
                // indirection; a byte/float payload is a leaf.
                if elem.has_indirection() {
                    for i in 0..len as usize {
                        let elem_path = self.paths.index(path, i);
                        self.walk_field(&elem_path, start + i * elem_size, elem)?;
                    }
                }
                Ok(())
            }
            TypeDesc::Struct(desc) => self.walk_struct(path, at, desc),
            TypeDesc::Array { elem, len } => {
                if elem.has_indirection() {
                    let elem_size = elem.size();
                    for i in 0..*len {
                        let elem_path = self.paths.index(path, i);
                        self.walk_field(&elem_path, at + i * elem_size, elem)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Walk the fields of a skeleton laid out inline at frame offset `at`.
    fn walk_struct(
        &mut self,
        path: &P::Path,
        at: usize,
        desc: &StructDesc,
    ) -> Result<(), VerifyError> {
        for field in desc.fields() {
            if !field.ty.has_indirection() {
                self.fields_walked += 1;
                continue;
            }
            let field_path = self.paths.child(path, &field.name);
            self.walk_field(&field_path, at + field.offset, &field.ty)?;
        }
        Ok(())
    }

    /// The first overlapping pair of regions in `(start, end, claim order)`
    /// order, if any. Regions that arrived ascending are already proved
    /// disjoint; only out-of-order frames pay for the sort.
    fn first_overlap(&mut self) -> Option<(Region, Region)> {
        if self.ascending {
            return None;
        }
        let regions = self.regions.as_mut_slice();
        regions.sort_unstable_by_key(|r| (r.start, r.end, r.id));
        regions
            .windows(2)
            .find(|pair| pair[1].start < pair[0].end)
            .map(|pair| (pair[0], pair[1]))
    }
}

const WHOLE_MESSAGE: &str = "<whole-message>";

/// One full verification pass over a frame already known to hold the root
/// skeleton and to respect `max_size`.
fn walk_frame<P: PathRecorder>(
    schema: &MessageSchema,
    frame: &[u8],
    paths: P,
) -> Result<VerifyReport, VerifyError> {
    let mut w = Walker {
        frame,
        paths,
        regions: Regions::new(),
        high_end: schema.root.size,
        ascending: true,
        covered: schema.root.size,
        // The root itself counts as a walked field.
        fields_walked: 1,
    };
    // The root skeleton occupies [0, size) and counts as the first claimed
    // region so no content region may overlap it.
    w.regions.push(0, schema.root.size);
    w.walk_struct(&P::Path::default(), 0, &schema.root)?;

    // Regions were individually proved in-bounds during the walk.
    if let Some((a, b)) = w.first_overlap() {
        return Err(VerifyError {
            path: w.paths.region(b.id),
            kind: VerifyErrorKind::Overlap {
                other: w.paths.region(a.id),
            },
        });
    }
    // A conforming publisher's whole message ends exactly at the last
    // appended region (append-only growth), so the frame length must be
    // reconstructed precisely.
    if w.high_end != frame.len() {
        return Err(VerifyError {
            path: WHOLE_MESSAGE.to_string(),
            kind: VerifyErrorKind::SizeMismatch {
                used: w.high_end,
                frame_len: frame.len(),
            },
        });
    }
    Ok(VerifyReport {
        fields_walked: w.fields_walked,
        regions: w.regions.len - 1,
        covered_bytes: w.covered,
        gap_bytes: frame.len() - w.covered,
    })
}

/// Verify the structure of one raw frame against `schema`.
///
/// On success the frame is proved safe to adopt: every reachable content
/// region is in-bounds, aligned, and disjoint, and the frame length is
/// exactly the whole-message size a conforming publisher would have
/// produced. On failure the returned [`VerifyError`] names the failing
/// field path.
///
/// A frame that passes costs one walk and no heap allocation (the region
/// list spills to the heap past 32 regions). Diagnostic
/// paths are rendered lazily: only a frame the quiet walk rejects is walked
/// a second time to name the field.
///
/// # Errors
///
/// Any [`VerifyErrorKind`]; the first violation encountered in declaration
/// order is reported.
pub fn verify_frame(schema: &MessageSchema, frame: &[u8]) -> Result<VerifyReport, VerifyError> {
    if frame.len() < schema.root.size {
        return Err(VerifyError {
            path: WHOLE_MESSAGE.to_string(),
            kind: VerifyErrorKind::FrameTooSmall {
                need: schema.root.size,
                have: frame.len(),
            },
        });
    }
    if frame.len() > schema.max_size {
        return Err(VerifyError {
            path: WHOLE_MESSAGE.to_string(),
            kind: VerifyErrorKind::FrameTooLarge {
                max_size: schema.max_size,
                have: frame.len(),
            },
        });
    }
    walk_frame(schema, frame, Quiet).or_else(|_| {
        let named = Rendered {
            regions: vec!["<skeleton>".to_string()],
        };
        walk_frame(schema, frame, named)
    })
}

/// Convenience: verify a frame for a reflectable message type, against the
/// type's cached schema when it exports one.
///
/// # Errors
///
/// As [`verify_frame`].
pub fn verify_frame_for<T: SfmMessage + SfmReflect>(
    frame: &[u8],
) -> Result<VerifyReport, VerifyError> {
    match T::schema() {
        Some(schema) => verify_frame(schema, frame),
        None => verify_frame(&MessageSchema::of::<T>(), frame),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SfmBox, SfmPod, SfmValidate};

    #[repr(C)]
    #[derive(Debug)]
    struct Inner {
        x: f64,
        name: SfmString,
    }
    unsafe impl SfmPod for Inner {}
    impl SfmValidate for Inner {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), crate::SfmError> {
            self.name.validate_in(base, len)
        }
    }
    impl SfmReflect for Inner {
        fn type_desc() -> TypeDesc {
            TypeDesc::Struct(StructDesc::new(
                "test/Inner",
                core::mem::size_of::<Inner>(),
                core::mem::align_of::<Inner>(),
                vec![
                    FieldDesc {
                        name: "x".into(),
                        offset: 0,
                        ty: f64::type_desc(),
                    },
                    FieldDesc {
                        name: "name".into(),
                        offset: 8,
                        ty: SfmString::type_desc(),
                    },
                ],
            ))
        }
    }

    #[repr(C)]
    #[derive(Debug)]
    struct Outer {
        tag: SfmString,
        floats: SfmVec<f64>,
        inners: SfmVec<Inner>,
    }
    unsafe impl SfmPod for Outer {}
    impl SfmValidate for Outer {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), crate::SfmError> {
            self.tag.validate_in(base, len)?;
            self.floats.validate_in(base, len)?;
            self.inners.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for Outer {
        fn type_name() -> &'static str {
            "test/Outer"
        }
        fn max_size() -> usize {
            4096
        }
    }
    impl SfmReflect for Outer {
        fn type_desc() -> TypeDesc {
            TypeDesc::Struct(StructDesc::new(
                "test/Outer",
                core::mem::size_of::<Outer>(),
                core::mem::align_of::<Outer>(),
                vec![
                    FieldDesc {
                        name: "tag".into(),
                        offset: 0,
                        ty: SfmString::type_desc(),
                    },
                    FieldDesc {
                        name: "floats".into(),
                        offset: 8,
                        ty: SfmVec::<f64>::type_desc(),
                    },
                    FieldDesc {
                        name: "inners".into(),
                        offset: 16,
                        ty: SfmVec::<Inner>::type_desc(),
                    },
                ],
            ))
        }
    }

    fn valid_frame() -> Vec<u8> {
        let mut m = SfmBox::<Outer>::new();
        m.tag.assign("outer");
        m.floats.assign(&[1.0, 2.0, 3.0]);
        m.inners.resize(2);
        m.inners[0].x = 4.5;
        m.inners[0].name.assign("first");
        m.inners[1].name.assign("second!");
        m.publish_handle().as_slice().to_vec()
    }

    fn schema() -> MessageSchema {
        MessageSchema::of::<Outer>()
    }

    #[test]
    fn valid_frame_passes_with_report() {
        let frame = valid_frame();
        let report = verify_frame(&schema(), &frame).unwrap();
        // tag + floats + inners + 2 element names = 5 content regions.
        assert_eq!(report.regions, 5);
        assert!(report.covered_bytes <= frame.len());
        assert_eq!(report.covered_bytes + report.gap_bytes, frame.len());
        assert!(report.fields_walked >= 5);
    }

    #[test]
    fn empty_message_is_exactly_the_skeleton() {
        let m = SfmBox::<Outer>::new();
        let frame = m.publish_handle().as_slice().to_vec();
        assert_eq!(frame.len(), core::mem::size_of::<Outer>());
        let report = verify_frame(&schema(), &frame).unwrap();
        assert_eq!(report.regions, 0);
        assert_eq!(report.gap_bytes, 0);
    }

    #[test]
    fn truncated_and_oversized_frames_rejected() {
        let frame = valid_frame();
        let err = verify_frame(&schema(), &frame[..8]).unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::FrameTooSmall { .. }));
        let big = vec![0u8; Outer::max_size() + 1];
        let err = verify_frame(&schema(), &big).unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::FrameTooLarge { .. }));
    }

    #[test]
    fn out_of_bounds_offset_names_the_field() {
        let mut frame = valid_frame();
        // Poison the tag's offset word (bytes 4..8).
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = verify_frame(&schema(), &frame).unwrap_err();
        assert_eq!(err.path, "tag");
        assert!(matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }));
        assert!(err.to_string().contains("tag"), "{err}");
    }

    #[test]
    fn nested_element_corruption_names_the_indexed_path() {
        let frame = valid_frame();
        // Find the inners content region: read the pair at offset 16.
        let len = u32::from_ne_bytes(frame[16..20].try_into().unwrap()) as usize;
        let off = u32::from_ne_bytes(frame[20..24].try_into().unwrap()) as usize;
        assert_eq!(len, 2);
        let elems = 20 + off; // offset is relative to the off word at 20
        let elem_size = core::mem::size_of::<Inner>();
        // Corrupt the second element's name offset (skeleton: x at 0,
        // name at 8 → off word at 12).
        let poison = elems + elem_size + 12;
        let mut bad = frame.clone();
        bad[poison..poison + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = verify_frame(&schema(), &bad).unwrap_err();
        assert_eq!(err.path, "inners[1].name");
    }

    #[test]
    fn overlap_with_skeleton_rejected() {
        let mut frame = valid_frame();
        // Point the floats content back into the skeleton: off word at 12.
        // Self-relative target = 0 means "at the off word itself".
        frame[12..16].copy_from_slice(&8u32.to_le_bytes());
        let err = verify_frame(&schema(), &frame).unwrap_err();
        // Either an overlap with the skeleton or misalignment, depending on
        // the address — both are structural rejections; overlap expected
        // here because offset 24 is 8-aligned.
        assert!(
            matches!(
                err.kind,
                VerifyErrorKind::Overlap { .. } | VerifyErrorKind::Misaligned { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn misaligned_float_region_rejected() {
        let mut frame = valid_frame();
        let off = u32::from_ne_bytes(frame[12..16].try_into().unwrap());
        // Shift the floats region by 4: still in-bounds, no longer 8-aligned.
        frame[12..16].copy_from_slice(&(off - 4).to_le_bytes());
        let err = verify_frame(&schema(), &frame).unwrap_err();
        assert!(
            matches!(
                err.kind,
                VerifyErrorKind::Misaligned { .. } | VerifyErrorKind::Overlap { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut frame = valid_frame();
        frame.extend_from_slice(&[0xAA; 16]);
        let err = verify_frame(&schema(), &frame).unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::SizeMismatch { .. }));
    }

    #[test]
    fn zero_offset_nonzero_len_rejected() {
        let mut frame = valid_frame();
        // floats pair at 8: len nonzero, off = 0.
        frame[12..16].copy_from_slice(&0u32.to_le_bytes());
        let err = verify_frame(&schema(), &frame).unwrap_err();
        assert!(matches!(
            err.kind,
            VerifyErrorKind::ZeroOffsetNonZeroLen { .. }
        ));
        assert_eq!(err.path, "floats");
    }

    #[test]
    fn length_overflow_rejected() {
        let mut frame = valid_frame();
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = verify_frame(&schema(), &frame).unwrap_err();
        assert!(
            matches!(
                err.kind,
                VerifyErrorKind::LengthOverflow { .. } | VerifyErrorKind::OutOfBounds { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn bad_string_stored_rejected() {
        let mut frame = valid_frame();
        // tag stored word at 0: make it a non-multiple of 4.
        frame[0..4].copy_from_slice(&7u32.to_le_bytes());
        let err = verify_frame(&schema(), &frame).unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::BadStringStored { .. }));
    }

    #[test]
    fn verifier_is_stricter_than_validate() {
        // Everything the verifier accepts must be adoptable: cross-check on
        // the valid frame.
        let frame = valid_frame();
        verify_frame(&schema(), &frame).unwrap();
        let mut rb = crate::SfmRecvBuffer::<Outer>::new(frame.len()).unwrap();
        rb.as_mut_slice().copy_from_slice(&frame);
        let msg = rb.finish().unwrap();
        assert_eq!(msg.tag.as_str(), "outer");
        assert_eq!(msg.inners[1].name.as_str(), "second!");
    }

    #[test]
    fn type_desc_metrics() {
        let d = SfmVec::<Inner>::type_desc();
        assert_eq!(d.size(), 8);
        assert_eq!(d.align(), 4);
        assert!(d.has_indirection());
        assert!(!f64::type_desc().has_indirection());
        assert_eq!(<[f64; 9]>::type_desc().size(), 72);
        assert_eq!(<[f64; 9]>::type_desc().align(), 8);
    }

    #[test]
    fn schema_of_matches_layout() {
        let s = schema();
        assert_eq!(s.type_name(), "test/Outer");
        assert_eq!(s.root.size, core::mem::size_of::<Outer>());
        assert_eq!(s.max_size, Outer::max_size());
    }
}
