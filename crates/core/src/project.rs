//! Projections: transmit (and verify) a declared field subset of an SFM
//! message.
//!
//! A subscriber that only needs a few fields of a multi-megabyte message
//! should not receive the whole frame. SFM makes the cut almost free:
//! every variable-size field already occupies a `{len, offset}` pair in
//! the fixed skeleton (§4.1), so a *projected sub-frame* is simply
//!
//! 1. the whole skeleton (a small, fixed-size copy) with the offset words
//!    of **selected** pairs patched to the content's position in the
//!    sub-frame and every **unselected** pair cleared to the all-zero
//!    unassigned state, followed by
//! 2. the selected content regions, appended in skeleton order with their
//!    element alignment preserved.
//!
//! [`Projection::resolve`] turns a set of [`FieldPath`]s into this plan
//! once, at subscribe time; [`Projection::slice`] applies it to a frame,
//! producing borrowed ranges the transport can hand straight to a
//! vectored write (no intermediate payload buffer);
//! [`Projection::verify_projected`] is the receive side — the ordinary
//! structural verifier against the full schema, plus the projection's own
//! invariant that cleared pairs really are zero. An accessor for a field
//! outside the projection returns a typed [`FieldAbsent`] error instead
//! of garbage ([`Projection::field_bytes`]).
//!
//! Selecting a nested struct (e.g. `header`) selects every pair inside
//! its skeleton range. Selecting a vector whose *elements* themselves
//! hold `{len, offset}` pairs is refused
//! ([`PathError::Unprojectable`]) — relocating such a region would
//! require rewriting the element-internal pairs recursively.

use crate::align_up;
use crate::path::{child_path, index_path, FieldPath, FieldRange, PathError};
use crate::verify::{
    verify_frame, MessageSchema, StructDesc, TypeDesc, VerifyError, VerifyErrorKind, VerifyReport,
};
use core::fmt;
use core::ops::Range;

/// What kind of `{len, offset}` pair a selected skeleton slot holds.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PairKind {
    /// `SfmString`: the first word is the stored byte count.
    Str,
    /// `SfmVec`: the first word is the element count.
    Vec { elem_size: usize, elem_align: usize },
}

/// One `{len, offset}` pair the projection keeps, in skeleton order.
#[derive(Debug, Clone)]
struct PairSel {
    path: String,
    pair_at: usize,
    kind: PairKind,
}

/// A resolved projection of one message type: which skeleton ranges the
/// subscriber asked for, which `{len, offset}` pairs ship content and
/// which are cleared, and the canonical spec string both ends of a link
/// agree on during the connection handshake.
#[derive(Debug, Clone)]
pub struct Projection {
    schema: MessageSchema,
    spec: String,
    ranges: Vec<(FieldPath, FieldRange)>,
    selected: Vec<PairSel>,
    cleared: Vec<(String, usize)>,
}

/// One borrowed content range of a [`SlicedFrame`], preceded by `pad`
/// zero bytes that restore its element alignment in the sub-frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSegment {
    /// Alignment padding bytes to emit before the content.
    pub pad: usize,
    /// The content's byte range in the *original* frame.
    pub src: Range<usize>,
}

/// The slicing plan for one frame: a patched skeleton copy plus borrowed
/// content ranges. The wire form is `skeleton ∥ (pad ∥ frame[src])…`, and
/// the transport can emit it as a vectored write without assembling a
/// contiguous payload.
#[derive(Debug, Clone)]
pub struct SlicedFrame {
    /// The skeleton bytes with selected offsets re-pointed and unselected
    /// pairs cleared to the all-zero unassigned state.
    pub skeleton: Vec<u8>,
    /// Selected content regions in skeleton order.
    pub segments: Vec<FrameSegment>,
    /// Total sub-frame length (`skeleton.len()` + pads + content bytes).
    pub wire_len: usize,
}

/// A field accessor was asked for a field the projection does not carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldAbsent {
    /// The requested field path.
    pub path: String,
}

impl fmt::Display for FieldAbsent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field `{}` is not carried by this projection", self.path)
    }
}

impl std::error::Error for FieldAbsent {}

/// Recursively list every `{len, offset}` pair in a skeleton's inline
/// layout, in layout order.
fn collect_pairs(
    path: &str,
    at: usize,
    desc: &StructDesc,
    out: &mut Vec<(String, usize, TypeDesc)>,
) {
    for f in desc.fields() {
        collect_pairs_ty(&child_path(path, &f.name), at + f.offset, &f.ty, out);
    }
}

fn collect_pairs_ty(
    path: &str,
    at: usize,
    ty: &TypeDesc,
    out: &mut Vec<(String, usize, TypeDesc)>,
) {
    match ty {
        TypeDesc::Prim { .. } => {}
        TypeDesc::Str | TypeDesc::Vec(_) => out.push((path.to_string(), at, ty.clone())),
        TypeDesc::Struct(desc) => collect_pairs(path, at, desc, out),
        TypeDesc::Array { elem, len } => {
            if elem.has_indirection() {
                for i in 0..*len {
                    collect_pairs_ty(&index_path(path, i), at + i * elem.size(), elem, out);
                }
            }
        }
    }
}

impl Projection {
    /// Resolve `paths` against `schema` into a projection plan.
    ///
    /// Paths are parsed, sorted, and deduplicated, so any two ends that
    /// name the same field set produce the same canonical
    /// [`Projection::spec`] — which is what makes the handshake's
    /// grant-by-echo exact.
    ///
    /// # Errors
    ///
    /// [`PathError`] on unparsable or unresolvable paths, and
    /// [`PathError::Unprojectable`] when a selected field is (or
    /// contains) a vector whose elements hold their own pairs.
    pub fn resolve(schema: &MessageSchema, paths: &[&str]) -> Result<Projection, PathError> {
        if paths.is_empty() {
            return Err(PathError::Empty);
        }
        let mut parsed = paths
            .iter()
            .map(|p| FieldPath::parse(p))
            .collect::<Result<Vec<_>, _>>()?;
        parsed.sort_by_key(|a| a.to_string());
        parsed.dedup();
        let mut ranges = Vec::with_capacity(parsed.len());
        for p in parsed {
            let range = schema.resolve_path(&p)?;
            ranges.push((p, range));
        }
        let spec = ranges
            .iter()
            .map(|(p, _)| p.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut pairs = Vec::new();
        collect_pairs("", 0, &schema.root, &mut pairs);
        let mut selected = Vec::new();
        let mut cleared = Vec::new();
        for (path, pair_at, ty) in pairs {
            let inside = ranges
                .iter()
                .any(|(_, r)| pair_at >= r.offset && pair_at + 8 <= r.offset + r.len);
            if !inside {
                cleared.push((path, pair_at));
                continue;
            }
            let kind = match &ty {
                TypeDesc::Str => PairKind::Str,
                TypeDesc::Vec(elem) => {
                    if elem.has_indirection() {
                        return Err(PathError::Unprojectable { path });
                    }
                    PairKind::Vec {
                        elem_size: elem.size(),
                        elem_align: elem.align(),
                    }
                }
                _ => unreachable!("collect_pairs only emits Str/Vec"),
            };
            selected.push(PairSel {
                path,
                pair_at,
                kind,
            });
        }
        selected.sort_by_key(|s| s.pair_at);
        Ok(Projection {
            schema: schema.clone(),
            spec,
            ranges,
            selected,
            cleared,
        })
    }

    /// Parse a canonical spec string (comma-joined paths, as produced by
    /// [`Projection::spec`]) and resolve it — the publisher-side entry
    /// point during the connection handshake.
    ///
    /// # Errors
    ///
    /// As [`Projection::resolve`].
    pub fn from_spec(schema: &MessageSchema, spec: &str) -> Result<Projection, PathError> {
        let paths: Vec<&str> = spec.split(',').filter(|s| !s.is_empty()).collect();
        Projection::resolve(schema, &paths)
    }

    /// The canonical, order-independent spec string (comma-joined sorted
    /// paths) that names this projection in the connection header.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The schema this projection was resolved against.
    pub fn schema(&self) -> &MessageSchema {
        &self.schema
    }

    /// The resolved selections, in canonical order.
    pub fn ranges(&self) -> impl Iterator<Item = (&FieldPath, &FieldRange)> {
        self.ranges.iter().map(|(p, r)| (p, r))
    }

    /// Whether `path` is one of the selected fields (exact match against
    /// the canonical selection, not a prefix test).
    pub fn contains(&self, path: &FieldPath) -> bool {
        self.ranges.iter().any(|(p, _)| p == path)
    }

    /// Worst-case sub-frame length: skeleton plus every selected region at
    /// its maximum possible extent (bounded by the type's `max_size`).
    /// Useful only as a sanity bound; real sub-frames are usually far
    /// smaller.
    pub fn max_wire_len(&self) -> usize {
        self.schema.max_size
    }

    /// Slice `frame` according to this projection.
    ///
    /// The returned plan borrows nothing from `frame` (ranges only), so it
    /// can outlive the borrow; content bytes are *not* copied here — the
    /// transport writes them straight out of the original frame.
    ///
    /// # Errors
    ///
    /// [`VerifyError`] when the frame's selected pairs are structurally
    /// invalid (the same invariants [`verify_frame`] enforces on them).
    pub fn slice(&self, frame: &[u8]) -> Result<SlicedFrame, VerifyError> {
        let root = self.schema.root.size;
        let fail = |path: &str, kind: VerifyErrorKind| VerifyError {
            path: path.to_string(),
            kind,
        };
        if frame.len() < root {
            return Err(fail(
                "<whole-message>",
                VerifyErrorKind::FrameTooSmall {
                    need: root,
                    have: frame.len(),
                },
            ));
        }
        let mut skeleton = frame[..root].to_vec();
        for (_, pair_at) in &self.cleared {
            skeleton[*pair_at..*pair_at + 8].fill(0);
        }
        let read_u32 =
            |at: usize| u32::from_ne_bytes(frame[at..at + 4].try_into().expect("4 bytes"));
        let mut segments = Vec::with_capacity(self.selected.len());
        let mut cursor = root;
        for sel in &self.selected {
            let word = read_u32(sel.pair_at);
            let off = read_u32(sel.pair_at + 4);
            if off == 0 {
                if word != 0 {
                    return Err(fail(
                        &sel.path,
                        VerifyErrorKind::ZeroOffsetNonZeroLen { len: word },
                    ));
                }
                continue; // unassigned at publish time: stays {0, 0}
            }
            let (bytes, align) = match sel.kind {
                PairKind::Str => {
                    if word == 0 || !word.is_multiple_of(4) {
                        return Err(fail(
                            &sel.path,
                            VerifyErrorKind::BadStringStored { stored: word },
                        ));
                    }
                    (word as usize, 1)
                }
                PairKind::Vec {
                    elem_size,
                    elem_align,
                } => {
                    if word == 0 {
                        return Err(fail(&sel.path, VerifyErrorKind::ZeroLenNonZeroOffset));
                    }
                    let bytes = (word as usize).checked_mul(elem_size).ok_or_else(|| {
                        fail(
                            &sel.path,
                            VerifyErrorKind::LengthOverflow {
                                len: word,
                                elem_size,
                            },
                        )
                    })?;
                    (bytes, elem_align)
                }
            };
            let start = sel.pair_at + 4 + off as usize;
            let end = start.saturating_add(bytes);
            if end > frame.len() {
                return Err(fail(
                    &sel.path,
                    VerifyErrorKind::OutOfBounds {
                        start,
                        end,
                        frame_len: frame.len(),
                    },
                ));
            }
            let pad = align_up(cursor, align.max(1)) - cursor;
            let new_start = cursor + pad;
            // The new offset is self-relative to the pair's offset word,
            // exactly like the original.
            let new_off = u32::try_from(new_start - (sel.pair_at + 4)).map_err(|_| {
                fail(
                    &sel.path,
                    VerifyErrorKind::OutOfBounds {
                        start: new_start,
                        end: new_start + bytes,
                        frame_len: frame.len(),
                    },
                )
            })?;
            skeleton[sel.pair_at + 4..sel.pair_at + 8].copy_from_slice(&new_off.to_ne_bytes());
            segments.push(FrameSegment {
                pad,
                src: start..end,
            });
            cursor = new_start + bytes;
        }
        Ok(SlicedFrame {
            skeleton,
            segments,
            wire_len: cursor,
        })
    }

    /// Assemble a contiguous projected sub-frame (test/tooling helper; the
    /// transport streams [`SlicedFrame`] segments directly instead).
    ///
    /// # Errors
    ///
    /// As [`Projection::slice`].
    pub fn project_frame(&self, frame: &[u8]) -> Result<Vec<u8>, VerifyError> {
        let plan = self.slice(frame)?;
        let mut out = Vec::with_capacity(plan.wire_len);
        out.extend_from_slice(&plan.skeleton);
        for seg in &plan.segments {
            out.resize(out.len() + seg.pad, 0);
            out.extend_from_slice(&frame[seg.src.clone()]);
        }
        debug_assert_eq!(out.len(), plan.wire_len);
        Ok(out)
    }

    /// Verify a received projected sub-frame: the full structural pass of
    /// [`verify_frame`] (cleared pairs are valid unassigned fields) plus
    /// the projection's own invariant that every cleared pair really is
    /// all-zero — a frame with content on an unselected field did not come
    /// from a conforming projecting publisher.
    ///
    /// # Errors
    ///
    /// Any [`VerifyErrorKind`], including
    /// [`VerifyErrorKind::UnprojectedNonZero`] for the cleared-pair
    /// invariant.
    pub fn verify_projected(&self, frame: &[u8]) -> Result<VerifyReport, VerifyError> {
        if frame.len() >= self.schema.root.size {
            for (path, pair_at) in &self.cleared {
                if frame[*pair_at..*pair_at + 8].iter().any(|&b| b != 0) {
                    return Err(VerifyError {
                        path: path.clone(),
                        kind: VerifyErrorKind::UnprojectedNonZero,
                    });
                }
            }
        }
        verify_frame(&self.schema, frame)
    }

    /// Borrow the bytes of a *selected* field from a (projected or full)
    /// frame: inline skeleton bytes for fixed-size fields, the content
    /// region for strings and vectors (empty slice when unassigned).
    ///
    /// The frame must have passed [`Projection::verify_projected`] (or
    /// [`verify_frame`]); the accessor does its own bounds checks but
    /// reports any inconsistency as the field being absent rather than
    /// returning garbage.
    ///
    /// # Errors
    ///
    /// [`FieldAbsent`] when `path` is not part of this projection (or the
    /// frame cannot supply it).
    pub fn field_bytes<'f>(
        &self,
        frame: &'f [u8],
        path: &FieldPath,
    ) -> Result<&'f [u8], FieldAbsent> {
        let absent = || FieldAbsent {
            path: path.to_string(),
        };
        let (_, range) = self
            .ranges
            .iter()
            .find(|(p, _)| p == path)
            .ok_or_else(absent)?;
        match &range.ty {
            TypeDesc::Str | TypeDesc::Vec(_) => {
                let pair = frame
                    .get(range.offset..range.offset + 8)
                    .ok_or_else(absent)?;
                let word = u32::from_ne_bytes(pair[..4].try_into().expect("4 bytes"));
                let off = u32::from_ne_bytes(pair[4..].try_into().expect("4 bytes"));
                if off == 0 {
                    return Ok(&[]);
                }
                let bytes = match &range.ty {
                    TypeDesc::Str => word as usize,
                    TypeDesc::Vec(elem) => (word as usize)
                        .checked_mul(elem.size())
                        .ok_or_else(absent)?,
                    _ => unreachable!(),
                };
                let start = range.offset + 4 + off as usize;
                frame.get(start..start + bytes).ok_or_else(absent)
            }
            _ => frame
                .get(range.offset..range.offset + range.len)
                .ok_or_else(absent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{FieldDesc, SfmReflect};
    use crate::{SfmBox, SfmMessage, SfmPod, SfmString, SfmValidate, SfmVec};

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
        count: u32,
        data: SfmVec<u8>,
    }
    unsafe impl SfmPod for Outer {}
    impl SfmValidate for Outer {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), crate::SfmError> {
            self.tag.validate_in(base, len)?;
            self.floats.validate_in(base, len)?;
            self.inners.validate_in(base, len)?;
            self.data.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for Outer {
        fn type_name() -> &'static str {
            "test/ProjOuter"
        }
        fn max_size() -> usize {
            1 << 16
        }
    }
    impl SfmReflect for Outer {
        fn type_desc() -> TypeDesc {
            TypeDesc::Struct(StructDesc::new(
                "test/ProjOuter",
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
                    FieldDesc {
                        name: "count".into(),
                        offset: 24,
                        ty: u32::type_desc(),
                    },
                    FieldDesc {
                        name: "data".into(),
                        offset: 28,
                        ty: SfmVec::<u8>::type_desc(),
                    },
                ],
            ))
        }
    }

    fn schema() -> MessageSchema {
        MessageSchema::of::<Outer>()
    }

    fn sample() -> SfmBox<Outer> {
        let mut m = SfmBox::<Outer>::new();
        m.tag.assign("outer");
        m.floats.assign(&[1.5, 2.5, 3.5]);
        m.inners.resize(2);
        m.inners[0].x = 4.5;
        m.inners[0].name.assign("first");
        m.inners[1].name.assign("second!");
        m.count = 42;
        m.data.assign(&[7u8; 1000]);
        m
    }

    #[test]
    fn canonical_spec_is_sorted_and_deduped() {
        let s = schema();
        let a = Projection::resolve(&s, &["tag", "count", "tag"]).unwrap();
        let b = Projection::resolve(&s, &["count", "tag"]).unwrap();
        assert_eq!(a.spec(), "count,tag");
        assert_eq!(a.spec(), b.spec());
        let c = Projection::from_spec(&s, a.spec()).unwrap();
        assert_eq!(c.spec(), a.spec());
    }

    #[test]
    fn resolve_rejects_bad_paths() {
        let s = schema();
        assert!(matches!(
            Projection::resolve(&s, &[]),
            Err(PathError::Empty)
        ));
        assert!(matches!(
            Projection::resolve(&s, &["missing"]),
            Err(PathError::UnknownField { .. })
        ));
        assert!(matches!(
            Projection::resolve(&s, &["floats[1]"]),
            Err(PathError::DynamicIndex { .. })
        ));
        assert!(matches!(
            Projection::resolve(&s, &["count.x"]),
            Err(PathError::NotAStruct { .. })
        ));
        // A vector of skeletons with their own pairs cannot be relocated.
        assert!(matches!(
            Projection::resolve(&s, &["inners"]),
            Err(PathError::Unprojectable { .. })
        ));
    }

    #[test]
    fn projected_frame_passes_projected_verifier_and_matches_witness() {
        let s = schema();
        let m = sample();
        let full = m.publish_handle().as_slice().to_vec();
        let proj = Projection::resolve(&s, &["tag", "count", "floats"]).unwrap();
        let sub = proj.project_frame(&full).unwrap();
        assert!(sub.len() < full.len());
        let report = proj.verify_projected(&sub).unwrap();
        assert_eq!(report.regions, 2, "tag + floats");
        // Byte-identity on the selected ranges vs the full-frame witness.
        let tag_path: FieldPath = "tag".parse().unwrap();
        let floats_path: FieldPath = "floats".parse().unwrap();
        let count_path: FieldPath = "count".parse().unwrap();
        assert_eq!(
            proj.field_bytes(&sub, &tag_path).unwrap(),
            proj.field_bytes(&full, &tag_path).unwrap()
        );
        assert_eq!(
            proj.field_bytes(&sub, &floats_path).unwrap(),
            proj.field_bytes(&full, &floats_path).unwrap()
        );
        assert_eq!(
            proj.field_bytes(&sub, &count_path).unwrap(),
            42u32.to_ne_bytes()
        );
        // The projected frame adopts cleanly: cleared fields read as
        // unassigned, selected fields carry their values.
        let mut rb = crate::SfmRecvBuffer::<Outer>::new(sub.len()).unwrap();
        rb.as_mut_slice().copy_from_slice(&sub);
        let msg = rb.finish().unwrap();
        assert_eq!(msg.tag.as_str(), "outer");
        assert_eq!(msg.floats.as_slice(), &[1.5, 2.5, 3.5]);
        assert_eq!(msg.count, 42);
        assert_eq!(msg.data.len(), 0, "unselected vec reads as unassigned");
        assert_eq!(msg.inners.len(), 0);
    }

    #[test]
    fn skeleton_only_projection_is_exactly_the_skeleton() {
        let s = schema();
        let m = sample();
        let full = m.publish_handle().as_slice().to_vec();
        let proj = Projection::resolve(&s, &["count"]).unwrap();
        let sub = proj.project_frame(&full).unwrap();
        assert_eq!(sub.len(), core::mem::size_of::<Outer>());
        proj.verify_projected(&sub).unwrap();
    }

    #[test]
    fn unassigned_selected_field_stays_zero() {
        let s = schema();
        let m = SfmBox::<Outer>::new(); // nothing assigned
        let full = m.publish_handle().as_slice().to_vec();
        let proj = Projection::resolve(&s, &["tag", "floats"]).unwrap();
        let sub = proj.project_frame(&full).unwrap();
        assert_eq!(sub.len(), core::mem::size_of::<Outer>());
        proj.verify_projected(&sub).unwrap();
    }

    #[test]
    fn unprojected_content_is_rejected_by_projected_verifier() {
        let s = schema();
        let m = sample();
        let full = m.publish_handle().as_slice().to_vec();
        let proj = Projection::resolve(&s, &["count"]).unwrap();
        // A full frame still carries content on cleared pairs.
        let err = proj.verify_projected(&full).unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::UnprojectedNonZero));
    }

    #[test]
    fn field_absent_for_unselected_paths() {
        let s = schema();
        let m = sample();
        let full = m.publish_handle().as_slice().to_vec();
        let proj = Projection::resolve(&s, &["count"]).unwrap();
        let data_path: FieldPath = "data".parse().unwrap();
        let err = proj.field_bytes(&full, &data_path).unwrap_err();
        assert_eq!(err.path, "data");
        assert!(err.to_string().contains("data"));
        assert!(!proj.contains(&data_path));
        assert!(proj.contains(&"count".parse().unwrap()));
    }

    #[test]
    fn corrupt_selected_pair_fails_slicing() {
        let s = schema();
        let m = sample();
        let mut full = m.publish_handle().as_slice().to_vec();
        let proj = Projection::resolve(&s, &["tag"]).unwrap();
        // Poison the tag offset word (bytes 4..8) to escape the frame.
        full[4..8].copy_from_slice(&u32::MAX.to_ne_bytes());
        let err = proj.slice(&full).unwrap_err();
        assert_eq!(err.path, "tag");
        assert!(matches!(err.kind, VerifyErrorKind::OutOfBounds { .. }));
    }

    #[test]
    fn vec_alignment_is_restored_with_padding() {
        let s = schema();
        let mut m = SfmBox::<Outer>::new();
        m.tag.assign("xxxxx"); // stored 8 bytes → cursor lands 8-misaligned
        m.floats.assign(&[9.0]);
        let full = m.publish_handle().as_slice().to_vec();
        let proj = Projection::resolve(&s, &["floats", "tag"]).unwrap();
        let sub = proj.project_frame(&full).unwrap();
        proj.verify_projected(&sub).unwrap();
        let floats = proj.field_bytes(&sub, &"floats".parse().unwrap()).unwrap();
        assert_eq!(floats, 9.0f64.to_ne_bytes());
    }
}
