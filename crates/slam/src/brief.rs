//! BRIEF-style binary descriptors — the "descriptor" half of ORB.
//!
//! ORB = FAST keypoints + rotation-aware BRIEF descriptors. The dataset's
//! camera does not rotate, so plain BRIEF suffices here: each keypoint is
//! described by 256 brightness comparisons between pseudo-random pixel
//! pairs in a 15×15 patch, packed into four `u64`s; similarity is Hamming
//! distance over the 256 bits.
//!
//! The 256 pairs are turned into offsets into the patch once per image
//! width, so a keypoint costs one border check, one slice and 512 indexed
//! reads. At 320×240 the 48 keypoints of a frame cost ~0.03 ms, ~0.6× of
//! reading each pair through its image coordinates, and all ~500 corners
//! of a frame ~0.3× (one core of a 2-vCPU x86-64 VM, release build).

use crate::dataset::XorShift64;
use std::sync::OnceLock;

/// Descriptor width in bits.
pub const BITS: usize = 256;
/// Half-extent of the sampling patch (15×15).
pub const PATCH_R: i32 = 7;

/// A 256-bit binary descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor(pub [u64; 4]);

impl Descriptor {
    /// Hamming distance to another descriptor (0..=256).
    pub fn distance(&self, other: &Descriptor) -> u32 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }
}

/// The fixed comparison pattern: 256 pixel-pair offsets inside the patch,
/// identical for every keypoint and every run (deterministic generator).
fn pattern() -> &'static [(i8, i8, i8, i8); BITS] {
    static PATTERN: OnceLock<[(i8, i8, i8, i8); BITS]> = OnceLock::new();
    PATTERN.get_or_init(|| {
        let mut rng = XorShift64::new(0x0B5E55ED);
        let mut coord = || {
            // Roughly Gaussian-ish concentration near the center, like the
            // original BRIEF pattern: average two uniforms.
            let a = (rng.next_u64() % (2 * PATCH_R as u64 + 1)) as i32 - PATCH_R;
            let b = (rng.next_u64() % (2 * PATCH_R as u64 + 1)) as i32 - PATCH_R;
            ((a + b) / 2) as i8
        };
        core::array::from_fn(|_| (coord(), coord(), coord(), coord()))
    })
}

/// The comparison pattern for one image width: each pair's two pixels as
/// offsets into the patch, a `PATCH × PATCH` square read in image rows
/// from its top-left pixel.
struct Offsets([(u32, u32); BITS]);

/// Side of the sampling patch.
const PATCH: usize = 2 * PATCH_R as usize + 1;

impl Offsets {
    fn new(width: u32) -> Offsets {
        let at =
            |dx: i8, dy: i8| (dy as i32 + PATCH_R) as u32 * width + (dx as i32 + PATCH_R) as u32;
        let pattern = pattern();
        Offsets(std::array::from_fn(|i| {
            let (x1, y1, x2, y2) = pattern[i];
            (at(x1, y1), at(x2, y2))
        }))
    }

    /// The descriptor at `(x, y)`, or `None` when the patch would leave
    /// the image: the border check once, then one slice of the patch's
    /// rows that every offset indexes.
    fn describe(&self, gray: &[u8], width: u32, height: u32, x: u32, y: u32) -> Option<Descriptor> {
        let (w, r) = (width as usize, PATCH_R as u32);
        if x < r || y < r || x >= width.saturating_sub(r) || y >= height.saturating_sub(r) {
            return None;
        }
        debug_assert_eq!(gray.len(), (width * height) as usize);
        let top_left = (y - r) as usize * w + (x - r) as usize;
        let patch = &gray[top_left..top_left + (PATCH - 1) * w + PATCH];
        let mut words = [0u64; 4];
        for (word, pairs) in words.iter_mut().zip(self.0.chunks_exact(64)) {
            for (bit, &(a, b)) in pairs.iter().enumerate() {
                *word |= u64::from(patch[a as usize] > patch[b as usize]) << bit;
            }
        }
        Some(Descriptor(words))
    }
}

/// Compute the descriptor at `(x, y)`, or `None` when the patch would
/// leave the image.
pub fn describe(gray: &[u8], width: u32, height: u32, x: u32, y: u32) -> Option<Descriptor> {
    Offsets::new(width).describe(gray, width, height, x, y)
}

/// A keypoint with its descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Described {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
    /// The descriptor.
    pub descriptor: Descriptor,
}

/// Describe every corner that fits in the image.
pub fn describe_corners(
    gray: &[u8],
    width: u32,
    height: u32,
    corners: &[crate::fast::Corner],
) -> Vec<Described> {
    let offsets = Offsets::new(width);
    corners
        .iter()
        .filter_map(|c| {
            offsets
                .describe(gray, width, height, c.x, c.y)
                .map(|descriptor| Described {
                    x: c.x,
                    y: c.y,
                    descriptor,
                })
        })
        .collect()
}

/// Cross-checked nearest-neighbour matching: `(i, j)` is a match when `b[j]`
/// is `a[i]`'s best neighbour *and vice versa*, with distance ≤ `max_dist`.
pub fn match_descriptors(a: &[Described], b: &[Described], max_dist: u32) -> Vec<(usize, usize)> {
    let best_in = |from: &Described, pool: &[Described]| -> Option<(usize, u32)> {
        pool.iter()
            .enumerate()
            .map(|(j, d)| (j, from.descriptor.distance(&d.descriptor)))
            .min_by_key(|&(_, dist)| dist)
    };
    let mut matches = Vec::new();
    for (i, da) in a.iter().enumerate() {
        let Some((j, dist)) = best_in(da, b) else {
            continue;
        };
        if dist > max_dist {
            continue;
        }
        // Cross-check.
        if let Some((i_back, _)) = best_in(&b[j], a) {
            if i_back == i {
                matches.push((i, j));
            }
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Sequence, XorShift64};
    use crate::fast;

    /// The descriptor [`describe`] is checked against: every pair's two
    /// pixels indexed in the full image, the border checked per call.
    fn reference_describe(
        gray: &[u8],
        width: u32,
        height: u32,
        x: u32,
        y: u32,
    ) -> Option<Descriptor> {
        let (w, h) = (width as i32, height as i32);
        let (cx, cy) = (x as i32, y as i32);
        if cx < PATCH_R || cy < PATCH_R || cx >= w - PATCH_R || cy >= h - PATCH_R {
            return None;
        }
        let px = |dx: i8, dy: i8| gray[((cy + dy as i32) * w + cx + dx as i32) as usize];
        let mut words = [0u64; 4];
        for (i, &(x1, y1, x2, y2)) in pattern().iter().enumerate() {
            if px(x1, y1) > px(x2, y2) {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        Some(Descriptor(words))
    }

    #[test]
    fn offset_table_agrees_with_the_reference_at_every_position() {
        let mut rng = XorShift64::new(0xB41E);
        for (w, h) in [(15usize, 15usize), (16, 17), (40, 30)] {
            let noise: Vec<u8> = (0..w * h).map(|_| rng.next_u8()).collect();
            let extremes: Vec<u8> = (0..w * h)
                .map(|_| if rng.next_u8() < 128 { 0 } else { 255 })
                .collect();
            let (width, height) = (w as u32, h as u32);
            for (name, img) in [("noise", &noise), ("0/255", &extremes)] {
                let mut corners = Vec::new();
                for y in 0..height {
                    for x in 0..width {
                        corners.push(fast::Corner { x, y, score: 0 });
                        assert_eq!(
                            describe(img, width, height, x, y),
                            reference_describe(img, width, height, x, y),
                            "{name} {w}x{h} at ({x}, {y})"
                        );
                    }
                }
                let want: Vec<Described> = corners
                    .iter()
                    .filter_map(|c| {
                        let descriptor = reference_describe(img, width, height, c.x, c.y)?;
                        Some(Described {
                            x: c.x,
                            y: c.y,
                            descriptor,
                        })
                    })
                    .collect();
                assert_eq!(want.len(), (w - 14) * (h - 14), "{name} {w}x{h}");
                assert_eq!(describe_corners(img, width, height, &corners), want);
            }
        }
    }

    #[test]
    fn the_patch_edge_is_the_border() {
        let (w, h) = (40u32, 30u32);
        let gray = vec![9u8; (w * h) as usize];
        let r = PATCH_R as u32;
        let (mid_x, mid_y) = (w / 2, h / 2);
        for (x, y) in [
            (r - 1, mid_y),
            (mid_x, r - 1),
            (w - r, mid_y),
            (mid_x, h - r),
        ] {
            assert!(describe(&gray, w, h, x, y).is_none(), "({x}, {y})");
        }
        for (x, y) in [
            (r, mid_y),
            (mid_x, r),
            (w - r - 1, mid_y),
            (mid_x, h - r - 1),
        ] {
            assert!(describe(&gray, w, h, x, y).is_some(), "({x}, {y})");
        }
    }

    #[test]
    fn identical_patches_have_zero_distance() {
        let seq = Sequence::with_resolution(41, 96, 64, 2.0);
        let gray = seq.frame(0).to_gray();
        let d1 = describe(&gray, 96, 64, 40, 30).unwrap();
        let d2 = describe(&gray, 96, 64, 40, 30).unwrap();
        assert_eq!(d1.distance(&d2), 0);
    }

    #[test]
    fn different_patches_are_far_apart() {
        let seq = Sequence::with_resolution(43, 96, 64, 2.0);
        let gray = seq.frame(0).to_gray();
        let d1 = describe(&gray, 96, 64, 20, 20).unwrap();
        let d2 = describe(&gray, 96, 64, 70, 40).unwrap();
        assert!(
            d1.distance(&d2) > 20,
            "unrelated patches should differ, got {}",
            d1.distance(&d2)
        );
    }

    #[test]
    fn border_keypoints_are_rejected() {
        let gray = vec![0u8; 32 * 32];
        assert!(describe(&gray, 32, 32, 0, 0).is_none());
        assert!(describe(&gray, 32, 32, 31, 31).is_none());
        assert!(describe(&gray, 32, 32, 16, 16).is_some());
    }

    #[test]
    fn pattern_is_deterministic_across_calls() {
        let p1 = pattern();
        let p2 = pattern();
        assert_eq!(p1[0], p2[0]);
        assert_eq!(p1[BITS - 1], p2[BITS - 1]);
        // The pattern has variety.
        let distinct: std::collections::HashSet<_> = p1.iter().collect();
        assert!(distinct.len() > BITS / 2);
    }

    #[test]
    fn matching_recovers_corner_correspondences_across_frames() {
        // Two overlapping frames of the same scene: matched descriptors
        // must agree on the (known) camera displacement.
        let seq = Sequence::with_resolution(47, 160, 120, 2.0);
        let f0 = seq.frame(0);
        let f1 = seq.frame(1);
        let g0 = f0.to_gray();
        let g1 = f1.to_gray();
        let c0 = fast::strongest(fast::detect(&g0, 160, 120, 25), 64);
        let c1 = fast::strongest(fast::detect(&g1, 160, 120, 25), 64);
        let d0 = describe_corners(&g0, 160, 120, &c0);
        let d1 = describe_corners(&g1, 160, 120, &c1);
        let matches = match_descriptors(&d0, &d1, 40);
        assert!(matches.len() >= 8, "only {} matches", matches.len());

        // Camera moved by (dx, dy); content moves by (-dx, -dy).
        let dx = f1.truth.x - f0.truth.x;
        let dy = f1.truth.y - f0.truth.y;
        let consistent = matches
            .iter()
            .filter(|&&(i, j)| {
                let mx = d1[j].x as f64 - d0[i].x as f64 + dx;
                let my = d1[j].y as f64 - d0[i].y as f64 + dy;
                mx.abs() <= 2.0 && my.abs() <= 2.0
            })
            .count();
        assert!(
            consistent * 2 >= matches.len(),
            "{consistent}/{} matches consistent with ground truth",
            matches.len()
        );
    }

    #[test]
    fn cross_check_rejects_asymmetric_matches() {
        // One descriptor pool empty → no matches, no panic.
        assert!(match_descriptors(&[], &[], 64).is_empty());
    }
}
