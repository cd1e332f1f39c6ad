//! FAST-9 corner detection — the feature front end standing in for ORB.
//!
//! A pixel is a corner when at least 9 *contiguous* pixels on the
//! 16-pixel Bresenham circle of radius 3 are all brighter than the center
//! by more than `threshold`, or all darker; its score is the sum of
//! |difference| over the whole circle. This is the standard FAST segment
//! test with non-maximum suppression on that score.
//!
//! [`detect`] runs the test a row at a time. A contiguous arc of 9 covers
//! at least 2 of the 4 compass pixels (they are 4 apart), so one
//! branch-free pass over the row's slices first rejects every pixel that
//! fewer than 2 compass pixels agree on. A survivor's circle is read
//! through offsets precomputed for the image width into two 16-bit masks,
//! brighter and darker, its score summed in the same pass; a mask written
//! twice round (the circle wraps) and ANDed with its own shifts holds a
//! run of 9 exactly when a bit survives.

/// Offsets of the 16-pixel circle, clockwise from 12 o'clock.
pub const CIRCLE: [(i32, i32); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// A detected corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corner {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
    /// Corner strength (sum of |difference| over the circle).
    pub score: u32,
}

/// 1 when `a` exceeds `b` by more than `t`, else 0: `p` brighter than the
/// center `c` is `exceeds(p, c, t)`, darker is `exceeds(c, p, t)`.
#[inline]
fn exceeds(a: u8, b: u8, t: u8) -> u8 {
    u8::from(a.saturating_sub(b) > t)
}

/// Whether the 16-bit circle mask `m` holds 9 contiguous set bits, the
/// circle wrapping from bit 15 to bit 0.
#[inline]
fn has_arc_of_9(m: u32) -> bool {
    let twice = m | m << 16;
    let run2 = twice & twice >> 1;
    let run4 = run2 & run2 >> 2;
    let run8 = run4 & run4 >> 4;
    (run8 & twice >> 8) != 0
}

/// The segment test on a compass survivor whose 7×7 neighbourhood starts
/// at `around[0]`; `circle` holds the ring's offsets into it. Returns the
/// score of a corner.
#[inline]
fn segment_test(around: &[u8], circle: &[usize; 16], center: u8, t: u8) -> Option<u32> {
    let mut ring = [0u8; 16];
    for (p, &at) in ring.iter_mut().zip(circle) {
        *p = around[at];
    }
    let (mut brighter, mut darker, mut score) = (0u32, 0u32, 0u32);
    for (i, &p) in ring.iter().enumerate() {
        brighter |= u32::from(exceeds(p, center, t)) << i;
        darker |= u32::from(exceeds(center, p, t)) << i;
        score += u32::from(p.abs_diff(center));
    }
    (has_arc_of_9(brighter) || has_arc_of_9(darker)).then_some(score)
}

/// Detect FAST-9 corners with non-maximum suppression in a 3×3
/// neighbourhood.
///
/// # Panics
///
/// Panics if `gray.len() != width * height`.
pub fn detect(gray: &[u8], width: u32, height: u32, threshold: u8) -> Vec<Corner> {
    let (w, h) = (width as usize, height as usize);
    assert_eq!(gray.len(), w * h, "gray buffer size mismatch");
    if w < 7 || h < 7 {
        return Vec::new();
    }
    let circle = CIRCLE.map(|(dx, dy)| (dy + 3) as usize * w + (dx + 3) as usize);
    let mut scores = vec![0u32; w * h];
    let mut candidates = Vec::new();
    // One byte per pixel of the row, 0 or 1, read back 8 at a time.
    let mut survivors = vec![0u8; (w - 6).next_multiple_of(8)];
    for y in 3..h - 3 {
        let row = &gray[y * w..][..w];
        let north = &gray[(y - 3) * w + 3..][..w - 6];
        let south = &gray[(y + 3) * w + 3..][..w - 6];
        let compass = north.iter().zip(&row[6..]).zip(south).zip(&row[..w - 6]);
        for ((survives, &c), (((&n, &e), &s), &west)) in
            survivors.iter_mut().zip(&row[3..]).zip(compass)
        {
            let ring = [n, e, s, west];
            let brighter: u8 = ring.iter().map(|&p| exceeds(p, c, threshold)).sum();
            let darker: u8 = ring.iter().map(|&p| exceeds(c, p, threshold)).sum();
            *survives = u8::from(brighter >= 2 || darker >= 2);
        }
        for (k, eight) in survivors.chunks_exact(8).enumerate() {
            let mut word = u64::from_le_bytes(eight.try_into().expect("8 flags"));
            while word != 0 {
                let x = k * 8 + word.trailing_zeros() as usize / 8 + 3;
                word &= word - 1;
                let around = &gray[(y - 3) * w + x - 3..];
                if let Some(score) = segment_test(around, &circle, row[x], threshold) {
                    scores[y * w + x] = score;
                    candidates.push((x, y));
                }
            }
        }
    }
    suppress(&scores, w, candidates)
}

/// Non-maximum suppression: keep each candidate no 8-neighbour outscores,
/// a tie going to the neighbour earlier in row-major order.
fn suppress(scores: &[u32], w: usize, candidates: Vec<(usize, usize)>) -> Vec<Corner> {
    let mut corners = Vec::new();
    for (x, y) in candidates {
        let s = scores[y * w + x];
        let mut is_max = true;
        'nms: for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = (x as i32 + dx) as usize;
                let ny = (y as i32 + dy) as usize;
                let ns = scores[ny * w + nx];
                if ns > s || (ns == s && (ny, nx) < (y, x)) {
                    is_max = false;
                    break 'nms;
                }
            }
        }
        if is_max {
            corners.push(Corner {
                x: x as u32,
                y: y as u32,
                score: s,
            });
        }
    }
    corners
}

/// Keep the `n` strongest corners (stable order by descending score, then
/// position).
pub fn strongest(mut corners: Vec<Corner>, n: usize) -> Vec<Corner> {
    corners.sort_by(|a, b| b.score.cmp(&a.score).then((a.y, a.x).cmp(&(b.y, b.x))));
    corners.truncate(n);
    corners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::XorShift64;

    /// The scalar segment test [`detect`] is checked against, one pixel at
    /// a time: the compass early-reject, then the longest run of brighter
    /// (or darker) pixels over the wrapped circle.
    fn classify(gray: &[u8], width: usize, x: usize, y: usize, threshold: i16) -> Option<u32> {
        let center = gray[y * width + x] as i16;
        let hi = center + threshold;
        let lo = center - threshold;
        let px = |i: usize| {
            let (dx, dy) = CIRCLE[i];
            gray[(y as i32 + dy) as usize * width + (x as i32 + dx) as usize] as i16
        };

        // Early reject: a contiguous arc of 9 covers at least 2 of the 4
        // compass pixels (they are 4 apart), so fewer than 2 agreeing compass
        // pixels rules a FAST-9 corner out.
        let compass = [px(0), px(4), px(8), px(12)];
        let brighter = compass.iter().filter(|&&p| p > hi).count();
        let darker = compass.iter().filter(|&&p| p < lo).count();
        if brighter < 2 && darker < 2 {
            return None;
        }

        // Full segment test: longest run of brighter (or darker) over the
        // wrapped circle.
        let mut vals = [0i16; 16];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = px(i);
        }
        for (pass, pred) in [
            (
                true,
                Box::new(move |p: i16| p > hi) as Box<dyn Fn(i16) -> bool>,
            ),
            (false, Box::new(move |p: i16| p < lo)),
        ] {
            let _ = pass;
            let mut best_run = 0usize;
            let mut run = 0usize;
            // Scan twice around the circle to handle wrap-around runs.
            for i in 0..32 {
                if pred(vals[i % 16]) {
                    run += 1;
                    best_run = best_run.max(run);
                    if best_run >= 16 {
                        break;
                    }
                } else {
                    run = 0;
                }
            }
            if best_run >= 9 {
                let score: u32 = vals
                    .iter()
                    .map(|&p| (p - center).unsigned_abs() as u32)
                    .sum();
                return Some(score);
            }
        }
        None
    }

    /// [`detect`] built on [`classify`], one pixel at a time.
    fn reference_detect(gray: &[u8], w: usize, h: usize, threshold: u8) -> Vec<Corner> {
        if w < 7 || h < 7 {
            return Vec::new();
        }
        let mut scores = vec![0u32; w * h];
        let mut candidates = Vec::new();
        for y in 3..h - 3 {
            for x in 3..w - 3 {
                if let Some(score) = classify(gray, w, x, y, threshold as i16) {
                    scores[y * w + x] = score;
                    candidates.push((x, y));
                }
            }
        }
        suppress(&scores, w, candidates)
    }

    #[test]
    fn arc_masks_agree_with_a_run_count_on_every_mask() {
        for m in 0..=u16::MAX as u32 {
            let (mut best, mut run) = (0, 0);
            for i in 0..32 {
                run = if m >> (i % 16) & 1 == 1 { run + 1 } else { 0 };
                best = best.max(run);
            }
            assert_eq!(has_arc_of_9(m), best >= 9, "mask {m:#06x}");
        }
    }

    #[test]
    fn detect_agrees_with_the_scalar_oracle_on_seeded_images() {
        let mut rng = XorShift64::new(0xFA57);
        let sizes = [(5, 5), (7, 7), (8, 7), (7, 9), (13, 11), (32, 24), (64, 48)];
        let mut corners = 0;
        for (w, h) in sizes {
            let noise: Vec<u8> = (0..w * h).map(|_| rng.next_u8()).collect();
            let flat = vec![rng.next_u8(); w * h];
            let checker: Vec<u8> = (0..w * h)
                .map(|i| if (i % w + i / w) % 2 == 0 { 0 } else { 255 })
                .collect();
            let frame =
                crate::dataset::Sequence::with_resolution(w as u64, w as u32, h as u32, 2.0)
                    .frame(0)
                    .to_gray();
            let images = [
                ("noise", &noise),
                ("flat", &flat),
                ("checker", &checker),
                ("frame", &frame),
            ];
            for (name, img) in images {
                for t in [0u8, 1, 25, 128, 255] {
                    let got = detect(img, w as u32, h as u32, t);
                    corners += got.len();
                    assert_eq!(
                        got,
                        reference_detect(img, w, h, t),
                        "{name} {w}x{h} threshold {t}"
                    );
                    if w < 7 || h < 7 {
                        assert!(got.is_empty());
                    }
                }
            }
        }
        assert!(
            corners > 100,
            "the sweep must find corners to compare, found {corners}"
        );
    }

    fn flat(w: usize, h: usize, v: u8) -> Vec<u8> {
        vec![v; w * h]
    }

    /// Paint a bright square; its corners are FAST corners.
    fn with_square(w: usize, h: usize) -> Vec<u8> {
        let mut img = flat(w, h, 30);
        for y in 10..20 {
            for x in 10..20 {
                img[y * w + x] = 220;
            }
        }
        img
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = flat(32, 32, 128);
        assert!(detect(&img, 32, 32, 20).is_empty());
    }

    #[test]
    fn bright_square_produces_corners_near_its_vertices() {
        let img = with_square(40, 40);
        let corners = detect(&img, 40, 40, 20);
        assert!(!corners.is_empty());
        // Every detection is near the square's boundary.
        for c in &corners {
            let near_x = (9..=20).contains(&c.x);
            let near_y = (9..=20).contains(&c.y);
            assert!(near_x && near_y, "stray corner at {c:?}");
        }
    }

    #[test]
    fn dark_blob_detected_too() {
        let mut img = flat(40, 40, 200);
        for y in 15..22 {
            for x in 15..22 {
                img[y * 40 + x] = 10;
            }
        }
        assert!(!detect(&img, 40, 40, 20).is_empty());
    }

    #[test]
    fn threshold_monotonicity() {
        let img = with_square(48, 48);
        let low = detect(&img, 48, 48, 10).len();
        let high = detect(&img, 48, 48, 120).len();
        assert!(low >= high, "higher threshold must not add corners");
    }

    #[test]
    fn nms_keeps_single_peak_per_neighbourhood() {
        let img = with_square(40, 40);
        let corners = detect(&img, 40, 40, 20);
        for (i, a) in corners.iter().enumerate() {
            for b in corners.iter().skip(i + 1) {
                let close =
                    (a.x as i32 - b.x as i32).abs() <= 1 && (a.y as i32 - b.y as i32).abs() <= 1;
                assert!(!close, "adjacent corners {a:?} {b:?} not suppressed");
            }
        }
    }

    #[test]
    fn strongest_truncates_by_score() {
        let corners = vec![
            Corner {
                x: 1,
                y: 1,
                score: 5,
            },
            Corner {
                x: 2,
                y: 2,
                score: 50,
            },
            Corner {
                x: 3,
                y: 3,
                score: 20,
            },
        ];
        let top2 = strongest(corners, 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].score, 50);
        assert_eq!(top2[1].score, 20);
    }

    #[test]
    fn tiny_images_are_safe() {
        assert!(detect(&flat(5, 5, 0), 5, 5, 10).is_empty());
    }

    #[test]
    fn real_dataset_frame_yields_many_corners() {
        let seq = crate::dataset::Sequence::with_resolution(3, 128, 96, 2.0);
        let f = seq.frame(0);
        let corners = detect(&f.to_gray(), f.width, f.height, 25);
        assert!(
            corners.len() >= 10,
            "dataset must be feature-rich, got {}",
            corners.len()
        );
    }
}
