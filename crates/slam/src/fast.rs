//! FAST-9 corner detection — the feature front end standing in for ORB.
//!
//! A pixel is a corner when at least 9 *contiguous* pixels on the
//! 16-pixel Bresenham circle of radius 3 are all brighter than the center
//! by more than `threshold`, or all darker; its score is the sum of
//! |difference| over the whole circle. This is the standard FAST segment
//! test with non-maximum suppression on that score.
//!
//! [`detect`] runs the test a row at a time, 16 pixels to a 16-lane SSE2
//! register on x86-64. Saturating subtract and compare give, for each
//! circle position, the lanes whose pixel there is *not* brighter (and not
//! darker); one movemask turns a lane mask into bits. An arc of 9 always
//! covers 2 cyclically adjacent compass positions (they are 4 apart), so a
//! block with no such pair in any lane, on either polarity, is done after
//! 4 loads; that is about 2 blocks in 3 of a dataset frame. The rest load
//! all 16 positions and find a run of 9 per lane by ORing the masks with
//! their own rotations (runs of 2, 4, 8, then 9). A corner's score is
//! read back from the rows it was tested on. Scores live in a 3-row
//! window: a row's candidates are suppressed once the row below is known,
//! in row-major order. Other targets, and rows narrower than 16 pixels,
//! take the scalar row test: a compass pass over 8 pixels, then two
//! 16-bit circle masks per survivor.
//!
//! At 320×240 and threshold 25 one call costs ~0.2 ms, about 0.7× the
//! scalar row test with a zeroed `w×h` score map it replaced (one core of
//! a 2-vCPU x86-64 VM, release build).

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

/// One image row's pixels with a whole circle, as a row test sees them.
struct Row<'a> {
    gray: &'a [u8],
    w: usize,
    y: usize,
    threshold: u8,
    /// The circle's offsets into a pixel's 7×7 neighbourhood.
    circle: &'a [usize; 16],
}

impl Row<'_> {
    /// How many pixels of the row have a whole circle.
    fn len(&self) -> usize {
        self.w - 6
    }

    /// Circle position `k` of every such pixel, from the row's fourth on.
    fn ring_slice(&self, k: usize) -> &[u8] {
        let (dx, dy) = CIRCLE[k];
        let top_left = (self.y as i32 + dy) as usize * self.w;
        &self.gray[top_left + (3 + dx) as usize..][..self.len()]
    }

    /// The centers, aligned with [`Row::ring_slice`].
    fn centers(&self) -> &[u8] {
        &self.gray[self.y * self.w + 3..][..self.len()]
    }

    /// The 16 circle pixels around column `x`.
    fn ring(&self, x: usize) -> [u8; 16] {
        let around = &self.gray[(self.y - 3) * self.w + x - 3..];
        let mut ring = [0; 16];
        for (p, &at) in ring.iter_mut().zip(self.circle) {
            *p = around[at];
        }
        ring
    }
}

/// A row test: set `scores[x]` for each corner of the row and push its
/// column onto `xs`, left to right.
type RowTest = fn(&Row, &mut [u32], &mut Vec<usize>);

/// The row test on x86-64: [`test_row_sse2`].
#[cfg(target_arch = "x86_64")]
fn test_row(row: &Row, scores: &mut [u32], xs: &mut Vec<usize>) {
    // SAFETY: SSE2 is part of the x86-64 baseline target, so every CPU
    // this code runs on has the one feature `test_row_sse2` enables.
    unsafe { test_row_sse2(row, scores, xs) }
}

#[cfg(not(target_arch = "x86_64"))]
fn test_row(row: &Row, scores: &mut [u32], xs: &mut Vec<usize>) {
    test_row_scalar(row, scores, xs)
}

/// `s[x..x + 16]` as 16 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
pub(crate) fn load16(s: &[u8], x: usize) -> std::arch::x86_64::__m128i {
    let lanes = &s[x..x + 16];
    let half = |at: usize| i64::from_le_bytes(lanes[at..at + 8].try_into().expect("8 lanes"));
    std::arch::x86_64::_mm_set_epi64x(half(8), half(0))
}

/// Per lane, `a[k] | b[k + by]` for every position `k` of the circle.
/// Loops, not `array::from_fn`: a closure here carries the target feature
/// and the generic function it would be passed to does not, so neither
/// could be inlined into the other.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn or_ahead<const N: usize>(
    a: &[std::arch::x86_64::__m128i; N],
    b: &[std::arch::x86_64::__m128i; N],
    by: usize,
) -> [std::arch::x86_64::__m128i; N] {
    let mut out = *a;
    for (k, lanes) in out.iter_mut().enumerate() {
        *lanes = std::arch::x86_64::_mm_or_si128(a[k], b[(k + by) % N]);
    }
    out
}

/// Per lane, the AND of all `N` masks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn and_all<const N: usize>(masks: &[std::arch::x86_64::__m128i; N]) -> std::arch::x86_64::__m128i {
    let mut all = masks[0];
    for &mask in &masks[1..] {
        all = std::arch::x86_64::_mm_and_si128(all, mask);
    }
    all
}

/// Per lane, 0xFF where no 9 cyclically consecutive of the 16 circle
/// masks `none` (each 0xFF where a pixel is *not* brighter, or not
/// darker) are all clear: where the pixel has no arc of 9.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn no_arc_of_9(none: &[std::arch::x86_64::__m128i; 16]) -> std::arch::x86_64::__m128i {
    // `spanK[k]`: 0xFF where one of positions k .. k+K-1 is clear.
    let span2 = or_ahead(none, none, 1);
    let span4 = or_ahead(&span2, &span2, 2);
    let span8 = or_ahead(&span4, &span4, 4);
    and_all(&or_ahead(&span8, none, 8))
}

/// The row test on 16 pixels at a time, each lane a pixel. Every arc of 9
/// covers 2 cyclically adjacent compass positions (they are 4 apart), so a
/// block whose pixels all fail that on both polarities is skipped on 4
/// loads; the rest take the full test on all 16 circle positions, and a
/// corner's score is summed from the row slices it was tested on. Rows
/// narrower than a block take [`test_row_scalar`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn test_row_sse2(row: &Row, scores: &mut [u32], xs: &mut Vec<usize>) {
    use std::arch::x86_64::*;
    let n = row.len();
    if n < 16 {
        return test_row_scalar(row, scores, xs);
    }
    let mut ring = [&[][..]; 16];
    for (k, slice) in ring.iter_mut().enumerate() {
        *slice = row.ring_slice(k);
    }
    let centers = row.centers();
    let t = _mm_set1_epi8(row.threshold as i8);
    let zero = _mm_setzero_si128();
    for next in (0..n).step_by(16) {
        // The last block ends at the row's end; lanes an earlier block
        // tested are masked off.
        let x0 = next.min(n - 16);
        let fresh: u32 = 0xFFFF << (next - x0) & 0xFFFF;
        let c = load16(centers, x0);
        // `p` is brighter exactly when `p - (c + t)`, both saturated, is
        // not 0, and darker when `(c - t) - p` is not.
        let (hi, lo) = (_mm_adds_epu8(c, t), _mm_subs_epu8(c, t));
        let (mut not_brighter, mut not_darker) = ([zero; 16], [zero; 16]);
        let test = |k: usize| {
            let p = load16(ring[k], x0);
            let none = |excess| _mm_cmpeq_epi8(excess, zero);
            (none(_mm_subs_epu8(p, hi)), none(_mm_subs_epu8(lo, p)))
        };
        for k in [0, 4, 8, 12] {
            (not_brighter[k], not_darker[k]) = test(k);
        }
        // 0xFF where no 2 adjacent compass positions are both set.
        let no_pair = |none: &[__m128i; 16]| {
            let compass = [none[0], none[4], none[8], none[12]];
            and_all(&or_ahead(&compass, &compass, 1))
        };
        let survivors = |none| !_mm_movemask_epi8(none) as u32 & fresh;
        let brighter = survivors(no_pair(&not_brighter));
        let darker = survivors(no_pair(&not_darker));
        if brighter | darker == 0 {
            continue;
        }
        for k in (0..16).filter(|k| k % 4 != 0) {
            (not_brighter[k], not_darker[k]) = test(k);
        }
        // A polarity no lane survived needs no full test.
        let mut corners = 0;
        if brighter != 0 {
            corners |= survivors(no_arc_of_9(&not_brighter)) & brighter;
        }
        if darker != 0 {
            corners |= survivors(no_arc_of_9(&not_darker)) & darker;
        }
        while corners != 0 {
            let x = x0 + corners.trailing_zeros() as usize;
            corners &= corners - 1;
            let c = centers[x];
            scores[x + 3] = ring.iter().map(|r| u32::from(r[x].abs_diff(c))).sum();
            xs.push(x + 3);
        }
    }
}

/// The row test one pixel at a time, on targets without SSE2: a contiguous
/// arc of 9 covers at least 2 of the 4 compass pixels (they are 4 apart),
/// so a branch-free pass over 8 pixels first rejects every pixel fewer
/// than 2 compass pixels agree on; a survivor's circle is read into two
/// 16-bit masks, brighter and darker, its score summed in the same pass.
fn test_row_scalar(row: &Row, scores: &mut [u32], xs: &mut Vec<usize>) {
    let t = row.threshold;
    let compass = [0, 4, 8, 12].map(|k| row.ring_slice(k));
    let centers = row.centers();
    for x0 in (0..row.len()).step_by(8) {
        // One byte per pixel, 0 or 1, read back as one word.
        let mut flags = [0u8; 8];
        for (x, survives) in (x0..row.len()).zip(&mut flags) {
            let c = centers[x];
            let brighter: u8 = compass.iter().map(|ring| exceeds(ring[x], c, t)).sum();
            let darker: u8 = compass.iter().map(|ring| exceeds(c, ring[x], t)).sum();
            *survives = u8::from(brighter >= 2 || darker >= 2);
        }
        let mut word = u64::from_le_bytes(flags);
        while word != 0 {
            let x = x0 + word.trailing_zeros() as usize / 8 + 3;
            word &= word - 1;
            let center = centers[x - 3];
            let (mut brighter, mut darker, mut score) = (0u32, 0u32, 0u32);
            for (i, p) in row.ring(x).into_iter().enumerate() {
                brighter |= u32::from(exceeds(p, center, t)) << i;
                darker |= u32::from(exceeds(center, p, t)) << i;
                score += u32::from(p.abs_diff(center));
            }
            if has_arc_of_9(brighter) || has_arc_of_9(darker) {
                scores[x] = score;
                xs.push(x);
            }
        }
    }
}

/// Detect FAST-9 corners with non-maximum suppression in a 3×3
/// neighbourhood.
///
/// # Panics
///
/// Panics if `gray.len() != width * height`.
pub fn detect(gray: &[u8], width: u32, height: u32, threshold: u8) -> Vec<Corner> {
    detect_with(gray, width, height, threshold, test_row)
}

/// [`detect`] with the given row test.
fn detect_with(gray: &[u8], width: u32, height: u32, threshold: u8, test: RowTest) -> Vec<Corner> {
    let (w, h) = (width as usize, height as usize);
    assert_eq!(gray.len(), w * h, "gray buffer size mismatch");
    if w < 7 || h < 7 {
        return Vec::new();
    }
    let circle = CIRCLE.map(|(dx, dy)| (dy + 3) as usize * w + (dx + 3) as usize);
    // Rows y-1, y and y+1 of the score map, row r at `r % 3`.
    let mut window = vec![0u32; 3 * w];
    // The candidates' columns, of the row being suppressed and of the next.
    let (mut above, mut here) = (Vec::with_capacity(w - 6), Vec::with_capacity(w - 6));
    let mut corners = Vec::new();
    for y in 3..h - 3 {
        let scores = &mut window[y % 3 * w..][..w];
        scores.fill(0);
        here.clear();
        let row = Row {
            gray,
            w,
            y,
            threshold,
            circle: &circle,
        };
        test(&row, scores, &mut here);
        if y > 3 {
            suppress_row(&window, w, y - 1, &above, &mut corners);
        }
        std::mem::swap(&mut above, &mut here);
    }
    // The row below the last holds no candidates.
    window[(h - 3) % 3 * w..][..w].fill(0);
    suppress_row(&window, w, h - 4, &above, &mut corners);
    corners
}

/// Non-maximum suppression of row `y`'s candidates `xs`, whose scores and
/// their neighbours' are in `window` (row r at `r % 3`): keep each one no
/// 8-neighbour outscores, a tie going to the neighbour earlier in
/// row-major order (the row above, and the left neighbour).
fn suppress_row(window: &[u32], w: usize, y: usize, xs: &[usize], corners: &mut Vec<Corner>) {
    let row = |r: usize| &window[r % 3 * w..][..w];
    let (above, here, below) = (row(y - 1), row(y), row(y + 1));
    for &x in xs {
        let s = here[x];
        let beaten = above[x - 1..=x + 1].iter().any(|&n| n >= s)
            || here[x - 1] >= s
            || here[x + 1] > s
            || below[x - 1..=x + 1].iter().any(|&n| n > s);
        if !beaten {
            corners.push(Corner {
                x: x as u32,
                y: y as u32,
                score: s,
            });
        }
    }
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

    /// Non-maximum suppression over a whole `w×h` score map: keep each
    /// candidate no 8-neighbour outscores, a tie going to the neighbour
    /// earlier in row-major order.
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

    /// Both row tests against [`reference_detect`]: the one [`detect`]
    /// runs here, and the scalar one other targets run.
    fn assert_matches_oracle(img: &[u8], w: usize, h: usize, t: u8, what: &str) -> usize {
        let want = reference_detect(img, w, h, t);
        let (width, height) = (w as u32, h as u32);
        assert_eq!(detect(img, width, height, t), want, "{what}");
        assert_eq!(
            detect_with(img, width, height, t, test_row_scalar),
            want,
            "{what}, scalar row test"
        );
        want.len()
    }

    #[test]
    fn detect_agrees_with_the_scalar_oracle_on_seeded_images() {
        let mut rng = XorShift64::new(0xFA57);
        // Rows of 16, 17, 32 and 33 pixels with a whole circle straddle
        // the 16-lane block and its tail.
        let sizes = [
            (5, 5),
            (7, 7),
            (8, 7),
            (7, 9),
            (13, 11),
            (22, 9),
            (23, 10),
            (32, 24),
            (38, 12),
            (39, 13),
            (64, 48),
        ];
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
                    let what = format!("{name} {w}x{h} threshold {t}");
                    let found = assert_matches_oracle(img, w, h, t, &what);
                    corners += found;
                    if w < 7 || h < 7 {
                        assert_eq!(found, 0);
                    }
                }
            }
        }
        assert!(
            corners > 100,
            "the sweep must find corners to compare, found {corners}"
        );
    }

    #[test]
    fn detect_agrees_with_the_scalar_oracle_on_a_320x240_frame() {
        let gray = crate::dataset::Sequence::with_resolution(2022, 320, 240, 2.0)
            .frame(5)
            .to_gray();
        for t in [10u8, 25, 60] {
            let found = assert_matches_oracle(&gray, 320, 240, t, &format!("threshold {t}"));
            assert!(found > 100, "threshold {t}: only {found} corners");
        }
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
