//! Patch-matching visual odometry with a constant-velocity prior.
//!
//! For each strong corner of the previous frame, the tracker searches a
//! small window (seeded at the constant-velocity prediction) in the new
//! frame for the position minimizing the sum of absolute differences of a
//! 7×7 patch. The median of the per-corner displacements is the frame
//! motion; integrating it yields the camera trajectory that `orb_slam`
//! publishes as `geometry_msgs/PoseStamped`.
//!
//! The search sums its 17×17 offsets from row SADs: on x86-64 one SSE2
//! `psadbw` gives a window row's 7-pixel SAD against a patch row at two
//! offsets at once, so a corner's 289 costs take 1 071 of them. At
//! 320×240 the 48 corners of a frame cost ~0.05 ms, under half of the
//! 17-lane scalar sums kept for other targets (one core of a 2-vCPU
//! x86-64 VM, release build).

use crate::fast::{detect, strongest, Corner};

/// Half-size of the matching patch (7×7).
const PATCH_R: i32 = 3;
/// Search radius around the predicted position.
const SEARCH_R: i32 = 8;
/// Corners tracked per frame.
const TRACK_CORNERS: usize = 48;
/// Side of the patch.
const PATCH: usize = 2 * PATCH_R as usize + 1;
/// Offsets searched along each axis.
const OFFSETS: usize = 2 * SEARCH_R as usize + 1;
/// Side of the search window: every pixel a searched patch covers.
const WINDOW: usize = OFFSETS + PATCH - 1;

/// Accumulated camera pose estimate (plane translation; the dataset camera
/// does not rotate).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoseEstimate {
    /// Estimated x in world-texture pixels.
    pub x: f64,
    /// Estimated y in world-texture pixels.
    pub y: f64,
}

/// Result of tracking one frame.
#[derive(Debug, Clone)]
pub struct TrackResult {
    /// Updated pose estimate.
    pub pose: PoseEstimate,
    /// Displacement measured against the previous frame.
    pub delta: (f64, f64),
    /// Corners detected in this frame (inputs for mapping/debug).
    pub corners: Vec<Corner>,
    /// How many corner matches contributed to the motion estimate.
    pub inliers: usize,
}

/// Frame-to-frame tracker state.
#[derive(Debug)]
pub struct Tracker {
    width: u32,
    height: u32,
    threshold: u8,
    prev_gray: Option<Vec<u8>>,
    prev_corners: Vec<Corner>,
    velocity: (f64, f64),
    pose: PoseEstimate,
}

/// The square of side `N` of `img` whose top-left pixel is `(x, y)`.
fn square<const N: usize>(img: &[u8], width: usize, x: usize, y: usize) -> [[u8; N]; N] {
    std::array::from_fn(|dy| {
        let at = (y + dy) * width + x;
        img[at..at + N].try_into().expect("a row of N pixels")
    })
}

/// Search `gray` for the 7×7 patch of `prev` centred at `c`, over every
/// offset within `SEARCH_R` of `s`: the least sum of absolute differences
/// and the offset `(ox, oy)` it is at, the first in `oy`-then-`ox` order
/// on a tie. Patch and window are copied to the stack once.
fn best_match(prev: &[u8], gray: &[u8], width: usize, c: [i32; 2], s: [i32; 2]) -> (u32, [i32; 2]) {
    let [cx, cy] = c.map(|v| (v - PATCH_R) as usize);
    let [sx, sy] = s.map(|v| (v - PATCH_R - SEARCH_R) as usize);
    let patch: [[u8; PATCH]; PATCH] = square(prev, width, cx, cy);
    let mut window = [[0u8; WINDOW_ROW]; WINDOW];
    for (row, pixels) in window.iter_mut().zip(square::<WINDOW>(gray, width, sx, sy)) {
        row[..WINDOW].copy_from_slice(&pixels);
    }
    let mut best = (u32::MAX, [0, 0]);
    for (oy, row) in offset_costs(&patch, &window).iter().enumerate() {
        for (ox, &cost) in row.iter().enumerate() {
            if u32::from(cost) < best.0 {
                best = (cost.into(), [ox as i32 - SEARCH_R, oy as i32 - SEARCH_R]);
            }
        }
    }
    best
}

/// A window row padded to a whole number of 8-byte halves.
const WINDOW_ROW: usize = WINDOW.next_multiple_of(8);

/// The patch's cost at every offset, `[oy][ox]`. At most 49 × 255 =
/// 12 495: a cost is a u16.
type Costs = [[u16; OFFSETS]; OFFSETS];

/// [`offset_costs_sse2`] on x86-64.
#[cfg(target_arch = "x86_64")]
fn offset_costs(patch: &[[u8; PATCH]; PATCH], window: &[[u8; WINDOW_ROW]; WINDOW]) -> Costs {
    // SAFETY: SSE2 is part of the x86-64 baseline target, so every CPU
    // this code runs on has the one feature `offset_costs_sse2` enables.
    unsafe { offset_costs_sse2(patch, window) }
}

#[cfg(not(target_arch = "x86_64"))]
fn offset_costs(patch: &[[u8; PATCH]; PATCH], window: &[[u8; WINDOW_ROW]; WINDOW]) -> Costs {
    offset_costs_scalar(patch, window)
}

/// The costs from row SADs: `psadbw` sums 8 absolute differences in each
/// half of a 16-lane register, so a window row's bytes `j .. j+16`, with
/// the 8th byte of each half cleared, against a patch row held twice
/// (7 bytes and a 0) give that row's SADs at `ox = j` and `ox = j + 8`.
/// Nine such loads per window row cover all 17 offsets; each is made once
/// and serves every patch row it lines up with.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn offset_costs_sse2(patch: &[[u8; PATCH]; PATCH], window: &[[u8; WINDOW_ROW]; WINDOW]) -> Costs {
    use std::arch::x86_64::*;
    const LOADS: usize = OFFSETS - 8;
    let seven = |row: &[u8]| {
        let mut half = [0u8; 8];
        half[..PATCH].copy_from_slice(&row[..PATCH]);
        i64::from_le_bytes(half)
    };
    let keep_seven = _mm_set1_epi64x(seven(&[0xFF; PATCH]));
    let mut shifted = [[_mm_setzero_si128(); LOADS]; WINDOW];
    for (loads, row) in shifted.iter_mut().zip(window) {
        for (j, lanes) in loads.iter_mut().enumerate() {
            *lanes = _mm_and_si128(crate::fast::load16(row, j), keep_seven);
        }
    }
    let mut twice = [_mm_setzero_si128(); PATCH];
    for (lanes, row) in twice.iter_mut().zip(patch) {
        *lanes = _mm_set1_epi64x(seven(row));
    }
    let mut costs = [[0u16; OFFSETS]; OFFSETS];
    for (oy, costs_row) in costs.iter_mut().enumerate() {
        let mut sums = [_mm_setzero_si128(); LOADS];
        for (patch_row, loads) in twice.iter().zip(&shifted[oy..]) {
            for (sum, &lanes) in sums.iter_mut().zip(loads) {
                *sum = _mm_add_epi64(*sum, _mm_sad_epu8(lanes, *patch_row));
            }
        }
        for (j, &sum) in sums.iter().enumerate() {
            costs_row[j] = _mm_cvtsi128_si64(sum) as u16;
            costs_row[j + 8] = _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum)) as u16;
        }
    }
    costs
}

/// The costs a row of offsets at a time, 17 lanes summed per patch pixel:
/// the path on other targets, and the one the SSE2 path is checked
/// against.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn offset_costs_scalar(patch: &[[u8; PATCH]; PATCH], window: &[[u8; WINDOW_ROW]; WINDOW]) -> Costs {
    let mut costs = [[0u16; OFFSETS]; OFFSETS];
    for (oy, row_costs) in costs.iter_mut().enumerate() {
        for (patch_row, window_row) in patch.iter().zip(&window[oy..]) {
            for (dx, &p) in patch_row.iter().enumerate() {
                for (cost, &q) in row_costs.iter_mut().zip(&window_row[dx..]) {
                    *cost += u16::from(p.abs_diff(q));
                }
            }
        }
    }
    costs
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    xs[xs.len() / 2]
}

impl Tracker {
    /// Tracker for frames of the given size.
    pub fn new(width: u32, height: u32) -> Tracker {
        Tracker {
            width,
            height,
            threshold: 25,
            prev_gray: None,
            prev_corners: Vec::new(),
            velocity: (0.0, 0.0),
            pose: PoseEstimate::default(),
        }
    }

    /// Current pose estimate.
    pub fn pose(&self) -> PoseEstimate {
        self.pose
    }

    /// Process one grayscale frame.
    ///
    /// # Panics
    ///
    /// Panics if `gray.len() != width * height` of the tracker.
    pub fn track(&mut self, gray: &[u8]) -> TrackResult {
        let (w, h) = (self.width, self.height);
        assert_eq!(gray.len(), (w * h) as usize);
        let corners = strongest(detect(gray, w, h, self.threshold), TRACK_CORNERS);

        let mut delta = (0.0, 0.0);
        let mut inliers = 0;
        if let Some(prev) = &self.prev_gray {
            let wi = w as i32;
            let hi = h as i32;
            let (px, py) = (
                self.velocity.0.round() as i32,
                self.velocity.1.round() as i32,
            );
            let mut dxs = Vec::with_capacity(self.prev_corners.len());
            let mut dys = Vec::with_capacity(self.prev_corners.len());
            for c in &self.prev_corners {
                let (cx, cy) = (c.x as i32, c.y as i32);
                // Predicted position in the new frame: the camera moved by
                // `velocity`, so scene content moves by -velocity.
                let sx = cx - px;
                let sy = cy - py;
                let margin = PATCH_R + SEARCH_R + 1;
                if sx < margin || sy < margin || sx >= wi - margin || sy >= hi - margin {
                    continue;
                }
                if cx < PATCH_R + 1
                    || cy < PATCH_R + 1
                    || cx >= wi - PATCH_R - 1
                    || cy >= hi - PATCH_R - 1
                {
                    continue;
                }
                let (best, [ox, oy]) = best_match(prev, gray, w as usize, [cx, cy], [sx, sy]);
                // A good match is nearly identical texture.
                if best < 49 * 12 {
                    // Content displacement → camera displacement is its
                    // negation.
                    dxs.push(-(sx + ox - cx) as f64);
                    dys.push(-(sy + oy - cy) as f64);
                }
            }
            inliers = dxs.len();
            if inliers >= 3 {
                delta = (median(dxs), median(dys));
                self.velocity = delta;
            } else {
                // Lost: coast on the constant-velocity prior.
                delta = self.velocity;
            }
            self.pose.x += delta.0;
            self.pose.y += delta.1;
        }

        let prev = self.prev_gray.get_or_insert_with(Vec::new);
        prev.clear();
        prev.extend_from_slice(gray);
        self.prev_corners.clone_from(&corners);
        TrackResult {
            pose: self.pose,
            delta,
            corners,
            inliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Sequence, XorShift64};

    /// The patch cost [`best_match`] is checked against: SAD of the 7×7
    /// patches of `a` at `(ax, ay)` and `b` at `(bx, by)`, indexed in the
    /// full images.
    fn sad(a: &[u8], b: &[u8], width: i32, ax: i32, ay: i32, bx: i32, by: i32) -> u32 {
        let mut total = 0u32;
        for dy in -PATCH_R..=PATCH_R {
            for dx in -PATCH_R..=PATCH_R {
                let pa = a[((ay + dy) * width + ax + dx) as usize] as i32;
                let pb = b[((by + dy) * width + bx + dx) as usize] as i32;
                total += pa.abs_diff(pb);
            }
        }
        total
    }

    /// [`best_match`] by brute force: [`sad`] at every offset, `oy` then
    /// `ox`, keeping the first strict minimum.
    fn reference_match(
        prev: &[u8],
        gray: &[u8],
        w: i32,
        c: [i32; 2],
        s: [i32; 2],
    ) -> (u32, [i32; 2]) {
        let mut best = (u32::MAX, [0, 0]);
        for oy in -SEARCH_R..=SEARCH_R {
            for ox in -SEARCH_R..=SEARCH_R {
                let cost = sad(prev, gray, w, c[0], c[1], s[0] + ox, s[1] + oy);
                if cost < best.0 {
                    best = (cost, [ox, oy]);
                }
            }
        }
        best
    }

    #[test]
    fn window_search_agrees_with_brute_force_sad() {
        let (w, h) = (48usize, 40usize);
        let mut rng = XorShift64::new(0x5AD);
        let noise = |rng: &mut XorShift64| (0..w * h).map(|_| rng.next_u8()).collect::<Vec<u8>>();
        // Extremes (every cost a multiple of 255, many equal), a flat image
        // (every offset ties) and a period-4 texture (ties four apart) put
        // the first-minimum rule to work.
        let extremes: Vec<u8> = noise(&mut rng)
            .iter()
            .map(|&v| if v < 128 { 0 } else { 255 })
            .collect();
        let flat = vec![77u8; w * h];
        let periodic: Vec<u8> = (0..w * h)
            .map(|i| ((i % w) % 4 * 60 + (i / w) % 4 * 3) as u8)
            .collect();
        let pairs = [
            (noise(&mut rng), noise(&mut rng)),
            (extremes.clone(), extremes),
            (flat.clone(), flat),
            (periodic.clone(), periodic),
        ];
        let margin = PATCH_R + SEARCH_R + 1;
        for (prev, gray) in &pairs {
            for _ in 0..64 {
                let mut at =
                    |lo: i32, hi: usize| lo + (rng.next_u64() % (hi as u64 - 2 * lo as u64)) as i32;
                let c = [at(PATCH_R + 1, w), at(PATCH_R + 1, h)];
                let s = [at(margin, w), at(margin, h)];
                assert_eq!(
                    best_match(prev, gray, w, c, s),
                    reference_match(prev, gray, w as i32, c, s),
                    "patch at {c:?}, window around {s:?}"
                );
            }
        }
        let flat = &pairs[2].0;
        assert_eq!(
            best_match(flat, flat, w, [20, 20], [20, 20]),
            (0, [-SEARCH_R, -SEARCH_R])
        );
    }

    #[test]
    fn both_cost_paths_agree_on_seeded_windows() {
        let mut rng = XorShift64::new(0xC057);
        for round in 0..256 {
            // Every fourth round draws only 0 and 255, the largest costs.
            let mut pixel = || match (round % 4, rng.next_u8()) {
                (0, v) if v < 128 => 0,
                (0, _) => 255,
                (_, v) => v,
            };
            let patch: [[u8; PATCH]; PATCH] =
                std::array::from_fn(|_| std::array::from_fn(|_| pixel()));
            let mut window = [[0u8; WINDOW_ROW]; WINDOW];
            for row in &mut window {
                for p in &mut row[..WINDOW] {
                    *p = pixel();
                }
            }
            assert_eq!(
                offset_costs(&patch, &window),
                offset_costs_scalar(&patch, &window),
                "round {round}"
            );
        }
    }

    #[test]
    fn first_frame_initializes_without_motion() {
        let seq = Sequence::with_resolution(11, 160, 120, 2.0);
        let mut tracker = Tracker::new(160, 120);
        let r = tracker.track(&seq.frame(0).to_gray());
        assert_eq!(r.delta, (0.0, 0.0));
        assert!(!r.corners.is_empty());
    }

    #[test]
    fn recovers_the_dataset_trajectory() {
        let seq = Sequence::with_resolution(13, 192, 144, 2.0);
        let mut tracker = Tracker::new(192, 144);
        let start = seq.truth(0);
        tracker.track(&seq.frame(0).to_gray());
        for i in 1..12 {
            let r = tracker.track(&seq.frame(i).to_gray());
            assert!(r.inliers >= 3, "frame {i}: only {} inliers", r.inliers);
        }
        let truth = seq.truth(11);
        let est = tracker.pose();
        let err_x = (est.x - (truth.x - start.x)).abs();
        let err_y = (est.y - (truth.y - start.y)).abs();
        assert!(
            err_x <= 6.0 && err_y <= 6.0,
            "trajectory error too large: ({err_x:.1}, {err_y:.1})"
        );
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0]), 3.0);
        assert_eq!(median(vec![1.0, 9.0, 2.0]), 2.0);
    }

    #[test]
    fn static_camera_measures_zero_motion() {
        let seq = Sequence::with_resolution(17, 128, 96, 2.0);
        let gray = seq.frame(4).to_gray();
        let mut tracker = Tracker::new(128, 96);
        tracker.track(&gray);
        let r = tracker.track(&gray);
        assert_eq!(r.delta, (0.0, 0.0));
        assert_eq!(tracker.pose(), PoseEstimate { x: 0.0, y: 0.0 });
    }
}
