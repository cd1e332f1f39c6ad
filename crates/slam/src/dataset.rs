//! Procedural TUM-style dataset: a camera translating over a textured
//! plane.
//!
//! Frames are sampled as windows into a large, feature-rich world texture,
//! following a smooth trajectory. Consecutive frames therefore overlap
//! heavily (trackable), corners persist across frames, and the
//! ground-truth camera motion is known exactly — everything a visual
//! odometry front end needs, at TUM's 640×480 resolution.
//!
//! A frame and an image message go gray the same way: each pixel is the
//! mean of its three channels, rounded down. On x86-64 that runs 16 pixels
//! per SSE2 step — three 16-byte loads, a four-step byte de-interleave
//! into one register per channel, a 16-bit channel sum, and a division by
//! 3 as a multiply-high — and a caller that converts every frame reuses
//! one buffer without refilling it. A 320×240 frame costs ~30 µs that way,
//! against ~100 µs a pixel at a time (one core of a 2-vCPU x86-64 VM,
//! release build, 48 frames streamed from memory), and 36–43 µs against
//! 111–123 µs on the `orb_slam` node's worker, where the frame arrives
//! from another thread (DESIGN §9).

/// Default frame width (TUM RGB-D resolution).
pub const FRAME_WIDTH: u32 = 640;
/// Default frame height (TUM RGB-D resolution).
pub const FRAME_HEIGHT: u32 = 480;

/// Deterministic xorshift64* generator (no external RNG needed for the
/// world texture, and results are identical across runs).
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded generator; `seed` must be nonzero (0 is mapped to a fixed
    /// constant).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Next byte.
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }
}

/// The scene: a textured plane the camera looks down on.
#[derive(Debug, Clone)]
pub struct World {
    size: u32,
    texture: Vec<u8>,
}

impl World {
    /// Build a `size`×`size` world texture: low-frequency gradients +
    /// blocky structure + speckle, tuned to give FAST plenty of corners.
    pub fn new(size: u32, seed: u64) -> World {
        let mut rng = XorShift64::new(seed);
        let n = size as usize;
        let mut texture = vec![0u8; n * n];
        // Blocky structure: 16x16 tiles of random brightness.
        let tiles = (n / 16).max(1);
        let mut tile_lum = vec![0u8; tiles * tiles];
        for v in tile_lum.iter_mut() {
            *v = 64 + (rng.next_u8() >> 1); // 64..191
        }
        for y in 0..n {
            for x in 0..n {
                let t = (y / 16).min(tiles - 1) * tiles + (x / 16).min(tiles - 1);
                texture[y * n + x] = tile_lum[t];
            }
        }
        // Speckle: bright/dark dots that make strong FAST corners.
        let dots = n * n / 256;
        for _ in 0..dots {
            let x = (rng.next_u64() as usize) % (n - 4);
            let y = (rng.next_u64() as usize) % (n - 4);
            let bright = rng.next_u8() > 127;
            for dy in 0..3 {
                for dx in 0..3 {
                    texture[(y + dy) * n + x + dx] = if bright { 250 } else { 5 };
                }
            }
        }
        World { size, texture }
    }

    /// World texture side length.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Grayscale value at `(x, y)`, clamped to the texture.
    #[inline]
    pub fn at(&self, x: i64, y: i64) -> u8 {
        let n = self.size as i64;
        let x = x.clamp(0, n - 1) as usize;
        let y = y.clamp(0, n - 1) as usize;
        self.texture[y * self.size as usize + x]
    }
}

/// Ground-truth camera state for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruth {
    /// World-texture x of the frame's top-left corner.
    pub x: f64,
    /// World-texture y of the frame's top-left corner.
    pub y: f64,
}

/// A generated RGB frame plus its ground truth.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame index in the sequence.
    pub index: usize,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// RGB8 pixels (`width * height * 3` bytes).
    pub rgb: Vec<u8>,
    /// True camera position.
    pub truth: GroundTruth,
}

impl Frame {
    /// Grayscale copy (mean of channels), used by the tracker front end.
    pub fn to_gray(&self) -> Vec<u8> {
        rgb_to_gray(&self.rgb)
    }
}

/// Grayscale of RGB8 pixels: the mean of each pixel's three channels,
/// rounded down — the one conversion a frame and an image message share.
pub(crate) fn rgb_to_gray(rgb: &[u8]) -> Vec<u8> {
    let mut gray = Vec::new();
    rgb_to_gray_into(rgb, &mut gray);
    gray
}

/// [`rgb_to_gray`] into `gray`, replacing its contents: a caller that
/// converts every frame keeps one buffer, resized only when the frame
/// size changes, so a frame of the last one's size costs no fill.
pub(crate) fn rgb_to_gray_into(rgb: &[u8], gray: &mut Vec<u8>) {
    gray.resize(rgb.len() / 3, 0);
    gray_of(rgb, gray);
}

/// [`gray_of_sse2`] on x86-64.
#[cfg(target_arch = "x86_64")]
fn gray_of(rgb: &[u8], gray: &mut [u8]) {
    // SAFETY: SSE2 is part of the x86-64 baseline target, so every CPU
    // this code runs on has the one feature `gray_of_sse2` enables.
    unsafe { gray_of_sse2(rgb, gray) }
}

#[cfg(not(target_arch = "x86_64"))]
fn gray_of(rgb: &[u8], gray: &mut [u8]) {
    gray_of_scalar(rgb, gray)
}

/// `gray[i]` is the mean of pixel `i`'s three channels, rounded down, a
/// pixel at a time: the path on other targets, the tail of the SSE2 path,
/// and the oracle it is tested against.
fn gray_of_scalar(rgb: &[u8], gray: &mut [u8]) {
    for (g, p) in gray.iter_mut().zip(rgb.chunks_exact(3)) {
        *g = ((p[0] as u16 + p[1] as u16 + p[2] as u16) / 3) as u8;
    }
}

/// One step of the 3-channel de-interleave (OpenCV's SSE2
/// `_mm_deinterleave_epi8`, on three registers): the 48 bytes are six
/// 8-byte halves, and half `j` is interleaved byte by byte with half
/// `j + 3`. Four steps take `r g b r g b ...` to 16 reds, 16 greens and
/// 16 blues, each in pixel order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn deinterleave_step(
    [a, b, c]: [std::arch::x86_64::__m128i; 3],
) -> [std::arch::x86_64::__m128i; 3] {
    use std::arch::x86_64::*;
    [
        _mm_unpacklo_epi8(a, _mm_unpackhi_epi64(b, b)),
        _mm_unpacklo_epi8(_mm_unpackhi_epi64(a, a), c),
        _mm_unpacklo_epi8(b, _mm_unpackhi_epi64(c, c)),
    ]
}

/// [`gray_of_scalar`] 16 pixels per step: three loads, the channels
/// de-interleaved ([`deinterleave_step`]), summed in 16-bit lanes, and
/// divided by 3 as the high half of a product with 21 846 = ⌈2^16 / 3⌉,
/// which is exactly ⌊s/3⌋ for every sum s ≤ 3 × 255 (the error, s/98 304,
/// stays under the 1/3 gap to the next integer). Tail pixels take the
/// scalar path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn gray_of_sse2(rgb: &[u8], gray: &mut [u8]) {
    use crate::fast::load16;
    use std::arch::x86_64::*;
    let third = _mm_set1_epi16(21_846);
    let zero = _mm_setzero_si128();
    let blocks = gray.len() / 16;
    let (head, tail) = gray.split_at_mut(blocks * 16);
    for (out, pixels) in head.chunks_exact_mut(16).zip(rgb.chunks_exact(48)) {
        let mut channels = [load16(pixels, 0), load16(pixels, 16), load16(pixels, 32)];
        for _ in 0..4 {
            channels = deinterleave_step(channels);
        }
        let [r, g, b] = channels;
        let sum_lo = _mm_add_epi16(
            _mm_add_epi16(_mm_unpacklo_epi8(r, zero), _mm_unpacklo_epi8(g, zero)),
            _mm_unpacklo_epi8(b, zero),
        );
        let sum_hi = _mm_add_epi16(
            _mm_add_epi16(_mm_unpackhi_epi8(r, zero), _mm_unpackhi_epi8(g, zero)),
            _mm_unpackhi_epi8(b, zero),
        );
        let mean = _mm_packus_epi16(
            _mm_mulhi_epu16(sum_lo, third),
            _mm_mulhi_epu16(sum_hi, third),
        );
        out[..8].copy_from_slice(&_mm_cvtsi128_si64(mean).to_le_bytes());
        out[8..].copy_from_slice(&_mm_cvtsi128_si64(_mm_unpackhi_epi64(mean, mean)).to_le_bytes());
    }
    gray_of_scalar(&rgb[blocks * 48..], tail);
}

/// The sequence generator: camera gliding along a smooth curve.
#[derive(Debug, Clone)]
pub struct Sequence {
    world: World,
    width: u32,
    height: u32,
    /// Per-frame translation in texture pixels.
    speed: f64,
}

impl Sequence {
    /// A TUM-like 640×480 sequence over a fresh world.
    pub fn tum_like(seed: u64) -> Sequence {
        Sequence {
            world: World::new(1536, seed),
            width: FRAME_WIDTH,
            height: FRAME_HEIGHT,
            speed: 3.0,
        }
    }

    /// Custom-resolution sequence (tests use small frames).
    pub fn with_resolution(seed: u64, width: u32, height: u32, speed: f64) -> Sequence {
        let world_side = (width.max(height) * 2 + 256).next_power_of_two();
        Sequence {
            world: World::new(world_side, seed),
            width,
            height,
            speed,
        }
    }

    /// Ground-truth position for frame `index`: a slow diagonal drift with
    /// gentle sinusoidal sway (always in-bounds).
    pub fn truth(&self, index: usize) -> GroundTruth {
        let t = index as f64;
        let max_x = (self.world.size() - self.width) as f64;
        let max_y = (self.world.size() - self.height) as f64;
        let x = (self.speed * t + 20.0 * (t * 0.05).sin()).rem_euclid(max_x.max(1.0));
        let y = (self.speed * 0.6 * t + 12.0 * (t * 0.03).cos()).rem_euclid(max_y.max(1.0));
        GroundTruth { x, y }
    }

    /// Render frame `index`.
    pub fn frame(&self, index: usize) -> Frame {
        let truth = self.truth(index);
        let (w, h) = (self.width as usize, self.height as usize);
        let mut rgb = vec![0u8; w * h * 3];
        let ox = truth.x as i64;
        let oy = truth.y as i64;
        for y in 0..h {
            for x in 0..w {
                let g = self.world.at(ox + x as i64, oy + y as i64);
                let p = (y * w + x) * 3;
                rgb[p] = g;
                rgb[p + 1] = g.saturating_sub(2);
                rgb[p + 2] = g.saturating_add(2);
            }
        }
        Frame {
            index,
            width: self.width,
            height: self.height,
            rgb,
            truth,
        }
    }

    /// Frame width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height.
    pub fn height(&self) -> u32 {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nondegenerate() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut uniq = va.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), va.len());
        // Zero seed handled.
        let _ = XorShift64::new(0).next_u64();
    }

    #[test]
    fn world_has_texture_variation() {
        let w = World::new(256, 7);
        let vals: Vec<u8> = (0..256).map(|i| w.at(i, i)).collect();
        let distinct: std::collections::HashSet<u8> = vals.iter().copied().collect();
        assert!(distinct.len() > 4, "world should not be flat");
        // Clamping works.
        assert_eq!(w.at(-10, -10), w.at(0, 0));
        assert_eq!(w.at(9999, 9999), w.at(255, 255));
    }

    #[test]
    fn frames_have_right_size_and_determinism() {
        let seq = Sequence::with_resolution(1, 64, 48, 2.0);
        let f = seq.frame(3);
        assert_eq!(f.rgb.len(), 64 * 48 * 3);
        assert_eq!(f.width, 64);
        assert_eq!(f.height, 48);
        let f2 = seq.frame(3);
        assert_eq!(f.rgb, f2.rgb);
        assert_eq!(f.to_gray().len(), 64 * 48);
    }

    #[test]
    fn gray_is_exact_for_every_channel_sum_at_every_lane() {
        // Block `b`, lane `p` holds channel sum `(b + 47p) % 766`: every
        // sum 0..=765 at each of the 16 lane positions, and a different
        // sum in every lane of a block. The sum is split across the
        // channels in a different order from pixel to pixel.
        const SUMS: usize = 766;
        let mut rgb = vec![0u8; SUMS * 16 * 3];
        let mut sums = Vec::with_capacity(SUMS * 16);
        for b in 0..SUMS {
            for p in 0..16 {
                let s = (b + 47 * p) % SUMS;
                let first = s.min(255);
                let second = (s - first).min(255);
                let mut split = [first as u8, second as u8, (s - first - second) as u8];
                split.rotate_left((b + p) % 3);
                let at = 3 * sums.len();
                rgb[at..at + 3].copy_from_slice(&split);
                sums.push(s);
            }
        }
        let mut gray = Vec::new();
        rgb_to_gray_into(&rgb, &mut gray);
        let mut oracle = vec![0u8; sums.len()];
        gray_of_scalar(&rgb, &mut oracle);
        assert_eq!(gray, oracle);
        for (i, (&g, &s)) in gray.iter().zip(&sums).enumerate() {
            assert_eq!(
                usize::from(g),
                s / 3,
                "pixel {i} (lane {}), sum {s}",
                i % 16
            );
        }
    }

    #[test]
    fn gray_matches_the_scalar_oracle_at_every_length() {
        // 0..=47 pixels covers no block, one block and two, each with
        // every tail length; a trailing partial pixel is ignored.
        let mut rng = XorShift64::new(11);
        let mut gray = Vec::new();
        for n in 0..48 {
            for extra in 0..3 {
                let rgb: Vec<u8> = (0..3 * n + extra).map(|_| rng.next_u8()).collect();
                rgb_to_gray_into(&rgb, &mut gray);
                let mut oracle = vec![0u8; n];
                gray_of_scalar(&rgb, &mut oracle);
                assert_eq!(gray, oracle, "{n} pixels + {extra} bytes");
            }
        }
    }

    #[test]
    fn a_reused_gray_buffer_keeps_its_allocation() {
        let seq = Sequence::with_resolution(3, 64, 48, 2.0);
        let mut gray = Vec::new();
        rgb_to_gray_into(&seq.frame(0).rgb, &mut gray);
        let (at, capacity) = (gray.as_ptr(), gray.capacity());
        for index in 1..4 {
            let frame = seq.frame(index);
            rgb_to_gray_into(&frame.rgb, &mut gray);
            assert_eq!((gray.as_ptr(), gray.capacity()), (at, capacity));
            assert_eq!(gray, frame.to_gray(), "frame {index}");
        }
    }

    #[test]
    fn consecutive_frames_overlap() {
        // Ground-truth motion per frame is small relative to frame size.
        let seq = Sequence::tum_like(5);
        let a = seq.truth(10);
        let b = seq.truth(11);
        let dx = (b.x - a.x).abs();
        let dy = (b.y - a.y).abs();
        assert!(dx < 10.0 && dy < 10.0, "motion too fast: {dx},{dy}");
    }

    #[test]
    fn tum_like_is_vga() {
        let seq = Sequence::tum_like(1);
        let f = seq.frame(0);
        assert_eq!((f.width, f.height), (640, 480));
        assert_eq!(f.rgb.len(), 921_600); // the ~0.9 MB TUM frame
    }
}
