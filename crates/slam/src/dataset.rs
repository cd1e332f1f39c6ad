//! Procedural TUM-style dataset: a camera translating over a textured
//! plane.
//!
//! Frames are sampled as windows into a large, feature-rich world texture,
//! following a smooth trajectory. Consecutive frames therefore overlap
//! heavily (trackable), corners persist across frames, and the
//! ground-truth camera motion is known exactly — everything a visual
//! odometry front end needs, at TUM's 640×480 resolution.

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
/// converts every frame keeps one buffer.
pub(crate) fn rgb_to_gray_into(rgb: &[u8], gray: &mut Vec<u8>) {
    gray.clear();
    gray.extend(
        rgb.chunks_exact(3)
            .map(|p| ((p[0] as u16 + p[1] as u16 + p[2] as u16) / 3) as u8),
    );
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
