//! Workload inputs, all made from `--seed`: the pixel pattern, the pose
//! values and the SLAM frame sequence. The program under test receives
//! only the generated messages; the same seed gives the same inputs.

use rossf_slam::dataset::{Frame, Sequence};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2022;

/// The paper's ~1 MB image: 800×600 rgb8, 1 440 000 payload bytes.
pub const IMAGE_WIDTH: u32 = 800;
pub const IMAGE_HEIGHT: u32 = 600;
/// The downscaled SLAM frame (Fig. 17/18 topology at 320×240).
pub const SLAM_WIDTH: u32 = 320;
pub const SLAM_HEIGHT: u32 = 240;
/// Distinct SLAM frames generated; messages walk them back and forth so
/// consecutive frames always overlap and the tracker keeps tracking.
pub const SLAM_FRAMES: usize = 48;
/// Payload bytes compared per delivered image in the untraced pass.
pub const PAYLOAD_SAMPLES: usize = 16;

/// splitmix64: a full-period mixer, good enough to make test patterns.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// 64-bit FNV-1a, chained through `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The image every `img1m_*` message carries, and where the checker
/// samples it.
#[derive(Debug, Clone)]
pub struct ImageInput {
    pub width: u32,
    pub height: u32,
    pub pixels: Vec<u8>,
    /// Seeded payload offsets the untraced checker compares.
    pub samples: Vec<usize>,
}

impl ImageInput {
    pub fn new(seed: u64, width: u32, height: u32) -> ImageInput {
        let len = (width * height * 3) as usize;
        let mut rng = SplitMix64::new(seed ^ 0x0069_6D61_6765);
        let mut pixels = Vec::with_capacity(len + 8);
        while pixels.len() < len {
            pixels.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        pixels.truncate(len);
        let samples = (0..PAYLOAD_SAMPLES)
            .map(|_| (rng.next_u64() % len as u64) as usize)
            .collect();
        ImageInput {
            width,
            height,
            pixels,
            samples,
        }
    }

    pub fn hash(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &self.pixels);
        for s in &self.samples {
            h = fnv1a(h, &s.to_le_bytes());
        }
        h
    }
}

/// Pose values as a function of (seed, sequence number), so the checker
/// recomputes what message `seq` must carry.
#[derive(Debug, Clone, Copy)]
pub struct PoseInput {
    seed: u64,
}

impl PoseInput {
    pub fn new(seed: u64) -> PoseInput {
        PoseInput { seed }
    }

    /// `[px, py, pz, ox, oy, oz, ow]` for message `seq`.
    pub fn values(&self, seq: u64) -> [f64; 7] {
        let mut rng = SplitMix64::new(self.seed ^ seq.wrapping_mul(0xA24B_AED4_963E_E407));
        let mut out = [0.0; 7];
        for v in &mut out {
            // Multiples of 1/1024 in [-512, 512): exact in f64, so the
            // comparison at the subscriber is equality, not a tolerance.
            *v = (rng.next_u64() >> 44) as f64 / 1024.0 - 512.0;
        }
        out
    }

    pub fn hash(&self) -> u64 {
        (0..256).fold(FNV_OFFSET, |h, seq| {
            self.values(seq)
                .iter()
                .fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
        })
    }
}

/// The SLAM frames, generated once outside every timed region.
#[derive(Debug, Clone)]
pub struct SlamInput {
    pub width: u32,
    pub height: u32,
    frames: Vec<Frame>,
}

impl SlamInput {
    pub fn new(seed: u64) -> SlamInput {
        SlamInput::with_size(seed, SLAM_WIDTH, SLAM_HEIGHT, SLAM_FRAMES)
    }

    pub fn with_size(seed: u64, width: u32, height: u32, count: usize) -> SlamInput {
        assert!(count >= 2);
        let sequence = Sequence::with_resolution(seed, width, height, 2.0);
        SlamInput {
            width,
            height,
            frames: (0..count).map(|i| sequence.frame(i)).collect(),
        }
    }

    /// The frame message number `index` carries: 0, 1, … n-1, n-2, … 1,
    /// 0, 1, … — a triangle wave over the generated frames.
    pub fn frame_for(&self, index: u64) -> &Frame {
        let n = self.frames.len() as u64;
        let phase = index % (2 * n - 2);
        let at = if phase < n { phase } else { 2 * n - 2 - phase };
        &self.frames[at as usize]
    }

    pub fn hash(&self) -> u64 {
        self.frames
            .iter()
            .fold(FNV_OFFSET, |h, frame| fnv1a(h, &frame.rgb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let image = |seed| ImageInput::new(seed, 64, 48).hash();
        assert_eq!(image(7), image(7));
        assert_ne!(image(7), image(8));

        let pose = |seed| PoseInput::new(seed).hash();
        assert_eq!(pose(7), pose(7));
        assert_ne!(pose(7), pose(8));

        let slam = |seed| SlamInput::with_size(seed, 64, 48, 4).hash();
        assert_eq!(slam(7), slam(7));
        assert_ne!(slam(7), slam(8));
    }

    #[test]
    fn image_input_has_the_stated_size_and_in_range_samples() {
        let input = ImageInput::new(DEFAULT_SEED, IMAGE_WIDTH, IMAGE_HEIGHT);
        assert_eq!(input.pixels.len(), 1_440_000);
        assert_eq!(input.samples.len(), PAYLOAD_SAMPLES);
        assert!(input.samples.iter().all(|&s| s < input.pixels.len()));
    }

    #[test]
    fn pose_values_depend_on_the_sequence_number() {
        let input = PoseInput::new(3);
        assert_eq!(input.values(5), input.values(5));
        assert_ne!(input.values(5), input.values(6));
        assert!(input.values(5).iter().all(|v| (-512.0..512.0).contains(v)));
    }

    #[test]
    fn slam_frames_walk_back_and_forth() {
        let input = SlamInput::with_size(1, 32, 24, 4);
        let walk: Vec<usize> = (0..9).map(|i| input.frame_for(i).index).collect();
        assert_eq!(walk, vec![0, 1, 2, 3, 2, 1, 0, 1, 2]);
    }
}
