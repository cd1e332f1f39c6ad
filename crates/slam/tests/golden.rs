//! Golden outputs of the SLAM front end: one FNV-1a hash over everything
//! `SlamEngine::analyze` returns for a fixed frame walk — corners with
//! their scores and order, descriptors, map points, pose, inliers — plus
//! the annotated debug image. The kernels behind `analyze` (FAST-9
//! detection, the patch search) may be rewritten for speed; their outputs
//! may not move by one bit, and these constants say so.

use rossf_slam::dataset::{Frame, Sequence};
use rossf_slam::debug_image::annotate;
use rossf_slam::fast;
use rossf_slam::pipeline::{FrameAnalysis, SlamConfig, SlamEngine};
use std::time::Duration;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn hash_corners(mut h: u64, corners: &[fast::Corner]) -> u64 {
    h = fnv1a(h, &(corners.len() as u64).to_le_bytes());
    for c in corners {
        for v in [c.x, c.y, c.score] {
            h = fnv1a(h, &v.to_le_bytes());
        }
    }
    h
}

fn hash_analysis(mut h: u64, frame: &Frame, a: &FrameAnalysis) -> u64 {
    h = hash_corners(h, &a.corners);
    h = fnv1a(h, &(a.descriptors.len() as u64).to_le_bytes());
    for d in &a.descriptors {
        h = fnv1a(h, &d.x.to_le_bytes());
        h = fnv1a(h, &d.y.to_le_bytes());
        for word in d.descriptor.0 {
            h = fnv1a(h, &word.to_le_bytes());
        }
    }
    h = fnv1a(h, &(a.points.len() as u64).to_le_bytes());
    for p in &a.points {
        for v in [p.xyz[0], p.xyz[1], p.xyz[2], p.intensity] {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }
    h = fnv1a(h, &a.pose.x.to_bits().to_le_bytes());
    h = fnv1a(h, &a.pose.y.to_bits().to_le_bytes());
    h = fnv1a(h, &(a.inliers as u64).to_le_bytes());
    fnv1a(
        h,
        &annotate(&frame.rgb, frame.width, frame.height, &a.corners, 2),
    )
}

fn engine(width: u32, height: u32, threshold: u8) -> SlamEngine {
    let config = SlamConfig {
        min_frame_compute: Duration::ZERO,
        threshold,
    };
    SlamEngine::new(width, height, config)
}

/// The message-path benchmark's walk: 0, 1, … n-1, n-2, … 1, 0, 1, …
fn triangle(frames: &[Frame], index: usize) -> &Frame {
    let n = frames.len();
    let phase = index % (2 * n - 2);
    &frames[if phase < n { phase } else { 2 * n - 2 - phase }]
}

#[test]
fn analyze_outputs_are_pinned_at_320x240() {
    let seq = Sequence::with_resolution(2022, 320, 240, 2.0);
    let frames: Vec<Frame> = (0..48).map(|i| seq.frame(i)).collect();
    let mut engine = engine(320, 240, 25);
    let mut h = FNV_OFFSET;
    for index in 0..96 {
        let frame = triangle(&frames, index);
        h = hash_analysis(h, frame, &engine.analyze(&frame.to_gray()));
    }
    assert_eq!(
        h, 0x55db_2a74_6850_af7e,
        "analyze's outputs moved: {h:#018x}"
    );
}

/// The engine's tracker detects at its own fixed threshold, so the two
/// thresholds are exercised on `fast::detect` directly, beside `analyze`.
#[test]
fn detect_and_analyze_outputs_are_pinned_at_160x120_thresholds_10_and_60() {
    let seq = Sequence::with_resolution(2023, 160, 120, 2.0);
    let mut h = FNV_OFFSET;
    for threshold in [10u8, 60] {
        let mut engine = engine(160, 120, threshold);
        for i in 0..32 {
            let frame = seq.frame(i);
            let gray = frame.to_gray();
            h = hash_corners(h, &fast::detect(&gray, 160, 120, threshold));
            h = hash_analysis(h, &frame, &engine.analyze(&gray));
        }
    }
    assert_eq!(
        h, 0xd3c2_73bd_0b51_7f9d,
        "detect's or analyze's outputs moved: {h:#018x}"
    );
}
