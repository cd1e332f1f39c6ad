//! Property-style tests over the core invariants, driven by a small
//! deterministic PRNG (the build environment has no registry access, so
//! `proptest` is replaced by fixed-seed randomized sweeps — failures are
//! reproducible by construction).
//!
//! * SFM: any message constructed from arbitrary plain content survives
//!   wire transport byte-for-byte (offsets are position-independent).
//! * ROS1 serialization: encode/decode is the identity for arbitrary
//!   messages; decoding never panics on arbitrary bytes.
//! * ProtoBuf-style varints: roundtrip identity.
//! * IDL parser: parsing never panics; valid specs regenerate code.

use rossf::msg::sensor_msgs::{Image, PointCloud, SfmImage, SfmPointCloud};
use rossf::msg::std_msgs::Header;
use rossf::ros::ser::{ByteReader, RosField, RosMessage};
use rossf::ros::time::RosTime;
use rossf::sfm::SfmRecvBuffer;
use rossf_msg::geometry_msgs::Point32;
use rossf_msg::sensor_msgs::ChannelFloat32;

const CASES: u64 = 64;

/// xorshift64* — deterministic, seedable, good enough for test sweeps.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn f32_bits(&mut self) -> f32 {
        f32::from_bits(self.u32())
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.usize(0, max_len + 1);
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// String of length `0..=max_len` drawn from `charset`.
    fn string(&mut self, charset: &[u8], max_len: usize) -> String {
        let len = self.usize(0, max_len + 1);
        (0..len)
            .map(|_| charset[self.usize(0, charset.len())] as char)
            .collect()
    }
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz_/";
const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
const PRINTABLE: &[u8] =
    b" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\n";

fn arb_header(rng: &mut Rng) -> Header {
    Header {
        seq: rng.u32(),
        stamp: RosTime {
            sec: rng.u32(),
            nsec: rng.range(0, 1_000_000_000) as u32,
        },
        frame_id: rng.string(LOWER, 24),
    }
}

fn arb_image(rng: &mut Rng) -> Image {
    let (width, height) = (rng.range(1, 32) as u32, rng.range(1, 32) as u32);
    Image {
        header: arb_header(rng),
        height,
        width,
        encoding: rng.string(ALNUM, 12),
        is_bigendian: rng.range(0, 2) as u8,
        step: width * 3,
        data: rng.bytes(2048),
    }
}

fn arb_pointcloud(rng: &mut Rng) -> PointCloud {
    let points = (0..rng.usize(0, 64))
        .map(|_| Point32 {
            x: rng.f32_bits(),
            y: rng.f32_bits(),
            z: rng.f32_bits(),
        })
        .collect();
    let channels = (0..rng.usize(0, 4))
        .map(|_| ChannelFloat32 {
            name: rng.string(LOWER, 8),
            values: (0..rng.usize(0, 32)).map(|_| rng.f32_bits()).collect(),
        })
        .collect();
    PointCloud {
        header: arb_header(rng),
        points,
        channels,
    }
}

fn bits_equal_f32(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits()
}

fn pointclouds_bitwise_equal(a: &PointCloud, b: &PointCloud) -> bool {
    a.header == b.header
        && a.points.len() == b.points.len()
        && a.channels.len() == b.channels.len()
        && a.points.iter().zip(&b.points).all(|(p, q)| {
            bits_equal_f32(p.x, q.x) && bits_equal_f32(p.y, q.y) && bits_equal_f32(p.z, q.z)
        })
        && a.channels.iter().zip(&b.channels).all(|(c, d)| {
            c.name == d.name
                && c.values.len() == d.values.len()
                && c.values
                    .iter()
                    .zip(&d.values)
                    .all(|(x, y)| bits_equal_f32(*x, *y))
        })
}

#[test]
fn ros1_image_serialization_roundtrips() {
    let mut rng = Rng::new(0x1301);
    for case in 0..CASES {
        let img = arb_image(&mut rng);
        let bytes = img.to_bytes();
        assert_eq!(bytes.len(), img.field_len(), "case {case}");
        let back = Image::from_bytes(&bytes).unwrap();
        assert_eq!(back, img, "case {case}");
    }
}

#[test]
fn sfm_image_survives_the_wire() {
    let mut rng = Rng::new(0x1302);
    for case in 0..CASES {
        // plain → SFM → wire bytes → adopt at a new address → plain.
        let img = arb_image(&mut rng);
        let boxed = SfmImage::boxed_from_plain(&img);
        let frame = boxed.publish_handle();
        let mut rb = SfmRecvBuffer::<SfmImage>::new(frame.len()).unwrap();
        rb.as_mut_slice().copy_from_slice(frame.as_slice());
        let adopted = rb.finish().unwrap();
        assert_ne!(adopted.base(), boxed.base(), "distinct allocation");
        assert_eq!(adopted.to_plain(), img, "case {case}");
    }
}

#[test]
fn sfm_nested_pointcloud_survives_the_wire() {
    let mut rng = Rng::new(0x1303);
    for case in 0..CASES {
        let pc = arb_pointcloud(&mut rng);
        let boxed = SfmPointCloud::boxed_from_plain(&pc);
        let frame = boxed.publish_handle();
        let mut rb = SfmRecvBuffer::<SfmPointCloud>::new(frame.len()).unwrap();
        rb.as_mut_slice().copy_from_slice(frame.as_slice());
        let adopted = rb.finish().unwrap();
        assert!(
            pointclouds_bitwise_equal(&adopted.to_plain(), &pc),
            "case {case}"
        );
    }
}

#[test]
fn sfm_whole_len_is_monotone_and_bounded() {
    let mut rng = Rng::new(0x1304);
    for case in 0..CASES {
        let data = rng.bytes(4096);
        let mut boxed = rossf::sfm::SfmBox::<SfmImage>::new();
        let before = boxed.whole_len();
        boxed.data.assign(&data);
        let after = boxed.whole_len();
        assert!(after >= before, "case {case}");
        assert!(
            after <= <SfmImage as rossf::sfm::SfmMessage>::max_size(),
            "case {case}"
        );
        assert_eq!(boxed.data.as_slice(), &data[..], "case {case}");
    }
}

#[test]
fn ros1_decoder_never_panics_on_garbage() {
    let mut rng = Rng::new(0x1305);
    for _ in 0..CASES {
        let bytes = rng.bytes(512);
        let _ = Image::from_bytes(&bytes); // may Err, must not panic
        let _ = PointCloud::from_bytes(&bytes);
        let _ = Header::from_bytes(&bytes);
    }
}

#[test]
fn sfm_adoption_never_panics_on_garbage() {
    let mut rng = Rng::new(0x1306);
    for _ in 0..CASES {
        let bytes = rng.bytes(512);
        if let Ok(mut rb) = SfmRecvBuffer::<SfmImage>::new(bytes.len()) {
            rb.as_mut_slice().copy_from_slice(&bytes);
            let _ = rb.finish(); // may Err (corrupt offsets), must not panic
        }
    }
}

#[test]
fn varint_roundtrips() {
    let mut rng = Rng::new(0x1307);
    for case in 0..CASES {
        // Sweep the interesting magnitude bands, not just uniform u64s.
        let v = match case % 4 {
            0 => rng.range(0, 128),
            1 => rng.range(0, 1 << 21),
            2 => rng.range(0, 1 << 42),
            _ => rng.next_u64(),
        };
        let mut buf = Vec::new();
        rossf::baselines::protolite::write_varint(v, &mut buf);
        assert!(buf.len() <= 10);
        let mut pos = 0;
        assert_eq!(
            rossf::baselines::protolite::read_varint(&buf, &mut pos),
            Some(v)
        );
        assert_eq!(pos, buf.len());
    }
}

#[test]
fn codec_consensus_across_middleware() {
    use rossf::baselines::{Codec, WorkImage};
    let mut rng = Rng::new(0x1308);
    for case in 0..CASES {
        let dims = (rng.range(1, 24) as u32, rng.range(1, 24) as u32);
        let mut img = WorkImage::synthetic(dims.0, dims.1);
        // The ROS codec carries the stamp as a ROS time (u32 seconds +
        // u32 nanos), so the consensus property holds within that range —
        // ample for a monotonic experiment clock.
        img.stamp_nanos = rng.range(0, (u32::MAX as u64) * 1_000_000_000);
        let expected = rossf::baselines::roscodec::RosCodec::consume(
            &rossf::baselines::roscodec::RosCodec::make_wire(&img),
        );
        macro_rules! check {
            ($codec:ty) => {{
                let got = <$codec>::consume(&<$codec>::make_wire(&img));
                assert_eq!(got, expected, "case {case}: {}", stringify!($codec));
            }};
        }
        check!(rossf::baselines::sfm_image::SfmCodec);
        check!(rossf::baselines::protolite::ProtoCodec);
        check!(rossf::baselines::flatlite::FlatLiteCodec);
        check!(rossf::baselines::xcdr::XcdrCodec);
        check!(rossf::baselines::flatdata::FlatDataCodec);
    }
}

#[test]
fn idl_parser_never_panics() {
    let mut rng = Rng::new(0x1309);
    for _ in 0..CASES {
        let text = rng.string(PRINTABLE, 256);
        let _ = rossf::idl::parse_msg("pkg", "Fuzz", &text);
    }
}

#[test]
fn idl_valid_fields_always_generate() {
    let mut rng = Rng::new(0x130a);
    for case in 0..CASES {
        let n_fields = rng.usize(1, 6);
        let mut seen = std::collections::HashSet::new();
        let mut text = String::new();
        for _ in 0..n_fields {
            let mut name = String::from((b'a' + rng.usize(0, 26) as u8) as char);
            name.push_str(&rng.string(b"abcdefghijklmnopqrstuvwxyz0123456789_", 8));
            if !seen.insert(name.clone()) {
                continue;
            }
            let ty = [
                "uint32",
                "float64",
                "string",
                "uint8[]",
                "float32[]",
                "Header",
            ][rng.usize(0, 6)];
            text.push_str(&format!("{ty} {name}\n"));
        }
        let spec = rossf::idl::parse_msg("pkg", "Gen", &text).unwrap();
        let catalog = {
            let mut c = rossf::idl::Catalog::with_standard_messages();
            c.add(spec).unwrap();
            c
        };
        let code = catalog
            .generate_all(&rossf::idl::GenConfig::default())
            .unwrap();
        assert!(code.contains("pub struct Gen"), "case {case}");
        assert!(code.contains("pub struct SfmGen"), "case {case}");
    }
}

#[test]
fn checker_conversion_is_idempotent() {
    for n_decls in 0..4usize {
        let mut src = String::from("void f() {\n");
        for i in 0..n_decls {
            src.push_str(&format!("    sensor_msgs::Image img{i};\n"));
            src.push_str(&format!("    img{i}.data.resize(64);\n"));
        }
        src.push_str("}\n");
        let once = rossf::checker::convert_stack_to_heap(&src);
        assert_eq!(once.converted_lines.len(), n_decls);
        let twice = rossf::checker::convert_stack_to_heap(&once.source);
        assert!(twice.converted_lines.is_empty(), "already heap-allocated");
        assert_eq!(&twice.source, &once.source);
    }
}

#[test]
fn stats_mean_is_within_min_max() {
    let mut rng = Rng::new(0x130b);
    for case in 0..CASES {
        let samples: Vec<u64> = (0..rng.usize(1, 64))
            .map(|_| rng.range(1, 10_000_000_000))
            .collect();
        let stats = rossf_bench_stats(&samples);
        assert!(stats.0 >= stats.1 && stats.0 <= stats.2, "case {case}");
    }
}

// Local helper: compute (mean, min, max) in ms without depending on the
// bench crate (it is not part of the facade).
fn rossf_bench_stats(samples: &[u64]) -> (f64, f64, f64) {
    let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64 / 1e6;
    let min = *samples.iter().min().unwrap() as f64 / 1e6;
    let max = *samples.iter().max().unwrap() as f64 / 1e6;
    (mean, min, max)
}

#[test]
fn fixed_seed_smoke() {
    // One deterministic pass so failures in the randomized sweeps have a
    // quick hand-written companion.
    let img = Image {
        header: Header::default(),
        height: 2,
        width: 2,
        encoding: "rgb8".to_string(),
        is_bigendian: 0,
        step: 6,
        data: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
    };
    let bytes = img.to_bytes();
    assert_eq!(Image::from_bytes(&bytes).unwrap(), img);
    let mut r = ByteReader::new(&bytes);
    let _ = Image::read_field(&mut r).unwrap();
    r.finish().unwrap();
}

// === Extension properties (bag, checker) ===

mod extension_properties {
    use super::{Rng, CASES, LOWER};
    use rossf::bag::{BagReader, BagWriter};

    /// One frame as the test sees it: (topic index, stamp, payload).
    type Frame = (usize, u64, Vec<u8>);

    /// Arbitrary topics and frames within what the bag format can
    /// represent: payloads are non-empty and stamps never regress within a
    /// topic (the writer clamps regressions, which would break exact
    /// round-trip equality).
    fn arb_bag(rng: &mut Rng) -> (Vec<(String, String)>, Vec<Frame>) {
        let topics: Vec<(String, String)> = (0..rng.usize(1, 5))
            .map(|i| {
                let mut topic = format!("t{i}_");
                topic.push_str(&rng.string(LOWER, 23));
                let type_name = format!(
                    "{}/{}",
                    rng.string(b"abcdefghijklmnopqrstuvwxyz_", 12),
                    rng.string(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", 4)
                );
                (topic, type_name)
            })
            .collect();
        let mut last_stamp = vec![0u64; topics.len()];
        let frames = (0..rng.usize(0, 16))
            .map(|_| {
                let which = rng.usize(0, topics.len());
                let stamp = last_stamp[which].saturating_add(rng.next_u64() >> 32);
                last_stamp[which] = stamp;
                let mut payload = rng.bytes(255);
                payload.push(rng.next_u64() as u8); // the format refuses empty payloads
                (which, stamp, payload)
            })
            .collect();
        (topics, frames)
    }

    #[test]
    fn bag_roundtrips_arbitrary_records() {
        let mut rng = Rng::new(0x1401);
        for case in 0..48 {
            let (topics, frames) = arb_bag(&mut rng);
            let mut writer = BagWriter::new(Vec::new()).unwrap();
            for (topic, type_name) in &topics {
                writer.add_connection(topic, type_name, 0).unwrap();
            }
            for (which, stamp, payload) in &frames {
                writer.append(*which as u32, *stamp, payload).unwrap();
            }
            let (_, bytes) = writer.finish().unwrap();

            let reader = BagReader::from_bytes_strict(&bytes).unwrap();
            let declared: Vec<(String, String)> = reader
                .connections()
                .iter()
                .map(|c| (c.topic.clone(), c.type_name.clone()))
                .collect();
            assert_eq!(declared, topics, "case {case}");
            let back: Vec<Frame> = reader
                .frames_in_order()
                .iter()
                .map(|(conn, e)| {
                    let payload = reader.frame_bytes(e).unwrap().to_vec();
                    (*conn as usize, e.stamp_nanos, payload)
                })
                .collect();
            assert_eq!(back, frames, "case {case}");
        }
    }

    #[test]
    fn bag_reader_never_panics_on_garbage() {
        let mut rng = Rng::new(0x1402);
        for _ in 0..CASES {
            let bytes = rng.bytes(128);
            // May Err, must not panic — in either open mode.
            let _ = BagReader::from_bytes_strict(&bytes);
            let _ = BagReader::from_bytes(&bytes);
        }
    }

    #[test]
    fn checker_never_panics_on_arbitrary_cpp() {
        let mut rng = Rng::new(0x1404);
        for _ in 0..48 {
            let text = rng.string(super::PRINTABLE, 512);
            let _ = rossf::checker::analyze_source("fuzz.cpp", &text);
            let _ = rossf::checker::convert_stack_to_heap(&text);
        }
    }
}
