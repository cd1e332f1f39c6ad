//! Deterministic corruption harness for the schema-driven frame verifier.
//!
//! Valid `sensor_msgs/Image` and `sensor_msgs/PointCloud2` frames are
//! corrupted in targeted, *structural* ways (offsets out of bounds, forged
//! lengths, truncation, overlap, misaligned/odd stored sizes) and every
//! such frame must be rejected by [`rossf_sfm::verify_frame`] with a
//! diagnostic naming the failing field path. A random byte-flip fuzz loop
//! additionally checks the blanket safety property: whatever the verifier
//! *accepts* can be adopted and fully traversed without a panic.
//!
//! All randomness is a seeded xorshift64* generator (the same scheme the
//! SLAM dataset synthesizer uses), so failures reproduce exactly.

use rossf_msg::sensor_msgs::{SfmImage, SfmPointCloud2, SfmPointField};
use rossf_msg::std_msgs::SfmHeader;
use rossf_ros::wire::{write_frame, ConnectionHeader, PROJECT_FIELD};
use rossf_ros::{
    MachineId, Master, NodeHandle, PublisherOptions, SubscriberOptions, TransportConfig,
};
use rossf_sfm::{verify_frame_for, Projection, SfmBox, SfmShared};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn image_box(rng: &mut Rng) -> SfmBox<SfmImage> {
    let mut img = SfmBox::<SfmImage>::new();
    img.header.seq = rng.next_u64() as u32;
    img.header.frame_id.assign("cam0");
    img.height = 4;
    img.width = 4;
    img.encoding.assign("rgb8");
    img.step = 12;
    let data: Vec<u8> = (0..48).map(|_| rng.next_u64() as u8).collect();
    img.data.assign(&data);
    img
}

fn image_frame(rng: &mut Rng) -> Vec<u8> {
    image_box(rng).publish_handle().as_slice().to_vec()
}

fn cloud_frame(rng: &mut Rng) -> Vec<u8> {
    let mut pc = SfmBox::<SfmPointCloud2>::new();
    pc.header.frame_id.assign("lidar");
    pc.height = 1;
    pc.width = 2;
    pc.fields.resize(2);
    let fields = pc.fields.as_mut_slice();
    fields[0].name.assign("x");
    fields[0].offset = 0;
    fields[0].datatype = 7;
    fields[0].count = 1;
    fields[1].name.assign("y");
    fields[1].offset = 4;
    fields[1].datatype = 7;
    fields[1].count = 1;
    pc.point_step = 8;
    pc.row_step = 16;
    let data: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
    pc.data.assign(&data);
    pc.is_dense = 1;
    pc.publish_handle().as_slice().to_vec()
}

/// Byte position of a var-size field's `{len, off}` pair in the skeleton.
struct Pair {
    path: &'static str,
    pos: usize,
}

fn image_pairs() -> Vec<Pair> {
    let h = core::mem::offset_of!(SfmImage, header);
    vec![
        Pair {
            path: "header.frame_id",
            pos: h + core::mem::offset_of!(SfmHeader, frame_id),
        },
        Pair {
            path: "encoding",
            pos: core::mem::offset_of!(SfmImage, encoding),
        },
        Pair {
            path: "data",
            pos: core::mem::offset_of!(SfmImage, data),
        },
    ]
}

fn cloud_pairs() -> Vec<Pair> {
    let h = core::mem::offset_of!(SfmPointCloud2, header);
    vec![
        Pair {
            path: "header.frame_id",
            pos: h + core::mem::offset_of!(SfmHeader, frame_id),
        },
        Pair {
            path: "fields",
            pos: core::mem::offset_of!(SfmPointCloud2, fields),
        },
        Pair {
            path: "data",
            pos: core::mem::offset_of!(SfmPointCloud2, data),
        },
    ]
}

fn read_u32(frame: &[u8], pos: usize) -> u32 {
    u32::from_ne_bytes(frame[pos..pos + 4].try_into().unwrap())
}

fn write_u32(frame: &mut [u8], pos: usize, v: u32) {
    frame[pos..pos + 4].copy_from_slice(&v.to_ne_bytes());
}

/// Apply one structural corruption (selected by `which`) at `pair`.
/// Every variant violates a §4.1 invariant, so the verifier must reject.
fn corrupt_pair(frame: &mut [u8], pair: &Pair, which: usize, rng: &mut Rng) -> &'static str {
    let len_pos = pair.pos;
    let off_pos = pair.pos + 4;
    match which % 6 {
        0 => {
            // Offset escapes the frame.
            let escape = frame.len() as u32 + rng.below(1 << 20) as u32;
            write_u32(frame, off_pos, escape);
            "offset out of bounds"
        }
        1 => {
            // Forged huge length (overflow or OOB).
            write_u32(frame, len_pos, u32::MAX - rng.below(1 << 10) as u32);
            "forged huge length"
        }
        2 => {
            // Shift the region: overlaps a neighbor or escapes the tail.
            let off = read_u32(frame, off_pos);
            write_u32(frame, off_pos, off.wrapping_add(1 + rng.below(7) as u32));
            "shifted region"
        }
        3 => {
            // Zero offset with nonzero length (half-unassigned pair).
            write_u32(frame, off_pos, 0);
            "zero offset, nonzero length"
        }
        4 => {
            // Zero length with nonzero offset (other half).
            write_u32(frame, len_pos, 0);
            "zero length, nonzero offset"
        }
        _ => {
            // Grow the stored/len word slightly: region now overlaps its
            // right neighbor or runs past the frame end.
            let len = read_u32(frame, len_pos);
            write_u32(frame, len_pos, len + 4);
            "grown region"
        }
    }
}

#[test]
fn image_structural_corruptions_all_rejected() {
    let mut rng = Rng::new(0xC0FFEE);
    let pairs = image_pairs();
    for round in 0..200 {
        let mut frame = image_frame(&mut rng);
        let pair = &pairs[rng.below(pairs.len())];
        let what = corrupt_pair(&mut frame, pair, rng.below(6), &mut rng);
        let err = verify_frame_for::<SfmImage>(&frame).expect_err(&format!(
            "round {round}: `{}` {what} must be rejected",
            pair.path
        ));
        assert!(
            !err.path.is_empty(),
            "diagnostic must name a field path: {err}"
        );
    }
}

#[test]
fn cloud_structural_corruptions_all_rejected() {
    let mut rng = Rng::new(0xB0BA);
    let pairs = cloud_pairs();
    for round in 0..200 {
        let mut frame = cloud_frame(&mut rng);
        let pair = &pairs[rng.below(pairs.len())];
        let what = corrupt_pair(&mut frame, pair, rng.below(6), &mut rng);
        let err = verify_frame_for::<SfmPointCloud2>(&frame).expect_err(&format!(
            "round {round}: `{}` {what} must be rejected",
            pair.path
        ));
        assert!(
            !err.path.is_empty(),
            "diagnostic must name a field path: {err}"
        );
    }
}

#[test]
fn diagnostics_name_the_corrupted_field() {
    let mut rng = Rng::new(7);
    let mut frame = image_frame(&mut rng);
    let enc = core::mem::offset_of!(SfmImage, encoding);
    write_u32(&mut frame, enc + 4, u32::MAX);
    let err = verify_frame_for::<SfmImage>(&frame).unwrap_err();
    assert_eq!(err.path, "encoding", "{err}");

    // Nested vec-of-struct element: corrupt fields[1].name through the
    // parent pair, and the path must say so.
    let mut frame = cloud_frame(&mut rng);
    let fields_pos = core::mem::offset_of!(SfmPointCloud2, fields);
    let off = read_u32(&frame, fields_pos + 4) as usize;
    let elem_base = fields_pos + 4 + off;
    let name_pos = elem_base
        + core::mem::size_of::<SfmPointField>()
        + core::mem::offset_of!(SfmPointField, name);
    write_u32(&mut frame, name_pos + 4, u32::MAX);
    let err = verify_frame_for::<SfmPointCloud2>(&frame).unwrap_err();
    assert_eq!(err.path, "fields[1].name", "{err}");
}

#[test]
fn truncation_and_padding_rejected() {
    let mut rng = Rng::new(0xDEAD);
    let frame = image_frame(&mut rng);
    let skeleton = core::mem::size_of::<SfmImage>();

    // Any truncation below the full frame must be caught — content regions
    // escape, or the skeleton itself no longer fits.
    for _ in 0..50 {
        let cut = rng.below(frame.len());
        assert!(
            verify_frame_for::<SfmImage>(&frame[..cut]).is_err(),
            "truncation to {cut} bytes accepted"
        );
    }
    // Appending trailing garbage breaks the exact-tail invariant.
    for extra in [1usize, 4, 64] {
        let mut padded = frame.clone();
        padded.extend(std::iter::repeat_n(0xAAu8, extra));
        assert!(
            verify_frame_for::<SfmImage>(&padded).is_err(),
            "padded frame (+{extra}) accepted"
        );
    }
    // Sanity: skeleton-sized prefix of an all-zero frame (fully unassigned
    // message) is the smallest valid frame.
    let zeros = vec![0u8; skeleton];
    verify_frame_for::<SfmImage>(&zeros).expect("all-unassigned skeleton is valid");
}

/// Blanket safety: random byte flips anywhere in the frame. The verifier
/// may accept flips that only touch primitive fields or content bytes —
/// whatever it accepts must adopt and traverse cleanly (no panic, no
/// out-of-bounds read).
#[test]
fn fuzz_flips_never_panic_traversal() {
    let mut rng = Rng::new(0x5EED);
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for _ in 0..400 {
        let mut frame = image_frame(&mut rng);
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(frame.len());
            frame[at] ^= 1 << rng.below(8);
        }
        match verify_frame_for::<SfmImage>(&frame) {
            Err(_) => rejected += 1,
            Ok(_) => {
                accepted += 1;
                // Adopt through the real receive path and touch every
                // field. String content flips are not structural, so use
                // the non-panicking accessors.
                let mut slot = rossf_sfm::SfmRecvBuffer::<SfmImage>::new(frame.len()).unwrap();
                slot.as_mut_slice().copy_from_slice(&frame);
                let msg = slot.finish().expect("verified frame must adopt");
                let _ = msg.header.frame_id.try_as_str();
                let _ = msg.header.frame_id.as_bytes().len();
                let _ = msg.encoding.try_as_str();
                let sum: u64 = msg.data.as_slice().iter().map(|&b| b as u64).sum();
                let _ = (msg.height, msg.width, msg.step, sum);
            }
        }
    }
    // Single-bit flips often land in content/prim bytes, so both outcomes
    // must actually occur for the fuzz loop to mean anything.
    assert!(accepted > 0, "no flip was benign — loop too narrow");
    assert!(rejected > 0, "no flip was structural — loop too narrow");
}

// === Transport integration ===

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn validating_node(master: &Master, name: &str) -> NodeHandle {
    NodeHandle::with_config(
        master,
        name,
        MachineId::A,
        TransportConfig {
            validate_on_receive: true,
            ..TransportConfig::default()
        },
    )
}

#[test]
fn valid_frames_identical_with_and_without_validation() {
    let mut rng = Rng::new(99);
    let img = image_box(&mut rng);
    let original = img.publish_handle().as_slice().to_vec();

    let mut received = Vec::new();
    for validate in [false, true] {
        let master = Master::new();
        let nh = if validate {
            validating_node(&master, "sub_node")
        } else {
            NodeHandle::new(&master, "sub_node")
        };
        let topic = format!("verify/identical_{validate}");
        let publisher =
            nh.advertise_with::<SfmBox<SfmImage>>(&topic, PublisherOptions::new().queue_size(8));
        let (tx, rx) = mpsc::channel();
        let _sub = nh.subscribe_with(
            &topic,
            SubscriberOptions::new(),
            move |m: SfmShared<SfmImage>| {
                let _ = tx.send(m.as_bytes().to_vec());
            },
        );
        nh.wait_for_subscribers(&publisher, 1);
        publisher.publish(&img);
        let bytes = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        received.push(bytes);
    }
    assert_eq!(received[0], original, "unvalidated delivery must be exact");
    assert_eq!(
        received[0], received[1],
        "validate_on_receive must not alter delivered bytes"
    );
}

/// Hand-rolled wire-level publisher (the `failure_injection` pattern), so
/// the test can put literally corrupt bytes on a real subscriber socket.
struct RawPublisher {
    listener: std::net::TcpListener,
}

impl RawPublisher {
    fn register(master: &Master, topic: &str, type_name: &str) -> Self {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        master
            .register_publisher(
                topic,
                type_name,
                listener.local_addr().unwrap(),
                MachineId::A,
            )
            .unwrap();
        RawPublisher { listener }
    }

    fn accept(&self, type_name: &str) -> std::net::TcpStream {
        let (mut stream, _) = self.listener.accept().unwrap();
        let _request = {
            let mut r = std::io::BufReader::new(stream.try_clone().unwrap());
            ConnectionHeader::read_from(&mut r).unwrap()
        };
        ConnectionHeader::new()
            .with("type", type_name)
            .with("endian", ConnectionHeader::native_endian())
            .write_to(&mut stream)
            .unwrap();
        stream
    }

    /// Like [`RawPublisher::accept`], but echoes the subscriber's projection
    /// request verbatim — the test then controls the sub-frame bytes.
    fn accept_project(&self, type_name: &str) -> std::net::TcpStream {
        let (mut stream, _) = self.listener.accept().unwrap();
        let request = {
            let mut r = std::io::BufReader::new(stream.try_clone().unwrap());
            ConnectionHeader::read_from(&mut r).unwrap()
        };
        let spec = request
            .get(PROJECT_FIELD)
            .expect("sub requested projection");
        ConnectionHeader::new()
            .with("type", type_name)
            .with("endian", ConnectionHeader::native_endian())
            .with(PROJECT_FIELD, spec)
            .write_to(&mut stream)
            .unwrap();
        stream
    }
}

/// Assemble the wire bytes of a projected sub-frame the way the
/// publisher's vectored writer does: patched skeleton, then each selected
/// content region behind its alignment pad.
fn projected_wire_bytes(projection: &Projection, frame: &[u8]) -> Vec<u8> {
    let plan = projection.slice(frame).expect("valid frame slices");
    let mut out = plan.skeleton.clone();
    for seg in &plan.segments {
        out.extend(std::iter::repeat_n(0u8, seg.pad));
        out.extend_from_slice(&frame[seg.src.clone()]);
    }
    assert_eq!(out.len(), plan.wire_len);
    out
}

/// The projected verifier holds the line the full-frame verifier holds:
/// structural corruptions of selected pairs are rejected, and so is any
/// nonzero residue in an *unprojected* pair (which the full verifier would
/// happily accept as a live field).
#[test]
fn projected_frame_corruptions_all_rejected() {
    let mut rng = Rng::new(0xF1E1D);
    let schema = <SfmImage as rossf_sfm::SfmMessage>::schema().expect("generated schema");
    let projection =
        Projection::resolve(schema, &["header.frame_id", "height", "encoding"]).unwrap();

    // The projected pairs, at their (unchanged) skeleton positions.
    let selected = [image_pairs()[0].pos, image_pairs()[1].pos];
    let unprojected_data = core::mem::offset_of!(SfmImage, data);

    for round in 0..200 {
        let full = image_frame(&mut rng);
        let good = projected_wire_bytes(&projection, &full);
        projection
            .verify_projected(&good)
            .expect("publisher-sliced sub-frame must verify");

        let mut bad = good.clone();
        let what = match rng.below(3) {
            0 => {
                // Structural corruption of a selected pair.
                let pair = Pair {
                    path: "selected",
                    pos: selected[rng.below(selected.len())],
                };
                corrupt_pair(&mut bad, &pair, rng.below(6), &mut rng)
            }
            1 => {
                // Unprojected pair with residue: a full frame leaked onto a
                // projected link, or a forged field smuggled past the slice.
                let pos = unprojected_data + 4 * rng.below(2);
                write_u32(&mut bad, pos, 1 + rng.below(100) as u32);
                "unprojected pair nonzero"
            }
            _ => {
                bad.truncate(rng.below(bad.len()));
                "truncated sub-frame"
            }
        };
        assert!(
            projection.verify_projected(&bad).is_err(),
            "round {round}: {what} accepted"
        );
    }
}

/// Corrupt projected sub-frames on a real socket: the subscriber's
/// projected verifier counts and skips them without killing the link,
/// exactly like the full-frame harness above.
#[test]
fn corrupt_projected_frames_are_counted_and_skipped() {
    use rossf_sfm::SfmMessage;
    let mut rng = Rng::new(0xD1CE);
    let master = Master::new();
    let nh = validating_node(&master, "proj_victim");
    let topic = "verify/projected_reject";
    let raw = RawPublisher::register(&master, topic, SfmImage::type_name());

    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh.subscribe_with(
        topic,
        SubscriberOptions::new().project(&["header.frame_id", "height", "encoding"]),
        move |m: SfmShared<SfmImage>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
            assert_eq!(m.header.frame_id.as_str(), "cam0");
            assert_eq!(m.data.len(), 0, "unprojected field stays empty");
        },
    );
    let projection = sub.projection().expect("resolved").clone();
    let mut stream = raw.accept_project(SfmImage::type_name());

    // good, corrupt (residue in the unprojected data pair — a full-frame
    // leak), corrupt (selected pair offset escapes), good.
    write_frame(
        &mut stream,
        &projected_wire_bytes(&projection, &image_frame(&mut rng)),
    )
    .unwrap();
    let mut bad1 = projected_wire_bytes(&projection, &image_frame(&mut rng));
    write_u32(&mut bad1, core::mem::offset_of!(SfmImage, data), 48);
    write_u32(&mut bad1, core::mem::offset_of!(SfmImage, data) + 4, 64);
    write_frame(&mut stream, &bad1).unwrap();
    let mut bad2 = projected_wire_bytes(&projection, &image_frame(&mut rng));
    write_u32(
        &mut bad2,
        core::mem::offset_of!(SfmImage, encoding) + 4,
        u32::MAX,
    );
    write_frame(&mut stream, &bad2).unwrap();
    write_frame(
        &mut stream,
        &projected_wire_bytes(&projection, &image_frame(&mut rng)),
    )
    .unwrap();

    wait_until("2 good projected frames", || {
        seen.load(Ordering::SeqCst) == 2
    });
    wait_until("2 projected verify rejects", || {
        sub.stats().verify_rejects == 2
    });
    assert_eq!(sub.stats().frames_received, 2);
    assert_eq!(
        sub.stats().decode_errors,
        0,
        "rejects must be attributed to the projected verifier, not adoption"
    );
}

/// A valid spec: one to four of a schema's resolvable `paths`, in arbitrary
/// order (so not necessarily canonical).
fn valid_spec(paths: &[rossf_sfm::FieldPath], rng: &mut Rng) -> String {
    (0..1 + rng.below(4))
        .map(|_| paths[rng.below(paths.len())].to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// One seeded mutation of a projection spec, as the `project=` header value
/// can reach the publisher: the header parser has already required UTF-8
/// and capped the whole header at 64 KiB, so byte-level damage arrives as
/// replacement characters.
fn mutate_spec(spec: &str, rng: &mut Rng) -> String {
    const PUNCT: &[u8] = b",.[]";
    const LONG: usize = 64 * 1024;
    let mut bytes = spec.as_bytes().to_vec();
    let at = rng.below(bytes.len() + 1);
    match rng.below(6) {
        0 => {
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        2 => {
            let storm: Vec<u8> = (0..1 + rng.below(64))
                .map(|_| PUNCT[rng.below(PUNCT.len())])
                .collect();
            bytes.splice(at..at, storm);
        }
        3 => {
            let unit: &[u8] =
                [&b"a"[..], b"[", b"]", b",", b".", b"9", b"a.", b"a[0]"][rng.below(8)];
            let run = unit.iter().copied().cycle().take(LONG);
            bytes.splice(at..at, run);
        }
        4 => {
            // An index too long for any integer type.
            bytes.push(b'[');
            bytes.extend(std::iter::repeat_n(b'9', 20 + rng.below(LONG)));
            bytes.push(b']');
        }
        _ => {
            // A multi-byte character cut inside its encoding.
            let ch = ["é", "漢", "🙂"][rng.below(3)].as_bytes();
            bytes.splice(at..at, ch[..1 + rng.below(ch.len() - 1)].iter().copied());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The projection-spec parser is the last parser of peer-supplied bytes
/// (`project=` arrives on the publisher's accept path): whatever a
/// subscriber sends, `from_spec` / `FieldPath::parse` return — never panic
/// — and whatever they accept has a canonical form that re-parses to
/// itself, which is what the grant-by-echo handshake relies on. (Pins
/// behaviour the parent already had.)
#[test]
fn mutated_projection_specs_never_panic_and_accepted_ones_are_canonical() {
    use rossf_sfm::{FieldPath, SfmMessage};
    let mut rng = Rng::new(0x5BEC);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for schema in [SfmImage::schema(), SfmPointCloud2::schema()] {
        let schema = schema.expect("generated schema");
        let paths = schema.resolvable_paths();
        for round in 0..600 {
            // Every third spec goes through unmutated: valid input must
            // keep being accepted for the rejections to mean anything.
            let mut mutated = valid_spec(&paths, &mut rng);
            if round % 3 != 0 {
                mutated = mutate_spec(&mutated, &mut rng);
            }
            if let Ok(path) = FieldPath::parse(&mutated) {
                assert_eq!(FieldPath::parse(&path.to_string()).as_ref(), Ok(&path));
            }
            match Projection::from_spec(schema, &mutated) {
                Err(_) => rejected += 1,
                Ok(p) => {
                    accepted += 1;
                    let again = Projection::from_spec(schema, p.spec())
                        .expect("a canonical spec must resolve");
                    assert_eq!(again.spec(), p.spec(), "from {mutated:?}");
                }
            }
        }
    }
    assert!(accepted > 0, "nothing accepted — sweep too hostile");
    assert!(rejected > 0, "nothing rejected — sweep too tame");
}

/// The same garbage through a real publisher's handshake: a `project=` it
/// cannot resolve (or that is not canonical) is neither an error nor a
/// grant — the reply carries no echo and the link carries full frames,
/// frame after frame.
#[test]
fn garbage_projection_request_gets_full_frames_on_a_live_link() {
    use rossf_ros::wire::read_frame_len;
    use rossf_sfm::SfmMessage;
    use std::io::Read;
    let mut rng = Rng::new(0x9A8B);
    let schema = SfmImage::schema().expect("generated schema");
    let master = Master::new();
    let nh = NodeHandle::new(&master, "proj_pub");
    let topic = "verify/garbage_project";
    let publisher =
        nh.advertise_with::<SfmBox<SfmImage>>(topic, PublisherOptions::new().queue_size(8));
    let img = image_box(&mut rng);
    let full = img.publish_handle().as_slice().to_vec();

    let paths = schema.resolvable_paths();
    let mut specs = vec!["width,height".to_string()]; // valid, not canonical
    while specs.len() < 12 {
        let s = mutate_spec(&valid_spec(&paths, &mut rng), &mut rng);
        // Keep what the publisher would decline and the 64 KiB header cap
        // admits.
        let declined = Projection::from_spec(schema, &s).map_or(true, |p| p.spec() != s);
        if declined && s.len() < 60 * 1024 {
            specs.push(s);
        }
    }
    for (n, spec) in specs.iter().enumerate() {
        let mut stream = std::net::TcpStream::connect(publisher.addr()).unwrap();
        ConnectionHeader::new()
            .with("topic", topic)
            .with("type", SfmImage::type_name())
            .with("endian", ConnectionHeader::native_endian())
            .with(PROJECT_FIELD, spec.as_str())
            .write_to(&mut stream)
            .unwrap();
        let reply = ConnectionHeader::read_from(&mut stream).unwrap();
        assert_eq!(reply.get("error"), None, "spec {spec:?} refused the link");
        assert_eq!(reply.get(PROJECT_FIELD), None, "spec {spec:?} was granted");
        wait_until("raw subscriber spliced in", || {
            publisher.subscriber_count() == 1
        });
        for _ in 0..2 {
            publisher.publish(&img);
            let len = read_frame_len(&mut stream).unwrap().expect("link closed");
            let mut frame = vec![0u8; len];
            stream.read_exact(&mut frame).unwrap();
            assert_eq!(frame, full, "link {n}: not the full frame");
        }
        drop(stream);
        // The writer notices the close on its next write.
        wait_until("raw subscriber pruned", || {
            publisher.publish(&img);
            publisher.subscriber_count() == 0
        });
    }
}

#[test]
fn corrupt_frames_are_counted_and_skipped_without_killing_the_connection() {
    use rossf_sfm::SfmMessage;
    let mut rng = Rng::new(0xFACADE);
    let master = Master::new();
    let nh = validating_node(&master, "victim");
    let topic = "verify/reject_count";
    let raw = RawPublisher::register(&master, topic, SfmImage::type_name());

    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh.subscribe_with(
        topic,
        SubscriberOptions::new(),
        move |m: SfmShared<SfmImage>| {
            seen_cb.fetch_add(1, Ordering::SeqCst);
            assert_eq!(m.data.as_slice().len(), 48);
        },
    );
    let mut stream = raw.accept(SfmImage::type_name());

    // good, corrupt (data offset escapes), corrupt (forged encoding
    // length), good — the two bad frames are rejected by the verifier,
    // not by adoption, and the stream stays usable throughout.
    write_frame(&mut stream, &image_frame(&mut rng)).unwrap();
    let mut bad1 = image_frame(&mut rng);
    write_u32(
        &mut bad1,
        core::mem::offset_of!(SfmImage, data) + 4,
        u32::MAX,
    );
    write_frame(&mut stream, &bad1).unwrap();
    let mut bad2 = image_frame(&mut rng);
    write_u32(
        &mut bad2,
        core::mem::offset_of!(SfmImage, encoding),
        u32::MAX - 3,
    );
    write_frame(&mut stream, &bad2).unwrap();
    write_frame(&mut stream, &image_frame(&mut rng)).unwrap();

    wait_until("2 good frames", || seen.load(Ordering::SeqCst) == 2);
    wait_until("2 verify rejects", || sub.stats().verify_rejects == 2);
    assert_eq!(sub.stats().frames_received, 2);
    assert_eq!(
        sub.stats().decode_errors,
        0,
        "rejects must be attributed to the verifier, not adoption"
    );
}

/// A subscription's verify rejects are its own: two validating
/// subscriptions on one topic each reject one corrupt frame, and each
/// counts one while the topic counts both.
#[test]
fn each_subscription_counts_only_its_own_verify_rejects() {
    use rossf_sfm::SfmMessage;
    let mut rng = Rng::new(0x0DD5);
    let master = Master::new();
    let nh = validating_node(&master, "two_victims");
    let topic = "verify/own_rejects";
    let raw = RawPublisher::register(&master, topic, SfmImage::type_name());

    let subs: Vec<_> = (0..2)
        .map(|_| {
            let seen = Arc::new(AtomicU64::new(0));
            let seen_cb = Arc::clone(&seen);
            let sub = nh.subscribe_with(
                topic,
                SubscriberOptions::new(),
                move |_m: SfmShared<SfmImage>| {
                    seen_cb.fetch_add(1, Ordering::SeqCst);
                },
            );
            (sub, seen)
        })
        .collect();
    // Each link carries one corrupt frame, then a good one: once the good
    // one is delivered, the corrupt one before it has been judged.
    let _streams: Vec<_> = subs
        .iter()
        .map(|_| {
            let mut stream = raw.accept(SfmImage::type_name());
            let mut bad = image_frame(&mut rng);
            write_u32(
                &mut bad,
                core::mem::offset_of!(SfmImage, data) + 4,
                u32::MAX,
            );
            write_frame(&mut stream, &bad).unwrap();
            write_frame(&mut stream, &image_frame(&mut rng)).unwrap();
            stream
        })
        .collect();
    for (sub, seen) in &subs {
        wait_until("the good frame", || seen.load(Ordering::SeqCst) == 1);
        let stats = sub.stats();
        assert_eq!(stats.verify_rejects, 1, "only this link's reject");
        assert_eq!(stats.frames_received, 1);
    }
    let topic_rejects = master.metrics().topic(topic).verify_rejects;
    assert_eq!(topic_rejects, 2, "the topic counts both");
}
