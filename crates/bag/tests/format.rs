//! On-disk format tests: roundtrip, index fidelity, crash recovery, and a
//! deterministic corruption harness in the style of
//! `crates/msg/tests/verify_corruption.rs` — every structural mutation must
//! be rejected with a diagnostic, never mis-read.

use rossf_bag::format::{FOOTER_TAIL_LEN, PAYLOAD_ALIGN};
use rossf_bag::{build_schedule, fnv1a64, BagError, BagReader, BagWriter, Fnv64};
use std::time::Duration;

/// Build a two-topic bag with interleaved frames. Returns the finished
/// bytes and the body length (offset where the footer begins).
fn sample_bag() -> (Vec<u8>, u64) {
    let mut w = BagWriter::new(Vec::new()).unwrap();
    let cam = w
        .add_connection("camera/image", "sensor_msgs/Image", 0xabcd)
        .unwrap();
    let pose = w
        .add_connection("slam/pose", "geometry_msgs/PoseStamped", 0x1234)
        .unwrap();
    for i in 0..8u64 {
        let img: Vec<u8> = (0..48).map(|b| (b as u64 + i) as u8).collect();
        w.append(cam, 1_000 * i, &img).unwrap();
        if i % 2 == 0 {
            let p: Vec<u8> = vec![i as u8; 17];
            w.append(pose, 1_000 * i + 500, &p).unwrap();
        }
    }
    let body_len = w.bytes_written();
    let (summary, bytes) = w.finish().unwrap();
    assert_eq!(summary.frames, 12);
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.bytes as usize, bytes.len());
    (bytes, body_len)
}

#[test]
fn roundtrip_with_footer_index() {
    let (bytes, _) = sample_bag();
    let r = BagReader::from_bytes_strict(&bytes).unwrap();
    assert!(!r.recovered());
    assert_eq!(r.frame_count(), 12);
    let conns = r.connections();
    assert_eq!(conns.len(), 2);
    assert_eq!(conns[0].topic, "camera/image");
    assert_eq!(conns[0].type_name, "sensor_msgs/Image");
    assert_eq!(conns[0].schema_hash, 0xabcd);
    assert_eq!(r.connection("slam/pose").unwrap().id, 1);
    assert_eq!(r.entries(0).len(), 8);
    assert_eq!(r.entries(1).len(), 4);
    // Payload bytes come back verbatim, at aligned offsets.
    for (i, e) in r.entries(0).iter().enumerate() {
        assert_eq!(e.stamp_nanos, 1_000 * i as u64);
        let payload = r.frame_bytes(e).unwrap();
        let want: Vec<u8> = (0..48).map(|b| (b as u64 + i as u64) as u8).collect();
        assert_eq!(payload, &want[..]);
        assert_eq!(payload.as_ptr() as usize % PAYLOAD_ALIGN, 0);
    }
    assert_eq!(r.stamp_range(), Some((0, 7_000)));
    // File order preserves the interleaving.
    let order: Vec<u32> = r.frames_in_order().iter().map(|(c, _)| *c).collect();
    assert_eq!(&order[..4], &[0, 1, 0, 0]);
}

#[test]
fn empty_bag_roundtrips() {
    let (summary, bytes) = BagWriter::new(Vec::new()).unwrap().finish().unwrap();
    assert_eq!((summary.frames, summary.connections), (0, 0));
    assert!(bytes.starts_with(rossf_bag::format::MAGIC));
    let r = BagReader::from_bytes_strict(&bytes).unwrap();
    assert_eq!(r.frame_count(), 0);
    assert!(r.connections().is_empty());
    assert!(r.frames_in_order().is_empty());
}

#[test]
fn footerless_bag_recovers_complete_prefix() {
    let (bytes, body_len) = sample_bag();
    // Simulate a crash before finish(): the footer never hit the disk.
    let torn = &bytes[..body_len as usize];
    let r = BagReader::from_bytes(torn).unwrap();
    assert!(r.recovered());
    assert_eq!(r.lost_tail_bytes(), 0, "body was complete");
    assert_eq!(r.frame_count(), 12);
    assert_eq!(r.entries(0).len(), 8);
    // Strict mode refuses the same file.
    let err = BagReader::from_bytes_strict(torn).unwrap_err();
    assert!(matches!(err, BagError::Corrupt { .. }), "got {err}");
    assert!(
        err.to_string().contains("footer"),
        "diagnostic names the footer: {err}"
    );
}

#[test]
fn torn_frame_is_dropped_by_recovery() {
    let (bytes, body_len) = sample_bag();
    // Cut into the middle of the last frame record.
    let torn = &bytes[..body_len as usize - 7];
    let r = BagReader::from_bytes(torn).unwrap();
    assert!(r.recovered());
    assert!(r.lost_tail_bytes() > 0);
    assert_eq!(r.frame_count(), 11, "exactly the torn frame is lost");
    // Every surviving frame still reads back.
    for conn in 0..2u32 {
        for e in r.entries(conn) {
            r.frame_bytes(e).unwrap();
        }
    }
}

#[test]
fn every_truncation_point_recovers_or_rejects() {
    // Sweep truncation through the whole body: recovery must always parse
    // a complete prefix (frames readable) and never panic or mis-read.
    let (bytes, body_len) = sample_bag();
    let full = BagReader::from_bytes(&bytes).unwrap();
    let total = full.frame_count();
    let mut last_count = 0;
    for cut in (16..=body_len as usize).rev().step_by(5) {
        let r = BagReader::from_bytes(&bytes[..cut]).unwrap();
        assert!(r.recovered());
        assert!(r.frame_count() <= total);
        for conn in 0..r.connections().len() as u32 {
            for e in r.entries(conn) {
                r.frame_bytes(e).unwrap();
            }
        }
        last_count = last_count.max(r.frame_count());
    }
    assert_eq!(last_count, total, "longest prefix keeps every frame");
}

#[test]
fn bad_magic_rejected() {
    let (mut bytes, _) = sample_bag();
    bytes[0] ^= 0xff;
    for strict in [false, true] {
        let err = if strict {
            BagReader::from_bytes_strict(&bytes).unwrap_err()
        } else {
            BagReader::from_bytes(&bytes).unwrap_err()
        };
        assert!(err.to_string().contains("magic"), "{err}");
    }
}

#[test]
fn wrong_version_rejected() {
    let (mut bytes, _) = sample_bag();
    bytes[10] = 9;
    let err = BagReader::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn truncated_tail_rejected_in_strict_mode() {
    let (bytes, _) = sample_bag();
    for cut in 1..FOOTER_TAIL_LEN {
        let err = BagReader::from_bytes_strict(&bytes[..bytes.len() - cut]).unwrap_err();
        assert!(matches!(err, BagError::Corrupt { .. }), "cut {cut}: {err}");
    }
}

#[test]
fn footer_checksum_mismatch_rejected() {
    let (mut bytes, _) = sample_bag();
    // Flip one byte inside the footer body without re-checksumming.
    let body_len_at = bytes.len() - FOOTER_TAIL_LEN;
    bytes[body_len_at - 10] ^= 0x01;
    let err = BagReader::from_bytes(&bytes).unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
}

/// Patch a footer-body byte range and re-checksum so the footer itself is
/// self-consistent — the damage must then be caught by the cross-checks.
fn patch_footer(bytes: &mut [u8], find: &[u8], replace: &[u8]) {
    let tail_at = bytes.len() - FOOTER_TAIL_LEN;
    let body_len = u32::from_le_bytes(bytes[tail_at..tail_at + 4].try_into().unwrap()) as usize;
    let body_at = tail_at - body_len;
    let pos = bytes[body_at..tail_at]
        .windows(find.len())
        .position(|w| w == find)
        .expect("pattern present in footer body");
    bytes[body_at + pos..body_at + pos + replace.len()].copy_from_slice(replace);
    let sum = fnv1a64(&bytes[body_at..tail_at]) as u32;
    bytes[tail_at + 4..tail_at + 8].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn index_offset_mismatch_rejected() {
    let (bytes, _) = sample_bag();
    let clean = BagReader::from_bytes(&bytes).unwrap();
    let victim = clean.entries(0)[3];
    // Re-point the entry at a bogus offset, with a valid checksum.
    let mut evil = bytes.clone();
    patch_footer(
        &mut evil,
        &victim.offset.to_le_bytes(),
        &(victim.offset + 1).to_le_bytes(),
    );
    // Tolerant open trusts the checksummed footer...
    let r = BagReader::from_bytes(&evil).unwrap();
    // ...but reading through the lying entry is caught,
    let entry = r.entries(0)[3];
    let err = r.frame_bytes(&entry).unwrap_err();
    assert!(matches!(err, BagError::Corrupt { .. }), "{err}");
    // ...and strict verification rejects the whole bag with a diagnostic.
    let err = BagReader::from_bytes_strict(&evil).unwrap_err();
    assert!(
        err.to_string().contains("camera/image") || err.to_string().contains("record"),
        "diagnostic points at the damage: {err}"
    );
}

#[test]
fn frame_trailer_corruption_rejected() {
    let (bytes, _) = sample_bag();
    let clean = BagReader::from_bytes(&bytes).unwrap();
    let e = clean.entries(1)[2];
    // The trailer sits right after the payload; recompute its position.
    let payload = clean.frame_bytes(&e).unwrap();
    let trailer_at = payload.as_ptr() as usize - clean.addr_range().0 + payload.len();
    drop(clean);
    let mut evil = bytes.clone();
    evil[trailer_at] ^= 0x40;
    let r = BagReader::from_bytes(&evil).unwrap();
    let err = r.frame_bytes(&r.entries(1)[2]).unwrap_err();
    assert!(err.to_string().contains("trailer"), "{err}");
    let err = BagReader::from_bytes_strict(&evil).unwrap_err();
    assert!(matches!(err, BagError::Corrupt { .. }), "{err}");
}

#[test]
fn unknown_record_kind_rejected() {
    let (bytes, _) = sample_bag();
    let clean = BagReader::from_bytes(&bytes).unwrap();
    let first_frame = clean.entries(0)[0].offset as usize;
    drop(clean);
    let mut evil = bytes.clone();
    evil[first_frame] = 0x7f;
    let err = BagReader::from_bytes_strict(&evil).unwrap_err();
    assert!(err.to_string().contains("kind"), "{err}");
}

#[test]
fn writer_clamps_stamp_regressions() {
    let mut w = BagWriter::new(Vec::new()).unwrap();
    let c = w.add_connection("t", "T", 0).unwrap();
    w.append(c, 5_000, &[1u8; 8]).unwrap();
    w.append(c, 3_000, &[2u8; 8]).unwrap(); // regression: clamped to 5_000
    w.append(c, 9_000, &[3u8; 8]).unwrap();
    let (_, bytes) = w.finish().unwrap();
    let r = BagReader::from_bytes_strict(&bytes).unwrap();
    let stamps: Vec<u64> = r.entries(c).iter().map(|e| e.stamp_nanos).collect();
    assert_eq!(stamps, vec![5_000, 5_000, 9_000]);
}

#[test]
fn empty_payload_and_bad_connection_refused_by_writer() {
    let mut w = BagWriter::new(Vec::new()).unwrap();
    let c = w.add_connection("t", "T", 0).unwrap();
    assert!(w.append(c, 0, &[]).is_err());
    assert!(matches!(
        w.append(99, 0, &[1]),
        Err(BagError::UnknownConnection(99))
    ));
}

#[test]
fn fnv_streaming_matches_oneshot() {
    let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
    let mut f = Fnv64::new();
    for chunk in data.chunks(17) {
        f.update(chunk);
    }
    assert_eq!(f.digest(), fnv1a64(&data));
    assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
}

#[test]
fn schedule_merges_by_stamp_and_scales_rate() {
    let (bytes, _) = sample_bag();
    let r = BagReader::from_bytes(&bytes).unwrap();
    let s = build_schedule(&r, &[0, 1], 1.0);
    assert_eq!(s.items.len(), 12);
    // Stamps are non-decreasing across the merged stream.
    let stamps: Vec<u64> = s.items.iter().map(|i| i.entry.stamp_nanos).collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    // camera at t, pose at t+500: delays alternate 500ns / 500ns / 1000ns...
    assert_eq!(s.items[0].delay, Duration::ZERO);
    assert_eq!(s.items[1].delay, Duration::from_nanos(500));
    // Doubling the rate halves every delay.
    let fast = build_schedule(&r, &[0, 1], 2.0);
    for (a, b) in s.items.iter().zip(&fast.items) {
        assert_eq!(a.delay.as_nanos(), b.delay.as_nanos() * 2);
    }
    assert!(s.loop_gap > Duration::ZERO);
}
