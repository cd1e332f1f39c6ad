//! Deterministic self-test behind `sfm_trace --self-test`.
//!
//! Runs entirely on a private [`Tracer`] instance (the global collector is
//! untouched), so it is safe to invoke in CI next to other tracing users.

use crate::hist::{bucket_floor, bucket_index, StageHist, BUCKETS};
use crate::ring::EventRing;
use crate::stage::{Stage, Tier};
use crate::waterfall::{check_monotone, render_waterfall};
use crate::{FrameMeta, Tracer};

fn fail(check: &str, detail: String) -> String {
    format!("self-test `{check}` failed: {detail}")
}

fn check_buckets() -> Result<(), String> {
    let cases: [(u64, usize); 7] = [
        (0, 0),
        (1, 0),
        (2, 1),
        (1023, 9),
        (1024, 10),
        (1025, 10),
        (u64::MAX, 63),
    ];
    for (ns, want) in cases {
        let got = bucket_index(ns);
        if got != want {
            return Err(fail(
                "buckets",
                format!("bucket_index({ns}) = {got}, want {want}"),
            ));
        }
    }
    for i in 1..BUCKETS {
        if bucket_index(bucket_floor(i)) != i {
            return Err(fail(
                "buckets",
                format!("floor of bucket {i} maps elsewhere"),
            ));
        }
    }
    let h = StageHist::new();
    for ns in [3u64, 30, 300, 3_000] {
        h.record(ns);
    }
    let s = h.snapshot();
    if s.count != 4 || s.sum_ns != 3_333 || s.min_ns != 3 || s.max_ns != 3_000 {
        return Err(fail("buckets", format!("aggregate mismatch: {s:?}")));
    }
    Ok(())
}

fn check_frame_meta() -> Result<(), String> {
    let meta = FrameMeta {
        trace_id: 0x0807_0605_0403_0201,
        sent_ns: 0x100f_0e0d_0c0b_0a09,
    };
    let bytes = meta.to_le_bytes();
    let want: Vec<u8> = (1..=16).collect();
    if bytes[..] != want[..] || FrameMeta::LEN != 16 {
        return Err(fail(
            "frame_meta",
            format!("layout is not 16 little-endian bytes, id first: {bytes:?}"),
        ));
    }
    for meta in [
        meta,
        FrameMeta::default(),
        FrameMeta {
            trace_id: u64::MAX,
            sent_ns: 1,
        },
    ] {
        let back = FrameMeta::from_le_bytes(meta.to_le_bytes());
        if back != meta {
            return Err(fail(
                "frame_meta",
                format!("{meta:?} came back as {back:?}"),
            ));
        }
    }
    Ok(())
}

fn check_ring() -> Result<(), String> {
    let ring = EventRing::new(8);
    let t = Tracer::new();
    for _ in 0..20 {
        ring.push(crate::TraceEvent {
            ts_ns: 1,
            trace_id: t.next_trace_id(),
            topic: std::sync::Arc::from("ring"),
            stage: Stage::Encode,
            tier: Tier::Fastpath,
            dur_ns: 1,
        });
    }
    if ring.len() != 8 {
        return Err(fail("ring", format!("not bounded: len = {}", ring.len())));
    }
    let events = ring.drain_copy();
    if events.first().map(|e| e.trace_id) != Some(13) {
        return Err(fail("ring", "oldest events were not evicted first".into()));
    }
    Ok(())
}

fn check_pipeline() -> Result<(), String> {
    // A synthetic three-message pipeline over all three tiers, recorded into
    // a private tracer, must come out monotone and render a waterfall.
    let t = Tracer::new();
    t.arm();
    let table = t.topic("selftest/pipeline");
    for (i, tier) in Tier::ALL.iter().enumerate() {
        let id = t.next_trace_id();
        let base = (i as u64 + 1) * 1_000_000;
        let mut ts = base;
        for stage in [
            Stage::Alloc,
            Stage::Encode,
            Stage::Enqueue,
            Stage::WireWrite,
            Stage::WireRead,
            Stage::Verify,
            Stage::Adopt,
            Stage::Callback,
        ] {
            let dur = 100 + stage.index() as u64 * 50;
            t.span(&table, stage, *tier, id, ts, ts + dur);
            ts += dur;
        }
    }
    t.fault_event("selftest/link", Tier::Tcp, 500);
    check_monotone(&t.events()).map_err(|e| fail("pipeline", e))?;
    if t.hist_writes() != 8 * Tier::ALL.len() as u64 {
        return Err(fail(
            "pipeline",
            format!("hist_writes = {}", t.hist_writes()),
        ));
    }
    let snaps = t.snapshot();
    let text = render_waterfall(&snaps);
    for needle in ["selftest/pipeline", "wire_write", "fastpath", "sum(stages)"] {
        if !text.contains(needle) {
            return Err(fail(
                "pipeline",
                format!("waterfall missing `{needle}`:\n{text}"),
            ));
        }
    }
    let snap = &snaps[0];
    // All stage durations are exact here, so the telescoped sum must equal
    // one message's end-to-end extent per tier (one cell per stage × tier).
    let per_msg: f64 = (0..8).map(|i| 100.0 + i as f64 * 50.0).sum();
    let sum = snap.stage_sum_ns(true);
    let want = per_msg * Tier::ALL.len() as f64;
    if (sum - want).abs() > 1e-6 {
        return Err(fail(
            "pipeline",
            format!("stage sum {sum} != synthetic e2e {want}"),
        ));
    }
    t.reset();
    if t.hist_writes() != 0 || !t.events().is_empty() {
        return Err(fail("pipeline", "reset left data behind".into()));
    }
    Ok(())
}

/// Run every deterministic check; `Err` carries the first failure.
///
/// # Errors
///
/// A description of the first failing check.
pub fn self_test() -> Result<(), String> {
    check_buckets()?;
    check_frame_meta()?;
    check_ring()?;
    check_pipeline()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }
}
