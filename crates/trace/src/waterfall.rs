//! Snapshot types, the waterfall renderer, and the timeline checker.

use crate::hist::HistSnapshot;
use crate::ring::TraceEvent;
use crate::stage::{Stage, Tier};
use std::collections::HashMap;
use std::fmt::Write;

/// One non-empty (stage, tier) histogram cell of a topic.
#[derive(Debug, Clone)]
pub struct StageCell {
    /// Pipeline stage.
    pub stage: Stage,
    /// Transport tier.
    pub tier: Tier,
    /// The cell's histogram.
    pub hist: HistSnapshot,
}

/// All recorded cells of one topic, in stage order.
#[derive(Debug, Clone)]
pub struct TopicSnapshot {
    /// Topic name.
    pub topic: String,
    /// Non-empty cells, ordered by (stage, tier).
    pub cells: Vec<StageCell>,
}

impl TopicSnapshot {
    /// Sum of the per-stage *means* over pipeline stages, nanoseconds —
    /// the telescoping estimate of this hop's end-to-end cost. `Fault`
    /// cells and (optionally) the callback stage are excluded: a relay
    /// hop's callback contains the next hop's publish work, which the next
    /// topic's own stages already account for.
    pub fn stage_sum_ns(&self, include_callback: bool) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.stage != Stage::Fault)
            .filter(|c| include_callback || c.stage != Stage::Callback)
            .map(|c| c.hist.mean_ns())
            .sum()
    }
}

fn fmt_us(ns: f64) -> String {
    format!("{:10.2}", ns / 1_000.0)
}

/// Render topic snapshots as aligned per-stage waterfall tables
/// (durations in microseconds) — the `sfm_trace` CLI's human output.
pub fn render_waterfall(snapshots: &[TopicSnapshot]) -> String {
    let mut out = String::new();
    for snap in snapshots {
        if snap.cells.is_empty() {
            continue;
        }
        let _ = writeln!(out, "topic {}", snap.topic);
        let _ = writeln!(
            out,
            "  {:<12} {:<9} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "stage", "tier", "count", "mean_us", "p50_us", "p99_us", "max_us"
        );
        for cell in &snap.cells {
            let h = &cell.hist;
            let _ = writeln!(
                out,
                "  {:<12} {:<9} {:>8} {} {} {} {}",
                cell.stage.name(),
                cell.tier.name(),
                h.count,
                fmt_us(h.mean_ns()),
                fmt_us(h.quantile_ns(0.5)),
                fmt_us(h.quantile_ns(0.99)),
                fmt_us(h.max_ns as f64),
            );
        }
        let _ = writeln!(
            out,
            "  {:<12} {:<9} {:>8} {}",
            "sum(stages)",
            "",
            "",
            fmt_us(snap.stage_sum_ns(true))
        );
    }
    out
}

/// Verify the raw timeline is causally consistent: for every trace id, the
/// recorded span ends must be non-decreasing in time *and* strictly
/// increasing in pipeline-stage order (a message cannot be adopted before
/// it was enqueued). Fault events (trace id 0) are exempt.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn check_monotone(events: &[TraceEvent]) -> Result<(), String> {
    let mut last: HashMap<u64, (u64, Stage)> = HashMap::new();
    for e in events {
        if e.trace_id == 0 {
            continue;
        }
        if let Some(&(prev_ts, prev_stage)) = last.get(&e.trace_id) {
            if e.ts_ns < prev_ts {
                return Err(format!(
                    "trace {} went back in time: {} at {} ns after {} at {} ns",
                    e.trace_id,
                    e.stage.name(),
                    e.ts_ns,
                    prev_stage.name(),
                    prev_ts
                ));
            }
            if e.stage <= prev_stage {
                return Err(format!(
                    "trace {} stage order violated: {} recorded after {}",
                    e.trace_id,
                    e.stage.name(),
                    prev_stage.name()
                ));
            }
        }
        last.insert(e.trace_id, (e.ts_ns, e.stage));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::StageHist;
    use std::sync::Arc;

    fn cell(stage: Stage, tier: Tier, samples: &[u64]) -> StageCell {
        let h = StageHist::new();
        for &s in samples {
            h.record(s);
        }
        StageCell {
            stage,
            tier,
            hist: h.snapshot(),
        }
    }

    #[test]
    fn stage_sum_excludes_fault_and_optionally_callback() {
        let snap = TopicSnapshot {
            topic: "t".into(),
            cells: vec![
                cell(Stage::Encode, Tier::Fastpath, &[100]),
                cell(Stage::Adopt, Tier::Fastpath, &[200]),
                cell(Stage::Callback, Tier::Fastpath, &[300]),
                cell(Stage::Fault, Tier::Fastpath, &[1_000_000]),
            ],
        };
        assert_eq!(snap.stage_sum_ns(true), 600.0);
        assert_eq!(snap.stage_sum_ns(false), 300.0);
    }

    #[test]
    fn waterfall_renders_all_cells() {
        let snap = TopicSnapshot {
            topic: "cam/img".into(),
            cells: vec![
                cell(Stage::Encode, Tier::Fastpath, &[1_000, 2_000]),
                cell(Stage::Callback, Tier::Fastpath, &[500]),
            ],
        };
        let text = render_waterfall(&[snap]);
        assert!(text.contains("topic cam/img"));
        assert!(text.contains("encode"));
        assert!(text.contains("fastpath"));
        assert!(text.contains("callback"));
        assert!(text.contains("sum(stages)"));
        // Empty snapshots render nothing.
        assert!(render_waterfall(&[TopicSnapshot {
            topic: "x".into(),
            cells: vec![]
        }])
        .is_empty());
    }

    fn ev(id: u64, ts: u64, stage: Stage) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            trace_id: id,
            topic: Arc::from("t"),
            stage,
            tier: Tier::Tcp,
            dur_ns: 0,
        }
    }

    #[test]
    fn monotone_accepts_ordered_timelines() {
        let events = vec![
            ev(1, 10, Stage::Encode),
            ev(2, 12, Stage::Encode),
            ev(1, 20, Stage::Enqueue),
            ev(0, 5, Stage::Fault), // faults exempt
            ev(1, 30, Stage::Callback),
            ev(2, 35, Stage::Adopt),
        ];
        check_monotone(&events).unwrap();
    }

    #[test]
    fn monotone_rejects_time_and_stage_violations() {
        let back_in_time = vec![ev(1, 20, Stage::Encode), ev(1, 10, Stage::Adopt)];
        assert!(check_monotone(&back_in_time)
            .unwrap_err()
            .contains("back in time"));
        let stage_order = vec![ev(1, 10, Stage::Adopt), ev(1, 20, Stage::Encode)];
        assert!(check_monotone(&stage_order)
            .unwrap_err()
            .contains("stage order"));
    }
}
