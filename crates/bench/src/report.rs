//! Machine-readable benchmark output.
//!
//! A harness binary run with `--out DIR` writes `DIR/BENCH_<fig>.json`
//! next to its human-readable table so runs can be diffed and plotted
//! without scraping stdout; without `--out` nothing is written
//! (`scripts/figures.sh` is the one caller that passes it, and what it
//! collects is `results/`). The JSON is hand-rolled (the workspace carries
//! no serde) and intentionally flat: one object per measured scenario
//! with the latency percentiles and derived throughput.

use crate::stats::Stats;
use rossf_trace::{Stage, TopicSnapshot};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Provenance of one benchmark run, embedded in every report document so a
/// results file can be matched to the code and build that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// `git rev-parse HEAD` of the working tree with `+dirty` appended when
    /// the tree has uncommitted changes, or `"unknown"` outside a
    /// repository.
    pub git_sha: String,
    /// UTC wall-clock time of the run, `YYYY-MM-DDTHH:MM:SSZ`.
    pub timestamp_utc: String,
    /// Cargo profile the harness was compiled under.
    pub profile: &'static str,
}

impl RunMeta {
    /// Capture the current process's provenance.
    pub fn capture() -> RunMeta {
        let git = |args: &[&str]| {
            Command::new("git")
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
        };
        let git_sha = provenance(
            git(&["rev-parse", "HEAD"]).as_deref(),
            git(&["status", "--porcelain"]).as_deref().unwrap_or(""),
        );
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        RunMeta {
            git_sha,
            timestamp_utc: utc_timestamp(secs),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// The provenance string for a tree at `head` whose `git status
/// --porcelain` output is `porcelain`: numbers measured on uncommitted
/// code must not pass for the commit underneath it.
fn provenance(head: Option<&str>, porcelain: &str) -> String {
    match head.map(str::trim).filter(|h| !h.is_empty()) {
        None => "unknown".to_string(),
        Some(head) if porcelain.trim().is_empty() => head.to_string(),
        Some(head) => format!("{head}+dirty"),
    }
}

/// Format seconds-since-Unix-epoch as `YYYY-MM-DDTHH:MM:SSZ` (the workspace
/// carries no date crate; the civil-date conversion is the standard
/// days-to-date algorithm).
fn utc_timestamp(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let rem = unix_secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem / 60) % 60, rem % 60);
    // Shift epoch from 1970-01-01 to 0000-03-01 so leap days land at the
    // end of the (shifted) year.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// One measured scenario: a (series, payload) cell of a figure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioReport {
    /// Human-readable scenario label, e.g. `"sfm ten_gbe 800x600"`.
    pub scenario: String,
    /// Payload size carried per message, in bytes.
    pub payload_bytes: u64,
    /// Median end-to-end latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, milliseconds.
    pub p99_ms: f64,
    /// Sustained message rate implied by the mean latency. The harness
    /// keeps exactly one message in flight (Fig. 12 protocol), so rate
    /// is the reciprocal of the mean round time.
    pub msgs_per_s: f64,
    /// Payload throughput implied by `msgs_per_s`.
    pub bytes_per_s: f64,
    /// Messages delivered per second of process CPU time (user + system),
    /// when the scenario measures it (the soak report). Recorded, not
    /// gated.
    pub msgs_per_cpu_s: Option<f64>,
    /// Live threads of the harness process at steady state, when the
    /// scenario measures resource footprint (the soak report). The
    /// reactor keeps this independent of link count, and the soak's own
    /// gate holds it there.
    pub threads: Option<u64>,
    /// Open descriptors (`/proc/self/fd`) at steady state, when measured.
    pub fds: Option<u64>,
    /// Resident set size (`VmRSS`) in kB at steady state, when measured.
    /// Recorded for trend-watching, not gated (allocator noise).
    pub rss_kb: Option<u64>,
    /// Wire bytes the publisher pushed over the scenario, when the harness
    /// samples transport counters. Projected subscriptions make this
    /// diverge from `payload_bytes × messages`; recorded, not gated.
    pub bytes_sent: Option<u64>,
    /// Wire bytes the subscriber accepted over the scenario, when measured.
    pub bytes_received: Option<u64>,
    /// Frames a bag recorder's capture taps accepted during the scenario
    /// (the `bag_gate` report). Recorded, not latency-gated.
    pub bag_frames_recorded: Option<u64>,
    /// Frames the recorder shed because its bounded writer queue was full;
    /// the bag gate requires this to stay 0.
    pub bag_frames_dropped: Option<u64>,
    /// Payload bytes accepted for bag writing during the scenario.
    pub bag_bytes_written: Option<u64>,
    /// Frames a bag replayer re-published during the scenario.
    pub bag_frames_replayed: Option<u64>,
}

impl ScenarioReport {
    /// Derive a report row from a latency summary.
    pub fn from_stats(scenario: &str, payload_bytes: u64, stats: &Stats) -> ScenarioReport {
        let msgs_per_s = if stats.mean_ms > 0.0 {
            1000.0 / stats.mean_ms
        } else {
            0.0
        };
        ScenarioReport {
            scenario: scenario.to_string(),
            payload_bytes,
            p50_ms: stats.p50_ms,
            p99_ms: stats.p99_ms,
            msgs_per_s,
            bytes_per_s: msgs_per_s * payload_bytes as f64,
            bytes_sent: stats.wire_bytes.map(|(sent, _)| sent),
            bytes_received: stats.wire_bytes.map(|(_, received)| received),
            ..ScenarioReport::default()
        }
    }

    /// Attach steady-state process counts (soak report rows).
    pub fn with_process_counts(mut self, threads: u64, fds: u64, rss_kb: u64) -> ScenarioReport {
        self.threads = Some(threads);
        self.fds = Some(fds);
        self.rss_kb = Some(rss_kb);
        self
    }

    /// Attach measured wire-byte totals (rows sampling transport counters).
    pub fn with_wire_bytes(mut self, sent: u64, received: u64) -> ScenarioReport {
        self.bytes_sent = Some(sent);
        self.bytes_received = Some(received);
        self
    }

    /// Attach bag recorder/replayer counters (the `bag_gate` report rows).
    pub fn with_bag_counts(
        mut self,
        recorded: u64,
        dropped: u64,
        bytes: u64,
        replayed: u64,
    ) -> ScenarioReport {
        self.bag_frames_recorded = Some(recorded);
        self.bag_frames_dropped = Some(dropped);
        self.bag_bytes_written = Some(bytes);
        self.bag_frames_replayed = Some(replayed);
        self
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON has no NaN/Infinity literals; clamp pathological values to 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.000000".to_string()
    }
}

fn meta_fragment(meta: &RunMeta) -> String {
    format!(
        "  \"meta\": {{\"git_sha\": \"{}\", \"timestamp_utc\": \"{}\", \"profile\": \"{}\"}},\n",
        escape(&meta.git_sha),
        escape(&meta.timestamp_utc),
        meta.profile,
    )
}

/// Render the report document for `fig` (e.g. `"fig16"`).
pub fn render_json(fig: &str, meta: &RunMeta, rows: &[ScenarioReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"fig\": \"{}\",\n", escape(fig)));
    out.push_str(&meta_fragment(meta));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let mut counts = String::new();
        if let Some(v) = r.msgs_per_cpu_s {
            counts.push_str(&format!(", \"msgs_per_cpu_s\": {}", num(v)));
        }
        for (key, v) in [
            ("threads", r.threads),
            ("fds", r.fds),
            ("rss_kb", r.rss_kb),
            ("bytes_sent", r.bytes_sent),
            ("bytes_received", r.bytes_received),
            ("bag_frames_recorded", r.bag_frames_recorded),
            ("bag_frames_dropped", r.bag_frames_dropped),
            ("bag_bytes_written", r.bag_bytes_written),
            ("bag_frames_replayed", r.bag_frames_replayed),
        ] {
            if let Some(v) = v {
                counts.push_str(&format!(", \"{key}\": {v}"));
            }
        }
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"payload_bytes\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"msgs_per_s\": {}, \"bytes_per_s\": {}{}}}{}\n",
            escape(&r.scenario),
            r.payload_bytes,
            num(r.p50_ms),
            num(r.p99_ms),
            num(r.msgs_per_s),
            num(r.bytes_per_s),
            counts,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write the document `render` produces to `<out>/<name>` when the run was
/// given `--out DIR`, creating the directory if needed; without it nothing
/// is rendered or written. Returns the path written, if any.
fn write_doc(
    out: Option<&Path>,
    name: &str,
    render: impl FnOnce(&RunMeta) -> String,
) -> io::Result<Option<PathBuf>> {
    let Some(dir) = out else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::File::create(&path)?.write_all(render(&RunMeta::capture()).as_bytes())?;
    // stderr: stdout is the figure's table, which `figures.sh` keeps.
    eprintln!("wrote {}", path.display());
    Ok(Some(path))
}

/// Write `<out>/BENCH_<fig>.json` (see [`RunArgs::out`](crate::RunArgs)).
pub fn write_report(
    out: Option<&Path>,
    fig: &str,
    rows: &[ScenarioReport],
) -> io::Result<Option<PathBuf>> {
    write_doc(out, &format!("BENCH_{fig}.json"), |meta| {
        render_json(fig, meta, rows)
    })
}

/// The soak's descriptor gate: fds track links, not churn history, so fds
/// *per link* at the largest scale must sit within 10 % of the smallest
/// scale's. Each argument is `(fds, links)`.
pub fn fds_track_links(smallest: (u64, u64), largest: (u64, u64)) -> bool {
    let per_link = |(fds, links): (u64, u64)| fds as f64 / links as f64;
    let (small, large) = (per_link(smallest), per_link(largest));
    (large - small).abs() <= 0.10 * small
}

/// One measured tier of a figure's trace section: a stage-latency waterfall
/// plus the end-to-end latency it should telescope to.
#[derive(Debug, Clone)]
pub struct TraceWaterfall {
    /// Series label, e.g. `"tcp"`, `"fastpath"`, `"shm"`.
    pub label: String,
    /// The per-topic stage histograms collected during the run.
    pub snapshot: TopicSnapshot,
    /// Mean end-to-end latency measured by the harness, microseconds.
    pub e2e_mean_us: f64,
}

impl TraceWaterfall {
    /// Print a traced run's stage waterfall and its telescoping summary
    /// line (closed by `note`), and keep both as one tier of a trace
    /// report.
    pub fn print(
        label: &str,
        stats: &Stats,
        snapshot: TopicSnapshot,
        note: &str,
    ) -> TraceWaterfall {
        print!(
            "{}",
            rossf_trace::render_waterfall(std::slice::from_ref(&snapshot))
        );
        let wf = TraceWaterfall {
            label: label.to_string(),
            snapshot,
            e2e_mean_us: stats.mean_ms * 1_000.0,
        };
        println!(
            "{label:<9} e2e mean {:>10.1} µs, stage sum {:>10.1} µs, error {:>5.1}%{note}\n",
            wf.e2e_mean_us,
            wf.stage_sum_us(),
            wf.sum_error() * 100.0
        );
        wf
    }

    /// Sum of per-stage mean durations (callback included, faults
    /// excluded), microseconds. Stages telescope, so this should land near
    /// `e2e_mean_us`.
    pub fn stage_sum_us(&self) -> f64 {
        self.snapshot.stage_sum_ns(true) / 1e3
    }

    /// `|stage_sum − e2e| / e2e`, the telescoping-consistency measure the
    /// harness gates on (0 when e2e was not measured).
    pub fn sum_error(&self) -> f64 {
        if self.e2e_mean_us > 0.0 {
            (self.stage_sum_us() - self.e2e_mean_us).abs() / self.e2e_mean_us
        } else {
            0.0
        }
    }
}

/// Render the trace document for `fig` (e.g. `"fig16"`).
pub fn render_trace_json(fig: &str, meta: &RunMeta, tiers: &[TraceWaterfall]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"fig\": \"{}\",\n", escape(fig)));
    out.push_str(&meta_fragment(meta));
    out.push_str("  \"tiers\": [\n");
    for (i, t) in tiers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tier\": \"{}\", \"topic\": \"{}\", \"e2e_mean_us\": {}, \"stage_sum_us\": {}, \"sum_error\": {}, \"stages\": [\n",
            escape(&t.label),
            escape(&t.snapshot.topic),
            num(t.e2e_mean_us),
            num(t.stage_sum_us()),
            num(t.sum_error()),
        ));
        let cells: Vec<_> = t
            .snapshot
            .cells
            .iter()
            .filter(|c| c.stage != Stage::Fault)
            .collect();
        for (j, c) in cells.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"stage\": \"{}\", \"tier\": \"{}\", \"count\": {}, \"mean_us\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}{}\n",
                c.stage.name(),
                c.tier.name(),
                c.hist.count,
                num(c.hist.mean_ns() / 1e3),
                num(c.hist.quantile_ns(0.5) / 1e3),
                num(c.hist.quantile_ns(0.99) / 1e3),
                num(c.hist.max_ns as f64 / 1e3),
                if j + 1 < cells.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < tiers.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `<out>/TRACE_<fig>.json` (see [`write_report`]).
pub fn write_trace_report(
    out: Option<&Path>,
    fig: &str,
    tiers: &[TraceWaterfall],
) -> io::Result<Option<PathBuf>> {
    write_doc(out, &format!("TRACE_{fig}.json"), |meta| {
        render_trace_json(fig, meta, tiers)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Stats {
        Stats::from_nanos(vec![1_000_000, 2_000_000, 3_000_000])
    }

    fn meta() -> RunMeta {
        RunMeta {
            git_sha: "abc123".to_string(),
            timestamp_utc: utc_timestamp(0),
            profile: "debug",
        }
    }

    #[test]
    fn from_stats_derives_throughput_from_mean() {
        let r = ScenarioReport::from_stats("sfm", 1000, &stats());
        // mean is 2 ms → 500 msgs/s → 500 kB/s.
        assert!((r.msgs_per_s - 500.0).abs() < 1e-9);
        assert!((r.bytes_per_s - 500_000.0).abs() < 1e-9);
        assert_eq!(r.p50_ms, 2.0);
        assert_eq!(r.p99_ms, 3.0);
    }

    #[test]
    fn render_escapes_and_terminates_rows() {
        let mut r = ScenarioReport::from_stats("a\"b\\c", 7, &stats());
        r.msgs_per_s = f64::NAN; // must not leak a NaN literal into JSON
        let json = render_json("figX", &meta(), &[r.clone(), r]);
        assert!(json.contains("\"fig\": \"figX\""));
        assert!(json.contains("a\\\"b\\\\c"));
        assert!(json.contains("\"msgs_per_s\": 0.000000"));
        // One comma between the two scenario rows, one after the meta line.
        assert_eq!(json.matches("},\n").count(), 2);
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn render_empty_is_valid() {
        let json = render_json("fig0", &meta(), &[]);
        assert!(json.contains("\"scenarios\": [\n  ]"));
        assert!(json.contains("\"git_sha\": \"abc123\""));
        assert!(json.contains("\"profile\": \"debug\""));
    }

    #[test]
    fn utc_timestamp_converts_known_instants() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        // 2000-02-29 (leap day) 12:34:56 UTC.
        assert_eq!(utc_timestamp(951_827_696), "2000-02-29T12:34:56Z");
        // 2026-01-01 00:00:00 UTC.
        assert_eq!(utc_timestamp(1_767_225_600), "2026-01-01T00:00:00Z");
    }

    #[test]
    fn captured_meta_is_well_formed() {
        let m = RunMeta::capture();
        assert!(!m.git_sha.is_empty());
        assert!(m.timestamp_utc.ends_with('Z'));
        assert!(m.profile == "debug" || m.profile == "release");
    }

    #[test]
    fn process_wire_and_bag_counts_render() {
        let r = ScenarioReport::from_stats("soak 500 links", 256, &stats())
            .with_process_counts(6, 1100, 12_345)
            .with_wire_bytes(5_000, 5_000)
            .with_bag_counts(64, 0, 14_745_600, 64);
        let r = ScenarioReport {
            msgs_per_cpu_s: Some(1234.5),
            ..r
        };
        let doc = render_json("soak", &meta(), &[r]);
        assert!(doc.contains("\"msgs_per_cpu_s\": 1234.500000, \"threads\": 6"));
        assert!(doc.contains("\"threads\": 6, \"fds\": 1100, \"rss_kb\": 12345"));
        assert!(doc.contains("\"bytes_sent\": 5000, \"bytes_received\": 5000"));
        assert!(doc.contains(
            "\"bag_frames_recorded\": 64, \"bag_frames_dropped\": 0, \
             \"bag_bytes_written\": 14745600, \"bag_frames_replayed\": 64"
        ));
        // Rows without counts carry none of the optional keys.
        let plain = ScenarioReport::from_stats("plain", 256, &stats());
        let doc = render_json("soak", &meta(), &[plain]);
        assert!(!doc.contains("threads") && !doc.contains("msgs_per_cpu_s"));
    }

    #[test]
    fn dirty_tree_is_marked_in_the_provenance() {
        assert_eq!(provenance(Some("abc123\n"), ""), "abc123");
        assert_eq!(provenance(Some("abc123\n"), "\n"), "abc123");
        assert_eq!(
            provenance(Some("abc123\n"), " M src/lib.rs\n"),
            "abc123+dirty"
        );
        assert_eq!(provenance(Some("abc123"), "?? new_file\n"), "abc123+dirty");
        assert_eq!(provenance(None, " M src/lib.rs\n"), "unknown");
        assert_eq!(provenance(Some(""), ""), "unknown");
    }

    #[test]
    fn nothing_is_written_without_an_out_dir() {
        let rows = [ScenarioReport::from_stats("sfm", 1000, &stats())];
        assert_eq!(write_report(None, "no_out_probe", &rows).unwrap(), None);
        assert_eq!(write_trace_report(None, "no_out_probe", &[]).unwrap(), None);
        // Neither the working directory nor the repository's results/ (the
        // two places the old directory guess looked) gained a file.
        let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for dir in [Path::new("results"), repo_results.as_path()] {
            assert!(!dir.join("BENCH_no_out_probe.json").exists());
            assert!(!dir.join("TRACE_no_out_probe.json").exists());
        }

        let dir = std::env::temp_dir().join(format!("rossf_report_{}", std::process::id()));
        let path = write_report(Some(&dir), "probe", &rows).unwrap().unwrap();
        assert_eq!(path, dir.join("BENCH_probe.json"));
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"fig\": \"probe\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn soak_fds_must_track_links() {
        // The committed full soak: 1556 fds at 500 links, 6206 at 2000.
        assert!(fds_track_links((1556, 500), (6206, 2000)));
        assert!(fds_track_links((310, 100), (1240, 400)));
        // A leak that adds nearly one fd per link fails.
        assert!(!fds_track_links((310, 100), (1600, 400)));
        // So does losing descriptors the smallest scale needed.
        assert!(!fds_track_links((400, 100), (1240, 400)));
    }

    #[test]
    fn trace_json_includes_stages_and_consistency() {
        use rossf_trace::{Stage, StageHist, Tier};
        let hist = StageHist::new();
        hist.record(1_000);
        hist.record(3_000);
        // One series per tier, labelled the way every traced bench labels
        // its runs: `Tier::name()`.
        let tiers: Vec<TraceWaterfall> = Tier::ALL
            .iter()
            .map(|&tier| TraceWaterfall {
                label: tier.name().to_string(),
                snapshot: rossf_trace::TopicSnapshot {
                    topic: "t".to_string(),
                    cells: vec![rossf_trace::StageCell {
                        stage: Stage::Encode,
                        tier,
                        hist: hist.snapshot(),
                    }],
                },
                e2e_mean_us: 2.0,
            })
            .collect();
        assert!((tiers[0].stage_sum_us() - 2.0).abs() < 1e-9);
        assert!(tiers[0].sum_error() < 1e-9);
        let json = render_trace_json("figT", &meta(), &tiers);
        // The series names `results/TRACE_*.json` has always carried.
        for name in ["tcp", "fastpath", "shm"] {
            let series = format!("{{\"tier\": \"{name}\", \"topic\"");
            assert!(json.contains(&series), "{name}");
        }
        assert!(json.contains("\"stage\": \"encode\""));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"sum_error\": 0.000000"));
    }
}
