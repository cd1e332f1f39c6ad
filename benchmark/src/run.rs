//! One workload, one process: set-up cycles, rounds, and the metrics made
//! from them. `--trace 0` yields the end-to-end metrics, `--trace 1` the
//! per-layer ones.

use crate::harness::{cold_cycle, run_round, RoundResult, SetupSpans, Workload};
use crate::json::Json;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::placement::Placement;
use crate::probes;
use crate::procfs;
use crate::spans::{trace_document, SelfTimeTable, Span};
use crate::stats;
use std::path::Path;
use std::time::Duration;

/// Messages whose spans are written to the trace file; the self-time
/// means cover every traced message either way.
const TRACE_FILE_MESSAGES: u64 = 512;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Total measuring time, split evenly over the phases of all rounds.
    pub seconds: f64,
    pub traced: bool,
    /// Untraced pass: rounds. Traced pass: untraced/traced round pairs
    /// are made from the same number, two rounds to a pair.
    pub rounds: usize,
    pub setup_builds: usize,
    pub out_dir: std::path::PathBuf,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics for this pass.
    pub metrics: Json,
    /// Everything else worth reading: input hash, first mismatch, the
    /// per-round values behind the medians.
    pub detail: Json,
}

impl Report {
    /// The line the driver reads: exactly these four keys.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", self.metrics.clone()),
        ])
        .render()
    }
}

fn median_of(rounds: &[&RoundResult], f: impl Fn(&RoundResult) -> f64) -> f64 {
    stats::median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn median_setup(cycles: &[SetupSpans], f: impl Fn(&SetupSpans) -> u64) -> f64 {
    stats::median(&cycles.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
}

fn p(round: &RoundResult, q: f64) -> f64 {
    stats::percentile(&round.latencies_us, q)
}

/// Totals over set-up cycles and rounds that decide `correct`.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mm_live_after: u64,
    first_mismatch: Option<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, live: u64, mismatch: Option<String>) {
        self.attempted += attempted;
        // A message still alive after teardown is a failed message.
        self.failed += failed + live;
        self.mm_live_after += live;
        if self.first_mismatch.is_none() {
            self.first_mismatch = mismatch;
        }
    }
}

pub fn run(workload: &dyn Workload, config: &RunConfig) -> Report {
    let spec = workload.spec();
    let mut tally = Tally::default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);

    // Generator on one CPU, the rest of the process on the others. The
    // runtime's reactor and pool threads — the ancestors of every thread
    // the middleware spawns later — are started from the middleware's
    // side of that split.
    let placement = Placement::detect();
    let placement = placement.as_ref();
    if let Some(placement) = placement {
        placement.for_runtime_start();
    }
    rossf_reactor::runtime();

    // Rounds. The traced pass alternates untraced and traced rounds so
    // the tracing overhead is a difference within one process.
    let plan: Vec<bool> = if config.traced {
        (0..config.rounds.max(1) * 2).map(|i| i % 2 == 1).collect()
    } else {
        vec![false; config.rounds.max(1)]
    };
    let phase = Duration::from_secs_f64(config.seconds / (plan.len() * 2) as f64);

    // Set-up cycles (cold build → 8 deliveries → teardown) go before each
    // round, an equal share each, so a few noisy seconds on the host reach
    // a few of them and not their median.
    let cycles_per_round = config.setup_builds.max(1).div_ceil(plan.len());
    let mut cycles: Vec<SetupSpans> = Vec::new();
    let rounds: Vec<RoundResult> = plan
        .iter()
        .map(|&traced| {
            for _ in 0..cycles_per_round {
                let (spans, failures) = cold_cycle(workload, placement);
                tally.add(
                    failures.attempted,
                    failures.failed,
                    failures.mm_live_after,
                    failures.first_mismatch,
                );
                cycles.push(spans);
            }
            let round = run_round(workload, traced, phase, placement);
            tally.add(
                round.attempted,
                round.failed,
                round.mm_live_after,
                round.first_mismatch.clone(),
            );
            round
        })
        .collect();
    let untraced: Vec<&RoundResult> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&RoundResult> = rounds.iter().filter(|r| r.traced).collect();
    let status = procfs::process_status();

    let mut values = Values::default();
    let latency_p50 = median_of(&untraced, |r| p(r, 0.50));

    // End-to-end: always from untraced rounds.
    values.set("setup_s", median_setup(&cycles, |c| c.total_ns) / 1e9);
    values.set("latency_p50_us", latency_p50);
    values.set(
        "throughput_msgs_s",
        median_of(&untraced, |r| r.throughput_msgs_s),
    );
    values.set("cpu_us_per_msg", median_of(&untraced, |r| r.cpu_us_per_msg));
    values.set("rss_peak_mb", status.vm_hwm_kb.unwrap_or(0) as f64 / 1024.0);
    values.set(
        "threads_steady",
        untraced.last().map_or(0, |r| r.threads) as f64,
    );
    values.set(
        "delivered_share",
        1.0 - tally.failed.min(tally.attempted) as f64 / tally.attempted.max(1) as f64,
    );

    // The harness's own health, from the same untraced rounds.
    let samples: u64 = untraced.iter().map(|r| r.latencies_us.len() as u64).sum();
    values.set(
        "os.bg_cpu_us_per_msg",
        median_of(&untraced, |r| r.bg_cpu_us_per_msg),
    );
    values.set("bench.latency_p95_us", median_of(&untraced, |r| p(r, 0.95)));
    values.set("bench.latency_p99_us", median_of(&untraced, |r| p(r, 0.99)));
    values.set("bench.latency_max_us", median_of(&untraced, |r| p(r, 1.0)));
    values.set("bench.samples", samples as f64);
    values.set(
        "bench.gen_wait_share",
        median_of(&untraced, |r| r.gen_wait_share),
    );
    values.set(
        "bench.round_spread",
        stats::range_share(&untraced.iter().map(|r| p(r, 0.50)).collect::<Vec<_>>()),
    );

    let mut trace_file = Json::Null;
    if config.traced {
        let spans = latency_path_spans(&traced);
        let table = SelfTimeTable::from_spans(&spans);
        per_layer(
            workload,
            &mut values,
            &cycles,
            &traced,
            &spans,
            &table,
            latency_p50,
            tally.mm_live_after,
        );
        eprintln!("# {}: mean self time per span, µs", spec.name);
        for (name, value) in table.to_json().members() {
            eprintln!("#   {name:<20} {:>12.3}", value.as_f64().unwrap_or(0.0));
        }
        trace_file = write_trace(&config.out_dir, spec.name, config.seed, &spans, &table);
    }

    let correct = tally.failed == 0 && tally.attempted > 0;
    let defs: &[_] = if config.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let per_round = |f: &dyn Fn(&RoundResult) -> f64| {
        Json::Arr(untraced.iter().map(|r| Json::Num(f(r))).collect())
    };
    Report {
        correct,
        attempted: tally.attempted.max(1),
        failed: tally.failed.min(tally.attempted.max(1)),
        metrics: values.to_json(defs),
        detail: Json::obj([
            ("workload", Json::str(spec.name)),
            ("seed", Json::Int(config.seed)),
            (
                "input_hash",
                Json::str(format!("{:016x}", workload.input_hash())),
            ),
            ("window", Json::Int(spec.window)),
            ("phase_seconds", Json::Num(phase.as_secs_f64())),
            ("rounds", Json::Int(plan.len() as u64)),
            (
                "setup_cycle_ms",
                Json::Arr(
                    cycles
                        .iter()
                        .map(|c| Json::Num(c.total_ns as f64 / 1e6))
                        .collect(),
                ),
            ),
            ("cores", Json::Int(cores)),
            (
                "placement",
                placement.map_or(Json::str("unpinned"), |p| Json::str(p.describe())),
            ),
            (
                "traffic",
                Json::str("loopback / in-process only; no real link is crossed"),
            ),
            (
                "first_mismatch",
                tally.first_mismatch.map_or(Json::Null, Json::Str),
            ),
            ("mm_live_after", Json::Int(tally.mm_live_after)),
            ("round_latency_p50_us", per_round(&|r| p(r, 0.50))),
            ("round_latency_p95_us", per_round(&|r| p(r, 0.95))),
            (
                "round_throughput_msgs_s",
                per_round(&|r| r.throughput_msgs_s),
            ),
            ("round_cpu_us_per_msg", per_round(&|r| r.cpu_us_per_msg)),
            (
                "round_bg_cpu_us_per_msg",
                per_round(&|r| r.bg_cpu_us_per_msg),
            ),
            (
                "bench",
                Json::obj(
                    PER_LAYER
                        .iter()
                        .filter(|d| d.name.starts_with("bench."))
                        .map(|d| (d.name, Json::Num(values.get(d.name).unwrap_or(f64::NAN)))),
                ),
            ),
            ("trace_file", trace_file),
        ]),
    }
}

/// The traced rounds' spans, with `ros.transport` (publish-call start →
/// callback entry) made from the two sides' records. Message ids are made
/// unique across rounds so the trace file holds one tree per message.
fn latency_path_spans(traced: &[&RoundResult]) -> Vec<Span> {
    let mut out = Vec::new();
    for (round, result) in traced.iter().enumerate() {
        let offset = (round as u64) << 32;
        let mut spans = result.spans.clone();
        spans.sort_by_key(|s| (s.id, s.start_ns));
        let mut i = 0;
        while i < spans.len() {
            let id = spans[i].id;
            let mut message: Vec<Span> = spans[i..]
                .iter()
                .take_while(|s| s.id == id)
                .copied()
                .collect();
            i += message.len();
            let find = |name: &str| message.iter().find(|s| s.name == name).copied();
            if let (Some(publish), Some(callback)) = (find("ros.publish_call"), find("callback")) {
                message.push(Span {
                    id,
                    name: "ros.transport",
                    start_ns: publish.start_ns,
                    end_ns: callback.start_ns.max(publish.start_ns),
                });
            }
            out.extend(message.into_iter().map(|s| Span {
                id: id + offset,
                ..s
            }));
        }
    }
    out
}

fn mean_duration_us(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    if durations.is_empty() {
        0.0
    } else {
        stats::mean(&durations)
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    workload: &dyn Workload,
    values: &mut Values,
    cycles: &[SetupSpans],
    traced: &[&RoundResult],
    spans: &[Span],
    table: &SelfTimeTable,
    untraced_p50_us: f64,
    mm_live_after: u64,
) {
    let spec = workload.spec();
    let sum = |f: &dyn Fn(&RoundResult) -> u64| traced.iter().map(|r| f(r)).sum::<u64>();
    let attempted = sum(&|r| r.attempted).max(1) as f64;
    let frames = sum(&|r| r.transport.frames_sent).max(1) as f64;

    // core, ros: durations of the spans recorded around the public calls.
    values.set("core.alloc_us", mean_duration_us(spans, "core.alloc"));
    values.set("core.fill_us", mean_duration_us(spans, "core.fill"));
    values.set("core.verify_us", mean_duration_us(spans, "core.verify"));
    values.set("core.release_us", mean_duration_us(spans, "core.release"));
    values.set(
        "core.mm_registered_per_msg",
        median_of(traced, |r| r.mm_registered_per_msg),
    );
    values.set(
        "core.mm_shared_adoptions_per_msg",
        median_of(traced, |r| r.mm_shared_adoptions_per_msg),
    );
    values.set("core.mm_live_after", mm_live_after as f64);
    values.set("ros.loan_us", mean_duration_us(spans, "ros.loan"));
    values.set(
        "ros.loan_refused_share",
        sum(&|r| r.loans_refused) as f64 / attempted,
    );
    values.set(
        "ros.publish_call_us",
        mean_duration_us(spans, "ros.publish_call"),
    );
    values.set(
        "ros.publish_to_callback_us",
        mean_duration_us(spans, "ros.transport"),
    );
    for def in PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("ros.stage."))
    {
        let stage = &def.name["ros.stage.".len()..def.name.len() - "_us".len()];
        let of_round = |r: &RoundResult| {
            r.stage_means_us
                .iter()
                .find(|(name, _)| *name == stage)
                .map_or(0.0, |(_, us)| *us)
        };
        values.set(def.name, median_of(traced, of_round));
    }
    values.set(
        "ros.wire_bytes_per_msg",
        sum(&|r| r.transport.bytes_sent) as f64 / frames,
    );
    values.set(
        "ros.frames_dropped",
        sum(&|r| r.transport.frames_dropped) as f64,
    );
    values.set(
        "ros.queue_depth_hwm",
        traced
            .iter()
            .map(|r| r.transport.queue_depth_hwm)
            .max()
            .unwrap_or(0) as f64,
    );
    values.set(
        "ros.decode_errors",
        sum(&|r| r.transport.decode_errors) as f64,
    );
    values.set(
        "ros.verify_rejects",
        sum(&|r| r.transport.verify_rejects) as f64,
    );
    values.set(
        "ros.tier_share",
        median_of(traced, |r| r.transport.tier_share(spec.tier)),
    );
    values.set(
        "ros.zero_copy_share",
        median_of(traced, |r| r.zero_copy_share),
    );
    let us = |f: &dyn Fn(&SetupSpans) -> u64| median_setup(cycles, f) / 1e3;
    values.set("ros.setup.advertise_us", us(&|c| c.advertise_ns));
    values.set("ros.setup.subscribe_us", us(&|c| c.subscribe_ns));
    values.set("ros.setup.connect_wait_us", us(&|c| c.connect_wait_ns));
    values.set("ros.setup.first_delivery_us", us(&|c| c.first_delivery_ns));
    values.set("ros.teardown_us", us(&|c| c.teardown_ns));
    let (encode_us, decode_us) = workload.serialization_reference_us();
    values.set("ros.ser.encode_us", encode_us);
    values.set("ros.ser.decode_us", decode_us);

    // reactor, shm, netsim: direct probes at this workload's message size.
    let reactor = probes::reactor().unwrap_or_default();
    values.set("reactor.notify_us", reactor.notify_us);
    values.set("reactor.jobpool_dispatch_us", reactor.jobpool_dispatch_us);
    let shm = probes::shm(spec.message_bytes).unwrap_or_default();
    values.set("shm.acquire_us", shm.acquire_us);
    values.set("shm.push_us", shm.push_us);
    values.set("shm.take_us", shm.take_us);
    values.set("shm.release_us", shm.release_us);
    values.set("shm.pool_segments", shm.pool_segments);
    let netsim = probes::netsim(spec.message_bytes).unwrap_or_default();
    values.set("netsim.shaped_write_us", netsim.shaped_write_us);
    values.set("netsim.pacing_error_share", netsim.pacing_error_share);

    let analyze_us = workload.slam_analyze_us();
    values.set("slam.analyze_us", analyze_us);
    values.set("slam.app_share", analyze_us / untraced_p50_us);

    let traced_p50 = median_of(traced, |r| p(r, 0.50));
    let traced_mean = stats::mean(
        &traced
            .iter()
            .flat_map(|r| r.latencies_us.iter().copied())
            .collect::<Vec<_>>(),
    );
    values.set(
        "trace.overhead_share",
        (traced_p50 - untraced_p50_us) / untraced_p50_us,
    );
    values.set(
        "trace.self_sum_share",
        table.latency_path_us() / traced_mean,
    );

    values.set(
        "os.ctx_switches_per_msg",
        median_of(traced, |r| r.ctx_switches_per_msg),
    );
    values.set(
        "os.minor_faults_per_msg",
        median_of(traced, |r| r.minor_faults_per_msg),
    );
    values.set(
        "os.heap_allocs_per_msg",
        median_of(traced, |r| r.heap_allocs_per_msg),
    );
    values.set(
        "os.heap_alloc_bytes_per_msg",
        median_of(traced, |r| r.heap_bytes_per_msg),
    );
}

/// Write `trace_<workload>.json`; returns its path (or `null` when the
/// directory could not be written, which the run survives).
fn write_trace(
    dir: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    table: &SelfTimeTable,
) -> Json {
    let first = spans.first().map_or(0, |s| s.id);
    let kept: Vec<Span> = spans
        .iter()
        .filter(|s| s.id - first < TRACE_FILE_MESSAGES)
        .copied()
        .collect();
    let path = dir.join(format!("trace_{workload}.json"));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(&path, trace_document(workload, seed, &kept, table).render())
    });
    match written {
        Ok(()) => Json::str(path.display().to_string()),
        Err(e) => {
            eprintln!("# could not write {}: {e}", path.display());
            Json::Null
        }
    }
}
