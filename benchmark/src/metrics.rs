//! The benchmark's metric definitions: name, unit, which direction is
//! better, and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` at the repository root states the same facts for the
//! driver; a test holds the two together.

use crate::json::Json;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// How long one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 18;

/// What a user of the middleware sees. Reported from the untraced pass.
pub const END_TO_END: [MetricDef; 7] = [
    gated("setup_s", "s", "lower", 0.25),
    gated("latency_p50_us", "us", "lower", 0.25),
    gated("throughput_msgs_s", "1/s", "higher", 0.25),
    gated("cpu_us_per_msg", "us", "lower", 0.25),
    gated("rss_peak_mb", "MB", "lower", 0.25),
    // A thread more or less is a change of at least 1/threads, far above
    // this bound for any count the workloads reach: in effect exact.
    gated("threads_steady", "count", "lower", 0.01),
    // 1 - failed_share; a single failed message in a run breaks it.
    gated("delivered_share", "share", "higher", 0.000001),
];

/// Costs of single layers, from the traced pass. Not gated: they say
/// where an end-to-end change came from.
pub const PER_LAYER: [MetricDef; 57] = [
    layer("core.alloc_us", "us", "lower"),
    layer("core.fill_us", "us", "lower"),
    layer("core.verify_us", "us", "lower"),
    layer("core.release_us", "us", "lower"),
    layer("core.mm_registered_per_msg", "count", "lower"),
    layer("core.mm_shared_adoptions_per_msg", "count", "higher"),
    layer("core.mm_live_after", "count", "lower"),
    layer("ros.loan_us", "us", "lower"),
    layer("ros.loan_refused_share", "share", "lower"),
    layer("ros.publish_call_us", "us", "lower"),
    layer("ros.publish_to_callback_us", "us", "lower"),
    layer("ros.stage.alloc_us", "us", "lower"),
    layer("ros.stage.encode_us", "us", "lower"),
    layer("ros.stage.enqueue_us", "us", "lower"),
    layer("ros.stage.wire_write_us", "us", "lower"),
    layer("ros.stage.wire_read_us", "us", "lower"),
    layer("ros.stage.verify_us", "us", "lower"),
    layer("ros.stage.adopt_us", "us", "lower"),
    layer("ros.stage.callback_us", "us", "lower"),
    layer("ros.wire_bytes_per_msg", "B", "lower"),
    layer("ros.frames_dropped", "count", "lower"),
    layer("ros.queue_depth_hwm", "count", "lower"),
    layer("ros.decode_errors", "count", "lower"),
    layer("ros.verify_rejects", "count", "lower"),
    layer("ros.tier_share", "share", "higher"),
    layer("ros.zero_copy_share", "share", "higher"),
    layer("ros.setup.advertise_us", "us", "lower"),
    layer("ros.setup.subscribe_us", "us", "lower"),
    layer("ros.setup.connect_wait_us", "us", "lower"),
    layer("ros.setup.first_delivery_us", "us", "lower"),
    layer("ros.teardown_us", "us", "lower"),
    layer("ros.ser.encode_us", "us", "lower"),
    layer("ros.ser.decode_us", "us", "lower"),
    layer("reactor.notify_us", "us", "lower"),
    layer("reactor.jobpool_dispatch_us", "us", "lower"),
    layer("shm.acquire_us", "us", "lower"),
    layer("shm.push_us", "us", "lower"),
    layer("shm.take_us", "us", "lower"),
    layer("shm.release_us", "us", "lower"),
    layer("shm.pool_segments", "count", "lower"),
    layer("netsim.shaped_write_us", "us", "lower"),
    layer("netsim.pacing_error_share", "share", "lower"),
    layer("slam.analyze_us", "us", "lower"),
    layer("slam.app_share", "share", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("trace.self_sum_share", "share", "higher"),
    layer("os.ctx_switches_per_msg", "count", "lower"),
    layer("os.minor_faults_per_msg", "count", "lower"),
    layer("os.heap_allocs_per_msg", "count", "lower"),
    layer("os.heap_alloc_bytes_per_msg", "B", "lower"),
    layer("os.bg_cpu_us_per_msg", "us", "lower"),
    layer("bench.latency_p95_us", "us", "lower"),
    layer("bench.latency_p99_us", "us", "lower"),
    layer("bench.latency_max_us", "us", "lower"),
    layer("bench.samples", "count", "higher"),
    layer("bench.gen_wait_share", "share", "higher"),
    layer("bench.round_spread", "share", "lower"),
];

/// Measured values keyed by metric name, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of a result line: every metric of `defs`,
    /// `{"value": .., "unit": ..}` each. A metric nobody measured is a
    /// bug in the benchmark, so it panics.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().map(|def| {
            let value = self
                .get(def.name)
                .unwrap_or_else(|| panic!("metric `{}` was never measured", def.name));
            (
                def.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_defs(listed: &[Json], defs: &[MetricDef]) {
        assert_eq!(listed.len(), defs.len());
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(def.better));
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn benchmark_json_states_the_same_metrics_and_workloads() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        check_defs(
            doc.get("end_to_end").and_then(Json::as_arr).unwrap(),
            &END_TO_END,
        );
        check_defs(
            doc.get("per_layer").and_then(Json::as_arr).unwrap(),
            &PER_LAYER,
        );

        let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), workloads::NAMES.len());
        for (entry, name) in listed.iter().zip(workloads::NAMES) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
            let why = entry.get("why").and_then(Json::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(workloads::NAMES)
            .collect();
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn a_missing_measurement_is_loud() {
        let mut values = Values::default();
        values.set("setup_s", 0.5);
        values.set("setup_s", 0.25);
        assert_eq!(values.get("setup_s"), Some(0.25));
        let missing = std::panic::catch_unwind(|| values.to_json(&END_TO_END));
        assert!(missing.is_err());
    }
}
