//! Orchestration: run each workload in a fresh child process, one after
//! another, and print one document with every metric by name and unit.
//! `--repeat K` runs K full sets and judges every (metric, workload)
//! cell's spread against the metric's bound.

use crate::json::{self, Json};
use crate::metrics::{MetricDef, END_TO_END};
use crate::stats;
use crate::workloads;
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// One child run: the driver-contract result line plus the detail line.
struct ChildRun {
    result: Json,
    detail: Json,
    exit_ok: bool,
}

fn run_child(args: &Args, workload: &str, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--rounds", &args.rounds.to_string()])
        .args(["--setup-builds", &args.setup_builds.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.corrupt_expectation {
        command.arg("--corrupt-expectation");
    }
    // `output` waits for the child, so no process outlives this call.
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no result line ({})", output.status))
        .and_then(|l| json::parse(l).map_err(|e| format!("{workload}: result line: {e}")))?;
    let detail = lines
        .next()
        .and_then(|l| json::parse(l).ok())
        .and_then(|d| d.get("detail").cloned())
        .unwrap_or(Json::Null);
    Ok(ChildRun {
        result,
        detail,
        exit_ok: output.status.success(),
    })
}

/// One full set: every selected workload, untraced and (optionally)
/// traced. Returns the set's document and whether every run was correct.
fn run_set(args: &Args, names: &[&str]) -> Result<(Json, bool), String> {
    let mut all_correct = true;
    let mut entries = Vec::new();
    for &name in names {
        eprintln!("# {name}: untraced pass");
        let untraced = run_child(args, name, false)?;
        let traced = if args.traced {
            eprintln!("# {name}: traced pass");
            Some(run_child(args, name, true)?)
        } else {
            None
        };
        let correct = |run: &ChildRun| {
            run.exit_ok && run.result.get("correct").and_then(Json::as_bool) == Some(true)
        };
        all_correct &= correct(&untraced) && traced.as_ref().is_none_or(correct);
        let field = |run: &ChildRun, key: &str| run.result.get(key).cloned().unwrap_or(Json::Null);
        let mut entry = vec![
            ("correct".to_string(), Json::Bool(correct(&untraced))),
            ("attempted".to_string(), field(&untraced, "attempted")),
            ("failed".to_string(), field(&untraced, "failed")),
            ("end_to_end".to_string(), field(&untraced, "metrics")),
            ("detail".to_string(), untraced.detail),
        ];
        if let Some(traced) = traced {
            entry.push(("traced_correct".to_string(), Json::Bool(correct(&traced))));
            entry.push(("per_layer".to_string(), field(&traced, "metrics")));
            entry.push(("traced_detail".to_string(), traced.detail));
        }
        entries.push((name.to_string(), Json::Obj(entry)));
    }
    Ok((Json::Obj(entries), all_correct))
}

fn cell(set: &Json, workload: &str, metric: &str) -> Option<f64> {
    set.get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// The `--repeat` verdict for one metric on one workload: the spread of
/// the sets' values as a share of their median, and whether it stays
/// within the metric's bound. With four sets or more the spread is the
/// distance between the quartiles (the driver's rule); with fewer there
/// are no quartiles to speak of and it is the whole range.
fn judge(def: &MetricDef, values: &[f64]) -> (f64, bool) {
    let spread = if values.len() >= 4 {
        stats::quartile_share(values)
    } else {
        stats::range_share(values)
    };
    (spread, spread <= def.bound.unwrap_or(f64::INFINITY))
}

/// About four significant digits, whatever the metric's magnitude
/// (`setup_s` is in the thousandths, `throughput_msgs_s` in the hundred
/// thousands).
fn significant(value: f64) -> String {
    let decimals = match value.abs() {
        v if v >= 1000.0 => 0,
        v if v >= 10.0 => 2,
        v if v >= 0.1 => 4,
        _ => 6,
    };
    format!("{value:.decimals$}")
}

fn repeat_table(sets: &[Json], names: &[&str]) -> (Json, bool) {
    let mut all_pass = true;
    let mut rows = Vec::new();
    eprintln!(
        "\n{:<22} {:<20} {:>9} {:>7}  verdict  values",
        "workload", "metric", "spread", "bound"
    );
    for &name in names {
        for def in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| cell(set, name, def.name))
                .collect();
            let (spread, pass) = judge(def, &values);
            all_pass &= pass && values.len() == sets.len();
            let verdict = if pass { "PASS" } else { "FAIL" };
            eprintln!(
                "{name:<22} {:<20} {:>8.2}% {:>6.2}%  {verdict:<7}  {}",
                def.name,
                spread * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                values
                    .iter()
                    .map(|v| significant(*v))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            rows.push(Json::obj([
                ("workload", Json::str(name)),
                ("metric", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
                ("spread", Json::Num(spread)),
                ("bound", Json::Num(def.bound.unwrap_or(0.0))),
                ("pass", Json::Bool(pass)),
            ]));
        }
    }
    (Json::Arr(rows), all_pass)
}

pub fn main(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut sets = Vec::new();
    let mut all_correct = true;
    for set in 0..args.repeat {
        if args.repeat > 1 {
            eprintln!("# set {} of {}", set + 1, args.repeat);
        }
        match run_set(args, &names) {
            Ok((document, correct)) => {
                all_correct &= correct;
                sets.push(document);
            }
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut document = vec![
        ("seed".to_string(), Json::Int(args.seed)),
        ("seconds_per_run".to_string(), Json::Num(args.seconds)),
        (
            "traffic".to_string(),
            Json::str("loopback / in-process only; no real link is crossed"),
        ),
        ("correct".to_string(), Json::Bool(all_correct)),
        (
            "end_to_end_definitions".to_string(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", Json::str(d.better)),
                            ("bound", Json::Num(d.bound.unwrap_or(0.0))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let mut repeat_pass = true;
    if args.repeat > 1 {
        let (table, pass) = repeat_table(&sets, &names);
        repeat_pass = pass;
        document.push(("repeat".to_string(), table));
        document.push(("repeat_pass".to_string(), Json::Bool(pass)));
        document.push(("sets".to_string(), Json::Arr(sets)));
    } else {
        document.push(("workloads".to_string(), sets.pop().unwrap_or(Json::Null)));
    }
    println!("{}", Json::Obj(document).pretty());
    if all_correct && repeat_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounded(bound: f64) -> MetricDef {
        MetricDef {
            name: "latency",
            unit: "us",
            better: "lower",
            bound: Some(bound),
        }
    }

    #[test]
    fn repeat_verdict_compares_the_spread_with_the_bound() {
        // Fewer than four sets: the whole range over the median.
        let (spread, pass) = judge(&bounded(0.10), &[100.0, 104.0, 108.0]);
        assert!((spread - 8.0 / 104.0).abs() < 1e-12 && pass);
        let (spread, pass) = judge(&bounded(0.10), &[100.0, 125.0]);
        assert!((spread - 25.0 / 112.5).abs() < 1e-12 && !pass);
        // Four or more: the distance between the quartiles, so one wild
        // set does not fail the cell.
        let sets = [100.0, 101.0, 102.0, 103.0, 150.0];
        assert!(judge(&bounded(0.10), &sets).0 < 0.26);
        assert!(stats::range_share(&sets) > 0.4);
        // An exact count either repeats or fails.
        assert!(judge(&bounded(0.01), &[9.0, 9.0, 9.0]).1);
        assert!(!judge(&bounded(0.01), &[9.0, 10.0]).1);
    }

    #[test]
    fn cells_are_read_out_of_a_set_document() {
        let set = json::parse(
            r#"{"pose_shm": {"end_to_end": {"latency_p50_us": {"value": 9.5, "unit": "us"}}}}"#,
        )
        .unwrap();
        assert_eq!(cell(&set, "pose_shm", "latency_p50_us"), Some(9.5));
        assert_eq!(cell(&set, "pose_shm", "setup_s"), None);
        assert_eq!(cell(&set, "img1m_tcp10g", "latency_p50_us"), None);
    }
}
