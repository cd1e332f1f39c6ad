//! The message-path benchmark for the ROS-SF reproduction. See README.md.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs **one**
//!   workload in this process and prints one result object as the last
//!   line of standard output (the driver's contract);
//! * without `--trace`, this process only orchestrates: it runs each
//!   workload (or the one named) in a fresh child process, untraced and —
//!   with `--traced` — traced, and prints one JSON document with every
//!   metric by name and unit. `--repeat K` does that K times and prints
//!   the spread of every (metric, workload) cell against its bound.

mod alloc_count;
mod harness;
mod inputs;
mod json;
mod metrics;
mod orchestrate;
mod placement;
mod probes;
mod procfs;
mod run;
mod spans;
mod stats;
mod window;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--traced] [--smoke] [--repeat K] [--rounds R] [--setup-builds B]
              [--out-dir DIR] [--corrupt-expectation]";

/// Rounds of an untraced run. With the default 18 s that is 1.29 s for
/// each of a round's two phases.
const DEFAULT_ROUNDS: usize = 7;
/// Cold-build cycles behind `setup_s`: eight before each round.
const DEFAULT_SETUP_BUILDS: usize = 56;

/// The command line, checked where it enters.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// `--trace 0|1`: run one workload here. Absent: orchestrate.
    pub trace: Option<bool>,
    /// Orchestrator: run the traced pass as well.
    pub traced: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub rounds: usize,
    pub setup_builds: usize,
    pub out_dir: PathBuf,
    /// Test only: perturb the checker's expectation so every delivery
    /// must fail and the run must exit non-zero.
    pub corrupt_expectation: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        traced: false,
        smoke: false,
        repeat: 1,
        rounds: DEFAULT_ROUNDS,
        setup_builds: DEFAULT_SETUP_BUILDS,
        out_dir: PathBuf::from("out"),
        corrupt_expectation: false,
    };
    let (mut seconds_given, mut rounds_given, mut builds_given) = (false, false, false);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}`; one of: {}",
                        workloads::NAMES.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = seconds;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--corrupt-expectation" => args.corrupt_expectation = true,
            "--repeat" | "--rounds" | "--setup-builds" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("{flag}: {e}"))?;
                if !(1..=1000).contains(&n) {
                    return Err(format!("{flag} must be in 1..=1000"));
                }
                match flag.as_str() {
                    "--repeat" => args.repeat = n,
                    "--rounds" => (args.rounds, rounds_given) = (n, true),
                    _ => (args.setup_builds, builds_given) = (n, true),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.smoke {
        // One round of 0.2 s phases, a few cold builds: a quick local
        // validation, not a measurement.
        if !seconds_given {
            args.seconds = 0.4;
        }
        if !rounds_given {
            args.rounds = 1;
        }
        if !builds_given {
            args.setup_builds = 3;
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let Some(traced) = args.trace else {
        return orchestrate::main(&args);
    };
    let Some(name) = args.workload.as_deref() else {
        eprintln!("--trace runs one workload: name it with --workload\n{USAGE}");
        return ExitCode::from(2);
    };
    let workload = workloads::by_name(name, args.seed, args.corrupt_expectation)
        .expect("workload names are checked by parse_args");
    let report = run::run(
        workload.as_ref(),
        &run::RunConfig {
            seed: args.seed,
            seconds: args.seconds,
            traced,
            // The traced pass spends the same time on fewer, longer
            // rounds: two untraced/traced pairs (one when smoking).
            rounds: if traced {
                args.rounds.clamp(1, 2)
            } else {
                args.rounds
            },
            setup_builds: if traced {
                args.setup_builds.min(8)
            } else {
                args.setup_builds
            },
            out_dir: args.out_dir.clone(),
        },
    );
    println!(
        "{}",
        json::Json::obj([("detail", report.detail.clone())]).render()
    );
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{name}: {} of {} messages failed; first mismatch: {}",
            report.failed,
            report.attempted,
            report
                .detail
                .get("first_mismatch")
                .and_then(json::Json::as_str)
                .unwrap_or("none (lost, refused or leaked)")
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_command_line_is_understood() {
        let args = parse("--workload pose_shm --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("pose_shm"));
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 12.0);
        assert_eq!(args.trace, Some(true));
        assert_eq!(
            (args.rounds, args.setup_builds),
            (DEFAULT_ROUNDS, DEFAULT_SETUP_BUILDS)
        );
    }

    #[test]
    fn defaults_and_smoke() {
        let args = parse("").unwrap();
        assert_eq!(args.seed, inputs::DEFAULT_SEED);
        assert_eq!(args.seconds, metrics::RUN_SECONDS as f64);
        assert!(args.trace.is_none() && !args.traced && args.repeat == 1);

        let smoke = parse("--smoke --traced").unwrap();
        assert_eq!(
            (smoke.seconds, smoke.rounds, smoke.setup_builds),
            (0.4, 1, 3)
        );
        let smoke = parse("--smoke --seconds 2").unwrap();
        assert_eq!(smoke.seconds, 2.0);
    }

    #[test]
    fn bad_input_is_refused_where_it_enters() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds").is_err());
        assert!(parse("--repeat 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
