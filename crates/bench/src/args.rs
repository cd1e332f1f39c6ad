//! Minimal command-line handling shared by the harness binaries.

use std::path::PathBuf;

/// Workload parameters for a harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Messages per configuration (paper: 2000).
    pub iters: usize,
    /// Publish rate in Hz; `0.0` publishes as fast as the pipeline drains
    /// (paper: 10 Hz).
    pub hz: f64,
    /// Directory the run's `BENCH_*.json` / `TRACE_*.json` documents go to
    /// (`--out DIR`); `None` writes nothing.
    pub out: Option<PathBuf>,
}

impl Default for RunArgs {
    fn default() -> Self {
        // 300 messages, paced gently: minutes-long paper runs compressed
        // to seconds while keeping queues drained like the 10 Hz original.
        RunArgs {
            iters: 300,
            hz: 0.0,
            out: None,
        }
    }
}

impl RunArgs {
    /// Parse `--iters N`, `--hz F`, `--quick`, `--paper`, `--out DIR` from an
    /// argument iterator.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(args: impl Iterator<Item = String>) -> RunArgs {
        let mut out = RunArgs::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--iters" => {
                    let v = args.next().expect("--iters needs a value");
                    out.iters = v.parse().expect("--iters must be an integer");
                }
                "--hz" => {
                    let v = args.next().expect("--hz needs a value");
                    out.hz = v.parse().expect("--hz must be a number");
                }
                "--out" => {
                    out.out = Some(args.next().expect("--out needs a directory").into());
                }
                "--quick" => {
                    out.iters = 30;
                }
                "--paper" => {
                    // The paper's exact workload: 2000 messages at 10 Hz.
                    out.iters = 2000;
                    out.hz = 10.0;
                }
                other => panic!(
                    "unknown argument `{other}`; expected --iters N, --hz F, --quick, --paper, --out DIR"
                ),
            }
        }
        out
    }

    /// Parse from the process arguments.
    pub fn from_env() -> RunArgs {
        Self::parse(std::env::args().skip(1))
    }

    /// Gap between publishes implied by `hz` (zero when unpaced).
    pub fn gap(&self) -> std::time::Duration {
        if self.hz <= 0.0 {
            // A small pause keeps the single-core test box from starving
            // the reader threads between publishes.
            std::time::Duration::from_millis(2)
        } else {
            std::time::Duration::from_secs_f64(1.0 / self.hz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> RunArgs {
        RunArgs::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.iters, 300);
        assert!(a.gap() > std::time::Duration::ZERO);
        assert_eq!(a.out, None);
    }

    #[test]
    fn explicit_values() {
        let a = parse(&["--iters", "50", "--hz", "20", "--out", "/tmp/figs"]);
        assert_eq!(a.iters, 50);
        assert_eq!(a.hz, 20.0);
        assert_eq!(a.gap(), std::time::Duration::from_millis(50));
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/figs")));
    }

    #[test]
    fn quick_and_paper_presets() {
        assert_eq!(parse(&["--quick"]).iters, 30);
        let p = parse(&["--paper"]);
        assert_eq!((p.iters, p.hz), (2000, 10.0));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag_panics() {
        let _ = parse(&["--frobnicate"]);
    }
}
