//! Workspace lint driver: `rossf-lint [workspace-root]`.
//!
//! Lints the workspace under the given root (default: the current
//! directory, walking up to the first ancestor containing a `crates/`
//! directory): the annotation rules over `crates/*/src/**/*.rs`, the
//! confinement table over every `.rs` file and `Cargo.toml` outside
//! `target/`, `.bench_build/` and `.git`. Prints one
//! `file:line: [rule] message` per finding and exits 1 if any fired, 2 on
//! I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn find_root(start: PathBuf) -> PathBuf {
    let mut dir = start.clone();
    loop {
        if dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return start;
        }
    }
}

fn main() -> ExitCode {
    let root = match std::env::args_os().nth(1) {
        Some(p) => PathBuf::from(p),
        None => find_root(std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))),
    };
    match rossf_lint::lint_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("rossf-lint: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("rossf-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("rossf-lint: cannot lint {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
