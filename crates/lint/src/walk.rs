//! Workspace traversal: find the sources and manifests and lint them.

use crate::confine::{glob, stale_homes, Seen};
use crate::rules::{scan, Finding};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The files the annotation rules (`unsafe`, `SeqCst`, `Drop`) read: the
/// production sources. Integration tests, benches, examples and the
/// vendored `shims/` are out of their scope.
const ANNOTATED: &str = "crates/*/src/**.rs";

/// Directories no lint reads: build output and version control.
const SKIPPED: [&str; 3] = [".git", "target", ".bench_build"];

/// Every `.rs` file and `Cargo.toml` under `root`, recursively, outside
/// build output and `.git`, sorted for stable output: the confinement
/// rows' roots are globs over these.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default();
        if path.is_dir() {
            if !SKIPPED.iter().any(|s| name == *s) {
                out.extend(workspace_sources(&path)?);
            }
        } else if path.extension().is_some_and(|e| e == "rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every source and manifest under `root` (a workspace checkout),
/// then report each confinement home that no longer holds its pattern.
/// Paths in the returned findings are relative to `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut seen = Seen::new();
    for path in workspace_sources(root)? {
        let source = fs::read_to_string(&path)?;
        let label = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        findings.extend(scan(&label, &source, glob(ANNOTATED, &label), &mut seen));
    }
    findings.extend(stale_homes(&seen));
    Ok(findings)
}
