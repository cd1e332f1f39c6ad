//! # rossf-lint — workspace lints for the unsafe/atomics surface
//!
//! A source-level lint pass over the workspace, enforcing the conventions
//! the concurrency audit and the transport's design lean on. Three
//! annotation rules read the production Rust sources
//! (`crates/*/src/**/*.rs`):
//!
//! - every `unsafe` site carries a `// SAFETY:` comment (or a `# Safety`
//!   doc section) explaining why the invariants hold;
//! - every `Ordering::SeqCst` carries a `// ORDER:` note justifying the
//!   strongest ordering (weaker orderings are assumed deliberate);
//! - no `.unwrap()` / `.expect(` inside `impl Drop` bodies (a panic in a
//!   drop during unwinding aborts the process).
//!
//! The fourth, `confined`, is one table (`confine.rs`) of names the design
//! keeps in one place, each row with its own roots — every `.rs` file and
//! `Cargo.toml` outside `target/`, `.bench_build/` and `.git` is read:
//! inline asm stays in the audited syscall crate (`crates/sys/src/`);
//! threads are spawned only by their listed owners (the reactor loop, the
//! SLAM node's worker, the bag writer, the model scheduler, the Fig. 14
//! raw-TCP harness); a transport tier's vocabulary is named only in its
//! `crates/ros/src/tier/<tier>.rs`; the fault injector is asked and
//! answered only in `publisher.rs`'s `impl Gate`; the futex is named only
//! in `crates/model`; and a 20 ms poll, a blocking receive in
//! `crates/ros/src`, a hand-declared `Sfm` message struct and `crossbeam`
//! are banned outright. Each home must still hold its row's
//! pattern, so a rename cannot disarm a row.
//!
//! The pass is line-oriented, built on [`rossf_checker::scan`]'s
//! comment/string-aware splitter — not a parser. That keeps it dependency
//! free and fast, at the cost of a few structural conventions (attributes
//! are transparent for comment association; `#[cfg(test)] mod` bodies are
//! skipped by brace tracking, as are `impl` bodies). `scripts/check.sh`
//! runs the `rossf-lint` binary and fails the build on any finding.
//!
//! ```
//! use rossf_lint::{lint_source, Rule};
//!
//! let findings = lint_source("demo.rs", "let p = unsafe { x.as_ptr() };\n");
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, Rule::UnsafeNeedsSafety);
//! assert_eq!(findings[0].line, 1);
//! ```

#![deny(missing_docs)]

mod confine;
mod rules;
mod walk;

pub use rules::{lint_source, Finding, Rule};
pub use walk::{lint_workspace, workspace_sources};
