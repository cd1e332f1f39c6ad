//! # rossf-lint — workspace lints for the unsafe/atomics surface
//!
//! A source-level lint pass over the workspace's production Rust sources
//! (`crates/*/src/**/*.rs`), enforcing the conventions the concurrency
//! audit leans on:
//!
//! - every `unsafe` site carries a `// SAFETY:` comment (or a `# Safety`
//!   doc section) explaining why the invariants hold;
//! - every `Ordering::SeqCst` carries a `// ORDER:` note justifying the
//!   strongest ordering (weaker orderings are assumed deliberate);
//! - raw syscalls / inline asm stay confined to the audited syscall crate
//!   (`crates/sys/src/`) — every other module goes through `rossf_sys`'s
//!   safe wrappers;
//! - no `.unwrap()` / `.expect(` inside `impl Drop` bodies (a panic in a
//!   drop during unwinding aborts the process);
//! - threads are spawned only by the listed owners (reactor loop and
//!   pool, subscriber consumers, tap, bag writer, model scheduler) — a
//!   per-link thread cannot quietly return to the transport.
//!
//! The pass is line-oriented, built on [`rossf_checker::scan`]'s
//! comment/string-aware splitter — not a parser. That keeps it dependency
//! free and fast, at the cost of a few structural conventions (attributes
//! are transparent for comment association; `#[cfg(test)] mod` bodies are
//! skipped by brace tracking). `scripts/check.sh` runs the `rossf-lint`
//! binary and fails the build on any finding.
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

mod rules;
mod walk;

pub use rules::{lint_source, Finding, Rule};
pub use walk::{lint_workspace, workspace_sources};
