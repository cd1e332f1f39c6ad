//! The five workspace lint rules, implemented over the split-line stream
//! from [`rossf_checker::scan`].
//!
//! Scope: the lints scan `crates/*/src/**/*.rs` — production sources
//! only. `tests/`, `benches/`, `examples/`, the vendored `shims/`, and
//! `#[cfg(test)]` modules inside source files are exempt (test code may
//! unwrap and doesn't need per-site safety prose).

use rossf_checker::scan::LineScanner;
use std::fmt;

/// Which invariant a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// An `unsafe` block/fn/impl without a `// SAFETY:` comment on the
    /// same line, in the comment block directly above, or inherited from
    /// the directly preceding `unsafe` line (one comment may cover a run
    /// of consecutive `unsafe impl` lines). A `# Safety` doc section in
    /// the preceding doc comment also satisfies the rule.
    UnsafeNeedsSafety,
    /// An `Ordering::SeqCst` use without a `// ORDER:` justification in
    /// the same places the SAFETY rule accepts.
    SeqCstNeedsOrder,
    /// A raw syscall surface (`asm!`, `std::arch::asm`) outside the
    /// audited syscall crate (`crates/sys/src/`). The workspace has no
    /// libc binding, so inline assembly is the only way its code can issue
    /// a syscall `std` does not wrap: confining it confines them all.
    SyscallOutsideSys,
    /// `.unwrap()` / `.expect(` inside an `impl Drop` — a panic in drop
    /// during unwinding aborts the whole process.
    PanickyDrop,
    /// A thread spawn (`thread::Builder`, `thread::spawn`,
    /// `thread::scope`) in a production source outside
    /// `SPAWN_ALLOWLIST`. Links are driven by the reactor; the few
    /// places that own a thread are listed, so a per-link thread cannot
    /// quietly return.
    SpawnOutsideAllowlist,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::UnsafeNeedsSafety => "unsafe-needs-safety",
            Rule::SeqCstNeedsOrder => "seqcst-needs-order",
            Rule::SyscallOutsideSys => "syscall-outside-sys",
            Rule::PanickyDrop => "panicky-drop",
            Rule::SpawnOutsideAllowlist => "spawn-outside-allowlist",
        };
        f.write_str(s)
    }
}

/// One lint finding, reported as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Path label the source was linted under.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The sources allowed to touch raw syscalls directly. Everything else
/// goes through their safe wrappers.
const SYS_MODULES: [&str; 1] = ["crates/sys/src/"];

/// Whether `path` labels a source of the audited sys crate.
fn is_sys_module(path: &str) -> bool {
    SYS_MODULES.iter().any(|m| path.contains(m))
}

/// The production sources allowed to spawn threads, and what each spawns.
const SPAWN_ALLOWLIST: [&str; 6] = [
    "crates/reactor/src/lib.rs",       // the event loop
    "crates/reactor/src/pool.rs",      // the fixed job pool
    "crates/slam/src/pipeline.rs",     // the orb_slam node's worker (callbacks must be short)
    "crates/bag/src/writer.rs",        // the bag writer
    "crates/model/src/sched.rs",       // the model checker's scheduler
    "crates/bench/src/experiments.rs", // the Fig. 14 raw-TCP harness
];

/// Whether a code line spawns a thread.
fn spawns_thread(code: &str) -> bool {
    ["thread::Builder", "thread::spawn", "thread::scope"]
        .iter()
        .any(|s| code.contains(s))
}

/// Whether `code` contains `word` delimited by non-identifier characters.
fn contains_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let start = from + rel;
        let end = start + word.len();
        let ok_before = start == 0 || {
            let b = bytes[start - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let ok_after = end == bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

/// Net brace depth change of one code line.
fn brace_delta(code: &str) -> i64 {
    let mut d = 0i64;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Whether a line is an attribute (transparent for comment-association:
/// `#[inline]` between a doc comment and its `unsafe fn` doesn't break
/// the association).
fn is_attribute_line(code: &str) -> bool {
    let t = code.trim();
    t.starts_with("#[") || t.starts_with("#![")
}

/// Comment text that justifies an `unsafe` site.
fn has_safety(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

/// Comment text that justifies a `SeqCst` ordering.
fn has_order(comment: &str) -> bool {
    comment.contains("ORDER:")
}

/// Lint one file's source text under the label `path`. Pure function —
/// the fixture tests drive it directly.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let in_sys_crate = is_sys_module(path);
    let mut scanner = LineScanner::new();
    let mut findings = Vec::new();

    // Comment-run association state.
    let mut run_safety = false; // preceding comment block contains SAFETY
    let mut run_order = false; // … contains ORDER
    let mut prev_code_unsafe_ok = false; // directly preceding code line: justified unsafe
    let mut prev_code_seqcst_ok = false;

    // #[cfg(test)] module skipping.
    let mut pending_cfg_test = false;
    let mut test_mod_depth: i64 = 0; // > 0 → inside a test module
    let mut in_test_mod = false;

    // impl Drop tracking.
    let mut drop_depth: i64 = 0;
    let mut in_drop = false;

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let split = scanner.split(raw);
        let code = split.code.as_str();
        let trimmed = code.trim();

        if split.is_blank() {
            // A blank line ends a comment-association run.
            run_safety = false;
            run_order = false;
            prev_code_unsafe_ok = false;
            prev_code_seqcst_ok = false;
            continue;
        }
        if split.is_comment_only() {
            run_safety |= has_safety(&split.comment);
            run_order |= has_order(&split.comment);
            continue;
        }
        if is_attribute_line(code) {
            // Transparent: keeps doc-comment association alive across
            // attributes, and carries cfg(test) detection.
            if trimmed.contains("cfg(test)") || trimmed.contains("cfg(all(test") {
                pending_cfg_test = true;
            }
            continue;
        }

        // Test-module handling: a `mod` following #[cfg(test)] is skipped
        // wholesale (brace-tracked).
        if in_test_mod {
            test_mod_depth += brace_delta(code);
            if test_mod_depth <= 0 {
                in_test_mod = false;
            }
            continue;
        }
        if pending_cfg_test {
            pending_cfg_test = false;
            if contains_word(trimmed, "mod") {
                test_mod_depth = brace_delta(code);
                // `mod name;` (out-of-line) has no body here; only track
                // an inline body.
                if test_mod_depth > 0 {
                    in_test_mod = true;
                }
                continue;
            }
            // cfg(test) on a non-module item: fall through and lint it —
            // it still compiles into test binaries only, but keeping the
            // invariant uniform is cheaper than tracking item extents.
        }

        // impl Drop tracking.
        if in_drop {
            drop_depth += brace_delta(code);
            if code.contains(".unwrap()") || code.contains(".expect(") {
                findings.push(Finding {
                    rule: Rule::PanickyDrop,
                    path: path.to_string(),
                    line: lineno,
                    message: "unwrap/expect inside an impl Drop (panic during unwind aborts)"
                        .to_string(),
                });
            }
            if drop_depth <= 0 {
                in_drop = false;
            }
        } else if trimmed.starts_with("impl") && code.contains(" Drop for ") {
            drop_depth = brace_delta(code);
            in_drop = drop_depth > 0;
        }

        // Rule: syscall confinement.
        if !in_sys_crate && (code.contains("asm!(") || code.contains("arch::asm")) {
            findings.push(Finding {
                rule: Rule::SyscallOutsideSys,
                path: path.to_string(),
                line: lineno,
                message: "raw syscalls/inline asm are confined to crates/sys/src/; \
                          use a rossf_sys wrapper"
                    .to_string(),
            });
        }

        // Rule: thread spawns only where listed.
        if spawns_thread(code) && !SPAWN_ALLOWLIST.iter().any(|f| path.ends_with(f)) {
            findings.push(Finding {
                rule: Rule::SpawnOutsideAllowlist,
                path: path.to_string(),
                line: lineno,
                message: "thread spawn outside the allowlist (rules.rs SPAWN_ALLOWLIST): \
                          drive the link from the reactor or the job pool"
                    .to_string(),
            });
        }

        // Rule: unsafe needs SAFETY.
        let line_unsafe = contains_word(code, "unsafe");
        let mut unsafe_ok = false;
        if line_unsafe {
            unsafe_ok = has_safety(&split.comment) || run_safety || prev_code_unsafe_ok;
            if !unsafe_ok {
                findings.push(Finding {
                    rule: Rule::UnsafeNeedsSafety,
                    path: path.to_string(),
                    line: lineno,
                    message: "unsafe without a `// SAFETY:` comment".to_string(),
                });
            }
        }

        // Rule: SeqCst needs ORDER.
        let line_seqcst = code.contains("Ordering::SeqCst") || contains_word(code, "SeqCst");
        let mut seqcst_ok = false;
        if line_seqcst {
            seqcst_ok = has_order(&split.comment) || run_order || prev_code_seqcst_ok;
            if !seqcst_ok {
                findings.push(Finding {
                    rule: Rule::SeqCstNeedsOrder,
                    path: path.to_string(),
                    line: lineno,
                    message: "SeqCst without a `// ORDER:` justification".to_string(),
                });
            }
        }

        // A code line consumes the comment run once it terminates a
        // statement — a continuation line (`let alloc =` with the unsafe
        // expression on the next line) keeps the run alive for the rest
        // of the statement. Consecutive justified unsafe/SeqCst lines
        // inherit their predecessor's justification.
        let terminates = trimmed
            .chars()
            .next_back()
            .is_none_or(|c| matches!(c, ';' | '{' | '}' | ','));
        if line_unsafe || line_seqcst || terminates {
            run_safety = false;
            run_order = false;
        }
        prev_code_unsafe_ok = line_unsafe && unsafe_ok;
        prev_code_seqcst_ok = line_seqcst && seqcst_ok;
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_matching_has_boundaries() {
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(!contains_word("unsafe_code", "unsafe"));
        assert!(!contains_word("not_unsafe", "unsafe"));
        assert!(contains_word("x unsafe", "unsafe"));
    }
}
