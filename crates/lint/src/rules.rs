//! The four workspace lint rules, implemented over the split-line stream
//! from [`rossf_checker::scan`].
//!
//! Scope: the annotation rules (`unsafe`, `SeqCst`, `Drop`) scan
//! `crates/*/src/**/*.rs` — production sources only; `tests/`, `benches/`,
//! `examples/`, the vendored `shims/`, and `#[cfg(test)]` modules inside
//! source files are exempt (test code may unwrap and doesn't need per-site
//! safety prose). Each confinement row names its own roots (`confine.rs`).

use crate::confine::{Confiner, Seen};
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
    /// `.unwrap()` / `.expect(` inside an `impl Drop` — a panic in drop
    /// during unwinding aborts the whole process.
    PanickyDrop,
    /// A pattern of the confinement table outside its homes, or a home
    /// that no longer holds its pattern (`confine.rs`): inline asm outside
    /// `crates/sys`, a thread spawn outside its listed owners, a tier's
    /// vocabulary outside its module, the fault injector outside the Gate,
    /// and the banned names (a 20 ms poll, a blocking receive, crossbeam,
    /// a hand-declared message, the futex).
    Confined,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::UnsafeNeedsSafety => "unsafe-needs-safety",
            Rule::SeqCstNeedsOrder => "seqcst-needs-order",
            Rule::PanickyDrop => "panicky-drop",
            Rule::Confined => "confined",
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

impl Finding {
    pub(crate) fn new(rule: Rule, path: &str, line: usize, message: impl Into<String>) -> Finding {
        let (path, message) = (path.to_string(), message.into());
        Finding {
            rule,
            path,
            line,
            message,
        }
    }
}

/// Whether `code` contains `word` delimited by non-identifier characters.
fn contains_word(code: &str, word: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    let end = |i: usize| code[i + word.len()..].chars().next();
    (code.match_indices(word)).any(|(i, _)| !ident(code[..i].chars().next_back()) && !ident(end(i)))
}

/// Net brace depth change of one code line.
fn brace_delta(code: &str) -> i64 {
    code.chars()
        .map(|c| i64::from(c == '{') - i64::from(c == '}'))
        .sum()
}

/// Brace tracking of one item's body, from the line that opens it to the
/// line that balances its braces: how `#[cfg(test)]` modules, `impl Drop`
/// bodies and a confinement row's `impl` home are found.
#[derive(Default)]
pub(crate) struct Body(Option<i64>);

impl Body {
    /// Feed the next code line; `opens` tells whether it is the item's
    /// header. Returns whether the line is part of the item.
    pub(crate) fn step(&mut self, code: &str, opens: impl FnOnce() -> bool) -> bool {
        let depth = match self.0 {
            Some(depth) => depth + brace_delta(code),
            None if opens() => brace_delta(code),
            None => return false,
        };
        self.0 = (depth > 0).then_some(depth);
        true
    }
}

/// Comment text that justifies an `unsafe` site.
fn has_safety(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

/// Comment text that justifies a `SeqCst` ordering.
fn has_order(comment: &str) -> bool {
    comment.contains("ORDER:")
}

/// Lint one file's source text under the label `path`: every rule, the
/// confinement table's rows those whose roots hold `path`. Pure function —
/// the fixture tests drive it directly.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    scan(path, source, true, &mut Seen::new())
}

/// Lint one file: the annotation rules (`unsafe`, `SeqCst`, `Drop`) when
/// `annotated`, and the confinement rows that reach `path`, noting in
/// `seen` each home found holding its pattern. A file that is not Rust (a
/// manifest) is matched line by line as written, against the rows only.
pub(crate) fn scan(path: &str, source: &str, annotated: bool, seen: &mut Seen) -> Vec<Finding> {
    let mut confiner = Confiner::new(path, seen);
    if !path.ends_with(".rs") {
        for (idx, line) in source.lines().enumerate() {
            confiner.line(idx + 1, line, false);
        }
        return confiner.found;
    }
    let mut findings = Vec::new();
    let mut scanner = LineScanner::new();
    // Comment-run association: whether the comment block directly above
    // holds SAFETY / ORDER, and whether the directly preceding code line
    // was a justified unsafe / SeqCst.
    let (mut run_safety, mut run_order) = (false, false);
    let (mut prev_unsafe_ok, mut prev_seqcst_ok) = (false, false);
    let mut pending_cfg_test = false;
    let (mut test_mod, mut drop_body) = (Body::default(), Body::default());

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let split = scanner.split(raw);
        let code = split.code.as_str();
        let trimmed = code.trim();

        if split.is_blank() {
            // A blank line ends a comment-association run.
            (run_safety, run_order, prev_unsafe_ok, prev_seqcst_ok) = (false, false, false, false);
            continue;
        }
        if split.is_comment_only() {
            run_safety |= has_safety(&split.comment);
            run_order |= has_order(&split.comment);
            continue;
        }
        // Attributes are transparent: they keep doc-comment association
        // alive (`#[inline]` between a doc comment and its `unsafe fn`) and
        // carry cfg(test) to the item after them. A `mod` with cfg(test) is
        // a test module, skipped wholesale (brace-tracked); cfg(test) on
        // another item is linted like any code.
        let attribute = trimmed.starts_with("#[") || trimmed.starts_with("#![");
        let opens_test = pending_cfg_test && !attribute && contains_word(trimmed, "mod");
        let in_test = test_mod.step(code, || opens_test);
        confiner.line(lineno, code, in_test);
        if attribute {
            pending_cfg_test |= trimmed.contains("cfg(test)") || trimmed.contains("cfg(all(test");
            continue;
        }
        pending_cfg_test = false;
        if in_test || !annotated {
            continue;
        }

        // Rule: no unwrap/expect inside an impl Drop.
        let opens_drop = || trimmed.starts_with("impl") && code.contains(" Drop for ");
        if drop_body.step(code, opens_drop)
            && (code.contains(".unwrap()") || code.contains(".expect("))
        {
            let message = "unwrap/expect inside an impl Drop (panic during unwind aborts)";
            findings.push(Finding::new(Rule::PanickyDrop, path, lineno, message));
        }

        // Rule: unsafe needs SAFETY.
        let line_unsafe = contains_word(code, "unsafe");
        let unsafe_ok = line_unsafe && (has_safety(&split.comment) || run_safety || prev_unsafe_ok);
        if line_unsafe && !unsafe_ok {
            let message = "unsafe without a `// SAFETY:` comment";
            findings.push(Finding::new(Rule::UnsafeNeedsSafety, path, lineno, message));
        }

        // Rule: SeqCst needs ORDER.
        let line_seqcst = contains_word(code, "SeqCst");
        let seqcst_ok = line_seqcst && (has_order(&split.comment) || run_order || prev_seqcst_ok);
        if line_seqcst && !seqcst_ok {
            let message = "SeqCst without a `// ORDER:` justification";
            findings.push(Finding::new(Rule::SeqCstNeedsOrder, path, lineno, message));
        }

        // A code line consumes the comment run once it terminates a
        // statement — a continuation line (`let alloc =` with the unsafe
        // expression on the next line) keeps the run alive for the rest
        // of the statement. Consecutive justified unsafe/SeqCst lines
        // inherit their predecessor's justification.
        let terminates =
            (trimmed.chars().next_back()).is_none_or(|c| matches!(c, ';' | '{' | '}' | ','));
        if line_unsafe || line_seqcst || terminates {
            (run_safety, run_order) = (false, false);
        }
        (prev_unsafe_ok, prev_seqcst_ok) = (unsafe_ok, seqcst_ok);
    }
    findings.append(&mut confiner.found);
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
