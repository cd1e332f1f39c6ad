//! Fixture tests: each lint rule is exercised against a seeded-violation
//! fixture (every seeded line must be reported, at the right line, under
//! the right rule, and nothing else) and a clean fixture (zero findings).

use rossf_lint::{lint_source, Rule};

fn lines_of(findings: &[rossf_lint::Finding], rule: Rule) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn unsafe_rule_seeded_violations() {
    let src = r#"
fn bare() {
    let p = unsafe { std::ptr::null::<u8>().add(1) };
    let _ = p;
}

unsafe fn also_bare() {}

unsafe impl Send for Foo {}
"#;
    let findings = lint_source("fix.rs", src);
    assert_eq!(
        lines_of(&findings, Rule::UnsafeNeedsSafety),
        vec![3, 7, 9],
        "all three bare unsafe sites reported, nothing else: {findings:?}"
    );
    assert_eq!(findings.len(), 3);
}

#[test]
fn unsafe_rule_clean_fixture() {
    let src = r#"
fn covered() {
    // SAFETY: null().add(1) is never dereferenced.
    let p = unsafe { std::ptr::null::<u8>().add(1) };
    let q = unsafe { p.add(1) }; // SAFETY: same provenance, in bounds.
    let _ = q;
}

/// Does a thing.
///
/// # Safety
///
/// Caller must uphold X.
#[inline]
pub unsafe fn documented() {}

// SAFETY: Foo owns no thread-affine state; one comment covers the run.
unsafe impl Send for Foo {}
unsafe impl Sync for Foo {}
"#;
    let findings = lint_source("fix.rs", src);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}

#[test]
fn unsafe_run_inheritance_breaks_on_unrelated_code() {
    // The consecutive-run inheritance must not leak across an unrelated
    // code line: the second unsafe here is NOT covered.
    let src = r#"
// SAFETY: covered.
unsafe impl Send for Foo {}
fn unrelated() {}
unsafe impl Sync for Foo {}
"#;
    let findings = lint_source("fix.rs", src);
    assert_eq!(lines_of(&findings, Rule::UnsafeNeedsSafety), vec![5]);
}

#[test]
fn comment_covers_unsafe_on_statement_continuation_line() {
    // The `let … =` line doesn't terminate the statement, so the SAFETY
    // comment still covers the unsafe expression on the next line.
    let src = r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid for reads.
    let v =
        unsafe { *p };
    v
}
"#;
    assert!(lint_source("fix.rs", src).is_empty());
}

#[test]
fn unsafe_in_strings_and_comments_is_ignored() {
    let src = r#"
fn f() {
    let msg = "this unsafe is just prose";
    // unsafe in a comment is fine too
    let _ = msg;
}
"#;
    assert!(lint_source("fix.rs", src).is_empty());
}

#[test]
fn seqcst_rule_seeded_violations() {
    let src = r#"
use std::sync::atomic::{AtomicU32, Ordering};
fn f(a: &AtomicU32) {
    a.store(1, Ordering::SeqCst);
    let _ = a.load(Ordering::Relaxed);
    a.fetch_add(1, Ordering::SeqCst);
}
"#;
    let findings = lint_source("fix.rs", src);
    assert_eq!(
        lines_of(&findings, Rule::SeqCstNeedsOrder),
        vec![4, 6],
        "both bare SeqCst sites, and only those: {findings:?}"
    );
    assert_eq!(findings.len(), 2);
}

#[test]
fn seqcst_rule_clean_fixture() {
    let src = r#"
use std::sync::atomic::{AtomicU32, Ordering};
fn f(a: &AtomicU32, b: &AtomicU32) {
    // ORDER: store must be totally ordered against the flag in `g`.
    a.store(1, Ordering::SeqCst);
    b.store(2, Ordering::SeqCst); // ORDER: same total order as above.
    // ORDER: one justification covers the consecutive pair below.
    a.fetch_add(1, Ordering::SeqCst);
    b.fetch_add(1, Ordering::SeqCst);
    let _ = a.load(Ordering::Acquire);
}
"#;
    let findings = lint_source("fix.rs", src);
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}

#[test]
fn syscall_rule_confined_to_the_sys_crate() {
    let src = r#"
fn raw() -> i64 {
    let r: i64;
    unsafe {
        std::arch::asm!("syscall", lateout("rax") r);
    }
    r
}
"#;
    // Outside crates/sys/src/ the asm is reported at its exact file:line
    // (and the bare unsafe too) — including in the modules that held the
    // syscalls before they moved.
    for path in [
        "crates/shm/src/ring.rs",
        "crates/shm/src/sys.rs",
        "crates/reactor/src/sys.rs",
        "crates/bag/src/sys.rs",
    ] {
        let findings = lint_source(path, src);
        assert_eq!(lines_of(&findings, Rule::SyscallOutsideSys), vec![5]);
        let asm = findings
            .iter()
            .find(|f| f.rule == Rule::SyscallOutsideSys)
            .unwrap();
        assert!(
            asm.to_string()
                .starts_with(&format!("{path}:5: [syscall-outside-sys] ")),
            "{asm}"
        );
    }
    // Same content anywhere inside the sys crate: only the bare-unsafe
    // finding remains.
    for sys_path in ["crates/sys/src/lib.rs", "crates/sys/src/poll.rs"] {
        let findings = lint_source(sys_path, src);
        assert!(
            lines_of(&findings, Rule::SyscallOutsideSys).is_empty(),
            "{sys_path} must be exempt: {findings:?}"
        );
        assert_eq!(lines_of(&findings, Rule::UnsafeNeedsSafety), vec![4]);
    }
}

#[test]
fn panicky_drop_seeded_violations() {
    let src = r#"
struct G(std::fs::File);
impl Drop for G {
    fn drop(&mut self) {
        self.0.sync_all().unwrap();
        std::fs::remove_file("x").expect("rm");
    }
}
impl G {
    fn fine(&self) {
        std::fs::metadata("x").unwrap();
    }
}
"#;
    let findings = lint_source("fix.rs", src);
    assert_eq!(
        lines_of(&findings, Rule::PanickyDrop),
        vec![5, 6],
        "both panicky lines inside Drop, none outside: {findings:?}"
    );
    assert_eq!(findings.len(), 2);
}

#[test]
fn panicky_drop_clean_fixture() {
    let src = r#"
struct G(std::fs::File);
impl Drop for G {
    fn drop(&mut self) {
        let _ = self.0.sync_all();
    }
}
"#;
    assert!(lint_source("fix.rs", src).is_empty());
}

#[test]
fn spawn_rule_seeded_violations() {
    let src = r#"
fn relay(rx: Receiver<Frame>) {
    let _ = std::thread::Builder::new()
        .name("rossf-shm-pub".to_string())
        .spawn(move || drain(rx));
    std::thread::spawn(|| {});
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}
"#;
    let findings = lint_source("crates/ros/src/publisher.rs", src);
    assert_eq!(
        lines_of(&findings, Rule::SpawnOutsideAllowlist),
        vec![3, 6, 7],
        "every spawn form reported, nothing else: {findings:?}"
    );
    assert_eq!(findings.len(), 3);
}

#[test]
fn spawn_rule_clean_fixture() {
    let src = r#"
// A comment naming thread::spawn, and a string: "thread::Builder".
fn consume() {
    let _ = std::thread::Builder::new().spawn(|| {});
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::thread::spawn(|| {}).join().unwrap();
    }
}
"#;
    // The allowlisted owner may spawn; anyone may in test modules and may
    // mention spawning in comments and strings.
    let owner = lint_source("crates/slam/src/pipeline.rs", src);
    assert!(owner.is_empty(), "allowlisted file flagged: {owner:?}");
    // No link owns a thread any more: the subscriber is as bound as anyone.
    for path in ["crates/ros/src/subscriber.rs", "crates/ros/src/tap.rs"] {
        let other = lint_source(path, src);
        assert_eq!(lines_of(&other, Rule::SpawnOutsideAllowlist), vec![4]);
        assert_eq!(other.len(), 1);
    }
}

#[test]
fn cfg_test_modules_are_exempt() {
    let src = r#"
fn prod() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let p = unsafe { std::ptr::null::<u8>() };
        assert!(p.is_null());
        FLAG.store(1, core::sync::atomic::Ordering::SeqCst);
    }
}

fn after_tests() {
    let _ = unsafe { std::ptr::null::<u8>() };
}
"#;
    let findings = lint_source("fix.rs", src);
    // Only the post-module unsafe fires; everything in the test module is
    // exempt, and scanning resumes correctly after it.
    assert_eq!(lines_of(&findings, Rule::UnsafeNeedsSafety), vec![15]);
    assert_eq!(findings.len(), 1);
}

#[test]
fn findings_render_as_file_line_rule() {
    let findings = lint_source("crates/x/src/a.rs", "unsafe fn f() {}\n");
    assert_eq!(
        findings[0].to_string(),
        "crates/x/src/a.rs:1: [unsafe-needs-safety] unsafe without a `// SAFETY:` comment"
    );
}

#[test]
fn workspace_walk_lints_real_tree() {
    // Build a miniature workspace on disk and check the walker finds the
    // seeded violation with a root-relative path.
    let dir = std::env::temp_dir().join(format!("rossf-lint-walk-{}", std::process::id()));
    let src = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), "unsafe fn f() {}\n").unwrap();
    std::fs::create_dir_all(dir.join("crates/demo/tests")).unwrap();
    std::fs::write(
        dir.join("crates/demo/tests/it.rs"),
        "unsafe fn out_of_scope() {}\n",
    )
    .unwrap();
    let findings = rossf_lint::lint_workspace(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        findings.len(),
        1,
        "tests/ must be out of scope: {findings:?}"
    );
    assert_eq!(findings[0].path, "crates/demo/src/lib.rs");
    assert_eq!(findings[0].line, 1);
}
