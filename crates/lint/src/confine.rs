//! The confinement table: names the design keeps in one place. Each row is
//! a pattern that may appear, in the code of the files under its roots, only
//! in its homes — and each home must still hold it, so a rename cannot
//! quietly disarm the row.
//!
//! Rust is matched with comments and string contents masked (the table's own
//! strings, and prose about a confined name, trip nothing); a manifest is
//! matched line by line as written.

use crate::rules::{Body, Finding, Rule};
use std::collections::HashSet;

/// Where a confined pattern belongs.
pub(crate) enum Home {
    /// The files a glob matches.
    Files(&'static str),
    /// One `impl` block of one file, named by the start of its header line
    /// (one such home per file).
    Impl(&'static str, &'static str),
}

/// One row: `pattern` in a file under `roots`, outside `homes`, is a finding.
pub(crate) struct Row {
    /// Any of these substrings of a line's code.
    pattern: &'static [&'static str],
    /// Globs of the files the row reaches: `*` within one path segment,
    /// `**` across segments.
    roots: &'static [&'static str],
    /// Where the pattern may appear; each must still hold it.
    homes: &'static [Home],
    /// Why the pattern is kept home: the finding's message.
    why: &'static str,
    /// Whether the pattern (lower case) matches regardless of ASCII case.
    nocase: bool,
    /// Whether the row reaches `#[cfg(test)]` modules too.
    tests: bool,
}

/// A row's defaults: case-sensitive, test modules exempt, no home.
const ROW: Row = Row {
    pattern: &[],
    roots: &[],
    homes: &[],
    why: "",
    nocase: false,
    tests: false,
};

const ROS: &[&str] = &["crates/ros/src/**.rs"];
const CRATES: &[&str] = &["crates/*/src/**.rs"];
const TCP: &[Home] = &[Home::Files("crates/ros/src/tier/tcp.rs")];
const FASTPATH: &[Home] = &[Home::Files("crates/ros/src/tier/fastpath.rs")];
const SHM: &[Home] = &[Home::Files("crates/ros/src/tier/shm.rs")];
const GATE: &[Home] = &[Home::Impl("crates/ros/src/publisher.rs", "impl Gate")];
const TIER: &str = "a tier's writer, source and shm vocabulary are named only in its crates/ros/src/tier/<tier>.rs";
const SPAWNERS: &[Home] = &[
    Home::Files("crates/reactor/src/lib.rs"),   // the event loop
    Home::Files("crates/slam/src/pipeline.rs"), // the SLAM node's worker
    Home::Files("crates/bag/src/writer.rs"),    // the bag writer
    Home::Files("crates/model/src/sched.rs"),   // the model checker's scheduler
    Home::Files("crates/bench/src/experiments.rs"), // the Fig. 14 raw-TCP harness
];

/// The table, one row per name or per set of names that share their homes;
/// kept unformatted so that a row reads as one line.
#[rustfmt::skip]
pub(crate) const ROWS: &[Row] = &[
    Row { pattern: &["from_millis(20)"], roots: ROS, why: "every link is a reactor handler: no 20 ms poll", ..ROW },
    Row { pattern: &["recv_timeout"], roots: ROS, why: "every link is a reactor handler: no blocking queue read", ..ROW },
    Row { pattern: &["TcpWriter"], roots: ROS, homes: TCP, why: TIER, ..ROW },
    Row { pattern: &["TcpSource"], roots: ROS, homes: TCP, why: TIER, ..ROW },
    Row { pattern: &["FastSource"], roots: ROS, homes: FASTPATH, why: TIER, ..ROW },
    Row { pattern: &["SHM_"], roots: ROS, homes: SHM, why: TIER, ..ROW },
    Row { pattern: &["hung_up"], roots: ROS, homes: SHM, why: TIER, ..ROW },
    Row { pattern: &["Doorbell"], roots: ROS, homes: SHM, why: TIER, ..ROW },
    Row { pattern: &["RingCtl"], roots: ROS, homes: SHM, why: TIER, ..ROW },
    Row { pattern: &["ShmSource"], roots: ROS, homes: SHM, why: TIER, ..ROW },
    Row { pattern: &["ShmLink"], roots: ROS, homes: SHM, why: TIER, ..ROW },
    Row { pattern: &["ShmReader"], roots: ROS, homes: SHM, why: TIER, ..ROW },
    Row { pattern: &["crossbeam"], roots: &["**.rs", "**Cargo.toml"], tests: true,
          why: "a link's queue is publisher.rs's own", ..ROW },
    Row { pattern: &["pub struct Sfm"], roots: &["crates/msg/src/**.rs"], tests: true,
          why: "every message is generated from crates/idl/msg: define it as a .msg file", ..ROW },
    Row { pattern: &[".next_frame_action("], roots: CRATES, homes: GATE,
          why: "the fault injector is consulted once, by publisher.rs's Gate", ..ROW },
    Row { pattern: &["FaultAction::"], roots: ROS, homes: GATE,
          why: "a fault verdict is acted on only by publisher.rs's Gate", ..ROW },
    Row { pattern: &["futex"], nocase: true, roots: &["crates/*/src/**.rs", "src/**.rs", "examples/**.rs", "shims/**.rs"],
          homes: &[Home::Files("crates/model/**")], why: "a drained ring's reader has one wake-up, its doorbell", ..ROW },
    Row { pattern: &["asm!(", "arch::asm"], roots: CRATES, homes: &[Home::Files("crates/sys/src/**")],
          why: "raw syscalls and inline asm are confined to crates/sys/src/: use a rossf_sys wrapper", ..ROW },
    Row { pattern: &["thread::Builder", "thread::spawn", "thread::scope"], roots: CRATES, homes: SPAWNERS,
          why: "links are driven by the reactor; a thread has a listed owner", ..ROW },
];

/// The (row, home) pairs whose home was seen holding the row's pattern.
pub(crate) type Seen = HashSet<(usize, usize)>;

/// Whether `path` matches `glob` (`*` within a segment, `**` across them).
pub(crate) fn glob(glob: &str, path: &str) -> bool {
    fn go(g: &[u8], p: &[u8]) -> bool {
        match g {
            [] => p.is_empty(),
            [b'*', b'*', rest @ ..] => (0..=p.len()).any(|i| go(rest, &p[i..])),
            [b'*', rest @ ..] => (0..=p.len())
                .take_while(|&i| i == 0 || p[i - 1] != b'/')
                .any(|i| go(rest, &p[i..])),
            [c, rest @ ..] => p.first() == Some(c) && go(rest, &p[1..]),
        }
    }
    go(glob.as_bytes(), path.as_bytes())
}

impl Row {
    fn matches(&self, code: &str) -> bool {
        let folded = self.nocase.then(|| code.to_ascii_lowercase());
        let code = folded.as_deref().unwrap_or(code);
        self.pattern.iter().any(|p| code.contains(p))
    }

    fn label(&self) -> String {
        format!("`{}`", self.pattern.join("` / `"))
    }

    fn message(&self) -> String {
        format!("{} outside its homes: {}", self.label(), self.why)
    }
}

/// The rows reaching one file, a brace tracker for its `impl` home, and
/// the findings so far.
pub(crate) struct Confiner<'a> {
    path: &'a str,
    rows: Vec<(usize, &'static Row)>,
    impl_home: Option<(&'static str, Body)>,
    seen: &'a mut Seen,
    pub(crate) found: Vec<Finding>,
}

impl<'a> Confiner<'a> {
    pub(crate) fn new(path: &'a str, seen: &'a mut Seen) -> Confiner<'a> {
        let reaches = |(_, row): &(usize, &Row)| row.roots.iter().any(|g| glob(g, path));
        let rows: Vec<_> = ROWS.iter().enumerate().filter(reaches).collect();
        let impl_home = rows
            .iter()
            .flat_map(|(_, r)| r.homes)
            .find_map(|home| match *home {
                Home::Impl(file, header) => (file == path).then(|| (header, Body::default())),
                Home::Files(_) => None,
            });
        let found = Vec::new();
        Confiner {
            path,
            rows,
            impl_home,
            seen,
            found,
        }
    }

    /// Check line `line`, whose code is `code`, inside a test module or not.
    pub(crate) fn line(&mut self, line: usize, code: &str, in_test: bool) {
        let in_impl = self.impl_home.as_mut().is_some_and(|(header, body)| {
            let rest = code.trim_start().strip_prefix(*header);
            let ident = |c: char| c.is_alphanumeric() || c == '_';
            body.step(code, || rest.is_some_and(|r| !r.starts_with(ident)))
        });
        for &(i, row) in &self.rows {
            if in_test && !row.tests || !row.matches(code) {
                continue;
            }
            let home = row.homes.iter().position(|home| match *home {
                Home::Files(g) => glob(g, self.path),
                Home::Impl(file, _) => file == self.path && in_impl,
            });
            match home {
                Some(h) => drop(self.seen.insert((i, h))),
                None => {
                    (self.found).push(Finding::new(Rule::Confined, self.path, line, row.message()))
                }
            }
        }
    }
}

/// A finding for every home that no longer holds its row's pattern.
pub(crate) fn stale_homes(seen: &Seen) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, row) in ROWS.iter().enumerate() {
        for (h, home) in row.homes.iter().enumerate() {
            if seen.contains(&(i, h)) {
                continue;
            }
            let path = match *home {
                Home::Files(g) => g.to_string(),
                Home::Impl(file, header) => format!("{file} ({header})"),
            };
            let message = format!("home of {} no longer holds it: update its row", row.label());
            out.push(Finding::new(Rule::Confined, &path, 1, message));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_source;

    /// A line that trips a row, at a path the row reaches outside its
    /// homes; together they trip every row. Among them the three mutants
    /// the shell guards were once checked with by hand: a blocking
    /// receive, a 20 ms poll and a fast-path source named in `tap.rs`.
    const TRIPS: &[(&str, &str)] = &[
        (
            "crates/ros/src/subscriber.rs",
            "thread::sleep(Duration::from_millis(20));",
        ),
        (
            "crates/ros/src/tier/tcp.rs",
            "let frame = rx.recv_timeout(wait);",
        ),
        (
            "crates/ros/src/publisher.rs",
            "let w = TcpWriter::new(sock);",
        ),
        ("crates/ros/src/tier/shm.rs", "let s: TcpSource = dial();"),
        ("crates/ros/src/tap.rs", "let s = FastSource::new(link);"),
        ("crates/ros/src/tier/tcp.rs", "const SHM_MAGIC: u32 = 1;"),
        ("crates/ros/src/subscriber.rs", "let gone = ring.hung_up();"),
        ("crates/ros/src/node.rs", "let bell = Doorbell::new();"),
        (
            "crates/ros/src/tier/fastpath.rs",
            "let ctl: &RingCtl = seg.ctl();",
        ),
        (
            "crates/ros/src/subscriber.rs",
            "let src = ShmSource::attach(fd);",
        ),
        (
            "crates/ros/src/publisher.rs",
            "let link = ShmLink::create(4);",
        ),
        ("crates/ros/src/tap.rs", "let r = ShmReader::open(seg);"),
        ("Cargo.toml", "crossbeam-channel = { workspace = true }"),
        (
            "crates/core/tests/queue.rs",
            "use crossbeam::channel::bounded;",
        ),
        (
            "crates/msg/src/geometry_msgs.rs",
            "pub struct SfmPose { pub x: f64 }",
        ),
        (
            "crates/ros/src/tier/tcp.rs",
            "let action = self.injector.next_frame_action();",
        ),
        (
            "crates/ros/src/subscriber.rs",
            "let dropped = matches!(action, FaultAction::Drop);",
        ),
        (
            "examples/ring.rs",
            "let r = sys_futex(addr, FUTEX_WAIT, 0);",
        ),
        (
            "crates/shm/src/ring.rs",
            "core::arch::asm!(\"syscall\", lateout(\"rax\") r);",
        ),
        (
            "crates/ros/src/subscriber.rs",
            "std::thread::spawn(move || drain(rx));",
        ),
    ];

    fn confined(path: &str, source: &str) -> Vec<String> {
        let findings = lint_source(path, source).into_iter();
        findings
            .filter(|f| f.rule == Rule::Confined)
            .map(|f| f.message)
            .collect()
    }

    /// A path of `home`'s, with the fixture inside its `impl` block.
    fn at_home(home: &Home, line: &str) -> (String, String) {
        match *home {
            Home::Files(g) => (g.replace("**", "x.rs"), format!("{line}\n")),
            Home::Impl(file, header) => (
                file.to_string(),
                format!("{header} {{\n    fn f() {{\n        {line}\n    }}\n}}\n"),
            ),
        }
    }

    #[test]
    fn every_row_has_a_tripping_and_a_clean_fixture() {
        let mut tripped = vec![false; ROWS.len()];
        for &(path, line) in TRIPS {
            let found = confined(path, &format!("{line}\n"));
            assert_eq!(found.len(), 1, "{path}: {line} → {found:?}");
            let i = ROWS.iter().position(|r| r.message() == found[0]).unwrap();
            tripped[i] = true;
            let row = &ROWS[i];
            // Clean: in its homes, and in Rust, in a comment or a string.
            for home in row.homes {
                let (home_path, source) = at_home(home, line);
                assert_eq!(
                    confined(&home_path, &source),
                    Vec::<String>::new(),
                    "{home_path}"
                );
            }
            if path.ends_with(".rs") {
                for masked in [format!("// {line}\n"), format!("let s = r#\"{line}\"#;\n")] {
                    assert!(confined(path, &masked).is_empty(), "{path}: {masked}");
                }
                // A test module: clean unless the row reaches tests too.
                let test_mod = format!("#[cfg(test)]\nmod tests {{\n    {line}\n}}\n");
                assert_eq!(
                    confined(path, &test_mod).len(),
                    usize::from(row.tests),
                    "{path}"
                );
            }
        }
        let untripped: Vec<String> = (ROWS.iter().zip(&tripped))
            .filter(|(_, t)| !**t)
            .map(|(r, _)| r.label())
            .collect();
        assert!(
            untripped.is_empty(),
            "rows without a tripping fixture: {untripped:?}"
        );
    }

    #[test]
    fn an_impl_home_ends_with_its_block() {
        let src =
            "impl Gate {\n    fn pass(&self) {\n        let a = FaultAction::Pass;\n    }\n}\n\
                   fn after() {\n    let b = FaultAction::Drop;\n}\n\
                   impl GateKeeper {\n    fn f() { let c = FaultAction::Sever; }\n}\n";
        let findings = lint_source("crates/ros/src/publisher.rs", src);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [7, 10], "{findings:?}");
    }

    #[test]
    fn case_insensitive_rows_fold_case() {
        assert_eq!(
            confined("src/lib.rs", "const FUTEX_WAKE: u32 = 1;\n").len(),
            1
        );
        assert_eq!(confined("src/lib.rs", "let q = Queue::new();\n").len(), 0);
    }

    #[test]
    fn globs_match_within_and_across_segments() {
        assert!(glob("crates/*/src/**.rs", "crates/ros/src/tier/tcp.rs"));
        assert!(glob("crates/*/src/**.rs", "crates/ros/src/lib.rs"));
        assert!(!glob("crates/*/src/**.rs", "crates/ros/tests/leak.rs"));
        assert!(!glob("crates/*/src/**.rs", "crates/a/b/src/lib.rs"));
        assert!(glob("**Cargo.toml", "Cargo.toml"));
        assert!(glob("**Cargo.toml", "crates/ros/Cargo.toml"));
        assert!(glob("**.rs", "benchmark/src/main.rs"));
        assert!(!glob("crates/model/**", "crates/modelx/src/lib.rs"));
    }
}
