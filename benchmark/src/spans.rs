//! Spans recorded by the benchmark around its calls into each layer.
//!
//! One span tree per message; every span of a message carries the
//! message's sequence number as the shared `id`. Spans are kept in memory
//! and written out when the workload ends. A span's *self time* is its
//! duration minus the part of its interval its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;

/// The span tree of one message, parent by name (a name occurs at most
/// once per message). Roots are listed in the order they happen.
pub const TREE: &[(&str, Option<&str>)] = &[
    ("construct", None),
    ("core.alloc", Some("construct")),
    ("ros.loan", Some("construct")),
    ("core.fill", Some("construct")),
    ("ros.transport", None),
    ("ros.publish_call", Some("ros.transport")),
    ("callback", None),
    ("core.verify", Some("callback")),
    ("core.release", None),
];

/// The roots whose self times, with their children's, make up the latency
/// the benchmark reports (stamp before construction → callback entry).
pub const LATENCY_ROOTS: &[&str] = &["construct", "ros.transport"];

fn parent_of(name: &str) -> Option<&'static str> {
    TREE.iter().find(|(n, _)| *n == name).and_then(|(_, p)| *p)
}

fn root_of(name: &str) -> &str {
    match parent_of(name) {
        Some(parent) => root_of(parent),
        None => name,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Sequence number of the message this span belongs to.
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span of **one** message: duration minus the union
/// of its direct children's intervals, each clipped to the parent (a
/// `publish` call may still be returning after the callback has started
/// on another thread; only the part inside the parent is the parent's).
pub fn self_times(message: &[Span]) -> Vec<(&'static str, u64)> {
    message
        .iter()
        .map(|span| {
            let mut children: Vec<(u64, u64)> = message
                .iter()
                .filter(|c| parent_of(c.name) == Some(span.name))
                .map(|c| {
                    (
                        c.start_ns.clamp(span.start_ns, span.end_ns),
                        c.end_ns.clamp(span.start_ns, span.end_ns),
                    )
                })
                .collect();
            children.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for (start, end) in children {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.name, span.duration_ns() - covered)
        })
        .collect()
}

/// Mean self time per span name over many messages, plus how the
/// latency-path spans add up.
#[derive(Debug, Default, Clone)]
pub struct SelfTimeTable {
    /// name → total self ns over the counted messages
    totals: BTreeMap<&'static str, u64>,
    messages: u64,
}

impl SelfTimeTable {
    /// Group `spans` by message id and accumulate each message's self
    /// times. Only messages that have the whole latency path (a
    /// `construct` and a `ros.transport` span) are counted, so a span
    /// list cut short mid-message cannot skew the means.
    pub fn from_spans(spans: &[Span]) -> SelfTimeTable {
        let mut by_id: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for span in spans {
            by_id.entry(span.id).or_default().push(*span);
        }
        let mut table = SelfTimeTable::default();
        for message in by_id.values() {
            if !LATENCY_ROOTS
                .iter()
                .all(|root| message.iter().any(|s| s.name == *root))
            {
                continue;
            }
            table.messages += 1;
            for (name, ns) in self_times(message) {
                *table.totals.entry(name).or_default() += ns;
            }
        }
        table
    }

    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Mean self time of `name` per counted message, in microseconds;
    /// zero for a span the workload never records.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match (self.totals.get(name), self.messages) {
            (Some(total), n) if n > 0 => *total as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Sum of the mean self times of every span under the latency roots:
    /// what the trace says one delivery took.
    pub fn latency_path_us(&self) -> f64 {
        self.totals
            .keys()
            .filter(|name| LATENCY_ROOTS.contains(&root_of(name)))
            .map(|name| self.mean_self_us(name))
            .sum()
    }

    pub fn to_json(&self) -> Json {
        Json::obj(
            self.totals
                .keys()
                .map(|name| (*name, Json::Num(self.mean_self_us(name)))),
        )
    }
}

/// The trace document written to `out/trace_<workload>.json`.
pub fn trace_document(workload: &str, seed: u64, spans: &[Span], table: &SelfTimeTable) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        (
            "clock",
            Json::str("ns since the process-wide monotonic epoch"),
        ),
        (
            "tree",
            Json::Arr(
                TREE.iter()
                    .map(|(name, parent)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("parent", parent.map_or(Json::Null, Json::str)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("messages", Json::Int(table.messages())),
        ("mean_self_us", table.to_json()),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Int(s.id)),
                            ("name", Json::str(s.name)),
                            ("parent", parent_of(s.name).map_or(Json::Null, Json::str)),
                            ("start_ns", Json::Int(s.start_ns)),
                            ("end_ns", Json::Int(s.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name,
            start_ns,
            end_ns,
        }
    }

    fn self_of(times: &[(&'static str, u64)], name: &str) -> u64 {
        times.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let message = [
            span(0, "construct", 100, 200),
            span(0, "core.alloc", 105, 165),
            span(0, "core.fill", 165, 195),
            span(0, "ros.transport", 200, 260),
            span(0, "ros.publish_call", 200, 230),
        ];
        let times = self_times(&message);
        assert_eq!(self_of(&times, "construct"), 100 - 60 - 30);
        assert_eq!(self_of(&times, "core.alloc"), 60);
        assert_eq!(self_of(&times, "ros.transport"), 30);
        // Self times of a tree add up to its root's duration.
        let total: u64 = times.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 100 + 60);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        // The callback began at 240 while `publish` returned at 300.
        let message = [
            span(0, "construct", 0, 10),
            span(0, "ros.transport", 200, 240),
            span(0, "ros.publish_call", 200, 300),
        ];
        let times = self_times(&message);
        assert_eq!(self_of(&times, "ros.transport"), 0);
        assert_eq!(self_of(&times, "ros.publish_call"), 100);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let message = [
            span(0, "construct", 0, 100),
            span(0, "core.alloc", 10, 60),
            span(0, "core.fill", 40, 90),
        ];
        assert_eq!(self_of(&self_times(&message), "construct"), 100 - 80);
    }

    #[test]
    fn table_means_cover_only_whole_messages() {
        let spans = [
            span(0, "construct", 0, 100),
            span(0, "core.fill", 20, 100),
            span(0, "ros.transport", 100, 150),
            span(0, "callback", 150, 170),
            span(1, "construct", 1000, 1200),
            span(1, "ros.transport", 1200, 1350),
            // Message 2 lost its transport span: not counted.
            span(2, "construct", 2000, 2999),
        ];
        let table = SelfTimeTable::from_spans(&spans);
        assert_eq!(table.messages(), 2);
        assert_eq!(table.mean_self_us("construct"), (20.0 + 200.0) / 2.0 / 1e3);
        assert_eq!(table.mean_self_us("core.fill"), 80.0 / 2.0 / 1e3);
        assert_eq!(table.mean_self_us("core.verify"), 0.0);
        // construct + fill + transport; the callback is past the latency.
        assert!(
            (table.latency_path_us() - (100.0 + 50.0 + 200.0 + 150.0) / 2.0 / 1e3).abs() < 1e-12
        );
    }

    #[test]
    fn every_tree_entry_resolves_to_a_known_root() {
        for (name, _) in TREE {
            let root = root_of(name);
            assert!(TREE.iter().any(|(n, p)| *n == root && p.is_none()));
        }
    }
}
