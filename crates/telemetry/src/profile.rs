//! Span-tree profiler: aggregates completed spans into a call tree with
//! self-time vs. child-time attribution, and exports folded-stack lines
//! (`round;encrypt;fhe.ckks.encrypt 1234567`) consumable by flamegraph
//! tooling.
//!
//! Spans carry their full `/`-joined path (see [`mod@crate::span`]), so the
//! tree is rebuilt purely from `(path, dur_ns)` pairs, such as the span
//! records parsed back out of a JSONL trace file ([`parse_jsonl`]). Totals are exact sums of the recorded durations;
//! self-time is `total - Σ child totals`, saturating at zero when child
//! spans raced past their parent's recorded window.

use std::collections::BTreeMap;

use crate::json::{str_field, u64_field};

/// One aggregated node of the span tree, keyed by full span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// `/`-joined path from the outermost span (e.g. `round/encrypt`).
    pub path: String,
    /// Number of spans recorded at this path.
    pub count: u64,
    /// Sum of recorded wall-clock durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of the direct children's `total_ns`.
    pub child_ns: u64,
}

impl SpanNode {
    /// Time spent in this span but not in any recorded child
    /// (`total_ns - child_ns`, saturating at zero).
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// The leaf span name (last path segment).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Nesting depth: number of ancestors (0 = outermost).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }
}

/// A call tree aggregated from completed spans.
#[derive(Debug, Default)]
pub struct SpanTree {
    nodes: BTreeMap<String, SpanNode>,
}

impl SpanTree {
    /// Builds the tree from `(path, dur_ns)` pairs (e.g. parsed from a
    /// JSONL trace). Parents that were never recorded themselves — a span
    /// still open at export time, or dropped by the buffer cap — are
    /// materialized with zero count/total so the tree stays connected.
    pub fn from_paths<I: IntoIterator<Item = (String, u64)>>(paths: I) -> Self {
        let mut nodes: BTreeMap<String, SpanNode> = BTreeMap::new();
        for (path, dur_ns) in paths {
            let node = nodes.entry(path.clone()).or_insert(SpanNode {
                path,
                count: 0,
                total_ns: 0,
                child_ns: 0,
            });
            node.count += 1;
            node.total_ns += dur_ns;
        }
        let recorded: Vec<String> = nodes.keys().cloned().collect();
        for path in &recorded {
            let mut cur = path.as_str();
            while let Some(i) = cur.rfind('/') {
                let parent = &cur[..i];
                nodes.entry(parent.to_owned()).or_insert(SpanNode {
                    path: parent.to_owned(),
                    count: 0,
                    total_ns: 0,
                    child_ns: 0,
                });
                cur = parent;
            }
        }
        let child_totals: Vec<(String, u64)> = nodes
            .iter()
            .filter_map(|(path, n)| path.rfind('/').map(|i| (path[..i].to_owned(), n.total_ns)))
            .collect();
        for (parent, total) in child_totals {
            if let Some(p) = nodes.get_mut(&parent) {
                p.child_ns += total;
            }
        }
        SpanTree { nodes }
    }

    /// All nodes in path order.
    pub fn nodes(&self) -> impl Iterator<Item = &SpanNode> {
        self.nodes.values()
    }

    /// Looks up a node by full path.
    pub fn get(&self, path: &str) -> Option<&SpanNode> {
        self.nodes.get(path)
    }

    /// Number of nodes (including materialized parents).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Folded-stack export: one `a;b;c <self_ns>` line per node with
    /// nonzero self-time, path-sorted — the input format of
    /// `flamegraph.pl` and `inferno`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for node in self.nodes.values() {
            let self_ns = node.self_ns();
            if self_ns == 0 {
                continue;
            }
            out.push_str(&node.path.replace('/', ";"));
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the top-`top` spans by self-time as an aligned table.
    /// Totals are printed as exact nanosecond sums so they reconcile with
    /// the underlying trace.
    pub fn self_time_table(&self, top: usize) -> String {
        let mut rows: Vec<&SpanNode> = self.nodes.values().collect();
        rows.sort_by(|a, b| b.self_ns().cmp(&a.self_ns()).then_with(|| a.path.cmp(&b.path)));
        rows.truncate(top);
        let grand: u64 = self.nodes.values().map(SpanNode::self_ns).sum();
        let width = rows.iter().map(|n| n.path.len()).max().unwrap_or(0).max(4);
        let mut out = format!(
            "{:<width$}  {:>8} {:>16} {:>16} {:>6}\n",
            "span", "count", "total_ns", "self_ns", "self%"
        );
        for node in rows {
            let self_ns = node.self_ns();
            let pct = if grand == 0 { 0.0 } else { 100.0 * self_ns as f64 / grand as f64 };
            out.push_str(&format!(
                "{:<width$}  {:>8} {:>16} {:>16} {:>5.1}%\n",
                node.path, node.count, node.total_ns, self_ns, pct
            ));
        }
        out
    }
}

/// Extracts `(path, dur_ns)` of every span record in a JSONL trace, in
/// file order: the `parse_span_record` lines, reduced to what
/// [`SpanTree::from_paths`] takes.
pub fn parse_jsonl(text: &str) -> Vec<(String, u64)> {
    text.lines().filter_map(parse_span_record).map(|r| (r.path, r.dur_ns)).collect()
}

/// A fully parsed span record, including the cross-process propagation
/// fields ([`crate::trace::TraceContext`]); fields that were absent from
/// the line parse as zero / empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// Span name (the leaf).
    pub name: String,
    /// `/`-joined path from the thread's outermost open span.
    pub path: String,
    /// Nesting depth (0 = outermost).
    pub depth: u32,
    /// Dense id of the recording thread.
    pub thread: u64,
    /// Start time in nanoseconds since the recording process's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Globally unique span id (0 when the record predates tracing).
    pub span_id: u64,
    /// Trace id (0 = none recorded).
    pub trace_id: u128,
    /// Remote span this root parents under (0 = local root).
    pub remote_parent: u64,
    /// Actor label of the recording thread, if any.
    pub actor: String,
}

/// Parses one JSONL line as written by [`crate::trace::TraceWriter`]
/// into a full [`SpanRecord`]: `None` for anything but a `"type":"span"`
/// line with a `path` and a `dur_ns` (metric records, blank lines,
/// malformed input). Traces written before cross-process propagation
/// existed parse fine: the extra fields default to zero / empty.
pub(crate) fn parse_span_record(line: &str) -> Option<SpanRecord> {
    if !line.contains("\"type\":\"span\"") {
        return None;
    }
    let path = str_field(line, "path")?;
    let name = str_field(line, "name")
        .unwrap_or_else(|| path.rsplit('/').next().unwrap_or(&path).to_owned());
    Some(SpanRecord {
        name,
        depth: u64_field(line, "depth").unwrap_or(0) as u32,
        thread: u64_field(line, "thread").unwrap_or(0),
        start_ns: u64_field(line, "start_ns").unwrap_or(0),
        dur_ns: u64_field(line, "dur_ns")?,
        span_id: u64_field(line, "span_id").unwrap_or(0),
        trace_id: str_field(line, "trace_id")
            .and_then(|h| u128::from_str_radix(&h, 16).ok())
            .unwrap_or(0),
        remote_parent: u64_field(line, "remote_parent").unwrap_or(0),
        actor: str_field(line, "actor").unwrap_or_default(),
        path,
    })
}

/// Extracts every full span record from a JSONL trace, in file order.
pub fn parse_jsonl_records(text: &str) -> Vec<SpanRecord> {
    text.lines().filter_map(parse_span_record).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanEvent, TraceWriter};

    fn sample_paths() -> Vec<(String, u64)> {
        vec![
            ("round".into(), 100),
            ("round/encrypt".into(), 60),
            ("round/encrypt/fhe.ckks.encrypt".into(), 25),
            ("round/encrypt/fhe.ckks.encrypt".into(), 25),
            ("round/decrypt".into(), 30),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tree = SpanTree::from_paths(sample_paths());
        let round = tree.get("round").expect("round node");
        assert_eq!((round.count, round.total_ns, round.child_ns), (1, 100, 90));
        assert_eq!(round.self_ns(), 10);
        let encrypt = tree.get("round/encrypt").expect("encrypt node");
        assert_eq!((encrypt.total_ns, encrypt.child_ns, encrypt.self_ns()), (60, 50, 10));
        let leaf = tree.get("round/encrypt/fhe.ckks.encrypt").expect("leaf node");
        assert_eq!((leaf.count, leaf.total_ns, leaf.self_ns()), (2, 50, 50));
        assert_eq!(leaf.name(), "fhe.ckks.encrypt");
        assert_eq!(leaf.depth(), 2);
        // Self-times sum back to the root total: no time double-counted.
        let total_self: u64 = tree.nodes().map(SpanNode::self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn missing_parents_are_materialized() {
        let tree = SpanTree::from_paths(vec![("a/b/c".to_owned(), 7)]);
        assert_eq!(tree.len(), 3);
        let a = tree.get("a").expect("implicit root");
        assert_eq!((a.count, a.total_ns, a.child_ns, a.self_ns()), (0, 0, 0, 0));
        assert_eq!(tree.get("a/b").expect("implicit mid").child_ns, 7);
        assert_eq!(tree.get("a/b/c").expect("leaf").self_ns(), 7);
    }

    #[test]
    fn folded_lines_use_semicolons_and_self_time() {
        let tree = SpanTree::from_paths(sample_paths());
        let folded = tree.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"round 10"));
        assert!(lines.contains(&"round;encrypt 10"));
        assert!(lines.contains(&"round;encrypt;fhe.ckks.encrypt 50"));
        assert!(lines.contains(&"round;decrypt 30"));
        // Folded values sum to total wall time at the root.
        let sum: u64 =
            lines.iter().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn table_ranks_by_self_time_and_truncates() {
        let tree = SpanTree::from_paths(sample_paths());
        let table = tree.self_time_table(2);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + top 2: {table}");
        assert!(lines[1].starts_with("round/encrypt/fhe.ckks.encrypt"));
        assert!(lines[1].contains(" 50 "));
        assert!(lines[2].starts_with("round/decrypt"));
    }

    #[test]
    fn jsonl_round_trip_preserves_paths_and_durations() {
        let events = vec![
            SpanEvent { name: "round", path: "round".into(), dur_ns: 100, ..SpanEvent::default() },
            SpanEvent {
                name: "encrypt",
                path: "round/encrypt".into(),
                depth: 1,
                start_ns: 10,
                dur_ns: 60,
                ..SpanEvent::default()
            },
        ];
        let mut w = TraceWriter::new(Vec::new());
        w.write_events(&events).expect("write");
        let text = String::from_utf8(w.into_inner().expect("flush")).expect("utf8");
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed, vec![("round".to_owned(), 100), ("round/encrypt".to_owned(), 60)]);
        // Non-span lines and garbage are skipped, not misparsed.
        assert_eq!(parse_span_record(r#"{"type":"counter","name":"x","value":3}"#), None);
        assert_eq!(parse_span_record("not json"), None);
    }

    #[test]
    fn parser_unescapes_json_strings() {
        let line = r#"{"type":"span","name":"x","path":"a\"b\\cA/leaf","dur_ns":9}"#;
        let rec = parse_span_record(line).expect("span record");
        assert_eq!((rec.path.as_str(), rec.dur_ns), ("a\"b\\cA/leaf", 9));
    }

    #[test]
    fn span_record_round_trip_with_propagation_fields() {
        let event = SpanEvent {
            name: "client_round",
            path: "client_round".into(),
            thread: 3,
            start_ns: 40,
            dur_ns: 500,
            span_id: 99,
            trace_id: 0xfeed_beef,
            remote_parent: 12,
            actor: Some(std::sync::Arc::from("client2")),
            ..SpanEvent::default()
        };
        let mut w = TraceWriter::new(Vec::new());
        w.write_event(&event).expect("write");
        let text = String::from_utf8(w.into_inner().expect("flush")).expect("utf8");
        let rec = parse_span_record(text.trim()).expect("span record");
        assert_eq!(rec.name, "client_round");
        assert_eq!(rec.path, "client_round");
        assert_eq!((rec.thread, rec.start_ns, rec.dur_ns), (3, 40, 500));
        assert_eq!(rec.span_id, 99);
        assert_eq!(rec.trace_id, 0xfeed_beef);
        assert_eq!(rec.remote_parent, 12);
        assert_eq!(rec.actor, "client2");
        // Legacy lines without the propagation fields still parse.
        let legacy = r#"{"type":"span","name":"round","path":"round","dur_ns":7}"#;
        let rec = parse_span_record(legacy).expect("legacy record");
        assert_eq!((rec.span_id, rec.trace_id, rec.remote_parent), (0, 0, 0));
        assert!(rec.actor.is_empty());
    }
}
