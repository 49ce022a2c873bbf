//! Federation-wide trace merging: stitches the server's and N clients'
//! JSONL traces into one span tree by resolving cross-process parent
//! links ([`crate::trace::TraceContext`]).
//!
//! Every tracked span carries a globally unique `span_id`; a frame on the
//! wire carries the sender's span id as `remote_parent`, which the
//! receiver stamps onto the depth-0 spans it opens while handling the
//! frame. Merging therefore reduces to path rewriting: a root span whose
//! `remote_parent` resolves into another source is grafted under that
//! span's merged path, with an actor segment (`server`, `client3`)
//! inserted whenever the trace crosses an actor boundary. The result is a
//! single [`SpanTree`] whose totals are exact nanosecond sums of the
//! input records — nothing is scaled or interpolated, so merged totals
//! reconcile with each endpoint's `RoundReport` to the nanosecond.
//!
//! Each root resolves its own link, so two same-named roots linked to
//! different parents land under different paths, and rounds whose parents
//! share a path share one. A nested span takes its root's prefix: the
//! root of its path's first segment on the same thread that was open
//! when it started.
//!
//! Example merged paths from a loopback federation:
//!
//! ```text
//! server/net_round                              server round span
//! server/net_round/broadcast                    handler fan-out
//! server/net_round/client2/client_round         client leg, same trace
//! server/net_round/client2/client_round/encrypt
//! server/net_round/net_fold                     per upload (CKKS)
//! server/net_round/net_decode                   per upload (plaintext)
//! server/net_round/net_aggregate
//! ```
//!
//! A span whose remote parent is another actor's span crosses back the
//! same way (`…/client2/client_round/server/<span>`); the networked
//! runtime opens none today — uploads are interpreted on the
//! coordinator, under `net_round`.

use std::collections::BTreeMap;

use crate::profile::{SpanRecord, SpanTree};

/// One endpoint's trace: a label (used as the actor for records that
/// carry none) plus its parsed span records.
#[derive(Debug, Clone)]
pub struct FedSource {
    /// Actor label for this source ("server", "client0", …).
    pub label: String,
    /// Parsed span records (see [`crate::profile::parse_jsonl_records`]).
    pub records: Vec<SpanRecord>,
}

impl FedSource {
    /// Bundles a label with parsed records.
    pub fn new(label: impl Into<String>, records: Vec<SpanRecord>) -> Self {
        FedSource { label: label.into(), records }
    }
}

fn actor_of<'a>(rec: &'a SpanRecord, label: &'a str) -> &'a str {
    if rec.actor.is_empty() {
        label
    } else {
        &rec.actor
    }
}

/// Resolves merged-path prefixes: a root's from its own `remote_parent`,
/// a nested span's from the root it ran under.
struct Resolver<'a> {
    sources: &'a [FedSource],
    /// Where each span id was recorded, as `(source, record)` indices.
    by_id: BTreeMap<u64, (usize, usize)>,
    /// Root records by `(source, actor, name, thread)`, in start order.
    roots: BTreeMap<(usize, &'a str, &'a str, u64), Vec<usize>>,
    /// Prefixes of the roots resolved so far, by `(source, record)`.
    memo: BTreeMap<(usize, usize), String>,
    /// Roots whose parent chain is being resolved, to cut cycles.
    visiting: Vec<(usize, usize)>,
}

impl<'a> Resolver<'a> {
    fn new(sources: &'a [FedSource]) -> Self {
        let mut by_id = BTreeMap::new();
        let mut roots: BTreeMap<_, Vec<usize>> = BTreeMap::new();
        for (si, s) in sources.iter().enumerate() {
            for (ri, r) in s.records.iter().enumerate() {
                if r.span_id != 0 {
                    by_id.insert(r.span_id, (si, ri));
                }
                if r.depth == 0 {
                    let key = (si, actor_of(r, &s.label), r.path.as_str(), r.thread);
                    roots.entry(key).or_default().push(ri);
                }
            }
        }
        for (&(si, ..), list) in &mut roots {
            list.sort_by_key(|&ri| sources[si].records[ri].start_ns);
        }
        Resolver { sources, by_id, roots, memo: BTreeMap::new(), visiting: Vec::new() }
    }

    /// The root record that record `ri` of source `si` ran under: itself
    /// at depth 0; otherwise the latest-opened root of its path's first
    /// segment on its thread that was open at its start. `None` when that
    /// root was never recorded.
    fn root_of(&self, si: usize, ri: usize) -> Option<usize> {
        let src = &self.sources[si];
        let rec = &src.records[ri];
        if rec.depth == 0 {
            return Some(ri);
        }
        let name = rec.path.split('/').next().unwrap_or(&rec.path);
        let roots = self.roots.get(&(si, actor_of(rec, &src.label), name, rec.thread))?;
        let records = &src.records;
        let opened = &roots[..roots.partition_point(|&i| records[i].start_ns <= rec.start_ns)];
        opened
            .iter()
            .rev()
            .copied()
            .find(|&i| records[i].start_ns.saturating_add(records[i].dur_ns) >= rec.start_ns)
    }

    /// The merged-path prefix of record `ri` of source `si`.
    fn prefix(&mut self, si: usize, ri: usize) -> String {
        let sources = self.sources;
        let src = &sources[si];
        let actor = actor_of(&src.records[ri], &src.label);
        let Some(root) = self.root_of(si, ri) else {
            return actor.to_owned();
        };
        if let Some(p) = self.memo.get(&(si, root)) {
            return p.clone();
        }
        if self.visiting.contains(&(si, root)) {
            // Malformed input with a parent cycle: fall back to the bare
            // actor prefix rather than recursing forever.
            return actor.to_owned();
        }
        let rec = &src.records[root];
        let parent =
            self.by_id.get(&rec.remote_parent).filter(|_| rec.remote_parent != rec.span_id);
        let prefix = match parent.copied() {
            // No resolvable remote parent: a true root, anchored directly
            // under its actor.
            None => actor.to_owned(),
            Some((psi, pri)) => {
                self.visiting.push((si, root));
                let parent_prefix = self.prefix(psi, pri);
                self.visiting.pop();
                let parent = &sources[psi].records[pri];
                let parent_merged = format!("{parent_prefix}/{}", parent.path);
                if actor_of(parent, &sources[psi].label) == actor {
                    // Same actor on both ends (e.g. a handler thread span
                    // parenting under the coordinator's round span): no
                    // actor boundary to mark.
                    parent_merged
                } else {
                    format!("{parent_merged}/{actor}")
                }
            }
        };
        self.memo.insert((si, root), prefix.clone());
        prefix
    }
}

/// Rewrites every record of every source onto its federation-wide merged
/// path, returning `(merged_path, dur_ns)` pairs suitable for
/// [`SpanTree::from_paths`].
pub(crate) fn merged_paths(sources: &[FedSource]) -> Vec<(String, u64)> {
    let mut resolver = Resolver::new(sources);
    let mut out = Vec::new();
    for (si, s) in sources.iter().enumerate() {
        for (ri, r) in s.records.iter().enumerate() {
            out.push((format!("{}/{}", resolver.prefix(si, ri), r.path), r.dur_ns));
        }
    }
    out
}

/// Merges all sources into one federation-wide [`SpanTree`].
pub fn merge(sources: &[FedSource]) -> SpanTree {
    SpanTree::from_paths(merged_paths(sources))
}

/// Exact nanosecond total of every span named `name` recorded by `actor`
/// across all sources — the per-endpoint figure merged trees are
/// reconciled against (`RoundReport` fields are populated from the same
/// span measurements).
pub fn actor_span_total(sources: &[FedSource], actor: &str, name: &str) -> u64 {
    sources
        .iter()
        .flat_map(|s| s.records.iter().map(move |r| (actor_of(r, &s.label), r)))
        .filter(|(a, r)| *a == actor && r.name == name)
        .map(|(_, r)| r.dur_ns)
        .sum()
}

/// Distinct trace ids present across all sources (0 excluded).
pub fn trace_ids(sources: &[FedSource]) -> Vec<u128> {
    let mut ids: Vec<u128> = sources
        .iter()
        .flat_map(|s| s.records.iter().map(|r| r.trace_id))
        .filter(|&id| id != 0)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        name: &str,
        path: &str,
        depth: u32,
        dur_ns: u64,
        span_id: u64,
        remote_parent: u64,
    ) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            path: path.to_owned(),
            depth,
            dur_ns,
            span_id,
            remote_parent,
            trace_id: 0xabc,
            ..SpanRecord::default()
        }
    }

    /// Two rounds, one server + two clients: client roots graft under the
    /// per-round server span, server-side decode grafts back under the
    /// client leg, and every total survives the merge exactly.
    fn federation() -> Vec<FedSource> {
        let server = FedSource::new(
            "server",
            vec![
                rec("net_round", "net_round", 0, 1_000, 10, 0),
                rec("net_aggregate", "net_round/net_aggregate", 1, 200, 11, 0),
                rec("broadcast", "broadcast", 0, 50, 12, 10),
                rec("net_decode", "net_decode", 0, 30, 13, 20),
                rec("net_round", "net_round", 0, 1_100, 14, 0),
                rec("net_aggregate", "net_round/net_aggregate", 1, 210, 15, 0),
                rec("broadcast", "broadcast", 0, 60, 16, 14),
                rec("net_decode", "net_decode", 0, 40, 17, 24),
            ],
        );
        let client0 = FedSource::new(
            "client0",
            vec![
                rec("client_round", "client_round", 0, 700, 20, 10),
                rec("local_train", "client_round/local_train", 1, 300, 21, 0),
                rec("encrypt", "client_round/encrypt", 1, 250, 22, 0),
                rec("client_round", "client_round", 0, 710, 24, 14),
                rec("local_train", "client_round/local_train", 1, 310, 25, 0),
                rec("encrypt", "client_round/encrypt", 1, 260, 26, 0),
            ],
        );
        let client1 = FedSource::new(
            "client1",
            vec![
                rec("client_round", "client_round", 0, 650, 30, 10),
                rec("decrypt", "decrypt", 0, 90, 31, 14),
            ],
        );
        vec![server, client0, client1]
    }

    #[test]
    fn client_roots_graft_under_server_round() {
        let tree = merge(&federation());
        let client_leg = tree.get("server/net_round/client0/client_round").expect("client leg");
        assert_eq!(client_leg.count, 2);
        assert_eq!(client_leg.total_ns, 700 + 710);
        let encrypt =
            tree.get("server/net_round/client0/client_round/encrypt").expect("encrypt leaf");
        assert_eq!(encrypt.total_ns, 250 + 260);
        assert!(tree.get("server/net_round/client1/client_round").is_some());
        assert!(tree.get("server/net_round/client1/decrypt").is_some());
    }

    #[test]
    fn same_actor_links_add_no_actor_segment() {
        let tree = merge(&federation());
        // Handler broadcast spans parent under the coordinator's round
        // span without a duplicated "server" segment.
        let broadcast = tree.get("server/net_round/broadcast").expect("broadcast");
        assert_eq!(broadcast.total_ns, 110);
        assert!(tree.get("server/net_round/server/broadcast").is_none());
    }

    #[test]
    fn cross_actor_links_mark_the_boundary() {
        let tree = merge(&federation());
        // net_decode parents under client0's round leg, crossing back to
        // the server actor.
        let decode = tree
            .get("server/net_round/client0/client_round/server/net_decode")
            .expect("decode under the client leg");
        assert_eq!(decode.total_ns, 70);

        // Two clients in one round, one server root span linked to each
        // leg: each root grafts under the leg its own link names.
        let server = FedSource::new(
            "server",
            vec![
                rec("net_round", "net_round", 0, 1_000, 10, 0),
                rec("net_decode", "net_decode", 0, 30, 13, 20),
                rec("net_decode", "net_decode", 0, 40, 14, 30),
            ],
        );
        let [client0, client1] =
            [("client0", 700, 20), ("client1", 650, 30)].map(|(label, dur, id)| {
                FedSource::new(label, vec![rec("client_round", "client_round", 0, dur, id, 10)])
            });
        let tree = merge(&[server, client0, client1]);
        for (client, total) in [("client0", 30), ("client1", 40)] {
            let path = format!("server/net_round/{client}/client_round/server/net_decode");
            let decode = tree.get(&path).unwrap_or_else(|| panic!("decode under {client}'s leg"));
            assert_eq!((decode.count, decode.total_ns), (1, total));
        }
        assert_eq!(
            tree.get("server/net_round/client1/client_round").map(|n| n.total_ns),
            Some(650)
        );
    }

    #[test]
    fn nested_spans_follow_the_root_they_ran_under() {
        // One client thread decrypts twice: the first root linked to
        // round 10, the second unlinked. Each child lands under its own.
        let at = |r: SpanRecord, start_ns: u64| SpanRecord { start_ns, thread: 3, ..r };
        let client = FedSource::new(
            "client0",
            vec![
                at(rec("fhe.ckks.decrypt", "decrypt/fhe.ckks.decrypt", 1, 20, 0, 0), 110),
                at(rec("decrypt", "decrypt", 0, 50, 21, 10), 100),
                at(rec("fhe.ckks.decrypt", "decrypt/fhe.ckks.decrypt", 1, 30, 0, 0), 410),
                at(rec("decrypt", "decrypt", 0, 70, 22, 0), 400),
            ],
        );
        let server = FedSource::new("server", vec![rec("net_round", "net_round", 0, 1_000, 10, 0)]);
        let tree = merge(&[server, client]);
        let linked = tree.get("server/net_round/client0/decrypt/fhe.ckks.decrypt");
        assert_eq!(linked.map(|n| n.total_ns), Some(20));
        let unlinked = tree.get("client0/decrypt/fhe.ckks.decrypt");
        assert_eq!(unlinked.map(|n| n.total_ns), Some(30));
    }

    #[test]
    fn merged_totals_reconcile_exactly() {
        let sources = federation();
        let tree = merge(&sources);
        let grand: u64 = tree.nodes().map(crate::profile::SpanNode::self_ns).sum();
        let input: u64 =
            sources.iter().flat_map(|s| s.records.iter().map(|r| r.dur_ns)).sum::<u64>();
        // Self-times partition the merged tree, but cross-process child
        // time (client legs under net_round) exceeds the parent's local
        // window, so only exact per-name totals are meaningful:
        assert!(grand <= input);
        assert_eq!(actor_span_total(&sources, "client0", "encrypt"), 510);
        assert_eq!(actor_span_total(&sources, "server", "net_aggregate"), 410);
        let agg = tree.get("server/net_round/net_aggregate").expect("aggregate");
        assert_eq!(agg.total_ns, actor_span_total(&sources, "server", "net_aggregate"));
    }

    #[test]
    fn unlinked_roots_anchor_under_their_actor() {
        let sources = vec![FedSource::new(
            "client7",
            vec![rec("decrypt", "decrypt", 0, 5, 40, 999_999)], // dangling parent
        )];
        let tree = merge(&sources);
        assert!(tree.get("client7/decrypt").is_some(), "dangling link falls back to actor root");
    }

    #[test]
    fn parent_cycles_terminate() {
        let sources = vec![FedSource::new(
            "weird",
            vec![rec("a", "a", 0, 5, 1, 2), rec("b", "b", 0, 6, 2, 1)],
        )];
        let tree = merge(&sources);
        assert!(!tree.is_empty(), "cycle input still merges");
    }

    #[test]
    fn trace_ids_collects_distinct_nonzero() {
        assert_eq!(trace_ids(&federation()), vec![0xabc]);
        let untraced = vec![FedSource::new(
            "x",
            vec![SpanRecord { path: "a".into(), dur_ns: 1, ..SpanRecord::default() }],
        )];
        assert!(trace_ids(&untraced).is_empty(), "zero trace ids are excluded");
    }
}
