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

fn root_of(path: &str) -> &str {
    path.split('/').next().unwrap_or(path)
}

fn actor_of<'a>(rec: &'a SpanRecord, label: &'a str) -> &'a str {
    if rec.actor.is_empty() {
        label
    } else {
        &rec.actor
    }
}

/// Prefix-resolution key: all roots of one source with the same actor and
/// root span name share a merged prefix (their rounds differ only in
/// which concrete parent span they link to, never in its path).
type GroupKey = (usize, String, String);

fn prefix_for(
    sources: &[FedSource],
    index: &BTreeMap<u64, (usize, usize)>,
    memo: &mut BTreeMap<GroupKey, String>,
    visiting: &mut Vec<GroupKey>,
    key: &GroupKey,
) -> String {
    if let Some(p) = memo.get(key) {
        return p.clone();
    }
    if visiting.contains(key) {
        // Malformed input with a parent cycle: fall back to the bare
        // actor prefix rather than recursing forever.
        return key.1.clone();
    }
    visiting.push(key.clone());
    let (si, actor, root) = key;
    let src = &sources[*si];
    let rep = src.records.iter().find(|r| {
        r.depth == 0
            && r.path == *root
            && actor_of(r, &src.label) == actor
            && r.remote_parent != 0
            && r.remote_parent != r.span_id
            && index.contains_key(&r.remote_parent)
    });
    let prefix = match rep {
        // No resolvable remote parent anywhere in the group: a true root,
        // anchored directly under its actor.
        None => actor.clone(),
        Some(r) => {
            let (psi, pri) = index[&r.remote_parent];
            let parent = &sources[psi].records[pri];
            let p_actor = actor_of(parent, &sources[psi].label).to_owned();
            let pkey = (psi, p_actor.clone(), root_of(&parent.path).to_owned());
            let parent_prefix = prefix_for(sources, index, memo, visiting, &pkey);
            let parent_merged = format!("{parent_prefix}/{}", parent.path);
            if p_actor == *actor {
                // Same actor on both ends (e.g. a handler thread span
                // parenting under the coordinator's round span): no actor
                // boundary to mark.
                parent_merged
            } else {
                format!("{parent_merged}/{actor}")
            }
        }
    };
    visiting.pop();
    memo.insert(key.clone(), prefix.clone());
    prefix
}

/// Rewrites every record of every source onto its federation-wide merged
/// path, returning `(merged_path, dur_ns)` pairs suitable for
/// [`SpanTree::from_paths`].
pub fn merged_paths(sources: &[FedSource]) -> Vec<(String, u64)> {
    let mut index: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for (si, s) in sources.iter().enumerate() {
        for (ri, r) in s.records.iter().enumerate() {
            if r.span_id != 0 {
                index.insert(r.span_id, (si, ri));
            }
        }
    }
    let mut memo = BTreeMap::new();
    let mut out = Vec::new();
    for (si, s) in sources.iter().enumerate() {
        for r in &s.records {
            let key: GroupKey = (si, actor_of(r, &s.label).to_owned(), root_of(&r.path).to_owned());
            let prefix = prefix_for(sources, &index, &mut memo, &mut Vec::new(), &key);
            out.push((format!("{prefix}/{}", r.path), r.dur_ns));
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
        // leg. Roots of one source with the same actor and name share
        // one prefix (see `GroupKey`), so the first resolvable link
        // decides for both: the totals stay exact, the second span's
        // attribution does not. The networked runtime opens no such
        // spans (uploads are interpreted under `net_round`).
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
        let pooled = tree
            .get("server/net_round/client0/client_round/server/net_decode")
            .expect("both decodes under the first linked leg");
        assert_eq!((pooled.count, pooled.total_ns), (2, 30 + 40));
        assert!(tree.get("server/net_round/client1/client_round/server/net_decode").is_none());
        assert_eq!(
            tree.get("server/net_round/client1/client_round").map(|n| n.total_ns),
            Some(650)
        );
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
