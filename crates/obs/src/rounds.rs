//! Round-timeline store behind the `/rounds.json` endpoint.
//!
//! The `FlServer` coordinator publishes one [`RoundRecord`] per
//! aggregation round (when telemetry is enabled): per-client arrival
//! offsets relative to the round's broadcast, the instant quorum was
//! met, and the straggler count. `render_json` joins that timeline
//! with the six round phases' span histograms
//! ([`PHASE_SPANS`](telemetry::PHASE_SPANS)) from the global registry
//! into one JSON document.
//!
//! Schema (DESIGN.md §12):
//!
//! ```json
//! {
//!   "rounds": [
//!     {
//!       "round": 0, "start_ns": 123, "quorum_ns": 456, "close_ns": 789,
//!       "received": 4, "rejected": 0, "stragglers": 0,
//!       "arrivals": [
//!         {"client_id": 0, "offset_ns": 321, "bytes": 65536, "accepted": true}
//!       ]
//!     }
//!   ],
//!   "phases": {
//!     "broadcast": {"count": 12, "p50": 1000, "p95": 2000, "p99": 2500},
//!     ...
//!   }
//! }
//! ```
//!
//! `start_ns` is a trace-clock timestamp (same epoch as `/trace.json`
//! span starts); `quorum_ns`, `close_ns` and arrival `offset_ns` are
//! offsets from the round's broadcast instant. `quorum_ns` is `null`
//! for rounds that closed without reaching quorum.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use rhychee_telemetry as telemetry;
use rhychee_telemetry::json::JsonObject;

/// Most recent rounds retained; older records are evicted FIFO.
pub(crate) const ROUNDS_CAP: usize = 1024;

/// One client's upload within a round's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientArrival {
    /// Uploading client.
    pub client_id: usize,
    /// Read-completion offset from the round's broadcast, in ns.
    pub offset_ns: u64,
    /// Framed upload size read off the socket.
    pub bytes: u64,
    /// Whether the update was folded into the aggregate.
    pub accepted: bool,
}

/// One aggregation round's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Trace-clock timestamp of the round's broadcast.
    pub start_ns: u64,
    /// Offset from broadcast when the quorum-th update was accepted.
    pub quorum_ns: Option<u64>,
    /// Offset from broadcast when the round closed (aggregate done).
    pub close_ns: u64,
    /// Updates folded into the aggregate.
    pub received: usize,
    /// Late or duplicate uploads NACKed during the round.
    pub rejected: usize,
    /// Clients live at broadcast whose update missed the aggregate.
    pub stragglers: usize,
    /// Per-upload arrivals, in arrival order.
    pub arrivals: Vec<ClientArrival>,
}

fn ring() -> &'static Mutex<VecDeque<RoundRecord>> {
    static RING: OnceLock<Mutex<VecDeque<RoundRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(64)))
}

/// Appends a round record, evicting the oldest past `ROUNDS_CAP`.
pub fn record(rec: RoundRecord) {
    let mut ring = ring().lock().expect("rounds ring poisoned");
    if ring.len() == ROUNDS_CAP {
        ring.pop_front();
    }
    ring.push_back(rec);
}

/// A copy of the retained timeline, oldest round first.
pub fn snapshot() -> Vec<RoundRecord> {
    ring().lock().expect("rounds ring poisoned").iter().cloned().collect()
}

/// Empties the store (test isolation between runs in one process).
pub fn clear() {
    ring().lock().expect("rounds ring poisoned").clear();
}

/// Renders the `/rounds.json` body: the retained round timeline plus
/// p50/p95/p99 summaries of each phase's span histogram.
pub(crate) fn render_json() -> String {
    let rounds = snapshot();
    let mut out = String::from("{\"rounds\":[");
    for (i, r) in rounds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"round\":");
        out.push_str(&r.round.to_string());
        out.push_str(",\"start_ns\":");
        out.push_str(&r.start_ns.to_string());
        out.push_str(",\"quorum_ns\":");
        match r.quorum_ns {
            Some(q) => out.push_str(&q.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"close_ns\":");
        out.push_str(&r.close_ns.to_string());
        out.push_str(",\"received\":");
        out.push_str(&r.received.to_string());
        out.push_str(",\"rejected\":");
        out.push_str(&r.rejected.to_string());
        out.push_str(",\"stragglers\":");
        out.push_str(&r.stragglers.to_string());
        out.push_str(",\"arrivals\":[");
        for (j, a) in r.arrivals.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let mut obj = JsonObject::new();
            obj.u64("client_id", a.client_id as u64)
                .u64("offset_ns", a.offset_ns)
                .u64("bytes", a.bytes)
                .bool("accepted", a.accepted);
            out.push_str(&obj.finish());
        }
        out.push_str("]}");
    }
    out.push_str("],\"phases\":{");
    let reg = telemetry::metrics::global();
    for (i, (phase, span)) in telemetry::PHASE_SPANS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let h = reg.histogram(span);
        let mut obj = JsonObject::new();
        obj.u64("count", h.count())
            .u64("p50", h.quantile(0.5).unwrap_or(0))
            .u64("p95", h.quantile(0.95).unwrap_or(0))
            .u64("p99", h.quantile(0.99).unwrap_or(0));
        out.push_str(&format!("\"{phase}\":{}", obj.finish()));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: usize) -> RoundRecord {
        RoundRecord {
            round,
            start_ns: 1_000 + round as u64,
            quorum_ns: Some(50),
            close_ns: 90,
            received: 2,
            rejected: 1,
            stragglers: 0,
            arrivals: vec![
                ClientArrival { client_id: 0, offset_ns: 40, bytes: 128, accepted: true },
                ClientArrival { client_id: 1, offset_ns: 50, bytes: 130, accepted: true },
            ],
        }
    }

    #[test]
    fn ring_evicts_oldest_past_cap() {
        clear();
        for round in 0..ROUNDS_CAP + 3 {
            record(rec(round));
        }
        let snap = snapshot();
        assert_eq!(snap.len(), ROUNDS_CAP);
        assert_eq!(snap.first().expect("first").round, 3);
        assert_eq!(snap.last().expect("last").round, ROUNDS_CAP + 2);
        clear();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn render_json_emits_rounds_and_all_six_phases() {
        clear();
        record(RoundRecord { quorum_ns: None, ..rec(7) });
        record(rec(8));
        let body = render_json();
        clear();

        assert!(body.starts_with("{\"rounds\":["), "{body}");
        assert!(body.contains("\"round\":7"), "{body}");
        assert!(body.contains("\"quorum_ns\":null"), "{body}");
        assert!(body.contains("\"quorum_ns\":50"), "{body}");
        assert!(body.contains("\"stragglers\":0"), "{body}");
        assert!(
            body.contains("{\"client_id\":1,\"offset_ns\":50,\"bytes\":130,\"accepted\":true}"),
            "{body}"
        );
        for (phase, _) in telemetry::PHASE_SPANS {
            assert!(body.contains(&format!("\"{phase}\":{{\"count\":")), "{phase} in {body}");
        }
        // Balanced braces/brackets: crude structural validity check.
        let opens = body.matches('{').count();
        let closes = body.matches('}').count();
        assert_eq!(opens, closes, "{body}");
    }
}
