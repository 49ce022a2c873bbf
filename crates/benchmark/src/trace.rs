//! The benchmark's own in-memory tracer. Spans are opened and closed by
//! the drivers around each call into a layer (the program itself has no
//! spans the benchmark could read yet), kept in memory, and turned into
//! per-layer numbers and a JSONL file when the run ends.
//!
//! The end-to-end binary instantiates the drivers with [`NoTrace`], whose
//! methods are empty and inline away; the traced binary uses
//! [`MemTrace`].

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::sut;

/// What the drivers need from a tracer.
pub trait Tracer {
    /// Marks the round (the "request") every following span belongs to.
    fn set_round(&mut self, round: u64);
    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn exit(&mut self);
}

/// Runs `f` inside a span named `name`.
#[inline]
pub fn span<T: Tracer, R>(tracer: &mut T, name: &'static str, f: impl FnOnce() -> R) -> R {
    tracer.enter(name);
    let out = f();
    tracer.exit();
    out
}

/// The tracer of the end-to-end binary: does nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn set_round(&mut self, _round: u64) {}
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name of the public function timed.
    pub name: &'static str,
    /// Index of the enclosing span in [`MemTrace::spans`], if any.
    pub parent: Option<usize>,
    /// The round the span belongs to.
    pub round: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Heap bytes the thread allocated inside the span (0 unless the
    /// tracking allocator is installed).
    pub alloc_bytes: u64,
}

impl SpanRec {
    /// Wall time of the span; 0 for one that was never closed.
    pub fn dur_ns(&self) -> u64 {
        // A span left open by a failed layer call has no end.
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The tracer of the traced binary: records every span in memory.
#[derive(Debug)]
pub struct MemTrace {
    epoch: Instant,
    round: u64,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Default for MemTrace {
    fn default() -> Self {
        // Reserved up front so recording does not reallocate (and bill
        // the copy to whichever span is open) in the middle of a round.
        MemTrace {
            epoch: Instant::now(),
            round: 0,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }
}

impl Tracer for MemTrace {
    fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    fn enter(&mut self, name: &'static str) {
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            round: self.round,
            start_ns: 0,
            end_ns: 0,
            alloc_bytes: 0,
        });
        self.open.push(idx);
        // Counters are read last on entry and first on exit, so the
        // bookkeeping above is billed to the parent, not to this span.
        let rec = &mut self.spans[idx];
        rec.alloc_bytes = sut::thread_allocated_bytes();
        rec.start_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    fn exit(&mut self) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let allocated = sut::thread_allocated_bytes();
        let idx = self.open.pop().expect("exit without a matching enter");
        let rec = &mut self.spans[idx];
        rec.end_ns = end_ns;
        rec.alloc_bytes = allocated - rec.alloc_bytes;
    }
}

/// Per-name aggregate of the spans directly under `round`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerStats {
    /// Wall time of every call, in milliseconds.
    pub ms: Vec<f64>,
    /// Heap bytes of every call.
    pub alloc_bytes: Vec<f64>,
}

impl MemTrace {
    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// `/`-joined path of span `idx` from its outermost ancestor — the
    /// key `SpanTree` aggregates on.
    pub fn path(&self, idx: usize) -> String {
        let rec = &self.spans[idx];
        match rec.parent {
            Some(p) => format!("{}/{}", self.path(p), rec.name),
            None => rec.name.to_owned(),
        }
    }

    /// The spans as a `SpanTree` (self time = span minus the interval its
    /// children cover), reusing the program's own attribution code.
    pub fn tree(&self) -> sut::SpanTree {
        sut::SpanTree::from_paths(
            (0..self.spans.len()).map(|i| (self.path(i), self.spans[i].dur_ns())),
        )
    }

    /// Calls grouped by name, for the spans whose parent is a `round`.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStats> {
        let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
        for rec in &self.spans {
            if rec.parent.is_some_and(|p| self.spans[p].name == ROUND) {
                let stats = out.entry(rec.name).or_default();
                stats.ms.push(rec.dur_ns() as f64 / 1e6);
                stats.alloc_bytes.push(rec.alloc_bytes as f64);
            }
        }
        out
    }

    /// Wall time of every `round` span, in milliseconds.
    pub fn round_ms(&self) -> Vec<f64> {
        self.spans.iter().filter(|r| r.name == ROUND).map(|r| r.dur_ns() as f64 / 1e6).collect()
    }

    /// Writes the spans as JSONL in the format `trace_report` reads. The
    /// round id travels as the trace id, so spans of one round share it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: W) -> io::Result<()> {
        let mut writer = sut::TraceWriter::new(w);
        for (idx, rec) in self.spans.iter().enumerate() {
            let path = self.path(idx);
            writer.write_event(&sut::SpanEvent {
                name: rec.name,
                depth: path.matches('/').count() as u32,
                path,
                thread: 0,
                start_ns: rec.start_ns,
                dur_ns: rec.dur_ns(),
                span_id: idx as u64 + 1,
                trace_id: u128::from(rec.round) + 1,
                remote_parent: 0,
                actor: None,
                alloc_bytes: rec.alloc_bytes,
                alloc_calls: 0,
            })?;
        }
        Ok(())
    }
}

/// Name of the span that encloses one whole round.
pub const ROUND: &str = "round";

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built trace: one round of 100 ns holding a 60 ns child
    /// (itself holding 25 + 25 ns) and a 30 ns child.
    fn hand_built() -> MemTrace {
        let rec = |name, parent, start_ns, end_ns| SpanRec {
            name,
            parent,
            round: 3,
            start_ns,
            end_ns,
            alloc_bytes: 0,
        };
        MemTrace {
            spans: vec![
                rec(ROUND, None, 0, 100),
                rec("a.encrypt", Some(0), 5, 65),
                rec("fhe.x", Some(1), 10, 35),
                rec("fhe.x", Some(1), 35, 60),
                rec("a.decrypt", Some(0), 65, 95),
            ],
            ..MemTrace::default()
        }
    }

    #[test]
    fn self_time_is_span_minus_the_interval_children_cover() {
        let tree = hand_built().tree();
        let round = tree.get("round").expect("round");
        assert_eq!((round.total_ns, round.child_ns, round.self_ns()), (100, 90, 10));
        let enc = tree.get("round/a.encrypt").expect("encrypt");
        assert_eq!((enc.total_ns, enc.child_ns, enc.self_ns()), (60, 50, 10));
        let leaf = tree.get("round/a.encrypt/fhe.x").expect("leaf");
        assert_eq!((leaf.count, leaf.self_ns()), (2, 50));
        assert_eq!(enc.child_ns + enc.self_ns(), enc.total_ns, "children + remainder = own time");
    }

    #[test]
    fn layers_are_the_direct_children_of_round() {
        let t = hand_built();
        let layers = t.layers();
        assert_eq!(layers.keys().copied().collect::<Vec<_>>(), ["a.decrypt", "a.encrypt"]);
        assert_eq!(layers["a.encrypt"].ms, [60e-6]);
        assert_eq!(t.round_ms(), [100e-6]);
    }

    #[test]
    fn recording_nests_and_closes_in_order() {
        let mut t = MemTrace::default();
        t.set_round(7);
        t.enter(ROUND);
        let out = span(&mut t, "layer.f", || 41 + 1);
        t.exit();
        assert_eq!(out, 42);
        let [round, child] = t.spans() else { panic!("two spans") };
        assert_eq!((child.parent, child.round, round.parent), (Some(0), 7, None));
        assert!(round.start_ns <= child.start_ns && child.end_ns <= round.end_ns);
    }

    #[test]
    fn jsonl_is_what_trace_report_parses() {
        let mut buf = Vec::new();
        hand_built().write_jsonl(&mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let parsed = sut::parse_jsonl(&text);
        assert_eq!(parsed.len(), 5);
        assert_eq!(parsed[2], ("round/a.encrypt/fhe.x".to_owned(), 25));
    }
}
