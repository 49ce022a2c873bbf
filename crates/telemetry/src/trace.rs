//! Trace buffering, JSONL export and the human-readable summary table.
//!
//! Completed spans land in one bounded global store: [`recent_events`]
//! reads its newest spans, [`drain_events`] takes them all.
//! [`TraceWriter`] serializes span events and metric snapshots as JSON
//! Lines — one self-describing object per line, distinguished by a
//! `"type"` field (`span`, `counter`, `gauge`, `histogram`) — so traces
//! from different runs can be concatenated and grepped.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::JsonObject;
use crate::metrics::MetricsSnapshot;

/// Hard cap on stored span events; at the cap the oldest span is evicted
/// and counted in `telemetry.trace.dropped`, bounding memory on
/// unbounded runs.
const MAX_EVENTS: usize = 1 << 20;

/// How many of the newest spans [`recent_events`] returns (what the
/// observability plane's `/trace.json` and the flight recorder show).
const RECENT_CAP: usize = 4096;

/// Cross-process trace context: ties spans on both ends of a wire frame
/// into one federation-wide trace. The context is 24 bytes on the wire
/// (16-byte trace id + 8-byte parent span id); the round number rides in
/// the frame header's existing round field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit id shared by every span in one federation run.
    pub trace_id: u128,
    /// Id of the span on the sending side that this frame (and any spans
    /// its receipt opens) should parent under.
    pub parent_span: u64,
    /// Federation round the frame belongs to.
    pub round: u32,
}

impl TraceContext {
    /// Serialized size of the context on the wire (trace id + parent
    /// span id; the round travels in the frame header).
    pub const WIRE_LEN: usize = 24;

    /// Little-endian wire encoding: trace id (16 bytes) then parent span
    /// id (8 bytes).
    #[must_use]
    pub fn to_wire(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..16].copy_from_slice(&self.trace_id.to_le_bytes());
        out[16..].copy_from_slice(&self.parent_span.to_le_bytes());
        out
    }

    /// Decodes the wire form produced by [`TraceContext::to_wire`];
    /// `round` comes from the enclosing frame header.
    #[must_use]
    pub fn from_wire(bytes: &[u8; Self::WIRE_LEN], round: u32) -> Self {
        let trace_id = u128::from_le_bytes(bytes[..16].try_into().expect("16-byte trace id"));
        let parent_span = u64::from_le_bytes(bytes[16..].try_into().expect("8-byte span id"));
        TraceContext { trace_id, parent_span, round }
    }
}

/// Seeds a process-unique base for ids from the wall clock, PID and ASLR,
/// finalized with the SplitMix64 mixer so nearby seeds land far apart.
fn entropy64() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let pid = u64::from(std::process::id());
    let stack_probe = &nanos as *const u64 as u64;
    let mut z = nanos ^ pid.rotate_left(32) ^ stack_probe.rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh 128-bit trace id, unique across processes with overwhelming
/// probability (two independent 64-bit entropy draws).
#[must_use]
pub fn new_trace_id() -> u128 {
    let id = (u128::from(entropy64()) << 64) | u128::from(entropy64());
    if id == 0 {
        1
    } else {
        id
    }
}

/// Allocates a span id: a process-random base plus a global counter, so
/// ids are unique within a process and collide across processes only
/// with probability ~spans/2⁶⁴. Never returns 0 (0 = "no span").
pub(crate) fn next_span_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static BASE: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let id = BASE.get_or_init(entropy64).wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed));
    if id == 0 {
        1
    } else {
        id
    }
}

thread_local! {
    /// Trace context received over the wire, adopted by spans this thread
    /// opens (trace id on every tracked span; the remote parent only on
    /// depth-0 roots, which have no local parent).
    static REMOTE_CTX: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
    /// Logical actor ("server", "client3") stamped on spans this thread
    /// records, so single-process federations can still split a merged
    /// trace into per-endpoint timelines.
    static ACTOR: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// Installs (or clears) the wire-received trace context for the calling
/// thread. Subsequent tracked spans adopt its trace id, and depth-0 spans
/// parent under its `parent_span`.
pub fn set_remote_context(ctx: Option<TraceContext>) {
    REMOTE_CTX.with(|c| *c.borrow_mut() = ctx);
}

/// The calling thread's installed remote trace context.
#[must_use]
pub(crate) fn remote_context() -> Option<TraceContext> {
    REMOTE_CTX.with(|c| *c.borrow())
}

/// Labels every span subsequently recorded by the calling thread with a
/// logical actor name ("server", "client0", …).
pub fn set_actor(name: &str) {
    ACTOR.with(|a| *a.borrow_mut() = Some(Arc::from(name)));
}

/// The calling thread's actor label, if set.
#[must_use]
pub fn actor() -> Option<Arc<str>> {
    ACTOR.with(|a| a.borrow().clone())
}

/// One completed span.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (the leaf).
    pub name: &'static str,
    /// `/`-joined path from the thread's outermost open span.
    pub path: String,
    /// Nesting depth (0 = outermost).
    pub depth: u32,
    /// Dense id of the recording thread.
    pub thread: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Globally unique id of this span (0 when untracked).
    pub span_id: u64,
    /// Trace id adopted from the wire context (0 = no trace).
    pub trace_id: u128,
    /// For depth-0 spans: the remote span this one parents under
    /// (0 = local root with no remote parent).
    pub remote_parent: u64,
    /// Actor label of the recording thread, if one was set.
    pub actor: Option<Arc<str>>,
    /// Bytes the opening thread allocated inside the span (0 when the
    /// [tracking allocator](crate::alloc) is not installed).
    pub alloc_bytes: u64,
    /// Allocation calls the opening thread made inside the span.
    pub alloc_calls: u64,
}

impl SpanEvent {
    /// Appends this span's fields to `obj`: the JSONL span record's
    /// fields after its `"type"`, and each element of `/trace.json`'s
    /// `events` and the flight recorder's `recent_spans`.
    pub fn write_json(&self, obj: &mut JsonObject) {
        obj.str("name", self.name)
            .str("path", &self.path)
            .u64("depth", u64::from(self.depth))
            .u64("thread", self.thread)
            .u64("start_ns", self.start_ns)
            .u64("dur_ns", self.dur_ns);
        // Trace-propagation fields only when present, so pre-existing
        // traces and untracked spans keep their compact shape.
        if self.span_id != 0 {
            obj.u64("span_id", self.span_id);
        }
        if self.trace_id != 0 {
            obj.str("trace_id", &format!("{:032x}", self.trace_id));
        }
        if self.remote_parent != 0 {
            obj.u64("remote_parent", self.remote_parent);
        }
        if let Some(actor) = &self.actor {
            obj.str("actor", actor);
        }
        // Allocation attribution only when the tracking allocator
        // recorded something — untracked runs keep the compact shape.
        if self.alloc_bytes != 0 || self.alloc_calls != 0 {
            obj.u64("alloc_bytes", self.alloc_bytes).u64("alloc_calls", self.alloc_calls);
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Pins the trace epoch to now-or-earlier. Called when recording is
/// switched on, so spans opened afterwards never start before the epoch
/// (their `start_ns` would otherwise saturate to zero and misorder the
/// timeline).
pub(crate) fn init_epoch() {
    let _ = epoch();
}

/// The one span store, oldest first.
static STORE: Mutex<VecDeque<SpanEvent>> = Mutex::new(VecDeque::new());

/// The newest `RECENT_CAP` (4096) completed spans, oldest first.
/// Non-destructive — unlike [`drain_events`], reading leaves the store
/// intact.
pub fn recent_events() -> Vec<SpanEvent> {
    let store = STORE.lock().expect("trace store lock");
    store.range(store.len().saturating_sub(RECENT_CAP)..).cloned().collect()
}

/// Nanoseconds since the process trace epoch, on the same clock as every
/// recorded span's `start_ns`.
#[must_use]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Nanoseconds from the process trace epoch to `start` (0 for an
/// instant before it).
pub(crate) fn since_epoch(start: Instant) -> u64 {
    start.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Appends a completed span to the store (called by `Span`).
pub(crate) fn record_span(event: SpanEvent) {
    push_capped(&STORE, event, MAX_EVENTS);
}

/// Appends `event`, first evicting the oldest span if the store holds
/// `cap`. An eviction is observable (`/trace.json` reports it) instead
/// of a silent discard.
fn push_capped(store: &Mutex<VecDeque<SpanEvent>>, event: SpanEvent, cap: usize) {
    let mut store = store.lock().expect("trace store lock");
    let evicted = store.len() >= cap && store.pop_front().is_some();
    store.push_back(event);
    drop(store);
    if evicted {
        crate::metrics::global().counter("telemetry.trace.dropped").inc();
    }
}

/// Removes and returns every stored span event, oldest first.
pub fn drain_events() -> Vec<SpanEvent> {
    std::mem::take(&mut *STORE.lock().expect("trace store lock")).into()
}

/// Serializes span events and metric snapshots as JSON Lines.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        TraceWriter { w }
    }

    /// Writes one span event as a JSONL record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_event(&mut self, e: &SpanEvent) -> io::Result<()> {
        let mut obj = JsonObject::new();
        obj.str("type", "span");
        e.write_json(&mut obj);
        writeln!(self.w, "{}", obj.finish())
    }

    /// Writes a batch of span events.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_events(&mut self, events: &[SpanEvent]) -> io::Result<()> {
        events.iter().try_for_each(|e| self.write_event(e))
    }

    /// Writes every instrument in a snapshot, one JSONL record each.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_snapshot(&mut self, snap: &MetricsSnapshot) -> io::Result<()> {
        for (name, value) in &snap.counters {
            let line = JsonObject::new()
                .str("type", "counter")
                .str("name", name)
                .u64("value", *value)
                .finish();
            writeln!(self.w, "{line}")?;
        }
        for (name, value) in &snap.gauges {
            let line = JsonObject::new()
                .str("type", "gauge")
                .str("name", name)
                .f64("value", *value)
                .finish();
            writeln!(self.w, "{line}")?;
        }
        for h in &snap.histograms {
            let mut obj = JsonObject::new();
            obj.str("type", "histogram");
            h.write_json(&mut obj);
            writeln!(self.w, "{}", obj.finish())?;
        }
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Drains the trace buffer and snapshots the global registry into a JSONL
/// file at `path` (created or truncated).
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn export_jsonl(path: &std::path::Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::File::create(path)?;
    let mut w = TraceWriter::new(io::BufWriter::new(file));
    w.write_events(&drain_events())?;
    w.write_snapshot(&crate::metrics::global().snapshot())?;
    w.into_inner()?;
    Ok(())
}

fn format_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}µs", s * 1e6)
    } else {
        format!("{ns}ns")
    }
}

fn format_bytes(b: u64) -> String {
    let f = b as f64;
    if f >= 1048576.0 {
        format!("{:.2}MiB", f / 1048576.0)
    } else if f >= 1024.0 {
        format!("{:.2}KiB", f / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Renders a snapshot as an aligned, human-readable summary table:
/// counters and gauges first, then histograms with count/mean/p50/p90/
/// p99/max (durations pretty-printed from nanoseconds; histograms whose
/// name ends in `bytes` are rendered as byte sizes instead).
pub fn summary_table(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() || !snap.gauges.is_empty() {
        let width = snap
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(snap.gauges.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        out.push_str("counters/gauges:\n");
        for (name, v) in &snap.counters {
            out.push_str(&format!("  {name:<width$}  {v}\n"));
        }
        for (name, v) in &snap.gauges {
            out.push_str(&format!("  {name:<width$}  {v}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        let width = snap.histograms.iter().map(|h| h.name.len()).max().unwrap_or(0).max(4);
        out.push_str(&format!(
            "{:<width$}  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            "histogram", "count", "mean", "p50", "p90", "p99", "max"
        ));
        for h in &snap.histograms {
            let mean = h.sum.checked_div(h.count).unwrap_or(0);
            let fmt: fn(u64) -> String =
                if h.name.ends_with("bytes") { format_bytes } else { format_ns };
            out.push_str(&format!(
                "{:<width$}  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                h.name,
                h.count,
                fmt(mean),
                fmt(h.p50),
                fmt(h.p90),
                fmt(h.p99),
                fmt(h.max),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSummary;

    fn snap() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("a.sent".into(), 12)],
            gauges: vec![("b.level".into(), 3.0)],
            histograms: vec![HistogramSummary {
                name: "c.encrypt".into(),
                count: 2,
                sum: 3_000_000,
                min: 1_000_000,
                max: 2_000_000,
                p50: 1_000_000,
                p90: 2_000_000,
                p99: 2_000_000,
                buckets: vec![(1_048_575, 1), (2_097_151, 1)],
            }],
        }
    }

    #[test]
    fn writer_emits_one_json_object_per_line() {
        let event = SpanEvent {
            name: "round",
            path: "round".into(),
            start_ns: 5,
            dur_ns: 100,
            ..SpanEvent::default()
        };
        let mut w = TraceWriter::new(Vec::new());
        w.write_event(&event).expect("write");
        w.write_snapshot(&snap()).expect("write");
        let bytes = w.into_inner().expect("flush");
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // 1 span + 1 counter + 1 gauge + 1 histogram
        assert!(lines[0].contains(r#""type":"span""#) && lines[0].contains(r#""dur_ns":100"#));
        // Zero-valued propagation fields stay off the line entirely.
        assert!(!lines[0].contains("span_id") && !lines[0].contains("trace_id"));
        assert!(lines[1].contains(r#""type":"counter""#) && lines[1].contains(r#""value":12"#));
        assert!(lines[2].contains(r#""type":"gauge""#));
        assert!(
            lines[3].contains(r#""type":"histogram""#) && lines[3].contains(r#""p99":2000000"#)
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "JSONL shape: {line}");
        }
    }

    #[test]
    fn writer_emits_propagation_fields_when_set() {
        let event = SpanEvent {
            name: "client_round",
            path: "client_round".into(),
            span_id: 42,
            trace_id: 0xabcd,
            remote_parent: 7,
            actor: Some(Arc::from("client0")),
            ..SpanEvent::default()
        };
        let mut w = TraceWriter::new(Vec::new());
        w.write_event(&event).expect("write");
        let text = String::from_utf8(w.into_inner().expect("flush")).expect("utf8");
        assert!(text.contains(r#""span_id":42"#), "{text}");
        assert!(text.contains(r#""trace_id":"0000000000000000000000000000abcd""#), "{text}");
        assert!(text.contains(r#""remote_parent":7"#), "{text}");
        assert!(text.contains(r#""actor":"client0""#), "{text}");
    }

    #[test]
    fn store_keeps_the_newest_spans_and_counts_evictions() {
        let dropped = crate::metrics::global().counter("telemetry.trace.dropped");
        let before = dropped.get();
        let store = Mutex::new(VecDeque::new());
        for start_ns in 0..5 {
            push_capped(&store, SpanEvent { start_ns, ..SpanEvent::default() }, 3);
        }
        let kept: Vec<u64> = store.lock().expect("store").iter().map(|e| e.start_ns).collect();
        assert_eq!(kept, [2, 3, 4], "the oldest spans are evicted first");
        assert_eq!(dropped.get() - before, 2, "each eviction is counted once");
    }

    #[test]
    fn trace_context_wire_round_trip() {
        let ctx = TraceContext { trace_id: new_trace_id(), parent_span: 0xdead_beef, round: 9 };
        let bytes = ctx.to_wire();
        assert_eq!(bytes.len(), TraceContext::WIRE_LEN);
        assert_eq!(TraceContext::from_wire(&bytes, 9), ctx);
    }

    #[test]
    fn trace_and_span_ids_are_nonzero_and_distinct() {
        assert_ne!(new_trace_id(), 0);
        assert_ne!(new_trace_id(), new_trace_id());
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn remote_context_and_actor_are_thread_local() {
        let ctx = TraceContext { trace_id: 11, parent_span: 22, round: 3 };
        set_remote_context(Some(ctx));
        set_actor("server");
        assert_eq!(remote_context(), Some(ctx));
        assert_eq!(actor().as_deref(), Some("server"));
        std::thread::spawn(|| {
            assert_eq!(remote_context(), None, "context does not leak across threads");
            assert_eq!(actor(), None, "actor does not leak across threads");
        })
        .join()
        .expect("spawned thread");
        set_remote_context(None);
        assert_eq!(remote_context(), None);
    }

    #[test]
    fn summary_table_renders_all_sections() {
        let table = summary_table(&snap());
        assert!(table.contains("a.sent"));
        assert!(table.contains("b.level"));
        assert!(table.contains("c.encrypt"));
        assert!(table.contains("1.000ms"), "p50 pretty-printed: {table}");
        assert!(summary_table(&MetricsSnapshot::default()).is_empty());
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(500), "500ns");
        assert_eq!(format_ns(2_500), "2.500µs");
        assert_eq!(format_ns(3_000_000), "3.000ms");
        assert_eq!(format_ns(1_500_000_000), "1.500s");
    }
}
