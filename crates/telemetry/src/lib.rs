//! # rhychee-telemetry
//!
//! Zero-dependency tracing and metrics substrate for the Rhychee-FL
//! stack: hierarchical [spans](span::Span) over thread-local stacks, a
//! global [metrics registry](metrics::Registry) (counters, gauges,
//! log-bucketed histograms with p50/p90/p99 queries), JSONL export via
//! [`trace::TraceWriter`], and a human-readable
//! [summary table](trace::summary_table).
//!
//! ## Cost model
//!
//! Telemetry is **disabled by default**. Every recording entry point
//! checks one relaxed atomic ([`enabled`]) first, so instrumented hot
//! loops cost a load-and-branch when recording is off. [`span()`] is the
//! one exception — it always measures wall time (two monotonic clock
//! reads) so callers can populate report structs from
//! [`span::Span::finish`] whether or not recording is on.
//!
//! ## Naming
//!
//! Metrics follow `crate.component.op` (e.g. `fhe.ckks.ntt.forward`,
//! `net.bytes_tx`). Span duration histograms are registered under the
//! bare span name (`round`, `encrypt`, …), and their counts are the call
//! counts; the metric table lives in DESIGN.md §7.
//!
//! # Examples
//!
//! ```
//! use rhychee_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! {
//!     let round = telemetry::span("doc_round");
//!     telemetry::count("doc.example.ops", 2);
//!     telemetry::observe("doc.example.latency_ns", 1_500);
//!     let train = telemetry::span("doc_train");
//!     let train_time = train.finish(); // Duration, usable directly
//!     assert!(train_time.as_nanos() > 0);
//!     round.finish();
//! }
//! telemetry::set_enabled(false);
//!
//! let events = telemetry::trace::drain_events();
//! assert!(events.iter().any(|e| e.path == "doc_round/doc_train"));
//! let snapshot = telemetry::metrics::global().snapshot();
//! assert!(snapshot.counters.iter().any(|(n, v)| n == "doc.example.ops" && *v == 2));
//! println!("{}", telemetry::trace::summary_table(&snapshot));
//! ```

pub mod alloc;
pub mod fedmerge;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub use metrics::Registry;
pub use profile::SpanTree;
pub use trace::{TraceContext, TraceWriter};

/// The six round phases, each with the span whose duration histogram is
/// its SLO: what `/rounds.json` summarizes and `fed_trace` totals per
/// actor. The server's close is the one phase whose span is named apart
/// from it (`net_aggregate`, beside the in-process `aggregate`).
pub const PHASE_SPANS: [(&str, &str); 6] = [
    ("broadcast", "broadcast"),
    ("local_train", "local_train"),
    ("encrypt", "encrypt"),
    ("upload", "upload"),
    ("aggregate", "net_aggregate"),
    ("decrypt", "decrypt"),
];

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether recording is on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the trace epoch before any span can open, so every
        // recorded `start_ns` is measured from a common origin.
        trace::init_epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Opens a hierarchical span. Always measures wall time; records into the
/// trace buffer and the span-name histogram only while [`enabled`].
#[inline]
pub fn span(name: &'static str) -> span::Span {
    span::open(name)
}

/// Adds `delta` to the counter `name` (no-op while disabled).
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if enabled() {
        metrics::global().counter(name).add(delta);
    }
}

/// Sets the gauge `name` (no-op while disabled).
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        metrics::global().gauge(name).set(value);
    }
}

/// Records a sample into the histogram `name` (no-op while disabled).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        metrics::global().histogram(name).record(value);
    }
}

/// Adds `delta` to the labeled counter `family{label="value"}` (no-op
/// while disabled). Subject to the per-family label-cardinality cap
/// (`metrics::LABEL_CARDINALITY_CAP`).
#[inline]
pub fn count_labeled(family: &str, label: &str, value: &str, delta: u64) {
    if enabled() {
        metrics::global().counter_labeled(family, label, value).add(delta);
    }
}

/// Records a sample into the labeled histogram `family{label="value"}`
/// (no-op while disabled). Subject to the per-family label-cardinality
/// cap (`metrics::LABEL_CARDINALITY_CAP`).
#[inline]
pub fn observe_labeled(family: &str, label: &str, value: &str, sample: u64) {
    if enabled() {
        metrics::global().histogram_labeled(family, label, value).record(sample);
    }
}

/// A scope timer: on drop, records the elapsed nanoseconds into the
/// histogram `name`. When telemetry is disabled at construction the clock
/// is never read — total cost is one relaxed atomic load.
#[derive(Debug)]
#[must_use = "the timer records on drop; binding it to `_` drops immediately"]
pub struct Timer {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            metrics::global().histogram(self.name).record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Starts a scope timer for histogram `name`.
#[inline]
pub fn timer(name: &'static str) -> Timer {
    Timer { name, start: enabled().then(Instant::now) }
}

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    // Tests that flip the global enabled flag or drain the trace buffer
    // serialize on this lock so they cannot steal each other's state.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = test_guard();
        set_enabled(false);
        count("lib.disabled.counter", 5);
        observe("lib.disabled.hist", 10);
        {
            let _t = timer("lib.disabled.timer");
        }
        let snap = metrics::global().snapshot();
        assert!(!snap.counters.iter().any(|(n, _)| n == "lib.disabled.counter"));
        assert!(!snap.histograms.iter().any(|h| h.name == "lib.disabled.hist"));
        assert!(!snap.histograms.iter().any(|h| h.name == "lib.disabled.timer"));
        // Spans still measure time while disabled but record nothing.
        let s = span("lib_disabled_span");
        assert!(s.finish().as_nanos() < u128::MAX);
        assert!(!trace::drain_events().iter().any(|e| e.name == "lib_disabled_span"));
    }

    #[test]
    fn enabled_recording_reaches_the_registry() {
        let _g = test_guard();
        set_enabled(true);
        count("lib.enabled.counter", 2);
        count("lib.enabled.counter", 3);
        gauge("lib.enabled.gauge", 7.5);
        {
            let _t = timer("lib.enabled.timer");
        }
        set_enabled(false);
        let reg = metrics::global();
        assert_eq!(reg.counter("lib.enabled.counter").get(), 5);
        assert_eq!(reg.gauge("lib.enabled.gauge").get(), 7.5);
        assert_eq!(reg.histogram("lib.enabled.timer").count(), 1);
    }

    #[test]
    fn timer_enabled_at_start_records_even_if_disabled_mid_scope() {
        let _g = test_guard();
        set_enabled(true);
        let t = timer("lib.midflip.timer");
        set_enabled(false);
        drop(t);
        assert_eq!(metrics::global().histogram("lib.midflip.timer").count(), 1);
    }
}
