//! Hierarchical spans with thread-local nesting and monotonic timing.
//!
//! A [`Span`] always measures wall time (so callers can populate existing
//! report structs from it even with telemetry disabled); when telemetry is
//! enabled it additionally pushes itself onto a thread-local stack — giving
//! every span a `parent/child` path — and, on completion, records a
//! [`SpanEvent`](crate::trace::SpanEvent) into the global trace buffer and
//! its duration into the histogram named after the span.
//!
//! When the [tracking allocator](crate::alloc) is installed, each tracked
//! span also snapshots the opening thread's cumulative allocation counter
//! as the last step of opening and diffs it as the first step of closing,
//! so `SpanEvent::alloc_bytes` reports exactly the bytes the wrapped code
//! allocated on that thread — the span's own bookkeeping (path `String`,
//! trace-ring insertion) lands outside the measurement window and is
//! attributed to the parent.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::trace;

thread_local! {
    /// Paths of the currently open spans on this thread.
    static SPAN_PATHS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// Dense per-thread id for trace attribution (ThreadId lacks a stable
    /// integer form).
    static THREAD_SEQ: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// The dense trace id of the calling thread.
pub(crate) fn thread_seq() -> u64 {
    THREAD_SEQ.with(|&id| id)
}

/// Runs `f` with this thread's open-span stack set aside, so spans it
/// opens are roots instead of children of whatever happens to be open
/// here. For work that is *not* part of the current span but runs on
/// its thread — a pool thread waiting inside a task's span that
/// help-runs some other scope's task would otherwise record that task
/// as a child of the one it merely interrupted.
pub fn detached<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SPAN_PATHS.with(|stack| *stack.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let _restore = Restore(SPAN_PATHS.with(|stack| std::mem::take(&mut *stack.borrow_mut())));
    f()
}

/// An open span. Close it with [`Span::finish`] to obtain the measured
/// duration, or let it drop (the trace still records it).
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    /// `Some(depth)` when this span was pushed onto the thread stack
    /// (telemetry was enabled at creation).
    tracked_depth: Option<usize>,
    /// Globally unique span id (0 when untracked) — carried in wire
    /// frames so remote spans can parent under this one.
    id: u64,
    /// Remote trace context installed on this thread when the span
    /// opened; stamped onto the recorded event at close.
    ctx: Option<trace::TraceContext>,
    /// Opening thread's cumulative `(bytes, calls)` allocation counters,
    /// snapshotted after all open-time bookkeeping so the close-time diff
    /// covers only the wrapped code.
    alloc_at_open: (u64, u64),
    finished: bool,
}

/// Opens a span. Prefer [`crate::span`].
pub(crate) fn open(name: &'static str) -> Span {
    let (tracked_depth, id, ctx) = if crate::enabled() {
        let depth = SPAN_PATHS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}/{name}"),
                None => name.to_owned(),
            };
            stack.push(path);
            stack.len() - 1
        });
        (Some(depth), trace::next_span_id(), trace::remote_context())
    } else {
        (None, 0, None)
    };
    // Snapshot the allocation counters last — the path push above
    // allocates, and that must bill to the parent span, not this one.
    let alloc_at_open =
        (crate::alloc::thread_allocated_bytes(), crate::alloc::thread_alloc_calls());
    Span { name, start: Instant::now(), tracked_depth, id, ctx, alloc_at_open, finished: false }
}

impl Span {
    /// The span name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The globally unique id of this span, or 0 if telemetry was
    /// disabled when it opened. Put it in a
    /// [`TraceContext`](trace::TraceContext)'s `parent_span` to parent
    /// remote spans under this one.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Wall time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Bytes the calling thread has allocated since this span opened.
    /// Meaningful only on the thread that opened the span and only when
    /// the [tracking allocator](crate::alloc) is installed (0 otherwise).
    pub fn alloc_bytes(&self) -> u64 {
        crate::alloc::thread_allocated_bytes().saturating_sub(self.alloc_at_open.0)
    }

    /// Closes the span and returns its duration. Recording (trace event +
    /// duration histogram) happens only if telemetry was enabled when the
    /// span opened.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        // Diff the allocation counters before the duration read and all
        // close-time bookkeeping, so only the wrapped code is measured.
        let alloc_bytes =
            crate::alloc::thread_allocated_bytes().saturating_sub(self.alloc_at_open.0);
        let alloc_calls = crate::alloc::thread_alloc_calls().saturating_sub(self.alloc_at_open.1);
        let dur = self.start.elapsed();
        if self.finished {
            return dur;
        }
        self.finished = true;
        if let Some(depth) = self.tracked_depth.take() {
            let path = SPAN_PATHS.with(|stack| {
                let mut stack = stack.borrow_mut();
                // RAII guarantees LIFO order on a given thread; truncate
                // defensively in case an inner span leaked.
                stack.truncate(depth + 1);
                stack.pop().unwrap_or_else(|| self.name.to_owned())
            });
            crate::metrics::global().histogram(self.name).record(dur.as_nanos() as u64);
            if crate::alloc::installed() {
                // Per-span-name allocation histogram, only when the
                // tracking allocator is feeding real numbers.
                crate::metrics::global()
                    .histogram(&format!("{}.alloc_bytes", self.name))
                    .record(alloc_bytes);
            }
            let depth = depth as u32;
            trace::record_span(trace::SpanEvent {
                name: self.name,
                path,
                depth,
                thread: thread_seq(),
                start_ns: trace::since_epoch(self.start),
                dur_ns: dur.as_nanos() as u64,
                span_id: self.id,
                trace_id: self.ctx.map_or(0, |c| c.trace_id),
                // Only roots adopt the remote parent: deeper spans already
                // parent locally through their path.
                remote_parent: if depth == 0 { self.ctx.map_or(0, |c| c.parent_span) } else { 0 },
                actor: trace::actor(),
                alloc_bytes,
                alloc_calls,
            });
        }
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_work_records_roots_and_restores_the_stack() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        {
            let _outer = open("span_test_detach_outer");
            detached(|| open("span_test_detach_foreign").finish());
            open("span_test_detach_inner").finish();
        }
        crate::set_enabled(false);
        let events = trace::drain_events();
        let path = |name: &str| {
            events.iter().find(|e| e.name == name).map(|e| e.path.clone()).expect("recorded")
        };
        assert_eq!(path("span_test_detach_foreign"), "span_test_detach_foreign");
        assert_eq!(path("span_test_detach_inner"), "span_test_detach_outer/span_test_detach_inner");
    }

    #[test]
    fn span_measures_without_telemetry() {
        // Enabled state is global; this test only relies on elapsed time
        // being measured regardless.
        let s = open("span_test_untracked");
        std::thread::sleep(Duration::from_millis(2));
        let d = s.finish();
        assert!(d >= Duration::from_millis(2));
    }

    #[test]
    fn nesting_produces_paths() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        {
            let _outer = open("span_test_outer");
            let inner = open("span_test_inner");
            inner.finish();
        }
        crate::set_enabled(false);
        let events = trace::drain_events();
        let inner =
            events.iter().find(|e| e.name == "span_test_inner").expect("inner event recorded");
        assert_eq!(inner.path, "span_test_outer/span_test_inner");
        assert_eq!(inner.depth, 1);
        let outer =
            events.iter().find(|e| e.name == "span_test_outer").expect("outer event recorded");
        assert_eq!(outer.path, "span_test_outer");
        assert_eq!(outer.depth, 0);
        assert!(outer.dur_ns >= inner.dur_ns, "outer encloses inner");
        // The duration histogram under the span name saw the same sample.
        assert!(crate::metrics::global().histogram("span_test_inner").count() >= 1);
    }

    #[test]
    fn tracked_spans_carry_ids_and_remote_context() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let ctx = trace::TraceContext { trace_id: 77, parent_span: 88, round: 1 };
        trace::set_remote_context(Some(ctx));
        trace::set_actor("client1");
        let outer = open("span_ctx_outer");
        let outer_id = outer.id();
        assert_ne!(outer_id, 0, "tracked spans get ids");
        let inner = open("span_ctx_inner");
        inner.finish();
        outer.finish();
        trace::set_remote_context(None);
        crate::set_enabled(false);
        let events = trace::drain_events();
        let outer = events.iter().find(|e| e.name == "span_ctx_outer").expect("outer");
        assert_eq!(outer.span_id, outer_id);
        assert_eq!(outer.trace_id, 77);
        assert_eq!(outer.remote_parent, 88, "depth-0 spans adopt the remote parent");
        assert_eq!(outer.actor.as_deref(), Some("client1"));
        let inner = events.iter().find(|e| e.name == "span_ctx_inner").expect("inner");
        assert_eq!(inner.trace_id, 77, "trace id flows to nested spans");
        assert_eq!(inner.remote_parent, 0, "nested spans parent locally via path");
        assert_ne!(inner.span_id, outer.span_id);
    }

    #[test]
    fn untracked_spans_have_no_id() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        assert_eq!(open("span_untracked_id").id(), 0);
    }

    #[test]
    fn concurrent_span_stacks_are_independent() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _a = open("span_race_a");
                        let b = open("span_race_b");
                        b.finish();
                    }
                });
            }
        });
        crate::set_enabled(false);
        let events = trace::drain_events();
        let bs: Vec<_> = events.iter().filter(|e| e.name == "span_race_b").collect();
        assert_eq!(bs.len(), 8 * 50);
        // Every b nests under exactly its own thread's a — never deeper,
        // never orphaned — proving the stacks are thread-local.
        for e in &bs {
            assert_eq!(e.path, "span_race_a/span_race_b");
            assert_eq!(e.depth, 1);
        }
        let a_threads: std::collections::BTreeSet<u64> =
            events.iter().filter(|e| e.name == "span_race_a").map(|e| e.thread).collect();
        assert_eq!(a_threads.len(), 8, "eight distinct threads recorded");
    }
}
