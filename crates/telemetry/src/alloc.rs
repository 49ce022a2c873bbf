//! Tracking global allocator: heap accounting with per-span attribution.
//!
//! [`TrackingAlloc`] wraps [`std::alloc::System`] and maintains, on every
//! allocation and deallocation, a handful of relaxed atomics (process
//! live/peak bytes, cumulative allocated bytes, allocation/deallocation
//! counts) plus two thread-local cumulative counters that
//! [`Span`](crate::span::Span) snapshots when it opens and diffs when it
//! closes — giving every recorded span the number of bytes the code it
//! wraps allocated *on the opening thread*. Work fanned out to
//! `rhychee-par` pool threads is counted in the process totals but not in
//! the coordinating span; zero-allocation assertions therefore run the
//! kernel under `Parallelism::Fixed(1)`, which executes inline.
//!
//! The allocator itself never allocates: the fast path is four relaxed
//! atomic RMWs and two thread-local `Cell` adds. Thread-locals are
//! const-initialized (no lazy allocation) and accessed through
//! `try_with`, so allocations during thread teardown fall back to the
//! process counters alone instead of panicking.
//!
//! Install it from a binary or test crate root:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rhychee_telemetry::alloc::TrackingAlloc =
//!     rhychee_telemetry::alloc::TrackingAlloc;
//! ```
//!
//! Rust permits a single `#[global_allocator]` per program, so the
//! wrapper lives here (dependency root) and each binary opts in.
//! [`installed`] reports whether any allocation has actually routed
//! through the wrapper, letting shared test helpers degrade gracefully
//! when the host binary kept the default allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static INSTALLED: AtomicBool = AtomicBool::new(false);
/// Bytes currently live (allocated and not yet freed).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE_BYTES`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Cumulative bytes ever allocated.
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Number of allocation calls (alloc, alloc_zeroed, and growing reallocs).
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Number of deallocation calls.
static DEALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Cumulative bytes this thread has allocated (never decremented).
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Cumulative allocation calls made by this thread.
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note_alloc(size: u64) {
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(size, Ordering::Relaxed);
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    // `try_with` (not `with`): the TLS slot may already be torn down when
    // destructors of other thread-locals allocate during thread exit.
    let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + size));
    let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn note_dealloc(size: u64) {
    // Every pointer this allocator frees it also handed out (it is the
    // process-wide allocator from startup), so live never underflows.
    LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
    DEALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// A [`GlobalAlloc`] wrapper over the system allocator that feeds the
/// process and per-thread heap counters read by [`stats`],
/// [`thread_allocated_bytes`] and span attribution.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the
// bookkeeping around the calls touches only atomics and const-init
// thread-local Cells, neither of which can allocate or unwind.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Accounted as free-then-alloc so `TOTAL_BYTES` reflects the
            // new block and `LIVE_BYTES` the net change; a shrinking
            // realloc still counts as one allocation call (the block
            // moved or was resized — either way the heap did work).
            note_dealloc(layout.size() as u64);
            note_alloc(new_size as u64);
        }
        p
    }
}

/// Whether any allocation has routed through [`TrackingAlloc`] — i.e.
/// whether the running binary declared it as `#[global_allocator]`.
#[must_use]
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Point-in-time heap counters maintained by [`TrackingAlloc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start.
    pub peak_bytes: u64,
    /// Cumulative bytes ever allocated.
    pub total_bytes: u64,
    /// Cumulative allocation calls.
    pub alloc_calls: u64,
    /// Cumulative deallocation calls.
    pub dealloc_calls: u64,
}

/// Reads the process-wide heap counters. All zeros when the tracking
/// allocator is not [`installed`].
#[must_use]
pub fn stats() -> AllocStats {
    AllocStats {
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        total_bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        alloc_calls: ALLOC_CALLS.load(Ordering::Relaxed),
        dealloc_calls: DEALLOC_CALLS.load(Ordering::Relaxed),
    }
}

/// Cumulative bytes the calling thread has allocated. Monotone — span
/// attribution diffs two reads rather than tracking live bytes, so frees
/// of another thread's buffers cannot produce negative spans.
#[must_use]
pub fn thread_allocated_bytes() -> u64 {
    THREAD_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Cumulative allocation calls made by the calling thread.
#[must_use]
pub fn thread_alloc_calls() -> u64 {
    THREAD_CALLS.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The telemetry crate's own unit-test binary does not install the
    // tracking allocator (a program has exactly one global allocator and
    // the declaration belongs to downstream bins), so these tests cover
    // the bookkeeping functions directly; end-to-end accounting under a
    // real `#[global_allocator]` lives in the workspace integration
    // tests.

    /// Serializes tests that touch the process-wide counters.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn note_alloc_dealloc_round_trip() {
        let _g = lock();
        let before = stats();
        note_alloc(1024);
        let mid = stats();
        assert!(mid.total_bytes >= before.total_bytes + 1024);
        assert!(mid.alloc_calls > before.alloc_calls);
        note_dealloc(1024);
        let after = stats();
        assert!(after.dealloc_calls > mid.dealloc_calls);
        assert!(installed(), "note_alloc marks the allocator observed");
    }

    #[test]
    fn thread_counters_are_cumulative_and_thread_local() {
        let _g = lock();
        let start = thread_allocated_bytes();
        note_alloc(512);
        assert_eq!(thread_allocated_bytes(), start + 512);
        let other = std::thread::spawn(|| {
            let t0 = thread_allocated_bytes();
            note_alloc(64);
            thread_allocated_bytes() - t0
        })
        .join()
        .expect("thread");
        assert_eq!(other, 64, "other thread counts only its own bytes");
        assert_eq!(thread_allocated_bytes(), start + 512, "peer thread did not bleed in");
        note_dealloc(512);
        assert_eq!(thread_allocated_bytes(), start + 512, "frees do not decrement");
    }
}
