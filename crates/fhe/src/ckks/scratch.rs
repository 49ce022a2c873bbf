//! Thread-local scratch buffers for the NTT hot paths.
//!
//! `poly_mul_at`, the fused encrypt kernels and the CRT lift all need a
//! temporary row of `N` limbs (or a tile of words) per prime.
//! (`fold_view` is not a user: it reads wire residues straight into the
//! accumulator row.) Allocating those per call dominated the
//! small-N profile, so buffers are recycled through a per-thread free
//! list instead. The pool is thread-local rather than per-context because
//! `rhychee-par` fans whole ciphertexts out across pool threads — a
//! shared locked arena would serialize exactly the code the pool is
//! trying to parallelize, while a thread-local list is contention-free
//! and still bounds live buffers by (threads × nesting depth).
//!
//! Buffer contents are *not* zeroed on reuse; every caller overwrites
//! the full row (`copy_from_slice`) before reading it.
//!
//! A process-wide relaxed counter tracks the bytes retained across all
//! thread pools (checked-out rows included), feeding the `fhe.scratch`
//! entry of the memory observability plane's per-subsystem breakdown.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of row capacity owned by the scratch system across every
/// thread, including rows currently checked out by `with_row`.
static POOL_BYTES: AtomicU64 = AtomicU64::new(0);

/// A thread's free list; its `Drop` returns the thread's retained bytes
/// to the global counter when the thread exits.
struct Pool(Vec<Vec<u64>>);

impl Drop for Pool {
    fn drop(&mut self) {
        let held: u64 = self.0.iter().map(|b| 8 * b.capacity() as u64).sum();
        POOL_BYTES.fetch_sub(held, Ordering::Relaxed);
    }
}

thread_local! {
    static POOL: RefCell<Pool> = const { RefCell::new(Pool(Vec::new())) };
}

/// Bytes currently retained by the scratch-row pools, process-wide.
pub(crate) fn pooled_bytes() -> u64 {
    POOL_BYTES.load(Ordering::Relaxed)
}

/// Runs `f` with a scratch row of exactly `n` limbs, recycling the
/// backing allocation across calls on the same thread.
///
/// The row's initial contents are unspecified — callers must fully
/// overwrite it before reading. Nested calls are fine; each nesting
/// level pops its own buffer.
pub(crate) fn with_row<R>(n: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    // `try_with`: during thread teardown the pool may already be gone;
    // fall back to a one-shot buffer whose bytes are never retained.
    let popped = POOL.try_with(|p| p.borrow_mut().0.pop()).ok().flatten();
    let tracked = popped.is_some();
    let mut buf = popped.unwrap_or_default();
    let before = buf.capacity();
    buf.resize(n, 0);
    if tracked && buf.capacity() != before {
        // The pop left the counter charged with the old capacity; adjust
        // for the resize so retained bytes stay exact.
        let delta = 8 * (buf.capacity() as i64 - before as i64);
        if delta >= 0 {
            POOL_BYTES.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            POOL_BYTES.fetch_sub((-delta) as u64, Ordering::Relaxed);
        }
    }
    let out = f(&mut buf);
    let cap = 8 * buf.capacity() as u64;
    let pushed = POOL.try_with(|p| p.borrow_mut().0.push(buf)).is_ok();
    if pushed && !tracked {
        // A freshly allocated buffer entered the pool: charge it once.
        POOL_BYTES.fetch_add(cap, Ordering::Relaxed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_allocation_across_calls() {
        let first = with_row(64, |row| {
            row.fill(7);
            row.as_ptr() as usize
        });
        let second = with_row(64, |row| {
            assert_eq!(row.len(), 64);
            row.as_ptr() as usize
        });
        assert_eq!(first, second, "same thread should recycle the same buffer");
    }

    #[test]
    fn nested_calls_get_distinct_rows() {
        with_row(16, |outer| {
            outer.fill(1);
            with_row(16, |inner| {
                inner.fill(2);
                assert_ne!(outer.as_ptr(), inner.as_ptr());
            });
            assert!(outer.iter().all(|&x| x == 1));
        });
    }

    #[test]
    fn resizes_to_requested_length() {
        with_row(8, |row| assert_eq!(row.len(), 8));
        with_row(32, |row| assert_eq!(row.len(), 32));
        with_row(4, |row| assert_eq!(row.len(), 4));
    }

    #[test]
    fn pool_bytes_track_retained_capacity() {
        // Run on a fresh thread so sibling tests' pools don't interfere
        // with the accounting deltas.
        std::thread::spawn(|| {
            let before = pooled_bytes();
            with_row(128, |_| {});
            let after_first = pooled_bytes();
            assert!(
                after_first >= before + 8 * 128,
                "pool grew by at least one 128-limb row: {before} -> {after_first}"
            );
            // Reuse must not grow the count further.
            with_row(128, |_| {});
            assert_eq!(pooled_bytes(), after_first);
        })
        .join()
        .expect("accounting thread");
        // The spawned thread exited; its retained bytes were returned.
        // (Other test threads may still hold buffers, so only assert the
        // spawned thread's contribution is gone by re-running the cycle.)
        std::thread::spawn(|| {
            let base = pooled_bytes();
            with_row(64, |_| {});
            assert!(pooled_bytes() > base);
        })
        .join()
        .expect("second thread");
    }
}
