//! Scoped thread pool and the unified [`Parallelism`] knob for Rhychee-FL.
//!
//! Every parallel code path in the workspace — HDC batch encoding, the
//! per-ciphertext packing helpers, and streaming aggregation — is
//! driven by one [`Parallelism`] value that flows down from the entry
//! points (`Framework`, `FlServer`, bench bins). A degree splits a
//! packed model into ciphertexts (or a batch into sample blocks), once,
//! at the top of the call tree; an operation on one ciphertext runs on
//! the thread that called it. The pool itself is a process-wide
//! singleton of spawn-once workers; the knob only decides how many
//! *chunks* a given operation is split into, so a `Fixed(1)` degree
//! always runs inline on the caller with zero pool traffic.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Helpers ([`for_each_mut`], [`map`]) split work
//!    into contiguous index ranges with pre-assigned output slots.
//!    Results are bit-identical for every degree, including `Fixed(1)`.
//! 2. **No dependencies.** `std` only (plus the in-workspace telemetry
//!    crate for counters).
//! 3. **No deadlocks, and the caller works too.** A thread waiting on a
//!    scope help-drains the shared queue: that is how the caller takes
//!    its share of its own fan-out, and it keeps a scope making
//!    progress even with zero idle workers.
//!
//! Panics in spawned tasks are caught, forwarded to the scope owner,
//! and re-thrown from the helper that opened the scope after all
//! sibling tasks finish (first panic wins).
//!
//! Telemetry: `par.tasks` counts pool-executed tasks, and the
//! `par.queue.depth` gauge records the queue's length after each push and
//! pop.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use rhychee_telemetry as telemetry;

/// How many ways to split parallelisable work.
///
/// This is the single user-facing knob: `FlConfig`, `ServerConfig`, and
/// `CkksContext` all carry one. `Auto` resolves to the machine's core
/// count; `Fixed(n)` pins the degree (floored at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Use every available hardware thread. The count is resolved at
    /// first use and fixed for the life of the process.
    #[default]
    Auto,
    /// Split work `n` ways (`n = 1` means fully sequential, inline on
    /// the calling thread).
    Fixed(usize),
}

impl Parallelism {
    /// The effective degree: `Auto` is the hardware thread count the
    /// global pool was sized from, `Fixed(n)` floors at 1.
    pub fn degree(self) -> usize {
        match self {
            Parallelism::Auto => hardware_threads(),
            Parallelism::Fixed(n) => n.max(1),
        }
    }

    /// Shorthand for `Fixed(1)`.
    pub const fn sequential() -> Self {
        Parallelism::Fixed(1)
    }
}

/// [`std::thread::available_parallelism`], read once: the call re-reads
/// the cgroup CPU quota every time (≈ 13 µs), and `Auto` and the global
/// pool must not disagree mid-process.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Auto => write!(f, "auto"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// A boxed task. Tasks are `'static` from the queue's point of view;
/// scoped lifetimes are erased in `Scope::spawn` and re-guaranteed by
/// the scope's join barrier.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// Each job with the id of the scope that spawned it.
    queue: Mutex<VecDeque<(u64, Job)>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// A fixed set of spawn-once worker threads fed from one shared queue.
///
/// Library code uses [`ThreadPool::global`]; private pools are for
/// tests that need an isolated worker count.
struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `workers` dedicated threads (0 is valid: all
    /// work is then help-drained by threads waiting on scopes).
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("rhychee-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn rhychee-par worker")
            })
            .collect();
        ThreadPool { shared, workers: handles }
    }

    /// The process-wide pool, created on first use with
    /// `max(available_parallelism, 4) - 1` workers. The floor lets an
    /// explicit `Fixed(n)` degree exercise real cross-thread execution
    /// even on small hosts; idle workers cost nothing but a parked
    /// thread.
    fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(hardware_threads().max(4) - 1))
    }

    /// Runs `f` with a [`Scope`] on which borrowing tasks can be
    /// spawned, then joins every spawned task before returning.
    ///
    /// If any task panicked, the first panic is resumed here (after all
    /// siblings finish, so borrowed data is never observed by a live
    /// task past this call). A panic in `f` itself is also deferred
    /// until spawned tasks drain.
    fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = Scope { pool: self, state: Arc::clone(&state), _env: PhantomData };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait(&state);
        if let Some(payload) = state.panic.lock().unwrap().take() {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    fn inject(&self, scope_id: u64, job: Job) {
        let mut queue = self.shared.queue.lock().unwrap();
        queue.push_back((scope_id, job));
        // Tasks are coarse chunks, so a gauge store per push and pop is
        // cheap relative to the work each job carries. Every pop sets it
        // too, so a drained queue reads 0.
        telemetry::gauge("par.queue.depth", queue.len() as f64);
        self.shared.work_ready.notify_one();
    }

    fn try_pop(&self) -> Option<(u64, Job)> {
        let mut queue = self.shared.queue.lock().unwrap();
        let job = queue.pop_front()?;
        telemetry::gauge("par.queue.depth", queue.len() as f64);
        Some(job)
    }

    /// Blocks until `state.pending == 0`, help-draining the shared
    /// queue so progress never depends on idle workers existing.
    fn wait(&self, state: &ScopeState) {
        loop {
            if *state.pending.lock().unwrap() == 0 {
                return;
            }
            if let Some((scope_id, job)) = self.try_pop() {
                if scope_id == state.id {
                    job();
                } else {
                    // A task of some other scope is no child of whatever
                    // span this thread is waiting inside: run it with the
                    // span stack set aside, as an idle worker would.
                    telemetry::span::detached(job);
                }
                telemetry::count("par.tasks", 1);
                continue;
            }
            let pending = state.pending.lock().unwrap();
            if *pending == 0 {
                return;
            }
            // Nested scopes can enqueue work while we sleep; wake on a
            // short timeout to help-drain rather than block forever.
            let _unused = state.done.wait_timeout(pending, Duration::from_micros(200)).unwrap();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _unused = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some((_, job)) = queue.pop_front() {
                    telemetry::gauge("par.queue.depth", queue.len() as f64);
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.work_ready.wait(queue).unwrap();
            }
        };
        match job {
            Some(job) => {
                job();
                telemetry::count("par.tasks", 1);
            }
            None => return,
        }
    }
}

struct ScopeState {
    /// Process-unique, so a helper can tell its own scope's tasks apart.
    id: u64,
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        ScopeState {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn complete(&self) {
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        // Notify on every completion (not just zero) so waiters recheck
        // the queue for follow-up work from nested scopes.
        self.done.notify_all();
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// Handle for spawning borrowing tasks inside [`ThreadPool::scope`].
struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    // Invariant over 'env, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawns a task that may borrow from the enclosing scope. The task
    /// is guaranteed to finish before `scope` returns; panics are
    /// captured and re-thrown there.
    fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let task = move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                state.record_panic(payload);
            }
            state.complete();
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
        // SAFETY: the queue only requires 'static because Job erases
        // the lifetime; `ThreadPool::scope` joins (help-draining) every
        // task spawned on this scope before it returns, so no task
        // outlives the 'env borrows it captures. `Scope` is neither
        // Clone nor constructible outside `scope`, so tasks cannot be
        // registered after the join barrier.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        self.pool.inject(self.state.id, job);
    }
}

/// Applies `f(index, &mut item)` to every item, split into at most
/// `par.degree()` contiguous chunks on the global pool. Chunk
/// boundaries never affect the result: each item is visited exactly
/// once, in a slot it exclusively owns.
pub fn for_each_mut<T, F>(par: Parallelism, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let degree = par.degree().min(n);
    if degree <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(degree);
    let f = &f;
    ThreadPool::global().scope(|s| {
        for (ci, block) in items.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                for (j, item) in block.iter_mut().enumerate() {
                    f(ci * chunk + j, item);
                }
            });
        }
    });
}

/// Computes `f(i)` for `i in 0..n` in parallel and returns the results
/// in index order.
pub fn map<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let f = &f;
        for_each_mut(par, &mut out, |i, slot| *slot = Some(f(i)));
    }
    out.into_iter().map(|slot| slot.expect("map slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn degree_resolution() {
        assert_eq!(Parallelism::Fixed(0).degree(), 1);
        assert_eq!(Parallelism::Fixed(7).degree(), 7);
        // `Auto` is resolved once and is the figure the global pool was
        // sized from, so the two cannot disagree mid-process.
        let auto = Parallelism::Auto.degree();
        assert!(auto >= 1);
        assert_eq!(auto, hardware_threads());
        assert_eq!(ThreadPool::global().workers.len(), auto.max(4) - 1);
        assert_eq!(Parallelism::Auto.degree(), auto, "stable across calls");
        assert_eq!(Parallelism::Fixed(3).to_string(), "3");
        assert_eq!(Parallelism::Auto.to_string(), "auto");
    }

    #[test]
    fn for_each_mut_visits_every_slot_once() {
        for degree in [1, 2, 3, 8, 64] {
            let mut items = vec![0usize; 100];
            for_each_mut(Parallelism::Fixed(degree), &mut items, |i, slot| *slot += i + 1);
            let expect: Vec<usize> = (1..=100).collect();
            assert_eq!(items, expect, "degree {degree}");
        }
    }

    #[test]
    fn map_preserves_order() {
        let out = map(Parallelism::Fixed(4), 37, |i| i * i);
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_empty() {
        let out: Vec<usize> = map(Parallelism::Auto, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn panic_propagates_to_scope_owner() {
        let pool = ThreadPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {});
                s.spawn(|| panic!("task boom"));
                s.spawn(|| {});
            });
        }));
        let payload = result.expect_err("scope should re-throw the task panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task boom");
    }

    #[test]
    fn nested_scopes_make_progress_with_zero_workers() {
        let pool = ThreadPool::new(0);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let total = &total;
                outer.spawn(move || {
                    // Inner parallelism goes through the global pool;
                    // the point is that the outer wait help-drains.
                    total.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(1);
        let v = pool.scope(|s| {
            s.spawn(|| {});
            42
        });
        assert_eq!(v, 42);
        drop(pool); // joins workers cleanly
    }

    #[test]
    fn heavy_contention_sums_correctly() {
        let items: Vec<u64> = (0..10_000).collect();
        let partials = map(Parallelism::Fixed(8), 16, |ci| {
            let lo = ci * items.len() / 16;
            let hi = (ci + 1) * items.len() / 16;
            items[lo..hi].iter().sum::<u64>()
        });
        assert_eq!(partials.iter().sum::<u64>(), 10_000 * 9_999 / 2);
    }
}
