//! Resident-upload admission control for streaming aggregation.
//!
//! A counting semaphore bounds how many raw (undecoded) uploads may be
//! resident in server memory at once
//! ([`ServerConfigBuilder::max_resident_uploads`]): handler threads
//! acquire a permit *before* copying an update frame out of the kernel,
//! so excess uploads wait in TCP backpressure rather than server
//! buffers. Permits are RAII — they travel with the raw payload bytes
//! and free their slot when the payload drops, whether that is right
//! after a successful fold or on the NACK/reject path.
//!
//! Beyond the slot count, each permit can be charged with the byte size
//! of the payload it escorts ([`ResidencyPermit::track_bytes`]); the
//! process-wide sum is the `net.resident_uploads` entry of the memory
//! breakdown, so `/memory.json` shows exactly how much upload payload is
//! in flight at any instant.
//!
//! [`ServerConfigBuilder::max_resident_uploads`]: crate::server::ServerConfigBuilder::max_resident_uploads

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use rhychee_telemetry as telemetry;

/// Process-wide bytes of raw upload payloads currently escorted by a
/// residency permit, for the memory-source registry (which needs a
/// static callback).
static RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes of raw upload payloads currently resident, process-wide.
pub(crate) fn resident_bytes() -> u64 {
    RESIDENT_BYTES.load(Ordering::Relaxed)
}

#[derive(Debug, Default)]
struct ResidencyState {
    /// Permits currently held.
    held: usize,
    /// High-water mark of concurrently held permits.
    peak: usize,
}

/// Counting semaphore bounding how many raw uploads are resident at
/// once. Tracks the high-water mark for the
/// `net.agg.peak_resident_uploads` gauge.
pub(crate) struct Residency {
    cap: usize,
    state: Mutex<ResidencyState>,
    freed: Condvar,
}

impl Residency {
    pub(crate) fn new(cap: usize) -> Arc<Residency> {
        assert!(cap > 0, "residency cap must be positive");
        telemetry::mem::register_source("net.resident_uploads", resident_bytes);
        Arc::new(Residency {
            cap,
            state: Mutex::new(ResidencyState::default()),
            freed: Condvar::new(),
        })
    }

    /// Blocks until a slot frees, then claims it.
    pub(crate) fn acquire(self: &Arc<Residency>) -> ResidencyPermit {
        let mut state = self.state.lock().expect("residency state");
        while state.held >= self.cap {
            state = self.freed.wait(state).expect("residency state");
        }
        state.held += 1;
        state.peak = state.peak.max(state.held);
        ResidencyPermit { residency: Arc::clone(self), bytes: 0 }
    }

    /// Permits currently held.
    pub(crate) fn held(&self) -> usize {
        self.state.lock().expect("residency state").held
    }

    /// High-water mark of concurrently resident uploads so far.
    pub(crate) fn peak(&self) -> usize {
        self.state.lock().expect("residency state").peak
    }
}

/// RAII slot from [`Residency::acquire`]; travels with the raw payload
/// and frees the slot (and any charged bytes) when the payload is
/// dropped — the fold path and the NACK path release identically.
pub(crate) struct ResidencyPermit {
    residency: Arc<Residency>,
    bytes: u64,
}

impl ResidencyPermit {
    /// Charges the byte size of the payload this permit escorts. Called
    /// once, right after the frame is read; the charge is released when
    /// the permit drops.
    pub(crate) fn track_bytes(&mut self, n: u64) {
        let delta = n - self.bytes; // idempotent against re-charging
        self.bytes = n;
        RESIDENT_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

impl Drop for ResidencyPermit {
    fn drop(&mut self) {
        RESIDENT_BYTES.fetch_sub(self.bytes, Ordering::Relaxed);
        let mut state = self.residency.state.lock().expect("residency state");
        state.held -= 1;
        drop(state);
        self.residency.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    use super::*;

    #[test]
    fn permits_are_bounded_and_every_waiter_eventually_acquires() {
        let residency = Residency::new(2);
        let mut joins = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&residency);
            joins.push(thread::spawn(move || {
                let permit = r.acquire();
                assert!(r.held() <= 2, "cap violated: {} held", r.held());
                thread::sleep(Duration::from_millis(2));
                drop(permit);
            }));
        }
        for j in joins {
            j.join().expect("no waiter starved");
        }
        assert_eq!(residency.held(), 0);
        assert!(residency.peak() >= 1 && residency.peak() <= 2, "peak {}", residency.peak());
    }

    #[test]
    fn acquire_blocks_at_cap_until_a_release() {
        let residency = Residency::new(1);
        let first = residency.acquire();
        let (tx, rx) = mpsc::channel();
        let r = Arc::clone(&residency);
        let waiter = thread::spawn(move || {
            let permit = r.acquire();
            tx.send(()).expect("report acquisition");
            drop(permit);
        });
        // The waiter must be parked while the first permit is held —
        // exactly the peek-before-acquire contract: a handler that has
        // not yet been granted a slot makes no progress.
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "second acquire went through while at cap"
        );
        drop(first);
        rx.recv_timeout(Duration::from_secs(5)).expect("waiter unblocked by the release");
        waiter.join().expect("waiter thread");
        assert_eq!(residency.peak(), 1, "cap 1 means the peak can never exceed 1");
    }

    /// A charge no server in this test binary comes near, so the
    /// process-wide sum can be read while they run.
    const CHARGE: u64 = 1 << 40;

    /// Serializes the tests that charge [`CHARGE`]s.
    fn charge_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn nack_path_releases_slot_and_bytes() {
        // A NACKed upload drops its Raw event — payload and permit —
        // without ever folding; the slot and the byte charge must both
        // come back.
        let _g = charge_lock();
        let residency = Residency::new(4);
        let mut permit = residency.acquire();
        permit.track_bytes(CHARGE);
        assert!(resident_bytes() >= CHARGE);
        assert_eq!(residency.held(), 1);
        drop(permit); // the NACK: no fold ever happened
        assert!(resident_bytes() < CHARGE, "byte charge released on NACK");
        assert_eq!(residency.held(), 0, "slot released on NACK");
    }

    #[test]
    fn byte_charges_aggregate_across_permits() {
        let _g = charge_lock();
        let residency = Residency::new(4);
        let mut a = residency.acquire();
        let mut b = residency.acquire();
        a.track_bytes(CHARGE);
        b.track_bytes(2 * CHARGE);
        assert!(resident_bytes() >= 3 * CHARGE, "the process-wide sum covers both");
        drop(a);
        assert!((2 * CHARGE..3 * CHARGE).contains(&resident_bytes()));
        drop(b);
        assert!(resident_bytes() < CHARGE);
        assert_eq!(residency.peak(), 2);
    }
}
