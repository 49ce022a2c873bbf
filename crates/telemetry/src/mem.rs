//! Process memory observability: RSS sampling, subsystem byte sources,
//! and process uptime.
//!
//! Three independent pieces feed the observability plane's
//! `/memory.json` and `/healthz`:
//!
//! 1. **RSS sampler** — [`sample_rss`] reads `/proc/self/statm` (Linux;
//!    `None` elsewhere), converts resident pages to bytes and maintains a
//!    process-lifetime peak.
//! 2. **Subsystem sources** — crates that own long-lived buffers
//!    register a named byte-count callback with [`register_source`]
//!    (e.g. the CKKS twiddle-table cache, the streaming accumulator,
//!    resident upload payloads). [`collect`] invokes every callback at
//!    read time, so scrapes always see live figures without the
//!    observability crate depending on the subsystem crates.
//! 3. **Uptime** — [`init_start_time`] pins the process start (called by
//!    server/bins at startup); [`uptime_seconds`] measures from it, or
//!    from first use as a fallback.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Page size assumed when converting `/proc/self/statm` resident pages
/// to bytes. Linux on x86-64 and most aarch64 configurations use 4 KiB;
/// exotic page sizes skew the figure by a constant factor but never the
/// trend, which is what the leak gate and dashboards consume.
const PAGE_BYTES: u64 = 4096;

/// High-water mark of sampled RSS, maintained across [`sample_rss`]
/// calls.
static RSS_PEAK: AtomicU64 = AtomicU64::new(0);

/// Current resident-set size of this process in bytes, from
/// `/proc/self/statm`. `None` off Linux or if procfs is unavailable.
#[must_use]
pub(crate) fn rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        // Fields: size resident shared text lib data dt (in pages).
        let resident: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
        Some(resident * PAGE_BYTES)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Samples RSS and updates the process peak. Returns `(rss, peak)` in
/// bytes, or `None` where RSS is unreadable.
pub fn sample_rss() -> Option<(u64, u64)> {
    let rss = rss_bytes()?;
    let peak = RSS_PEAK.fetch_max(rss, Ordering::Relaxed).max(rss);
    Some((rss, peak))
}

type SourceFn = Box<dyn Fn() -> u64 + Send + Sync>;

fn sources() -> &'static Mutex<Vec<(&'static str, SourceFn)>> {
    static SOURCES: OnceLock<Mutex<Vec<(&'static str, SourceFn)>>> = OnceLock::new();
    SOURCES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers (or replaces) a named subsystem byte source. The callback
/// is invoked at every [`collect`] — it must be cheap, lock-light and
/// panic-free. Registration is idempotent by name, so constructors that
/// run many times (one `CkksContext` per client, say) can register
/// unconditionally.
pub fn register_source(name: &'static str, f: impl Fn() -> u64 + Send + Sync + 'static) {
    let mut list = sources().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    match list.iter_mut().find(|(n, _)| *n == name) {
        Some(slot) => slot.1 = Box::new(f),
        None => list.push((name, Box::new(f))),
    }
}

/// Reads every registered subsystem source: `(name, bytes)` pairs in
/// registration order.
#[must_use]
pub fn collect() -> Vec<(&'static str, u64)> {
    let list = sources().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    list.iter().map(|(n, f)| (*n, f())).collect()
}

fn start_cell() -> &'static OnceLock<Instant> {
    static START: OnceLock<Instant> = OnceLock::new();
    &START
}

/// Pins the process start time for [`uptime_seconds`]. Call once, early
/// (server bind, bench init). Later calls are no-ops.
pub fn init_start_time() {
    let _ = start_cell().get_or_init(Instant::now);
}

/// Seconds since [`init_start_time`] — or since the first call to either
/// function, when nothing pinned the start explicitly.
#[must_use]
pub fn uptime_seconds() -> f64 {
    start_cell().get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_is_readable_and_plausible() {
        let rss = rss_bytes().expect("procfs on linux");
        // Any live Rust process is at least a few hundred KiB resident
        // and far below 1 TiB.
        assert!(rss > 100 * 1024, "rss {rss} implausibly small");
        assert!(rss < 1 << 40, "rss {rss} implausibly large");
        let (now, peak) = sample_rss().expect("sample");
        assert!(peak >= now);
    }

    #[test]
    fn sources_register_replace_and_collect() {
        register_source("test.fixed", || 42);
        assert!(collect().iter().any(|&(n, v)| n == "test.fixed" && v == 42));
        // Same name replaces rather than duplicating.
        register_source("test.fixed", || 43);
        let hits: Vec<u64> =
            collect().iter().filter(|(n, _)| *n == "test.fixed").map(|&(_, v)| v).collect();
        assert_eq!(hits, vec![43]);
    }

    #[test]
    fn uptime_is_monotone() {
        init_start_time();
        let a = uptime_seconds();
        let b = uptime_seconds();
        assert!(b >= a && a >= 0.0);
    }
}
