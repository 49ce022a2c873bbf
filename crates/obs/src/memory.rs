//! The `/memory.json` exposition body.
//!
//! One JSON document reconciles every memory signal the stack tracks:
//!
//! - **heap** — the tracking allocator's live/peak/total byte and call
//!   counters ([`rhychee_telemetry::alloc`]); `installed: false` (and
//!   all-zero figures) when the serving binary did not opt into the
//!   `#[global_allocator]` wrapper;
//! - **rss** — `/proc/self/statm` resident bytes and the process peak
//!   (absent off Linux);
//! - **sources** — the per-subsystem breakdown from the registered
//!   byte callbacks ([`rhychee_telemetry::mem::register_source`]):
//!   twiddle-table cache, streaming accumulators, and resident upload
//!   payloads, read live at scrape time.
//!
//! These figures are read at scrape time and are not metrics: `/healthz`
//! carries the heap and RSS headline from the same reads.

use rhychee_telemetry as telemetry;
use rhychee_telemetry::json::JsonObject;

/// The `/memory.json` body. Always well-formed JSON; fields whose
/// backing signal is unavailable (no tracking allocator, no procfs)
/// report zeros alongside an explicit availability flag.
pub(crate) fn memory_body() -> String {
    let sources = telemetry::mem::collect();
    let stats = telemetry::alloc::stats();
    let heap = JsonObject::new()
        .bool("installed", telemetry::alloc::installed())
        .u64("live_bytes", stats.live_bytes)
        .u64("peak_bytes", stats.peak_bytes)
        .u64("total_bytes", stats.total_bytes)
        .u64("alloc_calls", stats.alloc_calls)
        .u64("dealloc_calls", stats.dealloc_calls)
        .finish();
    let (rss_now, rss_peak) = telemetry::mem::sample_rss().unwrap_or((0, 0));
    let rss = JsonObject::new()
        .bool("available", rss_now != 0)
        .u64("bytes", rss_now)
        .u64("peak_bytes", rss_peak)
        .finish();
    let mut breakdown = JsonObject::new();
    let mut total = 0u64;
    for (name, bytes) in &sources {
        breakdown.u64(name, *bytes);
        total += *bytes;
    }
    JsonObject::new()
        .f64("uptime_s", telemetry::mem::uptime_seconds())
        .raw("heap", &heap)
        .raw("rss", &rss)
        .u64("sources_total_bytes", total)
        .raw("sources", &breakdown.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_is_complete_and_reconciles_with_allocator() {
        telemetry::mem::register_source("obs.test_source", || 1234);
        let body = memory_body();
        assert!(body.contains("\"uptime_s\":"), "{body}");
        assert!(body.contains("\"heap\":{\"installed\":"), "{body}");
        assert!(body.contains("\"live_bytes\":"), "{body}");
        assert!(body.contains("\"rss\":{"), "{body}");
        assert!(body.contains("\"obs.test_source\":1234"), "{body}");
        assert!(body.contains("\"sources_total_bytes\":"), "{body}");
        // Without the tracking allocator installed in this test binary,
        // the heap block must say so rather than fabricate figures.
        if !telemetry::alloc::installed() {
            assert!(body.contains("\"installed\":false"), "{body}");
        }
    }
}
