//! Flight recorder: point-in-time JSON snapshots of the whole
//! observability state, dumped to disk when something goes wrong.
//!
//! A snapshot bundles everything a post-mortem needs in one file: the
//! newest recorded spans (with per-span allocation attribution), the full
//! metrics registry (counters, gauges, histogram quantiles), and the
//! memory breakdown from [`crate::memory`]. The [round
//! watchdog](crate::watchdog) dumps one when a round phase stalls, and
//! [`install_panic_hook`] dumps one on any panic before the default
//! hook runs — so a crashed or wedged federation leaves evidence
//! behind instead of an empty log.
//!
//! Dumps are plain JSON named `flight-<reason>-<unix_ms>.json`; read
//! them with the `mem_report` binary or any JSON tool.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use rhychee_telemetry as telemetry;
use rhychee_telemetry::json::JsonObject;

/// Serializes the current process observability state: recent spans,
/// metrics snapshot, memory breakdown. `reason` tags why the snapshot
/// was taken (`"stall"`, `"panic"`, `"manual"`, ...).
pub fn snapshot(reason: &str) -> String {
    let unix_ms =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
    let snap = telemetry::metrics::global().snapshot();

    let mut counters = JsonObject::new();
    for (name, v) in &snap.counters {
        counters.u64(name, *v);
    }
    let mut gauges = JsonObject::new();
    for (name, v) in &snap.gauges {
        gauges.f64(name, *v);
    }
    let mut histograms = String::from("[");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            histograms.push(',');
        }
        let mut obj = JsonObject::new();
        h.write_json(&mut obj);
        histograms.push_str(&obj.finish());
    }
    histograms.push(']');

    let mut spans = String::from("[");
    for (i, e) in telemetry::trace::recent_events().iter().enumerate() {
        if i > 0 {
            spans.push(',');
        }
        let mut obj = JsonObject::new();
        e.write_json(&mut obj);
        spans.push_str(&obj.finish());
    }
    spans.push(']');

    JsonObject::new()
        .str("kind", "rhychee-flight-recorder")
        .str("reason", reason)
        .u64("unix_ms", unix_ms)
        .raw("memory", &crate::memory::memory_body())
        .raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        .raw("histograms", &histograms)
        .raw("recent_spans", &spans)
        .finish()
}

/// Takes a [`snapshot`] and writes it to
/// `<dir>/flight-<reason>-<unix_ms>.json`, creating `dir` if needed.
/// Returns the written path.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub(crate) fn dump(dir: &Path, reason: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let body = snapshot(reason);
    let unix_ms =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
    let path = dir.join(format!("flight-{reason}-{unix_ms}.json"));
    std::fs::write(&path, body)?;
    Ok(path)
}

static PANIC_HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Chains a panic hook that dumps one flight-recorder snapshot to `dir`
/// (reason `"panic"`) before the previous hook runs. Installs at most
/// once per process; later calls are no-ops (the first directory wins).
pub fn install_panic_hook(dir: impl Into<PathBuf>) {
    if PANIC_HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let dir = dir.into();
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        // A second panic inside the dump must not recurse or abort the
        // unwind; best-effort only.
        if let Ok(path) = dump(&dir, "panic") {
            eprintln!("flight recorder: dumped {}", path.display());
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_parseable_shaped_json() {
        telemetry::count("obs.flight.test_counter", 0); // ensure registry exists
        let body = snapshot("manual");
        assert!(body.starts_with("{\"kind\":\"rhychee-flight-recorder\""), "{body}");
        assert!(body.contains("\"reason\":\"manual\""), "{body}");
        assert!(body.contains("\"memory\":{"), "{body}");
        assert!(body.contains("\"counters\":{"), "{body}");
        assert!(body.contains("\"gauges\":{"), "{body}");
        assert!(body.contains("\"histograms\":["), "{body}");
        assert!(body.contains("\"recent_spans\":["), "{body}");
        assert!(body.ends_with('}'), "{body}");
        // Braces balance outside strings — cheap structural sanity.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut prev = ' ';
        for c in body.chars() {
            match c {
                '"' if prev != '\\' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            prev = c;
        }
        assert_eq!(depth, 0, "unbalanced nesting in {body}");
    }

    #[test]
    fn dump_writes_a_named_file() {
        let dir = std::env::temp_dir().join(format!("rhychee-flight-test-{}", std::process::id()));
        let path = dump(&dir, "stall").expect("dump");
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        assert!(name.starts_with("flight-stall-") && name.ends_with(".json"), "{name}");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.contains("\"reason\":\"stall\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
