//! Experiment harness for the Rhychee-FL reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (see DESIGN.md §2 for the experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_comm_formulas`  | Table I — communication-size formulas |
//! | `table2_sota_comparison`| Table II — PFMLP / xMK-CKKS / Ours |
//! | `table3_param_sets`     | Table III — FHE parameter sets |
//! | `fig2_accuracy_sweep`   | Fig. 2 — accuracy vs D and client count |
//! | `fig3_convergence`      | Fig. 3 — accuracy by round, HDC vs CNN |
//! | `fig4_comm_overhead`    | Fig. 4 — model size vs communication |
//! | `fig5_channel`          | Fig. 5 — latency / rounds / time to failure |
//! | `noise_robustness`      | §V-E — convergence under channel noise |
//!
//! This library crate carries the shared plumbing: an ASCII table
//! printer, human-unit formatting, and the telemetry export every
//! experiment binary routes through ([`init_telemetry`] /
//! [`emit_metrics_json`]).

use std::path::PathBuf;

use rhychee_telemetry as telemetry;

/// Every experiment binary links this crate, so declaring the tracking
/// allocator here puts all of `src/bin/` under heap accounting: spans
/// get allocation attribution and every `BENCH_*.json` can report the
/// process heap peak next to its timings.
#[global_allocator]
static TRACKING_ALLOC: telemetry::alloc::TrackingAlloc = telemetry::alloc::TrackingAlloc;

/// `"backend"` label of `BENCH_fhe.json` rows that run no NTT (the
/// wire kernels `bench_fhe` times): equal on every host, so
/// `bench_check` compares such rows whatever kernel the runner resolved
/// and requires the fresh run to have them.
pub const NO_NTT_BACKEND: &str = "none";

/// The memory headline embedded in `BENCH_*.json` documents:
/// `(heap_peak_bytes, rss_peak_bytes)` — the tracking allocator's
/// high-water mark and the process peak RSS (0 where procfs is
/// unavailable).
pub fn peak_memory() -> (u64, u64) {
    let heap_peak = telemetry::alloc::stats().peak_bytes;
    let rss_peak = telemetry::mem::sample_rss().map(|(_, peak)| peak).unwrap_or(0);
    (heap_peak, rss_peak)
}

/// Median-of-three wall time per call of `f`, in nanoseconds, after one
/// warm-up call (pool workers, caches, first-use allocations).
pub fn time_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// A simple left-aligned ASCII table for experiment output.
///
/// # Examples
///
/// ```
/// use rhychee_bench::Table;
///
/// let mut t = Table::new(vec!["scheme", "bits"]);
/// t.row(vec!["CKKS-4".into(), "999424".into()]);
/// let s = t.render();
/// assert!(s.contains("CKKS-4"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with column alignment and a separator line.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("| ");
            for i in 0..cols {
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
                line.push_str(" | ");
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let sep: String = widths.iter().map(|w| format!("|{}", "-".repeat(w + 2))).collect();
        out.push_str(&format!("{sep}|\n"));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a bit count with decimal-unit suffixes (Kb/Mb/Gb, base 1000 as
/// is conventional for link capacities).
pub fn format_bits(bits: u64) -> String {
    let b = bits as f64;
    if b >= 1e9 {
        format!("{:.2} Gb", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} Mb", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} Kb", b / 1e3)
    } else {
        format!("{bits} b")
    }
}

/// Formats a duration in adaptive units.
pub fn format_seconds(s: f64) -> String {
    if s >= 86_400.0 {
        format!("{:.1} days", s / 86_400.0)
    } else if s >= 3_600.0 {
        format!("{:.1} h", s / 3_600.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// Prints a section banner for experiment output.
pub fn banner(title: &str) {
    let line = "=".repeat(title.len() + 4);
    println!("\n{line}\n| {title} |\n{line}");
}

/// Turns on telemetry recording. Every experiment binary calls this
/// first so its run produces a trace.
pub fn init_telemetry() {
    telemetry::set_enabled(true);
}

/// Directory where experiment metric traces land: `$RHYCHEE_METRICS_DIR`
/// if set, else `target/metrics`.
pub fn metrics_dir() -> PathBuf {
    std::env::var_os("RHYCHEE_METRICS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/metrics"))
}

/// Drains the trace buffer and metrics registry into
/// `metrics_dir()/<experiment>.jsonl` and prints the human-readable
/// summary table. Every experiment binary calls this last.
///
/// Export failures (e.g. an unwritable metrics directory) are reported on
/// stderr but never fail the experiment itself.
pub fn emit_metrics_json(experiment: &str) {
    let path = metrics_dir().join(format!("{experiment}.jsonl"));
    let summary = telemetry::trace::summary_table(&telemetry::metrics::global().snapshot());
    if !summary.is_empty() {
        banner(&format!("telemetry: {experiment}"));
        print!("{summary}");
    }
    match telemetry::trace::export_jsonl(&path) {
        Ok(()) => println!("telemetry trace written to {}", path.display()),
        Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer-cell".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(s.contains("longer-cell"));
        assert!(s.contains("long-header"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(format_bits(999), "999 b");
        assert_eq!(format_bits(5_000_000), "5.00 Mb");
        assert_eq!(format_bits(2_500_000_000), "2.50 Gb");
        assert_eq!(format_seconds(0.000_002), "2.00 µs");
        assert_eq!(format_seconds(0.25), "250.00 ms");
        assert_eq!(format_seconds(5.5), "5.50 s");
        assert_eq!(format_seconds(2.0 * 86_400.0), "2.0 days");
    }
}
