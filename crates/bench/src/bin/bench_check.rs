//! CI regression gate over bench output: compares a freshly measured
//! document against a committed baseline and fails when a gated figure
//! regressed by more than the allowed ratio.
//!
//! ```text
//! bench_check <baseline.json> <fresh.json> [--max-ratio R]        # BENCH_fhe.json
//! bench_check --net <baseline.json> <fresh.json> [--max-ratio R]  # BENCH_net.json
//! ```
//!
//! The default mode joins the `"results"` rows of two `BENCH_fhe.json`
//! documents on `(op, threads)` and gates ns/op — but only rows whose
//! NTT `backend` labels agree (rows without the label, from older
//! baselines, compare with anything). Comparing a scalar baseline
//! against an AVX measurement would misread a hardware change as a
//! speedup or regression; mismatched-backend rows are skipped with a
//! note instead. Two documents measured at different workloads
//! (`ring_degree` / `model_params` present in both and unequal — a
//! full-mode run against the committed `--quick` baseline) are refused
//! outright as a usage error: their rows share names, not meaning.
//! `--net` gates the scalar figures of `BENCH_net.json`:
//! `fold_view_ns_per_ct` plus the memory peaks (`heap_peak_bytes`,
//! `rss_peak_bytes`). A missing or field-incomplete `--net` baseline
//! skips those comparisons with a note instead of failing — the
//! baseline grows fields (and appears at all) one commit after the
//! bench starts emitting them.
//!
//! Exit codes: 0 = within budget, 1 = regression past `--max-ratio`
//! (default 2.0 — generous on purpose, CI runners are noisy), 2 =
//! usage or parse error. Rows present on only one side are reported
//! but never fail the gate: the op set may grow between commits, and
//! the thread sweep depends on the runner's core count. The exception
//! is a baseline row labelled `"backend": "none"` (the wire kernels
//! `serialize`, `serialize_seeded`, `deserialize`, `fold_view`,
//! `crc32_frame`, and decrypt's CRT lift `crt_centered_f64`): it runs no
//! transform and one thread, so every runner can measure it, and its
//! absence from the fresh results is an error — a gated row must not
//! pass by disappearing.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::{env, fs};

use rhychee_bench::NO_NTT_BACKEND;

#[derive(Debug, Clone, PartialEq)]
struct BenchRow {
    op: String,
    threads: u64,
    ns_per_op: f64,
    /// NTT backend label; `None` for rows that pre-date the field.
    backend: Option<String>,
}

/// Extracts the string value of `"key"` from one JSON object body.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let at = obj.find(&format!("\"{key}\""))?;
    let rest = obj[at..].split_once(':')?.1.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_owned())
}

/// Extracts the numeric value of `"key"` from one JSON object body.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let at = obj.find(&format!("\"{key}\""))?;
    let rest = obj[at..].split_once(':')?.1.trim_start();
    let lit: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    lit.parse().ok()
}

/// Parses the `"results"` array of a `BENCH_fhe.json` document into
/// rows. Only the three fields the gate compares are read; everything
/// else in each row object is ignored.
fn parse_results(json: &str) -> Result<Vec<BenchRow>, String> {
    let at = json.find("\"results\"").ok_or("no \"results\" array in document")?;
    let open = json[at..].find('[').ok_or("\"results\" is not an array")? + at;
    let mut depth = 0usize;
    let mut close = None;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let arr = &json[open + 1..close.ok_or("unterminated \"results\" array")?];

    let mut rows = Vec::new();
    let mut rest = arr;
    while let Some(start) = rest.find('{') {
        let end = rest[start..].find('}').ok_or("unterminated row object")? + start;
        let obj = &rest[start + 1..end];
        rows.push(BenchRow {
            op: str_field(obj, "op").ok_or_else(|| format!("row without \"op\": {obj}"))?,
            threads: num_field(obj, "threads")
                .ok_or_else(|| format!("row without \"threads\": {obj}"))?
                as u64,
            ns_per_op: num_field(obj, "ns_per_op")
                .ok_or_else(|| format!("row without \"ns_per_op\": {obj}"))?,
            backend: str_field(obj, "backend"),
        });
        rest = &rest[end + 1..];
    }
    if rows.is_empty() {
        return Err("\"results\" array holds no rows".into());
    }
    Ok(rows)
}

/// Errors when both documents state `ring_degree` / `model_params` and
/// the values differ: the same op at another ring degree or model size
/// is a different measurement. A document without the field (older
/// baselines) compares with anything, as it always has.
fn check_same_workload(baseline: &str, fresh: &str) -> Result<(), String> {
    for key in ["ring_degree", "model_params"] {
        if let (Some(b), Some(f)) = (num_field(baseline, key), num_field(fresh, key)) {
            if b != f {
                return Err(format!(
                    "baseline has \"{key}\": {b}, fresh has {f} — different workloads \
                     (quick vs full mode?), rows are not comparable"
                ));
            }
        }
    }
    Ok(())
}

#[derive(Debug)]
struct Comparison {
    op: String,
    threads: u64,
    baseline_ns: f64,
    fresh_ns: f64,
    ratio: f64,
}

/// `true` when two rows ran on comparable NTT backends: equal labels,
/// or either side pre-dates the label (legacy baselines gate against
/// whatever the fresh run used, as they always have).
fn backends_comparable(a: &BenchRow, b: &BenchRow) -> bool {
    match (&a.backend, &b.backend) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

/// Joins the two row sets on `(op, threads)` plus backend
/// compatibility. Errors when the intersection is empty — a gate that
/// compares nothing must not pass.
fn compare(baseline: &[BenchRow], fresh: &[BenchRow]) -> Result<Vec<Comparison>, String> {
    let mut out = Vec::new();
    for b in baseline {
        let Some(f) = fresh
            .iter()
            .find(|f| f.op == b.op && f.threads == b.threads && backends_comparable(b, f))
        else {
            if fresh.iter().any(|f| f.op == b.op && f.threads == b.threads) {
                println!(
                    "bench_check: {}@{}t backend changed ({} -> fresh hardware); skipping",
                    b.op,
                    b.threads,
                    b.backend.as_deref().unwrap_or("unlabeled")
                );
            } else if b.backend.as_deref() == Some(NO_NTT_BACKEND) {
                return Err(format!(
                    "baseline row {}@{}t runs on every host but is missing from the fresh results",
                    b.op, b.threads
                ));
            }
            continue;
        };
        if b.ns_per_op <= 0.0 {
            return Err(format!("baseline {}@{}t has non-positive ns/op", b.op, b.threads));
        }
        out.push(Comparison {
            op: b.op.clone(),
            threads: b.threads,
            baseline_ns: b.ns_per_op,
            fresh_ns: f.ns_per_op,
            ratio: f.ns_per_op / b.ns_per_op,
        });
    }
    if out.is_empty() {
        return Err("no (op, threads) rows shared between baseline and fresh results".into());
    }
    Ok(out)
}

fn render_table(comparisons: &[Comparison], max_ratio: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>7} {:>14} {:>14} {:>7}  status",
        "op", "threads", "baseline", "fresh", "ratio"
    );
    for c in comparisons {
        let status = if c.ratio > max_ratio { "REGRESSED" } else { "ok" };
        let _ = writeln!(
            out,
            "{:<26} {:>7} {:>12.1}ns {:>12.1}ns {:>6.2}x  {status}",
            c.op, c.threads, c.baseline_ns, c.fresh_ns, c.ratio
        );
    }
    out
}

/// The `BENCH_net.json` figures the `--net` gate compares, all under
/// the same `--max-ratio` budget: the fold hot-path latency and the
/// memory peaks a leak or backpressure failure would inflate.
const NET_GATED: &[&str] = &["fold_view_ns_per_ct", "heap_peak_bytes", "rss_peak_bytes"];

/// Gates the scalar figures of a fresh `BENCH_net.json` against a
/// baseline. Missing baseline file or missing baseline fields skip
/// gracefully (the gate can only tighten once a baseline exists).
fn run_net(baseline_path: &str, fresh_path: &str, max_ratio: f64) -> Result<ExitCode, String> {
    let fresh = fs::read_to_string(fresh_path).map_err(|e| format!("{fresh_path}: {e}"))?;
    let baseline = match fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(_) => {
            println!(
                "bench_check: no net baseline at {baseline_path} yet — nothing to gate (pass)"
            );
            return Ok(ExitCode::SUCCESS);
        }
    };
    let mut compared = 0usize;
    let mut regressed = 0usize;
    let mut out = String::new();
    let _ =
        writeln!(out, "{:<24} {:>16} {:>16} {:>7}  status", "figure", "baseline", "fresh", "ratio");
    for key in NET_GATED {
        let Some(f) = num_field(&fresh, key) else {
            println!("bench_check: fresh {fresh_path} lacks \"{key}\"; skipping");
            continue;
        };
        let Some(b) = num_field(&baseline, key) else {
            println!("bench_check: baseline lacks \"{key}\" (pre-dates the field); skipping");
            continue;
        };
        if b <= 0.0 {
            // Peak RSS reads 0 where procfs is unavailable; a zero
            // baseline cannot anchor a ratio.
            println!("bench_check: baseline \"{key}\" is {b}; skipping");
            continue;
        }
        compared += 1;
        let ratio = f / b;
        let status = if ratio > max_ratio {
            regressed += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        let _ = writeln!(out, "{key:<24} {b:>16.1} {f:>16.1} {ratio:>6.2}x  {status}");
    }
    print!("{out}");
    if compared == 0 {
        println!("bench_check: no net figures shared with the baseline — nothing to gate (pass)");
        return Ok(ExitCode::SUCCESS);
    }
    if regressed == 0 {
        println!("bench_check: {compared} net figure(s) within {max_ratio}x of baseline");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("bench_check: {regressed} net figure(s) regressed past {max_ratio}x");
        Ok(ExitCode::FAILURE)
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut max_ratio = 2.0f64;
    let mut net = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--net" {
            net = true;
        } else if arg == "--max-ratio" {
            max_ratio = it
                .next()
                .ok_or("--max-ratio needs a value")?
                .parse()
                .map_err(|e| format!("--max-ratio: {e}"))?;
            if !(max_ratio.is_finite() && max_ratio > 0.0) {
                return Err("--max-ratio must be a positive finite number".into());
            }
        } else {
            paths.push(arg.clone());
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        return Err(
            "usage: bench_check [--net] <baseline.json> <fresh.json> [--max-ratio R]".into()
        );
    };
    if net {
        return run_net(baseline_path, fresh_path, max_ratio);
    }
    let read = |p: &String| fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (baseline, fresh) = (read(baseline_path)?, read(fresh_path)?);
    check_same_workload(&baseline, &fresh)?;
    let baseline = parse_results(&baseline).map_err(|e| format!("{baseline_path}: {e}"))?;
    let fresh = parse_results(&fresh).map_err(|e| format!("{fresh_path}: {e}"))?;

    let comparisons = compare(&baseline, &fresh)?;
    print!("{}", render_table(&comparisons, max_ratio));
    let regressed: Vec<&Comparison> = comparisons.iter().filter(|c| c.ratio > max_ratio).collect();
    if regressed.is_empty() {
        println!("bench_check: {} row(s) within {max_ratio}x of baseline", comparisons.len());
        Ok(ExitCode::SUCCESS)
    } else {
        for c in &regressed {
            eprintln!(
                "bench_check: {}@{}t regressed {:.2}x (baseline {:.1}ns/op, fresh {:.1}ns/op, budget {max_ratio}x)",
                c.op, c.threads, c.ratio, c.baseline_ns, c.fresh_ns
            );
        }
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run(&env::args().skip(1).collect::<Vec<_>>()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_check: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "machine_cores": 1,
  "results": [
    {"op": "ntt_forward", "threads": 1, "ns_per_op": 7000.0, "machine_cores": 1, "oversubscribed": false},
    {"op": "encrypt_model", "threads": 1, "ns_per_op": 1200000.5, "machine_cores": 1, "oversubscribed": false},
    {"op": "encrypt_model", "threads": 2, "ns_per_op": 700000.0, "machine_cores": 2, "oversubscribed": false}
  ]
}"#;

    #[test]
    fn parses_bench_fhe_results_rows() {
        let rows = parse_results(SAMPLE).expect("parse");
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            BenchRow { op: "ntt_forward".into(), threads: 1, ns_per_op: 7000.0, backend: None }
        );
        assert_eq!(rows[2].threads, 2, "thread sweep rows keep their degree");
    }

    #[test]
    fn parses_backend_labels_when_present() {
        let doc = r#"{"results": [
            {"op": "ntt_forward_avx2", "backend": "avx2", "threads": 1, "ns_per_op": 3000.0}
        ]}"#;
        let rows = parse_results(doc).expect("parse");
        assert_eq!(rows[0].backend.as_deref(), Some("avx2"));
    }

    #[test]
    fn mismatched_backends_skip_instead_of_comparing() {
        let row = |backend: Option<&str>, ns: f64| BenchRow {
            op: "encrypt_model".into(),
            threads: 1,
            ns_per_op: ns,
            backend: backend.map(Into::into),
        };
        // Baseline ran on avx512, fresh runner only has scalar: the
        // pair must not be compared (it would read as a 3x regression).
        assert!(compare(&[row(Some("avx512"), 100.0)], &[row(Some("scalar"), 300.0)]).is_err());
        // Same backend still gates.
        let cmp = compare(&[row(Some("scalar"), 100.0)], &[row(Some("scalar"), 300.0)])
            .expect("same backend compares");
        assert!((cmp[0].ratio - 3.0).abs() < 1e-12);
        // Unlabeled legacy baseline compares with anything.
        let cmp = compare(&[row(None, 100.0)], &[row(Some("avx2"), 150.0)]).expect("legacy");
        assert!((cmp[0].ratio - 1.5).abs() < 1e-12);
    }

    #[test]
    fn host_independent_baseline_rows_must_appear_in_the_fresh_run() {
        let row = |op: &str, backend: &str, ns: f64| BenchRow {
            op: op.into(),
            threads: 1,
            ns_per_op: ns,
            backend: Some(backend.into()),
        };
        let baseline = [row("encrypt_model", "avx512", 100.0), row("crc32_frame", "none", 50.0)];
        // Present on both sides: gated like any other row, on any host.
        let cmp = compare(
            &baseline,
            &[row("encrypt_model", "scalar", 300.0), row("crc32_frame", "none", 75.0)],
        )
        .expect("wire row compares");
        assert_eq!(cmp.len(), 1);
        assert_eq!(cmp[0].op, "crc32_frame");
        assert!((cmp[0].ratio - 1.5).abs() < 1e-12);
        // Dropped from the fresh run: an error, not a silent skip.
        let err =
            compare(&baseline, &[row("encrypt_model", "avx512", 100.0)]).expect_err("missing");
        assert!(err.contains("crc32_frame"), "{err}");
    }

    #[test]
    fn documents_from_different_workloads_are_refused() {
        let doc = |n: u32, params: u32| {
            format!("{{\"ring_degree\": {n}, \"model_params\": {params}, \"results\": []}}")
        };
        let quick = doc(512, 2000);
        assert_eq!(check_same_workload(&quick, &quick), Ok(()));
        let err = check_same_workload(&quick, &doc(8192, 20000)).expect_err("full vs quick");
        assert!(err.contains("ring_degree") && err.contains("8192"), "{err}");
        let err = check_same_workload(&quick, &doc(512, 20000)).expect_err("model size alone");
        assert!(err.contains("model_params"), "{err}");
        // A baseline that pre-dates the fields compares with anything.
        assert_eq!(check_same_workload(SAMPLE, &doc(8192, 20000)), Ok(()));
    }

    #[test]
    fn rejects_documents_without_rows() {
        assert!(parse_results("{\"results\": []}").is_err());
        assert!(parse_results("{\"machine_cores\": 1}").is_err());
        assert!(parse_results("{\"results\": [{\"threads\": 1}]}").is_err());
    }

    #[test]
    fn compares_on_op_and_threads_and_flags_regressions() {
        let baseline = parse_results(SAMPLE).expect("parse");
        // Fresh run: ntt 1.5x slower (ok at 2x budget), encrypt@1t 3x
        // slower (regression), encrypt@2t missing (runner has 1 core).
        let fresh = vec![
            BenchRow { op: "ntt_forward".into(), threads: 1, ns_per_op: 10500.0, backend: None },
            BenchRow {
                op: "encrypt_model".into(),
                threads: 1,
                ns_per_op: 3_600_001.5,
                backend: None,
            },
            BenchRow { op: "brand_new_op".into(), threads: 1, ns_per_op: 1.0, backend: None },
        ];
        let cmp = compare(&baseline, &fresh).expect("overlap");
        assert_eq!(cmp.len(), 2, "only shared rows compare");
        assert!((cmp[0].ratio - 1.5).abs() < 1e-9);
        assert!(cmp[1].ratio > 2.0 && cmp[1].ratio < 3.1);
        let table = render_table(&cmp, 2.0);
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.lines().count() == 3, "{table}");
    }

    #[test]
    fn disjoint_row_sets_are_an_error_not_a_pass() {
        let baseline = vec![BenchRow { op: "a".into(), threads: 1, ns_per_op: 1.0, backend: None }];
        let fresh = vec![BenchRow { op: "b".into(), threads: 1, ns_per_op: 1.0, backend: None }];
        assert!(compare(&baseline, &fresh).is_err(), "empty intersection must not gate-pass");
    }

    #[test]
    fn net_gate_reads_scalar_fields() {
        let doc = r#"{
  "clients": 64,
  "fold_view_ns_per_ct": 123456.7,
  "heap_peak_bytes": 104857600,
  "rss_peak_bytes": 209715200,
  "federation_secs": 3.2
}"#;
        assert_eq!(num_field(doc, "fold_view_ns_per_ct"), Some(123456.7));
        assert_eq!(num_field(doc, "heap_peak_bytes"), Some(104857600.0));
        assert_eq!(num_field(doc, "rss_peak_bytes"), Some(209715200.0));
        assert_eq!(num_field(doc, "nonexistent"), None);
    }

    #[test]
    fn net_gate_passes_without_a_baseline_and_fails_on_regression() {
        let dir = std::env::temp_dir().join(format!("rhychee-benchcheck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let fresh = dir.join("fresh.json");
        let missing = dir.join("never-written.json");
        std::fs::write(
            &fresh,
            "{\"fold_view_ns_per_ct\": 100.0, \"heap_peak_bytes\": 1000, \"rss_peak_bytes\": 0}",
        )
        .expect("write fresh");
        // No baseline yet: the gate must pass, not error.
        let code = run_net(missing.to_str().unwrap(), fresh.to_str().unwrap(), 2.0)
            .expect("missing baseline is not an error");
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::SUCCESS));
        // Identical baseline: passes. rss 0 baseline is skipped, not a div-by-zero.
        let base = dir.join("base.json");
        std::fs::write(
            &base,
            "{\"fold_view_ns_per_ct\": 100.0, \"heap_peak_bytes\": 1000, \"rss_peak_bytes\": 0}",
        )
        .expect("write base");
        let code = run_net(base.to_str().unwrap(), fresh.to_str().unwrap(), 2.0).expect("gate");
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::SUCCESS));
        // 3x fold regression past the 2x budget: fails.
        let slow = dir.join("slow.json");
        std::fs::write(
            &slow,
            "{\"fold_view_ns_per_ct\": 300.0, \"heap_peak_bytes\": 1000, \"rss_peak_bytes\": 0}",
        )
        .expect("write slow");
        let code = run_net(base.to_str().unwrap(), slow.to_str().unwrap(), 2.0).expect("gate");
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::FAILURE));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_runs_pass_exactly() {
        let rows = parse_results(SAMPLE).expect("parse");
        let cmp = compare(&rows, &rows).expect("overlap");
        assert!(cmp.iter().all(|c| (c.ratio - 1.0).abs() < 1e-12));
    }
}
