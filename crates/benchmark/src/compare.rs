//! `rhychee-benchmark compare <runA.json>... -- <runB.json>...`: holds
//! side B's end-to-end medians against side A's, metric by metric and
//! workload by workload, using the bounds `BENCHMARK.json` fixes. It is
//! what the A/A check runs, and what a later change runs on its
//! parent-vs-change pairs.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::spec::{Better, Contract, MetricSpec};
use crate::stats::{median, quartiles, spread};

/// How one metric on one workload came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A's own runs spread wider than the bound, so the pair cannot tell.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Side A's values, one per run file.
    pub a: Vec<f64>,
    /// Side B's values, one per run file.
    pub b: Vec<f64>,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric: `a` and `b` hold one value per run.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse_by = match spec.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    // Wider than the bound, A's own spread hides a regression of that
    // size — unless every B run reads better than every A run.
    if spread(a).is_some_and(|s| s > bound) {
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let b_wins = match spec.better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
        return if b_wins { Verdict::Ok } else { Verdict::Unresolved };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// workload → metric → one value per run file.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(docs: &[Value]) -> Side {
    let mut side = Side::new();
    for doc in docs {
        for (workload, section) in doc.get("workloads").map_or(&[][..], Value::fields) {
            for (metric, m) in section.get("end_to_end").map_or(&[][..], Value::fields) {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    side.entry(workload.clone())
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    side
}

/// The NTT backend every document of both sides was measured on.
///
/// # Errors
///
/// Returns a message when the documents name more than one backend:
/// numbers from different kernels are not comparable.
fn common_backend(docs: &[&Value]) -> Result<String, String> {
    let mut names: Vec<&str> =
        docs.iter().filter_map(|d| d.get("env")?.get("ntt_backend")?.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    match names.as_slice() {
        [one] => Ok((*one).to_owned()),
        [] => Err("no run file records an NTT backend".into()),
        many => Err(format!("run files mix NTT backends {many:?}; refusing to compare them")),
    }
}

/// Compares two sets of parsed run files.
///
/// # Errors
///
/// Returns a message when the sides were measured on different NTT
/// backends or share no workload.
pub fn compare(contract: &Contract, a: &[Value], b: &[Value]) -> Result<Vec<Row>, String> {
    common_backend(&a.iter().chain(b).collect::<Vec<_>>())?;
    let (side_a, side_b) = (collect(a), collect(b));
    let mut rows = Vec::new();
    for workload in &contract.workloads {
        let (Some(wa), Some(wb)) = (side_a.get(workload), side_b.get(workload)) else { continue };
        for spec in &contract.end_to_end {
            let (Some(va), Some(vb)) = (wa.get(&spec.name), wb.get(&spec.name)) else { continue };
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name.clone(),
                a: va.clone(),
                b: vb.clone(),
                bound: spec.bound.unwrap_or(0.0),
                verdict: judge(spec, va, vb),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sides share no workload with end-to-end metrics".into());
    }
    Ok(rows)
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("[{q1:.4} .. {q3:.4}]"),
        None => "[single run]".to_owned(),
    }
}

/// Renders the rows: both medians and quartiles, the ratio with its
/// base, the bound and the verdict.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut workload = "";
    for r in rows {
        if r.workload != workload {
            workload = &r.workload;
            out.push_str(&format!("== {workload}\n"));
        }
        let (ma, mb) = (median(&r.a), median(&r.b));
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        };
        out.push_str(&format!(
            "{:<18} A {ma:>12.4} {:<24} n={:<2}  B {mb:>12.4} {:<24} n={:<2}  B/A {:.4} (base A = {ma:.4})  bound {:.3}  {verdict}\n",
            r.metric,
            quartile_text(&r.a),
            r.a.len(),
            quartile_text(&r.b),
            r.b.len(),
            mb / ma,
            r.bound,
        ));
    }
    out
}

/// Entry point of the `compare` subcommand; `args` are the words after
/// `compare`. Returns the process exit code: 0 when nothing regressed, 1
/// when something did, 2 on unusable input.
pub fn main(args: &[String]) -> u8 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: rhychee-benchmark compare <runA.json>... -- <runB.json>...");
        return 2;
    };
    let load = |paths: &[String]| -> Result<Vec<Value>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                Value::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let rows = load(&args[..split])
        .and_then(|a| load(&args[split + 1..]).map(|b| (a, b)))
        .and_then(|(a, b)| compare(&Contract::embedded(), &a, &b));
    match rows {
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
        Ok(rows) => {
            print!("{}", render(&rows));
            let count = |v| rows.iter().filter(|r| r.verdict == v).count();
            let (regressed, unresolved) = (count(Verdict::Regressed), count(Verdict::Unresolved));
            println!("{} metric rows: {regressed} regressed, {unresolved} unresolved", rows.len());
            u8::from(regressed > 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: Better, bound: f64) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: "ms".into(), better, bound: Some(bound) }
    }

    fn tight(center: f64) -> Vec<f64> {
        (0..10).map(|i| center * (1.0 + 0.001 * f64::from(i))).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let lower = spec(Better::Lower, 0.10);
        assert_eq!(judge(&lower, &tight(100.0), &tight(105.0)), Verdict::Ok);
        assert_eq!(judge(&lower, &tight(100.0), &tight(115.0)), Verdict::Regressed);
        assert_eq!(
            judge(&lower, &tight(100.0), &tight(50.0)),
            Verdict::Ok,
            "faster is never a regression"
        );
        let higher = spec(Better::Higher, 0.10);
        assert_eq!(judge(&higher, &tight(100.0), &tight(85.0)), Verdict::Regressed);
        assert_eq!(judge(&higher, &tight(100.0), &tight(120.0)), Verdict::Ok);
    }

    #[test]
    fn a_side_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_run() {
        let lower = spec(Better::Lower, 0.05);
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 4.0 * f64::from(i)).collect();
        assert_eq!(judge(&lower, &noisy, &tight(110.0)), Verdict::Unresolved);
        assert_eq!(judge(&lower, &noisy, &tight(60.0)), Verdict::Ok);
    }

    #[test]
    fn exact_counts_regress_on_any_growth_past_their_tiny_bound() {
        let bytes = spec(Better::Lower, 0.001);
        assert_eq!(judge(&bytes, &[624_729.0; 3], &[624_729.0; 3]), Verdict::Ok);
        assert_eq!(judge(&bytes, &[624_729.0; 3], &[630_000.0; 3]), Verdict::Regressed);
    }

    fn run_file(backend: &str, round_ms: f64) -> Value {
        Value::parse(&format!(
            r#"{{"env": {{"ntt_backend": "{backend}"}},
                "workloads": {{"ladder_ckks4": {{"end_to_end": {{"round_ms": {{"value": {round_ms}, "unit": "ms"}}}}}}}}}}"#
        ))
        .expect("run file")
    }

    #[test]
    fn compare_pairs_files_by_workload_and_refuses_mixed_backends() {
        let contract = Contract::embedded();
        let a = [run_file("avx512", 700.0), run_file("avx512", 702.0)];
        let b = [run_file("avx512", 900.0), run_file("avx512", 905.0)];
        let rows = compare(&contract, &a, &b).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].metric.as_str(), rows[0].verdict), ("round_ms", Verdict::Regressed));
        assert!(render(&rows).contains("regressed"));

        let mixed = [run_file("scalar", 700.0)];
        assert!(compare(&contract, &a, &mixed)
            .expect_err("mixed backends")
            .contains("mix NTT backends"));
    }
}
