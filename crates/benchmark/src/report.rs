//! Turns what a run measured into named metrics: the end-to-end set of
//! the untraced binary, the per-layer set of the traced one, the one-line
//! JSON result the driver reads, and the result file `compare` reads.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::layers::{Row, CHILDREN};
use crate::spec::{Contract, MetricSpec, Workload};
use crate::stats::{median, tail};
use crate::sut;
use crate::trace::{LayerStats, MemTrace, ROUND};
use crate::workload::{Outcome, NET_REPORT_METRICS};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value: a median for timings, the count itself for counts.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// Samples behind the value.
    pub n: usize,
    /// Highest percentile with at least ten samples beyond it, and its
    /// value (reported, never gated).
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    fn of(spec: &MetricSpec, samples: &[f64]) -> Metric {
        Metric {
            name: spec.name.clone(),
            value: median(samples),
            unit: spec.unit.clone(),
            n: samples.len(),
            tail: tail(samples),
        }
    }

    fn exact(spec: &MetricSpec, value: f64, n: usize) -> Metric {
        Metric { name: spec.name.clone(), value, unit: spec.unit.clone(), n, tail: None }
    }
}

/// The end-to-end metrics of a run, in contract order.
pub fn end_to_end(contract: &Contract, out: &Outcome) -> Vec<Metric> {
    contract
        .end_to_end
        .iter()
        .map(|spec| {
            Metric::of(spec, out.samples.get(spec.name.as_str()).map_or(&[], Vec::as_slice))
        })
        .collect()
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The run's outcome (`net.*` samples, round count).
    pub out: &'a Outcome,
    /// The recorded spans.
    pub trace: &'a MemTrace,
    /// The `fhe` rows.
    pub rows: &'a BTreeMap<&'static str, Row>,
    /// Ciphertexts one model packs into.
    pub cts_per_model: usize,
    /// Median `round_ms` of the untraced binary on the same workload and
    /// seed, for the overhead figure.
    pub untraced_round_ms: f64,
}

/// Median traced `round_ms`: the tracer's own `round` spans, or on the
/// net workload (which the tracer cannot see into) the run's samples.
fn traced_round_ms(inp: &LayerInputs<'_>) -> f64 {
    let spans = inp.trace.round_ms();
    if spans.is_empty() {
        median(inp.out.samples.get("round_ms").map_or(&[], Vec::as_slice))
    } else {
        median(&spans)
    }
}

/// Resolves one per-layer metric name to its value and sample count.
/// `layers` is `inp.trace.layers()`, computed once for the whole list.
///
/// # Errors
///
/// Returns a message for a name the binary does not know how to compute,
/// so `BENCHMARK.json` cannot list a metric that is silently zero.
fn layer_value(
    name: &str,
    inp: &LayerInputs<'_>,
    layers: &BTreeMap<&'static str, LayerStats>,
) -> Result<(f64, usize), String> {
    let rounds = inp.trace.round_ms().len().max(1) as f64;
    let span_ms = |span: &str| layers.get(span).map_or(0.0, |l| median(&l.ms));
    let row = |key: &str| inp.rows.get(key).copied();
    let children_us = |span: &str| {
        CHILDREN.iter().find(|(parent, _)| *parent == span).map(|(_, kids)| {
            kids.iter().map(|k| row(k).map_or(0.0, |r| r.us)).sum::<f64>()
                * inp.cts_per_model as f64
        })
    };

    if let Some(samples) = inp.out.layer_samples.get(name) {
        return Ok((median(samples), samples.len()));
    }
    if NET_REPORT_METRICS.contains(&name) {
        return Ok((0.0, 0)); // this workload does not cross the network
    }
    if name == "trace_overhead_pct" {
        let base = inp.untraced_round_ms;
        let pct = if base > 0.0 { (traced_round_ms(inp) / base - 1.0) * 100.0 } else { 0.0 };
        return Ok((pct, 1));
    }
    if name == "ladder.remainder_ms" {
        // Mean self time of `round`: what no top-level span covers.
        let tree = inp.trace.tree();
        let node = tree.get(ROUND);
        let self_ms = node.map_or(0.0, |n| n.self_ns() as f64 / 1e6 / n.count.max(1) as f64);
        return Ok((self_ms, node.map_or(0, |n| n.count as usize)));
    }
    if name == "fhe.ckks.decrypt.remainder_us" {
        let part = |k: &str| row(k).map_or(0.0, |r| r.us);
        let rest =
            part("fhe.ckks.decrypt") - part("fhe.rns.to_centered_f64") - part("fhe.ckks.decode");
        return Ok((rest, 1));
    }
    if let Some(span) = name.strip_suffix(".ms") {
        return Ok((span_ms(span), layers.get(span).map_or(0, |l| l.ms.len())));
    }
    if let Some(span) = name.strip_suffix(".calls") {
        let calls = layers.get(span).map_or(0, |l| l.ms.len());
        return Ok((calls as f64 / rounds, calls));
    }
    if let Some(span) = name.strip_suffix(".children_us") {
        return children_us(span)
            .map(|us| (us, 1))
            .ok_or_else(|| format!("no children for {span}"));
    }
    if let Some(span) = name.strip_suffix(".remainder_us") {
        let kids = children_us(span).ok_or_else(|| format!("no children for {span}"))?;
        // A span with no calls on this workload has nothing to explain.
        let own = span_ms(span) * 1e3;
        return Ok((if own > 0.0 { own - kids } else { 0.0 }, 1));
    }
    if let Some(key) = name.strip_suffix(".alloc_kb") {
        if let Some(r) = row(key) {
            return Ok((r.alloc_kb, 1));
        }
        let kb = layers.get(key).map_or(0.0, |l| median(&l.alloc_bytes) / 1024.0);
        return Ok((kb, layers.get(key).map_or(0, |l| l.ms.len())));
    }
    if let Some(key) = name.strip_suffix(".us").or_else(|| name.strip_suffix("_us")) {
        if let Some(r) = row(key) {
            return Ok((r.us, 1));
        }
    }
    Err(format!("BENCHMARK.json lists per-layer metric `{name}`, which this binary cannot compute"))
}

/// The per-layer metrics of a traced run, in contract order.
///
/// # Errors
///
/// Returns a message when the contract names a metric this binary does
/// not know.
pub fn per_layer(contract: &Contract, inp: &LayerInputs<'_>) -> Result<Vec<Metric>, String> {
    let layers = inp.trace.layers();
    contract
        .per_layer
        .iter()
        .map(|spec| {
            layer_value(&spec.name, inp, &layers).map(|(value, n)| Metric::exact(spec, value, n))
        })
        .collect()
}

/// Prints the metrics as an aligned table: name, value, unit, sample
/// count, and the tail percentile the sample count supports.
pub fn print_table(title: &str, metrics: &[Metric]) {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    println!("== {title}");
    for m in metrics {
        let tail = m.tail.map_or(String::new(), |(p, v)| format!("  p{p}={v:.4}"));
        println!("{:<width$}  {:>14.4} {:<6} n={}{tail}", m.name, m.value, m.unit, m.n);
    }
}

/// The single-line JSON object the driver reads off the end of stdout.
pub fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let mut obj = Value::obj();
    let mut values = Value::obj();
    for m in metrics {
        let mut v = Value::obj();
        v.set("value", m.value).set("unit", m.unit.as_str());
        values.set(&m.name, v);
    }
    obj.set("correct", out.failures.is_empty())
        .set("attempted", out.attempted.max(1))
        .set("failed", out.failed)
        .set("metrics", values);
    obj.to_string()
}

/// The machine and build a result came from.
pub fn environment(seed: u64) -> Value {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut env = Value::obj();
    env.set("seed", seed)
        .set("git_commit", git)
        .set("nproc", nproc as u64)
        .set("rustc", env!("RHYCHEE_BENCHMARK_RUSTC"))
        .set("profile", env!("RHYCHEE_BENCHMARK_PROFILE"))
        .set("opt_level", env!("RHYCHEE_BENCHMARK_OPT"))
        .set("ntt_backend", sut::ntt_backend())
        .set(
            "ntt_backend_override",
            std::env::var("RHYCHEE_NTT_BACKEND").map_or(Value::Null, Value::Str),
        );
    env
}

/// One workload's section of a result file.
pub fn workload_section(w: &Workload, out: &Outcome, kind: &str, metrics: &[Metric]) -> Value {
    let mut section = Value::obj();
    let mut values = Value::obj();
    for m in metrics {
        let mut v = Value::obj();
        v.set("value", m.value).set("unit", m.unit.as_str()).set("n", m.n as u64);
        if let Some((p, value)) = m.tail {
            v.set("tail_p", p).set("tail_value", value);
        }
        values.set(&m.name, v);
    }
    section
        .set("constants", w.constants())
        .set("correct", out.failures.is_empty())
        .set("attempted", out.attempted)
        .set("failed", out.failed)
        .set("failures", Value::Arr(out.failures.iter().map(|f| f.as_str().into()).collect()))
        .set("rounds", out.rounds)
        .set("accuracy", out.accuracy.map_or(Value::Null, Value::Num))
        .set("max_err", out.max_err)
        .set(kind, values);
    section
}

/// Assembles a result file from its environment record and sections.
pub fn result_file(env: Value, sections: Vec<(String, Value)>) -> Value {
    let mut doc = Value::obj();
    doc.set("env", env).set("workloads", Value::Obj(sections));
    doc
}
