//! `--smoke` (one round, two clients) through the real binaries, so the
//! workspace test run keeps every workload, the hand-over to the traced
//! binary and the result-line contract working — in a debug build, where
//! a measuring run refuses to start.

use std::process::Command;

use rhychee_benchmark::json::Value;
use rhychee_benchmark::spec::{Contract, MetricSpec, WORKLOADS};

const BIN: &str = env!("CARGO_BIN_EXE_rhychee-benchmark");

/// Runs the end-to-end binary and returns its exit status and stdout.
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn rhychee-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    (
        out.status.success(),
        format!("{stdout}\n--- stderr ---\n{}", String::from_utf8_lossy(&out.stderr)),
    )
}

/// Checks the last stdout line against the result-line contract and the
/// metric list it must carry.
fn check_result_line(output: &str, expected: &[MetricSpec]) {
    let stdout = output.split("\n--- stderr ---").next().expect("stdout part");
    let last = stdout.trim_end().lines().last().expect("a last line");
    let doc = Value::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true), "{output}");
    assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(doc.get("attempted").and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
    let metrics = doc.get("metrics").expect("metrics");
    let names: Vec<&str> = metrics.fields().iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, want, "exactly the contract's metrics, in its order");
    for spec in expected {
        let m = metrics.get(&spec.name).expect("metric");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit.as_str()));
        assert!(
            m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite),
            "{}",
            spec.name
        );
    }
}

#[test]
fn every_workload_passes_its_checks_end_to_end() {
    let contract = Contract::embedded();
    for w in &WORKLOADS {
        let (ok, output) = run(&["--workload", w.name, "--seed", "3", "--trace", "0", "--smoke"]);
        assert!(ok, "{} failed:\n{output}", w.name);
        check_result_line(&output, &contract.end_to_end);
        // An end-to-end metric is never zero: the driver divides by it.
        let last =
            output.split("\n--- stderr ---").next().and_then(|s| s.trim_end().lines().last());
        let doc = Value::parse(last.expect("last line")).expect("json");
        for (name, m) in doc.get("metrics").expect("metrics").fields() {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some_and(|v| v > 0.0),
                "{}: {name} is 0",
                w.name
            );
        }
    }
}

#[test]
fn traced_hand_over_prints_every_per_layer_metric() {
    let contract = Contract::embedded();
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-spans.jsonl");
    for name in ["ladder_ckks3_seeded", "fanin100_ckks4"] {
        let (ok, output) = run(&[
            "--workload",
            name,
            "--seed",
            "3",
            "--trace",
            "1",
            "--smoke",
            "--trace-out",
            trace.to_str().expect("utf8 path"),
        ]);
        assert!(ok, "{name} failed:\n{output}");
        check_result_line(&output, &contract.per_layer);
        let spans = std::fs::read_to_string(&trace).expect("trace file");
        assert!(spans.lines().all(|l| l.contains(r#""type":"span""#)) && spans.contains("round/"));
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn a_measuring_run_refuses_a_debug_build_and_bad_input_exits_non_zero() {
    if cfg!(debug_assertions) {
        let (ok, output) =
            run(&["--workload", "ladder_ckks4", "--seed", "1", "--seconds", "1", "--trace", "0"]);
        assert!(!ok && output.contains("debug build"), "{output}");
    }
    assert!(!run(&["--workload", "no_such_workload", "--smoke"]).0);
    assert!(!run(&["compare", "missing-a.json", "--", "missing-b.json"]).0);
}
