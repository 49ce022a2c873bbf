//! Command line of both binaries.
//!
//! ```text
//! rhychee-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line last
//! rhychee-benchmark --seed <n> [--out run.json]                                every workload, each in a child process
//! rhychee-benchmark compare <runA.json>... -- <runB.json>...                   judge B against A
//! ```
//!
//! `--trace 0` measures the end-to-end metrics in this process (system
//! allocator, tracer compiled to nothing). `--trace 1` first measures an
//! untraced `round_ms` here, then hands over to the sibling binary
//! `rhychee-benchmark-traced` (tracer on, tracking allocator installed),
//! which prints the per-layer metrics and the overhead between the two.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::json::Value;
use crate::layers;
use crate::report::{self, LayerInputs};
use crate::spec::{Contract, Workload, WORKLOADS};
use crate::stats::median;
use crate::trace::{MemTrace, NoTrace};
use crate::workload::{self, Outcome, RunOpts};

/// Which binary is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// `rhychee-benchmark`: system allocator, no tracer.
    EndToEnd,
    /// `rhychee-benchmark-traced`: tracking allocator, tracer on.
    Traced,
}

const TRACED_BIN: &str = "rhychee-benchmark-traced";

/// Share of `--seconds` each of the two timed phases of a traced run
/// gets (the `fhe` rows take what is left).
const TRACED_SHARE: f64 = 1.0 / 3.0;

/// Segments an end-to-end run is cut into (see [`RunOpts::segments`]);
/// `setup_s` is the median of their set-ups.
const SEGMENTS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    untraced_round_ms: f64,
}

fn parse(argv: &[String], contract: &Contract) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: contract.run_seconds as f64,
        trace: None,
        out: None,
        trace_out: None,
        smoke: false,
        untraced_round_ms: 0.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--untraced-round-ms" => args.untraced_round_ms = value.parse().map_err(|_| bad())?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, got {}", args.seconds));
    }
    Ok(args)
}

fn lookup(name: &str, smoke: bool) -> Result<Workload, String> {
    let w = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; the workloads are {names:?}")
    })?;
    Ok(if smoke { w.smoke() } else { *w })
}

fn opts(args: &Args, share: f64, segments: usize) -> RunOpts {
    let seconds = if args.smoke { 0.0 } else { args.seconds * share };
    RunOpts { seed: args.seed, seconds, segments: if args.smoke { 1 } else { segments } }
}

fn print_checks(w: &Workload, out: &Outcome) {
    println!(
        "{}: {} timed rounds, {} operations attempted, {} failed, max |global - mean| = {:e} (tolerance {:e}){}",
        w.name,
        out.rounds,
        out.attempted,
        out.failed,
        out.max_err,
        w.tolerance,
        out.accuracy.map_or(String::new(), |a| format!(", final test accuracy {a:.4}")),
    );
    for failure in &out.failures {
        println!("FAILED CHECK: {failure}");
    }
}

fn write_out(
    args: &Args,
    w: &Workload,
    out: &Outcome,
    kind: &str,
    metrics: &[report::Metric],
) -> Result<(), String> {
    let Some(path) = &args.out else { return Ok(()) };
    let section = report::workload_section(w, out, kind, metrics);
    let doc =
        report::result_file(report::environment(args.seed), vec![(w.name.to_owned(), section)]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn exit_for(out: &Outcome) -> ExitCode {
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--trace 0`: the end-to-end metrics, measured in this process.
fn run_end_to_end(args: &Args, contract: &Contract, w: &Workload) -> Result<ExitCode, String> {
    let out = workload::run(w, &opts(args, 1.0, SEGMENTS), &mut NoTrace)?;
    let metrics = report::end_to_end(contract, &out);
    print_checks(w, &out);
    report::print_table(&format!("{} end-to-end", w.name), &metrics);
    write_out(args, w, &out, "end_to_end", &metrics)?;
    println!("{}", report::result_line(&out, &metrics));
    Ok(exit_for(&out))
}

/// Path of the traced sibling binary, built first when this process was
/// started through cargo (`cargo run --bin rhychee-benchmark` builds only
/// the binary it runs).
fn traced_binary(smoke: bool) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name(format!("{TRACED_BIN}{}", std::env::consts::EXE_SUFFIX));
    if let (Ok(cargo), false) = (std::env::var("CARGO"), smoke) {
        let mut build = Command::new(cargo);
        build.args(["build", "--quiet", "-p", env!("CARGO_PKG_NAME"), "--bin", TRACED_BIN]);
        if env!("RHYCHEE_BENCHMARK_PROFILE") == "release" {
            build.arg("--release");
        }
        // Cargo's own output must not end up after the result line.
        let status = build.stdout(std::process::Stdio::null()).status();
        if !status.is_ok_and(|s| s.success()) {
            return Err(format!("building {TRACED_BIN} failed"));
        }
    }
    if !sibling.is_file() {
        return Err(format!(
            "{} not found; build it with `cargo build --release -p {} --bins`",
            sibling.display(),
            env!("CARGO_PKG_NAME")
        ));
    }
    Ok(sibling)
}

/// `--trace 1` in the end-to-end binary: measure the untraced `round_ms`
/// here, then let the traced sibling measure and print the layers.
fn hand_over_to_traced(args: &Args, w: &Workload) -> Result<ExitCode, String> {
    let out = workload::run(w, &opts(args, TRACED_SHARE, 1), &mut NoTrace)?;
    if !out.failures.is_empty() {
        print_checks(w, &out);
        return Ok(ExitCode::FAILURE);
    }
    let untraced = median(out.samples.get("round_ms").map_or(&[], Vec::as_slice));
    drop(out);
    let mut child = Command::new(traced_binary(args.smoke)?);
    child
        .args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "1"])
        .args(["--untraced-round-ms", &untraced.to_string()]);
    if args.smoke {
        child.arg("--smoke");
    }
    for (flag, path) in [("--out", &args.out), ("--trace-out", &args.trace_out)] {
        if let Some(path) = path {
            child.arg(flag).arg(path);
        }
    }
    // stdout is inherited: the child's last line is this run's result.
    let status = child.status().map_err(|e| format!("{TRACED_BIN}: {e}"))?;
    Ok(if status.success() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The traced binary: spans around every layer call, heap bytes per
/// span, then the `fhe` rows on the last round's inputs.
fn run_traced(args: &Args, contract: &Contract, w: &Workload) -> Result<ExitCode, String> {
    let mut trace = MemTrace::default();
    let out = workload::run(w, &opts(args, TRACED_SHARE, 1), &mut trace)?;
    print_checks(w, &out);
    let probe = out.probe.as_ref().ok_or("the run kept no inputs for the fhe rows")?;
    let rows = if out.failures.is_empty() { layers::fhe_rows(probe)? } else { BTreeMap::new() };
    let inputs = LayerInputs {
        out: &out,
        trace: &trace,
        rows: &rows,
        cts_per_model: probe.crypto.cts_per_model(),
        untraced_round_ms: args.untraced_round_ms,
    };
    let metrics = report::per_layer(contract, &inputs)?;
    report::print_table(&format!("{} per-layer (traced)", w.name), &metrics);
    let tree = trace.tree();
    if !tree.is_empty() {
        println!(
            "== {} span tree (self time = span minus the interval its children cover)",
            w.name
        );
        print!("{}", tree.self_time_table(20));
    }
    if let Some(path) = &args.trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut file = std::io::BufWriter::new(file);
        trace.write_jsonl(&mut file).map_err(|e| format!("{}: {e}", path.display()))?;
        std::io::Write::flush(&mut file).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    write_out(args, w, &out, "per_layer", &metrics)?;
    println!("{}", report::result_line(&out, &metrics));
    Ok(exit_for(&out))
}

fn part_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    let mut name = out.file_name().map_or_else(Default::default, |n| n.to_os_string());
    name.push(format!(".{workload}.trace{}.part", u8::from(trace)));
    out.with_file_name(name)
}

/// No `--workload`: every workload, untraced then traced, each in a
/// child process of its own so peak memory and caches start clean.
fn run_all(args: &Args, contract: &Contract) -> Result<ExitCode, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut failed = Vec::new();
    let mut sections: Vec<(String, Value)> = Vec::new();
    for name in &contract.workloads {
        let mut section = Value::obj();
        for trace in [false, true] {
            let mut child = Command::new(&me);
            child
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            let part = args.out.as_deref().map(|out| part_path(out, name, trace));
            if let Some(part) = &part {
                child.arg("--out").arg(part);
            }
            let status = child.status().map_err(|e| format!("{}: {e}", me.display()))?;
            if !status.success() {
                failed.push(format!("{name} --trace {}", u8::from(trace)));
            }
            // Fold the child's one-workload file into this workload's
            // section: the traced part only adds its `per_layer` block.
            if let Some(text) = part.and_then(|p| {
                let text = std::fs::read_to_string(&p).ok();
                let _ = std::fs::remove_file(&p);
                text
            }) {
                let doc = Value::parse(&text)?;
                let fields =
                    doc.get("workloads").and_then(|w| w.get(name)).map_or(&[][..], Value::fields);
                for (key, value) in fields {
                    if section.get(key).is_none() {
                        section.set(key, value.clone());
                    }
                }
            }
        }
        sections.push((name.clone(), section));
    }
    if let Some(path) = &args.out {
        let doc = report::result_file(report::environment(args.seed), sections);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if failed.is_empty() {
        println!("all {} workloads passed every check", contract.workloads.len());
        Ok(ExitCode::SUCCESS)
    } else {
        println!("FAILED: {failed:?}");
        Ok(ExitCode::FAILURE)
    }
}

fn dispatch(flavor: Flavor, argv: &[String]) -> Result<ExitCode, String> {
    if flavor == Flavor::EndToEnd && argv.first().is_some_and(|a| a == "compare") {
        return Ok(ExitCode::from(crate::compare::main(&argv[1..])));
    }
    let contract = Contract::embedded();
    let args = parse(argv, &contract)?;
    if cfg!(debug_assertions) && !args.smoke {
        return Err("this is a debug build; benchmark numbers come from `--release` only \
                    (`--smoke` runs a one-round functional pass in any build)"
            .into());
    }
    if let Ok(backend) = std::env::var("RHYCHEE_NTT_BACKEND") {
        eprintln!(
            "warning: RHYCHEE_NTT_BACKEND={backend} overrides the NTT kernel; numbers from \
             different backends are not comparable and `compare` refuses to pair them"
        );
    }
    match (flavor, &args.workload) {
        (Flavor::Traced, None) => Err(format!("{TRACED_BIN} needs --workload")),
        (Flavor::Traced, Some(name)) => run_traced(&args, &contract, &lookup(name, args.smoke)?),
        (Flavor::EndToEnd, None) => run_all(&args, &contract),
        (Flavor::EndToEnd, Some(name)) => {
            let w = lookup(name, args.smoke)?;
            if args.trace == Some(true) {
                hand_over_to_traced(&args, &w)
            } else {
                run_end_to_end(&args, &contract, &w)
            }
        }
    }
}

/// Entry point shared by both binaries.
pub fn main(flavor: Flavor) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(flavor, &argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rhychee-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_drivers_invocation() {
        let contract = Contract::embedded();
        let args = parse(&words("--workload net_ckks4 --seed 7 --seconds 12 --trace 1"), &contract)
            .expect("parse");
        assert_eq!(args.workload.as_deref(), Some("net_ckks4"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, Some(true)));
        assert_eq!(parse(&[], &contract).expect("defaults").seconds, contract.run_seconds as f64);
    }

    #[test]
    fn rejects_unknown_flags_values_and_workloads() {
        let contract = Contract::embedded();
        assert!(parse(&words("--trace 2"), &contract).is_err());
        assert!(parse(&words("--seed"), &contract).is_err());
        assert!(parse(&words("--frobnicate 1"), &contract).is_err());
        assert!(lookup("ladder_ckks9", false).is_err());
    }

    #[test]
    fn part_files_sit_next_to_the_result_file() {
        let p = part_path(Path::new("runs/a.json"), "net_ckks4", true);
        assert_eq!(p, Path::new("runs/a.json.net_ckks4.trace1.part"));
    }
}
