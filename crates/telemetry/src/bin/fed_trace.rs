//! Federation-wide trace merger.
//!
//! Reads the server's JSONL trace plus one file per client, resolves the
//! cross-process parent links carried by the wire trace context, and
//! prints one merged span tree: the self-time table, exact per-actor
//! phase totals (for reconciliation against `RoundReport`s), and
//! optionally a folded-stack flamegraph of the whole federation.
//!
//! ```text
//! fed_trace <server.jsonl> <client.jsonl>... [--top N] [--folded OUT.txt]
//! ```
//!
//! Each source's actor label defaults to its file stem (`client0.jsonl`
//! → `client0`); records carrying their own `actor` field keep it.

use std::process::ExitCode;

use rhychee_telemetry::fedmerge::{self, FedSource};
use rhychee_telemetry::{profile, PHASE_SPANS};

const USAGE: &str =
    "usage: fed_trace <server.jsonl> <client.jsonl>... [--top N] [--folded OUT.txt]";

struct Args {
    inputs: Vec<String>,
    top: usize,
    folded: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut inputs = Vec::new();
    let mut top = 30usize;
    let mut folded = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                top = v.parse().map_err(|_| format!("bad --top value: {v}"))?;
            }
            "--folded" => folded = Some(it.next().ok_or("--folded needs a path")?.clone()),
            _ if arg.starts_with("--") => return Err(format!("unknown flag: {arg}")),
            _ => inputs.push(arg.clone()),
        }
    }
    if inputs.is_empty() {
        return Err("missing trace files".to_owned());
    }
    Ok(Args { inputs, top, folded })
}

fn label_of(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_owned(), |s| s.to_string_lossy().into_owned())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fed_trace: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut sources = Vec::new();
    for input in &args.inputs {
        let text = match std::fs::read_to_string(input) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fed_trace: cannot read {input}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let records = profile::parse_jsonl_records(&text);
        if records.is_empty() {
            eprintln!("fed_trace: no span records in {input}");
            return ExitCode::FAILURE;
        }
        sources.push(FedSource::new(label_of(input), records));
    }

    let n_spans: usize = sources.iter().map(|s| s.records.len()).sum();
    let traces = fedmerge::trace_ids(&sources);
    let tree = fedmerge::merge(&sources);
    let max_depth = tree.nodes().map(|n| n.depth()).max().unwrap_or(0);
    println!(
        "{} spans from {} sources, {} merged nodes, max depth {}, {} trace id(s)",
        n_spans,
        sources.len(),
        tree.len(),
        max_depth,
        traces.len()
    );
    for id in &traces {
        println!("  trace {id:032x}");
    }
    println!();
    print!("{}", tree.self_time_table(args.top));

    // Exact phase totals per actor, in nanoseconds: these reconcile 1:1
    // with the RoundReport fields on each endpoint (both sides populate
    // their reports from the same span measurements).
    println!();
    println!("phase totals (exact ns, reconcile against RoundReport):");
    let mut actors: Vec<String> =
        sources
            .iter()
            .flat_map(|s| {
                s.records.iter().map(move |r| {
                    if r.actor.is_empty() {
                        s.label.clone()
                    } else {
                        r.actor.clone()
                    }
                })
            })
            .collect();
    actors.sort();
    actors.dedup();
    for actor in &actors {
        for (_, span) in PHASE_SPANS {
            let total = fedmerge::actor_span_total(&sources, actor, span);
            if total > 0 {
                println!("  {actor:<12} {span:<14} {total}");
            }
        }
    }

    if let Some(path) = &args.folded {
        let folded = tree.folded();
        if let Err(e) = std::fs::write(path, &folded) {
            eprintln!("fed_trace: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
        println!("wrote {} folded-stack lines to {path}", folded.lines().count());
    }
    ExitCode::SUCCESS
}
