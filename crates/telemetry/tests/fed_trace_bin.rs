//! End-to-end test for the `fed_trace` binary: feed it a server trace
//! plus two client traces whose roots carry wire trace contexts, and
//! check the merged tree, the per-actor phase totals (exact ns), the
//! trace-id listing and the folded-stack export; and feed it one
//! process's trace, and check its self-time table and folded stacks
//! reconcile with the input to the nanosecond.

use std::path::{Path, PathBuf};
use std::process::Command;

use rhychee_telemetry::trace::{SpanEvent, TraceWriter};

const TRACE_ID: u128 = 0xfeed_beef_0042;
const ROUND_SPAN: u64 = 100;

fn mk(name: &'static str, path: &str, depth: u32, start_ns: u64, dur_ns: u64) -> SpanEvent {
    SpanEvent { name, path: path.to_owned(), depth, start_ns, dur_ns, ..SpanEvent::default() }
}

fn write(dir: &Path, file: &str, events: &[SpanEvent]) -> PathBuf {
    let path = dir.join(file);
    let mut w = TraceWriter::new(std::fs::File::create(&path).expect("create trace"));
    w.write_events(events).expect("write trace");
    w.into_inner().expect("flush").sync_all().expect("sync");
    path
}

/// One server round (aggregate + handler broadcast) plus two clients
/// whose `client_round` roots parent under it via the wire context.
fn write_federation(dir: &Path) -> Vec<PathBuf> {
    let server = vec![
        SpanEvent { span_id: ROUND_SPAN, ..mk("net_round", "net_round", 0, 0, 10_000) },
        mk("net_aggregate", "net_round/net_aggregate", 1, 6_000, 300),
        // Handler thread: depth 0, linked by the round's own context.
        SpanEvent {
            trace_id: TRACE_ID,
            remote_parent: ROUND_SPAN,
            ..mk("broadcast", "broadcast", 0, 100, 50)
        },
    ];
    let client = |round_span: u64, scale: u64| {
        vec![
            SpanEvent {
                span_id: round_span,
                trace_id: TRACE_ID,
                remote_parent: ROUND_SPAN,
                ..mk("client_round", "client_round", 0, 200, 900 * scale)
            },
            mk("local_train", "client_round/local_train", 1, 210, 400 * scale),
            mk("encrypt", "client_round/encrypt", 1, 650, 200 * scale),
            mk("upload", "client_round/upload", 1, 880, 100 * scale),
            SpanEvent {
                trace_id: TRACE_ID,
                remote_parent: ROUND_SPAN,
                ..mk("decrypt", "decrypt", 0, 1_500, 80 * scale)
            },
        ]
    };
    vec![
        write(dir, "server.jsonl", &server),
        write(dir, "client0.jsonl", &client(200, 1)),
        write(dir, "client1.jsonl", &client(201, 3)),
    ]
}

#[test]
fn fed_trace_merges_sources_and_reports_exact_phase_totals() {
    let dir = std::env::temp_dir().join(format!("rhychee-fed-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let inputs = write_federation(&dir);
    let folded = dir.join("federation.folded.txt");

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fed_trace"));
    cmd.args(&inputs).arg("--folded").arg(&folded);
    let out = cmd.output().expect("run fed_trace");
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8");
    assert!(out.status.success(), "exit status: {:?}\n{stdout}", out.status);

    assert!(stdout.contains("13 spans from 3 sources"), "header:\n{stdout}");
    assert!(stdout.contains("1 trace id(s)"), "header:\n{stdout}");
    assert!(stdout.contains(&format!("trace {TRACE_ID:032x}")), "trace listing:\n{stdout}");

    // Per-actor phase totals, exact to the nanosecond. Client1 ran a 3x
    // slower round, so its totals are exactly 3x client0's.
    for (actor, phase, total) in [
        ("server", "net_aggregate", 300u64),
        ("server", "broadcast", 50),
        ("client0", "local_train", 400),
        ("client0", "encrypt", 200),
        ("client0", "upload", 100),
        ("client0", "decrypt", 80),
        ("client1", "local_train", 1200),
        ("client1", "encrypt", 600),
        ("client1", "upload", 300),
        ("client1", "decrypt", 240),
    ] {
        let row = stdout.lines().find(|l| {
            let mut f = l.split_whitespace();
            f.next() == Some(actor) && f.next() == Some(phase)
        });
        let row = row.unwrap_or_else(|| panic!("phase row {actor}/{phase}:\n{stdout}"));
        assert!(
            row.split_whitespace().nth(2) == Some(total.to_string().as_str()),
            "{actor}/{phase} must total {total}: {row}"
        );
    }

    // The folded flamegraph carries the grafted federation-wide stacks:
    // client leaves sit under the server's round via the actor boundary.
    let folded_text = std::fs::read_to_string(&folded).expect("folded output");
    for line in [
        "server;net_round;client0;client_round;local_train 400",
        "server;net_round;client0;client_round;encrypt 200",
        "server;net_round;client1;client_round;upload 300",
        "server;net_round;net_aggregate 300",
        "server;net_round;broadcast 50",
        "server;net_round;client1;decrypt 240",
    ] {
        assert!(folded_text.lines().any(|l| l == line), "missing {line:?}:\n{folded_text}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_trace_reconciles_and_exports_folded_stacks() {
    let dir = std::env::temp_dir().join(format!("rhychee-fed-trace-one-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // round(1000) = encrypt(600) + decrypt(150) + 250 self;
    // encrypt(600) = ntt(400) + 200 self. Two rounds of it.
    let mut events = Vec::new();
    for r in 0..2u64 {
        let base = r * 2000;
        events.push(mk("fhe.ckks.ntt", "round/encrypt/fhe.ckks.ntt", 2, base + 20, 400));
        events.push(mk("encrypt", "round/encrypt", 1, base + 10, 600));
        events.push(mk("decrypt", "round/decrypt", 1, base + 700, 150));
        events.push(mk("round", "round", 0, base, 1000));
    }
    let trace = write(&dir, "trace.jsonl", &events);
    let folded = dir.join("trace.folded.txt");

    let out = Command::new(env!("CARGO_BIN_EXE_fed_trace"))
        .arg(&trace)
        .args(["--top", "10"])
        .arg("--folded")
        .arg(&folded)
        .output()
        .expect("run fed_trace");
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8");
    assert!(out.status.success(), "exit status: {:?}\n{stdout}", out.status);

    // Paths sit under the file stem's actor root.
    assert!(stdout.contains("8 spans from 1 sources"), "span count in header:\n{stdout}");
    assert!(stdout.contains("max depth 3"), "depth in header:\n{stdout}");
    // Self-times to the nanosecond: round = 2*(1000-600-150) = 500,
    // encrypt = 2*(600-400) = 400, ntt = 2*400 = 800, decrypt = 2*150.
    for (path, self_ns) in [
        ("trace/round/encrypt/fhe.ckks.ntt", 800),
        ("trace/round", 500),
        ("trace/round/encrypt", 400),
        ("trace/round/decrypt", 300),
    ] {
        let row = stdout.lines().find(|l| l.split_whitespace().next() == Some(path));
        let row = row.unwrap_or_else(|| panic!("row for {path}:\n{stdout}"));
        assert!(
            row.split_whitespace().any(|f| f == self_ns.to_string()),
            "self-time {self_ns} for {path}: {row}"
        );
    }
    // Ranking: ntt has the largest self-time, so its row comes first.
    let header = stdout.lines().position(|l| l.starts_with("span")).expect("table header");
    let first_row = stdout.lines().nth(header + 1);
    assert!(first_row.is_some_and(|l| l.contains("fhe.ckks.ntt")), "ranking:\n{stdout}");

    let folded_text = std::fs::read_to_string(&folded).expect("folded output");
    let mut lines: Vec<&str> = folded_text.lines().collect();
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![
            "trace;round 500",
            "trace;round;decrypt 300",
            "trace;round;encrypt 400",
            "trace;round;encrypt;fhe.ckks.ntt 800",
        ],
        "folded stacks:\n{folded_text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fed_trace_rejects_bad_usage() {
    let no_args = Command::new(env!("CARGO_BIN_EXE_fed_trace")).output().expect("run");
    assert_eq!(no_args.status.code(), Some(2), "missing inputs is a usage error");

    let missing = Command::new(env!("CARGO_BIN_EXE_fed_trace"))
        .arg("/nonexistent/server.jsonl")
        .output()
        .expect("run");
    assert_eq!(missing.status.code(), Some(1), "unreadable input must fail");
}
