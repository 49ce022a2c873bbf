//! Telemetry end-to-end: running the encrypted FL pipeline with
//! recording enabled must produce a span trace whose per-round totals
//! reconcile exactly with the `RoundReport` wall times, and a valid
//! JSONL export.
//!
//! This file deliberately holds a single #[test]: it flips the global
//! telemetry switch and drains the global trace buffer, so it must not
//! share a process with tests that do the same.

use std::time::Duration;

use rhychee_fl::core::{FlConfig, Framework};
use rhychee_fl::data::{DatasetKind, SyntheticConfig};
use rhychee_fl::fhe::params::CkksParams;
use rhychee_fl::telemetry;

#[test]
fn encrypted_round_trace_reconciles_with_round_reports() {
    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 240, test_samples: 80 }
        .generate(21)
        .expect("dataset generation");
    let config = FlConfig::builder()
        .clients(3)
        .rounds(2)
        .hd_dim(128)
        .seed(13)
        .build()
        .expect("valid config");
    let rounds = 2;

    telemetry::set_enabled(true);
    let mut federation = Framework::hdc_encrypted(config, &data, CkksParams::toy()).expect("build");
    let report = federation.run().expect("run");
    telemetry::set_enabled(false);

    let events = telemetry::trace::drain_events();

    // One `round` span per round, each a root enclosing its phases.
    let round_events: Vec<_> = events.iter().filter(|e| e.name == "round").collect();
    assert_eq!(round_events.len(), rounds);
    for e in &round_events {
        assert_eq!(e.path, "round");
        assert_eq!(e.depth, 0);
    }
    for phase in ["local_train", "encrypt", "aggregate", "decrypt"] {
        let phase_events: Vec<_> = events.iter().filter(|e| e.name == phase).collect();
        assert_eq!(phase_events.len(), rounds, "one {phase} span per round");
        for e in &phase_events {
            assert_eq!(e.path, format!("round/{phase}"), "phases nest under round");
            assert_eq!(e.depth, 1);
        }
    }

    // Span durations and RoundReport fields come from the same
    // measurement, so their totals must agree to the nanosecond.
    let span_total = |name: &str| -> u128 {
        events.iter().filter(|e| e.name == name).map(|e| u128::from(e.dur_ns)).sum()
    };
    let report_total = |field: fn(&rhychee_fl::core::RoundReport) -> Duration| -> u128 {
        report.rounds.iter().map(|r| field(r).as_nanos()).sum()
    };
    assert_eq!(span_total("local_train"), report_total(|r| r.train_time));
    assert_eq!(span_total("encrypt"), report_total(|r| r.encrypt_time));
    assert_eq!(span_total("aggregate"), report_total(|r| r.aggregate_time));
    assert_eq!(span_total("decrypt"), report_total(|r| r.decrypt_time));

    // Each round span encloses its phases.
    for round in round_events {
        let children: u64 = events
            .iter()
            .filter(|e| e.depth == 1 && e.start_ns >= round.start_ns)
            .filter(|e| e.start_ns + e.dur_ns <= round.start_ns + round.dur_ns)
            .map(|e| e.dur_ns)
            .sum();
        assert!(round.dur_ns >= children, "round span covers its phases");
    }

    // The FHE hot paths recorded into the registry underneath the spans.
    let snap = telemetry::metrics::global().snapshot();
    let counter =
        |name: &str| snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
    let hist_count =
        |name: &str| snap.histograms.iter().find(|h| h.name == name).map(|h| h.count).unwrap_or(0);
    // The 128 x 6 = 768-parameter model packs into ceil(768/slots)
    // ciphertexts; each client encrypts that many per round and the
    // server decrypts one set per round.
    let cts_per_model = (128usize * 6).div_ceil(CkksParams::toy().slot_count()) as u64;
    assert_eq!(hist_count("fhe.ckks.encrypt"), 3 * 2 * cts_per_model);
    assert_eq!(hist_count("fhe.ckks.decrypt"), 2 * cts_per_model);
    assert_eq!(
        counter("fhe.ckks.fold"),
        3 * 2 * cts_per_model,
        "the server folds every client's ciphertexts each round"
    );
    assert!(hist_count("fhe.ckks.ntt.forward") > 0, "NTTs were timed");

    // JSONL export: every line is one self-describing object.
    let path = std::path::Path::new("target/test_metrics/reconciliation.jsonl");
    let mut writer = telemetry::TraceWriter::new(Vec::new());
    writer.write_events(&events).expect("serialize events");
    writer.write_snapshot(&snap).expect("serialize snapshot");
    let bytes = writer.into_inner().expect("flush");
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(path, &bytes).expect("write trace");
    let text = String::from_utf8(bytes).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= events.len() + snap.counters.len() + snap.histograms.len());
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "JSONL shape: {line}");
    }
    assert!(text.contains(r#""type":"span""#));
    assert!(text.contains(r#""name":"round""#));
    assert!(text.contains(r#""name":"fhe.ckks.ntt.forward""#));
}
