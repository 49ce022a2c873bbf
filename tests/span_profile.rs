//! Span-tree profiler reconciliation over a real encrypted federation:
//! the aggregated call tree must account for every recorded nanosecond,
//! and the folded-stack export must reach FHE leaf spans at depth >= 3
//! (`round;encrypt;fhe.ckks.encrypt`).
//!
//! Runs at `Parallelism::Fixed(1)`: span paths are built from
//! thread-local stacks, so only the inline schedule nests the CKKS
//! leaf spans under their `round/<phase>` parents.
//!
//! Single test on purpose: it flips the process-global telemetry state.

use std::collections::HashMap;

use rhychee_fl::core::{FlConfig, Framework, Parallelism};
use rhychee_fl::data::{DatasetKind, SyntheticConfig};
use rhychee_fl::fhe::params::CkksParams;
use rhychee_fl::telemetry::{self, profile, SpanTree, TraceWriter};

#[test]
fn span_tree_reconciles_with_jsonl_to_the_nanosecond() {
    let data = SyntheticConfig { kind: DatasetKind::Mnist, train_samples: 120, test_samples: 40 }
        .generate(13)
        .expect("dataset");
    let config = FlConfig::builder()
        .clients(2)
        .rounds(2)
        .hd_dim(128)
        .seed(5)
        .parallelism(Parallelism::Fixed(1))
        .build()
        .expect("config");

    telemetry::set_enabled(true);
    let mut federation = Framework::hdc_encrypted(config, &data, CkksParams::toy()).expect("build");
    federation.run().expect("run");
    telemetry::set_enabled(false);
    let events = telemetry::trace::drain_events();
    assert!(!events.is_empty());

    // Round-trip through the JSONL format the fed_trace bin consumes.
    let mut writer = TraceWriter::new(Vec::new());
    writer.write_events(&events).expect("serialize");
    let text = String::from_utf8(writer.into_inner().expect("flush")).expect("utf8");
    let parsed = profile::parse_jsonl(&text);
    assert_eq!(parsed.len(), events.len(), "every span survives the JSONL round trip");

    let tree = SpanTree::from_paths(parsed);

    // Exact reconciliation: each node's count and total must equal the
    // raw per-path sums from the trace, to the nanosecond.
    let mut expected: HashMap<&str, (u64, u64)> = HashMap::new();
    for e in &events {
        let entry = expected.entry(e.path.as_str()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += e.dur_ns;
    }
    for node in tree.nodes().filter(|n| n.count > 0) {
        let &(count, total_ns) = expected.get(node.path.as_str()).expect("recorded path");
        assert_eq!(node.count, count, "count for {}", node.path);
        assert_eq!(node.total_ns, total_ns, "total_ns for {}", node.path);
    }
    assert_eq!(tree.nodes().filter(|n| n.count > 0).count(), expected.len());

    // A parent's self-time never exceeds its total, and the FHE leaves
    // nest under their phases.
    let round = tree.get("round").expect("round node");
    assert!(round.self_ns() <= round.total_ns);
    let encrypt_leaf = tree.get("round/encrypt/fhe.ckks.encrypt").expect("nested encrypt leaf");
    assert!(encrypt_leaf.count > 0 && encrypt_leaf.total_ns > 0);
    assert!(tree.get("round/decrypt/fhe.ckks.decrypt").is_some(), "nested decrypt leaf");

    // Folded-stack export reaches depth >= 3 and carries self-times.
    let folded = tree.folded();
    let deep: Vec<&str> =
        folded.lines().filter(|l| l.split(' ').next().unwrap().split(';').count() >= 3).collect();
    assert!(!deep.is_empty(), "folded stacks reach depth >= 3:\n{folded}");
    assert!(
        deep.iter().any(|l| l.starts_with("round;encrypt;fhe.ckks.encrypt ")),
        "CKKS encrypt leaf folded under round;encrypt:\n{folded}"
    );
    for line in folded.lines() {
        let (_, value) = line.rsplit_once(' ').expect("folded line shape");
        assert!(value.parse::<u64>().expect("ns value") > 0);
    }

    // The self-time table ranks by self-time and prints exact totals.
    let table = tree.self_time_table(10);
    assert!(table.lines().count() > 1, "table has rows:\n{table}");
    assert!(table.contains(&round.total_ns.to_string()), "exact round total in table:\n{table}");
}
