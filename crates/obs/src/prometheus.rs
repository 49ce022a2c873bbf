//! Prometheus text-exposition rendering (format version 0.0.4).
//!
//! Renders a [`MetricsSnapshot`] into the plain-text format scraped by
//! Prometheus: counters as `<name>_total`, gauges verbatim, histograms as
//! cumulative `_bucket{le="..."}` series plus `_sum`/`_count`. Internal
//! `crate.component.op` metric names map to `rhychee_crate_component_op`
//! (naming rules in DESIGN.md §10).
//!
//! Labeled series — interned by the registry under the spelling
//! `family{label="value"}` (DESIGN.md §12) — keep their label block
//! verbatim: only the family part is name-mangled, the counter suffix
//! lands *before* the labels (`rhychee_x_total{client_id="0"}`), and
//! histogram `le` labels merge into the existing block. One `# TYPE`
//! line is emitted per family, not per labeled series.

use std::collections::HashSet;

use rhychee_telemetry::metrics::MetricsSnapshot;

/// Maps an internal dotted metric name to its Prometheus series name:
/// prefix `rhychee_`, then every character outside `[a-zA-Z0-9_]`
/// becomes `_`.
pub(crate) fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("rhychee_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    out
}

/// Formats a gauge sample the way Prometheus expects: decimal floats,
/// with the non-finite spellings `NaN` / `+Inf` / `-Inf`.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_owned()
        } else {
            "-Inf".to_owned()
        }
    } else {
        format!("{v}")
    }
}

/// Splits a registry series name into its family and the label block's
/// inner `k="v"` list (without braces), if any.
fn split_series(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((family, rest)) => (family, Some(rest.strip_suffix('}').unwrap_or(rest))),
        None => (name, None),
    }
}

/// Renders a snapshot as Prometheus text exposition. Series appear in
/// snapshot (name-sorted) order: counters, then gauges, then histogram
/// families with cumulative buckets.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut typed: HashSet<String> = HashSet::new();
    for (name, value) in &snap.counters {
        let (family, labels) = split_series(name);
        let n = metric_name(family);
        if typed.insert(n.clone()) {
            out.push_str(&format!("# TYPE {n}_total counter\n"));
        }
        match labels {
            Some(l) => out.push_str(&format!("{n}_total{{{l}}} {value}\n")),
            None => out.push_str(&format!("{n}_total {value}\n")),
        }
    }
    for (name, value) in &snap.gauges {
        let (family, labels) = split_series(name);
        let n = metric_name(family);
        if typed.insert(n.clone()) {
            out.push_str(&format!("# TYPE {n} gauge\n"));
        }
        match labels {
            Some(l) => out.push_str(&format!("{n}{{{l}}} {}\n", format_value(*value))),
            None => out.push_str(&format!("{n} {}\n", format_value(*value))),
        }
    }
    for h in &snap.histograms {
        let (family, labels) = split_series(&h.name);
        let n = metric_name(family);
        if typed.insert(n.clone()) {
            out.push_str(&format!("# TYPE {n} histogram\n"));
        }
        // `le` joins any existing labels: {client_id="0",le="100"}.
        let le_block = |le: &str| match labels {
            Some(l) => format!("{{{l},le=\"{le}\"}}"),
            None => format!("{{le=\"{le}\"}}"),
        };
        let plain_block = match labels {
            Some(l) => format!("{{{l}}}"),
            None => String::new(),
        };
        let mut cumulative = 0u64;
        for &(upper, count) in &h.buckets {
            cumulative += count;
            out.push_str(&format!("{n}_bucket{} {cumulative}\n", le_block(&upper.to_string())));
        }
        out.push_str(&format!("{n}_bucket{} {}\n", le_block("+Inf"), h.count));
        out.push_str(&format!("{n}_sum{plain_block} {}\n", h.sum));
        out.push_str(&format!("{n}_count{plain_block} {}\n", h.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rhychee_telemetry::Registry;

    use super::*;

    /// A minimal exposition parser for round-trip testing: returns every
    /// sample line as `(series name with labels, value)` and validates
    /// the line grammar along the way.
    fn parse(text: &str) -> BTreeMap<String, f64> {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let (name, kind) = (parts.next().unwrap(), parts.next().unwrap());
                assert!(matches!(kind, "counter" | "gauge" | "histogram"), "unknown type: {line}");
                assert!(name.starts_with("rhychee_"), "unprefixed family: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
                panic!("sample line must be `series value`: {line:?}");
            });
            let value: f64 = match value {
                "NaN" => f64::NAN,
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v.parse().unwrap_or_else(|_| panic!("bad value in {line:?}")),
            };
            let bare = series.split('{').next().unwrap();
            assert!(
                bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "invalid series name: {series}"
            );
            assert!(samples.insert(series.to_owned(), value).is_none(), "duplicate: {series}");
        }
        samples
    }

    #[test]
    fn name_mapping_follows_design_rules() {
        assert_eq!(metric_name("fl.round.current"), "rhychee_fl_round_current");
        assert_eq!(metric_name("net.bytes-tx"), "rhychee_net_bytes_tx");
        assert_eq!(metric_name("fhe.ckks.scale_bits"), "rhychee_fhe_ckks_scale_bits");
    }

    #[test]
    fn round_trip_against_registry_snapshot() {
        let reg = Registry::new();
        reg.counter("net.bytes_tx").add(4096);
        reg.gauge("fl.round.current").set(3.0);
        reg.gauge("fl.decrypt_error.max").set(1.25e-4);
        let h = reg.histogram("fhe.ckks.encrypt");
        for v in [7u64, 7, 100, 5_000_000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let samples = parse(&render(&snap));

        assert_eq!(samples["rhychee_net_bytes_tx_total"], 4096.0);
        assert_eq!(samples["rhychee_fl_round_current"], 3.0);
        assert_eq!(samples["rhychee_fl_decrypt_error_max"], 1.25e-4);
        assert_eq!(samples["rhychee_fhe_ckks_encrypt_sum"], 5_000_114.0);
        assert_eq!(samples["rhychee_fhe_ckks_encrypt_count"], 4.0);
        assert_eq!(samples["rhychee_fhe_ckks_encrypt_bucket{le=\"+Inf\"}"], 4.0);

        // Buckets are cumulative, monotone, and end at the total count.
        let mut buckets: Vec<(u64, f64)> = samples
            .iter()
            .filter_map(|(k, &v)| {
                let le = k.strip_prefix("rhychee_fhe_ckks_encrypt_bucket{le=\"")?;
                let le = le.strip_suffix("\"}")?;
                le.parse::<u64>().ok().map(|le| (le, v))
            })
            .collect();
        buckets.sort_unstable_by_key(|&(le, _)| le);
        assert_eq!(buckets.len(), snap.histograms[0].buckets.len());
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "not cumulative: {buckets:?}");
        assert_eq!(buckets.first().unwrap().1, 2.0, "two samples in the le=7 bucket");
        assert_eq!(buckets.last().unwrap().1, 4.0);
        // Every sample lands at or below its bucket's upper bound.
        assert!(buckets.iter().any(|&(le, _)| le >= 5_000_000));
    }

    #[test]
    fn labeled_series_render_with_one_type_line_per_family() {
        let reg = Registry::new();
        reg.counter_labeled("net.client.upload_bytes", "client_id", "0").add(128);
        reg.counter_labeled("net.client.upload_bytes", "client_id", "1").add(256);
        reg.histogram_labeled("net.client.rtt_ns", "client_id", "0").record(1000);
        let text = render(&reg.snapshot());
        let samples = parse(&text);

        assert_eq!(samples["rhychee_net_client_upload_bytes_total{client_id=\"0\"}"], 128.0);
        assert_eq!(samples["rhychee_net_client_upload_bytes_total{client_id=\"1\"}"], 256.0);
        assert_eq!(
            text.matches("# TYPE rhychee_net_client_upload_bytes_total counter").count(),
            1,
            "one TYPE line per labeled family:\n{text}"
        );
        // Histogram `le` merges into the existing label block, and
        // sum/count keep the client label.
        assert_eq!(samples["rhychee_net_client_rtt_ns_bucket{client_id=\"0\",le=\"+Inf\"}"], 1.0);
        assert_eq!(samples["rhychee_net_client_rtt_ns_sum{client_id=\"0\"}"], 1000.0);
        assert_eq!(samples["rhychee_net_client_rtt_ns_count{client_id=\"0\"}"], 1.0);
    }

    #[test]
    fn non_finite_gauges_use_prometheus_spellings() {
        let reg = Registry::new();
        reg.gauge("a.nan").set(f64::NAN);
        reg.gauge("b.inf").set(f64::INFINITY);
        reg.gauge("c.neg").set(f64::NEG_INFINITY);
        let text = render(&reg.snapshot());
        assert!(text.contains("rhychee_a_nan NaN\n"));
        assert!(text.contains("rhychee_b_inf +Inf\n"));
        assert!(text.contains("rhychee_c_neg -Inf\n"));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert!(render(&MetricsSnapshot::default()).is_empty());
    }
}
