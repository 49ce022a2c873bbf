//! Global metrics registry: counters, gauges and log-bucketed histograms.
//!
//! All instruments are lock-free on the record path (relaxed atomics); the
//! registry itself takes a read lock only to resolve a name to an
//! instrument, and callers on hot paths can cache the returned `&'static`
//! handle. Names follow the `crate.component.op` convention documented in
//! DESIGN.md §7.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::json::JsonObject;

/// Sub-bucket resolution of the histogram: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `2^-SUB_BITS` (6.25%).
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Values below `2 * SUBS` get one exact bucket each; octaves 5..=63
/// contribute `SUBS` buckets apiece.
const BUCKETS: usize = 2 * SUBS + (63 - SUB_BITS as usize) * SUBS;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds one.
    #[inline]
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    const fn new() -> Self {
        Gauge { bits: AtomicU64::new(0) }
    }

    /// Overwrites the gauge value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A log-linear histogram over `u64` samples (typically nanoseconds).
///
/// Samples below 32 land in exact unit-width buckets; larger samples land
/// in one of 16 linear sub-buckets per power-of-two octave, so quantile
/// answers are exact for small values and within 6.25% relative error
/// otherwise. Recording is a single relaxed `fetch_add` plus min/max
/// maintenance — safe and meaningful under concurrent writers.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a sample value.
    pub(crate) fn bucket_index(v: u64) -> usize {
        if v < (2 * SUBS) as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // 2^e <= v < 2^(e+1), e >= 5
        let sub = ((v >> (e - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        (e as usize - SUB_BITS as usize) * SUBS + SUBS + sub
    }

    /// Inclusive lower bound of a bucket (the value `quantile` reports).
    pub(crate) fn bucket_lower_bound(idx: usize) -> u64 {
        if idx < 2 * SUBS {
            return idx as u64;
        }
        let e = (idx / SUBS + SUB_BITS as usize - 1) as u32;
        let sub = (idx % SUBS) as u64;
        (SUBS as u64 + sub) << (e - SUB_BITS)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wraps only past `u64::MAX` total).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        match self.min.load(Ordering::Relaxed) {
            u64::MAX if self.count() == 0 => None,
            v => Some(v),
        }
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Mean of recorded samples, if any.
    pub fn mean(&self) -> Option<f64> {
        match self.count() {
            0 => None,
            n => Some(self.sum() as f64 / n as f64),
        }
    }

    /// Inclusive upper bound of a bucket (the largest value that lands in
    /// it). The final bucket absorbs everything up to `u64::MAX`.
    pub(crate) fn bucket_upper_bound(idx: usize) -> u64 {
        if idx + 1 >= BUCKETS {
            u64::MAX
        } else {
            Self::bucket_lower_bound(idx + 1) - 1
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, sample count)` pairs
    /// in ascending bound order — the sparse form exposition renderers
    /// turn into cumulative `_bucket` series.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(idx, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_upper_bound(idx), n))
            })
            .collect()
    }

    /// The `q`-quantile (`q` in `[0, 1]`): the lower bound of the bucket
    /// containing the sample of rank `ceil(q·count)`. Returns `None` for
    /// an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Self::bucket_lower_bound(idx));
            }
        }
        // Counts raced ahead of `count`; fall back to the max bucket seen.
        self.max()
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Registry name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive upper bound, sample count)` in
    /// ascending bound order (see `Histogram::nonzero_buckets`).
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    /// Appends the summary's fields, `name` through `p99`, to `obj`: the
    /// JSONL histogram record's fields after its `"type"`, and each
    /// element of the flight recorder's `histograms`.
    pub fn write_json(&self, obj: &mut JsonObject) {
        obj.str("name", &self.name)
            .u64("count", self.count)
            .u64("sum", self.sum)
            .u64("min", self.min)
            .u64("max", self.max)
            .u64("p50", self.p50)
            .u64("p90", self.p90)
            .u64("p99", self.p99);
    }
}

/// Point-in-time snapshot of every registered instrument.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<HistogramSummary>,
}

/// Maximum distinct label values per `(family, label)` pair. The
/// registry is name-keyed and interns names forever, so unbounded label
/// values (e.g. a `client_id` in a 10k-client federation) would leak
/// memory and blow up `/metrics`; past the cap, values fold into one
/// `overflow` series and `telemetry.labels.overflow` counts the folds.
///
/// 128 is the smallest power of two above the paper's largest
/// federation, 100 clients: at that setting every `net.client.*` series
/// keeps its own `client_id`, where a cap of 64 folded 36 of them into
/// `overflow`.
pub(crate) const LABEL_CARDINALITY_CAP: usize = 128;

/// The instrument registry. One global instance lives for the process
/// lifetime ([`global`]); separate instances exist only for tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, &'static Counter>>,
    gauges: RwLock<BTreeMap<&'static str, &'static Gauge>>,
    histograms: RwLock<BTreeMap<&'static str, &'static Histogram>>,
    /// Admitted label values per `(family, label)` pair, enforcing
    /// [`LABEL_CARDINALITY_CAP`].
    label_values: RwLock<BTreeMap<String, std::collections::BTreeSet<String>>>,
}

/// Looks up or creates an instrument. Names seen for the first time are
/// interned (leaked) — the set of metric names is small and static.
macro_rules! get_or_insert {
    ($map:expr, $name:expr, $make:expr) => {{
        if let Some(&v) = $map.read().expect("registry lock").get($name) {
            return v;
        }
        let mut w = $map.write().expect("registry lock");
        if let Some(&v) = w.get($name) {
            return v;
        }
        let key: &'static str = Box::leak($name.to_owned().into_boxed_str());
        let value = Box::leak(Box::new($make));
        w.insert(key, value);
        value
    }};
}

impl Registry {
    /// Creates an empty registry (prefer [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves a counter by name, creating it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        get_or_insert!(self.counters, name, Counter::new())
    }

    /// Resolves a gauge by name, creating it on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        get_or_insert!(self.gauges, name, Gauge::new())
    }

    /// Resolves a histogram by name, creating it on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        get_or_insert!(self.histograms, name, Histogram::new())
    }

    /// Builds the interned series name `family{label="value"}` for a
    /// labeled instrument, admitting at most [`LABEL_CARDINALITY_CAP`]
    /// distinct values per `(family, label)` pair. Values past the cap
    /// fold into `family{label="overflow"}` (and bump
    /// `telemetry.labels.overflow`); quotes and backslashes in the value
    /// are escaped so the name stays valid Prometheus exposition.
    pub(crate) fn labeled_series(&self, family: &str, label: &str, value: &str) -> String {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                '\n' => vec!['\\', 'n'],
                c => vec![c],
            })
            .collect();
        let key = format!("{family}\u{1}{label}");
        let admitted = {
            let seen = self.label_values.read().expect("label lock");
            seen.get(&key).is_some_and(|set| set.contains(&escaped))
        };
        let value = if admitted {
            escaped
        } else {
            let mut seen = self.label_values.write().expect("label lock");
            let set = seen.entry(key).or_default();
            if set.contains(&escaped) || set.len() < LABEL_CARDINALITY_CAP {
                set.insert(escaped.clone());
                escaped
            } else {
                drop(seen);
                self.counter("telemetry.labels.overflow").inc();
                "overflow".to_owned()
            }
        };
        format!("{family}{{{label}=\"{value}\"}}")
    }

    /// Resolves a labeled counter (`family{label="value"}`), subject to
    /// the cardinality guard of `Registry::labeled_series`.
    pub fn counter_labeled(&self, family: &str, label: &str, value: &str) -> &'static Counter {
        self.counter(&self.labeled_series(family, label, value))
    }

    /// Resolves a labeled histogram (`family{label="value"}`), subject to
    /// the cardinality guard of `Registry::labeled_series`.
    pub fn histogram_labeled(&self, family: &str, label: &str, value: &str) -> &'static Histogram {
        self.histogram(&self.labeled_series(family, label, value))
    }

    /// Snapshots every instrument, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(&n, c)| (n.to_owned(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(&n, g)| (n.to_owned(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(&n, h)| HistogramSummary {
                name: n.to_owned(),
                count: h.count(),
                sum: h.sum(),
                min: h.min().unwrap_or(0),
                max: h.max().unwrap_or(0),
                p50: h.quantile(0.5).unwrap_or(0),
                p90: h.quantile(0.9).unwrap_or(0),
                p99: h.quantile(0.99).unwrap_or(0),
                buckets: h.nonzero_buckets(),
            })
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("test.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same instrument.
        assert_eq!(reg.counter("test.counter").get(), 5);
        let g = reg.gauge("test.gauge");
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(reg.gauge("test.gauge").get(), -2.5);
    }

    #[test]
    fn labeled_series_caps_cardinality() {
        let reg = Registry::new();
        for i in 0..LABEL_CARDINALITY_CAP {
            reg.counter_labeled("test.labeled", "client_id", &i.to_string()).inc();
        }
        // Values past the cap fold into the overflow series.
        reg.counter_labeled("test.labeled", "client_id", "way-too-many").add(3);
        reg.counter_labeled("test.labeled", "client_id", "another-one").add(2);
        assert_eq!(reg.counter(r#"test.labeled{client_id="0"}"#).get(), 1);
        assert_eq!(reg.counter(r#"test.labeled{client_id="overflow"}"#).get(), 5);
        assert_eq!(reg.counter("telemetry.labels.overflow").get(), 2);
        // Already-admitted values keep resolving to their own series.
        reg.counter_labeled("test.labeled", "client_id", "5").inc();
        assert_eq!(reg.counter(r#"test.labeled{client_id="5"}"#).get(), 2);
        // A different family gets its own budget.
        assert_eq!(
            reg.labeled_series("test.other", "client_id", "fresh"),
            r#"test.other{client_id="fresh"}"#
        );
    }

    #[test]
    fn a_hundred_client_federation_keeps_one_series_per_client() {
        let reg = Registry::new();
        for client_id in 0..100 {
            reg.histogram_labeled("net.client.upload_ms", "client_id", &client_id.to_string())
                .record(1);
        }
        let snap = reg.snapshot();
        let series = snap
            .histograms
            .iter()
            .filter(|h| h.name.starts_with("net.client.upload_ms{"))
            .collect::<Vec<_>>();
        assert_eq!(series.len(), 100);
        assert!(series.iter().all(|h| h.count == 1 && !h.name.contains("overflow")));
        assert_eq!(reg.counter("telemetry.labels.overflow").get(), 0);
    }

    #[test]
    fn labeled_series_escapes_values() {
        let reg = Registry::new();
        assert_eq!(reg.labeled_series("test.esc", "id", r#"a"b\c"#), r#"test.esc{id="a\"b\\c"}"#);
    }

    #[test]
    fn labeled_histogram_records_per_series() {
        let reg = Registry::new();
        reg.histogram_labeled("test.rtt", "client_id", "1").record(100);
        reg.histogram_labeled("test.rtt", "client_id", "2").record(200);
        assert_eq!(reg.histogram(r#"test.rtt{client_id="1"}"#).count(), 1);
        assert_eq!(reg.histogram(r#"test.rtt{client_id="2"}"#).sum(), 200);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn histogram_single_sample() {
        let h = Histogram::new();
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 7);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(7));
        // 7 < 32 lives in an exact bucket: every quantile is exact.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7), "q = {q}");
        }
    }

    #[test]
    fn bucket_boundaries_are_exact_below_32() {
        for v in 0..32u64 {
            let idx = Histogram::bucket_index(v);
            assert_eq!(idx, v as usize);
            assert_eq!(Histogram::bucket_lower_bound(idx), v);
        }
    }

    #[test]
    fn bucket_boundaries_at_octave_edges() {
        // Exactly at a power of two: first sub-bucket of the octave.
        for e in 5..63u32 {
            let v = 1u64 << e;
            let idx = Histogram::bucket_index(v);
            assert_eq!(Histogram::bucket_lower_bound(idx), v, "2^{e}");
            // One below the power of two: last sub-bucket of the previous
            // octave; lower bound within one sub-bucket width.
            let idx_prev = Histogram::bucket_index(v - 1);
            assert_eq!(idx_prev, idx - 1, "2^{e} - 1 sits in the previous bucket");
            let lb = Histogram::bucket_lower_bound(idx_prev);
            assert!(lb < v && (v - 1 - lb) < (1u64 << (e - 1 - SUB_BITS)) + 1);
        }
    }

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let mut vals: Vec<u64> = (0..4096).collect();
        for e in 12..64u32 {
            for off in [0u64, 1, 3] {
                vals.push((1u64 << e).saturating_add(off << (e - 5)));
            }
        }
        vals.push(u64::MAX);
        vals.sort_unstable();
        let mut last = 0usize;
        for v in vals {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "index must not decrease: v = {v}");
            assert!(idx < BUCKETS, "index {idx} out of range for v = {v}");
            last = idx;
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_on_uniform_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Log-bucketing guarantees <= 6.25% relative error.
        assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.07, "p50 = {p50}");
        assert!((p90 as f64 - 900.0).abs() / 900.0 < 0.07, "p90 = {p90}");
        assert!((p99 as f64 - 990.0).abs() / 990.0 < 0.07, "p99 = {p99}");
        assert!(p50 <= p90 && p90 <= p99);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        let h = Histogram::new();
        let _ = h.quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_negative() {
        let h = Histogram::new();
        h.record(1);
        let _ = h.quantile(-0.1);
    }

    #[test]
    fn quantile_extremes_hit_min_and_max_buckets() {
        let h = Histogram::new();
        for v in [3u64, 9, 27] {
            h.record(v);
        }
        // q = 0 clamps the rank to the first sample, q = 1 to the last;
        // all three samples sit in exact (< 32) buckets.
        assert_eq!(h.quantile(0.0), Some(3));
        assert_eq!(h.quantile(1.0), Some(27));
    }

    #[test]
    fn bucket_upper_bounds_tile_the_axis() {
        // Every bucket's upper bound is one below the next lower bound,
        // so the buckets partition [0, u64::MAX] with no gaps.
        for idx in 0..BUCKETS - 1 {
            assert_eq!(
                Histogram::bucket_upper_bound(idx),
                Histogram::bucket_lower_bound(idx + 1) - 1
            );
        }
        assert_eq!(Histogram::bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn nonzero_buckets_are_sparse_and_complete() {
        let h = Histogram::new();
        assert!(h.nonzero_buckets().is_empty());
        h.record(7);
        h.record(7);
        h.record(100);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (7, 2)); // exact bucket below 32
        let (ub, n) = buckets[1];
        assert!(ub >= 100 && n == 1);
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), h.count());
    }

    #[test]
    fn snapshot_collects_everything() {
        let reg = Registry::new();
        reg.counter("a.count").add(3);
        reg.gauge("b.gauge").set(1.5);
        reg.histogram("c.hist").record(10);
        reg.histogram("c.hist").record(20);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a.count".to_owned(), 3)]);
        assert_eq!(snap.gauges, vec![("b.gauge".to_owned(), 1.5)]);
        assert_eq!(snap.histograms.len(), 1);
        let h = &snap.histograms[0];
        assert_eq!((h.name.as_str(), h.count, h.sum, h.min, h.max), ("c.hist", 2, 30, 10, 20));
        assert_eq!(h.p50, 10);
        assert_eq!(h.p99, 20);
    }

    #[test]
    fn concurrent_counters_and_histograms_lose_nothing() {
        let reg = std::sync::Arc::new(Registry::new());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let reg = &reg;
                s.spawn(move || {
                    let c = reg.counter("race.counter");
                    let h = reg.histogram("race.hist");
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record((t as u64) * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(reg.counter("race.counter").get(), THREADS as u64 * PER_THREAD);
        let h = reg.histogram("race.hist");
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        let n = THREADS as u64 * PER_THREAD;
        assert_eq!(h.sum(), n * (n - 1) / 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(n - 1));
    }
}
