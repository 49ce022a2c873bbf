//! The benchmark's own arithmetic: medians, quartiles, and the rule for
//! which tail percentile a sample count can support.

/// The percentiles a run may report as its tail, lowest first, in
/// tenths of a percent so the sample arithmetic stays in integers.
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// How many samples must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice, which only a metric with no samples on this workload has.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), because that is what the acceptance driver computes.
/// `None` below two samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against each metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, and its nearest-rank value; `None` when even the median
/// has fewer than ten samples above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    // Nearest rank: the smallest sample with at least p of the run at or
    // below it; everything after it lies beyond the percentile.
    let rank = |p: usize| (p * v.len()).div_ceil(1000).max(1);
    let p = TAIL_LADDER.iter().rev().copied().find(|&p| v.len() >= rank(p) + MIN_BEYOND)?;
    Some((p as f64 / 10.0, v[rank(p) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail(&ramp(9)), None, "9 samples support no tail at all");
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)), "20 samples: exactly 10 above p50");
        assert_eq!(tail(&ramp(300)), Some((95.0, 285.0)), "300 samples: 15 above p95, 3 above p99");
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&ramp(10)), Some(5.5 / 5.5));
        assert_eq!(spread(&[7.0; 10]), Some(0.0));
    }
}
