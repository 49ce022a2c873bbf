//! Federated data partitioning.
//!
//! Implements the Dirichlet label-skew partitioner of Li et al. ("Federated
//! learning on non-IID data silos"), the scheme used in the paper's
//! experimental setup, plus a plain IID partitioner for ablations.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;

/// Splits a dataset into `clients` non-IID shards via per-class Dirichlet
/// proportions with concentration `alpha`.
///
/// Smaller `alpha` means more skew: `alpha → 0` gives each class to few
/// clients; `alpha → ∞` approaches IID. Li et al. (and the paper) use
/// `alpha = 0.5`.
///
/// Every client is guaranteed at least one sample (greedy rebalancing from
/// the largest shard if the draw left someone empty).
///
/// # Panics
///
/// Panics if `clients` is zero, `alpha` is not positive, or the dataset
/// has fewer samples than clients.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rhychee_data::dataset::Dataset;
/// use rhychee_data::partition::dirichlet_partition;
///
/// let ds = Dataset::new(
///     (0..100).map(|i| vec![i as f32]).collect(),
///     (0..100).map(|i| i % 2).collect(),
///     2,
/// );
/// let mut rng = StdRng::seed_from_u64(1);
/// let shards = dirichlet_partition(&ds, 5, 0.5, &mut rng);
/// assert_eq!(shards.len(), 5);
/// assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), 100);
/// ```
pub fn dirichlet_partition<R: Rng + ?Sized>(
    data: &Dataset,
    clients: usize,
    alpha: f64,
    rng: &mut R,
) -> Vec<Dataset> {
    let assignment =
        dirichlet_partition_indices(data.labels(), data.num_classes(), clients, alpha, rng);
    assignment.iter().map(|idx| data.subset(idx)).collect()
}

/// Index-level Dirichlet partitioner: returns, per client, the indices of
/// the samples assigned to it. Useful when the samples themselves live in
/// another representation (e.g. pre-encoded hypervectors).
///
/// Semantics and panics are identical to [`dirichlet_partition`].
pub fn dirichlet_partition_indices<R: Rng + ?Sized>(
    labels: &[usize],
    num_classes: usize,
    clients: usize,
    alpha: f64,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(clients > 0, "need at least one client");
    assert!(alpha > 0.0, "Dirichlet concentration must be positive");
    assert!(labels.len() >= clients, "fewer samples than clients");

    // Indices per class, shuffled.
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        by_class[l].push(i);
    }
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); clients];
    for class_indices in by_class.iter_mut() {
        class_indices.shuffle(rng);
        if class_indices.is_empty() {
            continue;
        }
        let props = dirichlet(clients, alpha, rng);
        // Convert proportions to cumulative cut points.
        let n = class_indices.len();
        let mut start = 0usize;
        let mut cum = 0.0;
        for (c, &p) in props.iter().enumerate() {
            cum += p;
            let end = if c == clients - 1 { n } else { (cum * n as f64).round() as usize };
            let end = end.clamp(start, n);
            assignment[c].extend_from_slice(&class_indices[start..end]);
            start = end;
        }
    }

    // Guarantee non-empty shards: move one sample from the largest shard.
    while let Some(empty) = assignment.iter().position(Vec::is_empty) {
        let largest = assignment
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| v.len())
            .map(|(i, _)| i)
            .expect("non-empty set of clients");
        let moved = assignment[largest].pop().expect("largest shard has samples");
        assignment[empty].push(moved);
    }

    assignment
}

/// Splits a dataset into `clients` IID shards of near-equal size.
///
/// # Panics
///
/// Panics if `clients` is zero or exceeds the sample count.
pub fn iid_partition<R: Rng + ?Sized>(data: &Dataset, clients: usize, rng: &mut R) -> Vec<Dataset> {
    assert!(clients > 0, "need at least one client");
    assert!(data.len() >= clients, "fewer samples than clients");
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(rng);
    let base = data.len() / clients;
    let extra = data.len() % clients;
    let mut shards = Vec::with_capacity(clients);
    let mut start = 0;
    for c in 0..clients {
        let size = base + usize::from(c < extra);
        shards.push(data.subset(&order[start..start + size]));
        start += size;
    }
    shards
}

/// Samples from a symmetric Dirichlet distribution via normalized Gamma
/// draws.
fn dirichlet<R: Rng + ?Sized>(k: usize, alpha: f64, rng: &mut R) -> Vec<f64> {
    let draws: Vec<f64> = (0..k).map(|_| gamma(alpha, rng).max(1e-12)).collect();
    let sum: f64 = draws.iter().sum();
    draws.into_iter().map(|d| d / sum).collect()
}

/// Gamma(shape, 1) sampler: Marsaglia–Tsang for shape ≥ 1, boosted for
/// shape < 1.
fn gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        // Gamma(a) = Gamma(a + 1) * U^{1/a}
        let u: f64 = rng.gen::<f64>().max(1e-300);
        return gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Label-skew statistic: mean over clients of the total-variation distance
/// between the client's label distribution and the global one. 0 = IID.
#[cfg(test)]
pub(crate) fn label_skew(shards: &[Dataset], global: &Dataset) -> f64 {
    let g_counts = global.class_counts();
    let g_total = global.len() as f64;
    let g_dist: Vec<f64> = g_counts.iter().map(|&c| c as f64 / g_total).collect();
    let mut acc = 0.0;
    for shard in shards {
        let counts = shard.class_counts();
        let total = shard.len().max(1) as f64;
        let tv: f64 =
            counts.iter().zip(&g_dist).map(|(&c, &g)| (c as f64 / total - g).abs()).sum::<f64>()
                / 2.0;
        acc += tv;
    }
    acc / shards.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn dataset(n: usize, classes: usize) -> Dataset {
        Dataset::new(
            (0..n).map(|i| vec![i as f32]).collect(),
            (0..n).map(|i| i % classes).collect(),
            classes,
        )
    }

    #[test]
    fn dirichlet_conserves_samples() {
        let ds = dataset(500, 10);
        let mut rng = StdRng::seed_from_u64(1);
        for clients in [2usize, 10, 50] {
            let shards = dirichlet_partition(&ds, clients, 0.5, &mut rng);
            assert_eq!(shards.len(), clients);
            assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), 500);
            assert!(shards.iter().all(|s| !s.is_empty()), "no empty shard");
        }
    }

    #[test]
    fn all_indices_assigned_exactly_once() {
        let ds = dataset(200, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let shards = dirichlet_partition(&ds, 7, 0.3, &mut rng);
        let mut seen: Vec<f32> =
            shards.iter().flat_map(|s| s.features().iter().map(|f| f[0])).collect();
        seen.sort_by(f32::total_cmp);
        let expected: Vec<f32> = (0..200).map(|i| i as f32).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn smaller_alpha_is_more_skewed() {
        let ds = dataset(2000, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let skew_at = |alpha: f64, rng: &mut StdRng| {
            let shards = dirichlet_partition(&ds, 10, alpha, rng);
            label_skew(&shards, &ds)
        };
        // Average over a few draws for stability.
        let low: f64 = (0..5).map(|_| skew_at(0.1, &mut rng)).sum::<f64>() / 5.0;
        let high: f64 = (0..5).map(|_| skew_at(10.0, &mut rng)).sum::<f64>() / 5.0;
        assert!(low > high + 0.1, "alpha=0.1 skew {low} should exceed alpha=10 skew {high}");
    }

    #[test]
    fn iid_partition_is_balanced() {
        let ds = dataset(103, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let shards = iid_partition(&ds, 10, &mut rng);
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), 103);
        for s in &shards {
            assert!((10..=11).contains(&s.len()));
        }
    }

    #[test]
    fn iid_has_low_skew() {
        let ds = dataset(2000, 10);
        let mut rng = StdRng::seed_from_u64(5);
        let shards = iid_partition(&ds, 10, &mut rng);
        assert!(label_skew(&shards, &ds) < 0.1);
    }

    #[test]
    fn dirichlet_proportions_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(6);
        for alpha in [0.1, 0.5, 1.0, 10.0] {
            let p = dirichlet(20, alpha, &mut rng);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn gamma_mean_is_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        for shape in [0.5f64, 1.0, 3.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!((mean - shape).abs() < 0.07 * shape.max(1.0), "shape {shape} mean {mean}");
        }
    }

    #[test]
    #[should_panic(expected = "fewer samples")]
    fn too_many_clients_rejected() {
        let ds = dataset(5, 2);
        let mut rng = StdRng::seed_from_u64(8);
        let _ = dirichlet_partition(&ds, 10, 0.5, &mut rng);
    }
}
