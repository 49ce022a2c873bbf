//! Server-side Byzantine defenses over HDC class-hypervector updates.
//!
//! Both defenses are order statistics over the round's update batch, so
//! they run where the server can see plaintext — the plaintext pipeline
//! here, or post-decryption in a trusted-aggregator deployment. Under
//! CKKS the server cannot evaluate them homomorphically; quantifying
//! that robustness/privacy gap is one of the scenario engine's jobs.

use rhychee_core::round::ClientUpdate;

/// The clipping bound for [`Defense::NormClip`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClipBound {
    /// Clip to the median of the round's update L2 norms — self-tuning
    /// and robust as long as attackers are a minority.
    Median,
    /// Clip to a fixed L2 norm.
    Fixed(f32),
}

/// A server-side defense applied to the round's updates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Defense {
    /// No defense: plain FedAvg over whatever arrives.
    #[default]
    None,
    /// Rescale every update whose L2 norm exceeds the bound down to it.
    NormClip {
        /// How the bound is chosen.
        bound: ClipBound,
    },
    /// Coordinate-wise trimmed mean: drop the `trim_ratio` fraction of
    /// extreme values at each end per coordinate, average the rest.
    CoordTrim {
        /// Fraction trimmed from *each* end (0.0 ≤ r < 0.5).
        trim_ratio: f64,
    },
}

/// L2 norm of a flat update.
fn l2(update: &[f32]) -> f32 {
    update.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Resolves the clipping bound over the round's batch. Median is taken
/// over updates in client-id order (the order `ServerRound` keeps), so
/// the result is arrival-order invariant.
pub(crate) fn resolve_bound(bound: ClipBound, updates: &[ClientUpdate<Vec<f32>>]) -> f32 {
    match bound {
        ClipBound::Fixed(b) => b,
        ClipBound::Median => {
            let mut norms: Vec<f32> = updates.iter().map(|u| l2(&u.payload)).collect();
            norms.sort_by(f32::total_cmp);
            if norms.is_empty() {
                0.0
            } else {
                norms[norms.len() / 2]
            }
        }
    }
}

/// Clips every update above `bound` down to it; returns how many were
/// clipped (feeds `fl.scenario.updates_clipped`).
pub(crate) fn clip_updates(updates: &mut [ClientUpdate<Vec<f32>>], bound: f32) -> u64 {
    let mut clipped = 0;
    for u in updates.iter_mut() {
        let norm = l2(&u.payload);
        if norm > bound && norm > 0.0 {
            let s = bound / norm;
            for w in &mut u.payload {
                *w *= s;
            }
            clipped += 1;
        }
    }
    clipped
}

/// Coordinate-wise trimmed mean over the batch: for each coordinate,
/// sort the per-client values, drop `trim` from each end, average the
/// rest. With `trim = 0` this degenerates to the unweighted mean.
pub(crate) fn trimmed_mean(updates: &[ClientUpdate<Vec<f32>>], trim_ratio: f64) -> Vec<f32> {
    let n = updates.len();
    if n == 0 {
        return Vec::new();
    }
    let dim = updates[0].payload.len();
    // Trim at most enough to keep one value.
    let trim = ((n as f64 * trim_ratio) as usize).min((n - 1) / 2);
    let keep = n - 2 * trim;
    let mut column = vec![0.0f32; n];
    let mut out = vec![0.0f32; dim];
    for (c, slot) in out.iter_mut().enumerate() {
        for (i, u) in updates.iter().enumerate() {
            column[i] = u.payload[c];
        }
        column.sort_by(f32::total_cmp);
        *slot = column[trim..trim + keep].iter().sum::<f32>() / keep as f32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(id: usize, payload: Vec<f32>) -> ClientUpdate<Vec<f32>> {
        ClientUpdate { client_id: id, round: 0, steps: 1, payload }
    }

    #[test]
    fn median_bound_ignores_outliers() {
        let updates =
            vec![upd(0, vec![3.0, 4.0]), upd(1, vec![0.0, 5.0]), upd(2, vec![300.0, 400.0])];
        let b = resolve_bound(ClipBound::Median, &updates);
        assert_eq!(b, 5.0);
    }

    #[test]
    fn clipping_rescales_only_violators() {
        let mut updates = vec![upd(0, vec![3.0, 4.0]), upd(1, vec![30.0, 40.0])];
        let clipped = clip_updates(&mut updates, 5.0);
        assert_eq!(clipped, 1);
        assert_eq!(updates[0].payload, vec![3.0, 4.0]);
        let norm = updates[1].payload.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 5.0).abs() < 1e-4);
        // Direction preserved.
        assert!((updates[1].payload[0] / updates[1].payload[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let updates = vec![
            upd(0, vec![1.0]),
            upd(1, vec![2.0]),
            upd(2, vec![3.0]),
            upd(3, vec![1000.0]),
            upd(4, vec![-1000.0]),
        ];
        let m = trimmed_mean(&updates, 0.2);
        assert_eq!(m, vec![2.0]);
    }

    #[test]
    fn zero_trim_is_plain_mean() {
        let updates = vec![upd(0, vec![1.0, 2.0]), upd(1, vec![3.0, 6.0])];
        assert_eq!(trimmed_mean(&updates, 0.0), vec![2.0, 4.0]);
    }
}
