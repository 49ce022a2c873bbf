//! Byzantine client behaviors: each attack mutates the plaintext update
//! *before* it would be encrypted, exactly where a compromised client
//! sits in the real pipeline (the server never sees plaintext uploads).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Byzantine client's corruption of its own model update.
///
/// Implementations must be pure functions of `(round, client_id,
/// update)` plus construction-time state, so a scenario replays
/// bit-identically.
pub(crate) trait Attack {
    /// Corrupts `update` in place.
    fn corrupt(&self, round: usize, client_id: usize, update: &mut [f32]);
}

/// Flip-and-amplify: `w ← −scale·w`.
///
/// The classic sign-flip attack on HDC class-hypervectors (Federated
/// Hyperdimensional Computing, PAPERS.md) amplified by `scale`, which
/// both maximizes damage to the FedAvg numerator and makes the attack
/// norm-visible — the regime where norm-bound clipping is the
/// documented defense.
#[derive(Debug, Clone, Copy)]
pub struct SignFlip {
    /// Amplification applied on top of the sign flip.
    pub scale: f32,
}

impl Attack for SignFlip {
    fn corrupt(&self, _round: usize, _client_id: usize, update: &mut [f32]) {
        for w in update {
            *w *= -self.scale;
        }
    }
}

/// Scaled-update (model boosting): `w ← factor·w`.
///
/// Keeps the honest direction but inflates its weight, dragging the
/// average toward one client's local distribution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScaledUpdate {
    /// Multiplicative boost.
    pub factor: f32,
}

impl Attack for ScaledUpdate {
    fn corrupt(&self, _round: usize, _client_id: usize, update: &mut [f32]) {
        for w in update {
            *w *= self.factor;
        }
    }
}

/// Colluding attackers: every attacker replaces its update with the
/// *same* pre-drawn malicious direction, scaled to `scale ×` its own
/// honest norm.
///
/// Collusion is what defeats per-client heuristics — the corrupted
/// updates agree with each other, so they look like a consistent
/// (wrong) consensus rather than independent outliers.
#[derive(Debug, Clone)]
pub struct Colluding {
    direction: Vec<f32>,
    scale: f32,
}

impl Colluding {
    /// Draws the shared unit-norm direction for a `dim`-parameter model
    /// from `seed` (part of the scenario's pre-draw discipline: the
    /// direction is fixed before the run starts).
    pub fn new(seed: u64, dim: usize, scale: f32) -> Colluding {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut direction: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let norm = direction.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for v in &mut direction {
                *v /= norm;
            }
        }
        Colluding { direction, scale }
    }
}

impl Attack for Colluding {
    fn corrupt(&self, _round: usize, _client_id: usize, update: &mut [f32]) {
        let norm = update.iter().map(|v| v * v).sum::<f32>().sqrt();
        let target = self.scale * norm.max(1.0);
        for (w, d) in update.iter_mut().zip(&self.direction) {
            *w = target * d;
        }
    }
}

/// Declarative attack selection inside a `ScenarioSpec`; materialized
/// into an `Attack` once the model dimension is known.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackKind {
    /// [`SignFlip`] with the given amplification.
    SignFlip {
        /// Amplification applied on top of the sign flip.
        scale: f32,
    },
    /// `ScaledUpdate` with the given boost.
    ScaledUpdate {
        /// Multiplicative boost.
        factor: f32,
    },
    /// [`Colluding`] with the given norm multiple.
    Colluding {
        /// Norm multiple of the shared malicious direction.
        scale: f32,
    },
}

impl AttackKind {
    /// Builds the concrete attack for a `dim`-parameter model;
    /// `direction_seed` feeds the colluders' shared direction.
    pub(crate) fn materialize(self, direction_seed: u64, dim: usize) -> Box<dyn Attack> {
        match self {
            AttackKind::SignFlip { scale } => Box::new(SignFlip { scale }),
            AttackKind::ScaledUpdate { factor } => Box::new(ScaledUpdate { factor }),
            AttackKind::Colluding { scale } => Box::new(Colluding::new(direction_seed, dim, scale)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_flip_flips_and_amplifies() {
        let mut w = vec![1.0f32, -2.0];
        SignFlip { scale: 10.0 }.corrupt(0, 0, &mut w);
        assert_eq!(w, vec![-10.0, 20.0]);
    }

    #[test]
    fn scaled_update_preserves_direction() {
        let mut w = vec![1.0f32, -2.0];
        ScaledUpdate { factor: 5.0 }.corrupt(0, 0, &mut w);
        assert_eq!(w, vec![5.0, -10.0]);
    }

    #[test]
    fn colluders_agree_with_each_other() {
        let attack = Colluding::new(7, 16, 3.0);
        let mut a = vec![1.0f32; 16];
        let mut b = vec![-0.5f32; 16];
        attack.corrupt(0, 0, &mut a);
        attack.corrupt(0, 1, &mut b);
        // Same direction: cosine similarity of the corrupted updates is 1.
        let dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let na = a.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nb = b.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((dot / (na * nb) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn colluding_direction_is_seed_deterministic() {
        let a = Colluding::new(9, 8, 2.0);
        let b = Colluding::new(9, 8, 2.0);
        let mut u = vec![1.0f32; 8];
        let mut v = vec![1.0f32; 8];
        a.corrupt(3, 1, &mut u);
        b.corrupt(3, 1, &mut v);
        assert_eq!(u, v);
    }
}
