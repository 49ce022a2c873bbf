//! Threshold (key-shared) CKKS: k-out-of-n Shamir sharing of the secret
//! key, with dropout recovery.
//!
//! The paper's xMK-CKKS baseline uses a threshold multi-key variant of
//! CKKS so that *no single client* holds the full decryption key. This
//! module implements one dealer-free construction over our RNS-CKKS
//! backend ([`ThresholdGroup::generate`]); n-out-of-n is `k = n`:
//!
//! * each party samples a ternary contribution `s_i`; the joint secret
//!   is `s = Σ s_i` and is never materialized anywhere;
//! * key generation runs against a common random polynomial `a` (the
//!   CRS): party `i` publishes `b_i = −a·s_i + e_i`, and the joint public
//!   key is `(Σ b_i, a)`;
//! * each party also Shamir-shares `s_i`, so party `j` ends up holding
//!   `F(x_j)` for a degree-`k−1` polynomial `F` with `F(0) = s`;
//! * decryption is distributed: any `k` surviving parties each publish
//!   `p_j = c1·(λ_j·F(x_j)) + e_j^smudge`, with `λ_j` the Lagrange
//!   coefficient of the participating subset applied *before* the
//!   smudging noise ([`ThresholdGroup::partial_decrypt_subset`]);
//!   summing the partials with `c0` yields the plaintext, while any
//!   `k−1` collusion learns nothing.
//!
//! This is the dropout-recovery story the encrypted-aggregation
//! deployment needs: a keyholder that churns out of the federation no
//! longer takes the global model with it (exercised by the
//! `rhychee-scenario` engine).
//!
//! Rhychee-FL itself uses the simpler shared-secret-key deployment
//! (paper §IV-A), but this extension removes that trust assumption and
//! makes the Table II comparison architecture-faithful.
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rhychee_fhe::ckks::threshold::ThresholdGroup;
//! use rhychee_fhe::ckks::CkksContext;
//! use rhychee_fhe::params::CkksParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = CkksContext::new(CkksParams::toy())?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let group = ThresholdGroup::generate(&ctx, 3, 3, &mut rng)?;
//! let ct = ctx.encrypt(group.public_key(), &[1.0, 2.0], &mut rng)?;
//! // All three parties cooperate to decrypt.
//! let partials: Vec<_> =
//!     (0..3).map(|i| group.partial_decrypt(&ctx, i, &ct, &mut rng)).collect();
//! let values = ThresholdGroup::combine(&ctx, &ct, &partials);
//! assert!((values[0] - 1.0).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

use std::sync::OnceLock;

use rand::Rng;

use crate::error::FheError;
use crate::sampling::{ternary_vec, GaussianSampler};

use super::cipher::{CkksCiphertext, CkksContext, CkksPublicKey};
use super::modarith::{add_mod, inv_mod, mul_mod, sub_mod};
use super::rns::RnsPoly;

/// Smudging-noise standard deviation for partial decryptions.
///
/// Must dominate the decryption noise to statistically hide each party's
/// key share; 2^10 leaves ~40 bits of plaintext precision at Δ = 2^26+.
const SMUDGING_SIGMA: f64 = 1024.0;

/// The one sampler for [`SMUDGING_SIGMA`], built on first use.
fn smudging_sampler() -> &'static GaussianSampler {
    static SAMPLER: OnceLock<GaussianSampler> = OnceLock::new();
    SAMPLER.get_or_init(|| GaussianSampler::new(SMUDGING_SIGMA))
}

/// One party's key share: the Shamir point `F(x_i)` of the joint secret.
#[derive(Debug, Clone)]
pub(crate) struct KeyShare {
    share: RnsPoly,
}

/// A partial decryption `p_i = c1·(λ_i·F(x_i)) + e_smudge`, with `λ_i`
/// taken over the declared decryption subset.
#[derive(Debug, Clone)]
pub struct PartialDecryption {
    poly: RnsPoly,
    party: usize,
}

/// A threshold key group: the shares plus the joint public key. In a
/// real deployment each share would live on its own client; the group
/// type models the ceremony for simulation.
#[derive(Debug)]
pub struct ThresholdGroup {
    shares: Vec<KeyShare>,
    public_key: CkksPublicKey,
    k: usize,
}

/// Shamir evaluation point for `party` (1-based so `F(0)` stays secret).
fn x_coord(party: usize) -> u64 {
    party as u64 + 1
}

/// Evaluates the polynomial with RNS-poly coefficients at scalar `x`,
/// independently per RNS prime (Horner's rule).
fn eval_shamir(coeffs: &[RnsPoly], x: u64, primes: &[u64]) -> RnsPoly {
    let mut acc = coeffs.last().expect("at least the constant term").clone();
    for c in coeffs.iter().rev().skip(1) {
        for (l, &p) in primes.iter().enumerate() {
            let xs = x % p;
            let row = acc.residues_mut(l);
            for (a, &cv) in row.iter_mut().zip(c.residues(l)) {
                *a = add_mod(mul_mod(*a, xs, p), cv, p);
            }
        }
    }
    acc
}

/// The Lagrange coefficient `λ_i = Π_{j≠i} x_j/(x_j − x_i)` of party
/// `party` over decryption subset `subset`, computed mod each prime.
fn lagrange_at_zero(party: usize, subset: &[usize], primes: &[u64]) -> Vec<u64> {
    primes
        .iter()
        .map(|&p| {
            let xi = x_coord(party) % p;
            let mut lambda = 1u64;
            for &j in subset {
                if j == party {
                    continue;
                }
                let xj = x_coord(j) % p;
                let num = xj;
                let den = sub_mod(xj, xi, p);
                lambda = mul_mod(lambda, mul_mod(num, inv_mod(den, p), p), p);
            }
            lambda
        })
        .collect()
}

/// Multiplies each RNS row of `poly` by the matching per-prime scalar.
fn scale_rows(poly: &RnsPoly, scalars: &[u64], primes: &[u64]) -> RnsPoly {
    let mut out = poly.clone();
    for (l, &p) in primes.iter().enumerate() {
        let s = scalars[l];
        for v in out.residues_mut(l) {
            *v = mul_mod(*v, s, p);
        }
    }
    out
}

impl ThresholdGroup {
    /// Runs the k-out-of-n ceremony: any `k` of the `parties` shares
    /// suffice to decrypt, so up to `parties − k` keyholders can drop
    /// out of the federation without losing the global model. `k =
    /// parties` is n-out-of-n: every party must contribute.
    ///
    /// Each party `i` samples a ternary contribution `s_i`, publishes
    /// `b_i = −a·s_i + e_i`, and Shamir-shares `s_i` with a fresh
    /// degree-`k−1` polynomial `f_i` (constant term `s_i`, remaining
    /// coefficients uniform per RNS prime). Party `j` keeps the sum of
    /// everyone's evaluations `F(x_j) = Σ_i f_i(x_j)`, a Shamir share of
    /// the joint secret `F(0) = s = Σ s_i` — no dealer ever sees `s`.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] unless `1 <= k <= parties`.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        parties: usize,
        k: usize,
        rng: &mut R,
    ) -> Result<ThresholdGroup, FheError> {
        if k == 0 || k > parties {
            return Err(FheError::InvalidParams(format!(
                "threshold k={k} must satisfy 1 <= k <= parties={parties}"
            )));
        }
        let n = ctx.params().n;
        let primes = ctx.primes();
        // Common random polynomial (CRS), public to everyone.
        let a = ctx.uniform_poly(rng);
        let mut b = RnsPoly::zero(n, primes.len());
        let mut points = vec![RnsPoly::zero(n, primes.len()); parties];
        for _ in 0..parties {
            let s_i = RnsPoly::from_signed_coeffs(&ternary_vec(rng, n), primes);
            let e_i = RnsPoly::from_signed_coeffs(&ctx.noise_vec(rng), primes);
            // b_i = -(a · s_i) + e_i
            let b_i = ctx.poly_mul_at(&a, &s_i, primes.len()).neg(primes).add(&e_i, primes);
            b.add_assign(&b_i, primes);
            // f_i(x) = s_i + a_1·x + … + a_{k−1}·x^{k−1}, coefficients
            // uniform per prime (each prime's Shamir instance is
            // independent; reconstruction is per-residue).
            let mut coeffs = vec![s_i];
            for _ in 1..k {
                coeffs.push(ctx.uniform_poly(rng));
            }
            for (j, point) in points.iter_mut().enumerate() {
                point.add_assign(&eval_shamir(&coeffs, x_coord(j), primes), primes);
            }
        }
        Ok(ThresholdGroup {
            shares: points.into_iter().map(|share| KeyShare { share }).collect(),
            public_key: CkksPublicKey::from_coeff(ctx, b, a),
            k,
        })
    }

    /// Number of parties in the group.
    pub fn parties(&self) -> usize {
        self.shares.len()
    }

    /// Minimum number of partial decryptions needed to recover a
    /// plaintext: the `k` the group was generated with.
    pub fn threshold(&self) -> usize {
        self.k
    }

    /// The joint public key (given to the aggregation server).
    pub fn public_key(&self) -> &CkksPublicKey {
        &self.public_key
    }

    /// Party `party`'s partial decryption of `ct`, with smudging noise,
    /// for a decryption by the full party set.
    ///
    /// # Panics
    ///
    /// Panics if `party` is out of range.
    pub fn partial_decrypt<R: Rng + ?Sized>(
        &self,
        ctx: &CkksContext,
        party: usize,
        ct: &CkksCiphertext,
        rng: &mut R,
    ) -> PartialDecryption {
        let all: Vec<usize> = (0..self.parties()).collect();
        self.partial_decrypt_subset(ctx, party, &all, ct, rng)
            .expect("the full party set is always a valid decryption subset")
    }

    /// Party `party`'s partial decryption of `ct` as a member of the
    /// declared decryption subset `subset` (the parties that survived
    /// the round).
    ///
    /// The share is scaled by the Lagrange coefficient `λ_party` of
    /// `subset` *before* smudging noise is added, so summing the
    /// subset's partials interpolates `F(0)·c1 = s·c1` directly —
    /// smudging stays small and is never amplified by λ.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] when `subset` is smaller than the
    /// group threshold, contains duplicates or out-of-range indices,
    /// or does not contain `party`.
    pub fn partial_decrypt_subset<R: Rng + ?Sized>(
        &self,
        ctx: &CkksContext,
        party: usize,
        subset: &[usize],
        ct: &CkksCiphertext,
        rng: &mut R,
    ) -> Result<PartialDecryption, FheError> {
        self.validate_subset(subset)?;
        if !subset.contains(&party) {
            return Err(FheError::InvalidParams(format!(
                "party {party} is not in the declared decryption subset"
            )));
        }
        let levels = ct.levels();
        let primes = &ctx.primes()[..levels];
        let lambda = lagrange_at_zero(party, subset, primes);
        let share = scale_rows(&self.shares[party].share.truncated(levels), &lambda, primes);
        let mut smudge = vec![0i64; ctx.params().n];
        smudging_sampler().fill(rng, &mut smudge);
        let smudge = RnsPoly::from_signed_coeffs(&smudge, primes);
        // The share product runs on coefficients, so `c1` is converted
        // at entry (threshold decryption is a round-end operation, not
        // the aggregation hot loop).
        let c1 = ctx.to_coeff(&ct.c1);
        let poly = ctx.poly_mul_at(&c1, &share, levels).add(&smudge, primes);
        Ok(PartialDecryption { poly, party })
    }

    /// Checks that `subset` is a plausible decryption quorum: distinct
    /// in-range parties, at least [`ThresholdGroup::threshold`] of
    /// them.
    fn validate_subset(&self, subset: &[usize]) -> Result<(), FheError> {
        let parties = self.parties();
        let mut seen = vec![false; parties];
        for &p in subset {
            if p >= parties {
                return Err(FheError::InvalidParams(format!(
                    "party index {p} out of range for {parties}-party group"
                )));
            }
            if seen[p] {
                return Err(FheError::InvalidParams(format!(
                    "party {p} appears twice in the decryption subset"
                )));
            }
            seen[p] = true;
        }
        let need = self.threshold();
        if subset.len() < need {
            return Err(FheError::InvalidParams(format!(
                "decryption subset of {} parties is below the threshold {need}",
                subset.len()
            )));
        }
        Ok(())
    }

    /// Combines partial decryptions into the plaintext slots. The
    /// partials must come from one decryption subset of at least
    /// [`ThresholdGroup::threshold`] parties; [`Self::combine_checked`]
    /// checks that.
    ///
    /// # Panics
    ///
    /// Panics if `partials` is empty or shapes mismatch.
    pub fn combine(
        ctx: &CkksContext,
        ct: &CkksCiphertext,
        partials: &[PartialDecryption],
    ) -> Vec<f64> {
        assert!(!partials.is_empty(), "need at least one partial decryption");
        let levels = ct.levels();
        let primes = &ctx.primes()[..levels];
        let mut m = ctx.to_coeff(&ct.c0);
        for p in partials {
            m.add_assign(&p.poly, primes);
        }
        let coeffs = m.to_centered_f64_with(primes, ctx.parallelism());
        ctx.encoder().decode_with_scale(&coeffs, ct.scale())
    }

    /// Combines partial decryptions after checking the quorum: the
    /// contributing parties must be distinct, in range, and at least
    /// [`ThresholdGroup::threshold`] many. This is the error path a
    /// federation hits when a keyholder drops mid-round and too few
    /// shares arrive.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] when shares are missing or
    /// duplicated.
    pub fn combine_checked(
        &self,
        ctx: &CkksContext,
        ct: &CkksCiphertext,
        partials: &[PartialDecryption],
    ) -> Result<Vec<f64>, FheError> {
        let contributors: Vec<usize> = partials.iter().map(|p| p.party).collect();
        self.validate_subset(&contributors)?;
        Ok(Self::combine(ctx, ct, partials))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup(parties: usize) -> (CkksContext, ThresholdGroup, StdRng) {
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let mut rng = StdRng::seed_from_u64(99);
        let group = ThresholdGroup::generate(&ctx, parties, parties, &mut rng).expect("n-of-n");
        (ctx, group, rng)
    }

    fn decrypt_all(
        ctx: &CkksContext,
        group: &ThresholdGroup,
        ct: &CkksCiphertext,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let partials: Vec<_> =
            (0..group.parties()).map(|i| group.partial_decrypt(ctx, i, ct, rng)).collect();
        ThresholdGroup::combine(ctx, ct, &partials)
    }

    #[test]
    fn joint_key_encrypt_and_distributed_decrypt() {
        let (ctx, group, mut rng) = setup(4);
        let values = vec![1.5, -2.25, 100.0, 0.0];
        let ct = ctx.encrypt(group.public_key(), &values, &mut rng).expect("encrypt");
        let back = decrypt_all(&ctx, &group, &ct, &mut rng);
        for (v, b) in values.iter().zip(&back) {
            assert!((v - b).abs() < 0.05, "{v} vs {b}");
        }
    }

    #[test]
    fn missing_party_cannot_decrypt() {
        let (ctx, group, mut rng) = setup(3);
        let values = vec![42.0; 8];
        let ct = ctx.encrypt(group.public_key(), &values, &mut rng).expect("encrypt");
        // Only 2 of 3 partials: the result must be garbage (the missing
        // c1·s_2 term leaves a uniform-looking mask in place).
        let partials: Vec<_> =
            (0..2).map(|i| group.partial_decrypt(&ctx, i, &ct, &mut rng)).collect();
        let broken = ThresholdGroup::combine(&ctx, &ct, &partials);
        let max_err = broken[..8].iter().map(|b| (b - 42.0).abs()).fold(0.0f64, f64::max);
        assert!(max_err > 1.0, "partial coalition must not learn the plaintext (err {max_err})");
    }

    #[test]
    fn homomorphic_average_under_threshold_keys() {
        // The full Rhychee-FL aggregation pattern with no shared secret:
        // clients encrypt under the joint key, the server averages, all
        // parties cooperate to decrypt the global model.
        let (ctx, group, mut rng) = setup(3);
        let models = [[2.0, 4.0], [4.0, 8.0], [6.0, 12.0]];
        let mut acc = ctx.encrypt(group.public_key(), &models[0], &mut rng).expect("encrypt");
        for m in &models[1..] {
            let ct = ctx.encrypt(group.public_key(), m, &mut rng).expect("encrypt");
            ctx.add_assign(&mut acc, &ct).expect("add");
        }
        let avg = ctx.mul_scalar(&acc, 1.0 / 3.0);
        let back = decrypt_all(&ctx, &group, &avg, &mut rng);
        assert!((back[0] - 4.0).abs() < 0.05, "{}", back[0]);
        assert!((back[1] - 8.0).abs() < 0.05, "{}", back[1]);
    }

    #[test]
    fn single_party_group_matches_plain_ckks_shape() {
        let (ctx, group, mut rng) = setup(1);
        let ct = ctx.encrypt(group.public_key(), &[7.0], &mut rng).expect("encrypt");
        let back = decrypt_all(&ctx, &group, &ct, &mut rng);
        assert!((back[0] - 7.0).abs() < 0.05);
    }

    #[test]
    fn kofn_subset_decrypts_after_dropout() {
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let mut rng = StdRng::seed_from_u64(7);
        let group = ThresholdGroup::generate(&ctx, 5, 3, &mut rng).expect("kofn");
        assert_eq!(group.threshold(), 3);
        let values = vec![3.5, -1.25];
        let ct = ctx.encrypt(group.public_key(), &values, &mut rng).expect("encrypt");
        // Parties 1 and 3 dropped; the surviving quorum {0, 2, 4} decrypts.
        let subset = [0usize, 2, 4];
        let partials: Vec<_> = subset
            .iter()
            .map(|&p| group.partial_decrypt_subset(&ctx, p, &subset, &ct, &mut rng).expect("valid"))
            .collect();
        let back = group.combine_checked(&ctx, &ct, &partials).expect("quorum met");
        for (v, b) in values.iter().zip(&back) {
            assert!((v - b).abs() < 0.05, "{v} vs {b}");
        }
    }

    #[test]
    fn n_of_n_group_rejects_proper_subset() {
        let (ctx, group, mut rng) = setup(3);
        let ct = ctx.encrypt(group.public_key(), &[1.0], &mut rng).expect("encrypt");
        let err = group.partial_decrypt_subset(&ctx, 0, &[0, 1], &ct, &mut rng).unwrap_err();
        assert!(matches!(err, FheError::InvalidParams(_)));
    }

    #[test]
    fn works_at_paper_parameters() {
        let ctx = CkksContext::new(CkksParams::ckks4()).expect("params");
        let mut rng = StdRng::seed_from_u64(5);
        let group = ThresholdGroup::generate(&ctx, 5, 5, &mut rng).expect("n-of-n");
        let values: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let ct = ctx.encrypt(group.public_key(), &values, &mut rng).expect("encrypt");
        let partials: Vec<_> =
            (0..5).map(|i| group.partial_decrypt(&ctx, i, &ct, &mut rng)).collect();
        let back = ThresholdGroup::combine(&ctx, &ct, &partials);
        for (i, v) in values.iter().enumerate() {
            assert!((back[i] - v).abs() < 0.05, "slot {i}: {} vs {v}", back[i]);
        }
    }
}
