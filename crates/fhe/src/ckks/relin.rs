//! Ciphertext–ciphertext multiplication with relinearization, and
//! Galois rotations — completing the CKKS operation set.
//!
//! Rhychee-FL's aggregation needs neither (averaging is linear), but a
//! production CKKS deployment uses both: ct×ct products for encrypted
//! similarity scores and rotations for slot reductions (e.g. summing a
//! packed hypervector's elements to evaluate a dot product under
//! encryption). Both rest on the same primitive: *key switching* with a
//! gadget-decomposed evaluation key.
//!
//! Key switching here uses the classic base-B decomposition over the
//! full RNS basis (no auxiliary modulus), with the decomposition applied
//! to every prime's residues jointly via CRT-consistent signed digits of
//! the level-0 representative. For the shallow circuits exercised in
//! this crate (one multiplication or one rotation between rescales) the
//! added noise is far below the scale.

use rand::Rng;
use rhychee_telemetry as telemetry;

use crate::error::FheError;

use super::cipher::{CkksCiphertext, CkksContext, CkksSecretKey};
use super::modarith::{mul_mod, pow_mod};
use super::rns::RnsPoly;

/// Digits used for evaluation-key gadget decomposition (per prime).
pub(super) const EVAL_LOG_BASE: u32 = 8;

/// An evaluation key: encryptions of `B^j · f(s)` under `s`, where
/// `f(s) = s²` for relinearization or `s(X^g)` for a rotation.
///
/// Key switching decomposes the operand into signed digits of its
/// *centered integer coefficients* (consistent across the whole RNS
/// basis — see [`RnsPoly::to_signed_digits`]), so one row per digit
/// suffices for every prime simultaneously.
#[derive(Debug, Clone)]
pub struct EvalKey {
    /// Per digit j: (a_j, b_j) with `b_j = −a_j·s + e + B^j·f(s)`.
    rows: Vec<(RnsPoly, RnsPoly)>,
}

impl EvalKey {
    /// Digits needed to cover the first `levels` primes.
    fn digits_for(ctx: &CkksContext, levels: usize) -> usize {
        let total_bits: u32 =
            ctx.primes()[..levels].iter().map(|&q| 64 - (q - 1).leading_zeros()).sum();
        total_bits.div_ceil(EVAL_LOG_BASE) as usize
    }

    /// Generates an evaluation key for target `f_of_s`.
    fn generate<R: Rng + ?Sized>(
        ctx: &CkksContext,
        s: &RnsPoly,
        f_of_s: &RnsPoly,
        rng: &mut R,
    ) -> Self {
        let primes = ctx.primes();
        let num_digits = Self::digits_for(ctx, primes.len());
        let mut rows = Vec::with_capacity(num_digits);
        for j in 0..num_digits {
            let a = ctx.uniform_poly(rng);
            let e = RnsPoly::from_signed_coeffs(&ctx.noise_vec(rng), primes);
            // b = −a·s + e + B^j·f(s), with B^j reduced per prime.
            let mut b = ctx.poly_mul_at(&a, s, primes.len()).neg(primes).add(&e, primes);
            for (i, &q) in primes.iter().enumerate() {
                let factor = pow_mod(2, u64::from(EVAL_LOG_BASE) * j as u64, q);
                let scaled: Vec<u64> =
                    f_of_s.residues(i).iter().map(|&x| mul_mod(x, factor, q)).collect();
                for (dst, &src) in b.residues_mut(i).iter_mut().zip(&scaled) {
                    *dst = super::modarith::add_mod(*dst, src, q);
                }
            }
            rows.push((a, b));
        }
        EvalKey { rows }
    }

    /// Key-switches a single polynomial `d` (multiplying it implicitly by
    /// `f(s)`): returns `(c0_add, c1_add)` such that
    /// `c0_add + c1_add·s ≈ d·f(s)`.
    fn apply(&self, ctx: &CkksContext, d: &RnsPoly, levels: usize) -> (RnsPoly, RnsPoly) {
        let primes = &ctx.primes()[..levels];
        let n = ctx.params().n;
        let num_digits = Self::digits_for(ctx, levels);
        let digits = d.to_signed_digits(ctx.primes(), EVAL_LOG_BASE, num_digits);
        let mut c0 = RnsPoly::zero(n, levels);
        let mut c1 = RnsPoly::zero(n, levels);
        for (digit, (row_a, row_b)) in digits.iter().zip(&self.rows) {
            c1.add_assign(&ctx.poly_mul_at(digit, row_a, levels), primes);
            c0.add_assign(&ctx.poly_mul_at(digit, row_b, levels), primes);
        }
        (c0, c1)
    }
}

/// Relinearization key: encryption of `s²`.
#[derive(Debug, Clone)]
pub struct RelinKey(EvalKey);

/// Galois key for one rotation step: encryption of `s(X^g)`.
#[derive(Debug, Clone)]
pub struct GaloisKey {
    key: EvalKey,
    galois: usize,
    steps: usize,
}

impl CkksContext {
    /// Generates a relinearization key for ct×ct multiplication.
    pub fn generate_relin_key<R: Rng + ?Sized>(&self, sk: &CkksSecretKey, rng: &mut R) -> RelinKey {
        let s2 = self.poly_mul_at(&sk.s, &sk.s, self.primes().len());
        RelinKey(EvalKey::generate(self, &sk.s, &s2, rng))
    }

    /// Generates a Galois key rotating slot vectors left by `steps`.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero or ≥ N/2.
    pub fn generate_galois_key<R: Rng + ?Sized>(
        &self,
        sk: &CkksSecretKey,
        steps: usize,
        rng: &mut R,
    ) -> GaloisKey {
        let n = self.params().n;
        assert!(steps > 0 && steps < n / 2, "rotation steps out of range");
        // Slot rotation by `steps` is the automorphism X → X^g with
        // g = 5^steps mod 2N.
        let galois = galois_element(steps, n);
        let s_gal = apply_automorphism_poly(&sk.s, galois, self.primes());
        GaloisKey { key: EvalKey::generate(self, &sk.s, &s_gal, rng), galois, steps }
    }

    /// Multiplies two ciphertexts, relinearizing back to two components.
    ///
    /// The output scale is the product of the input scales; rescale
    /// afterwards when a level is available.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::LevelMismatch`] on incompatible levels.
    pub fn mul(
        &self,
        a: &CkksCiphertext,
        b: &CkksCiphertext,
        rk: &RelinKey,
    ) -> Result<CkksCiphertext, FheError> {
        if a.levels() != b.levels() {
            return Err(FheError::LevelMismatch { lhs: a.levels(), rhs: b.levels() });
        }
        let _t = telemetry::timer("fhe.ckks.relin.mul");
        let levels = a.levels();
        let primes = &self.primes()[..levels];
        // Tensor/key-switch arithmetic runs on coefficients (digit
        // decomposition needs integers), so the operands are converted
        // at entry and the result back at exit. ct×ct multiply is not on
        // the FedAvg hot path.
        let (a0, a1) = (self.to_coeff(&a.c0), self.to_coeff(&a.c1));
        let (b0, b1) = (self.to_coeff(&b.c0), self.to_coeff(&b.c1));
        // Tensor product: (d0, d1, d2) = (a0·b0, a0·b1 + a1·b0, a1·b1).
        let d0 = self.poly_mul_at(&a0, &b0, levels);
        let d1 =
            self.poly_mul_at(&a0, &b1, levels).add(&self.poly_mul_at(&a1, &b0, levels), primes);
        let d2 = self.poly_mul_at(&a1, &b1, levels);
        // Key switch d2·s² down to (c0, c1).
        let (ks0, ks1) = rk.0.apply(self, &d2, levels);
        let (mut c0, mut c1) = (d0.add(&ks0, primes), d1.add(&ks1, primes));
        self.forward_rows(&mut c0);
        self.forward_rows(&mut c1);
        Ok(CkksCiphertext { c0, c1, scale: a.scale() * b.scale(), c1_seed: None })
    }

    /// The slot permutation realized by [`CkksContext::rotate`] with a
    /// `steps` key: output slot `j` receives input slot
    /// `rotation_permutation(steps)[j]`.
    ///
    /// This encoder orders slots by the exponents `1 − 4j (mod 2N)` (not
    /// the `5^j` orbit), so the Galois action is a full-order cyclic
    /// permutation of the slots rather than an index shift; slot
    /// reductions like [`CkksContext::sum_slots`] are unaffected, and
    /// this map recovers the exact wiring when needed.
    pub fn rotation_permutation(&self, steps: usize) -> Vec<usize> {
        let n = self.params().n as i64;
        let two_n = 2 * n;
        let g = galois_element(steps, self.params().n) as i64;
        (0..n / 2)
            .map(|j| {
                // Slot j evaluates at ξ^{e_j}, e_j = 1 − 4j (mod 2N); the
                // automorphism X → X^g sends it to the input slot whose
                // exponent is g·e_j.
                let e = (1 - 4 * j).rem_euclid(two_n);
                let eg = (e * g).rem_euclid(two_n);
                debug_assert_eq!(eg % 4, 1, "Galois action preserves the slot exponent class");
                let j_src = (1 - eg).rem_euclid(two_n) / 4;
                j_src as usize
            })
            .collect()
    }

    /// Rotates the slot vector by the key's Galois permutation (see
    /// [`CkksContext::rotation_permutation`]).
    pub fn rotate(&self, ct: &CkksCiphertext, gk: &GaloisKey) -> CkksCiphertext {
        let _t = telemetry::timer("fhe.ckks.relin.rotate");
        let levels = ct.levels();
        let primes = &self.primes()[..levels];
        // The automorphism permutes coefficient indices, so the operand
        // is converted at entry and the result back at exit (rotation is
        // off the FedAvg hot path). Then key-switch the c1 part back to
        // the original key.
        let c0_rot = apply_automorphism_poly(&self.to_coeff(&ct.c0), gk.galois, primes);
        let c1_rot = apply_automorphism_poly(&self.to_coeff(&ct.c1), gk.galois, primes);
        let (ks0, mut c1) = gk.key.apply(self, &c1_rot, levels);
        let mut c0 = c0_rot.add(&ks0, primes);
        self.forward_rows(&mut c0);
        self.forward_rows(&mut c1);
        CkksCiphertext { c0, c1, scale: ct.scale(), c1_seed: None }
    }

    /// Sums all slots into every slot via log₂(N/2) rotations (requires a
    /// power-of-two rotation key set).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if `keys` does not contain the
    /// power-of-two step sequence `1, 2, 4, …, N/4`.
    pub fn sum_slots(
        &self,
        ct: &CkksCiphertext,
        keys: &[GaloisKey],
    ) -> Result<CkksCiphertext, FheError> {
        let half = self.params().n / 2;
        let mut acc = ct.clone();
        let mut step = 1usize;
        while step < half {
            let key = keys
                .iter()
                .find(|k| k.steps == step)
                .ok_or_else(|| FheError::InvalidParams(format!("missing rotation key {step}")))?;
            let rotated = self.rotate(&acc, key);
            acc = self.add(&acc, &rotated)?;
            step *= 2;
        }
        Ok(acc)
    }
}

/// The Galois element for a left rotation by `steps`: `5^steps mod 2N`.
fn galois_element(steps: usize, n: usize) -> usize {
    let two_n = 2 * n as u64;
    let mut g = 1u64;
    for _ in 0..steps {
        g = (g * 5) % two_n;
    }
    g as usize
}

/// Applies the automorphism X → X^g coefficient-wise (negacyclic signs).
fn apply_automorphism_poly(p: &RnsPoly, g: usize, primes: &[u64]) -> RnsPoly {
    let n = p.degree();
    let levels = p.levels().min(primes.len());
    let mut out = RnsPoly::zero(n, levels);
    for (i, &q) in primes.iter().take(levels).enumerate() {
        let src = p.residues(i);
        let dst = out.residues_mut(i);
        for (k, &c) in src.iter().enumerate() {
            let idx = (k * g) % (2 * n);
            if idx < n {
                dst[idx] = super::modarith::add_mod(dst[idx], c, q);
            } else {
                dst[idx - n] = super::modarith::sub_mod(dst[idx - n], c, q);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::cipher::CkksPublicKey;
    use super::*;
    use crate::params::CkksParams;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup() -> (CkksContext, CkksSecretKey, CkksPublicKey, StdRng) {
        // Three primes leave room for a multiply + rescale.
        let params =
            CkksParams { n: 512, prime_bits: vec![50, 40, 40], scale_bits: 30, sigma: 3.2 };
        let ctx = CkksContext::new(params).expect("params");
        let mut rng = StdRng::seed_from_u64(11);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        (ctx, sk, pk, rng)
    }

    #[test]
    fn ciphertext_multiplication() {
        let (ctx, sk, pk, mut rng) = setup();
        let rk = ctx.generate_relin_key(&sk, &mut rng);
        let x = vec![1.5, -2.0, 3.0, 0.5];
        let y = vec![2.0, 4.0, -1.0, 8.0];
        let cx = ctx.encrypt(&pk, &x, &mut rng).expect("encrypt");
        let cy = ctx.encrypt(&pk, &y, &mut rng).expect("encrypt");
        let prod = ctx.mul(&cx, &cy, &rk).expect("mul");
        let back = ctx.decrypt(&sk, &prod);
        for i in 0..4 {
            assert!(
                (back[i] - x[i] * y[i]).abs() < 1e-2,
                "slot {i}: {} vs {}",
                back[i],
                x[i] * y[i]
            );
        }
        // And after rescaling.
        let rescaled = ctx.rescale(&prod).expect("rescale");
        let back = ctx.decrypt(&sk, &rescaled);
        for i in 0..4 {
            assert!((back[i] - x[i] * y[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn multiplication_is_commutative() {
        let (ctx, sk, pk, mut rng) = setup();
        let rk = ctx.generate_relin_key(&sk, &mut rng);
        let cx = ctx.encrypt(&pk, &[3.0, 5.0], &mut rng).expect("encrypt");
        let cy = ctx.encrypt(&pk, &[7.0, -2.0], &mut rng).expect("encrypt");
        let xy = ctx.decrypt(&sk, &ctx.mul(&cx, &cy, &rk).expect("mul"));
        let yx = ctx.decrypt(&sk, &ctx.mul(&cy, &cx, &rk).expect("mul"));
        assert!((xy[0] - yx[0]).abs() < 1e-2);
        assert!((xy[1] - yx[1]).abs() < 1e-2);
    }

    #[test]
    fn rotation_applies_the_documented_permutation() {
        let (ctx, sk, pk, mut rng) = setup();
        let gk = ctx.generate_galois_key(&sk, 1, &mut rng);
        let perm = ctx.rotation_permutation(1);
        let values: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64).collect();
        let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
        let rotated = ctx.rotate(&ct, &gk);
        let back = ctx.decrypt(&sk, &rotated);
        for j in 0..values.len() {
            let expected = values[perm[j]];
            assert!((back[j] - expected).abs() < 1e-2, "slot {j}: {} vs {expected}", back[j]);
        }
    }

    #[test]
    fn rotation_permutation_is_a_full_cycle() {
        // The Galois action must visit every slot once (this is what
        // sum_slots relies on).
        let (ctx, ..) = setup();
        let perm = ctx.rotation_permutation(1);
        let n = perm.len();
        // A permutation...
        let mut seen = vec![false; n];
        for &p in &perm {
            assert!(!seen[p], "duplicate image {p}");
            seen[p] = true;
        }
        // ...with a single orbit of length N/2.
        let mut pos = 0usize;
        for _ in 0..n - 1 {
            pos = perm[pos];
            assert_ne!(pos, 0, "cycle closed early");
        }
        assert_eq!(perm[pos], 0, "cycle must close after N/2 steps");
    }

    #[test]
    fn double_step_key_matches_permutation_square() {
        let (ctx, sk, pk, mut rng) = setup();
        let gk2 = ctx.generate_galois_key(&sk, 2, &mut rng);
        let p1 = ctx.rotation_permutation(1);
        let p2 = ctx.rotation_permutation(2);
        // g^2 acts as the square of the g-permutation.
        for j in 0..p1.len() {
            assert_eq!(p2[j], p1[p1[j]]);
        }
        let values: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
        let back = ctx.decrypt(&sk, &ctx.rotate(&ct, &gk2));
        for j in 0..8 {
            let src = p2[j];
            let expected = if src < values.len() { values[src] } else { 0.0 };
            assert!((back[j] - expected).abs() < 1e-2, "slot {j}");
        }
    }

    #[test]
    fn slot_sum_computes_total() {
        let (ctx, sk, pk, mut rng) = setup();
        let half = ctx.slot_count();
        let keys: Vec<GaloisKey> = std::iter::successors(Some(1usize), |&s| Some(s * 2))
            .take_while(|&s| s < half)
            .map(|s| ctx.generate_galois_key(&sk, s, &mut rng))
            .collect();
        let values: Vec<f64> = (0..half).map(|i| (i % 7) as f64 / 7.0).collect();
        let expected: f64 = values.iter().sum();
        let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
        let summed = ctx.sum_slots(&ct, &keys).expect("sum");
        let back = ctx.decrypt(&sk, &summed);
        assert!(
            (back[0] - expected).abs() < expected.abs() * 1e-2 + 0.3,
            "slot sum {} vs {expected}",
            back[0]
        );
    }

    #[test]
    fn encrypted_dot_product() {
        // The encrypted-similarity use case: <x, y> via mul + slot sum.
        let (ctx, sk, pk, mut rng) = setup();
        let rk = ctx.generate_relin_key(&sk, &mut rng);
        let half = ctx.slot_count();
        let keys: Vec<GaloisKey> = std::iter::successors(Some(1usize), |&s| Some(s * 2))
            .take_while(|&s| s < half)
            .map(|s| ctx.generate_galois_key(&sk, s, &mut rng))
            .collect();
        let x: Vec<f64> = (0..half).map(|i| ((i * 3) % 5) as f64 / 5.0).collect();
        let y: Vec<f64> = (0..half).map(|i| ((i * 7) % 4) as f64 / 4.0).collect();
        let expected: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let cx = ctx.encrypt(&pk, &x, &mut rng).expect("encrypt");
        let cy = ctx.encrypt(&pk, &y, &mut rng).expect("encrypt");
        // Sum at the squared scale, rescale last: key-switching noise is
        // absolute, so it is negligible against Δ² but not against the
        // tiny Δ²/q scale a premature rescale would leave.
        let prod = ctx.mul(&cx, &cy, &rk).expect("mul");
        let dot = ctx.rescale(&ctx.sum_slots(&prod, &keys).expect("sum")).expect("rescale");
        let back = ctx.decrypt(&sk, &dot);
        assert!(
            (back[0] - expected).abs() < expected.abs() * 0.02 + 0.5,
            "dot {} vs {expected}",
            back[0]
        );
    }

    #[test]
    fn sum_slots_requires_keys() {
        let (ctx, sk, pk, mut rng) = setup();
        let ct = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
        let only_one = vec![ctx.generate_galois_key(&sk, 1, &mut rng)];
        assert!(ctx.sum_slots(&ct, &only_one).is_err(), "missing higher rotation keys");
    }
}
