//! The programmable bootstrap: blind rotation → sample extraction →
//! key switching → modulus switching.

use rand::Rng;

use crate::ckks::modarith::{add_mod, find_ntt_primes, mul_mod, neg_mod, signed_residue, sub_mod};
use crate::ckks::ntt::NttTable;
use crate::error::FheError;
use crate::lwe::{LweCiphertext, LweContext, LweSecretKey};
use crate::params::{check_sigma, LweParams};
use crate::sampling::{uniform_vec, GaussianSampler};

use super::rlwe::{rotate_poly, sample_rlwe_key, GadgetDecomposer, RgswCiphertext, RlweCiphertext};

/// Parameters of the bootstrapping machinery layered over an
/// [`LweParams`] base scheme.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapParams {
    /// The base LWE scheme; its modulus must equal `2 · ring_degree`.
    pub lwe: LweParams,
    /// Accumulator ring degree N.
    pub ring_degree: usize,
    /// Bit size of the accumulator modulus Q (an NTT prime is chosen).
    pub ring_modulus_bits: u32,
    /// Blind-rotation gadget base (log2).
    pub gadget_log_base: u32,
    /// Blind-rotation gadget levels.
    pub gadget_levels: usize,
    /// Key-switching gadget base (log2).
    pub ks_log_base: u32,
    /// Key-switching gadget levels.
    pub ks_levels: usize,
    /// Error σ for the RLWE/RGSW and key-switching encryptions.
    pub rlwe_sigma: f64,
}

impl Default for BootstrapParams {
    /// FHEW-style parameters over the paper's TFHE-3 base scheme:
    /// n = 448, q = 2^10 = 2N with N = 512, 27-bit accumulator prime.
    fn default() -> Self {
        BootstrapParams {
            lwe: LweParams::tfhe3(),
            ring_degree: 512,
            ring_modulus_bits: 27,
            gadget_log_base: 9,
            gadget_levels: 3,
            ks_log_base: 7,
            ks_levels: 4,
            rlwe_sigma: 3.2,
        }
    }
}

impl BootstrapParams {
    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if `q ≠ 2N`, a gadget does
    /// not cover its modulus, or a σ is outside `(0, 5461]`.
    pub fn validate(&self) -> Result<(), FheError> {
        self.lwe.validate()?;
        check_sigma(self.rlwe_sigma)?;
        if self.lwe.q() != 2 * self.ring_degree as u64 {
            return Err(FheError::InvalidParams(format!(
                "bootstrapping requires q = 2N (q = {}, N = {})",
                self.lwe.q(),
                self.ring_degree
            )));
        }
        if !self.ring_degree.is_power_of_two() {
            return Err(FheError::InvalidParams("ring degree must be a power of two".into()));
        }
        if u32::try_from(self.gadget_levels).unwrap_or(u32::MAX) * self.gadget_log_base
            < self.ring_modulus_bits
        {
            return Err(FheError::InvalidParams("blind-rotation gadget too small".into()));
        }
        if u32::try_from(self.ks_levels).unwrap_or(u32::MAX) * self.ks_log_base
            < self.ring_modulus_bits
        {
            return Err(FheError::InvalidParams("key-switching gadget too small".into()));
        }
        Ok(())
    }
}

/// One key-switching-key entry: an LWE (dim n, mod Q) encryption.
#[derive(Debug, Clone)]
struct KskEntry {
    a: Vec<u64>,
    b: u64,
}

/// Evaluation keys for programmable bootstrapping: the blind-rotation
/// key (one RGSW per LWE secret bit) and the key-switching key.
pub struct BootstrapContext {
    params: BootstrapParams,
    table: NttTable,
    decomposer: GadgetDecomposer,
    ks_decomposer: GadgetDecomposer,
    /// RGSW(s_i) for every bit of the base LWE secret.
    blind_rotation_key: Vec<RgswCiphertext>,
    /// `ksk[i][j] = LWE_s(z_i · B_ks^j) mod Q`, for the RLWE key z.
    key_switching_key: Vec<Vec<KskEntry>>,
    /// Accumulator modulus Q.
    ring_q: u64,
}

impl BootstrapContext {
    /// Generates the evaluation keys for a base-scheme secret key.
    ///
    /// This is the expensive client-side setup (seconds); the keys are
    /// then reusable for any number of bootstraps.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if parameter validation fails
    /// or the context's parameters disagree with `params.lwe`.
    pub fn generate<R: Rng + ?Sized>(
        params: &BootstrapParams,
        ctx: &LweContext,
        sk: &LweSecretKey,
        rng: &mut R,
    ) -> Result<Self, FheError> {
        params.validate()?;
        if *ctx.params() != params.lwe {
            return Err(FheError::InvalidParams(
                "LWE context parameters disagree with bootstrap parameters".into(),
            ));
        }
        let n_ring = params.ring_degree;
        let ring_q = find_ntt_primes(params.ring_modulus_bits, 1, 2 * n_ring as u64)[0];
        let table = NttTable::new(n_ring, ring_q);
        let decomposer =
            GadgetDecomposer::new(ring_q, params.gadget_log_base, params.gadget_levels);
        let ks_decomposer = GadgetDecomposer::new(ring_q, params.ks_log_base, params.ks_levels);

        // The one error sampler of this keygen: every RGSW row and every
        // key-switching entry below draws from it.
        let noise = GaussianSampler::new(params.rlwe_sigma);

        // Accumulator (RLWE) key.
        let z = sample_rlwe_key(n_ring, rng);

        // Blind-rotation key: RGSW(s_i) under z.
        let s_bits = sk.bits();
        let blind_rotation_key = s_bits
            .iter()
            .map(|&bit| RgswCiphertext::encrypt(bit, &z, &table, &decomposer, &noise, rng))
            .collect();

        // Key-switching key: LWE_s^{(Q)}(z_i · B^j).
        let n_lwe = params.lwe.dimension;
        let factors = ks_decomposer.factors();
        let mut key_switching_key = Vec::with_capacity(n_ring);
        for &z_i in &z {
            let z_res = signed_residue(z_i, ring_q);
            let mut per_coeff = Vec::with_capacity(factors.len());
            for &f in &factors {
                let m = mul_mod(z_res, f % ring_q, ring_q);
                let a = uniform_vec(rng, n_lwe, ring_q);
                let inner = a
                    .iter()
                    .zip(s_bits)
                    .fold(0u64, |acc, (&ai, &si)| add_mod(acc, mul_mod(ai, si, ring_q), ring_q));
                let e = noise.sample(rng);
                let e_res = signed_residue(e, ring_q);
                let b = add_mod(add_mod(inner, e_res, ring_q), m, ring_q);
                per_coeff.push(KskEntry { a, b });
            }
            key_switching_key.push(per_coeff);
        }

        Ok(BootstrapContext {
            params: *params,
            table,
            decomposer,
            ks_decomposer,
            blind_rotation_key,
            key_switching_key,
            ring_q,
        })
    }

    /// Evaluates `lut[m]` homomorphically on an encryption of `m`,
    /// returning a *fresh-noise* encryption of the result — the
    /// programmable bootstrap.
    ///
    /// `lut` must have exactly `t` entries with values `< t`. Message
    /// correctness is guaranteed for `m < t/2` (the negacyclic domain
    /// restriction; see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if the LUT shape is wrong.
    pub fn bootstrap(&self, ct: &LweCiphertext, lut: &[u64]) -> Result<LweCiphertext, FheError> {
        let t = self.params.lwe.plaintext_modulus;
        if lut.len() != t as usize {
            return Err(FheError::InvalidParams(format!(
                "LUT must have t = {t} entries, got {}",
                lut.len()
            )));
        }
        if let Some(&bad) = lut.iter().find(|&&v| v >= t) {
            return Err(FheError::MessageOutOfRange { value: bad as i64, modulus: t });
        }
        let n_ring = self.params.ring_degree;
        let two_n = 2 * n_ring;
        let q = self.params.lwe.q();
        let big_q = self.ring_q;
        let delta = self.params.lwe.delta(); // q/t
        let delta_q = big_q / t; // Q/t

        // Test vector: v[idx] = -Δ_Q · f(floor((N - idx)/Δ)) for idx ≥ 1.
        let mut test_vector = vec![0u64; n_ring];
        test_vector[0] = mul_mod(delta_q, lut[0] % big_q, big_q);
        for (idx, tv) in test_vector.iter_mut().enumerate().skip(1) {
            let m = ((n_ring - idx) as u64 / delta) % t;
            *tv = neg_mod(mul_mod(delta_q, lut[m as usize], big_q), big_q);
        }

        // Rounding offset: shift the phase by Δ/2 so each message owns a
        // full Δ-wide window in [0, N).
        let (a, b) = ct.components();
        let b_shifted = (b + delta / 2) % q;

        // Blind rotation: ACC = v · X^{b'} · Π X^{-a_i s_i}.
        let init = rotate_poly(&test_vector, (b_shifted % two_n as u64) as usize, big_q);
        let mut acc = RlweCiphertext::trivial(init);
        for (ai, rgsw) in a.iter().zip(&self.blind_rotation_key) {
            let k = (two_n as u64 - (ai % two_n as u64)) % two_n as u64;
            if k == 0 {
                continue;
            }
            acc = rgsw.cmux_rotate(&acc, k as usize, &self.table, &self.decomposer);
        }

        // Sample extraction: LWE (dim N, mod Q) of the constant coefficient.
        let b_out = acc.b[0];
        let mut a_out = vec![0u64; n_ring];
        a_out[0] = acc.a[0];
        for (i, ai) in a_out.iter_mut().enumerate().skip(1) {
            *ai = neg_mod(acc.a[n_ring - i], big_q);
        }

        // Key switch to the base dimension (still mod Q).
        let n_lwe = self.params.lwe.dimension;
        let mut ks_a = vec![0u64; n_lwe];
        let mut ks_b = b_out;
        for (i, &coeff) in a_out.iter().enumerate() {
            let digits = self.ks_decomposer.decompose(std::slice::from_ref(&coeff));
            for (j, digit_poly) in digits.iter().enumerate() {
                let d = digit_poly[0];
                if d == 0 {
                    continue;
                }
                let entry = &self.key_switching_key[i][j];
                for (x, &ea) in ks_a.iter_mut().zip(&entry.a) {
                    *x = add_mod(*x, mul_mod(d, ea, big_q), big_q);
                }
                ks_b = sub_mod(ks_b, mul_mod(d, entry.b, big_q), big_q);
            }
        }
        // We accumulated +Σ d·a_entry while subtracting Σ d·b_entry from
        // b; the decryption convention b − ⟨a, s⟩ therefore needs a = −Σ.
        let ks_a: Vec<u64> = ks_a.into_iter().map(|x| neg_mod(x, big_q)).collect();

        // Modulus switch Q → q with rounding.
        let switch = |x: u64| -> u64 {
            (((x as u128 * q as u128 + (big_q / 2) as u128) / big_q as u128) % q as u128) as u64
        };
        let final_a: Vec<u64> = ks_a.iter().map(|&x| switch(x)).collect();
        let final_b = switch(ks_b);
        Ok(LweCiphertext::from_components(final_a, final_b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Reduced parameters for fast unit tests (insecure, same structure).
    fn toy_params() -> BootstrapParams {
        BootstrapParams {
            lwe: LweParams {
                dimension: 64,
                log_q: 9, // q = 512 = 2N for N = 256
                plaintext_modulus: 8,
                sigma_int: 0.4,
            },
            ring_degree: 256,
            ring_modulus_bits: 27,
            gadget_log_base: 9,
            gadget_levels: 3,
            ks_log_base: 7,
            ks_levels: 4,
            rlwe_sigma: 3.2,
        }
    }

    fn setup(params: BootstrapParams) -> (LweContext, LweSecretKey, BootstrapContext, StdRng) {
        let ctx = LweContext::new(params.lwe).expect("lwe params");
        let mut rng = StdRng::seed_from_u64(17);
        let sk = ctx.generate_key(&mut rng);
        let boot = BootstrapContext::generate(&params, &ctx, &sk, &mut rng).expect("keygen");
        (ctx, sk, boot, rng)
    }

    #[test]
    fn identity_lut_refreshes_messages() {
        let (ctx, sk, boot, mut rng) = setup(toy_params());
        let t = ctx.params().plaintext_modulus;
        let identity: Vec<u64> = (0..t).collect();
        for m in 0..t / 2 {
            let ct = ctx.encrypt(&sk, m, &mut rng).expect("encrypt");
            let out = boot.bootstrap(&ct, &identity).expect("bootstrap");
            assert_eq!(ctx.decrypt(&sk, &out), m, "identity LUT at m = {m}");
        }
    }

    #[test]
    fn nonlinear_lut_square() {
        let (ctx, sk, boot, mut rng) = setup(toy_params());
        let t = ctx.params().plaintext_modulus;
        let square: Vec<u64> = (0..t).map(|x| (x * x) % t).collect();
        for m in 0..t / 2 {
            let ct = ctx.encrypt(&sk, m, &mut rng).expect("encrypt");
            let out = boot.bootstrap(&ct, &square).expect("bootstrap");
            assert_eq!(ctx.decrypt(&sk, &out), (m * m) % t, "square LUT at m = {m}");
        }
    }

    #[test]
    fn bootstrap_after_homomorphic_additions() {
        // The use-case the paper's S IV-B2 describes: accumulate
        // homomorphically, then apply a non-linear function exactly.
        let (ctx, sk, boot, mut rng) = setup(toy_params());
        let t = ctx.params().plaintext_modulus;
        let threshold: Vec<u64> = (0..t).map(|x| u64::from(x >= 2)).collect();
        let c1 = ctx.encrypt(&sk, 1, &mut rng).expect("encrypt");
        let c2 = ctx.encrypt(&sk, 2, &mut rng).expect("encrypt");
        let sum = ctx.add(&c1, &c2).expect("add"); // encrypts 3
        let out = boot.bootstrap(&sum, &threshold).expect("bootstrap");
        assert_eq!(ctx.decrypt(&sk, &out), 1, "threshold(3) = 1");
    }

    #[test]
    fn bootstrap_output_supports_further_additions() {
        // Fresh-noise output: two bootstrapped results can be combined.
        let (ctx, sk, boot, mut rng) = setup(toy_params());
        let t = ctx.params().plaintext_modulus;
        let identity: Vec<u64> = (0..t).collect();
        let c1 = ctx.encrypt(&sk, 1, &mut rng).expect("encrypt");
        let c2 = ctx.encrypt(&sk, 2, &mut rng).expect("encrypt");
        let b1 = boot.bootstrap(&c1, &identity).expect("bootstrap");
        let b2 = boot.bootstrap(&c2, &identity).expect("bootstrap");
        let sum = ctx.add(&b1, &b2).expect("add");
        assert_eq!(ctx.decrypt(&sk, &sum), 3);
    }

    #[test]
    fn lut_validation() {
        let (ctx, sk, boot, mut rng) = setup(toy_params());
        let ct = ctx.encrypt(&sk, 1, &mut rng).expect("encrypt");
        assert!(boot.bootstrap(&ct, &[0, 1]).is_err(), "wrong LUT length");
        let bad: Vec<u64> = (0..8).map(|_| 99).collect();
        assert!(boot.bootstrap(&ct, &bad).is_err(), "LUT values out of range");
    }

    #[test]
    fn params_validation() {
        let mut p = toy_params();
        p.ring_degree = 128; // q != 2N
        assert!(p.validate().is_err());
        let mut p = toy_params();
        p.gadget_levels = 1; // 2^9 < 2^27
        assert!(p.validate().is_err());
        assert!(toy_params().validate().is_ok());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full FHEW parameters are slow in debug builds")]
    fn paper_parameters_bootstrap() {
        // The real TFHE-3 base scheme (n = 448, q = 2^10) with N = 512.
        let (ctx, sk, boot, mut rng) = setup(BootstrapParams::default());
        let t = ctx.params().plaintext_modulus;
        assert_eq!(t, 16);
        let relu_shift: Vec<u64> = (0..t).map(|x| x.saturating_sub(3)).collect();
        for m in [0u64, 2, 5, 7] {
            let ct = ctx.encrypt(&sk, m, &mut rng).expect("encrypt");
            let out = boot.bootstrap(&ct, &relu_shift).expect("bootstrap");
            assert_eq!(ctx.decrypt(&sk, &out), m.saturating_sub(3), "m = {m}");
        }
    }
}
