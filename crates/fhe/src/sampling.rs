//! Randomness utilities shared by the FHE schemes: discrete Gaussians,
//! ternary secrets, and uniform ring elements.
//!
//! Implemented in-crate to keep the dependency footprint to `rand`
//! alone. Gaussian noise comes from one table-driven [`GaussianSampler`]
//! per σ: one PRNG word per draw, no transcendental function and no
//! rejection loop on the sampling path.

use rand::Rng;

/// Width of the first-level index: the top `FIRST_BITS` bits of a word.
const FIRST_BITS: u32 = 12;

/// First-level entry of a bucket whose words do not all map to one
/// outcome (it straddles a threshold); `i16::MIN` is no valid outcome.
const STRADDLES: i16 = i16::MIN;

/// Largest σ a [`GaussianSampler`] supports: the support `±⌈6σ⌉` has to
/// fit a first-level entry.
pub(crate) const MAX_SIGMA: f64 = 5461.0;

/// `2^64`, the number of PRNG words, as an `f64`.
const WORDS: f64 = 18_446_744_073_709_551_616.0;

/// Sampler for the discrete Gaussian `D_{Z,σ}` — `P(k) ∝ exp(−k²/2σ²)`
/// on the integers, truncated at `±⌈6σ⌉` (standard practice in lattice
/// implementations) — by table lookup: exactly one `next_u64` per draw.
///
/// `thresholds[i]` is the largest word that maps to outcome
/// `i − ⌈6σ⌉`, i.e. `⌊2^64 · P(X ≤ i − ⌈6σ⌉)⌋`, the last one `u64::MAX`,
/// so every word has an outcome and the bound is hard. The first level
/// answers from the word's top 12 bits whenever all 2^52 words of that
/// bucket share an outcome and defers to a binary search of the
/// thresholds otherwise (24 of 4096 buckets at σ = 3.2). Build it once
/// where σ is known; the tables are ≈ 8.5 KiB at σ = 3.2.
///
/// Not constant-time: the straddling buckets take the slower arm.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rhychee_fhe::sampling::GaussianSampler;
///
/// let sampler = GaussianSampler::new(3.2);
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut e = vec![0i64; 8];
/// sampler.fill(&mut rng, &mut e);
/// assert!(e.iter().all(|x| x.abs() <= 20));
/// ```
#[derive(Debug, Clone)]
pub struct GaussianSampler {
    bound: i64,
    thresholds: Vec<u64>,
    first: Box<[i16; 1 << FIRST_BITS]>,
}

impl GaussianSampler {
    /// Builds the tables for standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < sigma ≤ 5461` (parameter validation rejects
    /// such a σ before any context builds a sampler).
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma <= MAX_SIGMA, "sigma {sigma} outside (0, {MAX_SIGMA}]");
        let bound = (6.0 * sigma).ceil() as i64;
        let weights: Vec<f64> =
            (-bound..=bound).map(|k| (-((k * k) as f64) / (2.0 * sigma * sigma)).exp()).collect();
        let total: f64 = weights.iter().sum();
        let mut cumulative = 0.0;
        let mut thresholds: Vec<u64> = weights
            .iter()
            .map(|w| {
                cumulative += w;
                // The cast saturates at `u64::MAX`.
                (cumulative / total * WORDS) as u64
            })
            .collect();
        *thresholds.last_mut().expect("at least the outcome 0") = u64::MAX;

        let outcome = |word: u64| thresholds.partition_point(|&t| t < word) as i64 - bound;
        let mut first = Box::new([STRADDLES; 1 << FIRST_BITS]);
        for (bucket, entry) in first.iter_mut().enumerate() {
            let lo = (bucket as u64) << (64 - FIRST_BITS);
            let hi = lo | (u64::MAX >> FIRST_BITS);
            let (first_word, last_word) = (outcome(lo), outcome(hi));
            if first_word == last_word {
                *entry = first_word as i16;
            }
        }
        GaussianSampler { bound, thresholds, first }
    }

    /// The outcome a PRNG word maps to.
    #[inline]
    fn lookup(&self, word: u64) -> i64 {
        match self.first[(word >> (64 - FIRST_BITS)) as usize] {
            STRADDLES => self.thresholds.partition_point(|&t| t < word) as i64 - self.bound,
            k => i64::from(k),
        }
    }

    /// Draws one deviate, consuming exactly one `next_u64`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        self.lookup(rng.next_u64())
    }

    /// Fills `out` with deviates, consuming exactly `out.len()` words in
    /// slot order.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [i64]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }
}

/// Samples a uniform ternary vector over {-1, 0, 1}.
pub(crate) fn ternary_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<i64> {
    (0..n).map(|_| i64::from(rng.gen_range(-1i8..=1))).collect()
}

/// Samples a uniform binary vector over {0, 1}.
pub(crate) fn binary_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<u64> {
    (0..n).map(|_| u64::from(rng.gen::<bool>())).collect()
}

/// Samples a uniform residue vector modulo `q`.
pub(crate) fn uniform_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, q: u64) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngCore, SeedableRng};

    /// σ of every sampler the crate builds: the toy bootstrap LWE set,
    /// the Table III TFHE sets, every CKKS set, threshold smudging.
    const SIGMAS: [f64; 4] = [0.4, 0.6, 3.2, 1024.0];

    /// The thresholds `GaussianSampler::new(3.2)` must compute, pinned so
    /// a libm whose `exp` rounds differently fails here and not in a
    /// golden ciphertext. Checked against 60-digit decimal arithmetic:
    /// every entry is within 1.6 · 2⁻⁵³ of the exact cumulative
    /// probability and the statistical distance to the exact truncated
    /// `D_{Z,3.2}` is 6.3 · 2⁻⁵³.
    const THRESHOLDS_3_2: [u64; 41] = [
        0x0000_0001_c37c_d27f,
        0x0000_000d_9b15_9a02,
        0x0000_0055_b95f_064e,
        0x0000_01e4_0f06_2e34,
        0x0000_09af_7ff5_b13d,
        0x0000_2d19_8d9a_6df3,
        0x0000_bf07_c2f1_5f98,
        0x0002_e06a_072e_a660,
        0x000a_1907_f127_e4b3,
        0x0020_4c0f_b022_2228,
        0x005e_3165_c1f6_eb60,
        0x00fa_b6a9_a61d_5e58,
        0x0261_b170_54d2_5e20,
        0x054c_6936_3c89_0600,
        0x0acd_2766_d6a8_f480,
        0x1437_96b5_3f65_3000,
        0x22d4_3df1_e687_1a00,
        0x3765_1d97_aa68_3e00,
        0x51a5_da2b_e470_9800,
        0x700a_d4bf_92b7_ec00,
        0x8ff5_2b40_6d48_2000,
        0xae5a_25d4_1b8f_7000,
        0xc89a_e268_5597_c800,
        0xdd2b_c20e_1978_f000,
        0xebc8_694a_c09a_d800,
        0xf532_d899_2957_1800,
        0xfab3_96c9_c377_0000,
        0xfd9e_4e8f_ab2d_a800,
        0xff05_4956_59e2_a800,
        0xffa1_ce9a_3e09_1000,
        0xffdf_b3f0_4fdd_e000,
        0xfff5_e6f8_0ed8_1000,
        0xfffd_1f95_f8d1_5800,
        0xffff_40f8_3d0e_a000,
        0xffff_d2e6_7265_9800,
        0xffff_f650_800a_5000,
        0xffff_fe1b_f0f9_d800,
        0xffff_ffaa_46a0_f800,
        0xffff_fff2_64ea_6800,
        0xffff_fffe_3c83_3000,
        u64::MAX,
    ];

    fn bound(sigma: f64) -> i64 {
        (6.0 * sigma).ceil() as i64
    }

    /// The lookup's specification: walk the thresholds in order, no
    /// first-level table, no binary search.
    fn linear_scan(s: &GaussianSampler, word: u64) -> i64 {
        let index = s.thresholds.iter().take_while(|&&t| t < word).count();
        index as i64 - s.bound
    }

    /// `P(outcome i)` exactly as the table realises it.
    fn table_probabilities(s: &GaussianSampler) -> Vec<f64> {
        let mut below = 0u128;
        s.thresholds
            .iter()
            .map(|&t| {
                let words = u128::from(t) + 1 - below;
                below = u128::from(t) + 1;
                words as f64 / WORDS
            })
            .collect()
    }

    /// The `e`-th moment about 0 of the distribution the table realises.
    fn table_moment(s: &GaussianSampler, e: i32) -> f64 {
        let outcomes = -s.bound..=s.bound;
        table_probabilities(s).iter().zip(outcomes).map(|(&p, k)| p * (k as f64).powi(e)).sum()
    }

    #[test]
    fn thresholds_for_sigma_3_2_are_pinned() {
        let s = GaussianSampler::new(3.2);
        assert_eq!(s.bound, 20);
        assert_eq!(s.thresholds, THRESHOLDS_3_2);
        let straddling = s.first.iter().filter(|&&k| k == STRADDLES).count();
        assert_eq!(straddling, 24, "buckets that fall back to the search");
    }

    #[test]
    fn tables_are_well_formed() {
        for sigma in SIGMAS {
            let s = GaussianSampler::new(sigma);
            assert_eq!(s.thresholds.len() as i64, 2 * bound(sigma) + 1);
            assert!(s.thresholds.windows(2).all(|w| w[0] < w[1]), "sigma {sigma}: not increasing");
            assert_eq!(s.thresholds.last(), Some(&u64::MAX));
            let p = table_probabilities(&s);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            // Symmetric about 0 and peaked there.
            let k = p.len();
            for i in 0..k / 2 {
                assert!((p[i] - p[k - 1 - i]).abs() < 1e-15, "sigma {sigma}: asymmetric at {i}");
                assert!(p[i] < p[i + 1]);
            }
        }
    }

    #[test]
    fn two_level_lookup_equals_linear_scan() {
        for sigma in SIGMAS {
            let s = GaussianSampler::new(sigma);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..100_000 {
                let word = rng.next_u64();
                assert_eq!(s.lookup(word), linear_scan(&s, word), "sigma {sigma}, word {word:#x}");
            }
            // Every word at which either level can change its answer:
            // each threshold and each bucket edge, one word to each side.
            let edges = (0..1u64 << FIRST_BITS).map(|b| b << (64 - FIRST_BITS));
            for at in s.thresholds.iter().copied().chain(edges) {
                for word in [at.wrapping_sub(1), at, at.wrapping_add(1)] {
                    assert_eq!(
                        s.lookup(word),
                        linear_scan(&s, word),
                        "sigma {sigma}, boundary word {word:#x}"
                    );
                }
            }
            assert_eq!(s.lookup(0), -bound(sigma));
            assert_eq!(s.lookup(u64::MAX), bound(sigma));
        }
    }

    #[test]
    fn draws_respect_the_hard_bound() {
        for sigma in SIGMAS {
            let s = GaussianSampler::new(sigma);
            let mut rng = StdRng::seed_from_u64(2);
            let b = bound(sigma);
            for _ in 0..1_000_000 {
                let x = s.sample(&mut rng);
                assert!((-b..=b).contains(&x), "sigma {sigma}: drew {x}");
            }
        }
    }

    #[test]
    fn draws_follow_the_table_distribution() {
        let sigma = 3.2;
        let s = GaussianSampler::new(sigma);
        let p = table_probabilities(&s);
        let n = 1_000_000usize;
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u64; p.len()];
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = s.sample(&mut rng);
            counts[(x + s.bound) as usize] += 1;
            sum += x as f64;
            sum_sq += (x * x) as f64;
        }

        // Pearson χ² against the table's exact probabilities: 2⌈6σ⌉ = 40
        // degrees of freedom over the 41 outcomes, less the bins pooled
        // because their expectation is under 5 — at 10⁶ draws |k| ≥ 15
        // on each side, which leaves 29.
        let (mut chi2, mut bins) = (0.0f64, 0usize);
        let (mut pooled_seen, mut pooled_expected) = (0.0f64, 0.0f64);
        for (&seen, &pi) in counts.iter().zip(&p) {
            let expected = pi * n as f64;
            if expected < 5.0 {
                pooled_seen += seen as f64;
                pooled_expected += expected;
            } else {
                chi2 += (seen as f64 - expected).powi(2) / expected;
                bins += 1;
            }
        }
        if pooled_expected > 0.0 {
            chi2 += (pooled_seen - pooled_expected).powi(2) / pooled_expected;
            bins += 1;
        }
        let dof = (bins - 1) as f64;
        assert_eq!(bins, 30, "|k| ≤ 14 and one pooled tail bin");
        // χ²_ν has mean ν and variance 2ν; four standard deviations.
        assert!(chi2 < dof + 4.0 * (2.0 * dof).sqrt(), "chi2 {chi2} at {dof} dof");
        // A sampler stuck on too few outcomes also fails low.
        assert!(chi2 > dof - 4.0 * (2.0 * dof).sqrt(), "chi2 {chi2} at {dof} dof");

        // Mean and variance within three standard errors of the table's.
        let (var, m4) = (table_moment(&s, 2), table_moment(&s, 4));
        assert!((var - 10.24).abs() < 1e-6, "discrete, not rounded-continuous (10.32): {var}");
        let mean_hat = sum / n as f64;
        let var_hat = sum_sq / n as f64 - mean_hat * mean_hat;
        assert!(mean_hat.abs() < 3.0 * (var / n as f64).sqrt(), "mean {mean_hat}");
        let var_se = ((m4 - var * var) / n as f64).sqrt();
        assert!((var_hat - var).abs() < 3.0 * var_se, "variance {var_hat} vs {var}");
    }

    #[test]
    fn empirical_std_is_close_to_sigma_at_every_sigma_in_use() {
        // σ = 0.4 and 0.6 are far from the continuous limit: the
        // discrete Gaussian's own deviation is what the draws must match.
        for sigma in SIGMAS {
            let s = GaussianSampler::new(sigma);
            let var = table_moment(&s, 2);
            let mut rng = StdRng::seed_from_u64(3);
            let n = 200_000;
            let var_hat =
                (0..n).map(|_| s.sample(&mut rng) as f64).map(|x| x * x).sum::<f64>() / n as f64;
            assert!((var_hat.sqrt() - var.sqrt()).abs() < 0.02 * sigma, "sigma {sigma}");
            if sigma >= 3.2 {
                assert!((var.sqrt() - sigma).abs() < 1e-3 * sigma, "sigma {sigma}: {}", var.sqrt());
            }
        }
    }

    #[test]
    fn fill_draws_one_word_per_slot_in_slot_order() {
        let s = GaussianSampler::new(3.2);
        let mut filled = vec![0i64; 1000];
        s.fill(&mut StdRng::seed_from_u64(9), &mut filled);
        let mut rng = StdRng::seed_from_u64(9);
        let one_by_one: Vec<i64> = (0..1000).map(|_| s.lookup(rng.next_u64())).collect();
        assert_eq!(filled, one_by_one);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn oversized_sigma_panics() {
        GaussianSampler::new(6000.0);
    }

    #[test]
    fn ternary_values_in_range_and_balanced() {
        let mut rng = StdRng::seed_from_u64(4);
        let v = ternary_vec(&mut rng, 30_000);
        assert!(v.iter().all(|&x| (-1..=1).contains(&x)));
        let zeros = v.iter().filter(|&&x| x == 0).count() as f64 / v.len() as f64;
        assert!((zeros - 1.0 / 3.0).abs() < 0.02);
    }

    #[test]
    fn uniform_values_below_modulus() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = 12_289;
        let v = uniform_vec(&mut rng, 10_000, q);
        assert!(v.iter().all(|&x| x < q));
        let mean = v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!((mean - q as f64 / 2.0).abs() < q as f64 * 0.02);
    }

    #[test]
    fn binary_vec_is_zero_one() {
        let mut rng = StdRng::seed_from_u64(6);
        let v = binary_vec(&mut rng, 1000);
        assert!(v.iter().all(|&x| x <= 1));
        assert!(v.contains(&0) && v.contains(&1));
    }
}
