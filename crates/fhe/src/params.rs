//! FHE parameter sets, including the seven sets evaluated in the paper
//! (Table III). All sets meet the 128-bit security level per the
//! homomorphicencryption.org standard tables for their (N, log Q) /
//! (n, log q) combinations. For the CKKS sets a test checks it against
//! the standard's table (`ckks_sets_meet_the_128_bit_standard`); for
//! the LWE sets it is a documented claim, since checking them needs a
//! lattice estimator. This implementation is parameter-faithful but
//! has not been independently audited.

use crate::error::FheError;
use crate::sampling::MAX_SIGMA;

/// Rejects a noise σ no [`GaussianSampler`](crate::sampling::GaussianSampler)
/// can be built for.
pub(crate) fn check_sigma(sigma: f64) -> Result<(), FheError> {
    if sigma > 0.0 && sigma <= MAX_SIGMA {
        Ok(())
    } else {
        Err(FheError::InvalidParams(format!("sigma {sigma} outside (0, {MAX_SIGMA}]")))
    }
}

/// Parameters for the RNS-CKKS scheme.
///
/// The ciphertext modulus `Q = q_0 ⋯ q_L` is described by the bit size of
/// each prime in the chain; primes are materialized as the largest
/// NTT-friendly primes (`q ≡ 1 mod 2N`) of each size when a
/// [`CkksContext`](crate::ckks::CkksContext) is built.
///
/// # Examples
///
/// ```
/// use rhychee_fhe::params::CkksParams;
///
/// let p = CkksParams::ckks4();
/// assert_eq!(p.n, 8192);
/// assert_eq!(p.log_q(), 61);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CkksParams {
    /// Ring degree N (power of two). Slot count is N/2.
    pub n: usize,
    /// Bit size of each RNS prime, most-significant (kept) prime first.
    pub prime_bits: Vec<u32>,
    /// Scaling factor exponent: Δ = 2^scale_bits.
    pub scale_bits: u32,
    /// Error distribution standard deviation (σ = 3.2 standard).
    pub sigma: f64,
}

impl CkksParams {
    /// Paper parameter set CKKS-1: N = 32768, log Q = 160.
    pub fn ckks1() -> Self {
        CkksParams { n: 32768, prime_bits: vec![45, 40, 40, 35], scale_bits: 40, sigma: 3.2 }
    }

    /// Paper parameter set CKKS-2: N = 16384, log Q = 130.
    pub fn ckks2() -> Self {
        CkksParams { n: 16384, prime_bits: vec![50, 40, 40], scale_bits: 40, sigma: 3.2 }
    }

    /// Paper parameter set CKKS-3: N = 8192, log Q = 100.
    pub fn ckks3() -> Self {
        CkksParams { n: 8192, prime_bits: vec![40, 30, 30], scale_bits: 30, sigma: 3.2 }
    }

    /// Paper parameter set CKKS-4: N = 8192, log Q = 61 (reduced scaling
    /// factor; the set that minimizes communication in the paper).
    pub fn ckks4() -> Self {
        CkksParams { n: 8192, prime_bits: vec![61], scale_bits: 26, sigma: 3.2 }
    }

    /// A small insecure set for unit tests and examples (fast keygen).
    pub fn toy() -> Self {
        CkksParams { n: 512, prime_bits: vec![50, 40], scale_bits: 30, sigma: 3.2 }
    }

    /// Total ciphertext-modulus bits `log Q = Σ prime_bits`.
    pub fn log_q(&self) -> u32 {
        self.prime_bits.iter().sum()
    }

    /// Number of slots a single ciphertext packs (N/2).
    pub fn slot_count(&self) -> usize {
        self.n / 2
    }

    /// Size of one serialized RLWE ciphertext in bits: `2 · N · log Q`
    /// (Table I numerator).
    pub fn ciphertext_bits(&self) -> u64 {
        2 * self.n as u64 * u64::from(self.log_q())
    }

    /// Validates structural constraints.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if the ring degree is not a
    /// power of two ≥ 8, the prime chain is empty, any prime size is
    /// outside `[20, 62]` bits, the scale exceeds the top prime,
    /// or σ is outside `(0, 5461]`.
    pub fn validate(&self) -> Result<(), FheError> {
        if !self.n.is_power_of_two() || self.n < 8 {
            return Err(FheError::InvalidParams(format!(
                "ring degree {} must be a power of two >= 8",
                self.n
            )));
        }
        if self.prime_bits.is_empty() {
            return Err(FheError::InvalidParams("empty prime chain".into()));
        }
        if let Some(&bad) = self.prime_bits.iter().find(|&&b| !(20..=62).contains(&b)) {
            return Err(FheError::InvalidParams(format!("prime size {bad} outside [20, 62]")));
        }
        let top = *self.prime_bits.first().expect("non-empty");
        if self.scale_bits + 1 > top {
            return Err(FheError::InvalidParams(format!(
                "scale 2^{} leaves no headroom in the {top}-bit base prime",
                self.scale_bits
            )));
        }
        check_sigma(self.sigma)
    }
}

/// Parameters for the TFHE/FHEW-style LWE scheme.
///
/// # Examples
///
/// ```
/// use rhychee_fhe::params::LweParams;
///
/// let p = LweParams::tfhe1();
/// assert_eq!(p.dimension, 534);
/// assert_eq!(p.log_q, 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LweParams {
    /// LWE dimension n.
    pub dimension: usize,
    /// Ciphertext modulus exponent: q = 2^log_q.
    pub log_q: u32,
    /// Plaintext modulus t (must divide q).
    pub plaintext_modulus: u64,
    /// Error standard deviation in absolute (integer) units.
    pub sigma_int: f64,
}

impl LweParams {
    /// Paper parameter set TFHE-1: n = 534, log q = 10.
    pub fn tfhe1() -> Self {
        LweParams { dimension: 534, log_q: 10, plaintext_modulus: 16, sigma_int: 0.6 }
    }

    /// Paper parameter set TFHE-2: n = 503, log q = 10.
    pub(crate) fn tfhe2() -> Self {
        LweParams { dimension: 503, log_q: 10, plaintext_modulus: 16, sigma_int: 0.6 }
    }

    /// Paper parameter set TFHE-3: n = 448, log q = 10.
    pub fn tfhe3() -> Self {
        LweParams { dimension: 448, log_q: 10, plaintext_modulus: 16, sigma_int: 0.6 }
    }

    /// Ciphertext modulus q.
    pub fn q(&self) -> u64 {
        1u64 << self.log_q
    }

    /// Scaling gap between plaintext and ciphertext modulus, q/t.
    pub fn delta(&self) -> u64 {
        self.q() / self.plaintext_modulus
    }

    /// Size of one serialized LWE ciphertext in bits: `(n + 1) · log q`
    /// (Table I numerator).
    pub fn ciphertext_bits(&self) -> u64 {
        (self.dimension as u64 + 1) * u64::from(self.log_q)
    }

    /// Upper bound on how many fresh ciphertexts can be summed before the
    /// accumulated noise risks a decryption error.
    ///
    /// Uses the 6σ tail bound: after `k` additions the noise standard
    /// deviation is `σ·√k`, and correctness requires `6·σ·√k < q/(2t)`.
    pub fn max_additions(&self) -> usize {
        let margin = self.delta() as f64 / 2.0;
        let k = (margin / (6.0 * self.sigma_int)).powi(2);
        k.floor() as usize
    }

    /// Validates structural constraints.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] on a zero dimension, a modulus
    /// outside `[4, 32]` bits, a plaintext modulus that does not divide q,
    /// or a σ outside `(0, 5461]`.
    pub fn validate(&self) -> Result<(), FheError> {
        if self.dimension == 0 {
            return Err(FheError::InvalidParams("LWE dimension must be positive".into()));
        }
        if !(4..=32).contains(&self.log_q) {
            return Err(FheError::InvalidParams(format!(
                "log q = {} outside supported range [4, 32]",
                self.log_q
            )));
        }
        if self.plaintext_modulus < 2 || !self.q().is_multiple_of(self.plaintext_modulus) {
            return Err(FheError::InvalidParams(format!(
                "plaintext modulus {} must be >= 2 and divide q = {}",
                self.plaintext_modulus,
                self.q()
            )));
        }
        check_sigma(self.sigma_int)
    }
}

/// One row of the paper's Table III: a named parameter set of either scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamSet {
    /// A CKKS (RLWE, SIMD-packed) parameter set.
    Ckks(CkksParams),
    /// A TFHE/FHEW (LWE, single-value) parameter set.
    Tfhe(LweParams),
}

impl ParamSet {
    /// All seven paper parameter sets in Table III order.
    pub fn table3() -> Vec<(&'static str, ParamSet)> {
        vec![
            ("CKKS-1", ParamSet::Ckks(CkksParams::ckks1())),
            ("CKKS-2", ParamSet::Ckks(CkksParams::ckks2())),
            ("CKKS-3", ParamSet::Ckks(CkksParams::ckks3())),
            ("CKKS-4", ParamSet::Ckks(CkksParams::ckks4())),
            ("TFHE-1", ParamSet::Tfhe(LweParams::tfhe1())),
            ("TFHE-2", ParamSet::Tfhe(LweParams::tfhe2())),
            ("TFHE-3", ParamSet::Tfhe(LweParams::tfhe3())),
        ]
    }

    /// Communication size in bits for a model of `num_params` trainable
    /// parameters (Table I formulas).
    ///
    /// * CKKS: `⌈DL / (N/2)⌉ · 2N · log Q`
    /// * TFHE: `DL · (n + 1) · log q`
    pub fn comm_bits(&self, num_params: u64) -> u64 {
        match self {
            ParamSet::Ckks(p) => {
                let slots = p.slot_count() as u64;
                num_params.div_ceil(slots) * p.ciphertext_bits()
            }
            ParamSet::Tfhe(p) => num_params * p.ciphertext_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        let sets = ParamSet::table3();
        assert_eq!(sets.len(), 7);
        let expect = [
            ("CKKS-1", 32768u64, 160u64),
            ("CKKS-2", 16384, 130),
            ("CKKS-3", 8192, 100),
            ("CKKS-4", 8192, 61),
            ("TFHE-1", 534, 10),
            ("TFHE-2", 503, 10),
            ("TFHE-3", 448, 10),
        ];
        for ((name, set), (ename, en, elogq)) in sets.iter().zip(expect) {
            assert_eq!(*name, ename);
            match set {
                ParamSet::Ckks(p) => {
                    assert_eq!(p.n as u64, en);
                    assert_eq!(u64::from(p.log_q()), elogq);
                    p.validate().expect("valid");
                }
                ParamSet::Tfhe(p) => {
                    assert_eq!(p.dimension as u64, en);
                    assert_eq!(u64::from(p.log_q), elogq);
                    p.validate().expect("valid");
                }
            }
        }
    }

    /// The HomomorphicEncryption.org standard's 128-bit classical bound
    /// for a ternary secret: the largest log Q at each ring degree N
    /// (Albrecht et al., "Homomorphic Encryption Security Standard",
    /// 2018).
    const MAX_LOG_Q_128: [(usize, u32); 6] =
        [(1024, 27), (2048, 54), (4096, 109), (8192, 218), (16384, 438), (32768, 881)];

    /// The standard's largest log Q at degree `n`, if it tabulates `n`.
    fn max_log_q_128(n: usize) -> Option<u32> {
        MAX_LOG_Q_128.iter().find(|&&(degree, _)| degree == n).map(|&(_, log_q)| log_q)
    }

    #[test]
    fn ckks_sets_meet_the_128_bit_standard() {
        for (name, set) in ParamSet::table3() {
            if let ParamSet::Ckks(p) = set {
                let bound = max_log_q_128(p.n).unwrap_or_else(|| panic!("{name}: N not tabulated"));
                assert!(p.log_q() <= bound, "{name}: log Q {} > {bound}", p.log_q());
            }
        }
        // The toy set's degree is below the table: it is insecure.
        assert_eq!(max_log_q_128(CkksParams::toy().n), None);
    }

    #[test]
    fn comm_bits_matches_table1_formula() {
        // HDC model: D=2000, L=10 → 20,000 parameters.
        let dl = 20_000u64;
        // CKKS-4: ceil(20000/4096) = 5 ciphertexts of 2*8192*61 bits.
        let ckks4 = ParamSet::Ckks(CkksParams::ckks4());
        assert_eq!(ckks4.comm_bits(dl), 5 * 2 * 8192 * 61);
        // TFHE-1: 20000 * 535 * 10 bits.
        let tfhe1 = ParamSet::Tfhe(LweParams::tfhe1());
        assert_eq!(tfhe1.comm_bits(dl), 20_000 * 535 * 10);
        // Paper claim: CKKS-4 is 21.4x smaller than TFHE-1 at this size.
        let ratio = tfhe1.comm_bits(dl) as f64 / ckks4.comm_bits(dl) as f64;
        assert!((ratio - 21.4).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn ckks3_to_ckks4_reduction_is_39_percent() {
        let dl = 20_000u64;
        let c3 = ParamSet::Ckks(CkksParams::ckks3()).comm_bits(dl);
        let c4 = ParamSet::Ckks(CkksParams::ckks4()).comm_bits(dl);
        let reduction = 1.0 - c4 as f64 / c3 as f64;
        assert!((reduction - 0.39).abs() < 0.01, "reduction {reduction}");
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = CkksParams::toy();
        p.n = 1000; // not a power of two
        assert!(p.validate().is_err());
        let mut p = CkksParams::toy();
        p.prime_bits.clear();
        assert!(p.validate().is_err());
        let mut p = CkksParams::toy();
        p.scale_bits = 60; // no headroom in a 50-bit prime
        assert!(p.validate().is_err());

        let mut l = LweParams::tfhe1();
        l.plaintext_modulus = 3; // does not divide 1024
        assert!(l.validate().is_err());
        let mut l = LweParams::tfhe1();
        l.dimension = 0;
        assert!(l.validate().is_err());
    }

    #[test]
    fn lwe_max_additions_is_sane() {
        let p = LweParams::tfhe1();
        // delta = 64, margin 32, sigma 0.6 → (32/3.6)^2 ≈ 79.
        let k = p.max_additions();
        assert!((50..=120).contains(&k), "k = {k}");
    }

    #[test]
    fn ckks_ciphertext_bits() {
        assert_eq!(CkksParams::ckks4().ciphertext_bits(), 2 * 8192 * 61);
        assert_eq!(CkksParams::ckks1().ciphertext_bits(), 2 * 32768 * 160);
    }
}
