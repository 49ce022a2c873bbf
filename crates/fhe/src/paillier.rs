//! Paillier additively homomorphic encryption.
//!
//! The partially homomorphic scheme used by PFMLP, the baseline in the
//! paper's Table II comparison. Supports encryption, decryption,
//! ciphertext addition (plaintext addition) and plaintext-scalar
//! multiplication. Decryption uses the CRT speed-up over the key's prime
//! factors.
//!
//! Fixed-point reals are handled by [`PaillierContext::encrypt_f64`] /
//! [`PaillierContext::decrypt_f64`], mapping negative values to the upper
//! half of the message space.
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rhychee_fhe::paillier::PaillierContext;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! // 256-bit keys are for doctests only; use >= 2048 bits in practice.
//! let ctx = PaillierContext::generate(&mut rng, 256)?;
//! let c1 = ctx.encrypt_u64(20, &mut rng);
//! let c2 = ctx.encrypt_u64(22, &mut rng);
//! let sum = ctx.add(&c1, &c2);
//! assert_eq!(ctx.decrypt_u64(&sum)?, 42);
//! # Ok(())
//! # }
//! ```

use rand::Rng;

use rhychee_bigint::{gen_prime, mod_inv, BigUint, Montgomery};

use crate::error::FheError;

/// Default fixed-point scale for real-valued model weights (2^32).
const F64_SCALE: f64 = 4294967296.0;

/// A Paillier key pair plus precomputed decryption constants.
///
/// The public key is `n` (with generator `g = n + 1`); the private
/// material is the factorization `(p, q)` with CRT constants.
#[derive(Debug, Clone)]
pub struct PaillierContext {
    n: BigUint,
    n_squared: BigUint,
    half_n: BigUint,
    mont_n2: Montgomery,
    /// CRT decryption constants over the prime factors (~4× faster than
    /// the direct λ-exponentiation mod n²).
    crt: CrtDecrypt,
}

/// Precomputed constants for CRT Paillier decryption.
#[derive(Debug, Clone)]
struct CrtDecrypt {
    p: BigUint,
    q: BigUint,
    p_squared: Montgomery,
    q_squared: Montgomery,
    /// h_p = L_p(g^{p−1} mod p²)^{-1} mod p.
    h_p: BigUint,
    /// h_q = L_q(g^{q−1} mod q²)^{-1} mod q.
    h_q: BigUint,
    /// q^{-1} mod p for Garner recombination.
    q_inv_p: BigUint,
}

impl CrtDecrypt {
    fn new(p: BigUint, q: BigUint, n: &BigUint) -> Option<Self> {
        let one = BigUint::one();
        let p2 = &p * &p;
        let q2 = &q * &q;
        let p_squared = Montgomery::new(p2.clone());
        let q_squared = Montgomery::new(q2.clone());
        // g = n + 1, so g^{p-1} mod p² = 1 + (p-1)·n mod p² (binomial).
        let gp = (&one + &((&p - &one) * n)).rem_of(&p2);
        let gq = (&one + &((&q - &one) * n)).rem_of(&q2);
        let l_p = |x: &BigUint| (x - &one).div_rem(&p).0;
        let l_q = |x: &BigUint| (x - &one).div_rem(&q).0;
        let h_p = mod_inv(&l_p(&gp).rem_of(&p), &p)?;
        let h_q = mod_inv(&l_q(&gq).rem_of(&q), &q)?;
        let q_inv_p = mod_inv(&q.rem_of(&p), &p)?;
        Some(CrtDecrypt { p, q, p_squared, q_squared, h_p, h_q, q_inv_p })
    }

    /// Decrypts via the two prime-power subgroups and Garner's formula.
    fn decrypt(&self, ct: &BigUint) -> BigUint {
        let one = BigUint::one();
        let exp_p = &self.p - &one;
        let exp_q = &self.q - &one;
        let up = self.p_squared.pow(&ct.rem_of(self.p_squared.modulus()), &exp_p);
        let uq = self.q_squared.pow(&ct.rem_of(self.q_squared.modulus()), &exp_q);
        let m_p = ((up - &one).div_rem(&self.p).0 * &self.h_p).rem_of(&self.p);
        let m_q = ((uq - &one).div_rem(&self.q).0 * &self.h_q).rem_of(&self.q);
        // Garner: m = m_q + q * ((m_p - m_q) * q^{-1} mod p).
        let diff = if m_p >= m_q.rem_of(&self.p) {
            &m_p - &m_q.rem_of(&self.p)
        } else {
            &self.p - &(&m_q.rem_of(&self.p) - &m_p)
        };
        let t = (&diff * &self.q_inv_p).rem_of(&self.p);
        m_q + &(&self.q * &t)
    }
}

/// A Paillier ciphertext (an element of `Z_{n²}^*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCiphertext(BigUint);

impl PaillierCiphertext {
    /// Serialized big-endian byte representation.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        self.0.to_bytes_be()
    }

    /// Size of this ciphertext in bits.
    pub fn bits(&self) -> usize {
        self.0.bits()
    }
}

impl PaillierContext {
    /// Generates a key pair with an `n` of `modulus_bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if `modulus_bits < 64` or odd.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Result<Self, FheError> {
        if modulus_bits < 64 || !modulus_bits.is_multiple_of(2) {
            return Err(FheError::InvalidParams(format!(
                "Paillier modulus must be an even bit count >= 64, got {modulus_bits}"
            )));
        }
        let half = modulus_bits / 2;
        let (p, q) = loop {
            let p = gen_prime(rng, half);
            let q = gen_prime(rng, half);
            if p != q {
                break (p, q);
            }
        };
        let n = &p * &q;
        let n_squared = &n * &n;
        let mont_n2 = Montgomery::new(n_squared.clone());
        let crt = CrtDecrypt::new(p, q, &n)
            .ok_or_else(|| FheError::InvalidParams("CRT constants not invertible".into()))?;
        let half_n = &n >> 1;
        Ok(PaillierContext { n, n_squared, half_n, mont_n2, crt })
    }

    /// The public modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Size of one ciphertext in bits (`2 · |n|`).
    pub fn ciphertext_bits(&self) -> usize {
        self.n.bits() * 2
    }

    /// Encrypts a non-negative integer `m < n`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= n` (callers encrypting model weights go through
    /// the checked fixed-point API).
    pub fn encrypt(&self, m: &BigUint, rng: &mut (impl Rng + ?Sized)) -> PaillierCiphertext {
        assert!(m < &self.n, "plaintext must be below the modulus");
        // c = (1 + m·n) · r^n mod n², using g = n + 1.
        let r = loop {
            let r = BigUint::random_below(rng, &self.n);
            if !r.is_zero() && r.gcd(&self.n).is_one() {
                break r;
            }
        };
        let gm = (BigUint::one() + m * &self.n).rem_of(&self.n_squared);
        let rn = self.mont_n2.pow(&r, &self.n);
        PaillierCiphertext(self.mont_n2.mul(&gm, &rn))
    }

    /// Encrypts a `u64`.
    pub fn encrypt_u64(&self, m: u64, rng: &mut (impl Rng + ?Sized)) -> PaillierCiphertext {
        self.encrypt(&BigUint::from(m), rng)
    }

    /// Decrypts to the integer plaintext in `[0, n)`.
    ///
    /// Uses CRT decryption over the key's prime factors (~4× faster than
    /// the direct λ-exponentiation).
    pub fn decrypt(&self, ct: &PaillierCiphertext) -> BigUint {
        self.crt.decrypt(&ct.0)
    }

    /// Decrypts to a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::MessageOutOfRange`] if the plaintext exceeds
    /// `u64::MAX`.
    pub fn decrypt_u64(&self, ct: &PaillierCiphertext) -> Result<u64, FheError> {
        let m = self.decrypt(ct);
        u64::try_from(&m)
            .map_err(|()| FheError::MessageOutOfRange { value: i64::MAX, modulus: u64::MAX })
    }

    /// Encrypts a real value at fixed-point scale 2^32.
    ///
    /// Negative values map to the upper half of `Z_n` (two's-complement
    /// style), so homomorphic sums of mixed-sign values decode correctly
    /// as long as magnitudes stay below `n / 2^34`.
    pub fn encrypt_f64(&self, v: f64, rng: &mut (impl Rng + ?Sized)) -> PaillierCiphertext {
        let scaled = (v * F64_SCALE).round();
        let m = if scaled >= 0.0 {
            Self::biguint_from_f64(scaled)
        } else {
            &self.n - &Self::biguint_from_f64(-scaled)
        };
        self.encrypt(&m.rem_of(&self.n), rng)
    }

    /// Decrypts a fixed-point real encrypted with
    /// [`PaillierContext::encrypt_f64`].
    pub fn decrypt_f64(&self, ct: &PaillierCiphertext) -> f64 {
        let m = self.decrypt(ct);
        if m > self.half_n {
            -(Self::biguint_to_f64(&(&self.n - &m)) / F64_SCALE)
        } else {
            Self::biguint_to_f64(&m) / F64_SCALE
        }
    }

    /// Homomorphic addition: `Dec(add(c1, c2)) = m1 + m2 mod n`.
    pub fn add(&self, c1: &PaillierCiphertext, c2: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(self.mont_n2.mul(&c1.0, &c2.0))
    }

    /// Homomorphic plaintext multiplication: `Dec(mul(c, k)) = k·m mod n`.
    pub fn mul_scalar(&self, c: &PaillierCiphertext, k: &BigUint) -> PaillierCiphertext {
        PaillierCiphertext(self.mont_n2.pow(&c.0, k))
    }

    fn biguint_from_f64(v: f64) -> BigUint {
        debug_assert!(v >= 0.0 && v.is_finite());
        if v < 1.8446744073709552e19 {
            BigUint::from(v as u64)
        } else {
            // Decompose into 32-bit chunks (model weights never get here,
            // but completeness is cheap).
            let hi = (v / 4294967296.0).floor();
            Self::biguint_from_f64(hi) * BigUint::from(1u64 << 32)
                + BigUint::from((v % 4294967296.0) as u64)
        }
    }

    fn biguint_to_f64(v: &BigUint) -> f64 {
        let mut acc = 0.0f64;
        for &limb in v.limbs().iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn ctx() -> (PaillierContext, StdRng) {
        let mut rng = StdRng::seed_from_u64(77);
        let ctx = PaillierContext::generate(&mut rng, 256).expect("keygen");
        (ctx, rng)
    }

    #[test]
    fn keygen_is_pinned_at_a_fixed_seed() {
        let (ctx, _) = ctx();
        assert_eq!(
            format!("{:x}", ctx.modulus()),
            "e9be755cf6eb190092de2b991cf561eb2c71c692ca11aa5dd4c7ecf5e5b6f6bb"
        );
    }

    #[test]
    fn encrypt_decrypt_integers() {
        let (ctx, mut rng) = ctx();
        for m in [0u64, 1, 42, u32::MAX as u64, u64::MAX] {
            let ct = ctx.encrypt_u64(m, &mut rng);
            assert_eq!(ctx.decrypt_u64(&ct).expect("fits"), m);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let (ctx, mut rng) = ctx();
        let c1 = ctx.encrypt_u64(5, &mut rng);
        let c2 = ctx.encrypt_u64(5, &mut rng);
        assert_ne!(c1, c2, "probabilistic encryption");
        assert_eq!(ctx.decrypt_u64(&c1).unwrap(), ctx.decrypt_u64(&c2).unwrap());
    }

    #[test]
    fn homomorphic_addition() {
        let (ctx, mut rng) = ctx();
        let c1 = ctx.encrypt_u64(1234, &mut rng);
        let c2 = ctx.encrypt_u64(8766, &mut rng);
        assert_eq!(ctx.decrypt_u64(&ctx.add(&c1, &c2)).unwrap(), 10_000);
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let (ctx, mut rng) = ctx();
        let c = ctx.encrypt_u64(111, &mut rng);
        let c3 = ctx.mul_scalar(&c, &BigUint::from(3u64));
        assert_eq!(ctx.decrypt_u64(&c3).unwrap(), 333);
    }

    #[test]
    fn fixed_point_reals_round_trip() {
        let (ctx, mut rng) = ctx();
        for v in [0.0f64, 1.5, -2.75, 1e-6, -1e-6, 12345.678, -99999.25] {
            let ct = ctx.encrypt_f64(v, &mut rng);
            let back = ctx.decrypt_f64(&ct);
            assert!((back - v).abs() < 1e-6, "{v} vs {back}");
        }
    }

    #[test]
    fn fixed_point_sums_with_mixed_signs() {
        let (ctx, mut rng) = ctx();
        let values = [0.5f64, -1.25, 3.0, -0.125, 2.5];
        let expected: f64 = values.iter().sum();
        let mut acc = ctx.encrypt_f64(values[0], &mut rng);
        for &v in &values[1..] {
            acc = ctx.add(&acc, &ctx.encrypt_f64(v, &mut rng));
        }
        assert!((ctx.decrypt_f64(&acc) - expected).abs() < 1e-6);
    }

    #[test]
    fn federated_average_pattern() {
        // Sum then scalar-divide happens in plaintext after decryption for
        // Paillier (no fractional scalars); PFMLP sums and divides client-side.
        let (ctx, mut rng) = ctx();
        let clients = 8u64;
        let mut acc = ctx.encrypt_f64(0.25, &mut rng);
        for _ in 1..clients {
            acc = ctx.add(&acc, &ctx.encrypt_f64(0.25, &mut rng));
        }
        let total = ctx.decrypt_f64(&acc);
        assert!((total / clients as f64 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn ciphertext_size_is_twice_modulus() {
        let (ctx, mut rng) = ctx();
        assert_eq!(ctx.ciphertext_bits(), 512);
        let ct = ctx.encrypt_u64(1, &mut rng);
        assert!(ct.bits() <= 512);
        assert!(!ct.to_bytes_be().is_empty());
    }

    /// Textbook (non-CRT) decryption, the oracle for the CRT path:
    /// `m = L(c^λ mod n²) · μ mod n` with `λ = lcm(p−1, q−1)`,
    /// `L(u) = (u − 1)/n` and, since `g = n + 1`, `μ = λ⁻¹ mod n`.
    fn decrypt_direct(ctx: &PaillierContext, ct: &PaillierCiphertext) -> BigUint {
        let one = BigUint::one();
        let lambda = (&ctx.crt.p - &one).lcm(&(&ctx.crt.q - &one));
        let mu = mod_inv(&lambda.rem_of(&ctx.n), &ctx.n).expect("λ invertible mod n");
        let u = ctx.mont_n2.pow(&ct.0, &lambda);
        let l = (&u - &one).div_rem(&ctx.n).0;
        (l * &mu).rem_of(&ctx.n)
    }

    #[test]
    fn crt_decryption_matches_direct() {
        let (ctx, mut rng) = ctx();
        for m in [0u64, 1, 999_999_999, u64::MAX] {
            let ct = ctx.encrypt_u64(m, &mut rng);
            assert_eq!(ctx.decrypt(&ct), decrypt_direct(&ctx, &ct), "m = {m}");
        }
    }

    #[test]
    fn keygen_rejects_bad_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(PaillierContext::generate(&mut rng, 32).is_err());
        assert!(PaillierContext::generate(&mut rng, 129).is_err());
    }
}
