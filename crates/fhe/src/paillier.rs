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

use rhychee_bigint::{gen_prime, Montgomery, Uint};

use crate::error::FheError;

/// Default fixed-point scale for real-valued model weights (2^32).
const F64_SCALE: f64 = 4294967296.0;

/// The largest modulus [`PaillierContext::generate`] accepts: `n²` must fit
/// in a [`PaillierInt`].
const MAX_MODULUS_BITS: usize = 2048;

/// Every Paillier value: 4096 bits, enough for `n²` at the largest modulus.
type PaillierInt = Uint<64>;

/// `a − b` for operands every caller orders `a ≥ b`.
fn sub(mut a: PaillierInt, b: &PaillierInt) -> PaillierInt {
    assert!(!a.sub_noborrow(b), "Paillier subtraction underflow");
    a
}

/// `a + b` for operands whose sum stays below `n²`.
fn add(mut a: PaillierInt, b: &PaillierInt) -> PaillierInt {
    assert!(!a.add_nocarry(b), "Paillier sum exceeds 4096 bits");
    a
}

/// `a · b` for operands whose product stays below `n²`.
fn mul(a: &PaillierInt, b: &PaillierInt) -> PaillierInt {
    a.checked_mul(b).expect("Paillier products stay below n², which fits in 4096 bits")
}

/// A Paillier key pair plus precomputed decryption constants.
///
/// The public key is `n` (with generator `g = n + 1`); the private
/// material is the factorization `(p, q)` with CRT constants.
#[derive(Debug, Clone)]
pub struct PaillierContext {
    n: PaillierInt,
    half_n: PaillierInt,
    mont_n2: Montgomery<64>,
    /// CRT decryption over the prime factors (~4× faster than the direct
    /// λ-exponentiation mod n²).
    p: CrtPrime,
    q: CrtPrime,
    /// q⁻¹ mod p for Garner recombination.
    q_inv_p: PaillierInt,
}

/// One prime factor `p` of `n` with what decryption modulo `p` needs.
#[derive(Debug, Clone)]
struct CrtPrime {
    p: PaillierInt,
    p_minus_1: PaillierInt,
    mont_p: Montgomery<64>,
    mont_p2: Montgomery<64>,
    /// h_p = L_p(g^{p−1} mod p²)⁻¹ mod p.
    h: PaillierInt,
}

impl CrtPrime {
    fn new(p: PaillierInt, n: &PaillierInt) -> Self {
        let p_minus_1 = sub(p, &PaillierInt::ONE);
        let mut prime = CrtPrime {
            p,
            p_minus_1,
            mont_p: Montgomery::new(p),
            mont_p2: Montgomery::new(mul(&p, &p)),
            h: PaillierInt::ZERO,
        };
        let g = add(*n, &PaillierInt::ONE);
        prime.h = prime.inv(&prime.l(prime.mont_p2.pow(&g, &p_minus_1)));
        prime
    }

    /// `L_p(u) = (u − 1) / p`.
    fn l(&self, u: PaillierInt) -> PaillierInt {
        sub(u, &PaillierInt::ONE).div_rem(&self.p).0
    }

    /// `a⁻¹ mod p` by Fermat: `a^(p−2)`.
    fn inv(&self, a: &PaillierInt) -> PaillierInt {
        self.mont_p.pow(a, &sub(self.p_minus_1, &PaillierInt::ONE))
    }

    /// The plaintext modulo `p`: `L_p(c^{p−1} mod p²) · h_p mod p`.
    fn decrypt(&self, ct: &PaillierInt) -> PaillierInt {
        self.mont_p.mul(&self.l(self.mont_p2.pow(ct, &self.p_minus_1)), &self.h)
    }
}

/// A Paillier ciphertext (an element of `Z_{n²}^*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCiphertext(PaillierInt);

impl PaillierCiphertext {
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
    /// Returns [`FheError::InvalidParams`] if `modulus_bits` is odd or
    /// outside `64..=2048`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Result<Self, FheError> {
        if !(64..=MAX_MODULUS_BITS).contains(&modulus_bits) || !modulus_bits.is_multiple_of(2) {
            return Err(FheError::InvalidParams(format!(
                "Paillier modulus must be an even bit count in 64..={MAX_MODULUS_BITS}, \
                 got {modulus_bits}"
            )));
        }
        let half = modulus_bits / 2;
        let (p, q): (PaillierInt, PaillierInt) = loop {
            let p = gen_prime(rng, half);
            let q = gen_prime(rng, half);
            if p != q {
                break (p, q);
            }
        };
        let n = mul(&p, &q);
        let mont_n2 = Montgomery::new(mul(&n, &n));
        let (p, q) = (CrtPrime::new(p, &n), CrtPrime::new(q, &n));
        let q_inv_p = p.inv(&q.p);
        Ok(PaillierContext { n, half_n: n.shr(1), mont_n2, p, q, q_inv_p })
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
    pub fn encrypt(&self, m: &PaillierInt, rng: &mut (impl Rng + ?Sized)) -> PaillierCiphertext {
        assert!(m < &self.n, "plaintext must be below the modulus");
        // c = (1 + m·n) · r^n mod n², using g = n + 1.
        let r = loop {
            let r = PaillierInt::random_below(rng, &self.n);
            if !r.is_zero() && r.gcd(&self.n).is_one() {
                break r;
            }
        };
        let gm = add(mul(m, &self.n), &PaillierInt::ONE);
        let rn = self.mont_n2.pow(&r, &self.n);
        PaillierCiphertext(self.mont_n2.mul(&gm, &rn))
    }

    /// Encrypts a `u64`.
    pub fn encrypt_u64(&self, m: u64, rng: &mut (impl Rng + ?Sized)) -> PaillierCiphertext {
        self.encrypt(&PaillierInt::from(m), rng)
    }

    /// Decrypts to the integer plaintext in `[0, n)`.
    ///
    /// Decrypts modulo each prime factor and recombines with Garner's
    /// formula `m = m_q + q · ((m_p − m_q) · q⁻¹ mod p)`.
    pub fn decrypt(&self, ct: &PaillierCiphertext) -> PaillierInt {
        let (m_p, m_q) = (self.p.decrypt(&ct.0), self.q.decrypt(&ct.0));
        let mut diff = m_p;
        if diff.sub_noborrow(&m_q.div_rem(&self.p.p).1) {
            // Wrapped below zero: adding p wraps back to m_p − m_q + p.
            diff.add_nocarry(&self.p.p);
        }
        add(mul(&self.q.p, &self.p.mont_p.mul(&diff, &self.q_inv_p)), &m_q)
    }

    /// Decrypts to a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::MessageOutOfRange`] if the plaintext exceeds
    /// `u64::MAX`.
    pub fn decrypt_u64(&self, ct: &PaillierCiphertext) -> Result<u64, FheError> {
        let m = self.decrypt(ct);
        if m.bits() > 64 {
            return Err(FheError::MessageOutOfRange { value: i64::MAX, modulus: u64::MAX });
        }
        Ok(m.0[0])
    }

    /// Encrypts a real value at fixed-point scale 2^32.
    ///
    /// Negative values map to the upper half of `Z_n` (two's-complement
    /// style), so homomorphic sums of mixed-sign values decode correctly
    /// as long as magnitudes stay below `n / 2^34`.
    pub fn encrypt_f64(&self, v: f64, rng: &mut (impl Rng + ?Sized)) -> PaillierCiphertext {
        let scaled = (v * F64_SCALE).round();
        let m = if scaled >= 0.0 {
            Self::int_from_f64(scaled)
        } else {
            sub(self.n, &Self::int_from_f64(-scaled))
        };
        self.encrypt(&m.div_rem(&self.n).1, rng)
    }

    /// Decrypts a fixed-point real encrypted with
    /// [`PaillierContext::encrypt_f64`].
    pub fn decrypt_f64(&self, ct: &PaillierCiphertext) -> f64 {
        let m = self.decrypt(ct);
        if m > self.half_n {
            -(Self::int_to_f64(&sub(self.n, &m)) / F64_SCALE)
        } else {
            Self::int_to_f64(&m) / F64_SCALE
        }
    }

    /// Homomorphic addition: `Dec(add(c1, c2)) = m1 + m2 mod n`.
    pub fn add(&self, c1: &PaillierCiphertext, c2: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(self.mont_n2.mul(&c1.0, &c2.0))
    }

    /// Homomorphic plaintext multiplication: `Dec(mul(c, k)) = k·m mod n`.
    pub fn mul_scalar(&self, c: &PaillierCiphertext, k: u64) -> PaillierCiphertext {
        PaillierCiphertext(self.mont_n2.pow(&c.0, &PaillierInt::from(k)))
    }

    fn int_from_f64(v: f64) -> PaillierInt {
        debug_assert!(v >= 0.0 && v.is_finite());
        if v < 1.8446744073709552e19 {
            PaillierInt::from(v as u64)
        } else {
            // Decompose into 32-bit chunks (model weights never get here,
            // but completeness is cheap).
            let hi = (v / 4294967296.0).floor();
            let lo = PaillierInt::from((v % 4294967296.0) as u64);
            add(mul(&Self::int_from_f64(hi), &PaillierInt::from(1u64 << 32)), &lo)
        }
    }

    fn int_to_f64(v: &PaillierInt) -> f64 {
        v.0.iter().rev().fold(0.0, |acc, &limb| acc * 1.8446744073709552e19 + limb as f64)
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
            format!("{:x}", ctx.n),
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
        let c3 = ctx.mul_scalar(&c, 3);
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
        assert!(!ct.0.is_zero());
    }

    /// Textbook (non-CRT) decryption, the oracle for the CRT path:
    /// `m = L(c^λ mod n²) · μ mod n` with `λ = lcm(p−1, q−1)`,
    /// `L(u) = (u − 1)/n` and, since `g = n + 1`, `μ = λ⁻¹ mod n`, taken
    /// as `λ^(φ(n)−1)` by Euler's theorem.
    fn decrypt_direct(ctx: &PaillierContext, ct: &PaillierCiphertext) -> PaillierInt {
        let (p1, q1) = (ctx.p.p_minus_1, ctx.q.p_minus_1);
        let phi = mul(&p1, &q1);
        let lambda = phi.div_rem(&p1.gcd(&q1)).0;
        let mont_n = Montgomery::new(ctx.n);
        let mu = mont_n.pow(&lambda, &sub(phi, &PaillierInt::ONE));
        let u = ctx.mont_n2.pow(&ct.0, &lambda);
        mont_n.mul(&sub(u, &PaillierInt::ONE).div_rem(&ctx.n).0, &mu)
    }

    #[test]
    fn crt_decryption_matches_direct() {
        let (ctx, mut rng) = ctx();
        for m in [0u64, 1, 999_999_999, u64::MAX] {
            let ct = ctx.encrypt_u64(m, &mut rng);
            assert_eq!(ctx.decrypt(&ct), decrypt_direct(&ctx, &ct), "m = {m}");
        }
    }

    /// Keygen, `encrypt_u64(42)`, `encrypt_f64(−1.5)`, their `add` and the
    /// first times 3, all from `StdRng` seed 49, at 256- and 512-bit keys:
    /// `n` and the ciphertexts in hex as the `Vec`-limb integer that `Uint`
    /// replaced computed them.
    const GOLDEN: [(usize, [&str; 5]); 2] = [
        (
            256,
            [
                "b96a2605b2102bb92006583851f68dcf2c86f2309124f941a0ef891bed9570e5",
                "34cb8ab0bfa442eed16a82a234239b40040dabd673179cd67301636a3a65a2e3be152507c96fdace509f8633c198cb4d2160b98c8e74f8a7d31991c3b83e8cd",
                "1dab8cd1b816a0d34ecce0223563fbe03191996c93ca5f431f8234dc52f7f0b3e172e2dee0f50a6c0ef3d0af515092961e8a068f9015bfb97901caafe1a46b80",
                "5dd57ea944ce4416eccd55d849f2d1a01414897f5e9b47b9ce3446ed6f8478d0497c6d6c200e76e099f03ec6ebb69202908327a16e2f53f623bd4509c1e76e02",
                "7de3cbad3b40c134445df22600ac58c4a6a0507e2329aa554e31bf814cfc5c43913e8bf8240dbc6026d0f68ac118f150e9a46298552daa0c9588c76016906c59",
            ],
        ),
        (
            512,
            [
                "c1e968ddc9affb3012d9c2d05d6401797a9b08e1eb8486af59014e40ce9b4c962f5fb591013b55500096ded86c6dc7aacd741a1c703c87c00c8320fffa6ee3e1",
                "8b5ee3e72af7d5fa0950667adde4bbae5530f7c180dccb3c571180bf1a4833c9529f9134ed994b83493da72490414f2d742f85d6b0cec68fa2aadb95508627179ddb584001c6594f4be25b8983c031d234e22236b99f7267bfe95989c8d89e6b7cc615056e16b879842ee40193cd5f6a6d34c877b27010655cf203a0dd260c21",
                "6b88449e6c95dc5d1d7ad4f26dabf5eebb7dc973c0c27a3ddca234f0f107cf4201fdc305cc0cacbe3da6f829597916236fdc1d11f2c5afb9d8b0ea585c70beca52f2ec7bd1ff04320c6240fbce55edbe6b1f6ec021578ad0d841d28f28a002b1f3d9dd4b80ad2105ec249771f8a84ac8e0894b0c3709b518c3875974431759d6",
                "234cc30210a6985a69a54e6148880c5628d017a8c515a3c537f8c0f8c569d0372bc330f37a471aab9abdb61f8627c4629b9aceda024b8cf2caf9d65e78a7c5e087aae57a9cef62135d7d1302db313d2a1127dffbfd6ca39ad729ffc972823d944ea7a035bd0ae4520530de685fff03a14048144d0f580b4e7c9be7455f6b5c06",
                "b1650326e04b370e8ffa3b94d93e784afe91ede9f1bff7e708f62a883e57ea6d9f313c53095157493d6a401eb00d20f3c3398ef4f89e4c29b5b9e623d4450ba7e9de8f7ec0eb66d8719badcaa884e3479996d15ff4912075a34058eade277b99239b24ea1c4bef12c39d6d4b1fb0c7b52470bf81cfa12f27c08305a3c945543",
            ],
        ),
    ];

    #[test]
    fn ciphertexts_match_the_replaced_integer() {
        let hex = |c: &PaillierCiphertext| format!("{:x}", c.0);
        for (bits, [n, c1, c2, sum, s3]) in GOLDEN {
            let mut rng = StdRng::seed_from_u64(49);
            let ctx = PaillierContext::generate(&mut rng, bits).expect("keygen");
            let x = ctx.encrypt_u64(42, &mut rng);
            let y = ctx.encrypt_f64(-1.5, &mut rng);
            assert_eq!(format!("{:x}", ctx.n), n, "{bits}: n");
            assert_eq!(hex(&x), c1, "{bits}: encrypt_u64");
            assert_eq!(hex(&y), c2, "{bits}: encrypt_f64");
            assert_eq!(hex(&ctx.add(&x, &y)), sum, "{bits}: add");
            assert_eq!(hex(&ctx.mul_scalar(&x, 3)), s3, "{bits}: mul_scalar");
            assert_eq!(ctx.decrypt_u64(&ctx.mul_scalar(&x, 3)).expect("fits"), 126);
            assert_eq!(ctx.decrypt_f64(&y), -1.5);
        }
    }

    #[test]
    fn keygen_rejects_bad_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(PaillierContext::generate(&mut rng, 32).is_err());
        assert!(PaillierContext::generate(&mut rng, 129).is_err());
        for bits in [2050, 4096] {
            let refused = PaillierContext::generate(&mut rng, bits);
            assert!(matches!(refused, Err(FheError::InvalidParams(_))), "{bits} bits");
        }
    }
}
