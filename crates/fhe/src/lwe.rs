//! TFHE/FHEW-style single-value LWE encryption.
//!
//! Encrypts one integer modulo `t` per ciphertext as `(a, b) ∈ Z_q^{n+1}`
//! with `b = ⟨a, s⟩ + Δ·m + e`, `Δ = q/t`. Supports homomorphic addition
//! and small-scalar multiplication — the single-value counterpart to
//! CKKS in the paper's design-space study (Table I / Fig. 4).
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rhychee_fhe::lwe::LweContext;
//! use rhychee_fhe::params::LweParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = LweContext::new(LweParams::tfhe1())?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let sk = ctx.generate_key(&mut rng);
//! let ct = ctx.encrypt(&sk, 5, &mut rng)?;
//! assert_eq!(ctx.decrypt(&sk, &ct), 5);
//! # Ok(())
//! # }
//! ```

use rand::Rng;

use crate::bitpack::{BitReader, BitWriter};
use crate::error::FheError;
use crate::params::LweParams;
use crate::sampling::{binary_vec, GaussianSampler};

/// LWE evaluation context.
#[derive(Debug, Clone)]
pub struct LweContext {
    params: LweParams,
    /// Error sampler for `params.sigma_int`, built once here.
    noise: GaussianSampler,
}

/// An LWE secret key: a binary vector of length `n`.
#[derive(Debug, Clone)]
pub struct LweSecretKey {
    s: Vec<u64>,
}

impl LweSecretKey {
    /// The secret bits (used by the bootstrapping key generator).
    pub fn bits(&self) -> &[u64] {
        &self.s
    }
}

/// An LWE ciphertext `(a, b)` encrypting one value modulo `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext {
    a: Vec<u64>,
    b: u64,
}

impl LweCiphertext {
    /// Views the mask vector and body.
    pub(crate) fn components(&self) -> (&[u64], u64) {
        (&self.a, self.b)
    }

    /// Assembles a ciphertext from raw components (used by the
    /// bootstrapping pipeline; values must already be reduced mod q).
    pub(crate) fn from_components(a: Vec<u64>, b: u64) -> Self {
        LweCiphertext { a, b }
    }
}

impl LweContext {
    /// Creates a context after validating `params`.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if the parameters are invalid.
    pub fn new(params: LweParams) -> Result<Self, FheError> {
        params.validate()?;
        Ok(LweContext { params, noise: GaussianSampler::new(params.sigma_int) })
    }

    /// The parameter set of this context.
    pub fn params(&self) -> &LweParams {
        &self.params
    }

    /// Generates a binary secret key.
    pub fn generate_key<R: Rng + ?Sized>(&self, rng: &mut R) -> LweSecretKey {
        LweSecretKey { s: binary_vec(rng, self.params.dimension) }
    }

    /// Encrypts a message in `[0, t)`.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::MessageOutOfRange`] if `m ≥ t`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        sk: &LweSecretKey,
        m: u64,
        rng: &mut R,
    ) -> Result<LweCiphertext, FheError> {
        let t = self.params.plaintext_modulus;
        if m >= t {
            return Err(FheError::MessageOutOfRange { value: m as i64, modulus: t });
        }
        let q = self.params.q();
        let a: Vec<u64> = (0..self.params.dimension).map(|_| rng.gen_range(0..q)).collect();
        let inner: u64 =
            a.iter().zip(&sk.s).map(|(&ai, &si)| ai.wrapping_mul(si)).fold(0u64, u64::wrapping_add)
                % q;
        let e = self.noise.sample(rng);
        let e_mod = e.rem_euclid(q as i64) as u64;
        let b = (inner + self.params.delta() * m + e_mod) % q;
        Ok(LweCiphertext { a, b })
    }

    /// Decrypts to the message in `[0, t)`, rounding away the noise.
    pub fn decrypt(&self, sk: &LweSecretKey, ct: &LweCiphertext) -> u64 {
        let q = self.params.q();
        let t = self.params.plaintext_modulus;
        let inner: u64 =
            ct.a.iter()
                .zip(&sk.s)
                .map(|(&ai, &si)| ai.wrapping_mul(si))
                .fold(0u64, u64::wrapping_add)
                % q;
        let phase = (ct.b + q - inner) % q;
        // Round to the nearest multiple of Δ.
        let delta = self.params.delta();
        ((phase + delta / 2) / delta) % t
    }

    /// Homomorphic addition modulo q (plaintexts add modulo t).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if dimensions mismatch.
    pub fn add(&self, x: &LweCiphertext, y: &LweCiphertext) -> Result<LweCiphertext, FheError> {
        if x.a.len() != y.a.len() {
            return Err(FheError::InvalidParams("ciphertext dimension mismatch".into()));
        }
        let q = self.params.q();
        let a = x.a.iter().zip(&y.a).map(|(&u, &v)| (u + v) % q).collect();
        Ok(LweCiphertext { a, b: (x.b + y.b) % q })
    }

    /// In-place homomorphic addition (`acc += ct`).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if dimensions mismatch.
    pub fn add_assign(&self, acc: &mut LweCiphertext, ct: &LweCiphertext) -> Result<(), FheError> {
        if acc.a.len() != ct.a.len() {
            return Err(FheError::InvalidParams("ciphertext dimension mismatch".into()));
        }
        let q = self.params.q();
        for (u, &v) in acc.a.iter_mut().zip(&ct.a) {
            *u = (*u + v) % q;
        }
        acc.b = (acc.b + ct.b) % q;
        Ok(())
    }

    /// Multiplies the plaintext by a small non-negative integer scalar.
    ///
    /// Noise grows linearly in `k`; callers must keep `k · m < t`.
    pub fn mul_scalar(&self, ct: &LweCiphertext, k: u64) -> LweCiphertext {
        let q = self.params.q();
        let kq = k % q;
        let a =
            ct.a.iter()
                .map(|&ai| (u128::from(ai) * u128::from(kq) % u128::from(q)) as u64)
                .collect();
        let b = (u128::from(ct.b) * u128::from(kq) % u128::from(q)) as u64;
        LweCiphertext { a, b }
    }

    /// Serializes with exact `log q`-bit packing, matching the
    /// `(n+1)·log q` size accounting of Table I.
    pub fn serialize(&self, ct: &LweCiphertext) -> Vec<u8> {
        let bits = self.params.log_q;
        let mut w = BitWriter::appending(Vec::with_capacity(self.serialized_len()));
        w.write_row(&ct.a, bits);
        w.write_bits(ct.b, bits);
        w.into_bytes()
    }

    /// Exact serialized size in bytes of one ciphertext:
    /// `⌈(n+1)·log q / 8⌉`.
    pub fn serialized_len(&self) -> usize {
        ((self.params.dimension + 1) * self.params.log_q as usize).div_ceil(8)
    }

    /// Deserializes a ciphertext produced by [`LweContext::serialize`].
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Deserialize`] if the byte length does not
    /// match [`LweContext::serialized_len`] (truncated or oversized
    /// input).
    pub fn deserialize(&self, bytes: &[u8]) -> Result<LweCiphertext, FheError> {
        let expected = self.serialized_len();
        if bytes.len() != expected {
            return Err(FheError::Deserialize(format!(
                "{} bytes for an LWE ciphertext, expected {expected}",
                bytes.len()
            )));
        }
        let bits = self.params.log_q;
        let mut r = BitReader::new(bytes);
        let mut a = vec![0u64; self.params.dimension];
        r.read_row_with(&mut a, bits, |s, v| *s = v)?;
        let b = r.read_bits(bits)?;
        Ok(LweCiphertext { a, b })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup() -> (LweContext, LweSecretKey, StdRng) {
        let ctx = LweContext::new(LweParams::tfhe1()).expect("valid params");
        let mut rng = StdRng::seed_from_u64(31);
        let sk = ctx.generate_key(&mut rng);
        (ctx, sk, rng)
    }

    #[test]
    fn encrypt_decrypt_all_messages() {
        let (ctx, sk, mut rng) = setup();
        for m in 0..ctx.params().plaintext_modulus {
            let ct = ctx.encrypt(&sk, m, &mut rng).expect("encrypt");
            assert_eq!(ctx.decrypt(&sk, &ct), m, "message {m}");
        }
    }

    #[test]
    fn message_out_of_range_rejected() {
        let (ctx, sk, mut rng) = setup();
        let t = ctx.params().plaintext_modulus;
        assert!(matches!(ctx.encrypt(&sk, t, &mut rng), Err(FheError::MessageOutOfRange { .. })));
    }

    #[test]
    fn homomorphic_addition_mod_t() {
        let (ctx, sk, mut rng) = setup();
        let t = ctx.params().plaintext_modulus;
        for (x, y) in [(1u64, 2u64), (7, 8), (15, 15), (0, 0)] {
            let cx = ctx.encrypt(&sk, x, &mut rng).expect("encrypt");
            let cy = ctx.encrypt(&sk, y, &mut rng).expect("encrypt");
            let sum = ctx.add(&cx, &cy).expect("add");
            assert_eq!(ctx.decrypt(&sk, &sum), (x + y) % t);
        }
    }

    #[test]
    fn aggregation_of_many_clients() {
        // Sum 50 fresh encryptions of 0/1 votes — inside the noise budget
        // computed by LweParams::max_additions.
        let (ctx, sk, mut rng) = setup();
        assert!(ctx.params().max_additions() >= 50);
        let votes: Vec<u64> = (0..50).map(|i| u64::from(i % 3 == 0)).collect();
        let expected: u64 = votes.iter().sum::<u64>() % ctx.params().plaintext_modulus;
        let mut acc = ctx.encrypt(&sk, votes[0], &mut rng).expect("encrypt");
        for &v in &votes[1..] {
            let ct = ctx.encrypt(&sk, v, &mut rng).expect("encrypt");
            ctx.add_assign(&mut acc, &ct).expect("add");
        }
        assert_eq!(ctx.decrypt(&sk, &acc), expected);
    }

    #[test]
    fn scalar_multiplication() {
        let (ctx, sk, mut rng) = setup();
        let ct = ctx.encrypt(&sk, 3, &mut rng).expect("encrypt");
        let ct4 = ctx.mul_scalar(&ct, 4);
        assert_eq!(ctx.decrypt(&sk, &ct4), 12);
        let ct0 = ctx.mul_scalar(&ct, 0);
        assert_eq!(ctx.decrypt(&sk, &ct0), 0);
    }

    #[test]
    fn serialization_round_trip_and_size() {
        let (ctx, sk, mut rng) = setup();
        let ct = ctx.encrypt(&sk, 7, &mut rng).expect("encrypt");
        let bytes = ctx.serialize(&ct);
        // (n + 1) * log q bits = 535 * 10 = 5350 bits = 669 bytes.
        assert_eq!(bytes.len(), (535 * 10usize).div_ceil(8));
        assert_eq!(bytes.len() as u64 * 8 / 8, ctx.params().ciphertext_bits().div_ceil(8));
        let back = ctx.deserialize(&bytes).expect("deserialize");
        assert_eq!(ctx.decrypt(&sk, &back), 7);
        assert_eq!(bytes.len(), ctx.serialized_len());
    }

    #[test]
    fn deserialize_rejects_wrong_length() {
        let (ctx, sk, mut rng) = setup();
        let ct = ctx.encrypt(&sk, 3, &mut rng).expect("encrypt");
        let mut bytes = ctx.serialize(&ct);
        assert!(ctx.deserialize(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        bytes.push(0);
        assert!(ctx.deserialize(&bytes).is_err(), "trailing garbage");
        assert!(ctx.deserialize(&[]).is_err(), "empty");
    }

    #[test]
    fn bit_flip_corrupts_decryption_sometimes() {
        // A flip in a high-order bit of b shifts the phase by q/2 —
        // guaranteed corruption.
        let (ctx, sk, mut rng) = setup();
        let ct = ctx.encrypt(&sk, 2, &mut rng).expect("encrypt");
        let mut bytes = ctx.serialize(&ct);
        let total_bits = 535 * 10;
        let b_msb_bit = total_bits - 1; // last bit = MSB of b
        bytes[b_msb_bit / 8] ^= 1 << (b_msb_bit % 8);
        let corrupted = ctx.deserialize(&bytes).expect("parseable");
        assert_ne!(ctx.decrypt(&sk, &corrupted), 2);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (ctx, sk, mut rng) = setup();
        let ctx2 = LweContext::new(LweParams::tfhe3()).expect("valid");
        let sk2 = ctx2.generate_key(&mut rng);
        let x = ctx.encrypt(&sk, 1, &mut rng).expect("encrypt");
        let y = ctx2.encrypt(&sk2, 1, &mut rng).expect("encrypt");
        assert!(ctx.add(&x, &y).is_err());
    }
}
