//! CKKS context, keys, ciphertexts and homomorphic operations.
//!
//! Supports exactly the operation set Rhychee-FL needs (paper §II-A):
//! encryption, decryption, ciphertext-ciphertext addition, and
//! multiplication by a plaintext scalar, plus rescaling. No
//! relinearization or bootstrapping is required because federated
//! averaging is linear.
//!
//! Every ciphertext is evaluation-domain, always: keys carry
//! evaluation-domain copies built once at keygen, encryption produces
//! evaluation rows, both wire formats carry those rows as they are, and
//! the additive operations are pointwise on them. The only transform a
//! ciphertext ever pays after encryption is decrypt's one inverse per
//! prime, so a full encrypt → upload → aggregate → download → decrypt
//! round costs three forward NTTs per prime on the client under the
//! public key (one under the secret key) and one inverse per prime at
//! decryption. The NTT is a per-prime linear bijection, so each encrypt
//! body reduces a linear sum (noise plus message) before its one
//! transform, and every decrypted value is bit-identical to the
//! coefficient-domain textbook scheme (the `#[cfg(test)]` oracles in
//! this module's tests).
//! Coefficient-domain polynomials exist only bare — an encoded message,
//! noise, a key share, the `m` decryption reconstructs — never inside a
//! [`CkksCiphertext`].

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;
use rhychee_par::Parallelism;
use rhychee_telemetry as telemetry;

use crate::bitpack::{bits_for, BitWriter};
use crate::error::FheError;
use crate::params::CkksParams;
use crate::sampling::{ternary_vec, GaussianSampler};

use super::encoder::{CkksEncoder, SplitComplex};
use super::modarith::{add_mod, find_ntt_primes, mul_mod, signed_residue};
use super::ntt::{cached_table, shoup, NttTable};
use super::rns::{Domain, RnsPoly};
use super::seedexp;

/// Shared CKKS evaluation context: primes, NTT tables and the encoder.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rhychee_fhe::ckks::CkksContext;
/// use rhychee_fhe::params::CkksParams;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = CkksContext::new(CkksParams::toy())?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let (sk, pk) = ctx.generate_keys(&mut rng);
/// let ct = ctx.encrypt(&pk, &[1.0, 2.0, 3.0], &mut rng)?;
/// let back = ctx.decrypt(&sk, &ct);
/// assert!((back[0] - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    primes: Vec<u64>,
    ntt: Vec<Arc<NttTable>>,
    encoder: CkksEncoder,
    /// Error sampler for `params.sigma`, built once here so no encrypt
    /// or keygen call builds a table.
    noise: GaussianSampler,
    parallelism: Parallelism,
}

/// A CKKS secret key: the ternary ring element `s`, held in evaluation
/// form only.
///
/// `s_eval` is transformed once at keygen. Residue rows are independent
/// per prime, so the per-level truncations decryption needs are just row
/// slices of `s_eval` — no per-call copy or transform.
#[derive(Debug, Clone)]
pub struct CkksSecretKey {
    pub(crate) s_eval: RnsPoly,
    /// Shoup companions of `s_eval`'s rows ([`shoup_rows`]).
    s_shoup: RnsPoly,
}

/// A CKKS public key `(b, a) = (−a·s + e, a)`, held in evaluation form
/// only (transformed once at keygen so encryption never re-transforms
/// keys; the NTT is exact, so the coefficient form is one inverse away).
#[derive(Debug, Clone)]
pub struct CkksPublicKey {
    pub(crate) b_eval: RnsPoly,
    pub(crate) a_eval: RnsPoly,
    /// Shoup companions of `b_eval`'s and `a_eval`'s rows.
    b_shoup: RnsPoly,
    a_shoup: RnsPoly,
}

/// Each evaluation row's Shoup companions `⌊w·2^64/q⌋`, in the key's own
/// layout (row `i` holds the companions of row `i`), built once with the
/// key: every product with a key row is then one [`NttTable::mul_acc`]
/// row.
fn shoup_rows(poly: &RnsPoly, primes: &[u64]) -> RnsPoly {
    let mut out = poly.clone();
    for (row, &q) in out.rows_mut().zip(primes) {
        for w in row {
            *w = shoup(*w, q);
        }
    }
    out
}

impl CkksSecretKey {
    pub(crate) fn from_coeff(ctx: &CkksContext, mut s: RnsPoly) -> Self {
        ctx.forward_rows(&mut s);
        CkksSecretKey { s_shoup: shoup_rows(&s, &ctx.primes), s_eval: s }
    }
}

impl CkksPublicKey {
    pub(crate) fn from_coeff(ctx: &CkksContext, mut b: RnsPoly, mut a: RnsPoly) -> Self {
        ctx.forward_rows(&mut b);
        ctx.forward_rows(&mut a);
        CkksPublicKey {
            b_shoup: shoup_rows(&b, &ctx.primes),
            a_shoup: shoup_rows(&a, &ctx.primes),
            b_eval: b,
            a_eval: a,
        }
    }
}

/// Pre-sampled encryption randomness: the ephemeral secret `v` and the
/// two error polynomials `e0`, `e1`, in raw signed-coefficient form.
///
/// Produced by [`CkksContext::sample_encrypt_noise`] and consumed by
/// [`CkksContext::encrypt_with_noise`]; exists so the RNG-ordered part
/// of encryption can run sequentially while the polynomial arithmetic
/// runs in parallel.
#[derive(Debug, Clone)]
pub struct CkksEncryptNoise {
    v: Vec<i64>,
    e0: Vec<i64>,
    e1: Vec<i64>,
}

/// Pre-sampled symmetric-encryption randomness: the 32-byte expansion
/// seed for the uniform component `a` and the error polynomial `e`.
///
/// Produced by [`CkksContext::sample_symmetric_noise`] and consumed by
/// [`CkksContext::encrypt_symmetric_with_noise`] — the same sequential-
/// sampling / parallel-arithmetic split as [`CkksEncryptNoise`].
#[derive(Debug, Clone, Default)]
pub struct CkksSymmetricNoise {
    seed: [u8; 32],
    e: Vec<i64>,
}

/// Reusable scratch buffers for the allocation-free symmetric encrypt
/// path ([`CkksContext::encrypt_symmetric_with_noise_into`]): FFT
/// scratch and the integer coefficients of the encoded message. The
/// message is reduced straight into the output's `c0` rows, so the
/// arena holds no polynomial rows. One arena serves any number of
/// sequential encryptions; after the first call its buffers are warm
/// and the steady-state encrypt performs no heap allocation.
#[derive(Debug, Default)]
pub struct CkksEncryptArena {
    z: SplitComplex,
    coeffs: Vec<i64>,
}

impl CkksEncryptArena {
    /// An empty arena; buffers grow to the context's shape on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A CKKS ciphertext `(c0, c1)` with scale and (implicit) level tracking.
///
/// Fresh symmetric ciphertexts additionally remember the 32-byte seed
/// their uniform `c1` was expanded from, enabling the seed-compressed
/// wire format ([`CkksContext::serialize_seeded`]). Any homomorphic
/// operation invalidates the seed (the result's `c1` is no longer a pure
/// expansion), so aggregates always serialize canonically.
#[derive(Debug, Clone)]
pub struct CkksCiphertext {
    pub(crate) c0: RnsPoly,
    pub(crate) c1: RnsPoly,
    pub(crate) scale: f64,
    pub(crate) c1_seed: Option<[u8; 32]>,
}

impl CkksCiphertext {
    /// The current scale Δ' of the encrypted message.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Remaining modulus levels (number of active primes).
    pub fn levels(&self) -> usize {
        self.c0.levels()
    }

    /// Whether this ciphertext still carries the expansion seed of its
    /// uniform `c1` (fresh symmetric encryptions only) and therefore
    /// supports [`CkksContext::serialize_seeded`].
    pub fn is_seeded(&self) -> bool {
        self.c1_seed.is_some()
    }

    /// Heap bytes held by both component polynomials, for memory
    /// accounting (e.g. streaming accumulators).
    pub fn heap_bytes(&self) -> u64 {
        self.c0.heap_bytes() + self.c1.heap_bytes()
    }
}

impl CkksContext {
    /// Builds a context from validated parameters, materializing the
    /// NTT-friendly prime chain and transform tables.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if `params` fails validation.
    pub fn new(params: CkksParams) -> Result<Self, FheError> {
        Self::with_parallelism(params, Parallelism::sequential())
    }

    /// [`CkksContext::new`] with an explicit [`Parallelism`] degree.
    ///
    /// The degree is the one this context's *callers* split whole
    /// ciphertexts by (the packing and streaming helpers in
    /// `rhychee-core`, one task per ciphertext on the shared
    /// `rhychee-par` pool). An operation on one ciphertext runs on the
    /// thread that called it, whatever the degree. Results are
    /// bit-identical for every degree.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] if `params` fails validation.
    pub fn with_parallelism(
        params: CkksParams,
        parallelism: Parallelism,
    ) -> Result<Self, FheError> {
        params.validate()?;
        let two_n = 2 * params.n as u64;
        // Group requested prime sizes so repeated sizes yield distinct primes.
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for &b in &params.prime_bits {
            *counts.entry(b).or_insert(0) += 1;
        }
        let mut pools: HashMap<u32, Vec<u64>> = counts
            .into_iter()
            .map(|(bits, count)| (bits, find_ntt_primes(bits, count, two_n)))
            .collect();
        let primes: Vec<u64> = params
            .prime_bits
            .iter()
            .map(|b| pools.get_mut(b).expect("pool exists").remove(0))
            .collect();
        let ntt = primes.iter().map(|&q| cached_table(params.n, q)).collect();
        let encoder = CkksEncoder::new(params.n, 1u64 << params.scale_bits);
        let noise = GaussianSampler::new(params.sigma);
        // Expose the crate's long-lived heap consumer to the memory
        // observability plane (idempotent: re-registration replaces).
        telemetry::mem::register_source("fhe.ntt_table_cache", super::ntt::table_cache_bytes);
        Ok(CkksContext { params, primes, ntt, encoder, noise, parallelism })
    }

    /// The parameter set this context was built from.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The degree this context's callers split whole ciphertexts by.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The materialized RNS prime chain.
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// Number of plaintext slots per ciphertext (N/2).
    pub fn slot_count(&self) -> usize {
        self.params.slot_count()
    }

    /// The slot encoder for this context.
    pub fn encoder(&self) -> &CkksEncoder {
        &self.encoder
    }

    /// `n` fresh error coefficients at this context's σ, consuming
    /// exactly `n` words of `rng`.
    pub(crate) fn noise_vec<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<i64> {
        let mut e = vec![0i64; self.params.n];
        self.noise.fill(rng, &mut e);
        e
    }

    /// Generates a fresh (secret, public) key pair.
    pub fn generate_keys<R: Rng + ?Sized>(&self, rng: &mut R) -> (CkksSecretKey, CkksPublicKey) {
        let n = self.params.n;
        let s_coeffs = ternary_vec(rng, n);
        let s = RnsPoly::from_signed_coeffs(&s_coeffs, &self.primes);
        let a = self.uniform_poly(rng);
        let e = RnsPoly::from_signed_coeffs(&self.noise_vec(rng), &self.primes);
        // b = -(a·s) + e
        let a_s = self.poly_mul(&a, &s);
        let b = a_s.neg(&self.primes).add(&e, &self.primes);
        // The evaluation-domain key copies are built here, once — the
        // encrypt/decrypt hot paths never transform key material again.
        (CkksSecretKey::from_coeff(self, s), CkksPublicKey::from_coeff(self, b, a))
    }

    /// Encrypts a slot vector under the public key.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::PlaintextTooLarge`] if more than `N/2` values
    /// are supplied, [`FheError::NonFinitePlaintext`] if one is NaN or
    /// infinite.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        pk: &CkksPublicKey,
        values: &[f64],
        rng: &mut R,
    ) -> Result<CkksCiphertext, FheError> {
        let noise = self.sample_encrypt_noise(rng);
        self.encrypt_with_noise(pk, values, &noise)
    }

    /// Draws the randomness one [`CkksContext::encrypt`] call consumes
    /// (ephemeral ternary `v`, then Gaussian `e0`, `e1` — in that exact
    /// stream order).
    ///
    /// Splitting sampling from the deterministic ciphertext computation
    /// lets callers pre-draw noise for many ciphertexts sequentially —
    /// preserving a seeded RNG's stream bit-for-bit — and then run the
    /// heavy [`CkksContext::encrypt_with_noise`] calls in parallel.
    pub fn sample_encrypt_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> CkksEncryptNoise {
        CkksEncryptNoise {
            v: ternary_vec(rng, self.params.n),
            e0: self.noise_vec(rng),
            e1: self.noise_vec(rng),
        }
    }

    /// Encrypts with pre-sampled randomness; `encrypt(pk, values, rng)`
    /// is exactly `encrypt_with_noise(pk, values,
    /// &sample_encrypt_noise(rng))`.
    ///
    /// Evaluation-domain throughout: exactly one forward NTT per prime
    /// for each of `v` (shared by both components), `e0 + m` (summed
    /// before the transform) and `e1`, zero inverses, zero key
    /// transforms. Per prime: `c0 = b̂ ∘ NTT(v) + NTT(e0 + m)`,
    /// `c1 = â ∘ NTT(v) + NTT(e1)`. The NTT is linear over `Z_q`, so INTT
    /// of these rows equals the textbook coefficient-domain
    /// `(b·v + e0 + m, a·v + e1)` exactly — same ciphertext, new domain.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::PlaintextTooLarge`] if more than `N/2` values
    /// are supplied, [`FheError::NonFinitePlaintext`] if one is NaN or
    /// infinite.
    pub fn encrypt_with_noise(
        &self,
        pk: &CkksPublicKey,
        values: &[f64],
        noise: &CkksEncryptNoise,
    ) -> Result<CkksCiphertext, FheError> {
        self.check_slots(values)?;
        let _span = telemetry::span("fhe.ckks.encrypt");
        let m = self.encoder.encode(values);
        let mut ct = self.zero_ciphertext();
        // (c0, c1) rows are produced together per prime so NTT(v) is
        // computed once and feeds both components.
        let mut v_hat = vec![0u64; self.params.n];
        for (i, (r0, r1)) in ct.c0.rows_mut().zip(ct.c1.rows_mut()).enumerate() {
            let table = &self.ntt[i];
            let q = self.primes[i];
            reduce_signed_into(&noise.v, q, &mut v_hat);
            table.forward(&mut v_hat);
            // c0 = NTT(e0 + m) + b̂ ∘ NTT(v)
            reduce_sum_into(&noise.e0, &m, q, r0);
            table.forward(r0);
            table.mul_acc(r0, pk.b_eval.residues(i), pk.b_shoup.residues(i), &v_hat, false);
            // c1 = NTT(e1) + â ∘ NTT(v)
            reduce_signed_into(&noise.e1, q, r1);
            table.forward(r1);
            table.mul_acc(r1, pk.a_eval.residues(i), pk.a_shoup.residues(i), &v_hat, false);
        }
        self.publish_noise_gauges(&ct);
        Ok(ct)
    }

    /// Encrypts a slot vector under the secret key (symmetric mode).
    ///
    /// Produces the same ciphertext shape as [`CkksContext::encrypt`] with
    /// slightly lower fresh noise; useful when clients hold the shared
    /// secret key anyway, as in Rhychee-FL. The uniform component
    /// `c1 = a` is expanded from a 32-byte seed drawn from `rng`, and the
    /// ciphertext remembers that seed, so it can travel in the
    /// seed-compressed wire format ([`CkksContext::serialize_seeded`])
    /// at roughly half the canonical byte cost.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::PlaintextTooLarge`] if more than `N/2` values
    /// are supplied, [`FheError::NonFinitePlaintext`] if one is NaN or
    /// infinite.
    pub fn encrypt_symmetric<R: Rng + ?Sized>(
        &self,
        sk: &CkksSecretKey,
        values: &[f64],
        rng: &mut R,
    ) -> Result<CkksCiphertext, FheError> {
        let noise = self.sample_symmetric_noise(rng);
        self.encrypt_symmetric_with_noise(sk, values, &noise)
    }

    /// Draws the randomness one [`CkksContext::encrypt_symmetric`] call
    /// consumes (the 32-byte expansion seed, then Gaussian `e` — in that
    /// exact stream order), mirroring
    /// [`CkksContext::sample_encrypt_noise`].
    pub fn sample_symmetric_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> CkksSymmetricNoise {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        CkksSymmetricNoise { seed, e: self.noise_vec(rng) }
    }

    /// [`CkksContext::sample_symmetric_noise`] into a caller-owned
    /// struct, reusing the error vector's allocation. Draws the exact
    /// same RNG stream (seed bytes first, then Gaussian `e`).
    pub fn sample_symmetric_noise_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        noise: &mut CkksSymmetricNoise,
    ) {
        rng.fill_bytes(&mut noise.seed);
        noise.e.resize(self.params.n, 0);
        self.noise.fill(rng, &mut noise.e);
    }

    /// An all-zero evaluation-domain ciphertext at full level, shaped for
    /// this context — the reusable output slot for
    /// [`CkksContext::encrypt_symmetric_with_noise_into`].
    pub fn zero_ciphertext(&self) -> CkksCiphertext {
        let (n, levels) = (self.params.n, self.primes.len());
        CkksCiphertext {
            c0: RnsPoly::zero_in(n, levels, Domain::Eval),
            c1: RnsPoly::zero_in(n, levels, Domain::Eval),
            scale: self.encoder.scale(),
            c1_seed: None,
        }
    }

    /// Symmetric encryption with pre-sampled randomness: a fresh output
    /// slot and arena handed to
    /// [`CkksContext::encrypt_symmetric_with_noise_into`], so the only
    /// allocations are the returned ciphertext and the arena's buffers.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::PlaintextTooLarge`] if more than `N/2` values
    /// are supplied, [`FheError::NonFinitePlaintext`] if one is NaN or
    /// infinite.
    pub fn encrypt_symmetric_with_noise(
        &self,
        sk: &CkksSecretKey,
        values: &[f64],
        noise: &CkksSymmetricNoise,
    ) -> Result<CkksCiphertext, FheError> {
        let mut out = self.zero_ciphertext();
        let mut arena = CkksEncryptArena::new();
        self.encrypt_symmetric_with_noise_into(sk, values, noise, &mut arena, &mut out)?;
        Ok(out)
    }

    /// Symmetric encryption into caller-owned buffers — the one body
    /// every symmetric encrypt runs. Zero heap allocation once `arena`
    /// and `out` are warm.
    ///
    /// Always evaluation-domain: `c1 = a` is expanded from the seed
    /// directly in NTT form (the NTT is a bijection on `Z_q^N`, so a
    /// uniform evaluation-domain polynomial is exactly as uniform as a
    /// coefficient-domain one), and `c0 = −(a ∘ ŝ) + NTT(e + m)` — one
    /// forward transform per prime, zero inverses.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::PlaintextTooLarge`] if more than `N/2` values
    /// are supplied, [`FheError::NonFinitePlaintext`] if one is NaN or
    /// infinite; `out` is untouched in either case.
    ///
    /// # Panics
    ///
    /// Panics if `noise` was not sampled for this context (an unsampled
    /// [`CkksSymmetricNoise::default`] has no error coefficients, and
    /// `c0` would carry neither noise nor message).
    pub fn encrypt_symmetric_with_noise_into(
        &self,
        sk: &CkksSecretKey,
        values: &[f64],
        noise: &CkksSymmetricNoise,
        arena: &mut CkksEncryptArena,
        out: &mut CkksCiphertext,
    ) -> Result<(), FheError> {
        self.check_slots(values)?;
        let n = self.params.n;
        assert_eq!(noise.e.len(), n, "symmetric noise not sampled for this context");
        let _span = telemetry::span("fhe.ckks.encrypt");
        self.encoder.encode_into(values, &mut arena.z, &mut arena.coeffs);
        let levels = self.primes.len();
        out.c0.ensure_shape(n, levels, Domain::Eval);
        out.c1.ensure_shape(n, levels, Domain::Eval);
        {
            let _t = telemetry::timer("fhe.ckks.seedexp");
            for (i, r1) in out.c1.rows_mut().enumerate() {
                seedexp::expand_row_into(&noise.seed, i, self.primes[i], r1);
            }
        }
        for (i, (r0, r1)) in out.c0.rows_mut().zip(out.c1.rows()).enumerate() {
            reduce_sum_into(&noise.e, &arena.coeffs, self.primes[i], r0);
            self.ntt[i].forward(r0);
            self.ntt[i].mul_acc(r0, sk.s_eval.residues(i), sk.s_shoup.residues(i), r1, true);
        }
        out.scale = self.encoder.scale();
        out.c1_seed = Some(noise.seed);
        self.publish_noise_gauges(out);
        Ok(())
    }

    /// Decrypts a ciphertext to its slot values.
    ///
    /// Exactly one inverse NTT per prime, whatever the ciphertext's
    /// origin (fresh, folded, deserialized): `m = INTT(c1 ∘ ŝ + c0)`,
    /// with `ŝ`'s per-level truncation being a zero-copy row slice of
    /// the key's cached `s_eval`.
    pub fn decrypt(&self, sk: &CkksSecretKey, ct: &CkksCiphertext) -> Vec<f64> {
        let _span = telemetry::span("fhe.ckks.decrypt");
        let levels = ct.levels();
        let active = &self.primes[..levels];
        let n = ct.c0.degree();
        // `m` leaves the loop in the coefficient domain: each row is
        // assembled pointwise and inverse-transformed in place.
        let mut m = RnsPoly::zero(n, levels);
        for (i, row) in m.rows_mut().enumerate() {
            row.copy_from_slice(ct.c0.residues(i));
            let (s_row, s_shoup) = (sk.s_eval.residues(i), sk.s_shoup.residues(i));
            self.ntt[i].mul_acc(row, s_row, s_shoup, ct.c1.residues(i), false);
            self.ntt[i].inverse(row);
        }
        let coeffs = m.to_centered_f64(active);
        self.encoder.decode_with_scale(&coeffs, ct.scale)
    }

    /// Homomorphic addition of two ciphertexts.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::LevelMismatch`] or [`FheError::ScaleMismatch`]
    /// if the operands are incompatible.
    pub fn add(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<CkksCiphertext, FheError> {
        self.check_compatible(a, b)?;
        let active = &self.primes[..a.levels()];
        Ok(CkksCiphertext {
            c0: a.c0.add(&b.c0, active),
            c1: a.c1.add(&b.c1, active),
            scale: a.scale,
            c1_seed: None,
        })
    }

    /// In-place homomorphic addition (`acc += ct`), the hot loop of
    /// federated aggregation.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::LevelMismatch`] or [`FheError::ScaleMismatch`]
    /// if the operands are incompatible.
    pub fn add_assign(
        &self,
        acc: &mut CkksCiphertext,
        ct: &CkksCiphertext,
    ) -> Result<(), FheError> {
        self.check_compatible(acc, ct)?;
        let levels = acc.levels();
        acc.c0.add_assign(&ct.c0, &self.primes[..levels]);
        acc.c1.add_assign(&ct.c1, &self.primes[..levels]);
        acc.c1_seed = None;
        Ok(())
    }

    /// Multiplies a ciphertext by a plaintext scalar (e.g. `1/P` in
    /// federated averaging, Eq. 2 of the paper).
    ///
    /// The scalar is encoded at the context scale Δ, so the result's scale
    /// becomes `ct.scale · Δ`. Call [`CkksContext::rescale`] afterwards if
    /// a modulus level is available; decoding also works at the squared
    /// scale as long as the message magnitude stays within the modulus.
    pub fn mul_scalar(&self, ct: &CkksCiphertext, scalar: f64) -> CkksCiphertext {
        telemetry::count("fhe.ckks.mul_scalar", 1);
        let delta = self.encoder.scale();
        let encoded = (scalar * delta).round() as i64;
        let active = &self.primes[..ct.levels()];
        CkksCiphertext {
            c0: ct.c0.mul_scalar_signed(encoded, active),
            c1: ct.c1.mul_scalar_signed(encoded, active),
            scale: ct.scale * delta,
            c1_seed: None,
        }
    }

    /// Rescales a ciphertext by the last active prime, dropping one level
    /// and dividing the scale accordingly.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::LevelExhausted`] at the bottom of the chain.
    pub fn rescale(&self, ct: &CkksCiphertext) -> Result<CkksCiphertext, FheError> {
        let levels = ct.levels();
        if levels < 2 {
            return Err(FheError::LevelExhausted);
        }
        let q_last = self.primes[levels - 1] as f64;
        let out = CkksCiphertext {
            c0: self.rescale_eval(&ct.c0),
            c1: self.rescale_eval(&ct.c1),
            scale: ct.scale / q_last,
            c1_seed: None,
        };
        self.publish_noise_gauges(&out);
        Ok(out)
    }

    /// Rescale of an evaluation-domain polynomial without leaving the
    /// evaluation domain: the dropped row is inverse-transformed once,
    /// its centered lift is forward-transformed into each remaining
    /// prime's basis, and the rest is pointwise:
    /// `X'_i = (X_i − NTT_i(lift)) · q_last^{-1}`.
    ///
    /// By linearity of the NTT this equals `NTT_i` of the textbook
    /// coefficient-domain rescale exactly (the `#[cfg(test)]`
    /// `RnsPoly::rescale`, which this module's tests compare against).
    fn rescale_eval(&self, p: &RnsPoly) -> RnsPoly {
        let l = p.levels();
        let n = p.degree();
        let q_last = self.primes[l - 1];
        let mut last = p.residues(l - 1).to_vec();
        self.ntt[l - 1].inverse(&mut last);
        let mut out = RnsPoly::zero_in(n, l - 1, Domain::Eval);
        for (i, row) in out.rows_mut().enumerate() {
            let q = self.primes[i];
            let q_last_inv = super::modarith::inv_mod(q_last % q, q);
            // The output row doubles as the lift buffer: centered lift of
            // the dropped row, forward transform, then finish pointwise.
            for (o, &xl) in row.iter_mut().zip(&last) {
                *o = if xl > q_last / 2 { (xl + q - (q_last % q)) % q } else { xl % q };
            }
            self.ntt[i].forward(row);
            for (o, &x) in row.iter_mut().zip(p.residues(i)) {
                *o = mul_mod(super::modarith::sub_mod(x, *o, q), q_last_inv, q);
            }
        }
        out
    }

    /// Publishes the noise-budget gauges for `ct` (DESIGN.md §10):
    /// `fhe.ckks.scale_bits` (log2 of the current scale Δ'),
    /// `fhe.ckks.level_remaining` (active primes left in the chain), and
    /// `fhe.ckks.modulus_bits_remaining` (Σ bits of the active primes —
    /// the headroom rescales still have to burn). Called after every
    /// fresh encryption and every rescale, so operators see margin
    /// exhaustion before accuracy collapses.
    fn publish_noise_gauges(&self, ct: &CkksCiphertext) {
        if !telemetry::enabled() {
            return;
        }
        let levels = ct.levels();
        let modulus_bits: u32 = self.primes[..levels].iter().map(|&q| bits_for(q)).sum();
        telemetry::gauge("fhe.ckks.scale_bits", ct.scale.log2());
        telemetry::gauge("fhe.ckks.level_remaining", levels as f64);
        telemetry::gauge("fhe.ckks.modulus_bits_remaining", f64::from(modulus_bits));
    }

    /// Serializes a ciphertext with exact-width residue packing, so the
    /// byte length closely tracks the paper's `2N·log Q` accounting.
    ///
    /// This is the *canonical* format: header, then the evaluation-
    /// domain rows of `c0` and `c1` exactly as the ciphertext holds them
    /// — no transform on either side of the wire. A residue on the wire
    /// is one NTT point, so a single flipped bit, whichever bit it is,
    /// spreads over every coefficient of `m` at decryption: the
    /// corruption-decrypts-to-garbage behaviour the channel-noise
    /// experiments (paper §IV-C) rely on.
    pub fn serialize(&self, ct: &CkksCiphertext) -> Vec<u8> {
        let mut out = Vec::new();
        self.serialize_into(&mut out, ct);
        out
    }

    /// Appends the canonical serialization of `ct` to `out` — the bytes
    /// [`CkksContext::serialize`] returns, written in place after
    /// whatever `out` already holds. `out` grows by exactly
    /// [`CkksContext::serialized_len`], reserved up front, so a caller
    /// that pre-sized it never pays a reallocation.
    pub fn serialize_into(&self, out: &mut Vec<u8>, ct: &CkksCiphertext) {
        out.reserve(self.serialized_len(ct.levels()));
        let mut w = BitWriter::appending(std::mem::take(out));
        w.write_bits(ct.levels() as u64, 8);
        w.write_bits(ct.scale.to_bits(), 64);
        for poly in [&ct.c0, &ct.c1] {
            for (i, &q) in self.primes[..ct.levels()].iter().enumerate() {
                w.write_row(poly.residues(i), bits_for(q));
            }
        }
        *out = w.into_bytes();
    }

    /// Serializes a fresh symmetric ciphertext in the seed-compressed
    /// format: header, the 32-byte expansion seed of `c1` plus a 32-bit
    /// integrity digest, and the `c0` residues (exact-width packed, as
    /// in the canonical format). Roughly half the canonical size — see
    /// [`CkksContext::serialized_len_seeded`].
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Serialize`] if the ciphertext no longer
    /// carries its expansion seed (any homomorphic operation clears it).
    pub fn serialize_seeded(&self, ct: &CkksCiphertext) -> Result<Vec<u8>, FheError> {
        let mut out = Vec::new();
        self.serialize_seeded_into(&mut out, ct)?;
        Ok(out)
    }

    /// Appends the seed-compressed serialization of `ct` to `out` — the
    /// bytes [`CkksContext::serialize_seeded`] returns, written in place.
    /// `out` grows by exactly [`CkksContext::serialized_len_seeded`],
    /// reserved up front.
    ///
    /// # Errors
    ///
    /// As [`CkksContext::serialize_seeded`]; `out` is untouched on error.
    pub fn serialize_seeded_into(
        &self,
        out: &mut Vec<u8>,
        ct: &CkksCiphertext,
    ) -> Result<(), FheError> {
        let Some(seed) = ct.c1_seed else {
            return Err(FheError::Serialize(
                "ciphertext carries no expansion seed (not a fresh symmetric encryption)".into(),
            ));
        };
        out.reserve(self.serialized_len_seeded(ct.levels()));
        let mut w = BitWriter::appending(std::mem::take(out));
        w.write_bits(ct.levels() as u64, 8);
        w.write_bits(ct.scale.to_bits(), 64);
        for chunk in seed.chunks_exact(8) {
            w.write_bits(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")), 64);
        }
        w.write_bits(u64::from(seedexp::seed_check(&seed)), 32);
        for (i, &q) in self.primes[..ct.levels()].iter().enumerate() {
            w.write_row(ct.c0.residues(i), bits_for(q));
        }
        *out = w.into_bytes();
        Ok(())
    }

    /// Exact byte length of the seed-compressed format at `levels`
    /// active primes: one `c0` residue payload instead of two, plus the
    /// 256-bit seed and 32-bit digest.
    pub fn serialized_len_seeded(&self, levels: usize) -> usize {
        let residue_bits: usize = self.primes[..levels].iter().map(|&q| bits_for(q) as usize).sum();
        (8 + 64 + 256 + 32 + self.params.n * residue_bits).div_ceil(8)
    }

    /// Deserializes a ciphertext from the seed-compressed format,
    /// re-expanding `c1` from the transmitted seed:
    /// [`CkksContext::view_serialized_seeded`] validates, then
    /// [`CtView::to_ciphertext`](super::view::CtView::to_ciphertext)
    /// materializes. The result is still seeded, so it can be
    /// re-serialized in either format.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Deserialize`] on an invalid level count, a
    /// byte length that does not match
    /// [`CkksContext::serialized_len_seeded`] for the declared levels
    /// (truncated *or* oversized input — malformed streams never
    /// allocate beyond one fixed-size ciphertext), an invalid scale, or
    /// a seed that fails its integrity digest. Unlike the canonical
    /// format, a corrupted seed *errors* rather than decrypting to
    /// garbage: the digest exists precisely because a flipped seed bit
    /// would re-expand to an unrelated uniform `c1`.
    pub fn deserialize_seeded(&self, bytes: &[u8]) -> Result<CkksCiphertext, FheError> {
        self.view_serialized_seeded(bytes)?.to_ciphertext(self)
    }

    /// Exact serialized size in bytes of a ciphertext at `levels` active
    /// primes — the length [`CkksContext::serialize`] produces.
    pub fn serialized_len(&self, levels: usize) -> usize {
        let residue_bits: usize = self.primes[..levels].iter().map(|&q| bits_for(q) as usize).sum();
        (8 + 64 + 2 * self.params.n * residue_bits).div_ceil(8)
    }

    /// Deserializes a ciphertext previously produced by
    /// [`CkksContext::serialize`]: [`CkksContext::view_serialized`]
    /// validates, then
    /// [`CtView::to_ciphertext`](super::view::CtView::to_ciphertext)
    /// materializes.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Deserialize`] on an invalid level count or a
    /// byte length that does not match [`CkksContext::serialized_len`]
    /// for the declared levels (truncated *or* oversized input — a
    /// malformed stream never allocates beyond one fixed-size
    /// ciphertext). Residues `≥ q` are surfaced as corruption (callers
    /// in the channel experiments rely on decrypting *garbage*, not
    /// erroring, for in-range bit flips — exactly as a real system
    /// would).
    pub fn deserialize(&self, bytes: &[u8]) -> Result<CkksCiphertext, FheError> {
        self.view_serialized(bytes)?.to_ciphertext(self)
    }

    /// Checks that `a` and `b` can be added: equal levels and scales
    /// within relative `1e-9` — the owned twin of
    /// [`CkksContext::check_view`]. Callers that pre-check every chunk
    /// of an upload make the subsequent [`CkksContext::add_assign`]s
    /// infallible.
    ///
    /// # Errors
    ///
    /// [`FheError::LevelMismatch`] or [`FheError::ScaleMismatch`].
    pub(crate) fn check_compatible(
        &self,
        a: &CkksCiphertext,
        b: &CkksCiphertext,
    ) -> Result<(), FheError> {
        check_addable((a.levels(), a.scale), (b.levels(), b.scale))
    }

    /// Refuses a plaintext of more than `N/2` values, or one holding a
    /// NaN or an infinity: the encoder's FFT would spread it into every
    /// coefficient, and the whole ciphertext would encrypt zeros or
    /// saturated values. Both encrypt bodies call it before they open
    /// their span, so a refused call records no `fhe.ckks.encrypt`
    /// sample.
    fn check_slots(&self, values: &[f64]) -> Result<(), FheError> {
        let capacity = self.slot_count();
        if values.len() > capacity {
            return Err(FheError::PlaintextTooLarge { len: values.len(), capacity });
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(FheError::NonFinitePlaintext { index });
        }
        Ok(())
    }

    pub(crate) fn uniform_poly<R: Rng + ?Sized>(&self, rng: &mut R) -> RnsPoly {
        let n = self.params.n;
        let mut poly = RnsPoly::zero(n, self.primes.len());
        for (i, &q) in self.primes.iter().enumerate() {
            for r in poly.residues_mut(i) {
                *r = rng.gen_range(0..q);
            }
        }
        poly
    }

    /// Transforms every residue row into the evaluation domain in place.
    pub(crate) fn forward_rows(&self, poly: &mut RnsPoly) {
        for (i, row) in poly.rows_mut().enumerate() {
            self.ntt[i].forward(row);
        }
        poly.set_eval();
    }

    /// Coefficient-domain copy of an evaluation-domain polynomial.
    pub(crate) fn to_coeff(&self, poly: &RnsPoly) -> RnsPoly {
        let mut out = poly.clone();
        for (i, row) in out.rows_mut().enumerate() {
            self.ntt[i].inverse(row);
        }
        out.set_coeff();
        out
    }

    /// Negacyclic product over the first `levels` primes (coefficient-
    /// domain operands and result).
    pub(crate) fn poly_mul_at(&self, a: &RnsPoly, b: &RnsPoly, levels: usize) -> RnsPoly {
        debug_assert!(a.is_coeff() && b.is_coeff(), "negacyclic product of evaluation rows");
        let n = self.params.n;
        let mut out = RnsPoly::zero(n, levels);
        // Each RNS prime is an independent negacyclic product. `a`'s
        // forward transform runs directly in the output row and `b`'s in
        // one row shared by every prime.
        let mut fb = vec![0u64; n];
        for (i, row) in out.rows_mut().enumerate() {
            let table = &self.ntt[i];
            let q = self.primes[i];
            row.copy_from_slice(a.residues(i));
            table.forward(row);
            fb.copy_from_slice(b.residues(i));
            table.forward(&mut fb);
            for (x, y) in row.iter_mut().zip(&fb) {
                *x = mul_mod(*x, *y, q);
            }
            table.inverse(row);
        }
        out
    }

    fn poly_mul(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        self.poly_mul_at(a, b, self.primes.len())
    }

    /// A context whose tables dispatch through `kernel` instead of the
    /// process-wide one, built outside the `(n, q)` cache so no other
    /// context shares them.
    #[cfg(test)]
    fn with_ntt_kernel(params: CkksParams, kernel: &'static dyn super::ntt::NttKernel) -> Self {
        let mut ctx = Self::new(params).expect("valid params");
        let n = ctx.params.n;
        ctx.ntt =
            ctx.primes.iter().map(|&q| Arc::new(NttTable::with_kernel(n, q, kernel))).collect();
        ctx
    }
}

/// What makes two `(levels, scale)` operands addable — ciphertexts or
/// views alike: equal levels, scales within relative `1e-9`.
pub(super) fn check_addable(lhs: (usize, f64), rhs: (usize, f64)) -> Result<(), FheError> {
    if lhs.0 != rhs.0 {
        return Err(FheError::LevelMismatch { lhs: lhs.0, rhs: rhs.0 });
    }
    if (lhs.1 - rhs.1).abs() > lhs.1.max(rhs.1) * 1e-9 {
        return Err(FheError::ScaleMismatch { lhs: lhs.1, rhs: rhs.1 });
    }
    Ok(())
}

/// Reduces signed coefficients into `[0, q)`, writing into `out`
/// (the loop body of [`RnsPoly::from_signed_coeffs`], row-at-a-time so
/// fused per-prime kernels skip the intermediate polynomial).
fn reduce_signed_into(coeffs: &[i64], q: u64, out: &mut [u64]) {
    for (o, &c) in out.iter_mut().zip(coeffs) {
        *o = signed_residue(c, q);
    }
}

/// Writes `(a + b) mod q` into `out`, each signed summand reduced on its
/// own: the encoder saturates at `i64::MIN/MAX`, so adding as `i64`
/// could overflow. The NTT is `Z_q`-linear, so transforming this row
/// gives the bits `NTT(a) + NTT(b)` would, for one transform.
fn reduce_sum_into(a: &[i64], b: &[i64], q: u64, out: &mut [u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = add_mod(signed_residue(x, q), signed_residue(y, q), q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn toy_setup() -> (CkksContext, CkksSecretKey, CkksPublicKey, StdRng) {
        let ctx = CkksContext::new(CkksParams::toy()).expect("valid params");
        let mut rng = StdRng::seed_from_u64(42);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        (ctx, sk, pk, rng)
    }

    fn assert_close(actual: &[f64], expected: &[f64], tol: f64) {
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert!((a - e).abs() < tol, "slot {i}: {a} vs {e} (tol {tol})");
        }
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let (ctx, sk, pk, mut rng) = toy_setup();
        let values: Vec<f64> = (0..ctx.slot_count()).map(|i| (i as f64 * 0.1).sin()).collect();
        let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
        let back = ctx.decrypt(&sk, &ct);
        assert_close(&back[..values.len()], &values, 1e-4);
    }

    #[test]
    fn symmetric_encryption_round_trip() {
        let (ctx, sk, _, mut rng) = toy_setup();
        let values = vec![3.25, -1.5, 0.0, 99.0];
        let ct = ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt");
        let back = ctx.decrypt(&sk, &ct);
        assert_close(&back[..4], &values, 1e-4);
    }

    #[test]
    fn encrypt_symmetric_into_reuses_buffers_across_messages() {
        // Warm (dirty) arena and output slot against the `Vec`-returning
        // form, which starts from fresh ones: same bits every round.
        let (ctx, sk, _, mut rng) = toy_setup();
        let mut arena = CkksEncryptArena::new();
        let mut out = ctx.zero_ciphertext();
        let mut noise = CkksSymmetricNoise::default();
        for round in 0..3 {
            let values: Vec<f64> = (0..4 + 100 * round).map(|i| (round * 10 + i) as f64).collect();
            ctx.sample_symmetric_noise_into(&mut rng, &mut noise);
            ctx.encrypt_symmetric_with_noise_into(&sk, &values, &noise, &mut arena, &mut out)
                .expect("encrypt into");
            let fresh = ctx.encrypt_symmetric_with_noise(&sk, &values, &noise).expect("encrypt");
            assert_eq!((&out.c0, &out.c1), (&fresh.c0, &fresh.c1));
            assert_eq!((out.scale, out.c1_seed), (fresh.scale, fresh.c1_seed));
            let back = ctx.decrypt(&sk, &out);
            assert_close(&back[..4], &values[..4], 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "symmetric noise not sampled")]
    fn unsampled_symmetric_noise_is_refused() {
        let (ctx, sk, _, _) = toy_setup();
        let unsampled = CkksSymmetricNoise::default();
        let _ = ctx.encrypt_symmetric_with_noise(&sk, &[1.0], &unsampled);
    }

    #[test]
    fn sample_symmetric_noise_into_matches_owned_sampler() {
        let (ctx, _, _, _) = toy_setup();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let owned = ctx.sample_symmetric_noise(&mut a);
        let mut reused = CkksSymmetricNoise::default();
        ctx.sample_symmetric_noise_into(&mut b, &mut reused);
        assert_eq!(owned.seed, reused.seed);
        assert_eq!(owned.e, reused.e);
    }

    #[test]
    fn homomorphic_addition() {
        let (ctx, sk, pk, mut rng) = toy_setup();
        let x = vec![1.0, 2.0, -3.0];
        let y = vec![10.0, -20.0, 30.0];
        let cx = ctx.encrypt(&pk, &x, &mut rng).expect("encrypt");
        let cy = ctx.encrypt(&pk, &y, &mut rng).expect("encrypt");
        let sum = ctx.add(&cx, &cy).expect("add");
        let back = ctx.decrypt(&sk, &sum);
        assert_close(&back[..3], &[11.0, -18.0, 27.0], 1e-3);
    }

    #[test]
    fn add_assign_accumulates_many() {
        let (ctx, sk, pk, mut rng) = toy_setup();
        let clients = 10;
        let mut acc = ctx.encrypt(&pk, &[1.0, -1.0], &mut rng).expect("encrypt");
        for _ in 1..clients {
            let ct = ctx.encrypt(&pk, &[1.0, -1.0], &mut rng).expect("encrypt");
            ctx.add_assign(&mut acc, &ct).expect("add_assign");
        }
        let back = ctx.decrypt(&sk, &acc);
        assert_close(&back[..2], &[clients as f64, -(clients as f64)], 1e-2);
    }

    #[test]
    fn scalar_multiplication_and_rescale() {
        let (ctx, sk, pk, mut rng) = toy_setup();
        let x = vec![4.0, -8.0, 0.5];
        let ct = ctx.encrypt(&pk, &x, &mut rng).expect("encrypt");
        let scaled = ctx.mul_scalar(&ct, 0.1);
        // Without rescale the scale is squared but decryption still works.
        let back = ctx.decrypt(&sk, &scaled);
        assert_close(&back[..3], &[0.4, -0.8, 0.05], 1e-3);
        // With rescale the level drops and the result matches too.
        let rescaled = ctx.rescale(&scaled).expect("rescale");
        assert_eq!(rescaled.levels(), ct.levels() - 1);
        let back = ctx.decrypt(&sk, &rescaled);
        assert_close(&back[..3], &[0.4, -0.8, 0.05], 1e-3);
    }

    #[test]
    fn federated_average_pattern() {
        // HomAvg = HomMul(Σ ct_i, 1/P): the exact Eq. 2 pipeline.
        let (ctx, sk, pk, mut rng) = toy_setup();
        let p = 5usize;
        let models: Vec<Vec<f64>> =
            (0..p).map(|c| (0..8).map(|j| (c * 8 + j) as f64 / 10.0).collect()).collect();
        let mut acc = ctx.encrypt(&pk, &models[0], &mut rng).expect("encrypt");
        for m in &models[1..] {
            let ct = ctx.encrypt(&pk, m, &mut rng).expect("encrypt");
            ctx.add_assign(&mut acc, &ct).expect("add");
        }
        let avg_ct = ctx.mul_scalar(&acc, 1.0 / p as f64);
        let back = ctx.decrypt(&sk, &avg_ct);
        let expected: Vec<f64> =
            (0..8).map(|j| models.iter().map(|m| m[j]).sum::<f64>() / p as f64).collect();
        assert_close(&back[..8], &expected, 1e-3);
    }

    #[test]
    fn level_and_scale_mismatch_rejected() {
        let (ctx, _, pk, mut rng) = toy_setup();
        let a = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
        let b = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
        let b_low = ctx.rescale(&ctx.mul_scalar(&b, 1.0)).expect("rescale");
        assert!(matches!(ctx.add(&a, &b_low), Err(FheError::LevelMismatch { .. })));
        let b_scaled = ctx.mul_scalar(&b, 2.0);
        assert!(matches!(ctx.add(&a, &b_scaled), Err(FheError::ScaleMismatch { .. })));
    }

    #[test]
    fn rescale_at_bottom_errors() {
        let (ctx, _, pk, mut rng) = toy_setup();
        let ct = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
        let low = ctx.rescale(&ctx.mul_scalar(&ct, 1.0)).expect("first rescale");
        assert_eq!(low.levels(), 1);
        assert!(matches!(ctx.rescale(&low), Err(FheError::LevelExhausted)));
    }

    #[test]
    fn oversized_plaintext_rejected() {
        let (ctx, _, pk, mut rng) = toy_setup();
        let too_big = vec![0.0; ctx.slot_count() + 1];
        assert!(matches!(
            ctx.encrypt(&pk, &too_big, &mut rng),
            Err(FheError::PlaintextTooLarge { .. })
        ));
    }

    #[test]
    fn serialization_round_trip() {
        let (ctx, sk, pk, mut rng) = toy_setup();
        let values = vec![1.25, -2.5, 3.75];
        let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
        let bytes = ctx.serialize(&ct);
        let back = ctx.deserialize(&bytes).expect("deserialize");
        let dec = ctx.decrypt(&sk, &back);
        assert_close(&dec[..3], &values, 1e-4);
    }

    #[test]
    fn serialized_size_tracks_formula() {
        let (ctx, _, pk, mut rng) = toy_setup();
        let ct = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
        let bytes = ctx.serialize(&ct);
        // 2 polys * N coeffs * (50 + 40) bits + 72-bit header.
        let expected_bits = 2 * 512 * (50 + 40) + 72;
        assert_eq!(bytes.len(), (expected_bits as usize).div_ceil(8));
    }

    #[test]
    fn corrupted_ciphertext_decrypts_to_garbage() {
        // Paper §IV-C: "a single bit error can result in completely
        // incorrect decryption". A residue on the wire is one NTT point,
        // so any one bit of it — the lowest included — lands on every
        // coefficient of `m` at decryption. Coefficient-domain bytes did
        // not behave so on a single-prime chain (CKKS-4, the paper's
        // headline set): bit k of a coefficient moved each slot by
        // 2^k/Δ, invisible below k ≈ `scale_bits` (≈ 1e-3 for bits 0 and
        // 13 at the parent commit of PR 23). On a multi-prime chain a
        // flip in one residue already broke CRT consistency either way.
        // The flip must not error out: residues are reduced `% q` on the
        // way in.
        for params in [CkksParams::toy(), CkksParams::ckks3(), CkksParams::ckks4()] {
            let ctx = CkksContext::new(params).expect("valid params");
            let mut rng = StdRng::seed_from_u64(42);
            let (sk, pk) = ctx.generate_keys(&mut rng);
            let values = vec![1.0; 16];
            let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
            let bytes = ctx.serialize(&ct);
            let n = ctx.params.n;
            let widths: Vec<usize> = ctx.primes.iter().map(|&q| bits_for(q) as usize).collect();
            let poly_bits = n * widths.iter().sum::<usize>();
            let last = widths.len() - 1;
            // One residue of `c0` (first prime) and one of `c1` (last prime).
            for (poly, prime, j) in [(0, 0, 3), (1, last, n - 5)] {
                let residue_at = 72
                    + poly * poly_bits
                    + n * widths[..prime].iter().sum::<usize>()
                    + j * widths[prime];
                for bit in [0, ctx.params.scale_bits as usize / 2, widths[prime] - 1] {
                    let mut flipped = bytes.clone();
                    flipped[(residue_at + bit) / 8] ^= 1 << ((residue_at + bit) % 8);
                    let corrupted = ctx.deserialize(&flipped).expect("still parseable");
                    let dec = ctx.decrypt(&sk, &corrupted);
                    let max_err = (dec[..16].iter().zip(&values))
                        .map(|(d, v)| (d - v).abs())
                        .fold(0.0f64, f64::max);
                    assert!(
                        max_err > 1.0,
                        "N = {n}, {} primes, c{poly} prime {prime} bit {bit}: err = {max_err}",
                        widths.len()
                    );
                }
            }
        }
    }

    #[test]
    fn deserialize_rejects_truncation() {
        let (ctx, _, pk, mut rng) = toy_setup();
        let ct = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
        let bytes = ctx.serialize(&ct);
        assert!(ctx.deserialize(&bytes[..bytes.len() / 2]).is_err());
        assert!(ctx.deserialize(&bytes[..bytes.len() - 1]).is_err());
        assert!(ctx.deserialize(&[]).is_err());
    }

    #[test]
    fn deserialize_rejects_oversized_and_bad_levels() {
        let (ctx, _, pk, mut rng) = toy_setup();
        let ct = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
        let mut bytes = ctx.serialize(&ct);
        assert_eq!(bytes.len(), ctx.serialized_len(ct.levels()));
        // Trailing garbage must be rejected, not silently ignored.
        bytes.push(0);
        assert!(ctx.deserialize(&bytes).is_err());
        bytes.pop();
        // A corrupted level byte (e.g. 255 levels) must not drive a huge
        // allocation or a bogus parse.
        bytes[0] = 255;
        assert!(ctx.deserialize(&bytes).is_err());
        bytes[0] = 0;
        assert!(ctx.deserialize(&bytes).is_err());
    }

    #[test]
    fn parallel_context_is_bit_identical_to_sequential() {
        let seq = CkksContext::new(CkksParams::toy()).expect("valid");
        for par in [Parallelism::Fixed(2), Parallelism::Fixed(4), Parallelism::Auto] {
            let pctx = CkksContext::with_parallelism(CkksParams::toy(), par).expect("valid");
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            let (sk_a, pk_a) = seq.generate_keys(&mut rng_a);
            let (sk_b, pk_b) = pctx.generate_keys(&mut rng_b);
            let values: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).cos()).collect();
            let ct_a = seq.encrypt(&pk_a, &values, &mut rng_a).expect("encrypt");
            let ct_b = pctx.encrypt(&pk_b, &values, &mut rng_b).expect("encrypt");
            assert_eq!(seq.serialize(&ct_a), pctx.serialize(&ct_b), "{par}: ciphertexts differ");
            let rs_a = seq.rescale(&seq.mul_scalar(&ct_a, 0.5)).expect("rescale");
            let rs_b = pctx.rescale(&pctx.mul_scalar(&ct_b, 0.5)).expect("rescale");
            assert_eq!(seq.serialize(&rs_a), pctx.serialize(&rs_b), "{par}: rescale differs");
            let dec_a = seq.decrypt(&sk_a, &ct_a);
            let dec_b = pctx.decrypt(&sk_b, &ct_b);
            assert!(
                dec_a.iter().zip(&dec_b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{par}: decryptions differ"
            );
        }
    }

    #[test]
    fn encrypt_with_noise_matches_encrypt() {
        let (ctx, _, pk, _) = toy_setup();
        let values = vec![1.5, -2.25, 8.0];
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let direct = ctx.encrypt(&pk, &values, &mut rng_a).expect("encrypt");
        let noise = ctx.sample_encrypt_noise(&mut rng_b);
        let via_noise = ctx.encrypt_with_noise(&pk, &values, &noise).expect("encrypt");
        assert_eq!(ctx.serialize(&direct), ctx.serialize(&via_noise));
    }

    #[test]
    fn distinct_primes_for_repeated_bit_sizes() {
        let ctx = CkksContext::new(CkksParams::toy()).expect("valid");
        let primes = ctx.primes();
        let mut sorted = primes.to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), primes.len(), "primes must be distinct");
    }

    /// Textbook coefficient-domain public-key encryption,
    /// `(b·v + e0 + m, a·v + e1)` as two full negacyclic products — the
    /// oracle for the fused [`CkksContext::encrypt_with_noise`]. The
    /// key's coefficient form is one (exact) inverse NTT away.
    fn encrypt_coeff_oracle(
        ctx: &CkksContext,
        pk: &CkksPublicKey,
        values: &[f64],
        noise: &CkksEncryptNoise,
    ) -> CkksCiphertext {
        let primes = &ctx.primes;
        let m = RnsPoly::from_signed_coeffs(&ctx.encoder.encode(values), primes);
        let (b, a) = (ctx.to_coeff(&pk.b_eval), ctx.to_coeff(&pk.a_eval));
        let v = RnsPoly::from_signed_coeffs(&noise.v, primes);
        let e0 = RnsPoly::from_signed_coeffs(&noise.e0, primes);
        let e1 = RnsPoly::from_signed_coeffs(&noise.e1, primes);
        let mut c0 = ctx.poly_mul(&b, &v).add(&e0, primes).add(&m, primes);
        let mut c1 = ctx.poly_mul(&a, &v).add(&e1, primes);
        assert!(c0.is_coeff() && c1.is_coeff());
        // A ciphertext holds evaluation rows: one exact transform away.
        ctx.forward_rows(&mut c0);
        ctx.forward_rows(&mut c1);
        CkksCiphertext { c0, c1, scale: ctx.encoder.scale(), c1_seed: None }
    }

    #[test]
    fn resident_and_reference_encrypt_serialize_identically() {
        // The NTT is a per-prime bijection, so commuting it through the
        // linear encryption algebra must not change a single residue —
        // the property that let the textbook pipeline be deleted.
        let (ctx, sk, pk, mut rng) = toy_setup();
        let values: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
        let noise = ctx.sample_encrypt_noise(&mut rng);
        let resident = ctx.encrypt_with_noise(&pk, &values, &noise).expect("encrypt");
        let reference = encrypt_coeff_oracle(&ctx, &pk, &values, &noise);
        assert_eq!((&resident.c0, &resident.c1), (&reference.c0, &reference.c1));
        assert_eq!(ctx.serialize(&resident), ctx.serialize(&reference));
        let dec_a = ctx.decrypt(&sk, &resident);
        let dec_b = ctx.decrypt(&sk, &reference);
        assert!(dec_a.iter().zip(&dec_b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    /// An evaluation-domain polynomial whose residue at prime `i`,
    /// coefficient `j` is `f(i, j, q_i)`.
    fn eval_rows(ctx: &CkksContext, f: impl Fn(usize, usize, u64) -> u64) -> RnsPoly {
        let mut p = RnsPoly::zero_in(ctx.params.n, ctx.primes.len(), Domain::Eval);
        for (i, (row, &q)) in p.rows_mut().zip(&ctx.primes).enumerate() {
            for (j, r) in row.iter_mut().enumerate() {
                *r = f(i, j, q);
            }
        }
        p
    }

    /// `NTT` of signed coefficients at every prime.
    fn eval_of(ctx: &CkksContext, coeffs: &[i64]) -> RnsPoly {
        let mut p = RnsPoly::from_signed_coeffs(coeffs, &ctx.primes);
        ctx.forward_rows(&mut p);
        p
    }

    /// The public-key body with the noise and the message transformed
    /// separately and then added, `c0 = b̂ ∘ NTT(v) + (NTT(e0) +
    /// NTT(m))` — the oracle for the body's one transform of `e0 + m`.
    fn encrypt_unfused_oracle(
        ctx: &CkksContext,
        pk: &CkksPublicKey,
        values: &[f64],
        noise: &CkksEncryptNoise,
    ) -> (RnsPoly, RnsPoly) {
        let m = eval_of(ctx, &ctx.encoder.encode(values));
        let (v, e0, e1) =
            (eval_of(ctx, &noise.v), eval_of(ctx, &noise.e0), eval_of(ctx, &noise.e1));
        let at = |p: &RnsPoly, i: usize, j: usize| p.residues(i)[j];
        let c0 = eval_rows(ctx, |i, j, q| {
            let e0_m = add_mod(at(&e0, i, j), at(&m, i, j), q);
            add_mod(mul_mod(at(&pk.b_eval, i, j), at(&v, i, j), q), e0_m, q)
        });
        let c1 = eval_rows(ctx, |i, j, q| {
            add_mod(mul_mod(at(&pk.a_eval, i, j), at(&v, i, j), q), at(&e1, i, j), q)
        });
        (c0, c1)
    }

    /// The symmetric body with the noise and the message transformed
    /// separately and then added, `c0 = −(a ∘ ŝ) + (NTT(e) + NTT(m))`.
    fn encrypt_symmetric_unfused_oracle(
        ctx: &CkksContext,
        sk: &CkksSecretKey,
        values: &[f64],
        noise: &CkksSymmetricNoise,
    ) -> (RnsPoly, RnsPoly) {
        let m = eval_of(ctx, &ctx.encoder.encode(values));
        let e = eval_of(ctx, &noise.e);
        let mut c1 = RnsPoly::zero_in(ctx.params.n, ctx.primes.len(), Domain::Eval);
        for (i, row) in c1.rows_mut().enumerate() {
            seedexp::expand_row_into(&noise.seed, i, ctx.primes[i], row);
        }
        let at = |p: &RnsPoly, i: usize, j: usize| p.residues(i)[j];
        let c0 = eval_rows(ctx, |i, j, q| {
            let a_s = mul_mod(at(&c1, i, j), at(&sk.s_eval, i, j), q);
            add_mod(if a_s == 0 { 0 } else { q - a_s }, add_mod(at(&e, i, j), at(&m, i, j), q), q)
        });
        (c0, c1)
    }

    #[test]
    fn fused_encrypt_bodies_match_the_unfused_oracle() {
        // NTT(e + m) must carry the bits NTT(e) + NTT(m) did, including
        // where the encoder saturates to i64::MIN/MAX (an i64 sum of
        // noise and message would overflow there) and where the noise
        // sits at the sampler's hard bound.
        let sets = [
            ("toy", CkksParams::toy()),
            ("CKKS-1", CkksParams::ckks1()),
            ("CKKS-2", CkksParams::ckks2()),
            ("CKKS-3", CkksParams::ckks3()),
            ("CKKS-4", CkksParams::ckks4()),
        ];
        for (name, params) in sets {
            let ctx = CkksContext::new(params).expect("valid params");
            let mut rng = StdRng::seed_from_u64(0xf05e);
            let (sk, pk) = ctx.generate_keys(&mut rng);
            let (n, slots) = (ctx.params.n, ctx.slot_count());
            let random: Vec<f64> = (0..slots).map(|_| rng.gen_range(-8.0..8.0)).collect();
            let huge: Vec<f64> = (0..slots).map(|_| rng.gen_range(-1.0..1.0) * 1e200).collect();
            let encoded = ctx.encoder.encode(&huge);
            assert!(
                encoded.contains(&i64::MAX) && encoded.contains(&i64::MIN),
                "{name}: the encoder must saturate both ways"
            );
            // `GaussianSampler`'s hard bound is ⌈6σ⌉.
            let tail = (6.0 * ctx.params.sigma).ceil() as i64;
            let at_tail: Vec<i64> = (0..n).map(|j| if j % 3 == 0 { -tail } else { tail }).collect();
            for (what, values) in [("random", &random), ("saturated", &huge)] {
                for tail_noise in [false, true] {
                    let at = format!("{name}, {what} values, noise at tail: {tail_noise}");
                    let mut noise = ctx.sample_encrypt_noise(&mut rng);
                    let mut sym = ctx.sample_symmetric_noise(&mut rng);
                    if tail_noise {
                        (noise.e0, noise.e1, sym.e) =
                            (at_tail.clone(), at_tail.clone(), at_tail.clone());
                    }
                    let ct = ctx.encrypt_with_noise(&pk, values, &noise).expect("encrypt");
                    let oracle = encrypt_unfused_oracle(&ctx, &pk, values, &noise);
                    assert_eq!((&ct.c0, &ct.c1), (&oracle.0, &oracle.1), "public key, {at}");
                    let ct = ctx.encrypt_symmetric_with_noise(&sk, values, &sym).expect("encrypt");
                    let oracle = encrypt_symmetric_unfused_oracle(&ctx, &sk, values, &sym);
                    assert_eq!((&ct.c0, &ct.c1), (&oracle.0, &oracle.1), "symmetric, {at}");
                }
            }
        }
    }

    #[test]
    fn non_finite_plaintexts_are_refused() {
        // One NaN or infinity would spread through the encoder's FFT into
        // every coefficient and encrypt a whole chunk as zeros.
        let (ctx, sk, pk, mut rng) = toy_setup();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut values: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64 * 0.1).collect();
            values[3] = bad;
            values[7] = bad;
            let refused = Err(FheError::NonFinitePlaintext { index: 3 });
            assert_eq!(ctx.encrypt(&pk, &values, &mut rng).map(|_| ()), refused, "{bad}");
            assert_eq!(ctx.encrypt_symmetric(&sk, &values, &mut rng).map(|_| ()), refused);
            let (zero, mut out) = (ctx.zero_ciphertext(), ctx.zero_ciphertext());
            let noise = ctx.sample_symmetric_noise(&mut rng);
            let mut arena = CkksEncryptArena::new();
            let into =
                ctx.encrypt_symmetric_with_noise_into(&sk, &values, &noise, &mut arena, &mut out);
            assert_eq!(into, refused);
            assert_eq!(
                (&out.c0, &out.c1, out.c1_seed),
                (&zero.c0, &zero.c1, None),
                "out untouched"
            );
        }
    }

    #[test]
    fn seeded_serialization_round_trip_and_size() {
        let (ctx, sk, _, mut rng) = toy_setup();
        let values = vec![1.25, -2.5, 3.75];
        let ct = ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt");
        assert!(ct.is_seeded());
        let bytes = ctx.serialize_seeded(&ct).expect("seeded serialize");
        // Header (8 levels + 64 scale + 256 seed + 32 check bits) plus
        // one packed component instead of two.
        let expected_bits = 8 + 64 + 256 + 32 + 512 * (50 + 40);
        assert_eq!(bytes.len(), (expected_bits as usize).div_ceil(8));
        assert_eq!(bytes.len(), ctx.serialized_len_seeded(ct.levels()));
        // ~2x smaller than the canonical format of the very same ct:
        // twice the seeded size exceeds the canonical size only by the
        // seed + digest header (36 bytes, doubled).
        let canonical = ctx.serialize(&ct);
        assert!(bytes.len() * 2 < canonical.len() + 128, "{} vs {}", bytes.len(), canonical.len());
        let back = ctx.deserialize_seeded(&bytes).expect("deserialize");
        assert!(back.is_seeded(), "re-expansion keeps the seed");
        let dec = ctx.decrypt(&sk, &back);
        assert_close(&dec[..3], &values, 1e-4);
        // The canonical serialization of the round-tripped ciphertext is
        // bit-identical to the original's: expansion is deterministic.
        assert_eq!(ctx.serialize(&back), canonical);
    }

    #[test]
    fn seeded_deserialize_rejects_corruption_without_overallocating() {
        let (ctx, sk, _, mut rng) = toy_setup();
        let ct = ctx.encrypt_symmetric(&sk, &[1.0; 8], &mut rng).expect("encrypt");
        let bytes = ctx.serialize_seeded(&ct).expect("serialize");
        // Truncated, oversized, and empty inputs error cleanly.
        assert!(ctx.deserialize_seeded(&bytes[..bytes.len() / 2]).is_err());
        assert!(ctx.deserialize_seeded(&bytes[..bytes.len() - 1]).is_err());
        assert!(ctx.deserialize_seeded(&[]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(ctx.deserialize_seeded(&padded).is_err());
        // A corrupted level byte must not drive a huge allocation.
        let mut bad = bytes.clone();
        bad[0] = 255;
        assert!(ctx.deserialize_seeded(&bad).is_err());
        bad[0] = 0;
        assert!(ctx.deserialize_seeded(&bad).is_err());
        // A flipped seed bit re-expands to an unrelated uniform c1; the
        // integrity digest turns that into an error instead of silent
        // garbage (unlike the canonical channel-noise format).
        for byte in [9usize, 20, 40] {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x04;
            assert!(ctx.deserialize_seeded(&flipped).is_err(), "seed flip at byte {byte}");
        }
    }

    #[test]
    fn only_fresh_symmetric_ciphertexts_are_seeded() {
        let (ctx, sk, pk, mut rng) = toy_setup();
        let pub_ct = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
        assert!(!pub_ct.is_seeded());
        assert!(matches!(ctx.serialize_seeded(&pub_ct), Err(FheError::Serialize(_))));
        // Any homomorphic operation invalidates the seed: c1 is no
        // longer the seed-expanded polynomial.
        let a = ctx.encrypt_symmetric(&sk, &[1.0], &mut rng).expect("encrypt");
        let b = ctx.encrypt_symmetric(&sk, &[2.0], &mut rng).expect("encrypt");
        assert!(!ctx.add(&a, &b).expect("add").is_seeded());
        assert!(!ctx.mul_scalar(&a, 0.5).is_seeded());
        assert!(!ctx.rescale(&ctx.mul_scalar(&a, 0.5)).expect("rescale").is_seeded());
        let mut acc = a.clone();
        ctx.add_assign(&mut acc, &b).expect("add_assign");
        assert!(!acc.is_seeded());
    }

    #[test]
    fn serialization_round_trips_at_reduced_levels() {
        // Post-rescale ciphertexts live at a lower level; the wire
        // format must agree with the level-aware length formula and
        // round-trip.
        let (ctx, sk, pk, mut rng) = toy_setup();
        let values = vec![2.0, -4.0, 0.25];
        let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
        let dropped = ctx.rescale(&ctx.mul_scalar(&ct, 0.5)).expect("rescale");
        assert_eq!(dropped.levels(), 1);
        let bytes = ctx.serialize(&dropped);
        assert_eq!(bytes.len(), ctx.serialized_len(1));
        assert!(bytes.len() < ctx.serialized_len(2));
        let back = ctx.deserialize(&bytes).expect("deserialize");
        assert_eq!(back.levels(), 1);
        let dec = ctx.decrypt(&sk, &back);
        assert_close(&dec[..3], &[1.0, -2.0, 0.125], 1e-3);
    }

    #[test]
    fn rescale_matches_the_coefficient_domain_oracle() {
        // `rescale_eval` never leaves the evaluation domain; the
        // textbook rescale works on coefficients. Same rows either way,
        // at every level of a three-prime chain.
        let params =
            CkksParams { n: 512, prime_bits: vec![50, 40, 40], scale_bits: 30, sigma: 3.2 };
        let ctx = CkksContext::new(params).expect("valid params");
        let mut rng = StdRng::seed_from_u64(9);
        let (_, pk) = ctx.generate_keys(&mut rng);
        let mut ct = ctx.encrypt(&pk, &[2.0, -4.0, 0.25], &mut rng).expect("encrypt");
        while ct.levels() > 1 {
            let active = &ctx.primes[..ct.levels()];
            let dropped = ctx.rescale(&ct).expect("rescale");
            for (got, resident) in [(&dropped.c0, &ct.c0), (&dropped.c1, &ct.c1)] {
                let mut want = ctx.to_coeff(resident).rescale(active);
                ctx.forward_rows(&mut want);
                assert_eq!(got, &want, "{} → {} levels", ct.levels(), dropped.levels());
            }
            ct = dropped;
        }
    }

    /// What one seeded flow leaves behind: every byte string it wrote and
    /// the bits of every value it decrypted.
    fn kernel_flow(
        params: &CkksParams,
        kernel: &'static dyn super::super::ntt::NttKernel,
    ) -> (Vec<Vec<u8>>, Vec<u64>) {
        let ctx = CkksContext::with_ntt_kernel(params.clone(), kernel);
        let mut rng = StdRng::seed_from_u64(0x6b65_726e);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let values: Vec<f64> = (0..ctx.slot_count()).map(|i| (i as f64 * 0.37).sin()).collect();
        let public = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
        let symmetric = ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt");
        let canonical = ctx.serialize(&public);
        let seeded = ctx.serialize_seeded(&symmetric).expect("fresh symmetric");
        let views = [
            ctx.view_serialized(&canonical).expect("canonical view"),
            ctx.view_serialized_seeded(&seeded).expect("seeded view"),
        ];
        let mut acc = ctx.accumulator_for(&views[0]);
        for view in &views {
            ctx.fold_view(&mut acc, view).expect("fold");
        }
        let mean = ctx.mul_scalar(&acc, 0.5);
        let bits = [&public, &symmetric, &mean]
            .into_iter()
            .flat_map(|ct| ctx.decrypt(&sk, ct))
            .map(f64::to_bits)
            .collect();
        let bytes = vec![canonical, ctx.serialize(&symmetric), seeded, ctx.serialize(&acc)];
        (bytes, bits)
    }

    /// Every NTT kernel this CPU runs writes the scalar kernel's bytes
    /// and decrypts to its bits through keygen, both encryptions, both
    /// wire formats, the fold and the scalar close. The toy set's 50-
    /// and 40-bit primes run the IFMA52 multiplier where it is detected.
    #[test]
    fn every_ntt_kernel_matches_scalar_end_to_end() {
        let kernels = super::super::ntt::available_kernels();
        let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
        if kernels.len() == 1 {
            eprintln!("ntt kernels compared end to end: scalar only");
        } else {
            eprintln!("ntt kernels compared end to end: {}", names.join(", "));
        }
        for (set, params) in [
            ("CKKS-4", CkksParams::ckks4()),
            ("CKKS-3", CkksParams::ckks3()),
            ("toy", CkksParams::toy()),
        ] {
            let (want_bytes, want_bits) = kernel_flow(&params, kernels[0]);
            for &kernel in &kernels[1..] {
                let (bytes, bits) = kernel_flow(&params, kernel);
                for (i, (got, want)) in bytes.iter().zip(&want_bytes).enumerate() {
                    assert!(
                        got == want,
                        "{}: byte string {i} differs from scalar at {set}",
                        kernel.name()
                    );
                }
                assert!(
                    bits == want_bits,
                    "{}: decrypted bits differ from scalar at {set}",
                    kernel.name()
                );
            }
        }
    }
}
