//! The noise a CKKS encryption draws: how many PRNG words it consumes
//! (the stream contract DESIGN §5.1 states) and how large the decryption
//! error it causes is — bounded above *and below*.

use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

use rhychee_fhe::ckks::{CkksContext, CkksSymmetricNoise};
use rhychee_fhe::params::CkksParams;
use rhychee_fhe::sampling::GaussianSampler;

/// Counts every word drawn from the generator it wraps. `fill_bytes` is
/// the trait's default — one `next_u64` per 8 bytes — so it is counted
/// through `next_u64`.
struct CountingRng {
    inner: StdRng,
    words: usize,
}

impl CountingRng {
    fn new(seed: u64) -> Self {
        CountingRng { inner: StdRng::seed_from_u64(seed), words: 0 }
    }
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

#[test]
fn noise_sampling_consumes_the_documented_number_of_words() {
    for sigma in [0.4, 0.6, 3.2, 1024.0] {
        let sampler = GaussianSampler::new(sigma);
        for n in [0usize, 1, 7, 512, 8192] {
            let mut rng = CountingRng::new(1);
            sampler.fill(&mut rng, &mut vec![0i64; n]);
            assert_eq!(rng.words, n, "a Gaussian vector of {n} at sigma {sigma}");
        }
        let mut rng = CountingRng::new(2);
        sampler.sample(&mut rng);
        assert_eq!(rng.words, 1);
    }

    for params in [CkksParams::toy(), CkksParams::ckks3(), CkksParams::ckks4()] {
        let n = params.n;
        let ctx = CkksContext::new(params).expect("params");

        // Ternary `v` (n), then `e0` (n), then `e1` (n).
        let mut rng = CountingRng::new(3);
        let _ = ctx.sample_encrypt_noise(&mut rng);
        assert_eq!(rng.words, 3 * n, "sample_encrypt_noise at n = {n}");

        // 32 seed bytes (4 words) first, then `e` (n).
        let mut rng = CountingRng::new(4);
        let _ = ctx.sample_symmetric_noise(&mut rng);
        assert_eq!(rng.words, 4 + n, "sample_symmetric_noise at n = {n}");

        let mut rng = CountingRng::new(4);
        let mut noise = CkksSymmetricNoise::default();
        for call in 1..=2 {
            ctx.sample_symmetric_noise_into(&mut rng, &mut noise);
            assert_eq!(rng.words, call * (4 + n), "sample_symmetric_noise_into at n = {n}");
        }
    }
}

/// Largest slot error of one `decrypt(encrypt(x))`.
fn max_slot_error(x: &[f64], back: &[f64]) -> f64 {
    x.iter().zip(back).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
}

/// Fresh-encryption noise is neither too large nor absent.
///
/// Decrypting a public-key ciphertext gives `c0 + c1·s = m + e·v + e0 +
/// e1·s` with `(b, a) = (−a·s + e, a)`: beside `e0`, each coefficient of
/// the error carries two negacyclic products of a Gaussian polynomial
/// with a uniform ternary one, i.e. `2N` terms of variance `σ²·⅔`, so a
/// coefficient has variance `σ²(1 + 2·N·⅔) = σ²(1 + 4N/3)`. A symmetric
/// ciphertext decrypts to `m + e`: variance `σ²`. Decoding evaluates the
/// error polynomial at a primitive `2N`-th root of unity and divides by
/// Δ — a sum of `N` coefficients with unit-modulus weights — so a slot's
/// error has standard deviation `s = σ_coeff·√N / Δ` (its real part, the
/// value returned, `s/√2`). The largest of `N/2` such slots sits near
/// `s/√2 · √(2 ln N) ≈ 2.5–3 s` for `N` in 512…8192: inside `[s/4, 6s]`
/// with a factor two to spare above and ten below. The upper side is the
/// analytic bound on decrypt error; the lower side is what a round-trip
/// test cannot see — a sampler that returns zeros decrypts perfectly.
#[test]
fn fresh_encryption_error_is_within_two_sided_analytic_bounds() {
    for (name, params) in
        [("toy", CkksParams::toy()), ("ckks3", CkksParams::ckks3()), ("ckks4", CkksParams::ckks4())]
    {
        let (n, sigma) = (params.n as f64, params.sigma);
        let delta = f64::from(1u32 << params.scale_bits);
        let s_public = sigma * (n * (1.0 + 4.0 * n / 3.0)).sqrt() / delta;
        let s_symmetric = sigma * n.sqrt() / delta;

        let ctx = CkksContext::new(params).expect("params");
        let mut rng = StdRng::seed_from_u64(0x24);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        for trial in 0..8 {
            let x: Vec<f64> = (0..ctx.slot_count()).map(|_| rng.gen_range(-1.0..1.0)).collect();

            let ct = ctx.encrypt(&pk, &x, &mut rng).expect("encrypt");
            let err = max_slot_error(&x, &ctx.decrypt(&sk, &ct));
            assert!(
                (s_public / 4.0..=6.0 * s_public).contains(&err),
                "{name} public-key trial {trial}: max slot error {err:e}, s = {s_public:e}"
            );

            let ct = ctx.encrypt_symmetric(&sk, &x, &mut rng).expect("encrypt_symmetric");
            let err = max_slot_error(&x, &ctx.decrypt(&sk, &ct));
            assert!(
                (s_symmetric / 4.0..=6.0 * s_symmetric).contains(&err),
                "{name} symmetric trial {trial}: max slot error {err:e}, s = {s_symmetric:e}"
            );
        }
    }
}
