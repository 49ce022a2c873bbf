//! Property-based tests for homomorphic-encryption invariants.
//!
//! Uses small (insecure) parameter sets so each case runs in microseconds;
//! the properties themselves are parameter-independent.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

use rhychee_fhe::ckks::{ntt::negacyclic_mul_naive, ntt::NttTable, CkksContext};
use rhychee_fhe::lwe::LweContext;
use rhychee_fhe::params::{CkksParams, LweParams};

fn toy_ckks() -> CkksContext {
    CkksContext::new(CkksParams { n: 64, prime_bits: vec![50, 40], scale_bits: 30, sigma: 3.2 })
        .expect("valid params")
}

fn toy_lwe() -> LweContext {
    LweContext::new(LweParams { dimension: 64, log_q: 12, plaintext_modulus: 16, sigma_int: 0.6 })
        .expect("valid params")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ckks_decrypt_of_encrypt_is_close(
        seed in any::<u64>(),
        values in prop::collection::vec(-100.0f64..100.0, 1..32),
    ) {
        let ctx = toy_ckks();
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let ct = ctx.encrypt(&pk, &values, &mut rng).unwrap();
        let back = ctx.decrypt(&sk, &ct);
        for (v, b) in values.iter().zip(&back) {
            prop_assert!((v - b).abs() < 1e-2, "{v} vs {b}");
        }
    }

    #[test]
    fn ckks_addition_homomorphism(
        seed in any::<u64>(),
        x in prop::collection::vec(-50.0f64..50.0, 8),
        y in prop::collection::vec(-50.0f64..50.0, 8),
    ) {
        let ctx = toy_ckks();
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let cx = ctx.encrypt(&pk, &x, &mut rng).unwrap();
        let cy = ctx.encrypt(&pk, &y, &mut rng).unwrap();
        let back = ctx.decrypt(&sk, &ctx.add(&cx, &cy).unwrap());
        for i in 0..8 {
            prop_assert!((back[i] - (x[i] + y[i])).abs() < 2e-2);
        }
    }

    #[test]
    fn ckks_scalar_mul_homomorphism(
        seed in any::<u64>(),
        x in prop::collection::vec(-10.0f64..10.0, 4),
        k in -5.0f64..5.0,
    ) {
        let ctx = toy_ckks();
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let cx = ctx.encrypt(&pk, &x, &mut rng).unwrap();
        let back = ctx.decrypt(&sk, &ctx.mul_scalar(&cx, k));
        for i in 0..4 {
            prop_assert!((back[i] - k * x[i]).abs() < 2e-2, "{} vs {}", back[i], k * x[i]);
        }
    }

    #[test]
    fn ckks_serialization_preserves_plaintext(
        seed in any::<u64>(),
        x in prop::collection::vec(-10.0f64..10.0, 4),
    ) {
        let ctx = toy_ckks();
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let ct = ctx.encrypt(&pk, &x, &mut rng).unwrap();
        let back = ctx.deserialize(&ctx.serialize(&ct)).unwrap();
        let dec = ctx.decrypt(&sk, &back);
        for i in 0..4 {
            prop_assert!((dec[i] - x[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn ntt_linear_in_first_argument(
        a in prop::collection::vec(0u64..1000, 32),
        b in prop::collection::vec(0u64..1000, 32),
        c in prop::collection::vec(0u64..1000, 32),
    ) {
        // (a + b) * c == a*c + b*c in the negacyclic ring.
        let q = rhychee_fhe::ckks::modarith::find_ntt_primes(40, 1, 64)[0];
        let table = NttTable::new(32, q);
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| (x + y) % q).collect();
        let lhs = table.multiply(&sum, &c);
        let ac = table.multiply(&a, &c);
        let bc = table.multiply(&b, &c);
        let rhs: Vec<u64> = ac.iter().zip(&bc).map(|(&x, &y)| (x + y) % q).collect();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn ntt_matches_naive_product(
        a in prop::collection::vec(0u64..100_000, 16),
        b in prop::collection::vec(0u64..100_000, 16),
    ) {
        let q = rhychee_fhe::ckks::modarith::find_ntt_primes(40, 1, 32)[0];
        let table = NttTable::new(16, q);
        prop_assert_eq!(table.multiply(&a, &b), negacyclic_mul_naive(&a, &b, q));
    }

    #[test]
    fn shoup_ntt_forward_inverse_is_identity(
        raw in prop::collection::vec(any::<u64>(), 64),
        prime_bits in 40u32..=61,
    ) {
        // The Shoup/Harvey lazy butterflies must stay exact right up to
        // the 62-bit modulus cap, for arbitrary canonical inputs.
        let q = rhychee_fhe::ckks::modarith::find_ntt_primes(prime_bits, 1, 128)[0];
        let table = NttTable::new(64, q);
        let a: Vec<u64> = raw.iter().map(|&x| x % q).collect();
        let mut t = a.clone();
        table.forward(&mut t);
        table.inverse(&mut t);
        prop_assert_eq!(t, a);
    }

    #[test]
    fn shoup_ntt_multiply_matches_naive_at_large_prime(
        raw_a in prop::collection::vec(any::<u64>(), 32),
        raw_b in prop::collection::vec(any::<u64>(), 32),
    ) {
        let q = rhychee_fhe::ckks::modarith::find_ntt_primes(61, 1, 64)[0];
        let table = NttTable::new(32, q);
        let a: Vec<u64> = raw_a.iter().map(|&x| x % q).collect();
        let b: Vec<u64> = raw_b.iter().map(|&x| x % q).collect();
        prop_assert_eq!(table.multiply(&a, &b), negacyclic_mul_naive(&a, &b, q));
    }

    #[test]
    fn lwe_round_trip(seed in any::<u64>(), m in 0u64..16) {
        let ctx = toy_lwe();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = ctx.generate_key(&mut rng);
        let ct = ctx.encrypt(&sk, m, &mut rng).unwrap();
        prop_assert_eq!(ctx.decrypt(&sk, &ct), m);
    }

    #[test]
    fn lwe_addition_homomorphism(seed in any::<u64>(), x in 0u64..16, y in 0u64..16) {
        let ctx = toy_lwe();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = ctx.generate_key(&mut rng);
        let cx = ctx.encrypt(&sk, x, &mut rng).unwrap();
        let cy = ctx.encrypt(&sk, y, &mut rng).unwrap();
        let sum = ctx.add(&cx, &cy).unwrap();
        prop_assert_eq!(ctx.decrypt(&sk, &sum), (x + y) % 16);
    }

    #[test]
    fn lwe_serialization_round_trip(seed in any::<u64>(), m in 0u64..16) {
        let ctx = toy_lwe();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = ctx.generate_key(&mut rng);
        let ct = ctx.encrypt(&sk, m, &mut rng).unwrap();
        let back = ctx.deserialize(&ctx.serialize(&ct)).unwrap();
        prop_assert_eq!(back, ct);
    }
}

// Every compiled-and-detected NTT backend must agree with the scalar
// reference bit for bit: the kernels share one contract (canonical
// outputs in `[0, q)`), so SIMD lane tricks and fused passes are free
// to differ internally but never externally.
mod ntt_backends {
    use super::*;
    use rhychee_fhe::ckks::modarith::find_ntt_primes;
    use rhychee_fhe::ckks::ntt::{available_kernels, negacyclic_mul_naive, NttTable};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_backend_round_trips(
            raw in prop::collection::vec(any::<u64>(), 128),
            prime_bits in 30u32..=61,
        ) {
            let q = find_ntt_primes(prime_bits, 1, 256)[0];
            let a: Vec<u64> = raw.iter().map(|&x| x % q).collect();
            for &kernel in available_kernels() {
                let table = NttTable::with_kernel(128, q, kernel);
                let mut t = a.clone();
                table.forward(&mut t);
                table.inverse(&mut t);
                prop_assert!(t == a, "backend {} broke the round trip", kernel.name());
            }
        }

        #[test]
        fn every_backend_matches_naive_product(
            raw_a in prop::collection::vec(any::<u64>(), 64),
            raw_b in prop::collection::vec(any::<u64>(), 64),
        ) {
            let q = find_ntt_primes(50, 1, 128)[0];
            let a: Vec<u64> = raw_a.iter().map(|&x| x % q).collect();
            let b: Vec<u64> = raw_b.iter().map(|&x| x % q).collect();
            let expected = negacyclic_mul_naive(&a, &b, q);
            for &kernel in available_kernels() {
                let table = NttTable::with_kernel(64, q, kernel);
                prop_assert!(
                    table.multiply(&a, &b) == expected,
                    "backend {} diverged from the naive product",
                    kernel.name()
                );
            }
        }
    }

    /// Forward and inverse transforms of every backend are bit-identical
    /// to scalar at every prime width a workspace `CkksParams` preset
    /// uses (30/35/40/45/50/61), for a fallback-sized ring, a vectorized
    /// one and the paper's N = 8192 — on a uniform vector and on the
    /// vectors that sit at the edges of the lazy-reduction ranges
    /// (every butterfly input at 0 or at `q − 1`).
    const WORKSPACE_PRIME_BITS: [u32; 6] = [30, 35, 40, 45, 50, 61];
    const RING_DEGREES: [usize; 3] = [16, 512, 8192];

    /// A uniform vector and the vectors that sit at the edges of the
    /// lazy-reduction ranges (every butterfly input at 0 or at `q − 1`).
    fn edge_inputs(rng: &mut StdRng, n: usize, q: u64) -> [(&'static str, Vec<u64>); 5] {
        use rand::Rng;
        let mut impulse = vec![0u64; n];
        impulse[n - 1] = q - 1;
        [
            ("uniform", (0..n).map(|_| rng.gen_range(0..q)).collect()),
            ("all 0", vec![0; n]),
            ("all q-1", vec![q - 1; n]),
            ("alternating 0/q-1", (0..n).map(|i| (i as u64 % 2) * (q - 1)).collect()),
            ("q-1 impulse", impulse),
        ]
    }

    #[test]
    fn backends_bit_identical_at_workspace_primes() {
        let mut rng = StdRng::seed_from_u64(0x5eed_bac4);
        let scalar = available_kernels()[0];
        for bits in WORKSPACE_PRIME_BITS {
            for n in RING_DEGREES {
                let q = find_ntt_primes(bits, 1, 2 * n as u64)[0];
                let inputs = edge_inputs(&mut rng, n, q);
                let scalar_table = NttTable::with_kernel(n, q, scalar);
                let tables: Vec<NttTable> =
                    available_kernels().iter().map(|&k| NttTable::with_kernel(n, q, k)).collect();
                for (what, input) in &inputs {
                    let mut fwd_ref = input.clone();
                    scalar_table.forward(&mut fwd_ref);
                    let mut inv_ref = fwd_ref.clone();
                    scalar_table.inverse(&mut inv_ref);

                    for table in &tables {
                        let at =
                            format!("{} on {what} at {bits}-bit prime, n = {n}", table.backend());
                        let mut fwd = input.clone();
                        table.forward(&mut fwd);
                        assert_eq!(fwd, fwd_ref, "forward != forward(scalar): {at}");
                        let mut inv = fwd;
                        table.inverse(&mut inv);
                        assert_eq!(inv, inv_ref, "inverse != inverse(scalar): {at}");
                        assert_eq!(&inv, input, "round trip must be the identity: {at}");
                    }
                }
            }
        }
    }

    /// What lets each encrypt body sum noise and message before its one
    /// transform: every backend's forward output is canonical (`< q`)
    /// and `Z_q`-linear, `forward(a +_q b) == forward(a) +_q forward(b)`
    /// element for element, on every pair of edge vectors.
    #[test]
    fn every_backend_forward_is_canonical_and_linear() {
        use rhychee_fhe::ckks::modarith::add_mod;
        let mut rng = StdRng::seed_from_u64(0x11_7ea5);
        for bits in WORKSPACE_PRIME_BITS {
            for n in RING_DEGREES {
                let q = find_ntt_primes(bits, 1, 2 * n as u64)[0];
                let inputs = edge_inputs(&mut rng, n, q);
                for &kernel in available_kernels() {
                    let table = NttTable::with_kernel(n, q, kernel);
                    let forward = |a: &[u64]| {
                        let mut t = a.to_vec();
                        table.forward(&mut t);
                        t
                    };
                    let transformed: Vec<Vec<u64>> =
                        inputs.iter().map(|(_, a)| forward(a)).collect();
                    for ((what, _), t) in inputs.iter().zip(&transformed) {
                        assert!(
                            t.iter().all(|&x| x < q),
                            "{} forward of {what} not below {bits}-bit q, n = {n}",
                            kernel.name()
                        );
                    }
                    for ((what_a, a), ta) in inputs.iter().zip(&transformed) {
                        for ((what_b, b), tb) in inputs.iter().zip(&transformed) {
                            let sum: Vec<u64> =
                                a.iter().zip(b).map(|(&x, &y)| add_mod(x, y, q)).collect();
                            let expected: Vec<u64> =
                                ta.iter().zip(tb).map(|(&x, &y)| add_mod(x, y, q)).collect();
                            assert!(
                                forward(&sum) == expected,
                                "{}: forward({what_a} + {what_b}) != forward sum at {bits}-bit \
                                 prime, n = {n}",
                                kernel.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

// Both ciphertext wire formats have one decoder each (`view_serialized*`
// validates, `CtView::to_ciphertext` materializes, `deserialize*` is the
// two composed): whatever bytes arrive, the view and the owning form
// agree on accept/reject, never panic, and an accepted blob folds to the
// bytes it materializes to.
mod wire_decoders {
    use super::*;
    use rand::Rng;
    use rhychee_fhe::bitpack::{bits_for, BitReader, BitWriter};

    /// Decodes `bytes` both ways; `true` when accepted.
    fn check(ctx: &CkksContext, seeded: bool, bytes: &[u8]) -> bool {
        let (owned, view) = if seeded {
            (ctx.deserialize_seeded(bytes), ctx.view_serialized_seeded(bytes))
        } else {
            (ctx.deserialize(bytes), ctx.view_serialized(bytes))
        };
        let view = match view {
            Ok(view) => view,
            Err(e) => {
                assert_eq!(owned.err(), Some(e), "view rejected what deserialize accepted");
                return false;
            }
        };
        let owned = ctx.serialize(&owned.expect("deserialize rejected what the view accepted"));
        assert_eq!(ctx.serialize(&view.to_ciphertext(ctx).expect("validated")), owned);
        let mut acc = ctx.accumulator_for(&view);
        ctx.fold_view(&mut acc, &view).expect("fold into its own accumulator");
        assert_eq!(ctx.serialize(&acc), owned, "fold into zero != materialized ciphertext");
        true
    }

    #[test]
    fn truncated_extended_and_mutated_blobs_decode_totally_and_consistently() {
        for params in [CkksParams::toy(), CkksParams::ckks3()] {
            let ctx = CkksContext::new(params).expect("valid params");
            let mut rng = StdRng::seed_from_u64(0x101a1);
            let (sk, _) = ctx.generate_keys(&mut rng);
            let ct = ctx.encrypt_symmetric(&sk, &[0.5, -1.25, 3.0], &mut rng).expect("encrypt");
            let formats =
                [(false, ctx.serialize(&ct)), (true, ctx.serialize_seeded(&ct).expect("fresh"))];
            for (seeded, blob) in formats {
                assert!(check(&ctx, seeded, &blob), "the valid blob must decode");
                for len in 0..blob.len() {
                    assert!(!check(&ctx, seeded, &blob[..len]), "truncation to {len}");
                }
                let mut longer = blob.clone();
                longer.push(0);
                assert!(!check(&ctx, seeded, &longer), "one appended byte");
                // Half the flips land in the first 48 bytes (level count,
                // scale, seed, digest), half anywhere in the residues.
                let mut accepted = 0;
                for i in 0..64 {
                    let span = if i % 2 == 0 { 48 } else { blob.len() };
                    let mut mutated = blob.clone();
                    mutated[rng.gen_range(0..span)] ^= 1 << rng.gen_range(0..8);
                    accepted += usize::from(check(&ctx, seeded, &mutated));
                }
                assert!(accepted > 0, "residue flips decode (to garbage), they do not error");
            }
        }
    }

    /// Header bits of each format: levels + scale, then seed + digest.
    const HEADER_BITS: usize = 8 + 64;
    const SEED_BITS: usize = 256 + 32;

    /// The raw `bits_for(q)`-bit fields of `polys` polynomials' residue
    /// rows, read one `read_bits` at a time from `skip` bits into `bytes`.
    fn raw_rows(
        ctx: &CkksContext,
        levels: usize,
        bytes: &[u8],
        skip: usize,
        polys: usize,
    ) -> Vec<Vec<u64>> {
        let mut r = BitReader::new(bytes);
        r.skip(skip).expect("header");
        let primes = &ctx.primes()[..levels];
        (0..polys * levels)
            .map(|row| {
                let bits = bits_for(primes[row % levels]);
                (0..ctx.params().n).map(|_| r.read_bits(bits).expect("residue")).collect()
            })
            .collect()
    }

    /// Canonical bytes of a ciphertext with `header`'s levels and scale
    /// whose row `i` holds `(acc[i] + raw[i] % q) % q` per residue.
    fn reference(ctx: &CkksContext, header: &[u8], raw: &[Vec<u64>], acc: &[Vec<u64>]) -> Vec<u8> {
        let levels = usize::from(header[0]);
        let mut h = BitReader::new(header);
        let mut w = BitWriter::new();
        w.write_bits(h.read_bits(8).expect("levels"), 8);
        w.write_bits(h.read_bits(64).expect("scale"), 64);
        for (i, (raw, acc)) in raw.iter().zip(acc).enumerate() {
            let q = ctx.primes()[i % levels];
            for (&v, &a) in raw.iter().zip(acc) {
                w.write_bits((a + v % q) % q, bits_for(q));
            }
        }
        w.into_bytes()
    }

    /// An independent `% q` oracle for corrupted residues: blobs with a
    /// valid header and random or all-`0xFF` residue bytes (every field
    /// then reads ≥ q), through to the last residue so the reader's tail
    /// path is covered. `deserialize*` must hold `raw % q` and
    /// `fold_view` into a nonzero accumulator `(a + raw % q) % q`, each
    /// checked against per-value `read_bits` and a division.
    #[test]
    fn corrupted_residues_reduce_like_rem_in_deserialize_and_fold() {
        for params in [CkksParams::toy(), CkksParams::ckks3(), CkksParams::ckks4()] {
            let ctx = CkksContext::new(params).expect("valid params");
            let levels = ctx.primes().len();
            let mut rng = StdRng::seed_from_u64(0x26);
            let (sk, _) = ctx.generate_keys(&mut rng);
            let ct = ctx.encrypt_symmetric(&sk, &[0.5, -1.25, 3.0], &mut rng).expect("encrypt");
            let blobs = [(false, ctx.serialize(&ct)), (true, ctx.serialize_seeded(&ct).unwrap())];
            let other = ctx.encrypt_symmetric(&sk, &[2.0], &mut rng).expect("encrypt");
            let acc_bytes = ctx.serialize(&other);
            let acc_rows = raw_rows(&ctx, levels, &acc_bytes, HEADER_BITS, 2);
            assert!(acc_rows.iter().flatten().any(|&a| a != 0), "the accumulator is nonzero");
            // Seeded `c1` is the seed's expansion, whatever `c0` holds.
            let seeded_c1 = raw_rows(&ctx, levels, &blobs[0].1, HEADER_BITS, 2);

            for (seeded, valid) in blobs {
                let header_bits = HEADER_BITS + if seeded { SEED_BITS } else { 0 };
                let first_residue = header_bits / 8;
                assert_eq!(header_bits % 8, 0, "residues start on a byte boundary");
                for fill in ["random", "0xFF"] {
                    let mut blob = valid.clone();
                    for byte in &mut blob[first_residue..] {
                        *byte = if fill == "0xFF" { 0xFF } else { rng.gen() };
                    }
                    let mut raw =
                        raw_rows(&ctx, levels, &blob, header_bits, 2 - usize::from(seeded));
                    if fill == "0xFF" {
                        for (i, row) in raw.iter().enumerate() {
                            assert!(row.iter().all(|&v| v >= ctx.primes()[i % levels]));
                        }
                    }
                    if seeded {
                        raw.extend_from_slice(&seeded_c1[levels..]);
                    }
                    let zero = vec![vec![0; ctx.params().n]; 2 * levels];
                    let what = format!("{levels} primes, seeded {seeded}, {fill}");

                    let owned =
                        if seeded { ctx.deserialize_seeded(&blob) } else { ctx.deserialize(&blob) };
                    let owned = ctx.serialize(&owned.expect("a valid header decodes"));
                    assert_eq!(owned, reference(&ctx, &blob, &raw, &zero), "deserialize {what}");

                    let view = if seeded {
                        ctx.view_serialized_seeded(&blob)
                    } else {
                        ctx.view_serialized(&blob)
                    };
                    let mut acc = ctx.deserialize(&acc_bytes).expect("valid accumulator");
                    ctx.fold_view(&mut acc, &view.expect("view")).expect("fold");
                    let expected = reference(&ctx, &blob, &raw, &acc_rows);
                    assert_eq!(ctx.serialize(&acc), expected, "fold_view {what}");
                }
            }
        }
    }
}

// Paillier proptests use a fixed key (keygen dominates runtime) shared
// across cases via a lazily-initialized static.
mod paillier_props {
    use super::*;
    use rhychee_fhe::paillier::PaillierContext;
    use std::sync::OnceLock;

    fn shared_ctx() -> &'static PaillierContext {
        static CTX: OnceLock<PaillierContext> = OnceLock::new();
        CTX.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(123);
            PaillierContext::generate(&mut rng, 256).expect("keygen")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn paillier_round_trip(seed in any::<u64>(), m in any::<u64>()) {
            let ctx = shared_ctx();
            let mut rng = StdRng::seed_from_u64(seed);
            let ct = ctx.encrypt_u64(m, &mut rng);
            prop_assert_eq!(ctx.decrypt_u64(&ct).unwrap(), m);
        }

        #[test]
        fn paillier_addition_homomorphism(seed in any::<u64>(), x in 0u64..u32::MAX as u64, y in 0u64..u32::MAX as u64) {
            let ctx = shared_ctx();
            let mut rng = StdRng::seed_from_u64(seed);
            let cx = ctx.encrypt_u64(x, &mut rng);
            let cy = ctx.encrypt_u64(y, &mut rng);
            prop_assert_eq!(ctx.decrypt_u64(&ctx.add(&cx, &cy)).unwrap(), x + y);
        }

        #[test]
        fn paillier_scalar_homomorphism(seed in any::<u64>(), m in 0u64..u32::MAX as u64, k in 0u64..1000) {
            let ctx = shared_ctx();
            let mut rng = StdRng::seed_from_u64(seed);
            let c = ctx.encrypt_u64(m, &mut rng);
            let ck = ctx.mul_scalar(&c, k);
            prop_assert_eq!(ctx.decrypt_u64(&ck).unwrap(), m * k);
        }

        #[test]
        fn paillier_f64_signed_round_trip(seed in any::<u64>(), v in -1e6f64..1e6) {
            let ctx = shared_ctx();
            let mut rng = StdRng::seed_from_u64(seed);
            let ct = ctx.encrypt_f64(v, &mut rng);
            prop_assert!((ctx.decrypt_f64(&ct) - v).abs() < 1e-6);
        }
    }
}
