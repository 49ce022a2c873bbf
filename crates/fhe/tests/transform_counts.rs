//! Transform-count regression tests for the CKKS pipeline.
//!
//! The `fhe.ckks.ntt.{forward,inverse}` timers make the "every
//! ciphertext is evaluation-domain" invariant auditable: each histogram
//! takes one sample per transform, so each test snapshots the histogram
//! counts around one operation and asserts the *exact* number of
//! per-prime transforms from the accounting table in DESIGN.md §11. Any
//! regression that sneaks a transform back into the hot path (or
//! re-transforms cached keys) fails loudly here.
//!
//! The registry is process-global, so every test serializes on one
//! mutex and measures deltas only.

use std::sync::Mutex;

use rand::{rngs::StdRng, SeedableRng};
use rhychee_fhe::ckks::threshold::ThresholdGroup;
use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::params::CkksParams;
use rhychee_par::Parallelism;
use rhychee_telemetry as telemetry;

static SERIAL: Mutex<()> = Mutex::new(());

fn ntt_counts() -> (u64, u64) {
    let m = telemetry::metrics::global();
    (m.histogram("fhe.ckks.ntt.forward").count(), m.histogram("fhe.ckks.ntt.inverse").count())
}

fn cache_counts() -> (u64, u64) {
    let m = telemetry::metrics::global();
    (
        m.counter("fhe.ckks.ntt.table_cache.hit").get(),
        m.counter("fhe.ckks.ntt.table_cache.miss").get(),
    )
}

#[test]
fn transform_counts_match_the_accounting_table() {
    let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::set_enabled(true);
    // A degree above the toy chain's two primes: an operation on one
    // ciphertext runs on the thread that called it whatever the degree,
    // so the pool's task counter must not move across this whole test.
    let ctx =
        CkksContext::with_parallelism(CkksParams::toy(), Parallelism::Fixed(4)).expect("params");
    let mut rng = StdRng::seed_from_u64(42);
    let (sk, pk) = ctx.generate_keys(&mut rng);
    let levels = ctx.primes().len() as u64;
    let values = vec![0.5; 100];
    let par_tasks = || telemetry::metrics::global().counter("par.tasks").get();
    let tasks0 = par_tasks();

    // Public-key encrypt: one forward per prime for each of
    // v (shared by both components), e0 + m (summed before the
    // transform) and e1 — no inverses, and no key transforms (keys were
    // cached at keygen).
    let (f0, i0) = ntt_counts();
    let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
    let (f1, i1) = ntt_counts();
    assert_eq!((f1 - f0, i1 - i0), (3 * levels, 0), "public-key encrypt");

    // The server aggregation loop is transform-free.
    let ct2 = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
    let (f0, i0) = ntt_counts();
    let mut acc = ctx.mul_scalar(&ct, 0.5);
    let scaled = ctx.mul_scalar(&ct2, 0.5);
    ctx.add_assign(&mut acc, &scaled).expect("add");
    let (f1, i1) = ntt_counts();
    assert_eq!((f1 - f0, i1 - i0), (0, 0), "aggregate");

    // Decrypt: exactly one inverse per prime (the cached NTT-form secret
    // key makes c1·s a pointwise product).
    let (f0, i0) = ntt_counts();
    let _ = ctx.decrypt(&sk, &acc);
    let (f1, i1) = ntt_counts();
    assert_eq!((f1 - f0, i1 - i0), (0, levels), "decrypt of a fresh sum");

    // Symmetric seeded encrypt: c1 is expanded from the seed directly in
    // the evaluation domain, so only e + m transforms.
    let (f0, i0) = ntt_counts();
    let sct = ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt");
    let (f1, i1) = ntt_counts();
    assert_eq!((f1 - f0, i1 - i0), (levels, 0), "symmetric encrypt");

    // Both wire formats carry the rows a ciphertext holds: serializing,
    // deserializing and folding run no transform, and a ciphertext that
    // crossed the wire decrypts at the price of a fresh one.
    let (f0, i0) = ntt_counts();
    let bytes = ctx.serialize(&sct);
    let seeded = ctx.serialize_seeded(&sct).expect("seeded");
    let back = ctx.deserialize(&bytes).expect("deserialize");
    let view = ctx.view_serialized_seeded(&seeded).expect("view");
    let reseeded = view.to_ciphertext(&ctx).expect("materialize");
    let mut folded = ctx.accumulator_for(&view);
    let seedexp = || telemetry::metrics::global().histogram("fhe.ckks.seedexp").count();
    let expansions = seedexp();
    ctx.fold_view(&mut folded, &view).expect("seeded fold");
    assert_eq!(seedexp() - expansions, 1, "a seeded fold times its c1 expansion once");
    ctx.fold_view(&mut folded, &ctx.view_serialized(&bytes).expect("view")).expect("fold");
    let (f1, i1) = ntt_counts();
    assert_eq!((f1 - f0, i1 - i0), (0, 0), "serialize / deserialize / fold");
    for (ct, origin) in [(&back, "canonical"), (&reseeded, "seeded"), (&folded, "folded")] {
        let (f0, i0) = ntt_counts();
        let _ = ctx.decrypt(&sk, ct);
        let (f1, i1) = ntt_counts();
        assert_eq!((f1 - f0, i1 - i0), (0, levels), "decrypt of a {origin} ciphertext");
    }

    ctx.rescale(&sct).expect("rescale");
    assert_eq!(par_tasks() - tasks0, 0, "a single-ciphertext operation opened a pool scope");
}

#[test]
fn ntt_table_cache_is_shared_across_contexts() {
    let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::set_enabled(true);
    // Parameters used nowhere else in this binary, so the first context
    // must miss for every prime and the second must hit for every one.
    let params = CkksParams { n: 1024, prime_bits: vec![44, 33], scale_bits: 25, sigma: 3.2 };
    let (h0, m0) = cache_counts();
    let a = CkksContext::new(params.clone()).expect("params");
    let (h1, m1) = cache_counts();
    assert_eq!(h1 - h0, 0, "first context cannot hit");
    assert_eq!(m1 - m0, a.primes().len() as u64, "one miss per prime");
    let b = CkksContext::new(params).expect("params");
    let (h2, m2) = cache_counts();
    assert_eq!(h2 - h1, b.primes().len() as u64, "second context hits every prime");
    assert_eq!(m2 - m1, 0, "second context cannot miss");
    assert_eq!(a.primes(), b.primes());
}

#[test]
fn refused_encrypts_record_no_encrypt_sample() {
    let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::set_enabled(true);
    let ctx = CkksContext::new(CkksParams::toy()).expect("params");
    let mut rng = StdRng::seed_from_u64(7);
    let (sk, pk) = ctx.generate_keys(&mut rng);
    let too_big = vec![0.25; ctx.slot_count() + 1];
    let not_finite = [0.25, f64::NAN, 0.5];
    // The span's histogram is the only encrypt count: a call refused for
    // an oversized or non-finite plaintext must leave it where it was.
    let encrypts = || telemetry::metrics::global().histogram("fhe.ckks.encrypt").count();
    let before = encrypts();
    for refused in [&too_big[..], &not_finite] {
        assert!(ctx.encrypt(&pk, refused, &mut rng).is_err(), "public-key encrypt refuses");
        assert!(ctx.encrypt_symmetric(&sk, refused, &mut rng).is_err(), "symmetric refuses");
    }
    assert_eq!(encrypts(), before, "a refused encrypt was counted");
    ctx.encrypt(&pk, &too_big[1..], &mut rng).expect("a full plaintext fits");
    assert_eq!(encrypts(), before + 1, "an accepted encrypt is counted once");
}

#[test]
fn encoder_timers_take_one_sample_per_plaintext_crossing() {
    let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::set_enabled(true);
    let ctx = CkksContext::new(CkksParams::toy()).expect("params");
    let mut rng = StdRng::seed_from_u64(11);
    let (sk, pk) = ctx.generate_keys(&mut rng);
    let group = ThresholdGroup::generate(&ctx, 3, 2, &mut rng).expect("2-of-3");
    let values = vec![0.5; 100];
    // `fhe.ckks.encode` times each plaintext going in and
    // `fhe.ckks.decode` each one coming out; both are histograms, so
    // their counts are the number of crossings.
    let samples = || {
        let m = telemetry::metrics::global();
        (m.histogram("fhe.ckks.encode").count(), m.histogram("fhe.ckks.decode").count())
    };
    let delta = |f: &mut dyn FnMut()| {
        let (e0, d0) = samples();
        f();
        let (e1, d1) = samples();
        (e1 - e0, d1 - d0)
    };

    let mut ct = None;
    assert_eq!(delta(&mut || ct = ctx.encrypt(&pk, &values, &mut rng).ok()), (1, 0), "public key");
    let ct = ct.expect("encrypt");
    let mut sct = None;
    let symmetric = &mut || sct = ctx.encrypt_symmetric(&sk, &values, &mut rng).ok();
    assert_eq!(delta(symmetric), (1, 0), "secret key");
    let sct = sct.expect("encrypt");
    let too_big = vec![0.25; ctx.slot_count() + 1];
    for refused in [&too_big[..], &[0.25, f64::INFINITY]] {
        let refusals = &mut || {
            assert!(ctx.encrypt(&pk, refused, &mut rng).is_err());
            assert!(ctx.encrypt_symmetric(&sk, refused, &mut rng).is_err());
        };
        assert_eq!(delta(refusals), (0, 0), "a refused encrypt");
    }

    let wire_and_fold = &mut || {
        let bytes = ctx.serialize(&ct);
        let seeded = ctx.serialize_seeded(&sct).expect("seeded");
        let view = ctx.view_serialized(&bytes).expect("view");
        let mut acc = ctx.accumulator_for(&view);
        ctx.fold_view(&mut acc, &view).expect("fold");
        ctx.fold_view(&mut acc, &ctx.view_serialized_seeded(&seeded).expect("view"))
            .expect("seeded fold");
        drop(ctx.mul_scalar(&acc, 0.5));
    };
    assert_eq!(delta(wire_and_fold), (0, 0), "serialize, mul_scalar and fold");

    assert_eq!(delta(&mut || drop(ctx.decrypt(&sk, &sct))), (0, 1), "decrypt");
    let gct = ctx.encrypt(group.public_key(), &values, &mut rng).expect("encrypt");
    let partials: Vec<_> =
        (0..2).map(|i| group.partial_decrypt_subset(&ctx, i, &[0, 1], &gct, &mut rng)).collect();
    let partials: Vec<_> = partials.into_iter().collect::<Result<_, _>>().expect("partials");
    let combine = &mut || drop(ThresholdGroup::combine(&ctx, &gct, &partials));
    assert_eq!(delta(combine), (0, 1), "threshold combine");
}

#[test]
fn mul_scalar_counts_once_per_call_and_nowhere_else() {
    let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::set_enabled(true);
    let ctx = CkksContext::new(CkksParams::toy()).expect("params");
    let mut rng = StdRng::seed_from_u64(13);
    let (sk, pk) = ctx.generate_keys(&mut rng);
    let values = vec![0.5; 100];
    // The round's close scales each ciphertext of the sum once; the
    // counter is the number of those calls and nothing else moves it.
    let scaled = || telemetry::metrics::global().counter("fhe.ckks.mul_scalar").get();
    let before = scaled();
    let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
    let sct = ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt");
    let bytes = ctx.serialize(&ct);
    let seeded = ctx.serialize_seeded(&sct).expect("seeded");
    let back = ctx.deserialize(&bytes).expect("deserialize");
    let view = ctx.view_serialized(&bytes).expect("view");
    let mut acc = ctx.accumulator_for(&view);
    ctx.fold_view(&mut acc, &view).expect("fold");
    ctx.fold_view(&mut acc, &ctx.view_serialized_seeded(&seeded).expect("view")).expect("fold");
    drop((ctx.decrypt(&sk, &acc), ctx.decrypt(&sk, &back)));
    assert_eq!(scaled(), before, "encrypt, serialize, deserialize, fold and decrypt");
    for calls in 1..=3 {
        drop(ctx.mul_scalar(&acc, 0.5));
        assert_eq!(scaled(), before + calls, "one count per mul_scalar call");
    }
}
