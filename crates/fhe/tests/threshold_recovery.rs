//! Standalone suite for `ckks::threshold` dropout recovery: k-of-n
//! Shamir partial decryptions, quorum validation, and the missing-share
//! error path. Until now this machinery was only reachable indirectly
//! through the doc example; the scenario engine leans on it for
//! keyholder-churn recovery, so it gets direct coverage here.

use rand::{rngs::StdRng, SeedableRng};
use rhychee_fhe::ckks::threshold::ThresholdGroup;
use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::error::FheError;
use rhychee_fhe::params::CkksParams;

fn toy_ctx() -> CkksContext {
    CkksContext::new(CkksParams::toy()).expect("toy params")
}

fn assert_close(got: &[f64], want: &[f64], tol: f64) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!((g - w).abs() < tol, "slot {i}: {g} vs {w}");
    }
}

#[test]
fn every_3_of_5_quorum_decrypts_identically() {
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(41);
    let group = ThresholdGroup::generate(&ctx, 5, 3, &mut rng).expect("kofn");
    let values = vec![0.5, -3.75, 12.0, 0.0];
    let ct = ctx.encrypt(group.public_key(), &values, &mut rng).expect("encrypt");
    // Exhaustively try all C(5,3) = 10 quorums: each must recover the
    // plaintext regardless of which two parties dropped.
    for a in 0..5usize {
        for b in a + 1..5 {
            for c in b + 1..5 {
                let subset = [a, b, c];
                let partials: Vec<_> = subset
                    .iter()
                    .map(|&p| {
                        group
                            .partial_decrypt_subset(&ctx, p, &subset, &ct, &mut rng)
                            .expect("member of a valid quorum")
                    })
                    .collect();
                let back = group.combine_checked(&ctx, &ct, &partials).expect("quorum met");
                assert_close(&back[..values.len()], &values, 0.05);
            }
        }
    }
}

#[test]
fn oversized_quorum_also_decrypts() {
    // More than k survivors is fine: Lagrange interpolation over any
    // subset of size >= k still lands on F(0).
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(42);
    let group = ThresholdGroup::generate(&ctx, 4, 2, &mut rng).expect("kofn");
    let values = vec![7.0, 8.0];
    let ct = ctx.encrypt(group.public_key(), &values, &mut rng).expect("encrypt");
    let subset = [0usize, 1, 3];
    let partials: Vec<_> = subset
        .iter()
        .map(|&p| group.partial_decrypt_subset(&ctx, p, &subset, &ct, &mut rng).expect("valid"))
        .collect();
    let back = group.combine_checked(&ctx, &ct, &partials).expect("quorum met");
    assert_close(&back[..2], &values, 0.05);
}

#[test]
fn below_threshold_subset_is_rejected() {
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(43);
    let group = ThresholdGroup::generate(&ctx, 5, 3, &mut rng).expect("kofn");
    let ct = ctx.encrypt(group.public_key(), &[1.0], &mut rng).expect("encrypt");
    let err = group.partial_decrypt_subset(&ctx, 0, &[0, 1], &ct, &mut rng).unwrap_err();
    assert!(matches!(err, FheError::InvalidParams(_)), "got {err}");
}

#[test]
fn combine_checked_rejects_missing_share() {
    // The dropout error path: three partials were promised but one
    // keyholder died before publishing — combine must refuse rather
    // than hand back garbage.
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(44);
    let group = ThresholdGroup::generate(&ctx, 5, 3, &mut rng).expect("kofn");
    let ct = ctx.encrypt(group.public_key(), &[9.0], &mut rng).expect("encrypt");
    let subset = [0usize, 2, 4];
    let partials: Vec<_> = subset[..2]
        .iter()
        .map(|&p| group.partial_decrypt_subset(&ctx, p, &subset, &ct, &mut rng).expect("valid"))
        .collect();
    let err = group.combine_checked(&ctx, &ct, &partials).unwrap_err();
    assert!(matches!(err, FheError::InvalidParams(_)), "got {err}");
}

#[test]
fn combine_checked_rejects_duplicate_share() {
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(45);
    let group = ThresholdGroup::generate(&ctx, 5, 3, &mut rng).expect("kofn");
    let ct = ctx.encrypt(group.public_key(), &[9.0], &mut rng).expect("encrypt");
    let subset = [0usize, 2, 4];
    let p0 = group.partial_decrypt_subset(&ctx, 0, &subset, &ct, &mut rng).expect("valid");
    let p2 = group.partial_decrypt_subset(&ctx, 2, &subset, &ct, &mut rng).expect("valid");
    let err = group.combine_checked(&ctx, &ct, &[p0.clone(), p0, p2]).unwrap_err();
    assert!(matches!(err, FheError::InvalidParams(_)), "got {err}");
}

#[test]
fn party_outside_declared_subset_is_rejected() {
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(46);
    let group = ThresholdGroup::generate(&ctx, 5, 3, &mut rng).expect("kofn");
    let ct = ctx.encrypt(group.public_key(), &[1.0], &mut rng).expect("encrypt");
    let err = group.partial_decrypt_subset(&ctx, 1, &[0, 2, 4], &ct, &mut rng).unwrap_err();
    assert!(matches!(err, FheError::InvalidParams(_)), "got {err}");
}

#[test]
fn out_of_range_and_degenerate_params_are_rejected() {
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(47);
    assert!(ThresholdGroup::generate(&ctx, 3, 0, &mut rng).is_err());
    assert!(ThresholdGroup::generate(&ctx, 3, 4, &mut rng).is_err());
    assert!(ThresholdGroup::generate(&ctx, 0, 0, &mut rng).is_err());
    let group = ThresholdGroup::generate(&ctx, 3, 2, &mut rng).expect("kofn");
    let ct = ctx.encrypt(group.public_key(), &[1.0], &mut rng).expect("encrypt");
    let err = group.partial_decrypt_subset(&ctx, 0, &[0, 7], &ct, &mut rng).unwrap_err();
    assert!(matches!(err, FheError::InvalidParams(_)), "got {err}");
}

#[test]
fn below_threshold_coalition_sees_garbage() {
    // k−1 colluders who lie about the quorum (declare a full subset but
    // only sum their own partials) must not recover the plaintext.
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(48);
    let group = ThresholdGroup::generate(&ctx, 5, 3, &mut rng).expect("kofn");
    let values = vec![42.0; 8];
    let ct = ctx.encrypt(group.public_key(), &values, &mut rng).expect("encrypt");
    let subset = [0usize, 2, 4];
    let partials: Vec<_> = [0usize, 2]
        .iter()
        .map(|&p| group.partial_decrypt_subset(&ctx, p, &subset, &ct, &mut rng).expect("valid"))
        .collect();
    let broken = ThresholdGroup::combine(&ctx, &ct, &partials);
    let max_err = broken[..8].iter().map(|b| (b - 42.0).abs()).fold(0.0f64, f64::max);
    assert!(max_err > 1.0, "2-of-3 coalition must not learn the plaintext (err {max_err})");
}

#[test]
fn homomorphic_average_survives_keyholder_dropout() {
    // The federation story end-to-end: clients encrypt under the joint
    // key, the server averages homomorphically, a keyholder churns out,
    // and the surviving quorum still opens the global model.
    let ctx = toy_ctx();
    let mut rng = StdRng::seed_from_u64(49);
    let group = ThresholdGroup::generate(&ctx, 4, 3, &mut rng).expect("kofn");
    let models = [[2.0, 4.0], [4.0, 8.0], [6.0, 12.0], [8.0, 16.0]];
    let mut acc = ctx.encrypt(group.public_key(), &models[0], &mut rng).expect("encrypt");
    for m in &models[1..] {
        let ct = ctx.encrypt(group.public_key(), m, &mut rng).expect("encrypt");
        ctx.add_assign(&mut acc, &ct).expect("add");
    }
    let avg = ctx.mul_scalar(&acc, 0.25);
    // Party 1 dropped with its share; {0, 2, 3} recover the average.
    let subset = [0usize, 2, 3];
    let partials: Vec<_> = subset
        .iter()
        .map(|&p| group.partial_decrypt_subset(&ctx, p, &subset, &avg, &mut rng).expect("valid"))
        .collect();
    let back = group.combine_checked(&ctx, &avg, &partials).expect("quorum met");
    assert_close(&back[..2], &[5.0, 10.0], 0.05);
}

#[test]
fn kofn_replays_bit_identically_from_the_same_seed() {
    // The scenario engine's determinism contract extends to threshold
    // recovery: same seed, same ceremony, same partials, same bits.
    let run = || {
        let ctx = toy_ctx();
        let mut rng = StdRng::seed_from_u64(50);
        let group = ThresholdGroup::generate(&ctx, 5, 3, &mut rng).expect("kofn");
        let ct = ctx.encrypt(group.public_key(), &[1.25, 2.5], &mut rng).expect("encrypt");
        let subset = [1usize, 2, 3];
        let partials: Vec<_> = subset
            .iter()
            .map(|&p| group.partial_decrypt_subset(&ctx, p, &subset, &ct, &mut rng).expect("ok"))
            .collect();
        group.combine_checked(&ctx, &ct, &partials).expect("quorum met")
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "replay must be bit-identical");
    }
}
