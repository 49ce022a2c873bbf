//! Property-based tests for HDC invariants.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use rhychee_hdc::encoding::{Encoder, RandomProjectionEncoder, RbfEncoder};
use rhychee_hdc::model::HdcModel;
use rhychee_par::Parallelism;

/// Cosine similarity the serial way: three sums through the dimensions
/// in index order, 0.0 when either vector is zero.
fn serial_cosine(a: &[f32], b: &[f32]) -> f32 {
    let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

fn random_vec(rng: &mut StdRng, len: usize, bound: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-bound..bound)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rbf_outputs_bounded(
        seed in any::<u64>(),
        features in prop::collection::vec(-10.0f32..10.0, 4..16),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = RbfEncoder::new(features.len(), 64, &mut rng);
        let hv = enc.encode(&features);
        prop_assert_eq!(hv.len(), 64);
        prop_assert!(hv.iter().all(|&h| (-1.0..=1.0).contains(&h)));
    }

    #[test]
    fn projection_outputs_bipolar(
        seed in any::<u64>(),
        features in prop::collection::vec(-10.0f32..10.0, 4..16),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = RandomProjectionEncoder::new(features.len(), 64, &mut rng);
        let hv = enc.encode(&features);
        prop_assert!(hv.iter().all(|&h| h == 1.0 || h == -1.0));
    }

    #[test]
    fn encoding_scale_invariance_of_projection(
        seed in any::<u64>(),
        features in prop::collection::vec(0.01f32..10.0, 8),
        scale in 0.1f32..100.0,
    ) {
        // sign(B·(c·F)) = sign(B·F) for c > 0.
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = RandomProjectionEncoder::new(8, 128, &mut rng);
        let scaled: Vec<f32> = features.iter().map(|&x| x * scale).collect();
        prop_assert_eq!(enc.encode(&features), enc.encode(&scaled));
    }

    #[test]
    fn model_flatten_round_trip(
        flat in prop::collection::vec(-100.0f32..100.0, 24),
    ) {
        let model = HdcModel::from_flat(&flat, 3, 8);
        prop_assert_eq!(model.flatten(), flat);
    }

    #[test]
    fn classification_is_scale_invariant(
        flat in prop::collection::vec(-10.0f32..10.0, 32),
        hv in prop::collection::vec(-1.0f32..1.0, 16),
        scale in 0.001f32..1000.0,
    ) {
        // Cosine similarity ignores the model's global scale.
        let m1 = HdcModel::from_flat(&flat, 2, 16);
        let scaled: Vec<f32> = flat.iter().map(|&x| x * scale).collect();
        let m2 = HdcModel::from_flat(&scaled, 2, 16);
        prop_assert_eq!(m1.classify(&hv), m2.classify(&hv));
    }

    #[test]
    fn training_on_one_sample_fixes_it(
        seed in any::<u64>(),
        label in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hv: Vec<f32> = (0..32).map(|_| rand::Rng::gen_range(&mut rng, -1.0f32..1.0)).collect();
        let mut model = HdcModel::new(3, 32);
        // Repeated adaptive updates converge on a single sample.
        for _ in 0..10 {
            if model.train_sample(&hv, label, 1.0) {
                break;
            }
        }
        prop_assert_eq!(model.classify(&hv), label);
    }

    #[test]
    fn normalize_is_idempotent(flat in prop::collection::vec(-10.0f32..10.0, 32)) {
        let mut m = HdcModel::from_flat(&flat, 2, 16);
        m.normalize();
        let once = m.flatten();
        m.normalize();
        let twice = m.flatten();
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn similarities_are_the_serial_cosines_at_any_shape(
        seed in any::<u64>(),
        classes in 1usize..40,
        dim in 1usize..70,
    ) {
        // Shapes on both sides of the lane-block width, ragged last blocks.
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = random_vec(&mut rng, classes * dim, 10.0);
        let hv = random_vec(&mut rng, dim, 1.0);
        let model = HdcModel::from_flat(&flat, classes, dim);
        let sims: Vec<f32> = flat.chunks(dim).map(|row| serial_cosine(row, &hv)).collect();
        for (l, sim) in sims.iter().enumerate() {
            prop_assert!(model.similarity(l, &hv).to_bits() == sim.to_bits(), "class {}", l);
        }
        // The last maximum under `total_cmp`.
        let best = sims.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(l, _)| l);
        prop_assert_eq!(Some(model.classify(&hv)), best);
    }

    #[test]
    fn flat_form_round_trips_at_any_shape(
        seed in any::<u64>(),
        classes in 1usize..40,
        dim in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = random_vec(&mut rng, classes * dim, 100.0);
        let model = HdcModel::from_flat(&flat, classes, dim);
        prop_assert_eq!(model.flatten(), flat.clone());
        prop_assert_eq!(HdcModel::from_flat(&model.flatten(), classes, dim), model.clone());
        // Loading over a trained model leaves nothing of it behind.
        let mut reused = HdcModel::new(classes, dim);
        reused.train_sample(&random_vec(&mut rng, dim, 1.0), 0, 1.0);
        reused.load_flat(&flat);
        prop_assert_eq!(reused, model);
    }

    #[test]
    fn batch_encoding_is_per_sample_encoding(
        seed in any::<u64>(),
        features in 1usize..12,
        dim in 1usize..100,
        samples in 0usize..40,
        degree in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<Vec<f32>> = (0..samples).map(|_| random_vec(&mut rng, features, 3.0)).collect();
        let rbf = RbfEncoder::new(features, dim, &mut rng);
        let projection = RandomProjectionEncoder::new(features, dim, &mut rng);
        let one_by_one: Vec<Vec<f32>> = data.iter().map(|x| rbf.encode(x)).collect();
        prop_assert_eq!(rbf.encode_batch(&data, Parallelism::Fixed(degree)), one_by_one);
        let one_by_one: Vec<Vec<f32>> = data.iter().map(|x| projection.encode(x)).collect();
        prop_assert_eq!(projection.encode_batch(&data, Parallelism::Fixed(degree)), one_by_one);
    }
}
