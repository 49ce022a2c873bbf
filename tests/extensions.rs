//! Integration tests for the beyond-the-paper extensions: threshold
//! CKKS federated aggregation (no shared secret key) and TFHE
//! programmable bootstrapping applied after homomorphic aggregation.

use rand::{rngs::StdRng, SeedableRng};

use rhychee_fl::core::packing;
use rhychee_fl::fhe::ckks::threshold::ThresholdGroup;
use rhychee_fl::fhe::ckks::CkksContext;
use rhychee_fl::fhe::lwe::LweContext;
use rhychee_fl::fhe::params::{CkksParams, LweParams};
use rhychee_fl::fhe::tfhe_boot::{BootstrapContext, BootstrapParams};

#[test]
fn federated_round_under_threshold_keys() {
    // A full aggregation round where no client ever holds the whole
    // secret key: joint keygen -> encrypt -> HomAvg -> distributed
    // decryption.
    let ctx = CkksContext::new(CkksParams::toy()).expect("params");
    let mut rng = StdRng::seed_from_u64(1);
    let clients = 4;
    let group = ThresholdGroup::generate(&ctx, clients, clients, &mut rng).expect("n-of-n");

    let models: Vec<Vec<f32>> = (0..clients)
        .map(|c| (0..300).map(|i| ((c * 300 + i) as f32 * 0.01).sin()).collect())
        .collect();
    let uploads: Vec<_> = models
        .iter()
        .map(|m| {
            packing::encrypt_model_with(
                &ctx,
                group.public_key(),
                m,
                &packing::PackingConfig::dense(),
                &mut rng,
            )
            .expect("encrypt")
        })
        .collect();
    let global_cts = packing::homomorphic_average(&ctx, &uploads).expect("aggregate");

    // Distributed decryption of every chunk.
    let mut global = Vec::new();
    for ct in &global_cts {
        let partials: Vec<_> =
            (0..clients).map(|i| group.partial_decrypt(&ctx, i, ct, &mut rng)).collect();
        global.extend(ThresholdGroup::combine(&ctx, ct, &partials));
    }
    for i in 0..300 {
        let expected: f32 = models.iter().map(|m| m[i]).sum::<f32>() / clients as f32;
        assert!(
            (global[i] as f32 - expected).abs() < 0.05,
            "param {i}: {} vs {expected}",
            global[i]
        );
    }
}

#[test]
fn bootstrapped_nonlinearity_after_aggregation() {
    // The §IV-B2 TFHE scenario end-to-end: clients report small counts,
    // the server sums them homomorphically and then applies a non-linear
    // threshold via programmable bootstrapping — all without decryption.
    let params = BootstrapParams {
        lwe: LweParams { dimension: 64, log_q: 9, plaintext_modulus: 8, sigma_int: 0.4 },
        ring_degree: 256,
        ring_modulus_bits: 27,
        gadget_log_base: 9,
        gadget_levels: 3,
        ks_log_base: 7,
        ks_levels: 4,
        rlwe_sigma: 3.2,
    };
    let ctx = LweContext::new(params.lwe).expect("lwe params");
    let mut rng = StdRng::seed_from_u64(2);
    let sk = ctx.generate_key(&mut rng);
    let boot = BootstrapContext::generate(&params, &ctx, &sk, &mut rng).expect("keygen");

    // Three clients vote 0/1/2; threshold at >= 3 of a possible 6.
    let votes = [0u64, 1, 2];
    let mut acc = ctx.encrypt(&sk, votes[0], &mut rng).expect("encrypt");
    for &v in &votes[1..] {
        let ct = ctx.encrypt(&sk, v, &mut rng).expect("encrypt");
        ctx.add_assign(&mut acc, &ct).expect("add");
    }
    let majority: Vec<u64> = (0..8).map(|x| u64::from(x >= 3)).collect();
    let decision = boot.bootstrap(&acc, &majority).expect("bootstrap");
    assert_eq!(ctx.decrypt(&sk, &decision), 1, "sum = 3 crosses the threshold");
}
