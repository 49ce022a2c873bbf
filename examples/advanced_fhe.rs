//! Advanced FHE features beyond the paper's aggregation pipeline:
//!
//! 1. **Threshold CKKS** — federated aggregation where *no client holds
//!    the full secret key* (the xMK-CKKS architecture class): joint key
//!    generation, encrypted FedAvg, distributed decryption.
//! 2. **TFHE programmable bootstrapping** — an exact non-linear LUT over
//!    an encrypted aggregate (the §IV-B2 TFHE use-case).
//!
//! Run with:
//! ```text
//! cargo run --release --example advanced_fhe
//! ```

use rand::{rngs::StdRng, SeedableRng};
use rhychee_fl::fhe::ckks::threshold::ThresholdGroup;
use rhychee_fl::fhe::ckks::CkksContext;
use rhychee_fl::fhe::lwe::LweContext;
use rhychee_fl::fhe::params::{CkksParams, LweParams};
use rhychee_fl::fhe::tfhe_boot::{BootstrapContext, BootstrapParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2026);

    // --- 1. Threshold aggregation: 3 clients, no shared secret key. ---
    println!("== threshold CKKS (no single point of decryption) ==");
    let ctx = CkksContext::new(CkksParams::toy())?;
    let group = ThresholdGroup::generate(&ctx, 3, 3, &mut rng)?;
    let updates = [[0.9, 0.1], [1.1, -0.1], [1.0, 0.3]];
    let mut acc = ctx.encrypt(group.public_key(), &updates[0], &mut rng)?;
    for u in &updates[1..] {
        let ct = ctx.encrypt(group.public_key(), u, &mut rng)?;
        ctx.add_assign(&mut acc, &ct)?;
    }
    let avg = ctx.mul_scalar(&acc, 1.0 / 3.0);
    let partials: Vec<_> = (0..3).map(|i| group.partial_decrypt(&ctx, i, &avg, &mut rng)).collect();
    let global = ThresholdGroup::combine(&ctx, &avg, &partials);
    println!(
        "   jointly decrypted average: [{:.3}, {:.3}] (expected [1.0, 0.1])",
        global[0], global[1]
    );

    // --- 2. TFHE bootstrap: exact LUT on an encrypted sum. ---
    println!("== TFHE programmable bootstrap (exact non-linear LUT) ==");
    let bparams = BootstrapParams {
        lwe: LweParams { dimension: 64, log_q: 9, plaintext_modulus: 8, sigma_int: 0.4 },
        ring_degree: 256,
        ring_modulus_bits: 27,
        gadget_log_base: 9,
        gadget_levels: 3,
        ks_log_base: 7,
        ks_levels: 4,
        rlwe_sigma: 3.2,
    };
    let lwe = LweContext::new(bparams.lwe)?;
    let lwe_sk = lwe.generate_key(&mut rng);
    let boot = BootstrapContext::generate(&bparams, &lwe, &lwe_sk, &mut rng)?;
    // Sum three encrypted votes, then threshold at >= 2 — a non-linear
    // decision no purely additive scheme can make.
    let votes = [1u64, 0, 1];
    let mut tally = lwe.encrypt(&lwe_sk, votes[0], &mut rng)?;
    for &v in &votes[1..] {
        let ct = lwe.encrypt(&lwe_sk, v, &mut rng)?;
        lwe.add_assign(&mut tally, &ct)?;
    }
    let majority: Vec<u64> = (0..8).map(|s| u64::from(s >= 2)).collect();
    let decision = boot.bootstrap(&tally, &majority)?;
    println!(
        "   majority({votes:?}) = {} (decrypted from a bootstrapped ciphertext)",
        lwe.decrypt(&lwe_sk, &decision)
    );
    Ok(())
}
