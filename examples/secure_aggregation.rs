//! Secure aggregation from the server's perspective.
//!
//! Demonstrates the raw FHE workflow of paper §IV-A without the FL
//! training loop: clients share a CKKS key, encrypt their model vectors
//! with maximum slot packing, and the server computes
//! `HomMul(Σ Enc(LMᵢ), 1/P)` — Eq. 2 — touching only ciphertexts.
//!
//! Also shows what an attacker (or honest-but-curious server) sees: the
//! serialized ciphertext bytes carry no usable structure.
//!
//! Run with:
//! ```text
//! cargo run --release --example secure_aggregation
//! ```

use rand::{rngs::StdRng, SeedableRng};
use rhychee_fl::core::packing;
use rhychee_fl::fhe::ckks::CkksContext;
use rhychee_fl::fhe::params::CkksParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Key-sharing phase (paper §IV-A): clients agree on parameters
    // and a shared secret key; the server receives only the public key.
    let ctx = CkksContext::new(CkksParams::ckks4())?;
    let mut rng = StdRng::seed_from_u64(7);
    let (client_sk, server_pk) = ctx.generate_keys(&mut rng);
    println!(
        "CKKS-4: N = {}, log Q = {}, {} slots per ciphertext",
        ctx.params().n,
        ctx.params().log_q(),
        ctx.slot_count()
    );

    // --- Each client has a local model (here: 20,000 parameters, the
    // D = 2000 x L = 10 HDC operating point).
    let clients = 5;
    let num_params = 20_000;
    let local_models: Vec<Vec<f32>> = (0..clients)
        .map(|c| (0..num_params).map(|i| ((c * num_params + i) as f32 * 0.001).sin()).collect())
        .collect();

    // --- Upload: encrypt with maximum packing (the paper's dense layout).
    let dense = packing::PackingConfig::dense();
    let mut uploads = Vec::new();
    for (c, model) in local_models.iter().enumerate() {
        let cts = packing::encrypt_model_with(&ctx, &server_pk, model, &dense, &mut rng)?;
        let bytes: usize = cts.iter().map(|ct| ctx.serialize(ct).len()).sum();
        println!(
            "client {c}: {} params -> {} ciphertexts, {} bytes on the wire",
            model.len(),
            cts.len(),
            bytes
        );
        uploads.push(cts);
    }

    // --- What the server sees: high-entropy bytes, nothing else.
    let sample = ctx.serialize(&uploads[0][0]);
    let histogram = byte_entropy(&sample);
    println!("server-side view of one ciphertext: {} bytes, byte entropy {histogram:.3} bits (8.0 = uniform)", sample.len());

    // --- Homomorphic FedAvg (Eq. 2). No secret key involved.
    let global_cts = packing::homomorphic_average(&ctx, &uploads)?;
    println!("server aggregated {clients} encrypted models into {} ciphertexts", global_cts.len());

    // --- Download: a client decrypts the global model.
    let global = packing::decrypt_model_with(&ctx, &client_sk, &global_cts, num_params, &dense)?;
    let expected: Vec<f32> = (0..num_params)
        .map(|i| local_models.iter().map(|m| m[i]).sum::<f32>() / clients as f32)
        .collect();
    let max_err = global.iter().zip(&expected).map(|(g, e)| (g - e).abs()).fold(0.0f32, f32::max);
    println!("client decrypted the averaged model; max error vs plaintext average: {max_err:.2e}");
    assert!(max_err < 1e-2, "homomorphic average must match the plaintext average");
    Ok(())
}

/// Shannon entropy of the byte distribution, in bits.
fn byte_entropy(bytes: &[u8]) -> f64 {
    let mut counts = [0usize; 256];
    for &b in bytes {
        counts[b as usize] += 1;
    }
    let n = bytes.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}
