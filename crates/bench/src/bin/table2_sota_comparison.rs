//! Regenerates **Table II**: comparison with prior FHE-FL frameworks on
//! the MNIST workload.
//!
//! | system | model | HE scheme |
//! |---|---|---|
//! | PFMLP     | MLP (≈55 k params)   | Paillier (partial HE, 2048-bit) |
//! | xMK-CKKS  | LR (7,850 params)    | CKKS (single-key stand-in)      |
//! | Ours      | HDC D=2000 (20,000)  | CKKS-4                          |
//!
//! Accuracy comes from federated training on the synthetic MNIST
//! workload (10 clients); enc+dec latency is the per-round cost of
//! encrypting one local model and decrypting one global model at a
//! client. Paillier latency is measured on a 256-parameter sample and
//! scaled to the full model (full measurement would take ~30 min; the
//! per-parameter cost is constant).
//!
//! Paper shape: Ours wins every row — higher accuracy than both, ~1000×+
//! faster than PFMLP and several× faster than xMK-CKKS.

use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};
use rhychee_bench::{banner, format_seconds, Table};
use rhychee_core::{packing, FlConfig, Framework, NnFederation, NnModelKind, SgdConfig};
use rhychee_data::{DatasetKind, SyntheticConfig};
use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::paillier::PaillierContext;
use rhychee_fhe::params::CkksParams;

const MLP_PARAMS: usize = 55_885; // 784-69-10 with biases
const LR_PARAMS: usize = 7_850;
const HDC_PARAMS: usize = 20_000;
const PAILLIER_SAMPLE: usize = 256;

fn main() {
    rhychee_bench::init_telemetry();
    let quick = std::env::args().any(|a| a == "--quick");
    let (samples, rounds) = if quick { (1_000, 4) } else { (3_000, 10) };
    let data = SyntheticConfig {
        kind: DatasetKind::Mnist,
        train_samples: samples,
        test_samples: samples / 4,
    }
    .generate(17)
    .expect("dataset generation");
    let config = FlConfig::builder()
        .clients(10)
        .rounds(rounds)
        .hd_dim(2000)
        .seed(13)
        .build()
        .expect("valid config");

    // --- Accuracy: federated training of each model class. ---
    banner("Training the three systems (accuracy column)");
    let t0 = Instant::now();
    let mut hdc = Framework::hdc_plaintext(config.clone(), &data).expect("hdc");
    let hdc_acc = hdc.run().expect("run").final_accuracy;
    eprintln!("  HDC trained in {:.1?} (acc {hdc_acc:.4})", t0.elapsed());

    let sgd = SgdConfig { lr: 0.1, momentum: 0.9, batch_size: 32 };
    let mut mlp_cfg = config.clone();
    mlp_cfg.local_epochs = 2;
    let t0 = Instant::now();
    let mut mlp = NnFederation::new(&mlp_cfg, &data, NnModelKind::Mlp, sgd).expect("mlp");
    let mlp_acc = mlp.run().expect("run").final_accuracy;
    eprintln!("  MLP trained in {:.1?} (acc {mlp_acc:.4})", t0.elapsed());

    let t0 = Instant::now();
    let mut lr =
        NnFederation::new(&mlp_cfg, &data, NnModelKind::LogisticRegression, sgd).expect("lr");
    let lr_acc = lr.run().expect("run").final_accuracy;
    eprintln!("  LR trained in {:.1?} (acc {lr_acc:.4})", t0.elapsed());

    // --- Latency: per-client enc(model) + dec(model) per round. ---
    banner("Measuring enc/dec latency per client per round");
    let mut rng = StdRng::seed_from_u64(99);

    // Ours + xMK-CKKS stand-in: CKKS-4.
    let ctx = CkksContext::new(CkksParams::ckks4()).expect("params");
    let (sk, pk) = ctx.generate_keys(&mut rng);
    let dense = packing::PackingConfig::dense();
    let ckks_encdec = |n_params: usize, rng: &mut StdRng| -> f64 {
        let model = vec![0.25f32; n_params];
        let t0 = Instant::now();
        let cts = packing::encrypt_model_with(&ctx, &pk, &model, &dense, rng).expect("encrypt");
        let enc = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = packing::decrypt_model_with(&ctx, &sk, &cts, n_params, &dense);
        enc + t0.elapsed().as_secs_f64()
    };
    let ours_latency = ckks_encdec(HDC_PARAMS, &mut rng);
    eprintln!("  Ours (HDC/CKKS-4, 5 cts): {}", format_seconds(ours_latency));
    let xmk_latency = ckks_encdec(LR_PARAMS, &mut rng);
    eprintln!("  xMK-CKKS stand-in (LR/CKKS-4, 2 cts): {}", format_seconds(xmk_latency));

    // PFMLP: Paillier-2048 per parameter, extrapolated.
    let t0 = Instant::now();
    let paillier = PaillierContext::generate(&mut rng, 2048).expect("keygen");
    eprintln!("  Paillier-2048 keygen: {:.1?}", t0.elapsed());
    let t0 = Instant::now();
    let cts: Vec<_> = (0..PAILLIER_SAMPLE).map(|_| paillier.encrypt_f64(0.25, &mut rng)).collect();
    let enc_sample = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for ct in &cts {
        let _ = paillier.decrypt_f64(ct);
    }
    let dec_sample = t0.elapsed().as_secs_f64();
    let per_param = (enc_sample + dec_sample) / PAILLIER_SAMPLE as f64;
    let pfmlp_latency = per_param * MLP_PARAMS as f64;
    eprintln!(
        "  Paillier: {} per parameter x {MLP_PARAMS} params (extrapolated from {PAILLIER_SAMPLE})",
        format_seconds(per_param)
    );

    // --- The table. ---
    banner("Table II: Comparison of Previous Works and Ours (MNIST)");
    let mut table = Table::new(vec!["", "PFMLP", "xMK-CKKS", "Ours"]);
    table.row(vec!["Model".into(), "MLP".into(), "LR".into(), "HDC".into()]);
    table.row(vec![
        "HE Scheme".into(),
        "Partial HE (Paillier)".into(),
        "CKKS (single-key stand-in)".into(),
        "CKKS".into(),
    ]);
    table.row(vec![
        "Parameters".into(),
        MLP_PARAMS.to_string(),
        LR_PARAMS.to_string(),
        HDC_PARAMS.to_string(),
    ]);
    table.row(vec![
        "Accuracy".into(),
        format!("{mlp_acc:.3}"),
        format!("{lr_acc:.3}"),
        format!("{hdc_acc:.3}"),
    ]);
    table.row(vec![
        "Enc/Dec Latency".into(),
        format_seconds(pfmlp_latency),
        format_seconds(xmk_latency),
        format_seconds(ours_latency),
    ]);
    table.print();

    banner("Paper claims (shape checks)");
    println!(
        "accuracy: Ours {hdc_acc:.3} vs MLP {mlp_acc:.3} vs LR {lr_acc:.3}  \
         (paper: 0.960 / 0.925 / 0.819 — ordering HDC >= MLP > LR)"
    );
    println!(
        "latency:  Ours {} vs PFMLP {} ({:.0}x faster; paper: ~9000x)",
        format_seconds(ours_latency),
        format_seconds(pfmlp_latency),
        pfmlp_latency / ours_latency
    );
    println!(
        "          Ours {} vs xMK-CKKS-model {} — the paper's 4.5x gap also \n\
         reflects tMK-CKKS's multi-key overhead, which a single-key run lacks;\n\
         the per-parameter advantage of packing fewer ciphertexts remains.",
        format_seconds(ours_latency),
        format_seconds(xmk_latency),
    );
    rhychee_bench::emit_metrics_json("table2_sota_comparison");
}
