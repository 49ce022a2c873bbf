//! Client/server latency breakdown of one encrypted aggregation round —
//! the cost model behind the paper's "at least 4.5× faster client-side
//! latency" claim (Table II) and the design-space discussion of §IV-B.
//!
//! For each CKKS parameter set and for the LWE pipeline, reports wall
//! time spent in local training, model encryption (client), homomorphic
//! aggregation (server), and global-model decryption (client).

use rhychee_bench::{banner, format_bits, format_seconds, Table};
use rhychee_core::{round, FlConfig, Framework};
use rhychee_data::{DatasetKind, SyntheticConfig};
use rhychee_fhe::params::CkksParams;

fn main() {
    rhychee_bench::init_telemetry();
    let quick = std::env::args().any(|a| a == "--quick");
    let (samples, hd_dim, clients) = if quick { (400, 512, 3) } else { (1_000, 2_000, 10) };

    let data = SyntheticConfig {
        kind: DatasetKind::Mnist,
        train_samples: samples,
        test_samples: samples / 4,
    }
    .generate(71)
    .expect("dataset generation");
    let config = || {
        FlConfig::builder()
            .clients(clients)
            .rounds(1)
            .hd_dim(hd_dim)
            .seed(37)
            .build()
            .expect("valid config")
    };

    banner(&format!(
        "Latency breakdown of one encrypted round ({clients} clients, D = {hd_dim}, MNIST)"
    ));
    let mut table = Table::new(vec![
        "pipeline",
        "bits/upload",
        "train (all clients)",
        "encrypt (all clients)",
        "aggregate (server)",
        "decrypt (1 client)",
    ]);

    let sets = [
        ("CKKS-1", CkksParams::ckks1()),
        ("CKKS-2", CkksParams::ckks2()),
        ("CKKS-3", CkksParams::ckks3()),
        ("CKKS-4", CkksParams::ckks4()),
    ];
    for (name, params) in sets {
        let mut fed = Framework::hdc_encrypted(config(), &data, params).expect("build");
        let round = fed.run_round().expect("round");
        table.row(vec![
            name.into(),
            format_bits(fed.upload_bits_per_round()),
            format_seconds(round.train_time.as_secs_f64()),
            format_seconds(round.encrypt_time.as_secs_f64()),
            format_seconds(round.aggregate_time.as_secs_f64()),
            format_seconds(round.decrypt_time.as_secs_f64()),
        ]);
        eprintln!("  [{name}] done");
    }

    // LWE pipeline at a reduced dimension (one ciphertext per parameter
    // makes the full D = 2000 point pointlessly slow — which is itself
    // the design-space conclusion of Table I/Fig. 4).
    let lwe_dim = 128;
    let mut lwe_cfg = config();
    lwe_cfg.hd_dim = lwe_dim;
    // 6 bits per client on the public grid over [-32, 32].
    let params = round::lwe_fl_params(clients, 6);
    let mut fed = Framework::hdc_encrypted_lwe(lwe_cfg, &data, params, 32.0).expect("build");
    let round = fed.run_round().expect("round");
    table.row(vec![
        format!("TFHE/LWE (D = {lwe_dim})"),
        format_bits(fed.upload_bits_per_round()),
        format_seconds(round.train_time.as_secs_f64()),
        format_seconds(round.encrypt_time.as_secs_f64()),
        format_seconds(round.aggregate_time.as_secs_f64()),
        format_seconds(round.decrypt_time.as_secs_f64()),
    ]);
    table.print();

    println!(
        "\nReading: client-side cost (encrypt + decrypt) shrinks with the\n\
         ciphertext modulus — CKKS-4 is both the cheapest and the smallest —\n\
         and the SIMD-packed CKKS pipelines dwarf the per-parameter LWE path,\n\
         matching the paper's scheme-selection guidance (S IV-B2)."
    );
    rhychee_bench::emit_metrics_json("latency_breakdown");
}
