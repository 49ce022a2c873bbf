//! Regenerates the **§V-E robustness experiment**: end-to-end encrypted
//! federated learning where every model payload crosses a noisy 5G-style
//! channel (BER 1e-3, 1400-bit packets).
//!
//! Three conditions:
//! 1. clean channel (reference);
//! 2. noisy channel + CRC-32 detect-and-retransmit (the paper's setting);
//! 3. noisy channel, detection disabled (ablation showing why error
//!    detection is mandatory for FHE payloads).
//!
//! Paper shape: with CRC the model converges exactly as on a clean link
//! (`E[T]` ≈ 3e9 transmissions before an undetected error, while a full
//! run needs orders of magnitude fewer); without detection, corrupted
//! ciphertexts poison the homomorphic aggregate.

use rhychee_bench::{banner, Table};
use rhychee_channel::crc::Detector;
use rhychee_core::{FlConfig, NoisyChannelConfig, NoisyFederation};
use rhychee_data::{DatasetKind, SyntheticConfig};
use rhychee_fhe::params::CkksParams;

fn main() {
    rhychee_bench::init_telemetry();
    let quick = std::env::args().any(|a| a == "--quick");
    // CKKS-4 at D=2000 moves ~5 Mb per model copy; the bit-level channel
    // simulation is the bottleneck, so the default run uses a reduced
    // dimension, which preserves every qualitative effect.
    let (samples, rounds, hd_dim, clients) =
        if quick { (600, 3, 256, 3) } else { (1_500, 5, 1_000, 5) };

    let data = SyntheticConfig {
        kind: DatasetKind::Mnist,
        train_samples: samples,
        test_samples: samples / 4,
    }
    .generate(23)
    .expect("dataset generation");

    let config = FlConfig::builder()
        .clients(clients)
        .rounds(rounds)
        .hd_dim(hd_dim)
        .seed(31)
        .build()
        .expect("valid config");

    let conditions: [(&str, NoisyChannelConfig); 3] = [
        (
            "clean",
            NoisyChannelConfig { ber: 0.0, detector: Some(Detector::Crc32), ..Default::default() },
        ),
        ("BER 1e-3 + CRC-32", NoisyChannelConfig::default()),
        (
            "BER 2e-5, no detection",
            NoisyChannelConfig { ber: 2e-5, detector: None, ..Default::default() },
        ),
    ];

    let mut summary = Table::new(vec![
        "condition",
        "final acc",
        "acc by round",
        "packets",
        "retransmissions",
        "undetected",
    ]);

    for (name, channel) in conditions {
        banner(&format!("Condition: {name}"));
        let mut fed = NoisyFederation::new(config.clone(), &data, CkksParams::ckks4(), channel)
            .expect("federation");
        let (report, stats) = fed.run().expect("run");
        let curve: Vec<String> =
            report.rounds.iter().map(|r| format!("{:.3}", r.accuracy)).collect();
        println!(
            "accuracy by round: {}\npackets {} | transmissions {} | retransmissions {} | \
             undetected {} | dropped payloads {}",
            curve.join(" -> "),
            stats.packets,
            stats.transmissions,
            stats.retransmissions,
            stats.undetected_errors,
            stats.dropped_payloads,
        );
        summary.row(vec![
            name.to_string(),
            format!("{:.4}", report.final_accuracy),
            curve.join(" "),
            stats.packets.to_string(),
            stats.retransmissions.to_string(),
            stats.undetected_errors.to_string(),
        ]);
    }

    banner("Robustness summary (paper §V-E)");
    summary.print();
    println!(
        "\nWith CRC-32 the run converges before channel noise can interfere\n\
         (expected transmissions to an undetected error: ~3.07e9; this whole\n\
         run used orders of magnitude fewer). Without error detection even a\n\
         tiny BER corrupts ciphertexts and the homomorphic aggregate."
    );
    rhychee_bench::emit_metrics_json("noise_robustness");
}
