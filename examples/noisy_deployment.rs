//! Federated learning over a lossy 5G link (paper §IV-C / §V-E).
//!
//! Every encrypted model crosses a bit-flipping channel in 1400-bit
//! packets. With CRC-32 detect-and-retransmit the run converges exactly
//! like a clean deployment; the example also prints the analytical
//! failure model's predictions for the same operating point.
//!
//! Run with:
//! ```text
//! cargo run --release --example noisy_deployment
//! ```

use rhychee_fl::channel::failure::{seconds_to_days, ChannelModel};
use rhychee_fl::core::{FlConfig, NoisyChannelConfig, NoisyFederation};
use rhychee_fl::data::{DatasetKind, SyntheticConfig};
use rhychee_fl::fhe::params::CkksParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 900, test_samples: 300 }
        .generate(3)?;
    let config = FlConfig::builder().clients(4).rounds(4).hd_dim(512).seed(3).build()?;

    // BER 1e-3 — the paper's harsh operating point.
    let channel = NoisyChannelConfig::default();
    let mut federation = NoisyFederation::new(config, &data, CkksParams::ckks4(), channel)?;
    let (report, stats) = federation.run()?;

    println!("accuracy by round:");
    for r in &report.rounds {
        println!("  round {}: {:.4}", r.round + 1, r.accuracy);
    }
    println!(
        "\nchannel: {} packets, {} transmissions ({:.2}x retransmission factor), \
         {} undetected errors, {} dropped payloads",
        stats.packets,
        stats.transmissions,
        stats.transmissions as f64 / stats.packets as f64,
        stats.undetected_errors,
        stats.dropped_payloads,
    );

    // The analytical model for the same channel (paper §IV-C).
    let model = ChannelModel::default();
    println!("\nanalytical model at BER {}:", model.ber);
    println!(
        "  retransmission factor N_re = {:.2} (measured above: {:.2})",
        model.expected_transmissions_per_packet(),
        stats.transmissions as f64 / stats.packets as f64
    );
    let bits = 5 * 2 * 8192 * 61u64; // 20k-parameter HDC model at CKKS-4
    println!(
        "  expected rounds to first undetected error (10 clients): {:.0}",
        model.expected_rounds_to_failure(10, bits)
    );
    println!(
        "  expected time to failure at a 75 s round period: {:.0} days",
        seconds_to_days(model.expected_time_to_failure_fixed_period(10, bits, 75.0))
    );
    println!("  -> convergence (a handful of rounds) happens long before failure.");
    Ok(())
}
