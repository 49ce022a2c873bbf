//! Why FHE-FL needs error detection while plain HDC-FL does not
//! (paper §I / §IV-C motivation).
//!
//! FedHD/FHDnn showed that *unencrypted* hypervector models tolerate
//! channel noise: a flipped bit perturbs one model value, and HDC's
//! holographic redundancy absorbs it. Under FHE the same flip corrupts
//! an entire ciphertext ("a single bit error can result in completely
//! incorrect decryption").
//!
//! This experiment runs the same federation (one `FlConfig`) twice over
//! a detection-free binary symmetric channel at increasing BER:
//!
//! * **plaintext path** — models cross as one byte per coordinate, on
//!   the 8-bit grid over the model's own range;
//! * **encrypted path** — models cross as CKKS-4 ciphertexts.
//!
//! Expected shape: plaintext accuracy degrades gracefully (barely at
//! all); encrypted accuracy collapses as soon as flips appear —
//! justifying the CRC + retransmission layer of §IV-C.

use rand::{rngs::StdRng, SeedableRng};
use rhychee_bench::{banner, Table};
use rhychee_channel::packet::BitFlipChannel;
use rhychee_core::packing::Grid;
use rhychee_core::{codec, FlConfig, Framework, NoisyChannelConfig, NoisyFederation, RoundHooks};
use rhychee_data::{DatasetKind, SyntheticConfig, TrainTest};
use rhychee_fhe::params::CkksParams;

/// Seed of the plaintext link's bit-flip stream, apart from the
/// federation's own seed.
const LINK_SEED: u64 = 0x5EED_F11B;

fn main() {
    rhychee_bench::init_telemetry();
    let quick = std::env::args().any(|a| a == "--quick");
    let (samples, rounds, hd_dim, clients) =
        if quick { (600, 3, 256, 3) } else { (1_200, 4, 512, 5) };

    let data = SyntheticConfig {
        kind: DatasetKind::Har,
        train_samples: samples,
        test_samples: samples / 4,
    }
    .generate(83)
    .expect("dataset generation");
    let cfg = FlConfig::builder()
        .clients(clients)
        .rounds(rounds)
        .hd_dim(hd_dim)
        .seed(47)
        .build()
        .expect("valid config");

    banner("Noise fragility: plaintext HDC vs FHE ciphertexts (no error detection)");
    let mut table = Table::new(vec!["BER", "plaintext HDC acc", "encrypted (CKKS-4) acc"]);
    for ber in [0.0f64, 1e-6, 1e-5, 1e-4] {
        let plain = plaintext_noisy_run(cfg.clone(), &data, ber);
        let channel = NoisyChannelConfig { ber, detector: None, ..Default::default() };
        let mut enc = NoisyFederation::new(cfg.clone(), &data, CkksParams::ckks4(), channel)
            .expect("federation");
        let (enc_report, _) = enc.run().expect("run");
        table.row(vec![
            format!("{ber:.0e}"),
            format!("{plain:.4}"),
            format!("{:.4}", enc_report.final_accuracy),
        ]);
        eprintln!(
            "  [BER {ber:.0e}] plaintext {plain:.4}, encrypted {:.4}",
            enc_report.final_accuracy
        );
    }
    table.print();
    println!(
        "\nShape: plaintext hypervectors absorb bit flips (FedHD/FHDnn's\n\
         robustness result); ciphertexts do not — hence Rhychee-FL pairs FHE\n\
         with CRC-32 detect-and-retransmit (S IV-C), after which noise has no\n\
         effect on convergence (see the noise_robustness experiment)."
    );
    rhychee_bench::emit_metrics_json("noise_fragility");
}

/// Plaintext federated HDC where every payload crosses the raw bit-flip
/// channel as one byte per coordinate (the FedHD transport model): the
/// 8-bit grid over the payload's own `max |x|`, dequantized on arrival.
/// An all-zero payload has no range and crosses unquantized.
fn plaintext_noisy_run(cfg: FlConfig, data: &TrainTest, ber: f64) -> f64 {
    let mut fw = Framework::hdc_plaintext(cfg, data).expect("federation");
    let (num_params, channel) = (fw.num_parameters(), BitFlipChannel::new(ber));
    let mut rng = StdRng::seed_from_u64(LINK_SEED);
    let link = move |payload: &[u8]| {
        let flat = codec::decode_plain(payload, num_params).expect("a plaintext payload");
        let range = flat.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        if range == 0.0 {
            return payload.to_vec();
        }
        let grid = Grid::new(8, range).expect("a finite model");
        let bytes: Vec<u8> = flat.iter().map(|&x| grid.quantize(x) as u8).collect();
        let (received, _) = channel.transmit(&bytes, &mut rng);
        let restored: Vec<f32> = received.iter().map(|&b| grid.mean(u64::from(b), 1)).collect();
        codec::encode_plain(&restored)
    };
    fw.set_hooks(RoundHooks { link: Some(Box::new(link)), ..RoundHooks::default() });
    fw.run().expect("run").final_accuracy
}
