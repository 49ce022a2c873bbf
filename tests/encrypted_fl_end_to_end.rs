//! Cross-crate integration tests: the full Rhychee-FL pipeline from
//! synthetic data through HDC training, CKKS/LWE encryption, homomorphic
//! aggregation, and back.

use rhychee_fl::core::{round, FlConfig, Framework};
use rhychee_fl::data::{DatasetKind, SyntheticConfig};
use rhychee_fl::fhe::params::CkksParams;

fn har_data() -> rhychee_fl::data::TrainTest {
    SyntheticConfig { kind: DatasetKind::Har, train_samples: 360, test_samples: 120 }
        .generate(77)
        .expect("dataset generation")
}

fn config(hd_dim: usize, rounds: usize) -> FlConfig {
    FlConfig::builder().clients(4).rounds(rounds).hd_dim(hd_dim).seed(9).build().expect("valid")
}

#[test]
fn encrypted_pipeline_learns_at_paper_parameters() {
    // The real CKKS-4 parameter set (N = 8192, log Q = 61), not a toy.
    let data = har_data();
    let mut federation =
        Framework::hdc_encrypted(config(512, 3), &data, CkksParams::ckks4()).expect("build");
    let report = federation.run().expect("run");
    assert!(report.final_accuracy > 0.80, "accuracy {}", report.final_accuracy);
    // CKKS-4 packs 4096 slots; 512 x 6 = 3072 params -> 1 ciphertext.
    assert_eq!(federation.upload_bits_per_round(), 2 * 8192 * 61);
}

#[test]
fn encrypted_and_plaintext_agree() {
    // Homomorphic FedAvg must reproduce plaintext FedAvg up to CKKS noise,
    // so the two pipelines track each other round by round.
    let data = har_data();
    let mut plain = Framework::hdc_plaintext(config(384, 3), &data).expect("build");
    let mut enc =
        Framework::hdc_encrypted(config(384, 3), &data, CkksParams::ckks4()).expect("build");
    let rp = plain.run().expect("plain run");
    let re = enc.run().expect("encrypted run");
    for (a, b) in rp.rounds.iter().zip(&re.rounds) {
        assert!(
            (a.accuracy - b.accuracy).abs() < 0.10,
            "round {}: plaintext {} vs encrypted {}",
            a.round,
            a.accuracy,
            b.accuracy
        );
    }
}

#[test]
fn lwe_pipeline_end_to_end() {
    let data = har_data();
    let mut cfg = config(96, 2);
    cfg.clients = 3;
    let params = round::lwe_fl_params(3, 6);
    let mut federation = Framework::hdc_encrypted_lwe(cfg, &data, params, 32.0).expect("build");
    // Per-parameter ciphertexts: 96 x 6 params, each (n+1) log q bits.
    let expected_bits = (96 * 6) as u64 * (534 + 1) * u64::from(params.log_q);
    assert_eq!(federation.upload_bits_per_round(), expected_bits);
    let report = federation.run().expect("run");
    assert!(report.final_accuracy > 0.6, "accuracy {}", report.final_accuracy);
}

#[test]
fn ckks_upload_accounting_matches_table1() {
    // D = 2000, L = 6 (HAR): 12,000 params -> ceil(12000/4096) = 3 cts.
    let data = har_data();
    let federation =
        Framework::hdc_encrypted(config(2000, 1), &data, CkksParams::ckks4()).expect("build");
    assert_eq!(federation.num_parameters(), 12_000);
    assert_eq!(federation.upload_bits_per_round(), 3 * 2 * 8192 * 61);
}

#[test]
fn accuracy_is_stable_across_client_counts() {
    // The paper's Fig. 2 claim in miniature: 2 vs 8 clients end at
    // comparable accuracy.
    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 800, test_samples: 200 }
        .generate(5)
        .expect("dataset generation");
    let acc = |clients: usize| {
        let cfg = FlConfig::builder()
            .clients(clients)
            .rounds(5)
            .hd_dim(512)
            .seed(11)
            .build()
            .expect("valid");
        Framework::hdc_plaintext(cfg, &data).expect("build").run().expect("run").final_accuracy
    };
    let few = acc(2);
    let many = acc(8);
    assert!((few - many).abs() < 0.12, "2 clients: {few}, 8 clients: {many}");
}
