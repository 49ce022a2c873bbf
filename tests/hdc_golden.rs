//! Golden plaintext federations: the global model of four small
//! `Framework::hdc_plaintext` runs, pinned by an FNV-1a-64 over the bits
//! of `global_model().flatten()` and by the test accuracy.
//!
//! Every constant below was generated at the parent commit of PR 20
//! (`feff8c1`, row-major class vectors and one serial `f32` sum per
//! output dimension), by running this file there with the assertions
//! turned into prints. The lane-blocked HDC kernels must reproduce them
//! bit for bit through encode → bundle → Eq. 1 epochs → aggregation: a
//! change to any constant means a sum changed its order or its rounding,
//! not a refactor.

use rhychee_fl::core::{Aggregation, FlConfig, Framework};
use rhychee_fl::data::{DatasetKind, SyntheticConfig};

/// FNV-1a-64 over the little-endian bytes of every parameter's bits.
fn fnv1a64(flat: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in flat.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 400 / 120 synthetic samples (data seed 5), 4 clients × 3 rounds,
/// config seed 11; returns the global model's fingerprint and accuracy.
fn federate(kind: DatasetKind, hd_dim: usize, aggregation: Aggregation) -> (u64, f64) {
    let data = SyntheticConfig { kind, train_samples: 400, test_samples: 120 }
        .generate(5)
        .expect("dataset generation");
    let config = FlConfig::builder()
        .clients(4)
        .rounds(3)
        .hd_dim(hd_dim)
        .seed(11)
        .aggregation(aggregation)
        .build()
        .expect("valid config");
    let mut fw = Framework::hdc_plaintext(config, &data).expect("framework");
    fw.run().expect("run");
    (fnv1a64(&fw.global_model().flatten()), fw.global_accuracy())
}

#[test]
fn mnist_rbf_fedavg_is_pinned() {
    assert_eq!(federate(DatasetKind::Mnist, 500, Aggregation::FedAvg), MNIST_500_FEDAVG);
}

#[test]
fn har_projection_fedavg_is_pinned() {
    assert_eq!(federate(DatasetKind::Har, 1000, Aggregation::FedAvg), HAR_1000_FEDAVG);
}

#[test]
fn har_projection_fedprox_is_pinned() {
    let prox = Aggregation::FedProx { mu: 0.1 };
    assert_eq!(federate(DatasetKind::Har, 333, prox), HAR_333_FEDPROX);
}

#[test]
fn mnist_rbf_fednova_is_pinned() {
    assert_eq!(federate(DatasetKind::Mnist, 257, Aggregation::FedNova), MNIST_257_FEDNOVA);
}

const MNIST_500_FEDAVG: (u64, f64) = (0x26d7_59d6_dcb8_0d73, 0.825);
const HAR_1000_FEDAVG: (u64, f64) = (0x22a2_565f_0395_00d3, 0.95);
const HAR_333_FEDPROX: (u64, f64) = (0xde8c_2d96_f2ba_412a, 0.8916666666666667);
const MNIST_257_FEDNOVA: (u64, f64) = (0xefc1_5da0_f14f_a231, 0.725);
