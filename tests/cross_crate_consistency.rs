//! Consistency checks spanning crates: the analytical communication
//! formulas (Table I), the bit-exact wire format, HDC models through
//! the LWE round halves, and the baselines' parameter accounting.

use rand::{rngs::StdRng, SeedableRng};

use rhychee_fl::core::packing;
use rhychee_fl::core::round::{ClientHalf, ClientLocal, ClientUpdate, ServerHalf};
use rhychee_fl::core::FlConfig;
use rhychee_fl::fhe::ckks::CkksContext;
use rhychee_fl::fhe::lwe::LweContext;
use rhychee_fl::fhe::params::{CkksParams, LweParams, ParamSet};
use rhychee_fl::hdc::model::{EncodedDataset, HdcModel};
use rhychee_fl::nn::Network;

#[test]
fn serialized_sizes_match_table1_within_header_overhead() {
    let mut rng = StdRng::seed_from_u64(3);
    for (name, set) in ParamSet::table3() {
        match set {
            ParamSet::Ckks(p) => {
                let formula = p.ciphertext_bits();
                let ctx = CkksContext::new(p).expect("params");
                let (_, pk) = ctx.generate_keys(&mut rng);
                let ct = ctx.encrypt(&pk, &[0.5], &mut rng).expect("encrypt");
                let actual = (ctx.serialize(&ct).len() * 8) as u64;
                // 72-bit header + byte padding only.
                assert!(actual >= formula, "{name}: {actual} < formula {formula}");
                assert!(actual - formula <= 80, "{name}: overhead {}", actual - formula);
            }
            ParamSet::Tfhe(p) => {
                let formula = p.ciphertext_bits();
                let ctx = LweContext::new(p).expect("params");
                let sk = ctx.generate_key(&mut rng);
                let ct = ctx.encrypt(&sk, 1, &mut rng).expect("encrypt");
                let actual = (ctx.serialize(&ct).len() * 8) as u64;
                assert!(actual >= formula && actual - formula < 8, "{name}: {actual} vs {formula}");
            }
        }
    }
}

#[test]
fn paper_headline_ciphertext_counts() {
    // 20,000-parameter HDC model and 43,484-parameter CNN at N/2 = 4096.
    let dense = packing::PackingConfig::dense();
    assert_eq!(packing::ciphertexts_needed_with(&dense, 20_000, 4096), 5);
    assert_eq!(packing::ciphertexts_needed_with(&dense, 43_484, 4096), 11);
    // The 2.2x communication ratio follows directly.
    let ratio: f64 = 11.0 / 5.0;
    assert!((ratio - 2.2).abs() < 1e-9);
}

#[test]
fn baseline_parameter_counts() {
    let mut rng = StdRng::seed_from_u64(4);
    assert_eq!(Network::cnn_mnist(&mut rng).num_params(), 43_484);
    assert_eq!(Network::logistic_regression(784, 10, &mut rng).num_params(), 7_850);
    // HDC at the paper's operating point.
    assert_eq!(HdcModel::new(10, 2000).num_parameters(), 20_000);
}

#[test]
fn quantized_model_survives_lwe_transport() {
    // Flat HDC models -> 6-bit public grid -> LWE encrypt -> homomorphic
    // sum of 3 clients -> decrypt -> average: the TFHE round in
    // miniature, through the client and server halves every runtime
    // runs, checked against the plaintext FedAvg.
    let clients = 3usize;
    let (bits, clip, n) = (6u32, 1.0f32, 64);
    let models: Vec<Vec<f32>> = (0..clients)
        .map(|c| (0..n).map(|i| ((c * 64 + i) as f32 * 0.17).sin()).collect())
        .collect();

    let params = LweParams {
        dimension: 128,
        log_q: 16,
        plaintext_modulus: ((clients as u64) << bits).next_power_of_two(),
        sigma_int: 0.6,
    };
    let fl = FlConfig::builder().clients(clients).hd_dim(n / 2).seed(5).build().expect("config");
    let client =
        ClientHalf::lwe(fl.aggregation, n, params, clients, clip, fl.seed).expect("client");
    let mut server = ServerHalf::lwe(fl.aggregation, n, params, clients).expect("server");
    for (client_id, model) in models.iter().enumerate() {
        let shard = EncodedDataset::new(Vec::new(), Vec::new());
        let mut local = ClientLocal::new(client_id, shard, 2, &fl);
        let payload = client.encode(&mut local, model.clone()).expect("encode");
        let upload = ClientUpdate { client_id, round: 0, steps: 1, payload };
        assert!(server.fold(&upload, |fold| fold()).expect("fold"), "client {client_id}");
    }
    let (broadcast, _) = server.close(None, |close| close()).expect("close");
    let averaged = client.decode(&broadcast).expect("decode");

    let quant_step = clip / ((1u32 << (bits - 1)) - 1) as f32;
    for (i, a) in averaged.iter().enumerate() {
        let r = models.iter().map(|m| m[i]).sum::<f32>() / clients as f32;
        assert!((a - r).abs() <= 1.5 * quant_step, "{a} vs {r} (step {quant_step})");
    }
}

#[test]
fn ckks_packed_model_round_trip_at_scale() {
    // A full 20,000-parameter model through the real CKKS-4 set.
    let ctx = CkksContext::new(CkksParams::ckks4()).expect("params");
    let mut rng = StdRng::seed_from_u64(6);
    let (sk, pk) = ctx.generate_keys(&mut rng);
    let model: Vec<f32> = (0..20_000).map(|i| ((i as f32) * 0.001).cos() * 10.0).collect();
    let dense = packing::PackingConfig::dense();
    let cts = packing::encrypt_model_with(&ctx, &pk, &model, &dense, &mut rng).expect("encrypt");
    assert_eq!(cts.len(), 5);
    let back = packing::decrypt_model_with(&ctx, &sk, &cts, 20_000, &dense).expect("decrypt");
    let max_err = model.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    assert!(max_err < 0.05, "CKKS-4 round-trip error {max_err}");
}
