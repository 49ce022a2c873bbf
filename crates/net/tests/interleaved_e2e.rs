//! End-to-end federations over TCP with bit-interleaved slot packing,
//! under both CKKS wire codecs.
//!
//! The interleaved layout changes what travels inside the ciphertexts
//! (several quantized coordinates per slot, aggregated by pure
//! homomorphic sum) but not the wire formats themselves — uploads must
//! ride [`CanonicalCodec`] and [`SeededCodec`] unchanged, shrink on the
//! wire versus the dense layout, and converge to the same accuracy
//! within quantization error.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rhychee_core::packing::PackingConfig;
use rhychee_core::round::{self, FedSetup};
use rhychee_core::{Aggregation, FlConfig, FlError};
use rhychee_data::{DatasetKind, SyntheticConfig};
use rhychee_fhe::params::CkksParams;
use rhychee_net::{
    CanonicalCodec, ClientConfig, ClientPipeline, ClientReport, FlClient, FlServer, NetError,
    SeededCodec, ServerConfig, ServerPipeline, ServerReport,
};

const CLIENTS: usize = 4;
const ROUNDS: usize = 2;

fn run_federation(packing: PackingConfig, seeded: bool) -> (ServerReport, Vec<ClientReport>) {
    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 240, test_samples: 100 }
        .generate(17)
        .expect("generate");
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(ROUNDS)
        .hd_dim(256)
        .seed(13)
        .normalize(true) // coordinates in [-1, 1]: clip = 1 is lossless
        .build()
        .expect("config");
    let FedSetup { shards, test, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    let builder = ServerConfig::builder()
        .clients(CLIENTS)
        .rounds(ROUNDS)
        .model_params(num_params)
        .round_timeout(Duration::from_secs(60))
        .packing(packing);
    let builder = if seeded { builder.codec(SeededCodec) } else { builder.codec(CanonicalCodec) };
    let server = FlServer::bind(
        "127.0.0.1:0",
        builder.build().expect("server config"),
        ServerPipeline::Ckks(CkksParams::toy()),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let server = thread::spawn(move || server.run());

    let mut clients = Vec::new();
    for (id, shard) in shards.into_iter().enumerate() {
        let local = round::ClientLocal::new(id, shard, classes, &fl);
        let eval = (id == 0).then(|| test.clone());
        let mut config = ClientConfig::new(addr);
        config.codec = if seeded { Arc::new(SeededCodec) } else { Arc::new(CanonicalCodec) };
        config.packing = packing;
        let client = FlClient::new(
            config,
            fl.clone(),
            local,
            classes,
            eval,
            ClientPipeline::Ckks(CkksParams::toy()),
        )
        .expect("client");
        clients.push(thread::spawn(move || client.run()));
    }
    let reports: Vec<ClientReport> =
        clients.into_iter().map(|c| c.join().expect("join").expect("client run")).collect();
    (server.join().expect("join").expect("server run"), reports)
}

fn final_accuracy(reports: &[ClientReport]) -> f64 {
    reports
        .iter()
        .flat_map(|r| r.accuracies.iter())
        .filter(|(round, _)| *round == ROUNDS - 1)
        .map(|(_, acc)| *acc)
        .next()
        .expect("evaluating client reported the last round")
}

#[test]
fn interleaved_canonical_matches_dense_and_shrinks_uploads() {
    let dense = PackingConfig::dense();
    let inter = PackingConfig::interleaved(10, 1.0, CLIENTS).expect("valid layout");
    let (_, dense_reports) = run_federation(dense, false);
    let (_, inter_reports) = run_federation(inter, false);

    let acc_dense = final_accuracy(&dense_reports);
    let acc_inter = final_accuracy(&inter_reports);
    assert!((acc_dense - acc_inter).abs() < 0.08, "dense {acc_dense} vs interleaved {acc_inter}");

    // 10-bit coordinates at P = 4 pack 2 per slot: upload traffic must
    // drop by a sizable margin (headers and handshakes dilute the 2×).
    let tx_dense: u64 = dense_reports.iter().map(|r| r.bytes_tx).sum();
    let tx_inter: u64 = inter_reports.iter().map(|r| r.bytes_tx).sum();
    assert!(tx_inter * 4 < tx_dense * 3, "interleaved {tx_inter} B vs dense {tx_dense} B");
}

#[test]
fn interleaved_rides_the_seeded_codec() {
    // Symmetric seed-compressed uploads: the seeded wire format carries
    // interleaved ciphertexts into evaluation-domain accumulators, and
    // the round still closes with the raw sum.
    let inter = PackingConfig::interleaved(10, 1.0, CLIENTS).expect("valid layout");
    let (server, reports) = run_federation(inter, true);
    assert_eq!(server.rounds.len(), ROUNDS);
    let acc = final_accuracy(&reports);
    assert!(acc > 0.6, "accuracy {acc}");
    for r in &reports {
        assert_eq!(r.rounds_participated, ROUNDS);
        assert!(!r.final_model.is_empty());
    }
}

#[test]
fn fednova_is_rejected_under_interleaved_packing_at_both_endpoints() {
    // A FedNova client pre-scales its model by 1/τ, far below the
    // quantisation step; neither endpoint may accept the pairing.
    let inter = PackingConfig::interleaved(10, 1.0, CLIENTS).expect("valid layout");
    let server = ServerConfig::builder()
        .clients(CLIENTS)
        .rounds(ROUNDS)
        .model_params(6 * 256)
        .aggregation(Aggregation::FedNova)
        .packing(inter)
        .build();
    assert!(matches!(server, Err(NetError::Fl(FlError::InvalidConfig(_)))));

    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 240, test_samples: 100 }
        .generate(17)
        .expect("generate");
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(ROUNDS)
        .hd_dim(256)
        .seed(13)
        .aggregation(Aggregation::FedNova)
        .build()
        .expect("config");
    let FedSetup { mut shards, classes, .. } = round::prepare(&fl, &data).expect("prepare");
    let local = round::ClientLocal::new(0, shards.remove(0), classes, &fl);
    let mut config = ClientConfig::new("127.0.0.1:9".parse().expect("addr"));
    config.packing = inter;
    let pipeline = ClientPipeline::Ckks(CkksParams::toy());
    let client = FlClient::new(config, fl, local, classes, None, pipeline);
    assert!(matches!(client, Err(NetError::Fl(FlError::InvalidConfig(_)))));
}

/// Lanes sized for 3 summands cannot carry a 4-client sum: the first
/// full round's broadcast would decode a counter of 4, which every
/// client refuses. Each endpoint refuses the layout when it is built.
fn short_lanes() -> PackingConfig {
    PackingConfig::interleaved(10, 1.0, CLIENTS - 1).expect("valid layout")
}

#[test]
fn the_server_refuses_lanes_for_fewer_summands_than_clients() {
    let server = ServerConfig::builder()
        .clients(CLIENTS)
        .rounds(ROUNDS)
        .model_params(6 * 256)
        .packing(short_lanes())
        .build();
    assert!(matches!(server, Err(NetError::Fl(FlError::InvalidConfig(_)))));
}

#[test]
fn a_client_refuses_lanes_for_fewer_summands_than_clients() {
    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 240, test_samples: 100 }
        .generate(17)
        .expect("generate");
    let fl = FlConfig::builder().clients(CLIENTS).rounds(ROUNDS).hd_dim(256).build().expect("fl");
    let FedSetup { mut shards, classes, .. } = round::prepare(&fl, &data).expect("prepare");
    let local = round::ClientLocal::new(0, shards.remove(0), classes, &fl);
    let mut config = ClientConfig::new("127.0.0.1:9".parse().expect("addr"));
    config.packing = short_lanes();
    let pipeline = ClientPipeline::Ckks(CkksParams::toy());
    let client = FlClient::new(config, fl, local, classes, None, pipeline);
    assert!(matches!(client, Err(NetError::Fl(FlError::InvalidConfig(_)))));
}
