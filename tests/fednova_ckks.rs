//! FedNova over CKKS has no batch arm: clients pre-scale their model by
//! `1/τ` before encrypting, every runtime folds as for FedAvg, and the
//! round closes with the one scalar `1/Σ(1/τ)`. The in-process
//! [`Framework`] and a loopback [`FlServer`]/[`FlClient`] federation
//! must therefore agree bit for bit, and the decrypted aggregate must
//! stay within CKKS noise of plaintext FedNova over the same updates.
//!
//! Single test on purpose: it flips the process-global telemetry state.

use std::thread;

use rhychee_fl::core::round::{self, ClientLocal, FedSetup};
use rhychee_fl::core::{Aggregation, FlConfig, Framework};
use rhychee_fl::data::{DatasetKind, SyntheticConfig};
use rhychee_fl::fhe::params::CkksParams;
use rhychee_fl::net::{
    ClientConfig, ClientPipeline, FlClient, FlServer, ServerConfig, ServerPipeline,
};
use rhychee_fl::telemetry;

#[test]
fn fednova_ckks_matches_across_runtimes_within_noise_of_plaintext() {
    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 360, test_samples: 120 }
        .generate(77)
        .expect("dataset generation");
    let fl = FlConfig::builder()
        .clients(4)
        .rounds(3)
        .hd_dim(256)
        .seed(29)
        .aggregation(Aggregation::FedNova)
        .build()
        .expect("valid config");

    // In process, with the decrypt-vs-plaintext gauge armed: every
    // round compares the decrypted global against plaintext FedNova
    // (`ServerRound::weights`) over the same unscaled updates.
    telemetry::set_enabled(true);
    let mut fw = Framework::hdc_encrypted(fl.clone(), &data, CkksParams::toy()).expect("framework");
    let gauge = telemetry::metrics::global().gauge("fl.decrypt_error.max");
    for r in 0..fl.rounds {
        gauge.set(-1.0);
        fw.run_round().expect("round");
        let err = gauge.get();
        assert!(err > 0.0 && err < 1e-3, "round {r}: decrypt error {err}");
    }
    telemetry::set_enabled(false);
    let expected = fw.global_model().flatten();

    // Over loopback: the server learns τ from the `Update` headers only.
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let config = ServerConfig::builder()
        .clients(fl.clients)
        .rounds(fl.rounds)
        .model_params(classes * fl.hd_dim)
        .aggregation(Aggregation::FedNova)
        .build()
        .expect("server config");
    let server = FlServer::bind("127.0.0.1:0", config, ServerPipeline::Ckks(CkksParams::toy()))
        .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = thread::spawn(move || server.run());
    let clients: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(id, shard)| {
            let local = ClientLocal::new(id, shard, classes, &fl);
            let pipeline = ClientPipeline::Ckks(CkksParams::toy());
            let client =
                FlClient::new(ClientConfig::new(addr), fl.clone(), local, classes, None, pipeline)
                    .expect("client build");
            thread::spawn(move || client.run())
        })
        .collect();
    for c in clients {
        let report = c.join().expect("join").expect("client run");
        assert_eq!(report.final_model, expected, "client {} diverged", report.client_id);
        assert_eq!(report.rejected_updates, 0);
    }
    let server = server.join().expect("join").expect("server run");
    assert!(server.rounds.iter().all(|r| r.received == 4 && r.rejected == 0));
}
