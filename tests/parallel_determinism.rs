//! Parallelism must never change a bit: every fan-out in the stack
//! (NTT residues, encryption chunks, aggregation, batch encoding) works
//! over preassigned index ranges while RNG draws stay sequential, so a
//! federation run at [`Parallelism::Auto`] reproduces the
//! `Parallelism::Fixed(1)` run exactly — global models, ciphertext
//! serializations, and accuracies alike.
//!
//! CI runs this file with `RUST_TEST_THREADS` unset so the shared pool
//! sees realistic contention from concurrently running tests.

use rhychee_fl::core::round::{self, ClientLocal, FedSetup};
use rhychee_fl::core::{packing, FlConfig, Framework, StreamingAggregator};
use rhychee_fl::data::{DatasetKind, SyntheticConfig, TrainTest};
use rhychee_fl::fhe::ckks::CkksContext;
use rhychee_fl::fhe::params::CkksParams;
use rhychee_fl::net::{CanonicalCodec, WireCodec};
use rhychee_fl::par::Parallelism;

fn har_data() -> TrainTest {
    SyntheticConfig { kind: DatasetKind::Har, train_samples: 240, test_samples: 80 }
        .generate(42)
        .expect("dataset generation")
}

fn config(par: Parallelism) -> FlConfig {
    FlConfig::builder()
        .clients(4)
        .rounds(2)
        .hd_dim(256)
        .seed(11)
        .parallelism(par)
        .build()
        .expect("valid config")
}

fn model_bits(fw: &Framework) -> Vec<u32> {
    fw.global_model().flatten().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn ckks_federation_is_bit_identical_across_parallelism() {
    let data = har_data();
    let mut seq = Framework::hdc_encrypted(config(Parallelism::Fixed(1)), &data, CkksParams::toy())
        .expect("sequential framework");
    seq.run().expect("sequential run");

    for par in [Parallelism::Fixed(2), Parallelism::Auto] {
        let mut fw = Framework::hdc_encrypted(config(par), &data, CkksParams::toy())
            .expect("parallel framework");
        fw.run().expect("parallel run");
        assert_eq!(model_bits(&seq), model_bits(&fw), "global model diverged at {par}");
        assert_eq!(
            seq.global_accuracy(),
            fw.global_accuracy(),
            "accuracy diverged at {par} (same model bits must score identically)"
        );
    }
}

#[test]
fn lwe_federation_is_bit_identical_across_parallelism() {
    let data = har_data();
    let (params, clip) = (round::lwe_fl_params(4, 6), 32.0);
    let mut seq = Framework::hdc_encrypted_lwe(config(Parallelism::Fixed(1)), &data, params, clip)
        .expect("sequential framework");
    seq.run().expect("sequential run");

    let mut auto = Framework::hdc_encrypted_lwe(config(Parallelism::Auto), &data, params, clip)
        .expect("parallel framework");
    auto.run().expect("parallel run");
    assert_eq!(model_bits(&seq), model_bits(&auto), "LWE global model diverged");
}

#[test]
fn ckks_round_ciphertexts_serialize_identically_across_parallelism() {
    // One full encrypted round, done twice from the same seed: client
    // updates and the homomorphic aggregate must serialize to the same
    // bytes whether the context fans out or not.
    let data = har_data();

    let run_round = |par: Parallelism| -> Vec<Vec<u8>> {
        let fl = config(par);
        let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
        let ctx = CkksContext::with_parallelism(CkksParams::toy(), par).expect("context");
        let (_sk, pk) = round::derive_ckks_keys(&ctx, fl.seed);
        let num_params = classes * fl.hd_dim;
        let zeros = vec![0.0f32; num_params];

        let mut sr = round::ServerRound::new(0, fl.aggregation);
        for (id, shard) in shards.into_iter().enumerate() {
            let mut local = ClientLocal::new(id, shard, classes, &fl);
            let flat = local.train(&zeros, &fl);
            let cts = local
                .encrypt_update(
                    &ctx,
                    round::EncryptKey::Public(&pk),
                    &packing::PackingConfig::dense(),
                    &flat,
                )
                .expect("encrypt");
            sr.accept(round::ClientUpdate {
                client_id: id,
                round: 0,
                steps: local.last_steps(),
                payload: cts,
            });
        }
        let mut blobs: Vec<Vec<u8>> = Vec::new();
        // Every client ciphertext, then the aggregate's.
        for u in sr.updates() {
            blobs.extend(u.payload.iter().map(|ct| ctx.serialize(ct)));
        }
        let global = sr.aggregate_ckks(&ctx).expect("aggregate");
        blobs.extend(global.iter().map(|ct| ctx.serialize(ct)));
        blobs
    };

    let seq = run_round(Parallelism::Fixed(1));
    for par in [Parallelism::Fixed(3), Parallelism::Auto] {
        assert_eq!(seq, run_round(par), "ciphertext bytes diverged at {par}");
    }
}

/// Deterministic Fisher–Yates over an xorshift stream, so each "arrival
/// order" below is reproducible from its seed alone.
fn seeded_order(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        order.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    order
}

#[test]
fn streamed_fold_matches_batch_bytes_across_orders_and_parallelism() {
    // The streaming path folds wire frames into the running encrypted
    // sum in whatever order they arrive; the batch reference averages
    // the collected ciphertexts in client-id order. Both must serialize
    // to the same bytes — per arrival order, and across parallelism.
    let data = har_data();

    let run = |par: Parallelism| -> Vec<Vec<u8>> {
        let fl = config(par);
        let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
        let ctx = CkksContext::with_parallelism(CkksParams::toy(), par).expect("context");
        let (_sk, pk) = round::derive_ckks_keys(&ctx, fl.seed);
        let num_params = classes * fl.hd_dim;
        let max_cts = packing::ciphertexts_needed_with(
            &packing::PackingConfig::dense(),
            num_params,
            ctx.slot_count(),
        );
        let zeros = vec![0.0f32; num_params];

        // Wire payloads, exactly as clients would upload them.
        let mut sr = round::ServerRound::new(0, fl.aggregation);
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for (id, shard) in shards.into_iter().enumerate() {
            let mut local = ClientLocal::new(id, shard, classes, &fl);
            let flat = local.train(&zeros, &fl);
            let cts = local
                .encrypt_update(
                    &ctx,
                    round::EncryptKey::Public(&pk),
                    &packing::PackingConfig::dense(),
                    &flat,
                )
                .expect("encrypt");
            payloads.push(CanonicalCodec.encode_upload(&ctx, &cts).expect("encode"));
            sr.accept(round::ClientUpdate {
                client_id: id,
                round: 0,
                steps: local.last_steps(),
                payload: cts,
            });
        }
        let batch: Vec<Vec<u8>> = sr
            .aggregate_ckks(&ctx)
            .expect("aggregate")
            .iter()
            .map(|ct| ctx.serialize(ct))
            .collect();

        for seed in [0xA5A5_u64, 0x5A5A, 0xC0FFEE] {
            let order = seeded_order(payloads.len(), seed);
            let mut agg = StreamingAggregator::new(0, fl.aggregation).expect("aggregator");
            for &id in &order {
                let view =
                    CanonicalCodec.parse_upload(&ctx, &payloads[id], max_cts).expect("parse");
                assert!(agg.fold_upload(&ctx, id, 0, view.views()).expect("fold"));
            }
            let streamed: Vec<Vec<u8>> =
                agg.finish(&ctx).expect("finish").iter().map(|ct| ctx.serialize(ct)).collect();
            assert_eq!(
                streamed, batch,
                "streamed bytes diverged from batch at {par} for arrival order {order:?}"
            );
        }
        batch
    };

    let seq = run(Parallelism::Fixed(1));
    assert_eq!(seq, run(Parallelism::Auto), "aggregate bytes diverged across parallelism");
}
