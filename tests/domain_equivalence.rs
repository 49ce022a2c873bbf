//! NTT-residency must never change a bit: the evaluation-domain CKKS
//! pipeline (fresh ciphertexts aggregated and decrypted as encrypted)
//! and the coefficient-domain one (the same ciphertexts after a
//! `serialize` → `deserialize` round trip, which is what every
//! canonical-codec round aggregates and decrypts) are the same linear
//! algebra with the per-prime NTT bijection commuted through it, so a
//! full encrypted federation must produce bit-identical decrypted models
//! *and* identical canonical ciphertext bytes under either — at every
//! parallelism degree.

use rhychee_fl::core::packing;
use rhychee_fl::core::round::{self, ClientLocal, FedSetup};
use rhychee_fl::core::FlConfig;
use rhychee_fl::data::{DatasetKind, SyntheticConfig, TrainTest};
use rhychee_fl::fhe::ckks::rns::Domain;
use rhychee_fl::fhe::ckks::CkksContext;
use rhychee_fl::fhe::params::CkksParams;
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
        .seed(19)
        .parallelism(par)
        .build()
        .expect("valid config")
}

/// Runs a full encrypted federation in the given residue domain and
/// returns every canonical ciphertext serialization (client uploads and
/// aggregates, in order) plus the final decrypted global model bits.
fn run_federation(data: &TrainTest, par: Parallelism, domain: Domain) -> (Vec<Vec<u8>>, Vec<u32>) {
    let fl = config(par);
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, data).expect("prepare");
    let ctx = CkksContext::with_parallelism(CkksParams::toy(), par).expect("context");
    let (sk, pk) = round::derive_ckks_keys(&ctx, fl.seed);
    let num_params = classes * fl.hd_dim;

    let mut clients: Vec<ClientLocal> = shards
        .into_iter()
        .enumerate()
        .map(|(id, s)| ClientLocal::new(id, s, classes, &fl))
        .collect();
    let mut global = vec![0.0f32; num_params];
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    for r in 0..fl.rounds {
        let mut sr = round::ServerRound::new(r, fl.aggregation);
        for local in &mut clients {
            let flat = local.train(&global, &fl);
            let mut cts = local
                .encrypt_update(
                    &ctx,
                    round::EncryptKey::Public(&pk),
                    &packing::PackingConfig::dense(),
                    &flat,
                )
                .expect("encrypt");
            if domain == Domain::Coeff {
                for ct in &mut cts {
                    *ct = ctx.deserialize(&ctx.serialize(ct)).expect("canonical round trip");
                }
            }
            sr.accept(round::ClientUpdate {
                client_id: local.id(),
                round: r,
                steps: local.last_steps(),
                payload: cts,
            });
        }
        for u in sr.updates() {
            blobs.extend(u.payload.iter().map(|ct| ctx.serialize(ct)));
        }
        let agg = sr.aggregate_ckks(&ctx).expect("aggregate");
        blobs.extend(agg.iter().map(|ct| ctx.serialize(ct)));
        global = packing::decrypt_model_with(
            &ctx,
            &sk,
            &agg,
            num_params,
            &packing::PackingConfig::dense(),
        )
        .expect("decrypt");
    }
    (blobs, global.iter().map(|v| v.to_bits()).collect())
}

#[test]
fn resident_and_reference_pipelines_are_bit_identical() {
    let data = har_data();
    let (ref_blobs, ref_model) = run_federation(&data, Parallelism::Fixed(1), Domain::Coeff);
    for par in [Parallelism::Fixed(1), Parallelism::Auto] {
        let (blobs, model) = run_federation(&data, par, Domain::Eval);
        assert_eq!(ref_model, model, "decrypted global model diverged at {par}");
        assert_eq!(ref_blobs, blobs, "canonical ciphertext bytes diverged at {par}");
    }
}

#[test]
fn seeded_uploads_decrypt_identically_across_parallelism() {
    // The symmetric seeded upload path has its own fan-out (per-prime
    // seed streams expanded inside for_each_mut): a seeded federation
    // round must also be degree-invariant, including its seeded wire
    // bytes.
    let data = har_data();
    let run = |par: Parallelism| -> (Vec<Vec<u8>>, Vec<u32>) {
        let fl = config(par);
        let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
        let ctx = CkksContext::with_parallelism(CkksParams::toy(), par).expect("context");
        let (sk, _) = round::derive_ckks_keys(&ctx, fl.seed);
        let num_params = classes * fl.hd_dim;
        let zeros = vec![0.0f32; num_params];

        let mut sr = round::ServerRound::new(0, fl.aggregation);
        let mut blobs: Vec<Vec<u8>> = Vec::new();
        for (id, shard) in shards.into_iter().enumerate() {
            let mut local = ClientLocal::new(id, shard, classes, &fl);
            let flat = local.train(&zeros, &fl);
            let cts = local
                .encrypt_update(
                    &ctx,
                    round::EncryptKey::Secret(&sk),
                    &packing::PackingConfig::dense(),
                    &flat,
                )
                .expect("encrypt");
            blobs.extend(cts.iter().map(|ct| ctx.serialize_seeded(ct).expect("seeded bytes")));
            sr.accept(round::ClientUpdate {
                client_id: id,
                round: 0,
                steps: local.last_steps(),
                payload: cts,
            });
        }
        let agg = sr.aggregate_ckks(&ctx).expect("aggregate");
        blobs.extend(agg.iter().map(|ct| ctx.serialize(ct)));
        let model = packing::decrypt_model_with(
            &ctx,
            &sk,
            &agg,
            num_params,
            &packing::PackingConfig::dense(),
        )
        .expect("decrypt");
        (blobs, model.iter().map(|v| v.to_bits()).collect())
    };

    let seq = run(Parallelism::Fixed(1));
    for par in [Parallelism::Fixed(3), Parallelism::Auto] {
        assert_eq!(seq, run(par), "seeded round diverged at {par}");
    }
}
