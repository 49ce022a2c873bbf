//! Crossing the wire must never change a bit. Through PR 22 this file
//! compared two pipelines — ciphertexts aggregated and decrypted as
//! encrypted (evaluation-domain) against the same ciphertexts after a
//! canonical `serialize` → `deserialize` round trip (coefficient-domain
//! then) — and their equality is what licensed deleting the second: the
//! canonical bytes now carry the evaluation rows a ciphertext holds, so
//! a round trip changes no byte and no decrypted bit, at every
//! parallelism degree. The decrypted model is additionally pinned to the
//! bits both pipelines produced at the last commit that had two.

use rhychee_fl::core::packing;
use rhychee_fl::core::round::{self, ClientLocal, FedSetup};
use rhychee_fl::core::FlConfig;
use rhychee_fl::data::{DatasetKind, SyntheticConfig, TrainTest};
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

/// FNV-1a-64 over the little-endian bytes of every parameter's bits.
fn fnv1a64(model_bits: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in model_bits.iter().flat_map(|v| v.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The final global model of `run_federation` and of the seeded round
/// below, recorded at PR 23's parent (`a7a33cb`) by running this file
/// there with a print added — under both of that commit's pipelines,
/// which agreed (`0x6483_2290_22d1_fe95` / `0x0dfe_f036_00f3_9036`).
///
/// Re-pinned once, by PR 24, which changed neither pipeline: the
/// Box–Muller noise sampler became the table-driven
/// `fhe::sampling::GaussianSampler`, so the same seeds draw different
/// keys and encryption noise and the decrypted `f32`s differ in their
/// low bits. That PR's first commit (the division-free signed reduce
/// alone) reproduced the two values above; the two below were printed
/// by this file at the commit that added the sampler's own reference
/// tests (`rhychee-fhe` `sampling::tests`), which are what vouch for the
/// new stream. Never regenerate them from the code under test for any
/// other reason.
const MODEL_FNV: u64 = 0x99fe_a1b3_0703_114b;
const SEEDED_MODEL_FNV: u64 = 0x1127_a262_7c1e_5d20;

/// Runs a full encrypted federation — every upload put through a
/// canonical `serialize` → `deserialize` round trip first when
/// `round_trip` is set — and returns every canonical ciphertext
/// serialization (client uploads and aggregates, in order) plus the
/// final decrypted global model bits.
fn run_federation(
    data: &TrainTest,
    par: Parallelism,
    round_trip: bool,
) -> (Vec<Vec<u8>>, Vec<u32>) {
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
            if round_trip {
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
    let (ref_blobs, ref_model) = run_federation(&data, Parallelism::Fixed(1), true);
    assert_eq!(fnv1a64(&ref_model), MODEL_FNV, "decrypted model moved off the parent's bits");
    for par in [Parallelism::Fixed(1), Parallelism::Auto] {
        let (blobs, model) = run_federation(&data, par, false);
        assert_eq!(ref_model, model, "decrypted global model diverged at {par}");
        assert_eq!(ref_blobs, blobs, "canonical ciphertext bytes diverged at {par}");
    }
}

#[test]
fn seeded_uploads_decrypt_identically_across_parallelism() {
    // The symmetric seeded upload path has its own fan-out (each worker
    // encrypts a run of whole ciphertexts through one arena): a seeded
    // federation round must also be degree-invariant, including its
    // seeded wire bytes.
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
    assert_eq!(fnv1a64(&seq.1), SEEDED_MODEL_FNV, "decrypted model moved off the parent's bits");
    for par in [Parallelism::Fixed(3), Parallelism::Auto] {
        assert_eq!(seq, run(par), "seeded round diverged at {par}");
    }
}
