//! Reusable round building blocks: the client-side local phase and the
//! server-side collection/aggregation phase, whose payloads pass through
//! one [`ClientHalf`] and one [`ServerHalf`] under every scheme
//! (plaintext, CKKS, LWE).
//!
//! [`Framework`](crate::framework::Framework) runs the halves in one
//! process; the `rhychee-net` runtime runs the *same* halves on either
//! side of a TCP connection. Both paths derive all randomness from the
//! run seed with fixed per-role salts, so a networked federation and an
//! in-process one produce bit-identical global models under the same
//! configuration:
//!
//! * setup (encoder bases, Dirichlet partition) draws from
//!   `seed` directly;
//! * CKKS/LWE key generation draws from `seed ^ CKKS_KEY_SALT` /
//!   `seed ^ LWE_KEY_SALT`;
//! * client `i`'s encryption randomness draws from its own stream
//!   `seed ^ CLIENT_RNG_SALT ^ i·φ64`, so ciphertexts do not depend on
//!   which process encrypts or in what order clients are visited.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rhychee_data::partition::dirichlet_partition_indices;
use rhychee_data::TrainTest;
use rhychee_fhe::ckks::{CkksCiphertext, CkksContext, CkksPublicKey, CkksSecretKey};
use rhychee_fhe::lwe::{LweCiphertext, LweContext, LweSecretKey};
use rhychee_fhe::params::LweParams;
use rhychee_fhe::FheError;
use rhychee_hdc::encoding::{Encoder, RandomProjectionEncoder, RbfEncoder};
use rhychee_hdc::model::{EncodedDataset, HdcModel};

use crate::codec::{self, WireCodec};
use crate::config::{Aggregation, EncoderKind, FlConfig};
use crate::error::FlError;
use crate::framework::AggregateOverrideHook;
use crate::packing::{self, Grid, PackingConfig};
use crate::streaming::StreamingAggregator;

/// Salt for the shared CKKS key-generation stream (paper §IV-A: the
/// secret key is shared by all clients, never held by the server).
pub(crate) const CKKS_KEY_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Salt for the shared LWE key-generation stream.
pub(crate) const LWE_KEY_SALT: u64 = 0x517C_C1B7_2722_0A95;

/// Salt for per-client encryption randomness streams.
pub(crate) const CLIENT_RNG_SALT: u64 = 0xD6E8_FEB8_6659_FD93;

/// Derives the deterministic RNG for client `id`'s encryption noise.
pub fn client_rng(seed: u64, id: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ CLIENT_RNG_SALT ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Derives the shared CKKS key pair every client holds (the server gets
/// only the evaluation context, which needs no key material).
pub fn derive_ckks_keys(ctx: &CkksContext, seed: u64) -> (CkksSecretKey, CkksPublicKey) {
    let mut key_rng = StdRng::seed_from_u64(seed ^ CKKS_KEY_SALT);
    ctx.generate_keys(&mut key_rng)
}

/// LWE parameters sized for a federation: plaintext modulus holding
/// `clients · 2^bits` and a ciphertext modulus with noise room. Under
/// them every client quantizes to `bits` bits.
pub fn lwe_fl_params(clients: usize, bits: u32) -> LweParams {
    let t = ((clients as u64) << bits).next_power_of_two();
    // Keep Δ = q/t at 128 for comfortable noise margin.
    let q_bits = t.trailing_zeros() + 7;
    LweParams { dimension: 534, log_q: q_bits, plaintext_modulus: t, sigma_int: 0.6 }
}

/// Checks an LWE federation of `clients` under `aggregation` and returns
/// its context plus the grid bits every upload gets: the largest `b`
/// with `clients · 2^b ≤ t`, so the sum of all clients' grid values
/// stays below the plaintext modulus.
fn lwe_setup(
    params: LweParams,
    clients: usize,
    aggregation: Aggregation,
) -> Result<(LweContext, u32), FlError> {
    if matches!(aggregation, Aggregation::FedNova) {
        return Err(FlError::InvalidConfig(
            "LWE aggregates by uniform sum; FedNova's per-client weights require the dense \
             CKKS layout"
                .into(),
        ));
    }
    let t = params.plaintext_modulus;
    let bits = (t / clients.max(1) as u64).checked_ilog2().unwrap_or(0);
    if bits < 2 {
        return Err(FlError::InvalidConfig(format!(
            "plaintext modulus {t} leaves {clients} clients {bits} bit(s) each, needs >= 2; \
             use lwe_fl_params()"
        )));
    }
    if params.max_additions() < clients {
        return Err(FlError::NoiseBudget { clients, budget: params.max_additions() });
    }
    Ok((LweContext::new(params)?, bits))
}

/// FedNova over ciphertexts: the server can multiply the encrypted sum
/// by one scalar only, so each client divides its own flat model by its
/// step count τ right before encryption and the aggregator closes with
/// `1/Σⱼ(1/τⱼ)` ([`StreamingAggregator`]).
/// A no-op under the uniform-weight rules. Every encrypting runtime
/// calls this one function, so their ciphertexts agree bit for bit.
pub(crate) fn prescale_update(aggregation: Aggregation, steps: usize, flat: &mut [f32]) {
    if matches!(aggregation, Aggregation::FedNova) {
        let tau = steps.max(1) as f32;
        flat.iter_mut().for_each(|v| *v /= tau);
    }
}

/// Shared federation setup: encoded shards, encoded test set, and the
/// class count. Identical for every runtime given the same config/data.
pub struct FedSetup {
    /// Per-client encoded training shards (Dirichlet label skew).
    pub shards: Vec<EncodedDataset>,
    /// The held-out encoded test set.
    pub test: EncodedDataset,
    /// Number of classes L.
    pub classes: usize,
}

impl FedSetup {
    /// Consumes the setup into per-client local states (client `i`
    /// holds shard `i`) and the held-out test set.
    pub(crate) fn into_clients(self, config: &FlConfig) -> (Vec<ClientLocal>, EncodedDataset) {
        let clients = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(id, data)| ClientLocal::new(id, data, self.classes, config))
            .collect();
        (clients, self.test)
    }
}

/// Encodes the dataset and partitions it into non-IID client shards.
///
/// This is the deterministic preamble shared by the in-process
/// [`Framework`](crate::framework::Framework) and the networked runtime:
/// both must call it with identical `config`/`data` to agree on shards.
///
/// # Errors
///
/// Returns [`FlError`] on invalid config or insufficient data.
pub fn prepare(config: &FlConfig, data: &TrainTest) -> Result<FedSetup, FlError> {
    config.validate()?;
    if data.train.len() < config.clients {
        return Err(FlError::DataError(format!(
            "{} training samples cannot serve {} clients",
            data.train.len(),
            config.clients
        )));
    }
    if data.train.is_empty() || data.test.is_empty() {
        return Err(FlError::DataError("train and test sets must be non-empty".into()));
    }
    let classes = data.train.num_classes();
    let feature_dim = data.train.feature_dim();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Shared encoder: all clients derive identical bases from the
    // common seed (the HDC analogue of the shared model architecture).
    let use_rbf = match config.encoder {
        EncoderKind::Rbf => true,
        EncoderKind::RandomProjection => false,
        // The paper uses RBF for MNIST (pixel images) and random
        // projection for HAR (dense statistical features).
        EncoderKind::Auto => feature_dim == 784,
    };
    let (train_hv, test_hv) = if use_rbf {
        let encoder = RbfEncoder::new(feature_dim, config.hd_dim, &mut rng);
        (
            encoder.encode_batch(data.train.features(), config.parallelism),
            encoder.encode_batch(data.test.features(), config.parallelism),
        )
    } else {
        let encoder = RandomProjectionEncoder::new(feature_dim, config.hd_dim, &mut rng);
        (
            encoder.encode_batch(data.train.features(), config.parallelism),
            encoder.encode_batch(data.test.features(), config.parallelism),
        )
    };
    let test = EncodedDataset::new(test_hv, data.test.labels().to_vec());

    // Non-IID shards via Dirichlet label skew (Li et al., α = 0.5).
    let shards = dirichlet_partition_indices(
        data.train.labels(),
        classes,
        config.clients,
        config.dirichlet_alpha,
        &mut rng,
    )
    .iter()
    .map(|idx| {
        let hvs = idx.iter().map(|&i| train_hv[i].clone()).collect();
        let labels = idx.iter().map(|&i| data.train.labels()[i]).collect();
        EncodedDataset::new(hvs, labels)
    })
    .collect();

    Ok(FedSetup { shards, test, classes })
}

/// The CKKS key a client encrypts its upload under.
#[derive(Debug, Clone, Copy)]
pub enum EncryptKey<'a> {
    /// The public key: canonical two-component ciphertexts
    /// ([`packing::encrypt_model_with`]).
    Public(&'a CkksPublicKey),
    /// The shared secret key: seeded ciphertexts for the seed-compressed
    /// wire format ([`packing::encrypt_model_symmetric_with`]).
    Secret(&'a CkksSecretKey),
}

/// One federated client's local state: its shard, HDC model, and a
/// private randomness stream for encryption.
pub struct ClientLocal {
    id: usize,
    data: EncodedDataset,
    model: HdcModel,
    last_steps: usize,
    rng: StdRng,
}

impl ClientLocal {
    /// Builds the local state for client `id`.
    pub fn new(id: usize, data: EncodedDataset, classes: usize, config: &FlConfig) -> Self {
        ClientLocal {
            id,
            data,
            model: HdcModel::new(classes, config.hd_dim),
            last_steps: 0,
            rng: client_rng(config.seed, id),
        }
    }

    /// This client's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Trainable parameter count `D × L`.
    pub fn num_parameters(&self) -> usize {
        self.model.num_parameters()
    }

    /// Adaptive updates applied in the last local phase (FedNova τ).
    pub fn last_steps(&self) -> usize {
        self.last_steps
    }

    /// The client's private randomness stream (encryption noise).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Runs the local phase against the given global model and returns
    /// the flat (optionally normalized) local model.
    ///
    /// A zero global model marks the first round: the client starts with
    /// the standard OnlineHD/FedHD one-shot bundling pass, which the
    /// adaptive Eq. 1 epochs then refine.
    pub fn train(&mut self, global: &[f32], cfg: &FlConfig) -> Vec<f32> {
        let first_round = global.iter().all(|&v| v == 0.0);
        self.model.load_flat(global);
        if first_round {
            self.model.bundle(&self.data);
        }
        let mut steps = 0;
        for _ in 0..cfg.local_epochs {
            steps += self.model.train_epoch(&self.data, cfg.lr);
            if let Aggregation::FedProx { mu } = cfg.aggregation {
                proximal_pull(&mut self.model, global, mu);
            }
        }
        self.last_steps = steps.max(1);
        let mut out = self.model.clone();
        if cfg.normalize {
            out.normalize();
        }
        out.flatten()
    }

    /// Loads the distributed global model into the local classifier.
    pub fn load_global(&mut self, global: &[f32]) {
        self.model.load_flat(global);
    }

    /// Packs and encrypts this round's flat local model from the
    /// client's private randomness stream: the CKKS upload path every
    /// runtime calls, under the layout `cfg` and the key kind `key`
    /// select.
    ///
    /// # Errors
    ///
    /// Propagates [`FheError`] from the finiteness check or encryption.
    pub fn encrypt_update(
        &mut self,
        ctx: &CkksContext,
        key: EncryptKey<'_>,
        cfg: &PackingConfig,
        flat: &[f32],
    ) -> Result<Vec<CkksCiphertext>, FheError> {
        match key {
            EncryptKey::Public(pk) => {
                packing::encrypt_model_with(ctx, pk, flat, cfg, &mut self.rng)
            }
            EncryptKey::Secret(sk) => {
                packing::encrypt_model_symmetric_with(ctx, sk, flat, cfg, &mut self.rng)
            }
        }
    }
}

/// One client's contribution to a round.
#[derive(Debug, Clone)]
pub struct ClientUpdate<T> {
    /// The reporting client.
    pub client_id: usize,
    /// The round this update was trained for.
    pub round: usize,
    /// Local update steps τ (FedNova weighting).
    pub steps: usize,
    /// The local model, in whatever representation the pipeline uses.
    pub payload: T,
}

/// Server-side state for one collection/aggregation round: the one
/// ledger of who counts and with what weight, for the batch oracles
/// here and for every sum a [`ServerHalf`] or [`StreamingAggregator`]
/// keeps.
///
/// Updates are accepted only for the current round and only once per
/// client (late or duplicate uploads are rejected — the networked
/// runtime relays the rejection as a NACK). Aggregation reweights over
/// whichever quorum actually reported, visiting updates in client-id
/// order so results are independent of arrival order.
#[derive(Debug)]
pub struct ServerRound<T> {
    round: usize,
    aggregation: Aggregation,
    updates: Vec<ClientUpdate<T>>,
}

impl<T> ServerRound<T> {
    /// Opens collection for `round`.
    pub fn new(round: usize, aggregation: Aggregation) -> Self {
        ServerRound { round, aggregation, updates: Vec::new() }
    }

    /// Number of accepted updates so far.
    pub fn received(&self) -> usize {
        self.updates.len()
    }

    /// Whether [`ServerRound::accept`] would take an update of
    /// `client_id` for `round`: a sum asks before it parses a payload.
    pub(crate) fn admits(&self, client_id: usize, round: usize) -> bool {
        round == self.round && self.updates.iter().all(|u| u.client_id != client_id)
    }

    /// Offers an update; returns `false` (and drops it) if it targets a
    /// different round or duplicates an already-reporting client.
    pub fn accept(&mut self, update: ClientUpdate<T>) -> bool {
        let admitted = self.admits(update.client_id, update.round);
        if admitted {
            // Keep client-id order so aggregation is arrival-order invariant.
            let pos = self.updates.partition_point(|u| u.client_id < update.client_id);
            self.updates.insert(pos, update);
        }
        admitted
    }

    /// The accepted updates in client-id order.
    pub fn updates(&self) -> &[ClientUpdate<T>] {
        &self.updates
    }

    /// Aggregation weights over the reporting quorum (uniform for
    /// FedAvg/FedProx, inverse-step-normalized for FedNova).
    pub fn weights(&self) -> Vec<f64> {
        match self.aggregation {
            Aggregation::FedAvg | Aggregation::FedProx { .. } => {
                vec![self.close_scalar(); self.updates.len()]
            }
            Aggregation::FedNova => {
                // Weight clients inversely to their local step count so
                // heavy local updaters do not dominate the average.
                let total: f64 = self.inverse_steps().sum();
                self.inverse_steps().map(|w| w / total).collect()
            }
        }
    }

    /// The scalar that turns the quorum's sum into its average: `1/P`,
    /// or under FedNova (clients pre-scaled by `1/τⱼ`) `1/Σⱼ(1/τⱼ)` over
    /// the client-id-order sum [`ServerRound::weights`] divides by.
    pub(crate) fn close_scalar(&self) -> f64 {
        match self.aggregation {
            Aggregation::FedAvg | Aggregation::FedProx { .. } => 1.0 / self.updates.len() as f64,
            Aggregation::FedNova => 1.0 / self.inverse_steps().sum::<f64>(),
        }
    }

    /// `1/τⱼ` per update in client-id order.
    fn inverse_steps(&self) -> impl Iterator<Item = f64> + '_ {
        self.updates.iter().map(|u| 1.0 / u.steps.max(1) as f64)
    }

    /// Refuses to close a round nobody reported to, as `error`.
    pub(crate) fn check_nonempty(&self, error: fn(String) -> FlError) -> Result<(), FlError> {
        if self.updates.is_empty() {
            return Err(error(format!("round {}: no client updates to aggregate", self.round)));
        }
        Ok(())
    }
}

impl ServerRound<Vec<f32>> {
    /// Plaintext FedAvg over the reporting quorum.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::DataError`] if no updates were accepted.
    pub fn aggregate(&self) -> Result<Vec<f32>, FlError> {
        self.check_nonempty(FlError::DataError)?;
        let models: Vec<&[f32]> = self.updates.iter().map(|u| u.payload.as_slice()).collect();
        Ok(weighted_average(&models, &self.weights()))
    }
}

impl ServerRound<Vec<CkksCiphertext>> {
    /// Homomorphic FedAvg over the reporting quorum, computed literally
    /// as paper Eq. 2 writes it (scale every upload, then add) over
    /// *unscaled* uploads.
    ///
    /// **Reference oracle** — no product code calls this: every runtime
    /// aggregates through [`StreamingAggregator`],
    /// and the bit-identity gates (tests/parallel_determinism.rs,
    /// tests/domain_equivalence.rs) compare its closed bytes against
    /// this function.
    ///
    /// # Errors
    ///
    /// Returns [`FlError`] if no updates were accepted or the
    /// ciphertexts are incompatible.
    pub fn aggregate_ckks(&self, ctx: &CkksContext) -> Result<Vec<CkksCiphertext>, FlError> {
        self.check_nonempty(FlError::DataError)?;
        let models: Vec<Vec<CkksCiphertext>> =
            self.updates.iter().map(|u| u.payload.clone()).collect();
        Ok(packing::homomorphic_weighted_average(ctx, &models, &self.weights())?)
    }
}

/// How CKKS payloads are packed and encoded.
struct Format {
    ctx: Arc<CkksContext>,
    codec: Arc<dyn WireCodec>,
    packing: PackingConfig,
}

impl Format {
    /// Ciphertexts a model of `num_params` packs into: the decoders' cap.
    fn max_cts(&self, num_params: usize) -> usize {
        packing::ciphertexts_needed_with(&self.packing, num_params, self.ctx.slot_count())
    }
}

/// What a client half encodes a model as, with the keys it needs.
enum Scheme {
    Plain,
    Ckks(Format, CkksSecretKey, CkksPublicKey),
    /// One ciphertext per coordinate on `grid`; a broadcast sums at most
    /// `clients` uploads.
    Lwe {
        ctx: LweContext,
        sk: LweSecretKey,
        grid: Grid,
        clients: usize,
    },
}

/// The client half of a round: a trained flat model becomes upload
/// bytes, and broadcast bytes the next global model — raw parameters,
/// CKKS ciphertexts under the keys [`derive_ckks_keys`] draws, or LWE
/// ciphertexts under the key drawn from `seed ^ LWE_KEY_SALT`.
pub struct ClientHalf {
    aggregation: Aggregation,
    num_params: usize,
    scheme: Scheme,
}

impl ClientHalf {
    /// A half that exchanges raw parameters.
    pub fn plaintext(aggregation: Aggregation, num_params: usize) -> Self {
        ClientHalf { aggregation, num_params, scheme: Scheme::Plain }
    }

    /// A half that exchanges CKKS ciphertexts in `codec`'s wire format,
    /// encrypting under the secret key if the codec is symmetric.
    pub fn ckks(
        aggregation: Aggregation,
        num_params: usize,
        ctx: Arc<CkksContext>,
        seed: u64,
        codec: Arc<dyn WireCodec>,
        packing: PackingConfig,
    ) -> Self {
        let (sk, pk) = derive_ckks_keys(&ctx, seed);
        let scheme = Scheme::Ckks(Format { ctx, codec, packing }, sk, pk);
        ClientHalf { aggregation, num_params, scheme }
    }

    /// A half that exchanges one LWE ciphertext per coordinate, each
    /// clipped to the public `[-clip, clip]` and quantized at the bits
    /// `params`' plaintext modulus leaves each of `clients` uploads.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] under FedNova (an LWE sum is uniform),
    /// for fewer than 2 bits per upload, or when [`Grid::new`] refuses
    /// the grid; [`FlError::NoiseBudget`] if `params` cannot absorb
    /// `clients` additions; [`FlError::Fhe`] on invalid parameters.
    pub fn lwe(
        aggregation: Aggregation,
        num_params: usize,
        params: LweParams,
        clients: usize,
        clip: f32,
        seed: u64,
    ) -> Result<Self, FlError> {
        let (ctx, bits) = lwe_setup(params, clients, aggregation)?;
        let grid = Grid::new(bits, clip).map_err(|e| FlError::InvalidConfig(e.to_string()))?;
        let sk = ctx.generate_key(&mut StdRng::seed_from_u64(seed ^ LWE_KEY_SALT));
        Ok(ClientHalf { aggregation, num_params, scheme: Scheme::Lwe { ctx, sk, grid, clients } })
    }

    /// Whether payloads travel encrypted.
    pub fn encrypted(&self) -> bool {
        !matches!(self.scheme, Scheme::Plain)
    }

    /// Bits one upload carries under Table I's formulas: 32 per raw
    /// parameter, else the ciphertext count times the ciphertext size.
    pub(crate) fn upload_bits(&self) -> u64 {
        let n = self.num_params as u64;
        match &self.scheme {
            Scheme::Plain => n * 32,
            Scheme::Ckks(f, ..) => {
                f.max_cts(self.num_params) as u64 * f.ctx.params().ciphertext_bits()
            }
            Scheme::Lwe { ctx, .. } => n * ctx.params().ciphertext_bits(),
        }
    }

    /// Encodes `local`'s trained flat model as its upload payload,
    /// encrypted from `local`'s randomness stream: under CKKS after
    /// `prescale_update`, under LWE one grid value per coordinate.
    ///
    /// # Errors
    ///
    /// Propagates encryption and encoding failures.
    pub fn encode(&self, local: &mut ClientLocal, mut flat: Vec<f32>) -> Result<Vec<u8>, FlError> {
        match &self.scheme {
            Scheme::Plain => Ok(codec::encode_plain(&flat)),
            Scheme::Ckks(f, sk, pk) => {
                prescale_update(self.aggregation, local.last_steps(), &mut flat);
                let key = if f.codec.symmetric() {
                    EncryptKey::Secret(sk)
                } else {
                    EncryptKey::Public(pk)
                };
                let cts = local.encrypt_update(&f.ctx, key, &f.packing, &flat)?;
                f.codec.encode_upload(&f.ctx, &cts)
            }
            Scheme::Lwe { ctx, sk, grid, .. } => {
                Grid::check_finite(&flat)?;
                let rng = local.rng_mut();
                let cts: Vec<LweCiphertext> = flat
                    .iter()
                    .map(|&x| ctx.encrypt(sk, grid.quantize(x), rng))
                    .collect::<Result<_, _>>()?;
                Ok(codec::encode_lwe(ctx, 1, &cts))
            }
        }
    }

    /// Decodes a broadcast payload into the flat global model (an
    /// encrypted half also takes the plaintext zero model a server opens
    /// with). An LWE broadcast's sums are un-biased and divided by the
    /// contributor count it carries.
    ///
    /// # Errors
    ///
    /// [`FlError::Payload`] or [`FlError::Fhe`] on a payload it refuses.
    pub fn decode(&self, payload: &[u8]) -> Result<Vec<f32>, FlError> {
        let (n, plain) = (self.num_params, payload.first() == Some(&codec::TAG_PLAIN));
        match &self.scheme {
            Scheme::Ckks(f, sk, _) if !plain => {
                let cts = codec::decode_ckks(&f.ctx, payload, f.max_cts(n))?;
                Ok(packing::decrypt_model_with(&f.ctx, sk, &cts, n, &f.packing)?)
            }
            Scheme::Lwe { ctx, sk, grid, clients } if !plain => {
                let (k, cts) = codec::decode_lwe(ctx, payload, n, *clients)?;
                Ok(cts.iter().map(|ct| grid.mean(ctx.decrypt(sk, ct), k as u64)).collect())
            }
            _ => codec::decode_plain(payload, n),
        }
    }
}

/// What the open round's sum is kept in, behind the ledger that decides
/// who counts; each sum is `None` from a close to the next open.
enum Sum {
    /// Float addition is not associative, so plaintext updates are
    /// collected and averaged in client-id order at close.
    Plain(Option<ServerRound<Vec<f32>>>),
    /// Uploads fold into the running encrypted sum as they arrive.
    Ckks(Format, Option<StreamingAggregator>),
    /// Uploads add into per-coordinate sums as they arrive (exact mod q,
    /// so in any order); the ledger keeps only who reported.
    Lwe(LweContext, Option<(ServerRound<()>, Vec<LweCiphertext>)>),
}

/// The server half of a round: upload bytes fold into the open round's
/// sum, and the sum closes into the broadcast payload. It holds no key:
/// a CKKS upload folds as zero-copy views over its bytes, an LWE upload
/// by ciphertext addition.
///
/// [`ServerHalf::open`] starts a round (a new half is open at round 0);
/// [`ServerHalf::close`] ends it and leaves the half closed, refusing
/// every upload until the next `open`.
///
/// `fold` and `close` run the step that works on the sum inside the
/// caller's `timed` wrapper, which must call it once (`|step| step()`
/// times nothing), so that a caller's span can leave out parsing and
/// encoding.
pub struct ServerHalf {
    aggregation: Aggregation,
    model_params: usize,
    sum: Sum,
}

impl ServerHalf {
    /// A half over `sum`'s scheme, open at round 0.
    fn opened(aggregation: Aggregation, model_params: usize, sum: Sum) -> Self {
        let mut half = ServerHalf { aggregation, model_params, sum };
        half.open(0);
        half
    }

    /// A half that averages raw parameters, open at round 0.
    pub fn plaintext(aggregation: Aggregation, model_params: usize) -> Self {
        ServerHalf::opened(aggregation, model_params, Sum::Plain(None))
    }

    /// A half that folds CKKS uploads in `codec`'s wire format, open at
    /// round 0.
    pub fn ckks(
        aggregation: Aggregation,
        model_params: usize,
        ctx: Arc<CkksContext>,
        codec: Arc<dyn WireCodec>,
        packing: PackingConfig,
    ) -> Self {
        let sum = Sum::Ckks(Format { ctx, codec, packing }, None);
        ServerHalf::opened(aggregation, model_params, sum)
    }

    /// A half that adds LWE uploads coordinate by coordinate, open at
    /// round 0, under the checks [`ClientHalf::lwe`] makes.
    ///
    /// # Errors
    ///
    /// As [`ClientHalf::lwe`], less the clip.
    pub fn lwe(
        aggregation: Aggregation,
        model_params: usize,
        params: LweParams,
        clients: usize,
    ) -> Result<Self, FlError> {
        let (ctx, _) = lwe_setup(params, clients, aggregation)?;
        Ok(ServerHalf::opened(aggregation, model_params, Sum::Lwe(ctx, None)))
    }

    /// Discards any open sum and opens an empty one for `round`: the one
    /// place a sum is built.
    pub fn open(&mut self, round: usize) {
        let aggregation = self.aggregation;
        match &mut self.sum {
            Sum::Plain(sum) => *sum = Some(ServerRound::new(round, aggregation)),
            Sum::Ckks(_, sum) => {
                let aggregator = StreamingAggregator::new(round, aggregation);
                *sum = Some(aggregator.expect("every aggregation rule folds"));
            }
            Sum::Lwe(_, sum) => *sum = Some((ServerRound::new(round, aggregation), Vec::new())),
        }
    }

    /// Updates in the open round's sum (0 once it closed); an accepted
    /// upload is never un-counted by a later disconnect.
    pub fn received(&self) -> usize {
        match &self.sum {
            Sum::Plain(Some(ledger)) => ledger.received(),
            Sum::Ckks(_, Some(sum)) => sum.received(),
            Sum::Lwe(_, Some((ledger, _))) => ledger.received(),
            _ => 0,
        }
    }

    /// Adds one upload's payload to the open round's sum. `Ok(false)` is
    /// a NACK that left the sum untouched: an update the ledger refuses
    /// (no open round, other round, duplicate client), bytes that do not
    /// parse, or a model of the wrong size. The ledger is asked first, so
    /// a refused update is never parsed and `timed` never runs for it;
    /// otherwise `timed` runs the plaintext decode, or the encrypted fold
    /// once the payload is parsed.
    ///
    /// # Errors
    ///
    /// Only [`FlError::StreamingAbort`]; a bad upload is a NACK.
    pub fn fold<B: AsRef<[u8]>>(
        &mut self,
        update: &ClientUpdate<B>,
        timed: impl FnOnce(&mut dyn FnMut()),
    ) -> Result<bool, FlError> {
        let &ClientUpdate { client_id, round, steps, ref payload } = update;
        let (payload, n) = (payload.as_ref(), self.model_params);
        match &mut self.sum {
            Sum::Plain(Some(ledger)) if ledger.admits(client_id, round) => {
                Ok(once(timed, || match codec::decode_plain(payload, n) {
                    Ok(model) if model.len() == n => {
                        ledger.accept(ClientUpdate { client_id, round, steps, payload: model })
                    }
                    _ => false,
                }))
            }
            Sum::Ckks(f, Some(sum)) if sum.admits(client_id, round) => {
                let max_cts = f.max_cts(n);
                let parsed = f.codec.parse_upload(&f.ctx, payload, max_cts);
                once(timed, || match &parsed {
                    Ok(views) if views.len() == max_cts => {
                        let payload = views.views();
                        sum.fold_views(&f.ctx, &ClientUpdate { client_id, round, steps, payload })
                    }
                    _ => Ok(false),
                })
            }
            Sum::Lwe(ctx, Some((ledger, sums))) if ledger.admits(client_id, round) => {
                let parsed = codec::decode_lwe(ctx, payload, n, 1);
                let update = ClientUpdate { client_id, round, steps, payload: () };
                Ok(once(timed, || match parsed {
                    Ok((_, cts)) if ledger.accept(update) => {
                        if sums.is_empty() {
                            *sums = cts;
                        } else {
                            for (acc, ct) in sums.iter_mut().zip(&cts) {
                                ctx.add_assign(acc, ct).expect("parsed at the context's dimension");
                            }
                        }
                        true
                    }
                    _ => false,
                }))
            }
            _ => Ok(false),
        }
    }

    /// Aggregates the open round — by `aggregate_override` where it
    /// returns `Some` (plaintext only: ciphertexts admit no order
    /// statistics) — into the broadcast payload, plus the aggregate
    /// itself where the server can read it, and leaves the half closed.
    /// `timed` runs the aggregation.
    ///
    /// # Errors
    ///
    /// [`FlError::DataError`] (plaintext, LWE) or
    /// [`FlError::StreamingAbort`] (CKKS) when no update was accepted;
    /// [`FlError::DataError`] when no round is open.
    pub fn close(
        &mut self,
        aggregate_override: Option<&mut AggregateOverrideHook>,
        timed: impl FnOnce(&mut dyn FnMut()),
    ) -> Result<(Vec<u8>, Option<Vec<f32>>), FlError> {
        let not_open = || FlError::DataError("no open round to close".into());
        match &mut self.sum {
            Sum::Plain(sum) => {
                let ledger = sum.take().ok_or_else(not_open)?;
                let model = once(timed, || {
                    let weights = ledger.weights();
                    let overridden = aggregate_override
                        .and_then(|f| f(ledger.round, ledger.updates(), &weights));
                    overridden.map_or_else(|| ledger.aggregate(), Ok)
                })?;
                Ok((codec::encode_plain(&model), Some(model)))
            }
            Sum::Ckks(f, sum) => {
                let sum = sum.take().ok_or_else(not_open)?;
                let cts = once(timed, || sum.close(&f.ctx, &f.packing))?;
                Ok((f.codec.encode_broadcast(&f.ctx, &cts), None))
            }
            Sum::Lwe(ctx, sum) => {
                let (ledger, sums) = sum.take().ok_or_else(not_open)?;
                ledger.check_nonempty(FlError::DataError)?;
                // The uploads are already summed: aggregation is empty.
                once(timed, || ());
                Ok((codec::encode_lwe(ctx, ledger.received(), &sums), None))
            }
        }
    }
}

/// Runs `step` under `timed`, which calls it once, and returns its value.
fn once<T>(timed: impl FnOnce(&mut dyn FnMut()), step: impl FnOnce() -> T) -> T {
    let (mut step, mut out) = (Some(step), None);
    timed(&mut || out = step.take().map(|step| step()));
    out.expect("`timed` must run the step")
}

/// Pulls a model toward the global parameters: `w ← w − μ(w − g)`.
fn proximal_pull(model: &mut HdcModel, global: &[f32], mu: f32) {
    let mut flat = model.flatten();
    for (w, &g) in flat.iter_mut().zip(global) {
        *w -= mu * (*w - g);
    }
    model.load_flat(&flat);
}

/// Weighted element-wise average of flat models; every output element
/// accumulates its clients in the given order.
pub(crate) fn weighted_average(models: &[&[f32]], weights: &[f64]) -> Vec<f32> {
    assert_eq!(models.len(), weights.len());
    assert!(!models.is_empty(), "cannot average zero models");
    let n = models[0].len();
    let mut out = vec![0.0f32; n];
    for (m, &w) in models.iter().zip(weights) {
        for (o, &v) in out.iter_mut().zip(&m[..n]) {
            *o += (w as f32) * v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhychee_data::{DatasetKind, SyntheticConfig};

    fn config(clients: usize) -> FlConfig {
        FlConfig::builder().clients(clients).rounds(2).hd_dim(128).seed(3).build().expect("valid")
    }

    fn update(id: usize, round: usize, payload: Vec<f32>) -> ClientUpdate<Vec<f32>> {
        ClientUpdate { client_id: id, round, steps: 1, payload }
    }

    #[test]
    fn prepare_is_deterministic() {
        let data = SyntheticConfig::small(DatasetKind::Har).generate(5).expect("generate");
        let a = prepare(&config(4), &data).expect("prepare");
        let b = prepare(&config(4), &data).expect("prepare");
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.shards.len(), 4);
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.len(), y.len());
            assert_eq!(x.labels(), y.labels());
        }
    }

    #[test]
    fn client_rng_streams_are_distinct() {
        use rand::Rng;
        let mut a = client_rng(9, 0);
        let mut b = client_rng(9, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
        let mut a2 = client_rng(9, 0);
        let xs2: Vec<u64> = (0..8).map(|_| a2.gen()).collect();
        assert_eq!(xs, xs2, "same seed + id must replay the same stream");
    }

    #[test]
    fn server_round_rejects_late_and_duplicate() {
        let mut sr: ServerRound<Vec<f32>> = ServerRound::new(3, Aggregation::FedAvg);
        assert!(sr.accept(update(0, 3, vec![1.0])));
        assert!(!sr.accept(update(0, 3, vec![2.0])), "duplicate client");
        assert!(!sr.accept(update(1, 2, vec![2.0])), "stale round");
        assert!(!sr.accept(update(1, 4, vec![2.0])), "future round");
        assert!(sr.accept(update(1, 3, vec![2.0])));
        assert_eq!(sr.received(), 2);
    }

    #[test]
    fn aggregation_is_arrival_order_invariant() {
        let mut fwd: ServerRound<Vec<f32>> = ServerRound::new(0, Aggregation::FedAvg);
        let mut rev: ServerRound<Vec<f32>> = ServerRound::new(0, Aggregation::FedAvg);
        let models = [vec![1.0f32, 2.0], vec![3.0, 6.0], vec![5.0, 1.0]];
        for (id, m) in models.iter().enumerate() {
            fwd.accept(update(id, 0, m.clone()));
        }
        for (id, m) in models.iter().enumerate().rev() {
            rev.accept(update(id, 0, m.clone()));
        }
        assert_eq!(fwd.aggregate().expect("agg"), rev.aggregate().expect("agg"));
    }

    #[test]
    fn fednova_weights_normalize() {
        let mut sr: ServerRound<Vec<f32>> = ServerRound::new(0, Aggregation::FedNova);
        sr.accept(ClientUpdate { client_id: 0, round: 0, steps: 10, payload: vec![0.0f32] });
        sr.accept(ClientUpdate { client_id: 1, round: 0, steps: 40, payload: vec![0.0f32] });
        let w = sr.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1], "fewer steps ⇒ larger weight");
    }

    #[test]
    fn empty_round_cannot_aggregate() {
        let sr: ServerRound<Vec<f32>> = ServerRound::new(0, Aggregation::FedAvg);
        assert!(sr.aggregate().is_err());
    }

    /// A client with an empty shard: enough to encrypt from its stream.
    fn bare_client(id: usize, cfg: &FlConfig) -> ClientLocal {
        ClientLocal::new(id, EncodedDataset::new(Vec::new(), Vec::new()), 2, cfg)
    }

    #[test]
    fn lwe_halves_average_clients_of_different_ranges_on_one_grid() {
        // Two clients whose ranges differ by 8×. On the one public grid
        // the broadcast decrypts to the plaintext FedAvg within one step;
        // quantizing each at its own scale and dividing the sum by the
        // smaller scale counted the narrow client 8× over.
        let (clients, n, clip, cfg) = (2, 64, 8.0f32, config(2));
        let params = lwe_fl_params(clients, 6);
        let fed_avg = Aggregation::FedAvg;
        let client = ClientHalf::lwe(fed_avg, n, params, clients, clip, cfg.seed).expect("client");
        let mut server = ServerHalf::lwe(fed_avg, n, params, clients).expect("server");
        let models: Vec<Vec<f32>> = [1.0f32, 8.0]
            .iter()
            .map(|&range| (0..n).map(|j| range * (j as f32 * 0.37).sin()).collect())
            .collect();
        for (id, model) in models.iter().enumerate() {
            let payload = client.encode(&mut bare_client(id, &cfg), model.clone()).expect("encode");
            let upload = ClientUpdate { client_id: id, round: 0, steps: 1, payload };
            assert!(server.fold(&upload, |fold| fold()).expect("fold"));
            assert!(!server.fold(&upload, |fold| fold()).expect("fold"), "duplicate client");
        }
        let (broadcast, plain) = server.close(None, |close| close()).expect("close");
        assert!(plain.is_none(), "the server cannot read an LWE sum");
        let global = client.decode(&broadcast).expect("decode");
        let step = clip / 31.0; // 6 bits: qmax = 2^5 − 1
        for (j, g) in global.iter().enumerate() {
            let mean = (models[0][j] + models[1][j]) / 2.0;
            assert!((g - mean).abs() <= step, "coordinate {j}: {g} vs {mean}");
        }
    }

    #[test]
    fn lwe_halves_refuse_what_the_setup_cannot_carry() {
        let cfg = config(4);
        let lwe = |agg, params, clients, clip| ClientHalf::lwe(agg, 8, params, clients, clip, 3);
        let (fed_avg, params) = (Aggregation::FedAvg, lwe_fl_params(4, 6));
        assert!(lwe(fed_avg, params, 4, 1.0).is_ok());
        for (what, err) in [
            ("FedNova", lwe(Aggregation::FedNova, params, 4, 1.0).map(drop)),
            ("1 bit per client", lwe(fed_avg, LweParams::tfhe1(), 9, 1.0).map(drop)),
            ("zero clip", lwe(fed_avg, params, 4, 0.0).map(drop)),
            ("NaN clip", lwe(fed_avg, params, 4, f32::NAN).map(drop)),
            ("server under FedNova", ServerHalf::lwe(Aggregation::FedNova, 8, params, 4).map(drop)),
        ] {
            assert!(matches!(err, Err(FlError::InvalidConfig(_))), "{what}");
        }
        // 6 bits for 4 clients: a broadcast summing 5 is refused.
        let client = lwe(fed_avg, params, 4, 1.0).expect("client");
        let payload = client.encode(&mut bare_client(0, &cfg), vec![0.5; 8]).expect("encode");
        let ctx = LweContext::new(params).expect("context");
        let (_, cts) = codec::decode_lwe(&ctx, &payload, 8, 1).expect("an upload");
        assert!(client.decode(&codec::encode_lwe(&ctx, 4, &cts)).is_ok());
        for k in [0, 5] {
            let err = client.decode(&codec::encode_lwe(&ctx, k, &cts));
            assert!(matches!(err, Err(FlError::Payload(_))), "k = {k}");
        }
    }

    #[test]
    fn lwe_half_refuses_a_non_finite_weight() {
        // The grid would quantize NaN to its zero and ±∞ to ±clip; the
        // upload is refused at the first bad coordinate's flat index.
        let cfg = config(2);
        let params = lwe_fl_params(2, 6);
        let client = ClientHalf::lwe(Aggregation::FedAvg, 8, params, 2, 1.0, 3).expect("client");
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut flat = vec![0.25f32; 8];
            flat[6] = bad;
            let err = client.encode(&mut bare_client(0, &cfg), flat);
            assert!(
                matches!(err, Err(FlError::Fhe(FheError::NonFinitePlaintext { index: 6 }))),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn a_closed_half_refuses_every_fold_until_it_opens() {
        use rhychee_fhe::params::CkksParams;
        let (n, cfg, fed_avg, dense) = (64, config(2), Aggregation::FedAvg, PackingConfig::dense());
        let ctx = Arc::new(CkksContext::new(CkksParams::toy()).expect("toy context"));
        let wire: Arc<dyn WireCodec> = Arc::new(codec::CanonicalCodec);
        let lwe = lwe_fl_params(2, 6);
        let halves = [
            ("plaintext", ClientHalf::plaintext(fed_avg, n), ServerHalf::plaintext(fed_avg, n)),
            (
                "ckks",
                ClientHalf::ckks(fed_avg, n, Arc::clone(&ctx), cfg.seed, Arc::clone(&wire), dense),
                ServerHalf::ckks(fed_avg, n, ctx, wire, dense),
            ),
            (
                "lwe",
                ClientHalf::lwe(fed_avg, n, lwe, 2, 1.0, cfg.seed).expect("client"),
                ServerHalf::lwe(fed_avg, n, lwe, 2).expect("server"),
            ),
        ];
        for (name, client, mut server) in halves {
            let upload = |client_id, round| {
                let payload = client.encode(&mut bare_client(client_id, &cfg), vec![0.25; n]);
                ClientUpdate { client_id, round, steps: 1, payload: payload.expect("encode") }
            };
            assert!(server.fold(&upload(0, 0), |fold| fold()).expect("fold"), "{name}");
            server.close(None, |close| close()).expect("close");
            assert_eq!(server.received(), 0, "{name}");
            for round in [0, 1] {
                let closed = |_: &mut dyn FnMut()| panic!("{name}: a closed half parses nothing");
                let folded = server.fold(&upload(1, round), closed).expect("a NACK");
                assert!(!folded, "{name}: closed, round {round}");
            }
            assert!(server.close(None, |close| close()).is_err(), "{name}: nothing to close");
            server.open(1);
            assert!(!server.fold(&upload(1, 0), |fold| fold()).expect("NACK"), "{name}: stale");
            assert!(server.fold(&upload(1, 1), |fold| fold()).expect("fold"), "{name}: reopened");
            assert_eq!(server.received(), 1, "{name}");
        }
    }

    #[test]
    fn weighted_average_basics() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 6.0];
        let avg = weighted_average(&[&a, &b], &[0.5, 0.5]);
        assert_eq!(avg, vec![2.0, 4.0]);
        let weighted = weighted_average(&[&a, &b], &[0.25, 0.75]);
        assert_eq!(weighted, vec![2.5, 5.0]);
    }
}
