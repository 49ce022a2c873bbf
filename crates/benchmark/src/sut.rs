//! The adapter: **every** call into product code lives in this file, one
//! small function per measured boundary, named after the span it is
//! timed under. Drivers, statistics and reports import nothing from
//! `rhychee_*` themselves, so when the product's API changes (ROADMAP
//! #2 collapses several of these entry points) the benchmark follows
//! with an edit to this one file and no number changes meaning.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use rhychee_core::packing::{self, PackingConfig};
use rhychee_core::round::{self, ClientLocal, FedSetup};
use rhychee_core::{FlConfig, Parallelism, StreamingAggregator};
use rhychee_data::{DatasetKind, SyntheticConfig};
use rhychee_fhe::ckks::ntt::{self, NttTable};
use rhychee_fhe::ckks::rns::RnsPoly;
use rhychee_fhe::ckks::{
    CkksCiphertext, CkksContext, CkksEncryptNoise, CkksPublicKey, CkksSecretKey,
    CkksSymmetricNoise, CtView,
};
use rhychee_fhe::params::CkksParams;
use rhychee_hdc::model::{EncodedDataset, HdcModel};
use rhychee_net::wire::{self, Message, HEADER_LEN, TRAILER_LEN};
use rhychee_net::{
    CanonicalCodec, ClientConfig, ClientPipeline, FlClient, FlServer, ModelView, SeededCodec,
    ServerConfig, ServerPipeline, WireCodec, DEFAULT_MAX_PAYLOAD,
};

pub use rhychee_telemetry::alloc::{thread_allocated_bytes, TrackingAlloc};
pub use rhychee_telemetry::profile::{parse_jsonl, SpanTree};
pub use rhychee_telemetry::trace::{SpanEvent, TraceWriter};

/// One packed-model ciphertext.
pub type Ciphertext = CkksCiphertext;
/// One client's local state (shard, HDC model, encryption RNG).
pub type Client = ClientLocal;
/// The server's running encrypted sum for one round.
pub type Aggregator = StreamingAggregator;
/// Zero-copy views over one upload's payload bytes.
pub type UploadView<'a> = ModelView<'a>;
/// A zero-copy view over one serialized ciphertext.
pub type CipherView<'a> = CtView<'a>;
/// One RNS polynomial (the input of the CRT row).
pub type Poly = RnsPoly;
/// One prime's NTT table.
pub type Ntt = Arc<NttTable>;

/// HDC dimension of the operating point: 2000 × 10 classes = 20 000
/// parameters.
pub const HD_DIM: usize = 2000;
/// Training samples generated per client.
pub const TRAIN_PER_CLIENT: usize = 100;
/// Held-out test samples.
pub const TEST_SAMPLES: usize = 200;
/// Classes of the synthetic MNIST task.
pub const CLASSES: usize = 10;
/// Parameters of one model at the operating point.
pub const NUM_PARAMS: usize = HD_DIM * CLASSES;

/// Which Table III parameter set a workload runs at (both N = 8192).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSet {
    /// One 61-bit prime.
    Ckks4,
    /// Primes of 40/30/30 bits.
    Ckks3,
}

impl ParamSet {
    fn params(self) -> CkksParams {
        match self {
            ParamSet::Ckks4 => CkksParams::ckks4(),
            ParamSet::Ckks3 => CkksParams::ckks3(),
        }
    }
}

/// Which CKKS wire format uploads travel in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Full `(c0, c1)` bytes, public-key encryption.
    Canonical,
    /// Seed-compressed `c1`, symmetric encryption.
    Seeded,
}

impl Codec {
    fn wire(self) -> Arc<dyn WireCodec> {
        match self {
            Codec::Canonical => Arc::new(CanonicalCodec),
            Codec::Seeded => Arc::new(SeededCodec),
        }
    }
}

/// How many ways the product may split its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// `Parallelism::Fixed(1)`: everything inline on the calling thread.
    One,
    /// `Parallelism::Auto`: the product default.
    Auto,
}

impl Threads {
    fn parallelism(self) -> Parallelism {
        match self {
            Threads::One => Parallelism::Fixed(1),
            Threads::Auto => Parallelism::Auto,
        }
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Name of the NTT backend this process resolved.
pub fn ntt_backend() -> &'static str {
    ntt::active_kernel().name()
}

// ---------------------------------------------------------------------
// Set-up: data, shards, keys.
// ---------------------------------------------------------------------

/// The generated dataset, encoded and partitioned into client shards.
pub struct Federation {
    cfg: FlConfig,
    shards: Vec<EncodedDataset>,
    test: EncodedDataset,
    classes: usize,
}

/// Generates synthetic MNIST from `data_seed` and runs `round::prepare`
/// under a default `FlConfig` seeded with `fl_seed`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn federation(
    data_seed: u64,
    fl_seed: u64,
    clients: usize,
    threads: Threads,
) -> Result<Federation, String> {
    let data = SyntheticConfig {
        kind: DatasetKind::Mnist,
        train_samples: TRAIN_PER_CLIENT * clients,
        test_samples: TEST_SAMPLES,
    }
    .generate(data_seed)
    .map_err(err("dataset generation"))?;
    let cfg = FlConfig::builder()
        .clients(clients)
        .hd_dim(HD_DIM)
        .parallelism(threads.parallelism())
        .seed(fl_seed)
        .build()
        .map_err(err("FlConfig"))?;
    let FedSetup { shards, test, classes } = round::prepare(&cfg, &data).map_err(err("prepare"))?;
    Ok(Federation { cfg, shards, test, classes })
}

impl Federation {
    /// Trainable parameters `D × L`.
    pub fn num_params(&self) -> usize {
        self.classes * self.cfg.hd_dim
    }

    /// Fresh local states, one per shard.
    pub fn clients(&self) -> Vec<Client> {
        self.shards
            .iter()
            .enumerate()
            .map(|(id, shard)| ClientLocal::new(id, shard.clone(), self.classes, &self.cfg))
            .collect()
    }

    /// Test accuracy of a flat global model.
    pub fn accuracy(&self, global: &[f32]) -> f64 {
        HdcModel::from_flat(global, self.classes, self.cfg.hd_dim).accuracy(&self.test)
    }
}

/// Context, shared key pair and wire format of one workload.
pub struct Crypto {
    ctx: CkksContext,
    sk: CkksSecretKey,
    pk: CkksPublicKey,
    codec: Arc<dyn WireCodec>,
    packing: PackingConfig,
    num_params: usize,
    max_cts: usize,
}

/// Builds the CKKS context and derives the shared keys from `key_seed`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn crypto(
    params: ParamSet,
    codec: Codec,
    key_seed: u64,
    num_params: usize,
    threads: Threads,
) -> Result<Crypto, String> {
    let ctx = CkksContext::with_parallelism(params.params(), threads.parallelism())
        .map_err(err("CKKS context"))?;
    let (sk, pk) = round::derive_ckks_keys(&ctx, key_seed);
    let packing = PackingConfig::dense();
    let max_cts = packing::ciphertexts_needed_with(&packing, num_params, ctx.slot_count());
    Ok(Crypto { ctx, sk, pk, codec: codec.wire(), packing, num_params, max_cts })
}

impl Crypto {
    /// Ciphertexts one packed model occupies.
    pub fn cts_per_model(&self) -> usize {
        self.max_cts
    }

    /// Values one ciphertext packs.
    pub fn slots(&self) -> usize {
        self.ctx.slot_count()
    }

    /// Ring degree N.
    pub fn degree(&self) -> usize {
        self.ctx.params().n
    }

    /// The RNS primes of the context.
    pub fn primes(&self) -> &[u64] {
        self.ctx.primes()
    }
}

/// The private encryption stream of fan-in client `id`.
pub fn client_rng(seed: u64, id: usize) -> StdRng {
    round::client_rng(seed, id)
}

// ---------------------------------------------------------------------
// Byte counts the run is checked against: the product's own formulas
// plus the framing the wire protocol documents.
// ---------------------------------------------------------------------

/// `Update` body prefix: client id and step count.
const UPDATE_PREFIX: usize = 8;
/// `Global` body prefix: the `last` flag.
const GLOBAL_PREFIX: usize = 1;
/// Model payload prefix: tag byte and ciphertext count.
const PAYLOAD_PREFIX: usize = 5;
/// Length word in front of each ciphertext.
const CT_LEN_WORD: usize = 4;

/// Bytes of one frame around a body of `body` bytes.
pub fn frame_bytes(body: usize) -> usize {
    HEADER_LEN + body + TRAILER_LEN
}

/// Framed bytes of one upload, from `packing::upload_bytes_*_with`.
pub fn expected_upload_frame_bytes(cr: &Crypto) -> usize {
    let cts = if cr.codec.symmetric() {
        packing::upload_bytes_seeded_with(&cr.ctx, &cr.packing, cr.num_params)
    } else {
        packing::upload_bytes_canonical_with(&cr.ctx, &cr.packing, cr.num_params)
    };
    frame_bytes(UPDATE_PREFIX + PAYLOAD_PREFIX + CT_LEN_WORD * cr.max_cts + cts)
}

/// Framed bytes of one encrypted broadcast (always canonical).
pub fn expected_broadcast_frame_bytes(cr: &Crypto) -> usize {
    let cts = packing::upload_bytes_canonical_with(&cr.ctx, &cr.packing, cr.num_params);
    frame_bytes(GLOBAL_PREFIX + PAYLOAD_PREFIX + CT_LEN_WORD * cr.max_cts + cts)
}

/// Bytes a server receives over a whole loopback federation: one `Hello`
/// and `rounds` uploads per client.
pub fn expected_server_rx(cr: &Crypto, clients: usize, rounds: usize) -> usize {
    clients * (frame_bytes(4) + rounds * expected_upload_frame_bytes(cr))
}

/// Bytes a server sends over a whole loopback federation, per client:
/// `Welcome`, the plaintext zero model opening round 0, one encrypted
/// broadcast for each later round and the final one, an ack per upload,
/// and `Finished`.
pub fn expected_server_tx(cr: &Crypto, clients: usize, rounds: usize) -> usize {
    let plain_global = frame_bytes(GLOBAL_PREFIX + PAYLOAD_PREFIX + 4 * cr.num_params);
    clients
        * (frame_bytes(12)
            + plain_global
            + rounds * expected_broadcast_frame_bytes(cr)
            + rounds * frame_bytes(1)
            + frame_bytes(0))
}

// ---------------------------------------------------------------------
// Top-level spans: one function per measured boundary.
// ---------------------------------------------------------------------

/// `hdc.train` — `ClientLocal::train`.
pub fn train(client: &mut Client, global: &[f32], fed: &Federation) -> Vec<f32> {
    client.train(global, &fed.cfg)
}

/// `hdc.load_global` — `ClientLocal::load_global`.
pub fn load_global(client: &mut Client, global: &[f32]) {
    client.load_global(global);
}

/// `core.packing.encrypt_model` — `packing::encrypt_model_with`, or
/// `_symmetric_with` under a symmetric codec, drawing from `rng`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn encrypt_model(
    cr: &Crypto,
    flat: &[f32],
    rng: &mut StdRng,
) -> Result<Vec<Ciphertext>, String> {
    if cr.codec.symmetric() {
        packing::encrypt_model_symmetric_with(&cr.ctx, &cr.sk, flat, &cr.packing, rng)
    } else {
        packing::encrypt_model_with(&cr.ctx, &cr.pk, flat, &cr.packing, rng)
    }
    .map_err(err("encrypt_model"))
}

/// The stream `encrypt_model` draws from for a ladder client.
pub fn client_stream(client: &mut Client) -> &mut StdRng {
    client.rng_mut()
}

/// `net.codec.encode_upload` — `WireCodec::encode_upload`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn encode_upload(cr: &Crypto, cts: &[Ciphertext]) -> Result<Vec<u8>, String> {
    cr.codec.encode_upload(&cr.ctx, cts).map_err(err("encode_upload"))
}

/// `net.wire.encode_frame` — `wire::encode_frame` of an `Update`.
pub fn encode_frame(round: usize, client_id: usize, steps: usize, model: Vec<u8>) -> Vec<u8> {
    wire::encode_frame(&Message::Update { round, client_id, steps, model })
}

/// A decoded `Update` frame.
pub struct Upload {
    /// Round the update was trained for.
    pub round: usize,
    /// The reporting client.
    pub client_id: usize,
    /// Codec-encoded model payload.
    pub model: Vec<u8>,
}

/// `net.wire.decode_frame` — `wire::decode_frame` of an upload.
///
/// # Errors
///
/// Returns the product's error text, or a message when the frame is not
/// an `Update`.
pub fn decode_frame(bytes: &[u8]) -> Result<Upload, String> {
    match wire::decode_frame(bytes, DEFAULT_MAX_PAYLOAD).map_err(err("decode_frame"))? {
        Message::Update { round, client_id, model, .. } => Ok(Upload { round, client_id, model }),
        other => Err(format!("decode_frame: expected Update, got {}", other.name())),
    }
}

/// `net.codec.parse_upload` — `WireCodec::parse_upload`.
///
/// # Errors
///
/// Returns the product's error text, or a message on a short upload.
pub fn parse_upload<'a>(cr: &Crypto, model: &'a [u8]) -> Result<UploadView<'a>, String> {
    let view = cr.codec.parse_upload(&cr.ctx, model, cr.max_cts).map_err(err("parse_upload"))?;
    if view.len() != cr.max_cts {
        return Err(format!("parse_upload: {} ciphertexts, expected {}", view.len(), cr.max_cts));
    }
    Ok(view)
}

/// Opens the server's aggregator for `round` (FedAvg).
///
/// # Errors
///
/// Returns the product's error text.
pub fn aggregator(round: usize) -> Result<Aggregator, String> {
    StreamingAggregator::new(round, rhychee_core::Aggregation::FedAvg).map_err(err("aggregator"))
}

/// `core.streaming.fold_upload` — `StreamingAggregator::fold_upload`.
///
/// # Errors
///
/// Returns the product's error text, or a message on a NACK.
pub fn fold_upload(
    agg: &mut Aggregator,
    cr: &Crypto,
    client_id: usize,
    round: usize,
    view: &UploadView<'_>,
) -> Result<(), String> {
    match agg.fold_upload(&cr.ctx, client_id, round, view.views()).map_err(err("fold_upload"))? {
        true => Ok(()),
        false => Err(format!("fold_upload: NACK for client {client_id} in round {round}")),
    }
}

/// `core.streaming.finish` — `StreamingAggregator::finish`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn finish(agg: Aggregator, cr: &Crypto) -> Result<Vec<Ciphertext>, String> {
    agg.finish(&cr.ctx).map_err(err("finish"))
}

/// `net.codec.encode_broadcast` — `WireCodec::encode_broadcast`.
pub fn encode_broadcast(cr: &Crypto, cts: &[Ciphertext]) -> Vec<u8> {
    cr.codec.encode_broadcast(&cr.ctx, cts)
}

/// `net.wire.encode_frame_global` — `wire::encode_frame` of a `Global`.
pub fn encode_frame_global(round: usize, model: Vec<u8>) -> Vec<u8> {
    wire::encode_frame(&Message::Global { round, last: false, model })
}

/// `net.wire.decode_frame_global` — `wire::decode_frame` of a broadcast;
/// returns the model payload.
///
/// # Errors
///
/// Returns the product's error text, or a message when the frame is not
/// a `Global`.
pub fn decode_frame_global(bytes: &[u8]) -> Result<Vec<u8>, String> {
    match wire::decode_frame(bytes, DEFAULT_MAX_PAYLOAD).map_err(err("decode_frame_global"))? {
        Message::Global { model, .. } => Ok(model),
        other => Err(format!("decode_frame_global: expected Global, got {}", other.name())),
    }
}

/// `net.codec.decode_broadcast` — `codec::decode_ckks`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn decode_broadcast(cr: &Crypto, model: &[u8]) -> Result<Vec<Ciphertext>, String> {
    rhychee_net::codec::decode_ckks(&cr.ctx, model, cr.max_cts).map_err(err("decode_broadcast"))
}

/// `core.packing.decrypt_model` — `packing::decrypt_model_with`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn decrypt_model(cr: &Crypto, cts: &[Ciphertext]) -> Result<Vec<f32>, String> {
    packing::decrypt_model_with(&cr.ctx, &cr.sk, cts, cr.num_params, &cr.packing)
        .map_err(err("decrypt_model"))
}

// ---------------------------------------------------------------------
// `fhe` rows beneath the spans: one ciphertext (or one row) per call.
// ---------------------------------------------------------------------

/// The randomness of one encryption, public-key or symmetric.
pub enum Noise {
    /// For `encrypt_with_noise`.
    Public(CkksEncryptNoise),
    /// For `encrypt_symmetric_with_noise`.
    Symmetric(CkksSymmetricNoise),
}

/// Splits a flat model into slot-sized chunks, as `encrypt_model` does.
pub fn chunks(cr: &Crypto, flat: &[f32]) -> Vec<Vec<f64>> {
    packing::chunk_params(flat, cr.ctx.slot_count())
}

/// `fhe.ckks.encode` — `CkksEncoder::encode`.
pub fn fhe_encode(cr: &Crypto, values: &[f64]) -> Vec<i64> {
    cr.ctx.encoder().encode(values)
}

/// `fhe.ckks.sample_noise` — `sample_encrypt_noise`, or
/// `sample_symmetric_noise` under a symmetric codec.
pub fn fhe_sample_noise(cr: &Crypto, rng: &mut StdRng) -> Noise {
    if cr.codec.symmetric() {
        Noise::Symmetric(cr.ctx.sample_symmetric_noise(rng))
    } else {
        Noise::Public(cr.ctx.sample_encrypt_noise(rng))
    }
}

/// `fhe.ckks.encrypt_with_noise` — the variant matching `noise`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn fhe_encrypt_with_noise(
    cr: &Crypto,
    values: &[f64],
    noise: &Noise,
) -> Result<Ciphertext, String> {
    match noise {
        Noise::Public(n) => cr.ctx.encrypt_with_noise(&cr.pk, values, n),
        Noise::Symmetric(n) => cr.ctx.encrypt_symmetric_with_noise(&cr.sk, values, n),
    }
    .map_err(err("encrypt_with_noise"))
}

/// `fhe.ckks.serialize` — `CkksContext::serialize`.
pub fn fhe_serialize(cr: &Crypto, ct: &Ciphertext) -> Vec<u8> {
    cr.ctx.serialize(ct)
}

/// `fhe.ckks.serialize_seeded` — `CkksContext::serialize_seeded`; `None`
/// for a ciphertext without a seed (every public-key encryption).
pub fn fhe_serialize_seeded(cr: &Crypto, ct: &Ciphertext) -> Option<Vec<u8>> {
    cr.ctx.serialize_seeded(ct).ok()
}

/// The bytes one ciphertext of an upload travels as under the workload's
/// codec.
pub fn fhe_upload_bytes(cr: &Crypto, ct: &Ciphertext) -> Vec<u8> {
    let seeded = if cr.codec.symmetric() { fhe_serialize_seeded(cr, ct) } else { None };
    seeded.unwrap_or_else(|| fhe_serialize(cr, ct))
}

/// `fhe.ckks.deserialize` — `CkksContext::deserialize`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn fhe_deserialize(cr: &Crypto, bytes: &[u8]) -> Result<Ciphertext, String> {
    cr.ctx.deserialize(bytes).map_err(err("deserialize"))
}

/// `fhe.ckks.view_serialized` — `view_serialized`, or `_seeded` under a
/// symmetric codec.
///
/// # Errors
///
/// Returns the product's error text.
pub fn fhe_view_serialized<'a>(cr: &Crypto, bytes: &'a [u8]) -> Result<CipherView<'a>, String> {
    if cr.codec.symmetric() {
        cr.ctx.view_serialized_seeded(bytes)
    } else {
        cr.ctx.view_serialized(bytes)
    }
    .map_err(err("view_serialized"))
}

/// An all-zero accumulator shaped for `view`.
pub fn fhe_accumulator(cr: &Crypto, view: &CipherView<'_>) -> Ciphertext {
    cr.ctx.accumulator_for(view)
}

/// `fhe.ckks.fold_view` — `CkksContext::fold_view`.
///
/// # Errors
///
/// Returns the product's error text.
pub fn fhe_fold_view(
    cr: &Crypto,
    acc: &mut Ciphertext,
    view: &CipherView<'_>,
) -> Result<(), String> {
    cr.ctx.fold_view(acc, view).map_err(err("fold_view"))
}

/// `fhe.ckks.mul_scalar` — `CkksContext::mul_scalar`.
pub fn fhe_mul_scalar(cr: &Crypto, ct: &Ciphertext, scalar: f64) -> Ciphertext {
    cr.ctx.mul_scalar(ct, scalar)
}

/// `fhe.ckks.decrypt` — `CkksContext::decrypt`.
pub fn fhe_decrypt(cr: &Crypto, ct: &Ciphertext) -> Vec<f64> {
    cr.ctx.decrypt(&cr.sk, ct)
}

/// A polynomial of the shape `decrypt` reconstructs, from signed
/// coefficients.
pub fn fhe_poly(cr: &Crypto, coeffs: &[i64]) -> Poly {
    RnsPoly::from_signed_coeffs(coeffs, cr.ctx.primes())
}

/// `fhe.rns.to_centered_f64` — `RnsPoly::to_centered_f64_with`.
pub fn fhe_to_centered_f64(cr: &Crypto, poly: &Poly) -> Vec<f64> {
    poly.to_centered_f64_with(cr.ctx.primes(), cr.ctx.parallelism())
}

/// `fhe.ckks.decode` — `CkksEncoder::decode`.
pub fn fhe_decode(cr: &Crypto, coeffs: &[f64]) -> Vec<f64> {
    cr.ctx.encoder().decode(coeffs)
}

/// The cached NTT table of prime `q` at this context's degree.
pub fn ntt_table(cr: &Crypto, q: u64) -> Ntt {
    ntt::cached_table(cr.ctx.params().n, q)
}

/// `fhe.ntt.forward` — `NttTable::forward` on the active kernel.
pub fn ntt_forward(table: &Ntt, row: &mut [u64]) {
    table.forward(row);
}

/// `fhe.ntt.inverse` — `NttTable::inverse` on the active kernel.
pub fn ntt_inverse(table: &Ntt, row: &mut [u64]) {
    table.inverse(row);
}

// ---------------------------------------------------------------------
// The networked runtime: one real federation over loopback TCP.
// ---------------------------------------------------------------------

/// A bound server and its clients, ready to run.
pub struct Loopback {
    server: FlServer,
    clients: Vec<FlClient>,
}

/// What the server's public report says about one federation.
#[derive(Debug, Clone, Default)]
pub struct ServerSide {
    /// `NetRoundReport::aggregate_time` of every round, in milliseconds.
    pub aggregate_ms: Vec<f64>,
    /// Updates the server NACKed.
    pub rejected: u64,
    /// Connections that died mid-session.
    pub dropped_clients: u64,
    /// Bytes written to all sockets.
    pub bytes_tx: u64,
    /// Bytes read from all sockets.
    pub bytes_rx: u64,
}

/// What one client's public report says about one federation.
#[derive(Debug, Clone, Default)]
pub struct ClientSide {
    /// Rounds trained and uploaded.
    pub rounds: u64,
    /// Total `local_train` time, in milliseconds.
    pub train_ms: f64,
    /// Total encrypt + encode time, in milliseconds.
    pub encrypt_ms: f64,
    /// Total frame + socket write time, in milliseconds.
    pub upload_ms: f64,
    /// Total decode + decrypt time, in milliseconds.
    pub decrypt_ms: f64,
    /// Connect/upload retries.
    pub retries: u64,
    /// Uploads the server NACKed.
    pub rejected_updates: u64,
    /// The final global model as this client decrypted it.
    pub final_model: Vec<f32>,
}

/// One finished loopback federation.
#[derive(Debug, Clone, Default)]
pub struct NetRun {
    /// Wall time from starting the server thread to the last join.
    pub wall: Duration,
    /// The server's report.
    pub server: ServerSide,
    /// Each client's report, by client id.
    pub clients: Vec<ClientSide>,
}

/// Binds a server on an ephemeral loopback port and builds one client
/// per shard, all at product defaults (streaming aggregation, the
/// federation's parallelism, canonical or seeded codec as asked).
///
/// # Errors
///
/// Returns the product's error text.
pub fn loopback(
    fed: &Federation,
    params: ParamSet,
    codec: Codec,
    rounds: usize,
) -> Result<Loopback, String> {
    let clients = fed.shards.len();
    let mut builder = ServerConfig::builder()
        .clients(clients)
        .rounds(rounds)
        .model_params(fed.num_params())
        .parallelism(fed.cfg.parallelism);
    if codec == Codec::Seeded {
        builder = builder.codec(SeededCodec);
    }
    let config = builder.build().map_err(err("ServerConfig"))?;
    let server = FlServer::bind("127.0.0.1:0", config, ServerPipeline::Ckks(params.params()))
        .map_err(err("bind"))?;
    let addr: SocketAddr = server.local_addr().map_err(err("local_addr"))?;
    let clients = fed
        .clients()
        .into_iter()
        .map(|local| {
            let mut config = ClientConfig::new(addr);
            config.codec = codec.wire();
            FlClient::new(
                config,
                fed.cfg.clone(),
                local,
                fed.classes,
                None,
                ClientPipeline::Ckks(params.params()),
            )
            .map_err(err("FlClient"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Loopback { server, clients })
}

/// `FlServer::run` on one thread and `FlClient::run` on one thread per
/// client, joined; the wall time covers all of it.
///
/// # Errors
///
/// Returns the product's error text when any endpoint fails.
pub fn run_loopback(lb: Loopback) -> Result<NetRun, String> {
    let start = Instant::now();
    let server = thread::spawn(move || lb.server.run());
    let clients: Vec<_> = lb.clients.into_iter().map(|c| thread::spawn(move || c.run())).collect();
    // Join everything before looking at any result, so a failed
    // endpoint never leaves a thread behind.
    let client_reports: Vec<_> = clients.into_iter().map(thread::JoinHandle::join).collect();
    let server_report = server.join();
    let wall = start.elapsed();

    let report = server_report.map_err(|_| "server thread panicked")?.map_err(err("server"))?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut run = NetRun {
        wall,
        server: ServerSide {
            aggregate_ms: report.rounds.iter().map(|r| ms(r.aggregate_time)).collect(),
            rejected: report.rounds.iter().map(|r| r.rejected as u64).sum(),
            dropped_clients: report.dropped_clients as u64,
            bytes_tx: report.bytes_tx,
            bytes_rx: report.bytes_rx,
        },
        clients: Vec::new(),
    };
    for joined in client_reports {
        let r = joined.map_err(|_| "client thread panicked")?.map_err(err("client"))?;
        run.clients.push(ClientSide {
            rounds: r.rounds_participated as u64,
            train_ms: ms(r.train_time),
            encrypt_ms: ms(r.encrypt_time),
            upload_ms: ms(r.upload_time),
            decrypt_ms: ms(r.decrypt_time),
            retries: r.retries,
            rejected_updates: r.rejected_updates,
            final_model: r.final_model,
        });
    }
    Ok(run)
}
