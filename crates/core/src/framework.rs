//! The Rhychee-FL orchestrator: clients, server, and the per-round
//! aggregation loop of paper §IV-A.
//!
//! Supports three transport pipelines over the same HDC learner:
//!
//! * **plaintext** — FedAvg on raw parameters (the paper's Fig. 2/3
//!   accuracy studies, "conducted in non-encrypted data");
//! * **CKKS** — packed RLWE ciphertexts, homomorphic averaging (Eq. 2);
//! * **LWE/TFHE** — per-parameter ciphertexts over a public fixed-point
//!   grid (the design-space alternative of Table I).
//!
//! Every round runs [`ClientHalf`] → link → [`ServerHalf`] → link →
//! [`ClientHalf`], the halves `rhychee-net` runs across TCP.
//! Because every randomness stream is salted off the run seed (see
//! [`crate::round`]), a networked run reproduces this framework's global
//! model bit for bit.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rhychee_telemetry as telemetry;

use rhychee_data::TrainTest;
use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::params::{CkksParams, LweParams};
use rhychee_hdc::model::{EncodedDataset, HdcModel};

use crate::codec::{CanonicalCodec, WireCodec};
use crate::config::FlConfig;
use crate::error::FlError;
use crate::packing::PackingConfig;
use crate::round::{self, ClientHalf, ClientLocal, ClientUpdate, ServerHalf, ServerRound};

/// Salt for the participant-sampling stream (kept apart from setup and
/// key material so pipelines can be compared round for round).
const SAMPLING_SALT: u64 = 0xA076_1D64_78BD_642F;

/// Presence hook: `(round, participant ids)`; edits the list in place.
pub(crate) type PresenceHook = Box<dyn FnMut(usize, &mut Vec<usize>)>;
/// Updates tap: `(round, plaintext updates)`; mutates the batch in place.
pub(crate) type UpdatesTapHook = Box<dyn FnMut(usize, &mut Vec<ClientUpdate<Vec<f32>>>)>;
/// Aggregation override: `(round, updates, weights)`; `Some` replaces
/// the configured rule.
pub(crate) type AggregateOverrideHook =
    Box<dyn FnMut(usize, &[ClientUpdate<Vec<f32>>], &[f64]) -> Option<Vec<f32>>>;
/// Link: carries one model payload to the other endpoint and returns the
/// bytes the receiver ends up holding.
pub(crate) type LinkHook = Box<dyn FnMut(&[u8]) -> Vec<u8>>;

/// Callbacks a scenario driver installs around the round loop.
///
/// The hooks expose the four seams a perturbation layer needs without
/// the framework knowing anything about scenarios: who participates
/// (churn), what each client uploads (Byzantine attacks, client-side
/// defenses), how the server aggregates (robust aggregation), and what
/// the link between them delivers (a lossy channel). All hooks are
/// deterministic functions of their arguments plus whatever seeded
/// state the closure captured, so a hooked run replays bit-identically
/// — the framework itself draws no extra randomness on their behalf.
#[derive(Default)]
pub struct RoundHooks {
    /// Edits the participant list after sampling (arrival / departure /
    /// rejoin). Ids are sanitized afterwards: out-of-range ids are
    /// dropped, duplicates removed, order normalized to ascending.
    pub presence: Option<PresenceHook>,
    /// Mutates the round's plaintext updates *before* encryption — the
    /// seam where Byzantine clients corrupt their uploads (and where a
    /// batch defense may clip them). Receives every update at once so
    /// defenses can compute batch statistics (e.g. the median norm).
    pub updates_tap: Option<UpdatesTapHook>,
    /// Replaces the server-side aggregation for the plaintext pipeline
    /// (e.g. coordinate-wise trimmed mean). Returning `None` falls back
    /// to the configured aggregation rule. Encrypted pipelines ignore
    /// this hook: the server cannot run order statistics on
    /// ciphertexts, which is exactly the robustness/privacy tension the
    /// scenario engine measures.
    pub aggregate_override: Option<AggregateOverrideHook>,
    /// The link every model payload crosses between client and server,
    /// under every scheme. Absent, the payload bytes are handed over as
    /// they are. Present, each upload crosses it (client-id order) and
    /// the server folds the delivered bytes; then the broadcast crosses
    /// it once per participant before decoding.
    pub link: Option<LinkHook>,
}

impl std::fmt::Debug for RoundHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundHooks")
            .field("presence", &self.presence.is_some())
            .field("updates_tap", &self.updates_tap.is_some())
            .field("aggregate_override", &self.aggregate_override.is_some())
            .field("link", &self.link.is_some())
            .finish()
    }
}

/// Measurements from one aggregation round.
#[derive(Debug, Clone, Default)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// Number of client updates that entered aggregation this round
    /// (after participation sampling, churn, and any defense that drops
    /// updates outright).
    pub participants: usize,
    /// Global-model accuracy on the held-out test set after the round.
    pub accuracy: f64,
    /// Bits uploaded per client this round.
    pub upload_bits_per_client: u64,
    /// Bits downloaded per client this round.
    pub download_bits_per_client: u64,
    /// Wall time spent in local training (all clients).
    pub train_time: Duration,
    /// Wall time spent encrypting local models (all clients).
    pub encrypt_time: Duration,
    /// Wall time spent in server-side aggregation.
    pub aggregate_time: Duration,
    /// Wall time spent decrypting the global model (one client).
    pub decrypt_time: Duration,
}

/// Full-run measurements.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-round reports in order.
    pub rounds: Vec<RoundReport>,
    /// Accuracy after the final round.
    pub final_accuracy: f64,
}

impl RunReport {
    /// First round (1-based) at which accuracy reached `target`, if any —
    /// the metric behind the paper's Fig. 3 "rounds to 90%" markers.
    pub fn rounds_to_accuracy(&self, target: f64) -> Option<usize> {
        self.rounds.iter().position(|r| r.accuracy >= target).map(|i| i + 1)
    }

    /// Total bits uploaded per client over the run.
    #[cfg(test)]
    pub(crate) fn total_upload_bits_per_client(&self) -> u64 {
        self.rounds.iter().map(|r| r.upload_bits_per_client).sum()
    }
}

/// The Rhychee-FL federated system (server + clients simulation).
///
/// # Examples
///
/// ```
/// use rhychee_core::{FlConfig, Framework};
/// use rhychee_data::{DatasetKind, SyntheticConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = SyntheticConfig::small(DatasetKind::Har).generate(3)?;
/// let config = FlConfig::builder().clients(4).rounds(2).hd_dim(256).seed(3).build()?;
/// let mut fw = Framework::hdc_plaintext(config, &data)?;
/// let report = fw.run()?;
/// assert!(report.final_accuracy > 0.5);
/// # Ok(())
/// # }
/// ```
pub struct Framework {
    config: FlConfig,
    clients: Vec<ClientLocal>,
    test: EncodedDataset,
    global: Vec<f32>,
    classes: usize,
    /// The payload path, as `FlClient` and `FlServer` run it.
    client: ClientHalf,
    server: ServerHalf,
    rng: StdRng,
    next_round: usize,
    hooks: RoundHooks,
}

impl Framework {
    /// Builds a plaintext-aggregation federation (paper Fig. 2/3 setting).
    ///
    /// # Errors
    ///
    /// Returns [`FlError`] on invalid config or insufficient data.
    pub fn hdc_plaintext(config: FlConfig, data: &TrainTest) -> Result<Self, FlError> {
        let agg = config.aggregation;
        Self::build(config, data, |n| {
            Ok((ClientHalf::plaintext(agg, n), ServerHalf::plaintext(agg, n)))
        })
    }

    /// Builds the full Rhychee-FL pipeline: encrypted aggregation under
    /// CKKS with maximum packing.
    ///
    /// Key sharing (paper §IV-A) is simulated: every client holds the
    /// shared secret key; the server only ever touches ciphertexts and
    /// the public key.
    ///
    /// # Errors
    ///
    /// Returns [`FlError`] on invalid config or FHE parameters.
    pub fn hdc_encrypted(
        config: FlConfig,
        data: &TrainTest,
        params: CkksParams,
    ) -> Result<Self, FlError> {
        Self::build_ckks(config, data, params, PackingConfig::dense())
    }

    /// Builds the encrypted CKKS federation with bit-interleaved slot
    /// packing: coordinates quantized to `bits` bits (clipped to
    /// `[-clip, clip]`), several per slot, aggregated by homomorphic
    /// sum with the mean recovered after decryption from the in-band
    /// contributor counter. Fewer ciphertexts — and fewer NTTs — per
    /// round than [`Framework::hdc_encrypted`].
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for non-uniform aggregation
    /// rules (FedNova weights cannot ride a lane-packed sum) and
    /// [`FlError`] on invalid packing or FHE parameters.
    #[cfg(test)]
    pub(crate) fn hdc_encrypted_interleaved(
        config: FlConfig,
        data: &TrainTest,
        params: CkksParams,
        bits: u32,
        clip: f32,
    ) -> Result<Self, FlError> {
        let packing = PackingConfig::interleaved(bits, clip, config.clients)?;
        packing.check_federation(config.aggregation, config.clients)?;
        Self::build_ckks(config, data, params, packing)
    }

    /// Both encrypted constructors: canonical public-key uploads.
    fn build_ckks(
        config: FlConfig,
        data: &TrainTest,
        params: CkksParams,
        packing: PackingConfig,
    ) -> Result<Self, FlError> {
        let ctx = Arc::new(CkksContext::with_parallelism(params, config.parallelism)?);
        let (agg, seed) = (config.aggregation, config.seed);
        Self::build(config, data, |n| {
            let codec: Arc<dyn WireCodec> = Arc::new(CanonicalCodec);
            let server = ServerHalf::ckks(agg, n, Arc::clone(&ctx), Arc::clone(&codec), packing);
            Ok((ClientHalf::ckks(agg, n, ctx, seed, codec, packing), server))
        })
    }

    /// Builds an encrypted federation over the single-value LWE scheme:
    /// one ciphertext per parameter, clipped to the public
    /// `[-clip, clip]` and quantized at the largest `b` bits with
    /// `clients · 2^b ≤ t` ([`round::lwe_fl_params`] sizes `t` for a
    /// chosen `b`).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] under FedNova (an LWE sum is
    /// uniform), for fewer than 2 bits per client or a bad clip, and
    /// [`FlError::NoiseBudget`] if the parameter set cannot absorb
    /// `clients` additions.
    pub fn hdc_encrypted_lwe(
        config: FlConfig,
        data: &TrainTest,
        params: LweParams,
        clip: f32,
    ) -> Result<Self, FlError> {
        let (agg, clients, seed) = (config.aggregation, config.clients, config.seed);
        Self::build(config, data, |n| {
            let client = ClientHalf::lwe(agg, n, params, clients, clip, seed)?;
            Ok((client, ServerHalf::lwe(agg, n, params, clients)?))
        })
    }

    /// Prepares the clients, then the two halves for their model size.
    fn build(
        config: FlConfig,
        data: &TrainTest,
        halves: impl FnOnce(usize) -> Result<(ClientHalf, ServerHalf), FlError>,
    ) -> Result<Self, FlError> {
        let setup = round::prepare(&config, data)?;
        let classes = setup.classes;
        let (clients, test) = setup.into_clients(&config);
        let global = vec![0.0; classes * config.hd_dim];
        let (client, server) = halves(global.len())?;
        let rng = StdRng::seed_from_u64(config.seed ^ SAMPLING_SALT);
        Ok(Framework {
            config,
            clients,
            test,
            global,
            classes,
            client,
            server,
            rng,
            next_round: 0,
            hooks: RoundHooks::default(),
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// Installs scenario hooks (replacing any previous set) — see
    /// [`RoundHooks`] for the four seams they cover.
    pub fn set_hooks(&mut self, hooks: RoundHooks) {
        self.hooks = hooks;
    }

    /// Trainable parameter count `D × L`.
    pub fn num_parameters(&self) -> usize {
        self.global.len()
    }

    /// Current global model as an [`HdcModel`].
    pub fn global_model(&self) -> HdcModel {
        HdcModel::from_flat(&self.global, self.classes, self.config.hd_dim)
    }

    /// Accuracy of the current global model on the test set.
    pub fn global_accuracy(&self) -> f64 {
        self.global_model().accuracy(&self.test)
    }

    /// Bits a client uploads per round under the active pipeline.
    pub fn upload_bits_per_round(&self) -> u64 {
        self.client.upload_bits()
    }

    /// Executes one aggregation round (paper Fig. 1: local training →
    /// collection → homomorphic aggregation → distribution).
    ///
    /// # Errors
    ///
    /// Propagates FHE errors from the encrypted pipelines.
    pub fn run_round(&mut self) -> Result<RoundReport, FlError> {
        let round = self.next_round;
        self.next_round += 1;
        let mut report = RoundReport { round, ..RoundReport::default() };
        let round_span = telemetry::span("round");

        // Client sampling (participation < 1.0 is an extension; the paper
        // aggregates all clients every round).
        let mut participants = self.sample_participants();
        if let Some(presence) = self.hooks.presence.as_mut() {
            presence(round, &mut participants);
            let total = self.clients.len();
            participants.retain(|&id| id < total);
            participants.sort_unstable();
            participants.dedup();
        }

        // 1. Local training.
        let span = telemetry::span("local_train");
        let mut trained = self.train_locals(round, &participants);
        report.train_time = span.finish();

        if let Some(tap) = self.hooks.updates_tap.as_mut() {
            tap(round, &mut trained);
        }
        report.participants = trained.len();

        // A round every client sat out (total churn) leaves the global
        // model untouched rather than averaging over nothing.
        if trained.is_empty() {
            report.upload_bits_per_client = 0;
            report.download_bits_per_client = 0;
            report.accuracy = self.global_accuracy();
            round_span.finish();
            return Ok(report);
        }

        // 2–4. Collection, aggregation, distribution. The
        // `fl.decrypt_error.max` noise-budget gauge (DESIGN.md §10): the
        // decrypted aggregate against exact FedAvg.
        let plain = (self.client.encrypted() && telemetry::enabled()).then(|| trained.clone());
        let (client, server, hooks) = (&self.client, &mut self.server, &mut self.hooks);
        let global = exchange(client, server, &mut self.clients, hooks, trained, &mut report)?;
        if let Some(updates) = plain {
            let mut sum = ServerRound::new(round, self.config.aggregation);
            for u in updates {
                sum.accept(u);
            }
            let errors = global.iter().zip(sum.aggregate()?).map(|(g, w)| (g - w).abs());
            telemetry::gauge("fl.decrypt_error.max", f64::from(errors.fold(0.0, f32::max)));
        }
        self.global = global;
        self.distribute_global(&participants);

        report.upload_bits_per_client = self.upload_bits_per_round();
        report.download_bits_per_client = report.upload_bits_per_client;
        report.accuracy = self.global_accuracy();
        round_span.finish();
        Ok(report)
    }

    /// Runs all configured rounds and collects the reports.
    ///
    /// # Errors
    ///
    /// Propagates the first round error.
    pub fn run(&mut self) -> Result<RunReport, FlError> {
        let mut report = RunReport::default();
        for _ in 0..self.config.rounds {
            report.rounds.push(self.run_round()?);
        }
        report.final_accuracy = report.rounds.last().map_or(0.0, |r| r.accuracy);
        Ok(report)
    }

    fn sample_participants(&mut self) -> Vec<usize> {
        let total = self.clients.len();
        let count = ((total as f64 * self.config.participation).ceil() as usize).clamp(1, total);
        let mut ids: Vec<usize> = (0..total).collect();
        if count < total {
            ids.shuffle(&mut self.rng);
            ids.truncate(count);
            ids.sort_unstable();
        }
        ids
    }

    /// Runs local training on the selected clients; returns their
    /// updates as the server would receive them.
    fn train_locals(
        &mut self,
        round: usize,
        participants: &[usize],
    ) -> Vec<ClientUpdate<Vec<f32>>> {
        let cfg = self.config.clone();
        let global = self.global.clone();
        participants
            .iter()
            .map(|&id| {
                let client = &mut self.clients[id];
                let flat = client.train(&global, &cfg);
                ClientUpdate { client_id: id, round, steps: client.last_steps(), payload: flat }
            })
            .collect()
    }

    fn distribute_global(&mut self, participants: &[usize]) {
        for &id in participants {
            self.clients[id].load_global(&self.global);
        }
    }
}

/// One payload round: uploads are encoded (`encrypt`), cross the link,
/// fold and close (`aggregate`); the broadcast crosses the link once per
/// participant and is decoded (`decrypt`). Every participant is sent the
/// same payload under the same key, so one delivered copy stands for all.
fn exchange(
    client: &ClientHalf,
    server: &mut ServerHalf,
    clients: &mut [ClientLocal],
    hooks: &mut RoundHooks,
    trained: Vec<ClientUpdate<Vec<f32>>>,
    report: &mut RoundReport,
) -> Result<Vec<f32>, FlError> {
    let span = telemetry::span("encrypt");
    let mut uploads = Vec::with_capacity(trained.len());
    for ClientUpdate { client_id, round, steps, payload } in trained {
        let payload = client.encode(&mut clients[client_id], payload)?;
        uploads.push(ClientUpdate { client_id, round, steps, payload });
    }
    report.encrypt_time = span.finish();

    if let Some(link) = hooks.link.as_mut() {
        for upload in &mut uploads {
            upload.payload = link(&upload.payload);
        }
    }

    let (span, round) = (telemetry::span("aggregate"), report.round);
    server.open(round);
    for upload in &uploads {
        if !server.fold(upload, |fold| fold())? {
            return Err(FlError::StreamingAbort(format!(
                "round {round}: client {}'s upload did not fold",
                upload.client_id
            )));
        }
    }
    let (mut broadcast, _) = server.close(hooks.aggregate_override.as_mut(), |close| close())?;
    report.aggregate_time = span.finish();

    if let Some(link) = hooks.link.as_mut() {
        let sent = std::mem::take(&mut broadcast);
        for _ in &uploads {
            broadcast = link(&sent);
        }
    }

    let span = telemetry::span("decrypt");
    let global = client.decode(&broadcast)?;
    report.decrypt_time = span.finish();
    Ok(global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Aggregation, EncoderKind};
    use rhychee_data::{DatasetKind, SyntheticConfig};

    fn small_data(kind: DatasetKind) -> TrainTest {
        SyntheticConfig { kind, train_samples: 300, test_samples: 120 }
            .generate(11)
            .expect("generate")
    }

    /// The public clip every LWE federation here quantizes to.
    const LWE_CLIP: f32 = 32.0;

    fn small_config(clients: usize, rounds: usize) -> FlConfig {
        FlConfig::builder()
            .clients(clients)
            .rounds(rounds)
            .hd_dim(512)
            .seed(5)
            .build()
            .expect("valid")
    }

    #[test]
    fn plaintext_fl_converges() {
        let data = small_data(DatasetKind::Har);
        let mut fw = Framework::hdc_plaintext(small_config(5, 4), &data).expect("build");
        let report = fw.run().expect("run");
        assert_eq!(report.rounds.len(), 4);
        assert!(report.final_accuracy > 0.8, "accuracy {}", report.final_accuracy);
        // Accuracy is broadly non-decreasing (allow small dips).
        assert!(report.rounds[3].accuracy + 0.1 >= report.rounds[0].accuracy);
    }

    #[test]
    fn encrypted_fl_matches_plaintext_closely() {
        let data = small_data(DatasetKind::Har);
        let mut plain = Framework::hdc_plaintext(small_config(4, 3), &data).expect("build");
        let mut enc =
            Framework::hdc_encrypted(small_config(4, 3), &data, CkksParams::toy()).expect("build");
        let rp = plain.run().expect("run");
        let re = enc.run().expect("run");
        assert!(
            (rp.final_accuracy - re.final_accuracy).abs() < 0.08,
            "plaintext {} vs encrypted {}",
            rp.final_accuracy,
            re.final_accuracy
        );
    }

    #[test]
    fn interleaved_fl_matches_dense_within_quantization_error() {
        // The acceptance run for bit-interleaved packing: same
        // federation under the dense and interleaved CKKS pipelines.
        // Normalized uploads keep coordinates in [-1, 1], so clip = 1
        // loses nothing and the only divergence is the 10-bit grid.
        let data = small_data(DatasetKind::Har);
        let cfg = || {
            FlConfig::builder()
                .clients(4)
                .rounds(3)
                .hd_dim(512)
                .seed(5)
                .normalize(true)
                .build()
                .expect("valid")
        };
        let mut dense = Framework::hdc_encrypted(cfg(), &data, CkksParams::toy()).expect("build");
        let mut inter =
            Framework::hdc_encrypted_interleaved(cfg(), &data, CkksParams::toy(), 10, 1.0)
                .expect("build");
        let rd = dense.run().expect("dense run");
        let ri = inter.run().expect("interleaved run");
        assert!(
            (rd.final_accuracy - ri.final_accuracy).abs() < 0.05,
            "dense {} vs interleaved {}",
            rd.final_accuracy,
            ri.final_accuracy
        );
        // Fewer ciphertexts per upload must show up as fewer bits on
        // the wire: 2 lanes/slot at 10 bits, P=4 → roughly half.
        assert!(
            ri.total_upload_bits_per_client() < rd.total_upload_bits_per_client() * 3 / 4,
            "interleaved {} bits vs dense {} bits",
            ri.total_upload_bits_per_client(),
            rd.total_upload_bits_per_client()
        );
    }

    #[test]
    fn interleaved_rejects_fednova() {
        let data = small_data(DatasetKind::Har);
        let cfg = FlConfig::builder()
            .clients(4)
            .rounds(1)
            .hd_dim(512)
            .seed(5)
            .aggregation(Aggregation::FedNova)
            .build()
            .expect("valid");
        let err = Framework::hdc_encrypted_interleaved(cfg, &data, CkksParams::toy(), 10, 1.0);
        assert!(matches!(err, Err(FlError::InvalidConfig(_))));
    }

    #[test]
    fn lwe_rejects_fednova() {
        let data = small_data(DatasetKind::Har);
        let mut cfg = small_config(4, 1);
        cfg.aggregation = Aggregation::FedNova;
        let params = round::lwe_fl_params(4, 6);
        let err = Framework::hdc_encrypted_lwe(cfg, &data, params, LWE_CLIP);
        assert!(matches!(err, Err(FlError::InvalidConfig(_))));
    }

    #[test]
    fn identity_link_leaves_every_global_bit_unchanged() {
        // Every scheme's round crosses the link as codec payloads: bytes
        // handed back untouched must leave the global model bit for bit
        // where a run without a link ends.
        type Build = fn(FlConfig, &TrainTest) -> Result<Framework, FlError>;
        let data = small_data(DatasetKind::Har);
        let builds: [(&str, Build); 3] = [
            ("plaintext", Framework::hdc_plaintext),
            ("ckks", |cfg, data| Framework::hdc_encrypted(cfg, data, CkksParams::toy())),
            ("lwe", |mut cfg, data| {
                cfg.hd_dim = 128; // one ciphertext per parameter
                Framework::hdc_encrypted_lwe(cfg, data, round::lwe_fl_params(3, 6), LWE_CLIP)
            }),
        ];
        for (name, build) in builds {
            let crossings = std::rc::Rc::new(std::cell::Cell::new(0));
            let run = |linked: bool| {
                let mut fw = build(small_config(3, 2), &data).expect("build");
                if linked {
                    let crossings = std::rc::Rc::clone(&crossings);
                    fw.set_hooks(RoundHooks {
                        link: Some(Box::new(move |bytes: &[u8]| {
                            crossings.set(crossings.get() + 1);
                            bytes.to_vec()
                        })),
                        ..RoundHooks::default()
                    });
                }
                fw.run().expect("run");
                fw.global_model().flatten().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            };
            assert_eq!(run(true), run(false), "{name}: the identity link moved a bit");
            // 2 rounds × (3 uploads + 3 copies of the broadcast).
            assert_eq!(crossings.get(), 12, "{name}: every payload crossed the link");
        }
    }

    #[test]
    fn lwe_pipeline_runs_and_learns() {
        let data = small_data(DatasetKind::Har);
        let mut cfg = small_config(4, 2);
        cfg.hd_dim = 128; // keep the per-parameter ciphertext count small
        let params = round::lwe_fl_params(4, 6);
        let mut fw = Framework::hdc_encrypted_lwe(cfg, &data, params, LWE_CLIP).expect("build");
        let report = fw.run().expect("run");
        assert!(report.final_accuracy > 0.6, "accuracy {}", report.final_accuracy);
    }

    #[test]
    fn lwe_rejects_overflowing_setup() {
        let data = small_data(DatasetKind::Har);
        // t = 16 leaves 5 clients 1 bit each (4 would build at 2 bits).
        let params = LweParams::tfhe1();
        let err = Framework::hdc_encrypted_lwe(small_config(5, 1), &data, params, LWE_CLIP);
        assert!(matches!(err, Err(FlError::InvalidConfig(_))));
    }

    #[test]
    fn upload_bits_formulas() {
        let data = small_data(DatasetKind::Har);
        let cfg = small_config(3, 1);
        let n = (cfg.hd_dim * 6) as u64;
        let plain = Framework::hdc_plaintext(cfg.clone(), &data).expect("build");
        assert_eq!(plain.upload_bits_per_round(), n * 32);
        let enc = Framework::hdc_encrypted(cfg, &data, CkksParams::toy()).expect("build");
        // toy: N = 512, slots = 256, log Q = 90.
        assert_eq!(enc.upload_bits_per_round(), n.div_ceil(256) * 2 * 512 * 90);
    }

    #[test]
    fn rounds_to_accuracy_metric() {
        let mut report = RunReport::default();
        for (i, acc) in [0.5, 0.85, 0.93, 0.95].iter().enumerate() {
            report.rounds.push(RoundReport { round: i, accuracy: *acc, ..Default::default() });
        }
        assert_eq!(report.rounds_to_accuracy(0.9), Some(3));
        assert_eq!(report.rounds_to_accuracy(0.99), None);
        assert_eq!(report.rounds_to_accuracy(0.4), Some(1));
    }

    #[test]
    fn participation_sampling() {
        let data = small_data(DatasetKind::Har);
        let mut cfg = small_config(10, 1);
        cfg.participation = 0.3;
        let mut fw = Framework::hdc_plaintext(cfg, &data).expect("build");
        let p = fw.sample_participants();
        assert_eq!(p.len(), 3);
        assert!(p.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
    }

    #[test]
    fn fednova_and_fedprox_run() {
        let data = small_data(DatasetKind::Har);
        for agg in [Aggregation::FedNova, Aggregation::FedProx { mu: 0.1 }] {
            let mut cfg = small_config(4, 2);
            cfg.aggregation = agg;
            let mut fw = Framework::hdc_plaintext(cfg, &data).expect("build");
            let report = fw.run().expect("run");
            assert!(report.final_accuracy > 0.6, "{agg:?}: {}", report.final_accuracy);
        }
    }

    #[test]
    fn too_few_samples_rejected() {
        let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 6, test_samples: 6 }
            .generate(1)
            .expect("generate");
        let err = Framework::hdc_plaintext(small_config(50, 1), &data);
        assert!(matches!(err, Err(FlError::DataError(_))));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = small_data(DatasetKind::Har);
        let run = |seed: u64| {
            let cfg = FlConfig::builder()
                .clients(4)
                .rounds(2)
                .hd_dim(256)
                .seed(seed)
                .build()
                .expect("valid");
            let mut fw = Framework::hdc_plaintext(cfg, &data).expect("build");
            fw.run().expect("run").final_accuracy
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn auto_encoder_picks_rbf_for_mnist() {
        let data = small_data(DatasetKind::Mnist);
        let mut cfg = small_config(3, 1);
        cfg.encoder = EncoderKind::Auto;
        let mut fw = Framework::hdc_plaintext(cfg, &data).expect("build");
        let report = fw.run().expect("run");
        assert!(report.final_accuracy > 0.3);
    }
}
