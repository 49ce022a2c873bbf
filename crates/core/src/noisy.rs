//! End-to-end encrypted federated learning over a noisy channel
//! (paper §V-E).
//!
//! Every ciphertext is serialized, packetized, pushed through a
//! bit-flipping channel with detect-and-retransmit, and reassembled at
//! the other side. With CRC-32 the global model converges exactly as on
//! a clean link (undetected errors are ~1-in-3×10⁹ transmissions); with
//! detection disabled, corrupted ciphertexts decrypt to garbage and can
//! stall convergence — the failure mode the paper's analytical model
//! quantifies.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rhychee_telemetry as telemetry;

use rhychee_channel::crc::Detector;
use rhychee_channel::packet::{BitFlipChannel, PacketLink, TransferStats, PACKET_BITS};
use rhychee_data::TrainTest;
use rhychee_fhe::ckks::{CkksCiphertext, CkksContext, CkksPublicKey, CkksSecretKey, CtView};
use rhychee_fhe::params::CkksParams;
use rhychee_hdc::model::{EncodedDataset, HdcModel};

use crate::config::FlConfig;
use crate::error::FlError;
use crate::framework::{RoundReport, RunReport};
use crate::packing;
use crate::round::{self, ClientLocal, ClientUpdate};
use crate::streaming::StreamingAggregator;

/// Salt for the channel's bit-flip stream, kept apart from setup, key
/// and per-client encryption streams so the channel never perturbs
/// what the federation computes — only what arrives.
const CHANNEL_SALT: u64 = 0x2545_F491_4F6C_DD1D;

/// Channel configuration for a noisy federated run.
#[derive(Debug, Clone, Copy)]
pub struct NoisyChannelConfig {
    /// Bit error rate of the link (paper: 1e-3).
    pub ber: f64,
    /// Error-detection code, or `None` to deliver corrupted packets
    /// unchecked (ablation of §V-E).
    pub detector: Option<Detector>,
    /// Packet size in bits.
    pub packet_bits: usize,
}

impl Default for NoisyChannelConfig {
    fn default() -> Self {
        NoisyChannelConfig { ber: 1e-3, detector: Some(Detector::Crc32), packet_bits: PACKET_BITS }
    }
}

/// Aggregate channel statistics for a noisy run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelStats {
    /// Packets sent (first transmissions).
    pub packets: usize,
    /// Total transmissions including retransmissions.
    pub transmissions: usize,
    /// Retransmissions caused by detected errors.
    pub retransmissions: usize,
    /// Packets delivered with undetected corruption.
    pub undetected_errors: usize,
    /// Ciphertexts that failed to deserialize and were dropped
    /// (the sender's copy was reused, modeling an application-layer NACK).
    pub dropped_ciphertexts: usize,
}

impl ChannelStats {
    fn absorb(&mut self, s: TransferStats) {
        self.packets += s.packets;
        self.transmissions += s.transmissions;
        self.retransmissions += s.retransmissions;
        self.undetected_errors += s.undetected_errors;
    }
}

/// Encrypted HDC federated learning where every model transfer crosses a
/// noisy packet link.
///
/// # Examples
///
/// ```no_run
/// use rhychee_core::{FlConfig, NoisyChannelConfig, NoisyFederation};
/// use rhychee_data::{DatasetKind, SyntheticConfig};
/// use rhychee_fhe::params::CkksParams;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = SyntheticConfig::small(DatasetKind::Har).generate(1)?;
/// let config = FlConfig::builder().clients(4).rounds(3).hd_dim(256).build()?;
/// let mut fed = NoisyFederation::new(
///     config,
///     &data,
///     CkksParams::toy(),
///     NoisyChannelConfig::default(),
/// )?;
/// let (report, stats) = fed.run()?;
/// println!("accuracy {:.3}, retransmissions {}", report.final_accuracy, stats.retransmissions);
/// # Ok(())
/// # }
/// ```
pub struct NoisyFederation {
    config: FlConfig,
    channel: NoisyChannelConfig,
    ctx: CkksContext,
    sk: CkksSecretKey,
    pk: CkksPublicKey,
    clients: Vec<ClientLocal>,
    test: EncodedDataset,
    global: Vec<f32>,
    classes: usize,
    channel_rng: StdRng,
    stats: ChannelStats,
    next_round: usize,
}

impl NoisyFederation {
    /// Builds the noisy encrypted federation from the same setup, keys
    /// and per-client streams as [`Framework::hdc_encrypted`], so over
    /// a link that delivers every packet intact (clean, or noisy behind
    /// a detector that misses nothing) both end at the same global
    /// model, bit for bit. Every client participates in every round.
    ///
    /// [`Framework::hdc_encrypted`]: crate::Framework::hdc_encrypted
    ///
    /// # Errors
    ///
    /// Returns [`FlError`] on invalid configuration or parameters.
    pub fn new(
        config: FlConfig,
        data: &TrainTest,
        params: CkksParams,
        channel: NoisyChannelConfig,
    ) -> Result<Self, FlError> {
        let round::FedSetup { shards, test, classes } = round::prepare(&config, data)?;
        let ctx = CkksContext::with_parallelism(params, config.parallelism)?;
        let (sk, pk) = round::derive_ckks_keys(&ctx, config.seed);
        let clients = shards
            .into_iter()
            .enumerate()
            .map(|(id, shard)| ClientLocal::new(id, shard, classes, &config))
            .collect();
        let channel_rng = StdRng::seed_from_u64(config.seed ^ CHANNEL_SALT);
        Ok(NoisyFederation {
            global: vec![0.0f32; classes * config.hd_dim],
            config,
            channel,
            ctx,
            sk,
            pk,
            clients,
            test,
            classes,
            channel_rng,
            stats: ChannelStats::default(),
            next_round: 0,
        })
    }

    /// Accuracy of the current global model.
    pub fn global_accuracy(&self) -> f64 {
        HdcModel::from_flat(&self.global, self.classes, self.config.hd_dim).accuracy(&self.test)
    }

    /// Accumulated channel statistics.
    pub fn channel_stats(&self) -> ChannelStats {
        self.stats
    }

    /// Sends serialized bytes across the noisy link (detect-and-
    /// retransmit when a detector is configured, raw corruption
    /// otherwise).
    fn send(&mut self, bytes: &[u8]) -> Vec<u8> {
        let _span = telemetry::span("channel_tx");
        match self.channel.detector {
            Some(det) => {
                let link = PacketLink::new(
                    BitFlipChannel::new(self.channel.ber),
                    det,
                    self.channel.packet_bits,
                );
                let (out, stats) = link.transfer(bytes, &mut self.channel_rng);
                self.stats.absorb(stats);
                out
            }
            None => {
                let ch = BitFlipChannel::new(self.channel.ber);
                let (out, _) = ch.transmit(bytes, &mut self.channel_rng);
                let n_packets = bytes.len().div_ceil(self.channel.packet_bits / 8);
                self.stats.packets += n_packets;
                self.stats.transmissions += n_packets;
                out
            }
        }
    }

    /// Sends one ciphertext across the link, returning the serialized
    /// bytes the receiver ends up holding.
    ///
    /// Payload corruption propagates into the crypto layer (it decrypts
    /// to garbage). Corruption of the small metadata header (levels /
    /// scale), which a real transport carries in its own checksummed
    /// header, is treated as an application-layer NACK: the transfer is
    /// counted as dropped and the sender's copy is reused.
    fn send_ciphertext(&mut self, ct: &CkksCiphertext) -> Vec<u8> {
        let bytes = self.ctx.serialize(ct);
        let delivered = self.send(&bytes);
        match self.ctx.view_serialized(&delivered) {
            Ok(view)
                if view.levels() == ct.levels()
                    && (view.scale() - ct.scale()).abs() <= ct.scale() * 1e-9 =>
            {
                delivered
            }
            _ => {
                self.stats.dropped_ciphertexts += 1;
                bytes
            }
        }
    }

    /// One aggregation round with every ciphertext crossing the channel.
    ///
    /// # Errors
    ///
    /// Propagates FHE failures.
    pub fn run_round(&mut self) -> Result<RoundReport, FlError> {
        let round = self.next_round;
        self.next_round += 1;
        let round_span = telemetry::span("round");

        let train_span = telemetry::span("local_train");
        let mut updates: Vec<ClientUpdate<Vec<f32>>> = self
            .clients
            .iter_mut()
            .map(|client| {
                let payload = client.train(&self.global, &self.config);
                ClientUpdate { client_id: client.id(), round, steps: client.last_steps(), payload }
            })
            .collect();
        let train_time = train_span.finish();

        // Upload: encrypt, serialize, transmit. Encryption gets its own
        // span per client so its time is separable from the interleaved
        // channel transfers.
        let mut encrypt_time = std::time::Duration::ZERO;
        let mut received: Vec<Vec<Vec<u8>>> = Vec::with_capacity(updates.len());
        for u in &mut updates {
            let span = telemetry::span("encrypt");
            round::prescale_update(self.config.aggregation, u.steps, &mut u.payload);
            let rng = self.clients[u.client_id].rng_mut();
            let cts = packing::encrypt_model(&self.ctx, &self.pk, &u.payload, rng)?;
            encrypt_time += span.finish();
            received.push(cts.iter().map(|ct| self.send_ciphertext(ct)).collect());
        }

        // Homomorphic aggregation on the (possibly corrupted) uploads,
        // folded straight from the delivered bytes.
        let aggregate_span = telemetry::span("aggregate");
        let mut agg = StreamingAggregator::new(round, self.config.aggregation)?;
        for (u, delivered) in updates.iter().zip(&received) {
            let views: Vec<CtView<'_>> =
                delivered.iter().map(|b| self.ctx.view_serialized(b)).collect::<Result<_, _>>()?;
            let update =
                ClientUpdate { client_id: u.client_id, round, steps: u.steps, payload: views };
            if !agg.fold_views(&self.ctx, &update)? {
                return Err(FlError::StreamingAbort(format!(
                    "round {round}: client {}'s delivered upload did not fold",
                    u.client_id
                )));
            }
        }
        let global_cts = agg.finish(&self.ctx)?;
        let aggregate_time = aggregate_span.finish();

        // Download: the encrypted global model crosses the channel once
        // per client; one representative client's copy becomes the new
        // global state (all clients share the key and the same payload).
        let mut downloaded = Vec::with_capacity(global_cts.len());
        for ct in &global_cts {
            let bytes = self.ctx.serialize(ct);
            // Model the per-client downloads for the statistics.
            for _ in 1..self.config.clients {
                let _ = self.send(&bytes);
            }
            let delivered = self.send_ciphertext(ct);
            downloaded.push(self.ctx.deserialize(&delivered)?);
        }
        let decrypt_span = telemetry::span("decrypt");
        self.global = packing::decrypt_model(&self.ctx, &self.sk, &downloaded, self.global.len())?;
        let decrypt_time = decrypt_span.finish();

        let ct_bytes = self.ctx.serialized_len(global_cts[0].levels());
        let payload_bits = (ct_bytes * 8 * global_cts.len()) as u64;
        round_span.finish();
        Ok(RoundReport {
            round,
            participants: self.config.clients,
            accuracy: self.global_accuracy(),
            upload_bits_per_client: payload_bits,
            download_bits_per_client: payload_bits,
            train_time,
            encrypt_time,
            aggregate_time,
            decrypt_time,
        })
    }

    /// Runs all rounds; returns the run report and channel statistics.
    ///
    /// # Errors
    ///
    /// Propagates the first failing round.
    pub fn run(&mut self) -> Result<(RunReport, ChannelStats), FlError> {
        let mut report = RunReport::default();
        for _ in 0..self.config.rounds {
            report.rounds.push(self.run_round()?);
        }
        report.final_accuracy = report.rounds.last().map_or(0.0, |r| r.accuracy);
        Ok((report, self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhychee_data::{DatasetKind, SyntheticConfig};

    fn data() -> TrainTest {
        SyntheticConfig { kind: DatasetKind::Har, train_samples: 240, test_samples: 90 }
            .generate(21)
            .expect("generate")
    }

    fn config(rounds: usize) -> FlConfig {
        FlConfig::builder().clients(3).rounds(rounds).hd_dim(512).seed(4).build().expect("valid")
    }

    #[test]
    fn intact_delivery_matches_framework_bit_for_bit() {
        // Same setup, keys, client streams and aggregation path as the
        // in-process framework: when every packet arrives intact — a
        // clean link, or the paper's BER 1e-3 behind CRC-32 — the
        // channel must be invisible in the final model. FedProx rides
        // along: its proximal pull comes with `ClientLocal::train`.
        let cfg = FlConfig::builder()
            .clients(3)
            .rounds(2)
            .hd_dim(512)
            .seed(4)
            .aggregation(crate::Aggregation::FedProx { mu: 0.1 })
            .build()
            .expect("valid");
        let mut fw =
            crate::Framework::hdc_encrypted(cfg.clone(), &data(), CkksParams::toy()).expect("fw");
        fw.run().expect("run");
        let expected: Vec<u32> = fw.global_model().flatten().iter().map(|v| v.to_bits()).collect();

        for ber in [0.0, 1e-3] {
            let channel = NoisyChannelConfig { ber, ..Default::default() };
            let mut fed = NoisyFederation::new(cfg.clone(), &data(), CkksParams::toy(), channel)
                .expect("build");
            let (_, stats) = fed.run().expect("run");
            assert_eq!(stats.undetected_errors, 0, "BER {ber}: CRC-32 caught every corruption");
            assert_eq!(stats.dropped_ciphertexts, 0, "BER {ber}");
            assert_eq!(stats.retransmissions > 0, ber > 0.0, "BER {ber}");
            let got: Vec<u32> = fed.global.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expected, "BER {ber}: global model diverged from Framework");
        }
    }

    #[test]
    fn converges_over_noisy_channel_with_crc() {
        let mut fed = NoisyFederation::new(
            config(3),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 1e-4, ..Default::default() },
        )
        .expect("build");
        let (report, stats) = fed.run().expect("run");
        assert!(report.final_accuracy > 0.7, "accuracy {}", report.final_accuracy);
        assert!(stats.retransmissions > 0, "noise must trigger retransmissions");
        assert_eq!(stats.undetected_errors, 0, "CRC-32 should catch everything at this scale");
    }

    #[test]
    fn clean_channel_needs_no_retransmissions() {
        let mut fed = NoisyFederation::new(
            config(2),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 0.0, ..Default::default() },
        )
        .expect("build");
        let (report, stats) = fed.run().expect("run");
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.undetected_errors, 0);
        assert!(report.final_accuracy > 0.7);
    }

    #[test]
    fn unprotected_channel_corrupts_the_model() {
        // Without error detection at a harsh BER, ciphertext corruption
        // reaches the aggregate and destroys accuracy (paper §IV-C:
        // "a single bit error can disrupt model convergence").
        let mut clean = NoisyFederation::new(
            config(2),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 0.0, detector: None, ..Default::default() },
        )
        .expect("build");
        let (clean_report, _) = clean.run().expect("run");

        let mut dirty = NoisyFederation::new(
            config(2),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 1e-4, detector: None, ..Default::default() },
        )
        .expect("build");
        let (dirty_report, _) = dirty.run().expect("run");
        assert!(
            dirty_report.final_accuracy < clean_report.final_accuracy - 0.15,
            "unprotected noise should hurt: clean {} vs dirty {}",
            clean_report.final_accuracy,
            dirty_report.final_accuracy
        );
    }

    #[test]
    fn transmissions_track_two_way_traffic() {
        let mut fed = NoisyFederation::new(
            config(1),
            &data(),
            CkksParams::toy(),
            NoisyChannelConfig { ber: 0.0, ..Default::default() },
        )
        .expect("build");
        let (_, stats) = fed.run().expect("run");
        // Uploads: 3 clients × k ciphertexts; downloads: 3 clients × k.
        // Packets per ciphertext: ceil(bytes / 175).
        assert!(stats.packets > 0);
        assert_eq!(stats.transmissions, stats.packets, "no noise → one transmission each");
    }
}
