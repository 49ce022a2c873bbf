//! End-to-end encrypted federated learning over a noisy channel
//! (paper §V-E).
//!
//! Every model payload (each upload, each copy of the broadcast) is
//! packetized, pushed through a bit-flipping channel with
//! detect-and-retransmit, and reassembled at the other side. With CRC-32
//! the global model converges exactly as on a clean link (undetected
//! errors are ~1-in-3×10⁹ transmissions); with detection disabled,
//! corrupted ciphertexts decrypt to garbage and can stall convergence —
//! the failure mode the paper's analytical model quantifies.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rhychee_telemetry as telemetry;

use rhychee_channel::crc::Detector;
use rhychee_channel::packet::{BitFlipChannel, PacketLink, PACKET_BITS};
use rhychee_data::TrainTest;
use rhychee_fhe::ckks::{CkksContext, CtView};
use rhychee_fhe::params::CkksParams;

use crate::codec;
use crate::config::FlConfig;
use crate::error::FlError;
use crate::framework::{Framework, RoundHooks, RoundReport, RunReport};

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
    /// Payloads whose headers arrived corrupted and were dropped (the
    /// sender's copy was reused, modeling an application-layer NACK).
    pub dropped_payloads: usize,
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
    framework: Framework,
    stats: Rc<RefCell<ChannelStats>>,
}

/// Sends one model payload across the noisy link (detect-and-retransmit
/// when a detector is configured, raw corruption otherwise), returning
/// the bytes the receiver ends up holding.
///
/// Corrupted ciphertext rows propagate into the crypto layer (they
/// decrypt to garbage). Corrupted framing or ciphertext headers (levels,
/// scale), which a real transport carries in its own checksummed
/// header, are an application-layer NACK: the transfer counts as
/// dropped and the sender's copy is reused.
fn send_payload(
    channel: &NoisyChannelConfig,
    ctx: &CkksContext,
    rng: &mut StdRng,
    stats: &mut ChannelStats,
    sent: &[u8],
) -> Vec<u8> {
    let delivered = {
        let _span = telemetry::span("channel_tx");
        let flips = BitFlipChannel::new(channel.ber);
        match channel.detector {
            Some(det) => {
                let link = PacketLink::new(flips, det, channel.packet_bits);
                let (out, transfer) = link.transfer(sent, rng);
                stats.packets += transfer.packets;
                stats.transmissions += transfer.transmissions;
                stats.retransmissions += transfer.retransmissions;
                stats.undetected_errors += transfer.undetected_errors;
                out
            }
            None => {
                let n_packets = sent.len().div_ceil(channel.packet_bits / 8);
                stats.packets += n_packets;
                stats.transmissions += n_packets;
                flips.transmit(sent, rng).0
            }
        }
    };
    let header = |view: &CtView<'_>| (view.levels(), view.scale().to_bits());
    let headers = |bytes, cap| {
        codec::parse_ckks_views(ctx, bytes, cap).map(|v| v.views().iter().map(header).collect())
    };
    let want: Result<Vec<_>, _> = headers(sent, sent.len());
    if want.is_ok_and(|want| headers(&delivered, want.len()).is_ok_and(|got| got == want)) {
        delivered
    } else {
        stats.dropped_payloads += 1;
        sent.to_vec()
    }
}

impl NoisyFederation {
    /// Builds [`Framework::hdc_encrypted`] with a noisy link
    /// ([`RoundHooks::link`]) between clients and server: same setup,
    /// keys, per-client streams, participation sampling and round loop,
    /// so over a link that delivers every packet intact (clean, or
    /// noisy behind a detector that misses nothing) both end at the
    /// same global model, bit for bit. The bit flips draw from their
    /// own `seed ^ CHANNEL_SALT` stream.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for a bit error rate outside
    /// `[0, 1]` or a packet size that is not a positive multiple of 8
    /// bits, and [`FlError`] on invalid configuration or parameters.
    pub fn new(
        config: FlConfig,
        data: &TrainTest,
        params: CkksParams,
        channel: NoisyChannelConfig,
    ) -> Result<Self, FlError> {
        let NoisyChannelConfig { ber, packet_bits: bits, .. } = channel;
        if !(0.0..=1.0).contains(&ber) || bits == 0 || !bits.is_multiple_of(8) {
            return Err(FlError::InvalidConfig(format!(
                "a link needs a BER in [0, 1] and whole bytes per packet, not {ber} and {bits} bits"
            )));
        }
        // Parses delivered payloads the way the server half does.
        let ctx = CkksContext::new(params.clone())?;
        let stats = Rc::new(RefCell::new(ChannelStats::default()));
        let shared = Rc::clone(&stats);
        let mut rng = StdRng::seed_from_u64(config.seed ^ CHANNEL_SALT);
        let mut framework = Framework::hdc_encrypted(config, data, params)?;
        framework.set_hooks(RoundHooks {
            link: Some(Box::new(move |payload| {
                send_payload(&channel, &ctx, &mut rng, &mut shared.borrow_mut(), payload)
            })),
            ..RoundHooks::default()
        });
        Ok(NoisyFederation { framework, stats })
    }

    /// Accuracy of the current global model.
    pub fn global_accuracy(&self) -> f64 {
        self.framework.global_accuracy()
    }

    /// Accumulated channel statistics.
    pub(crate) fn channel_stats(&self) -> ChannelStats {
        *self.stats.borrow()
    }

    /// One aggregation round with every payload crossing the channel.
    ///
    /// # Errors
    ///
    /// Propagates FHE failures.
    pub fn run_round(&mut self) -> Result<RoundReport, FlError> {
        self.framework.run_round()
    }

    /// Runs all rounds; returns the run report and channel statistics.
    ///
    /// # Errors
    ///
    /// Propagates the first failing round.
    pub fn run(&mut self) -> Result<(RunReport, ChannelStats), FlError> {
        Ok((self.framework.run()?, self.channel_stats()))
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
        let bits = |fw: &Framework| -> Vec<u32> {
            fw.global_model().flatten().iter().map(|v| v.to_bits()).collect()
        };
        let mut fw = Framework::hdc_encrypted(cfg.clone(), &data(), CkksParams::toy()).expect("fw");
        fw.run().expect("run");
        let expected = bits(&fw);

        for ber in [0.0, 1e-3] {
            let channel = NoisyChannelConfig { ber, ..Default::default() };
            let mut fed = NoisyFederation::new(cfg.clone(), &data(), CkksParams::toy(), channel)
                .expect("build");
            let (_, stats) = fed.run().expect("run");
            assert_eq!(stats.undetected_errors, 0, "BER {ber}: CRC-32 caught every corruption");
            assert_eq!(stats.dropped_payloads, 0, "BER {ber}");
            assert_eq!(stats.retransmissions > 0, ber > 0.0, "BER {ber}");
            assert_eq!(
                bits(&fed.framework),
                expected,
                "BER {ber}: global model diverged from Framework"
            );
        }

        // Participation sampling comes with the shared round loop: half
        // of 4 clients train, upload and download each round.
        let half = FlConfig::builder()
            .clients(4)
            .rounds(2)
            .hd_dim(512)
            .seed(4)
            .participation(0.5)
            .build()
            .expect("valid");
        let mut fw =
            Framework::hdc_encrypted(half.clone(), &data(), CkksParams::toy()).expect("fw");
        fw.run().expect("run");
        let clean = NoisyChannelConfig { ber: 0.0, ..Default::default() };
        let mut fed = NoisyFederation::new(half, &data(), CkksParams::toy(), clean).expect("build");
        let (report, _) = fed.run().expect("run");
        assert!(report.rounds.iter().all(|r| r.participants == 2), "⌈0.5·4⌉ = 2 per round");
        assert_eq!(bits(&fed.framework), bits(&fw), "sampled run diverged from Framework");
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
    fn new_refuses_channels_the_link_cannot_run() {
        // Each of these would otherwise panic in the first transfer.
        let crc = Some(Detector::Crc32);
        for (ber, detector, packet_bits, what) in [
            (-0.1, crc, PACKET_BITS, "negative BER"),
            (1.5, crc, PACKET_BITS, "BER above 1"),
            (f64::NAN, crc, PACKET_BITS, "NaN BER"),
            (1e-3, crc, 0, "zero-bit packets"),
            (1e-3, crc, 12, "packets of a byte and a half"),
            (1e-3, None, 4, "sub-byte packets without a detector"),
            (1e-3, None, 0, "zero-bit packets without a detector"),
        ] {
            let channel = NoisyChannelConfig { ber, detector, packet_bits };
            let built = NoisyFederation::new(config(1), &data(), CkksParams::toy(), channel);
            let err = built.map(drop).expect_err(what);
            assert!(matches!(err, FlError::InvalidConfig(_)), "{what}: {err}");
        }
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
        // Uploads: one payload per client; downloads: one per client.
        // Packets per payload: ceil(bytes / 175).
        assert!(stats.packets > 0);
        assert_eq!(stats.transmissions, stats.packets, "no noise → one transmission each");
    }
}
