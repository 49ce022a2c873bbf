//! Packetized transmission over a noisy binary-symmetric channel with
//! error detection and retransmission.
//!
//! This is the *empirical* counterpart to the analytical model in
//! [`failure`](crate::failure): payload bytes are split into 1400-bit
//! TCP/IP-style packets, each protected by a detector tag and re-sent
//! until it verifies. Undetected errors (corrupted packets whose tag
//! still matches) are delivered — exactly the failure mode the paper's
//! §IV-C analyzes.

use rand::Rng;

use crate::crc::Detector;

/// Default packet size used throughout the paper: 1400 bits = 175 bytes.
pub const PACKET_BITS: usize = 1400;

/// A binary symmetric channel flipping each bit independently.
#[derive(Debug, Clone, Copy)]
pub struct BitFlipChannel {
    /// Bit error rate in `[0, 1]`.
    pub ber: f64,
}

impl BitFlipChannel {
    /// Creates a channel with the given bit error rate.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1]`.
    pub fn new(ber: f64) -> Self {
        assert!((0.0..=1.0).contains(&ber), "BER must be in [0, 1]");
        BitFlipChannel { ber }
    }

    /// Transmits bytes, flipping each bit with probability `ber`.
    /// Returns the (possibly corrupted) bytes and the number of flips.
    pub fn transmit<R: Rng + ?Sized>(&self, data: &[u8], rng: &mut R) -> (Vec<u8>, usize) {
        if self.ber == 0.0 {
            return (data.to_vec(), 0);
        }
        let mut out = data.to_vec();
        let mut flips = 0;
        for byte in out.iter_mut() {
            for bit in 0..8 {
                if rng.gen::<f64>() < self.ber {
                    *byte ^= 1 << bit;
                    flips += 1;
                }
            }
        }
        (out, flips)
    }
}

/// Statistics from one payload transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Packets in the payload.
    pub packets: usize,
    /// Total transmissions including retransmissions.
    pub transmissions: usize,
    /// Retransmissions triggered by detected errors.
    pub retransmissions: usize,
    /// Packets delivered with an undetected error (silent corruption).
    pub undetected_errors: usize,
}

/// A reliable-delivery link: packetization + detector + retransmission
/// over a [`BitFlipChannel`].
#[derive(Debug, Clone, Copy)]
pub struct PacketLink {
    channel: BitFlipChannel,
    detector: Detector,
    packet_bits: usize,
    /// Retransmission cap per packet (guards against pathological BER).
    max_retries: usize,
}

impl PacketLink {
    /// Creates a link with the paper's defaults (1400-bit packets).
    ///
    /// # Panics
    ///
    /// Panics if `packet_bits` is not a positive multiple of 8.
    pub fn new(channel: BitFlipChannel, detector: Detector, packet_bits: usize) -> Self {
        assert!(
            packet_bits > 0 && packet_bits.is_multiple_of(8),
            "packet size must be a multiple of 8 bits"
        );
        PacketLink { channel, detector, packet_bits, max_retries: 100_000 }
    }

    /// The payload bytes carried per packet.
    pub(crate) fn packet_payload_bytes(&self) -> usize {
        self.packet_bits / 8
    }

    /// Transfers a payload: splits into packets, sends each until the
    /// detector accepts it, and reassembles. The returned payload differs
    /// from the input only where an undetected error slipped through.
    pub fn transfer<R: Rng + ?Sized>(
        &self,
        payload: &[u8],
        rng: &mut R,
    ) -> (Vec<u8>, TransferStats) {
        let mut out = Vec::with_capacity(payload.len());
        let mut stats = TransferStats::default();
        for chunk in payload.chunks(self.packet_payload_bytes()) {
            stats.packets += 1;
            let tag = self.detector.compute(chunk);
            let mut delivered: Option<Vec<u8>> = None;
            for _ in 0..self.max_retries {
                stats.transmissions += 1;
                let (received, flips) = self.channel.transmit(chunk, rng);
                // The tag itself travels over the channel too; model a
                // corrupted tag as a detected error (forces retransmit).
                let tag_bytes = tag.to_be_bytes();
                let (received_tag, _) = self.channel.transmit(&tag_bytes, rng);
                let tag_ok = received_tag == tag_bytes;
                if tag_ok && self.detector.verify(&received, tag) {
                    if flips > 0 {
                        stats.undetected_errors += 1;
                    }
                    delivered = Some(received);
                    break;
                }
                stats.retransmissions += 1;
            }
            // Retry budget exhausted: deliver the original (counts as if
            // the link eventually succeeded; unreachable at realistic BER).
            out.extend(delivered.unwrap_or_else(|| chunk.to_vec()));
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn noiseless_channel_is_identity() {
        let link = PacketLink::new(BitFlipChannel::new(0.0), Detector::Crc32, PACKET_BITS);
        let payload: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let (out, stats) = link.transfer(&payload, &mut rng);
        assert_eq!(out, payload);
        assert_eq!(stats.packets, 1000usize.div_ceil(175));
        assert_eq!(stats.transmissions, stats.packets);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.undetected_errors, 0);
    }

    #[test]
    fn flip_count_matches_ber() {
        let ch = BitFlipChannel::new(0.01);
        let data = vec![0u8; 10_000];
        let mut rng = StdRng::seed_from_u64(2);
        let (_, flips) = ch.transmit(&data, &mut rng);
        let expected = 80_000.0 * 0.01;
        assert!((flips as f64 - expected).abs() < expected * 0.2, "flips {flips}");
    }

    #[test]
    fn noisy_channel_retransmits_but_delivers() {
        let link = PacketLink::new(BitFlipChannel::new(1e-3), Detector::Crc32, PACKET_BITS);
        let payload: Vec<u8> = (0..2000).map(|i| (i * 7 % 256) as u8).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let (out, stats) = link.transfer(&payload, &mut rng);
        assert_eq!(out, payload, "CRC-32 should deliver intact at this size");
        assert!(stats.retransmissions > 0, "BER 1e-3 must cause retransmissions");
        // Expected ~4 transmissions per packet at p_err ≈ 0.75.
        let factor = stats.transmissions as f64 / stats.packets as f64;
        assert!((2.0..8.0).contains(&factor), "retransmission factor {factor}");
    }

    #[test]
    fn retransmission_factor_tracks_theory() {
        // E[transmissions] = 1/(1−p), p = 1−(1−BER)^(payload+tag bits).
        let ber = 5e-4;
        let link = PacketLink::new(BitFlipChannel::new(ber), Detector::Crc32, PACKET_BITS);
        let payload = vec![0xA5u8; 175 * 200];
        let mut rng = StdRng::seed_from_u64(4);
        let (_, stats) = link.transfer(&payload, &mut rng);
        let p = 1.0 - (1.0 - ber).powi(1400 + 32);
        let expected = 1.0 / (1.0 - p);
        let measured = stats.transmissions as f64 / stats.packets as f64;
        assert!(
            (measured - expected).abs() / expected < 0.15,
            "measured {measured} vs theory {expected}"
        );
    }

    #[test]
    fn retry_cap_terminates_hostile_channels() {
        // At BER 0.02 a clean 1400-bit transmission has probability
        // ~1e-13: an uncapped link would retransmit forever. The cap
        // bounds work and falls back to delivering the sender's copy.
        let link = PacketLink {
            max_retries: 20,
            ..PacketLink::new(BitFlipChannel::new(0.02), Detector::Crc32, PACKET_BITS)
        };
        let payload = vec![0x5Au8; 175 * 3];
        let mut rng = StdRng::seed_from_u64(5);
        let (out, stats) = link.transfer(&payload, &mut rng);
        assert_eq!(out, payload, "fallback delivers the original payload");
        assert_eq!(stats.transmissions, 3 * 20, "every packet exhausts the cap");
    }

    #[test]
    fn checksum_passes_compensating_corruption_crc_catches_it() {
        // Deterministic detector-strength comparison: swapping two 16-bit
        // words preserves the Internet checksum but not the CRC. A
        // receiver protected only by the checksum accepts the corrupted
        // packet.
        let original = [0x12u8, 0x34, 0x56, 0x78];
        let swapped = [0x56u8, 0x78, 0x12, 0x34];
        let sum_tag = Detector::Checksum16.compute(&original);
        let crc_tag = Detector::Crc32.compute(&original);
        assert!(Detector::Checksum16.verify(&swapped, sum_tag), "checksum misses word swap");
        assert!(!Detector::Crc32.verify(&swapped, crc_tag), "CRC-32 detects word swap");
    }

    #[test]
    fn a_packet_carries_175_payload_bytes() {
        let link = PacketLink::new(BitFlipChannel::new(0.0), Detector::Crc32, PACKET_BITS);
        assert_eq!(link.packet_payload_bytes(), 175);
    }

    #[test]
    #[should_panic(expected = "BER")]
    fn invalid_ber_rejected() {
        let _ = BitFlipChannel::new(1.5);
    }
}
