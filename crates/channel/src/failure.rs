//! Analytical failure and latency models for FHE ciphertext transport
//! (paper §IV-C).
//!
//! Chain of quantities:
//!
//! * `p_pkt` — probability a packet arrives with ≥ 1 bit error
//!   (paper approximation `N·BER`, exact form `1 − (1−BER)^N`);
//! * `P_ue = N·BER·P_re` — probability of an *undetected* error per
//!   transmission;
//! * `E[T] = 1/P_ue` — expected transmissions until the first undetected
//!   error;
//! * `E[R] = E[T] / (2·P·#packets)` — expected aggregation rounds until
//!   failure for `P` clients (two-way traffic);
//! * `L_comm = (L_pkt + L_detect) · N_re` — per-payload latency (Eq. 3).

use crate::crc::Detector;
use crate::phy::PhyConfig;

/// Channel/deployment parameters for the analytical model.
#[derive(Debug, Clone, Copy)]
pub struct ChannelModel {
    /// Bit error rate (paper: 1e-3).
    pub ber: f64,
    /// Packet size in bits (paper: 1400).
    pub packet_bits: usize,
    /// Error-detection code at the receiver.
    pub detector: Detector,
    /// Physical-layer latency parameters.
    pub phy: PhyConfig,
}

impl Default for ChannelModel {
    fn default() -> Self {
        ChannelModel {
            ber: 1e-3,
            packet_bits: 1400,
            detector: Detector::Crc32,
            phy: PhyConfig::default(),
        }
    }
}

impl ChannelModel {
    /// Packet error probability, exact: `1 − (1 − BER)^N`.
    pub fn packet_error_probability(&self) -> f64 {
        1.0 - (1.0 - self.ber).powi(self.packet_bits as i32)
    }

    /// Expected transmissions per packet with detect-and-retransmit:
    /// `1 / (1 − p_pkt)` (`N_re` in Eq. 3).
    pub fn expected_transmissions_per_packet(&self) -> f64 {
        1.0 / (1.0 - self.packet_error_probability())
    }

    /// Expected bit errors per packet, `N·BER` (unclamped; the paper uses
    /// this rate directly even when it exceeds 1).
    pub(crate) fn bit_errors_per_packet(&self) -> f64 {
        self.packet_bits as f64 * self.ber
    }

    /// Rate of undetected errors per transmission:
    /// `P_ue = N·BER·P_re` (paper §IV-C).
    ///
    /// Note this is a Poisson *rate*, not a clamped probability: at
    /// BER = 1e-3 and 1400-bit packets, `N·BER = 1.4`, matching the
    /// paper's `E[T] ≈ 3.04e9` for CRC-32.
    pub fn undetected_error_probability(&self) -> f64 {
        self.bit_errors_per_packet() * self.detector.undetected_probability()
    }

    /// Expected transmissions until the first undetected error:
    /// `E[T] = 1/P_ue`.
    pub fn expected_transmissions_to_failure(&self) -> f64 {
        1.0 / self.undetected_error_probability()
    }

    /// Packets needed for a payload of `payload_bits`.
    pub(crate) fn packets_for_bits(&self, payload_bits: u64) -> u64 {
        payload_bits.div_ceil(self.packet_bits as u64)
    }

    /// Expected aggregation rounds until failure for `clients` clients
    /// exchanging `payload_bits` per direction per round:
    /// `E[R] = E[T] / (2·P·#packets)`.
    pub fn expected_rounds_to_failure(&self, clients: usize, payload_bits: u64) -> f64 {
        let packets = self.packets_for_bits(payload_bits) as f64;
        self.expected_transmissions_to_failure() / (2.0 * clients as f64 * packets)
    }

    /// Latency to deliver one packet including retransmissions (Eq. 3):
    /// `(L_pkt + L_detect) · N_re`.
    pub fn packet_latency(&self) -> f64 {
        let l_pkt = self.phy.packet_airtime(self.packet_bits);
        let l_det = self.phy.detection_latency(self.packet_bits, self.detector);
        (l_pkt + l_det) * self.expected_transmissions_per_packet()
    }

    /// Latency to deliver a payload of `payload_bits` one way, in seconds.
    pub(crate) fn payload_latency(&self, payload_bits: u64) -> f64 {
        self.packets_for_bits(payload_bits) as f64 * self.packet_latency()
    }

    /// Per-round communication latency for `clients` clients: upload of
    /// every local model plus download of the global model (sequential
    /// over the shared server link, as the paper's single-server setting
    /// implies).
    pub fn round_latency(&self, clients: usize, payload_bits: u64) -> f64 {
        2.0 * clients as f64 * self.payload_latency(payload_bits)
    }

    /// Expected time until the first undetected error with a fixed
    /// per-round period (local training + scheduling), in seconds:
    /// `E[R] × period`.
    ///
    /// The paper's Fig. 5c numbers (37 days HDC vs 17 days CNN at 10
    /// clients, CKKS-4) correspond to a ≈75 s round period.
    pub fn expected_time_to_failure_fixed_period(
        &self,
        clients: usize,
        payload_bits: u64,
        round_period_secs: f64,
    ) -> f64 {
        self.expected_rounds_to_failure(clients, payload_bits) * round_period_secs
    }
}

/// Convenience: seconds → days.
pub fn seconds_to_days(s: f64) -> f64 {
    s / 86_400.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model() -> ChannelModel {
        ChannelModel::default()
    }

    #[test]
    fn paper_constants_reproduced() {
        let m = paper_model();
        // P_re = 2^-32 = 2.328e-10 (paper §V-E).
        let p_re = m.detector.undetected_probability();
        assert!((p_re - 2.328e-10).abs() / p_re < 1e-3);
        // P_ue = 1400 · 1e-3 · 2^-32, E[T] = 1/P_ue ≈ 3.07e9 ≈ paper's 3.039e9.
        let et = m.expected_transmissions_to_failure();
        assert!((et - 3.067e9).abs() / et < 0.01, "E[T] = {et:.3e}");
        assert!((et - 3.039e9).abs() / et < 0.02, "within 2% of the paper's figure");
    }

    #[test]
    fn exact_vs_linear_packet_error() {
        let m = paper_model();
        let exact = m.packet_error_probability();
        // At N·BER = 1.4 the linear form saturates; exact is 1−(1−1e-3)^1400 ≈ 0.753.
        assert!((exact - 0.7534).abs() < 1e-3, "exact {exact}");
        // At low BER the exact form meets the paper's linear `N·BER`.
        let low = ChannelModel { ber: 1e-6, ..m };
        assert!((low.packet_error_probability() - low.packet_bits as f64 * low.ber).abs() < 1e-5);
    }

    #[test]
    fn retransmission_factor() {
        let m = paper_model();
        // 1/(1−0.7534) ≈ 4.06 transmissions per packet.
        let n_re = m.expected_transmissions_per_packet();
        assert!((n_re - 4.055).abs() < 0.02, "N_re = {n_re}");
    }

    #[test]
    fn rounds_to_failure_scale_with_model_size() {
        let m = paper_model();
        // Paper Fig. 5b: HDC (5 CKKS-4 cts) vs CNN (11 cts) at 10 clients.
        let hdc_bits = 5 * 2 * 8192 * 61u64;
        let cnn_bits = 11 * 2 * 8192 * 61u64;
        let e_hdc = m.expected_rounds_to_failure(10, hdc_bits);
        let e_cnn = m.expected_rounds_to_failure(10, cnn_bits);
        let ratio = e_hdc / e_cnn;
        assert!((ratio - 2.2).abs() < 0.05, "E[R] ratio {ratio}");
        assert!(e_hdc > 30_000.0 && e_hdc < 60_000.0, "E[R] HDC = {e_hdc}");
    }

    #[test]
    fn time_to_failure_matches_paper_with_fixed_period() {
        // Paper Fig. 5c: ~37 days for HDC vs ~17 for CNN with CKKS-4 at a
        // fixed ≈75 s round period.
        let m = paper_model();
        let hdc_days =
            seconds_to_days(m.expected_time_to_failure_fixed_period(10, 5 * 2 * 8192 * 61, 75.0));
        let cnn_days =
            seconds_to_days(m.expected_time_to_failure_fixed_period(10, 11 * 2 * 8192 * 61, 75.0));
        assert!((hdc_days - 37.0).abs() < 2.0, "HDC {hdc_days} days (paper: 37)");
        assert!((cnn_days - 17.0).abs() < 1.5, "CNN {cnn_days} days (paper: 17)");
        let ratio = hdc_days / cnn_days;
        assert!((ratio - 2.2).abs() < 0.05, "time ratio {ratio}");
    }

    #[test]
    fn latency_scales_linearly_in_payload() {
        let m = paper_model();
        let one = m.payload_latency(1400);
        let ten = m.payload_latency(14_000);
        assert!((ten / one - 10.0).abs() < 1e-9);
    }

    #[test]
    fn checksum_fails_sooner_than_crc() {
        let crc = paper_model();
        let sum = ChannelModel { detector: Detector::Checksum16, ..crc };
        let bits = 5 * 2 * 8192 * 61u64;
        assert!(
            crc.expected_rounds_to_failure(10, bits)
                > 1000.0 * sum.expected_rounds_to_failure(10, bits),
            "CRC-32 should survive ~2^16 times longer"
        );
    }

    #[test]
    fn round_latency_composition() {
        let m = paper_model();
        let bits = 3 * 1400u64;
        let expected = 2.0 * 10.0 * 3.0 * m.packet_latency();
        assert!((m.round_latency(10, bits) - expected).abs() < 1e-12);
    }
}
