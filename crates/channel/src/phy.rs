//! 5G NR physical-layer latency model.
//!
//! Parametric model of the link described in the paper's §IV-C: a 3GPP
//! urban-microcell (UMi) downlink/uplink with 14 OFDM symbols × 12
//! subcarriers per physical resource block (PRB), QAM-16 (4 bits/symbol),
//! a 4-layer MIMO configuration (4 TX / 16 RX antennas) and an SNR of
//! 12 dB. Packets are scheduled on whole slots, so per-packet latency is
//! the number of slots a packet occupies times the slot duration, plus
//! the error-detection processing time.

use crate::crc::Detector;

/// 5G NR link configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyConfig {
    /// Subcarrier spacing in kHz (numerology: 15 → μ0, 30 → μ1, 60 → μ2).
    pub subcarrier_spacing_khz: u32,
    /// OFDM symbols per slot (14 for normal cyclic prefix).
    pub symbols_per_slot: u32,
    /// Subcarriers per PRB (12 in NR).
    pub subcarriers_per_prb: u32,
    /// Modulation order in bits per symbol (4 for QAM-16).
    pub bits_per_symbol: u32,
    /// Spatial multiplexing layers (min(TX antennas, rank)).
    pub mimo_layers: u32,
    /// PRBs allocated to this transmission per slot.
    pub prbs: u32,
    /// Effective code rate of the channel code.
    pub code_rate: f64,
    /// Error-detection processing throughput in bits per second.
    pub detector_throughput_bps: f64,
}

impl Default for PhyConfig {
    /// The paper's UMi setup: QAM-16, 14×12 PRB structure, 4 layers,
    /// 60 kHz SCS, single-PRB allocation.
    fn default() -> Self {
        PhyConfig {
            subcarrier_spacing_khz: 60,
            symbols_per_slot: 14,
            subcarriers_per_prb: 12,
            bits_per_symbol: 4,
            mimo_layers: 4,
            prbs: 1,
            code_rate: 0.75,
            detector_throughput_bps: 1e9,
        }
    }
}

impl PhyConfig {
    /// Slot duration in seconds (`1 ms / 2^μ` with μ from the SCS).
    pub(crate) fn slot_duration(&self) -> f64 {
        1e-3 * 15.0 / f64::from(self.subcarrier_spacing_khz)
    }

    /// Information bits carried per slot across the allocated PRBs.
    pub(crate) fn bits_per_slot(&self) -> f64 {
        f64::from(
            self.symbols_per_slot
                * self.subcarriers_per_prb
                * self.bits_per_symbol
                * self.mimo_layers
                * self.prbs,
        ) * self.code_rate
    }

    /// Airtime for one packet of `packet_bits` bits (whole slots).
    pub(crate) fn packet_airtime(&self, packet_bits: usize) -> f64 {
        let slots = (packet_bits as f64 / self.bits_per_slot()).ceil();
        slots * self.slot_duration()
    }

    /// Error-detection processing latency for one packet
    /// (`L_CRC/Checksum` in Eq. 3).
    pub(crate) fn detection_latency(&self, packet_bits: usize, detector: Detector) -> f64 {
        // Tag computation streams over the packet; the checksum's smaller
        // state makes it 4x faster at equal clock (Maxino & Koopman).
        let speedup = match detector {
            Detector::Crc32 => 1.0,
            Detector::Checksum16 => 4.0,
        };
        packet_bits as f64 / (self.detector_throughput_bps * speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_durations_follow_numerology() {
        let mut cfg = PhyConfig { subcarrier_spacing_khz: 15, ..PhyConfig::default() };
        assert!((cfg.slot_duration() - 1e-3).abs() < 1e-12);
        cfg.subcarrier_spacing_khz = 30;
        assert!((cfg.slot_duration() - 0.5e-3).abs() < 1e-12);
        cfg.subcarrier_spacing_khz = 60;
        assert!((cfg.slot_duration() - 0.25e-3).abs() < 1e-12);
    }

    #[test]
    fn default_fits_packet_in_one_slot() {
        let cfg = PhyConfig::default();
        // 14 × 12 × 4 × 4 × 0.75 = 2016 bits per slot > 1400.
        assert!(cfg.bits_per_slot() >= 1400.0);
        assert!((cfg.packet_airtime(1400) - cfg.slot_duration()).abs() < 1e-12);
        // Two-slot packet.
        assert!((cfg.packet_airtime(3000) - 2.0 * cfg.slot_duration()).abs() < 1e-12);
    }

    #[test]
    fn detection_latency_is_small_and_ordered() {
        let cfg = PhyConfig::default();
        let crc = cfg.detection_latency(1400, Detector::Crc32);
        let sum = cfg.detection_latency(1400, Detector::Checksum16);
        assert!(crc < cfg.slot_duration() / 10.0, "detection must not dominate airtime");
        assert!(sum < crc, "checksum is cheaper than CRC");
    }
}
