//! Noisy-communication substrate for Rhychee-FL (paper §IV-C, §V-E).
//!
//! Models the transport of FHE ciphertexts between federated clients and
//! the server over a 5G link, both analytically and empirically:
//!
//! * [`crc`] — CRC-32 and Internet-checksum error detection;
//! * [`packet`] — 1400-bit packetization over a binary symmetric channel
//!   with detect-and-retransmit (the empirical simulator);
//! * [`phy`] — a parametric 5G NR latency model (PRB structure, QAM-16,
//!   MIMO layers, subcarrier spacing);
//! * [`failure`] — the paper's analytical chain: packet error rate →
//!   undetected-error probability → expected transmissions/rounds/time to
//!   first failure (Eq. 3 and §IV-C).
//!
//! # Examples
//!
//! ```
//! use rhychee_channel::failure::ChannelModel;
//!
//! let model = ChannelModel::default(); // BER 1e-3, CRC-32, 1400-bit packets
//! let payload_bits = 5 * 2 * 8192 * 61; // 5 CKKS-4 ciphertexts
//! let rounds = model.expected_rounds_to_failure(10, payload_bits);
//! assert!(rounds > 10_000.0, "the global model converges long before failure");
//! ```

pub mod crc;
pub mod failure;
pub mod packet;
pub mod phy;
