//! Property-based tests for the communication substrate.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

use rhychee_channel::crc::{crc32, crc32_extend, crc32_update, internet_checksum, Detector};
use rhychee_channel::failure::ChannelModel;
use rhychee_channel::packet::{BitFlipChannel, PacketLink};

/// CRC-32 one bit at a time, no tables: the reference the table-driven
/// kernels must agree with.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut reg = u32::MAX;
    for &b in data {
        reg ^= u32::from(b);
        for _ in 0..8 {
            reg = if reg & 1 == 1 { (reg >> 1) ^ 0xEDB8_8320 } else { reg >> 1 };
        }
    }
    !reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crc_detects_any_single_bit_flip(
        data in prop::collection::vec(any::<u8>(), 1..256),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let tag = crc32(&data);
        let mut corrupted = data.clone();
        let i = byte.index(corrupted.len());
        corrupted[i] ^= 1 << bit;
        prop_assert_ne!(crc32(&corrupted), tag);
    }

    #[test]
    fn crc_chain_agrees_with_bitwise_reference(
        data in prop::collection::vec(any::<u8>(), 0..40_000),
        cut_a in any::<prop::sample::Index>(),
        cut_b in any::<prop::sample::Index>(),
    ) {
        // Three pieces, cut anywhere: across the fold's 64- and 256-byte
        // block seams as often as inside one. The middle piece goes
        // through `crc32_extend` too, which must copy exactly it.
        let (i, j) = (cut_a.index(data.len() + 1), cut_b.index(data.len() + 1));
        let (i, j) = (i.min(j), i.max(j));
        let chained = crc32_update(crc32_update(crc32(&data[..i]), &data[i..j]), &data[j..]);
        let mut copy = data[..i].to_vec();
        let extended = crc32_update(crc32_extend(crc32(&data[..i]), &data[i..j], &mut copy), &data[j..]);
        let want = crc32_bitwise(&data);
        prop_assert_eq!(crc32(&data), want);
        prop_assert_eq!(chained, want);
        prop_assert_eq!(extended, want);
        prop_assert_eq!(&copy[..], &data[..j]);
    }

    #[test]
    fn checksum_detects_single_bit_flips_too(
        data in prop::collection::vec(any::<u8>(), 2..128),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        // Single flips change one ones'-complement term; always caught.
        let tag = internet_checksum(&data);
        let mut corrupted = data.clone();
        let i = byte.index(corrupted.len());
        corrupted[i] ^= 1 << bit;
        prop_assert_ne!(internet_checksum(&corrupted), tag);
    }

    #[test]
    fn detector_verify_accepts_own_tag(data in prop::collection::vec(any::<u8>(), 0..200)) {
        for det in [Detector::Crc32, Detector::Checksum16] {
            prop_assert!(det.verify(&data, det.compute(&data)));
        }
    }

    #[test]
    fn clean_transfer_is_lossless(
        payload in prop::collection::vec(any::<u8>(), 0..2000),
        seed in any::<u64>(),
    ) {
        let link = PacketLink::new(BitFlipChannel::new(0.0), Detector::Crc32, 1400);
        let mut rng = StdRng::seed_from_u64(seed);
        let (out, stats) = link.transfer(&payload, &mut rng);
        prop_assert_eq!(out, payload);
        prop_assert_eq!(stats.retransmissions, 0);
    }

    #[test]
    fn noisy_crc_transfer_delivers_intact(
        payload in prop::collection::vec(any::<u8>(), 1..1000),
        seed in any::<u64>(),
    ) {
        // At BER 1e-4 CRC-protected transfer must deliver the exact
        // payload (undetected-error probability is astronomically small).
        let link = PacketLink::new(BitFlipChannel::new(1e-4), Detector::Crc32, 1400);
        let mut rng = StdRng::seed_from_u64(seed);
        let (out, _) = link.transfer(&payload, &mut rng);
        prop_assert_eq!(out, payload);
    }

    #[test]
    fn failure_model_monotonicity(
        ber_exp in 2.0f64..6.0,
        clients in 1usize..100,
        payload_kbits in 1u64..10_000,
    ) {
        let ber = 10f64.powf(-ber_exp);
        let m = ChannelModel { ber, ..ChannelModel::default() };
        let bits = payload_kbits * 1000;
        // More clients or more payload -> fewer rounds to failure.
        let base = m.expected_rounds_to_failure(clients, bits);
        let more_clients = m.expected_rounds_to_failure(clients + 1, bits);
        let more_payload = m.expected_rounds_to_failure(clients, bits * 2);
        prop_assert!(more_clients < base);
        prop_assert!(more_payload <= base);
        prop_assert!(base.is_finite() && base > 0.0);
    }

    #[test]
    fn packet_latency_positive_and_monotone_in_ber(ber_exp in 2.0f64..8.0) {
        let low = ChannelModel { ber: 10f64.powf(-ber_exp), ..ChannelModel::default() };
        let high = ChannelModel { ber: 10f64.powf(-ber_exp) * 2.0, ..ChannelModel::default() };
        prop_assert!(low.packet_latency() > 0.0);
        prop_assert!(high.packet_latency() >= low.packet_latency());
    }
}
