//! Golden wire bytes: the serialized form of fixed-seed ciphertexts,
//! pinned by length, CRC-32 and the first and last 16 bytes.
//!
//! The seeded and LWE constants were generated at the parent commit of
//! PR 15 (`b3a586e`, the bit-at-a-time packer), by running this file
//! there with the assertions turned into prints. The word-at-a-time
//! packer must reproduce them byte for byte: a change to any constant is
//! a wire-format break, not a refactor.
//!
//! The four canonical constants were re-pinned once, by PR 23 — the
//! wire-format break that made canonical bytes carry the evaluation-
//! domain rows a ciphertext holds instead of their inverse NTT (header,
//! packing and lengths unchanged). They were generated at that PR's
//! parent (`a7a33cb`) by running this file there with `serialize_into`'s
//! inverse transform removed and nothing else touched — that commit's
//! encrypt, that commit's packer — so the code that now ships does not
//! vouch for itself. The seeded and LWE pins did not move, and the
//! canonical form of a seeded ciphertext must carry the very `c0` bytes
//! its seeded form does (`ckks_blobs` checks it).
//!
//! The CRC here is a local bitwise implementation on purpose — the
//! frame CRC kernel changes in the same PR and must not vouch for
//! itself.

use rand::{rngs::StdRng, SeedableRng};

use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::lwe::LweContext;
use rhychee_fhe::params::{CkksParams, LweParams};

/// What a blob is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    len: usize,
    crc32: u32,
    head: [u8; 16],
    tail: [u8; 16],
}

/// Bitwise CRC-32 (IEEE 802.3, reflected).
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

fn fingerprint(bytes: &[u8]) -> Fingerprint {
    Fingerprint {
        len: bytes.len(),
        crc32: crc32_bitwise(bytes),
        head: bytes[..16].try_into().expect("blob of at least 16 bytes"),
        tail: bytes[bytes.len() - 16..].try_into().expect("blob of at least 16 bytes"),
    }
}

/// The three serializations of one parameter set under a fixed seed:
/// a public-key ciphertext in the canonical format, and a symmetric
/// (seeded) ciphertext in the seeded format and in the canonical one.
fn ckks_blobs(params: CkksParams, seed: u64) -> [Vec<u8>; 3] {
    let ctx = CkksContext::new(params).expect("params");
    let mut rng = StdRng::seed_from_u64(seed);
    let (sk, pk) = ctx.generate_keys(&mut rng);
    let values: Vec<f64> = (0..ctx.slot_count()).map(|i| (i as f64 * 0.37).sin()).collect();
    let public = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
    let symmetric = ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt_symmetric");
    let blobs = [
        ctx.serialize(&public),
        ctx.serialize_seeded(&symmetric).expect("fresh symmetric ciphertext"),
        ctx.serialize(&symmetric),
    ];
    assert_eq!(blobs[0].len(), ctx.serialized_len(public.levels()));
    assert_eq!(blobs[1].len(), ctx.serialized_len_seeded(symmetric.levels()));
    // The owning decoders accept exactly these bytes and re-emit them.
    assert_eq!(ctx.serialize(&ctx.deserialize(&blobs[0]).expect("deserialize")), blobs[0]);
    let reseeded = ctx.deserialize_seeded(&blobs[1]).expect("deserialize_seeded");
    assert_eq!(ctx.serialize_seeded(&reseeded).expect("still seeded"), blobs[1]);
    // Both formats carry `c0` as the same packed rows, and both headers
    // end on a byte boundary (9 and 45 bytes): up to the last whole byte
    // of the seeded blob, the `c0` bytes are the same bytes.
    let c0_whole_bytes = blobs[1].len() - 45 - 1;
    assert_eq!(blobs[2][9..9 + c0_whole_bytes], blobs[1][45..45 + c0_whole_bytes]);
    blobs
}

#[test]
fn toy_ciphertext_bytes_are_pinned() {
    let [canonical, seeded, canonical_of_eval] = ckks_blobs(CkksParams::toy(), 0x15);
    assert_eq!(fingerprint(&canonical), TOY_CANONICAL);
    assert_eq!(fingerprint(&seeded), TOY_SEEDED);
    assert_eq!(fingerprint(&canonical_of_eval), TOY_CANONICAL_OF_EVAL);
}

#[test]
fn ckks3_ciphertext_bytes_are_pinned() {
    let [canonical, seeded, canonical_of_eval] = ckks_blobs(CkksParams::ckks3(), 0x15_03);
    assert_eq!(fingerprint(&canonical), CKKS3_CANONICAL);
    assert_eq!(fingerprint(&seeded), CKKS3_SEEDED);
    assert_eq!(fingerprint(&canonical_of_eval), CKKS3_CANONICAL_OF_EVAL);
}

#[test]
fn lwe_ciphertext_bytes_are_pinned() {
    let ctx = LweContext::new(LweParams::tfhe1()).expect("params");
    let mut rng = StdRng::seed_from_u64(0x15_11);
    let sk = ctx.generate_key(&mut rng);
    let ct = ctx.encrypt(&sk, 5, &mut rng).expect("encrypt");
    let bytes = ctx.serialize(&ct);
    assert_eq!(bytes.len(), ctx.serialized_len());
    assert_eq!(ctx.deserialize(&bytes).expect("deserialize"), ct);
    assert_eq!(fingerprint(&bytes), LWE_TFHE1);
}

const TOY_CANONICAL: Fingerprint = Fingerprint {
    len: 11529,
    crc32: 0xb4ceefca,
    head: [
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0xc8, 0x4b, 0xcd, 0xa3, 0xd7, 0x36,
        0x51,
    ],
    tail: [
        0x7e, 0x5e, 0xd2, 0x43, 0x33, 0xe9, 0xa4, 0x51, 0x61, 0xc4, 0xbf, 0x58, 0x5d, 0x11, 0x08,
        0xeb,
    ],
};
const TOY_SEEDED: Fingerprint = Fingerprint {
    len: 5805,
    crc32: 0x79583dae,
    head: [
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0xad, 0x12, 0xb1, 0x11, 0xcc, 0x72,
        0xa3,
    ],
    tail: [
        0xaf, 0x10, 0x98, 0x2f, 0xcf, 0xa4, 0x63, 0xb5, 0x9b, 0x71, 0x8e, 0x0d, 0xeb, 0xd2, 0x6d,
        0x65,
    ],
};
const TOY_CANONICAL_OF_EVAL: Fingerprint = Fingerprint {
    len: 11529,
    crc32: 0x9e5a3ee3,
    head: [
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0xdc, 0x8d, 0xf0, 0x36, 0x34, 0x4c,
        0x57,
    ],
    tail: [
        0xae, 0x22, 0xa7, 0x7d, 0x0d, 0x6e, 0xdd, 0x3a, 0x14, 0x32, 0xe4, 0x19, 0x36, 0xd1, 0xeb,
        0xdb,
    ],
};
const CKKS3_CANONICAL: Fingerprint = Fingerprint {
    len: 204809,
    crc32: 0xfbc65368,
    head: [
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0xd6, 0x8c, 0xba, 0x31, 0xc4, 0xac,
        0xf9,
    ],
    tail: [
        0x59, 0x74, 0x95, 0x30, 0x21, 0xb7, 0x56, 0x6f, 0xd7, 0x84, 0x9d, 0xa1, 0xc1, 0x9e, 0xd1,
        0xf1,
    ],
};
const CKKS3_SEEDED: Fingerprint = Fingerprint {
    len: 102445,
    crc32: 0x397c1e81,
    head: [
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0x29, 0xa4, 0x1f, 0xa8, 0x14, 0x67,
        0x1d,
    ],
    tail: [
        0x0b, 0x5c, 0x18, 0x04, 0x08, 0x57, 0xee, 0x2b, 0xc7, 0x48, 0xe1, 0xa3, 0x76, 0xb4, 0x2d,
        0xf6,
    ],
};
const CKKS3_CANONICAL_OF_EVAL: Fingerprint = Fingerprint {
    len: 204809,
    crc32: 0xad63f30e,
    head: [
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0x31, 0x8c, 0xe9, 0x7f, 0x79, 0xa9,
        0xa8,
    ],
    tail: [
        0x0b, 0xa7, 0x50, 0x3c, 0x89, 0x6e, 0xb6, 0xdb, 0xc4, 0x97, 0x67, 0x62, 0x91, 0x39, 0x59,
        0x04,
    ],
};
const LWE_TFHE1: Fingerprint = Fingerprint {
    len: 669,
    crc32: 0x7e034653,
    head: [
        0x01, 0x7d, 0x2a, 0x9e, 0x94, 0xad, 0x43, 0x59, 0x5b, 0x85, 0x01, 0x28, 0xd8, 0x81, 0x4c,
        0x0c,
    ],
    tail: [
        0x00, 0xe3, 0xa9, 0xaf, 0x52, 0x30, 0xe1, 0x25, 0x3c, 0xef, 0xfc, 0x1e, 0x99, 0x92, 0x43,
        0x3d,
    ],
};
