//! Golden wire bytes: the serialized form of fixed-seed ciphertexts,
//! pinned by length, CRC-32 and the first and last 16 bytes.
//!
//! Every constant below was generated at the parent commit of PR 15
//! (`b3a586e`, the bit-at-a-time packer), by running this file there
//! with the assertions turned into prints. The word-at-a-time packer
//! must reproduce them byte for byte: a change to any constant is a
//! wire-format break, not a refactor.
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
/// (evaluation-resident, seeded) ciphertext in the seeded format and in
/// the canonical one — the latter crosses `serialize`'s inverse-NTT
/// scratch path.
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
    crc32: 0x944a42eb,
    head: [
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0x12, 0xa0, 0x77, 0xe5, 0xf0, 0x9c,
        0x96,
    ],
    tail: [
        0x1c, 0xba, 0x83, 0xd1, 0x64, 0xdc, 0x4e, 0x6a, 0xbe, 0x7b, 0x6e, 0x70, 0x4d, 0x7b, 0xa1,
        0x2a,
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
    crc32: 0x1f965926,
    head: [
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0x3e, 0x28, 0xe6, 0xfc, 0x4c, 0xb5,
        0x73,
    ],
    tail: [
        0x32, 0x85, 0x34, 0x01, 0x8e, 0x7b, 0x5b, 0xe7, 0x7d, 0xcb, 0x73, 0xb4, 0x0d, 0x33, 0x5a,
        0x60,
    ],
};
const CKKS3_CANONICAL: Fingerprint = Fingerprint {
    len: 204809,
    crc32: 0x843123b9,
    head: [
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0x75, 0x83, 0x1d, 0x08, 0x19, 0x92,
        0x85,
    ],
    tail: [
        0x96, 0x26, 0x32, 0xf9, 0x6b, 0x33, 0xf6, 0x03, 0x48, 0x83, 0x6d, 0x08, 0xa1, 0x3a, 0x2e,
        0x6f,
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
    crc32: 0x6d60d9a2,
    head: [
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x41, 0xe1, 0x1c, 0xd9, 0xda, 0x8b, 0x05,
        0x5a,
    ],
    tail: [
        0x41, 0x36, 0xd2, 0x29, 0x66, 0x1d, 0xd1, 0x9d, 0x40, 0x18, 0xcc, 0x05, 0x04, 0xd5, 0xc4,
        0x27,
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
