//! Golden frame bytes: one `Update` frame carrying a canonical CKKS
//! payload, plain (version 1) and traced (version 2), pinned by length,
//! CRC-32 of the whole frame and its first and last 16 bytes.
//!
//! The constants were generated at the parent commit of PR 15
//! (`b3a586e`: bit-at-a-time packer, bytewise frame CRC, twice-copied
//! body) by running this file there with the assertions turned into
//! prints. The frame's own trailer sits in
//! the pinned tail, so the slice-by-8 CRC is checked against the
//! bytewise one's output; the fingerprint CRC is a local bitwise
//! implementation so neither kernel vouches for itself.
//!
//! Re-pinned once, by PR 23: the canonical payload now carries the
//! evaluation-domain rows a ciphertext holds (tag 4; the coefficient-
//! domain tag 1 is retired), so the pinned tails — payload end plus
//! frame trailer — moved; lengths, heads and the whole-frame CRCs (a
//! frame ends in the CRC of everything after its magic, so the CRC of
//! the whole depends on the magic and the length only) did not. The new
//! constants were generated at that PR's parent (`a7a33cb`) with only
//! `TAG_CKKS` and `serialize_into`'s inverse transform changed — that
//! commit's packer and that commit's frame CRC.
//!
//! The two tails moved once more in PR 24, which changed no wire or
//! frame format: the Box–Muller noise sampler became the table-driven
//! `sampling::GaussianSampler`, so the same seed encrypts with different
//! noise and the payload's last bytes and the frame trailer (a CRC over
//! that payload) differ. `len`, the whole-frame `crc32` and `head` — the
//! magic, version, tag, round, length and client id the noise cannot
//! reach — are the PR 23 literals, untouched. That PR's first commit
//! (the division-free signed reduce alone) passed the PR 23 tails; the
//! new ones were printed by this file at the commit that added the
//! sampler's reference tests in `rhychee-fhe` (`sampling::tests`), which
//! vouch for the new stream so these bytes do not have to.

use rand::{rngs::StdRng, SeedableRng};

use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::params::CkksParams;
use rhychee_net::codec;
use rhychee_net::wire::{
    decode_frame_ctx, encode_frame, encode_frame_ctx, read_message_ctx, Message, TraceContext,
    DEFAULT_MAX_PAYLOAD,
};

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
        head: bytes[..16].try_into().expect("frame of at least 16 bytes"),
        tail: bytes[bytes.len() - 16..].try_into().expect("frame of at least 16 bytes"),
    }
}

#[test]
fn update_frame_bytes_are_pinned() {
    let ctx = CkksContext::new(CkksParams::toy()).expect("params");
    let mut rng = StdRng::seed_from_u64(0x15_4e);
    let (_, pk) = ctx.generate_keys(&mut rng);
    let cts: Vec<_> = (0..2)
        .map(|k| {
            let values: Vec<f64> = (0..200).map(|i| ((i + 7 * k) as f64 * 0.11).cos()).collect();
            ctx.encrypt(&pk, &values, &mut rng).expect("encrypt")
        })
        .collect();
    let msg = Message::Update {
        round: 3,
        client_id: 7,
        steps: 11,
        model: codec::encode_ckks(&ctx, &cts),
    };
    let trace = TraceContext {
        trace_id: 0x0123_4567_89ab_cdef_1021_3243_5465_7687,
        parent_span: 0x0bad_cafe,
        round: 3,
    };

    let plain = encode_frame(&msg);
    let traced = encode_frame_ctx(&msg, Some(&trace));
    assert_eq!(fingerprint(&plain), UPDATE_FRAME);
    assert_eq!(fingerprint(&traced), UPDATE_FRAME_TRACED);

    // Both decoders accept the pinned bytes and return what was framed.
    for (frame, want_ctx) in [(&plain, None), (&traced, Some(trace))] {
        let (back, ctx_back) = decode_frame_ctx(frame, DEFAULT_MAX_PAYLOAD).expect("decode");
        assert_eq!((&back, ctx_back), (&msg, want_ctx));
        let (back, ctx_back, n) =
            read_message_ctx(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD).expect("read");
        assert_eq!((&back, ctx_back, n), (&msg, want_ctx, frame.len()));
    }
}

const UPDATE_FRAME: Fingerprint = Fingerprint {
    len: 23097,
    crc32: 0x5a54c094,
    head: [
        0x52, 0x59, 0x46, 0x4c, 0x01, 0x04, 0x03, 0x00, 0x00, 0x00, 0x27, 0x5a, 0x00, 0x00, 0x07,
        0x00,
    ],
    tail: [
        0x44, 0x0a, 0x22, 0x4c, 0x8c, 0x52, 0xa7, 0x2e, 0xbd, 0xf9, 0xd7, 0x3b, 0x79, 0xb1, 0x18,
        0x8d,
    ],
};
const UPDATE_FRAME_TRACED: Fingerprint = Fingerprint {
    len: 23121,
    crc32: 0x1654f01d,
    head: [
        0x52, 0x59, 0x46, 0x4c, 0x02, 0x04, 0x03, 0x00, 0x00, 0x00, 0x27, 0x5a, 0x00, 0x00, 0x87,
        0x76,
    ],
    tail: [
        0x44, 0x0a, 0x22, 0x4c, 0x8c, 0x52, 0xa7, 0x2e, 0xbd, 0xf9, 0xd7, 0x3b, 0xe3, 0x6f, 0xe0,
        0x3e,
    ],
};
