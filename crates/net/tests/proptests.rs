//! Property-based tests for the wire protocol: every message type
//! round-trips through a frame, and corruption, truncation, and hostile
//! length fields are always rejected. Behind the frame CRC, a mutated
//! upload payload (CKKS or LWE) is refused or folds into a well-formed
//! aggregate, and a mutated bit-interleaved broadcast is refused or
//! decodes, never a panic.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

use rhychee_core::packing::{self, PackingConfig};
use rhychee_core::round::{self, ClientHalf, ClientUpdate, ServerHalf};
use rhychee_core::{Aggregation, FlError, StreamingAggregator};
use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::lwe::{LweCiphertext, LweContext};
use rhychee_fhe::params::{CkksParams, LweParams};
use rhychee_net::codec::{self, CanonicalCodec, SeededCodec, WireCodec};
use rhychee_net::wire::{
    decode_frame, decode_frame_ctx, encode_frame, encode_frame_ctx, read_message, read_message_ctx,
    write_message, Message, TraceContext, DEFAULT_MAX_PAYLOAD, HEADER_LEN, TRAILER_LEN,
};
use rhychee_net::NetError;

/// Builds one of the six message types from drawn primitives; `kind`
/// selects the variant so the property covers the whole protocol. Ids,
/// counts, and rounds use the full `u32` wire width.
fn build_message(kind: u8, a: u32, b: u32, c: u32, flag: bool, body: Vec<u8>) -> Message {
    let (a, b, c) = (a as usize, b as usize, c as usize);
    match kind {
        0 => Message::Hello { client_id: a },
        1 => Message::Welcome { client_id: a, clients: b, rounds: c },
        2 => Message::Global { round: a, last: flag, model: body },
        3 => Message::Update { round: a, client_id: b, steps: c, model: body },
        4 => Message::UpdateAck { round: a, accepted: flag },
        _ => Message::Finished { round: a },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_message_round_trips(
        kind in 0u8..6,
        a in any::<u32>(),
        b in any::<u32>(),
        c in any::<u32>(),
        flag in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let msg = build_message(kind, a, b, c, flag, body);
        let frame = encode_frame(&msg);
        prop_assert!(frame.len() >= HEADER_LEN + TRAILER_LEN);
        let back = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("decode");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn streamed_messages_round_trip_in_order(
        kinds in prop::collection::vec(0u8..6, 1..8),
        a in any::<u32>(),
        flag in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let msgs: Vec<Message> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| build_message(k, a.wrapping_add(i as u32), i as u32, 3, flag, body.clone()))
            .collect();
        let mut buf = Vec::new();
        let mut total = 0;
        for msg in &msgs {
            total += write_message(&mut buf, msg).expect("write");
        }
        prop_assert_eq!(total, buf.len());
        let mut cursor = std::io::Cursor::new(buf);
        for msg in &msgs {
            let (back, _) = read_message(&mut cursor, DEFAULT_MAX_PAYLOAD).expect("read");
            prop_assert_eq!(&back, msg);
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        kind in 0u8..6,
        a in any::<u32>(),
        b in any::<u32>(),
        c in any::<u32>(),
        flag in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        // Flip one bit anywhere in the frame: the CRC (or an earlier
        // structural check — magic, version, length) must refuse it.
        let msg = build_message(kind, a, b, c, flag, body);
        let mut frame = encode_frame(&msg);
        let i = byte.index(frame.len());
        frame[i] ^= 1 << bit;
        prop_assert!(decode_frame(&frame, DEFAULT_MAX_PAYLOAD).is_err());
    }

    #[test]
    fn truncation_is_rejected(
        kind in 0u8..6,
        a in any::<u32>(),
        flag in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
        cut in any::<prop::sample::Index>(),
    ) {
        let msg = build_message(kind, a, 1, 2, flag, body);
        let frame = encode_frame(&msg);
        let cut = cut.index(frame.len()); // strictly shorter than the frame
        prop_assert!(decode_frame(&frame[..cut], DEFAULT_MAX_PAYLOAD).is_err());
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        prop_assert!(read_message(&mut cursor, DEFAULT_MAX_PAYLOAD).is_err());
    }

    #[test]
    fn declared_length_above_cap_is_rejected_before_allocation(
        kind in 0u8..6,
        a in any::<u32>(),
        flag in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..128),
        cap in 0u32..64,
        excess in 1u32..1_000_000,
    ) {
        // Shrink the cap below the declared length: the decoder must
        // refuse with PayloadTooLarge without reading the payload.
        let msg = build_message(kind, a, 1, 2, flag, body);
        let mut frame = encode_frame(&msg);
        let declared = cap + excess;
        frame[10..14].copy_from_slice(&declared.to_le_bytes());
        let err = decode_frame(&frame, cap).expect_err("must reject");
        prop_assert!(
            matches!(err, NetError::PayloadTooLarge { len, cap: c } if len == declared && c == cap)
        );
        let mut cursor = std::io::Cursor::new(frame);
        let err = read_message(&mut cursor, cap).expect_err("must reject");
        prop_assert!(matches!(err, NetError::PayloadTooLarge { .. }));
    }

    #[test]
    fn mutated_valid_frames_are_refused_with_a_frame_error_never_a_panic(
        kind in 0u8..6,
        a in any::<u32>(),
        flag in any::<bool>(),
        traced in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..300),
        edits in prop::collection::vec(any::<u32>(), 1..6),
        resize in 0u8..4,
    ) {
        // Start from a valid frame of either version, then overwrite a
        // few bytes anywhere (magic, version, type, length field, trace
        // context, payload, trailer) and sometimes cut or pad it. Both
        // decoders must answer with a frame-layer error — or accept, when
        // the edits happened to be no-ops — and must agree on which,
        // except where the stream reader runs out of bytes first.
        let msg = build_message(kind, a, 1, 2, flag, body);
        let ctx = TraceContext { trace_id: u128::from(a) << 17 | 1, parent_span: 9, round: 0 };
        let clean = encode_frame_ctx(&msg, traced.then_some(&ctx));
        let mut frame = clean.clone();
        for e in &edits {
            let at = (e >> 8) as usize % frame.len();
            frame[at] = *e as u8;
        }
        match resize {
            0 => frame.truncate(edits[0] as usize % (frame.len() + 1)),
            1 => frame.extend_from_slice(&edits[0].to_le_bytes()),
            _ => {}
        }
        let cap = 4096;
        let frame_error = |e: &NetError| matches!(
            e,
            NetError::Crc { .. } | NetError::Protocol(_) | NetError::PayloadTooLarge { .. }
        );

        let decoded = decode_frame_ctx(&frame, cap);
        match &decoded {
            Ok(_) => prop_assert!(frame == clean, "a changed frame decoded"),
            Err(e) => prop_assert!(frame_error(e), "decode_frame_ctx: {e}"),
        }
        match read_message_ctx(&mut frame.as_slice(), cap) {
            // The stream reader takes the declared length on trust (up
            // to the cap), so trailing bytes are the next frame's problem.
            Ok((back, _, n)) => prop_assert!(frame[..n] == clean[..] && back == msg),
            Err(NetError::Io(e)) => {
                prop_assert!(e.kind() == std::io::ErrorKind::UnexpectedEof, "{e}");
                prop_assert!(decoded.is_err(), "short stream but the slice decoded");
            }
            Err(e) => prop_assert!(frame_error(&e), "read_message_ctx: {e}"),
        }
    }
}

/// A toy-parameter context and valid uploads of one to three
/// ciphertexts under each codec, built once for every case.
struct Uploads {
    ctx: CkksContext,
    payloads: Vec<(&'static dyn WireCodec, Vec<u8>)>,
}

fn uploads() -> &'static Uploads {
    static UPLOADS: OnceLock<Uploads> = OnceLock::new();
    UPLOADS.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::toy()).expect("toy params");
        let mut rng = StdRng::seed_from_u64(29);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let values: Vec<f64> = (0..64).map(|i| f64::from(i) / 64.0 - 0.5).collect();
        let mut payloads = Vec::new();
        for codec in [&CanonicalCodec as &'static dyn WireCodec, &SeededCodec] {
            for count in 1..=3 {
                let cts: Vec<_> = (0..count)
                    .map(|_| {
                        if codec.symmetric() {
                            ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt")
                        } else {
                            ctx.encrypt(&pk, &values, &mut rng).expect("encrypt")
                        }
                    })
                    .collect();
                payloads.push((codec, codec.encode_upload(&ctx, &cts).expect("encode")));
            }
        }
        Uploads { ctx, payloads }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_uploads_are_refused_or_fold_into_a_well_formed_aggregate(
        which in 0usize..6,
        edits in prop::collection::vec(any::<u64>(), 1..7),
        saturate in any::<bool>(),
        resize in 0u8..4,
        cut in any::<u32>(),
    ) {
        // A payload whose frame CRC passed can still be hostile: 1–6
        // bytes overwritten, in the first 48 (tag, count, lengths,
        // ciphertext header, seed) or anywhere, sometimes a 16-byte run
        // of 0xFF, and sometimes cut short or extended. Parse, then fold what parses; nothing may panic,
        // and a fold must close into ciphertexts that survive serialize
        // → deserialize → serialize byte for byte (a residue ≥ q would
        // not).
        let Uploads { ctx, payloads } = uploads();
        let (codec, clean) = &payloads[which];
        let mut bytes = clean.clone();
        for &e in &edits {
            // Bit 63 picks the head, bits 8.. the offset, bits 0..8 the byte.
            let span = if e >> 63 == 1 { bytes.len().min(48) } else { bytes.len() };
            bytes[(e >> 8) as usize % span] = e as u8;
        }
        if saturate {
            // Sixteen bytes of 0xFF hold at least one whole all-ones
            // residue (toy fields are at most 50 bits wide): a value
            // ≥ q that only the fold's `reduce_once` brings into [0, q).
            let at = (edits[0] >> 8) as usize % (bytes.len() - 16);
            bytes[at..at + 16].fill(0xFF);
        }
        match resize {
            0 => bytes.truncate(cut as usize % (bytes.len() + 1)),
            1 => bytes.extend_from_slice(&cut.to_le_bytes()[..1 + cut as usize % 4]),
            _ => {}
        }
        let parsed = match codec.parse_upload(ctx, &bytes, 3) {
            Ok(parsed) => parsed,
            Err(e) => {
                prop_assert!(matches!(e, FlError::Payload(_) | FlError::Fhe(_)), "{e}");
                return Ok(());
            }
        };
        // Two fresh aggregators take the same views: one closes with the
        // weighted `finish`, the other returns the raw sum, whose
        // residues are the fold's own output.
        let mut closed = Vec::new();
        for weighted in [true, false] {
            let mut agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("aggregator");
            if !agg.fold_upload(ctx, 1, 0, parsed.views()).expect("fold_upload never errors") {
                prop_assert!(parsed.is_empty(), "a fresh aggregator refused {} views", parsed.len());
                return Ok(());
            }
            closed.extend(if weighted { agg.finish(ctx) } else { agg.finish_sum() }.expect("closes"));
        }
        for ct in &closed {
            let wire = ctx.serialize(ct);
            let back = ctx.deserialize(&wire).expect("an aggregate deserializes");
            prop_assert!(ctx.serialize(&back) == wire, "{} aggregate changed", codec.name());
        }
    }
}

/// Coordinates of the LWE model the mutated uploads carry.
const LWE_PARAMS: usize = 16;

/// The parameters of a 4-client, 6-bit LWE federation and one client's
/// valid upload under them, built once for every case.
fn lwe_upload() -> &'static (LweParams, Vec<u8>) {
    static UPLOAD: OnceLock<(LweParams, Vec<u8>)> = OnceLock::new();
    UPLOAD.get_or_init(|| {
        let params = round::lwe_fl_params(4, 6);
        let ctx = LweContext::new(params).expect("params");
        let mut rng = StdRng::seed_from_u64(31);
        let sk = ctx.generate_key(&mut rng);
        let cts: Vec<LweCiphertext> = (0..LWE_PARAMS as u64)
            .map(|m| ctx.encrypt(&sk, m + 1, &mut rng).expect("encrypt"))
            .collect();
        (params, codec::encode_lwe(&ctx, 1, &cts))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_lwe_uploads_are_refused_or_folded_never_a_panic(
        edits in prop::collection::vec(any::<u64>(), 1..7),
        resize in 0u8..4,
        cut in any::<u32>(),
    ) {
        // 1–6 bytes overwritten, in the first 48 (tag, contributors,
        // count, the first ciphertext's mask) or anywhere, and sometimes
        // cut short or extended. The server half folds it beside a clean
        // upload: it is refused (a NACK) exactly when its own decode
        // fails, and the round still closes into a well-formed broadcast
        // counting what was folded.
        let (params, clean) = lwe_upload();
        let mut bytes = clean.clone();
        for &e in &edits {
            let span = if e >> 63 == 1 { bytes.len().min(48) } else { bytes.len() };
            bytes[(e >> 8) as usize % span] = e as u8;
        }
        match resize {
            0 => bytes.truncate(cut as usize % (bytes.len() + 1)),
            1 => bytes.extend_from_slice(&cut.to_le_bytes()[..1 + cut as usize % 4]),
            _ => {}
        }
        let ctx = LweContext::new(*params).expect("params");
        let parses = match codec::decode_lwe(&ctx, &bytes, LWE_PARAMS, 1) {
            Ok(_) => true,
            Err(e) => {
                prop_assert!(matches!(e, FlError::Payload(_) | FlError::Fhe(_)), "{e}");
                false
            }
        };
        let mut server = ServerHalf::lwe(Aggregation::FedAvg, LWE_PARAMS, *params, 4)
            .expect("server half");
        let update = |client_id, payload| ClientUpdate { client_id, round: 0, steps: 1, payload };
        prop_assert!(server.fold(&update(0, clean.clone()), |fold| fold()).expect("clean"));
        let folded = server
            .fold(&update(1, bytes), |fold| fold())
            .expect("a bad upload is a NACK, never an abort");
        prop_assert_eq!(folded, parses);
        let (broadcast, plain) = server.close(None, |close| close()).expect("closes");
        prop_assert!(plain.is_none());
        let (k, cts) = codec::decode_lwe(&ctx, &broadcast, LWE_PARAMS, 4).expect("broadcast");
        prop_assert_eq!((k, cts.len()), (1 + usize::from(folded), LWE_PARAMS));
    }
}

/// Coordinates of the bit-interleaved model the broadcasts carry: two
/// toy ciphertexts at two 12-bit lanes per slot.
const INTERLEAVED_PARAMS: usize = 600;

/// Summands the interleaved lanes are sized for. Lanes for 3 and for 4
/// are both 10 + 2 bits wide, so a 4-upload sum carries no lane: only
/// its counter is out of range.
const INTERLEAVED_CLIENTS: usize = 3;

/// A client half under the interleaved layout, the models of four
/// clients, and `broadcasts[k - 1]`, the server's close over the first
/// `k` of their uploads, built once for every case.
struct Interleaved {
    client: ClientHalf,
    models: Vec<Vec<f32>>,
    broadcasts: Vec<Vec<u8>>,
}

fn interleaved() -> &'static Interleaved {
    static INTERLEAVED: OnceLock<Interleaved> = OnceLock::new();
    INTERLEAVED.get_or_init(|| {
        let layout = PackingConfig::interleaved(10, 1.0, INTERLEAVED_CLIENTS).expect("layout");
        let ctx = Arc::new(CkksContext::new(CkksParams::toy()).expect("toy params"));
        let codec: Arc<dyn WireCodec> = Arc::new(CanonicalCodec);
        let (seed, n) = (37, INTERLEAVED_PARAMS);
        let (_, pk) = round::derive_ckks_keys(&ctx, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let models: Vec<Vec<f32>> = (0..=INTERLEAVED_CLIENTS)
            .map(|c| (0..n).map(|i| ((c * n + i) as f32 * 0.01).sin()).collect())
            .collect();
        let uploads: Vec<Vec<u8>> = models
            .iter()
            .map(|m| {
                let cts = packing::encrypt_model_with(&ctx, &pk, m, &layout, &mut rng).expect("ct");
                codec.encode_upload(&ctx, &cts).expect("encode")
            })
            .collect();
        let broadcasts = (1..=uploads.len())
            .map(|k| {
                let (aggregation, codec) = (Aggregation::FedAvg, Arc::clone(&codec));
                let mut server = ServerHalf::ckks(aggregation, n, Arc::clone(&ctx), codec, layout);
                for (client_id, payload) in uploads[..k].iter().enumerate() {
                    let update = ClientUpdate { client_id, round: 0, steps: 1, payload };
                    assert!(server.fold(&update, |fold| fold()).expect("fold"), "upload {k}");
                }
                server.close(None, |close| close()).expect("close").0
            })
            .collect();
        let client = ClientHalf::ckks(Aggregation::FedAvg, n, ctx, seed, codec, layout);
        Interleaved { client, models, broadcasts }
    })
}

#[test]
fn an_interleaved_broadcast_decodes_up_to_max_clients_and_no_further() {
    // Exactly `max_clients` uploads put the counter at its bound: the
    // mean comes back within one quantisation step. One more is refused
    // by the counter check, not misread as a mean.
    let Interleaved { client, models, broadcasts } = interleaved();
    let k = INTERLEAVED_CLIENTS;
    let mean = client.decode(&broadcasts[k - 1]).expect("a sum of max_clients decodes");
    for (i, &got) in mean.iter().enumerate() {
        let want = models[..k].iter().map(|m| m[i]).sum::<f32>() / k as f32;
        assert!((got - want).abs() <= 1.0 / 511.0, "coordinate {i}: {got} vs {want}");
    }
    let over = client.decode(&broadcasts[k]);
    assert!(matches!(over, Err(FlError::Fhe(_))), "a counter of max_clients + 1: {over:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_interleaved_broadcasts_are_refused_or_decode_never_a_panic(
        k in 1..=INTERLEAVED_CLIENTS,
        edits in prop::collection::vec(any::<u64>(), 1..7),
        saturate in any::<bool>(),
        resize in 0u8..4,
        cut in any::<u32>(),
    ) {
        // A broadcast of the sum of `k` uploads whose frame CRC passed
        // can still be hostile: 1–6 bytes overwritten, in the first 48
        // (tag, count, lengths, ciphertext header) or anywhere, sometimes
        // a 16-byte run of 0xFF, and sometimes cut short or extended.
        // The client half decodes it into a model of the federation's
        // size or refuses it.
        let Interleaved { client, broadcasts, .. } = interleaved();
        let mut bytes = broadcasts[k - 1].clone();
        for &e in &edits {
            let span = if e >> 63 == 1 { bytes.len().min(48) } else { bytes.len() };
            bytes[(e >> 8) as usize % span] = e as u8;
        }
        if saturate {
            let at = (edits[0] >> 8) as usize % (bytes.len() - 16);
            bytes[at..at + 16].fill(0xFF);
        }
        match resize {
            0 => bytes.truncate(cut as usize % (bytes.len() + 1)),
            1 => bytes.extend_from_slice(&cut.to_le_bytes()[..1 + cut as usize % 4]),
            _ => {}
        }
        match client.decode(&bytes) {
            Ok(model) => prop_assert_eq!(model.len(), INTERLEAVED_PARAMS),
            Err(e) => prop_assert!(matches!(e, FlError::Payload(_) | FlError::Fhe(_)), "{e}"),
        }
    }
}
