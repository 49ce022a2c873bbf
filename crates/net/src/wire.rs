//! The Rhychee-FL wire protocol: length-prefixed, versioned, CRC-guarded
//! binary frames over a byte stream.
//!
//! Frame layout (all integers little-endian):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"RYFL"` |
//! | 4      | 1    | protocol version (1 = plain, 2 = traced) |
//! | 5      | 1    | message type |
//! | 6      | 4    | round id |
//! | 10     | 4    | payload length `len` |
//! | 14     | 24   | trace context (version 2 only: 16-byte trace id + 8-byte parent span id) |
//! | 14[+24]| len  | payload |
//! | …+len  | 4    | CRC-32 (IEEE 802.3, from [`rhychee_channel::crc`]) over bytes `[4, …+len)` |
//!
//! Version 1 frames carry no trace context and stay byte-identical to
//! the original protocol; version 2 inserts a fixed 24-byte
//! [`TraceContext`] between header and payload so spans on the receiving
//! side can parent under the sender's span. Senders emit version 2 only
//! when they have a context to propagate (telemetry enabled), so a
//! telemetry-off federation is wire-identical to version 1; decoders
//! accept both versions.
//!
//! The declared payload length is validated against the receiver's cap
//! *before* any allocation, so a malicious or corrupted length field
//! cannot drive unbounded memory use. The CRC covers everything after
//! the magic — version, type, round, length, trace context, and payload
//! — so a flipped bit anywhere in the frame body is detected at the
//! frame layer before the ciphertext codecs ever see the bytes. CRC
//! mismatches count into `net.frame.crc_fail`.

use std::io::{Read, Write};
use std::time::Duration;

use rhychee_channel::crc::crc32;
use rhychee_telemetry as telemetry;
pub use rhychee_telemetry::TraceContext;

use crate::error::NetError;

/// Frame magic: the first four bytes of every Rhychee-FL frame.
pub const MAGIC: [u8; 4] = *b"RYFL";

/// Baseline protocol version: no trace context.
pub(crate) const VERSION: u8 = 1;

/// Traced protocol version: a [`TraceContext`] sits between the header
/// and the payload.
pub(crate) const VERSION_TRACED: u8 = 2;

/// Fixed bytes before the payload: magic + version + type + round + len.
pub const HEADER_LEN: usize = 14;

/// Extra bytes a version-2 frame carries between header and payload.
pub(crate) const CTX_LEN: usize = TraceContext::WIRE_LEN;

/// Fixed bytes after the payload: the CRC-32 trailer.
pub const TRAILER_LEN: usize = 4;

/// Default payload cap: 64 MiB, far above any packed model this repo
/// produces yet small enough to bound a hostile allocation.
pub const DEFAULT_MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Socket write and handshake-read timeout on both ends of a connection.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A protocol message between one client and the server.
///
/// Model payloads travel as opaque bytes at this layer; the
/// [`codec`](crate::codec) module defines their interior encoding
/// (plaintext parameters or serialized ciphertexts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client → server: first message on a fresh connection.
    Hello {
        /// The connecting client's id.
        client_id: usize,
    },
    /// Server → client: session parameters, closing the handshake.
    Welcome {
        /// Echo of the client id the server registered.
        client_id: usize,
        /// Total clients in the federation.
        clients: usize,
        /// Aggregation rounds the server will run.
        rounds: usize,
    },
    /// Server → client: the global model opening a round (or, with
    /// `last` set, the final model closing the session).
    Global {
        /// Round this model opens (== total rounds when `last`).
        round: usize,
        /// True on the final distribution; the client should not train.
        last: bool,
        /// Codec-encoded model payload.
        model: Vec<u8>,
    },
    /// Client → server: the trained local model for a round.
    Update {
        /// Round this update was trained for.
        round: usize,
        /// The reporting client.
        client_id: usize,
        /// Local update steps τ (FedNova weighting).
        steps: usize,
        /// Codec-encoded model payload.
        model: Vec<u8>,
    },
    /// Server → client: receipt for an upload. `accepted == false`
    /// means the update was rejected (late round or duplicate).
    UpdateAck {
        /// The round the upload targeted.
        round: usize,
        /// Whether the server folded the update into the aggregate.
        accepted: bool,
    },
    /// Server → client: the session is over (sent after the final
    /// [`Message::Global`]).
    Finished {
        /// The last completed round.
        round: usize,
    },
}

impl Message {
    /// The message-type byte stored in the frame header.
    pub(crate) fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::Welcome { .. } => 2,
            Message::Global { .. } => 3,
            Message::Update { .. } => 4,
            Message::UpdateAck { .. } => 5,
            Message::Finished { .. } => 6,
        }
    }

    /// Human-readable message name (error reporting).
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::Welcome { .. } => "Welcome",
            Message::Global { .. } => "Global",
            Message::Update { .. } => "Update",
            Message::UpdateAck { .. } => "UpdateAck",
            Message::Finished { .. } => "Finished",
        }
    }

    /// The round id stored in the frame header.
    fn round_field(&self) -> u32 {
        match self {
            Message::Hello { .. } => 0,
            Message::Welcome { .. } => 0,
            Message::Global { round, .. }
            | Message::Update { round, .. }
            | Message::UpdateAck { round, .. }
            | Message::Finished { round } => *round as u32,
        }
    }

    /// Length in bytes of the body [`Message::encode_body_into`] writes.
    fn body_len(&self) -> usize {
        match self {
            Message::Hello { .. } => 4,
            Message::Welcome { .. } => 12,
            Message::Global { model, .. } => 1 + model.len(),
            Message::Update { model, .. } => 8 + model.len(),
            Message::UpdateAck { .. } => 1,
            Message::Finished { .. } => 0,
        }
    }

    /// Appends the message body (frame payload, excluding headers) to
    /// `out`.
    fn encode_body_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { client_id } => {
                out.extend_from_slice(&(*client_id as u32).to_le_bytes());
            }
            Message::Welcome { client_id, clients, rounds } => {
                out.extend_from_slice(&(*client_id as u32).to_le_bytes());
                out.extend_from_slice(&(*clients as u32).to_le_bytes());
                out.extend_from_slice(&(*rounds as u32).to_le_bytes());
            }
            Message::Global { last, model, .. } => {
                out.push(u8::from(*last));
                out.extend_from_slice(model);
            }
            Message::Update { client_id, steps, model, .. } => {
                out.extend_from_slice(&(*client_id as u32).to_le_bytes());
                out.extend_from_slice(&(*steps as u32).to_le_bytes());
                out.extend_from_slice(model);
            }
            Message::UpdateAck { accepted, .. } => {
                out.push(u8::from(*accepted));
            }
            Message::Finished { .. } => {}
        }
    }

    /// Parses a message body for the given header type/round.
    fn decode_body(msg_type: u8, round: u32, body: &[u8]) -> Result<Message, NetError> {
        let round = round as usize;
        let le_u32 = |b: &[u8], at: usize| -> Result<usize, NetError> {
            let chunk: [u8; 4] = b
                .get(at..at + 4)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| NetError::Protocol(format!("message body truncated at {at}")))?;
            Ok(u32::from_le_bytes(chunk) as usize)
        };
        match msg_type {
            1 => {
                if body.len() != 4 {
                    return Err(NetError::Protocol(format!("Hello body of {} bytes", body.len())));
                }
                Ok(Message::Hello { client_id: le_u32(body, 0)? })
            }
            2 => {
                if body.len() != 12 {
                    return Err(NetError::Protocol(format!(
                        "Welcome body of {} bytes",
                        body.len()
                    )));
                }
                Ok(Message::Welcome {
                    client_id: le_u32(body, 0)?,
                    clients: le_u32(body, 4)?,
                    rounds: le_u32(body, 8)?,
                })
            }
            3 => {
                let (&last, model) = body
                    .split_first()
                    .ok_or_else(|| NetError::Protocol("empty Global body".into()))?;
                if last > 1 {
                    return Err(NetError::Protocol(format!("Global.last byte {last}")));
                }
                Ok(Message::Global { round, last: last == 1, model: model.to_vec() })
            }
            4 => {
                if body.len() < 8 {
                    return Err(NetError::Protocol(format!("Update body of {} bytes", body.len())));
                }
                Ok(Message::Update {
                    round,
                    client_id: le_u32(body, 0)?,
                    steps: le_u32(body, 4)?,
                    model: body[8..].to_vec(),
                })
            }
            5 => {
                if body.len() != 1 || body[0] > 1 {
                    return Err(NetError::Protocol("malformed UpdateAck body".into()));
                }
                Ok(Message::UpdateAck { round, accepted: body[0] == 1 })
            }
            6 => {
                if !body.is_empty() {
                    return Err(NetError::Protocol(format!(
                        "Finished body of {} bytes",
                        body.len()
                    )));
                }
                Ok(Message::Finished { round })
            }
            t => Err(NetError::Protocol(format!("unknown message type {t}"))),
        }
    }
}

/// Bytes of trace context implied by a frame's version byte.
fn ctx_len_for(version: u8) -> Result<usize, NetError> {
    match version {
        VERSION => Ok(0),
        VERSION_TRACED => Ok(CTX_LEN),
        v => Err(NetError::Protocol(format!("unsupported protocol version {v}"))),
    }
}

/// Counts the mismatch and builds the CRC error (`net.frame.crc_fail`).
fn crc_mismatch(expected: u32, actual: u32) -> NetError {
    telemetry::count("net.frame.crc_fail", 1);
    NetError::Crc { expected, actual }
}

/// Encodes a message into one complete frame (version 1, no trace
/// context) — byte-identical to the original protocol.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    encode_frame_ctx(msg, None)
}

/// Encodes a message into one complete frame, attaching a trace context
/// (version 2) when one is given; without a context the frame is plain
/// version 1.
pub fn encode_frame_ctx(msg: &Message, ctx: Option<&TraceContext>) -> Vec<u8> {
    let ctx_len = if ctx.is_some() { CTX_LEN } else { 0 };
    // Sized for the whole frame so the body is written once, in place.
    let mut frame = Vec::with_capacity(HEADER_LEN + ctx_len + msg.body_len() + TRAILER_LEN);
    frame.extend_from_slice(&MAGIC);
    frame.push(if ctx.is_some() { VERSION_TRACED } else { VERSION });
    frame.push(msg.type_byte());
    frame.extend_from_slice(&msg.round_field().to_le_bytes());
    frame.extend_from_slice(&[0; 4]);
    if let Some(ctx) = ctx {
        frame.extend_from_slice(&ctx.to_wire());
    }
    let body_at = frame.len();
    msg.encode_body_into(&mut frame);
    // The length field is patched from the bytes actually written, so
    // `body_len` is only ever a capacity hint.
    let len = (frame.len() - body_at) as u32;
    debug_assert_eq!(len as usize, msg.body_len(), "capacity hint out of step with the body");
    frame[10..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&frame[4..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Decodes one complete frame (exact length required), discarding any
/// trace context. See [`decode_frame_ctx`].
///
/// # Errors
///
/// Returns [`NetError::Protocol`] on bad magic/version/length,
/// [`NetError::PayloadTooLarge`] when the declared length exceeds
/// `max_payload`, and [`NetError::Crc`] when the trailer does not match
/// the frame contents.
pub fn decode_frame(bytes: &[u8], max_payload: u32) -> Result<Message, NetError> {
    decode_frame_ctx(bytes, max_payload).map(|(msg, _)| msg)
}

/// Decodes one complete frame of either version (exact length
/// required), returning the message and, for version-2 frames, the
/// trace context it carried.
///
/// # Errors
///
/// As [`decode_frame`].
pub fn decode_frame_ctx(
    bytes: &[u8],
    max_payload: u32,
) -> Result<(Message, Option<TraceContext>), NetError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(NetError::Protocol(format!("frame of {} bytes is too short", bytes.len())));
    }
    if bytes[..4] != MAGIC {
        return Err(NetError::Protocol("bad frame magic".into()));
    }
    let ctx_len = ctx_len_for(bytes[4])?;
    let len = u32::from_le_bytes(bytes[10..14].try_into().expect("4 bytes"));
    if len > max_payload {
        return Err(NetError::PayloadTooLarge { len, cap: max_payload });
    }
    let total = HEADER_LEN + ctx_len + len as usize + TRAILER_LEN;
    if bytes.len() != total {
        return Err(NetError::Protocol(format!(
            "frame of {} bytes, header declares {total}",
            bytes.len()
        )));
    }
    let crc_at = HEADER_LEN + ctx_len + len as usize;
    let expected = u32::from_le_bytes(bytes[crc_at..crc_at + 4].try_into().expect("4 bytes"));
    let actual = crc32(&bytes[4..crc_at]);
    if expected != actual {
        return Err(crc_mismatch(expected, actual));
    }
    let round = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes"));
    let ctx = (ctx_len > 0)
        .then(|| {
            let raw: &[u8; CTX_LEN] =
                bytes[HEADER_LEN..HEADER_LEN + CTX_LEN].try_into().expect("ctx bytes");
            TraceContext::from_wire(raw, round)
        })
        .filter(|c| c.trace_id != 0 || c.parent_span != 0);
    let msg = Message::decode_body(bytes[5], round, &bytes[HEADER_LEN + ctx_len..crc_at])?;
    Ok((msg, ctx))
}

/// Writes one frame to the stream; returns the bytes put on the wire.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<usize, NetError> {
    write_message_ctx(w, msg, None)
}

/// Writes one frame with an optional trace context; returns the bytes
/// put on the wire. Without a context this emits a plain version-1
/// frame ([`write_message`]).
///
/// # Errors
///
/// Propagates socket errors.
pub(crate) fn write_message_ctx<W: Write>(
    w: &mut W,
    msg: &Message,
    ctx: Option<&TraceContext>,
) -> Result<usize, NetError> {
    let frame = encode_frame_ctx(msg, ctx);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Reads one frame from the stream, discarding any trace context. See
/// [`read_message_ctx`].
///
/// # Errors
///
/// Propagates socket errors (including read timeouts) and all
/// [`decode_frame`] validation errors.
pub fn read_message<R: Read>(r: &mut R, max_payload: u32) -> Result<(Message, usize), NetError> {
    read_message_ctx(r, max_payload).map(|(msg, _, n)| (msg, n))
}

/// Reads one frame of either version from the stream; returns the
/// message, the trace context it carried (version 2 only), and the
/// bytes taken off the wire.
///
/// The header is read and validated (magic, version, payload cap)
/// before the payload is allocated, so a hostile length field is
/// rejected with [`NetError::PayloadTooLarge`] without reserving
/// memory for it.
///
/// # Errors
///
/// Propagates socket errors (including read timeouts) and all
/// [`decode_frame`] validation errors.
pub fn read_message_ctx<R: Read>(
    r: &mut R,
    max_payload: u32,
) -> Result<(Message, Option<TraceContext>, usize), NetError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[..4] != MAGIC {
        return Err(NetError::Protocol("bad frame magic".into()));
    }
    let ctx_len = ctx_len_for(header[4])?;
    let len = u32::from_le_bytes(header[10..14].try_into().expect("4 bytes"));
    if len > max_payload {
        return Err(NetError::PayloadTooLarge { len, cap: max_payload });
    }
    // Header, trace context, body and trailer in one buffer, so the
    // frame checks are `decode_frame_ctx`'s own.
    let mut frame = vec![0u8; HEADER_LEN + ctx_len + len as usize + TRAILER_LEN];
    frame[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut frame[HEADER_LEN..])?;
    let (msg, ctx) = decode_frame_ctx(&frame, max_payload)?;
    Ok((msg, ctx, frame.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Hello { client_id: 3 },
            Message::Welcome { client_id: 3, clients: 8, rounds: 20 },
            Message::Global { round: 2, last: false, model: vec![1, 2, 3, 4] },
            Message::Global { round: 20, last: true, model: vec![] },
            Message::Update { round: 2, client_id: 3, steps: 17, model: vec![9; 33] },
            Message::UpdateAck { round: 2, accepted: true },
            Message::UpdateAck { round: 2, accepted: false },
            Message::Finished { round: 19 },
        ]
    }

    #[test]
    fn frame_round_trip_every_type() {
        for msg in all_messages() {
            let frame = encode_frame(&msg);
            let back = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("decode");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn stream_round_trip_preserves_order() {
        let mut buf = Vec::new();
        let mut written = 0;
        for msg in all_messages() {
            written += write_message(&mut buf, &msg).expect("write");
        }
        assert_eq!(written, buf.len());
        let mut cursor = std::io::Cursor::new(buf);
        for msg in all_messages() {
            let (back, _) = read_message(&mut cursor, DEFAULT_MAX_PAYLOAD).expect("read");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn corrupted_byte_fails_crc() {
        let msg = Message::Update { round: 1, client_id: 0, steps: 5, model: vec![7; 64] };
        let clean = encode_frame(&msg);
        // Flip one bit in every guarded position: everything but magic.
        for i in 4..clean.len() - TRAILER_LEN {
            let mut frame = clean.clone();
            frame[i] ^= 0x01;
            let err = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    NetError::Crc { .. } | NetError::Protocol(_) | NetError::PayloadTooLarge { .. }
                ),
                "byte {i}: unexpected {err}"
            );
        }
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let msg = Message::Global { round: 0, last: false, model: vec![0; 128] };
        let mut frame = encode_frame(&msg);
        // Declare a 3 GiB payload; the cap must reject it up front.
        frame[10..14].copy_from_slice(&(3u32 << 30).to_le_bytes());
        let err = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect_err("must fail");
        assert!(matches!(err, NetError::PayloadTooLarge { .. }), "{err}");
        let mut cursor = std::io::Cursor::new(frame);
        let err = read_message(&mut cursor, DEFAULT_MAX_PAYLOAD).expect_err("must fail");
        assert!(matches!(err, NetError::PayloadTooLarge { .. }), "{err}");
    }

    #[test]
    fn truncated_stream_errors() {
        let msg = Message::Update { round: 1, client_id: 2, steps: 3, model: vec![1; 50] };
        let frame = encode_frame(&msg);
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 10, frame.len() - 1] {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            assert!(read_message(&mut cursor, DEFAULT_MAX_PAYLOAD).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let frame = encode_frame(&Message::Finished { round: 0 });
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(decode_frame(&bad, DEFAULT_MAX_PAYLOAD), Err(NetError::Protocol(_))));
        let mut bad = frame;
        bad[4] = 9;
        assert!(matches!(decode_frame(&bad, DEFAULT_MAX_PAYLOAD), Err(NetError::Protocol(_))));
    }

    fn ctx_for(msg: &Message) -> TraceContext {
        TraceContext {
            trace_id: 0x1234_5678_9abc_def0_0fed_cba9_8765_4321,
            parent_span: 0xdead_beef_cafe,
            round: match msg {
                Message::Global { round, .. }
                | Message::Update { round, .. }
                | Message::UpdateAck { round, .. }
                | Message::Finished { round } => *round as u32,
                _ => 0,
            },
        }
    }

    #[test]
    fn traced_frame_round_trip_every_type() {
        for msg in all_messages() {
            let ctx = ctx_for(&msg);
            let frame = encode_frame_ctx(&msg, Some(&ctx));
            assert_eq!(frame[4], VERSION_TRACED);
            assert_eq!(frame.len(), encode_frame(&msg).len() + CTX_LEN, "fixed 24-byte overhead");
            let (back, back_ctx) = decode_frame_ctx(&frame, DEFAULT_MAX_PAYLOAD).expect("decode");
            assert_eq!(back, msg);
            assert_eq!(back_ctx, Some(ctx));
            // The ctx-oblivious decoder accepts the same frame.
            assert_eq!(decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("decode"), msg);
        }
    }

    #[test]
    fn plain_frames_decode_through_the_ctx_api() {
        // Backward compatibility: version-1 bytes carry no context and
        // decode unchanged through the new entry points.
        for msg in all_messages() {
            let frame = encode_frame(&msg);
            assert_eq!(frame[4], VERSION);
            let (back, ctx) = decode_frame_ctx(&frame, DEFAULT_MAX_PAYLOAD).expect("decode");
            assert_eq!(back, msg);
            assert_eq!(ctx, None);
        }
    }

    #[test]
    fn traced_stream_round_trip() {
        let mut buf = Vec::new();
        for msg in all_messages() {
            let ctx = ctx_for(&msg);
            write_message_ctx(&mut buf, &msg, Some(&ctx)).expect("write");
            write_message(&mut buf, &msg).expect("write plain");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for msg in all_messages() {
            let (back, ctx, _) = read_message_ctx(&mut cursor, DEFAULT_MAX_PAYLOAD).expect("read");
            assert_eq!(back, msg);
            assert_eq!(ctx, Some(ctx_for(&msg)));
            // Mixed streams work: a plain frame follows a traced one.
            let (back, ctx, _) = read_message_ctx(&mut cursor, DEFAULT_MAX_PAYLOAD).expect("read");
            assert_eq!(back, msg);
            assert_eq!(ctx, None);
        }
    }

    #[test]
    fn corrupted_traced_frame_fails_crc() {
        let msg = Message::Update { round: 1, client_id: 0, steps: 5, model: vec![7; 64] };
        let clean = encode_frame_ctx(&msg, Some(&ctx_for(&msg)));
        // Every guarded byte, including the 24 context bytes.
        for i in 4..clean.len() - TRAILER_LEN {
            let mut frame = clean.clone();
            frame[i] ^= 0x01;
            let err = decode_frame_ctx(&frame, DEFAULT_MAX_PAYLOAD).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    NetError::Crc { .. } | NetError::Protocol(_) | NetError::PayloadTooLarge { .. }
                ),
                "byte {i}: unexpected {err}"
            );
        }
    }

    #[test]
    fn frames_at_the_crc_block_seam_round_trip_and_catch_flips() {
        // The CRC folds 64-byte blocks as four 16-byte lanes, then whole
        // 16-byte chunks, and runs the slice-by-8 stream over the last
        // `% 16` bytes and over anything shorter than 64. Guarded lengths
        // around the 64-byte entry and the first whole chunk after it,
        // and around 8 KiB; both versions; through the one-buffer decoder
        // and the stream reader, which checksums the 10-byte `header[4..]`
        // on the stream and chains the rest through the fold.
        for traced in [false, true] {
            for guarded in [63, 64, 65, 79, 80, 8191, 8192, 8193] {
                let ctx_len = if traced { CTX_LEN } else { 0 };
                let model_len = guarded - (HEADER_LEN - 4) - ctx_len - 8;
                let model = (0..model_len).map(|i| (i % 251) as u8).collect();
                let msg = Message::Update { round: 3, client_id: 1, steps: 9, model };
                let ctx = traced.then(|| ctx_for(&msg));
                let frame = encode_frame_ctx(&msg, ctx.as_ref());
                assert_eq!(frame.len() - 4 - TRAILER_LEN, guarded);
                let decoded = decode_frame_ctx(&frame, DEFAULT_MAX_PAYLOAD).expect("decode");
                assert_eq!(decoded, (msg.clone(), ctx));
                let read = read_message_ctx(&mut std::io::Cursor::new(&frame), DEFAULT_MAX_PAYLOAD)
                    .expect("read");
                assert_eq!(read, (msg, ctx, frame.len()));
                let offsets = [0, 15, 16, 63, 64, 2047, 2048, 8191, 8192, guarded - 1];
                for offset in offsets.into_iter().filter(|&o| o < guarded) {
                    let mut bad = frame.clone();
                    bad[4 + offset] ^= 0x01;
                    let what = format!("traced {traced}, guarded {guarded}, offset {offset}");
                    let trailer = &bad[bad.len() - TRAILER_LEN..];
                    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
                    assert_ne!(crc32(&bad[4..bad.len() - TRAILER_LEN]), stored, "{what}");
                    // Offset 0 is the version byte: both decoders refuse
                    // the version before they reach the CRC.
                    let refused = |err: &NetError| match offset {
                        0 => matches!(err, NetError::Protocol(_)),
                        _ => matches!(err, NetError::Crc { .. }),
                    };
                    let err = decode_frame(&bad, DEFAULT_MAX_PAYLOAD).expect_err(&what);
                    assert!(refused(&err), "{what}: {err}");
                    let err = read_message(&mut std::io::Cursor::new(&bad), DEFAULT_MAX_PAYLOAD)
                        .expect_err(&what);
                    assert!(refused(&err), "{what}: {err}");
                }
            }
        }
    }

    #[test]
    fn zeroed_context_decodes_as_none() {
        let msg = Message::Finished { round: 3 };
        let ctx = TraceContext { trace_id: 0, parent_span: 0, round: 3 };
        let frame = encode_frame_ctx(&msg, Some(&ctx));
        let (_, back) = decode_frame_ctx(&frame, DEFAULT_MAX_PAYLOAD).expect("decode");
        assert_eq!(back, None, "all-zero context means no trace");
    }
}
