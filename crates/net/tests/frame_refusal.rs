//! A frame that fails its CRC *and* a body check is refused as a CRC
//! failure by both decoders, counted once into `net.frame.crc_fail`, and
//! leaves a stream reader at the end of that frame, where the next frame
//! decodes.
//!
//! Its own binary, and a single test on purpose: `net.frame.crc_fail` is
//! a process-global counter, and every other test that corrupts a frame
//! would move it too.

use std::io::Cursor;

use rhychee_channel::crc::crc32;
use rhychee_net::wire::{
    decode_frame, encode_frame, read_message, Message, DEFAULT_MAX_PAYLOAD, HEADER_LEN, TRAILER_LEN,
};
use rhychee_net::NetError;
use rhychee_telemetry as telemetry;

/// `frame` with its trailer recomputed over what it now holds.
fn with_good_crc(mut frame: Vec<u8>) -> Vec<u8> {
    let at = frame.len() - TRAILER_LEN;
    let crc = crc32(&frame[4..at]);
    frame[at..].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Three frames whose bodies are malformed and whose trailers are the
/// CRCs of the well-formed frames they were cut from.
fn malformed_with_stale_crc() -> Vec<(&'static str, Vec<u8>)> {
    let global = Message::Global { round: 4, last: false, model: vec![5; 300] };
    let mut last_two = encode_frame(&global);
    last_two[HEADER_LEN] = 2;

    let update = Message::Update { round: 4, client_id: 1, steps: 2, model: vec![] };
    let mut short_update = encode_frame(&update);
    short_update.remove(HEADER_LEN + 7);
    short_update[10..HEADER_LEN].copy_from_slice(&7u32.to_le_bytes());

    let update = Message::Update { round: 4, client_id: 1, steps: 2, model: vec![6; 300] };
    let mut unknown_type = encode_frame(&update);
    unknown_type[5] = 9;

    vec![
        ("Global.last = 2", last_two),
        ("7-byte Update body", short_update),
        ("unknown type 9", unknown_type),
    ]
}

#[test]
fn crc_failure_outranks_a_malformed_body_on_both_decoders() {
    telemetry::set_enabled(true);
    let crc_fail = telemetry::metrics::global().counter("net.frame.crc_fail");
    let next = Message::Update { round: 5, client_id: 2, steps: 3, model: vec![7; 90] };
    for (what, bad) in malformed_with_stale_crc() {
        let good_crc = with_good_crc(bad.clone());
        assert_ne!(good_crc, bad, "{what}: the stale trailer must be wrong");

        let before = crc_fail.get();
        let err = decode_frame(&bad, DEFAULT_MAX_PAYLOAD).expect_err(what);
        assert!(matches!(err, NetError::Crc { .. }), "decode_frame, {what}: {err}");
        assert_eq!(crc_fail.get(), before + 1, "decode_frame, {what}: counted once");

        let mut stream = Cursor::new([&bad[..], &encode_frame(&next)].concat());
        let err = read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect_err(what);
        assert!(matches!(err, NetError::Crc { .. }), "read_message, {what}: {err}");
        assert_eq!(crc_fail.get(), before + 2, "read_message, {what}: counted once");
        assert_eq!(stream.position(), bad.len() as u64, "{what}: cursor at the frame's end");
        let (back, _) = read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("next frame");
        assert_eq!(back, next, "{what}: the next frame decodes");

        // With its CRC right, the same body fails its own check, uncounted.
        let err = decode_frame(&good_crc, DEFAULT_MAX_PAYLOAD).expect_err(what);
        assert!(matches!(err, NetError::Protocol(_)), "decode_frame, {what}: {err}");
        let mut stream = Cursor::new([&good_crc[..], &encode_frame(&next)].concat());
        let err = read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect_err(what);
        assert!(matches!(err, NetError::Protocol(_)), "read_message, {what}: {err}");
        assert_eq!(stream.position(), good_crc.len() as u64, "{what}: cursor at the frame's end");
        assert_eq!(read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("next").0, next);
        assert_eq!(crc_fail.get(), before + 2, "{what}: a body error is not a CRC failure");
    }
}
