//! Interior encoding of model payloads: what a client uploads and what
//! the server broadcasts, in a TCP frame (`rhychee-net`) or across a
//! [`RoundHooks::link`](crate::RoundHooks::link) in process.
//!
//! A payload starts with a one-byte tag:
//!
//! | tag | contents |
//! |----:|----------|
//! | 0   | plaintext: `count: u32` then `count` LE `f32` parameters |
//! | 3   | seeded CKKS: `count: u32` then `count` × (`len: u32`, [`CkksContext::serialize_seeded`] bytes) |
//! | 4   | CKKS: `count: u32` then `count` × (`len: u32`, [`CkksContext::serialize`] bytes) |
//! | 5   | LWE: `contributors: u32`, `count: u32`, then `count` × [`LweContext::serialize`] bytes (one ciphertext per coordinate; an upload has 1 contributor, a broadcast the `k` uploads it sums) |
//!
//! Tags 1 (CKKS with coefficient-domain rows) and 2 (LWE over per-client
//! scales) are retired and never reused: tag 4 has tag 1's layout and
//! lengths but carries evaluation-domain rows, so a peer that still
//! speaks tag 1 is refused at the tag instead of contributing garbage to
//! a sum.
//!
//! Every declared count is validated against a caller-supplied cap
//! before allocation, and the ciphertext codecs (hardened in
//! `rhychee-fhe`) reject length mismatches, so a malformed payload costs
//! at most one bounded allocation and fails as [`FlError::Payload`] (its
//! structure) or [`FlError::Fhe`] (a ciphertext).
//!
//! The sealed [`WireCodec`] trait selects the CKKS wire format:
//! [`CanonicalCodec`] (tag 4) or [`SeededCodec`] (tag 3). The server
//! never materializes an upload: [`WireCodec::parse_upload`] returns a
//! [`ModelView`] of zero-copy [`CtView`]s over the payload bytes, under
//! the same caps as the owning [`decode_ckks`].

use std::fmt;

use rhychee_fhe::ckks::{CkksCiphertext, CkksContext, CtView};
use rhychee_fhe::lwe::{LweCiphertext, LweContext};
use rhychee_fhe::FheError;

use crate::error::FlError;

mod sealed {
    /// Seals [`WireCodec`](super::WireCodec): the codec set is fixed by
    /// the wire protocol's tag space, so downstream crates select a
    /// codec rather than implement one.
    pub trait Sealed {}
}

/// Payload tag for plaintext `f32` parameters.
pub const TAG_PLAIN: u8 = 0;
/// Payload tag for packed CKKS ciphertexts (evaluation-domain rows; 1,
/// which carried coefficient-domain rows, is retired).
pub(crate) const TAG_CKKS: u8 = 4;
/// Payload tag for seed-compressed CKKS ciphertexts (fresh symmetric
/// encryptions whose `c1` is replaced by a 32-byte expansion seed).
pub(crate) const TAG_CKKS_SEEDED: u8 = 3;
/// Payload tag for per-coordinate LWE ciphertexts (2, which carried LWE
/// sums over per-client scales, is retired).
pub(crate) const TAG_LWE: u8 = 5;

fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8], FlError> {
    let slice = bytes
        .get(*at..*at + n)
        .ok_or_else(|| FlError::Payload(format!("model payload truncated at byte {}", *at)))?;
    *at += n;
    Ok(slice)
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, FlError> {
    Ok(u32::from_le_bytes(take(bytes, at, 4)?.try_into().expect("4 bytes")))
}

fn expect_tag(bytes: &[u8], want: u8, name: &str) -> Result<(), FlError> {
    match bytes.first() {
        Some(&t) if t == want => Ok(()),
        Some(&t) => {
            Err(FlError::Payload(format!("expected {name} payload (tag {want}), got tag {t}")))
        }
        None => Err(FlError::Payload("empty model payload".into())),
    }
}

fn check_done(bytes: &[u8], at: usize) -> Result<(), FlError> {
    if at != bytes.len() {
        return Err(FlError::Payload(format!(
            "{} trailing byte(s) after model payload",
            bytes.len() - at
        )));
    }
    Ok(())
}

/// Encodes a plaintext parameter vector.
pub fn encode_plain(params: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + params.len() * 4);
    out.push(TAG_PLAIN);
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for &v in params {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a plaintext parameter vector of at most `max_params` values.
///
/// # Errors
///
/// Returns [`FlError::Payload`] on a wrong tag, a count above
/// `max_params`, or a length that does not match the declared count.
pub fn decode_plain(bytes: &[u8], max_params: usize) -> Result<Vec<f32>, FlError> {
    expect_tag(bytes, TAG_PLAIN, "plaintext")?;
    let mut at = 1;
    let count = take_u32(bytes, &mut at)? as usize;
    if count > max_params {
        return Err(FlError::Payload(format!(
            "plaintext payload declares {count} parameters, cap is {max_params}"
        )));
    }
    let mut params = Vec::with_capacity(count);
    for _ in 0..count {
        params.push(f32::from_le_bytes(take(bytes, &mut at, 4)?.try_into().expect("4 bytes")));
    }
    check_done(bytes, at)?;
    Ok(params)
}

/// Writes the structure every ciphertext payload shares — `tag`, the
/// count, then per ciphertext its length and its bytes — into one
/// buffer sized up front from `len_of`, each ciphertext serialized in
/// place by `write`.
fn encode_items(
    tag: u8,
    cts: &[CkksCiphertext],
    len_of: impl Fn(&CkksCiphertext) -> usize,
    mut write: impl FnMut(&mut Vec<u8>, &CkksCiphertext) -> Result<(), FheError>,
) -> Result<Vec<u8>, FheError> {
    let total = 5 + cts.iter().map(|ct| 4 + len_of(ct)).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.push(tag);
    out.extend_from_slice(&(cts.len() as u32).to_le_bytes());
    for ct in cts {
        out.extend_from_slice(&(len_of(ct) as u32).to_le_bytes());
        write(&mut out, ct)?;
    }
    debug_assert_eq!(out.len(), total, "serialized lengths out of step with the payload");
    Ok(out)
}

/// Encodes packed CKKS ciphertexts under the given context.
pub fn encode_ckks(ctx: &CkksContext, cts: &[CkksCiphertext]) -> Vec<u8> {
    encode_items(
        TAG_CKKS,
        cts,
        |ct| ctx.serialized_len(ct.levels()),
        |out, ct| {
            ctx.serialize_into(out, ct);
            Ok(())
        },
    )
    .expect("canonical serialization is infallible")
}

/// The structure every ciphertext payload shares: `tag`, a count capped
/// at `max_cts`, then per ciphertext a length capped at `max_ct_len`
/// (the full-level serialized size, so a declared length bounds its
/// allocation) and that many bytes, handed to `item`; no trailing bytes.
fn decode_items<'a, T>(
    bytes: &'a [u8],
    (tag, what): (u8, &str),
    max_cts: usize,
    max_ct_len: usize,
    item: impl Fn(&'a [u8]) -> Result<T, FheError>,
) -> Result<Vec<T>, FlError> {
    expect_tag(bytes, tag, what)?;
    let mut at = 1;
    let count = take_u32(bytes, &mut at)? as usize;
    if count > max_cts {
        return Err(FlError::Payload(format!(
            "{what} payload declares {count} ciphertexts, cap is {max_cts}"
        )));
    }
    let mut items = Vec::with_capacity(count);
    for i in 0..count {
        let len = take_u32(bytes, &mut at)? as usize;
        if len > max_ct_len {
            return Err(FlError::Payload(format!(
                "{what} ciphertext {i} declares {len} bytes, max is {max_ct_len}"
            )));
        }
        items.push(item(take(bytes, &mut at, len)?)?);
    }
    check_done(bytes, at)?;
    Ok(items)
}

/// Decodes at most `max_cts` packed CKKS ciphertexts.
///
/// # Errors
///
/// Returns [`FlError::Payload`] on structural errors and
/// [`FlError::Fhe`] when a ciphertext fails the hardened
/// [`CkksContext::deserialize`] (truncation, oversizing, bad levels).
pub fn decode_ckks(
    ctx: &CkksContext,
    bytes: &[u8],
    max_cts: usize,
) -> Result<Vec<CkksCiphertext>, FlError> {
    let max_ct_len = ctx.serialized_len(ctx.primes().len());
    decode_items(bytes, (TAG_CKKS, "CKKS"), max_cts, max_ct_len, |b| ctx.deserialize(b))
}

/// Encodes seed-compressed CKKS ciphertexts under the given context.
///
/// Only fresh symmetric encryptions carry an expansion seed; roughly
/// half the bytes of [`encode_ckks`] for the same ciphertexts.
///
/// # Errors
///
/// Returns [`FlError::Fhe`] if any ciphertext carries no seed
/// (i.e. was not produced by symmetric encryption, or has been
/// operated on since).
pub(crate) fn encode_ckks_seeded(
    ctx: &CkksContext,
    cts: &[CkksCiphertext],
) -> Result<Vec<u8>, FlError> {
    let len_of = |ct: &CkksCiphertext| ctx.serialized_len_seeded(ct.levels());
    Ok(encode_items(TAG_CKKS_SEEDED, cts, len_of, |out, ct| ctx.serialize_seeded_into(out, ct))?)
}

/// Encodes one LWE ciphertext per model coordinate, summed over
/// `contributors` uploads (1 for an upload).
pub fn encode_lwe(ctx: &LweContext, contributors: usize, cts: &[LweCiphertext]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + cts.len() * ctx.serialized_len());
    out.push(TAG_LWE);
    out.extend_from_slice(&(contributors as u32).to_le_bytes());
    out.extend_from_slice(&(cts.len() as u32).to_le_bytes());
    for ct in cts {
        out.extend_from_slice(&ctx.serialize(ct));
    }
    out
}

/// Decodes an LWE payload of exactly `count` ciphertexts summed over
/// `1..=max_contributors` uploads into its contributor count and the
/// ciphertexts. The declared count and the payload length are checked
/// before anything is allocated.
///
/// # Errors
///
/// Returns [`FlError::Payload`] on a wrong tag, a contributor count
/// outside `1..=max_contributors`, a ciphertext count other than
/// `count`, or a length that does not match the declared count.
pub fn decode_lwe(
    ctx: &LweContext,
    bytes: &[u8],
    count: usize,
    max_contributors: usize,
) -> Result<(usize, Vec<LweCiphertext>), FlError> {
    expect_tag(bytes, TAG_LWE, "LWE")?;
    let mut at = 1;
    let contributors = take_u32(bytes, &mut at)? as usize;
    if !(1..=max_contributors).contains(&contributors) {
        return Err(FlError::Payload(format!(
            "LWE payload sums {contributors} uploads, outside 1..={max_contributors}"
        )));
    }
    let declared = take_u32(bytes, &mut at)? as usize;
    if declared != count {
        return Err(FlError::Payload(format!(
            "LWE payload declares {declared} ciphertexts, the model has {count}"
        )));
    }
    let len = ctx.serialized_len();
    if bytes.len() - at != count * len {
        return Err(FlError::Payload(format!(
            "LWE payload carries {} ciphertext bytes, {count} ciphertexts need {}",
            bytes.len() - at,
            count * len
        )));
    }
    let cts = bytes[at..].chunks_exact(len).map(|ct| ctx.deserialize(ct));
    Ok((contributors, cts.collect::<Result<_, _>>()?))
}

/// A borrowed, validated view of one upload's ciphertexts — the
/// zero-copy counterpart of the `Vec<CkksCiphertext>` that
/// [`decode_ckks`] returns. Holds one zero-copy
/// [`CtView`] per model chunk over the payload bytes; nothing is
/// deserialized until the views are folded into an accumulator.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ModelView<'a> {
    views: Vec<CtView<'a>>,
}

impl<'a> ModelView<'a> {
    /// One view per packed model chunk, in chunk order.
    pub fn views(&self) -> &[CtView<'a>] {
        &self.views
    }

    /// Number of ciphertext chunks in the upload.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when the payload declared zero ciphertexts.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

/// Parses at most `max_cts` packed CKKS ciphertexts into zero-copy
/// views — the borrowing counterpart of [`decode_ckks`], with the same
/// count and per-ciphertext length caps and the same structural
/// validation (every view is header-checked on construction).
///
/// # Errors
///
/// Returns [`FlError::Payload`] on structural errors and
/// [`FlError::Fhe`] when a ciphertext fails
/// [`CkksContext::view_serialized`] validation.
pub fn parse_ckks_views<'a>(
    ctx: &CkksContext,
    bytes: &'a [u8],
    max_cts: usize,
) -> Result<ModelView<'a>, FlError> {
    let max_ct_len = ctx.serialized_len(ctx.primes().len());
    let views =
        decode_items(bytes, (TAG_CKKS, "CKKS"), max_cts, max_ct_len, |b| ctx.view_serialized(b))?;
    Ok(ModelView { views })
}

/// Parses at most `max_cts` seed-compressed CKKS ciphertexts into
/// zero-copy views, including the seed integrity check.
///
/// # Errors
///
/// Returns [`FlError::Payload`] on structural errors and
/// [`FlError::Fhe`] when a ciphertext fails
/// [`CkksContext::view_serialized_seeded`] validation (truncation,
/// oversizing, bad levels, or a corrupted seed).
pub(crate) fn parse_ckks_seeded_views<'a>(
    ctx: &CkksContext,
    bytes: &'a [u8],
    max_cts: usize,
) -> Result<ModelView<'a>, FlError> {
    let max_ct_len = ctx.serialized_len_seeded(ctx.primes().len());
    let views = decode_items(bytes, (TAG_CKKS_SEEDED, "seeded CKKS"), max_cts, max_ct_len, |b| {
        ctx.view_serialized_seeded(b)
    })?;
    Ok(ModelView { views })
}

/// One CKKS wire format, as selected per endpoint: how uploads are
/// encoded by clients and zero-copy parsed by the server, and how the
/// client-side encryption must produce them.
///
/// Sealed: the implementations are exactly [`CanonicalCodec`] and
/// [`SeededCodec`], matching the wire protocol's tag space. Both
/// endpoints of a federation must select the same one (in
/// `rhychee-net`: `ServerConfigBuilder::codec` / `ClientConfig::codec`).
pub trait WireCodec: sealed::Sealed + Send + Sync + fmt::Debug {
    /// Stable short name (`"canonical"` / `"seeded"`), for logs.
    fn name(&self) -> &'static str;

    /// Whether clients must encrypt uploads symmetrically: only fresh
    /// symmetric encryptions carry the expansion seed the seeded wire
    /// format transmits in place of `c1`.
    fn symmetric(&self) -> bool;

    /// Encodes one upload's ciphertexts.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Fhe`] when a ciphertext cannot be expressed
    /// in this wire format (e.g. a seedless ciphertext under
    /// [`SeededCodec`]).
    fn encode_upload(&self, ctx: &CkksContext, cts: &[CkksCiphertext]) -> Result<Vec<u8>, FlError>;

    /// Parses an upload into zero-copy views for the server's fold,
    /// applying the same caps and validation as the owning
    /// [`decode_ckks`] without materializing ciphertexts.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Payload`] on structural errors and
    /// [`FlError::Fhe`] on view validation failures.
    fn parse_upload<'a>(
        &self,
        ctx: &CkksContext,
        bytes: &'a [u8],
        max_cts: usize,
    ) -> Result<ModelView<'a>, FlError>;

    /// Encodes a server→client broadcast. Always canonical: aggregates
    /// are not fresh encryptions, so they carry no expansion seed.
    fn encode_broadcast(&self, ctx: &CkksContext, cts: &[CkksCiphertext]) -> Vec<u8> {
        encode_ckks(ctx, cts)
    }
}

/// The canonical CKKS wire format (tag 4): full `(c0, c1)` bytes,
/// public-key client encryption. The default codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanonicalCodec;

impl sealed::Sealed for CanonicalCodec {}

impl WireCodec for CanonicalCodec {
    fn name(&self) -> &'static str {
        "canonical"
    }

    fn symmetric(&self) -> bool {
        false
    }

    fn encode_upload(&self, ctx: &CkksContext, cts: &[CkksCiphertext]) -> Result<Vec<u8>, FlError> {
        Ok(encode_ckks(ctx, cts))
    }

    fn parse_upload<'a>(
        &self,
        ctx: &CkksContext,
        bytes: &'a [u8],
        max_cts: usize,
    ) -> Result<ModelView<'a>, FlError> {
        parse_ckks_views(ctx, bytes, max_cts)
    }
}

/// The seed-compressed CKKS wire format (tag 3): symmetric fresh
/// encryptions whose `c1` travels as a 32-byte expansion seed, roughly
/// halving upload bytes. Broadcasts stay canonical.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeededCodec;

impl sealed::Sealed for SeededCodec {}

impl WireCodec for SeededCodec {
    fn name(&self) -> &'static str {
        "seeded"
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn encode_upload(&self, ctx: &CkksContext, cts: &[CkksCiphertext]) -> Result<Vec<u8>, FlError> {
        encode_ckks_seeded(ctx, cts)
    }

    fn parse_upload<'a>(
        &self,
        ctx: &CkksContext,
        bytes: &'a [u8],
        max_cts: usize,
    ) -> Result<ModelView<'a>, FlError> {
        parse_ckks_seeded_views(ctx, bytes, max_cts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rhychee_fhe::params::CkksParams;

    #[test]
    fn plain_round_trip_and_caps() {
        let params: Vec<f32> = (0..300).map(|i| (i as f32).sin()).collect();
        let bytes = encode_plain(&params);
        assert_eq!(decode_plain(&bytes, 300).expect("decode"), params);
        assert!(decode_plain(&bytes, 299).is_err(), "count above cap");
        assert!(decode_plain(&bytes[..bytes.len() - 1], 300).is_err(), "truncated");
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_plain(&padded, 300).is_err(), "trailing bytes");
    }

    #[test]
    fn ckks_round_trip_and_corruption() {
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let mut rng = StdRng::seed_from_u64(7);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let values = vec![0.5; 100];
        let cts = vec![ctx.encrypt(&pk, &values, &mut rng).expect("encrypt")];
        let bytes = encode_ckks(&ctx, &cts);
        let back = decode_ckks(&ctx, &bytes, 4).expect("decode");
        let decrypted = ctx.decrypt(&sk, &back[0]);
        assert!((decrypted[0] - 0.5).abs() < 1e-3);
        assert!(decode_ckks(&ctx, &bytes, 0).is_err(), "count above cap");
        assert!(decode_ckks(&ctx, &bytes[..bytes.len() / 2], 4).is_err(), "truncated");
        // An oversized declared ciphertext length must be caught.
        let mut bad = bytes.clone();
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_ckks(&ctx, &bad, 4).is_err());
    }

    #[test]
    fn seeded_ckks_round_trip_caps_and_corruption() {
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let mut rng = StdRng::seed_from_u64(11);
        let (sk, _) = ctx.generate_keys(&mut rng);
        let values = vec![0.75; 100];
        let cts: Vec<CkksCiphertext> = (0..2)
            .map(|_| ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt"))
            .collect();
        let bytes = encode_ckks_seeded(&ctx, &cts).expect("encode");
        // ~2× smaller than the canonical encoding of the same payload.
        let canonical = encode_ckks(&ctx, &cts);
        assert!(bytes.len() * 2 < canonical.len() + 256, "{} vs {}", bytes.len(), canonical.len());
        let parse = |bytes, cap| parse_ckks_seeded_views(&ctx, bytes, cap);
        let back = parse(&bytes, 2).expect("parse").views()[0].to_ciphertext(&ctx).expect("own");
        let decrypted = ctx.decrypt(&sk, &back);
        assert!((decrypted[0] - 0.75).abs() < 1e-3);
        assert!(parse(&bytes, 1).is_err(), "count above cap");
        assert!(parse(&bytes[..bytes.len() / 2], 2).is_err(), "truncated");
        let mut bad = bytes.clone();
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse(&bad, 2).is_err(), "oversized declared length");
        // A flipped seed byte must be caught by the integrity digest,
        // not silently re-expand to an unrelated ciphertext.
        let mut flipped = bytes.clone();
        flipped[9 + 10] ^= 0x40; // inside the first ciphertext's header/seed
        assert!(parse(&flipped, 2).is_err(), "corrupted seed");
        // Canonical decoder must refuse the seeded tag and vice versa.
        assert!(decode_ckks(&ctx, &bytes, 2).is_err());
        assert!(parse(&encode_ckks(&ctx, &cts), 2).is_err());
        // Public-key ciphertexts carry no seed: encoding must error.
        let (_, pk) = ctx.generate_keys(&mut StdRng::seed_from_u64(12));
        let pk_ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
        assert!(encode_ckks_seeded(&ctx, &[pk_ct]).is_err());
    }

    #[test]
    fn parsed_views_materialize_the_encoded_ciphertexts_for_both_codecs() {
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let mut rng = StdRng::seed_from_u64(21);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let values = vec![0.25; 64];
        for codec in [&CanonicalCodec as &dyn WireCodec, &SeededCodec as &dyn WireCodec] {
            let cts: Vec<CkksCiphertext> = (0..2)
                .map(|_| {
                    if codec.symmetric() {
                        ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt")
                    } else {
                        ctx.encrypt(&pk, &values, &mut rng).expect("encrypt")
                    }
                })
                .collect();
            let bytes = codec.encode_upload(&ctx, &cts).expect("encode");
            let parsed = codec.parse_upload(&ctx, &bytes, 2).expect("parse");
            assert_eq!(parsed.len(), 2, "{}", codec.name());
            assert!(!parsed.is_empty());
            // A materialized view is the ciphertext that was encoded,
            // byte for byte after re-serialization.
            for (v, ct) in parsed.views().iter().zip(&cts) {
                let via_view = v.to_ciphertext(&ctx).expect("materialize");
                assert_eq!(ctx.serialize(&via_view), ctx.serialize(ct), "{}", codec.name());
            }
            // Parse enforces the same caps and structure as decode.
            assert!(codec.parse_upload(&ctx, &bytes, 1).is_err(), "count above cap");
            assert!(codec.parse_upload(&ctx, &bytes[..bytes.len() / 2], 2).is_err(), "truncated");
            let mut bad = bytes.clone();
            bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(codec.parse_upload(&ctx, &bad, 2).is_err(), "oversized declared length");
            // Wrong tag for this codec's parser.
            let other = if codec.symmetric() {
                encode_ckks(&ctx, &cts)
            } else {
                vec![TAG_CKKS_SEEDED, 0, 0, 0, 0]
            };
            assert!(codec.parse_upload(&ctx, &other, 2).is_err(), "tag mismatch");
        }
        // Broadcasts are canonical under either codec.
        let ct = ctx.encrypt(&pk, &values, &mut rng).expect("encrypt");
        let broadcast = SeededCodec.encode_broadcast(&ctx, std::slice::from_ref(&ct));
        assert_eq!(broadcast.first(), Some(&TAG_CKKS));
        // A seedless (public-key) ciphertext cannot ride the seeded codec.
        assert!(SeededCodec.encode_upload(&ctx, std::slice::from_ref(&ct)).is_err());
    }

    #[test]
    fn lwe_round_trip_and_refusals() {
        let ctx = LweContext::new(rhychee_fhe::params::LweParams::tfhe1()).expect("params");
        let mut rng = StdRng::seed_from_u64(29);
        let sk = ctx.generate_key(&mut rng);
        let cts: Vec<_> = (0..3).map(|m| ctx.encrypt(&sk, m, &mut rng).expect("encrypt")).collect();
        let bytes = encode_lwe(&ctx, 2, &cts);
        assert_eq!((bytes[0], bytes.len()), (TAG_LWE, 9 + 3 * ctx.serialized_len()));
        assert_eq!(decode_lwe(&ctx, &bytes, 3, 2).expect("decode"), (2, cts.clone()));
        let refused = |bytes: &[u8], count, max_k| {
            matches!(decode_lwe(&ctx, bytes, count, max_k), Err(FlError::Payload(_)))
        };
        assert!(refused(&bytes, 3, 1), "more contributors than the cap");
        assert!(refused(&encode_lwe(&ctx, 0, &cts), 3, 2), "no contributors");
        assert!(refused(&bytes, 4, 2) && refused(&bytes, 2, 2), "count is not the model's");
        assert!(refused(&bytes[..bytes.len() - 1], 3, 2), "truncated");
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(refused(&padded, 3, 2), "trailing bytes");
        // A huge declared count is refused before anything is allocated.
        let mut huge = bytes.clone();
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(refused(&huge, 3, 2), "oversized count");
        // The retired LWE tag and the other schemes' tags are refused.
        let mut retired = bytes.clone();
        retired[0] = 2;
        assert!(refused(&retired, 3, 2), "tag 2");
        assert!(refused(&encode_plain(&[1.0; 3]), 3, 2), "plaintext");
        let ckks = CkksContext::new(CkksParams::toy()).expect("params");
        let (_, pk) = ckks.generate_keys(&mut rng);
        let ct = ckks.encrypt(&pk, &[0.5; 3], &mut rng).expect("encrypt");
        assert!(refused(&encode_ckks(&ckks, &[ct]), 3, 2), "CKKS");
    }

    #[test]
    fn tag_mismatch_rejected() {
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let plain = encode_plain(&[1.0, 2.0]);
        assert!(decode_ckks(&ctx, &plain, 4).is_err());
        assert!(decode_plain(&[], 4).is_err(), "empty payload");
    }

    #[test]
    fn retired_coefficient_domain_tag_is_refused() {
        // Tag 1 carried the same layout with coefficient-domain rows: a
        // well-formed payload under it must be a protocol error at the
        // tag, for the owning and the borrowing decoder, never a sum.
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let mut rng = StdRng::seed_from_u64(23);
        let (_, pk) = ctx.generate_keys(&mut rng);
        let cts = vec![ctx.encrypt(&pk, &[0.5; 8], &mut rng).expect("encrypt")];
        let mut payload = encode_ckks(&ctx, &cts);
        assert_eq!(payload[0], 4);
        assert!(
            decode_ckks(&ctx, &payload, 1).is_ok() && parse_ckks_views(&ctx, &payload, 1).is_ok()
        );
        payload[0] = 1;
        for err in [
            decode_ckks(&ctx, &payload, 1).map(drop).expect_err("owning decoder"),
            parse_ckks_views(&ctx, &payload, 1).map(drop).expect_err("borrowing decoder"),
            CanonicalCodec.parse_upload(&ctx, &payload, 1).map(drop).expect_err("codec"),
        ] {
            assert!(matches!(&err, FlError::Payload(m) if m.contains("got tag 1")), "{err}");
        }
    }
}
