//! Borrowed, header-validated views over serialized ciphertexts — the
//! zero-copy half of streaming aggregation.
//!
//! A [`CtView`] aliases the bytes of one wire-format ciphertext
//! (canonical or seed-compressed) without unpacking its residue rows
//! into an owned [`RnsPoly`]. Construction is the one place serialized
//! ciphertext bytes are validated — level range, exact byte length
//! against [`CkksContext::serialized_len`] /
//! [`CkksContext::serialized_len_seeded`], finite positive scale, and
//! the seed integrity digest; the owning deserializers are a view plus
//! [`CtView::to_ciphertext`] — so a constructed view is guaranteed
//! foldable: [`CkksContext::fold_view`] unpacks residues straight out of
//! the receive buffer and modular-adds them into the accumulator in
//! place, one pass per row with no scratch row — no allocation, no
//! division, and zero NTTs.
//!
//! Every wire residue, here and in the owning deserializers, enters
//! `[0, q)` through `modarith::reduce_once`: a `bits_for(q)`-bit value
//! is below `2q`, so one conditional subtract equals `% q` for every
//! value the wire can carry, corrupted ones included.
//!
//! Because a view is validated up front, the fold itself is infallible
//! (beyond the accumulator-compatibility check).
//!
//! Sum-then-scale equals scale-then-sum exactly here: the literal
//! Eq. 2 reference computes `Σᵢ (e·xᵢ) mod q` per residue (with
//! `e = round(w·Δ)`), the fold `e·(Σᵢ xᵢ) mod q` — equal by ring
//! distributivity, and modular addition is exactly associative and
//! commutative, so folds are arrival-order independent and the closed
//! sum serializes to the same bytes as the reference aggregate.

use rhychee_telemetry as telemetry;

use crate::bitpack::BitReader;
use crate::error::FheError;

use super::cipher::{check_addable, CkksCiphertext, CkksContext};
use super::modarith::add_mod;
use super::rns::{Domain, RnsPoly};
use super::seedexp;

/// Which wire format a view's bytes are in. Canonical blobs carry the
/// rows of both polynomials; seeded blobs carry `c0`'s rows plus the
/// 32-byte expansion seed of `c1`. Rows are evaluation-domain in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ViewFormat {
    Canonical,
    Seeded([u8; 32]),
}

/// A borrowed, header-validated view over one serialized ciphertext.
///
/// Produced by [`CkksContext::view_serialized`] /
/// [`CkksContext::view_serialized_seeded`]; consumed by
/// [`CkksContext::fold_view`] without ever materializing an owned
/// ciphertext. [`CtView::to_ciphertext`] bridges back to the owned
/// world when a caller needs one.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct CtView<'a> {
    bytes: &'a [u8],
    levels: usize,
    scale: f64,
    format: ViewFormat,
}

impl<'a> CtView<'a> {
    /// Active modulus levels declared in the header.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Scale Δ' declared in the header.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Whether the underlying bytes are in the seed-compressed format.
    pub fn is_seeded(&self) -> bool {
        matches!(self.format, ViewFormat::Seeded(_))
    }

    /// Materializes an owned ciphertext from the viewed bytes: unpacks
    /// the residue rows and, for the seeded format, re-expands `c1` from
    /// the seed — the result keeps the seed, so it can be re-serialized
    /// in either format.
    ///
    /// # Errors
    ///
    /// Propagates [`FheError::Deserialize`]; unreachable in practice
    /// since view construction already validated the bytes.
    pub fn to_ciphertext(&self, ctx: &CkksContext) -> Result<CkksCiphertext, FheError> {
        let n = ctx.params().n;
        let primes = &ctx.primes()[..self.levels];
        let mut r = self.residue_reader();
        let mut read_poly = || -> Result<RnsPoly, FheError> {
            let mut poly = RnsPoly::zero_in(n, self.levels, Domain::Eval);
            // Each residue is reduced into `[0, q)`: a flipped bit may
            // push it over `q`, and the canonical format's channel-noise
            // semantics are to decrypt garbage, not to error.
            for (i, &q) in primes.iter().enumerate() {
                r.read_residue_row(poly.residues_mut(i), q)?;
            }
            Ok(poly)
        };
        let (c0, c1, c1_seed) = match self.format {
            ViewFormat::Canonical => (read_poly()?, read_poly()?, None),
            ViewFormat::Seeded(seed) => {
                let c0 = read_poly()?;
                let mut c1 = RnsPoly::zero_in(n, self.levels, Domain::Eval);
                let _t = telemetry::timer("fhe.ckks.seedexp");
                for (i, row) in c1.rows_mut().enumerate() {
                    seedexp::expand_row_into(&seed, i, primes[i], row);
                }
                (c0, c1, Some(seed))
            }
        };
        Ok(CkksCiphertext { c0, c1, scale: self.scale, c1_seed })
    }

    /// A reader positioned at the first residue bit. Header bits were
    /// validated at view construction, and the exact length check
    /// guarantees every residue read after this point succeeds.
    fn residue_reader(&self) -> BitReader<'a> {
        let header_bits = match self.format {
            ViewFormat::Canonical => HEADER_BITS,
            ViewFormat::Seeded(_) => HEADER_BITS + SEED_BITS,
        };
        let mut r = BitReader::new(self.bytes);
        r.skip(header_bits).expect("validated header");
        r
    }
}

/// Header bits shared by both formats: levels (8) + scale (64).
const HEADER_BITS: usize = 8 + 64;
/// Extra seeded-format header bits: 256-bit seed + 32-bit digest.
const SEED_BITS: usize = 256 + 32;

impl CkksContext {
    /// Builds a borrowed view over one canonical-format ciphertext:
    /// every hardening check [`CkksContext::deserialize`] applies (it
    /// runs this first), without unpacking residues.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Deserialize`] on an invalid level count, a
    /// byte length that does not match [`CkksContext::serialized_len`]
    /// for the declared levels, or an invalid scale.
    pub fn view_serialized<'a>(&self, bytes: &'a [u8]) -> Result<CtView<'a>, FheError> {
        let (levels, scale, _) = self.view_header(bytes, false)?;
        Ok(CtView { bytes, levels, scale, format: ViewFormat::Canonical })
    }

    /// Builds a borrowed view over one seed-compressed ciphertext:
    /// every hardening check [`CkksContext::deserialize_seeded`] applies
    /// (it runs this first) — including the seed integrity digest —
    /// without unpacking `c0` or expanding `c1`.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Deserialize`] on an invalid level count, a
    /// byte length that does not match
    /// [`CkksContext::serialized_len_seeded`] for the declared levels,
    /// an invalid scale, or a seed that fails its integrity digest.
    pub fn view_serialized_seeded<'a>(&self, bytes: &'a [u8]) -> Result<CtView<'a>, FheError> {
        let (levels, scale, seed) = self.view_header(bytes, true)?;
        let seed = seed.expect("seeded header parse yields a seed");
        Ok(CtView { bytes, levels, scale, format: ViewFormat::Seeded(seed) })
    }

    /// Header parse + validation for both formats — the only code that
    /// decides whether serialized ciphertext bytes are well-formed.
    /// Nothing is allocated before the exact-length check.
    #[allow(clippy::type_complexity)]
    fn view_header(
        &self,
        bytes: &[u8],
        seeded: bool,
    ) -> Result<(usize, f64, Option<[u8; 32]>), FheError> {
        let mut r = BitReader::new(bytes);
        let levels = r.read_bits(8)? as usize;
        if levels == 0 || levels > self.primes().len() {
            return Err(FheError::Deserialize(format!("invalid level count {levels}")));
        }
        let (expected, what) = if seeded {
            (self.serialized_len_seeded(levels), "seeded ciphertext")
        } else {
            (self.serialized_len(levels), "ciphertext")
        };
        if bytes.len() != expected {
            return Err(FheError::Deserialize(format!(
                "{} bytes for a {levels}-level {what}, expected {expected}",
                bytes.len()
            )));
        }
        let scale = f64::from_bits(r.read_bits(64)?);
        if !scale.is_finite() || scale <= 0.0 {
            return Err(FheError::Deserialize("invalid scale".into()));
        }
        if !seeded {
            return Ok((levels, scale, None));
        }
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(8) {
            chunk.copy_from_slice(&r.read_bits(64)?.to_le_bytes());
        }
        if r.read_bits(32)? as u32 != seedexp::seed_check(&seed) {
            return Err(FheError::Deserialize("seed integrity check failed".into()));
        }
        Ok((levels, scale, Some(seed)))
    }

    /// An all-zero accumulator shaped to fold `view` into: the view's
    /// levels and scale. Folding any number of compatible views — of
    /// either format — into it accumulates their raw (unscaled)
    /// homomorphic sum.
    pub fn accumulator_for(&self, view: &CtView<'_>) -> CkksCiphertext {
        let n = self.params().n;
        CkksCiphertext {
            c0: RnsPoly::zero_in(n, view.levels, Domain::Eval),
            c1: RnsPoly::zero_in(n, view.levels, Domain::Eval),
            scale: view.scale,
            c1_seed: None,
        }
    }

    /// Checks that `view` can fold into `acc`: equal levels and scales
    /// within the same relative tolerance as
    /// [`CkksContext::add_assign`]. Callers that pre-check every view
    /// of an upload make the subsequent folds infallible, so a partial
    /// (accumulator-corrupting) fold can never happen.
    ///
    /// # Errors
    ///
    /// [`FheError::LevelMismatch`] or [`FheError::ScaleMismatch`].
    pub fn check_view(&self, acc: &CkksCiphertext, view: &CtView<'_>) -> Result<(), FheError> {
        check_addable((acc.levels(), acc.scale), (view.levels, view.scale))
    }

    /// Folds a viewed upload into the running encrypted sum:
    /// `acc += view`, residue by residue, straight out of the wire
    /// bytes. No owned ciphertext is built, nothing is allocated (not
    /// even a scratch row) and no transform runs: each wire row is
    /// unpacked, reduced and modular-added into its accumulator row in
    /// one pass, and seeded `c1` rows are re-expanded into the modular
    /// add one draw at a time. Residues are reduced into `[0, q)` on the
    /// way in by one conditional subtract — `% q` for every value a
    /// `bits_for(q)`-bit field can hold — exactly as the owning
    /// deserializers do, so folding a corrupted canonical blob
    /// accumulates garbage rather than erroring (the channel-noise
    /// semantics of the canonical format).
    ///
    /// # Errors
    ///
    /// Propagates [`CkksContext::check_view`] incompatibilities; the
    /// fold itself cannot fail on a constructed view.
    pub fn fold_view(&self, acc: &mut CkksCiphertext, view: &CtView<'_>) -> Result<(), FheError> {
        self.check_view(acc, view)?;
        telemetry::count("fhe.ckks.fold", 1);
        let primes = &self.primes()[..view.levels];
        let mut r = view.residue_reader();
        let mut fold_row = |acc_row: &mut [u64], q: u64| {
            r.add_residue_row(acc_row, q).expect("length-validated view");
        };
        match view.format {
            ViewFormat::Canonical => {
                for poly in [&mut acc.c0, &mut acc.c1] {
                    for (i, &q) in primes.iter().enumerate() {
                        fold_row(poly.residues_mut(i), q);
                    }
                }
            }
            ViewFormat::Seeded(seed) => {
                for (i, &q) in primes.iter().enumerate() {
                    fold_row(acc.c0.residues_mut(i), q);
                }
                let _t = telemetry::timer("fhe.ckks.seedexp");
                for (i, &q) in primes.iter().enumerate() {
                    let mut stream = seedexp::SeedStream::new(&seed, i as u64);
                    for a in acc.c1.residues_mut(i) {
                        *a = add_mod(*a, stream.uniform_below(q), q);
                    }
                }
            }
        }
        acc.c1_seed = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::params::CkksParams;

    use super::*;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::toy()).expect("params")
    }

    #[test]
    fn canonical_view_validation_matches_deserialize() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let (_, pk) = ctx.generate_keys(&mut rng);
        let ct = ctx.encrypt(&pk, &[1.0, -2.0, 3.5], &mut rng).expect("encrypt");
        let bytes = ctx.serialize(&ct);

        let view = ctx.view_serialized(&bytes).expect("valid view");
        assert_eq!(view.levels(), ct.levels());
        assert_eq!(view.scale(), ct.scale());
        assert!(!view.is_seeded());

        // Every structural rejection of `deserialize` also rejects the view.
        for corrupt in [
            &bytes[..bytes.len() - 1], // truncated
            &bytes[..0],               // empty
        ] {
            assert_eq!(ctx.view_serialized(corrupt).is_err(), ctx.deserialize(corrupt).is_err());
            assert!(ctx.view_serialized(corrupt).is_err());
        }
        let mut oversized = bytes.clone();
        oversized.push(0);
        assert!(ctx.view_serialized(&oversized).is_err());
        assert!(ctx.deserialize(&oversized).is_err());
        let mut bad_levels = bytes.clone();
        bad_levels[0] = 0xFF;
        assert!(ctx.view_serialized(&bad_levels).is_err());
        assert!(ctx.deserialize(&bad_levels).is_err());
        let mut bad_scale = bytes.clone();
        // Scale bits occupy bits 8..72 → bytes 1..9 hold them exactly.
        bad_scale[1..9].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(ctx.view_serialized(&bad_scale).is_err());
        assert!(ctx.deserialize(&bad_scale).is_err());
    }

    #[test]
    fn seeded_view_validates_seed_digest() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let (sk, _) = ctx.generate_keys(&mut rng);
        let ct = ctx.encrypt_symmetric(&sk, &[0.25; 16], &mut rng).expect("encrypt");
        let bytes = ctx.serialize_seeded(&ct).expect("seeded");

        let view = ctx.view_serialized_seeded(&bytes).expect("valid view");
        assert!(view.is_seeded());

        // A flipped seed byte must be caught, exactly as deserialize_seeded.
        let mut flipped = bytes.clone();
        flipped[12] ^= 0x20; // inside the 32-byte seed (bits 72..328)
        assert!(ctx.view_serialized_seeded(&flipped).is_err());
        assert!(ctx.deserialize_seeded(&flipped).is_err());
        assert!(ctx.view_serialized_seeded(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn fold_equals_deserialize_and_add_bit_for_bit() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let (_, pk) = ctx.generate_keys(&mut rng);
        let blobs: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                let ct = ctx.encrypt(&pk, &[i as f64, 1.0], &mut rng).expect("encrypt");
                ctx.serialize(&ct)
            })
            .collect();

        // Reference: owned deserialize + add_assign in order.
        let mut reference = ctx.deserialize(&blobs[0]).expect("deserialize");
        for blob in &blobs[1..] {
            let ct = ctx.deserialize(blob).expect("deserialize");
            ctx.add_assign(&mut reference, &ct).expect("add");
        }

        // Streaming: zero accumulator + fold, in a shuffled order.
        let view0 = ctx.view_serialized(&blobs[0]).expect("view");
        let mut acc = ctx.accumulator_for(&view0);
        for idx in [2usize, 0, 3, 1] {
            let view = ctx.view_serialized(&blobs[idx]).expect("view");
            ctx.fold_view(&mut acc, &view).expect("fold");
        }
        assert_eq!(ctx.serialize(&acc), ctx.serialize(&reference));
    }

    #[test]
    fn seeded_fold_equals_deserialize_and_add_bit_for_bit() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(11);
        let (sk, _) = ctx.generate_keys(&mut rng);
        let blobs: Vec<Vec<u8>> = (0..3)
            .map(|i| {
                let ct = ctx.encrypt_symmetric(&sk, &[0.5 * i as f64], &mut rng).expect("encrypt");
                ctx.serialize_seeded(&ct).expect("seeded")
            })
            .collect();

        let mut reference = ctx.deserialize_seeded(&blobs[0]).expect("deserialize");
        for blob in &blobs[1..] {
            let ct = ctx.deserialize_seeded(blob).expect("deserialize");
            ctx.add_assign(&mut reference, &ct).expect("add");
        }

        let view0 = ctx.view_serialized_seeded(&blobs[0]).expect("view");
        let mut acc = ctx.accumulator_for(&view0);
        for blob in blobs.iter().rev() {
            let view = ctx.view_serialized_seeded(blob).expect("view");
            ctx.fold_view(&mut acc, &view).expect("fold");
        }
        assert_eq!(ctx.serialize(&acc), ctx.serialize(&reference));
    }

    #[test]
    fn fold_rejects_incompatible_accumulator() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(17);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let full = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
        let dropped = ctx.rescale(&ctx.mul_scalar(&full, 1.0)).expect("rescale");
        let (full, dropped) = (ctx.serialize(&full), ctx.serialize(&dropped));
        let seeded_ct = ctx.encrypt_symmetric(&sk, &[1.0], &mut rng).expect("encrypt");
        let seeded = ctx.serialize_seeded(&seeded_ct).expect("seeded");

        let vf = ctx.view_serialized(&full).expect("view");
        let vd = ctx.view_serialized(&dropped).expect("view");
        let vs = ctx.view_serialized_seeded(&seeded).expect("view");
        // A view at another level or scale is refused, and the
        // accumulator is untouched by the rejected fold.
        let mut acc = ctx.accumulator_for(&vf);
        assert!(matches!(ctx.fold_view(&mut acc, &vd), Err(FheError::LevelMismatch { .. })));
        let mut low = ctx.accumulator_for(&vd);
        low.scale *= 2.0;
        assert!(matches!(ctx.fold_view(&mut low, &vd), Err(FheError::ScaleMismatch { .. })));
        assert_eq!(ctx.serialize(&acc), ctx.serialize(&ctx.accumulator_for(&vf)));
        // The wire format is not part of compatibility: one accumulator
        // folds canonical and seeded views alike, to the owned sum.
        ctx.fold_view(&mut acc, &vf).expect("canonical fold");
        ctx.fold_view(&mut acc, &vs).expect("seeded fold");
        let mut owned = ctx.deserialize(&full).expect("deserialize");
        ctx.add_assign(&mut owned, &seeded_ct).expect("add");
        assert_eq!(ctx.serialize(&acc), ctx.serialize(&owned));
    }

    #[test]
    fn to_ciphertext_matches_owned_deserialize() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(19);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let canonical = ctx.serialize(&ctx.encrypt(&pk, &[3.0], &mut rng).expect("encrypt"));
        let view = ctx.view_serialized(&canonical).expect("view");
        let owned = view.to_ciphertext(&ctx).expect("materialize");
        assert_eq!(ctx.serialize(&owned), canonical);

        let seeded_ct = ctx.encrypt_symmetric(&sk, &[4.0], &mut rng).expect("encrypt");
        let seeded = ctx.serialize_seeded(&seeded_ct).expect("seeded");
        let view = ctx.view_serialized_seeded(&seeded).expect("view");
        let owned = view.to_ciphertext(&ctx).expect("materialize");
        assert_eq!(ctx.serialize_seeded(&owned).expect("re-seeded"), seeded);
    }
}
