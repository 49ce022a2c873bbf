//! The one CKKS aggregation path: every encrypted upload — a borrowed
//! [`CtView`] over its payload bytes, whether they arrived in a TCP frame
//! or crossed an in-process link — folds into one accumulator per model
//! chunk, and the round closes with a single scalar multiply.
//!
//! The literal Eq. 2 reference
//! ([`packing::homomorphic_weighted_average`]) computes, per residue,
//! `Σᵢ (e·xᵢ) mod q` with `e = round(w·Δ)` — scaling each upload and
//! then adding in client-id order. The accumulator keeps the raw modular
//! sum `Σᵢ xᵢ` and applies one `mul_scalar(·, w)` at round close:
//! `e·Σᵢxᵢ ≡ Σᵢ(e·xᵢ) (mod q)` by ring distributivity, and modular
//! addition is exactly associative and commutative, so the closed sum
//! is **bit-identical** to the reference for every arrival order and
//! parallelism degree, in either wire format, every ciphertext being
//! evaluation-domain (locked in by tests/parallel_determinism.rs and the
//! unit gates below).
//!
//! Two consequences shape the API:
//!
//! * the server multiplies by one scalar, so per-client weights cannot
//!   be applied here. [`Aggregation::FedNova`] clients therefore scale
//!   their own model by `1/τᵢ` before encryption
//!   ([`round::prescale_update`]) and the close multiplies by
//!   `1/Σⱼ(1/τⱼ)`, which the round's ledger ([`ServerRound`]) sums over
//!   the step counts the uploads declare;
//! * the aggregator holds exactly one accumulator ciphertext per model
//!   chunk — server memory is O(1) in client count. Uploads live only
//!   for the duration of their fold.
//!
//! [`packing::homomorphic_weighted_average`]: crate::packing::homomorphic_weighted_average
//! [`round::prescale_update`]: crate::round::prescale_update

use std::sync::atomic::{AtomicU64, Ordering};

use rhychee_fhe::ckks::{CkksCiphertext, CkksContext, CtView};
use rhychee_telemetry as telemetry;

use crate::config::Aggregation;
use crate::error::FlError;
use crate::packing::PackingConfig;
use crate::round::{ClientUpdate, ServerRound};

/// Process-wide bytes held by live accumulators, feeding the
/// `core.stream_accum` entry of the memory breakdown. Charged when an
/// aggregator materializes its per-chunk sums, released when it closes
/// or drops.
static ACCUM_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bytes currently held by live [`StreamingAggregator`] accumulators.
pub fn accumulator_bytes() -> u64 {
    ACCUM_BYTES.load(Ordering::Relaxed)
}

/// The running encrypted sum of one round: one accumulator ciphertext
/// per model chunk, a fold per upload, one scalar multiplication at
/// close.
///
/// Who counts and with what weight is its private [`ServerRound`]'s
/// call: wrong-round and duplicate uploads are rejected (`Ok(false)`,
/// the caller NACKs them) without touching the accumulator, `received`
/// is the ledger's count, and the close scalar is the ledger's. The
/// aggregator itself owns only the accumulators and the checks that an
/// upload's chunks fit them. A fold that succeeded stays in the sum even
/// if its client later disconnects.
#[derive(Debug)]
pub struct StreamingAggregator {
    ledger: ServerRound<()>,
    acc: Vec<CkksCiphertext>,
}

impl StreamingAggregator {
    /// Creates an empty aggregator for `round`.
    ///
    /// # Errors
    ///
    /// Never errors: every aggregation rule folds. The `Result` is the
    /// signature callers already handle.
    pub fn new(round: usize, aggregation: Aggregation) -> Result<Self, FlError> {
        telemetry::mem::register_source("core.stream_accum", accumulator_bytes);
        Ok(StreamingAggregator { ledger: ServerRound::new(round, aggregation), acc: Vec::new() })
    }

    /// Heap bytes this aggregator's accumulator ciphertexts hold — the
    /// O(1)-in-client-count resident cost of aggregation.
    pub fn heap_bytes(&self) -> u64 {
        self.acc.iter().map(CkksCiphertext::heap_bytes).sum()
    }

    /// Uploads folded into the sum so far; a fold is never un-counted
    /// by a later disconnect.
    pub fn received(&self) -> usize {
        self.ledger.received()
    }

    /// Whether the ledger would count an upload of `client_id` for
    /// `round`.
    pub(crate) fn admits(&self, client_id: usize, round: usize) -> bool {
        self.ledger.admits(client_id, round)
    }

    /// [`StreamingAggregator::fold_views`] for an upload that declares
    /// no step count (τ = 1).
    ///
    /// # Errors
    ///
    /// As [`StreamingAggregator::fold_views`].
    pub fn fold_upload(
        &mut self,
        ctx: &CkksContext,
        client_id: usize,
        round: usize,
        views: &[CtView<'_>],
    ) -> Result<bool, FlError> {
        self.fold_views(ctx, &ClientUpdate { client_id, round, steps: 1, payload: views })
    }

    /// Folds one client's upload (one view per model chunk) into the
    /// running sum, zero-copy from the wire bytes.
    ///
    /// Returns `Ok(false)` — a NACK, accumulator untouched — for an
    /// empty or wrong-chunk-count payload, chunks incompatible with the
    /// accumulator (level/scale), or an update the ledger refuses
    /// (wrong round, duplicate client id). Every view is checked
    /// *before* any chunk folds, so a rejected upload can never leave
    /// the sum half-updated. Chunks fold in parallel at the context's
    /// [`Parallelism`](rhychee_par::Parallelism); each chunk owns its
    /// accumulator slot, so the result is degree-independent.
    ///
    /// # Errors
    ///
    /// This method itself never errors; the `Result` keeps the
    /// signature open for future invariant checks that would need
    /// [`FlError::StreamingAbort`].
    pub fn fold_views<'a, P: AsRef<[CtView<'a>]>>(
        &mut self,
        ctx: &CkksContext,
        update: &ClientUpdate<P>,
    ) -> Result<bool, FlError> {
        let &ClientUpdate { client_id, round, steps, ref payload } = update;
        let views = payload.as_ref();
        // The first accepted upload defines the model shape; its own
        // all-zero accumulators are compatible by construction.
        let fits = match self.acc.len() {
            0 => !views.is_empty(),
            chunks => {
                views.len() == chunks
                    && self.acc.iter().zip(views).all(|(acc, v)| ctx.check_view(acc, v).is_ok())
            }
        };
        if !fits || !self.ledger.accept(ClientUpdate { client_id, round, steps, payload: () }) {
            return Ok(false);
        }
        if self.acc.is_empty() {
            self.acc = views.iter().map(|v| ctx.accumulator_for(v)).collect();
            ACCUM_BYTES.fetch_add(self.heap_bytes(), Ordering::Relaxed);
        }
        rhychee_par::for_each_mut(ctx.parallelism(), &mut self.acc, |i, acc| {
            ctx.fold_view(acc, &views[i]).expect("views validated before folding");
        });
        telemetry::count("fl.agg.folds", 1);
        Ok(true)
    }

    /// Closes the round the way `packing` requires: dense slots take
    /// the weighted close ([`StreamingAggregator::finish`]),
    /// bit-interleaved lanes the raw sum
    /// ([`StreamingAggregator::finish_sum`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::StreamingAbort`] when no upload was ever
    /// folded.
    pub fn close(
        self,
        ctx: &CkksContext,
        packing: &PackingConfig,
    ) -> Result<Vec<CkksCiphertext>, FlError> {
        match packing {
            PackingConfig::Dense => self.finish(ctx),
            PackingConfig::BitInterleaved(_) => self.finish_sum(),
        }
    }

    /// Closes the round: multiplies each chunk of the summed
    /// ciphertexts by the round's one scalar weight and returns the
    /// aggregate — `HomMul(Σᵢ Enc(LMᵢ), 1/P)` (paper Eq. 2),
    /// byte-identical to the reference oracle
    /// [`ServerRound::aggregate_ckks`](crate::round::ServerRound::aggregate_ckks).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::StreamingAbort`] when no upload was ever
    /// folded (callers enforce quorum before closing, so this is an
    /// invariant breach, not a recoverable state).
    pub fn finish(self, ctx: &CkksContext) -> Result<Vec<CkksCiphertext>, FlError> {
        self.ledger.check_nonempty(FlError::StreamingAbort)?;
        let w = self.ledger.close_scalar();
        Ok(rhychee_par::map(ctx.parallelism(), self.acc.len(), |i| ctx.mul_scalar(&self.acc[i], w)))
    }

    /// Closes the round *without* the plaintext multiply, returning the
    /// raw encrypted sum — the finalizer for bit-interleaved uploads,
    /// whose packed lanes a `mul_scalar` would smear across boundaries.
    /// The contributor count rides in-band (counter lane), so
    /// decryption recovers the mean on its own.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::StreamingAbort`] when no upload was ever
    /// folded, exactly as [`StreamingAggregator::finish`].
    pub fn finish_sum(mut self) -> Result<Vec<CkksCiphertext>, FlError> {
        self.ledger.check_nonempty(FlError::StreamingAbort)?;
        // The sum leaves with the caller: release its bytes here, so
        // `Drop` finds an empty accumulator and releases nothing more.
        ACCUM_BYTES.fetch_sub(self.heap_bytes(), Ordering::Relaxed);
        Ok(std::mem::take(&mut self.acc))
    }
}

impl Drop for StreamingAggregator {
    fn drop(&mut self) {
        // The accumulator shape is fixed at first fold, so the bytes
        // charged there are exactly what is released here.
        ACCUM_BYTES.fetch_sub(self.heap_bytes(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rhychee_fhe::params::CkksParams;
    use rhychee_par::Parallelism;

    use crate::packing;
    use crate::round;

    use super::*;

    /// Per-client serialized chunk blobs (outer: client, inner: chunk).
    type Blobs = Vec<Vec<Vec<u8>>>;

    /// Encrypts `clients` random models (two chunks each) and returns
    /// `(ctx, per-client serialized chunk blobs, per-client ciphertexts)`.
    fn encrypted_uploads(
        clients: usize,
        par: Parallelism,
    ) -> (CkksContext, Blobs, Vec<Vec<CkksCiphertext>>) {
        let ctx = CkksContext::with_parallelism(CkksParams::toy(), par).expect("params");
        let mut rng = StdRng::seed_from_u64(99);
        let (_, pk) = ctx.generate_keys(&mut rng);
        let num_params = ctx.slot_count() + 7; // force two chunks
        let dense = PackingConfig::dense();
        let mut blobs = Vec::new();
        let mut models = Vec::new();
        for c in 0..clients {
            let mut crng = StdRng::seed_from_u64(1000 + c as u64);
            let flat: Vec<f32> = (0..num_params).map(|_| crng.gen_range(-1.0..1.0)).collect();
            let cts =
                packing::encrypt_model_with(&ctx, &pk, &flat, &dense, &mut crng).expect("encrypt");
            blobs.push(cts.iter().map(|ct| ctx.serialize(ct)).collect());
            models.push(cts);
        }
        (ctx, blobs, models)
    }

    fn views<'a>(ctx: &CkksContext, blobs: &'a [Vec<u8>]) -> Vec<CtView<'a>> {
        blobs.iter().map(|b| ctx.view_serialized(b).expect("view")).collect()
    }

    fn bytes(ctx: &CkksContext, cts: &[CkksCiphertext]) -> Vec<Vec<u8>> {
        cts.iter().map(|ct| ctx.serialize(ct)).collect()
    }

    #[test]
    fn finish_sum_preserves_interleaved_lanes() {
        // Fold bit-interleaved uploads and close through `close`: the
        // raw encrypted sum must decrypt to the exact per-coordinate
        // mean — the `1/P` multiply of `finish` would smear lanes.
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let mut rng = StdRng::seed_from_u64(77);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let p = 3;
        let cfg = packing::PackingConfig::interleaved(8, 1.0, p).expect("valid layout");
        let num_params = 2 * ctx.slot_count(); // multiple chunks
        let mut agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
        let mut plain: Vec<Vec<f32>> = Vec::new();
        for c in 0..p {
            let mut crng = StdRng::seed_from_u64(500 + c as u64);
            let flat: Vec<f32> = (0..num_params).map(|_| crng.gen_range(-1.0..1.0)).collect();
            let cts =
                packing::encrypt_model_with(&ctx, &pk, &flat, &cfg, &mut crng).expect("encrypt");
            let blobs = bytes(&ctx, &cts);
            assert!(agg.fold_upload(&ctx, c, 0, &views(&ctx, &blobs)).expect("fold"));
            plain.push(flat);
        }
        let sum = agg.close(&ctx, &cfg).expect("close");
        let back = packing::decrypt_model_with(&ctx, &sk, &sum, num_params, &cfg).expect("decrypt");
        let step = 1.0f32 / 127.0;
        for i in 0..num_params {
            let mean: f32 = plain.iter().map(|m| m[i]).sum::<f32>() / p as f32;
            assert!((back[i] - mean).abs() <= step, "param {i}: {} vs {mean}", back[i]);
        }
    }

    #[test]
    fn streamed_sum_is_bit_identical_to_batch_across_orders() {
        // View fold == the Eq. 2 reference oracle, byte for byte, in
        // every arrival order and at both degrees.
        for par in [Parallelism::Fixed(1), Parallelism::Auto] {
            let (ctx, blobs, models) = encrypted_uploads(4, par);
            let weights = vec![0.25; 4];
            let batch =
                packing::homomorphic_weighted_average(&ctx, &models, &weights).expect("batch");
            let batch_bytes = bytes(&ctx, &batch);

            for order in [[0usize, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]] {
                let mut by_view = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
                for &c in &order {
                    assert!(by_view
                        .fold_upload(&ctx, c, 0, &views(&ctx, &blobs[c]))
                        .expect("fold"));
                }
                assert_eq!(by_view.received(), 4);
                let streamed = bytes(&ctx, &by_view.finish(&ctx).expect("finish"));
                assert_eq!(streamed, batch_bytes, "{par}: view fold, order {order:?}");
            }
        }
    }

    #[test]
    fn rejects_wrong_round_duplicates_and_shape_mismatches() {
        let (ctx, blobs, models) = encrypted_uploads(2, Parallelism::Fixed(1));
        let mut agg = StreamingAggregator::new(3, Aggregation::FedProx { mu: 0.1 }).expect("prox");
        let first = views(&ctx, &blobs[0]);
        assert!(!agg.fold_upload(&ctx, 0, 2, &first).expect("wrong round"), "wrong round NACKs");
        assert!(agg.fold_upload(&ctx, 0, 3, &first).expect("fold"));
        assert!(!agg.fold_upload(&ctx, 0, 3, &first).expect("dup"), "duplicate NACKs");
        // Wrong chunk count: one view instead of two.
        assert!(!agg.fold_upload(&ctx, 1, 3, &first[..1]).expect("short"), "short payload NACKs");
        assert!(!agg.fold_upload(&ctx, 1, 3, &[]).expect("empty"), "empty payload NACKs");
        // Chunks at another scale than the accumulator's NACK too.
        let rescaled: Vec<CkksCiphertext> =
            models[1].iter().map(|ct| ctx.mul_scalar(ct, 1.0)).collect();
        let rescaled = bytes(&ctx, &rescaled);
        assert!(!agg.fold_upload(&ctx, 1, 3, &views(&ctx, &rescaled)).expect("scale"));
        assert_eq!(agg.received(), 1);
    }

    #[test]
    fn fednova_prescaled_fold_closes_to_the_weighted_mean_in_any_order() {
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let mut rng = StdRng::seed_from_u64(5);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let taus = [3usize, 40, 7, 1];
        let dense = PackingConfig::dense();
        let models: Vec<Vec<f32>> = (0..4)
            .map(|c| (0..300).map(|i| ((c * 300 + i) as f32 * 0.01).cos()).collect())
            .collect();
        let uploads: Vec<Vec<CkksCiphertext>> = models
            .iter()
            .zip(taus)
            .map(|(m, tau)| {
                let mut flat = m.clone();
                round::prescale_update(Aggregation::FedNova, tau, &mut flat);
                packing::encrypt_model_with(&ctx, &pk, &flat, &dense, &mut rng).expect("encrypt")
            })
            .collect();
        let blobs: Blobs = uploads.iter().map(|cts| bytes(&ctx, cts)).collect();
        let close = |order: [usize; 4]| {
            let mut agg = StreamingAggregator::new(0, Aggregation::FedNova).expect("fednova");
            for c in order {
                let payload = views(&ctx, &blobs[c]);
                let update = ClientUpdate { client_id: c, round: 0, steps: taus[c], payload };
                assert!(agg.fold_views(&ctx, &update).expect("fold"));
            }
            agg.finish(&ctx).expect("finish")
        };
        let global = close([0, 1, 2, 3]);
        assert_eq!(bytes(&ctx, &global), bytes(&ctx, &close([3, 1, 0, 2])), "arrival order");

        let refs: Vec<&[f32]> = models.iter().map(Vec::as_slice).collect();
        let inv: Vec<f64> = taus.iter().map(|&t| 1.0 / t as f64).collect();
        let total: f64 = inv.iter().sum();
        let weights: Vec<f64> = inv.iter().map(|w| w / total).collect();
        let expected = round::weighted_average(&refs, &weights);
        let back = packing::decrypt_model_with(&ctx, &sk, &global, 300, &dense).expect("decrypt");
        for (got, want) in back.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
    }

    #[test]
    fn finishing_an_empty_round_aborts() {
        let ctx = CkksContext::new(CkksParams::toy()).expect("params");
        let agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
        let err = agg.finish(&ctx).expect_err("no uploads");
        assert!(matches!(err, FlError::StreamingAbort(_)));
        assert!(err.to_string().contains("streaming aggregation aborted"));
        let agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
        assert!(matches!(agg.finish_sum(), Err(FlError::StreamingAbort(_))));
    }

    #[test]
    fn accumulator_bytes_track_aggregator_lifetime() {
        let (ctx, blobs, _) = encrypted_uploads(1, Parallelism::Fixed(1));
        let mut agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("fedavg");
        assert_eq!(agg.heap_bytes(), 0, "no accumulator before the first fold");
        assert!(agg.fold_upload(&ctx, 0, 0, &views(&ctx, &blobs[0])).expect("fold"));
        let held = agg.heap_bytes();
        assert!(held > 0, "materialized accumulator holds heap bytes");
        // The global counter is Σ bytes of live aggregators, so while
        // ours is alive it must cover at least our contribution — true
        // even with sibling tests charging/releasing concurrently. The
        // exact release on finish / finish_sum / drop is asserted in
        // tests/accumulator_bytes.rs, which has the process to itself.
        let charged = accumulator_bytes();
        assert!(charged >= held, "global counter covers this aggregator: {charged} < {held}");
    }
}
