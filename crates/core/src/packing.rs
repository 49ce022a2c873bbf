//! Maximum-packing of model parameters into CKKS ciphertext slots
//! (paper §IV-A step 2).
//!
//! A naive design would encrypt each class hypervector as its own
//! ciphertext, wasting most of the `N/2` slots. Rhychee-FL instead
//! flattens the whole `L × D` model and fills every slot of every
//! ciphertext, needing exactly `⌈DL / (N/2)⌉` ciphertexts.
//!
//! The slot layout is the one parameter of the pack → encrypt → sum →
//! decrypt → unpack pipeline: every function here takes a
//! [`PackingConfig`], whose default value [`PackingConfig::dense`] is
//! the paper's one-coordinate-per-slot layout.
//!
//! The [`PackingConfig::BitInterleaved`] mode (FedBit-style co-design)
//! goes further: coordinates are quantized to `bits` bits and several
//! are packed per slot at a lane stride wide enough that the
//! homomorphic *sum* of up to `max_clients` uploads never carries
//! across lanes. Aggregation is then a pure ciphertext addition
//! ([`StreamingAggregator::finish_sum`](crate::StreamingAggregator::finish_sum));
//! the division by the contributor count moves to after decryption.
//! The count itself travels in-band: every client packs the constant
//! `1` into a reserved counter lane (lane 0 of the first slot), so the
//! summed aggregate is self-describing — dropouts and partial quorums
//! need no side channel.

use rand::Rng;

use rhychee_fhe::ckks::{
    CkksCiphertext, CkksContext, CkksEncryptArena, CkksPublicKey, CkksSecretKey,
};
use rhychee_fhe::FheError;

use crate::config::Aggregation;
use crate::error::FlError;

/// Integer payload budget of one CKKS slot under bit-interleaved
/// packing, in bits.
///
/// A packed slot travels through the encoder as an `f64` and comes back
/// from decryption with an absolute error well below `0.5` at the
/// workspace scales (≥ 2^26), so exact recovery needs the packed
/// integer to stay (a) inside the `f64` mantissa and (b) small enough
/// that the canonical-embedding round trip's *relative* error
/// (~`2^-52 · √N` per slot) keeps the absolute error under the rounding
/// threshold. 32 bits leaves ~20 bits of margin at `N = 8192` — the
/// conservative choice, since a mis-rounded lane corrupts a gradient
/// coordinate silently.
const SLOT_PAYLOAD_BITS: u32 = 32;

/// How a flat model becomes slot values: everything both endpoints
/// must agree on to pack, aggregate, and unpack it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PackingConfig {
    /// The paper's layout: one `f32` coordinate per slot.
    Dense,
    /// FedBit-style co-design: several quantized coordinates per slot,
    /// aggregated by homomorphic sum. Built by
    /// [`PackingConfig::interleaved`].
    BitInterleaved(Lanes),
}

/// The lane layout of [`PackingConfig::BitInterleaved`]: coordinates on
/// the grid of `bits` bits over `[-clip, clip]`, packed at a stride
/// wide enough that the sum of up to `max_clients` uploads never
/// carries across lanes. Only [`PackingConfig::interleaved`] builds
/// one, so every value is a layout that fits a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes {
    grid: Grid,
    max_clients: usize,
}

impl PackingConfig {
    /// The paper's dense one-coordinate-per-slot layout.
    pub const fn dense() -> Self {
        PackingConfig::Dense
    }

    /// Bit-interleaved packing at `bits` bits per coordinate, clipping
    /// to `[-clip, clip]`, with carry-free headroom for `max_clients`
    /// summed uploads.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::InvalidParams`] when [`Grid::new`] refuses
    /// `bits` or `clip`, `max_clients` is zero, or the lane stride
    /// `bits + ⌈log2 max_clients⌉` exceeds the 32-bit slot payload.
    pub fn interleaved(bits: u32, clip: f32, max_clients: usize) -> Result<Self, FheError> {
        let grid = Grid::new(bits, clip)?;
        if max_clients == 0 {
            return Err(FheError::InvalidParams("max_clients must be positive".into()));
        }
        let lanes = Lanes { grid, max_clients };
        let lane = lanes.lane_bits();
        if lane > SLOT_PAYLOAD_BITS {
            return Err(FheError::InvalidParams(format!(
                "lane stride {lane} bits ({bits} + ⌈log2 {max_clients}⌉) exceeds the \
                 {SLOT_PAYLOAD_BITS}-bit slot payload budget"
            )));
        }
        Ok(PackingConfig::BitInterleaved(lanes))
    }

    /// Checks this layout against the federation it packs for.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for bit-interleaved packing
    /// under [`Aggregation::FedNova`] (the lane-packed sum is uniform,
    /// and a client pre-scaling by `1/τ` would push its coordinates
    /// below the quantisation step) or with lanes sized for fewer than
    /// `clients` summands (a full round's sum would overflow the
    /// contributor counter, and every client would refuse its
    /// broadcast).
    pub fn check_federation(
        &self,
        aggregation: Aggregation,
        clients: usize,
    ) -> Result<(), FlError> {
        let PackingConfig::BitInterleaved(lanes) = self else {
            return Ok(());
        };
        if matches!(aggregation, Aggregation::FedNova) {
            return Err(FlError::InvalidConfig(
                "bit-interleaved packing aggregates by uniform sum; FedNova's per-client \
                 weights require the dense layout"
                    .into(),
            ));
        }
        if lanes.max_clients < clients {
            return Err(FlError::InvalidConfig(format!(
                "bit-interleaved lanes sum at most {} uploads, but the federation has {clients} \
                 clients",
                lanes.max_clients
            )));
        }
        Ok(())
    }

    /// Slots one flat model occupies under this layout, counting the
    /// reserved contributor-counter slot.
    fn slots_for(&self, num_params: usize) -> usize {
        match self {
            PackingConfig::Dense => num_params,
            PackingConfig::BitInterleaved(lanes) => 1 + num_params.div_ceil(lanes.per_slot()),
        }
    }
}

impl Lanes {
    /// Stride of one packed coordinate in bits: the grid width plus
    /// headroom for summing `max_clients` lane values without carry
    /// (`max_clients · (2^bits − 1) < 2^lane_bits`).
    fn lane_bits(self) -> u32 {
        self.grid.bits.saturating_add(ceil_log2(self.max_clients))
    }

    /// Coordinates carried per slot, at least 1 for any built layout.
    fn per_slot(self) -> usize {
        (SLOT_PAYLOAD_BITS / self.lane_bits()) as usize
    }

    /// Quantizes, bias-encodes, and lane-packs a flat model into slot
    /// values: word 0 is the contributor counter (this client's
    /// constant `1` in lane 0), the rest carry [`Lanes::per_slot`]
    /// coordinates each, every one on the grid, so a sum of
    /// `k ≤ max_clients` clients stays below `2^lane_bits` —
    /// lane-carry-free by construction.
    ///
    /// # Errors
    ///
    /// [`FheError::NonFinitePlaintext`] for the first NaN or infinite
    /// coordinate, before any is quantized.
    fn pack(self, flat: &[f32], slots: usize) -> Result<Vec<Vec<f64>>, FheError> {
        Grid::check_finite(flat)?;
        let (lane_bits, per_slot) = (self.lane_bits(), self.per_slot());
        let mut words = Vec::with_capacity(1 + flat.len().div_ceil(per_slot));
        words.push(1.0); // contributor counter: lane 0 of slot 0
        for group in flat.chunks(per_slot) {
            let lane_vals = group.iter().map(|&x| self.grid.quantize(x));
            // Exact as f64: a packed word is < 2^SLOT_PAYLOAD_BITS.
            words.push(pack_lanes(lane_vals, lane_bits) as f64);
        }
        Ok(words.chunks(slots).map(<[f64]>::to_vec).collect())
    }

    /// The mean model of the `k` uploads whose sum decrypted to `slots`
    /// (the counter slot first, then at least `num_params / per_slot`
    /// packed words): `k` is read from the counter lane, each lane sum
    /// is un-biased, divided by `k` and dequantized.
    ///
    /// # Errors
    ///
    /// [`FheError::Deserialize`] when a slot decodes outside the packed
    /// integer range or the counter is outside `1..=max_clients`.
    fn unpack<'a>(
        self,
        slots: impl Iterator<Item = &'a f64>,
        num_params: usize,
    ) -> Result<Vec<f32>, FheError> {
        let (lane_bits, per_slot) = (self.lane_bits(), self.per_slot());
        let words: Vec<u64> =
            slots.map(|&v| round_packed_word(v, lane_bits, per_slot)).collect::<Result<_, _>>()?;
        let k = unpack_lane(words[0], 0, lane_bits);
        if k == 0 || k > self.max_clients as u64 {
            return Err(FheError::Deserialize(format!(
                "contributor counter {k} outside 1..={}",
                self.max_clients
            )));
        }
        let lane = |i: usize| unpack_lane(words[1 + i / per_slot], i % per_slot, lane_bits);
        Ok((0..num_params).map(|i| self.grid.mean(lane(i), k)).collect())
    }
}

/// `⌈log2 n⌉` for `n ≥ 1`.
fn ceil_log2(n: usize) -> u32 {
    usize::BITS - (n - 1).leading_zeros()
}

/// Packs lane values, each `< 2^lane_bits`, into one slot word, lane 0
/// in the least-significant bits.
fn pack_lanes(vals: impl Iterator<Item = u64>, lane_bits: u32) -> u64 {
    vals.enumerate().fold(0, |word, (i, v)| word | v << (i as u32 * lane_bits))
}

/// Lane `lane` (0-based from the least-significant bits) of a packed
/// slot word; `lane_bits < 64`.
fn unpack_lane(word: u64, lane: usize, lane_bits: u32) -> u64 {
    (word >> (lane as u32 * lane_bits)) & ((1 << lane_bits) - 1)
}

/// Rounds a decrypted slot back to its packed integer, rejecting values
/// the quantized-sum encoding cannot produce.
fn round_packed_word(v: f64, lane_bits: u32, per_slot: usize) -> Result<u64, FheError> {
    let r = v.round();
    let cap = (1u64 << (lane_bits * per_slot as u32)) as f64;
    if !(r.is_finite() && (0.0..cap).contains(&r) && (v - r).abs() < 0.45) {
        return Err(FheError::Deserialize(format!(
            "slot value {v} outside the packed integer range (noise budget or layout mismatch)"
        )));
    }
    Ok(r as u64)
}

/// Splits a flat parameter vector into slot-sized chunks (the last chunk
/// zero-padded implicitly by the encoder).
pub fn chunk_params(flat: &[f32], slots: usize) -> Vec<Vec<f64>> {
    assert!(slots > 0, "slot count must be positive");
    flat.chunks(slots).map(|c| c.iter().map(|&v| f64::from(v)).collect()).collect()
}

/// Number of ciphertexts required for `num_params` parameters:
/// `⌈DL / (N/2)⌉` under `Dense`; `BitInterleaved` divides the model
/// across its lanes per slot (plus the counter slot).
pub fn ciphertexts_needed_with(cfg: &PackingConfig, num_params: usize, slots: usize) -> usize {
    cfg.slots_for(num_params).div_ceil(slots)
}

/// Bytes needed to upload a packed model in the canonical (full `c1`)
/// wire format.
pub fn upload_bytes_canonical_with(
    ctx: &CkksContext,
    cfg: &PackingConfig,
    num_params: usize,
) -> usize {
    ciphertexts_needed_with(cfg, num_params, ctx.slot_count())
        * ctx.serialized_len(ctx.primes().len())
}

/// Bytes needed to upload a packed model in the seed-compressed format
/// (fresh symmetric ciphertexts only): roughly half the canonical size,
/// since a 32-byte seed stands in for the full `c1` component.
pub fn upload_bytes_seeded_with(
    ctx: &CkksContext,
    cfg: &PackingConfig,
    num_params: usize,
) -> usize {
    ciphertexts_needed_with(cfg, num_params, ctx.slot_count())
        * ctx.serialized_len_seeded(ctx.primes().len())
}

/// The biased-unsigned fixed-point grid: `bits` bits over
/// `[-clip, clip]`, where a coordinate `x` maps to
/// `round(x/clip · qmax) + 2^(bits−1)` ∈ `[1, 2^bits − 1]` with
/// `qmax = 2^(bits−1) − 1`. A sum of `k` grid values stays below
/// `k · 2^bits`, so it cannot carry into a neighbouring lane or wrap a
/// plaintext modulus sized for `k`. The bit-interleaved CKKS lanes, the
/// LWE plaintexts and the byte-wide plaintext models of the noise
/// experiments all quantize here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    bits: u32,
    clip: f32,
}

impl Grid {
    /// The grid of `bits` bits over `[-clip, clip]`: the one place a
    /// grid's width and clip are checked.
    ///
    /// # Errors
    ///
    /// [`FheError::InvalidParams`] for `bits` outside `2..=32` (below 2
    /// there is no room for a sign) or a `clip` that is not positive and
    /// finite.
    pub fn new(bits: u32, clip: f32) -> Result<Self, FheError> {
        if !(2..=32).contains(&bits) {
            return Err(FheError::InvalidParams(format!(
                "a grid needs 2..=32 bits per coordinate, got {bits}"
            )));
        }
        if !(clip.is_finite() && clip > 0.0) {
            return Err(FheError::InvalidParams(format!(
                "grid clip must be positive and finite, got {clip}"
            )));
        }
        Ok(Grid { bits, clip })
    }

    fn half(self) -> u64 {
        1u64 << (self.bits - 1)
    }

    /// Refuses the first NaN or infinite coordinate of `flat`, by its
    /// index: [`Grid::quantize`] would map NaN to the grid's zero and ±∞
    /// to ±clip, so a broken update would upload as an honest one.
    pub(crate) fn check_finite(flat: &[f32]) -> Result<(), FheError> {
        match flat.iter().position(|x| !x.is_finite()) {
            Some(index) => Err(FheError::NonFinitePlaintext { index }),
            None => Ok(()),
        }
    }

    /// The grid value of finite `x`, clamped to `[-clip, clip]`. The
    /// clamp is on the integer: above 25 bits `qmax` is not an `f32`,
    /// and `x = ±clip` would round one step past it.
    pub fn quantize(self, x: f32) -> u64 {
        let half = self.half() as i64;
        let q = ((x / self.clip * (half - 1) as f32).round() as i64).clamp(1 - half, half - 1);
        (q + half) as u64
    }

    /// The mean coordinate of `k` uploads whose grid values add to `sum`:
    /// un-biased, divided by `k` and dequantized. `mean(q, 1)` is the
    /// coordinate one grid value `q` stands for.
    pub fn mean(self, sum: u64, k: u64) -> f32 {
        let half = self.half();
        let q_sum = sum as i64 - (k * half) as i64;
        (q_sum as f64 / k as f64 / (half - 1) as f64 * f64::from(self.clip)) as f32
    }
}

/// The slot values of `flat` under `cfg`'s layout, one chunk per
/// ciphertext.
fn slot_chunks(cfg: &PackingConfig, flat: &[f32], slots: usize) -> Result<Vec<Vec<f64>>, FheError> {
    match cfg {
        PackingConfig::Dense => Ok(chunk_params(flat, slots)),
        PackingConfig::BitInterleaved(lanes) => lanes.pack(flat, slots),
    }
}

/// Encrypts a flat model with maximum packing under the public key.
///
/// # Errors
///
/// Propagates [`FheError`] from the finiteness check or encryption.
pub fn encrypt_model_with<R: Rng + ?Sized>(
    ctx: &CkksContext,
    pk: &CkksPublicKey,
    flat: &[f32],
    cfg: &PackingConfig,
    rng: &mut R,
) -> Result<Vec<CkksCiphertext>, FheError> {
    let chunks = slot_chunks(cfg, flat, ctx.slot_count())?;
    // Noise is drawn sequentially, in chunk order — exactly the stream
    // per-ciphertext encryption would consume — and only the
    // deterministic polynomial arithmetic fans out, so the ciphertexts
    // are bit-identical for every parallelism degree.
    let noises: Vec<_> = chunks.iter().map(|_| ctx.sample_encrypt_noise(rng)).collect();
    rhychee_par::map(ctx.parallelism(), chunks.len(), |i| {
        ctx.encrypt_with_noise(pk, &chunks[i], &noises[i])
    })
    .into_iter()
    .collect()
}

/// Encrypts a flat model with maximum packing under the *secret* key,
/// producing seeded ciphertexts eligible for the seed-compressed wire
/// format ([`CkksContext::serialize_seeded`]).
///
/// Rhychee-FL's shared-secret-key deployment (paper §IV-A) lets every
/// client encrypt symmetrically, so uploads can ship a 32-byte seed in
/// place of the full `c1` polynomial — roughly halving upload bytes.
///
/// # Errors
///
/// Propagates [`FheError`] from the finiteness check or encryption.
pub fn encrypt_model_symmetric_with<R: Rng + ?Sized>(
    ctx: &CkksContext,
    sk: &CkksSecretKey,
    flat: &[f32],
    cfg: &PackingConfig,
    rng: &mut R,
) -> Result<Vec<CkksCiphertext>, FheError> {
    let chunks = slot_chunks(cfg, flat, ctx.slot_count())?;
    // The same sequential-noise / parallel-arithmetic split as
    // `encrypt_model_with`, each worker encrypting its run of chunks
    // through one warm arena instead of a fresh one per ciphertext.
    let noises: Vec<_> = chunks.iter().map(|_| ctx.sample_symmetric_noise(rng)).collect();
    let mut cts: Vec<_> = chunks.iter().map(|_| ctx.zero_ciphertext()).collect();
    let run = chunks.len().div_ceil(ctx.parallelism().degree()).max(1);
    let mut runs: Vec<_> = cts.chunks_mut(run).map(|block| (block, Ok(()))).collect();
    rhychee_par::for_each_mut(ctx.parallelism(), &mut runs, |r, (block, status)| {
        let mut arena = CkksEncryptArena::new();
        *status = block.iter_mut().enumerate().try_for_each(|(j, ct)| {
            let i = r * run + j;
            ctx.encrypt_symmetric_with_noise_into(sk, &chunks[i], &noises[i], &mut arena, ct)
        });
    });
    runs.into_iter().try_for_each(|(_, status)| status)?;
    Ok(cts)
}

/// Decrypts a packed model back to a flat parameter vector of length
/// `num_params`.
///
/// Under `BitInterleaved` the ciphertexts must be the homomorphic
/// **sum** of `k ≥ 1` client uploads (a single fresh upload is the
/// `k = 1` case): `k` is read from the in-band counter lane, each lane
/// sum is un-biased, and the mean model `(Σᵢ qᵢ)/k` comes back
/// dequantized — uniform FedAvg with the division done in plaintext,
/// where it cannot disturb lane boundaries.
///
/// # Errors
///
/// Returns [`FheError::Deserialize`] when the ciphertexts carry too few
/// slots (e.g. a truncated or mismatched payload received over the
/// wire), a slot decodes outside the packed integer range (noise budget
/// exhausted or layout mismatch), or the counter lane is outside
/// `1..=max_clients`.
pub fn decrypt_model_with(
    ctx: &CkksContext,
    sk: &CkksSecretKey,
    cts: &[CkksCiphertext],
    num_params: usize,
    cfg: &PackingConfig,
) -> Result<Vec<f32>, FheError> {
    let needed = cfg.slots_for(num_params);
    // Ciphertexts decrypt independently; concatenation order is fixed,
    // so the flat model is bit-identical for every degree.
    let decrypted = rhychee_par::map(ctx.parallelism(), cts.len(), |i| ctx.decrypt(sk, &cts[i]));
    let carried: usize = decrypted.iter().map(Vec::len).sum();
    if carried < needed {
        return Err(FheError::Deserialize(format!(
            "ciphertexts carry {carried} slots, expected {needed}"
        )));
    }
    let slots = decrypted.iter().flatten().take(needed);
    match cfg {
        PackingConfig::Dense => {
            let mut flat = Vec::with_capacity(num_params);
            flat.extend(slots.map(|&v| v as f32));
            Ok(flat)
        }
        PackingConfig::BitInterleaved(lanes) => lanes.unpack(slots, num_params),
    }
}

/// Homomorphically averages packed models from several clients:
/// `HomMul(Σᵢ Enc(LMᵢ), 1/P)` (paper Eq. 2), ciphertext by ciphertext —
/// the uniform-weight wrapper of the `homomorphic_weighted_average`
/// reference oracle.
///
/// # Errors
///
/// Returns [`FheError`] if clients submitted inconsistent ciphertext
/// counts or incompatible ciphertexts.
pub fn homomorphic_average(
    ctx: &CkksContext,
    client_models: &[Vec<CkksCiphertext>],
) -> Result<Vec<CkksCiphertext>, FheError> {
    let p = client_models.len();
    if p == 0 {
        return Err(FheError::InvalidParams("no client models to aggregate".into()));
    }
    homomorphic_weighted_average(ctx, client_models, &vec![1.0 / p as f64; p])
}

/// Homomorphically computes a weighted average `Σᵢ wᵢ · Enc(LMᵢ)`.
///
/// **Reference oracle**: the literal scale-then-add reading of Eq. 2,
/// holding all `P` uploads at once. No runtime aggregates through it —
/// they fold into a [`StreamingAggregator`](crate::StreamingAggregator),
/// whose closed sum the bit-identity tests compare against this
/// function byte for byte.
///
/// Generalizes [`homomorphic_average`] to sample-count-weighted FedAvg
/// (McMahan et al.): each client's ciphertexts are scaled by its public
/// plaintext weight before summation. Weights must sum to ≈ 1 so the
/// result stays in the global model's dynamic range.
///
/// # Errors
///
/// Returns [`FheError`] on empty input, mismatched weight/model counts,
/// inconsistent ciphertext counts, or incompatible ciphertexts.
pub(crate) fn homomorphic_weighted_average(
    ctx: &CkksContext,
    client_models: &[Vec<CkksCiphertext>],
    weights: &[f64],
) -> Result<Vec<CkksCiphertext>, FheError> {
    if client_models.is_empty() {
        return Err(FheError::InvalidParams("no client models to aggregate".into()));
    }
    if client_models.len() != weights.len() {
        return Err(FheError::InvalidParams(format!(
            "{} models but {} weights",
            client_models.len(),
            weights.len()
        )));
    }
    let chunks = client_models[0].len();
    if client_models.iter().any(|m| m.len() != chunks) {
        return Err(FheError::InvalidParams(
            "clients submitted differing ciphertext counts".into(),
        ));
    }
    // Chunks aggregate independently; within a chunk, clients are
    // accumulated in submission order, so the packed global model is
    // bit-identical for every parallelism degree.
    rhychee_par::map(ctx.parallelism(), chunks, |chunk_idx| {
        let mut acc = ctx.mul_scalar(&client_models[0][chunk_idx], weights[0]);
        for (client, &w) in client_models[1..].iter().zip(&weights[1..]) {
            let scaled = ctx.mul_scalar(&client[chunk_idx], w);
            ctx.add_assign(&mut acc, &scaled)?;
        }
        Ok(acc)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aggregation, StreamingAggregator};
    use rand::{rngs::StdRng, SeedableRng};
    use rhychee_fhe::params::CkksParams;

    const DENSE: PackingConfig = PackingConfig::dense();

    /// The product's aggregation of `uploads`: fold each into the
    /// accumulator, close as `cfg`'s layout requires.
    fn aggregate(
        ctx: &CkksContext,
        cfg: &PackingConfig,
        uploads: &[Vec<CkksCiphertext>],
    ) -> Vec<CkksCiphertext> {
        let mut agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("aggregator");
        for (client_id, cts) in uploads.iter().enumerate() {
            let blobs: Vec<Vec<u8>> = cts.iter().map(|ct| ctx.serialize(ct)).collect();
            let views: Vec<_> =
                blobs.iter().map(|b| ctx.view_serialized(b).expect("view")).collect();
            assert!(agg.fold_upload(ctx, client_id, 0, &views).expect("fold"));
        }
        agg.close(ctx, cfg).expect("close")
    }

    fn setup() -> (CkksContext, CkksSecretKey, CkksPublicKey, StdRng) {
        let ctx = CkksContext::new(CkksParams::toy()).expect("valid");
        let mut rng = StdRng::seed_from_u64(1);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        (ctx, sk, pk, rng)
    }

    #[test]
    fn chunking_covers_all_params() {
        let flat: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let chunks = chunk_params(&flat, 256);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), 256);
        assert_eq!(chunks[3].len(), 1000 - 3 * 256);
        assert_eq!(chunks.iter().map(Vec::len).sum::<usize>(), 1000);
    }

    #[test]
    fn ciphertext_count_formula() {
        // The paper's headline numbers: D·L = 20,000 at N/2 = 4096 slots
        // → 5 ciphertexts; the 43,484-param CNN → 11.
        assert_eq!(ciphertexts_needed_with(&DENSE, 20_000, 4096), 5);
        assert_eq!(ciphertexts_needed_with(&DENSE, 43_484, 4096), 11);
        assert_eq!(ciphertexts_needed_with(&DENSE, 1, 4096), 1);
        assert_eq!(ciphertexts_needed_with(&DENSE, 4096, 4096), 1);
        assert_eq!(ciphertexts_needed_with(&DENSE, 4097, 4096), 2);
    }

    #[test]
    fn encrypt_decrypt_model_round_trip() {
        let (ctx, sk, pk, mut rng) = setup();
        let flat: Vec<f32> = (0..700).map(|i| (i as f32 * 0.01).sin()).collect();
        let cts = encrypt_model_with(&ctx, &pk, &flat, &DENSE, &mut rng).expect("encrypt");
        assert_eq!(cts.len(), ciphertexts_needed_with(&DENSE, 700, ctx.slot_count()));
        let back = decrypt_model_with(&ctx, &sk, &cts, 700, &DENSE).expect("decrypt");
        for (a, b) in flat.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn symmetric_model_round_trip_and_seeded_bytes() {
        let (ctx, sk, _, mut rng) = setup();
        let flat: Vec<f32> = (0..700).map(|i| (i as f32 * 0.01).cos()).collect();
        let cts =
            encrypt_model_symmetric_with(&ctx, &sk, &flat, &DENSE, &mut rng).expect("encrypt");
        assert!(cts.iter().all(rhychee_fhe::ckks::CkksCiphertext::is_seeded));
        let back = decrypt_model_with(&ctx, &sk, &cts, 700, &DENSE).expect("decrypt");
        for (a, b) in flat.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // The seeded wire format carries one packed component instead of
        // two, so a full-model upload shrinks by ~2×.
        let canonical = upload_bytes_canonical_with(&ctx, &DENSE, 700);
        let seeded = upload_bytes_seeded_with(&ctx, &DENSE, 700);
        assert_eq!(
            seeded,
            cts.iter().map(|ct| ctx.serialize_seeded(ct).expect("seeded").len()).sum::<usize>()
        );
        assert!(seeded * 2 < canonical + 128 * cts.len(), "{seeded} vs {canonical}");
    }

    #[test]
    fn a_non_finite_weight_refuses_the_upload() {
        // One bad weight must not upload its chunk as zeros that the
        // server would average in as an honest update.
        let (ctx, sk, pk, mut rng) = setup();
        let slots = ctx.slot_count();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut flat: Vec<f32> = (0..700).map(|i| i as f32 * 0.01).collect();
            flat[slots + 5] = bad;
            let refused = Err(FheError::NonFinitePlaintext { index: 5 });
            let public = encrypt_model_with(&ctx, &pk, &flat, &DENSE, &mut rng);
            assert_eq!(public.map(|_| ()), refused, "public key, {bad}");
            let symmetric = encrypt_model_symmetric_with(&ctx, &sk, &flat, &DENSE, &mut rng);
            assert_eq!(symmetric.map(|_| ()), refused, "secret key, {bad}");
        }
    }

    #[test]
    fn a_non_finite_weight_refuses_an_interleaved_upload() {
        // The grid would quantize NaN to its zero and ±∞ to ±clip: the
        // flat index of the first bad weight is refused instead.
        let (ctx, sk, pk, mut rng) = setup();
        let cfg = PackingConfig::interleaved(8, 1.0, 4).expect("valid layout");
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut flat: Vec<f32> = (0..700).map(|i| i as f32 * 0.001).collect();
            flat[601] = bad;
            flat[650] = f32::NAN;
            let refused = Err(FheError::NonFinitePlaintext { index: 601 });
            let public = encrypt_model_with(&ctx, &pk, &flat, &cfg, &mut rng);
            assert_eq!(public.map(|_| ()), refused, "public key, {bad}");
            let symmetric = encrypt_model_symmetric_with(&ctx, &sk, &flat, &cfg, &mut rng);
            assert_eq!(symmetric.map(|_| ()), refused, "secret key, {bad}");
        }
    }

    #[test]
    fn homomorphic_average_matches_plaintext() {
        let (ctx, sk, pk, mut rng) = setup();
        let p = 4;
        let models: Vec<Vec<f32>> = (0..p)
            .map(|c| (0..300).map(|i| ((c * 300 + i) as f32 * 0.01).cos()).collect())
            .collect();
        let encrypted: Vec<Vec<CkksCiphertext>> = models
            .iter()
            .map(|m| encrypt_model_with(&ctx, &pk, m, &DENSE, &mut rng).expect("encrypt"))
            .collect();
        let global = homomorphic_average(&ctx, &encrypted).expect("aggregate");
        let back = decrypt_model_with(&ctx, &sk, &global, 300, &DENSE).expect("decrypt");
        for i in 0..300 {
            let expected: f32 = models.iter().map(|m| m[i]).sum::<f32>() / p as f32;
            assert!((back[i] - expected).abs() < 1e-2, "param {i}: {} vs {expected}", back[i]);
        }
    }

    #[test]
    fn weighted_average_matches_plaintext() {
        let (ctx, sk, pk, mut rng) = setup();
        let models: Vec<Vec<f32>> = vec![vec![1.0; 100], vec![5.0; 100], vec![9.0; 100]];
        let weights = [0.5f64, 0.3, 0.2];
        let encrypted: Vec<Vec<CkksCiphertext>> = models
            .iter()
            .map(|m| encrypt_model_with(&ctx, &pk, m, &DENSE, &mut rng).expect("encrypt"))
            .collect();
        let global = homomorphic_weighted_average(&ctx, &encrypted, &weights).expect("aggregate");
        let back = decrypt_model_with(&ctx, &sk, &global, 100, &DENSE).expect("decrypt");
        let expected = 0.5 * 1.0 + 0.3 * 5.0 + 0.2 * 9.0;
        for v in &back {
            assert!((v - expected as f32).abs() < 1e-2, "{v} vs {expected}");
        }
    }

    #[test]
    fn weighted_average_rejects_mismatched_weights() {
        let (ctx, _, pk, mut rng) = setup();
        let a = encrypt_model_with(&ctx, &pk, &[1.0; 10], &DENSE, &mut rng).expect("encrypt");
        assert!(homomorphic_weighted_average(&ctx, &[a], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn aggregation_rejects_inconsistent_counts() {
        let (ctx, _, pk, mut rng) = setup();
        let a = encrypt_model_with(&ctx, &pk, &vec![1.0; 300], &DENSE, &mut rng).expect("encrypt");
        let b = encrypt_model_with(&ctx, &pk, &vec![1.0; 600], &DENSE, &mut rng).expect("encrypt");
        assert!(homomorphic_average(&ctx, &[a, b]).is_err());
        assert!(homomorphic_average(&ctx, &[]).is_err());
    }

    #[test]
    fn interleaved_single_model_round_trip_is_exact_quantization() {
        let (ctx, sk, pk, mut rng) = setup();
        let cfg = PackingConfig::interleaved(8, 1.0, 4).expect("valid layout");
        let flat: Vec<f32> = (0..700).map(|i| (i as f32 * 0.013).sin()).collect();
        let cts = encrypt_model_with(&ctx, &pk, &flat, &cfg, &mut rng).expect("encrypt");
        assert_eq!(cts.len(), ciphertexts_needed_with(&cfg, 700, ctx.slot_count()));
        let back = decrypt_model_with(&ctx, &sk, &cts, 700, &cfg).expect("decrypt");
        // k = 1: the round trip must reproduce quantize→dequantize
        // exactly — CKKS noise is absorbed by the integer rounding.
        let qmax = 127.0f32;
        for (a, b) in flat.iter().zip(&back) {
            let expected = (a * qmax).round().clamp(-qmax, qmax) / qmax;
            assert_eq!(*b, expected, "coordinate {a}");
        }
    }

    #[test]
    fn interleaved_sum_recovers_mean_within_quantization_error() {
        let (ctx, sk, pk, mut rng) = setup();
        let p = 4;
        let cfg = PackingConfig::interleaved(8, 1.0, p).expect("valid layout");
        let models: Vec<Vec<f32>> = (0..p)
            .map(|c| (0..300).map(|i| ((c * 300 + i) as f32 * 0.01).cos() * 0.9).collect())
            .collect();
        let encrypted: Vec<Vec<CkksCiphertext>> = models
            .iter()
            .map(|m| encrypt_model_with(&ctx, &pk, m, &cfg, &mut rng).expect("encrypt"))
            .collect();
        let global = aggregate(&ctx, &cfg, &encrypted);
        let back = decrypt_model_with(&ctx, &sk, &global, 300, &cfg).expect("decrypt");
        // The counter lane carried k = 4, so the mean comes back within
        // one quantization step of the plaintext FedAvg.
        let step = 1.0f32 / 127.0;
        for i in 0..300 {
            let expected: f32 = models.iter().map(|m| m[i]).sum::<f32>() / p as f32;
            assert!((back[i] - expected).abs() <= step, "param {i}: {} vs {expected}", back[i]);
        }

        // Boundary: exactly `max_clients` uploads with every coordinate
        // at ±clip put every lane sum at its carry-free extreme
        // (`P·(2^bits − 1)` resp. `P`); neighbouring lanes must not
        // bleed and the mean must dequantize to exactly ±clip.
        for extreme in [1.0, -1.0] {
            let encrypted: Vec<Vec<CkksCiphertext>> = (0..p)
                .map(|_| {
                    encrypt_model_with(&ctx, &pk, &[extreme; 300], &cfg, &mut rng).expect("encrypt")
                })
                .collect();
            let global = aggregate(&ctx, &cfg, &encrypted);
            let back = decrypt_model_with(&ctx, &sk, &global, 300, &cfg).expect("decrypt");
            assert!(back.iter().all(|&v| v == extreme), "{extreme}: {:?}", &back[..4]);
        }
    }

    #[test]
    fn interleaved_partial_quorum_self_describes() {
        // Sum only 3 of the 4 provisioned clients: the counter lane
        // must report 3 and the mean divide by 3, no side channel.
        let (ctx, sk, pk, mut rng) = setup();
        let cfg = PackingConfig::interleaved(8, 1.0, 4).expect("valid layout");
        let models: Vec<Vec<f32>> = vec![vec![0.3; 50], vec![0.6; 50], vec![-0.3; 50]];
        let encrypted: Vec<Vec<CkksCiphertext>> = models
            .iter()
            .map(|m| encrypt_model_with(&ctx, &pk, m, &cfg, &mut rng).expect("encrypt"))
            .collect();
        let global = aggregate(&ctx, &cfg, &encrypted);
        let back = decrypt_model_with(&ctx, &sk, &global, 50, &cfg).expect("decrypt");
        for v in &back {
            assert!((v - 0.2).abs() <= 1.0 / 127.0, "{v}");
        }
    }

    #[test]
    fn interleaved_cuts_ciphertexts_and_bytes_for_2000_params() {
        let (ctx, _, pk, mut rng) = setup();
        let dense = PackingConfig::dense();
        let cfg = PackingConfig::interleaved(8, 1.0, 4).expect("valid layout");
        let slots = ctx.slot_count();
        let dense_cts = ciphertexts_needed_with(&dense, 2000, slots);
        let inter_cts = ciphertexts_needed_with(&cfg, 2000, slots);
        assert_eq!(dense_cts, 2000usize.div_ceil(slots), "dense is ⌈DL / (N/2)⌉");
        // 3 lanes/slot at bits=8, P=4: ⌈(1 + ⌈2000/3⌉)/256⌉ = 3 vs 8.
        assert!(inter_cts < dense_cts, "{inter_cts} vs {dense_cts}");
        assert!(
            upload_bytes_canonical_with(&ctx, &cfg, 2000)
                < upload_bytes_canonical_with(&ctx, &dense, 2000)
        );
        assert!(
            upload_bytes_seeded_with(&ctx, &cfg, 2000)
                < upload_bytes_seeded_with(&ctx, &dense, 2000)
        );
        // The analytical byte model must reconcile exactly with a real
        // serialized upload (EXPERIMENTS.md Table I accounting).
        let flat: Vec<f32> = (0..2000).map(|i| ((i % 89) as f32 / 89.0) - 0.5).collect();
        let cts = encrypt_model_with(&ctx, &pk, &flat, &cfg, &mut rng).expect("encrypt");
        assert_eq!(cts.len(), inter_cts);
        assert_eq!(
            cts.iter().map(|ct| ctx.serialize(ct).len()).sum::<usize>(),
            upload_bytes_canonical_with(&ctx, &cfg, 2000),
            "serialized interleaved upload diverged from the analytical model"
        );
    }

    #[test]
    fn interleaved_symmetric_uploads_stay_seeded() {
        let (ctx, sk, _, mut rng) = setup();
        let cfg = PackingConfig::interleaved(8, 1.0, 2).expect("valid layout");
        let flat: Vec<f32> = (0..100).map(|i| (i as f32 * 0.07).sin()).collect();
        let cts = encrypt_model_symmetric_with(&ctx, &sk, &flat, &cfg, &mut rng).expect("encrypt");
        assert!(cts.iter().all(rhychee_fhe::ckks::CkksCiphertext::is_seeded));
        assert_eq!(
            upload_bytes_seeded_with(&ctx, &cfg, 100),
            cts.iter().map(|ct| ctx.serialize_seeded(ct).expect("seeded").len()).sum::<usize>()
        );
        let back = decrypt_model_with(&ctx, &sk, &cts, 100, &cfg).expect("decrypt");
        for (a, b) in flat.iter().zip(&back) {
            assert!((a - b).abs() <= 0.5 / 127.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn interleaved_rejects_bad_configs_and_counters() {
        let (ctx, sk, pk, mut rng) = setup();
        let flat = vec![0.5f32; 10];
        // Invalid configs cannot be built.
        for (bits, clip, max_clients) in [
            (1, 1.0, 4),
            (31, 1.0, 4),
            (u32::MAX, 1.0, 4),
            (8, 0.0, 4),
            (8, f32::NAN, 4),
            (8, 1.0, 0),
        ] {
            let bad = PackingConfig::interleaved(bits, clip, max_clients);
            assert!(bad.is_err(), "{bits} bits, clip {clip}, {max_clients} clients");
        }
        // Summing more uploads than max_clients overflows the counter
        // check at decrypt time.
        let cfg = PackingConfig::interleaved(8, 1.0, 2).expect("valid layout");
        let encrypted: Vec<_> = (0..3)
            .map(|_| encrypt_model_with(&ctx, &pk, &flat, &cfg, &mut rng).expect("encrypt"))
            .collect();
        let over = aggregate(&ctx, &cfg, &encrypted);
        assert!(decrypt_model_with(&ctx, &sk, &over, 10, &cfg).is_err(), "counter > max_clients");
        // Too few ciphertexts for the declared parameter count.
        let one = encrypt_model_with(&ctx, &pk, &flat, &cfg, &mut rng).expect("encrypt");
        assert!(decrypt_model_with(&ctx, &sk, &one, 10_000, &cfg).is_err(), "short payload");
        // A dense ciphertext stream is not a packed integer stream.
        let dense_cts =
            encrypt_model_with(&ctx, &pk, &[0.37f32; 10], &DENSE, &mut rng).expect("encrypt");
        assert!(decrypt_model_with(&ctx, &sk, &dense_cts, 10, &cfg).is_err(), "layout mismatch");
    }

    /// The lanes of a bit-interleaved layout that must build.
    fn lanes(bits: u32, max_clients: usize) -> Lanes {
        match PackingConfig::interleaved(bits, 1.0, max_clients) {
            Ok(PackingConfig::BitInterleaved(lanes)) => lanes,
            other => panic!("{bits} bits, {max_clients} clients: {other:?}"),
        }
    }

    #[test]
    fn lane_round_trip_at_exact_budget() {
        // The exact per-lane budget: bits + ⌈log2 P⌉ headroom, per_slot
        // lanes filling SLOT_PAYLOAD_BITS.
        for p in [1usize, 2, 3, 4, 7, 8, 16] {
            let l = lanes(8, p);
            let (lane_bits, per_slot) = (l.lane_bits(), l.per_slot());
            assert!(per_slot as u32 * lane_bits <= SLOT_PAYLOAD_BITS);
            // Worst-case lane value: P clients each contributing the
            // maximum biased coordinate.
            let max_sum = p as u64 * ((1u64 << 8) - 1);
            assert!(max_sum < 1u64 << lane_bits, "P={p}: sums must not carry across lanes");
            let vals: Vec<u64> = (0..per_slot).map(|i| max_sum - i as u64).collect();
            let word = pack_lanes(vals.iter().copied(), lane_bits);
            assert!(word < 1u64 << SLOT_PAYLOAD_BITS);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(unpack_lane(word, i, lane_bits), v);
            }
        }
    }

    #[test]
    fn layout_validation_and_density() {
        // P=4 → lane 10 bits → 3 lanes in 32; P=1 → no headroom → 4.
        assert_eq!((lanes(8, 4).lane_bits(), lanes(8, 4).per_slot()), (10, 3));
        assert_eq!((lanes(8, 1).lane_bits(), lanes(8, 1).per_slot()), (8, 4));
        assert_eq!((lanes(30, 4).lane_bits(), lanes(30, 4).per_slot()), (32, 1), "at budget");
        assert!(PackingConfig::interleaved(30, 1.0, 8).is_err(), "one bit over budget");
        assert_eq!(DENSE.slots_for(700), 700);
        assert_eq!(PackingConfig::BitInterleaved(lanes(8, 4)).slots_for(700), 1 + 234);
    }

    #[test]
    fn a_full_lane_sums_at_the_widest_grid_it_accepts() {
        // 30 bits + 2 of headroom fill the slot: four uploads at +clip
        // must sum below 2^32 and unpack to exactly +clip.
        let l = lanes(30, 4);
        let words = l.pack(&[1.0], 8).expect("pack").concat();
        let sum: Vec<f64> = words.iter().map(|w| 4.0 * w).collect();
        assert_eq!(l.unpack(sum.iter(), 1), Ok(vec![1.0]));
    }

    #[test]
    fn grid_new_refuses_widths_and_clips_off_its_domain() {
        for bits in [0, 1, 33] {
            assert!(matches!(Grid::new(bits, 1.0), Err(FheError::InvalidParams(_))), "{bits}");
        }
        for clip in [0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(matches!(Grid::new(8, clip), Err(FheError::InvalidParams(_))), "{clip}");
        }
        assert!(Grid::new(2, f32::MIN_POSITIVE).is_ok() && Grid::new(32, f32::MAX).is_ok());
    }

    proptest::proptest! {
        #[test]
        fn grid_values_stay_in_range_within_half_a_step(
            bits in 2u32..=32,
            clip in 1e-3f32..1e3,
            t in -1.5f32..1.5,
        ) {
            let grid = Grid::new(bits, clip).expect("valid grid");
            let qmax = ((1u64 << (bits - 1)) - 1) as f32;
            // Half a step, plus two f32 roundings in `quantize` and one
            // in `mean`.
            let bound = clip / (2.0 * qmax) + 2.0 * f32::EPSILON * clip;
            for x in [t * clip, clip, -clip] {
                let q = grid.quantize(x);
                proptest::prop_assert!((1..1u64 << bits).contains(&q), "{bits} bits: {x} -> {q}");
                let err = (grid.mean(q, 1) - x.clamp(-clip, clip)).abs();
                proptest::prop_assert!(err <= bound, "{bits} bits: {x} off by {err} > {bound}");
            }
        }

        #[test]
        fn every_grid_value_dequantizes_back_to_itself(
            bits in 2u32..=23,
            clip in 1e-3f32..1e3,
            draw in proptest::prelude::any::<u64>(),
        ) {
            // From 24 bits on, f32 cannot resolve the grid's steps.
            let grid = Grid::new(bits, clip).expect("valid grid");
            let q = 1 + draw % ((1u64 << bits) - 1);
            proptest::prop_assert_eq!(grid.quantize(grid.mean(q, 1)), q);
        }
    }

    #[test]
    fn the_federation_check_refuses_fednova_and_too_few_lanes() {
        let cfg = PackingConfig::interleaved(8, 1.0, 4).expect("valid layout");
        assert!(cfg.check_federation(Aggregation::FedAvg, 4).is_ok());
        assert!(cfg.check_federation(Aggregation::FedAvg, 3).is_ok(), "headroom to spare");
        for (aggregation, clients) in [(Aggregation::FedNova, 4), (Aggregation::FedAvg, 5)] {
            let refused = cfg.check_federation(aggregation, clients);
            assert!(
                matches!(refused, Err(FlError::InvalidConfig(_))),
                "{aggregation:?}, {clients}"
            );
        }
        assert!(DENSE.check_federation(Aggregation::FedNova, 1000).is_ok());
    }

    #[test]
    fn packing_is_maximal() {
        let (ctx, _, pk, mut rng) = setup();
        // One model the size of exactly 2.5 ciphertexts.
        let n = ctx.slot_count() * 5 / 2;
        let cts = encrypt_model_with(&ctx, &pk, &vec![0.5; n], &DENSE, &mut rng).expect("encrypt");
        assert_eq!(cts.len(), 3, "⌈2.5⌉ = 3 ciphertexts, no per-row waste");
    }
}
