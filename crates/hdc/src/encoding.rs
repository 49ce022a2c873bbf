//! Feature-to-hypervector encoders (paper §II-B).
//!
//! Two encoders are provided, matching the paper's experimental setup:
//! random projection (used for HAR) and RBF (used for MNIST). Both are
//! deterministic given their base matrices, so every federated client can
//! reconstruct the same encoder from a shared seed.
//!
//! Both are a `D × f` projection followed by a pointwise map, and both
//! keep the matrix in `TiledBases`: `TILE` output dimensions side by
//! side per feature, so the `D` dot products — independent sums —
//! advance `TILE` at a time while each one still adds its `f` terms in
//! feature order, bit for bit the serial `Iterator::sum` it replaces.

use rand::Rng;
use rhychee_par::Parallelism;
use std::f32::consts::TAU;

/// Output dimensions per tile. Thirty-two `f32` accumulators are eight
/// SSE2 registers — the eight independent add chains two adders of
/// four-cycle latency need to stay busy — and a tile of the paper's
/// widest input (784 features) is 100 KB, resident in L2.
const TILE: usize = 32;

/// Samples per [`TiledBases::project`] call in a batch: each tile is
/// read once per block instead of once per sample, and a block's
/// features (≤ 50 KB at 784 features) share L2 with it.
const BATCH: usize = 16;

/// A feature encoder mapping raw `f`-dimensional inputs to `D`-dimensional
/// hypervectors.
///
/// Implementations are [`Send`] + [`Sync`] so federated clients can encode
/// in parallel.
pub trait Encoder: Send + Sync {
    /// Hypervector dimension D.
    fn dim(&self) -> usize;

    /// Expected input feature count f.
    fn input_dim(&self) -> usize;

    /// Encodes one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != input_dim()`.
    fn encode(&self, features: &[f32]) -> Vec<f32>;

    /// Encodes a batch of feature vectors, split `par.degree()` ways on
    /// the shared `rhychee-par` pool. Output order (and every bit of
    /// every hypervector) is independent of the degree.
    fn encode_batch(&self, features: &[Vec<f32>], par: Parallelism) -> Vec<Vec<f32>>
    where
        Self: Sized;
}

/// A `D × f` base matrix stored `[tile][f][TILE]`: row `i` (output
/// dimension `i`) is lane `i % TILE` of tile `i / TILE`, and the padding
/// lanes of the last tile are zero.
#[derive(Debug, Clone)]
struct TiledBases {
    input_dim: usize,
    dim: usize,
    tiled: Vec<f32>,
}

impl TiledBases {
    /// Fills the matrix from `draw`, called in row-major order (row 0's
    /// `f` entries, then row 1's, …) — the order a shared seed is
    /// consumed in — and stored straight into its tile.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    fn draw(input_dim: usize, dim: usize, mut draw: impl FnMut() -> f32) -> Self {
        assert!(input_dim > 0 && dim > 0, "dimensions must be positive");
        let mut tiled = vec![0.0f32; dim.div_ceil(TILE) * input_dim * TILE];
        for i in 0..dim {
            let tile = &mut tiled[(i / TILE) * input_dim * TILE..][..input_dim * TILE];
            for b in tile[i % TILE..].iter_mut().step_by(TILE) {
                *b = draw();
            }
        }
        TiledBases { input_dim, dim, tiled }
    }

    /// `out[s][i] = finish(i, B_i · samples[s])` for every sample and
    /// row. Tile-outer, sample-inner: a tile stays in cache across the
    /// samples, and within it `TILE` dot products advance together, each
    /// adding its products in feature order from the `−0.0`
    /// `Iterator::sum::<f32>` starts from.
    ///
    /// # Panics
    ///
    /// Panics if a sample's length is not `input_dim`.
    fn project<S: AsRef<[f32]>>(
        &self,
        samples: &[S],
        finish: impl Fn(usize, f32) -> f32,
    ) -> Vec<Vec<f32>> {
        for x in samples {
            assert_eq!(x.as_ref().len(), self.input_dim, "feature length mismatch");
        }
        let mut out: Vec<Vec<f32>> = samples.iter().map(|_| Vec::with_capacity(self.dim)).collect();
        for (t, tile) in self.tiled.chunks_exact(self.input_dim * TILE).enumerate() {
            let live = (self.dim - t * TILE).min(TILE);
            for (x, hv) in samples.iter().zip(&mut out) {
                let mut acc = [-0.0f32; TILE];
                for (row, &x) in tile.as_chunks::<TILE>().0.iter().zip(x.as_ref()) {
                    for (a, &b) in acc.iter_mut().zip(row) {
                        *a += b * x;
                    }
                }
                hv.extend(
                    acc[..live].iter().enumerate().map(|(lane, &dot)| finish(t * TILE + lane, dot)),
                );
            }
        }
        out
    }

    /// [`Self::project`] for a single sample.
    fn project_one(&self, features: &[f32], finish: impl Fn(usize, f32) -> f32) -> Vec<f32> {
        self.project(&[features], finish).pop().expect("one sample, one hypervector")
    }

    /// [`Self::project`] over blocks of `BATCH` samples, the blocks
    /// split `par.degree()` ways. A sample's bits do not depend on the
    /// block it falls in.
    fn project_batch(
        &self,
        features: &[Vec<f32>],
        par: Parallelism,
        finish: impl Fn(usize, f32) -> f32 + Sync,
    ) -> Vec<Vec<f32>> {
        let blocks: Vec<&[Vec<f32>]> = features.chunks(BATCH).collect();
        rhychee_par::map(par, blocks.len(), |b| self.project(blocks[b], &finish))
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Random-projection encoding: `h_i = sign(B_i · F)` with `B_i ∈ {−1, 1}^f`.
///
/// Produces bipolar hypervectors in `{−1, 1}^D`. Used for the HAR dataset
/// in the paper.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rhychee_hdc::encoding::{Encoder, RandomProjectionEncoder};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let enc = RandomProjectionEncoder::new(8, 128, &mut rng);
/// let hv = enc.encode(&[0.2; 8]);
/// assert_eq!(hv.len(), 128);
/// assert!(hv.iter().all(|&h| h == 1.0 || h == -1.0));
/// ```
#[derive(Debug, Clone)]
pub struct RandomProjectionEncoder {
    /// The D×f sign matrix (±1.0 as `f32`, so the projection is the
    /// same multiply-add pass as the RBF encoder's).
    bases: TiledBases,
}

impl RandomProjectionEncoder {
    /// Samples a random base matrix for `input_dim` features and dimension
    /// `dim`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, dim: usize, rng: &mut R) -> Self {
        RandomProjectionEncoder { bases: TiledBases::draw(input_dim, dim, || random_sign(rng)) }
    }

    fn finish(_: usize, dot: f32) -> f32 {
        if dot >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

impl Encoder for RandomProjectionEncoder {
    fn dim(&self) -> usize {
        self.bases.dim
    }

    fn input_dim(&self) -> usize {
        self.bases.input_dim
    }

    fn encode(&self, features: &[f32]) -> Vec<f32> {
        self.bases.project_one(features, Self::finish)
    }

    fn encode_batch(&self, features: &[Vec<f32>], par: Parallelism) -> Vec<Vec<f32>> {
        self.bases.project_batch(features, par, Self::finish)
    }
}

/// RBF encoding: `h_i = cos(B_i · F + b_i)` with Gaussian `B_i` and
/// uniform phase `b_i ∈ [0, 2π)`.
///
/// Produces dense hypervectors in `[−1, 1]^D`; the kernel-approximation
/// view is due to ManiHD. Used for the MNIST dataset in the paper.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rhychee_hdc::encoding::{Encoder, RbfEncoder};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let enc = RbfEncoder::new(8, 128, &mut rng);
/// let hv = enc.encode(&[0.2; 8]);
/// assert!(hv.iter().all(|&h| (-1.0..=1.0).contains(&h)));
/// ```
#[derive(Debug, Clone)]
pub struct RbfEncoder {
    /// The D×f Gaussian projection matrix.
    bases: TiledBases,
    /// Per-dimension phase offsets in [0, 2π).
    biases: Vec<f32>,
    /// Bandwidth applied to the projection (1/√f keeps phases O(1)).
    gamma: f32,
}

impl RbfEncoder {
    /// Samples a random Gaussian base matrix with default bandwidth
    /// `γ = 2/√f` (empirically the best operating point for pixel- and
    /// feature-scale inputs in this repo's datasets).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, dim: usize, rng: &mut R) -> Self {
        Self::with_gamma(input_dim, dim, 2.0 / (input_dim as f32).sqrt(), rng)
    }

    /// Samples with an explicit kernel bandwidth γ.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or γ is not positive.
    pub(crate) fn with_gamma<R: Rng + ?Sized>(
        input_dim: usize,
        dim: usize,
        gamma: f32,
        rng: &mut R,
    ) -> Self {
        assert!(gamma > 0.0, "gamma must be positive");
        let bases = TiledBases::draw(input_dim, dim, || gaussian_f32(rng));
        let biases = (0..dim).map(|_| rng.gen::<f32>() * TAU).collect();
        RbfEncoder { bases, biases, gamma }
    }

    fn finish(&self, i: usize, dot: f32) -> f32 {
        (self.gamma * dot + self.biases[i]).cos()
    }
}

impl Encoder for RbfEncoder {
    fn dim(&self) -> usize {
        self.bases.dim
    }

    fn input_dim(&self) -> usize {
        self.bases.input_dim
    }

    fn encode(&self, features: &[f32]) -> Vec<f32> {
        self.bases.project_one(features, |i, dot| self.finish(i, dot))
    }

    fn encode_batch(&self, features: &[Vec<f32>], par: Parallelism) -> Vec<Vec<f32>> {
        self.bases.project_batch(features, par, |i, dot| self.finish(i, dot))
    }
}

/// `+1.0` or `−1.0`, one `bool` draw.
fn random_sign<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    if rng.gen::<bool>() {
        1.0
    } else {
        -1.0
    }
}

/// Standard normal sample via Box–Muller (f32 output).
fn gaussian_f32<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// The row-major projection this module used to hold, kept as the
    /// reference: `D × f` bases collected in one row-major sweep of the
    /// RNG, one serial `Iterator::sum` per output dimension.
    struct RowMajorOracle {
        input_dim: usize,
        bases: Vec<f32>,
    }

    impl RowMajorOracle {
        fn draw(input_dim: usize, dim: usize, mut draw: impl FnMut() -> f32) -> Self {
            RowMajorOracle { input_dim, bases: (0..input_dim * dim).map(|_| draw()).collect() }
        }

        fn dots(&self, features: &[f32]) -> Vec<f32> {
            self.bases
                .chunks(self.input_dim)
                .map(|row| row.iter().zip(features).map(|(&b, &x)| b * x).sum())
                .collect()
        }
    }

    /// `(f, D)`: the paper's two shapes, then tiles with padding lanes,
    /// exactly one tile, one lane short of a tile, and the smallest.
    const SHAPES: [(usize, usize); 6] =
        [(784, 2000), (561, 2000), (7, 33), (3, 32), (5, 31), (1, 1)];

    /// Sparse-random (most pixels off), all `0.0`, all `−0.0`, all ones.
    fn inputs(f: usize, rng: &mut StdRng) -> [Vec<f32>; 4] {
        let sparse =
            (0..f).map(|_| if rng.gen::<f32>() < 0.2 { rng.gen_range(-1.0..1.0) } else { 0.0 });
        [sparse.collect(), vec![0.0; f], vec![-0.0; f], vec![1.0; f]]
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_projection_matches_the_row_major_sum_bit_for_bit() {
        let draws: [fn(&mut StdRng) -> f32; 2] = [|rng| random_sign(rng), |rng| gaussian_f32(rng)];
        for (f, d) in SHAPES {
            for (kind, draw) in draws.into_iter().enumerate() {
                let seed = (f * 31 + d + kind) as u64;
                let (mut tiled_rng, mut oracle_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let tiled = TiledBases::draw(f, d, || draw(&mut tiled_rng));
                let oracle = RowMajorOracle::draw(f, d, || draw(&mut oracle_rng));
                // Same draws in the same order: the streams stay in step.
                assert_eq!(tiled_rng.gen::<u64>(), oracle_rng.gen::<u64>(), "f = {f}, D = {d}");
                for x in inputs(f, &mut tiled_rng) {
                    let dots = tiled.project_one(&x, |_, dot| dot);
                    assert_eq!(bits(&dots), bits(&oracle.dots(&x)), "f = {f}, D = {d}, {kind}");
                }
            }
        }
    }

    #[test]
    fn encoders_match_their_row_major_form_from_the_same_seed() {
        for (f, d) in SHAPES {
            let seed = (f * 17 + d) as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let projection = RandomProjectionEncoder::new(f, d, &mut StdRng::seed_from_u64(seed));
            let oracle = RowMajorOracle::draw(f, d, || random_sign(&mut rng));
            for x in inputs(f, &mut rng) {
                let expect: Vec<f32> = oracle
                    .dots(&x)
                    .iter()
                    .map(|&dot| if dot >= 0.0 { 1.0 } else { -1.0 })
                    .collect();
                assert_eq!(bits(&projection.encode(&x)), bits(&expect), "f = {f}, D = {d}");
            }

            let mut rng = StdRng::seed_from_u64(seed);
            let rbf = RbfEncoder::new(f, d, &mut StdRng::seed_from_u64(seed));
            let oracle = RowMajorOracle::draw(f, d, || gaussian_f32(&mut rng));
            let biases: Vec<f32> = (0..d).map(|_| rng.gen::<f32>() * TAU).collect();
            let gamma = 2.0 / (f as f32).sqrt();
            for x in inputs(f, &mut rng) {
                let expect: Vec<f32> = oracle
                    .dots(&x)
                    .iter()
                    .zip(&biases)
                    .map(|(&dot, &bias)| (gamma * dot + bias).cos())
                    .collect();
                assert_eq!(bits(&rbf.encode(&x)), bits(&expect), "f = {f}, D = {d}");
            }
        }
    }

    #[test]
    fn random_projection_is_bipolar() {
        let mut rng = StdRng::seed_from_u64(1);
        let enc = RandomProjectionEncoder::new(10, 500, &mut rng);
        let hv = enc.encode(&[0.5; 10]);
        assert_eq!(hv.len(), 500);
        assert!(hv.iter().all(|&h| h == 1.0 || h == -1.0));
    }

    #[test]
    fn rbf_values_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let enc = RbfEncoder::new(10, 500, &mut rng);
        let hv = enc.encode(&[2.0; 10]);
        assert!(hv.iter().all(|&h| (-1.0..=1.0).contains(&h)));
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let enc = RbfEncoder::new(6, 200, &mut rng);
        let x = [0.1, -0.4, 2.0, 0.0, 1.0, -1.0];
        assert_eq!(enc.encode(&x), enc.encode(&x));
    }

    #[test]
    fn same_seed_gives_same_encoder() {
        let enc1 = RandomProjectionEncoder::new(5, 100, &mut StdRng::seed_from_u64(9));
        let enc2 = RandomProjectionEncoder::new(5, 100, &mut StdRng::seed_from_u64(9));
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(enc1.encode(&x), enc2.encode(&x));
    }

    #[test]
    fn similar_inputs_give_similar_hypervectors() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = RbfEncoder::new(20, 2000, &mut rng);
        let x: Vec<f32> = (0..20).map(|i| i as f32 / 10.0).collect();
        let mut y = x.clone();
        y[0] += 0.01;
        let z: Vec<f32> = x.iter().map(|v| -v).collect();
        let hx = enc.encode(&x);
        let hy = enc.encode(&y);
        let hz = enc.encode(&z);
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(u, v)| u * v).sum();
            let na: f32 = a.iter().map(|u| u * u).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|u| u * u).sum::<f32>().sqrt();
            dot / (na * nb)
        };
        assert!(cos(&hx, &hy) > 0.99, "perturbed input should stay close");
        assert!(cos(&hx, &hz) < cos(&hx, &hy), "distant input should be farther");
    }

    #[test]
    fn batch_matches_per_sample_encode_at_every_degree() {
        // 0 samples, fewer than a block, and a ragged last block.
        let data: Vec<Vec<f32>> =
            (0..100).map(|i| (0..7).map(|j| ((i * 7 + j) as f32).sin()).collect()).collect();
        let projection = RandomProjectionEncoder::new(7, 33, &mut StdRng::seed_from_u64(5));
        let rbf = RbfEncoder::new(7, 33, &mut StdRng::seed_from_u64(5));
        for n in [0, 5, 100] {
            let data = &data[..n];
            for par in [Parallelism::Fixed(1), Parallelism::Fixed(4), Parallelism::Auto] {
                let seq: Vec<Vec<f32>> = data.iter().map(|f| projection.encode(f)).collect();
                assert_eq!(seq, projection.encode_batch(data, par), "projection, {n}, {par}");
                let seq: Vec<Vec<u32>> = data.iter().map(|f| bits(&rbf.encode(f))).collect();
                let batch: Vec<Vec<u32>> =
                    rbf.encode_batch(data, par).iter().map(|hv| bits(hv)).collect();
                assert_eq!(seq, batch, "rbf, {n}, {par}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature length")]
    fn wrong_input_length_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let enc = RbfEncoder::new(4, 16, &mut rng);
        let _ = enc.encode(&[1.0; 5]);
    }

    #[test]
    fn rbf_gamma_controls_sensitivity() {
        let mut rng = StdRng::seed_from_u64(7);
        // Identical base seeds, different gamma.
        let narrow = RbfEncoder::with_gamma(4, 4000, 0.01, &mut StdRng::seed_from_u64(8));
        let wide = RbfEncoder::with_gamma(4, 4000, 5.0, &mut StdRng::seed_from_u64(8));
        let _ = &mut rng;
        let x = [0.0, 0.0, 0.0, 0.0];
        let y = [0.5, 0.5, 0.5, 0.5];
        let dist = |enc: &RbfEncoder| {
            let hx = enc.encode(&x);
            let hy = enc.encode(&y);
            hx.iter().zip(&hy).map(|(a, b)| (a - b).powi(2)).sum::<f32>()
        };
        assert!(dist(&wide) > dist(&narrow), "larger gamma separates inputs more");
    }
}
