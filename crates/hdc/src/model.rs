//! The HDC class-hypervector model: training (paper Eq. 1), inference,
//! and the flatten/unflatten plumbing federated aggregation needs.
//!
//! The class vectors live in one lane-blocked buffer, `[block][j][LANES]`:
//! class `l` is lane `l % LANES` of block `l / LANES`, so the `L` dot
//! products of a classification are independent sums sitting side by
//! side in one row and run as one vector pass. Every individual sum
//! still adds its `D` terms in dimension order, one rounding per
//! multiply and per add, so each similarity is bit for bit what a
//! row-major loop over that class gives — the `#[cfg(test)]` oracle
//! below is that loop. The flat `L·D` form aggregation works on stays
//! row-major; [`HdcModel::flatten`] and [`HdcModel::load_flat`]
//! transpose.

/// Classes per lane block. Sixteen `f32` are one cache line and four
/// SSE2 registers: the paper's ten classes fit one block, and four
/// independent add chains keep a pass bound by the latency of one.
const LANES: usize = 16;

/// `Σ y²` in index order from `0.0`: the sample side of every cosine.
fn squared_norm(hv: &[f32]) -> f32 {
    let mut norm = 0.0f32;
    for &y in hv {
        norm += y * y;
    }
    norm
}

/// Index of the largest similarity under `total_cmp`; among equal
/// maxima the last one, as `Iterator::max_by` resolves ties.
fn argmax(sims: &[f32]) -> usize {
    sims.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(l, _)| l)
        .expect("at least one class")
}

/// A dataset already mapped to hypervector space.
///
/// Encoding is the expensive step of HDC, so federated clients encode
/// once and train over the cached hypervectors for all epochs/rounds.
#[derive(Debug, Clone, Default)]
pub struct EncodedDataset {
    hypervectors: Vec<Vec<f32>>,
    /// `‖h‖²` of each hypervector, summed once here instead of once per
    /// class per epoch.
    squared_norms: Vec<f32>,
    labels: Vec<usize>,
}

impl EncodedDataset {
    /// Builds a dataset from pre-encoded hypervectors and labels.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or hypervector dimensions are inconsistent.
    pub fn new(hypervectors: Vec<Vec<f32>>, labels: Vec<usize>) -> Self {
        assert_eq!(hypervectors.len(), labels.len(), "sample/label count mismatch");
        if let Some(first) = hypervectors.first() {
            assert!(
                hypervectors.iter().all(|h| h.len() == first.len()),
                "inconsistent hypervector dimensions"
            );
        }
        let squared_norms = hypervectors.iter().map(|h| squared_norm(h)).collect();
        EncodedDataset { hypervectors, squared_norms, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Hypervector dimension (0 when empty).
    pub fn dim(&self) -> usize {
        self.hypervectors.first().map_or(0, Vec::len)
    }

    /// Iterates `(hypervector, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f32], usize)> {
        self.hypervectors.iter().map(Vec::as_slice).zip(self.labels.iter().copied())
    }

    /// The label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Iterates `(hypervector, ‖hypervector‖², label)` triples.
    fn scored(&self) -> impl Iterator<Item = (&[f32], f32, usize)> {
        self.iter().zip(&self.squared_norms).map(|((hv, label), &hv_sq)| (hv, hv_sq, label))
    }
}

/// An HDC classifier: one `D`-dimensional hypervector per class.
///
/// Implements the paper's adaptive training rule (Eq. 1):
///
/// ```text
/// C_c ← C_c + lr · (1 − σ(C_c, H)) · H
/// C_p ← C_p − lr · (1 − σ(C_p, H)) · H
/// ```
///
/// applied when the model mispredicts class `p` for a sample of class `c`,
/// with σ = cosine similarity.
#[derive(Debug, Clone)]
pub struct HdcModel {
    /// The class vectors, `[block][j][LANES]`. Padding lanes of the last
    /// block are never written and stay zero.
    lanes: Vec<f32>,
    /// `‖C_l‖²` per lane, padding included: the in-order sum over the
    /// lane, refreshed by everything that writes `lanes`.
    squared_norms: Vec<f32>,
    classes: usize,
    dim: usize,
}

impl PartialEq for HdcModel {
    /// Same shape and same class vectors; padding lanes are no part of
    /// the model.
    fn eq(&self, other: &Self) -> bool {
        self.classes == other.classes
            && self.dim == other.dim
            && (0..self.classes).all(|l| self.class(l).eq(other.class(l)))
    }
}

impl HdcModel {
    /// Creates a zero-initialized model for `classes` classes of dimension
    /// `dim`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(classes: usize, dim: usize) -> Self {
        assert!(classes > 0 && dim > 0, "model shape must be positive");
        let blocks = classes.div_ceil(LANES);
        HdcModel {
            lanes: vec![0.0; blocks * dim * LANES],
            squared_norms: vec![0.0; blocks * LANES],
            classes,
            dim,
        }
    }

    /// Reconstructs a model from a flat row-major parameter vector (the
    /// inverse of [`HdcModel::flatten`]).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != classes * dim` or either is zero.
    pub fn from_flat(flat: &[f32], classes: usize, dim: usize) -> Self {
        let mut model = HdcModel::new(classes, dim);
        model.load_flat(flat);
        model
    }

    /// Number of classes L.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Hypervector dimension D.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total trainable parameters `D × L` (the paper's model-size metric).
    pub fn num_parameters(&self) -> usize {
        self.dim * self.classes
    }

    /// Offset of class `l`'s first element in `lanes`; its `j`-th is
    /// `LANES · j` further on.
    fn lane_offset(&self, l: usize) -> usize {
        (l / LANES) * self.dim * LANES + l % LANES
    }

    /// Class `l`'s hypervector in dimension order.
    fn class(&self, l: usize) -> impl Iterator<Item = &f32> {
        self.lanes[self.lane_offset(l)..].iter().step_by(LANES).take(self.dim)
    }

    /// Class `l`'s hypervector in dimension order, writable. Callers
    /// owe a [`Self::refresh_norms`] once they are done writing.
    fn class_mut(&mut self, l: usize) -> impl Iterator<Item = &mut f32> {
        let offset = self.lane_offset(l);
        self.lanes[offset..].iter_mut().step_by(LANES).take(self.dim)
    }

    /// Recomputes every `‖C_l‖²`, all lanes of a block side by side.
    fn refresh_norms(&mut self) {
        let blocks = self.lanes.chunks_exact(self.dim * LANES);
        for (block, norms) in blocks.zip(self.squared_norms.chunks_exact_mut(LANES)) {
            let mut acc = [0.0f32; LANES];
            for row in block.as_chunks::<LANES>().0 {
                for (n, &c) in acc.iter_mut().zip(row) {
                    *n += c * c;
                }
            }
            norms.copy_from_slice(&acc);
        }
    }

    /// The one similarity pass: `out[l] = σ(C_l, hv)` for every class
    /// (0 when either vector is zero), given `‖hv‖²`. Each row of a
    /// block feeds `LANES` independent dot products; each of them sees
    /// its terms in dimension order.
    ///
    /// # Panics
    ///
    /// Panics if `hv.len() != dim`.
    fn similarities(&self, hv: &[f32], hv_sq: f32, out: &mut [f32]) {
        assert_eq!(hv.len(), self.dim, "hypervector dimension mismatch");
        let blocks = self.lanes.chunks_exact(self.dim * LANES);
        let norms = self.squared_norms.chunks_exact(LANES);
        for ((block, norms), out) in blocks.zip(norms).zip(out.chunks_mut(LANES)) {
            let mut dot = [0.0f32; LANES];
            for (row, &h) in block.as_chunks::<LANES>().0.iter().zip(hv) {
                for (d, &c) in dot.iter_mut().zip(row) {
                    *d += c * h;
                }
            }
            for ((sim, &dot), &class_sq) in out.iter_mut().zip(&dot).zip(norms) {
                *sim = if class_sq == 0.0 || hv_sq == 0.0 {
                    0.0
                } else {
                    dot / (class_sq.sqrt() * hv_sq.sqrt())
                };
            }
        }
    }

    /// [`Self::similarities`] of a bare hypervector, norm and output
    /// vector included.
    fn scores(&self, hv: &[f32]) -> Vec<f32> {
        let mut sims = vec![0.0; self.classes];
        self.similarities(hv, squared_norm(hv), &mut sims);
        sims
    }

    /// Cosine similarity between class `l`'s hypervector and `hv`
    /// (0 for a zero class vector).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range or `hv` has the wrong dimension.
    pub fn similarity(&self, l: usize, hv: &[f32]) -> f32 {
        self.scores(hv)[l]
    }

    /// Predicts the class with maximal cosine similarity; among equally
    /// similar classes, the one with the highest index.
    ///
    /// # Panics
    ///
    /// Panics if `hv.len() != dim`.
    pub fn classify(&self, hv: &[f32]) -> usize {
        argmax(&self.scores(hv))
    }

    /// Applies one adaptive update for a labelled sample (Eq. 1). Returns
    /// `true` if the sample was already classified correctly (no update).
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range or `hv` has the wrong dimension.
    pub fn train_sample(&mut self, hv: &[f32], label: usize, lr: f32) -> bool {
        let mut sims = vec![0.0; self.classes];
        self.train_scored(hv, squared_norm(hv), label, lr, &mut sims)
    }

    /// [`Self::train_sample`] given `‖hv‖²` and a `classes`-long scratch.
    fn train_scored(
        &mut self,
        hv: &[f32],
        hv_sq: f32,
        label: usize,
        lr: f32,
        sims: &mut [f32],
    ) -> bool {
        assert!(label < self.classes, "label {label} out of range");
        self.similarities(hv, hv_sq, sims);
        let predicted = argmax(sims);
        if predicted == label {
            return true;
        }
        let w_true = lr * (1.0 - sims[label]);
        let w_pred = lr * (1.0 - sims[predicted]);
        // Both lanes in one walk, each new squared norm summed as it
        // goes: two add chains side by side instead of a pass apiece.
        let (at_true, at_pred) = (self.lane_offset(label), self.lane_offset(predicted));
        let (mut norm_true, mut norm_pred) = (0.0f32, 0.0f32);
        for (j, &h) in hv.iter().enumerate() {
            let c = &mut self.lanes[at_true + j * LANES];
            *c += w_true * h;
            norm_true += *c * *c;
            let c = &mut self.lanes[at_pred + j * LANES];
            *c -= w_pred * h;
            norm_pred += *c * *c;
        }
        self.squared_norms[label] = norm_true;
        self.squared_norms[predicted] = norm_pred;
        false
    }

    /// One-shot bundling: adds every hypervector to its class vector
    /// (`C_c ← C_c + H`), the standard OnlineHD/FedHD initialization pass
    /// that the adaptive rule (Eq. 1) then refines.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or out-of-range labels.
    pub fn bundle(&mut self, data: &EncodedDataset) {
        for (hv, label) in data.iter() {
            assert!(label < self.classes, "label {label} out of range");
            assert_eq!(hv.len(), self.dim, "hypervector dimension mismatch");
            for (c, &h) in self.class_mut(label).zip(hv) {
                *c += h;
            }
        }
        self.refresh_norms();
    }

    /// Trains one epoch over the dataset; returns the number of updates
    /// (misclassified samples).
    pub fn train_epoch(&mut self, data: &EncodedDataset, lr: f32) -> usize {
        let mut sims = vec![0.0; self.classes];
        data.scored()
            .filter(|&(hv, hv_sq, label)| !self.train_scored(hv, hv_sq, label, lr, &mut sims))
            .count()
    }

    /// Classification accuracy over a dataset (1.0 for an empty dataset).
    pub fn accuracy(&self, data: &EncodedDataset) -> f64 {
        if data.is_empty() {
            return 1.0;
        }
        let mut sims = vec![0.0; self.classes];
        let correct = data
            .scored()
            .filter(|&(hv, hv_sq, label)| {
                self.similarities(hv, hv_sq, &mut sims);
                argmax(&sims) == label
            })
            .count();
        correct as f64 / data.len() as f64
    }

    /// Flattens to a row-major `L·D` parameter vector (the unit that gets
    /// encrypted and aggregated in Rhychee-FL).
    pub fn flatten(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.num_parameters());
        for l in 0..self.classes {
            flat.extend(self.class(l));
        }
        flat
    }

    /// Replaces the parameters from a flat vector (global-model download).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != num_parameters()`.
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_parameters(), "flat parameter length mismatch");
        for (l, row) in flat.chunks_exact(self.dim).enumerate() {
            for (c, &x) in self.class_mut(l).zip(row) {
                *c = x;
            }
        }
        self.refresh_norms();
    }

    /// L2-normalizes every class hypervector in place.
    ///
    /// Normalized models keep aggregation well-conditioned and bound the
    /// dynamic range before fixed-point quantization / CKKS encoding.
    pub fn normalize(&mut self) {
        for l in 0..self.classes {
            let norm = self.squared_norms[l].sqrt();
            if norm > 0.0 {
                for x in self.class_mut(l) {
                    *x /= norm;
                }
            }
        }
        self.refresh_norms();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The row-major model this module used to be, kept verbatim as the
    /// reference the lane-blocked one must match bit for bit: one
    /// `Vec` per class, one `cosine` per class per classification, norms
    /// recomputed on every call.
    #[derive(Debug, Clone)]
    struct RowMajorOracle {
        class_vectors: Vec<Vec<f32>>,
    }

    impl RowMajorOracle {
        fn new(classes: usize, dim: usize) -> Self {
            RowMajorOracle { class_vectors: vec![vec![0.0; dim]; classes] }
        }

        fn similarity(&self, l: usize, hv: &[f32]) -> f32 {
            cosine(&self.class_vectors[l], hv)
        }

        fn classify(&self, hv: &[f32]) -> usize {
            self.class_vectors
                .iter()
                .enumerate()
                .map(|(l, c)| (l, cosine(c, hv)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(l, _)| l)
                .expect("at least one class")
        }

        fn train_sample(&mut self, hv: &[f32], label: usize, lr: f32) -> bool {
            let predicted = self.classify(hv);
            if predicted == label {
                return true;
            }
            let sim_true = cosine(&self.class_vectors[label], hv);
            let sim_pred = cosine(&self.class_vectors[predicted], hv);
            let w_true = lr * (1.0 - sim_true);
            let w_pred = lr * (1.0 - sim_pred);
            for (c, &h) in self.class_vectors[label].iter_mut().zip(hv) {
                *c += w_true * h;
            }
            for (c, &h) in self.class_vectors[predicted].iter_mut().zip(hv) {
                *c -= w_pred * h;
            }
            false
        }

        fn bundle(&mut self, data: &EncodedDataset) {
            for (hv, label) in data.iter() {
                for (c, &h) in self.class_vectors[label].iter_mut().zip(hv) {
                    *c += h;
                }
            }
        }

        fn train_epoch(&mut self, data: &EncodedDataset, lr: f32) -> usize {
            data.iter().filter(|(hv, label)| !self.train_sample(hv, *label, lr)).count()
        }

        fn flatten(&self) -> Vec<f32> {
            self.class_vectors.iter().flatten().copied().collect()
        }

        fn normalize(&mut self) {
            for row in &mut self.class_vectors {
                let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
                if norm > 0.0 {
                    for x in row.iter_mut() {
                        *x /= norm;
                    }
                }
            }
        }
    }

    /// Cosine similarity (0.0 when either vector is zero): three serial
    /// sums through the dimensions.
    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The class vectors as owned rows.
    fn rows(model: &HdcModel) -> Vec<Vec<f32>> {
        (0..model.classes()).map(|l| model.class(l).copied().collect()).collect()
    }

    /// Real-valued noisy clusters that stay inseparable: a quarter of
    /// the samples carry a wrong label and the first few appear twice
    /// under two labels, so bundling cannot memorise them and every
    /// epoch still has something to update.
    fn noisy_dataset(classes: usize, dim: usize, seed: u64) -> EncodedDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let prototypes: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..dim).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect())
            .collect();
        let mut hvs: Vec<Vec<f32>> = Vec::new();
        let mut labels = Vec::new();
        for i in 0..4 * classes + 3 {
            let c = i % classes;
            hvs.push(
                prototypes[c]
                    .iter()
                    .map(|&p| p * rng.gen_range(0.2f32..1.0) + rng.gen_range(-0.6f32..0.6))
                    .collect(),
            );
            labels.push(if rng.gen::<f32>() < 0.25 { rng.gen_range(0..classes) } else { c });
        }
        for i in 0..3.min(hvs.len()) {
            hvs.push(hvs[i].clone());
            labels.push((labels[i] + 1) % classes);
        }
        EncodedDataset::new(hvs, labels)
    }

    /// Trains the model and the oracle side by side — optional bundling,
    /// five Eq. 1 epochs, then `normalize` — and holds them to the same
    /// bits at every step. Returns the number of updates applied.
    fn train_against_oracle(classes: usize, dim: usize, bundle: bool, seed: u64) -> usize {
        let case = format!("L = {classes}, D = {dim}, bundle = {bundle}, seed {seed}");
        let data = noisy_dataset(classes, dim, seed);
        let mut model = HdcModel::new(classes, dim);
        let mut oracle = RowMajorOracle::new(classes, dim);
        if bundle {
            model.bundle(&data);
            oracle.bundle(&data);
        }
        let mut updates = 0;
        for epoch in 0..5 {
            let errors = model.train_epoch(&data, 0.37);
            assert_eq!(errors, oracle.train_epoch(&data, 0.37), "{case}, epoch {epoch}");
            assert_eq!(bits(&model.flatten()), bits(&oracle.flatten()), "{case}, epoch {epoch}");
            updates += errors;
        }
        let same_similarities = |model: &HdcModel, oracle: &RowMajorOracle, hv: &[f32]| {
            assert_eq!(model.classify(hv), oracle.classify(hv), "{case}");
            for l in 0..classes {
                let (sim, expect) = (model.similarity(l, hv), oracle.similarity(l, hv));
                assert_eq!(sim.to_bits(), expect.to_bits(), "{case}, class {l}");
            }
        };
        let zero = vec![0.0; dim];
        for (hv, _) in data.iter().take(4).chain([(zero.as_slice(), 0)]) {
            same_similarities(&model, &oracle, hv);
        }
        assert_eq!(HdcModel::from_flat(&model.flatten(), classes, dim), model, "{case}");

        model.normalize();
        oracle.normalize();
        assert_eq!(bits(&model.flatten()), bits(&oracle.flatten()), "{case}, normalized");
        // The norms `normalize` cached feed the next pass.
        same_similarities(&model, &oracle, data.iter().next().expect("non-empty dataset").0);
        updates
    }

    #[test]
    fn lane_blocked_model_matches_the_row_major_oracle_bit_for_bit() {
        for classes in [1usize, 3, 10, 16, 17, 33] {
            for dim in [5usize, 64, 130, 257, 2000] {
                for bundle in [false, true] {
                    let updates =
                        train_against_oracle(classes, dim, bundle, (classes * 10_000 + dim) as u64);
                    // One class can never be mispredicted; every other
                    // shape must have walked the Eq. 1 path.
                    assert!(
                        classes == 1 || updates > 0,
                        "L = {classes}, D = {dim}, bundle = {bundle}: no update was exercised"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn random_shapes_train_like_the_oracle(
            seed in proptest::prelude::any::<u64>(),
            classes in 1usize..40,
            dim in 1usize..300,
            bundle in proptest::prelude::any::<bool>(),
        ) {
            train_against_oracle(classes, dim, bundle, seed);
        }
    }

    #[test]
    fn padding_lanes_stay_zero_and_equality_ignores_them() {
        for classes in [1usize, 10, 17] {
            let data = noisy_dataset(classes, 24, 3);
            let mut model = HdcModel::new(classes, 24);
            model.bundle(&data);
            model.train_epoch(&data, 1.0);
            model.normalize();
            let flat = model.flatten();
            model.load_flat(&flat);
            for l in classes..model.squared_norms.len() {
                assert!(model.class(l).all(|c| c.to_bits() == 0), "padding lane {l} was written");
            }

            let mut poked = model.clone();
            *poked.lanes.last_mut().expect("non-empty buffer") = 7.0;
            assert_eq!(poked, model, "padding lanes are no part of the model");
            assert_eq!(poked.flatten(), flat);
            let mut other = model.clone();
            other.load_flat(&flat.iter().map(|x| x + 1.0).collect::<Vec<_>>());
            assert_ne!(other, model);
            assert_ne!(HdcModel::new(classes, 25), HdcModel::new(classes, 24));
            assert_ne!(HdcModel::new(classes + 1, 24), HdcModel::new(classes, 24));
        }
    }

    #[test]
    fn ties_go_to_the_highest_class_index_under_total_cmp() {
        // All similarities of a zero model are 0.0: the last class wins.
        for classes in [1usize, 2, 10, 16, 17, 33] {
            assert_eq!(HdcModel::new(classes, 8).classify(&[1.0; 8]), classes - 1);
            assert_eq!(RowMajorOracle::new(classes, 8).classify(&[1.0; 8]), classes - 1);
        }
        // Two identical class vectors tie exactly; the later one wins.
        let model = HdcModel::from_flat(&[1.0, 2.0, -1.0, 0.5, 1.0, 2.0, 1.0, 2.0], 4, 2);
        assert_eq!(model.classify(&[1.0, 2.0]), 3);
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 1);
        // `total_cmp`, not `partial_cmp`: −0.0 < +0.0, and a positive
        // NaN sorts above every number.
        assert_eq!(argmax(&[0.0, -0.0]), 0);
        assert_eq!(argmax(&[-0.0, 0.0, -0.0]), 1);
        assert_eq!(argmax(&[f32::NAN, 1.0]), 0);
        assert_eq!(argmax(&[-f32::NAN, -1.0]), 1);
    }

    #[test]
    #[should_panic(expected = "hypervector dimension mismatch")]
    fn similarity_rejects_a_short_hypervector() {
        // In release the old `debug_assert` was gone and `zip` scored a
        // prefix instead.
        let model = HdcModel::from_flat(&[1.0; 8], 2, 4);
        let _ = model.similarity(0, &[1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "hypervector dimension mismatch")]
    fn training_rejects_a_long_hypervector() {
        let mut model = HdcModel::new(2, 4);
        model.train_sample(&[1.0; 5], 0, 1.0);
    }

    /// Builds a toy dataset of two noisy orthogonal-ish clusters.
    fn toy_dataset(n_per_class: usize, dim: usize, seed: u64) -> EncodedDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let prototypes: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..dim).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect())
            .collect();
        let mut hvs = Vec::new();
        let mut labels = Vec::new();
        for (c, proto) in prototypes.iter().enumerate() {
            for _ in 0..n_per_class {
                let hv =
                    proto.iter().map(|&p| if rng.gen::<f32>() < 0.1 { -p } else { p }).collect();
                hvs.push(hv);
                labels.push(c);
            }
        }
        EncodedDataset::new(hvs, labels)
    }

    #[test]
    fn zero_model_has_zero_similarity() {
        let model = HdcModel::new(3, 64);
        assert_eq!(model.similarity(0, &vec![1.0; 64]), 0.0);
        assert_eq!(model.num_parameters(), 192);
    }

    #[test]
    fn bundling_learns_in_one_shot() {
        let data = toy_dataset(50, 256, 9);
        let mut model = HdcModel::new(3, 256);
        model.bundle(&data);
        assert!(model.accuracy(&data) > 0.9, "bundled accuracy {}", model.accuracy(&data));
        // Adaptive refinement on top only helps.
        let before = model.accuracy(&data);
        for _ in 0..3 {
            model.train_epoch(&data, 5.0);
        }
        assert!(model.accuracy(&data) >= before - 1e-9);
    }

    #[test]
    fn bundle_accumulates_class_sums() {
        let data = EncodedDataset::new(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![10.0, 20.0]],
            vec![0, 0, 1],
        );
        let mut model = HdcModel::new(2, 2);
        model.bundle(&data);
        assert_eq!(rows(&model), vec![vec![4.0, 6.0], vec![10.0, 20.0]]);
    }

    #[test]
    fn training_learns_separable_clusters() {
        let data = toy_dataset(50, 256, 1);
        let mut model = HdcModel::new(3, 256);
        for _ in 0..5 {
            model.train_epoch(&data, 1.0);
        }
        assert!(model.accuracy(&data) > 0.95, "accuracy {}", model.accuracy(&data));
    }

    #[test]
    fn errors_decrease_over_epochs() {
        let data = toy_dataset(100, 512, 2);
        let mut model = HdcModel::new(3, 512);
        let e1 = model.train_epoch(&data, 1.0);
        let mut last = e1;
        for _ in 0..4 {
            last = model.train_epoch(&data, 1.0);
        }
        assert!(last < e1, "errors should drop: {e1} -> {last}");
    }

    #[test]
    fn correct_prediction_skips_update() {
        let mut model = HdcModel::new(2, 8);
        let hv = vec![1.0; 8];
        model.train_sample(&hv, 0, 1.0);
        let snapshot = model.clone();
        // Now the sample is classified correctly; training again is a no-op.
        assert!(model.train_sample(&hv, 0, 1.0));
        assert_eq!(model, snapshot);
    }

    #[test]
    fn eq1_update_directions() {
        // Force a misprediction: class 1 is partially aligned with hv,
        // class 0 (the true class) is misaligned.
        let mut model = HdcModel::from_flat(&[-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0], 2, 4);
        let hv = vec![1.0, 1.0, 1.0, 1.0];
        let sim0_before = model.similarity(0, &hv);
        let sim1_before = model.similarity(1, &hv);
        assert!(!model.train_sample(&hv, 0, 0.5));
        assert!(model.similarity(0, &hv) > sim0_before, "true class moves toward hv");
        assert!(model.similarity(1, &hv) < sim1_before, "wrong class moves away from hv");
    }

    #[test]
    fn eq1_update_weight_vanishes_at_perfect_alignment() {
        // The (1 − σ) factor makes the update a no-op for a class vector
        // already perfectly aligned with the sample.
        let mut model = HdcModel::from_flat(&[-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0], 2, 4);
        let hv = vec![1.0, 1.0, 1.0, 1.0];
        assert!(!model.train_sample(&hv, 0, 0.5));
        assert_eq!(rows(&model)[1], vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn flatten_round_trip() {
        let data = toy_dataset(20, 64, 3);
        let mut model = HdcModel::new(3, 64);
        model.train_epoch(&data, 1.0);
        let flat = model.flatten();
        assert_eq!(flat.len(), 192);
        let restored = HdcModel::from_flat(&flat, 3, 64);
        assert_eq!(restored, model);
        let mut blank = HdcModel::new(3, 64);
        blank.load_flat(&flat);
        assert_eq!(blank, model);
    }

    #[test]
    fn normalize_gives_unit_rows() {
        let data = toy_dataset(20, 64, 4);
        let mut model = HdcModel::new(3, 64);
        model.train_epoch(&data, 1.0);
        model.normalize();
        for row in rows(&model) {
            let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                assert!((norm - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn normalization_preserves_predictions() {
        let data = toy_dataset(30, 128, 5);
        let mut model = HdcModel::new(3, 128);
        for _ in 0..3 {
            model.train_epoch(&data, 1.0);
        }
        let before: Vec<usize> = data.iter().map(|(hv, _)| model.classify(hv)).collect();
        model.normalize();
        let after: Vec<usize> = data.iter().map(|(hv, _)| model.classify(hv)).collect();
        assert_eq!(before, after, "cosine classification is scale-invariant");
    }

    #[test]
    fn averaging_two_models_preserves_shared_structure() {
        // The FedAvg sanity property: averaging models trained on the same
        // distribution classifies at least as well as chance and keeps shape.
        let d1 = toy_dataset(50, 256, 6);
        let d2 = toy_dataset(50, 256, 7);
        let mut m1 = HdcModel::new(3, 256);
        let mut m2 = HdcModel::new(3, 256);
        for _ in 0..3 {
            m1.train_epoch(&d1, 1.0);
            m2.train_epoch(&d2, 1.0);
        }
        let avg: Vec<f32> =
            m1.flatten().iter().zip(m2.flatten().iter()).map(|(a, b)| (a + b) / 2.0).collect();
        let global = HdcModel::from_flat(&avg, 3, 256);
        assert!(global.accuracy(&d1) > 0.9, "global on d1: {}", global.accuracy(&d1));
        assert!(global.accuracy(&d2) > 0.9, "global on d2: {}", global.accuracy(&d2));
    }

    #[test]
    #[should_panic(expected = "label")]
    fn out_of_range_label_panics() {
        let mut model = HdcModel::new(2, 4);
        model.train_sample(&[1.0; 4], 5, 1.0);
    }

    #[test]
    fn empty_dataset_edge_cases() {
        let data = EncodedDataset::default();
        assert!(data.is_empty());
        assert_eq!(data.dim(), 0);
        let model = HdcModel::new(2, 4);
        assert_eq!(model.accuracy(&data), 1.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn inconsistent_dataset_rejected() {
        let _ = EncodedDataset::new(vec![vec![1.0; 4]], vec![0, 1]);
    }
}
