//! Dataset generation configuration and entry points.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{Dataset, TrainTest};
use crate::synth_har::{self, Activity};
use crate::synth_mnist::{self, GlyphJitter};

/// Which synthetic dataset to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Synthetic MNIST: 10 classes, 784 features (28×28 digit glyphs).
    Mnist,
    /// Synthetic HAR: 6 classes, 561 inertial features.
    Har,
}

impl DatasetKind {
    /// Number of classes L.
    pub fn num_classes(self) -> usize {
        match self {
            DatasetKind::Mnist => synth_mnist::NUM_CLASSES,
            DatasetKind::Har => synth_har::NUM_CLASSES,
        }
    }

    /// Feature dimension f.
    pub fn feature_dim(self) -> usize {
        match self {
            DatasetKind::Mnist => synth_mnist::IMAGE_PIXELS,
            DatasetKind::Har => synth_har::FEATURE_DIM,
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetKind::Mnist => write!(f, "MNIST (synthetic)"),
            DatasetKind::Har => write!(f, "HAR (synthetic)"),
        }
    }
}

/// Generation parameters for a synthetic dataset.
///
/// # Examples
///
/// ```
/// use rhychee_data::config::{DatasetKind, SyntheticConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let split = SyntheticConfig::small(DatasetKind::Har).generate(42)?;
/// assert_eq!(split.train.num_classes(), 6);
/// assert_eq!(split.train.feature_dim(), 561);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Which dataset family to generate.
    pub kind: DatasetKind,
    /// Training samples (balanced across classes).
    pub train_samples: usize,
    /// Test samples (balanced across classes).
    pub test_samples: usize,
}

/// Error from dataset generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerateError(String);

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dataset generation failed: {}", self.0)
    }
}

impl std::error::Error for GenerateError {}

impl SyntheticConfig {
    /// A small config for unit tests and doctests (600 train / 200 test).
    pub fn small(kind: DatasetKind) -> Self {
        SyntheticConfig { kind, train_samples: 600, test_samples: 200 }
    }

    /// The paper-scale config used by the experiment harness
    /// (6,000 train / 1,500 test).
    pub fn paper(kind: DatasetKind) -> Self {
        SyntheticConfig { kind, train_samples: 6_000, test_samples: 1_500 }
    }

    /// Generates a deterministic train/test split from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError`] if either sample count is smaller than
    /// the class count (the split must contain every class).
    pub fn generate(&self, seed: u64) -> Result<TrainTest, GenerateError> {
        let classes = self.kind.num_classes();
        if self.train_samples < classes || self.test_samples < classes {
            return Err(GenerateError(format!(
                "need at least {classes} samples per split, got {}/{}",
                self.train_samples, self.test_samples
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train = self.generate_split(self.train_samples, &mut rng);
        let mut test = self.generate_split(self.test_samples, &mut rng);
        if self.kind == DatasetKind::Har {
            // The UCI HAR release ships features normalized to [-1, 1];
            // mirror that by z-scoring on training statistics (test uses
            // the same transform, as a deployed system would).
            let stats = FeatureStats::fit(&train);
            stats.apply(&mut train);
            stats.apply(&mut test);
        }
        Ok(TrainTest { train, test })
    }

    fn generate_split<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let classes = self.kind.num_classes();
        let mut features = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % classes; // balanced
            let feat = match self.kind {
                DatasetKind::Mnist => {
                    synth_mnist::render_digit(label, &GlyphJitter::default(), rng)
                }
                DatasetKind::Har => {
                    let activity = Activity::all()[label];
                    synth_har::generate_sample(activity, rng)
                }
            };
            features.push(feat);
            labels.push(label);
        }
        Dataset::new(features, labels, classes)
    }
}

/// Per-feature standardization statistics fitted on a training split.
#[derive(Debug, Clone)]
pub(crate) struct FeatureStats {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
}

impl FeatureStats {
    /// Fits mean and standard deviation per feature.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub(crate) fn fit(data: &Dataset) -> Self {
        assert!(!data.is_empty(), "cannot fit statistics on an empty dataset");
        let dim = data.feature_dim();
        let n = data.len() as f32;
        let mut mean = vec![0.0f32; dim];
        for f in data.features() {
            for (m, &x) in mean.iter_mut().zip(f) {
                *m += x / n;
            }
        }
        let mut var = vec![0.0f32; dim];
        for f in data.features() {
            for ((v, &x), &m) in var.iter_mut().zip(f).zip(&mean) {
                *v += (x - m) * (x - m) / n;
            }
        }
        let inv_std = var.iter().map(|&v| 1.0 / v.sqrt().max(1e-6)).collect();
        FeatureStats { mean, inv_std }
    }

    /// Standardizes a dataset in place, clamping to ±5σ.
    pub(crate) fn apply(&self, data: &mut Dataset) {
        for f in data.features_mut() {
            for ((x, &m), &s) in f.iter_mut().zip(&self.mean).zip(&self.inv_std) {
                *x = ((*x - m) * s).clamp(-5.0, 5.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_generation_shapes() {
        let split = SyntheticConfig::small(DatasetKind::Mnist).generate(1).expect("generate");
        assert_eq!(split.train.len(), 600);
        assert_eq!(split.test.len(), 200);
        assert_eq!(split.train.feature_dim(), 784);
        assert_eq!(split.train.num_classes(), 10);
        // Balanced classes.
        assert!(split.train.class_counts().iter().all(|&c| c == 60));
    }

    #[test]
    fn har_generation_shapes() {
        let split = SyntheticConfig::small(DatasetKind::Har).generate(2).expect("generate");
        assert_eq!(split.train.feature_dim(), 561);
        assert_eq!(split.train.num_classes(), 6);
        assert_eq!(split.train.class_counts().iter().sum::<usize>(), 600);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig::small(DatasetKind::Mnist);
        let a = cfg.generate(7).expect("generate");
        let b = cfg.generate(7).expect("generate");
        assert_eq!(a.train.features()[0], b.train.features()[0]);
        assert_eq!(a.test.features()[13], b.test.features()[13]);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SyntheticConfig::small(DatasetKind::Har);
        let a = cfg.generate(1).expect("generate");
        let b = cfg.generate(2).expect("generate");
        assert_ne!(a.train.features()[0], b.train.features()[0]);
    }

    #[test]
    fn train_and_test_are_disjoint_draws() {
        let cfg = SyntheticConfig::small(DatasetKind::Mnist);
        let split = cfg.generate(3).expect("generate");
        // Same label, same position, but different random jitter.
        assert_ne!(split.train.features()[0], split.test.features()[0]);
    }

    #[test]
    fn undersized_config_rejected() {
        let cfg = SyntheticConfig { kind: DatasetKind::Mnist, train_samples: 5, test_samples: 200 };
        assert!(cfg.generate(1).is_err());
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(DatasetKind::Mnist.num_classes(), 10);
        assert_eq!(DatasetKind::Mnist.feature_dim(), 784);
        assert_eq!(DatasetKind::Har.num_classes(), 6);
        assert_eq!(DatasetKind::Har.feature_dim(), 561);
        assert!(DatasetKind::Mnist.to_string().contains("MNIST"));
    }
}
