//! Synthetic datasets and federated partitioning for Rhychee-FL.
//!
//! The paper evaluates on MNIST and UCI HAR, neither of which is
//! available in this offline reproduction. This crate provides faithful
//! synthetic stand-ins (documented in the repository's DESIGN.md):
//!
//! * [`synth_mnist`] — 28×28 digit glyphs rendered from per-class stroke
//!   skeletons with affine jitter and pixel noise (10 classes, 784
//!   features);
//! * [`synth_har`] — six simulated activities as 6-channel inertial
//!   windows summarized into the UCI HAR 561-feature vector;
//! * [`partition`] — the Dirichlet non-IID partitioner of Li et al. used
//!   in the paper's setup (α = 0.5), plus an IID partitioner;
//! * [`dataset`] / [`config`] — dataset containers and generation entry
//!   points.
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rhychee_data::{DatasetKind, SyntheticConfig};
//! use rhychee_data::partition::dirichlet_partition;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let split = SyntheticConfig::small(DatasetKind::Mnist).generate(1)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let shards = dirichlet_partition(&split.train, 10, 0.5, &mut rng);
//! assert_eq!(shards.len(), 10);
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod dataset;
pub mod partition;
pub mod synth_har;
pub mod synth_mnist;

pub use config::{DatasetKind, SyntheticConfig};
pub use dataset::TrainTest;

/// One standard normal draw by Box–Muller, consuming two `f64` words of
/// `rng`: the pixel noise of [`synth_mnist`] and the sensor noise of
/// [`synth_har`].
pub(crate) fn gaussian<R: rand::Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}
