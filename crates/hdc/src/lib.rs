//! Hyperdimensional computing (HDC) for Rhychee-FL.
//!
//! HDC classifiers represent each class as a high-dimensional vector
//! ("class hypervector"); training is elementwise vector addition and
//! inference is a nearest-neighbour search under cosine similarity. The
//! whole model is `L × D` numbers — the property Rhychee-FL exploits for
//! cheap encrypted federated aggregation.
//!
//! * [`encoding`] — random-projection and RBF feature encoders (§II-B)
//! * [`model`] — class-hypervector model, adaptive training rule (Eq. 1),
//!   inference
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rhychee_hdc::encoding::{Encoder, RbfEncoder};
//! use rhychee_hdc::model::HdcModel;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let encoder = RbfEncoder::new(4, 256, &mut rng);
//! // Two linearly separable blobs.
//! let samples: Vec<(Vec<f32>, usize)> = (0..40)
//!     .map(|i| {
//!         let c = i % 2;
//!         let base = if c == 0 { 1.0 } else { -1.0 };
//!         (vec![base, base, base, base], c)
//!     })
//!     .collect();
//! let mut model = HdcModel::new(2, encoder.dim());
//! for (x, y) in &samples {
//!     let hv = encoder.encode(x);
//!     model.train_sample(&hv, *y, 1.0);
//! }
//! let hv = encoder.encode(&[1.0, 1.0, 1.0, 1.0]);
//! assert_eq!(model.classify(&hv), 0);
//! ```

pub mod encoding;
pub mod model;
