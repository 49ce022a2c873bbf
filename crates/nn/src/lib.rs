//! Minimal neural-network library for the Rhychee-FL baselines.
//!
//! The paper compares its HDC model against three conventional models:
//!
//! * a **CNN** with two convolutional + two fully connected layers
//!   (the Li et al. federated baseline, Fig. 3/4/5),
//! * an **MLP** (the PFMLP baseline, Table II), and
//! * **logistic regression** (the xMK-CKKS baseline, Table II).
//!
//! All three are built here from first principles: a dense [`tensor`],
//! [`layers`] with hand-derived backward passes, softmax cross-entropy
//! [`loss`], and a sequential [`network`] with SGD + momentum.
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rhychee_nn::network::Network;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::mlp(4, &[8], 2, &mut rng);
//! let feats = vec![vec![1.0, 1.0, 1.0, 1.0], vec![-1.0, -1.0, -1.0, -1.0]];
//! let labels = vec![0, 1];
//! for _ in 0..50 {
//!     net.train_epoch(&feats, &labels, 2, 0.5, 0.9, &mut rng);
//! }
//! assert_eq!(net.accuracy(&feats, &labels), 1.0);
//! ```

pub mod layers;
pub mod loss;
pub mod network;
pub mod tensor;

pub use network::Network;
