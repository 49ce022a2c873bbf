//! # Rhychee-FL core
//!
//! The paper's primary contribution: a privacy-preserving federated-
//! learning framework combining hyperdimensional computing (HDC) with
//! fully homomorphic encryption (FHE).
//!
//! One aggregation round (paper Fig. 1):
//!
//! 1. **Local training** — each client updates its class hypervectors on
//!    its local shard (Eq. 1);
//! 2. **Local model collection** — clients encrypt their models under a
//!    shared CKKS key with *maximum slot packing* and upload them;
//! 3. **Homomorphic aggregation** — the server computes
//!    `HomMul(Σᵢ Enc(LMᵢ), 1/P)` without decrypting (Eq. 2);
//! 4. **Global model distribution** — clients decrypt the new global
//!    model and continue.
//!
//! Modules:
//!
//! * [`config`] — run configuration (builder; paper defaults)
//! * [`framework`] — the orchestrator with plaintext / CKKS / LWE
//!   pipelines
//! * [`codec`] — model payload encoding (plaintext / CKKS / LWE wire formats)
//! * [`packing`] — maximum ciphertext packing (⌈DL/(N/2)⌉ ciphertexts)
//! * [`round`] — reusable round building blocks, shared with the
//!   networked `rhychee-net` runtime: the [`ClientHalf`](round::ClientHalf) and
//!   [`ServerHalf`](round::ServerHalf) every payload passes through
//! * [`streaming`] — [`StreamingAggregator`]: the one accumulator
//!   every runtime folds encrypted uploads into as zero-copy views,
//!   bit-identical to the Eq. 2 reference
//! * [`nn_fl`] — CNN / MLP / logistic-regression FedAvg baselines
//! * [`noisy`] — end-to-end encrypted FL across a noisy packet channel
//! * [`error`] — framework errors
//!
//! # Examples
//!
//! ```
//! use rhychee_core::{FlConfig, Framework};
//! use rhychee_data::{DatasetKind, SyntheticConfig};
//! use rhychee_fhe::params::CkksParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SyntheticConfig::small(DatasetKind::Har).generate(1)?;
//! let config = FlConfig::builder().clients(4).rounds(2).hd_dim(256).seed(1).build()?;
//! // The full encrypted pipeline; use `hdc_plaintext` for ablations.
//! let mut fed = Framework::hdc_encrypted(config, &data, CkksParams::toy())?;
//! let report = fed.run()?;
//! println!("final accuracy: {:.3}", report.final_accuracy);
//! # Ok(())
//! # }
//! ```

// A round loop that outgrows one screen stops being reviewable.
#![deny(clippy::too_many_lines)]

pub mod codec;
pub mod config;
pub mod error;
pub mod framework;
pub mod nn_fl;
pub mod noisy;
pub mod packing;
pub mod round;
pub mod streaming;

pub use config::{Aggregation, FlConfig};
pub use error::FlError;
pub use framework::{Framework, RoundHooks, RoundReport};
pub use nn_fl::{NnFederation, NnModelKind, SgdConfig};
pub use noisy::{NoisyChannelConfig, NoisyFederation};
pub use rhychee_par::Parallelism;
pub use streaming::StreamingAggregator;
