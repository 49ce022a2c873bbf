//! # Rhychee-FL
//!
//! Umbrella crate for the Rhychee-FL reproduction: robust and efficient
//! hyperdimensional federated learning with homomorphic encryption
//! (DATE 2025).
//!
//! This crate re-exports the public API of every subsystem so examples and
//! downstream users can depend on a single crate:
//!
//! * [`bigint`] — fixed-width integers (Paillier substrate)
//! * [`fhe`] — CKKS, TFHE-style LWE and Paillier homomorphic encryption
//! * [`hdc`] — hyperdimensional computing encoders and classifiers
//! * [`nn`] — the CNN / MLP / logistic-regression baselines
//! * [`data`] — synthetic MNIST/HAR datasets and non-IID partitioning
//! * [`channel`] — noisy-communication models (CRC, BER, 5G latency)
//! * [`core`] — the Rhychee-FL federated-learning framework itself
//! * [`net`] — the networked runtime: TCP client/server FL rounds over
//!   a CRC-guarded encrypted wire protocol (DESIGN.md §8)
//! * [`obs`] — the live observability plane: Prometheus `/metrics`,
//!   `/healthz` and `/trace.json` over hand-rolled HTTP (DESIGN.md §10)
//! * [`par`] — the scoped thread pool behind the unified `Parallelism`
//!   knob (DESIGN.md §9)
//! * [`telemetry`] — tracing spans and metrics over the round loop and
//!   FHE hot paths (disabled by default; see DESIGN.md §7)
//!
//! # Quickstart
//!
//! ```
//! use rhychee_fl::core::{FlConfig, Framework};
//! use rhychee_fl::data::{DatasetKind, SyntheticConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SyntheticConfig::small(DatasetKind::Mnist).generate(7)?;
//! let config = FlConfig::builder()
//!     .clients(4)
//!     .rounds(2)
//!     .hd_dim(512)
//!     .seed(7)
//!     .build()?;
//! let mut fw = Framework::hdc_plaintext(config, &data)?;
//! let report = fw.run()?;
//! assert!(report.final_accuracy > 0.5);
//! # Ok(())
//! # }
//! ```

pub use rhychee_bigint as bigint;
pub use rhychee_channel as channel;
pub use rhychee_core as core;
pub use rhychee_data as data;
pub use rhychee_fhe as fhe;
pub use rhychee_hdc as hdc;
pub use rhychee_net as net;
pub use rhychee_nn as nn;
pub use rhychee_obs as obs;
pub use rhychee_par as par;
pub use rhychee_scenario as scenario;
pub use rhychee_telemetry as telemetry;
