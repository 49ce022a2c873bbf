//! # Rhychee-FL networked runtime
//!
//! A real client/server deployment of the paper's system model: clients
//! train hyperdimensional models locally, encrypt them under a shared
//! CKKS key, and upload over TCP; the server homomorphically averages
//! the ciphertexts (paper Eq. 2) and broadcasts the aggregate — it
//! never holds key material and never sees a plaintext model.
//!
//! Layers:
//!
//! * [`wire`] — length-prefixed, versioned, CRC-guarded binary frames
//! * [`codec`] — model payload encoding (plaintext / CKKS / LWE), re-exported
//!   from `rhychee-core`; the sealed [`WireCodec`] trait selects the
//!   CKKS wire format ([`CanonicalCodec`] / [`SeededCodec`]) and parses
//!   uploads into zero-copy [`ModelView`]s
//! * [`server`] — [`FlServer`]: a socket-free round state machine
//!   (accept → broadcast → collect → close) with thread-per-connection
//!   I/O at its edges and quorum-based straggler tolerance; under CKKS,
//!   uploads fold into the round's one encrypted accumulator as frames
//!   arrive (O(1) server memory in client count, bit-identical in every
//!   arrival order)
//! * [`client`] — [`FlClient`]: connect/upload with bounded retry and
//!   local decryption of each global model
//! * [`error`] — [`NetError`]
//!
//! Both endpoints run the round halves of the in-process
//! [`Framework`](rhychee_core::Framework) ([`rhychee_core::round`]), and
//! all randomness is derived from the run seed, so a networked federation
//! reproduces the in-process global model **bit for bit** under the same
//! configuration.
//!
//! # Examples
//!
//! ```no_run
//! use std::thread;
//! use rhychee_core::round::{self, FedSetup};
//! use rhychee_core::FlConfig;
//! use rhychee_data::{DatasetKind, SyntheticConfig};
//! use rhychee_fhe::params::CkksParams;
//! use rhychee_net::{ClientConfig, ClientPipeline, FlClient, FlServer, ServerConfig, ServerPipeline};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SyntheticConfig::small(DatasetKind::Har).generate(3)?;
//! let fl = FlConfig::builder().clients(4).rounds(3).hd_dim(256).seed(7).build()?;
//! let FedSetup { shards, test, classes } = round::prepare(&fl, &data)?;
//!
//! let num_params = classes * fl.hd_dim;
//! let server = FlServer::bind(
//!     "127.0.0.1:0",
//!     ServerConfig::builder().clients(4).rounds(3).model_params(num_params).build()?,
//!     ServerPipeline::Ckks(CkksParams::toy()),
//! )?;
//! let addr = server.local_addr()?;
//! let server = thread::spawn(move || server.run());
//!
//! let mut clients = Vec::new();
//! for (id, shard) in shards.into_iter().enumerate() {
//!     let local = round::ClientLocal::new(id, shard, classes, &fl);
//!     let eval = if id == 0 { Some(test.clone()) } else { None };
//!     let client = FlClient::new(
//!         ClientConfig::new(addr), fl.clone(), local, classes, eval,
//!         ClientPipeline::Ckks(CkksParams::toy()),
//!     )?;
//!     clients.push(thread::spawn(move || client.run()));
//! }
//! for c in clients { c.join().unwrap()?; }
//! server.join().unwrap()?;
//! # Ok(())
//! # }
//! ```

// A round loop that outgrows one screen stops being reviewable as a
// protocol; the lint job keeps the state-machine split from eroding.
#![deny(clippy::too_many_lines)]

pub mod client;
pub mod error;
mod residency;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientPipeline, ClientReport, FlClient};
pub use codec::{CanonicalCodec, ModelView, SeededCodec, WireCodec};
pub use error::NetError;
pub use rhychee_core::codec;
pub use server::{FlServer, ServerConfig, ServerPipeline, ServerReport};
pub use wire::{Message, DEFAULT_MAX_PAYLOAD};
