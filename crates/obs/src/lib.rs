//! # rhychee-obs
//!
//! Live observability plane for the Rhychee-FL stack: a zero-dependency
//! HTTP/1.1 exposition server ([`http::ObsServer`]) publishing the global
//! telemetry registry as Prometheus text ([`prometheus::render`]) on
//! `/metrics`, a JSON liveness summary on `/healthz`, the newest
//! recorded spans on `/trace.json`, the per-round federation timeline
//! with round-phase SLO quantiles on `/rounds.json`
//! (`rounds::render_json`), and the reconciled memory breakdown —
//! tracking-allocator heap, RSS, per-subsystem bytes — on `/memory.json`
//! (`memory::memory_body`).
//!
//! Liveness failures get first-class handling: the round [`Watchdog`]
//! detects a stalled round phase and the [`flight`] recorder dumps a
//! full observability snapshot (spans with allocation attribution,
//! metrics, memory breakdown) to disk for post-mortem reading with the
//! `mem_report` binary.
//!
//! The server is wired into `rhychee-net`'s `FlServer` via
//! `ServerConfig::builder().obs_addr(...)`; it can also be embedded
//! standalone in any process that records telemetry:
//!
//! ```
//! use rhychee_obs::ObsServer;
//!
//! rhychee_telemetry::set_enabled(true);
//! let handle = ObsServer::bind("127.0.0.1:0").unwrap().spawn().unwrap();
//! println!("scrape http://{}/metrics", handle.addr());
//! // handle stops the server when dropped
//! ```
//!
//! Metric naming, the exposition grammar, and the noise-budget gauge
//! taxonomy are documented in DESIGN.md §10.

pub mod flight;
pub mod http;
pub mod memory;
pub mod prometheus;
pub mod rounds;
pub mod watchdog;

pub use http::{ObsHandle, ObsServer};
pub use watchdog::Watchdog;
