//! # Rhychee-FL round-ladder benchmark
//!
//! Measures one encrypted federated round at the paper's operating
//! point — CKKS-4 / CKKS-3, N = 8192, D = 2000 × 10 classes = 20 000
//! parameters, 10–100 clients — end to end and layer by layer, on the
//! four workloads and with the metrics the root `BENCHMARK.json` names.
//! See this crate's `README.md` for what each workload stresses and how
//! to run, compare and read a traced run.
//!
//! Module layout:
//!
//! * [`sut`] — the adapter: every call into product code, and nothing else
//! * [`spec`] — workloads, their constants, and the parsed `BENCHMARK.json`
//! * [`workload`] — the closed-loop drivers and their correctness checks
//! * [`trace`] — the benchmark's own in-memory tracer
//! * [`layers`] — the per-ciphertext `fhe` rows beneath the spans
//! * [`stats`] — medians, quartiles, the tail-percentile rule
//! * [`report`] — metrics, the one-line result, result files
//! * [`compare`] — the `compare` subcommand
//! * [`cli`] — argument handling of both binaries
//! * [`json`] — a small JSON value (the workspace has no `serde`)

pub mod cli;
pub mod compare;
pub mod json;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;
