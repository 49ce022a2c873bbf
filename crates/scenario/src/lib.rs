//! Rhychee-FL scenario engine: deterministic adversarial, churning,
//! heterogeneous federations.
//!
//! The paper's robustness claims are only measurable if the federation
//! can be put under stress *reproducibly*. This crate composes four
//! orthogonal perturbation layers over a seeded federated run:
//!
//! * **Byzantine clients** ([`attack`]): sign-flip, scaled-update, and
//!   colluding attackers mutate their plaintext updates before
//!   encryption, each an `attack::Attack` impl;
//! * **churn** ([`churn`]): declarative depart/rejoin traces drive the
//!   per-round participant set (and quorum reweighting);
//! * **device heterogeneity** ([`hetero`]): per-client speed
//!   multipliers plus pre-drawn jitter feed straggler deadlines;
//! * **defenses** ([`defense`]): norm-bound clipping and
//!   coordinate-wise trimmed mean on the server side, plus
//!   threshold-CKKS (k-of-n Shamir) dropout recovery when a keyholder
//!   departs ([`rhychee_fhe::ckks::threshold`]).
//!
//! A scenario is declared as a [`ScenarioSpec`] seeded from the
//! [`FlConfig`](rhychee_core::FlConfig) and compiled into a
//! `CompiledScenario` whose every random decision — attacker
//! identities, collusion direction, straggler jitter — is pre-drawn
//! before the first round (the preassigned-slot discipline of
//! DESIGN.md §8/§13). Running it ([`run`]) is then a pure function of
//! the compiled scenario and the dataset: two runs, at any
//! `Parallelism` degree, produce bit-identical [`ScenarioReport`]s.
//!
//! # Examples
//!
//! ```
//! use rhychee_core::FlConfig;
//! use rhychee_data::{DatasetKind, SyntheticConfig};
//! use rhychee_scenario::{AttackKind, ClipBound, Defense, ScenarioSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SyntheticConfig::small(DatasetKind::Har).generate(3)?;
//! let fl = FlConfig::builder().clients(5).rounds(2).hd_dim(256).seed(7).build()?;
//! let spec = ScenarioSpec::new(fl)
//!     .with_attack(AttackKind::SignFlip { scale: 10.0 }, 0.2)
//!     .with_defense(Defense::NormClip { bound: ClipBound::Median });
//! let report = rhychee_scenario::run(&spec, &data)?;
//! assert_eq!(report.attackers.len(), 1);
//! assert!(report.attacks_injected > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod attack;
pub mod churn;
pub mod defense;
pub mod hetero;
pub mod runner;
pub mod spec;

pub use attack::AttackKind;
pub use churn::ChurnTrace;
pub use defense::{ClipBound, Defense};
pub use hetero::DeviceProfile;
pub use runner::{run, ScenarioReport};
pub use spec::ScenarioSpec;
