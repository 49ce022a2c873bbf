//! Scenario declaration and deterministic compilation.
//!
//! A [`ScenarioSpec`] is pure data: the base [`FlConfig`] plus the
//! perturbation layers stacked on top. `ScenarioSpec::compile`
//! pre-draws every random decision the scenario will ever make —
//! attacker assignment, the colluders' direction seed, the straggler
//! jitter matrix — from the run seed, before the first round executes.
//! This is the same preassigned-slot discipline the FHE pipeline uses
//! (DESIGN.md §8): once compiled, the run is a pure function, so it
//! replays bit-identically across processes and parallelism degrees.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use rhychee_core::FlConfig;

use crate::attack::AttackKind;
use crate::churn::ChurnTrace;
use crate::defense::Defense;
use crate::hetero::DeviceProfile;

/// Salt separating the scenario pre-draw stream from the sampling /
/// key-material streams already derived from the run seed.
const SCENARIO_SALT: u64 = 0x005C_EA0A_11D5_EED5;

/// A declarative federation scenario: base config plus perturbations.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The base federated run (clients, rounds, seed, aggregation, …).
    pub fl: FlConfig,
    /// Byzantine behavior installed on the attacker subset, if any.
    pub attack: Option<AttackKind>,
    /// Fraction of clients that are attackers (rounded to a count).
    pub attack_fraction: f64,
    /// Departure / rejoin schedule.
    pub churn: ChurnTrace,
    /// Per-client speed multipliers (None = homogeneous fleet).
    pub devices: Option<DeviceProfile>,
    /// Straggler deadline in nominal round-time units (only meaningful
    /// with a device profile).
    pub deadline: f64,
    /// Maximum per-round jitter fraction added to a device's round time.
    pub jitter: f64,
    /// Server-side defense over the round's updates.
    pub defense: Defense,
    /// `Some(k)`: clients hold k-of-n Shamir CKKS key shares, and every
    /// departure round exercises threshold decryption of the global
    /// model by the surviving quorum.
    pub threshold_k: Option<usize>,
}

impl ScenarioSpec {
    /// A benign scenario over `fl` — no attacks, no churn, homogeneous
    /// devices, no defense.
    pub fn new(fl: FlConfig) -> ScenarioSpec {
        ScenarioSpec {
            fl,
            attack: None,
            attack_fraction: 0.0,
            churn: ChurnTrace::new(),
            devices: None,
            deadline: f64::INFINITY,
            jitter: 0.0,
            defense: Defense::None,
            threshold_k: None,
        }
    }

    /// Installs `attack` on a `fraction` of clients (chosen by seeded
    /// shuffle at compile time).
    #[must_use]
    pub fn with_attack(mut self, attack: AttackKind, fraction: f64) -> ScenarioSpec {
        self.attack = Some(attack);
        self.attack_fraction = fraction;
        self
    }

    /// Installs a churn trace.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnTrace) -> ScenarioSpec {
        self.churn = churn;
        self
    }

    /// Installs a device profile with a straggler deadline and per-round
    /// jitter amplitude.
    #[must_use]
    pub fn with_devices(
        mut self,
        devices: DeviceProfile,
        deadline: f64,
        jitter: f64,
    ) -> ScenarioSpec {
        self.devices = Some(devices);
        self.deadline = deadline;
        self.jitter = jitter;
        self
    }

    /// Installs a server-side defense.
    #[must_use]
    pub fn with_defense(mut self, defense: Defense) -> ScenarioSpec {
        self.defense = defense;
        self
    }

    /// Arms k-of-n threshold-CKKS dropout recovery.
    #[must_use]
    pub fn with_threshold(mut self, k: usize) -> ScenarioSpec {
        self.threshold_k = Some(k);
        self
    }

    /// Pre-draws every random decision of the scenario from the run
    /// seed, fixing attacker identities, the collusion direction seed,
    /// and the per-round straggler jitter before the run starts.
    pub(crate) fn compile(&self) -> CompiledScenario {
        let mut rng = StdRng::seed_from_u64(self.fl.seed ^ SCENARIO_SALT);
        let clients = self.fl.clients;
        let count = if self.attack.is_some() {
            ((clients as f64 * self.attack_fraction).round() as usize).min(clients)
        } else {
            0
        };
        let mut ids: Vec<usize> = (0..clients).collect();
        ids.shuffle(&mut rng);
        ids.truncate(count);
        ids.sort_unstable();
        let direction_seed = rng.gen();
        let jitter = (0..self.fl.rounds)
            .map(|_| {
                (0..clients)
                    .map(|_| if self.jitter > 0.0 { rng.gen_range(0.0..self.jitter) } else { 0.0 })
                    .collect()
            })
            .collect();
        CompiledScenario { spec: self.clone(), attackers: ids, direction_seed, jitter }
    }
}

/// A [`ScenarioSpec`] with all randomness resolved. Running it is a
/// pure function of this value and the dataset.
#[derive(Debug, Clone)]
pub(crate) struct CompiledScenario {
    /// The declaration this was compiled from.
    pub spec: ScenarioSpec,
    /// Attacker client ids, ascending.
    pub attackers: Vec<usize>,
    /// Seed for the colluders' shared direction (drawn here so the
    /// direction itself can be materialized once the model dimension is
    /// known, without touching any live RNG).
    pub direction_seed: u64,
    /// Pre-drawn straggler jitter, `jitter[round][client]`.
    pub jitter: Vec<Vec<f64>>,
}

impl CompiledScenario {
    /// Whether `client` attacks this run.
    pub(crate) fn is_attacker(&self, client: usize) -> bool {
        self.attackers.binary_search(&client).is_ok()
    }

    /// Whether `client` misses `round` as a straggler.
    pub(crate) fn straggles(&self, round: usize, client: usize) -> bool {
        match &self.spec.devices {
            None => false,
            Some(devices) => {
                let j =
                    self.jitter.get(round).and_then(|row| row.get(client)).copied().unwrap_or(0.0);
                devices.misses(client, j, self.spec.deadline)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackKind;

    fn base(clients: usize, rounds: usize, seed: u64) -> FlConfig {
        FlConfig::builder()
            .clients(clients)
            .rounds(rounds)
            .hd_dim(64)
            .seed(seed)
            .build()
            .expect("valid")
    }

    #[test]
    fn compile_is_deterministic() {
        let spec = ScenarioSpec::new(base(10, 3, 7))
            .with_attack(AttackKind::SignFlip { scale: 10.0 }, 0.2)
            .with_devices(DeviceProfile::linear(10, 1.0, 3.0), 2.5, 0.2);
        let a = spec.compile();
        let b = spec.compile();
        assert_eq!(a.attackers, b.attackers);
        assert_eq!(a.direction_seed, b.direction_seed);
        assert_eq!(a.jitter, b.jitter);
    }

    #[test]
    fn attacker_count_follows_fraction() {
        let spec = ScenarioSpec::new(base(10, 1, 3))
            .with_attack(AttackKind::ScaledUpdate { factor: 5.0 }, 0.2);
        let c = spec.compile();
        assert_eq!(c.attackers.len(), 2);
        assert!(c.attackers.windows(2).all(|w| w[0] < w[1]));
        // No attack installed → no attackers regardless of fraction.
        let benign = ScenarioSpec::new(base(10, 1, 3)).compile();
        assert!(benign.attackers.is_empty());
    }

    #[test]
    fn different_seeds_pick_different_attackers() {
        let pick = |seed| {
            ScenarioSpec::new(base(30, 1, seed))
                .with_attack(AttackKind::SignFlip { scale: 10.0 }, 0.3)
                .compile()
                .attackers
        };
        assert_ne!(pick(1), pick(2), "seed must steer attacker assignment");
    }

    #[test]
    fn straggler_lookup_uses_profile_and_jitter() {
        let spec = ScenarioSpec::new(base(4, 2, 9)).with_devices(
            DeviceProfile::linear(4, 1.0, 4.0),
            2.5,
            0.0,
        );
        let c = spec.compile();
        assert!(!c.straggles(0, 0));
        assert!(c.straggles(0, 3));
        // Without a profile nobody straggles.
        let benign = ScenarioSpec::new(base(4, 2, 9)).compile();
        assert!(!benign.straggles(0, 3));
    }
}
