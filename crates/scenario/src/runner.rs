//! Executes a compiled scenario against the in-process [`Framework`]
//! via its [`RoundHooks`] seams, and exercises threshold-CKKS dropout
//! recovery whenever the churn trace drops a keyholder.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rhychee_telemetry as telemetry;

use rhychee_core::error::FlError;
use rhychee_core::framework::{Framework, RoundHooks, RoundReport};
use rhychee_core::packing;
use rhychee_data::TrainTest;
use rhychee_fhe::ckks::threshold::ThresholdGroup;
use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::params::CkksParams;

use crate::defense::{self, Defense};
use crate::spec::{CompiledScenario, ScenarioSpec};

/// Salt for the threshold-CKKS key ceremony and recovery encryptions
/// (kept apart from the framework's sampling and key streams).
const THRESHOLD_SALT: u64 = 0x7E5D_0123_C0DE_9A17;

/// What happened when a scenario ran: per-round accuracy plus the
/// perturbation ledger.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// Per-round framework reports, in order.
    pub rounds: Vec<RoundReport>,
    /// Accuracy after the final round.
    pub final_accuracy: f64,
    /// Attacker client ids this run (fixed at compile time).
    pub attackers: Vec<usize>,
    /// Total corrupted uploads across the run.
    pub attacks_injected: u64,
    /// Total updates rescaled by the norm-clip defense.
    pub updates_clipped: u64,
    /// Total churn transitions (departures + rejoins) that took effect.
    pub clients_churned: u64,
    /// Updates lost to straggler deadlines.
    pub stragglers_dropped: u64,
    /// Successful threshold decryptions after a keyholder departure.
    pub threshold_recoveries: u64,
    /// Departure rounds where the surviving quorum was below `k` and
    /// recovery was refused (the missing-share error path).
    pub recovery_failures: u64,
    /// Worst slot error across all threshold recoveries.
    pub recovery_max_err: f64,
}

/// Shared mutable ledger the hook closures write into.
#[derive(Debug, Default)]
struct Ledger {
    attacks: u64,
    clipped: u64,
    churned: u64,
    straggled: u64,
}

/// Runs `spec` over `data` to completion.
///
/// The run is a pure function of `(spec, data)`: every random decision
/// is pre-drawn by `ScenarioSpec::compile` or derived from the run
/// seed inside the framework, so two invocations — at any
/// `Parallelism` degree — produce bit-identical reports.
///
/// # Errors
///
/// Propagates [`FlError`] from the framework build, any round, or the
/// threshold-recovery encryptions.
pub fn run(spec: &ScenarioSpec, data: &TrainTest) -> Result<ScenarioReport, FlError> {
    let compiled = Rc::new(spec.compile());
    run_compiled(&compiled, data)
}

/// Runs an already-compiled scenario (see [`ScenarioSpec::compile`]).
///
/// # Errors
///
/// Propagates [`FlError`] as for [`run`].
pub(crate) fn run_compiled(
    compiled: &Rc<CompiledScenario>,
    data: &TrainTest,
) -> Result<ScenarioReport, FlError> {
    let spec = &compiled.spec;
    let mut fw = Framework::hdc_plaintext(spec.fl.clone(), data)?;
    let dim = fw.num_parameters();
    let ledger = Rc::new(RefCell::new(Ledger::default()));

    telemetry::gauge("fl.scenario.active", 1.0);
    telemetry::gauge("fl.scenario.attackers", compiled.attackers.len() as f64);

    let mut hooks = RoundHooks::default();

    // Presence: churn trace first, then straggler deadlines. Both are
    // table lookups into pre-drawn state — no live randomness.
    if !spec.churn.is_empty() || spec.devices.is_some() {
        let compiled = Rc::clone(compiled);
        let ledger = Rc::clone(&ledger);
        hooks.presence = Some(Box::new(move |round, ids: &mut Vec<usize>| {
            let spec = &compiled.spec;
            let mut ledger = ledger.borrow_mut();
            let transitions = spec.churn.transitions_at(round) as u64;
            if transitions > 0 {
                ledger.churned += transitions;
                telemetry::count("fl.scenario.clients_churned", transitions);
            }
            ids.retain(|&c| spec.churn.active(round, c));
            let before = ids.len();
            ids.retain(|&c| !compiled.straggles(round, c));
            let straggled = (before - ids.len()) as u64;
            if straggled > 0 {
                ledger.straggled += straggled;
                telemetry::count("fl.scenario.stragglers_dropped", straggled);
            }
        }));
    }

    // Updates tap: Byzantine corruption first (the attacker acts on its
    // own device, before upload), then the server-visible norm clip.
    let attack = spec.attack.map(|kind| kind.materialize(compiled.direction_seed, dim));
    if attack.is_some() || matches!(spec.defense, Defense::NormClip { .. }) {
        let compiled = Rc::clone(compiled);
        let ledger = Rc::clone(&ledger);
        hooks.updates_tap = Some(Box::new(move |round, updates| {
            let mut ledger = ledger.borrow_mut();
            if let Some(attack) = attack.as_deref() {
                for u in updates.iter_mut() {
                    if compiled.is_attacker(u.client_id) {
                        attack.corrupt(round, u.client_id, &mut u.payload);
                        ledger.attacks += 1;
                        telemetry::count("fl.scenario.attacks_injected", 1);
                    }
                }
            }
            if let Defense::NormClip { bound } = compiled.spec.defense {
                let resolved = defense::resolve_bound(bound, updates);
                let clipped = defense::clip_updates(updates, resolved);
                if clipped > 0 {
                    ledger.clipped += clipped;
                    telemetry::count("fl.scenario.updates_clipped", clipped);
                }
            }
        }));
    }

    // Aggregation override: coordinate-wise trimmed mean.
    if let Defense::CoordTrim { trim_ratio } = spec.defense {
        hooks.aggregate_override = Some(Box::new(move |_round, updates, _weights| {
            Some(defense::trimmed_mean(updates, trim_ratio))
        }));
    }

    fw.set_hooks(hooks);

    // Threshold-CKKS keyholders: the k-of-n ceremony runs up front so a
    // later departure cannot retroactively change the keys.
    let mut threshold = match spec.threshold_k {
        None => None,
        Some(k) => {
            let ctx = CkksContext::with_parallelism(CkksParams::toy(), spec.fl.parallelism)?;
            let mut rng = StdRng::seed_from_u64(spec.fl.seed ^ THRESHOLD_SALT);
            let group = ThresholdGroup::generate(&ctx, spec.fl.clients, k, &mut rng)
                .map_err(FlError::Fhe)?;
            Some((ctx, group, rng))
        }
    };

    let mut report =
        ScenarioReport { attackers: compiled.attackers.clone(), ..ScenarioReport::default() };

    for round in 0..spec.fl.rounds {
        report.rounds.push(fw.run_round()?);

        // A keyholder left this round: the surviving quorum must still
        // be able to open the encrypted global model.
        if let Some((ctx, group, rng)) = threshold.as_mut() {
            if !spec.churn.departures_at(round).is_empty() {
                let survivors: Vec<usize> =
                    (0..spec.fl.clients).filter(|&c| spec.churn.active(round, c)).collect();
                if survivors.len() < group.threshold() {
                    report.recovery_failures += 1;
                    telemetry::count("fl.scenario.threshold_recovery_failures", 1);
                } else {
                    let quorum = &survivors[..group.threshold()];
                    let flat = fw.global_model().flatten();
                    let cts = packing::encrypt_model_with(
                        ctx,
                        group.public_key(),
                        &flat,
                        &packing::PackingConfig::dense(),
                        rng,
                    )?;
                    let mut recovered = Vec::with_capacity(flat.len());
                    for ct in &cts {
                        let partials: Result<Vec<_>, _> = quorum
                            .iter()
                            .map(|&p| group.partial_decrypt_subset(ctx, p, quorum, ct, rng))
                            .collect();
                        let vals = group
                            .combine_checked(ctx, ct, &partials.map_err(FlError::Fhe)?)
                            .map_err(FlError::Fhe)?;
                        recovered.extend(vals);
                    }
                    let max_err = flat
                        .iter()
                        .zip(&recovered)
                        .map(|(&w, &r)| (f64::from(w) - r).abs())
                        .fold(0.0f64, f64::max);
                    report.recovery_max_err = report.recovery_max_err.max(max_err);
                    report.threshold_recoveries += 1;
                    telemetry::count("fl.scenario.threshold_recoveries", 1);
                }
            }
        }
    }

    report.final_accuracy = report.rounds.last().map_or(0.0, |r| r.accuracy);
    let ledger = ledger.borrow();
    report.attacks_injected = ledger.attacks;
    report.updates_clipped = ledger.clipped;
    report.clients_churned = ledger.churned;
    report.stragglers_dropped = ledger.straggled;
    telemetry::gauge("fl.scenario.active", 0.0);
    Ok(report)
}
