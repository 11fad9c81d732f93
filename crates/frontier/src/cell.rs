//! One grid cell: its spec, its execution, its measured result.
//!
//! A cell is the atom of a sweep — one (dataset, utility, adjacency,
//! mechanism, ε, engine) combination, executed as a full two-world
//! attack scenario through the real serving stack. [`run_cell`] measures
//! three things side by side, which is the whole point of the frontier:
//!
//! * **theory** — the Corollary-1 accuracy ceiling at the cell's ε, the
//!   Lemma-1 advantage ceiling at the transcript budget, and (for node
//!   adjacency) Appendix A's ε floors;
//! * **achieved accuracy** — the mean measured accuracy of the served
//!   transcripts plus a Clopper–Pearson interval on the exact-hit rate
//!   (observations whose slots are drawn entirely from the optimal
//!   top-`k`);
//! * **empirical privacy** — each adversary's advantage, AUC and
//!   empirical-ε estimate, with Clopper–Pearson intervals on the
//!   best-threshold TPR/FPR.
//!
//! Every floating-point field of a [`CellResult`] is finite or an
//! explicit `Option` (`None` where the theory gives ∞ or nothing):
//! results must survive a JSON round trip bit-identically, and the
//! vendored serializer maps non-finite values to `null`.

use std::sync::Arc;

use psr_attack::{
    clopper_pearson, leaking_node_rewire, search_secret_edge, Adjacency, Adversary,
    AttackMechanism, AttackResult, BoundsComparison, FrequencyBaseline, GameConfig,
    LikelihoodRatioMia, ReconstructionAdversary, Secret, TranscriptSet, TwoWorldGame, WorldModel,
    SEARCH_BUDGET,
};
use psr_gen::split_seed;
use psr_graph::{EdgeMutation, Graph};
use psr_privacy::TopKEngine;
use psr_utility::UtilityKind;
use serde::{Deserialize, Serialize};

use crate::plan::ExperimentPlan;

/// Seed-stream tag for per-cell derivation (`split_seed(plan.seed, TAG ^
/// index)`): cells draw independent, index-stable streams no matter
/// which worker executes them.
const CELL_SEED_TAG: u64 = 0xF407_0000;

/// One point of the grid. The `index` is the cell's identity everywhere:
/// journal records, seed streams, report ordering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Position in the plan's expansion order.
    pub index: usize,
    /// Index into the plan's `datasets` axis.
    pub dataset: usize,
    /// Utility function name.
    pub utility: String,
    /// `edge` or `node`.
    pub adjacency: String,
    /// Mechanism name.
    pub mechanism: String,
    /// Per-observation ε (`None` for mechanisms without an ε parameter).
    pub epsilon: Option<f64>,
    /// Top-`k` engine name.
    pub engine: String,
}

/// A closed Clopper–Pearson interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lower endpoint.
    pub lower: f64,
    /// Upper endpoint.
    pub upper: f64,
}

/// One adversary's measurement inside a cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryCell {
    /// Adversary name.
    pub adversary: String,
    /// Best-threshold advantage `|TPR − FPR|`.
    pub advantage: f64,
    /// Area under the ROC curve.
    pub auc: f64,
    /// Best-threshold true-positive rate, with its Clopper–Pearson
    /// interval.
    pub tpr: f64,
    /// Clopper–Pearson interval on `tpr`.
    pub tpr_interval: Interval,
    /// Best-threshold false-positive rate.
    pub fpr: f64,
    /// Clopper–Pearson interval on `fpr`.
    pub fpr_interval: Interval,
    /// Empirical-ε point estimate.
    pub empirical_epsilon: f64,
    /// Clopper–Pearson-conservative empirical-ε lower bound.
    pub empirical_epsilon_lower: f64,
    /// Smallest ε consistent with the measured advantage (`None` when the
    /// advantage pins ε to ∞, i.e. a perfect separator).
    pub epsilon_floor: Option<f64>,
    /// Whether the measurement is consistent with the configured budget.
    pub consistent: bool,
}

/// A fully-measured cell: spec echo, theory overlay, achieved accuracy
/// and every adversary's empirical result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell this result answers.
    pub spec: CellSpec,
    /// Human-readable dataset label (preset name or file path).
    pub dataset: String,
    /// Composed transcript-level ε budget (`None` for non-private).
    pub transcript_epsilon: Option<f64>,
    /// Node-level transcript budget by group privacy (node adjacency
    /// only).
    pub node_transcript_epsilon: Option<f64>,
    /// Corollary-1 accuracy ceiling at the cell's per-observation ε and
    /// the representative observer's edit distance
    /// ([`TwoWorldGame::accuracy_ceiling`]; 1.0 when the theory is
    /// vacuous: non-private, smoothing, no edit distance, or an all-zero
    /// utility vector).
    pub accuracy_bound: f64,
    /// Lemma-1 advantage ceiling at the transcript budget.
    pub advantage_ceiling: f64,
    /// Appendix A's finite-`n` node-privacy ε floor (node adjacency only).
    pub node_epsilon_lower: Option<f64>,
    /// Appendix A's asymptotic `ln(n)/2` floor (node adjacency only).
    pub node_epsilon_lower_asymptotic: Option<f64>,
    /// Mean measured accuracy over all scorable world-1 observations
    /// (`None` when no observer had a scorable utility vector).
    pub mean_accuracy: Option<f64>,
    /// Observations whose measured accuracy was exactly 1 (all slots from
    /// the optimal top-`k`).
    pub exact_hits: usize,
    /// Scorable observations (the denominator of the hit rate).
    pub scored_entries: usize,
    /// Clopper–Pearson interval on the exact-hit rate (`None` when
    /// nothing was scorable).
    pub accuracy_interval: Option<Interval>,
    /// Per-adversary empirical measurements.
    pub adversaries: Vec<AdversaryCell>,
}

/// Maps a possibly-infinite theory value to a serialisable `Option`.
fn finite(x: f64) -> Option<f64> {
    x.is_finite().then_some(x)
}

/// Counts exact hits among the scorable world-1 observations: entries
/// whose measured accuracy is exactly 1 under the world-1 model. The
/// binary event behind the accuracy error bars ([`clopper_pearson`] needs
/// a Bernoulli count; the fractional mean has no binomial interval).
fn exact_hits(world1_model: &WorldModel, set: &TranscriptSet) -> (usize, usize) {
    let mut hits = 0usize;
    let mut scored = 0usize;
    for t in &set.world1 {
        for (i, obs) in t.entries.iter().enumerate() {
            if let Some(acc) = world1_model.model_for(i).accuracy_of(&obs.recommendations) {
                scored += 1;
                if acc >= 1.0 {
                    hits += 1;
                }
            }
        }
    }
    (hits, scored)
}

/// Clopper–Pearson interval on a best-threshold rate: the rate is
/// `successes / trials` with `successes` recovered exactly (rates are
/// ratios of small integers).
fn rate_interval(rate: f64, trials: usize, confidence: f64) -> Interval {
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let successes = (rate * trials as f64).round() as usize;
    let (lower, upper) = clopper_pearson(successes.min(trials), trials, confidence);
    Interval { lower, upper }
}

/// Folds one [`AttackResult`] + [`BoundsComparison`] pair into the cell's
/// per-adversary record.
fn adversary_cell(
    result: &AttackResult,
    comparison: &BoundsComparison,
    trials: usize,
    confidence: f64,
) -> AdversaryCell {
    AdversaryCell {
        adversary: result.adversary.clone(),
        advantage: result.advantage.advantage,
        auc: result.auc,
        tpr: result.advantage.tpr,
        tpr_interval: rate_interval(result.advantage.tpr, trials, confidence),
        fpr: result.advantage.fpr,
        fpr_interval: rate_interval(result.advantage.fpr, trials, confidence),
        empirical_epsilon: result.empirical_epsilon.point,
        empirical_epsilon_lower: result.empirical_epsilon.lower,
        epsilon_floor: finite(comparison.epsilon_floor),
        consistent: comparison.consistent,
    }
}

/// Executes one cell against its (already loaded) graph. Deterministic
/// in `(plan, spec)` alone: the scenario runs single-threaded on a seed
/// stream split from the plan seed and the cell index, so results do not
/// depend on which worker runs the cell or how many workers exist.
pub fn run_cell(
    plan: &ExperimentPlan,
    spec: &CellSpec,
    graph: &Arc<Graph>,
) -> Result<CellResult, String> {
    let dataset = plan.datasets[spec.dataset].label();
    let seed = split_seed(plan.seed, CELL_SEED_TAG ^ spec.index as u64);
    let utility = spec.utility.parse::<UtilityKind>()?.build(plan.gamma);
    // ε-free mechanisms (smoothing, non-private) ignore the ε argument.
    let epsilon = spec.epsilon.unwrap_or(f64::NAN);
    let mechanism = AttackMechanism::new(&spec.mechanism, epsilon, plan.smoothing_x)?;
    let engine: TopKEngine = spec.engine.parse()?;

    let (secret, observers) = match spec.adjacency.parse()? {
        Adjacency::Edge => {
            let ((u, v), observers) =
                search_secret_edge(graph, utility.as_ref(), plan.observer_cap).ok_or_else(
                    || format!("cell {}: no suitable secret edge on {dataset}", spec.index),
                )?;
            (Secret::Edge(EdgeMutation::insert(u, v)), observers)
        }
        Adjacency::Node => {
            let (node, new_neighbours, observers) =
                leaking_node_rewire(graph, utility.as_ref(), plan.observer_cap, SEARCH_BUDGET)
                    .ok_or_else(|| {
                        format!("cell {}: no leaking node rewire on {dataset}", spec.index)
                    })?;
            (Secret::Node { node, new_neighbours }, observers)
        }
    };
    let config = GameConfig {
        rounds: plan.rounds,
        k: plan.k,
        trials_per_world: plan.trials_per_world,
        mechanism,
        engine,
        threads: Some(1),
        seed,
        confidence: plan.confidence,
        ..GameConfig::new(secret, observers)
    };
    let game = TwoWorldGame::new(Arc::clone(graph), utility, config);
    let set = game.collect();
    let evaluated = evaluate_adversaries(&game, &set, seed);
    Ok(assemble(spec, dataset, plan, &game, &set, evaluated))
}

/// Scores one transcript set with the full adversary panel, each result
/// overlaid on the game's theory.
fn evaluate_adversaries(
    game: &TwoWorldGame,
    set: &TranscriptSet,
    seed: u64,
) -> Vec<(AttackResult, BoundsComparison)> {
    let probe = game.probe();
    let reconstruction = ReconstructionAdversary;
    let mia = LikelihoodRatioMia::new(probe, seed);
    let frequency = FrequencyBaseline { probe };
    let panel: [&dyn Adversary; 3] = [&reconstruction, &mia, &frequency];
    panel
        .iter()
        .map(|adv| {
            let result = game.attack(set, *adv);
            let comparison = game.compare(&result);
            (result, comparison)
        })
        .collect()
}

/// Assembles the final [`CellResult`] from the measured pieces.
fn assemble(
    spec: &CellSpec,
    dataset: String,
    plan: &ExperimentPlan,
    game: &TwoWorldGame,
    set: &TranscriptSet,
    evaluated: Vec<(AttackResult, BoundsComparison)>,
) -> CellResult {
    let (exact_hits, scored_entries) = exact_hits(game.world_models().1, set);
    let first = &evaluated[0].1;
    let mean_accuracy = first.mean_accuracy;
    let advantage_ceiling = first.advantage_ceiling;
    let node_epsilon_lower = first.node_epsilon_lower.and_then(finite);
    let node_epsilon_lower_asymptotic = first.node_epsilon_lower_asymptotic.and_then(finite);
    let accuracy_interval = (scored_entries > 0).then(|| {
        let (lower, upper) = clopper_pearson(exact_hits, scored_entries, plan.confidence);
        Interval { lower, upper }
    });
    let adversaries = evaluated
        .iter()
        .map(|(result, comparison)| {
            adversary_cell(result, comparison, plan.trials_per_world, plan.confidence)
        })
        .collect();
    CellResult {
        spec: spec.clone(),
        dataset,
        transcript_epsilon: game.transcript_epsilon().and_then(finite),
        node_transcript_epsilon: game.node_transcript_epsilon().and_then(finite),
        accuracy_bound: game.accuracy_ceiling(),
        advantage_ceiling,
        node_epsilon_lower,
        node_epsilon_lower_asymptotic,
        mean_accuracy,
        exact_hits,
        scored_entries,
        accuracy_interval,
        adversaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_datasets::toy::karate_club;

    fn toy_cell(mechanism: &str, epsilon: Option<f64>, adjacency: &str) -> CellSpec {
        CellSpec {
            index: 0,
            dataset: 0,
            utility: "common-neighbors".to_owned(),
            adjacency: adjacency.to_owned(),
            mechanism: mechanism.to_owned(),
            epsilon,
            engine: "gumbel".to_owned(),
        }
    }

    #[test]
    fn edge_cell_measures_theory_accuracy_and_adversaries() {
        let plan = ExperimentPlan::toy();
        let graph = Arc::new(karate_club());
        let spec = toy_cell("exponential", Some(0.5), "edge");
        let cell = run_cell(&plan, &spec, &graph).unwrap();
        assert_eq!(cell.dataset, "karate");
        assert_eq!(cell.adversaries.len(), 3);
        assert!(cell.transcript_epsilon.is_some());
        assert!(cell.accuracy_bound > 0.0 && cell.accuracy_bound <= 1.0);
        assert!(cell.advantage_ceiling > 0.0 && cell.advantage_ceiling <= 1.0);
        assert!(cell.scored_entries > 0);
        assert!(cell.exact_hits <= cell.scored_entries);
        let interval = cell.accuracy_interval.unwrap();
        assert!(0.0 <= interval.lower && interval.lower <= interval.upper && interval.upper <= 1.0);
        for adv in &cell.adversaries {
            assert!((0.0..=1.0).contains(&adv.advantage));
            assert!(adv.tpr_interval.lower <= adv.tpr + 1e-12);
            assert!(adv.tpr <= adv.tpr_interval.upper + 1e-12);
            assert!(adv.empirical_epsilon_lower <= adv.empirical_epsilon + 1e-12);
        }
    }

    #[test]
    fn non_private_cell_has_vacuous_theory() {
        let plan = ExperimentPlan::toy();
        let graph = Arc::new(karate_club());
        let spec = toy_cell("non-private", None, "edge");
        let cell = run_cell(&plan, &spec, &graph).unwrap();
        assert_eq!(cell.transcript_epsilon, None);
        assert_eq!(cell.accuracy_bound, 1.0);
        assert_eq!(cell.advantage_ceiling, 1.0);
    }

    #[test]
    fn node_cell_carries_appendix_a_floors() {
        let plan = ExperimentPlan::toy();
        let graph = Arc::new(karate_club());
        let spec = toy_cell("exponential", Some(0.5), "node");
        let cell = run_cell(&plan, &spec, &graph).unwrap();
        assert!(cell.node_transcript_epsilon.is_some());
        assert!(cell.node_epsilon_lower.is_some());
        assert!(cell.node_epsilon_lower_asymptotic.is_some());
    }

    #[test]
    fn cells_are_deterministic_and_round_trip_exactly() {
        let plan = ExperimentPlan::toy();
        let graph = Arc::new(karate_club());
        let spec = toy_cell("exponential", Some(2.0), "edge");
        let a = run_cell(&plan, &spec, &graph).unwrap();
        let b = run_cell(&plan, &spec, &graph).unwrap();
        assert_eq!(a, b, "same plan + spec must be bit-identical");
        let json = serde_json::to_string(&a).unwrap();
        let back: CellResult = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
        assert_eq!(json, serde_json::to_string(&back).unwrap(), "serialisation is stable");
    }
}
