//! The §7.1 experimental protocol.
//!
//! For a graph and utility function: sample target nodes uniformly at
//! random (10% on the Wiki graph, 1% on Twitter), compute each target's
//! utility vector over the standard candidate set, drop targets whose
//! vector is all-zero (footnote 10), and record for each survivor
//!
//! * the Exponential mechanism's exact expected accuracy,
//! * the Laplace mechanism's 1,000-trial Monte-Carlo accuracy,
//! * the Corollary-1 theoretical ceiling with the exact per-target `t`.
//!
//! Targets are evaluated in parallel with per-target RNG streams split
//! from the experiment seed, so results are deterministic regardless of
//! thread count.

use psr_gen::seed::{rng_from_seed, split_seed};
use psr_graph::{Graph, NodeId};
use psr_privacy::{ExponentialMechanism, LaplaceMechanism, Mechanism};
use psr_utility::{CandidateSet, SensitivityNorm, UtilityFunction};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Privacy parameter ε.
    pub epsilon: f64,
    /// Fraction of nodes sampled as targets (§7.1: 0.10 for Wiki, 0.01
    /// for Twitter).
    pub target_fraction: f64,
    /// Master seed; target sampling and every per-target mechanism stream
    /// derive from it.
    pub seed: u64,
    /// Monte-Carlo trials for the Laplace mechanism (paper: 1,000).
    pub laplace_trials: u32,
    /// Evaluate the Laplace mechanism too (it is ~`laplace_trials`× the
    /// cost of the closed-form Exponential evaluation).
    pub eval_laplace: bool,
    /// Sensitivity norm for `Δf` (DESIGN.md §4).
    pub sensitivity_norm: SensitivityNorm,
    /// Worker threads; `None` = available parallelism.
    pub threads: Option<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            epsilon: 1.0,
            target_fraction: 0.1,
            seed: 42,
            laplace_trials: 1000,
            eval_laplace: true,
            // Both paper utilities are *monotone* in edge additions, so the
            // mechanisms are ε-DP at the Δ∞ calibration (McSherry–Talwar's
            // monotone case; audited in psr-privacy's tests). This matches
            // footnote 5's Δf for common neighbours (= 1).
            sensitivity_norm: SensitivityNorm::LInf,
            threads: None,
        }
    }
}

/// Per-target outcome record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetEvaluation {
    /// The target node.
    pub target: NodeId,
    /// Its (out-)degree.
    pub degree: usize,
    /// Maximum utility over candidates.
    pub u_max: f64,
    /// Number of candidates with non-zero utility.
    pub num_nonzero: usize,
    /// Candidate-set size.
    pub num_candidates: usize,
    /// Exact §7.1 edit distance `t`.
    pub t: u64,
    /// Exponential mechanism expected accuracy (closed form).
    pub accuracy_exponential: f64,
    /// Laplace mechanism Monte-Carlo accuracy (`None` if not evaluated).
    pub accuracy_laplace: Option<f64>,
    /// Corollary-1 ceiling (tightest `c`).
    pub accuracy_bound: f64,
}

/// Full experiment output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Configuration used.
    pub config: ExperimentConfig,
    /// Utility function name.
    pub utility: String,
    /// The calibrated `Δf`.
    pub sensitivity: f64,
    /// Targets sampled (before the all-zero drop).
    pub targets_sampled: usize,
    /// Targets dropped for having all-zero utility (footnote 10).
    pub targets_dropped: usize,
    /// Per-target outcomes.
    pub evaluations: Vec<TargetEvaluation>,
}

/// Evaluates one target. Returns `None` when the target must be dropped
/// (no candidates, or all-zero utility vector).
pub fn evaluate_target(
    graph: &Graph,
    utility: &dyn UtilityFunction,
    config: &ExperimentConfig,
    sensitivity: f64,
    target: NodeId,
    rng: &mut dyn rand::RngCore,
) -> Option<TargetEvaluation> {
    let candidates = CandidateSet::for_target(graph, target);
    if candidates.is_empty() {
        return None;
    }
    let u = utility.utilities(graph, target, &candidates);
    if u.is_all_zero() {
        return None;
    }
    let t = utility
        .edit_distance_t(graph, target, &u)
        .unwrap_or_else(|| psr_bounds::edit_distance::t_generic_upper(graph.max_degree() as u64));

    let exp = ExponentialMechanism::paper();
    let accuracy_exponential = exp.expected_accuracy(&u, config.epsilon, sensitivity, rng);
    let accuracy_laplace = config.eval_laplace.then(|| {
        LaplaceMechanism { trials: config.laplace_trials }.expected_accuracy(
            &u,
            config.epsilon,
            sensitivity,
            rng,
        )
    });
    let bound = psr_bounds::best_accuracy_bound(&u, config.epsilon, t, None);

    Some(TargetEvaluation {
        target,
        degree: graph.degree(target),
        u_max: u.u_max(),
        num_nonzero: u.nonzero().len(),
        num_candidates: u.len(),
        t,
        accuracy_exponential,
        accuracy_laplace,
        accuracy_bound: bound.accuracy_bound,
    })
}

/// Samples targets and evaluates them in parallel.
pub fn run_experiment(
    graph: &Graph,
    utility: &dyn UtilityFunction,
    config: &ExperimentConfig,
) -> ExperimentResult {
    assert!(
        config.target_fraction > 0.0 && config.target_fraction <= 1.0,
        "target_fraction must be in (0, 1]"
    );
    let sensitivity = utility
        .sensitivity(graph)
        .map(|s| s.value(config.sensitivity_norm))
        .expect("utility must report sensitivity for experiments");

    // Uniform target sample (§7.1), deterministic in the seed.
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    let mut sample_rng = rng_from_seed(split_seed(config.seed, 0xA11));
    nodes.shuffle(&mut sample_rng);
    let count = ((graph.num_nodes() as f64 * config.target_fraction).round() as usize)
        .clamp(1, graph.num_nodes());
    let targets = &nodes[..count];

    let evaluations = crate::par::map(crate::par::threads(config.threads), count, |i| {
        let target = targets[i];
        // Per-target stream: reordering threads cannot change any
        // target's result.
        let mut rng = rng_from_seed(split_seed(config.seed, 0xE0_0000 + target as u64));
        evaluate_target(graph, utility, config, sensitivity, target, &mut rng)
    });

    let targets_sampled = targets.len();
    let evaluations: Vec<TargetEvaluation> = evaluations.into_iter().flatten().collect();
    let targets_dropped = targets_sampled - evaluations.len();
    ExperimentResult {
        config: *config,
        utility: utility.name(),
        sensitivity,
        targets_sampled,
        targets_dropped,
        evaluations,
    }
}

impl ExperimentResult {
    /// Accuracies of the Exponential mechanism across targets.
    pub fn exponential_accuracies(&self) -> Vec<f64> {
        self.evaluations.iter().map(|e| e.accuracy_exponential).collect()
    }

    /// Accuracies of the Laplace mechanism across targets (empty when not
    /// evaluated).
    pub fn laplace_accuracies(&self) -> Vec<f64> {
        self.evaluations.iter().filter_map(|e| e.accuracy_laplace).collect()
    }

    /// Theoretical ceilings across targets.
    pub fn bound_accuracies(&self) -> Vec<f64> {
        self.evaluations.iter().map(|e| e.accuracy_bound).collect()
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialisable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_datasets::toy::karate_club;
    use psr_utility::{CommonNeighbors, WeightedPaths};

    fn config() -> ExperimentConfig {
        ExperimentConfig {
            target_fraction: 1.0,
            laplace_trials: 200,
            threads: Some(2),
            ..Default::default()
        }
    }

    #[test]
    fn karate_experiment_covers_all_targets() {
        let g = karate_club();
        let result = run_experiment(&g, &CommonNeighbors, &config());
        assert_eq!(result.targets_sampled, 34);
        // Karate club: every node has a 2-hop neighbour, none dropped.
        assert_eq!(result.targets_dropped, 0);
        assert_eq!(result.evaluations.len(), 34);
        for e in &result.evaluations {
            assert!((0.0..=1.0).contains(&e.accuracy_exponential));
            assert!((0.0..=1.0 + 1e-9).contains(&e.accuracy_laplace.unwrap()));
            assert!((0.0..=1.0).contains(&e.accuracy_bound));
            assert!(e.u_max >= 1.0);
            assert!(e.t >= 1);
            assert_eq!(e.num_candidates, 34 - 1 - e.degree);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = karate_club();
        let mut c1 = config();
        c1.threads = Some(1);
        let mut c4 = config();
        c4.threads = Some(4);
        let a = run_experiment(&g, &CommonNeighbors, &c1);
        let b = run_experiment(&g, &CommonNeighbors, &c4);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn bound_is_respected_by_exponential_on_average() {
        // Corollary 1 upper-bounds *any* ε-DP algorithm; the Exponential
        // mechanism must sit at or below it for every target.
        let g = karate_club();
        let result = run_experiment(&g, &CommonNeighbors, &config());
        for e in &result.evaluations {
            assert!(
                e.accuracy_exponential <= e.accuracy_bound + 0.02,
                "target {}: exp {} above bound {}",
                e.target,
                e.accuracy_exponential,
                e.accuracy_bound
            );
        }
    }

    #[test]
    fn weighted_paths_experiment_runs() {
        let g = karate_club();
        let wp = WeightedPaths::paper(0.005);
        let result = run_experiment(&g, &wp, &config());
        assert!(result.evaluations.len() > 30);
        // Δ∞ for truncated weighted paths: 1 + 2γ·d_max > 1.
        assert!(result.sensitivity > 1.0);
    }

    #[test]
    fn partial_sampling_respects_fraction() {
        let g = karate_club();
        let mut c = config();
        c.target_fraction = 0.25;
        let result = run_experiment(&g, &CommonNeighbors, &c);
        assert_eq!(result.targets_sampled, 9); // round(34 × 0.25)
    }

    #[test]
    fn json_round_trip() {
        let g = karate_club();
        let mut c = config();
        c.target_fraction = 0.2;
        c.eval_laplace = false;
        let result = run_experiment(&g, &CommonNeighbors, &c);
        let back: ExperimentResult = serde_json::from_str(&result.to_json()).unwrap();
        assert_eq!(back, result);
    }
}
