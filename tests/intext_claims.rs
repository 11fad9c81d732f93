//! The paper's in-text numeric claims (the §4.2 worked example, the
//! Theorem 1/2 examples and the §7.2 percentages), re-derived from our
//! implementation.
//!
//! Exact §7.2 percentages depend on the authors' graphs; on the matched
//! synthetic stand-ins we assert the *shape*: who wins, by roughly what
//! factor, and where the cliffs fall. The stand-ins match the degree
//! structure, which is all the bounds and the local utilities depend on.

use psr_bounds::corollary1_accuracy_upper_bound;
use psr_bounds::theorems::{theorem1_eps_lower_asymptotic, theorem2_eps_lower_asymptotic};
use psr_core::figures::{fig1a, fig1b, FigureConfig};
use psr_core::AccuracyCdf;
use psr_core::{run_experiment, ExperimentConfig};
use psr_datasets::{twitter_like, wiki_vote_like, PresetConfig};
use psr_utility::CommonNeighbors;

/// §4.2: "for a differential privacy guarantee of 0.1, no algorithm can
/// guarantee an accuracy better than 0.46" at n=4·10⁸, k=100, t=150.
#[test]
fn worked_example_of_section_4_2() {
    let bound = corollary1_accuracy_upper_bound(0.1, 150, 400_000_000, 100, 0.99);
    assert!(bound < 0.46, "bound {bound}");
    assert!(bound > 0.45, "bound {bound} (paper: ≈ 0.46)");
}

/// §4.2 (Theorem 1 example): max degree = log n ⇒ no 0.24-DP constant-
/// accuracy algorithm; §5.1 (Theorem 2 example): common neighbours at
/// d_r = log n ⇒ at best 1.0-DP.
#[test]
fn theorem_examples_from_sections_4_and_5() {
    assert!(theorem1_eps_lower_asymptotic(1.0) > 0.24);
    let n = 1_000_000usize;
    let d_r = (n as f64).ln().round() as usize;
    let eps = theorem2_eps_lower_asymptotic(n, d_r);
    assert!(eps > 0.9 && eps < 1.1, "Theorem 2 example pins ε ≈ 1, got {eps}");
}

/// §7.2, Wiki at ε = 0.5: "the Exponential mechanism achieves less than
/// 0.1 accuracy for 60% of the nodes"; at ε = 1 the figure improves.
/// Shape assertions on the matched synthetic graph.
#[test]
fn wiki_starvation_claims() {
    // Full scale: starvation is a ratio-to-n effect and vanishes on small
    // graphs (the 2-hop neighbourhood covers too much of the graph).
    let fig = fig1a(&FigureConfig::smoke(1.0, 41));
    let at = |label: &str, x: f64| -> f64 {
        fig.series
            .iter()
            .find(|s| s.label == label)
            .unwrap()
            .points
            .iter()
            .find(|p| (p.0 - x).abs() < 1e-9)
            .unwrap()
            .1
    };
    let strict_starved = at("Exponential ε=0.5", 0.1);
    let lenient_starved = at("Exponential ε=1", 0.1);
    // A large fraction is starved at ε = 0.5 (paper: 60%; the synthetic
    // stand-in starves more because preferential attachment has lower
    // clustering than the real vote graph — EXPERIMENTS.md E1).
    assert!(strict_starved > 0.5, "ε=0.5 starvation {strict_starved}");
    assert!(lenient_starved < strict_starved, "ε=1 must starve fewer nodes");
    // Theoretical bound: at least some sizeable fraction cannot exceed 0.4
    // accuracy at ε = 0.5 (paper: ≥ 50%).
    let bound_capped = at("Theor. Bound ε=0.5", 0.4);
    assert!(bound_capped > 0.25, "bound caps {bound_capped} of nodes below 0.4");
}

/// §7.2, Twitter at ε = 1: "98% of nodes will receive recommendations of
/// accuracy less than 0.01 … performance improves only marginally even
/// for ε = 3".
#[test]
fn twitter_starvation_claims() {
    // ε = 3 starvation needs enough zero-utility mass relative to e^{3·u};
    // below ~0.2 scale the effect washes out.
    let fig = fig1b(&FigureConfig::smoke(0.3, 43));
    let at = |label: &str, x: f64| -> f64 {
        fig.series
            .iter()
            .find(|s| s.label == label)
            .unwrap()
            .points
            .iter()
            .find(|p| (p.0 - x).abs() < 1e-9)
            .unwrap()
            .1
    };
    let eps1 = at("Exponential ε=1", 0.1);
    let eps3 = at("Exponential ε=3", 0.1);
    assert!(eps1 > 0.9, "paper: ~98% below 0.01 at ε=1; got {eps1} below 0.1");
    assert!(eps3 > 0.75, "even ε=3 leaves most starved; got {eps3}");
    assert!(eps3 <= eps1 + 1e-9, "leniency can only help");
}

/// §7.2 takeaway (iii): "for a large fraction of nodes, the accuracy
/// achieved by the mechanisms is close to the best possible" — sharpest
/// on the Twitter-like graph, where both the mechanism and the ceiling sit
/// near zero for almost everyone.
#[test]
fn mechanism_close_to_bound_for_many_nodes() {
    let (graph, _) = twitter_like(PresetConfig::scaled(0.3, 47)).unwrap();
    let result = run_experiment(
        &graph,
        &CommonNeighbors,
        &ExperimentConfig {
            epsilon: 1.0,
            target_fraction: 0.01,
            eval_laplace: false,
            ..Default::default()
        },
    );
    let close = result
        .evaluations
        .iter()
        .filter(|e| e.accuracy_bound - e.accuracy_exponential < 0.2)
        .count();
    let frac = close as f64 / result.evaluations.len() as f64;
    assert!(frac > 0.7, "only {frac:.2} of nodes within 0.2 of the ceiling");
}

/// Degree–privacy correlation behind §7.2's "least connected nodes"
/// paragraph: accuracy at ε = 0.5 grows with target degree in aggregate.
#[test]
fn least_connected_nodes_are_most_starved() {
    let (graph, _) = wiki_vote_like(PresetConfig::scaled(0.10, 53)).unwrap();
    let result = run_experiment(
        &graph,
        &CommonNeighbors,
        &ExperimentConfig { epsilon: 0.5, eval_laplace: false, ..Default::default() },
    );
    let (mut low, mut high) = (Vec::new(), Vec::new());
    let median_degree = {
        let mut ds: Vec<usize> = result.evaluations.iter().map(|e| e.degree).collect();
        ds.sort_unstable();
        ds[ds.len() / 2]
    };
    for e in &result.evaluations {
        if e.degree <= median_degree {
            low.push(e.accuracy_exponential);
        } else {
            high.push(e.accuracy_exponential);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&high) > mean(&low),
        "high-degree mean {} should beat low-degree mean {}",
        mean(&high),
        mean(&low)
    );
}

/// Footnote 10: targets with all-zero utility are dropped, and on sparse
/// directed graphs that fraction is visible but minor at ε-irrelevant
/// levels.
#[test]
fn all_zero_targets_are_dropped() {
    let (graph, _) = twitter_like(PresetConfig::scaled(0.02, 59)).unwrap();
    // ~2.3% of this graph's nodes are all-zero sinks; sample a quarter of the
    // nodes so the expected number of dropped targets (~11) is far enough
    // from zero that the assertion holds for any seed stream.
    let result = run_experiment(
        &graph,
        &CommonNeighbors,
        &ExperimentConfig {
            epsilon: 1.0,
            target_fraction: 0.25,
            eval_laplace: false,
            ..Default::default()
        },
    );
    assert!(result.targets_dropped > 0, "directed PA graphs have sink nodes");
    assert!(result.evaluations.len() > result.targets_dropped, "most targets usable");
}

/// Accuracy CDF sanity across both graphs: every mechanism accuracy sits
/// in [0,1], and the Laplace–Exponential agreement holds at scale
/// (§7.2 takeaway (ii); the slack is the mechanisms' real gap).
#[test]
fn laplace_matches_exponential_at_scale() {
    let (graph, _) = wiki_vote_like(PresetConfig::scaled(0.06, 61)).unwrap();
    let result = run_experiment(
        &graph,
        &CommonNeighbors,
        &ExperimentConfig { epsilon: 1.0, target_fraction: 0.05, ..Default::default() },
    );
    let exp = AccuracyCdf::new(result.exponential_accuracies());
    let lap = AccuracyCdf::new(result.laplace_accuracies());
    assert!((exp.mean() - lap.mean()).abs() < 0.03, "means {} vs {}", exp.mean(), lap.mean());
    assert!((exp.quantile(0.5) - lap.quantile(0.5)).abs() < 0.08);
}
