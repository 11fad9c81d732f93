//! The in-text experiments: Laplace-vs-Exponential (§7.2 takeaway (ii)),
//! Lemma 3's closed forms (App. E) and the smoothing trade-off (App. F).

use serde::{Deserialize, Serialize};

use psr_datasets::{wiki_vote_like, PresetConfig};
use psr_privacy::closed_form::{
    exponential_two_candidate_win_prob, laplace_two_candidate_win_prob,
};
use psr_utility::CommonNeighbors;

use super::{FigureConfig, FigureResult, Series};
use crate::experiment::run_experiment;

/// Result of the Laplace-vs-Exponential comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MechanismComparison {
    /// ε used.
    pub epsilon: f64,
    /// Per-target Exponential accuracies.
    pub exponential: Vec<f64>,
    /// Per-target Laplace accuracies (aligned).
    pub laplace: Vec<f64>,
    /// Mean absolute per-target gap.
    pub mean_abs_gap: f64,
    /// Largest per-target gap.
    pub max_abs_gap: f64,
}

/// §7.2 takeaway (ii): "the Laplace mechanism achieves nearly identical
/// accuracy as the Exponential mechanism". Runs both on the wiki-like
/// graph under common neighbours and reports per-target gaps.
pub fn lap_vs_exp(cfg: &FigureConfig, epsilon: f64) -> MechanismComparison {
    let (graph, _) = wiki_vote_like(PresetConfig::scaled(cfg.scale, cfg.seed)).expect("preset");
    let mut exp_cfg = cfg.experiment(epsilon, 0.10);
    exp_cfg.eval_laplace = true;
    let result = run_experiment(&graph, &CommonNeighbors, &exp_cfg);
    let exponential: Vec<f64> = result.exponential_accuracies();
    let laplace: Vec<f64> = result.laplace_accuracies();
    assert_eq!(exponential.len(), laplace.len());
    let gaps: Vec<f64> = exponential.iter().zip(&laplace).map(|(a, b)| (a - b).abs()).collect();
    let mean_abs_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let max_abs_gap = gaps.iter().fold(0.0f64, |m, &g| m.max(g));
    MechanismComparison { epsilon, exponential, laplace, mean_abs_gap, max_abs_gap }
}

/// Appendix E: the exact two-candidate win probabilities of both
/// mechanisms as a function of the utility gap — the curves proving the
/// mechanisms are not isomorphic.
pub fn lemma3_curves(epsilon: f64) -> FigureResult {
    let grid: Vec<f64> = (0..=40).map(|i| i as f64 * 0.1).collect();
    let laplace = Series {
        label: format!("Laplace win prob (Lemma 3), ε={epsilon}"),
        points: grid.iter().map(|&d| (d, laplace_two_candidate_win_prob(epsilon, d))).collect(),
    };
    let exponential = Series {
        label: format!("Exponential win prob, ε={epsilon}"),
        points: grid.iter().map(|&d| (d, exponential_two_candidate_win_prob(epsilon, d))).collect(),
    };
    FigureResult {
        id: "lemma3".to_owned(),
        caption: "Two-candidate win probability vs utility gap (App. E)".to_owned(),
        x_label: "utility gap".to_owned(),
        series: vec![laplace, exponential],
    }
}

/// Appendix F / Theorem 5: the smoothing mechanism's privacy and accuracy
/// as `x` sweeps (0, 1) at candidate-set size `n`. Series: ε(x) and the
/// accuracy guarantee `x·μ` with `μ = 1`.
pub fn smoothing_tradeoff(n: usize) -> FigureResult {
    let xs: Vec<f64> = (1..100).map(|i| i as f64 / 100.0).collect();
    let eps = Series {
        label: format!("ε(x) = ln(1 + nx/(1−x)), n={n}"),
        points: xs.iter().map(|&x| (x, psr_bounds::theorem5::smoothing_epsilon(x, n))).collect(),
    };
    let acc = Series {
        label: "accuracy guarantee x·μ (μ=1)".to_owned(),
        points: xs.iter().map(|&x| (x, psr_bounds::theorem5::smoothing_accuracy(x, 1.0))).collect(),
    };
    FigureResult {
        id: "smoothing".to_owned(),
        caption: "Linear smoothing trade-off (App. F, Theorem 5)".to_owned(),
        x_label: "x".to_owned(),
        series: vec![eps, acc],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lap_vs_exp_gap_is_small() {
        let cmp = lap_vs_exp(&FigureConfig::smoke(0.05, 7), 1.0);
        assert!(!cmp.exponential.is_empty());
        // The paper's claim, quantified: mean gap well under 2 points.
        assert!(cmp.mean_abs_gap < 0.02, "mean gap {}", cmp.mean_abs_gap);
        // The largest per-target gap stays small too (both are exact).
        assert!(cmp.max_abs_gap < 0.10, "max gap {}", cmp.max_abs_gap);
    }

    #[test]
    fn lemma3_curves_disagree_in_the_middle() {
        let fig = lemma3_curves(1.0);
        let (lap, exp) = (&fig.series[0], &fig.series[1]);
        assert_eq!(lap.points.len(), exp.points.len());
        // Identical at gap 0 (both ½)…
        assert!((lap.points[0].1 - 0.5).abs() < 1e-12);
        assert!((exp.points[0].1 - 0.5).abs() < 1e-12);
        // …but measurably different at moderate gaps.
        let max_gap = lap
            .points
            .iter()
            .zip(&exp.points)
            .map(|(a, b)| (a.1 - b.1).abs())
            .fold(0.0f64, f64::max);
        assert!(max_gap > 0.01, "mechanisms should differ, max gap {max_gap}");
    }

    #[test]
    fn smoothing_tradeoff_shapes() {
        let fig = smoothing_tradeoff(1000);
        let eps = &fig.series[0];
        let acc = &fig.series[1];
        // ε is increasing in x; accuracy is linear.
        assert!(eps.points.windows(2).all(|w| w[1].1 > w[0].1));
        assert!((acc.points[49].1 - 0.5).abs() < 1e-12);
        // Constant ε at n=1000 pins x (and so accuracy) near zero:
        // invert ε(x) ≤ 1 → x ≤ (e−1)/(e−1+n).
        let x_at_eps1 = psr_privacy::smoothing_x_for_epsilon(1.0, 1000);
        assert!(x_at_eps1 < 0.002);
    }
}
