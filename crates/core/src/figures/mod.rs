//! Figure harnesses: one entry point per figure/table in the paper's
//! evaluation, each regenerating the exact series the paper plots.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Fig 1(a) — Wiki, common neighbours, ε ∈ {0.5, 1} | [`fig1a`] |
//! | Fig 1(b) — Twitter, common neighbours, ε ∈ {1, 3} | [`fig1b`] |
//! | Fig 2(a) — Wiki, weighted paths, γ ∈ {0.0005, 0.05}, ε = 1 | [`fig2a`] |
//! | Fig 2(b) — Twitter, weighted paths, same | [`fig2b`] |
//! | Fig 2(c) — accuracy vs target degree, Wiki, ε = 0.5 | [`fig2c`] |
//! | §7.2 Laplace ≈ Exponential | [`lap_vs_exp`] |
//! | App. E / Lemma 3 closed forms | [`lemma3_curves`] |
//! | App. F / Theorem 5 smoothing trade-off | [`smoothing_tradeoff`] |

mod extras;
mod fig1;
mod fig2;

pub use extras::{lap_vs_exp, lemma3_curves, smoothing_tradeoff, MechanismComparison};
pub use fig1::{fig1a, fig1b};
pub use fig2::{fig2a, fig2b, fig2c};

use serde::{Deserialize, Serialize};

use crate::experiment::{run_experiment, ExperimentConfig, ExperimentResult};
use crate::report::cdf_series;
use psr_graph::Graph;
use psr_utility::UtilityFunction;

/// A plottable series: label plus `(x, y)` points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (mirrors the paper's legends).
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// A regenerated figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureResult {
    /// Figure identifier, e.g. `"fig1a"`.
    pub id: String,
    /// Caption describing workload and parameters.
    pub caption: String,
    /// Label of the shared x-axis (`"accuracy"` for the CDF figures,
    /// `"degree"` for Fig 2(c), `"x"`/`"gap"` for the appendix sweeps).
    pub x_label: String,
    /// The series the paper plots.
    pub series: Vec<Series>,
}

/// Shared figure-harness configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigureConfig {
    /// Dataset scale relative to the paper (1.0 = full size).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Evaluate the Laplace mechanism alongside the Exponential one.
    pub eval_laplace: bool,
    /// Laplace Monte-Carlo trials.
    pub laplace_trials: u32,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
}

impl Default for FigureConfig {
    fn default() -> Self {
        FigureConfig {
            scale: 1.0,
            seed: 42,
            eval_laplace: false,
            laplace_trials: psr_privacy::Mechanism::LAPLACE_TRIALS,
            threads: None,
        }
    }
}

impl FigureConfig {
    /// Reduced-scale config for tests and smoke runs.
    pub fn smoke(scale: f64, seed: u64) -> Self {
        FigureConfig { scale, seed, ..Default::default() }
    }

    pub(crate) fn experiment(&self, epsilon: f64, target_fraction: f64) -> ExperimentConfig {
        ExperimentConfig {
            epsilon,
            target_fraction,
            seed: self.seed,
            laplace_trials: self.laplace_trials,
            eval_laplace: self.eval_laplace,
            threads: self.threads,
            ..Default::default()
        }
    }
}

/// Shared CDF-figure skeleton: for each ε, one mechanism series and one
/// theoretical-bound series (the paper's legend layout).
pub(crate) fn cdf_figure(
    id: &str,
    caption: &str,
    graph: &Graph,
    utility: &dyn UtilityFunction,
    epsilons: &[f64],
    target_fraction: f64,
    cfg: &FigureConfig,
) -> (FigureResult, Vec<ExperimentResult>) {
    let mut series = Vec::new();
    let mut results = Vec::new();
    for &eps in epsilons {
        let result = run_experiment(graph, utility, &cfg.experiment(eps, target_fraction));
        assert!(
            !result.evaluations.is_empty(),
            "no usable targets at eps {eps} — scale too small?"
        );
        series.push(cdf_series(format!("Exponential ε={eps}"), result.exponential_accuracies()));
        if cfg.eval_laplace {
            series.push(cdf_series(format!("Laplace ε={eps}"), result.laplace_accuracies()));
        }
        series.push(cdf_series(format!("Theor. Bound ε={eps}"), result.bound_accuracies()));
        results.push(result);
    }
    (
        FigureResult {
            id: id.to_owned(),
            caption: caption.to_owned(),
            x_label: "accuracy".to_owned(),
            series,
        },
        results,
    )
}
