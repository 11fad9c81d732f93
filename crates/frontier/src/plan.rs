//! Experiment plans: the declarative grid a frontier sweep expands.
//!
//! An [`ExperimentPlan`] names every axis of the paper's trade-off
//! question at once — mechanisms × utility functions × datasets/backends
//! × adjacency notions × ε values × top-`k` engines — plus the shared
//! scenario knobs (rounds, trials, confidence). [`ExperimentPlan::
//! expand`] turns the grid into a flat list of independent
//! [`CellSpec`]s with stable indices; the index is the
//! cell's identity in the results journal and the seed stream, so the
//! same plan always expands to the same cells in the same order.
//!
//! Plans are plain JSON. Every field is required (the vendored serde has
//! no defaults by design — a plan that silently filled in trials or ε
//! values would not be a reproducible artefact); [`ExperimentPlan::toy`]
//! emits a complete karate-club template to start from.

use std::str::FromStr;

use psr_attack::{Adjacency, AttackMechanism};
use psr_privacy::{Mechanism, TopKEngine};
use psr_utility::UtilityKind;
use serde::{Deserialize, Serialize};

use crate::cell::CellSpec;

/// One dataset axis of the grid: which graph, through which backing.
pub use psr_datasets::DatasetSpec;

/// The declarative sweep grid. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPlan {
    /// Plan name, echoed into the report.
    pub name: String,
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Dataset axes.
    pub datasets: Vec<DatasetSpec>,
    /// Mechanism axis (`exponential`, `laplace`, `smoothing`,
    /// `non-private`). Mechanisms without an ε parameter collapse the ε
    /// axis to a single cell.
    pub mechanisms: Vec<String>,
    /// Utility-function axis (`common-neighbors`, `weighted-paths`).
    pub utilities: Vec<String>,
    /// Adjacency axis (`edge` per Definition 1, `node` per Appendix A).
    pub adjacencies: Vec<String>,
    /// Per-observation ε axis (every value positive and finite).
    pub epsilons: Vec<f64>,
    /// Top-`k` engine axis (`peel`, `gumbel`). Mechanisms that bypass the
    /// top-`k` sampler (`laplace`, `smoothing`) collapse this axis to its
    /// first entry.
    pub engines: Vec<String>,
    /// Path-damping γ for `weighted-paths`.
    pub gamma: f64,
    /// Smoothing-mechanism parameter `x` in `[0, 1)` (Theorem 5);
    /// checked only when `smoothing` is on the mechanism axis.
    pub smoothing_x: f64,
    /// Observation rounds per transcript.
    pub rounds: usize,
    /// Recommendation slots per observation (must be 1 when `laplace` or
    /// `smoothing` is on the mechanism axis).
    pub k: usize,
    /// Monte-Carlo trials per world.
    pub trials_per_world: usize,
    /// Maximum observers per scenario.
    pub observer_cap: usize,
    /// Two-sided confidence level of every Clopper–Pearson interval.
    pub confidence: f64,
}

impl ExperimentPlan {
    /// A complete toy plan: 2 mechanisms × 2 ε on karate, small trial
    /// counts — the CI smoke and the starting template `psr frontier
    /// --write-plan` emits.
    #[must_use]
    pub fn toy() -> Self {
        ExperimentPlan {
            name: "toy".to_owned(),
            seed: 42,
            datasets: vec![DatasetSpec::karate()],
            mechanisms: vec!["exponential".to_owned(), "non-private".to_owned()],
            utilities: vec!["common-neighbors".to_owned()],
            adjacencies: vec!["edge".to_owned()],
            epsilons: vec![0.5, 2.0],
            engines: vec!["gumbel".to_owned()],
            gamma: 0.5,
            smoothing_x: Mechanism::DEFAULT_SMOOTHING_X,
            rounds: 2,
            k: 1,
            trials_per_world: 12,
            observer_cap: 2,
            confidence: 0.95,
        }
    }

    /// Parses a plan from JSON (every field required).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid plan JSON: {e}"))
    }

    /// The canonical JSON form (pretty-printed, struct field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plans serialise")
    }

    /// Checks every axis against the name tables and parameter checks
    /// the CLI uses. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        fn axis<T: FromStr<Err = String>>(kind: &str, values: &[String]) -> Result<(), String> {
            if values.is_empty() {
                return Err(format!("plan has an empty {kind} axis"));
            }
            values.iter().try_for_each(|v| v.parse::<T>().map(drop))
        }
        if self.mechanisms.is_empty() {
            return Err("plan has an empty mechanism axis".to_owned());
        }
        axis::<UtilityKind>("utility", &self.utilities)?;
        axis::<Adjacency>("adjacency", &self.adjacencies)?;
        axis::<TopKEngine>("engine", &self.engines)?;
        if self.datasets.is_empty() {
            return Err("plan has an empty dataset axis".to_owned());
        }
        self.datasets.iter().try_for_each(DatasetSpec::validate)?;
        if self.epsilons.is_empty() {
            return Err("plan has an empty epsilon axis".to_owned());
        }
        for &eps in &self.epsilons {
            if !(eps > 0.0 && eps.is_finite()) {
                return Err(format!("epsilon {eps} must be positive and finite"));
            }
        }
        // Checks each name, and `smoothing_x` only when smoothing is on
        // the axis.
        for mechanism in &self.mechanisms {
            let mechanism = AttackMechanism::new(mechanism, self.epsilons[0], self.smoothing_x)?;
            if mechanism.served().0.is_single_draw() && self.k != 1 {
                return Err(format!(
                    "k = {} but laplace/smoothing release scalar observations; k must be 1",
                    self.k
                ));
            }
        }
        if self.rounds == 0 || self.k == 0 || self.trials_per_world == 0 || self.observer_cap == 0 {
            return Err("rounds, k, trials_per_world and observer_cap must be positive".to_owned());
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(format!("confidence {} out of range (0, 1)", self.confidence));
        }
        if !(self.gamma > 0.0 && self.gamma < 1.0) {
            return Err(format!("gamma {} out of range (0, 1)", self.gamma));
        }
        Ok(())
    }

    /// The plan's identity: FNV-1a-64 of its canonical JSON. The results
    /// journal binds its header to this, so a journal can never be
    /// replayed against a different plan.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        psr_core::serving::journal::fnv1a64(self.to_json().as_bytes())
    }

    /// Expands the grid into its independent cells, in a fixed nested
    /// order (datasets → utilities → adjacencies → mechanisms → ε →
    /// engines) with sequential indices.
    ///
    /// Two collapse rules keep the grid free of redundant cells, read off
    /// [`AttackMechanism`]: a mechanism without an ε parameter (smoothing,
    /// the non-private baseline) yields one cell with `epsilon: None`,
    /// and a single-draw one (Laplace, smoothing) bypasses the top-`k`
    /// sampler and uses only the first engine.
    #[must_use]
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for (dataset, _) in self.datasets.iter().enumerate() {
            for utility in &self.utilities {
                for adjacency in &self.adjacencies {
                    for mechanism in &self.mechanisms {
                        let parsed = AttackMechanism::new(mechanism, 1.0, 0.0).ok();
                        let epsilons: Vec<Option<f64>> = match parsed.map(|m| m.epsilon()) {
                            Some(None) => vec![None],
                            _ => self.epsilons.iter().map(|&e| Some(e)).collect(),
                        };
                        let single_draw = parsed.is_some_and(|m| m.served().0.is_single_draw());
                        let engines =
                            &self.engines[..if single_draw { 1 } else { self.engines.len() }];
                        for epsilon in &epsilons {
                            for engine in engines {
                                cells.push(CellSpec {
                                    index: cells.len(),
                                    dataset,
                                    utility: utility.clone(),
                                    adjacency: adjacency.clone(),
                                    mechanism: mechanism.clone(),
                                    epsilon: *epsilon,
                                    engine: engine.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_plan_is_valid_and_round_trips() {
        let plan = ExperimentPlan::toy();
        plan.validate().unwrap();
        let json = plan.to_json();
        let back = ExperimentPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        assert_eq!(plan.fingerprint(), back.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let plan = ExperimentPlan::toy();
        let mut other = plan.clone();
        other.epsilons[0] = 0.25;
        assert_ne!(plan.fingerprint(), other.fingerprint());
        let mut other = plan.clone();
        other.seed = 43;
        assert_ne!(plan.fingerprint(), other.fingerprint());
    }

    #[test]
    fn expansion_order_and_collapse_rules() {
        let mut plan = ExperimentPlan::toy();
        plan.mechanisms =
            vec!["exponential".to_owned(), "smoothing".to_owned(), "laplace".to_owned()];
        plan.engines = vec!["peel".to_owned(), "gumbel".to_owned()];
        plan.epsilons = vec![0.5, 1.0];
        let cells = plan.expand();
        // exponential: 2 ε × 2 engines; smoothing: 1 cell; laplace: 2 ε ×
        // 1 engine (first engine only).
        assert_eq!(cells.len(), 4 + 1 + 2);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i, "indices are sequential");
        }
        let smoothing: Vec<_> = cells.iter().filter(|c| c.mechanism == "smoothing").collect();
        assert_eq!(smoothing.len(), 1);
        assert_eq!(smoothing[0].epsilon, None, "no ε axis for smoothing");
        assert!(cells
            .iter()
            .filter(|c| c.mechanism == "laplace")
            .all(|c| c.engine == "peel" && c.epsilon.is_some()));
        // Same plan, same expansion.
        assert_eq!(cells, plan.expand());
    }

    /// The collapse rules read the mechanism table, not its names: the
    /// toy plan and a plan with every mechanism on two engines expand to
    /// the cells below, in this order.
    #[test]
    fn toy_and_all_mechanism_plans_expand_to_the_same_cells() {
        let axes = |plan: &ExperimentPlan| -> Vec<(String, Option<f64>, String)> {
            let cells = plan.expand();
            cells.into_iter().map(|c| (c.mechanism, c.epsilon, c.engine)).collect()
        };
        let cell = |m: &str, e: Option<f64>, g: &str| (m.to_owned(), e, g.to_owned());
        let toy = ExperimentPlan::toy();
        assert_eq!(
            axes(&toy),
            vec![
                cell("exponential", Some(0.5), "gumbel"),
                cell("exponential", Some(2.0), "gumbel"),
                cell("non-private", None, "gumbel"),
            ]
        );
        let mut all = toy;
        all.mechanisms =
            ["exponential", "laplace", "smoothing", "non-private"].map(str::to_owned).to_vec();
        all.engines = vec!["peel".to_owned(), "gumbel".to_owned()];
        assert_eq!(
            axes(&all),
            vec![
                cell("exponential", Some(0.5), "peel"),
                cell("exponential", Some(0.5), "gumbel"),
                cell("exponential", Some(2.0), "peel"),
                cell("exponential", Some(2.0), "gumbel"),
                cell("laplace", Some(0.5), "peel"),
                cell("laplace", Some(2.0), "peel"),
                cell("smoothing", None, "peel"),
                cell("non-private", None, "peel"),
                cell("non-private", None, "gumbel"),
            ]
        );
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let mut plan = ExperimentPlan::toy();
        plan.mechanisms = vec!["laplace".to_owned()];
        plan.k = 3;
        assert!(plan.validate().unwrap_err().contains("k must be 1"));

        let mut plan = ExperimentPlan::toy();
        plan.epsilons = vec![0.5, -1.0];
        assert!(plan.validate().is_err());

        let mut plan = ExperimentPlan::toy();
        plan.mechanisms = vec!["rappor".to_owned()];
        assert!(plan.validate().unwrap_err().contains("unknown mechanism"));

        let mut plan = ExperimentPlan::toy();
        plan.datasets[0].snapshot = Some("x.psrz".to_owned());
        assert!(plan.validate().unwrap_err().contains("compressed"));

        let mut plan = ExperimentPlan::toy();
        plan.engines.clear();
        assert!(plan.validate().unwrap_err().contains("empty engine axis"));

        // Theorem 5 needs x in [0, 1), but only a smoothing axis uses it.
        let mut plan = ExperimentPlan::toy();
        plan.smoothing_x = 2.0;
        plan.validate().unwrap();
        plan.mechanisms.push("smoothing".to_owned());
        assert!(plan.validate().unwrap_err().contains("smoothing x"));
        plan.smoothing_x = 0.05;
        plan.validate().unwrap();
    }

    /// A snapshot-backed plan shaped like the benchmark's frontier grid.
    /// Its canonical JSON and fingerprint are pinned: moving
    /// `DatasetSpec` between crates must not change a byte of either, or
    /// existing journals would be refused.
    #[test]
    fn snapshot_plan_json_and_fingerprint_are_pinned() {
        let plan = ExperimentPlan {
            name: "bench-frontier-grid".to_owned(),
            seed: 7919,
            datasets: vec![DatasetSpec {
                preset: "wiki".to_owned(),
                input: None,
                directed: false,
                scale: 0.1,
                backend: "compressed".to_owned(),
                snapshot: Some("frontier-wiki.psrz".to_owned()),
            }],
            mechanisms: vec![
                "exponential".to_owned(),
                "laplace".to_owned(),
                "non-private".to_owned(),
            ],
            utilities: vec!["common-neighbors".to_owned()],
            adjacencies: vec!["edge".to_owned(), "node".to_owned()],
            epsilons: vec![0.5, 1.0, 2.0],
            engines: vec!["gumbel".to_owned()],
            gamma: 0.5,
            smoothing_x: 2.0,
            rounds: 2,
            k: 1,
            trials_per_world: 8,
            observer_cap: 2,
            confidence: 0.95,
        };
        plan.validate().unwrap();
        let expected = r#"{
  "name": "bench-frontier-grid",
  "seed": 7919,
  "datasets": [
    {
      "preset": "wiki",
      "input": null,
      "directed": false,
      "scale": 0.1,
      "backend": "compressed",
      "snapshot": "frontier-wiki.psrz"
    }
  ],
  "mechanisms": [
    "exponential",
    "laplace",
    "non-private"
  ],
  "utilities": [
    "common-neighbors"
  ],
  "adjacencies": [
    "edge",
    "node"
  ],
  "epsilons": [
    0.5,
    1,
    2
  ],
  "engines": [
    "gumbel"
  ],
  "gamma": 0.5,
  "smoothing_x": 2,
  "rounds": 2,
  "k": 1,
  "trials_per_world": 8,
  "observer_cap": 2,
  "confidence": 0.95
}"#;
        assert_eq!(plan.to_json(), expected);
        assert_eq!(format!("{:016x}", plan.fingerprint()), "689e151f6c6a69c6");
    }
}
