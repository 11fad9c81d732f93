//! Empirical edge-inference adversaries (`psr-attack`).
//!
//! The paper's central negative results (Lemma 1, Theorems 1–3) are proved
//! *constructively*: an adversary watches accurate recommendations and
//! reconstructs the target's edges. The rest of this workspace states the
//! bounds as formulas (`psr-bounds`) and audits exact mechanism
//! distributions (`psr_privacy::audit`); this crate instantiates the
//! adversary and measures what the mechanisms actually leak, closing the
//! loop mechanism → serving → adversary → theory. The framing follows the
//! companion manuscript arXiv:1004.5600 (the constructive lower-bound
//! proof) and the empirical-measurement methodology of arXiv:2308.03735.
//!
//! Pieces, bottom-up:
//!
//! * [`transcript`] — what the adversary sees: ordered observations of
//!   concrete recommended ids, nothing else.
//! * [`model`] — what the adversary knows: per-observation output
//!   distributions under each hypothesised world, exact where the
//!   mechanism admits it (Exponential peeling, smoothing) and numerically
//!   integrated for Laplace.
//! * [`adversary`] — who attacks: the Lemma-1 reconstruction
//!   likelihood-ratio test, a shadow-model membership-inference attack,
//!   and a frequency/plurality baseline, all behind the
//!   [`Adversary`] trait.
//! * [`harness`] — how trials run: Monte-Carlo edge-inference games
//!   through real [`psr_core::serving::RecommendationService`] batches,
//!   including `DeltaGraph` mutation epochs ("does an edge insert leak
//!   through incremental re-serving?"), parallel across a worker pool.
//! * [`node`] — the Appendix-A game on the same engine: two worlds
//!   differing in one node's *entire* edge set (a `rewire_node` batch),
//!   statically or applied mid-stream as a real mutation epoch, overlaid
//!   on the `ε ≥ ln(n)/2` node-privacy floors.
//! * [`roc`] — what gets measured: ROC curves, adversary advantage and a
//!   Monte-Carlo empirical-ε estimator with Clopper–Pearson confidence.
//! * [`comparison`] — what theory says about it: Lemma 1's advantage
//!   ceiling `(e^ε − 1)/(e^ε + 1)`, Corollary 1 accuracy ceilings and
//!   Theorem 5 smoothing calibrations overlaid on the measurements.
//!
//! # Quickstart
//!
//! ```
//! use psr_attack::{
//!     leaking_secret_edge, AttackMechanism, EdgeInferenceScenario, ReconstructionAdversary,
//!     ScenarioConfig,
//! };
//! use psr_datasets::toy::karate_club;
//! use psr_utility::CommonNeighbors;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(karate_club());
//! let (secret, observers) =
//!     leaking_secret_edge(&graph, &CommonNeighbors, 4, 20_000).unwrap();
//! let config = ScenarioConfig {
//!     trials_per_world: 12,
//!     rounds: 4,
//!     mechanism: AttackMechanism::NonPrivateTopK,
//!     ..ScenarioConfig::new(secret, observers)
//! };
//! let scenario = EdgeInferenceScenario::new(graph, Box::new(CommonNeighbors), config);
//! let result = scenario.attack(&scenario.collect(), &ReconstructionAdversary);
//! // Non-private serving separates the worlds at a rate no ε ≤ 1
//! // differentially private mechanism could permit (Lemma 1's ceiling).
//! assert!(result.advantage.advantage > psr_attack::dp_advantage_ceiling(1.0));
//! ```

pub mod adversary;
pub mod comparison;
pub mod harness;
pub mod model;
pub mod node;
pub mod roc;
pub mod transcript;

pub use adversary::{
    Adversary, FrequencyBaseline, LikelihoodRatioMia, ReconstructionAdversary, SCORE_CLAMP,
};
pub use comparison::{
    compare, compare_node, dp_advantage_ceiling, epsilon_floor_from_advantage,
    lemma1_epsilon_floor_from_accuracy, Adjacency, BoundsComparison,
};
pub use harness::{
    default_observers, default_secret_edge, leaking_secret_edge, search_secret_edge,
    AttackMechanism, AttackResult, EdgeInferenceScenario, EpochStyle, ScenarioConfig,
    TranscriptSet, NON_PRIVATE_EPSILON, SEARCH_BUDGET,
};
pub use model::{MechanismModel, ObservationModel, WorldModel};
pub use node::{
    default_rewire_target, leaking_node_rewire, node_observers, NodeEpochStyle,
    NodeIdentityScenario, NodeScenarioConfig,
};
pub use roc::{
    auc, best_advantage, clopper_pearson, empirical_epsilon, roc_curve, Advantage,
    EmpiricalEpsilon, RocPoint,
};
pub use transcript::{Observation, Transcript};
