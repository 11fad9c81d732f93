//! The attack harness: Monte-Carlo two-world inference trials through the
//! real serving path.
//!
//! A scenario fixes two hypothesised **worlds** — graphs differing by a
//! secret mutation batch — a set of third-party **observers**, and a
//! mechanism. For the classic edge game ([`EdgeInferenceScenario`]) the
//! batch is a single edge toggle (Definition 1's edge adjacency, edit
//! distance 1); the node-identity game ([`crate::node::NodeIdentityScenario`])
//! drives the same engine with a whole-neighbourhood rewire batch
//! (Appendix A's node adjacency). Per trial the harness stands up a fresh
//! [`RecommendationService`] over the trial's world, serves `rounds`
//! request batches for the observers, and records the concrete
//! recommended ids as a [`Transcript`]. Trials run in parallel across a
//! worker pool with per-trial RNG streams split from the master seed, so
//! a run is bit-identical regardless of thread count.
//!
//! Mid-stream styles ([`EpochStyle::InsertMidStream`] /
//! [`EpochStyle::DeleteMidStream`], and the node game's rewire epoch)
//! start both worlds from the *same* base graph and apply the secret
//! batch through [`RecommendationService::apply_mutations`] between two
//! rounds — warm caches, selective invalidation and per-epoch Δf
//! recalibration all stay in play, answering "does the change leak
//! through incremental re-serving?" rather than only "do two static
//! graphs distinguish?".
//!
//! The Exponential mechanism and the non-private top-`k` baseline (a huge
//! ε through the identical code path) are served by the real
//! [`RecommendationService`] batches. The single-draw Laplace and
//! smoothing mechanisms sample through the same `psr-privacy` primitives
//! the single-query `psr_core::Recommender` uses
//! ([`crate::model::ObservationModel::sample`]); the service's top-`k`
//! peeling engine is exponential-only by design.

use std::sync::Arc;

use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_gen::seed::{rng_from_seed, split_seed};
use psr_graph::{DeltaGraph, EdgeMutation, Graph, GraphView, NodeId};
use psr_privacy::TopKEngine;
use psr_utility::{CandidateSet, Sensitivity, SensitivityNorm, UtilityFunction, UtilityVector};
use serde::{Deserialize, Serialize};

use crate::adversary::Adversary;
use crate::model::{MechanismModel, ObservationModel, WorldModel};
use crate::roc::{auc, best_advantage, empirical_epsilon, roc_curve};
use crate::roc::{Advantage, EmpiricalEpsilon, RocPoint};
use crate::transcript::{Observation, Transcript};

/// The ε standing in for "non-private" when the baseline is driven
/// through the ε-parameterised serving path: large enough that the
/// top-`k` peel is the deterministic argmax for any realistic utility
/// gap, small enough that `ε·u` stays comfortably finite.
pub const NON_PRIVATE_EPSILON: f64 = 1e6;

/// Which mechanism the scenario serves (and attacks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackMechanism {
    /// Top-`k` Exponential peeling through [`RecommendationService`].
    Exponential {
        /// Per-request privacy budget ε.
        epsilon: f64,
    },
    /// The non-private top-`k` baseline: the same service path at
    /// [`NON_PRIVATE_EPSILON`].
    NonPrivateTopK,
    /// Single-draw Laplace noisy argmax (Definition 6).
    Laplace {
        /// Per-draw privacy budget ε.
        epsilon: f64,
    },
    /// Single-draw linear smoothing (Definition 7); `ε = ln(1 + nx/(1−x))`
    /// per draw by Theorem 5.
    Smoothing {
        /// Mixing weight `x ∈ [0, 1)`.
        x: f64,
    },
}

impl AttackMechanism {
    /// Every mechanism name, the `--mechanism` and plan-axis vocabulary.
    pub const NAMES: [&'static str; 4] = ["exponential", "laplace", "smoothing", "non-private"];

    /// The mechanism `name` selects, with its parameter: `epsilon` for
    /// exponential and Laplace, `x` for smoothing (the other is ignored).
    /// Fails on an unknown name or a parameter [`Self::validate`]
    /// rejects.
    pub fn new(name: &str, epsilon: f64, x: f64) -> Result<Self, String> {
        let mechanism = match name {
            "exponential" => AttackMechanism::Exponential { epsilon },
            "laplace" => AttackMechanism::Laplace { epsilon },
            "smoothing" => AttackMechanism::Smoothing { x },
            "non-private" => AttackMechanism::NonPrivateTopK,
            other => {
                let names = Self::NAMES;
                return Err(format!("unknown mechanism {other:?} (expected one of {names:?})"));
            }
        };
        mechanism.validate()?;
        Ok(mechanism)
    }

    /// Stable name, the inverse of [`Self::new`].
    pub fn name(&self) -> &'static str {
        match self {
            AttackMechanism::Exponential { .. } => "exponential",
            AttackMechanism::Laplace { .. } => "laplace",
            AttackMechanism::Smoothing { .. } => "smoothing",
            AttackMechanism::NonPrivateTopK => "non-private",
        }
    }

    /// Checks the parameter: ε positive and finite, smoothing `x` in
    /// `[0, 1)`, the domain of Theorem 5's `ε = ln(1 + nx/(1−x))`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AttackMechanism::Exponential { epsilon } | AttackMechanism::Laplace { epsilon }
                if !(epsilon > 0.0 && epsilon.is_finite()) =>
            {
                Err(format!("epsilon {epsilon} must be positive and finite"))
            }
            AttackMechanism::Smoothing { x } if !(0.0..1.0).contains(&x) => Err(format!(
                "smoothing x {x} must be in [0, 1) (x = 1 is the non-private baseline)"
            )),
            _ => Ok(()),
        }
    }

    /// Whether transcripts are generated by [`RecommendationService`]
    /// batches (as opposed to single-draw mechanism sampling).
    pub fn serves_through_service(&self) -> bool {
        matches!(self, AttackMechanism::Exponential { .. } | AttackMechanism::NonPrivateTopK)
    }

    /// The ε handed to the serving path.
    fn effective_epsilon(&self) -> f64 {
        match *self {
            AttackMechanism::Exponential { epsilon } | AttackMechanism::Laplace { epsilon } => {
                epsilon
            }
            AttackMechanism::NonPrivateTopK => NON_PRIVATE_EPSILON,
            AttackMechanism::Smoothing { .. } => unreachable!("smoothing is not ε-parameterised"),
        }
    }
}

/// When the two worlds diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochStyle {
    /// The worlds differ from round 0: world 1's graph contains the
    /// secret edge, world 0's does not. (The classic static game.)
    Static,
    /// Both worlds start *without* the secret edge; after
    /// `prefix_rounds` rounds, world 1 inserts it through
    /// [`RecommendationService::apply_mutations`] and serving continues
    /// incrementally.
    InsertMidStream {
        /// Rounds served before the mutation epoch.
        prefix_rounds: usize,
    },
    /// Both worlds start *with* the secret edge; after `prefix_rounds`
    /// rounds, world 1 deletes it and serving continues incrementally.
    DeleteMidStream {
        /// Rounds served before the mutation epoch.
        prefix_rounds: usize,
    },
}

/// Full configuration of an edge-inference scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// The secret edge `(u, v)` the adversary tries to infer.
    pub secret: (NodeId, NodeId),
    /// Third-party observers whose recommendations are watched. Must not
    /// include the secret endpoints: watching an endpoint's own answers
    /// reveals the edge through the candidate policy itself (the
    /// recommended-node support changes), which short-circuits the game.
    pub observers: Vec<NodeId>,
    /// Request batches served per trial.
    pub rounds: usize,
    /// Slots per request (must be 1 for the single-draw mechanisms).
    pub k: usize,
    /// Monte-Carlo trials per world.
    pub trials_per_world: usize,
    /// Mechanism under attack.
    pub mechanism: AttackMechanism,
    /// When the worlds diverge.
    pub epochs: EpochStyle,
    /// Harness worker threads (`None` = available parallelism). Does not
    /// affect results.
    pub threads: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Two-sided confidence for the empirical-ε lower bound.
    pub confidence: f64,
    /// Δf norm, matching the serving default.
    pub sensitivity_norm: SensitivityNorm,
    /// Δf override when the utility reports no analytic bound.
    pub sensitivity_override: Option<f64>,
    /// Which top-`k` sampler the attacked service runs. The engines are
    /// distributionally identical, so the likelihood models (and the
    /// transcript ε accounting) hold for either; attacking both is how
    /// the equivalence is measured end to end.
    pub engine: TopKEngine,
}

impl ScenarioConfig {
    /// A scenario with the serving defaults: 4 rounds × k = 1, 48 trials
    /// per world, Exponential at ε = 0.5, static worlds, 95% confidence.
    pub fn new(secret: (NodeId, NodeId), observers: Vec<NodeId>) -> Self {
        ScenarioConfig {
            secret,
            observers,
            rounds: 4,
            k: 1,
            trials_per_world: 48,
            mechanism: AttackMechanism::Exponential { epsilon: 0.5 },
            epochs: EpochStyle::Static,
            threads: None,
            seed: 42,
            confidence: 0.95,
            sensitivity_norm: SensitivityNorm::LInf,
            sensitivity_override: None,
            engine: TopKEngine::default(),
        }
    }
}

/// The transcripts of one harness run, per world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TranscriptSet {
    /// Transcripts of world 0: the base edge set, never mutated.
    pub world0: Vec<Transcript>,
    /// Transcripts of world 1: the secret mutation applied (from round 0
    /// for static styles, mid-stream otherwise).
    pub world1: Vec<Transcript>,
}

/// One adversary's measured performance on a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackResult {
    /// The adversary that produced the scores.
    pub adversary: String,
    /// Scores of the world-0 transcripts.
    pub scores_world0: Vec<f64>,
    /// Scores of the world-1 transcripts.
    pub scores_world1: Vec<f64>,
    /// The ROC curve over all thresholds.
    pub roc: Vec<RocPoint>,
    /// Area under the ROC curve.
    pub auc: f64,
    /// Best threshold test found.
    pub advantage: Advantage,
    /// Monte-Carlo empirical-ε estimate with Clopper–Pearson lower bound.
    pub empirical_epsilon: EmpiricalEpsilon,
    /// Mean measured accuracy of the world-1 transcripts (`None` when no
    /// observer had a scorable vector).
    pub mean_accuracy: Option<f64>,
}

// ---------------------------------------------------------------------
// The shared two-world engine
// ---------------------------------------------------------------------

/// When world 1 applies its secret mutation batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Divergence {
    /// The worlds differ from round 0 (static games).
    FromStart,
    /// Both worlds serve the base graph for `prefix_rounds` rounds, then
    /// world 1 applies the batch through `apply_mutations`.
    MidStream {
        /// Rounds served before the mutation epoch.
        prefix_rounds: usize,
    },
}

/// The scenario parameters every two-world game shares, independent of
/// what the secret mutation batch is.
#[derive(Debug, Clone)]
pub(crate) struct EngineParams {
    pub observers: Vec<NodeId>,
    pub rounds: usize,
    pub k: usize,
    pub trials_per_world: usize,
    pub mechanism: AttackMechanism,
    pub threads: Option<usize>,
    pub seed: u64,
    pub confidence: f64,
    pub sensitivity_norm: SensitivityNorm,
    pub sensitivity_override: Option<f64>,
    pub engine: TopKEngine,
}

/// The generic two-world trial driver: world 0 is the untouched base
/// graph, world 1 is the base with a secret [`EdgeMutation`] batch
/// applied (from round 0 or mid-stream). [`EdgeInferenceScenario`] drives
/// it with a single edge toggle, [`crate::node::NodeIdentityScenario`]
/// with a whole-neighbourhood rewire — the adversaries, statistics and
/// serving path are shared verbatim, which is what makes the two
/// adjacency notions comparable.
pub(crate) struct TwoWorldEngine {
    base: Arc<Graph>,
    utility: Arc<dyn UtilityFunction>,
    /// Post-divergence graph per world: world 0 always keeps the base
    /// edge set, world 1 has the secret batch applied.
    worlds: [Arc<Graph>; 2],
    models: [WorldModel; 2],
    /// The secret batch world 1 applies (already folded into
    /// `worlds[1]`; replayed through `apply_mutations` mid-stream).
    world1_mutations: Vec<EdgeMutation>,
    divergence: Divergence,
    params: EngineParams,
}

impl TwoWorldEngine {
    /// Validates the generic scenario parameters, folds the secret batch
    /// into the world-1 graph and precomputes both world models.
    ///
    /// # Panics
    /// Panics on an inconsistent scenario: zero rounds/trials, `k = 0`
    /// (or `k ≠ 1` for single-draw mechanisms), a mechanism parameter
    /// [`AttackMechanism::validate`] rejects, `prefix_rounds` outside `1..rounds` for
    /// mid-stream divergence, an empty secret batch, a batch that does
    /// not apply to the base graph, no observers, observers that are not
    /// graph nodes, or observers with no candidates in either world.
    pub(crate) fn new(
        base: Arc<Graph>,
        utility: Arc<dyn UtilityFunction>,
        world1_mutations: Vec<EdgeMutation>,
        divergence: Divergence,
        params: EngineParams,
    ) -> Self {
        assert!(params.rounds >= 1, "need at least one round");
        assert!(params.trials_per_world >= 1, "need at least one trial per world");
        assert!(params.k >= 1, "k must be at least 1");
        assert!(params.confidence > 0.0 && params.confidence < 1.0, "confidence must be in (0,1)");
        if !params.mechanism.serves_through_service() {
            assert_eq!(params.k, 1, "single-draw mechanisms serve exactly one slot");
        }
        if let Err(e) = params.mechanism.validate() {
            panic!("{e}");
        }
        if let Divergence::MidStream { prefix_rounds } = divergence {
            assert!(
                prefix_rounds >= 1 && prefix_rounds < params.rounds,
                "mid-stream divergence needs 1 ≤ prefix_rounds < rounds"
            );
        }
        assert!(!world1_mutations.is_empty(), "the worlds must differ in at least one edge");
        assert!(!params.observers.is_empty(), "need at least one observer");
        let n = base.num_nodes();
        for &o in &params.observers {
            assert!((o as usize) < n, "observer {o} is not a graph node");
        }

        let worlds = [Arc::clone(&base), toggled(&base, &world1_mutations)];
        for (world, graph) in worlds.iter().enumerate() {
            for &o in &params.observers {
                assert!(
                    !CandidateSet::for_target(graph.as_ref(), o).is_empty(),
                    "observer {o} has no candidates in world {world}"
                );
            }
        }

        let mut engine = TwoWorldEngine {
            base,
            utility,
            worlds,
            models: [empty(), empty()],
            world1_mutations,
            divergence,
            params,
        };
        engine.models = [engine.world_model(0), engine.world_model(1)];
        engine
    }

    pub(crate) fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// The secret batch separating the worlds (what world 1 applies).
    pub(crate) fn world1_mutations(&self) -> &[EdgeMutation] {
        &self.world1_mutations
    }

    pub(crate) fn world_models(&self) -> (&WorldModel, &WorldModel) {
        (&self.models[0], &self.models[1])
    }

    /// The transcript-level ε budget released to the adversary per trial:
    /// per-observation ε summed over all `rounds × observers` entries by
    /// basic composition (`None` for the non-private baseline). For the
    /// smoothing mechanism the per-observation ε is Theorem 5's
    /// `ln(1 + nx/(1−x))` at each observer's candidate count.
    pub(crate) fn transcript_epsilon(&self) -> Option<f64> {
        let entries = (self.params.rounds * self.params.observers.len()) as f64;
        match self.params.mechanism {
            AttackMechanism::NonPrivateTopK => None,
            AttackMechanism::Exponential { epsilon } | AttackMechanism::Laplace { epsilon } => {
                Some(epsilon * entries)
            }
            AttackMechanism::Smoothing { x } => {
                let wm = &self.models[1];
                Some(
                    (0..wm.num_entries())
                        .map(|i| {
                            psr_bounds::theorem5::smoothing_epsilon(
                                x,
                                wm.model_for(i).utilities.len(),
                            )
                        })
                        .sum(),
                )
            }
        }
    }

    /// Generates all transcripts for both worlds, trials fanned across
    /// the worker pool (bit-identical for any thread count).
    pub(crate) fn collect(&self) -> TranscriptSet {
        TranscriptSet { world0: self.collect_world(0), world1: self.collect_world(1) }
    }

    /// Scores a transcript set with one adversary and aggregates the
    /// attack statistics.
    pub(crate) fn attack(&self, set: &TranscriptSet, adversary: &dyn Adversary) -> AttackResult {
        let scores0 = adversary.score_all(&set.world0, &self.models[0], &self.models[1]);
        let scores1 = adversary.score_all(&set.world1, &self.models[0], &self.models[1]);
        AttackResult {
            adversary: adversary.name().to_owned(),
            roc: roc_curve(&scores0, &scores1),
            auc: auc(&scores0, &scores1),
            advantage: best_advantage(&scores0, &scores1),
            empirical_epsilon: empirical_epsilon(&scores0, &scores1, self.params.confidence),
            mean_accuracy: self.mean_accuracy(&set.world1),
            scores_world0: scores0,
            scores_world1: scores1,
        }
    }

    /// A representative utility vector (first observer, world 1) for
    /// bounds overlays.
    pub(crate) fn representative_utilities(&self) -> &UtilityVector {
        &self.models[1].model_for(0).utilities
    }

    /// `(phase graphs, round → phase index)` for one world: one phase for
    /// static (or undiverged) worlds, two around the mutation round.
    fn phases(&self, world: usize) -> (Vec<Arc<Graph>>, Vec<usize>) {
        let rounds = self.params.rounds;
        match self.divergence {
            Divergence::FromStart => (vec![Arc::clone(&self.worlds[world])], vec![0; rounds]),
            Divergence::MidStream { prefix_rounds } => {
                if world == 0 {
                    // World 0 never diverges from the base graph.
                    (vec![Arc::clone(&self.base)], vec![0; rounds])
                } else {
                    let phase = (0..rounds).map(|r| usize::from(r >= prefix_rounds)).collect();
                    (vec![Arc::clone(&self.base), Arc::clone(&self.worlds[world])], phase)
                }
            }
        }
    }

    fn world_model(&self, world: usize) -> WorldModel {
        let (graphs, round_phase) = self.phases(world);
        let num_observers = self.params.observers.len();
        let mut models = Vec::with_capacity(graphs.len() * num_observers);
        for graph in &graphs {
            for &observer in &self.params.observers {
                models.push(self.observation_model(graph, observer));
            }
        }
        let entry_model = round_phase
            .iter()
            .flat_map(|&p| (0..num_observers).map(move |i| p * num_observers + i))
            .collect();
        WorldModel::new(models, entry_model)
    }

    fn observation_model(&self, graph: &Arc<Graph>, observer: NodeId) -> ObservationModel {
        let candidates = CandidateSet::for_target(graph.as_ref(), observer);
        let utilities = self.utility.utilities(graph.as_ref(), observer, &candidates);
        let mechanism = match self.params.mechanism {
            AttackMechanism::Exponential { .. } | AttackMechanism::NonPrivateTopK => {
                MechanismModel::Exponential {
                    epsilon: self.params.mechanism.effective_epsilon(),
                    sensitivity: self.calibrated_sensitivity(graph),
                }
            }
            AttackMechanism::Laplace { epsilon } => {
                MechanismModel::Laplace { epsilon, sensitivity: self.calibrated_sensitivity(graph) }
            }
            AttackMechanism::Smoothing { x } => MechanismModel::Smoothing { x },
        };
        ObservationModel { candidates, utilities, mechanism }
    }

    /// Δf exactly as the serving layer calibrates it for `graph`.
    fn calibrated_sensitivity(&self, graph: &Arc<Graph>) -> f64 {
        self.params
            .sensitivity_override
            .or_else(|| {
                self.utility
                    .sensitivity(graph.as_ref())
                    .map(|s| s.value(self.params.sensitivity_norm))
            })
            .expect("utility reports no sensitivity and no override was given")
    }

    /// Per-trial seed, deliberately *world-independent*: trial `i` of
    /// world 0 and world 1 share one RNG stream, so the worlds differ
    /// only through the secret batch (a paired design — and the reason a
    /// mid-stream trial's pre-divergence prefix is bit-identical across
    /// worlds).
    fn trial_seed(&self, trial: usize) -> u64 {
        split_seed(self.params.seed, 0xA7AC_0000 ^ trial as u64)
    }

    fn collect_world(&self, world: usize) -> Vec<Transcript> {
        psr_core::par::map(
            psr_core::par::threads(self.params.threads),
            self.params.trials_per_world,
            |trial| self.run_trial(world, trial),
        )
    }

    fn run_trial(&self, world: usize, trial: usize) -> Transcript {
        if self.params.mechanism.serves_through_service() {
            self.service_trial(world, trial)
        } else {
            self.mechanism_trial(world, trial)
        }
    }

    /// One trial through a fresh [`RecommendationService`] (worker pool
    /// pinned to one thread: the harness parallelises across trials).
    fn service_trial(&self, world: usize, trial: usize) -> Transcript {
        let start = match self.divergence {
            Divergence::FromStart => Arc::clone(&self.worlds[world]),
            Divergence::MidStream { .. } => Arc::clone(&self.base),
        };
        let service = RecommendationService::new(
            start,
            Box::new(SharedUtility(Arc::clone(&self.utility))),
            ServiceConfig {
                epsilon_per_request: self.params.mechanism.effective_epsilon(),
                budget_per_target: f64::INFINITY,
                sensitivity_norm: self.params.sensitivity_norm,
                sensitivity_override: self.params.sensitivity_override,
                threads: Some(1),
                engine: self.params.engine,
            },
        );
        let requests: Vec<BatchRequest> = self
            .params
            .observers
            .iter()
            .map(|&target| BatchRequest { target, k: self.params.k })
            .collect();
        let trial_seed = self.trial_seed(trial);
        let mut entries = Vec::with_capacity(self.params.rounds * requests.len());
        for round in 0..self.params.rounds {
            if let Some(mutations) = self.mutations_at_round(world, round) {
                service.apply_mutations(mutations).expect("validated mutation applies");
            }
            for outcome in service.serve_batch(&requests, split_seed(trial_seed, round as u64)) {
                let served = outcome.expect("validated scenario serves every observer");
                entries.push(Observation {
                    observer: served.target,
                    k: self.params.k,
                    recommendations: served.recommendations,
                });
            }
        }
        Transcript { entries }
    }

    /// The mutation batch world `world` applies before round `round`
    /// (only world 1 ever diverges; world 0's history is mutation-free).
    fn mutations_at_round(&self, world: usize, round: usize) -> Option<&[EdgeMutation]> {
        match self.divergence {
            Divergence::MidStream { prefix_rounds } if world == 1 && round == prefix_rounds => {
                Some(&self.world1_mutations)
            }
            _ => None,
        }
    }

    /// One trial of a single-draw mechanism, sampled from the exact
    /// per-entry models through the same `psr-privacy` primitives the
    /// single-query `Recommender` path uses.
    fn mechanism_trial(&self, world: usize, trial: usize) -> Transcript {
        let mut rng = rng_from_seed(self.trial_seed(trial));
        let wm = &self.models[world];
        let num_observers = self.params.observers.len();
        let mut entries = Vec::with_capacity(self.params.rounds * num_observers);
        for round in 0..self.params.rounds {
            for (i, &observer) in self.params.observers.iter().enumerate() {
                let model = wm.model_for(round * num_observers + i);
                entries.push(Observation {
                    observer,
                    k: self.params.k,
                    recommendations: model.sample(self.params.k, &mut rng),
                });
            }
        }
        Transcript { entries }
    }

    /// Mean per-entry accuracy over world-1 transcripts, skipping
    /// entries whose observer has an all-zero vector (§7.1 footnote 10).
    fn mean_accuracy(&self, world1: &[Transcript]) -> Option<f64> {
        let wm = &self.models[1];
        let mut total = 0.0;
        let mut count = 0usize;
        for t in world1 {
            for (i, obs) in t.entries.iter().enumerate() {
                if let Some(acc) = wm.model_for(i).accuracy_of(&obs.recommendations) {
                    total += acc;
                    count += 1;
                }
            }
        }
        (count > 0).then(|| total / count as f64)
    }
}

/// An edge-inference experiment bound to a graph, a utility function and
/// a [`ScenarioConfig`]. See the [module docs](self).
pub struct EdgeInferenceScenario {
    engine: TwoWorldEngine,
    config: ScenarioConfig,
}

impl EdgeInferenceScenario {
    /// Validates the configuration and precomputes both world models.
    ///
    /// # Panics
    /// Panics on an inconsistent scenario: secret endpoints out of range
    /// or equal, the base graph disagreeing with the epoch style about
    /// the secret edge, observers that are secret endpoints or have no
    /// candidates, `k = 0` (or `k ≠ 1` for single-draw mechanisms),
    /// `prefix_rounds ≥ rounds`, or zero rounds/trials.
    pub fn new(
        base: impl Into<Arc<Graph>>,
        utility: Box<dyn UtilityFunction>,
        config: ScenarioConfig,
    ) -> Self {
        let base: Arc<Graph> = base.into();
        let utility: Arc<dyn UtilityFunction> = Arc::from(utility);
        let (u, v) = config.secret;
        let n = base.num_nodes();
        assert!(u != v, "secret edge endpoints must differ");
        assert!((u as usize) < n && (v as usize) < n, "secret endpoints must be graph nodes");
        match config.epochs {
            EpochStyle::Static | EpochStyle::InsertMidStream { .. } => {
                assert!(
                    !base.has_edge(u, v),
                    "base graph must not contain the secret edge ({u}, {v}) for this epoch style"
                );
            }
            EpochStyle::DeleteMidStream { .. } => {
                assert!(
                    base.has_edge(u, v),
                    "base graph must contain the secret edge ({u}, {v}) to delete it"
                );
            }
        }
        for &o in &config.observers {
            assert!(
                o != u && o != v,
                "observer {o} is a secret endpoint — the candidate policy would leak the edge \
                 by support alone (see ScenarioConfig::observers)"
            );
        }

        let (mutations, divergence) = match config.epochs {
            EpochStyle::Static => (vec![EdgeMutation::insert(u, v)], Divergence::FromStart),
            EpochStyle::InsertMidStream { prefix_rounds } => {
                (vec![EdgeMutation::insert(u, v)], Divergence::MidStream { prefix_rounds })
            }
            EpochStyle::DeleteMidStream { prefix_rounds } => {
                (vec![EdgeMutation::delete(u, v)], Divergence::MidStream { prefix_rounds })
            }
        };
        let params = EngineParams {
            observers: config.observers.clone(),
            rounds: config.rounds,
            k: config.k,
            trials_per_world: config.trials_per_world,
            mechanism: config.mechanism,
            threads: config.threads,
            seed: config.seed,
            confidence: config.confidence,
            sensitivity_norm: config.sensitivity_norm,
            sensitivity_override: config.sensitivity_override,
            engine: config.engine,
        };
        let engine = TwoWorldEngine::new(base, utility, mutations, divergence, params);
        EdgeInferenceScenario { engine, config }
    }

    /// The scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The probe node for appearance-based adversaries: the secret edge's
    /// second endpoint, whose utility shifts for observers adjacent to the
    /// first endpoint.
    pub fn probe(&self) -> NodeId {
        self.config.secret.1
    }

    /// The hypothesis models `(world without edge, world with edge)` —
    /// for the mid-stream styles, indexed per transcript entry across the
    /// divergence point.
    pub fn world_models(&self) -> (&WorldModel, &WorldModel) {
        self.engine.world_models()
    }

    /// The transcript-level ε budget released to the adversary per trial
    /// (see [`TwoWorldEngine::transcript_epsilon`]).
    pub fn transcript_epsilon(&self) -> Option<f64> {
        self.engine.transcript_epsilon()
    }

    /// Generates all transcripts for both worlds, trials fanned across
    /// the worker pool (bit-identical for any thread count).
    pub fn collect(&self) -> TranscriptSet {
        self.engine.collect()
    }

    /// Scores a transcript set with one adversary and aggregates the
    /// attack statistics.
    pub fn attack(&self, set: &TranscriptSet, adversary: &dyn Adversary) -> AttackResult {
        self.engine.attack(set, adversary)
    }

    /// Collects one transcript set and scores it with every adversary.
    pub fn run(&self, adversaries: &[&dyn Adversary]) -> Vec<AttackResult> {
        let set = self.collect();
        adversaries.iter().map(|a| self.attack(&set, *a)).collect()
    }

    /// Overlays a result on the theoretical curves
    /// ([`crate::comparison::compare`] with this scenario's transcript ε
    /// and the first observer's world-1 utility vector).
    pub fn compare(&self, result: &AttackResult) -> crate::comparison::BoundsComparison {
        crate::comparison::compare(
            result,
            self.transcript_epsilon(),
            Some(self.engine.representative_utilities()),
        )
    }

    /// A representative utility vector (first observer, world 1) for
    /// bounds overlays.
    pub fn representative_utilities(&self) -> &UtilityVector {
        self.engine.representative_utilities()
    }
}

/// `base` with a mutation batch folded into a fresh CSR.
fn toggled(base: &Arc<Graph>, mutations: &[EdgeMutation]) -> Arc<Graph> {
    let mut delta = DeltaGraph::new(Arc::clone(base));
    for mutation in mutations {
        delta.apply(mutation).unwrap_or_else(|e| {
            panic!("secret mutation {mutation} does not apply to the base graph: {e}")
        });
    }
    Arc::new(delta.compact())
}

/// Placeholder world model swapped out during construction.
fn empty() -> WorldModel {
    WorldModel::new(Vec::new(), Vec::new())
}

/// Delegating wrapper so one `Arc<dyn UtilityFunction>` can feed the
/// boxed-utility constructor of every per-trial service.
struct SharedUtility(Arc<dyn UtilityFunction>);

impl UtilityFunction for SharedUtility {
    fn name(&self) -> String {
        self.0.name()
    }

    fn utilities(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        candidates: &CandidateSet,
    ) -> UtilityVector {
        self.0.utilities(graph, target, candidates)
    }

    fn sensitivity(&self, graph: &dyn GraphView) -> Option<Sensitivity> {
        self.0.sensitivity(graph)
    }

    fn edit_distance_t(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        u: &UtilityVector,
    ) -> Option<u64> {
        self.0.edit_distance_t(graph, target, u)
    }

    fn invalidation_radius(&self) -> Option<usize> {
        self.0.invalidation_radius()
    }
}

/// Picks a deterministic default secret edge for a graph: the smallest
/// absent pair `(u, v)`, `u < v`, whose endpoints both have degree ≥ 2
/// and share at least one common neighbour (so the edge actually moves a
/// common-neighbours utility somewhere). `None` on graphs with no such
/// pair.
pub fn default_secret_edge(graph: &Graph) -> Option<(NodeId, NodeId)> {
    let n = graph.num_nodes() as NodeId;
    for u in 0..n {
        if graph.degree(u) < 2 {
            continue;
        }
        for v in (u + 1)..n {
            if graph.degree(v) < 2 || graph.has_edge(u, v) {
                continue;
            }
            let nv = graph.neighbors(v);
            if graph.neighbors(u).iter().any(|w| nv.binary_search(w).is_ok()) {
                return Some((u, v));
            }
        }
    }
    None
}

/// Default observers for a secret edge: the first endpoint's neighbours
/// (minus the second endpoint), capped — exactly the targets whose
/// common-neighbours utility for the probe shifts when the edge appears.
pub fn default_observers(graph: &Graph, secret: (NodeId, NodeId), cap: usize) -> Vec<NodeId> {
    let (u, v) = secret;
    graph.neighbors(u).iter().copied().filter(|&w| w != v).take(cap).collect()
}

/// The *unique strict* argmax of a utility vector, `None` on ties or
/// all-zero vectors (ties are resolved randomly by the serving path, so
/// only a strict argmax yields a deterministic non-private answer).
pub(crate) fn unique_argmax(u: &UtilityVector) -> Option<NodeId> {
    let max = u.u_max();
    if max <= 0.0 {
        return None;
    }
    let mut winner = None;
    for &(v, value) in u.nonzero() {
        if value == max {
            if winner.is_some() {
                return None;
            }
            winner = Some(v);
        }
    }
    winner
}

/// Toggled-graph evaluations a default-scenario search may spend: karate
/// needs a handful, preset graphs get a bounded prefix scan.
pub const SEARCH_BUDGET: usize = 4_000;

/// The secret edge (and observers) to attack when none is given: the
/// first pair [`leaking_secret_edge`] finds within [`SEARCH_BUDGET`], else
/// [`default_secret_edge`] when it has observers.
pub fn search_secret_edge(
    base: &Arc<Graph>,
    utility: &dyn UtilityFunction,
    observer_cap: usize,
) -> Option<((NodeId, NodeId), Vec<NodeId>)> {
    leaking_secret_edge(base, utility, observer_cap, SEARCH_BUDGET).or_else(|| {
        let secret = default_secret_edge(base)?;
        let observers = default_observers(base, secret, observer_cap);
        (!observers.is_empty()).then_some((secret, observers))
    })
}

/// Searches for a secret edge that *visibly* leaks through non-private
/// top-1 serving: an absent pair `(u, v)` whose insertion makes `v` the
/// **unique strict** argmax for some observer in `N(u) ∖ {v}` that did
/// not already answer `v` deterministically. With integer utilities like
/// common neighbours a `+1` shift can never jump a strict boundary, so
/// the mechanism of the leak is tie-breaking: before the insert the
/// observer's answer is a coin flip among tied candidates, after it the
/// answer is always `v` — `rounds` observations separate the worlds at
/// rate `1 − tie⁻ʳᵒᵘⁿᵈˢ`.
///
/// Returns the pair and its (capped) observer set: the canonical demo
/// scenario, where the non-private baseline's advantage crushes the
/// Lemma-1 ceiling while a DP mechanism's stays bounded by its ε. Scans
/// pairs in id order, giving up after `max_pairs` toggled-graph
/// evaluations (`None` if no pair leaks).
pub fn leaking_secret_edge(
    base: &Arc<Graph>,
    utility: &dyn UtilityFunction,
    observer_cap: usize,
    max_pairs: usize,
) -> Option<((NodeId, NodeId), Vec<NodeId>)> {
    let n = base.num_nodes() as NodeId;
    let mut scanned = 0usize;
    for u in 0..n {
        if base.degree(u) < 2 {
            continue;
        }
        for v in 0..n {
            if v == u || base.degree(v) < 1 || base.has_edge(u, v) {
                continue;
            }
            if scanned >= max_pairs {
                return None;
            }
            scanned += 1;
            let observers = default_observers(base, (u, v), observer_cap);
            if observers.is_empty() {
                continue;
            }
            // Probe through the DeltaGraph overlay — no per-pair CSR
            // rebuild; the utilities read through `GraphView`, so each
            // probe costs only the observers' neighbourhood walks.
            let mut with_edge = DeltaGraph::new(Arc::clone(base));
            with_edge.apply(&EdgeMutation::insert(u, v)).expect("absent edge inserts");
            let leaks = observers.iter().any(|&t| {
                let after = utility.utilities_for(&with_edge, t);
                if unique_argmax(&after) != Some(v) {
                    return false;
                }
                let before = utility.utilities_for(base.as_ref(), t);
                unique_argmax(&before) != Some(v)
            });
            if leaks {
                return Some(((u, v), observers));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FrequencyBaseline, LikelihoodRatioMia, ReconstructionAdversary};
    use psr_datasets::toy::karate_club;
    use psr_utility::CommonNeighbors;

    fn karate_config(mechanism: AttackMechanism) -> ScenarioConfig {
        let graph = karate_club();
        let secret = default_secret_edge(&graph).expect("karate has an absent CN pair");
        let observers = default_observers(&graph, secret, 4);
        assert!(!observers.is_empty());
        ScenarioConfig {
            rounds: 2,
            trials_per_world: 16,
            mechanism,
            ..ScenarioConfig::new(secret, observers)
        }
    }

    /// A scenario whose secret edge makes some observer's non-private
    /// top-1 answer deterministic — the configuration the demo claims
    /// are made on. 4 rounds ⇒ world 0 mimics world 1 with probability
    /// at most `tie⁻⁴ ≤ 1/16` per trial.
    fn leaky_config(mechanism: AttackMechanism) -> ScenarioConfig {
        let graph = std::sync::Arc::new(karate_club());
        let (secret, observers) = leaking_secret_edge(&graph, &CommonNeighbors, 4, 20_000)
            .expect("karate has a tie-breaking pair");
        ScenarioConfig {
            rounds: 4,
            trials_per_world: 16,
            mechanism,
            ..ScenarioConfig::new(secret, observers)
        }
    }

    fn scenario(config: ScenarioConfig) -> EdgeInferenceScenario {
        EdgeInferenceScenario::new(karate_club(), Box::new(CommonNeighbors), config)
    }

    #[test]
    fn default_secret_edge_is_absent_with_a_common_neighbor() {
        let g = karate_club();
        let (u, v) = default_secret_edge(&g).unwrap();
        assert!(!g.has_edge(u, v));
        assert!(g.degree(u) >= 2 && g.degree(v) >= 2);
        let nv = g.neighbors(v);
        assert!(g.neighbors(u).iter().any(|w| nv.binary_search(w).is_ok()));
    }

    #[test]
    fn transcripts_are_identical_across_harness_thread_counts() {
        let one = scenario(ScenarioConfig {
            threads: Some(1),
            ..karate_config(AttackMechanism::Exponential { epsilon: 0.5 })
        });
        let eight = scenario(ScenarioConfig {
            threads: Some(8),
            ..karate_config(AttackMechanism::Exponential { epsilon: 0.5 })
        });
        assert_eq!(one.collect(), eight.collect());
    }

    #[test]
    fn transcripts_have_the_declared_shape() {
        let s = scenario(karate_config(AttackMechanism::Exponential { epsilon: 0.5 }));
        let set = s.collect();
        assert_eq!(set.world0.len(), 16);
        assert_eq!(set.world1.len(), 16);
        let entries = s.config().rounds * s.config().observers.len();
        for t in set.world0.iter().chain(&set.world1) {
            assert_eq!(t.len(), entries);
            for obs in &t.entries {
                assert_eq!(obs.recommendations.len(), 1);
            }
        }
        // Model alignment: every entry has a model in both worlds.
        let (w0, w1) = s.world_models();
        assert_eq!(w0.num_entries(), entries);
        assert_eq!(w1.num_entries(), entries);
    }

    #[test]
    fn non_private_baseline_has_near_perfect_advantage() {
        let s = scenario(leaky_config(AttackMechanism::NonPrivateTopK));
        let result = s.attack(&s.collect(), &ReconstructionAdversary);
        assert!(
            result.advantage.advantage > 0.8,
            "deterministic serving separates the worlds: {:?}",
            result.advantage
        );
        assert!(
            result.advantage.advantage > crate::comparison::dp_advantage_ceiling(1.0),
            "the leak clears the Lemma-1 ceiling for every ε ≤ 1"
        );
        let acc = result.mean_accuracy.expect("karate observers have nonzero vectors");
        assert!(acc > 0.99, "non-private serving is optimal: {acc}");
    }

    #[test]
    fn dp_mechanism_advantage_is_meaningfully_smaller() {
        let cfg = ScenarioConfig {
            trials_per_world: 24,
            ..leaky_config(AttackMechanism::Exponential { epsilon: 0.3 })
        };
        let s = scenario(cfg);
        let dp = s.attack(&s.collect(), &ReconstructionAdversary);
        let np = scenario(leaky_config(AttackMechanism::NonPrivateTopK));
        let np_result = np.attack(&np.collect(), &ReconstructionAdversary);
        assert!(
            dp.advantage.advantage < np_result.advantage.advantage,
            "ε = 0.3 advantage {} must undercut non-private {}",
            dp.advantage.advantage,
            np_result.advantage.advantage
        );
    }

    #[test]
    fn laplace_and_smoothing_trials_run_without_a_service() {
        for mech in
            [AttackMechanism::Laplace { epsilon: 0.5 }, AttackMechanism::Smoothing { x: 0.05 }]
        {
            let s = scenario(karate_config(mech));
            let set = s.collect();
            let result = s.attack(&set, &FrequencyBaseline { probe: s.probe() });
            assert_eq!(result.scores_world0.len(), 16);
            assert!(result.advantage.advantage <= 1.0);
        }
    }

    #[test]
    fn insert_mid_stream_diverges_only_after_the_epoch() {
        let cfg = ScenarioConfig {
            epochs: EpochStyle::InsertMidStream { prefix_rounds: 1 },
            rounds: 6,
            ..leaky_config(AttackMechanism::NonPrivateTopK)
        };
        let s = scenario(cfg);
        let set = s.collect();
        let per_round = s.config().observers.len();
        for (t0, t1) in set.world0.iter().zip(&set.world1) {
            // Round 0 (pre-epoch) is generated from the same graph with
            // the same paired seeds: bit-identical across worlds.
            assert_eq!(t0.entries[..per_round], t1.entries[..per_round]);
        }
        // Post-epoch rounds separate the worlds for the exact adversary.
        let result = s.attack(&set, &ReconstructionAdversary);
        assert!(result.advantage.advantage > 0.8, "{:?}", result.advantage);
    }

    #[test]
    fn transcript_epsilon_composes_over_entries() {
        let s = scenario(karate_config(AttackMechanism::Exponential { epsilon: 0.5 }));
        let entries = (s.config().rounds * s.config().observers.len()) as f64;
        assert_eq!(s.transcript_epsilon(), Some(0.5 * entries));
        let np = scenario(karate_config(AttackMechanism::NonPrivateTopK));
        assert_eq!(np.transcript_epsilon(), None);
        let sm = scenario(karate_config(AttackMechanism::Smoothing { x: 0.1 }));
        let eps = sm.transcript_epsilon().unwrap();
        assert!(eps > 0.0 && eps.is_finite());
    }

    #[test]
    fn mia_and_baseline_score_the_probe() {
        let s = scenario(leaky_config(AttackMechanism::NonPrivateTopK));
        let set = s.collect();
        let mia = s.attack(&set, &LikelihoodRatioMia::new(s.probe(), 7));
        let freq = s.attack(&set, &FrequencyBaseline { probe: s.probe() });
        assert!(mia.auc >= 0.5 - 1e-9, "mia auc {}", mia.auc);
        assert!(freq.auc >= 0.5 - 1e-9, "freq auc {}", freq.auc);
    }

    #[test]
    #[should_panic(expected = "secret endpoint")]
    fn observers_may_not_be_secret_endpoints() {
        let g = karate_club();
        let secret = default_secret_edge(&g).unwrap();
        let cfg = ScenarioConfig::new(secret, vec![secret.0]);
        let _ = EdgeInferenceScenario::new(g, Box::new(CommonNeighbors), cfg);
    }

    #[test]
    #[should_panic(expected = "must not contain the secret edge")]
    fn static_base_must_lack_the_secret_edge() {
        let g = karate_club();
        let cfg = ScenarioConfig::new((0, 1), vec![2]);
        let _ = EdgeInferenceScenario::new(g, Box::new(CommonNeighbors), cfg);
    }

    #[test]
    #[should_panic(expected = "prefix_rounds < rounds")]
    fn mid_stream_prefix_must_leave_rounds_after_the_epoch() {
        let g = karate_club();
        let secret = default_secret_edge(&g).unwrap();
        let observers = default_observers(&g, secret, 2);
        let cfg = ScenarioConfig {
            epochs: EpochStyle::InsertMidStream { prefix_rounds: 4 },
            rounds: 4,
            ..ScenarioConfig::new(secret, observers)
        };
        let _ = EdgeInferenceScenario::new(g, Box::new(CommonNeighbors), cfg);
    }
}
