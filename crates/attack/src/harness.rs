//! The attack harness: Monte-Carlo two-world inference games through the
//! real serving path.
//!
//! A [`TwoWorldGame`] fixes two hypothesised **worlds** — graphs
//! differing by a [`Secret`] — a set of third-party **observers**, and a
//! mechanism. An edge secret is a single edge insert or delete
//! (Definition 1's edge adjacency, edit distance 1); a node secret is a
//! whole-neighbourhood rewire batch (Appendix A's node adjacency, see
//! [`crate::node`]). Both reduce to the mutation batch world 1 applies,
//! so one game plays either. Per trial the harness stands up a fresh
//! [`RecommendationService`] over the trial's world, serves `rounds`
//! request batches for the observers, and records the concrete
//! recommended ids as a [`Transcript`]. Trials run in parallel across a
//! worker pool with per-trial RNG streams split from the master seed, so
//! a run is bit-identical regardless of thread count.
//!
//! [`Epochs::MidStream`] starts both worlds from the *same* base graph
//! and applies the secret batch through
//! [`RecommendationService::apply_mutations`] between two rounds — warm
//! caches, selective invalidation and per-epoch Δf recalibration all stay
//! in play, answering "does the change leak through incremental
//! re-serving?" rather than only "do two static graphs distinguish?".
//!
//! Every mechanism is served by real [`RecommendationService`] batches:
//! the service draws through the one [`psr_privacy::Mechanism`], so the
//! exponential, Laplace and smoothing mechanisms share one trial path,
//! and the non-private top-`k` baseline is the exponential mechanism at
//! a huge ε ([`NON_PRIVATE_EPSILON`]) through the identical code path.

use std::sync::Arc;

use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_gen::seed::split_seed;
use psr_graph::{rewire_node, DeltaGraph, EdgeMutation, Graph, GraphView, MutationOp, NodeId};
use psr_privacy::{Mechanism, TopKEngine};
use psr_utility::{CandidateSet, SensitivityNorm, UtilityFunction, UtilityVector};
use serde::{Deserialize, Serialize};

use crate::adversary::Adversary;
use crate::comparison::{Adjacency, BoundsComparison};
use crate::model::{MechanismModel, ObservationModel, WorldModel};
use crate::roc::{auc, best_advantage, empirical_epsilon, roc_curve};
use crate::roc::{Advantage, EmpiricalEpsilon, RocPoint};
use crate::transcript::{Observation, Transcript};

/// The ε standing in for "non-private" when the baseline is driven
/// through the ε-parameterised serving path: large enough that the
/// top-`k` peel is the deterministic argmax for any realistic utility
/// gap, small enough that `ε·u` stays comfortably finite.
pub const NON_PRIVATE_EPSILON: f64 = 1e6;

/// Which mechanism the scenario serves (and attacks): a
/// [`psr_privacy::Mechanism`] with its ε, or the non-private baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackMechanism {
    /// Top-`k` Exponential peeling.
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
    /// The name of the non-private baseline, the one name the attack
    /// vocabulary adds to [`Mechanism::NAMES`].
    pub const NON_PRIVATE: &'static str = "non-private";

    /// The mechanism `name` selects — a name of [`Mechanism::NAMES`] or
    /// [`Self::NON_PRIVATE`] — with its parameter: `epsilon` for
    /// exponential and Laplace, `x` for smoothing (the other is ignored).
    /// Fails on an unknown name or a parameter [`Self::validate`]
    /// rejects.
    pub fn new(name: &str, epsilon: f64, x: f64) -> Result<Self, String> {
        let mechanism = match name {
            Self::NON_PRIVATE => AttackMechanism::NonPrivateTopK,
            _ => match name.parse::<Mechanism>().map_err(|e| {
                format!("{e}, or {:?} for the non-private baseline", Self::NON_PRIVATE)
            })? {
                Mechanism::Exponential => AttackMechanism::Exponential { epsilon },
                Mechanism::Laplace => AttackMechanism::Laplace { epsilon },
                Mechanism::Smoothing { .. } => AttackMechanism::Smoothing { x },
            },
        };
        mechanism.validate()?;
        Ok(mechanism)
    }

    /// Checks the parameter: ε positive and finite, smoothing `x` in
    /// `[0, 1)` ([`Mechanism::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AttackMechanism::Exponential { epsilon } | AttackMechanism::Laplace { epsilon }
                if !(epsilon > 0.0 && epsilon.is_finite()) =>
            {
                Err(format!("epsilon {epsilon} must be positive and finite"))
            }
            _ => self.served().0.validate(),
        }
    }

    /// The configured per-observation ε: `None` for the non-private
    /// baseline and for smoothing, whose ε follows from `x`.
    pub fn epsilon(&self) -> Option<f64> {
        match *self {
            AttackMechanism::Exponential { epsilon } | AttackMechanism::Laplace { epsilon } => {
                Some(epsilon)
            }
            AttackMechanism::NonPrivateTopK | AttackMechanism::Smoothing { .. } => None,
        }
    }

    /// The mechanism and per-request ε the attacked service runs (the
    /// non-private baseline at [`NON_PRIVATE_EPSILON`]; smoothing ignores ε).
    pub fn served(&self) -> (Mechanism, f64) {
        match *self {
            AttackMechanism::Exponential { epsilon } => (Mechanism::Exponential, epsilon),
            AttackMechanism::NonPrivateTopK => (Mechanism::Exponential, NON_PRIVATE_EPSILON),
            AttackMechanism::Laplace { epsilon } => (Mechanism::Laplace, epsilon),
            AttackMechanism::Smoothing { x } => (Mechanism::Smoothing { x }, 1.0),
        }
    }
}

/// The secret separating the two worlds: world 0 is the base graph,
/// world 1 the base with the secret applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Secret {
    /// Definition 1's edge adjacency (edit distance 1): world 1 applies
    /// one edge mutation. An insert needs the edge absent from the base
    /// graph, a delete needs it present.
    Edge(EdgeMutation),
    /// Appendix A's node adjacency: world 1 replaces `node`'s entire
    /// edge set with `new_neighbours` through the minimal
    /// [`psr_graph::rewire_node`] batch.
    Node {
        /// The node whose neighbourhood is the secret.
        node: NodeId,
        /// World 1's replacement neighbourhood (any order; deduplicated).
        /// Typically disjoint from the base neighbourhood — the
        /// Appendix-A exchange swaps whole edge sets — but overlap is
        /// allowed; shared neighbours simply shrink the hypothesis gap.
        new_neighbours: Vec<NodeId>,
    },
}

impl Secret {
    /// Which neighbouring-graph notion the secret plays.
    pub fn adjacency(&self) -> Adjacency {
        match self {
            Secret::Edge(_) => Adjacency::Edge,
            Secret::Node { .. } => Adjacency::Node,
        }
    }

    /// The probe node for appearance-based adversaries: an edge's second
    /// endpoint, whose utility shifts for observers adjacent to the first;
    /// or the rewired node itself, whose utility is the one coordinate the
    /// rewire moves for every eligible observer.
    pub fn probe(&self) -> NodeId {
        match *self {
            Secret::Edge(mutation) => mutation.v,
            Secret::Node { node, .. } => node,
        }
    }

    /// Checks the secret against the base graph and the observers, and
    /// reduces it to the mutation batch world 1 applies.
    fn world1_mutations(&self, base: &Graph, observers: &[NodeId]) -> Vec<EdgeMutation> {
        match self {
            &Secret::Edge(mutation) => {
                let EdgeMutation { op, u, v } = mutation;
                let n = base.num_nodes();
                assert!(u != v, "secret edge endpoints must differ");
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "secret endpoints must be graph nodes"
                );
                match op {
                    MutationOp::Insert => assert!(
                        !base.has_edge(u, v),
                        "base graph must not contain the secret edge ({u}, {v}) to insert it"
                    ),
                    MutationOp::Delete => assert!(
                        base.has_edge(u, v),
                        "base graph must contain the secret edge ({u}, {v}) to delete it"
                    ),
                }
                for &o in observers {
                    assert!(
                        o != u && o != v,
                        "observer {o} is a secret endpoint — the candidate policy would leak the \
                         edge by support alone (see GameConfig::observers)"
                    );
                }
                vec![mutation]
            }
            Secret::Node { node, new_neighbours } => {
                let v = *node;
                let rewire = rewire_node(base, v, new_neighbours)
                    .unwrap_or_else(|e| panic!("invalid rewire of node {v}: {e}"));
                assert!(
                    !rewire.is_empty(),
                    "rewiring node {v} to the target set changes no edge — the worlds must differ"
                );
                for &o in observers {
                    assert!(o != v, "observer {o} is the rewired node itself");
                    if !base.is_directed() {
                        assert!(
                            !base.has_edge(o, v) && !new_neighbours.contains(&o),
                            "observer {o} is adjacent to the rewired node {v} in one of the \
                             worlds — the candidate policy would leak the rewire by support \
                             alone (see GameConfig::observers)"
                        );
                    }
                }
                rewire
            }
        }
    }
}

/// When world 1 applies the secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epochs {
    /// The worlds differ from round 0. (The classic static game.)
    Static,
    /// Both worlds serve the base graph for `prefix_rounds` rounds, then
    /// world 1 applies the secret batch through
    /// [`RecommendationService::apply_mutations`] and serving continues
    /// incrementally (warm caches, selective invalidation, per-epoch Δf
    /// recalibration).
    MidStream {
        /// Rounds served before the mutation epoch.
        prefix_rounds: usize,
    },
}

/// Full configuration of a two-world game.
#[derive(Debug, Clone, PartialEq)]
pub struct GameConfig {
    /// What the adversary tries to infer.
    pub secret: Secret,
    /// Third-party observers whose recommendations are watched. Must not
    /// include a secret endpoint or the rewired node, and for a node
    /// secret on an undirected graph must not be adjacent to the node in
    /// *either* world: such an observer's candidate set itself changes,
    /// leaking the secret by support alone and short-circuiting the game.
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
    pub epochs: Epochs,
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

impl GameConfig {
    /// A game with the serving defaults: 4 rounds × k = 1, 48 trials per
    /// world, Exponential at ε = 0.5, static worlds, 95% confidence.
    pub fn new(secret: Secret, observers: Vec<NodeId>) -> Self {
        GameConfig {
            secret,
            observers,
            rounds: 4,
            k: 1,
            trials_per_world: 48,
            mechanism: AttackMechanism::Exponential { epsilon: 0.5 },
            epochs: Epochs::Static,
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

/// A two-world inference game bound to a graph, a utility function and a
/// [`GameConfig`]: world 0 is the untouched base graph, world 1 the base
/// with the secret's mutation batch applied (from round 0 or
/// mid-stream). Edge and node secrets share the adversaries, statistics
/// and serving path verbatim, which is what makes the two adjacency
/// notions comparable. See the [module docs](self).
pub struct TwoWorldGame {
    base: Arc<Graph>,
    utility: Arc<dyn UtilityFunction>,
    /// Post-divergence graph per world: world 0 always keeps the base
    /// edge set, world 1 has the secret batch applied.
    worlds: [Arc<Graph>; 2],
    models: [WorldModel; 2],
    /// The secret batch world 1 applies (already folded into
    /// `worlds[1]`; replayed through `apply_mutations` mid-stream).
    world1_mutations: Vec<EdgeMutation>,
    config: GameConfig,
}

impl TwoWorldGame {
    /// Validates the configuration, reduces the secret to world 1's
    /// mutation batch, folds it into the world-1 graph and precomputes
    /// both world models.
    ///
    /// # Panics
    /// Panics on an inconsistent game: secret edge endpoints out of
    /// range or equal, a base graph that already has the edge an insert
    /// adds (or lacks the edge a delete removes), an invalid rewire or
    /// one that changes no edge, observers that are a secret endpoint,
    /// the rewired node or (undirected) adjacent to it in either world,
    /// zero rounds/trials, `k = 0` (or `k ≠ 1` for single-draw
    /// mechanisms), a mechanism parameter [`AttackMechanism::validate`]
    /// rejects, `prefix_rounds` outside `1..rounds` for mid-stream
    /// epochs, no observers, observers that are not graph nodes, or
    /// observers with no candidates in either world.
    pub fn new(
        base: impl Into<Arc<Graph>>,
        utility: Box<dyn UtilityFunction>,
        config: GameConfig,
    ) -> Self {
        let base: Arc<Graph> = base.into();
        let world1_mutations = config.secret.world1_mutations(&base, &config.observers);
        assert!(config.rounds >= 1, "need at least one round");
        assert!(config.trials_per_world >= 1, "need at least one trial per world");
        assert!(config.k >= 1, "k must be at least 1");
        assert!(config.confidence > 0.0 && config.confidence < 1.0, "confidence must be in (0,1)");
        if config.mechanism.served().0.is_single_draw() {
            assert_eq!(config.k, 1, "single-draw mechanisms serve exactly one slot");
        }
        if let Err(e) = config.mechanism.validate() {
            panic!("{e}");
        }
        if let Epochs::MidStream { prefix_rounds } = config.epochs {
            assert!(
                prefix_rounds >= 1 && prefix_rounds < config.rounds,
                "mid-stream divergence needs 1 ≤ prefix_rounds < rounds"
            );
        }
        assert!(!config.observers.is_empty(), "need at least one observer");
        let n = base.num_nodes();
        for &o in &config.observers {
            assert!((o as usize) < n, "observer {o} is not a graph node");
        }

        let worlds = [Arc::clone(&base), toggled(&base, &world1_mutations)];
        for (world, graph) in worlds.iter().enumerate() {
            for &o in &config.observers {
                assert!(
                    !CandidateSet::for_target(graph.as_ref(), o).is_empty(),
                    "observer {o} has no candidates in world {world}"
                );
            }
        }

        let mut game = TwoWorldGame {
            base,
            utility: Arc::from(utility),
            worlds,
            models: [empty(), empty()],
            world1_mutations,
            config,
        };
        game.models = [game.world_model(0), game.world_model(1)];
        game
    }

    /// The game configuration.
    pub fn config(&self) -> &GameConfig {
        &self.config
    }

    /// The probe node for appearance-based adversaries
    /// ([`Secret::probe`]).
    pub fn probe(&self) -> NodeId {
        self.config.secret.probe()
    }

    /// Number of edges in which the two worlds differ (the edge edit
    /// distance between them: 1 for an edge secret, `|N(v) Δ new|` for a
    /// node rewire).
    pub fn rewire_size(&self) -> usize {
        self.world1_mutations.len()
    }

    /// The hypothesis models `(world 0, world 1)` — for mid-stream
    /// epochs, indexed per transcript entry across the divergence point.
    pub fn world_models(&self) -> (&WorldModel, &WorldModel) {
        (&self.models[0], &self.models[1])
    }

    /// The *edge-composed* transcript budget released to the adversary
    /// per trial: per-observation ε summed over all `rounds × observers`
    /// entries by basic composition (`None` for the non-private
    /// baseline). For the smoothing mechanism the per-observation ε is
    /// Theorem 5's `ln(1 + nx/(1−x))` at each observer's candidate count.
    pub fn transcript_epsilon(&self) -> Option<f64> {
        let entries = (self.config.rounds * self.config.observers.len()) as f64;
        match self.config.mechanism {
            AttackMechanism::NonPrivateTopK => None,
            AttackMechanism::Exponential { epsilon } | AttackMechanism::Laplace { epsilon } => {
                Some(epsilon * entries)
            }
            AttackMechanism::Smoothing { x } => {
                let wm = &self.models[1];
                let charge =
                    |i| Mechanism::Smoothing { x }.charge(0.0, wm.model_for(i).utilities.len());
                Some((0..wm.num_entries()).map(charge).sum())
            }
        }
    }

    /// The *node-level* transcript budget of a node secret: the
    /// edge-composed budget scaled by [`Self::rewire_size`] (see the
    /// [`crate::node`] docs for the group-privacy argument). `None` for
    /// edge secrets and the non-private baseline.
    pub fn node_transcript_epsilon(&self) -> Option<f64> {
        match self.config.secret {
            Secret::Edge(_) => None,
            Secret::Node { .. } => {
                self.transcript_epsilon().map(|eps| eps * self.rewire_size() as f64)
            }
        }
    }

    /// Generates all transcripts for both worlds, trials fanned across
    /// the worker pool (bit-identical for any thread count).
    pub fn collect(&self) -> TranscriptSet {
        TranscriptSet { world0: self.collect_world(0), world1: self.collect_world(1) }
    }

    /// Scores a transcript set with one adversary and aggregates the
    /// attack statistics. Both worlds' transcripts go through one
    /// `score_all` batch, so per-batch work (shadow tables, memoised
    /// likelihoods) is done once.
    pub fn attack(&self, set: &TranscriptSet, adversary: &dyn Adversary) -> AttackResult {
        let batch = [set.world0.as_slice(), &set.world1].concat();
        let mut scores0 = adversary.score_all(&batch, &self.models[0], &self.models[1]);
        let scores1 = scores0.split_off(set.world0.len());
        AttackResult {
            adversary: adversary.name().to_owned(),
            roc: roc_curve(&scores0, &scores1),
            auc: auc(&scores0, &scores1),
            advantage: best_advantage(&scores0, &scores1),
            empirical_epsilon: empirical_epsilon(&scores0, &scores1, self.config.confidence),
            mean_accuracy: self.mean_accuracy(&set.world1),
            scores_world0: scores0,
            scores_world1: scores1,
        }
    }

    /// Overlays a result on the theory curves of the secret's adjacency
    /// ([`crate::comparison::compare`] with this game's transcript ε, the
    /// first observer's world-1 utility vector at [`Self::accuracy_t`],
    /// and the graph size).
    pub fn compare(&self, result: &AttackResult) -> BoundsComparison {
        crate::comparison::compare(
            result,
            self.transcript_epsilon(),
            self.accuracy_t().map(|t| (self.representative_utilities(), t)),
            self.config.secret.adjacency(),
            self.base.num_nodes(),
        )
    }

    /// A representative utility vector (first observer, world 1) for
    /// bounds overlays.
    pub fn representative_utilities(&self) -> &UtilityVector {
        &self.models[1].model_for(0).utilities
    }

    /// Corollary 1's edit distance `t` for the representative observer:
    /// the utility's own [`UtilityFunction::edit_distance_t`] for an edge
    /// secret (`None` if it reports none), `t_node_privacy()` for a node.
    pub fn accuracy_t(&self) -> Option<u64> {
        match self.config.secret {
            Secret::Node { .. } => Some(psr_bounds::edit_distance::t_node_privacy()),
            Secret::Edge(_) => {
                let (graphs, round_phase) = self.phases(1);
                let graph = graphs[round_phase[0]].as_ref();
                let observer = self.config.observers[0];
                self.utility.edit_distance_t(graph, observer, self.representative_utilities())
            }
        }
    }

    /// Corollary 1's accuracy ceiling for one observation on the
    /// representative vector at [`AttackMechanism::epsilon`] and
    /// [`Self::accuracy_t`]; 1.0 (vacuous) without either, or when all-zero.
    pub fn accuracy_ceiling(&self) -> f64 {
        let u = self.representative_utilities();
        match (self.config.mechanism.epsilon(), self.accuracy_t()) {
            (Some(epsilon), Some(t)) if !u.is_all_zero() => {
                psr_bounds::best_accuracy_bound(u, epsilon, t, None).accuracy_bound
            }
            _ => 1.0,
        }
    }

    /// `(phase graphs, round → phase index)` for one world: one phase for
    /// static (or undiverged) worlds, two around the mutation round.
    fn phases(&self, world: usize) -> (Vec<Arc<Graph>>, Vec<usize>) {
        let rounds = self.config.rounds;
        match self.config.epochs {
            Epochs::Static => (vec![Arc::clone(&self.worlds[world])], vec![0; rounds]),
            Epochs::MidStream { prefix_rounds } => {
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
        let num_observers = self.config.observers.len();
        let mut models = Vec::with_capacity(graphs.len() * num_observers);
        for graph in &graphs {
            for &observer in &self.config.observers {
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
        let config = self.service_config();
        let mechanism = MechanismModel {
            mechanism: config.mechanism,
            epsilon: config.epsilon_per_request,
            // Δf exactly as the serving layer calibrates it for `graph`.
            sensitivity: config.sensitivity(self.utility.as_ref(), graph.as_ref()),
        };
        ObservationModel { candidates, utilities, mechanism }
    }

    /// The configuration every trial's service runs: the attacked
    /// mechanism, no budget limit, one worker thread (the harness
    /// parallelises across trials).
    fn service_config(&self) -> ServiceConfig {
        let (mechanism, epsilon_per_request) = self.config.mechanism.served();
        ServiceConfig {
            mechanism,
            epsilon_per_request,
            budget_per_target: f64::INFINITY,
            sensitivity_norm: self.config.sensitivity_norm,
            sensitivity_override: self.config.sensitivity_override,
            threads: Some(1),
            engine: self.config.engine,
        }
    }

    /// Per-trial seed, deliberately *world-independent*: trial `i` of
    /// world 0 and world 1 share one RNG stream, so the worlds differ
    /// only through the secret batch (a paired design — and the reason a
    /// mid-stream trial's pre-divergence prefix is bit-identical across
    /// worlds).
    fn trial_seed(&self, trial: usize) -> u64 {
        split_seed(self.config.seed, 0xA7AC_0000 ^ trial as u64)
    }

    fn collect_world(&self, world: usize) -> Vec<Transcript> {
        psr_core::par::map(
            psr_core::par::threads(self.config.threads),
            self.config.trials_per_world,
            |trial| self.service_trial(world, trial),
        )
    }

    /// One trial through a fresh [`RecommendationService`].
    fn service_trial(&self, world: usize, trial: usize) -> Transcript {
        let start = match self.config.epochs {
            Epochs::Static => Arc::clone(&self.worlds[world]),
            Epochs::MidStream { .. } => Arc::clone(&self.base),
        };
        let service = RecommendationService::builder(start, Arc::clone(&self.utility))
            .config(self.service_config())
            .build();
        let requests: Vec<BatchRequest> = self
            .config
            .observers
            .iter()
            .map(|&target| BatchRequest { target, k: self.config.k })
            .collect();
        let trial_seed = self.trial_seed(trial);
        let mut entries = Vec::with_capacity(self.config.rounds * requests.len());
        for round in 0..self.config.rounds {
            if let Some(mutations) = self.mutations_at_round(world, round) {
                service.apply_mutations(mutations).expect("validated mutation applies");
            }
            for outcome in service.serve_batch(&requests, split_seed(trial_seed, round as u64)) {
                let served = outcome.expect("validated scenario serves every observer");
                entries.push(Observation {
                    observer: served.target,
                    k: self.config.k,
                    recommendations: served.recommendations,
                });
            }
        }
        Transcript { entries }
    }

    /// The mutation batch world `world` applies before round `round`
    /// (only world 1 ever diverges; world 0's history is mutation-free).
    fn mutations_at_round(&self, world: usize, round: usize) -> Option<&[EdgeMutation]> {
        match self.config.epochs {
            Epochs::MidStream { prefix_rounds } if world == 1 && round == prefix_rounds => {
                Some(&self.world1_mutations)
            }
            _ => None,
        }
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

/// Pair slots a default-scenario search may spend: karate needs a
/// handful, preset graphs get a bounded prefix scan. Every absent pair the
/// scan reaches takes one slot, whether it is probed on a toggled graph or
/// skipped because it cannot leak (see [`leaking_secret_edge`]), so the
/// budget bounds the same prefix of pairs either way.
pub const SEARCH_BUDGET: usize = 4_000;

/// The secret edge (and observers) to attack when none is given: the
/// first pair [`leaking_secret_edge`] finds within [`SEARCH_BUDGET`], else
/// [`default_secret_edge`] when it has observers. The search skips pairs
/// that the utility's sensitivity rules out, with the result unchanged;
/// see [`leaking_secret_edge`] for when it does.
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
/// pairs in id order, giving up after `max_pairs` pairs (`None` if no
/// pair leaks).
///
/// **Pruning by the sensitivity band.** An observer `t ∈ N(u) ∖ {v}` is
/// not incident to `(u, v)`, so the insert leaves its candidate set alone
/// and moves each of its utilities by at most `Δf∞` (footnote 5,
/// [`UtilityFunction::sensitivity`]). `v` can then become `t`'s unique
/// strict argmax only if `before_t(v) ≥ u_max,t − 2·Δf∞`; the comparison
/// is `≥`, so float rounding in weighted-path sums never prunes a leaking
/// pair. A pair no observer's band admits is skipped without building
/// the toggled graph, but it still takes one of the `max_pairs` slots, so
/// the scan covers the same prefix and returns the same pair and
/// observers as probing every pair would. `Δf∞` is taken on the
/// post-insert graph (the insert may raise the maximum degree by one,
/// which weighted paths' bound grows with). Each observer's base vector
/// is scored once per `u` and also serves the probe's "before" check.
/// Pruning is off, and every pair probed, for a utility whose
/// sensitivity is `None` and on directed graphs.
pub fn leaking_secret_edge(
    base: &Arc<Graph>,
    utility: &dyn UtilityFunction,
    observer_cap: usize,
    max_pairs: usize,
) -> Option<((NodeId, NodeId), Vec<NodeId>)> {
    let band = (!base.is_directed())
        .then(|| utility.sensitivity(&AfterOneInsert(base)))
        .flatten()
        .map(|s| 2.0 * s.value(SensitivityNorm::LInf));
    let n = base.num_nodes() as NodeId;
    let mut scanned = 0usize;
    for u in 0..n {
        if base.degree(u) < 2 {
            continue;
        }
        // Every observer set of `u` is drawn from its first `cap + 1`
        // neighbours (one of them may be `v`); their base vectors are
        // scored on the first pair that needs them.
        let pool = &base.neighbors(u)[..base.degree(u).min(observer_cap.saturating_add(1))];
        let mut before: Vec<UtilityVector> = Vec::new();
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
            if before.is_empty() {
                before = pool.iter().map(|&t| utility.utilities_for(base.as_ref(), t)).collect();
            }
            let before_of = |t: NodeId| &before[pool.iter().position(|&w| w == t).expect("pool")];
            if let Some(band) = band {
                let admitted = observers.iter().any(|&t| {
                    let b = before_of(t);
                    b.get(v) >= b.u_max() - band
                });
                if !admitted {
                    continue;
                }
            }
            // Probe through the DeltaGraph overlay — no per-pair CSR
            // rebuild; the utilities read through `GraphView`, so each
            // probe costs only the observers' neighbourhood walks.
            let mut with_edge = DeltaGraph::new(Arc::clone(base));
            with_edge.apply(&EdgeMutation::insert(u, v)).expect("absent edge inserts");
            let leaks = observers.iter().any(|&t| {
                let after = utility.utilities_for(&with_edge, t);
                unique_argmax(&after) == Some(v) && unique_argmax(before_of(t)) != Some(v)
            });
            if leaks {
                return Some(((u, v), observers));
            }
        }
    }
    None
}

/// A graph as a sensitivity bound sees it after one edge insert: every
/// read forwards to the graph, except [`GraphView::max_degree`], which
/// the insert may raise by one.
struct AfterOneInsert<'a>(&'a Graph);

impl GraphView for AfterOneInsert<'_> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }
    fn num_edges(&self) -> usize {
        self.0.num_edges() + 1
    }
    fn direction(&self) -> psr_graph::Direction {
        self.0.direction()
    }
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.0.neighbors(v)
    }
    fn max_degree(&self) -> usize {
        self.0.max_degree() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FrequencyBaseline, LikelihoodRatioMia, ReconstructionAdversary};
    use psr_datasets::toy::karate_club;
    use psr_utility::CommonNeighbors;

    fn karate_config(mechanism: AttackMechanism) -> GameConfig {
        let graph = karate_club();
        let secret = default_secret_edge(&graph).expect("karate has an absent CN pair");
        let observers = default_observers(&graph, secret, 4);
        assert!(!observers.is_empty());
        GameConfig {
            rounds: 2,
            trials_per_world: 16,
            mechanism,
            ..GameConfig::new(edge(secret), observers)
        }
    }

    /// A scenario whose secret edge makes some observer's non-private
    /// top-1 answer deterministic — the configuration the demo claims
    /// are made on. 4 rounds ⇒ world 0 mimics world 1 with probability
    /// at most `tie⁻⁴ ≤ 1/16` per trial.
    fn leaky_config(mechanism: AttackMechanism) -> GameConfig {
        let graph = std::sync::Arc::new(karate_club());
        let (secret, observers) = leaking_secret_edge(&graph, &CommonNeighbors, 4, 20_000)
            .expect("karate has a tie-breaking pair");
        GameConfig {
            rounds: 4,
            trials_per_world: 16,
            mechanism,
            ..GameConfig::new(edge(secret), observers)
        }
    }

    /// The edge secret world 1 inserts.
    fn edge((u, v): (NodeId, NodeId)) -> Secret {
        Secret::Edge(EdgeMutation::insert(u, v))
    }

    fn scenario(config: GameConfig) -> TwoWorldGame {
        TwoWorldGame::new(karate_club(), Box::new(CommonNeighbors), config)
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
        let one = scenario(GameConfig {
            threads: Some(1),
            ..karate_config(AttackMechanism::Exponential { epsilon: 0.5 })
        });
        let eight = scenario(GameConfig {
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
        let cfg = GameConfig {
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
    fn laplace_and_smoothing_trials_run_through_the_service() {
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
    fn one_attack_batch_equals_scoring_each_world_alone() {
        let graph = Arc::new(karate_club());
        let (node, new_neighbours, observers) =
            crate::node::leaking_node_rewire(&graph, &CommonNeighbors, 4, SEARCH_BUDGET)
                .expect("karate has a leaking rewire");
        let node_game = GameConfig {
            rounds: 2,
            trials_per_world: 16,
            ..GameConfig::new(Secret::Node { node, new_neighbours }, observers)
        };
        for mechanism in [
            AttackMechanism::Exponential { epsilon: 0.5 },
            AttackMechanism::Laplace { epsilon: 0.5 },
        ] {
            for config in [karate_config(mechanism), GameConfig { mechanism, ..node_game.clone() }]
            {
                let game = scenario(config);
                let set = game.collect();
                let (w0, w1) = game.world_models();
                let mia = LikelihoodRatioMia::new(game.probe(), 3);
                let frequency = FrequencyBaseline { probe: game.probe() };
                // A batch that interleaves the worlds, world 1 first.
                let mixed: Vec<Transcript> = set
                    .world1
                    .iter()
                    .zip(&set.world0)
                    .flat_map(|(a, b)| [a.clone(), b.clone()])
                    .collect();
                for adversary in [&ReconstructionAdversary as &dyn Adversary, &mia, &frequency] {
                    let name = adversary.name();
                    let result = game.attack(&set, adversary);
                    assert_eq!(result.scores_world0, adversary.score_all(&set.world0, w0, w1));
                    assert_eq!(result.scores_world1, adversary.score_all(&set.world1, w0, w1));
                    let batch = adversary.score_all(&mixed, w0, w1);
                    for (t, score) in mixed.iter().zip(batch) {
                        assert_eq!(adversary.score(t, w0, w1).to_bits(), score.to_bits(), "{name}");
                    }
                }
            }
        }
    }

    #[test]
    fn insert_mid_stream_diverges_only_after_the_epoch() {
        let cfg = GameConfig {
            epochs: Epochs::MidStream { prefix_rounds: 1 },
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
        let cfg = GameConfig::new(edge(secret), vec![secret.0]);
        let _ = TwoWorldGame::new(g, Box::new(CommonNeighbors), cfg);
    }

    #[test]
    #[should_panic(expected = "must not contain the secret edge")]
    fn static_base_must_lack_the_secret_edge() {
        let g = karate_club();
        let cfg = GameConfig::new(edge((0, 1)), vec![2]);
        let _ = TwoWorldGame::new(g, Box::new(CommonNeighbors), cfg);
    }

    #[test]
    #[should_panic(expected = "prefix_rounds < rounds")]
    fn mid_stream_prefix_must_leave_rounds_after_the_epoch() {
        let g = karate_club();
        let secret = default_secret_edge(&g).unwrap();
        let observers = default_observers(&g, secret, 2);
        let cfg = GameConfig {
            epochs: Epochs::MidStream { prefix_rounds: 4 },
            rounds: 4,
            ..GameConfig::new(edge(secret), observers)
        };
        let _ = TwoWorldGame::new(g, Box::new(CommonNeighbors), cfg);
    }
}
