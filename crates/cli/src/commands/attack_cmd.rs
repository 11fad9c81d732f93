//! `psr attack` — run the empirical inference adversaries against a
//! served graph and emit a JSON report (mirroring `serve`'s report
//! style): per-adversary ROC, advantage, empirical ε with confidence,
//! and the theory overlays from `psr-bounds` — Lemma 1/Corollary 1/
//! Theorem 5 for `--adjacency edge` (Definition 1's single-edge worlds),
//! plus the Appendix-A node-privacy floors `node_privacy_eps_lower` /
//! `ln(n)/2` for `--adjacency node` (whole-neighbourhood rewires).

use std::sync::Arc;

use psr_attack::{
    default_observers, default_rewire_target, leaking_node_rewire, node_observers,
    search_secret_edge, Adjacency, Adversary, AttackMechanism, AttackResult, BoundsComparison,
    EdgeInferenceScenario, EpochStyle, FrequencyBaseline, LikelihoodRatioMia, NodeEpochStyle,
    NodeIdentityScenario, NodeScenarioConfig, ReconstructionAdversary, RocPoint, ScenarioConfig,
    SEARCH_BUDGET,
};
use psr_graph::io::IdMap;
use psr_graph::{Graph, GraphView, NodeId};
use psr_privacy::TopKEngine;
use psr_utility::UtilityFunction;
use serde::Serialize;

use crate::args::AttackOptions;

/// The secret edge in the report, named both by compact id and by the
/// source file's original label (identical for generated presets).
#[derive(Debug, Serialize)]
struct SecretEdgeRecord {
    u: u32,
    v: u32,
    label_u: u64,
    label_v: u64,
}

/// The rewired node in a node-adjacency report.
#[derive(Debug, Serialize)]
struct RewiredNodeRecord {
    node: u32,
    label: u64,
    /// World 0's neighbourhood size.
    old_degree: usize,
    /// World 1's replacement neighbourhood.
    new_neighbours: Vec<u32>,
    /// Edges in which the worlds differ (`|N(v) Δ new|`).
    rewire_size: usize,
}

/// One adversary's outcome with its theory overlay.
#[derive(Debug, Serialize)]
struct AdversaryRecord {
    adversary: String,
    advantage: f64,
    advantage_threshold: f64,
    auc: f64,
    empirical_epsilon: f64,
    empirical_epsilon_lower: f64,
    confidence: f64,
    /// Lemma-1 advantage ceiling at the transcript budget (1.0 when
    /// non-private).
    advantage_ceiling: f64,
    /// Smallest ε consistent with the measured advantage.
    epsilon_floor: f64,
    mean_accuracy: Option<f64>,
    /// Corollary-1 ε floor implied by the measured accuracy (at the
    /// adjacency's edit distance: t = 1 for edge, t = 2 for node).
    accuracy_epsilon_floor: Option<f64>,
    /// Whether the measurement is consistent with the configured budget.
    consistent: bool,
    roc: Vec<RocPoint>,
}

impl AdversaryRecord {
    fn new(result: &AttackResult, comparison: &BoundsComparison) -> Self {
        AdversaryRecord {
            adversary: result.adversary.clone(),
            advantage: result.advantage.advantage,
            advantage_threshold: result.advantage.threshold,
            auc: result.auc,
            empirical_epsilon: result.empirical_epsilon.point,
            empirical_epsilon_lower: result.empirical_epsilon.lower,
            confidence: result.empirical_epsilon.confidence,
            advantage_ceiling: comparison.advantage_ceiling,
            epsilon_floor: comparison.epsilon_floor,
            mean_accuracy: comparison.mean_accuracy,
            accuracy_epsilon_floor: comparison.accuracy_epsilon_floor,
            consistent: comparison.consistent,
            roc: result.roc.clone(),
        }
    }
}

/// The full report emitted by `psr attack`.
#[derive(Debug, Serialize)]
struct AttackReport {
    dataset: String,
    /// Graph backing the attacked graph came through: csr|compressed.
    backend: String,
    utility: String,
    /// Which top-k sampler served the transcripts (peel|gumbel; the two
    /// are distributionally identical, so this is provenance, not a
    /// privacy parameter).
    engine: String,
    mechanism: String,
    /// `"edge"` (Definition 1) or `"node"` (Appendix A).
    adjacency: String,
    /// Per-observation ε (None for the non-private baseline; Theorem 5's
    /// calibration is folded into `transcript_epsilon` for smoothing).
    epsilon_per_observation: Option<f64>,
    /// Composed ε of one full transcript (rounds × observers).
    transcript_epsilon: Option<f64>,
    /// Node-level transcript budget by group privacy
    /// (`transcript_epsilon × rewire_size`; node adjacency only).
    node_transcript_epsilon: Option<f64>,
    /// Appendix A's finite-`n` floor `node_privacy_eps_lower(n, 1)`
    /// (node adjacency only).
    node_epsilon_lower: Option<f64>,
    /// Appendix A's asymptotic floor `ln(n)/2` (node adjacency only).
    node_epsilon_lower_asymptotic: Option<f64>,
    /// The secret edge (edge adjacency only).
    secret_edge: Option<SecretEdgeRecord>,
    /// The rewired node (node adjacency only).
    rewired_node: Option<RewiredNodeRecord>,
    observers: Vec<u32>,
    observer_labels: Vec<u64>,
    rounds: usize,
    k: usize,
    trials_per_world: usize,
    epoch_style: String,
    adversaries: Vec<AdversaryRecord>,
}

/// Scores one transcript set with every requested adversary through an
/// `attack`+`compare` closure (shared by both adjacency branches).
fn adversary_records(
    opts: &AttackOptions,
    probe: NodeId,
    mut evaluate: impl FnMut(&dyn Adversary) -> (AttackResult, BoundsComparison),
) -> Vec<AdversaryRecord> {
    let reconstruction = ReconstructionAdversary;
    let mia = LikelihoodRatioMia::new(probe, opts.run.seed);
    let frequency = FrequencyBaseline { probe };
    let adversaries: Vec<&dyn Adversary> = match opts.adversary.as_str() {
        "reconstruction" => vec![&reconstruction],
        "mia" => vec![&mia],
        "frequency" => vec![&frequency],
        "all" => vec![&reconstruction, &mia, &frequency],
        other => unreachable!("arg parser admits only known adversaries, got {other}"),
    };
    adversaries
        .iter()
        .map(|adversary| {
            let (result, comparison) = evaluate(*adversary);
            AdversaryRecord::new(&result, &comparison)
        })
        .collect()
}

pub fn run(opts: &AttackOptions) -> Result<(), String> {
    match opts.adjacency.parse()? {
        Adjacency::Edge => run_edge(opts),
        Adjacency::Node => run_node(opts),
    }
}

/// What both adjacency games share: the attacked graph, materialised in
/// RAM (the harness mutates per-trial world copies), its original
/// labels, and the mechanism and engine the options name.
struct Setup {
    graph: Arc<Graph>,
    ids: Option<IdMap>,
    utility_name: String,
    mechanism: AttackMechanism,
    engine: TopKEngine,
}

impl Setup {
    /// Loads the graph and resolves the names; the utility goes to the
    /// scenario.
    fn load(opts: &AttackOptions) -> Result<(Self, Box<dyn UtilityFunction>), String> {
        let (backend, ids) = opts.graph.load(opts.run.seed)?;
        let utility = opts.serving.utility()?;
        let setup = Setup {
            graph: backend.to_graph_arc(),
            ids,
            utility_name: utility.name(),
            mechanism: AttackMechanism::new(
                &opts.mechanism,
                opts.serving.epsilon,
                opts.smoothing_x,
            )?,
            engine: opts.serving.engine()?,
        };
        Ok((setup, utility))
    }

    fn label(&self, v: NodeId) -> u64 {
        super::original_label(self.ids.as_ref(), v)
    }

    /// The report fields both games fill the same way; the
    /// adjacency-specific ones start empty.
    fn report(
        &self,
        opts: &AttackOptions,
        transcript_epsilon: Option<f64>,
        observers: Vec<NodeId>,
        adversaries: Vec<AdversaryRecord>,
    ) -> AttackReport {
        let epsilon_per_observation = match self.mechanism {
            AttackMechanism::Exponential { epsilon } | AttackMechanism::Laplace { epsilon } => {
                Some(epsilon)
            }
            AttackMechanism::NonPrivateTopK | AttackMechanism::Smoothing { .. } => None,
        };
        AttackReport {
            dataset: opts.graph.label(),
            backend: opts.graph.backend.clone(),
            utility: self.utility_name.clone(),
            engine: self.engine.name().to_owned(),
            mechanism: opts.mechanism.clone(),
            adjacency: opts.adjacency.clone(),
            epsilon_per_observation,
            transcript_epsilon,
            node_transcript_epsilon: None,
            node_epsilon_lower: None,
            node_epsilon_lower_asymptotic: None,
            secret_edge: None,
            rewired_node: None,
            observer_labels: observers.iter().map(|&o| self.label(o)).collect(),
            observers,
            rounds: opts.rounds,
            k: opts.k,
            trials_per_world: opts.trials,
            epoch_style: opts.epoch.clone(),
            adversaries,
        }
    }
}

/// Writes the report (to `--json` or stdout).
fn emit(report: &AttackReport, opts: &AttackOptions, headline: &str) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report).expect("serialisable");
    super::emit_json(&json, opts.run.json.as_deref(), headline)
}

fn run_edge(opts: &AttackOptions) -> Result<(), String> {
    let (setup, utility) = Setup::load(opts)?;
    let graph = &setup.graph;

    let (secret, observers) = match opts.edge {
        Some(edge) => {
            // Validate up front so ordinary input mistakes read as CLI
            // errors, not library assertion panics.
            let (u, v) = edge;
            let n = graph.num_nodes() as u32;
            if u == v || u >= n || v >= n {
                return Err(format!(
                    "--edge {u},{v}: endpoints must be two distinct nodes below {n}"
                ));
            }
            let exists = graph.has_edge(u, v);
            if opts.epoch == "delete" && !exists {
                return Err(format!(
                    "--edge {u},{v}: --epoch delete needs an edge present in the graph"
                ));
            }
            if opts.epoch != "delete" && exists {
                return Err(format!(
                    "--edge {u},{v}: already an edge of the graph; static/insert styles infer \
                     an *absent* edge (use --epoch delete to attack its removal)"
                ));
            }
            let observers = default_observers(graph, edge, opts.observer_cap);
            if observers.is_empty() {
                return Err(format!(
                    "--edge {u},{v}: node {u} has no neighbours besides {v} to observe"
                ));
            }
            (edge, observers)
        }
        None => search_secret_edge(graph, utility.as_ref(), opts.observer_cap)
            .ok_or("no suitable secret edge found; pass --edge u,v")?,
    };

    let epochs = match opts.epoch.as_str() {
        "static" => EpochStyle::Static,
        "insert" => EpochStyle::InsertMidStream { prefix_rounds: opts.prefix_rounds },
        "delete" => EpochStyle::DeleteMidStream { prefix_rounds: opts.prefix_rounds },
        other => unreachable!("arg parser admits only known edge epoch styles, got {other}"),
    };

    let config = ScenarioConfig {
        rounds: opts.rounds,
        k: opts.k,
        trials_per_world: opts.trials,
        mechanism: setup.mechanism,
        engine: setup.engine,
        epochs,
        threads: opts.run.threads,
        seed: opts.run.seed,
        ..ScenarioConfig::new(secret, observers.clone())
    };
    let scenario = EdgeInferenceScenario::new(Arc::clone(graph), utility, config);

    let set = scenario.collect();
    let records = adversary_records(opts, scenario.probe(), |adversary| {
        let result = scenario.attack(&set, adversary);
        let comparison = scenario.compare(&result);
        (result, comparison)
    });

    let report = AttackReport {
        secret_edge: Some(SecretEdgeRecord {
            u: secret.0,
            v: secret.1,
            label_u: setup.label(secret.0),
            label_v: setup.label(secret.1),
        }),
        ..setup.report(opts, scenario.transcript_epsilon(), observers, records)
    };

    let best = report.adversaries.iter().map(|a| a.advantage).fold(0.0, f64::max);
    let headline = format!(
        "attacked edge ({}, {}) on {} with {}: best advantage {best:.3} (ceiling {:.3})",
        setup.label(secret.0),
        setup.label(secret.1),
        report.dataset,
        report.mechanism,
        report.adversaries.first().map_or(1.0, |a| a.advantage_ceiling),
    );
    emit(&report, opts, &headline)
}

fn run_node(opts: &AttackOptions) -> Result<(), String> {
    let (setup, utility) = Setup::load(opts)?;
    let graph = &setup.graph;

    let (node, new_neighbours, observers) = match opts.node {
        Some(v) => {
            let n = graph.num_nodes() as u32;
            if v >= n {
                return Err(format!("--node {v}: must be a node below {n}"));
            }
            let new = default_rewire_target(graph, v).ok_or_else(|| {
                format!("--node {v}: no disjoint rewire target exists (isolated node?)")
            })?;
            let observers = node_observers(graph, v, &new, opts.observer_cap);
            if observers.is_empty() {
                return Err(format!(
                    "--node {v}: no eligible observer shares a common neighbour with it"
                ));
            }
            (v, new, observers)
        }
        None => leaking_node_rewire(graph, utility.as_ref(), opts.observer_cap, SEARCH_BUDGET)
            .ok_or("no leaking node rewire found; pass --node v")?,
    };

    let epochs = match opts.epoch.as_str() {
        "static" => NodeEpochStyle::Static,
        "rewire" => NodeEpochStyle::RewireMidStream { prefix_rounds: opts.prefix_rounds },
        other => unreachable!("arg parser admits only known node epoch styles, got {other}"),
    };

    let config = NodeScenarioConfig {
        rounds: opts.rounds,
        k: opts.k,
        trials_per_world: opts.trials,
        mechanism: setup.mechanism,
        engine: setup.engine,
        epochs,
        threads: opts.run.threads,
        seed: opts.run.seed,
        ..NodeScenarioConfig::new(node, new_neighbours.clone(), observers.clone())
    };
    let scenario = NodeIdentityScenario::new(Arc::clone(graph), utility, config);

    let set = scenario.collect();
    let mut overlay: Option<(Option<f64>, Option<f64>)> = None;
    let records = adversary_records(opts, scenario.probe(), |adversary| {
        let result = scenario.attack(&set, adversary);
        let comparison = scenario.compare(&result);
        overlay.get_or_insert((
            comparison.node_epsilon_lower,
            comparison.node_epsilon_lower_asymptotic,
        ));
        (result, comparison)
    });
    let (node_epsilon_lower, node_epsilon_lower_asymptotic) = overlay.unwrap_or((None, None));

    let rewire_size = scenario.rewire_size();
    let report = AttackReport {
        node_transcript_epsilon: scenario.node_transcript_epsilon(),
        node_epsilon_lower,
        node_epsilon_lower_asymptotic,
        rewired_node: Some(RewiredNodeRecord {
            node,
            label: setup.label(node),
            old_degree: graph.degree(node),
            new_neighbours: new_neighbours.clone(),
            rewire_size,
        }),
        ..setup.report(opts, scenario.transcript_epsilon(), observers, records)
    };

    let best_certified =
        report.adversaries.iter().map(|a| a.empirical_epsilon_lower).fold(0.0, f64::max);
    let headline = format!(
        "attacked node {} on {} with {} ({rewire_size} edges rewired): certified eps >= \
         {best_certified:.3} (Appendix-A floor {:.3}, ln(n)/2 = {:.3})",
        setup.label(node),
        report.dataset,
        report.mechanism,
        report.node_epsilon_lower.unwrap_or(f64::NAN),
        report.node_epsilon_lower_asymptotic.unwrap_or(f64::NAN),
    );
    emit(&report, opts, &headline)
}
