//! `psr attack` — run the empirical inference adversaries against a
//! served graph and emit a JSON report (mirroring `serve`'s report
//! style): per-adversary ROC, advantage, empirical ε with confidence,
//! and the theory overlays from `psr-bounds` — Lemma 1/Corollary 1/
//! Theorem 5 for `--adjacency edge` (Definition 1's single-edge worlds),
//! plus the Appendix-A node-privacy floors `node_privacy_eps_lower` /
//! `ln(n)/2` for `--adjacency node` (whole-neighbourhood rewires).

use std::sync::Arc;

use psr_attack::{
    default_observers, default_rewire_target, node_observers, search_node_rewire,
    search_secret_edge, Adjacency, Adversary, AttackMechanism, AttackResult, BoundsComparison,
    Epochs, FrequencyBaseline, GameConfig, LikelihoodRatioMia, ReconstructionAdversary, RocPoint,
    Secret, TranscriptSet, TwoWorldGame,
};
use psr_graph::{EdgeMutation, Graph, GraphView, NodeId};
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

/// Scores one transcript set with every requested adversary, each
/// result overlaid on the game's theory.
fn evaluate(
    opts: &AttackOptions,
    game: &TwoWorldGame,
    set: &TranscriptSet,
) -> Vec<(AttackResult, BoundsComparison)> {
    let probe = game.probe();
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
            let result = game.attack(set, *adversary);
            let comparison = game.compare(&result);
            (result, comparison)
        })
        .collect()
}

/// The secret edge and its observers: `--edge` checked up front so
/// ordinary input mistakes read as CLI errors, not library assertion
/// panics, else the searched default. World 1 deletes the edge under
/// `--epoch delete` and inserts it otherwise.
fn edge_secret(
    opts: &AttackOptions,
    graph: &Arc<Graph>,
    utility: &dyn UtilityFunction,
) -> Result<(Secret, Vec<NodeId>), String> {
    let ((u, v), observers) = match opts.edge {
        Some(edge) => {
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
        None => search_secret_edge(graph, utility, opts.observer_cap)
            .ok_or("no suitable secret edge found; pass --edge u,v")?,
    };
    let mutation = if opts.epoch == "delete" {
        EdgeMutation::delete(u, v)
    } else {
        EdgeMutation::insert(u, v)
    };
    Ok((Secret::Edge(mutation), observers))
}

/// The rewired node, its replacement neighbourhood and its observers:
/// `--node` checked up front, else [`search_node_rewire`]'s rewire.
fn node_secret(
    opts: &AttackOptions,
    graph: &Arc<Graph>,
    utility: &dyn UtilityFunction,
) -> Result<(Secret, Vec<NodeId>), String> {
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
        None => search_node_rewire(graph, utility, opts.observer_cap)
            .ok_or("no node to rewire found; pass --node v")?,
    };
    Ok((Secret::Node { node, new_neighbours }, observers))
}

pub fn run(opts: &AttackOptions) -> Result<(), String> {
    // The harness mutates per-trial world copies, so the attacked graph
    // is materialised in RAM whatever backend it came through.
    let (backend, ids) = opts.graph.load(opts.run.seed)?;
    let graph = backend.to_graph_arc();
    let label = |v: NodeId| super::original_label(ids.as_ref(), v);
    let utility = opts.serving.utility()?;
    let utility_name = utility.name();
    let mechanism = AttackMechanism::new(&opts.mechanism, opts.serving.epsilon, opts.smoothing_x)?;
    let engine = opts.serving.engine()?;

    let (secret, observers) = match opts.adjacency.parse()? {
        Adjacency::Edge => edge_secret(opts, &graph, utility.as_ref())?,
        Adjacency::Node => node_secret(opts, &graph, utility.as_ref())?,
    };
    let epochs = match opts.epoch.as_str() {
        "static" => Epochs::Static,
        _ => Epochs::MidStream { prefix_rounds: opts.prefix_rounds },
    };
    let config = GameConfig {
        rounds: opts.rounds,
        k: opts.k,
        trials_per_world: opts.trials,
        mechanism,
        engine,
        epochs,
        threads: opts.run.threads,
        seed: opts.run.seed,
        ..GameConfig::new(secret, observers.clone())
    };
    let game = TwoWorldGame::new(Arc::clone(&graph), utility, config);
    let set = game.collect();
    let evaluated = evaluate(opts, &game, &set);

    let first = &evaluated[0].1;
    let epsilon_per_observation = mechanism.epsilon();
    let secret = &game.config().secret;
    let (secret_edge, rewired_node) = match secret {
        Secret::Edge(m) => (
            Some(SecretEdgeRecord { u: m.u, v: m.v, label_u: label(m.u), label_v: label(m.v) }),
            None,
        ),
        Secret::Node { node, new_neighbours } => (
            None,
            Some(RewiredNodeRecord {
                node: *node,
                label: label(*node),
                old_degree: graph.degree(*node),
                new_neighbours: new_neighbours.clone(),
                rewire_size: game.rewire_size(),
            }),
        ),
    };
    let report = AttackReport {
        dataset: opts.graph.label(),
        backend: opts.graph.backend.clone(),
        utility: utility_name,
        engine: engine.name().to_owned(),
        mechanism: opts.mechanism.clone(),
        adjacency: opts.adjacency.clone(),
        epsilon_per_observation,
        transcript_epsilon: game.transcript_epsilon(),
        node_transcript_epsilon: game.node_transcript_epsilon(),
        node_epsilon_lower: first.node_epsilon_lower,
        node_epsilon_lower_asymptotic: first.node_epsilon_lower_asymptotic,
        secret_edge,
        rewired_node,
        observer_labels: observers.iter().map(|&o| label(o)).collect(),
        observers,
        rounds: opts.rounds,
        k: opts.k,
        trials_per_world: opts.trials,
        epoch_style: opts.epoch.clone(),
        adversaries: evaluated.iter().map(|(r, c)| AdversaryRecord::new(r, c)).collect(),
    };

    let headline = match secret {
        Secret::Edge(m) => {
            let best = report.adversaries.iter().map(|a| a.advantage).fold(0.0, f64::max);
            format!(
                "attacked edge ({}, {}) on {} with {}: best advantage {best:.3} (ceiling {:.3})",
                label(m.u),
                label(m.v),
                report.dataset,
                report.mechanism,
                report.adversaries.first().map_or(1.0, |a| a.advantage_ceiling),
            )
        }
        Secret::Node { node, .. } => {
            let best_certified =
                report.adversaries.iter().map(|a| a.empirical_epsilon_lower).fold(0.0, f64::max);
            format!(
                "attacked node {} on {} with {} ({} edges rewired): certified eps >= \
                 {best_certified:.3} (Appendix-A floor {:.3}, ln(n)/2 = {:.3})",
                label(*node),
                report.dataset,
                report.mechanism,
                game.rewire_size(),
                report.node_epsilon_lower.unwrap_or(f64::NAN),
                report.node_epsilon_lower_asymptotic.unwrap_or(f64::NAN),
            )
        }
    };
    let json = serde_json::to_string_pretty(&report).expect("serialisable");
    super::emit_json(&json, opts.run.json.as_deref(), &headline)
}
