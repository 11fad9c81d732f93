//! The node-identity acceptance suite: Appendix A's impossibility result
//! as running code, measured through the real serving path.
//!
//! Headline claims (fixed seeds, through `RecommendationService`
//! batches):
//!
//! * the **non-private top-k baseline** leaks a node's entire rewired
//!   neighbourhood at a Clopper–Pearson-certified empirical-ε lower
//!   bound that exceeds *every* usable budget ε ≤ 1 — and on the karate
//!   club it clears the Appendix-A theory floors themselves
//!   (`node_privacy_eps_lower(n, 1)` and the asymptotic `ln(n)/2`),
//!   the constructive reading of "node-identity privacy is impossible
//!   for accurate recommenders";
//! * every **DP mechanism** (Exponential through the service, Laplace
//!   and smoothing through the single-draw path) keeps every adversary's
//!   certified empirical ε at or below the composed transcript budget,
//!   even against the much larger node-adjacency hypothesis gap;
//! * both claims survive **rewire epochs**: the whole `rewire_node`
//!   batch applied mid-stream through `apply_mutations` (warm caches,
//!   selective invalidation) is exactly as inferable as static serving —
//!   and no more — with bit-identical pre-divergence prefixes.
//!
//! The property block at the bottom is the node-adjacency *conformance*
//! suite (run at `PROPTEST_CASES=256` in CI): harness determinism across
//! thread counts, bit-identical rewire-epoch prefixes, and the
//! DP-consistency of the estimator under node adjacency on random
//! graphs.

use std::sync::Arc;

use proptest::prelude::*;
use psr_attack::{
    default_rewire_target, dp_advantage_ceiling, leaking_node_rewire,
    lemma1_epsilon_floor_from_accuracy, node_observers, Adjacency, AttackMechanism,
    BoundsComparison, Epochs, FrequencyBaseline, GameConfig, LikelihoodRatioMia,
    ReconstructionAdversary, Secret, TwoWorldGame,
};
use psr_bounds::node_privacy::{node_privacy_eps_lower, node_privacy_eps_lower_asymptotic};
use psr_datasets::toy::karate_club;
use psr_datasets::{wiki_vote_like, PresetConfig};
use psr_graph::{EdgeMutation, Graph, GraphView, NodeId};
use psr_utility::{CandidateSet, CommonNeighbors};

mod common;
use common::random_graph;

/// The leaky karate rewire every headline test starts from: a node whose
/// rewiring makes some observer's non-private answer deterministically
/// flip, found by the canonical search.
fn leaky_karate(mechanism: AttackMechanism) -> (Arc<Graph>, GameConfig) {
    let graph = Arc::new(karate_club());
    let (node, new, observers) =
        leaking_node_rewire(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
    let config = GameConfig {
        rounds: 6,
        trials_per_world: 48,
        mechanism,
        seed: 2011, // the paper's year; fixed for the headline numbers
        ..GameConfig::new(rewire(node, new), observers)
    };
    (graph, config)
}

/// The node secret replacing `node`'s neighbourhood with `new`.
fn rewire(node: NodeId, new: Vec<NodeId>) -> Secret {
    Secret::Node { node, new_neighbours: new }
}

fn scenario(graph: Arc<Graph>, config: GameConfig) -> TwoWorldGame {
    TwoWorldGame::new(graph, Box::new(CommonNeighbors), config)
}

#[test]
fn non_private_node_attacker_clears_the_appendix_a_floor() {
    let (graph, config) = leaky_karate(AttackMechanism::NonPrivateTopK);
    let n = graph.num_nodes();
    let s = scenario(graph, config);
    let result = s.attack(&s.collect(), &ReconstructionAdversary);

    // The certified empirical-ε lower bound alone (48 trials, 95% CP)
    // exceeds every usable budget…
    assert!(
        result.empirical_epsilon.lower > 1.0,
        "certified ε lower bound {} must exceed every ε ≤ 1 budget",
        result.empirical_epsilon.lower
    );
    // …and the measured advantage clears the Lemma-1 ceiling for every
    // ε ≤ 1 (the ceiling is monotone, so ε = 1 covers all smaller ε).
    for eps in [1.0, 0.75, 0.5, 0.25, 0.1] {
        assert!(result.advantage.advantage > dp_advantage_ceiling(eps), "ε = {eps}");
    }

    // The overlay puts the measurement right next to Appendix A's
    // theory floors — and on karate the certified bound clears them
    // both: the leak the theory *requires* is actually measured.
    let comparison = s.compare(&result);
    assert_eq!(comparison.adjacency, "node");
    let floor = comparison.node_epsilon_lower.expect("node overlay present");
    let asymptotic = comparison.node_epsilon_lower_asymptotic.expect("node overlay present");
    assert_eq!(floor, node_privacy_eps_lower(n, 1));
    assert_eq!(asymptotic, node_privacy_eps_lower_asymptotic(n));
    assert!(
        result.empirical_epsilon.lower > floor,
        "certified {} must clear the finite-n floor {floor}",
        result.empirical_epsilon.lower
    );
    assert!(
        result.empirical_epsilon.lower > asymptotic,
        "certified {} must clear ln(n)/2 = {asymptotic}",
        result.empirical_epsilon.lower
    );

    // The other face of the trade-off: non-private serving is accurate,
    // and the Corollary-1 floor at t = 2 is still binding far above 1.
    let accuracy = comparison.mean_accuracy.expect("observers have scorable vectors");
    assert!(accuracy > 0.999, "non-private top-1 serves the argmax: {accuracy}");
    let acc_floor = comparison.accuracy_epsilon_floor.expect("binding at perfect accuracy");
    assert!(acc_floor > 1.0, "accuracy {accuracy} implies ε ≥ {acc_floor} at t = 2");
    assert!(comparison.consistent, "nothing was promised, nothing is violated");
}

#[test]
fn every_dp_mechanism_stays_within_its_budget_under_node_adjacency() {
    let mechanisms = [
        AttackMechanism::Exponential { epsilon: 0.5 },
        AttackMechanism::Laplace { epsilon: 0.5 },
        AttackMechanism::Smoothing { x: 0.05 },
    ];
    for mechanism in mechanisms {
        let (graph, config) = leaky_karate(mechanism);
        let s = scenario(graph, config);
        let budget = s.transcript_epsilon().expect("DP mechanisms have a budget");
        let node_budget = s.node_transcript_epsilon().expect("group-privacy budget");
        assert!(
            node_budget > budget,
            "the node-level budget scales the edge budget by the rewire size"
        );
        let set = s.collect();
        let adversaries: [&dyn psr_attack::Adversary; 3] = [
            &ReconstructionAdversary,
            &LikelihoodRatioMia::new(s.probe(), 7),
            &FrequencyBaseline { probe: s.probe() },
        ];
        for adversary in adversaries {
            let result = s.attack(&set, adversary);
            // The strong form: certified ε stays within even the
            // *edge-composed* budget (and a fortiori within the
            // group-privacy node budget).
            assert!(
                result.empirical_epsilon.lower <= budget,
                "{} vs {:?}: certified ε {} exceeds the transcript budget {budget}",
                adversary.name(),
                mechanism,
                result.empirical_epsilon.lower
            );
            let comparison = s.compare(&result);
            assert!(comparison.consistent, "{} vs {mechanism:?}", adversary.name());
        }
    }
}

#[test]
fn rewire_epoch_leaks_when_non_private() {
    // Both worlds serve the same base graph for one round, then world 1
    // applies the whole rewire batch through apply_mutations and serving
    // continues incrementally from the warm caches.
    let (graph, config) = leaky_karate(AttackMechanism::NonPrivateTopK);
    let config = GameConfig { epochs: Epochs::MidStream { prefix_rounds: 1 }, ..config };
    let s = scenario(graph, config);
    let set = s.collect();

    // Pre-divergence rounds are bit-identical across worlds (paired
    // seeds, same graph): whatever leaks, leaks *after* the epoch.
    let per_round = s.config().observers.len();
    for (t0, t1) in set.world0.iter().zip(&set.world1) {
        assert_eq!(t0.entries[..per_round], t1.entries[..per_round]);
    }

    let result = s.attack(&set, &ReconstructionAdversary);
    assert!(
        result.advantage.advantage > dp_advantage_ceiling(1.0),
        "a rewire through apply_mutations leaks past the ε = 1 ceiling: {}",
        result.advantage.advantage
    );
    assert!(
        result.empirical_epsilon.lower > 1.0,
        "the epoched leak still certifies past every usable budget: {}",
        result.empirical_epsilon.lower
    );
}

#[test]
fn dp_serving_suppresses_the_rewire_epoch_leak() {
    // Same epoched scenario at ε = 0.5, plus the static control: the
    // certified ε stays within the composed transcript budget whether
    // the rewire lands mid-stream or the worlds differ from round 0.
    for epochs in [Epochs::MidStream { prefix_rounds: 1 }, Epochs::Static] {
        let (graph, config) = leaky_karate(AttackMechanism::Exponential { epsilon: 0.5 });
        let s = scenario(graph, GameConfig { epochs, ..config });
        let budget = s.transcript_epsilon().expect("budgeted");
        let result = s.attack(&s.collect(), &ReconstructionAdversary);
        assert!(
            result.empirical_epsilon.lower <= budget,
            "{epochs:?}: certified {} > budget {budget}",
            result.empirical_epsilon.lower
        );
    }
}

#[test]
fn wiki_vote_scale_certifies_above_every_usable_budget() {
    // The same headline at wiki-vote scale (×0.1 ≈ 712 nodes): the
    // non-private attacker's certified floor still beats every usable
    // budget, and the Appendix-A overlay grows with ln(n).
    let (graph, _) = wiki_vote_like(PresetConfig::scaled(0.1, 2011)).expect("generator");
    let graph = Arc::new(graph);
    let n = graph.num_nodes();
    assert!(n > 500, "scaled wiki preset is sized like the paper's graph: {n}");
    let (node, new, observers) =
        leaking_node_rewire(&graph, &CommonNeighbors, 4, 50_000).expect("wiki-scale leaks");
    let config = GameConfig {
        rounds: 4,
        trials_per_world: 64,
        mechanism: AttackMechanism::NonPrivateTopK,
        seed: 2011,
        ..GameConfig::new(rewire(node, new), observers)
    };
    let s = scenario(Arc::clone(&graph), config);
    let result = s.attack(&s.collect(), &ReconstructionAdversary);
    assert!(
        result.empirical_epsilon.lower > 1.0,
        "certified ε lower bound {} must exceed every ε ≤ 1 budget",
        result.empirical_epsilon.lower
    );
    let comparison = s.compare(&result);
    let floor = comparison.node_epsilon_lower.expect("node overlay");
    let asymptotic = comparison.node_epsilon_lower_asymptotic.expect("node overlay");
    assert_eq!(floor, node_privacy_eps_lower(n, 1));
    assert!(
        asymptotic > node_privacy_eps_lower_asymptotic(34),
        "the floor grows with n: ln({n})/2 = {asymptotic}"
    );
}

#[test]
fn adjacency_only_changes_the_overlay() {
    // A rewire in which node v gains one neighbour w plays exactly the
    // worlds of the edge game on the insert (v, w): same observers and
    // seed give the same transcripts, models and scores. Only the theory
    // overlay sees the adjacency — the node floors, and the edit
    // distance the accuracy floor is evaluated at.
    let graph = Arc::new(karate_club());
    let (v, new, observers) =
        leaking_node_rewire(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
    let w = new[0];
    let mut grown = graph.neighbors(v).to_vec();
    grown.push(w);
    for mechanism in
        [AttackMechanism::NonPrivateTopK, AttackMechanism::Exponential { epsilon: 0.5 }]
    {
        let config = |secret| GameConfig {
            rounds: 4,
            trials_per_world: 16,
            mechanism,
            seed: 2011,
            ..GameConfig::new(secret, observers.clone())
        };
        let edge = scenario(Arc::clone(&graph), config(Secret::Edge(EdgeMutation::insert(v, w))));
        let node = scenario(Arc::clone(&graph), config(rewire(v, grown.clone())));
        assert_eq!(node.rewire_size(), 1, "the rewire changes exactly one edge");

        let set = edge.collect();
        assert_eq!(set, node.collect());
        assert_eq!(edge.world_models(), node.world_models());
        assert_eq!(edge.transcript_epsilon(), node.transcript_epsilon());
        assert_eq!(node.node_transcript_epsilon(), node.transcript_epsilon());
        let result = edge.attack(&set, &ReconstructionAdversary);
        assert_eq!(result, node.attack(&set, &ReconstructionAdversary));

        let (e, n) = (edge.compare(&result), node.compare(&result));
        assert_eq!((e.adjacency.as_str(), n.adjacency.as_str()), ("edge", "node"));
        assert_eq!((e.node_epsilon_lower, e.node_epsilon_lower_asymptotic), (None, None));
        let size = graph.num_nodes();
        assert_eq!(n.node_epsilon_lower, Some(node_privacy_eps_lower(size, 1)));
        assert_eq!(n.node_epsilon_lower_asymptotic, Some(node_privacy_eps_lower_asymptotic(size)));
        let u = edge.representative_utilities();
        let accuracy = result.mean_accuracy.expect("karate observers are scorable");
        let floor = |adjacency: Adjacency| {
            lemma1_epsilon_floor_from_accuracy(u, accuracy, adjacency.accuracy_t())
        };
        assert_eq!(e.accuracy_epsilon_floor, floor(Adjacency::Edge));
        assert_eq!(n.accuracy_epsilon_floor, floor(Adjacency::Node));
        let relabelled = BoundsComparison {
            adjacency: n.adjacency.clone(),
            accuracy_epsilon_floor: n.accuracy_epsilon_floor,
            node_epsilon_lower: n.node_epsilon_lower,
            node_epsilon_lower_asymptotic: n.node_epsilon_lower_asymptotic,
            ..e
        };
        assert_eq!(relabelled, n, "{mechanism:?}: the rest of the overlay is shared");
    }
}

// =====================================================================
// Node-adjacency conformance properties (CI: PROPTEST_CASES=256)
// =====================================================================

/// A valid `(node, new_neighbours, observers)` triple for a random
/// graph, or `None` when the graph offers none: the first node with a
/// disjoint rewire target and at least one support-stable observer with
/// candidate slack in both worlds.
fn usable_rewire(graph: &Arc<Graph>, cap: usize) -> Option<(NodeId, Vec<NodeId>, Vec<NodeId>)> {
    for v in graph.nodes() {
        let Some(new) = default_rewire_target(graph, v) else { continue };
        let observers: Vec<NodeId> = node_observers(graph, v, &new, cap + 4)
            .into_iter()
            .filter(|&o| CandidateSet::for_target(graph.as_ref(), o).len() >= 2)
            .take(cap)
            .collect();
        if !observers.is_empty() {
            return Some((v, new, observers));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Harness determinism under node adjacency: the same scenario
    /// collected on 1 and 3 worker threads produces identical
    /// transcripts and scores, rewire batch and all.
    #[test]
    fn node_harness_is_deterministic_across_thread_counts(
        graph in random_graph(10, 10),
        seed in 0u64..1000,
    ) {
        let graph = Arc::new(graph);
        let Some((node, new, observers)) = usable_rewire(&graph, 2) else { return Ok(()) };
        let config = |threads| GameConfig {
            rounds: 2,
            trials_per_world: 5,
            seed,
            threads: Some(threads),
            mechanism: AttackMechanism::Exponential { epsilon: 0.8 },
            ..GameConfig::new(rewire(node, new.clone()), observers.clone())
        };
        let a = TwoWorldGame::new(
            Arc::clone(&graph), Box::new(CommonNeighbors), config(1));
        let b = TwoWorldGame::new(
            Arc::clone(&graph), Box::new(CommonNeighbors), config(3));
        let (set_a, set_b) = (a.collect(), b.collect());
        prop_assert_eq!(&set_a, &set_b);
        let ra = a.attack(&set_a, &ReconstructionAdversary);
        let rb = b.attack(&set_b, &ReconstructionAdversary);
        prop_assert_eq!(ra.scores_world0, rb.scores_world0);
        prop_assert_eq!(ra.scores_world1, rb.scores_world1);
    }

    /// Rewire epochs share a bit-identical pre-divergence prefix across
    /// worlds (paired trial seeds over the same base graph), and world 0
    /// is untouched by the epoch style entirely.
    #[test]
    fn rewire_epoch_prefix_is_bit_identical_across_worlds(
        graph in random_graph(10, 10),
        seed in 0u64..1000,
        prefix_rounds in 1usize..3,
    ) {
        let graph = Arc::new(graph);
        let Some((node, new, observers)) = usable_rewire(&graph, 2) else { return Ok(()) };
        let config = |epochs| GameConfig {
            rounds: 3,
            trials_per_world: 4,
            seed,
            threads: Some(1),
            mechanism: AttackMechanism::Exponential { epsilon: 0.6 },
            epochs,
            ..GameConfig::new(rewire(node, new.clone()), observers.clone())
        };
        let epoch = TwoWorldGame::new(
            Arc::clone(&graph),
            Box::new(CommonNeighbors),
            config(Epochs::MidStream { prefix_rounds }),
        );
        let set = epoch.collect();
        let per_round = epoch.config().observers.len();
        for (t0, t1) in set.world0.iter().zip(&set.world1) {
            prop_assert_eq!(
                &t0.entries[..prefix_rounds * per_round],
                &t1.entries[..prefix_rounds * per_round]
            );
        }
        // World 0 never mutates: the epoch style cannot change it.
        let stat = TwoWorldGame::new(
            Arc::clone(&graph), Box::new(CommonNeighbors), config(Epochs::Static));
        prop_assert_eq!(stat.collect().world0, set.world0);
    }

    /// DP consistency of the estimator under node adjacency: on a random
    /// graph served by the ε = 1 Exponential mechanism, the certified
    /// empirical-ε lower bound never exceeds the composed transcript
    /// budget — despite the rewire's larger hypothesis gap.
    #[test]
    fn node_empirical_epsilon_never_exceeds_the_composed_budget(
        graph in random_graph(12, 14),
        seed in 0u64..1000,
    ) {
        let graph = Arc::new(graph);
        let Some((node, new, observers)) = usable_rewire(&graph, 2) else { return Ok(()) };
        let config = GameConfig {
            rounds: 2,
            trials_per_world: 12,
            seed,
            threads: Some(2),
            mechanism: AttackMechanism::Exponential { epsilon: 1.0 },
            ..GameConfig::new(rewire(node, new), observers)
        };
        let s = TwoWorldGame::new(
            Arc::clone(&graph), Box::new(CommonNeighbors), config);
        let budget = s.transcript_epsilon().expect("budgeted");
        let set = s.collect();
        for adversary in [
            &ReconstructionAdversary as &dyn psr_attack::Adversary,
            &FrequencyBaseline { probe: s.probe() },
        ] {
            let result = s.attack(&set, adversary);
            prop_assert!(
                result.empirical_epsilon.lower <= budget,
                "{}: certified {} > budget {budget}",
                adversary.name(),
                result.empirical_epsilon.lower
            );
        }
    }
}
