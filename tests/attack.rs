//! The edge-inference acceptance suite: the paper's Lemma 1 adversary as
//! running code, measured through the real serving path.
//!
//! Headline claims (all on the karate club at fixed seeds, through
//! `RecommendationService` batches):
//!
//! * the **non-private top-k baseline** leaks a secret edge at an
//!   advantage exceeding the Lemma-1 ceiling `(e^ε − 1)/(e^ε + 1)` for
//!   *any* ε ≤ 1 — the constructive reading of the paper's impossibility
//!   result (Lemma 1 / Theorem 2 for common neighbours);
//! * every **DP mechanism** (Exponential, Laplace and smoothing, all
//!   served by the service) keeps its empirical-ε estimate,
//!   Clopper–Pearson lower bound included, at or below its configured
//!   transcript budget;
//! * the leak (and its DP suppression) survives **`DeltaGraph` mutation
//!   epochs**: an edge insert or delete applied mid-stream through
//!   `apply_mutations` is exactly as inferable from the incremental
//!   re-serving as from static serving — and no more.
//!
//! The property block at the bottom is the attack *conformance* suite
//! (run at `PROPTEST_CASES=256` in CI): exact-likelihood normalisation,
//! antisymmetry of the reconstruction score, and the DP-consistency of
//! the empirical-ε estimator on random graphs.

use std::sync::Arc;

use proptest::prelude::*;
use psr_attack::{
    default_observers, default_secret_edge, dp_advantage_ceiling, leaking_secret_edge,
    search_secret_edge, AttackMechanism, Epochs, FrequencyBaseline, GameConfig, LikelihoodRatioMia,
    MechanismModel, ObservationModel, ReconstructionAdversary, Secret, TwoWorldGame,
};
use psr_datasets::toy::karate_club;
use psr_datasets::{wiki_vote_like, PresetConfig};
use psr_graph::{EdgeMutation, Graph, NodeId};
use psr_privacy::Mechanism;
use psr_utility::{CandidateSet, CommonNeighbors, SensitivityNorm, UtilityFunction};
use rand::SeedableRng;

mod common;
use common::random_graph;

/// The leaky karate scenario every headline test starts from: a secret
/// edge whose insertion makes some observer's non-private answer
/// deterministic, found by the canonical search.
fn leaky_karate(mechanism: AttackMechanism) -> GameConfig {
    let graph = Arc::new(karate_club());
    let (secret, observers) =
        leaking_secret_edge(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
    GameConfig {
        rounds: 6,
        trials_per_world: 48,
        mechanism,
        seed: 2011, // the paper's year; fixed for the headline numbers
        ..GameConfig::new(insert(secret), observers)
    }
}

/// The edge secret world 1 inserts.
fn insert((u, v): (NodeId, NodeId)) -> Secret {
    Secret::Edge(EdgeMutation::insert(u, v))
}

/// Corollary 1 bounds every ε-DP mechanism, so the accuracy ceiling an
/// edge game reports must sit at or above what the exponential mechanism
/// achieves on the same vector. On wiki at scale 0.1 the representative
/// observer needs many edge edits to lift a candidate to the top, and a
/// single-edit (`t = 1`) ceiling sits below the mechanism.
#[test]
fn edge_accuracy_ceiling_covers_the_exponential_mechanism() {
    let graph = Arc::new(wiki_vote_like(PresetConfig::scaled(0.1, 1)).unwrap().0);
    let (secret, observers) =
        search_secret_edge(&graph, &CommonNeighbors, 4).expect("wiki has a secret edge");
    let epsilon = 0.5;
    let config = GameConfig {
        mechanism: AttackMechanism::Exponential { epsilon },
        ..GameConfig::new(insert(secret), observers)
    };
    let game = TwoWorldGame::new(Arc::clone(&graph), Box::new(CommonNeighbors), config);
    let u = game.representative_utilities();
    let sensitivity =
        CommonNeighbors.sensitivity(graph.as_ref()).unwrap().value(SensitivityNorm::LInf);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let achieved = Mechanism::Exponential.expected_accuracy(u, epsilon, sensitivity, &mut rng);

    let ceiling = game.accuracy_ceiling();
    assert!(ceiling >= achieved, "ceiling {ceiling} below the achieved accuracy {achieved}");
    let t = game.accuracy_t().expect("common neighbours report t");
    let single_edit = psr_bounds::best_accuracy_bound(u, epsilon, 1, None).accuracy_bound;
    assert!(
        t > 1 && single_edit < achieved,
        "t = {t}: the t = 1 ceiling {single_edit} must undercut the achieved {achieved}"
    );
}

fn scenario(config: GameConfig) -> TwoWorldGame {
    TwoWorldGame::new(karate_club(), Box::new(CommonNeighbors), config)
}

#[test]
fn non_private_topk_breaks_the_lemma1_ceiling_for_every_eps_up_to_one() {
    let s = scenario(leaky_karate(AttackMechanism::NonPrivateTopK));
    let result = s.attack(&s.collect(), &ReconstructionAdversary);

    // Lemma 1 at edit distance 1, hypothesis-testing form: an ε-DP
    // release caps any adversary's advantage at (e^ε−1)/(e^ε+1). The
    // ceiling is monotone in ε, so beating it at ε = 1 beats it for
    // every ε ≤ 1.
    let ceiling_at_one = dp_advantage_ceiling(1.0);
    assert!(
        result.advantage.advantage > ceiling_at_one,
        "non-private advantage {} must exceed the ε = 1 ceiling {ceiling_at_one}",
        result.advantage.advantage
    );
    for eps in [1.0, 0.75, 0.5, 0.25, 0.1] {
        assert!(result.advantage.advantage > dp_advantage_ceiling(eps), "ε = {eps}");
    }

    // The other face of the same trade-off: non-private serving is
    // (near-)perfectly accurate, and Corollary 1 turns that accuracy
    // into an ε floor above 1 on this utility vector.
    let comparison = s.compare(&result);
    let accuracy = comparison.mean_accuracy.expect("observers have scorable vectors");
    assert!(accuracy > 0.999, "non-private top-1 serves the argmax: {accuracy}");
    assert!(comparison.consistent, "nothing was promised, nothing is violated");
    assert!(
        comparison.epsilon_floor > 1.0,
        "measured advantage implies ε > 1, got floor {}",
        comparison.epsilon_floor
    );

    // And the empirical-ε machinery agrees: the certified lower bound
    // alone (48 trials, 95% CP) already exceeds 1.
    assert!(
        result.empirical_epsilon.lower > 1.0,
        "certified ε lower bound {} must exceed 1",
        result.empirical_epsilon.lower
    );
}

#[test]
fn every_dp_mechanism_stays_within_its_configured_epsilon() {
    let mechanisms = [
        AttackMechanism::Exponential { epsilon: 0.5 },
        AttackMechanism::Laplace { epsilon: 0.5 },
        AttackMechanism::Smoothing { x: 0.05 },
    ];
    for mechanism in mechanisms {
        let s = scenario(leaky_karate(mechanism));
        let budget = s.transcript_epsilon().expect("DP mechanisms have a budget");
        let set = s.collect();
        let adversaries: [&dyn psr_attack::Adversary; 3] = [
            &ReconstructionAdversary,
            &LikelihoodRatioMia::new(s.probe(), 7),
            &FrequencyBaseline { probe: s.probe() },
        ];
        for adversary in adversaries {
            let result = s.attack(&set, adversary);
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
fn single_observation_exponential_stays_within_its_per_request_epsilon() {
    // The sharpest version of the budget claim: one observer, one round,
    // one slot — the transcript budget *is* the per-request ε = 0.5, and
    // even the exact likelihood-ratio adversary cannot certify more.
    let graph = Arc::new(karate_club());
    let (secret, observers) =
        leaking_secret_edge(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
    let config = GameConfig {
        observers: observers[..1].to_vec(),
        rounds: 1,
        trials_per_world: 64,
        mechanism: AttackMechanism::Exponential { epsilon: 0.5 },
        seed: 2011,
        ..GameConfig::new(insert(secret), observers.clone())
    };
    let s = scenario(config);
    assert_eq!(s.transcript_epsilon(), Some(0.5));
    let result = s.attack(&s.collect(), &ReconstructionAdversary);
    assert!(
        result.empirical_epsilon.lower <= 0.5,
        "certified {} > per-request ε 0.5",
        result.empirical_epsilon.lower
    );
    // The advantage obeys the per-observation Lemma-1 ceiling too (one
    // observation is one ε = 0.5 release).
    assert!(
        result.advantage.advantage <= dp_advantage_ceiling(0.5) + 0.25,
        "advantage {} implausibly above the ε = 0.5 ceiling {} (0.25 sampling slack at 64 \
         trials)",
        result.advantage.advantage,
        dp_advantage_ceiling(0.5)
    );
}

#[test]
fn edge_insert_leaks_through_incremental_reserving_when_non_private() {
    // The mutation-epoch scenario: both worlds serve the same base graph
    // for one round, then world 1 inserts the secret edge through
    // RecommendationService::apply_mutations and serving continues from
    // the warm caches. Non-private incremental re-serving leaks the
    // insert just like static serving.
    let config = GameConfig {
        epochs: Epochs::MidStream { prefix_rounds: 1 },
        ..leaky_karate(AttackMechanism::NonPrivateTopK)
    };
    let s = scenario(config);
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
        "insert through apply_mutations leaks past the ε = 1 ceiling: {}",
        result.advantage.advantage
    );
}

#[test]
fn dp_serving_suppresses_the_mutation_epoch_leak() {
    // Same epoched scenario at ε = 0.5: the empirical ε stays within the
    // *post-divergence* transcript budget (the identical prefix releases
    // nothing, but budgeting counts it conservatively anyway).
    for epochs in [Epochs::MidStream { prefix_rounds: 1 }, Epochs::Static] {
        let config =
            GameConfig { epochs, ..leaky_karate(AttackMechanism::Exponential { epsilon: 0.5 }) };
        let s = scenario(config);
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
fn edge_delete_is_as_inferable_as_edge_insert() {
    // Delete mid-stream: the base graph *contains* the secret edge and
    // world 1 removes it. Non-private serving leaks the delete too —
    // Definition 1's adjacency is symmetric, and so is the attack.
    let graph = Arc::new(karate_club());
    let (secret, observers) =
        leaking_secret_edge(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
    let base = {
        // Insert the secret edge up front so the scenario can delete it.
        let mut delta = psr_graph::DeltaGraph::new(Arc::clone(&graph));
        delta.apply(&EdgeMutation::insert(secret.0, secret.1)).unwrap();
        delta.compact()
    };
    let config = GameConfig {
        epochs: Epochs::MidStream { prefix_rounds: 1 },
        rounds: 6,
        trials_per_world: 48,
        mechanism: AttackMechanism::NonPrivateTopK,
        seed: 2011,
        ..GameConfig::new(Secret::Edge(EdgeMutation::delete(secret.0, secret.1)), observers)
    };
    let s = TwoWorldGame::new(base, Box::new(CommonNeighbors), config);
    let result = s.attack(&s.collect(), &ReconstructionAdversary);
    assert!(
        result.advantage.advantage > dp_advantage_ceiling(1.0),
        "delete through apply_mutations leaks past the ε = 1 ceiling: {}",
        result.advantage.advantage
    );
}

#[test]
fn topk_engines_charge_identical_budgets_and_leak_indistinguishably() {
    // The Gumbel-max serving engine must be a pure performance change:
    // same transcript ε by construction, and an empirical ε̂ the
    // likelihood-ratio adversary cannot tell apart from the peel engine's
    // beyond Monte-Carlo noise. This is the serve-then-measure face of
    // the chi-square conformance suite in psr-privacy.
    let config = |engine| GameConfig {
        engine,
        ..leaky_karate(AttackMechanism::Exponential { epsilon: 0.5 })
    };
    let peel = scenario(config(psr_privacy::TopKEngine::Peel));
    let gumbel = scenario(config(psr_privacy::TopKEngine::Gumbel));

    // Identical composed budgets: ε accounting never looks at the engine.
    let budget = peel.transcript_epsilon().expect("budgeted");
    assert_eq!(gumbel.transcript_epsilon(), Some(budget));

    let rp = peel.attack(&peel.collect(), &ReconstructionAdversary);
    let rg = gumbel.attack(&gumbel.collect(), &ReconstructionAdversary);
    // Both engines respect the budget, with certified lower bounds.
    assert!(rp.empirical_epsilon.lower <= budget, "peel {} > {budget}", rp.empirical_epsilon.lower);
    assert!(
        rg.empirical_epsilon.lower <= budget,
        "gumbel {} > {budget}",
        rg.empirical_epsilon.lower
    );
    // Statistical indistinguishability at 48 trials/world: each engine's
    // point estimate lies within the other's Clopper–Pearson band width
    // of it (the bands at this trial count span well over a unit of ε).
    let band = (rp.empirical_epsilon.point - rp.empirical_epsilon.lower)
        .max(rg.empirical_epsilon.point - rg.empirical_epsilon.lower);
    let gap = (rp.empirical_epsilon.point - rg.empirical_epsilon.point).abs();
    assert!(
        gap <= band + 1e-9,
        "engines separated beyond Monte-Carlo resolution: peel ε̂ {} vs gumbel ε̂ {} (band {band})",
        rp.empirical_epsilon.point,
        rg.empirical_epsilon.point
    );
    // And the AUCs agree to Monte-Carlo tolerance as well.
    assert!((rp.auc - rg.auc).abs() < 0.15, "peel auc {} vs gumbel auc {}", rp.auc, rg.auc);
}

#[test]
fn reconstruction_dominates_the_weaker_adversaries_on_the_non_private_baseline() {
    // Neyman–Pearson in practice: the exact likelihood-ratio attack is at
    // least as good (in AUC) as the shadow-model MIA, which is at least
    // as informed as the plurality baseline.
    let s = scenario(leaky_karate(AttackMechanism::NonPrivateTopK));
    let set = s.collect();
    let recon = s.attack(&set, &ReconstructionAdversary);
    let mia = s.attack(&set, &LikelihoodRatioMia::new(s.probe(), 7));
    let freq = s.attack(&set, &FrequencyBaseline { probe: s.probe() });
    assert!(
        recon.auc + 1e-9 >= mia.auc,
        "reconstruction {} must not lose to MIA {}",
        recon.auc,
        mia.auc
    );
    assert!(recon.auc + 1e-9 >= freq.auc, "… nor to plurality {}", freq.auc);
    assert!(recon.auc > 0.9, "the exact attack separates the worlds: {}", recon.auc);
}

// =====================================================================
// Attack conformance properties (CI: PROPTEST_CASES=256)
// =====================================================================

/// Enumerates all length-`k` ordered pick sequences over `nodes`.
fn sequences(nodes: &[NodeId], k: usize) -> Vec<Vec<NodeId>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for &v in nodes {
        let rest: Vec<NodeId> = nodes.iter().copied().filter(|&w| w != v).collect();
        for mut tail in sequences(&rest, k - 1) {
            let mut seq = vec![v];
            seq.append(&mut tail);
            out.push(seq);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The peeling likelihood is a probability distribution: over every
    /// ordered top-k output of a random target, the exact log-probs sum
    /// to 1. This is the correctness anchor of the reconstruction
    /// adversary (and transitively of the empirical-ε numbers).
    #[test]
    fn exponential_topk_log_prob_normalises(
        graph in random_graph(10, 12),
        target in 0u32..10,
        k in 1usize..3,
        eps_index in 0usize..4,
    ) {
        let eps = [0.0, 0.4, 1.7, 25.0][eps_index];
        let candidates = CandidateSet::for_target(&graph, target);
        prop_assume!(candidates.len() >= k && candidates.len() <= 7);
        let utilities = CommonNeighbors.utilities(&graph, target, &candidates);
        let model = ObservationModel {
            utilities,
            mechanism: MechanismModel {
                mechanism: Mechanism::Exponential,
                epsilon: eps,
                sensitivity: 1.0,
            },
            candidates,
        };
        let ids: Vec<NodeId> = model.candidates.iter().collect();
        let total: f64 =
            sequences(&ids, k).iter().map(|seq| model.log_prob(seq).exp()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total} (k={k}, eps={eps})");
    }

    /// Swapping the hypothesis order negates the reconstruction score:
    /// the adversary has no built-in bias toward either world.
    #[test]
    fn reconstruction_score_is_antisymmetric_in_the_worlds(
        graph in random_graph(12, 14),
        seed in 0u64..1000,
    ) {
        let graph = Arc::new(graph);
        let secret = match default_secret_edge(&graph) {
            Some(pair) => pair,
            None => return Ok(()),
        };
        let observers = usable_observers(&graph, secret, 3);
        prop_assume!(!observers.is_empty());
        let config = GameConfig {
            rounds: 2,
            trials_per_world: 2,
            seed,
            threads: Some(1),
            mechanism: AttackMechanism::Exponential { epsilon: 1.0 },
            ..GameConfig::new(insert(secret), observers)
        };
        let s = TwoWorldGame::new(
            Arc::clone(&graph), Box::new(CommonNeighbors), config);
        let (w0, w1) = s.world_models();
        let set = s.collect();
        for t in set.world0.iter().chain(&set.world1) {
            let fwd = psr_attack::Adversary::score(&ReconstructionAdversary, t, w0, w1);
            let bwd = psr_attack::Adversary::score(&ReconstructionAdversary, t, w1, w0);
            prop_assert!((fwd + bwd).abs() < 1e-6, "fwd {fwd} bwd {bwd}");
        }
    }

    /// DP consistency of the estimator: on a random graph served by the
    /// ε = 1 Exponential mechanism, the certified empirical-ε lower
    /// bound never exceeds the composed transcript budget. (At 12 trials
    /// the Clopper–Pearson construction can certify at most ≈ 1.03, so
    /// any budget of ≥ 2 observations has provable headroom — the suite
    /// checks the *estimator*, the karate tests check the mechanisms.)
    #[test]
    fn empirical_epsilon_never_exceeds_the_composed_budget(
        graph in random_graph(12, 14),
        seed in 0u64..1000,
    ) {
        let graph = Arc::new(graph);
        let secret = match default_secret_edge(&graph) {
            Some(pair) => pair,
            None => return Ok(()),
        };
        let observers = usable_observers(&graph, secret, 2);
        prop_assume!(!observers.is_empty());
        let config = GameConfig {
            rounds: 2,
            trials_per_world: 12,
            seed,
            threads: Some(2),
            mechanism: AttackMechanism::Exponential { epsilon: 1.0 },
            ..GameConfig::new(insert(secret), observers)
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

    /// Harness determinism: the same scenario collected on 1 and 3
    /// worker threads produces identical transcripts and scores.
    #[test]
    fn harness_is_deterministic_across_thread_counts(
        graph in random_graph(10, 10),
        seed in 0u64..1000,
    ) {
        let graph = Arc::new(graph);
        let secret = match default_secret_edge(&graph) {
            Some(pair) => pair,
            None => return Ok(()),
        };
        let observers = usable_observers(&graph, secret, 2);
        prop_assume!(!observers.is_empty());
        let config = |threads| GameConfig {
            rounds: 2,
            trials_per_world: 5,
            seed,
            threads: Some(threads),
            mechanism: AttackMechanism::Exponential { epsilon: 0.8 },
            ..GameConfig::new(insert(secret), observers.clone())
        };
        let a = TwoWorldGame::new(
            Arc::clone(&graph), Box::new(CommonNeighbors), config(1));
        let b = TwoWorldGame::new(
            Arc::clone(&graph), Box::new(CommonNeighbors), config(3));
        prop_assert_eq!(a.collect(), b.collect());
    }
}

/// Observers adjacent to the secret's first endpoint that keep a
/// non-empty candidate set in both worlds (scenario preconditions).
fn usable_observers(graph: &Arc<Graph>, secret: (NodeId, NodeId), cap: usize) -> Vec<NodeId> {
    default_observers(graph, secret, cap + 4)
        .into_iter()
        .filter(|&t| {
            // At least 2 spare candidates in the base graph keeps the
            // set non-empty after the secret edge toggles near it.
            CandidateSet::for_target(graph.as_ref(), t).len() >= 2
        })
        .take(cap)
        .collect()
}
