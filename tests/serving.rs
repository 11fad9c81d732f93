//! Batch-serving integration: the `RecommendationService` worker pool over
//! real preset graphs — thread-count determinism, directed candidate
//! policy, budget enforcement, shared-graph wiring, and graph-epoch
//! behaviour (`apply_mutations`), end to end.

use std::sync::Arc;

use psr_core::serving::{BatchRequest, RecommendationService, ServeError, ServiceConfig};
use psr_core::{Recommender, RecommenderConfig};
use psr_datasets::{twitter_like, wiki_vote_like, PresetConfig};
use psr_gen::{edge_stream, rng_from_seed, StreamParams};
use psr_graph::{EdgeMutation, GraphView, MutationOp};
use psr_privacy::ExponentialMechanism;
use psr_utility::{CandidateSet, CommonNeighbors, WeightedPaths};

fn wiki_service(threads: Option<usize>) -> RecommendationService {
    let (graph, _) = wiki_vote_like(PresetConfig::scaled(0.05, 2011)).unwrap();
    RecommendationService::new(
        graph,
        Box::new(CommonNeighbors),
        ServiceConfig { threads, ..Default::default() },
    )
}

/// Every connected node asks for `k` recommendations.
fn batch_for(service: &RecommendationService, k: usize) -> Vec<BatchRequest> {
    let graph = service.shared_graph();
    graph
        .nodes()
        .filter(|&v| graph.degree(v) > 0)
        .map(|target| BatchRequest { target, k })
        .collect()
}

#[test]
fn batch_is_deterministic_across_thread_counts() {
    // The experiment.rs guarantee, mirrored by the serving pool: the same
    // request batch (duplicates included) produces bit-identical outcomes
    // whether one worker or eight answer it.
    let one = wiki_service(Some(1));
    let eight = wiki_service(Some(8));
    let mut requests = batch_for(&one, 2);
    let duplicates: Vec<BatchRequest> = requests.iter().take(10).copied().collect();
    requests.extend(duplicates);

    let a = one.serve_batch(&requests, 77);
    let b = eight.serve_batch(&requests, 77);
    assert_eq!(a, b);
    // And a fresh service replays identically: no hidden global state.
    assert_eq!(a, wiki_service(Some(3)).serve_batch(&requests, 77));
}

#[test]
fn served_recommendations_are_valid_and_distinct() {
    let service = wiki_service(None);
    let requests = batch_for(&service, 3);
    let outcomes = service.serve_batch(&requests, 5);
    assert_eq!(outcomes.len(), requests.len());
    for (request, outcome) in requests.iter().zip(&outcomes) {
        let served = outcome.as_ref().expect("connected wiki targets must serve");
        assert!(!served.recommendations.is_empty());
        let distinct: std::collections::HashSet<_> = served.recommendations.iter().collect();
        assert_eq!(distinct.len(), served.recommendations.len());
        for &v in &served.recommendations {
            assert_ne!(v, request.target);
            assert!(!service.pin().has_edge(request.target, v));
        }
    }
}

#[test]
fn directed_graph_candidates_respect_out_edges_only() {
    // The §7.1 candidate policy on directed graphs, served through the
    // batch path: out-neighbours are excluded, pure in-neighbours remain
    // eligible — exactly what `CandidateSet` promises.
    let (graph, _) = twitter_like(PresetConfig::scaled(0.02, 7)).unwrap();
    assert!(graph.is_directed());
    let graph = Arc::new(graph);
    let service = RecommendationService::new(
        Arc::clone(&graph),
        Box::new(WeightedPaths::paper(0.005)),
        ServiceConfig { budget_per_target: f64::INFINITY, threads: Some(2), ..Default::default() },
    );

    let targets: Vec<u32> = graph.nodes().filter(|&v| graph.degree(v) > 0).take(40).collect();
    let requests: Vec<BatchRequest> =
        targets.iter().map(|&target| BatchRequest { target, k: 4 }).collect();
    for (request, outcome) in requests.iter().zip(service.serve_batch(&requests, 13)) {
        let served = match outcome {
            Ok(served) => served,
            Err(ServeError::NoCandidates { .. }) => continue,
            Err(other) => panic!("unexpected rejection: {other}"),
        };
        let candidates = CandidateSet::for_target(&graph, request.target);
        for &v in &served.recommendations {
            assert!(candidates.contains(v), "{v} not a candidate of {}", request.target);
            assert!(
                !graph.neighbors(request.target).contains(&v),
                "recommended an existing out-neighbour"
            );
        }
    }

    // The policy is asymmetric: somewhere in the batch a recommendation
    // may point at a node that already follows the target (in-neighbour).
    // Verify the candidate sets themselves allow it, so the service is
    // not silently over-excluding.
    let asymmetric = targets.iter().any(|&t| {
        let candidates = CandidateSet::for_target(&graph, t);
        graph
            .nodes()
            .any(|v| graph.has_edge(v, t) && !graph.has_edge(t, v) && candidates.contains(v))
    });
    assert!(asymmetric, "no target had an eligible in-neighbour — candidate policy broken?");
}

#[test]
fn budgets_are_enforced_per_target_across_batches() {
    let (graph, _) = wiki_vote_like(PresetConfig::scaled(0.05, 2011)).unwrap();
    let service = RecommendationService::new(
        graph,
        Box::new(CommonNeighbors),
        ServiceConfig {
            epsilon_per_request: 0.5,
            budget_per_target: 1.0,
            threads: Some(2),
            ..Default::default()
        },
    );
    let graph = service.shared_graph();
    let target = graph.nodes().find(|&v| graph.degree(v) > 0).unwrap();

    // Two requests fit the budget exactly; the third must be refused, and
    // the refusal must survive across separate batches (state, not a
    // per-batch counter).
    assert!(service.serve_one(target, 1, 1).is_ok());
    assert_eq!(service.remaining_budget(target), 0.5);
    let outcomes =
        service.serve_batch(&[BatchRequest { target, k: 2 }, BatchRequest { target, k: 1 }], 2);
    assert!(outcomes[0].is_ok());
    match &outcomes[1] {
        Err(ServeError::BudgetExhausted { requested, remaining, .. }) => {
            assert_eq!(*requested, 0.5);
            assert!(*remaining < 1e-9);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert_eq!(service.remaining_budget(target), 0.0);
}

#[test]
fn service_and_recommender_share_one_graph() {
    let service = wiki_service(Some(2));
    let recommender = Recommender::new(
        service.shared_graph(),
        Box::new(CommonNeighbors),
        Box::new(ExponentialMechanism::paper()),
        RecommenderConfig::default(),
    );
    assert!(std::ptr::eq(service.shared_graph().as_ref() as *const _, recommender.graph()));

    // Both paths serve valid recommendations from the same instance.
    let graph = service.shared_graph();
    let target = graph.nodes().find(|&v| graph.degree(v) > 0).unwrap();
    let served = service.serve_one(target, 1, 3).unwrap();
    assert!(!service.pin().has_edge(target, served.recommendations[0]));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let single = recommender.recommend(target, &mut rng).unwrap();
    assert!(!recommender.graph().has_edge(target, single));
}

#[test]
fn thread_count_determinism_survives_epochs() {
    // The bit-identity guarantee must hold *per epoch*, with warm caches
    // and selective invalidation in play: serve → mutate → serve must
    // agree between a 1-worker and an 8-worker service at every step.
    let one = wiki_service(Some(1));
    let eight = wiki_service(Some(8));
    let requests = batch_for(&one, 2);
    let mutations: Vec<EdgeMutation> = {
        let base = one.shared_graph();
        let mut rng = rng_from_seed(2024);
        edge_stream(&base, StreamParams { events: 40, insert_fraction: 0.6 }, &mut rng)
            .into_iter()
            .map(|e| e.mutation)
            .collect()
    };

    assert_eq!(one.serve_batch(&requests, 17), eight.serve_batch(&requests, 17));
    let ea = one.apply_mutations(&mutations).unwrap();
    let eb = eight.apply_mutations(&mutations).unwrap();
    assert_eq!(ea, eb, "epoch summaries must not depend on thread count");
    assert_eq!(one.epoch(), 1);
    assert_eq!(one.serve_batch(&requests, 18), eight.serve_batch(&requests, 18));
    // And a fresh service over the mutated snapshot replays the post-epoch
    // batch identically: no hidden cache or epoch state leaks into results.
    one.reset_budgets();
    let fresh = RecommendationService::new(
        one.snapshot(),
        Box::new(CommonNeighbors),
        ServiceConfig { threads: Some(3), ..Default::default() },
    );
    assert_eq!(one.serve_batch(&requests, 18), fresh.serve_batch(&requests, 18));
}

#[test]
fn budgets_stay_continuous_across_epochs() {
    let (graph, _) = wiki_vote_like(PresetConfig::scaled(0.05, 2011)).unwrap();
    let service = RecommendationService::new(
        graph,
        Box::new(CommonNeighbors),
        ServiceConfig {
            epsilon_per_request: 0.5,
            budget_per_target: 1.5,
            threads: Some(2),
            ..Default::default()
        },
    );
    let graph = service.shared_graph();
    let target = graph.nodes().find(|&v| graph.degree(v) > 0).unwrap();

    // Spend ⅔ of the budget in epoch 0.
    assert!(service.serve_one(target, 1, 1).is_ok());
    assert!(service.serve_one(target, 1, 2).is_ok());
    assert_eq!(service.remaining_budget(target), 0.5);

    // A mutation epoch must neither refund nor wipe the spend.
    let other = graph.nodes().find(|&v| v != target && !graph.has_edge(target, v)).unwrap();
    service.apply_mutations(&[EdgeMutation::insert(target, other)]).unwrap();
    assert_eq!(service.remaining_budget(target), 0.5);

    // The last half-ε request fits; the next is refused with the typed
    // error, in the *new* epoch.
    assert!(service.serve_one(target, 1, 3).is_ok());
    match service.serve_one(target, 1, 4) {
        Err(ServeError::BudgetExhausted { target: t, requested, remaining }) => {
            assert_eq!(t, target);
            assert_eq!(requested, 0.5);
            assert!(remaining < 1e-9);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

#[test]
fn rejected_mutation_batches_roll_back_at_scale() {
    let service = wiki_service(Some(2));
    let base = service.shared_graph();
    let (u, v) = base.edges().next().expect("preset has edges");
    let fresh = base.nodes().find(|&w| w != u && !base.has_edge(u, w)).unwrap();

    // Insert-a-duplicate fails at index 1; the valid index-0 insert must
    // be rolled back with it.
    let err = service
        .apply_mutations(&[EdgeMutation::insert(u, fresh), EdgeMutation::insert(u, v)])
        .unwrap_err();
    match err {
        psr_core::serving::MutationError::Rejected { index, mutation, .. } => {
            assert_eq!(index, 1);
            assert_eq!(mutation.op, MutationOp::Insert);
        }
    }
    assert_eq!(service.epoch(), 0);
    assert!(!service.pin().has_edge(u, fresh), "partial application leaked");
    // Deleting a missing edge reports the typed graph error too.
    let err = service.apply_mutations(&[EdgeMutation::delete(u, fresh)]).unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");
}

#[test]
fn pinned_batches_drain_bit_identically_while_epochs_advance() {
    // The RCU acceptance check: batches pinned to epoch 0 keep
    // completing — bit-identically — while a concurrent writer stages
    // epoch after epoch through `apply_mutations`, and the pin still
    // reads the old graph after every swap. Reads never stall and never
    // see a half-applied epoch.
    let (graph, _) = wiki_vote_like(PresetConfig::scaled(0.05, 2011)).unwrap();
    let service = RecommendationService::new(
        graph,
        Box::new(CommonNeighbors),
        ServiceConfig {
            budget_per_target: f64::INFINITY, // isolate reads from admission
            threads: Some(2),
            ..Default::default()
        },
    );
    let requests: Vec<BatchRequest> = batch_for(&service, 2).into_iter().take(48).collect();
    let schedule: Vec<Vec<EdgeMutation>> = {
        let base = service.shared_graph();
        let mut rng = rng_from_seed(77);
        edge_stream(&base, StreamParams { events: 24, insert_fraction: 0.6 }, &mut rng)
            .chunks(4)
            .map(|chunk| chunk.iter().map(|e| e.mutation).collect())
            .collect()
    };
    let net_edges: i64 =
        schedule.iter().flatten().map(|m| if m.op == MutationOp::Insert { 1 } else { -1 }).sum();
    let base_edges = service.pin().num_edges();

    let pin = service.pin();
    assert_eq!(pin.version(), 0);
    let baseline = service.serve_batch_pinned(&pin, &requests, 7);

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for batch in &schedule {
                service.apply_mutations(batch).unwrap();
            }
        });
        // Drain pinned batches while the writer stages epochs; at least
        // one drain runs, and every one is bit-identical to the
        // pre-mutation baseline.
        let mut drains = 0usize;
        loop {
            assert_eq!(
                service.serve_batch_pinned(&pin, &requests, 7),
                baseline,
                "drain #{drains} diverged while epochs advanced"
            );
            drains += 1;
            if writer.is_finished() {
                break;
            }
        }
        assert!(drains >= 1);
        writer.join().unwrap();
    });

    assert_eq!(service.epoch(), schedule.len() as u64, "the writer advanced every epoch");
    assert_eq!(pin.version(), 0, "the pin stays on the epoch it captured");
    assert_eq!(
        service.serve_batch_pinned(&pin, &requests, 7),
        baseline,
        "a pin outlives the swap: old-epoch reads stay bit-identical"
    );
    // The pin still sees the original edge set; the current epoch sees
    // the mutated one.
    assert_eq!(pin.num_edges(), base_edges);
    let current = service.pin();
    assert_eq!(current.version(), schedule.len() as u64);
    assert_eq!(current.num_edges() as i64, base_edges as i64 + net_edges);
}
