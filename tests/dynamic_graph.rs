//! Differential conformance of the dynamic-graph subsystem, end to end.
//!
//! The epoch model's whole correctness story is one sentence: *a
//! `DeltaGraph` at edge set `E` is indistinguishable from a CSR rebuilt
//! from scratch at `E`* — through raw reads, through every bundled
//! utility function, and through full serving outcomes (which layer RNG
//! streams, caching and ε budgets on top). These suites drive random
//! edge-mutation streams (psr-gen) over random Barabási–Albert,
//! Erdős–Rényi and Watts–Strogatz bases, in both directions where the
//! generator supports them, and assert bit-identity everywhere.
//!
//! Each property test runs its configured case count *per generator
//! configuration* (five: BA/ER × directed/undirected, WS undirected), so
//! one full run covers `5 × cases` random edit sequences. The serving
//! comparison also cross-checks [`Epoch::dirty_targets`]: every target
//! whose utility state actually changed must be declared dirty
//! (soundness of the invalidation-radius optimisation), and checks it
//! exactly against a dense-BFS oracle on undirected graphs.

use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;
use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_gen::{
    ba_directed, ba_undirected, edge_stream, gnm, rng_from_seed, split_seed, watts_strogatz,
    BaParams, StreamParams,
};
use psr_graph::algo::common_neighbor_counts;
use psr_graph::{DeltaGraph, Direction, EdgeMutation, Graph, GraphView, MutableGraph, NodeId};
use psr_utility::{
    extra::{AdamicAdar, Jaccard, PreferentialAttachment},
    CandidateSet, CommonNeighbors, PersonalizedPageRank, UtilityFunction, WeightedPaths,
};

const N: usize = 48;

/// The generator matrix: all three families, both directions where the
/// family supports them (Watts–Strogatz lattices are undirected).
const CONFIGS: [(&str, u8); 5] =
    [("ba-undirected", 0), ("ba-directed", 1), ("er-undirected", 2), ("er-directed", 3), ("ws", 4)];

fn generate_base(kind: u8, seed: u64) -> Graph {
    let mut rng = rng_from_seed(split_seed(seed, kind as u64));
    match kind {
        0 => ba_undirected(BaParams { n: N, target_edges: 2 * N }, &mut rng).unwrap(),
        1 => ba_directed(BaParams { n: N, target_edges: 2 * N }, &mut rng).unwrap(),
        2 => gnm(N, 2 * N, Direction::Undirected, &mut rng).unwrap(),
        3 => gnm(N, 2 * N, Direction::Directed, &mut rng).unwrap(),
        4 => watts_strogatz(N, 4, 0.2, &mut rng).unwrap(),
        other => unreachable!("unknown generator kind {other}"),
    }
}

/// Base + mutation batch + independently rebuilt CSR at the mutated edge
/// set (via the reference `MutableGraph`, *not* `DeltaGraph::compact`).
fn mutated_pair(kind: u8, seed: u64, events: usize) -> (Graph, Vec<EdgeMutation>, Graph) {
    let base = generate_base(kind, seed);
    let mut rng = rng_from_seed(split_seed(seed, 100 + kind as u64));
    let stream = edge_stream(&base, StreamParams { events, insert_fraction: 0.6 }, &mut rng);
    let mutations: Vec<EdgeMutation> = stream.iter().map(|e| e.mutation).collect();
    let mut reference = MutableGraph::from(&base);
    for m in &mutations {
        match m.op {
            psr_graph::MutationOp::Insert => reference.add_edge(m.u, m.v).unwrap(),
            psr_graph::MutationOp::Delete => reference.remove_edge(m.u, m.v).unwrap(),
        }
    }
    (base, mutations, reference.freeze())
}

/// All six bundled utility functions.
fn bundled_utilities() -> Vec<Box<dyn UtilityFunction>> {
    vec![
        Box::new(CommonNeighbors),
        Box::new(WeightedPaths::paper(0.05)),
        Box::new(PersonalizedPageRank::default()),
        Box::new(AdamicAdar),
        Box::new(Jaccard),
        Box::new(PreferentialAttachment),
    ]
}

/// Dense-BFS oracle for an undirected epoch's dirty set: every node
/// within `radius` hops of a mutated endpoint in the pre- or
/// post-mutation graph, found with length-n distance arrays.
fn dense_ball(graphs: [&Graph; 2], mutations: &[EdgeMutation], radius: usize) -> Vec<NodeId> {
    let n = graphs[0].num_nodes();
    let mut marked = vec![false; n];
    for graph in graphs {
        let mut dist = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        for s in mutations.iter().flat_map(|m| [m.u as usize, m.v as usize]) {
            if dist[s] == usize::MAX {
                dist[s] = 0;
                marked[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            if dist[v] >= radius {
                continue;
            }
            for &w in graph.neighbors(v as NodeId) {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = dist[v] + 1;
                    marked[w as usize] = true;
                    queue.push_back(w as usize);
                }
            }
        }
    }
    (0..n as NodeId).filter(|&v| marked[v as usize]).collect()
}

/// A deterministic spread of request targets.
fn request_targets() -> Vec<u32> {
    (0..N as u32).step_by(5).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reads, kernels and every bundled utility agree between the
    /// overlay and the rebuilt CSR, for every generator configuration.
    #[test]
    fn overlay_matches_rebuild_for_reads_and_utilities(
        seed in 0u64..1_000_000,
        events in 10usize..40,
    ) {
        for (name, kind) in CONFIGS {
            let (base, mutations, rebuilt) = mutated_pair(kind, seed, events);
            let mut delta = DeltaGraph::new(base);
            for m in &mutations {
                delta.apply(m).unwrap();
            }

            prop_assert_eq!(delta.num_edges(), rebuilt.num_edges(), "{}", name);
            for v in rebuilt.nodes() {
                prop_assert_eq!(
                    GraphView::neighbors(&delta, v), rebuilt.neighbors(v),
                    "{} neighbors({})", name, v
                );
                prop_assert_eq!(
                    common_neighbor_counts(&delta, v),
                    common_neighbor_counts(&rebuilt, v),
                    "{} C(., {})", name, v
                );
            }
            prop_assert_eq!(delta.compact(), rebuilt.clone(), "{} compaction", name);

            for utility in bundled_utilities() {
                for target in rebuilt.nodes() {
                    prop_assert_eq!(
                        CandidateSet::for_target(&delta, target),
                        CandidateSet::for_target(&rebuilt, target),
                        "{} candidates of {}", name, target
                    );
                    prop_assert_eq!(
                        utility.utilities_for(&delta, target),
                        utility.utilities_for(&rebuilt, target),
                        "{} {} utilities of {}", name, utility.name(), target
                    );
                }
            }
        }
    }

    /// Full serving outcomes — RNG streams, caches, budgets included —
    /// agree between a mutated service (warm caches, selective
    /// invalidation) and a fresh service over the rebuilt CSR; and the
    /// epoch's dirty set covers every target whose state truly changed.
    #[test]
    fn serving_outcomes_match_rebuild_after_mutations(
        seed in 0u64..1_000_000,
        events in 10usize..30,
    ) {
        let requests: Vec<BatchRequest> =
            request_targets().into_iter().map(|target| BatchRequest { target, k: 2 }).collect();
        let config = ServiceConfig {
            budget_per_target: f64::INFINITY,
            threads: Some(2),
            ..Default::default()
        };

        for (name, kind) in CONFIGS {
            let (base, mutations, rebuilt) = mutated_pair(kind, seed, events);
            let base = Arc::new(base);

            // Every bounded-invalidation-radius utility is probed, so
            // each declared radius (CN/AA: 1, WP: max_len−1, Jaccard: 2)
            // has its soundness cross-checked below.
            for utility_kind in 0..4u8 {
                let make_utility = || -> Box<dyn UtilityFunction> {
                    match utility_kind {
                        0 => Box::new(CommonNeighbors),
                        1 => Box::new(WeightedPaths::paper(0.05)),
                        2 => Box::new(AdamicAdar),
                        _ => Box::new(Jaccard),
                    }
                };

                let mutated = RecommendationService::new(
                    Arc::clone(&base), make_utility(), config,
                );
                // Warm every request target's cache pre-mutation, so the
                // comparison exercises selective invalidation rather than
                // a cold recompute.
                let _ = mutated.serve_batch(&requests, split_seed(seed, 7));
                let epoch = mutated.apply_mutations(&mutations).unwrap();
                prop_assert_eq!(epoch.version, 1, "{}", name);
                if base.is_directed() {
                    // No reverse index: a directed epoch dirties everyone.
                    prop_assert_eq!(epoch.dirty_targets.len(), base.num_nodes(), "{}", name);
                }

                // Soundness of the dirty set: any target whose candidate
                // set or utility vector changed must be declared dirty.
                let probe = make_utility();
                for target in rebuilt.nodes() {
                    let changed = CandidateSet::for_target(base.as_ref(), target)
                        != CandidateSet::for_target(&rebuilt, target)
                        || probe.utilities_for(base.as_ref(), target)
                            != probe.utilities_for(&rebuilt, target);
                    if changed {
                        prop_assert!(
                            epoch.dirty_targets.contains(target),
                            "{} {}: target {} changed but was not dirtied",
                            name, probe.name(), target
                        );
                    }
                }

                let fresh = RecommendationService::new(
                    rebuilt.clone(), make_utility(), config,
                );
                prop_assert_eq!(
                    mutated.sensitivity(), fresh.sensitivity(),
                    "{} recalibrated sensitivity", name
                );
                let serve_seed = split_seed(seed, 11);
                prop_assert_eq!(
                    mutated.serve_batch(&requests, serve_seed),
                    fresh.serve_batch(&requests, serve_seed),
                    "{} {} serving outcomes", name, probe.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On undirected graphs an epoch's dirty set is exactly the mutation
    /// ball over the old and new edge sets, at radius 1 (common
    /// neighbours) and 2 (Jaccard): the serving layer's ball search
    /// agrees with a dense BFS kept here as the oracle.
    #[test]
    fn undirected_dirty_sets_equal_the_dense_bfs_ball(
        seed in 0u64..1_000_000,
        events in 1usize..30,
    ) {
        for (name, kind) in CONFIGS {
            let (base, mutations, rebuilt) = mutated_pair(kind, seed, events);
            if base.is_directed() {
                continue;
            }
            let base = Arc::new(base);
            let radii: [(usize, Box<dyn UtilityFunction>); 2] =
                [(1, Box::new(CommonNeighbors)), (2, Box::new(Jaccard))];
            for (radius, utility) in radii {
                prop_assert_eq!(utility.invalidation_radius(), Some(radius));
                let service =
                    RecommendationService::new(Arc::clone(&base), utility, ServiceConfig::default());
                let epoch = service.apply_mutations(&mutations).unwrap();
                prop_assert_eq!(
                    epoch.dirty_targets.iter().collect::<Vec<_>>(),
                    dense_ball([base.as_ref(), &rebuilt], &mutations, radius),
                    "{} radius {}", name, radius
                );
            }
        }
    }
}

/// The five generator configurations really produce what the matrix
/// promises (guards the conformance suites' coverage claim).
#[test]
fn generator_matrix_covers_three_families_and_both_directions() {
    let mut directed = 0;
    for (name, kind) in CONFIGS {
        let g = generate_base(kind, 42);
        assert_eq!(g.num_nodes(), N, "{name}");
        assert!(g.num_edges() > N / 2, "{name} too sparse to exercise anything");
        if g.is_directed() {
            directed += 1;
        }
        // And streams over it replay cleanly.
        let mut rng = rng_from_seed(1);
        let stream = edge_stream(&g, StreamParams::default(), &mut rng);
        let mut delta = DeltaGraph::new(g);
        for event in &stream {
            delta.apply(&event.mutation).unwrap();
        }
    }
    assert_eq!(directed, 2, "BA and ER must contribute directed cases");
}
