//! Invariants that only hold when the crates compose correctly.

use proptest::prelude::*;
use psr_bounds::best_accuracy_bound;
use psr_core::{evaluate_target, ExperimentConfig};
use psr_datasets::toy::karate_club;
use psr_privacy::audit::audit_exact;
use psr_privacy::exponential_probabilities;
use psr_utility::{CandidateSet, CommonNeighbors, SensitivityNorm, UtilityFunction, WeightedPaths};

/// The Corollary-1 ceiling dominates the Exponential mechanism's achieved
/// accuracy for every karate-club target under both paper utilities.
#[test]
fn bound_dominates_mechanism_everywhere() {
    let g = karate_club();
    let config = ExperimentConfig { eval_laplace: false, ..Default::default() };
    let utilities: Vec<Box<dyn UtilityFunction>> =
        vec![Box::new(CommonNeighbors), Box::new(WeightedPaths::paper(0.005))];
    for utility in &utilities {
        let sens = utility.sensitivity(&g).unwrap().value(SensitivityNorm::L1);
        for target in g.nodes() {
            if let Some(e) = evaluate_target(&g, utility.as_ref(), &config, sens, target) {
                assert!(
                    e.accuracy_exponential <= e.accuracy_bound + 0.02,
                    "{}: target {target} exp {} > bound {}",
                    utility.name(),
                    e.accuracy_exponential,
                    e.accuracy_bound
                );
            }
        }
    }
}

/// DP audit through the *entire* pipeline: toggling a random non-target
/// edge of the karate club changes the Exponential mechanism's output
/// distribution by at most e^ε, with ε as configured.
#[test]
fn pipeline_level_dp_audit() {
    let g = karate_club();
    let eps = 0.7;
    let cn = CommonNeighbors;
    let sens = cn.sensitivity(&g).unwrap().value(SensitivityNorm::L1);
    let target = 0u32;
    let candidates = CandidateSet::for_target(&g, target);

    let dist = |graph: &psr_graph::Graph| -> Vec<f64> {
        let u = cn.utilities(graph, target, &candidates);
        let (probs, zero_each) = exponential_probabilities(&u, eps, sens);
        candidates
            .iter()
            .map(|v| match u.nonzero().binary_search_by_key(&v, |&(n, _)| n) {
                Ok(i) => probs[i],
                Err(_) => zero_each,
            })
            .collect()
    };

    let base = dist(&g);
    // Try every non-incident edge toggle among a node sample.
    for a in [2u32, 9, 15, 25, 33] {
        for b in [5u32, 12, 20, 30] {
            if a == b || a == target || b == target {
                continue;
            }
            let mut m = psr_graph::MutableGraph::from(&g);
            m.toggle_edge(a, b).unwrap();
            let flipped = dist(&m.freeze());
            let audit = audit_exact(&base, &flipped, eps, 1e-9);
            assert!(audit.holds, "toggle ({a},{b}): log-ratio {} > ε {eps}", audit.max_log_ratio);
        }
    }
}

/// Exchangeability survives the full stack: relabelling the graph relabels
/// recommendations' *distribution* but not the achieved accuracy.
#[test]
fn accuracy_is_isomorphism_invariant() {
    let g = karate_club();
    // Swap labels of nodes 5 and 20 (neither is the target 0).
    let perm: Vec<u32> = (0..34u32)
        .map(|v| {
            if v == 5 {
                20
            } else if v == 20 {
                5
            } else {
                v
            }
        })
        .collect();
    let edges: Vec<(u32, u32)> =
        g.edges().map(|(u, v)| (perm[u as usize], perm[v as usize])).collect();
    let h = psr_graph::undirected_from_edges(edges).unwrap();

    let config = ExperimentConfig { eval_laplace: false, ..Default::default() };
    let sens = CommonNeighbors.sensitivity(&g).unwrap().l1;
    let a = evaluate_target(&g, &CommonNeighbors, &config, sens, 0).unwrap();
    let b = evaluate_target(&h, &CommonNeighbors, &config, sens, 0).unwrap();
    assert!((a.accuracy_exponential - b.accuracy_exponential).abs() < 1e-12);
    assert!((a.accuracy_bound - b.accuracy_bound).abs() < 1e-12);
    assert_eq!(a.t, b.t);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Accuracy and bound stay in [0, 1] and the bound stays dominant on
    /// random graphs (not just the karate club).
    #[test]
    fn invariants_on_random_graphs(
        edges in prop::collection::vec((0u32..16, 0u32..16), 8..40),
        eps in 0.2f64..3.0,
    ) {
        let edges: Vec<(u32, u32)> =
            edges.into_iter().filter(|(u, v)| u != v).collect();
        prop_assume!(!edges.is_empty());
        let g = psr_graph::GraphBuilder::new(psr_graph::Direction::Undirected)
            .add_edges(edges)
            .with_num_nodes(16)
            .build()
            .unwrap();
        let config = ExperimentConfig { epsilon: eps, eval_laplace: false, ..Default::default() };
        let sens = CommonNeighbors.sensitivity(&g).unwrap().l1;
        for target in g.nodes() {
            if let Some(e) = evaluate_target(&g, &CommonNeighbors, &config, sens, target) {
                prop_assert!((0.0..=1.0).contains(&e.accuracy_exponential));
                prop_assert!((0.0..=1.0).contains(&e.accuracy_bound));
                prop_assert!(e.accuracy_exponential <= e.accuracy_bound + 0.05);
                // The t formula must agree with the bounds-crate free fn.
                let expected_t = psr_bounds::edit_distance::t_common_neighbors(
                    e.u_max as u64,
                    e.degree as u64,
                );
                prop_assert_eq!(e.t, expected_t);
            }
        }
    }

    /// best_accuracy_bound is monotone in ε (more privacy budget can only
    /// raise the ceiling).
    #[test]
    fn bound_monotone_in_eps(
        utilities in prop::collection::vec(1u32..20, 1..8),
        zeros in 10usize..500,
    ) {
        let sparse: Vec<(u32, f64)> = utilities
            .iter()
            .enumerate()
            .map(|(i, &u)| (i as u32, u as f64))
            .collect();
        let u = psr_utility::UtilityVector::from_sparse(sparse, zeros);
        let mut prev = 0.0;
        for eps in [0.1, 0.5, 1.0, 2.0, 4.0] {
            let b = best_accuracy_bound(&u, eps, 5, None).accuracy_bound;
            prop_assert!(b >= prev - 1e-12, "bound shrank: {b} < {prev} at eps {eps}");
            prev = b;
        }
    }
}
