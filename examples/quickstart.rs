//! Quickstart: serve one differentially private friend suggestion.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;

use psr_core::{RecommendationService, ServiceConfig};
use psr_datasets::toy::karate_club;
use psr_privacy::Mechanism;
use psr_utility::{CommonNeighbors, UtilityFunction};

fn main() {
    let graph = karate_club();
    println!(
        "Zachary's karate club: {} members, {} friendships\n",
        graph.num_nodes(),
        graph.num_edges()
    );

    // The paper's pipeline: graph → utility function → DP mechanism.
    let epsilon = 1.0;
    let mechanism = Mechanism::Exponential;
    let service = RecommendationService::builder(graph.clone(), Arc::new(CommonNeighbors))
        .config(ServiceConfig { mechanism, epsilon_per_request: epsilon, ..Default::default() })
        .build();

    let target = 0u32; // the instructor
    println!("ε = {epsilon} private suggestions for member {target}:");
    for round in 1..=5u64 {
        // Each request is seeded for reproducibility and charged against
        // the member's privacy budget.
        let served = service.serve_one(target, 1, 2011 + round).expect("candidates exist");
        let suggestion = served.recommendations[0];
        let utility = CommonNeighbors.utilities_for(&graph, target).get(suggestion);
        println!(
            "  round {round}: member {suggestion:2} (shares {utility} friends; ε left {})",
            service.remaining_budget(target)
        );
    }

    // How much accuracy does privacy cost here? Compare the mechanism's
    // expected accuracy against the best any ε-DP algorithm could do
    // (Corollary 1 of the paper).
    let u = CommonNeighbors.utilities_for(&graph, target);
    let t = CommonNeighbors.edit_distance_t(&graph, target, &u).unwrap();
    let achieved = mechanism.expected_accuracy(&u, epsilon, service.sensitivity());
    let ceiling = psr_bounds::best_accuracy_bound(&u, epsilon, t, None);
    println!(
        "\nexpected accuracy {:.3} vs theoretical ceiling {:.3} (t = {t}, k = {}, c = {:.2})",
        achieved, ceiling.accuracy_bound, ceiling.k, ceiling.c
    );
    println!(
        "the non-private optimum would always return a node with {} shared friends",
        u.u_max()
    );
}
