//! Batch serving under a privacy budget — the paper's mechanisms as a
//! production surface.
//!
//! A platform rarely answers one recommendation ever: members come back,
//! and every answer spends privacy. This example stands up a
//! `RecommendationService` over a Wikipedia-vote-scale graph shared via
//! `Arc`, serves a mixed batch of `(target, k)` requests across the
//! worker pool, then keeps re-querying one member until the per-target
//! ε budget runs out and the service starts refusing with a typed error.
//!
//! Run with `cargo run --release --example batch_serving`.

use std::sync::Arc;

use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_datasets::{wiki_vote_like, PresetConfig};
use psr_utility::CommonNeighbors;

fn main() {
    let scale = std::env::var("PSR_SCALE").map_or(0.25, |s| s.parse().expect("numeric scale"));
    let (graph, meta) = wiki_vote_like(PresetConfig::scaled(scale, 2011)).unwrap();
    println!("{}\n", meta.summary());

    let graph = Arc::new(graph);
    let service = RecommendationService::builder(Arc::clone(&graph), Arc::new(CommonNeighbors))
        .config(ServiceConfig {
            epsilon_per_request: 1.0,
            budget_per_target: 3.0,
            ..Default::default()
        })
        .build();

    // A burst of requests: ten members, growing slot counts, one duplicate.
    let mut requests: Vec<BatchRequest> = graph
        .nodes()
        .filter(|&v| graph.degree(v) > 0)
        .take(10)
        .enumerate()
        .map(|(i, target)| BatchRequest { target, k: 1 + i % 3 })
        .collect();
    requests.push(requests[0]); // the first member asks again

    println!("batch of {} requests (ε = 1 each, budget 3 per member):", requests.len());
    for (request, outcome) in requests.iter().zip(service.serve_batch(&requests, 42)) {
        match outcome {
            Ok(served) => println!(
                "  member {:>5} k={}: {:?}{} (utility {:.0}, ε left {:.0})",
                request.target,
                request.k,
                served.recommendations,
                if served.zero_class_picks > 0 {
                    format!(" [{} cold-start pick(s)]", served.zero_class_picks)
                } else {
                    String::new()
                },
                served.total_utility,
                service.remaining_budget(request.target),
            ),
            Err(error) => {
                println!("  member {:>5} k={}: REFUSED — {error}", request.target, request.k)
            }
        }
    }

    // Keep asking for the first member until the accountant says no.
    let hot = requests[0].target;
    println!("\nmember {hot} keeps asking (budget 3, already spent 2):");
    for round in 0..3 {
        match service.serve_one(hot, 1, 1000 + round) {
            Ok(served) => println!(
                "  round {round}: {:?}, ε remaining {:.0}",
                served.recommendations,
                service.remaining_budget(hot)
            ),
            Err(error) => println!("  round {round}: REFUSED — {error}"),
        }
    }
    println!(
        "\nthe refusal is the feature: past the budget, any further answer would\n\
         break the ε-DP guarantee the mechanisms were calibrated for (App. A)."
    );
}
