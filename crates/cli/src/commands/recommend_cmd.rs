//! `psr recommend` — serve ε-private recommendations, the paper's system
//! as a product: load a graph (SNAP edge list or preset), pick a utility
//! and mechanism, emit one suggestion per requested target. Each target
//! is one request to a [`RecommendationService`].

use std::sync::Arc;

use psr_core::{RecommendationService, ServiceConfig};
use psr_gen::split_seed;
use psr_utility::{CandidateSet, UtilityFunction};

use crate::args::RecommendOptions;

pub fn run(opts: &RecommendOptions) -> Result<(), String> {
    let (backend, ids) = opts.graph.load(opts.run.seed)?;
    let utility: Arc<dyn UtilityFunction> = Arc::from(opts.serving.utility()?);
    let epsilon = opts.serving.epsilon;
    let service = RecommendationService::builder(backend, Arc::clone(&utility))
        .config(ServiceConfig {
            mechanism: opts.mechanism,
            epsilon_per_request: epsilon,
            budget_per_target: f64::INFINITY,
            threads: Some(1),
            ..Default::default()
        })
        .build();
    let pin = service.pin();

    println!("private recommendations ({} / {}):", opts.serving.utility, opts.mechanism.name());
    for (i, &target) in opts.targets.iter().enumerate() {
        // A refusal (unknown target, no candidates) is reported in place.
        let served = match service.serve_one(target, 1, split_seed(opts.run.seed, i as u64)) {
            Ok(served) => served,
            Err(refusal) => {
                println!("  {refusal}");
                continue;
            }
        };
        let candidates = CandidateSet::for_target(&pin, target);
        let u = utility.utilities(&pin, target, &candidates);
        let acc = if u.is_all_zero() {
            "n/a".to_owned()
        } else {
            let acc = opts.mechanism.expected_accuracy(&u, epsilon, pin.sensitivity());
            format!("{acc:.3}")
        };
        // Name the pick by its source-file label when one exists.
        let label = super::original_label(ids.as_ref(), served.recommendations[0]);
        let spent = served.epsilon_spent;
        println!("  {target:>8}: recommend {label} (ε {spent:.3}, expected accuracy {acc})");
    }
    Ok(())
}
