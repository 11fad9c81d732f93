//! `psr recommend` — serve ε-private recommendations, the paper's system
//! as a product: load a graph (SNAP edge list or preset), pick a utility
//! and mechanism, emit suggestions for the requested targets.

use psr_core::{Recommender, RecommenderConfig};
use psr_privacy::{ExponentialMechanism, LaplaceMechanism, Mechanism};
use rand::SeedableRng;

use crate::args::RecommendOptions;

pub fn run(opts: &RecommendOptions) -> Result<(), String> {
    let (backend, ids) = opts.graph.load(opts.run.seed)?;
    let mechanism: Box<dyn Mechanism> = match opts.mechanism.as_str() {
        "exponential" => Box::new(ExponentialMechanism::paper()),
        "laplace" => Box::new(LaplaceMechanism::default()),
        other => unreachable!("arg parser admits only known mechanisms, got {other}"),
    };
    let recommender = Recommender::new(
        backend.to_graph_arc(),
        opts.serving.utility()?,
        mechanism,
        RecommenderConfig { epsilon: opts.serving.epsilon, ..Default::default() },
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.run.seed);
    println!(
        "ε = {} private recommendations ({} / {}):",
        opts.serving.epsilon, opts.serving.utility, opts.mechanism
    );
    for &target in &opts.targets {
        if target as usize >= recommender.graph().num_nodes() {
            println!("  {target:>8}: not a node in this graph");
            continue;
        }
        match recommender.recommend(target, &mut rng) {
            Some(v) => {
                let acc = recommender
                    .expected_accuracy(target, &mut rng)
                    .map_or("n/a".to_owned(), |a| format!("{a:.3}"));
                // Name the pick by its source-file label when one exists.
                let label = super::original_label(ids.as_ref(), v);
                println!("  {target:>8}: recommend {label} (expected accuracy {acc})");
            }
            None => println!("  {target:>8}: no candidates (fully connected target)"),
        }
    }
    Ok(())
}
