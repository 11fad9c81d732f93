//! `psr claims` — re-derive the §7.2 headline claims from fresh runs.

use psr_core::figures::{fig1a, fig1b, FigureConfig};
use psr_core::report::headline_claims;
use psr_core::AccuracyCdf;
use psr_core::{run_experiment, ExperimentConfig};
use psr_datasets::{twitter_like, wiki_vote_like, PresetConfig};
use psr_utility::CommonNeighbors;

use crate::args::Options;

pub fn run(opts: &Options) -> Result<(), String> {
    let cfg = FigureConfig {
        scale: opts.scale,
        seed: opts.run.seed,
        eval_laplace: false,
        laplace_trials: opts.trials,
        threads: opts.run.threads,
    };

    println!("=== §7.2 headline claims, re-derived (scale {}) ===\n", opts.scale);

    println!("--- Wikipedia-vote-like, common neighbours ---");
    let wiki = fig1a(&cfg);
    for s in wiki.series.iter().filter(|s| s.label.starts_with("Exponential")) {
        let below_01 = s.points.iter().find(|p| (p.0 - 0.1).abs() < 1e-9).unwrap().1;
        let below_06 = s.points.iter().find(|p| (p.0 - 0.6).abs() < 1e-9).unwrap().1;
        println!(
            "{}: {:.0}% of nodes ≤ 0.1 accuracy, {:.0}% ≤ 0.6",
            s.label,
            below_01 * 100.0,
            below_06 * 100.0
        );
        println!("  (paper, ε=0.5: 60% ≤ 0.1; ε=1: 45% ≤ 0.1 and 60% ≤ 0.6)");
    }
    for s in wiki.series.iter().filter(|s| s.label.starts_with("Theor")) {
        let below_04 = s.points.iter().find(|p| (p.0 - 0.4).abs() < 1e-9).unwrap().1;
        println!("{}: {:.0}% of nodes necessarily ≤ 0.4 accuracy", s.label, below_04 * 100.0);
        println!("  (paper: ≥50% at ε=0.5, ≥30% at ε=1)");
    }

    println!("\n--- Twitter-like, common neighbours ---");
    let twitter = fig1b(&cfg);
    for s in &twitter.series {
        let below_01 = s.points.iter().find(|p| (p.0 - 0.1).abs() < 1e-9).unwrap().1;
        let below_03 = s.points.iter().find(|p| (p.0 - 0.3).abs() < 1e-9).unwrap().1;
        println!(
            "{}: {:.0}% of nodes ≤ 0.1 accuracy, {:.0}% ≤ 0.3",
            s.label,
            below_01 * 100.0,
            below_03 * 100.0
        );
    }
    println!("  (paper: 98% ≤ 0.01 at ε=1; 95% ≤ 0.1 and 79% ≤ 0.3 at ε=3)");

    println!("\n--- full threshold tables ---");
    let (graph, _) = wiki_vote_like(PresetConfig::scaled(opts.scale, opts.run.seed)).unwrap();
    for eps in [0.5, 1.0] {
        let result = run_experiment(
            &graph,
            &CommonNeighbors,
            &ExperimentConfig {
                epsilon: eps,
                eval_laplace: false,
                seed: opts.run.seed,
                threads: opts.run.threads,
                ..Default::default()
            },
        );
        let cdf = AccuracyCdf::new(result.exponential_accuracies());
        for claim in headline_claims(&format!("wiki ε={eps}"), &cdf) {
            println!("{}", claim.statement);
        }
    }
    let (graph, _) = twitter_like(PresetConfig::scaled(opts.scale, opts.run.seed)).unwrap();
    let result = run_experiment(
        &graph,
        &CommonNeighbors,
        &ExperimentConfig {
            epsilon: 1.0,
            target_fraction: 0.01,
            eval_laplace: false,
            seed: opts.run.seed,
            threads: opts.run.threads,
            ..Default::default()
        },
    );
    let cdf = AccuracyCdf::new(result.exponential_accuracies());
    for claim in headline_claims("twitter ε=1", &cdf) {
        println!("{}", claim.statement);
    }
    println!(
        "\ndropped {} of {} sampled twitter targets (all-zero utility, footnote 10)",
        result.targets_dropped, result.targets_sampled
    );
    Ok(())
}
