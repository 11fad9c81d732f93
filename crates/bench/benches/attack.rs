//! Attack-subsystem benches: what the inference adversaries cost.
//!
//! Three questions: how does the exact reconstruction adversary's scoring
//! *scale with transcript size* (it is the per-observation likelihood
//! walk, so it should be linear), what throughput the Monte-Carlo
//! harness reaches when trials are fanned *across the worker pool*
//! (the trial loop is embarrassingly parallel; a pool must beat one
//! worker), and what the node-identity game adds on top of the edge game
//! (same engine, bigger hypothesis gap: transcript collection and
//! scoring must stay linear in rounds despite the whole-neighbourhood
//! rewire).

#![allow(missing_docs)] // `criterion_main!` expands an undocumented `fn main`
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use psr_attack::{
    leaking_node_rewire, leaking_secret_edge, Adversary, AttackMechanism, Epochs, GameConfig,
    ReconstructionAdversary, Secret, TwoWorldGame,
};
use psr_bench::BENCH_SEED;
use psr_datasets::toy::karate_club;
use psr_graph::{EdgeMutation, Graph};
use psr_utility::CommonNeighbors;

/// The karate-club scenario every attack bench runs (the acceptance
/// suite's graph, so numbers track the tested path).
fn scenario(rounds: usize, trials: usize, threads: usize) -> TwoWorldGame {
    let graph = Arc::new(karate_club());
    let ((u, v), observers) =
        leaking_secret_edge(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
    let config = GameConfig {
        rounds,
        trials_per_world: trials,
        threads: Some(threads),
        seed: BENCH_SEED,
        mechanism: AttackMechanism::Exponential { epsilon: 0.5 },
        ..GameConfig::new(Secret::Edge(EdgeMutation::insert(u, v)), observers)
    };
    TwoWorldGame::new(Arc::clone(&graph) as Arc<Graph>, Box::new(CommonNeighbors), config)
}

/// Reconstruction scoring vs transcript length: the exact likelihood
/// walk is O(entries), measured at 1×, 4× and 16× rounds.
fn attack_transcript_scaling(c: &mut Criterion) {
    for rounds in [2usize, 8, 32] {
        let s = scenario(rounds, 8, 4);
        let set = s.collect();
        let (w0, w1) = s.world_models();
        c.bench_function(format!("attack_score_reconstruction_rounds_{rounds}"), |b| {
            b.iter(|| {
                black_box(ReconstructionAdversary.score_all(
                    black_box(&set.world1),
                    black_box(w0),
                    black_box(w1),
                ))
            })
        });
    }
}

/// Harness trial collection across the worker pool, 1 vs 4 workers on
/// the same scenario (identical transcripts by construction).
fn attack_harness_throughput(c: &mut Criterion) {
    for threads in [1usize, 4] {
        let s = scenario(4, 16, threads);
        c.bench_function(format!("attack_collect_threads_{threads}"), |b| {
            b.iter(|| black_box(s.collect()))
        });
    }

    // Printed once, asserted: the pool must not *lose* to one worker on
    // a 64-trial collection (scheduling overhead stays sub-linear).
    let single = scenario(4, 64, 1);
    let pooled = scenario(4, 64, 4);
    let t0 = Instant::now();
    let a = single.collect();
    let single_time = t0.elapsed();
    let t1 = Instant::now();
    let b = pooled.collect();
    let pooled_time = t1.elapsed();
    assert_eq!(a, b, "thread count must not change transcripts");
    println!(
        "attack harness, 64 trials/world: 1 worker {single_time:?}, 4 workers {pooled_time:?} \
         ({:.2}x)",
        single_time.as_secs_f64() / pooled_time.as_secs_f64().max(1e-9),
    );
    // Generous 3x allowance: karate trials are sub-millisecond, so on a
    // loaded low-core CI runner spawn/scheduler jitter can dominate; the
    // assert only catches a pool that is *pathologically* slower (a
    // serialisation bug), not ordinary noise.
    assert!(
        pooled_time.as_secs_f64() <= single_time.as_secs_f64() * 3.0,
        "worker pool must not serialise the trial loop: {pooled_time:?} vs {single_time:?}"
    );
}

/// The karate node-identity scenario (the acceptance suite's leaking
/// rewire), statically or across a mid-stream rewire epoch.
fn node_scenario(rounds: usize, trials: usize, epochs: Epochs) -> TwoWorldGame {
    let graph = Arc::new(karate_club());
    let (node, new, observers) =
        leaking_node_rewire(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
    let config = GameConfig {
        rounds,
        trials_per_world: trials,
        threads: Some(4),
        seed: BENCH_SEED,
        mechanism: AttackMechanism::Exponential { epsilon: 0.5 },
        epochs,
        ..GameConfig::new(Secret::Node { node, new_neighbours: new }, observers)
    };
    TwoWorldGame::new(Arc::clone(&graph) as Arc<Graph>, Box::new(CommonNeighbors), config)
}

/// Node-world transcript collection and scoring vs transcript length:
/// the rewire multiplies the hypothesis *gap*, not the per-observation
/// cost, so both must stay linear in rounds like the edge game.
fn node_attack_transcript_scaling(c: &mut Criterion) {
    for rounds in [2usize, 8] {
        let s = node_scenario(rounds, 8, Epochs::Static);
        c.bench_function(format!("node_attack_collect_rounds_{rounds}"), |b| {
            b.iter(|| black_box(s.collect()))
        });
        let set = s.collect();
        let (w0, w1) = s.world_models();
        c.bench_function(format!("node_attack_score_reconstruction_rounds_{rounds}"), |b| {
            b.iter(|| {
                black_box(ReconstructionAdversary.score_all(
                    black_box(&set.world1),
                    black_box(w0),
                    black_box(w1),
                ))
            })
        });
    }

    // The rewire epoch pays the apply_mutations + selective-invalidation
    // path inside every world-1 trial; measure it against static worlds.
    let epoch = node_scenario(4, 8, Epochs::MidStream { prefix_rounds: 1 });
    c.bench_function("node_attack_collect_rewire_epoch", |b| b.iter(|| black_box(epoch.collect())));
}

criterion_group!(
    attack_benches,
    attack_transcript_scaling,
    attack_harness_throughput,
    node_attack_transcript_scaling
);
criterion_main!(attack_benches);
