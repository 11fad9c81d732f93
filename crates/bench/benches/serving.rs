//! Serving-path throughput: the batched `RecommendationService` worker
//! pool against a sequential loop of single requests
//! (`RecommendationService::serve_one`), on the Wikipedia-vote-scale
//! preset. The printed comparison is the headline: answering one batch
//! through the pool must beat looping `serve_one` over the same requests.
//!
//! A second headline races the two top-k engines — the one-pass
//! Gumbel-max sampler against the k-round exponential peel it replaces —
//! on the 10k-node Barabási–Albert preset, asserting the Gumbel engine
//! wins at k ≥ 5 where the peel's O(k·|C|) rescans dominate.

#![allow(missing_docs)] // the bench entry point is an undocumented `fn main`
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use psr_bench::{ba_graph_10k, wiki_graph, BENCH_SEED};
use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_privacy::TopKEngine;
use psr_utility::CommonNeighbors;

/// A deterministic request batch: every connected node asks for `k`
/// recommendations, capped at `max_requests` targets.
fn batch(graph: &psr_graph::Graph, k: usize, max_requests: usize) -> Vec<BatchRequest> {
    graph
        .nodes()
        .filter(|&v| graph.degree(v) > 0)
        .take(max_requests)
        .map(|target| BatchRequest { target, k })
        .collect()
}

fn service_over(graph: &Arc<psr_graph::Graph>) -> RecommendationService {
    engine_service_over(graph, TopKEngine::default())
}

fn engine_service_over(graph: &Arc<psr_graph::Graph>, engine: TopKEngine) -> RecommendationService {
    RecommendationService::builder(Arc::clone(graph), Arc::new(CommonNeighbors))
        // Unbounded budget: throughput measurement, not policy.
        .config(ServiceConfig { budget_per_target: f64::INFINITY, engine, ..Default::default() })
        .build()
}

/// Runs the sequential baseline once: one `serve_one` call per request.
fn run_sequential(service: &RecommendationService, requests: &[BatchRequest]) -> usize {
    let mut answered = 0;
    for (i, request) in requests.iter().enumerate() {
        if let Ok(served) = service.serve_one(request.target, request.k, BENCH_SEED + i as u64) {
            answered += served.recommendations.len();
        }
    }
    answered
}

fn serving_throughput(c: &mut Criterion) {
    let graph = Arc::new(wiki_graph());
    let service = service_over(&graph);

    for k in [1usize, 5] {
        let requests = batch(&graph, k, 192);

        // Headline comparison, printed once per k outside the sampler.
        // Both sides share the service's per-target cache, so warm it
        // first: the comparison is then pool vs sequential, not cold vs
        // warm.
        let _ = service.serve_batch(&requests, BENCH_SEED);
        let start = Instant::now();
        let served = service.serve_batch(&requests, BENCH_SEED);
        let batch_time = start.elapsed();
        let start = Instant::now();
        let answered = run_sequential(&service, &requests);
        let sequential_time = start.elapsed();
        assert!(served.iter().all(Result::is_ok));
        println!(
            "[serving] k={k}: batch pool {:.1} ms vs sequential loop {:.1} ms \
             ({:.2}x, {} slots answered)",
            batch_time.as_secs_f64() * 1e3,
            sequential_time.as_secs_f64() * 1e3,
            sequential_time.as_secs_f64() / batch_time.as_secs_f64(),
            answered,
        );

        let mut group = c.benchmark_group(format!("serving_k{k}"));
        group.sample_size(10);
        group.bench_function("batch_pool", |b| {
            b.iter(|| service.serve_batch(&requests, BENCH_SEED));
        });
        group.bench_function("sequential_recommender", |b| {
            b.iter(|| run_sequential(&service, &requests));
        });
        group.finish();
    }
}

/// The in-place top-k peel as the service drives it, isolated from pool
/// overheads: one hot target, growing k.
fn serving_topk_peel(c: &mut Criterion) {
    let graph = Arc::new(wiki_graph());
    let service = engine_service_over(&graph, TopKEngine::Peel);
    let target = psr_bench::median_target(&graph);
    let mut group = c.benchmark_group("serving_topk_peel");
    for k in [1usize, 8, 32] {
        group.bench_function(format!("k{k}"), |b| {
            let requests = [BatchRequest { target, k }];
            b.iter(|| service.serve_batch(&requests, BENCH_SEED));
        });
    }
    group.finish();
}

/// Same shape through the one-pass Gumbel-max engine, for side-by-side
/// ids in the committed snapshot.
fn serving_topk_gumbel(c: &mut Criterion) {
    let graph = Arc::new(wiki_graph());
    let service = engine_service_over(&graph, TopKEngine::Gumbel);
    let target = psr_bench::median_target(&graph);
    let mut group = c.benchmark_group("serving_topk_gumbel");
    for k in [1usize, 8, 32] {
        group.bench_function(format!("k{k}"), |b| {
            let requests = [BatchRequest { target, k }];
            b.iter(|| service.serve_batch(&requests, BENCH_SEED));
        });
    }
    group.finish();
}

/// Gumbel vs peel on the 10k-node BA preset. Headline (printed, asserted):
/// at k ≥ 5 the one-pass engine must beat the k-round peel on the same
/// request batch — the quantitative case for switching the default.
fn serving_engines_ba10k(c: &mut Criterion) {
    let graph = Arc::new(ba_graph_10k());
    let peel = engine_service_over(&graph, TopKEngine::Peel);
    let gumbel = engine_service_over(&graph, TopKEngine::Gumbel);
    let requests = batch(&graph, 5, 512);

    // Best of 3 per engine, outside the sampler: one warm-up batch each,
    // then the fastest timed run.
    let mut peel_time = std::time::Duration::MAX;
    let mut gumbel_time = std::time::Duration::MAX;
    assert!(peel.serve_batch(&requests, BENCH_SEED).iter().all(Result::is_ok));
    assert!(gumbel.serve_batch(&requests, BENCH_SEED).iter().all(Result::is_ok));
    for _ in 0..3 {
        let start = Instant::now();
        let outcomes = peel.serve_batch(&requests, BENCH_SEED);
        peel_time = peel_time.min(start.elapsed());
        assert!(outcomes.iter().all(Result::is_ok));
        let start = Instant::now();
        let outcomes = gumbel.serve_batch(&requests, BENCH_SEED);
        gumbel_time = gumbel_time.min(start.elapsed());
        assert!(outcomes.iter().all(Result::is_ok));
    }
    println!(
        "[serving] BA-10k, {} requests at k=5: gumbel {:.2} ms vs peel {:.2} ms ({:.2}x)",
        requests.len(),
        gumbel_time.as_secs_f64() * 1e3,
        peel_time.as_secs_f64() * 1e3,
        peel_time.as_secs_f64() / gumbel_time.as_secs_f64(),
    );
    assert!(
        gumbel_time <= peel_time,
        "one-pass gumbel ({gumbel_time:?}) must beat the k-round peel ({peel_time:?}) at k=5"
    );

    let mut group = c.benchmark_group("serving_engines_ba10k");
    group.sample_size(10);
    group.bench_function("peel_k5", |b| {
        b.iter(|| peel.serve_batch(&requests, BENCH_SEED));
    });
    group.bench_function("gumbel_k5", |b| {
        b.iter(|| gumbel.serve_batch(&requests, BENCH_SEED));
    });
    group.finish();
}

criterion_group!(
    benches,
    serving_throughput,
    serving_topk_peel,
    serving_topk_gumbel,
    serving_engines_ba10k,
);

fn main() {
    benches();
    psr_bench::snapshot::write("serving");
}
