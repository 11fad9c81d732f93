//! Dynamic-graph benches: what the `DeltaGraph` overlay costs on reads,
//! and what the epoch model saves on re-serving.
//!
//! Headline (printed once, asserted): on a 10k-node Barabási–Albert
//! graph, applying a mutation batch and re-serving *only the dirty
//! targets* must beat rebuilding the CSR from scratch and re-serving
//! every target — the quantitative case for `apply_mutations` over
//! rebuild-the-world.

#![allow(missing_docs)] // `criterion_main!` expands an undocumented `fn main`
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use psr_bench::{ba_graph_10k, BA_NODES as NODES, BENCH_SEED};
use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_gen::{edge_stream, rng_from_seed, StreamParams};
use psr_graph::{DeltaGraph, EdgeMutation, Graph, GraphView};
use psr_utility::CommonNeighbors;

/// The 10k-node BA base every mutation bench runs against (shared with
/// the serving engine comparison — see `psr_bench::ba_graph_10k`).
fn ba_base() -> Graph {
    ba_graph_10k()
}

/// A valid mutation batch over `base` (edge-stream events, timestamps
/// dropped), plus its inverse for restoring state between iterations.
fn mutation_batch(base: &Graph, events: usize) -> (Vec<EdgeMutation>, Vec<EdgeMutation>) {
    let mut rng = rng_from_seed(BENCH_SEED + 1);
    let stream = edge_stream(base, StreamParams { events, insert_fraction: 0.6 }, &mut rng);
    let forward: Vec<EdgeMutation> = stream.iter().map(|e| e.mutation).collect();
    let inverse: Vec<EdgeMutation> = forward.iter().rev().map(|m| m.inverse()).collect();
    (forward, inverse)
}

fn service_over(graph: impl Into<Arc<Graph>>) -> RecommendationService {
    let graph: Arc<Graph> = graph.into();
    RecommendationService::builder(graph, Arc::new(CommonNeighbors))
        // Unbounded budget: throughput measurement, not policy.
        .config(ServiceConfig {
            budget_per_target: f64::INFINITY,
            threads: Some(4),
            ..Default::default()
        })
        .build()
}

fn requests_for(targets: impl Iterator<Item = u32>) -> Vec<BatchRequest> {
    targets.map(|target| BatchRequest { target, k: 2 }).collect()
}

/// Full adjacency scan — the read pattern of every link-analysis kernel.
fn scan<V: GraphView + ?Sized>(view: &V) -> u64 {
    let mut acc = 0u64;
    for v in view.nodes() {
        for &w in view.neighbors(v) {
            acc = acc.wrapping_add(w as u64);
        }
    }
    acc
}

/// Overlay read overhead: the same full-adjacency scan through the raw
/// CSR, a clean overlay (one map probe per node) and a dirty overlay
/// (materialised merged lists on dirty nodes).
fn mutation_overlay_read(c: &mut Criterion) {
    let base = Arc::new(ba_base());
    let clean = DeltaGraph::new(Arc::clone(&base));
    let mut dirty = DeltaGraph::new(Arc::clone(&base));
    let (forward, _) = mutation_batch(&base, 500);
    for m in &forward {
        dirty.apply(m).expect("stream mutations apply cleanly");
    }
    println!(
        "[mutation] overlay after 500 events: {} dirty nodes of {} ({} inserts, {} tombstones)",
        dirty.num_dirty(),
        NODES,
        dirty.pending_insertions(),
        dirty.pending_deletions(),
    );

    let mut group = c.benchmark_group("mutation_overlay_read");
    group.sample_size(10);
    group.bench_function("csr_scan", |b| b.iter(|| black_box(scan(base.as_ref()))));
    group.bench_function("overlay_clean_scan", |b| b.iter(|| black_box(scan(&clean))));
    group.bench_function("overlay_dirty_scan", |b| b.iter(|| black_box(scan(&dirty))));
    group.finish();
}

/// Incremental re-serve vs full rebuild, after one mutation batch.
fn mutation_reserve(c: &mut Criterion) {
    let base = Arc::new(ba_base());
    let all_requests = requests_for(base.nodes().filter(|&v| base.degree(v) > 0));
    let (forward, inverse) = mutation_batch(&base, 50);

    // Headline comparison, one shot, outside the sampler. Warm the cache
    // the way a long-running service would be warm.
    let service = service_over(Arc::clone(&base));
    let warm = service.serve_batch(&all_requests, BENCH_SEED);
    assert!(warm.iter().all(Result::is_ok));

    let start = Instant::now();
    let epoch = service.apply_mutations(&forward).expect("valid batch");
    let dirty_requests = requests_for(epoch.dirty_targets.iter());
    let incremental_outcomes = service.serve_batch(&dirty_requests, BENCH_SEED);
    let incremental = start.elapsed();

    let start = Instant::now();
    let rebuilt = service.snapshot(); // full CSR rebuild of the mutated edge set
    let rebuilt_service = service_over(rebuilt);
    let full_outcomes = rebuilt_service.serve_batch(&all_requests, BENCH_SEED);
    let full_rebuild = start.elapsed();

    assert!(incremental_outcomes.iter().all(Result::is_ok));
    assert!(full_outcomes.iter().all(Result::is_ok));
    println!(
        "[mutation] 50-event batch on {NODES}-node BA: incremental (apply + re-serve {} dirty) \
         {:.1} ms vs full rebuild + re-serve {} {:.1} ms ({:.1}x)",
        dirty_requests.len(),
        incremental.as_secs_f64() * 1e3,
        all_requests.len(),
        full_rebuild.as_secs_f64() * 1e3,
        full_rebuild.as_secs_f64() / incremental.as_secs_f64(),
    );
    assert!(
        incremental < full_rebuild,
        "incremental re-serve ({incremental:?}) must beat full rebuild ({full_rebuild:?})"
    );
    // Restore the pre-mutation edge set so the sampled closures below
    // start from the same state every iteration.
    service.apply_mutations(&inverse).expect("inverse batch");

    // Sampled versions. The incremental closure restores the edge set by
    // applying the inverse batch, so every iteration sees the same state.
    let mut group = c.benchmark_group("mutation_reserve");
    group.sample_size(10);
    group.bench_function("incremental_dirty_targets", |b| {
        b.iter(|| {
            let epoch = service.apply_mutations(&forward).expect("valid batch");
            let dirty_requests = requests_for(epoch.dirty_targets.iter());
            let outcomes = service.serve_batch(&dirty_requests, BENCH_SEED);
            service.apply_mutations(&inverse).expect("inverse batch");
            black_box(outcomes.len())
        });
    });
    group.bench_function("full_rebuild_all_targets", |b| {
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        for m in &forward {
            delta.apply(m).expect("valid batch");
        }
        b.iter(|| {
            let rebuilt_service = service_over(delta.compact());
            black_box(rebuilt_service.serve_batch(&all_requests, BENCH_SEED).len())
        });
    });
    group.finish();
}

criterion_group!(benches, mutation_overlay_read, mutation_reserve);
criterion_main!(benches);
