//! Telemetry overhead: the whole point of `psr-obs` is to watch the
//! serving hot path without slowing it down, so the headline (printed,
//! asserted, and gated again on the committed snapshot) is instrumented
//! serving staying within 5% of uninstrumented serving on an identical
//! workload — with bit-identical outcomes, re-checked here because a
//! bench that quietly diverged would be timing two different programs.
//!
//! A second group prices the individual record operations: a live
//! `Counter::inc` and `Histogram::record` are single relaxed atomic
//! RMWs, and the disabled handles must cost practically nothing (one
//! `None` branch) — the zero-cost-when-off contract, as gauges.

#![allow(missing_docs)] // the bench entry point is an undocumented `fn main`
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use psr_bench::{snapshot::record_gauge, wiki_graph, BENCH_SEED};
use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_gen::{request_stream, rng_from_seed, split_seed, RequestStreamParams};
use psr_obs::{MetricsRegistry, Telemetry};
use psr_utility::CommonNeighbors;

/// Unbounded-budget config: overhead measurement, not admission policy.
fn bench_config() -> ServiceConfig {
    ServiceConfig { budget_per_target: f64::INFINITY, threads: Some(2), ..Default::default() }
}

/// The serving workload both arms answer: one large batch drawn from the
/// wiki preset with the shared bench seed.
fn workload(graph: &psr_graph::Graph) -> Vec<BatchRequest> {
    request_stream(
        graph,
        RequestStreamParams { events: 256, k: 5 },
        &mut rng_from_seed(split_seed(BENCH_SEED, 1)),
    )
    .into_iter()
    .map(|event| BatchRequest { target: event.target, k: event.k })
    .collect()
}

/// Instrumented vs uninstrumented serving of the identical batch.
/// Headline: best-of-5 instrumented wall time within 5% of plain —
/// the committed snapshot gate re-checks the same bound on medians.
fn obs_overhead(c: &mut Criterion) {
    let graph = Arc::new(wiki_graph());
    let requests = workload(&graph);

    let plain = RecommendationService::builder(Arc::clone(&graph), Arc::new(CommonNeighbors))
        .config(bench_config())
        .build();
    let telemetry = Telemetry::enabled();
    let instrumented =
        RecommendationService::builder(Arc::clone(&graph), Arc::new(CommonNeighbors))
            .config(bench_config())
            .telemetry(telemetry)
            .build();

    // Warm-up both arms, and hold telemetry to its side-effect-free
    // contract: identical outcomes or the timing comparison is void.
    assert_eq!(
        plain.serve_batch(&requests, BENCH_SEED),
        instrumented.serve_batch(&requests, BENCH_SEED),
        "telemetry must not perturb outcomes"
    );

    let time_arm = |service: &RecommendationService| {
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let start = Instant::now();
            for round in 0..4u64 {
                black_box(service.serve_batch(&requests, BENCH_SEED + round));
            }
            best = best.min(start.elapsed());
        }
        best
    };
    let plain_time = time_arm(&plain);
    let instrumented_time = time_arm(&instrumented);
    let ratio = instrumented_time.as_secs_f64() / plain_time.as_secs_f64();
    println!(
        "[obs] {} requests x4: uninstrumented {:.2} ms vs instrumented {:.2} ms ({:.3}x)",
        requests.len(),
        plain_time.as_secs_f64() * 1e3,
        instrumented_time.as_secs_f64() * 1e3,
        ratio,
    );
    assert!(
        ratio <= 1.05,
        "instrumented serving ({instrumented_time:?}) must stay within 5% of uninstrumented \
         ({plain_time:?}), got {ratio:.3}x"
    );

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("uninstrumented_serving", |b| {
        b.iter(|| plain.serve_batch(&requests, BENCH_SEED));
    });
    group.bench_function("instrumented_serving", |b| {
        b.iter(|| instrumented.serve_batch(&requests, BENCH_SEED));
    });
    group.finish();
}

/// Prices one record operation on live and disabled handles; the
/// per-op costs land in the snapshot as gauges.
fn obs_record_ops(c: &mut Criterion) {
    let live = MetricsRegistry::enabled();
    let dead = MetricsRegistry::disabled();
    let counter = live.counter("bench.counter");
    let histogram = live.histogram("bench.histogram");
    let dead_counter = dead.counter("bench.counter");

    const OPS: u64 = 1_000_000;
    let per_op = |f: &dyn Fn()| {
        let start = Instant::now();
        for _ in 0..OPS {
            f();
        }
        start.elapsed().as_secs_f64() * 1e9 / OPS as f64
    };
    let inc_ns = per_op(&|| counter.inc());
    let record_ns = per_op(&|| histogram.record(black_box(4096)));
    let dead_inc_ns = per_op(&|| dead_counter.inc());
    record_gauge("obs/counter_inc_ns", inc_ns, "ns/op");
    record_gauge("obs/histogram_record_ns", record_ns, "ns/op");
    record_gauge("obs/disabled_counter_inc_ns", dead_inc_ns, "ns/op");
    println!(
        "[obs] record ops: counter.inc {inc_ns:.2} ns, histogram.record {record_ns:.2} ns, \
         disabled inc {dead_inc_ns:.2} ns"
    );
    assert_eq!(counter.get(), OPS, "every timed inc must land");

    let mut group = c.benchmark_group("obs_ops");
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("histogram_record", |b| b.iter(|| histogram.record(black_box(4096))));
    group.bench_function("disabled_counter_inc", |b| b.iter(|| dead_counter.inc()));
    group.finish();
}

criterion_group!(benches, obs_overhead, obs_record_ops);

fn main() {
    benches();
    psr_bench::snapshot::write("obs");
}
