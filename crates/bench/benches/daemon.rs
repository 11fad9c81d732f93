//! Daemon-pipeline throughput: the always-on `run_daemon` loop (stream
//! multiplexing, bounded queue, epoch-pinned reads) against the manual
//! one-shot replay of the same event sequence (`serve_batch` +
//! `apply_mutations`) it wraps. The printed comparison is the headline:
//! the daemon's queueing machinery must cost at most 2x the bare
//! one-shot path on an identical workload — it buys always-on ingestion
//! and backpressure, not throughput, so regressions past that bound are
//! pipeline overhead bugs.
//!
//! A second group isolates the budget ledger: the in-memory accountant
//! against the journalled ledger whose fsync-per-admitted-batch is the
//! durability price of the kill/restart guarantee.

#![allow(missing_docs)] // the bench entry point is an undocumented `fn main`
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use psr_bench::{wiki_graph, BENCH_SEED};
use psr_core::serving::daemon::{multiplex, run_daemon, DaemonConfig, DaemonEvent};
use psr_core::serving::{RecommendationService, ServiceConfig};
use psr_core::JournalLedger;
use psr_gen::{
    edge_stream, request_stream, rng_from_seed, split_seed, RequestStreamParams, StreamParams,
};
use psr_utility::CommonNeighbors;

/// Unbounded-budget service config shared by both arms: throughput
/// measurement, not admission policy.
fn bench_config() -> ServiceConfig {
    ServiceConfig { budget_per_target: f64::INFINITY, ..Default::default() }
}

fn service_over(graph: &Arc<psr_graph::Graph>) -> RecommendationService {
    RecommendationService::builder(Arc::clone(graph), Arc::new(CommonNeighbors))
        .config(bench_config())
        .build()
}

/// The multiplexed workload: request and mutation streams drawn from the
/// graph with seeds split off [`BENCH_SEED`], interleaved by timestamp.
fn workload(
    graph: &psr_graph::Graph,
    requests: usize,
    mutations: usize,
    batch: usize,
    mutation_batch: usize,
) -> Vec<DaemonEvent> {
    let request_events = request_stream(
        graph,
        RequestStreamParams { events: requests, k: 5 },
        &mut rng_from_seed(split_seed(BENCH_SEED, 1)),
    );
    let mutation_events = edge_stream(
        graph,
        StreamParams { events: mutations, insert_fraction: 0.7 },
        &mut rng_from_seed(split_seed(BENCH_SEED, 2)),
    );
    multiplex(&request_events, batch, &mutation_events, mutation_batch, BENCH_SEED)
}

/// Runs the manual one-shot path once: the exact loop `psr serve` used
/// before it rebased onto the daemon. Returns the served count.
fn replay_oneshot(service: &RecommendationService, events: &[DaemonEvent]) -> usize {
    let mut served = 0;
    for event in events {
        match event {
            DaemonEvent::Mutations { mutations, .. } => {
                service.apply_mutations(mutations).expect("bench mutations apply");
            }
            DaemonEvent::Requests { seed, requests, .. } => {
                served += service.serve_batch(requests, *seed).iter().filter(|o| o.is_ok()).count();
            }
        }
    }
    served
}

/// A unique scratch path (no tempfile crate in the offline vendor set).
fn scratch_path() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("psr-bench-daemon-{}-{n}.journal", std::process::id()))
}

/// Daemon loop vs one-shot replay on the full wiki preset. Headline
/// (printed, asserted): best-of-3 daemon wall time within 2x of the bare
/// one-shot path over the identical event sequence.
fn daemon_pipeline(c: &mut Criterion) {
    let graph = Arc::new(wiki_graph());
    let events = workload(&graph, 256, 32, 16, 8);
    let config = DaemonConfig::default();

    // Warm-up run per arm, then best of 3 timed runs; every run uses a
    // fresh service so epochs always start at version zero.
    let served = run_daemon(&service_over(&graph), &events, &config).unwrap().metrics.served;
    let oneshot_served = replay_oneshot(&service_over(&graph), &events);
    assert_eq!(served, oneshot_served, "both arms must answer the same workload");
    assert!(served > 0, "the wiki stream must serve something");
    let mut daemon_time = Duration::MAX;
    let mut oneshot_time = Duration::MAX;
    for _ in 0..3 {
        let service = service_over(&graph);
        let start = Instant::now();
        let run = run_daemon(&service, &events, &config).unwrap();
        daemon_time = daemon_time.min(start.elapsed());
        assert_eq!(run.metrics.served, served);
        let service = service_over(&graph);
        let start = Instant::now();
        let answered = replay_oneshot(&service, &events);
        oneshot_time = oneshot_time.min(start.elapsed());
        assert_eq!(answered, oneshot_served);
    }
    println!(
        "[daemon] {} events ({} served): daemon loop {:.1} ms vs one-shot replay {:.1} ms \
         ({:.2}x)",
        events.len(),
        served,
        daemon_time.as_secs_f64() * 1e3,
        oneshot_time.as_secs_f64() * 1e3,
        daemon_time.as_secs_f64() / oneshot_time.as_secs_f64(),
    );
    assert!(
        daemon_time <= oneshot_time * 2,
        "daemon pipeline ({daemon_time:?}) must stay within 2x of the one-shot path \
         ({oneshot_time:?})"
    );

    let mut group = c.benchmark_group("daemon_pipeline");
    group.sample_size(10);
    group.bench_function("daemon_loop", |b| {
        b.iter(|| run_daemon(&service_over(&graph), &events, &config).unwrap().metrics.served);
    });
    group.bench_function("oneshot_replay", |b| {
        b.iter(|| replay_oneshot(&service_over(&graph), &events));
    });
    group.finish();
}

/// The durability price: the same request-only stream through the
/// in-memory accountant and through the journalled ledger whose
/// per-batch fsync backs the kill/restart guarantee.
fn daemon_ledger(c: &mut Criterion) {
    let graph = Arc::new(wiki_graph());
    let events = workload(&graph, 64, 0, 8, 1);
    let config = DaemonConfig::default();

    let mut group = c.benchmark_group("daemon_ledger");
    group.sample_size(10);
    group.bench_function("memory_ledger", |b| {
        b.iter(|| run_daemon(&service_over(&graph), &events, &config).unwrap().metrics.served);
    });
    group.bench_function("journal_fsync", |b| {
        b.iter(|| {
            let path = scratch_path();
            let ledger = JournalLedger::open(&path, f64::INFINITY).expect("open journal");
            let service =
                RecommendationService::builder(Arc::clone(&graph), Arc::new(CommonNeighbors))
                    .config(bench_config())
                    .ledger(Box::new(ledger))
                    .build();
            let served = run_daemon(&service, &events, &config).unwrap().metrics.served;
            drop(service);
            let _ = std::fs::remove_file(&path);
            served
        });
    });
    group.finish();
}

criterion_group!(benches, daemon_pipeline, daemon_ledger);

fn main() {
    benches();
    psr_bench::snapshot::write("daemon");
}
