//! Telemetry conformance: the observability layer observes, never
//! participates.
//!
//! The contract under test is the tentpole's hard guarantee: serving,
//! daemon, and frontier outcomes are **bit-identical** with telemetry
//! enabled vs disabled — counters, spans, gauges, and histograms may
//! watch the hot paths but can never perturb an RNG stream, a budget
//! charge, or a report byte. On top of that, the instrumented runs must
//! actually *measure*: admission counters add up to the workload, spend
//! gauges mirror the accountant, cache stats surface through
//! [`GraphBackend`] without downcasting, and the snapshot round-trips.

use std::sync::Arc;

use psr_core::serving::daemon::{multiplex, run_daemon, DaemonConfig};
use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_datasets::{wiki_vote_like, PresetConfig};
use psr_frontier::{run_sweep, ExperimentPlan, FrontierReport, SweepOptions};
use psr_gen::{edge_stream, request_stream, rng_from_seed, RequestStreamParams, StreamParams};
use psr_graph::{CompressedCsr, Graph, GraphBackend, GraphView};
use psr_obs::Telemetry;
use psr_utility::CommonNeighbors;

fn wiki_graph() -> Graph {
    wiki_vote_like(PresetConfig::scaled(0.05, 2011)).unwrap().0
}

/// A service over `backend`, optionally instrumented. Telemetry is the
/// ONLY difference between the pairs each test compares.
fn service(backend: GraphBackend, telemetry: Option<Arc<Telemetry>>) -> RecommendationService {
    let mut builder =
        RecommendationService::builder(backend, Arc::new(CommonNeighbors)).config(ServiceConfig {
            epsilon_per_request: 0.5,
            budget_per_target: 2.0,
            threads: Some(2),
            ..Default::default()
        });
    if let Some(telemetry) = telemetry {
        builder = builder.telemetry(telemetry);
    }
    builder.build()
}

fn requests(n: u32) -> Vec<BatchRequest> {
    (0..n).map(|target| BatchRequest { target: target % 97, k: 3 }).collect()
}

#[test]
fn serving_outcomes_are_bit_identical_with_telemetry_on_and_off() {
    let graph = wiki_graph();
    let batch = requests(60);

    let plain = service(GraphBackend::from(graph.clone()), None);
    let telemetry = Telemetry::enabled();
    let instrumented = service(GraphBackend::from(graph), Some(telemetry.clone()));

    // Several batches so budgets start refusing (5 × 0.5 > 2.0): the
    // comparison covers served, budget-refused, and mixed batches.
    for round in 0..5u64 {
        let expected = plain.serve_batch(&batch, 1000 + round);
        let observed = instrumented.serve_batch(&batch, 1000 + round);
        assert_eq!(expected, observed, "round {round}: telemetry must not perturb outcomes");
    }

    // The instrumented run measured what actually happened: every
    // admission decision is counted exactly once, under the same names
    // the CLI's `--metrics-out` snapshot exposes.
    let snapshot = telemetry.metrics().snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
            .value
    };
    assert_eq!(counter("serve.batches"), 5);
    assert_eq!(
        counter("serve.admitted")
            + counter("serve.rejected_budget")
            + counter("serve.rejected_other"),
        5 * 60,
        "every request admitted or rejected exactly once"
    );
    assert!(counter("serve.rejected_budget") > 0, "2.0 budget at eps 0.5 must refuse round 5");
    // Spans entered and exited for each batch, in sequence order.
    assert_eq!(
        telemetry.trace().events().iter().filter(|e| e.name == "serve.batch").count(),
        2 * 5,
        "one enter + one exit per batch"
    );
}

#[test]
fn daemon_runs_are_bit_identical_with_telemetry_on_and_off() {
    let graph = wiki_graph();
    let requests =
        request_stream(&graph, RequestStreamParams { events: 80, k: 3 }, &mut rng_from_seed(31));
    let mutations = edge_stream(
        &graph,
        StreamParams { events: 16, insert_fraction: 0.7 },
        &mut rng_from_seed(32),
    );
    let events = multiplex(&requests, 8, &mutations, 4, 777);

    let run = |telemetry: Option<Arc<Telemetry>>| {
        let svc = service(GraphBackend::from(graph.clone()), telemetry);
        run_daemon(&svc, &events, &DaemonConfig::default()).unwrap()
    };
    let plain = run(None);
    let telemetry = Telemetry::enabled();
    let instrumented = run(Some(telemetry.clone()));

    assert_eq!(plain.batches.len(), instrumented.batches.len());
    for (expected, observed) in plain.batches.iter().zip(&instrumented.batches) {
        assert_eq!(expected.outcomes, observed.outcomes, "batch #{}", expected.index);
        assert_eq!(expected.epoch, observed.epoch);
    }
    assert_eq!(plain.metrics.served, instrumented.metrics.served);
    assert_eq!(plain.metrics.rejected_for_budget, instrumented.metrics.rejected_for_budget);

    // Epoch events fired once per applied mutation batch.
    let snapshot = telemetry.metrics().snapshot();
    let applied =
        snapshot.counters.iter().find(|c| c.name == "epoch.applied").expect("epoch.applied");
    assert_eq!(applied.value, instrumented.applied.len() as u64);
    let epoch_events =
        telemetry.trace().events().iter().filter(|e| e.name == "epoch.apply").count();
    assert_eq!(epoch_events, instrumented.applied.len());
    // The registry mirrors the run's batch-latency population.
    let latency = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "daemon.batch_latency_ns")
        .expect("daemon.batch_latency_ns");
    assert_eq!(latency.latency.count, instrumented.batches.len() as u64);
}

#[test]
fn frontier_reports_are_bit_identical_with_telemetry_on_and_off() {
    let plan = ExperimentPlan::toy();
    let plain = run_sweep(&plan, &SweepOptions::default()).unwrap();
    let telemetry = Telemetry::enabled();
    let instrumented = run_sweep(
        &plan,
        &SweepOptions { telemetry: Some(telemetry.clone()), ..Default::default() },
    )
    .unwrap();

    let expected = FrontierReport::assemble(&plan, plain.fingerprint, plain.results);
    let observed = FrontierReport::assemble(&plan, instrumented.fingerprint, instrumented.results);
    assert_eq!(expected.to_json(), observed.to_json(), "telemetry must not touch the report");

    // The sweep measured itself: one start + one finish event per cell,
    // and the cell counters match the plan's expansion.
    let snapshot = telemetry.metrics().snapshot();
    let counter = |name: &str| snapshot.counters.iter().find(|c| c.name == name).unwrap().value;
    assert_eq!(counter("frontier.cells_total"), instrumented.total as u64);
    assert_eq!(counter("frontier.cells_computed"), instrumented.computed as u64);
    assert_eq!(counter("frontier.cells_resumed"), 0);
    let events = telemetry.trace().events();
    assert_eq!(
        events.iter().filter(|e| e.name == "frontier.cell.start").count(),
        instrumented.computed
    );
    assert_eq!(
        events.iter().filter(|e| e.name == "frontier.cell.finish").count(),
        instrumented.computed
    );
}

#[test]
fn spend_gauges_mirror_the_budget_accountant() {
    let telemetry = Telemetry::enabled();
    let svc = service(GraphBackend::from(wiki_graph()), Some(telemetry.clone()));
    let batch = requests(10);
    let _ = svc.serve_batch(&batch, 7);
    svc.export_gauges();

    let snapshot = telemetry.metrics().snapshot();
    let gauge = |name: &str| {
        snapshot
            .gauges
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
            .value
    };
    assert_eq!(gauge("budget.eps_per_target"), 2.0);
    assert_eq!(gauge("budget.targets_charged"), 10.0);
    for request in &batch {
        let spent = gauge(&format!("budget.eps_spent.t{}", request.target));
        assert_eq!(spent, svc.spent_budget(request.target), "target {}", request.target);
        assert_eq!(spent, 0.5, "one admitted request charges eps_per_request");
    }

    // Exporting twice must overwrite, not double-count: gauges are
    // idempotent snapshots of the accountant, not deltas.
    svc.export_gauges();
    let again = telemetry.metrics().snapshot();
    assert_eq!(snapshot.gauges, again.gauges);
}

#[test]
fn decode_cache_stats_surface_through_the_backend_without_downcasting() {
    let graph = wiki_graph();
    let compressed = Arc::new(CompressedCsr::open_bytes(CompressedCsr::encode(&graph, 4)).unwrap());
    let backend = GraphBackend::Compressed(Arc::clone(&compressed));

    // Plain CSR backends have no decode cache to report.
    assert!(GraphBackend::from(graph.clone()).cache_stats().is_none());

    let cold = backend.cache_stats().expect("compressed backends report stats");
    assert_eq!((cold.hits, cold.misses), (0, 0), "untouched cache has no traffic");

    // First touch misses and fills; the re-read hits.
    let _ = compressed.neighbors(0);
    let _ = compressed.neighbors(0);
    let warm = backend.cache_stats().unwrap();
    assert_eq!(warm.misses, 1, "one decode fill");
    assert!(warm.hits >= 1, "the re-read must hit, got {}", warm.hits);
    assert!(warm.cached_nodes >= 1 && warm.cached_bytes > 0);

    // Serving through the backend keeps counting — and `export_gauges`
    // republishes the same numbers under the metrics names the CLI
    // snapshot exposes.
    let telemetry = Telemetry::enabled();
    let svc = service(backend, Some(telemetry.clone()));
    let _ = svc.serve_batch(&requests(10), 3);
    svc.export_gauges();
    let snapshot = telemetry.metrics().snapshot();
    let gauge = |name: &str| snapshot.gauges.iter().find(|g| g.name == name).unwrap().value;
    let final_stats = compressed.cache_stats();
    assert_eq!(gauge("graph.decode_cache.hits"), final_stats.hits as f64);
    assert_eq!(gauge("graph.decode_cache.misses"), final_stats.misses as f64);
    assert_eq!(gauge("graph.decode_cache.nodes"), final_stats.cached_nodes as f64);
    assert_eq!(gauge("graph.decode_cache.bytes"), final_stats.cached_bytes as f64);
    assert!(final_stats.misses > warm.misses, "serving decoded fresh nodes");
}
