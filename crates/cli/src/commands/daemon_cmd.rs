//! `psr daemon` — the always-on serving loop: generate a timestamped
//! request stream and an edge-mutation stream over the configured graph,
//! multiplex them onto one clock, and drain the merged sequence through
//! the epoch-pinned worker pool ([`run_daemon`]).
//!
//! With `--ledger path` the per-target ε spend is journalled to disk and
//! replayed on the next start, so restarting the daemon never resets
//! anyone's privacy budget. With `--rate r` ingestion paces at `r`
//! logical ticks per wall second (pacing never changes results). The
//! JSON report carries the full [`DaemonMetrics`] block — throughput,
//! queue depth, budget rejections and per-epoch latency quantiles.

use std::sync::Arc;
use std::time::Duration;

use psr_core::serving::daemon::{multiplex, run_daemon, DaemonConfig, DaemonMetrics};
use psr_core::serving::{RecommendationService, ServiceConfig};
use psr_core::JournalLedger;
use psr_gen::{
    edge_stream, request_stream, rng_from_seed, split_seed, ReplayClock, RequestStreamParams,
    StreamParams,
};
use psr_obs::MetricsSnapshot;
use serde::Serialize;

use crate::args::DaemonOptions;

/// One epoch the daemon opened mid-stream.
#[derive(Debug, Serialize)]
struct EpochRecord {
    version: u64,
    time: u64,
    insertions: usize,
    deletions: usize,
    dirty_targets: usize,
    invalidated: usize,
    compacted: bool,
}

/// The full report emitted by `psr daemon`.
#[derive(Debug, Serialize)]
struct DaemonReport {
    utility: String,
    engine: String,
    /// Graph backing the stream was served from: csr|compressed.
    backend: String,
    epsilon_per_request: f64,
    budget_per_target: f64,
    sensitivity: f64,
    ledger: String,
    request_events: usize,
    mutation_events: usize,
    metrics: DaemonMetrics,
    epochs: Vec<EpochRecord>,
    /// Metrics snapshot of the run; `null` unless telemetry was enabled
    /// via `--metrics-out` / `--trace`.
    telemetry: Option<MetricsSnapshot>,
}

pub fn run(opts: &DaemonOptions) -> Result<(), String> {
    let (backend, _ids) = opts.graph.load(opts.run.seed)?;
    // The stream generators need concrete adjacency to draw valid events;
    // materialising the backend here does not change what the *service*
    // reads through (its epochs stay pinned to the compressed backing).
    let graph = backend.to_graph_arc();
    let utility = opts.serving.utility()?;
    let utility_name = utility.name();
    let engine = opts.serving.engine()?;

    // Distinct stream seeds split off the master so request and mutation
    // draws never alias; the multiplexer splits per-batch seeds itself.
    let requests = request_stream(
        &graph,
        RequestStreamParams { events: opts.request_events, k: opts.k },
        &mut rng_from_seed(split_seed(opts.run.seed, 1)),
    );
    let mutations = if opts.mutation_events == 0 {
        Vec::new()
    } else {
        edge_stream(
            &graph,
            StreamParams { events: opts.mutation_events, insert_fraction: opts.insert_fraction },
            &mut rng_from_seed(split_seed(opts.run.seed, 2)),
        )
    };
    let events = multiplex(&requests, opts.batch, &mutations, opts.mutation_batch, opts.run.seed);

    let config = ServiceConfig {
        epsilon_per_request: opts.serving.epsilon,
        budget_per_target: opts.serving.budget,
        engine,
        threads: opts.run.threads,
        ..Default::default()
    };
    let telemetry = super::build_telemetry(&opts.telemetry);
    let mut builder = RecommendationService::builder(backend, Arc::from(utility))
        .config(config)
        .telemetry(telemetry.clone());
    if let Some(path) = &opts.ledger {
        let ledger = JournalLedger::open(path, opts.serving.budget)
            .map_err(|e| format!("opening budget ledger {path}: {e}"))?;
        builder = builder.ledger(Box::new(ledger));
    }
    let service = builder.build();
    // Captured before the run: mid-stream compaction re-bases the service
    // onto an in-RAM CSR, and the report should name the backing the
    // daemon *started* serving from.
    let backend_kind = service.backend_kind().to_owned();

    let run = run_daemon(
        &service,
        &events,
        &DaemonConfig {
            queue_capacity: opts.queue,
            workers: opts.run.threads,
            clock: opts.rate.map(ReplayClock::new),
            heartbeat: opts.telemetry.heartbeat.map(Duration::from_secs),
        },
    )
    .unwrap_or_else(|e| panic!("daemon stopped: {e}"));
    service.export_gauges();
    let snapshot = super::finish_telemetry(&telemetry, &opts.telemetry)?;

    let report = DaemonReport {
        utility: utility_name,
        engine: engine.name().to_owned(),
        backend: backend_kind,
        epsilon_per_request: opts.serving.epsilon,
        budget_per_target: opts.serving.budget,
        sensitivity: service.sensitivity(),
        ledger: service.ledger_description(),
        request_events: opts.request_events,
        mutation_events: opts.mutation_events,
        epochs: run
            .applied
            .iter()
            .map(|applied| EpochRecord {
                version: applied.epoch.version,
                time: applied.time,
                insertions: applied.epoch.insertions,
                deletions: applied.epoch.deletions,
                dirty_targets: applied.epoch.dirty_targets.len(),
                invalidated: applied.epoch.invalidated,
                compacted: applied.epoch.compacted,
            })
            .collect(),
        metrics: run.metrics,
        telemetry: snapshot,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialisable");
    let headline = format!(
        "daemon drained {} requests ({} served, {} budget-rejected) across {} epochs \
         at {:.0} req/s [{}]",
        report.metrics.requests,
        report.metrics.served,
        report.metrics.rejected_for_budget,
        report.epochs.len() + 1,
        report.metrics.throughput_rps,
        report.ledger,
    );
    super::emit_json(&json, opts.run.json.as_deref(), &headline)
}
