//! `psr serve` — batch recommendation serving: read a JSON request list,
//! fan it across `--threads` threads under per-target ε budgets, and emit
//! a JSON outcome report.
//!
//! With `--mutations muts.json` the run becomes *dynamic*: the request
//! list is split into `batches + 1` contiguous chunks, and after chunk
//! `i` the i-th mutation batch is applied
//! ([`RecommendationService::apply_mutations`]), opening a new graph
//! epoch for the remaining chunks. Budgets persist across epochs (the
//! paper's per-node guarantee composes over graph versions), and the
//! report records what each epoch dirtied.
//!
//! Since the daemon landed, this command is a thin wrapper: it turns the
//! chunks and the schedule into a [`DaemonEvent`] sequence and drains it
//! through [`run_daemon`] with no pacing clock and a single job worker,
//! so each chunk fans out over every `--threads` thread. The one-shot
//! path *is* the daemon loop, so the two can never disagree.

use std::sync::Arc;

use psr_core::serving::daemon::{run_daemon, DaemonConfig, DaemonEvent};
use psr_core::serving::{BatchRequest, RecommendationService, ServeError, Served, ServiceConfig};
use psr_gen::split_seed;
use psr_graph::EdgeMutation;
use psr_obs::MetricsSnapshot;
use serde::Serialize;

use crate::args::ServeOptions;

/// One line of the JSON report: a served request or a typed refusal.
#[derive(Debug, Serialize)]
struct OutcomeRecord {
    target: u32,
    k: usize,
    epoch: u64,
    status: String,
    recommendations: Vec<u32>,
    zero_class_picks: usize,
    total_utility: f64,
    epsilon_spent: f64,
    error: Option<String>,
}

/// One applied mutation batch in the report. The epoch's `invalidated`
/// count is left out: it counts cache entries dropped, and how many there
/// were depends on how far the worker had drained when the batch landed,
/// so it would make the report differ between runs of the same input.
/// `psr daemon` reports it as telemetry.
#[derive(Debug, Serialize)]
struct EpochRecord {
    version: u64,
    insertions: usize,
    deletions: usize,
    dirty_targets: usize,
    compacted: bool,
}

/// The full report emitted by `psr serve`.
#[derive(Debug, Serialize)]
struct ServeReport {
    utility: String,
    engine: String,
    /// Graph backing the requests were served from: csr|compressed.
    backend: String,
    epsilon_per_request: f64,
    budget_per_target: f64,
    sensitivity: f64,
    served: usize,
    rejected: usize,
    epochs: Vec<EpochRecord>,
    outcomes: Vec<OutcomeRecord>,
    /// Metrics snapshot of the run; `null` unless telemetry was enabled
    /// via `--metrics-out` / `--trace`.
    telemetry: Option<MetricsSnapshot>,
}

/// Parses a mutation schedule: a JSON array of mutation batches, each an
/// array of `{"op": "Insert"|"Delete", "u": N, "v": M}` objects.
fn parse_mutation_schedule(raw: &str) -> Result<Vec<Vec<EdgeMutation>>, String> {
    let schedule: Vec<Vec<EdgeMutation>> =
        serde_json::from_str(raw).map_err(|e| format!("mutation schedule: {e}"))?;
    if schedule.iter().all(Vec::is_empty) && !schedule.is_empty() {
        return Err("mutation schedule: every batch is empty".into());
    }
    Ok(schedule)
}

/// Splits `requests` into `chunks` contiguous chunks whose sizes differ
/// by at most one (leading chunks take the remainder).
fn chunk_requests(requests: &[BatchRequest], chunks: usize) -> Vec<&[BatchRequest]> {
    let chunks = chunks.max(1);
    let base = requests.len() / chunks;
    let remainder = requests.len() % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < remainder);
        out.push(&requests[start..start + len]);
        start += len;
    }
    out
}

pub fn run(opts: &ServeOptions) -> Result<(), String> {
    let requests: Vec<BatchRequest> = serde_json::from_str(&super::read(&opts.requests)?)
        .map_err(|e| format!("parsing {}: {e}", opts.requests))?;
    let schedule: Vec<Vec<EdgeMutation>> = match &opts.mutations {
        Some(path) => parse_mutation_schedule(&super::read(path)?)
            .map_err(|e| format!("parsing {path}: {e}"))?,
        None => Vec::new(),
    };

    let (backend, _ids) = opts.graph.load(opts.run.seed)?;
    let utility = opts.serving.utility()?;
    let utility_name = utility.name();
    let engine = opts.serving.engine()?;
    let telemetry = super::build_telemetry(&opts.telemetry);
    let service = RecommendationService::builder(backend, Arc::from(utility))
        .config(ServiceConfig {
            epsilon_per_request: opts.serving.epsilon,
            budget_per_target: opts.serving.budget,
            engine,
            threads: opts.run.threads,
            ..Default::default()
        })
        .telemetry(telemetry.clone())
        .build();
    // Captured before the run: mid-stream compaction re-bases the service
    // onto an in-RAM CSR, and the report should name the backing the run
    // *started* from.
    let backend_kind = service.backend_kind().to_owned();

    // Assemble the daemon input: chunk r at synthetic time 2r+1, its
    // mutation batch (if any) at 2r+2, so the sequence is time-ordered
    // and request chunk r is pinned to epoch r exactly as the manual
    // loop used to do.
    let chunks = chunk_requests(&requests, schedule.len() + 1);
    let mut events: Vec<DaemonEvent> = Vec::with_capacity(chunks.len() + schedule.len());
    for (round, chunk) in chunks.iter().enumerate() {
        // Round 0 keeps the static-serve seed derivation so mutation-free
        // runs reproduce exactly what they did before epochs existed.
        let seed = if round == 0 { opts.run.seed } else { split_seed(opts.run.seed, round as u64) };
        events.push(DaemonEvent::Requests {
            time: 2 * round as u64 + 1,
            seed,
            requests: chunk.to_vec(),
        });
        if let Some(batch) = schedule.get(round) {
            events.push(DaemonEvent::Mutations {
                time: 2 * round as u64 + 2,
                mutations: batch.clone(),
            });
        }
    }
    let config = DaemonConfig { workers: Some(1), ..DaemonConfig::default() };
    let run = run_daemon(&service, &events, &config).map_err(|e| {
        // Mutation events sit at odd positions (after their chunk).
        format!("applying mutation batch {}: {}", (e.event - 1) / 2, e.source)
    })?;

    let records: Vec<OutcomeRecord> = run
        .batches
        .iter()
        .flat_map(|batch| {
            chunks[batch.index].iter().zip(&batch.outcomes).map(|(request, outcome)| {
                record(request, outcome, batch.epoch, opts.serving.epsilon)
            })
        })
        .collect();
    let epochs: Vec<EpochRecord> = run
        .applied
        .iter()
        .map(|applied| EpochRecord {
            version: applied.epoch.version,
            insertions: applied.epoch.insertions,
            deletions: applied.epoch.deletions,
            dirty_targets: applied.epoch.dirty_targets.len(),
            compacted: applied.epoch.compacted,
        })
        .collect();

    service.export_gauges();
    let snapshot = super::finish_telemetry(&telemetry, &opts.telemetry)?;

    let report = ServeReport {
        utility: utility_name,
        engine: engine.name().to_owned(),
        backend: backend_kind,
        epsilon_per_request: opts.serving.epsilon,
        budget_per_target: opts.serving.budget,
        sensitivity: service.sensitivity(),
        served: records.iter().filter(|r| r.error.is_none()).count(),
        rejected: records.iter().filter(|r| r.error.is_some()).count(),
        epochs,
        outcomes: records,
        telemetry: snapshot,
    };
    let headline = format!(
        "served {} / rejected {} of {} requests across {} epochs",
        report.served,
        report.rejected,
        requests.len(),
        report.epochs.len() + 1,
    );
    let json = serde_json::to_string_pretty(&report).expect("serialisable");
    super::emit_json(&json, opts.run.json.as_deref(), &headline)
}

fn record(
    request: &BatchRequest,
    outcome: &Result<Served, ServeError>,
    epoch: u64,
    epsilon: f64,
) -> OutcomeRecord {
    match outcome {
        Ok(served) => OutcomeRecord {
            target: served.target,
            k: served.requested_k,
            epoch,
            status: "served".to_owned(),
            recommendations: served.recommendations.clone(),
            zero_class_picks: served.zero_class_picks,
            total_utility: served.total_utility,
            epsilon_spent: served.epsilon_spent,
            error: None,
        },
        Err(error) => OutcomeRecord {
            target: request.target,
            k: request.k,
            epoch,
            status: match error {
                ServeError::BudgetExhausted { .. } => "budget-exhausted",
                ServeError::UnknownTarget { .. } => "unknown-target",
                ServeError::InvalidK { .. } => "invalid-k",
                ServeError::NoCandidates { .. } => "no-candidates",
            }
            .to_owned(),
            recommendations: Vec::new(),
            zero_class_picks: 0,
            total_utility: 0.0,
            epsilon_spent: match error {
                // NoCandidates is charged at admission; the others are not.
                ServeError::NoCandidates { .. } => epsilon,
                _ => 0.0,
            },
            error: Some(error.to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_parses_batches() {
        let schedule = parse_mutation_schedule(
            r#"[[{"op": "Insert", "u": 0, "v": 5}], [{"op": "Delete", "u": 5, "v": 0}, {"op": "Insert", "u": 1, "v": 2}]]"#,
        )
        .unwrap();
        assert_eq!(schedule.len(), 2);
        assert_eq!(schedule[0], vec![EdgeMutation::insert(0, 5)]);
        assert_eq!(schedule[1], vec![EdgeMutation::delete(5, 0), EdgeMutation::insert(1, 2)]);
    }

    #[test]
    fn schedule_rejects_malformed_input() {
        // Not JSON at all.
        assert!(parse_mutation_schedule("nonsense").is_err());
        // Flat array instead of batches.
        assert!(parse_mutation_schedule(r#"[{"op": "Insert", "u": 0, "v": 5}]"#).is_err());
        // Unknown op.
        assert!(parse_mutation_schedule(r#"[[{"op": "Upsert", "u": 0, "v": 5}]]"#).is_err());
        // Missing endpoint.
        assert!(parse_mutation_schedule(r#"[[{"op": "Insert", "u": 0}]]"#).is_err());
        // All-empty schedule (always a mistake: it would change nothing).
        assert!(parse_mutation_schedule("[[], []]").is_err());
        // The error message names the schedule.
        let err = parse_mutation_schedule("42").unwrap_err();
        assert!(err.contains("mutation schedule"), "{err}");
    }

    #[test]
    fn chunks_cover_requests_in_order() {
        let requests: Vec<BatchRequest> =
            (0..10u32).map(|target| BatchRequest { target, k: 1 }).collect();
        for chunks in [1usize, 2, 3, 4, 11] {
            let split = chunk_requests(&requests, chunks);
            assert_eq!(split.len(), chunks);
            let flat: Vec<BatchRequest> = split.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flat, requests, "chunking must preserve order ({chunks} chunks)");
            let sizes: Vec<usize> = split.iter().map(|c| c.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "near-equal chunks, got {sizes:?}");
        }
    }
}
