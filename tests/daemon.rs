//! Daemon integration: the always-on ingestion loop over real preset
//! graphs — worker-count/queue/pacing invariance at scale, equivalence
//! with the one-shot serving path, bounded-queue backpressure, and the
//! kill/restart acceptance check on a journalled budget ledger.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use psr_core::serving::daemon::{multiplex, run_daemon, DaemonConfig, DaemonEvent};
use psr_core::serving::{BatchRequest, RecommendationService, ServeError, ServiceConfig};
use psr_core::{BudgetLedger, JournalLedger};
use psr_datasets::{wiki_vote_like, PresetConfig};
use psr_gen::{
    edge_stream, request_stream, rng_from_seed, RequestEvent, RequestStreamParams, StreamEvent,
    StreamParams,
};
use psr_graph::{Graph, GraphView, NodeId};
use psr_utility::{CandidateSet, CommonNeighbors, Sensitivity, UtilityFunction, UtilityVector};

fn wiki_graph() -> Graph {
    wiki_vote_like(PresetConfig::scaled(0.05, 2011)).unwrap().0
}

fn wiki_service(graph: Graph) -> RecommendationService {
    RecommendationService::builder(graph, Arc::new(CommonNeighbors))
        .config(ServiceConfig { budget_per_target: f64::INFINITY, ..Default::default() })
        .build()
}

fn wiki_streams(graph: &Graph) -> (Vec<RequestEvent>, Vec<StreamEvent>) {
    let requests =
        request_stream(graph, RequestStreamParams { events: 120, k: 3 }, &mut rng_from_seed(31));
    let mutations = edge_stream(
        graph,
        StreamParams { events: 24, insert_fraction: 0.7 },
        &mut rng_from_seed(32),
    );
    (requests, mutations)
}

/// A unique scratch path (no tempfile crate in the offline vendor set).
fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("psr-daemon-it-{tag}-{}-{n}.journal", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn daemon_outcomes_are_invariant_to_workers_and_queue_capacity() {
    let graph = wiki_graph();
    let (requests, mutations) = wiki_streams(&graph);
    let events = multiplex(&requests, 8, &mutations, 4, 777);
    let run = |workers: usize, queue: usize| {
        let service = wiki_service(graph.clone());
        run_daemon(
            &service,
            &events,
            &DaemonConfig { workers: Some(workers), queue_capacity: queue, ..Default::default() },
        )
        .unwrap()
    };
    let baseline = run(1, 1);
    assert!(baseline.metrics.served > 0, "the wiki stream must serve something");
    assert!(baseline.metrics.mutation_batches > 0, "the stream must open epochs");
    // Everything about an applied epoch is part of the determinism
    // contract except `invalidated`, which counts cache evictions and so
    // depends on how far the workers had drained when the batch landed.
    let applied_key = |run: &psr_core::serving::daemon::DaemonRun| {
        run.applied
            .iter()
            .map(|a| {
                (
                    a.time,
                    a.epoch.version,
                    a.epoch.insertions,
                    a.epoch.deletions,
                    a.epoch.dirty_targets.clone(),
                    a.epoch.compacted,
                )
            })
            .collect::<Vec<_>>()
    };
    for (workers, queue) in [(4, 2), (8, 16)] {
        let other = run(workers, queue);
        assert_eq!(baseline.batches, other.batches, "{workers} workers, queue {queue}");
        assert_eq!(applied_key(&baseline), applied_key(&other));
        assert!(other.metrics.max_queue_depth <= queue, "bounded queue must bound depth");
    }
}

#[test]
fn daemon_matches_the_one_shot_serving_path() {
    // The daemon loop must be sugar over serve_batch + apply_mutations:
    // a manual replay of the same event sequence on a fresh service is
    // bit-identical, which is what lets `psr serve` rebase onto it.
    let graph = wiki_graph();
    let (requests, mutations) = wiki_streams(&graph);
    let events = multiplex(&requests, 10, &mutations, 6, 555);

    let run = run_daemon(&wiki_service(graph.clone()), &events, &DaemonConfig::default()).unwrap();

    let oneshot = wiki_service(graph);
    let mut expected = Vec::new();
    for event in &events {
        match event {
            DaemonEvent::Mutations { mutations, .. } => {
                oneshot.apply_mutations(mutations).unwrap();
            }
            DaemonEvent::Requests { seed, requests, .. } => {
                expected.push(oneshot.serve_batch(requests, *seed));
            }
        }
    }
    assert_eq!(run.batches.len(), expected.len());
    for (batch, outcomes) in run.batches.iter().zip(&expected) {
        assert_eq!(&batch.outcomes, outcomes, "batch #{}", batch.index);
    }
    assert_eq!(
        run.metrics.served + run.metrics.rejected_for_budget + run.metrics.rejected_other,
        run.metrics.requests,
        "every ingested request must be accounted for"
    );
}

#[test]
fn backpressure_keeps_the_queue_at_capacity_one() {
    let graph = wiki_graph();
    let (requests, mutations) = wiki_streams(&graph);
    let events = multiplex(&requests, 4, &mutations, 3, 99);
    let service = wiki_service(graph);
    let run = run_daemon(
        &service,
        &events,
        &DaemonConfig { workers: Some(4), queue_capacity: 1, ..Default::default() },
    )
    .unwrap();
    assert_eq!(run.metrics.max_queue_depth, 1, "capacity 1 admits exactly one in-flight job");
    assert_eq!(
        run.batches.len(),
        requests.len().div_ceil(4),
        "backpressure must delay, never drop"
    );
}

/// The PR's restart acceptance criterion: kill a journalled daemon after
/// it drained a workload, restart it on the same journal, and every
/// target's ε spend is identical — so re-running the workload is refused
/// for budget, not served afresh.
#[test]
fn daemon_restart_replays_identical_budget_spend() {
    let path = scratch_path("restart");
    let _cleanup = Cleanup(path.clone());
    let budget = 2.0;
    let config = ServiceConfig {
        epsilon_per_request: 1.0,
        budget_per_target: budget,
        threads: Some(2),
        ..Default::default()
    };
    let targets: Vec<u32> = vec![0, 1, 2, 3, 4];
    // Two rounds of one request per target exhaust the 2.0 budget.
    let events: Vec<DaemonEvent> = (0..2)
        .map(|round| DaemonEvent::Requests {
            time: round + 1,
            seed: 40 + round,
            requests: targets.iter().map(|&target| BatchRequest { target, k: 2 }).collect(),
        })
        .collect();

    let spend_before: Vec<f64> = {
        let ledger = JournalLedger::open(&path, budget).unwrap();
        let service = RecommendationService::builder(
            psr_datasets::toy::karate_club(),
            Arc::new(CommonNeighbors),
        )
        .config(config)
        .ledger(Box::new(ledger))
        .build();
        let run = run_daemon(&service, &events, &DaemonConfig::default()).unwrap();
        assert_eq!(run.metrics.served, 10, "both rounds fit the budget");
        targets.iter().map(|&t| service.spent_budget(t)).collect()
    }; // killed: no shutdown hook ran

    // Restart on the same journal: spend replays bit-identically…
    let ledger = JournalLedger::open(&path, budget).unwrap();
    for (&target, &before) in targets.iter().zip(&spend_before) {
        assert_eq!(before, 2.0, "target {target} drained its budget pre-kill");
        assert_eq!(ledger.spent(target), before, "target {target} spend must survive the kill");
    }
    let service =
        RecommendationService::builder(psr_datasets::toy::karate_club(), Arc::new(CommonNeighbors))
            .config(config)
            .ledger(Box::new(ledger))
            .build();
    // …so replaying the same workload is now refused wholesale.
    let replay = run_daemon(&service, &events, &DaemonConfig::default()).unwrap();
    assert_eq!(replay.metrics.served, 0, "an exhausted budget must stay exhausted");
    assert_eq!(replay.metrics.rejected_for_budget, 10);
    for batch in &replay.batches {
        for outcome in &batch.outcomes {
            assert!(matches!(outcome, Err(ServeError::BudgetExhausted { .. })), "{outcome:?}");
        }
    }
    for (&target, &before) in targets.iter().zip(&spend_before) {
        assert_eq!(service.spent_budget(target), before, "refusals must not charge");
    }
}

/// Common neighbours, instrumented: records which threads compute
/// utilities, and holds each computation until a second distinct thread
/// has entered (bounded by a deadline, after which nobody waits), so a
/// batch that is evaluated serially shows up as exactly one thread.
struct ThreadRecordingUtility {
    threads: Arc<Mutex<HashSet<ThreadId>>>,
    deadline: Instant,
}

impl UtilityFunction for ThreadRecordingUtility {
    fn name(&self) -> String {
        CommonNeighbors.name()
    }

    fn utilities(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        candidates: &CandidateSet,
    ) -> UtilityVector {
        self.threads.lock().unwrap().insert(std::thread::current().id());
        while self.threads.lock().unwrap().len() < 2 && Instant::now() < self.deadline {
            std::thread::yield_now();
        }
        CommonNeighbors.utilities(graph, target, candidates)
    }

    fn sensitivity(&self, graph: &dyn GraphView) -> Option<Sensitivity> {
        CommonNeighbors.sensitivity(graph)
    }
}

#[test]
fn a_single_job_fans_out_over_the_service_threads() {
    // `psr serve` runs one daemon worker; the service's thread budget must
    // reach that worker's job instead of leaving it serial.
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let utility = ThreadRecordingUtility {
        threads: Arc::clone(&threads),
        deadline: Instant::now() + Duration::from_secs(10),
    };
    let service =
        RecommendationService::builder(psr_datasets::toy::karate_club(), Arc::new(utility))
            .config(ServiceConfig {
                budget_per_target: f64::INFINITY,
                threads: Some(2),
                ..Default::default()
            })
            .build();
    let requests: Vec<BatchRequest> = (0..8).map(|target| BatchRequest { target, k: 2 }).collect();
    let events = vec![DaemonEvent::Requests { time: 0, seed: 13, requests }];
    let run =
        run_daemon(&service, &events, &DaemonConfig { workers: Some(1), ..Default::default() })
            .unwrap();
    assert_eq!(run.metrics.served, 8);
    let threads = threads.lock().unwrap().len();
    assert!(threads >= 2, "the job was evaluated on {threads} thread(s)");
}
