//! The always-on ingestion loop: multiplexed request/mutation streams
//! through the epoch-pinned job workers, with bounded queues,
//! backpressure and serving metrics.
//!
//! [`run_daemon`] consumes a time-ordered sequence of [`DaemonEvent`]s.
//! The calling thread is the *ingestion* thread: it optionally paces on a
//! [`ReplayClock`], applies mutation batches inline (opening new epochs
//! through the RCU swap point — readers never notice), and for each
//! request batch pins the current epoch, runs budget admission (charging
//! and fsyncing the ledger in event order, which keeps admission
//! deterministic), and pushes the fully-admitted job onto a bounded
//! queue. Job workers pop jobs and evaluate them against the epoch each
//! job *pinned at ingestion* — a batch admitted under epoch N drains
//! under epoch N even if ingestion has swapped in N+3 meanwhile. When the
//! queue is full the ingestion thread blocks: backpressure, not
//! unbounded buffering.
//!
//! [`DaemonConfig::workers`] jobs drain concurrently, and each fans its
//! batch across `max(1, service threads / workers)` threads through the
//! evaluation path of
//! [`serve_batch_pinned`](RecommendationService::serve_batch_pinned):
//! the service's threads are the run's total budget.
//!
//! Because admission order and per-batch seeds are fixed at ingestion,
//! the daemon's outputs are **bit-identical** for a given event sequence
//! regardless of worker count, job width, queue capacity or pacing. The
//! one-shot `psr serve` path is this loop with no clock and one worker
//! at the service's full width, and the conformance tests hold the two
//! equal. The one exception is
//! [`Epoch::invalidated`](super::Epoch) inside [`AppliedMutations`]: the
//! per-target cache fills lazily as workers evaluate, so how many
//! entries a mutation batch evicts depends on how far draining had
//! progressed. It is operational telemetry, outside the determinism
//! contract.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use psr_gen::seed::split_seed;
use psr_gen::stream::{ReplayClock, RequestEvent, StreamEvent};
use psr_graph::EdgeMutation;
use psr_obs::{Heartbeat, Progress};
use serde::Serialize;

use super::epoch::EpochPin;
use super::{BatchRequest, Epoch, MutationError, RecommendationService, ServeError, Served};
use crate::par;

/// One item of the daemon's input sequence, in non-decreasing `time`
/// order. Produced by [`multiplex`] from the `psr_gen::stream`
/// generators, or assembled directly (the one-shot serve path).
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonEvent {
    /// A batch of recommendation requests admitted and served together.
    Requests {
        /// Logical timestamp of the batch (its last event's time).
        time: u64,
        /// Seed of the batch's per-request RNG streams.
        seed: u64,
        /// The requests, in arrival order.
        requests: Vec<BatchRequest>,
    },
    /// A batch of edge mutations applied atomically as one epoch.
    Mutations {
        /// Logical timestamp of the batch (its last event's time).
        time: u64,
        /// The mutations, in arrival order.
        mutations: Vec<EdgeMutation>,
    },
}

impl DaemonEvent {
    /// The event's logical timestamp.
    pub fn time(&self) -> u64 {
        match self {
            DaemonEvent::Requests { time, .. } | DaemonEvent::Mutations { time, .. } => *time,
        }
    }
}

/// Merges a request stream and a mutation stream into one time-ordered
/// daemon input. Consecutive events are grouped into batches of at most
/// `request_batch` / `mutation_batch` (a batch carries its *last*
/// member's timestamp, i.e. it dispatches when complete); ties dispatch
/// the mutation batch first, so a request at time `t` always sees an
/// edge change at time `t`. Each request batch gets a deterministic seed
/// split from `seed` and its batch index.
///
/// # Panics
/// Panics if either batch size is zero.
pub fn multiplex(
    requests: &[RequestEvent],
    request_batch: usize,
    mutations: &[StreamEvent],
    mutation_batch: usize,
    seed: u64,
) -> Vec<DaemonEvent> {
    assert!(request_batch > 0, "request batch size must be at least 1");
    assert!(mutation_batch > 0, "mutation batch size must be at least 1");
    let request_batches: Vec<DaemonEvent> = requests
        .chunks(request_batch)
        .enumerate()
        .map(|(index, chunk)| DaemonEvent::Requests {
            time: chunk.last().expect("chunks are non-empty").time,
            seed: split_seed(seed, 0xDAE_0000 + index as u64),
            requests: chunk.iter().map(|r| BatchRequest { target: r.target, k: r.k }).collect(),
        })
        .collect();
    let mutation_batches: Vec<DaemonEvent> = mutations
        .chunks(mutation_batch)
        .map(|chunk| DaemonEvent::Mutations {
            time: chunk.last().expect("chunks are non-empty").time,
            mutations: chunk.iter().map(|e| e.mutation).collect(),
        })
        .collect();

    let mut merged = Vec::with_capacity(request_batches.len() + mutation_batches.len());
    let (mut r, mut m) =
        (request_batches.into_iter().peekable(), mutation_batches.into_iter().peekable());
    loop {
        match (r.peek(), m.peek()) {
            (Some(req), Some(mut_)) if mut_.time() <= req.time() => {
                merged.push(m.next().expect("peeked"));
            }
            (Some(_), _) => merged.push(r.next().expect("peeked")),
            (None, Some(_)) => merged.push(m.next().expect("peeked")),
            (None, None) => break,
        }
    }
    merged
}

/// Configuration of [`run_daemon`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonConfig {
    /// Maximum request batches in flight between ingestion and the
    /// workers. A full queue blocks ingestion (backpressure).
    pub queue_capacity: usize,
    /// Job workers: how many request batches drain concurrently. `None`
    /// falls back to the service's configured thread count, then to
    /// available parallelism. Each job fans out over
    /// `max(1, service threads / workers)` threads, so `Some(1)` gives a
    /// single job the service's whole thread budget.
    pub workers: Option<usize>,
    /// Pace ingestion on the events' logical timestamps. `None` (the
    /// one-shot serve path) ingests as fast as admission allows. Pacing
    /// never changes results, only their wall-clock spacing.
    pub clock: Option<ReplayClock>,
    /// Print a progress line (events ingested, batches drained, ETA) to
    /// stderr roughly this often. `None` stays silent. Heartbeats are
    /// operational output only and never touch results.
    pub heartbeat: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig { queue_capacity: 8, workers: None, clock: None, heartbeat: None }
    }
}

/// A mutation batch the daemon could not apply. The daemon stops at the
/// offending event; every request batch ingested before it still drains
/// (their charges are already durable).
#[derive(Debug)]
pub struct DaemonError {
    /// Index of the offending event in the input sequence.
    pub event: usize,
    /// What the serving layer rejected.
    pub source: MutationError,
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "daemon event #{}: {}", self.event, self.source)
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Outcomes of one request batch, in its batch's request order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Index among the run's request batches (ingestion order).
    pub index: usize,
    /// The batch's logical timestamp.
    pub time: u64,
    /// The graph epoch the batch was pinned to at admission.
    pub epoch: u64,
    /// Per-request outcomes.
    pub outcomes: Vec<Result<Served, ServeError>>,
}

/// One mutation batch the daemon applied, with the epoch it opened.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedMutations {
    /// The batch's logical timestamp.
    pub time: u64,
    /// The epoch summary returned by `apply_mutations`. Every field is
    /// deterministic except `invalidated`, which counts cache evictions
    /// and so depends on how far the workers had drained (see the
    /// [module docs](self)).
    pub epoch: Epoch,
}

/// Everything a finished daemon run produced.
#[derive(Debug)]
pub struct DaemonRun {
    /// Request batch results, in ingestion order.
    pub batches: Vec<BatchOutcome>,
    /// Applied mutation batches, in ingestion order.
    pub applied: Vec<AppliedMutations>,
    /// Serving metrics for the whole run.
    pub metrics: DaemonMetrics,
}

// The log₂ latency histogram and its quantile summary were born here
// and are re-exported for compatibility; they now live in `psr-obs` so
// the daemon, the serving layer, and the frontier share one bucketing.
pub use psr_obs::{LatencyHistogram, LatencySummary};

/// Per-epoch serving metrics: how much traffic each graph version
/// served and at what queue-to-completion latency.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochMetrics {
    /// The graph epoch.
    pub epoch: u64,
    /// Request batches pinned to this epoch.
    pub batches: usize,
    /// Requests in those batches.
    pub requests: usize,
    /// Queue-to-completion batch latency within this epoch.
    pub latency: LatencySummary,
}

/// Serving metrics for a whole daemon run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DaemonMetrics {
    /// Events ingested (request + mutation batches).
    pub events: usize,
    /// Request batches ingested.
    pub request_batches: usize,
    /// Mutation batches applied.
    pub mutation_batches: usize,
    /// Individual requests ingested.
    pub requests: usize,
    /// Requests answered with recommendations.
    pub served: usize,
    /// Requests refused because their target's ε budget ran out.
    pub rejected_for_budget: usize,
    /// Requests refused for any other reason (unknown target, zero `k`,
    /// empty candidate set).
    pub rejected_other: usize,
    /// Deepest the bounded queue ever got (≤ its capacity).
    pub max_queue_depth: usize,
    /// Wall-clock time from first ingestion to full drain, nanoseconds.
    pub wall_ns: u64,
    /// Requests processed per wall-clock second.
    pub throughput_rps: f64,
    /// Queue-to-completion batch latency across the run.
    pub latency: LatencySummary,
    /// The same, split by the epoch each batch was pinned to.
    pub per_epoch: Vec<EpochMetrics>,
}

/// One admitted request batch in flight from ingestion to a worker.
struct Job<'a> {
    slot: usize,
    pin: EpochPin,
    seed: u64,
    requests: &'a [BatchRequest],
    admissions: Vec<Option<ServeError>>,
    enqueued: Instant,
}

/// What a worker hands back for one job.
struct JobResult {
    epoch: u64,
    latency_ns: u64,
    outcomes: Vec<Result<Served, ServeError>>,
}

/// A minimal bounded MPMC queue: one ingestion producer, N worker
/// consumers, blocking `push` for backpressure and a `close` that lets
/// consumers drain and exit.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    max_depth: usize,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false, max_depth: 0 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Blocks while the queue is full (backpressure), then enqueues.
    fn push(&self, item: T) {
        let mut state = self.state.lock().expect("queue lock");
        while state.items.len() >= self.capacity {
            state = self.not_full.wait(state).expect("queue lock");
        }
        debug_assert!(!state.closed, "push after close");
        state.items.push_back(item);
        state.max_depth = state.max_depth.max(state.items.len());
        drop(state);
        self.not_empty.notify_one();
    }

    /// Blocks until an item arrives; `None` once the queue is closed and
    /// drained.
    fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    /// No more pushes; consumers drain what is left and exit.
    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
    }

    fn max_depth(&self) -> usize {
        self.state.lock().expect("queue lock").max_depth
    }
}

/// Runs the ingestion loop over `events` until the input is exhausted
/// and every in-flight batch has drained (the daemon's clean-drain
/// shutdown), or until a mutation batch is rejected. See the [module
/// docs](self) for the threading model and the determinism contract.
///
/// # Panics
/// Panics if `config.queue_capacity` is zero or the ledger fails to
/// sync (see [`RecommendationService::serve_batch`]'s contract).
pub fn run_daemon(
    service: &RecommendationService,
    events: &[DaemonEvent],
    config: &DaemonConfig,
) -> Result<DaemonRun, DaemonError> {
    assert!(config.queue_capacity > 0, "queue capacity must be at least 1");
    let service_threads = par::threads(service.config().threads);
    let workers = par::threads(config.workers.or(service.config().threads));
    // The service's threads are the run's total budget: each concurrently
    // draining job gets an equal share to fan its batch across.
    let width = (service_threads / workers).max(1);

    let request_batches =
        events.iter().filter(|e| matches!(e, DaemonEvent::Requests { .. })).count();
    let queue: BoundedQueue<Job> = BoundedQueue::new(config.queue_capacity);
    let results: Mutex<Vec<Option<JobResult>>> =
        Mutex::new((0..request_batches).map(|_| None).collect());

    let mut applied = Vec::new();
    let mut ingested_batches = 0usize;
    let mut ingestion_error: Option<DaemonError> = None;
    // Heartbeat progress counters: operational only, never results.
    let ingested_events = AtomicUsize::new(0);
    let drained_batches = AtomicUsize::new(0);
    let progress = || {
        let (ingested, total) = (ingested_events.load(Ordering::Relaxed), events.len());
        let drained = drained_batches.load(Ordering::Relaxed);
        Progress {
            summary: format!(
                "{ingested}/{total} events ingested, {drained} request batches drained"
            ),
            done: ingested,
            total,
        }
    };
    let start = Instant::now();

    Heartbeat::new("psr daemon", config.heartbeat).run(progress, || {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(job) = queue.pop() {
                        // Same per-batch serve span the one-shot path opens
                        // in `serve_batch_pinned`; inert when telemetry is off.
                        let _span =
                            service.telemetry.serve_span(job.pin.version(), job.requests.len());
                        let outcomes = job.pin.state.evaluate_batch(
                            job.requests,
                            &job.admissions,
                            job.seed,
                            width,
                        );
                        let result = JobResult {
                            epoch: job.pin.version(),
                            latency_ns: job.enqueued.elapsed().as_nanos() as u64,
                            outcomes,
                        };
                        results.lock().expect("results lock")[job.slot] = Some(result);
                        drained_batches.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }

            // Ingestion runs on this thread, beside the job workers.
            let mut last_tick = events.first().map_or(0, DaemonEvent::time);
            for (index, event) in events.iter().enumerate() {
                if let Some(clock) = &config.clock {
                    std::thread::sleep(clock.delay(last_tick, event.time()));
                }
                last_tick = event.time();
                match event {
                    DaemonEvent::Mutations { time, mutations } => {
                        match service.apply_mutations(mutations) {
                            Ok(epoch) => applied.push(AppliedMutations { time: *time, epoch }),
                            Err(source) => {
                                ingestion_error = Some(DaemonError { event: index, source });
                                break;
                            }
                        }
                    }
                    DaemonEvent::Requests { seed, requests, .. } => {
                        let pin = service.pin();
                        // Admission charges + fsyncs the ledger in event
                        // order, before the batch can produce any output.
                        let admissions = service.admit_batch(&pin, requests);
                        queue.push(Job {
                            slot: ingested_batches,
                            pin,
                            seed: *seed,
                            requests,
                            admissions,
                            enqueued: Instant::now(),
                        });
                        ingested_batches += 1;
                    }
                }
                ingested_events.fetch_add(1, Ordering::Relaxed);
            }
            queue.close();
        });
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let max_queue_depth = queue.max_depth();

    if let Some(error) = ingestion_error {
        return Err(error);
    }

    // Reassemble results in ingestion order and fold the metrics. The
    // registry histogram mirrors the run's latency population for
    // `--metrics-out`; on a disabled registry the handle is inert.
    let batch_latency = service.telemetry().metrics().histogram("daemon.batch_latency_ns");
    let results = results.into_inner().expect("results lock");
    let mut batches = Vec::with_capacity(request_batches);
    let mut histogram = LatencyHistogram::default();
    let mut per_epoch: Vec<(u64, usize, usize, LatencyHistogram)> = Vec::new();
    let (mut requests_total, mut served, mut budget_rejected, mut other_rejected) = (0, 0, 0, 0);
    let mut request_events = events.iter().filter_map(|e| match e {
        DaemonEvent::Requests { time, .. } => Some(*time),
        _ => None,
    });
    for (slot, result) in results.into_iter().enumerate() {
        let result = result.expect("every ingested batch drained");
        let time = request_events.next().expect("one time per request batch");
        requests_total += result.outcomes.len();
        for outcome in &result.outcomes {
            match outcome {
                Ok(_) => served += 1,
                Err(ServeError::BudgetExhausted { .. }) => budget_rejected += 1,
                Err(_) => other_rejected += 1,
            }
        }
        histogram.record(result.latency_ns);
        batch_latency.record(result.latency_ns);
        match per_epoch.iter_mut().find(|(epoch, ..)| *epoch == result.epoch) {
            Some((_, n_batches, n_requests, epoch_hist)) => {
                *n_batches += 1;
                *n_requests += result.outcomes.len();
                epoch_hist.record(result.latency_ns);
            }
            None => {
                let mut epoch_hist = LatencyHistogram::default();
                epoch_hist.record(result.latency_ns);
                per_epoch.push((result.epoch, 1, result.outcomes.len(), epoch_hist));
            }
        }
        batches.push(BatchOutcome {
            index: slot,
            time,
            epoch: result.epoch,
            outcomes: result.outcomes,
        });
    }
    per_epoch.sort_by_key(|&(epoch, ..)| epoch);

    let metrics = DaemonMetrics {
        events: events.len(),
        request_batches,
        mutation_batches: applied.len(),
        requests: requests_total,
        served,
        rejected_for_budget: budget_rejected,
        rejected_other: other_rejected,
        max_queue_depth,
        wall_ns,
        throughput_rps: if wall_ns == 0 {
            0.0
        } else {
            requests_total as f64 / (wall_ns as f64 / 1e9)
        },
        latency: histogram.summary(),
        per_epoch: per_epoch
            .into_iter()
            .map(|(epoch, n_batches, n_requests, hist)| EpochMetrics {
                epoch,
                batches: n_batches,
                requests: n_requests,
                latency: hist.summary(),
            })
            .collect(),
    };

    Ok(DaemonRun { batches, applied, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_datasets::toy::karate_club;
    use psr_gen::rng_from_seed;
    use psr_gen::stream::{edge_stream, request_stream, RequestStreamParams, StreamParams};
    use psr_utility::CommonNeighbors;

    use crate::serving::ServiceConfig;

    fn service() -> RecommendationService {
        RecommendationService::new(
            karate_club(),
            Box::new(CommonNeighbors),
            ServiceConfig { budget_per_target: f64::INFINITY, ..Default::default() },
        )
    }

    fn streams() -> (Vec<RequestEvent>, Vec<StreamEvent>) {
        let graph = karate_club();
        let requests = request_stream(
            &graph,
            RequestStreamParams { events: 40, k: 3 },
            &mut rng_from_seed(21),
        );
        let mutations = edge_stream(
            &graph,
            StreamParams { events: 12, insert_fraction: 0.6 },
            &mut rng_from_seed(22),
        );
        (requests, mutations)
    }

    #[test]
    fn multiplex_orders_batches_by_time_with_mutations_first_on_ties() {
        let (requests, mutations) = streams();
        let events = multiplex(&requests, 8, &mutations, 4, 7);
        assert_eq!(
            events.iter().filter(|e| matches!(e, DaemonEvent::Requests { .. })).count(),
            requests.len().div_ceil(8)
        );
        assert_eq!(
            events.iter().filter(|e| matches!(e, DaemonEvent::Mutations { .. })).count(),
            mutations.len().div_ceil(4)
        );
        for pair in events.windows(2) {
            assert!(pair[0].time() <= pair[1].time(), "events must be time-ordered");
            if pair[0].time() == pair[1].time() {
                assert!(
                    !(matches!(pair[0], DaemonEvent::Requests { .. })
                        && matches!(pair[1], DaemonEvent::Mutations { .. })),
                    "ties dispatch mutations before requests"
                );
            }
        }
        // Batch seeds are distinct and deterministic.
        let again = multiplex(&requests, 8, &mutations, 4, 7);
        assert_eq!(events, again);
        let seeds: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                DaemonEvent::Requests { seed, .. } => Some(*seed),
                _ => None,
            })
            .collect();
        let distinct: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len());
    }

    #[test]
    fn daemon_results_are_worker_count_invariant() {
        let (requests, mutations) = streams();
        let events = multiplex(&requests, 5, &mutations, 3, 99);
        let run = |workers| {
            let svc = service();
            run_daemon(
                &svc,
                &events,
                &DaemonConfig { workers: Some(workers), queue_capacity: 2, ..Default::default() },
            )
            .unwrap()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.batches, eight.batches);
        // `epoch.invalidated` is timing-dependent telemetry (see the
        // module docs); everything else about applied epochs is fixed.
        let applied_key = |run: &DaemonRun| {
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
        assert_eq!(applied_key(&one), applied_key(&eight));
        assert_eq!(one.metrics.served, eight.metrics.served);
        assert!(one.metrics.served > 0);
        assert!(one.metrics.max_queue_depth <= 2, "bounded queue must bound depth");
    }

    #[test]
    fn daemon_equals_manual_replay() {
        // The daemon is sugar over pin + admit + evaluate: replaying the
        // same events by hand against a fresh service matches exactly.
        let (requests, mutations) = streams();
        let events = multiplex(&requests, 7, &mutations, 5, 123);
        let svc = service();
        let run = run_daemon(&svc, &events, &DaemonConfig::default()).unwrap();

        let manual_svc = service();
        let mut manual = Vec::new();
        for event in &events {
            match event {
                DaemonEvent::Mutations { mutations, .. } => {
                    manual_svc.apply_mutations(mutations).unwrap();
                }
                DaemonEvent::Requests { seed, requests, .. } => {
                    manual.push(manual_svc.serve_batch(requests, *seed));
                }
            }
        }
        assert_eq!(run.batches.len(), manual.len());
        for (batch, expected) in run.batches.iter().zip(&manual) {
            assert_eq!(&batch.outcomes, expected);
        }
    }

    #[test]
    fn metrics_account_for_every_request() {
        let svc = RecommendationService::new(
            karate_club(),
            Box::new(CommonNeighbors),
            ServiceConfig {
                epsilon_per_request: 1.0,
                budget_per_target: 2.0,
                ..Default::default()
            },
        );
        // Eight requests for one target at budget 2 ⇒ 2 served, 6 budget
        // rejections; an unknown target adds one "other" rejection.
        let mut batch: Vec<BatchRequest> = vec![BatchRequest { target: 0, k: 2 }; 8];
        batch.push(BatchRequest { target: 999, k: 1 });
        let events = vec![DaemonEvent::Requests { time: 1, seed: 5, requests: batch }];
        let run = run_daemon(&svc, &events, &DaemonConfig::default()).unwrap();
        let m = &run.metrics;
        assert_eq!(m.requests, 9);
        assert_eq!(m.served, 2);
        assert_eq!(m.rejected_for_budget, 6);
        assert_eq!(m.rejected_other, 1);
        assert_eq!(m.request_batches, 1);
        assert_eq!(m.mutation_batches, 0);
        assert_eq!(m.latency.count, 1);
        assert!(m.latency.max_ns > 0);
        assert!(m.throughput_rps > 0.0);
        assert_eq!(m.per_epoch.len(), 1);
        assert_eq!(m.per_epoch[0].epoch, 0);
        assert_eq!(m.per_epoch[0].requests, 9);
    }

    #[test]
    fn per_epoch_metrics_split_on_mutation_batches() {
        let svc = service();
        let events = vec![
            DaemonEvent::Requests {
                time: 1,
                seed: 1,
                requests: vec![BatchRequest { target: 0, k: 2 }],
            },
            DaemonEvent::Mutations { time: 2, mutations: vec![EdgeMutation::insert(24, 16)] },
            DaemonEvent::Requests {
                time: 3,
                seed: 2,
                requests: vec![BatchRequest { target: 1, k: 2 }, BatchRequest { target: 2, k: 1 }],
            },
        ];
        let run = run_daemon(&svc, &events, &DaemonConfig::default()).unwrap();
        assert_eq!(run.batches[0].epoch, 0);
        assert_eq!(run.batches[1].epoch, 1);
        let epochs: Vec<u64> = run.metrics.per_epoch.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![0, 1]);
        assert_eq!(run.metrics.per_epoch[0].requests, 1);
        assert_eq!(run.metrics.per_epoch[1].requests, 2);
        assert_eq!(run.applied.len(), 1);
        assert_eq!(run.applied[0].epoch.version, 1);
    }

    #[test]
    fn rejected_mutation_stops_the_daemon_with_context() {
        let svc = service();
        let events = vec![
            DaemonEvent::Requests {
                time: 1,
                seed: 1,
                requests: vec![BatchRequest { target: 0, k: 1 }],
            },
            DaemonEvent::Mutations {
                time: 2,
                // karate club already has 0-1: duplicate insert.
                mutations: vec![EdgeMutation::insert(0, 1)],
            },
        ];
        let err = run_daemon(&svc, &events, &DaemonConfig::default()).unwrap_err();
        assert_eq!(err.event, 1);
        assert!(err.to_string().contains("daemon event #1"));
        assert_eq!(svc.epoch(), 0, "failed batch must not open an epoch");
    }

    #[test]
    fn replay_clock_paces_without_changing_results() {
        let (requests, mutations) = streams();
        let events = multiplex(&requests[..10], 5, &mutations[..2], 2, 3);
        let unpaced = run_daemon(&service(), &events, &DaemonConfig::default()).unwrap();
        let start = Instant::now();
        let paced = run_daemon(
            &service(),
            &events,
            &DaemonConfig {
                // ~1ms per tick: measurable but quick.
                clock: Some(ReplayClock::new(1000.0)),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(2), "pacing must sleep");
        for (a, b) in unpaced.batches.iter().zip(&paced.batches) {
            assert_eq!(a.outcomes, b.outcomes, "pacing must not change results");
        }
    }

    #[test]
    fn metrics_json_shape_is_pinned() {
        // The histogram moved to psr-obs; the wire shape of
        // DaemonMetrics/EpochMetrics must not move with it. Reports and
        // downstream scrapers key on these exact field names and order.
        let svc = service();
        let events = vec![
            DaemonEvent::Requests {
                time: 1,
                seed: 1,
                requests: vec![BatchRequest { target: 0, k: 2 }],
            },
            DaemonEvent::Mutations { time: 2, mutations: vec![EdgeMutation::insert(24, 16)] },
            DaemonEvent::Requests {
                time: 3,
                seed: 2,
                requests: vec![BatchRequest { target: 1, k: 2 }],
            },
        ];
        let run = run_daemon(&svc, &events, &DaemonConfig::default()).unwrap();
        let json = serde_json::to_string(&run.metrics).unwrap();
        assert!(
            json.starts_with(
                "{\"events\":3,\"request_batches\":2,\"mutation_batches\":1,\"requests\":2,"
            ),
            "{json}"
        );
        for key in [
            "\"served\":",
            "\"rejected_for_budget\":",
            "\"rejected_other\":",
            "\"max_queue_depth\":",
            "\"wall_ns\":",
            "\"throughput_rps\":",
            "\"latency\":{\"count\":2,\"p50_ns\":",
            "\"p95_ns\":",
            "\"p99_ns\":",
            "\"max_ns\":",
            "\"per_epoch\":[{\"epoch\":0,\"batches\":1,\"requests\":1,\"latency\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
