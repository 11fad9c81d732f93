//! The two serving workloads: a journalled daemon over the 1M-node
//! LiveJournal-class snapshot and a write-heavy, utility-bound mix on the
//! full-scale wiki-vote graph.
//!
//! After set-up, a run alternates the first two phases in three rounds,
//! so both sample the whole run; all go through public entry points:
//!
//! 1. **Drain** — consecutive chunks of the request/mutation mix are
//!    multiplexed and drained unpaced by `run_daemon` with two workers;
//!    requests per second over the chunks is the throughput.
//! 2. **Open loop** — requests and mutation batches fall due on a fixed
//!    schedule at a fixed offered rate, whatever the service is doing.
//!    Two workers serve request batches with `serve_batch_pinned`; the
//!    dispatching thread applies mutation batches inline with
//!    `apply_mutations`, as the daemon's ingestion thread does. Each
//!    request is timed from when it was due to when its result was
//!    released, each mutation batch from when it was due to when its
//!    epoch was published.
//! 3. **Stage replay** (traced runs only) — the stage functions the
//!    service runs per request (`CandidateSet::for_target`,
//!    `UtilityFunction::utilities`, `topk_with_engine`,
//!    `resolve_zero_class_distinct`) are called and timed one by one on
//!    the last pinned epoch for requests the open loop served.
//!
//! Every served list is checked against the epoch it was pinned to, and
//! after the run the budget journal is reopened and its replayed spend
//! compared with ε × the requests served for every target.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use psr_core::serving::daemon::{multiplex, run_daemon, DaemonConfig};
use psr_core::serving::{
    BatchRequest, BudgetLedger, JournalLedger, RecommendationService, ServeError, Served,
    ServiceConfig,
};
use psr_datasets::presets::{livejournal_like_snapshot, wiki_vote_like, PresetConfig};
use psr_gen::stream::{RequestEvent, StreamEvent};
use psr_gen::{rng_from_seed, split_seed};
use psr_graph::{CompressedCsr, EdgeMutation, GraphBackend, GraphView, NodeId};
use psr_privacy::{resolve_zero_class_distinct, topk_with_engine, TopKEngine};
use psr_utility::{CandidateSet, CommonNeighbors, UtilityFunction, WeightedPaths};

use crate::decorators::{CallStats, LedgerStats, TimedLedger, TimedUtility};
use crate::stats::{mean, median, quantile, windowed_quantile};
use crate::traffic::{EdgeHistory, MutationGen, TargetLaw, TargetSampler};
use crate::{Metrics, RunArgs, RunResult};

/// Which graph a serving workload runs on.
#[derive(Debug, Clone, Copy)]
enum GraphSource {
    /// LiveJournal-class R-MAT preset at this scale, built out of core
    /// into a PSRZ snapshot and served mmap-backed.
    LiveJournalSnapshot(f64),
    /// Full-scale wiki-vote preset as an in-RAM CSR.
    WikiVote,
}

#[derive(Debug, Clone, Copy)]
enum Utility {
    CommonNeighbours,
    WeightedPaths(f64),
}

impl Utility {
    fn build(self) -> Box<dyn UtilityFunction> {
        match self {
            Utility::CommonNeighbours => Box::new(CommonNeighbors),
            Utility::WeightedPaths(gamma) => Box::new(WeightedPaths::paper(gamma)),
        }
    }
}

/// A serving workload's fixed shape. Only the seed varies between runs.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    graph: GraphSource,
    utility: Utility,
    targets: TargetLaw,
    k: usize,
    epsilon: f64,
    /// Requests per admitted batch (one fsync each).
    request_batch: usize,
    /// Edges per mutation batch (one epoch each).
    mutation_batch: usize,
    /// Requests between consecutive mutation batches.
    requests_per_mutation_batch: usize,
    insert_fraction: f64,
    /// Open-loop offered load in requests per second: about half the
    /// drain throughput measured on the defining 2-core box in its slower
    /// hours, so host contention alone does not push the open loop into
    /// overload.
    offered_rps: f64,
    /// Set-ups per run; `setup_s` is their median.
    setup_repeats: usize,
}

/// `lj1m_uniform`: 1,017,990 nodes and ~13.9M arcs, common neighbours,
/// uniform targets, one 8-edge mutation batch per 16 requests (frequent
/// enough for the open loop to time a few dozen epoch publishes per run).
pub const LJ1M_UNIFORM: ServingSpec = ServingSpec {
    graph: GraphSource::LiveJournalSnapshot(0.21),
    utility: Utility::CommonNeighbours,
    targets: TargetLaw::Uniform,
    k: 5,
    epsilon: 1.0,
    request_batch: 1,
    mutation_batch: 8,
    requests_per_mutation_batch: 16,
    insert_fraction: 0.7,
    offered_rps: 20.0,
    setup_repeats: 3,
};

/// `wiki_wp_churn`: 7,115 nodes, weighted paths at γ = 0.005, Zipf
/// targets, small request batches, a 4-edge mutation batch per 32
/// requests.
pub const WIKI_WP_CHURN: ServingSpec = ServingSpec {
    graph: GraphSource::WikiVote,
    utility: Utility::WeightedPaths(0.005),
    targets: TargetLaw::Zipf(1.0),
    k: 5,
    epsilon: 1.0,
    request_batch: 4,
    mutation_batch: 4,
    requests_per_mutation_batch: 32,
    insert_fraction: 0.7,
    offered_rps: 550.0,
    setup_repeats: 9,
};

/// Arc budget of the out-of-core snapshot build (16 bytes per arc).
const SNAPSHOT_ARC_BUDGET: usize = 1 << 20;
const SNAPSHOT_SHARDS: usize = 8;
/// Open-loop latency samples per quantile window: the fewest that leave
/// ten samples beyond a p99.
const LATENCY_WINDOW: usize = 1_000;
/// Drain/open-loop rounds per run.
const ROUNDS: u64 = 3;
/// Worker threads everywhere: the benchmark box has two cores.
const WORKERS: usize = 2;

/// Everything one set-up produced.
struct Setup {
    backend: GraphBackend,
    /// An independent handle on the same graph for the mutation
    /// generator, so generating traffic never warms the service's decode
    /// cache.
    generator_base: Arc<dyn GraphView>,
    targets: Arc<TargetSampler>,
    build_s: f64,
    open_ms: f64,
}

fn set_up(spec: &ServingSpec, seed: u64, work: &Path) -> Setup {
    match spec.graph {
        GraphSource::LiveJournalSnapshot(scale) => {
            let path = work.join("lj.psrz");
            let _ = std::fs::remove_file(&path);
            let start = Instant::now();
            livejournal_like_snapshot(
                PresetConfig::scaled(scale, crate::DATASET_SEED),
                SNAPSHOT_ARC_BUDGET,
                SNAPSHOT_SHARDS,
                &path,
            )
            .expect("building the LiveJournal-class snapshot");
            let build_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let graph = Arc::new(CompressedCsr::open_path(&path).expect("opening the snapshot"));
            let open_ms = start.elapsed().as_secs_f64() * 1e3;
            let generator_base: Arc<dyn GraphView> =
                Arc::new(CompressedCsr::open_path(&path).expect("opening the snapshot"));
            let targets = TargetSampler::new(
                generator_base.as_ref(),
                spec.targets,
                &mut rng_from_seed(split_seed(seed, 0x7A6E)),
            );
            Setup {
                backend: GraphBackend::Compressed(graph),
                generator_base,
                targets: Arc::new(targets),
                build_s,
                open_ms,
            }
        }
        GraphSource::WikiVote => {
            let start = Instant::now();
            let (graph, _) =
                wiki_vote_like(PresetConfig::full(crate::DATASET_SEED)).expect("wiki-vote preset");
            let build_s = start.elapsed().as_secs_f64();
            let graph = Arc::new(graph);
            let targets = TargetSampler::new(
                graph.as_ref(),
                spec.targets,
                &mut rng_from_seed(split_seed(seed, 0x7A6E)),
            );
            Setup {
                backend: GraphBackend::Csr(Arc::clone(&graph)),
                generator_base: graph,
                targets: Arc::new(targets),
                build_s,
                open_ms: 0.0,
            }
        }
    }
}

/// One service under test with everything needed to drive and check it.
struct Lane {
    service: RecommendationService,
    targets: Arc<TargetSampler>,
    seed: u64,
    journal: PathBuf,
    mutations: MutationGen<Arc<dyn GraphView>>,
    history: EdgeHistory,
    /// Requests served per target, to reconcile with the journal.
    served: HashMap<NodeId, u64>,
    /// Set on traced lanes.
    utility_stats: Option<Arc<CallStats>>,
    ledger_stats: Option<Arc<LedgerStats>>,
}

impl Lane {
    fn new(spec: &ServingSpec, setup: &Setup, seed: u64, journal: PathBuf, traced: bool) -> Self {
        let _ = std::fs::remove_file(&journal);
        let config = ServiceConfig {
            epsilon_per_request: spec.epsilon,
            budget_per_target: f64::INFINITY,
            threads: Some(1),
            engine: TopKEngine::Gumbel,
            ..Default::default()
        };
        let ledger: Box<dyn BudgetLedger> =
            Box::new(JournalLedger::open(&journal, f64::INFINITY).expect("opening the journal"));
        let utility = spec.utility.build();
        let (utility, ledger, utility_stats, ledger_stats): (
            Box<dyn UtilityFunction>,
            Box<dyn BudgetLedger>,
            _,
            _,
        ) = if traced {
            let (utility, u_stats) = TimedUtility::wrap(utility);
            let (ledger, l_stats) = TimedLedger::wrap(ledger);
            (Box::new(utility), Box::new(ledger), Some(u_stats), Some(l_stats))
        } else {
            (utility, ledger, None, None)
        };
        let service = RecommendationService::with_backend_and_ledger(
            setup.backend.clone(),
            utility,
            config,
            ledger,
        );
        Lane {
            service,
            targets: Arc::clone(&setup.targets),
            seed,
            journal,
            mutations: MutationGen::new(
                Arc::clone(&setup.generator_base),
                spec.insert_fraction,
                split_seed(seed, 0x3D7A),
            ),
            history: EdgeHistory::new(setup.generator_base.is_directed()),
            served: HashMap::new(),
            utility_stats,
            ledger_stats,
        }
    }
}

/// Checks one served list against the graph of the epoch it was pinned
/// to: distinct, never the target or one of its out-neighbours, and
/// exactly min(k, |candidates|) long.
fn list_ok(
    served: &Served,
    k: usize,
    num_nodes: usize,
    degree: usize,
    had_edge: impl Fn(NodeId, NodeId) -> bool,
) -> bool {
    let recs = &served.recommendations;
    let candidates = num_nodes - 1 - degree;
    let mut seen = recs.clone();
    seen.sort_unstable();
    seen.dedup();
    recs.len() == k.min(candidates)
        && seen.len() == recs.len()
        && recs.iter().all(|&r| r != served.target && !had_edge(served.target, r))
}

/// Running tallies of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: u64,
    zero_slots: u64,
    served: u64,
}

impl Tally {
    fn outcome(
        &mut self,
        lane_served: &mut HashMap<NodeId, u64>,
        outcome: &Result<Served, ServeError>,
        ok: impl FnOnce(&Served) -> bool,
    ) {
        self.attempted += 1;
        match outcome {
            Ok(served) => {
                self.served += 1;
                self.zero_slots += served.zero_class_picks as u64;
                *lane_served.entry(served.target).or_default() += 1;
                if !ok(served) {
                    self.violations += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
    }
}

/// Drain-phase figures of one lane.
#[derive(Default)]
struct DrainFigures {
    requests: u64,
    wall_s: f64,
    /// Requests per second of each chunk.
    chunk_rps: Vec<f64>,
    max_queue_depth: usize,
    epochs: Vec<(usize, usize, bool)>,
}

/// Drains one chunk of the mix through `run_daemon`.
fn drain_chunk(
    spec: &ServingSpec,
    lane: &mut Lane,
    chunk: u64,
    requests: usize,
    tally: &mut Tally,
    figures: &mut DrainFigures,
) {
    let (seed, targets) = (lane.seed, Arc::clone(&lane.targets));
    let mut rng = rng_from_seed(split_seed(seed, 0xC4_0000 + chunk));
    // Requests tick every 2 logical units; mutation batches are spread
    // evenly over the chunk's time span (not front-loaded).
    let request_events: Vec<RequestEvent> = (0..requests)
        .map(|i| RequestEvent {
            time: 2 * i as u64 + 1,
            target: targets.sample(&mut rng),
            k: spec.k,
        })
        .collect();
    let batches = (requests / spec.requests_per_mutation_batch).max(1);
    let span = 2 * requests as u64;
    let mut mutation_events: Vec<StreamEvent> = Vec::new();
    for b in 0..batches as u64 {
        let time = (2 * b + 1) * span / (2 * batches as u64);
        for mutation in lane.mutations.batch(spec.mutation_batch) {
            mutation_events.push(StreamEvent { time, mutation });
        }
    }
    let events = multiplex(
        &request_events,
        spec.request_batch,
        &mutation_events,
        spec.mutation_batch,
        split_seed(seed, 0xDA_0000 + chunk),
    );
    let config =
        DaemonConfig { queue_capacity: 8, workers: Some(WORKERS), clock: None, heartbeat: None };
    let start = Instant::now();
    let run = run_daemon(&lane.service, &events, &config);
    let wall_s = start.elapsed().as_secs_f64();
    figures.wall_s += wall_s;
    let run = match run {
        Ok(run) => run,
        Err(error) => {
            eprintln!("daemon stopped: {error}");
            tally.attempted += requests as u64;
            tally.failed += requests as u64;
            return;
        }
    };
    figures.requests += run.metrics.requests as u64;
    figures.chunk_rps.push(run.metrics.requests as f64 / wall_s);
    figures.max_queue_depth = figures.max_queue_depth.max(run.metrics.max_queue_depth);
    let mut mutation_batches = events.iter().filter_map(|e| match e {
        psr_core::serving::daemon::DaemonEvent::Mutations { mutations, .. } => Some(mutations),
        _ => None,
    });
    for applied in &run.applied {
        let mutations = mutation_batches.next().expect("one applied epoch per mutation batch");
        lane.history.record(applied.epoch.version, mutations);
        figures.epochs.push((
            applied.epoch.dirty_targets.len(),
            applied.epoch.invalidated,
            applied.epoch.compacted,
        ));
    }
    tally.attempted += run.applied.len() as u64;
    let now = lane.service.pin();
    let num_nodes = now.graph().num_nodes();
    for batch in &run.batches {
        for outcome in &batch.outcomes {
            let history = &lane.history;
            tally.outcome(&mut lane.served, outcome, |served| {
                let degree = history.degree_at(&now, batch.epoch, served.target);
                list_ok(served, spec.k, num_nodes, degree, |u, v| {
                    history.had_edge(&now, batch.epoch, u, v)
                })
            });
        }
    }
}

/// One item the open-loop dispatcher hands to the workers.
struct Due {
    due: Instant,
    seed: u64,
    requests: Vec<BatchRequest>,
}

/// A request batch a worker finished, with each result's output check.
struct Completed {
    start: Instant,
    end: Instant,
    item: Due,
    outcomes: Vec<Result<Served, ServeError>>,
    valid: Vec<bool>,
}

/// What the open loop measured on one lane.
#[derive(Default)]
struct OpenLoopFigures {
    latencies_ms: Vec<f64>,
    service_us: Vec<f64>,
    publish_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    epochs: Vec<(usize, usize, bool)>,
    lag_ms: Vec<f64>,
    /// `(target, k)` of served requests, for the stage replay.
    served_requests: Vec<(NodeId, usize)>,
}

impl OpenLoopFigures {
    fn absorb(&mut self, other: OpenLoopFigures) {
        self.latencies_ms.extend(other.latencies_ms);
        self.service_us.extend(other.service_us);
        self.publish_ms.extend(other.publish_ms);
        self.apply_ms.extend(other.apply_ms);
        self.epochs.extend(other.epochs);
        self.lag_ms.extend(other.lag_ms);
        self.served_requests.extend(other.served_requests);
    }
}

/// Serves the mix on a fixed schedule for `duration` (one of a run's
/// open-loop windows, numbered by `round`).
fn open_loop(
    spec: &ServingSpec,
    lane: &mut Lane,
    round: u64,
    duration: Duration,
    tally: &mut Tally,
) -> OpenLoopFigures {
    let queue: Mutex<(VecDeque<Due>, bool)> = Mutex::new((VecDeque::new(), false));
    let ready = Condvar::new();
    let mut figures = OpenLoopFigures::default();
    let request_gap = Duration::from_secs_f64(spec.request_batch as f64 / spec.offered_rps);
    let mutation_gap =
        Duration::from_secs_f64(spec.requests_per_mutation_batch as f64 / spec.offered_rps);
    let (seed, targets) = (lane.seed, Arc::clone(&lane.targets));
    let mut rng = rng_from_seed(split_seed(seed, 0x0E_0000 + round));

    let service = &lane.service;
    let worker_results: Vec<Vec<Completed>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (queue, ready) = (&queue, &ready);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let item = {
                            let mut state = queue.lock().expect("open-loop queue");
                            loop {
                                if let Some(item) = state.0.pop_front() {
                                    break Some(item);
                                }
                                if state.1 {
                                    break None;
                                }
                                state = ready.wait(state).expect("open-loop queue");
                            }
                        };
                        let Some(item) = item else { break };
                        let pin = service.pin();
                        let start = Instant::now();
                        let outcomes = service.serve_batch_pinned(&pin, &item.requests, item.seed);
                        let end = Instant::now();
                        // Check against the pinned epoch now: holding
                        // pins would keep every old epoch alive.
                        let graph = pin.graph();
                        let valid = item
                            .requests
                            .iter()
                            .zip(&outcomes)
                            .map(|(request, outcome)| match outcome {
                                Ok(served) => list_ok(
                                    served,
                                    request.k,
                                    graph.num_nodes(),
                                    graph.degree(request.target),
                                    |u, v| graph.has_edge(u, v),
                                ),
                                Err(_) => true,
                            })
                            .collect();
                        done.push(Completed { start, end, item, outcomes, valid });
                    }
                    done
                })
            })
            .collect();

        // Dispatch on this thread: requests to the workers, mutation
        // batches applied inline.
        let start = Instant::now();
        let (mut next_request, mut next_mutation) = (0u32, 0u32);
        loop {
            let request_due = start + request_gap * next_request;
            let mutation_due = start + mutation_gap.mul_f64(next_mutation as f64 + 0.5);
            let due = request_due.min(mutation_due);
            if due >= start + duration {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if mutation_due < request_due {
                let batch: Vec<EdgeMutation> = lane.mutations.batch(spec.mutation_batch);
                let applying = Instant::now();
                figures.lag_ms.push((applying - mutation_due).as_secs_f64() * 1e3);
                tally.attempted += 1;
                match service.apply_mutations(&batch) {
                    Ok(epoch) => {
                        let end = Instant::now();
                        figures.publish_ms.push((end - mutation_due).as_secs_f64() * 1e3);
                        figures.apply_ms.push((end - applying).as_secs_f64() * 1e3);
                        figures.epochs.push((
                            epoch.dirty_targets.len(),
                            epoch.invalidated,
                            epoch.compacted,
                        ));
                        lane.history.record(epoch.version, &batch);
                    }
                    Err(error) => {
                        eprintln!("mutation batch rejected: {error}");
                        tally.failed += 1;
                    }
                }
                next_mutation += 1;
            } else {
                let requests = (0..spec.request_batch)
                    .map(|_| BatchRequest { target: targets.sample(&mut rng), k: spec.k })
                    .collect();
                let item = Due {
                    due: request_due,
                    seed: split_seed(seed, (0x0F_0000 + round) << 32 | next_request as u64),
                    requests,
                };
                queue.lock().expect("open-loop queue").0.push_back(item);
                ready.notify_one();
                figures.lag_ms.push(request_due.elapsed().as_secs_f64() * 1e3);
                next_request += 1;
            }
        }
        queue.lock().expect("open-loop queue").1 = true;
        ready.notify_all();
        workers.into_iter().map(|w| w.join().expect("open-loop worker")).collect()
    });

    let mut completed: Vec<Completed> = worker_results.into_iter().flatten().collect();
    completed.sort_by_key(|done| done.item.due);
    for done in completed {
        let Completed { start, end, item, outcomes, valid } = done;
        let per_request_us = (end - start).as_secs_f64() * 1e6 / item.requests.len() as f64;
        let latency_ms = (end - item.due).as_secs_f64() * 1e3;
        for ((request, outcome), valid) in item.requests.iter().zip(&outcomes).zip(valid) {
            figures.latencies_ms.push(latency_ms);
            figures.service_us.push(per_request_us);
            tally.outcome(&mut lane.served, outcome, |_| valid);
            if outcome.is_ok() {
                figures.served_requests.push((request.target, request.k));
            }
        }
    }
    figures
}

/// Per-request stage timings of a stage replay, in microseconds.
#[derive(Default)]
pub struct StageFigures {
    candidates_us: Vec<f64>,
    score_us: Vec<f64>,
    topk_us: Vec<f64>,
    zero_class_us: Vec<f64>,
}

impl StageFigures {
    /// Writes the stage means. `score_us` overrides the replay's own
    /// utility timing where the service's decorated utility measured it
    /// in place.
    pub fn report(&self, metrics: &mut Metrics, score_us: Option<f64>) {
        metrics.layer("utility.candidates_us", mean(&self.candidates_us));
        metrics.layer("utility.score_us", score_us.unwrap_or_else(|| mean(&self.score_us)));
        metrics.layer("privacy.topk_us", mean(&self.topk_us));
        metrics.layer("privacy.zero_class_us", mean(&self.zero_class_us));
    }
}

/// Calls the serving stage functions one by one, exactly as the service
/// chains them for one request, for the given requests until `budget`
/// runs out (at least eight requests).
fn replay_stages(
    graph: &dyn GraphView,
    utility: &dyn UtilityFunction,
    sensitivity: f64,
    epsilon: f64,
    requests: &[(NodeId, usize)],
    seed: u64,
    budget: Duration,
) -> StageFigures {
    let mut figures = StageFigures::default();
    let start = Instant::now();
    for (i, &(target, k)) in requests.iter().enumerate() {
        if start.elapsed() >= budget && i >= 8 {
            break;
        }
        let mut rng = rng_from_seed(split_seed(seed, 0x5E_0000 + i as u64));
        let t0 = Instant::now();
        let candidates = CandidateSet::for_target(graph, target);
        let t1 = Instant::now();
        let u = utility.utilities(graph, target, &candidates);
        let t2 = Instant::now();
        let top = topk_with_engine(
            TopKEngine::Gumbel,
            &u,
            k.min(u.len()),
            epsilon,
            sensitivity,
            &mut rng,
        );
        let t3 = Instant::now();
        let zero_slots = top.picks.iter().filter(|p| p.is_none()).count();
        let picks = resolve_zero_class_distinct(zero_slots, &u, &candidates, &mut rng);
        let t4 = Instant::now();
        std::hint::black_box((&top, &picks));
        figures.candidates_us.push((t1 - t0).as_secs_f64() * 1e6);
        figures.score_us.push((t2 - t1).as_secs_f64() * 1e6);
        figures.topk_us.push((t3 - t2).as_secs_f64() * 1e6);
        figures.zero_class_us.push((t4 - t3).as_secs_f64() * 1e6);
    }
    figures
}

/// Stage replay of single-slot common-neighbour requests for uniform
/// targets of `graph` (the frontier plan's utility, k and ε = 1).
pub fn replay_sampled(graph: &dyn GraphView, seed: u64, budget: Duration) -> StageFigures {
    let mut rng = rng_from_seed(split_seed(seed, 0x5A_0000));
    let targets = TargetSampler::new(graph, TargetLaw::Uniform, &mut rng);
    let requests: Vec<(NodeId, usize)> =
        (0..1 << 16).map(|_| (targets.sample(&mut rng), 1)).collect();
    let sensitivity = CommonNeighbors
        .sensitivity(graph)
        .expect("common neighbours has an analytic sensitivity")
        .value(psr_utility::SensitivityNorm::LInf);
    replay_stages(graph, &CommonNeighbors, sensitivity, 1.0, &requests, seed, budget)
}

/// Reopens a lane's budget journal and checks that the replayed spend of
/// every served target is exactly ε × its served requests.
fn journal_reconciles(spec: &ServingSpec, journal: &Path, served: &HashMap<NodeId, u64>) -> bool {
    let ledger = match JournalLedger::open(journal, f64::INFINITY) {
        Ok(ledger) => ledger,
        Err(error) => {
            eprintln!("reopening {}: {error}", journal.display());
            return false;
        }
    };
    let mismatches = served
        .iter()
        .filter(|&(&target, &count)| ledger.spent(target) != spec.epsilon * count as f64)
        .count();
    if mismatches > 0 {
        eprintln!("{mismatches} targets' journalled spend differs from ε × served");
    }
    mismatches == 0
}

pub fn run(spec: &ServingSpec, args: &RunArgs, work: &Path) -> RunResult {
    // Set-up, several times; the last one is used.
    let mut setup_times = Vec::new();
    let mut built: Option<(Setup, Vec<Lane>)> = None;
    for _ in 0..spec.setup_repeats {
        // Free the previous set-up (and close its journals) first.
        drop(built.take());
        let start = Instant::now();
        let setup = set_up(spec, args.seed, work);
        let mut lanes =
            vec![Lane::new(spec, &setup, args.seed, work.join("ledger-0.journal"), args.trace)];
        if args.trace {
            // An undecorated twin on identical traffic measures what the
            // decorators cost.
            lanes.push(Lane::new(spec, &setup, args.seed, work.join("ledger-1.journal"), false));
        }
        setup_times.push(start.elapsed().as_secs_f64());
        built = Some((setup, lanes));
    }
    let (setup, mut lanes) = built.expect("at least one set-up");
    let graph_nodes = setup.generator_base.num_nodes();
    let graph_arcs = match &setup.backend {
        GraphBackend::Compressed(z) => z.num_arcs(),
        GraphBackend::Csr(g) => g.num_arcs(),
        GraphBackend::Sharded(_) => 0,
    };

    let total = Duration::from_secs(args.seconds);
    let (drain_share, open_share) = if args.trace { (0.35, 0.5) } else { (0.35, 0.65) };
    let mut tally = Tally::default();

    // Drain and open-loop phases alternate over the run in rounds, so
    // both sample the whole run rather than its first and second half.
    let mut drains: Vec<DrainFigures> = lanes.iter().map(|_| DrainFigures::default()).collect();
    let mut open = OpenLoopFigures::default();
    let mut chunk_requests = 4 * spec.requests_per_mutation_batch;
    let mut chunk = 0u64;
    for round in 0..ROUNDS {
        // Unpaced drains, chunk by chunk (A/B-alternating between the
        // decorated lane and its twin when traced).
        let drain_budget = total.mul_f64(drain_share / ROUNDS as f64);
        let phase = Instant::now();
        let first = chunk;
        while phase.elapsed() < drain_budget || chunk == first {
            for (lane, figures) in lanes.iter_mut().zip(drains.iter_mut()) {
                drain_chunk(spec, lane, chunk, chunk_requests, &mut tally, figures);
            }
            // Aim for chunks of about a second each.
            let rps = drains[0].requests as f64 / drains[0].wall_s.max(1e-9);
            let unit = spec.requests_per_mutation_batch;
            chunk_requests = (((rps / unit as f64).round() as usize).max(1) * unit).min(1 << 16);
            chunk += 1;
        }
        // The open loop runs on the (decorated, when traced) first lane.
        let window = total.mul_f64(open_share / ROUNDS as f64);
        open.absorb(open_loop(spec, &mut lanes[0], round, window, &mut tally));
    }

    // Phase 3 (traced): stage replay on the last epoch.
    let stages = if args.trace {
        let pin = lanes[0].service.pin();
        let replay_seed = split_seed(args.seed, 0x5E);
        let requests: Vec<(NodeId, usize)> = open.served_requests.iter().rev().copied().collect();
        let utility = spec.utility.build();
        Some(replay_stages(
            pin.graph(),
            utility.as_ref(),
            pin.sensitivity(),
            spec.epsilon,
            &requests,
            replay_seed,
            total.mul_f64(0.15),
        ))
    } else {
        None
    };

    let cache_stats = setup.backend.cache_stats();
    let peak_rss_mb = crate::stats::peak_rss_mb();

    // Output checks: per-list violations were tallied; now the journals.
    let mut journals_ok = true;
    let lane_facts: Vec<_> = lanes
        .into_iter()
        .map(|lane| {
            let Lane { service, journal, served, utility_stats, ledger_stats, .. } = lane;
            drop(service);
            journals_ok &= journal_reconciles(spec, &journal, &served);
            (utility_stats, ledger_stats)
        })
        .collect();
    let correct = tally.violations == 0 && journals_ok;
    if tally.violations > 0 {
        eprintln!("{} served lists violated the output contract", tally.violations);
    }

    // Interference from other tenants of a shared host only ever slows a
    // chunk down, so the upper quartile of the chunks' rates estimates
    // the capacity (and latency quantiles come from the calmer windows).
    let throughput = quantile(&drains[0].chunk_rps, 0.75);
    let mut metrics = Metrics::default();
    metrics.e2e("throughput_per_s", throughput);
    metrics.e2e("latency_p50_ms", windowed_quantile(&open.latencies_ms, 0.5, LATENCY_WINDOW));
    metrics.e2e("latency_p99_ms", windowed_quantile(&open.latencies_ms, 0.99, LATENCY_WINDOW));
    metrics.e2e("publish_p50_ms", median(&open.publish_ms));
    metrics.e2e("setup_s", median(&setup_times));
    metrics.e2e("peak_rss_mb", peak_rss_mb);

    let epochs: Vec<&(usize, usize, bool)> =
        drains[0].epochs.iter().chain(open.epochs.iter()).collect();
    let mean_of = |f: fn(&(usize, usize, bool)) -> f64| {
        mean(&epochs.iter().map(|e| f(e)).collect::<Vec<_>>())
    };
    let served_requests = (drains[0].requests as usize + open.latencies_ms.len()) as f64;
    if let (Some(stages), Some((Some(utility), Some(ledger)))) = (&stages, lane_facts.first()) {
        stages.report(&mut metrics, Some(utility.mean_us()));
        let candidates_us = mean(&stages.candidates_us);
        let topk_us = mean(&stages.topk_us);
        let zero_class_us = mean(&stages.zero_class_us);
        let score_us = utility.mean_us();
        let misses_per_request = utility.calls() as f64 / served_requests;
        let ledger_us_per_request =
            (ledger.charge.total_us() + ledger.sync.total_us()) / served_requests;
        let request_us = mean(&open.service_us);
        let attributed = (candidates_us + score_us) * misses_per_request
            + topk_us
            + zero_class_us
            + ledger_us_per_request;
        let plain_throughput = quantile(&drains[1].chunk_rps, 0.75);
        if let Some(cache) = cache_stats {
            let reads = (cache.hits + cache.misses).max(1) as f64;
            metrics.layer("graph.decode_cache_hit_ratio", cache.hits as f64 / reads);
            metrics.layer("graph.decode_cache_mb", cache.cached_bytes as f64 / (1 << 20) as f64);
        }
        metrics.layer("graph.build_s", setup.build_s);
        metrics.layer("graph.open_ms", setup.open_ms);
        metrics.layer("serving.cache_hit_ratio", 1.0 - misses_per_request);
        metrics.layer(
            "privacy.zero_slots_per_request",
            tally.zero_slots as f64 / tally.served.max(1) as f64,
        );
        metrics.layer("ledger.charge_us", ledger.charge.mean_us());
        metrics.layer("ledger.sync_us", ledger.sync.mean_us());
        metrics.layer("ledger.syncs", ledger.sync.calls() as f64);
        metrics.layer("epoch.apply_ms", median(&open.apply_ms));
        metrics.layer("epoch.dirty_targets", mean_of(|e| e.0 as f64));
        metrics.layer("epoch.invalidated", mean_of(|e| e.1 as f64));
        metrics.layer("epoch.compactions", epochs.iter().filter(|e| e.2).count() as f64);
        metrics.layer("daemon.max_queue_depth", drains[0].max_queue_depth as f64);
        metrics.layer("serving.request_us", request_us);
        metrics.layer("serving.unattributed_us", request_us - attributed);
        metrics.layer("trace.overhead_pct", (plain_throughput / throughput - 1.0) * 100.0);
        metrics.layer("error_rate", tally.failed as f64 / tally.attempted.max(1) as f64);
        metrics.detail("stage_replay_requests", stages.candidates_us.len().to_string());
    }

    metrics.detail(
        "setup_s_each",
        format!("[{}]", setup_times.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")),
    );
    metrics.detail("graph_nodes", graph_nodes.to_string());
    metrics.detail("graph_arcs", graph_arcs.to_string());
    metrics.detail("drain_requests", drains[0].requests.to_string());
    metrics.detail("open_loop_samples", open.latencies_ms.len().to_string());
    metrics.detail("open_loop_offered_rps", spec.offered_rps.to_string());
    metrics.detail("epoch_publish_samples", open.publish_ms.len().to_string());
    metrics.detail("generator_lag_p99_ms", quantile(&open.lag_ms, 0.99).to_string());
    metrics.detail("setup_repeats", spec.setup_repeats.to_string());

    RunResult { correct, attempted: tally.attempted, failed: tally.failed, metrics }
}
