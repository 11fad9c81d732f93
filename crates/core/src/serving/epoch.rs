//! The immutable per-epoch snapshot behind RCU-style epoch-pinned reads.
//!
//! An [`EpochState`] freezes everything a request evaluation depends on:
//! the [`DeltaGraph`] view at one graph version, the Δf calibrated for
//! that view, the service configuration, and the per-target
//! candidate/utility cache. The only interior mutability is the cache,
//! and it is *monotone* — entries are pure functions of `(graph, utility,
//! target)` computed on demand, so concurrent readers can only ever agree.
//!
//! `RecommendationService` keeps the current state behind an
//! `RwLock<Arc<EpochState>>` swap point. Readers [`pin`] the current
//! epoch by cloning the `Arc` — from then on they are completely
//! decoupled from writers: `apply_mutations` stages the next epoch on a
//! copy and swaps the pointer, never touching any state a pinned reader
//! can see. In-flight batches drain on the epoch they pinned, new
//! batches pin the new one, and the old state is freed when its last pin
//! drops. Mutation batches therefore never stall the read path, and a
//! pinned batch's results are bit-identical no matter how many epochs
//! race past it.
//!
//! [`pin`]: crate::serving::RecommendationService::pin

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use psr_gen::seed::{rng_from_seed, split_seed};
use psr_graph::{DeltaGraph, Direction, GraphView, NodeId};
use psr_obs::{fields, Telemetry};
use psr_utility::{CandidateSet, UtilityFunction, UtilityVector};

use super::{BatchRequest, DirtyTargets, Epoch, ServeError, Served, ServiceConfig};

/// Records one applied mutation batch into the trace ring
/// (`epoch.apply` with the batch's shape and invalidation footprint) and
/// the epoch counters. A no-op on disabled telemetry; the epoch swap
/// itself happened before this runs, so tracing can never perturb it.
pub(crate) fn trace_epoch_apply(telemetry: &Telemetry, epoch: &Epoch) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.trace().event(
        "epoch.apply",
        fields![
            "version" => epoch.version,
            "insertions" => epoch.insertions,
            "deletions" => epoch.deletions,
            "dirty" => epoch.dirty_targets.len(),
            "invalidated" => epoch.invalidated,
            "compacted" => epoch.compacted,
        ],
    );
    let metrics = telemetry.metrics();
    metrics.counter("epoch.applied").inc();
    metrics.counter("epoch.invalidated_targets").add(epoch.invalidated as u64);
    if epoch.compacted {
        metrics.counter("epoch.compactions").inc();
    }
}

/// A target's per-epoch serving state, computed once and shared by every
/// request about the target until a mutation dirties it.
#[derive(Debug)]
pub(crate) struct TargetState {
    pub(crate) candidates: CandidateSet,
    pub(crate) utilities: UtilityVector,
}

/// One frozen graph epoch: everything request evaluation reads, immutable
/// apart from the monotone per-target cache. See the module docs.
pub(crate) struct EpochState {
    pub(crate) version: u64,
    pub(crate) graph: DeltaGraph,
    pub(crate) sensitivity: f64,
    pub(crate) utility: Arc<dyn UtilityFunction>,
    pub(crate) config: ServiceConfig,
    cache: Mutex<HashMap<NodeId, Arc<TargetState>>>,
}

impl EpochState {
    pub(crate) fn new(
        version: u64,
        graph: DeltaGraph,
        sensitivity: f64,
        utility: Arc<dyn UtilityFunction>,
        config: ServiceConfig,
        cache: HashMap<NodeId, Arc<TargetState>>,
    ) -> Self {
        EpochState { version, graph, sensitivity, utility, config, cache: Mutex::new(cache) }
    }

    /// The target's epoch state: cached when present, computed (and
    /// cached) otherwise. Computation happens outside the cache lock —
    /// two workers racing on one target both compute the same pure value
    /// and the second insert is a no-op.
    pub(crate) fn target_state(&self, target: NodeId) -> Arc<TargetState> {
        if let Some(state) = self.cache.lock().expect("cache lock").get(&target) {
            return Arc::clone(state);
        }
        let candidates = CandidateSet::for_target(&self.graph, target);
        let utilities = self.utility.utilities(&self.graph, target, &candidates);
        let computed = Arc::new(TargetState { candidates, utilities });
        let mut cache = self.cache.lock().expect("cache lock");
        Arc::clone(cache.entry(target).or_insert(computed))
    }

    /// Evaluates a batch on up to `width` threads, in request order:
    /// refused requests (`Some` admission) come back as their refusal;
    /// each admitted one takes its candidate set and utility vector from
    /// the epoch cache and draws its slots from the configured mechanism.
    /// The one evaluation path of `serve_batch_pinned` and the daemon.
    pub(crate) fn evaluate_batch(
        &self,
        requests: &[BatchRequest],
        admissions: &[Option<ServeError>],
        seed: u64,
        width: usize,
    ) -> Vec<Result<Served, ServeError>> {
        crate::par::map(width, requests.len(), |index| {
            if let Some(refusal) = &admissions[index] {
                return Err(refusal.clone());
            }
            let request = &requests[index];
            // Per-request stream keyed by batch index: the width and the
            // scheduling cannot change any request's result, and duplicate
            // targets within a batch get independent draws.
            let mut rng = rng_from_seed(split_seed(seed, 0xBA_0000 + index as u64));

            let state = self.target_state(request.target);
            if state.candidates.is_empty() {
                return Err(ServeError::NoCandidates { target: request.target });
            }
            let config = &self.config;
            let draw = config.mechanism.sample(
                config.engine,
                &state.utilities,
                &state.candidates,
                request.k,
                config.epsilon_per_request,
                self.sensitivity,
                &mut rng,
            );
            Ok(Served {
                target: request.target,
                requested_k: request.k,
                recommendations: draw.picks,
                zero_class_picks: draw.zero_class_picks,
                total_utility: draw.total_utility,
                epsilon_spent: config
                    .mechanism
                    .charge(config.epsilon_per_request, state.candidates.len()),
            })
        })
    }

    /// A copy of the cache with the dirty targets dropped, plus how many
    /// cached entries were actually invalidated. The next epoch carries
    /// over every clean target's state (cheap: the map holds `Arc`s);
    /// this epoch's own cache is untouched, so pinned readers keep theirs.
    pub(crate) fn cache_without(
        &self,
        dirty_targets: &DirtyTargets,
    ) -> (HashMap<NodeId, Arc<TargetState>>, usize) {
        let cache = self.cache.lock().expect("cache lock");
        if let DirtyTargets::All(_) = dirty_targets {
            return (HashMap::new(), cache.len());
        }
        let mut next = cache.clone();
        drop(cache);
        let cached = next.len();
        next.retain(|&t, _| !dirty_targets.contains(t));
        let invalidated = cached - next.len();
        (next, invalidated)
    }

    /// A plain clone of the cache, for epoch handoffs that do not change
    /// the edge set (explicit compaction).
    pub(crate) fn cache_clone(&self) -> HashMap<NodeId, Arc<TargetState>> {
        self.cache.lock().expect("cache lock").clone()
    }
}

/// A pinned read handle on one graph epoch. Cloning is an `Arc` bump;
/// holding a pin keeps that epoch's graph, Δf and cache alive and
/// *frozen* while the service moves on — see the module docs for the RCU
/// lifecycle. The pin reads as a [`GraphView`] of its epoch's graph.
#[derive(Clone)]
pub struct EpochPin {
    pub(crate) state: Arc<EpochState>,
}

impl EpochPin {
    /// The graph version this pin is frozen at.
    pub fn version(&self) -> u64 {
        self.state.version
    }

    /// The Δf calibrated for this epoch's graph.
    pub fn sensitivity(&self) -> f64 {
        self.state.sensitivity
    }

    /// The pinned epoch's graph view (base CSR plus overlay).
    pub fn graph(&self) -> &DeltaGraph {
        &self.state.graph
    }
}

impl std::fmt::Debug for EpochPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochPin")
            .field("version", &self.state.version)
            .field("sensitivity", &self.state.sensitivity)
            .finish_non_exhaustive()
    }
}

impl GraphView for EpochPin {
    fn num_nodes(&self) -> usize {
        self.state.graph.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.state.graph.num_edges()
    }

    fn direction(&self) -> Direction {
        self.state.graph.direction()
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.state.graph.neighbors(v)
    }
}
