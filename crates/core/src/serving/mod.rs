//! Batch recommendation serving: many `(target, k)` requests against one
//! shared graph, under per-target privacy budgets, across graph epochs —
//! structured so the service can run as an always-on daemon.
//!
//! The [`RecommendationService`] is the one place a recommendation is
//! drawn: every mechanism of the paper (Definitions 5–7, one
//! [`psr_privacy::Mechanism`]) is served through it, and a single query
//! is a one-request batch ([`RecommendationService::serve_one`]). Real
//! workloads (Appendix A's "multiple recommendations"; the measurement
//! setting of Laro et al. 2023) look like bursts of requests, several
//! slots per target, a *cumulative* privacy budget that must eventually
//! say no — and a social graph that keeps mutating underneath, while the
//! service keeps answering. The service packages that deployment shape
//! in three layers:
//!
//! * **`epoch` — RCU-style epoch-pinned reads.** All read state (the
//!   [`psr_graph::DeltaGraph`] view, the calibrated Δf, the per-target
//!   candidate/utility cache) is frozen into an immutable per-epoch
//!   snapshot behind an atomic swap point. Readers
//!   [`pin`](RecommendationService::pin) an epoch and are from then on
//!   untouched by writers: [`RecommendationService::apply_mutations`]
//!   takes `&self`, stages the next epoch on a copy, and swaps the
//!   pointer — in-flight batches drain on the epoch they pinned with
//!   bit-identical results, and mutation batches never stall the read
//!   path. Writers serialise on a staging lock; readers never block.
//! * **`ledger` — a persistent budget ledger.** Budget admission runs
//!   through the [`BudgetLedger`] trait; [`JournalLedger`] is the
//!   append-only on-disk implementation whose replay makes per-target ε
//!   spend survive restarts — spend is the one piece of state that must
//!   never reset. Charges are fsynced once per admitted batch *before*
//!   any result is released.
//! * **[`daemon`] — the ingestion loop.** [`daemon::run_daemon`]
//!   multiplexes timestamped request and mutation streams
//!   (`psr_gen::stream`) through its job workers with a bounded queue
//!   and backpressure, recording per-epoch latency histograms,
//!   throughput, queue depth and budget-rejection counts. The one-shot
//!   `psr serve` path is the same loop run without pacing, drained to
//!   completion.
//!
//! Serving semantics within one epoch: parallel evaluation
//! ([`crate::par`]) with per-request RNG streams (bit-identical across
//! thread counts), per-target candidate/utility caching, one
//! [`psr_privacy::Mechanism::sample`] per request (the exponential
//! mechanism peels `k` slots with the configured top-`k` engine at ε/k
//! each; Laplace and smoothing serve one slot), and admission-time budget
//! enforcement with typed refusals. The charge comes from the mechanism
//! ([`psr_privacy::Mechanism::charge`]). Mutation batches are atomic
//! all-or-nothing, invalidate exactly the targets within the utility's
//! invalidation radius of a mutated endpoint, and fold the overlay into a
//! fresh CSR base when it covers more than a quarter of the nodes.
//!
//! # ε budgets across epochs
//!
//! Budgets are **per target, across graph versions and process
//! restarts**: mutating the graph neither refunds nor resets anyone's
//! spend, and with a [`JournalLedger`] neither does killing the daemon.
//! This matches the paper's per-node guarantee — differential privacy
//! composes over *queries about a node*, and each applied mutation moves
//! the graph to an edge-adjacent neighbour in the sense of Definition 1,
//! not to a fresh database. A deployment that wants periodic budget
//! refresh keeps the explicit [`RecommendationService::reset_budgets`]
//! epoch-rollover call.

mod budget;
pub mod daemon;
mod epoch;
pub mod journal;
mod ledger;

pub use budget::{BudgetAccountant, BudgetExceeded};
pub use epoch::EpochPin;
pub use ledger::{BudgetLedger, JournalLedger};

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

use epoch::EpochState;
use psr_graph::{
    DeltaGraph, EdgeMutation, Graph, GraphBackend, GraphError, GraphView, MutationOp, NodeId,
};
use psr_obs::{fields, Counter, SpanGuard, Telemetry};
use psr_privacy::{Mechanism, TopKEngine};
use psr_utility::CandidateSet;
use psr_utility::{SensitivityNorm, UtilityFunction};
use serde::{Deserialize, Serialize};

/// One entry of a serving batch: `k` recommendation slots for `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// The node asking for recommendations.
    pub target: NodeId,
    /// How many distinct recommendations to produce.
    pub k: usize,
}

/// Configuration of a [`RecommendationService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Which mechanism draws the recommendations (Definitions 5–7).
    pub mechanism: Mechanism,
    /// Privacy budget ε of one request (split ε/k across its `k` slots).
    /// The exponential and Laplace mechanisms charge it; smoothing
    /// ignores it and charges Theorem 5's ε for its `x` instead.
    pub epsilon_per_request: f64,
    /// Total ε each target may consume over the service's lifetime
    /// (`f64::INFINITY` disables enforcement).
    pub budget_per_target: f64,
    /// Which norm reading of footnote 5's `Δf` calibrates the mechanism.
    pub sensitivity_norm: SensitivityNorm,
    /// Override for `Δf` when the utility reports no analytic bound.
    pub sensitivity_override: Option<f64>,
    /// The service's total thread budget; `None` = available
    /// parallelism. [`RecommendationService::serve_batch`] fans each batch
    /// across all of them; [`daemon::run_daemon`] splits them evenly
    /// among its concurrently draining jobs (see
    /// [`daemon::DaemonConfig::workers`]). Results never depend on it.
    pub threads: Option<usize>,
    /// Which top-`k` sampler serves the slots. Both engines draw from the
    /// same distribution (chi-square-pinned); Gumbel is the O(|C| + k log
    /// k) default, Peel the k-round reference engine.
    pub engine: TopKEngine,
}

impl ServiceConfig {
    /// The Δf this configuration calibrates for `view`: the override if
    /// set, else the utility's sensitivity under the configured norm.
    ///
    /// # Panics
    /// Panics if the utility reports no sensitivity and none is
    /// overridden.
    pub fn sensitivity(&self, utility: &dyn UtilityFunction, view: &dyn GraphView) -> f64 {
        self.sensitivity_override
            .or_else(|| utility.sensitivity(view).map(|s| s.value(self.sensitivity_norm)))
            .expect("utility reports no sensitivity and no override was given")
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            mechanism: Mechanism::Exponential,
            epsilon_per_request: 1.0,
            // Ten unit-ε requests per target before refusal: a concrete
            // stance on the cumulative budget Appendix A leaves open.
            budget_per_target: 10.0,
            sensitivity_norm: SensitivityNorm::LInf,
            sensitivity_override: None,
            threads: None,
            engine: TopKEngine::default(),
        }
    }
}

/// A successfully served request.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The target the recommendations are for.
    pub target: NodeId,
    /// The `k` that was requested (the answer may be shorter when the
    /// candidate set is smaller).
    pub requested_k: usize,
    /// Distinct recommended nodes, in slot order.
    pub recommendations: Vec<NodeId>,
    /// How many slots fell into the zero-utility class (resolved to
    /// concrete uniform members of the class).
    pub zero_class_picks: usize,
    /// Sum of the true utilities of the recommended slots.
    pub total_utility: f64,
    /// ε charged against the target's budget for this request.
    pub epsilon_spent: f64,
}

/// Why a request of a batch was not served.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The target's cumulative ε budget cannot cover this request. The
    /// request was *not* charged.
    BudgetExhausted {
        /// The refused target.
        target: NodeId,
        /// ε the request needed.
        requested: f64,
        /// ε still available for the target.
        remaining: f64,
    },
    /// The target id is not a node of the served graph (not charged).
    UnknownTarget {
        /// The refused target.
        target: NodeId,
        /// Number of nodes in the served graph.
        num_nodes: usize,
    },
    /// `k` was zero, or above one under a single-draw mechanism (Laplace,
    /// smoothing). Not charged.
    InvalidK {
        /// The refused target.
        target: NodeId,
        /// The requested slot count.
        k: usize,
    },
    /// The target is connected to every other node, so no candidate
    /// exists. The request *was* charged: deciding there is nothing to
    /// recommend still queries the graph.
    NoCandidates {
        /// The refused target.
        target: NodeId,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BudgetExhausted { target, requested, remaining } => write!(
                f,
                "target {target}: privacy budget exhausted \
                 (requested ε = {requested}, remaining ε = {remaining})"
            ),
            ServeError::UnknownTarget { target, num_nodes } => {
                write!(f, "target {target}: not a node of this graph ({num_nodes} nodes)")
            }
            ServeError::InvalidK { target, k: 0 } => {
                write!(f, "target {target}: k must be at least 1")
            }
            ServeError::InvalidK { target, k } => write!(
                f,
                "target {target}: k = {k}, but the laplace and smoothing mechanisms serve \
                 exactly one slot"
            ),
            ServeError::NoCandidates { target } => {
                write!(f, "target {target}: no candidates (fully connected target)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a mutation batch was refused. The batch is atomic: on error the
/// service's graph, epoch, caches and budgets are exactly as before the
/// call.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationError {
    /// A mutation in the batch could not be applied.
    Rejected {
        /// Position of the offending mutation within the batch.
        index: usize,
        /// The offending mutation.
        mutation: EdgeMutation,
        /// What the graph layer objected to (duplicate insert, missing
        /// delete, self-loop, unknown endpoint).
        source: GraphError,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::Rejected { index, mutation, source } => {
                write!(f, "mutation #{index} {mutation} rejected: {source}")
            }
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Rejected { source, .. } => Some(source),
        }
    }
}

/// Summary of one applied mutation batch: what changed and what it
/// invalidated. Returned by [`RecommendationService::apply_mutations`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    /// The graph version after this batch (the service starts at 0 and
    /// each successful batch increments it).
    pub version: u64,
    /// Edge insertions in the batch.
    pub insertions: usize,
    /// Edge deletions in the batch.
    pub deletions: usize,
    /// Targets whose utility state may differ in the new epoch: every
    /// node within the utility's invalidation radius of a mutated
    /// endpoint (pre- or post-mutation). All nodes when the radius is
    /// unbounded or the graph is directed.
    pub dirty_targets: DirtyTargets,
    /// Cached target states actually dropped (≤ `dirty_targets.len()`).
    pub invalidated: usize,
    /// Whether the overlay was folded back into a fresh CSR base after
    /// this batch (reads are unaffected; `shared_graph` identity changes).
    pub compacted: bool,
}

/// The targets an epoch dirtied: every node, or a bitset. "Every node"
/// is one number, so an epoch that dirties a whole graph of millions
/// costs nothing to report; a ball costs one bit per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirtyTargets {
    /// All `0..n` nodes of a graph with `n` nodes.
    All(usize),
    /// The nodes whose bit `v % 64` of word `v / 64` is set, and their count.
    Marked(Vec<u64>, usize),
}

impl DirtyTargets {
    /// Number of dirty targets.
    pub fn len(&self) -> usize {
        match self {
            DirtyTargets::All(n) | DirtyTargets::Marked(_, n) => *n,
        }
    }

    /// Whether no target is dirty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `target` is dirty.
    pub fn contains(&self, target: NodeId) -> bool {
        let t = target as usize;
        match self {
            DirtyTargets::All(n) => t < *n,
            DirtyTargets::Marked(bits, _) => {
                bits.get(t / 64).is_some_and(|w| w >> (t % 64) & 1 == 1)
            }
        }
    }

    /// The dirty targets in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (all, bits) = match self {
            DirtyTargets::All(n) => (0..*n, &[][..]),
            DirtyTargets::Marked(bits, _) => (0..0, bits.as_slice()),
        };
        let marked = (0..bits.len() * 64).filter(|&v| bits[v / 64] >> (v % 64) & 1 == 1);
        all.chain(marked).map(|v| v as NodeId)
    }
}

/// Fraction of nodes the overlay may dirty before the service re-bases
/// onto a compacted CSR (¼ keeps overlay map probes rare on hot paths).
const COMPACT_DIRTY_FRACTION: f64 = 0.25;

/// The service's telemetry bundle: the shared [`Telemetry`] handle plus
/// counters pre-minted at attach time so the serving hot path never
/// touches the registry's name table. All handles are inert (one `None`
/// branch) when the bundle was built from a disabled [`Telemetry`].
struct ServingTelemetry {
    telemetry: Arc<Telemetry>,
    admitted: Counter,
    rejected_budget: Counter,
    rejected_other: Counter,
    batches: Counter,
}

impl ServingTelemetry {
    fn attach(telemetry: Arc<Telemetry>) -> Self {
        let metrics = telemetry.metrics();
        ServingTelemetry {
            admitted: metrics.counter("serve.admitted"),
            rejected_budget: metrics.counter("serve.rejected_budget"),
            rejected_other: metrics.counter("serve.rejected_other"),
            batches: metrics.counter("serve.batches"),
            telemetry,
        }
    }

    /// Opens the per-batch serve span (inert guard, no clock read, when
    /// tracing is off — the field vector is only built when live).
    fn serve_span(&self, epoch: u64, requests: usize) -> SpanGuard<'_> {
        let trace = self.telemetry.trace();
        let fields = if trace.is_enabled() {
            fields!["epoch" => epoch, "requests" => requests]
        } else {
            Vec::new()
        };
        trace.span("serve.batch", fields)
    }

    /// Folds one batch's admission outcomes into the admission counters.
    fn record_admissions(&self, admissions: &[Option<ServeError>]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.batches.inc();
        for admission in admissions {
            match admission {
                None => self.admitted.inc(),
                Some(ServeError::BudgetExhausted { .. }) => self.rejected_budget.inc(),
                Some(_) => self.rejected_other.inc(),
            }
        }
    }
}

/// A batch recommendation server over a shared, mutable graph. See the
/// [module docs](self) for the architecture and the epoch model.
pub struct RecommendationService {
    /// The RCU swap point: the current epoch. Readers take the read lock
    /// only long enough to clone the `Arc`; writers swap a fully-staged
    /// next epoch in. Nobody holds it across actual work.
    current: RwLock<Arc<EpochState>>,
    /// Serialises writers (`apply_mutations` / `compact`) so two staged
    /// epochs can never race each other past the swap point.
    staging: Mutex<()>,
    utility: Arc<dyn UtilityFunction>,
    config: ServiceConfig,
    ledger: Mutex<Box<dyn BudgetLedger>>,
    /// Telemetry observes, never participates: outcomes are bit-identical
    /// whether this bundle is live or the default disabled one.
    telemetry: ServingTelemetry,
}

/// Assembles a [`RecommendationService`]; see
/// [`RecommendationService::builder`].
pub struct ServiceBuilder {
    backend: GraphBackend,
    utility: Arc<dyn UtilityFunction>,
    config: ServiceConfig,
    ledger: Option<Box<dyn BudgetLedger>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl ServiceBuilder {
    /// The service configuration (default: [`ServiceConfig::default`]).
    pub fn config(mut self, config: ServiceConfig) -> Self {
        self.config = config;
        self
    }

    /// An explicit budget ledger — typically a [`JournalLedger`] carrying
    /// spend replayed from a previous run (default: a volatile in-memory
    /// [`BudgetAccountant`] at the configured budget).
    pub fn ledger(mut self, ledger: Box<dyn BudgetLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// A telemetry bundle for serve spans, admission counters, epoch
    /// events and the ledger's fsync histogram. It only observes: outcomes
    /// are bit-identical with and without it (the `telemetry` suite).
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Builds the service at epoch 0.
    ///
    /// # Panics
    /// Panics if ε is not positive, if [`Mechanism::validate`] fails, if
    /// the utility reports no sensitivity and none is overridden, or if
    /// the ledger's budget disagrees with the configured one (a replayed
    /// ledger would then mis-account every target).
    pub fn build(self) -> RecommendationService {
        let ServiceBuilder { backend, utility, config, ledger, telemetry } = self;
        assert!(config.epsilon_per_request > 0.0, "epsilon must be positive");
        if let Err(e) = config.mechanism.validate() {
            panic!("{e}");
        }
        let mut ledger =
            ledger.unwrap_or_else(|| Box::new(BudgetAccountant::new(config.budget_per_target)));
        assert!(
            ledger.budget_per_target() == config.budget_per_target,
            "ledger budget {} disagrees with configured budget {}",
            ledger.budget_per_target(),
            config.budget_per_target,
        );
        let telemetry = telemetry.unwrap_or_else(Telemetry::disabled);
        ledger.instrument(telemetry.metrics());
        let graph = DeltaGraph::with_backend(backend);
        let sensitivity = config.sensitivity(utility.as_ref(), &graph);
        let state = EpochState::new(
            0,
            graph,
            sensitivity,
            Arc::clone(&utility),
            config,
            std::collections::HashMap::new(),
        );
        RecommendationService {
            current: RwLock::new(Arc::new(state)),
            staging: Mutex::new(()),
            utility,
            config,
            ledger: Mutex::new(ledger),
            telemetry: ServingTelemetry::attach(telemetry),
        }
    }
}

impl RecommendationService {
    /// Starts assembling a service over `graph` — an owned [`Graph`], a
    /// shared [`Arc<Graph>`] or any [`GraphBackend`] (outcomes are
    /// bit-identical across backings: the `graph_backend` suite) — scored
    /// by `utility`. The configuration, ledger and telemetry are optional.
    pub fn builder(
        graph: impl Into<GraphBackend>,
        utility: Arc<dyn UtilityFunction>,
    ) -> ServiceBuilder {
        ServiceBuilder {
            backend: graph.into(),
            utility,
            config: ServiceConfig::default(),
            ledger: None,
            telemetry: None,
        }
    }

    /// [`RecommendationService::builder`] with a configuration and a
    /// ledger, in one call ([`ServiceBuilder::build`] panics apply).
    pub fn with_backend_and_ledger(
        backend: GraphBackend,
        utility: Box<dyn UtilityFunction>,
        config: ServiceConfig,
        ledger: Box<dyn BudgetLedger>,
    ) -> Self {
        Self::builder(backend, Arc::from(utility)).config(config).ledger(ledger).build()
    }

    /// The attached telemetry bundle (the always-on disabled bundle
    /// unless [`ServiceBuilder::telemetry`] attached one).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry.telemetry
    }

    /// Exports point-in-time gauges into the attached metrics registry:
    /// per-target ε spend from the budget ledger and decode-cache
    /// statistics when the epoch's base is a compressed backend. Call
    /// right before snapshotting the registry (`--metrics-out`); a no-op
    /// when telemetry is disabled.
    pub fn export_gauges(&self) {
        let metrics = self.telemetry.telemetry.metrics();
        if !metrics.is_enabled() {
            return;
        }
        self.ledger.lock().expect("ledger lock").export_spend_gauges(metrics);
        // Gauges, not counters: the backend's own atomics are the source
        // of truth, so exporting twice must overwrite, not double-count.
        if let Some(stats) = self.pin().state.graph.base().cache_stats() {
            metrics.gauge("graph.decode_cache.hits").set(stats.hits as f64);
            metrics.gauge("graph.decode_cache.misses").set(stats.misses as f64);
            metrics.gauge("graph.decode_cache.nodes").set(stats.cached_nodes as f64);
            metrics.gauge("graph.decode_cache.bytes").set(stats.cached_bytes as f64);
        }
    }

    /// Pins the current epoch: an O(1) `Arc` clone of the swap point.
    /// Everything the pin exposes (graph view, Δf, cache) stays frozen
    /// and valid while later epochs are staged and swapped in.
    pub fn pin(&self) -> EpochPin {
        EpochPin { state: Arc::clone(&self.current.read().expect("epoch swap point")) }
    }

    /// A shared handle to the current epoch's CSR base, for wiring
    /// further services or experiments to the same instance.
    /// Pending overlay mutations (if any) are *not* visible through it;
    /// [`RecommendationService::snapshot`] materialises them.
    ///
    /// For the CSR backend this is a cheap `Arc` clone sharing the exact
    /// snapshot. Other backends (compressed, sharded) are materialised
    /// into a fresh in-RAM CSR on each call — an O(arcs) decode — so
    /// wire-once-and-share is the intended pattern there.
    pub fn shared_graph(&self) -> Arc<Graph> {
        self.pin().state.graph.base().to_graph_arc()
    }

    /// Short name of the current epoch's base backing (`"csr"`,
    /// `"compressed"`, `"sharded"`), for reports and logs. Compaction
    /// re-bases onto an in-RAM CSR, so a service started on the compressed
    /// backend reports `"csr"` after its first compaction.
    pub fn backend_kind(&self) -> &'static str {
        self.pin().state.graph.base().kind()
    }

    /// A fresh CSR snapshot of the current edge set (compacts the
    /// overlay; the service itself is unchanged).
    pub fn snapshot(&self) -> Graph {
        self.pin().state.graph.compact()
    }

    /// The current graph version: 0 at construction, +1 per applied
    /// mutation batch.
    pub fn epoch(&self) -> u64 {
        self.pin().version()
    }

    /// The calibrated sensitivity `Δf` for the current epoch.
    pub fn sensitivity(&self) -> f64 {
        self.pin().sensitivity()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// ε still available for `target`.
    pub fn remaining_budget(&self, target: NodeId) -> f64 {
        self.ledger.lock().expect("ledger lock").remaining(target)
    }

    /// Cumulative ε spent on `target` (admitted charges, synced or not).
    pub fn spent_budget(&self, target: NodeId) -> f64 {
        self.ledger.lock().expect("ledger lock").spent(target)
    }

    /// The backing budget ledger, for reports (`"memory"` or
    /// `"journal:<path>"`).
    pub fn ledger_description(&self) -> String {
        self.ledger.lock().expect("ledger lock").description()
    }

    /// Durably forgets all budget spend (privacy epoch rollover). Note
    /// that *graph* epochs ([`RecommendationService::apply_mutations`])
    /// never do this implicitly — see the module docs.
    ///
    /// # Panics
    /// Panics if a persistent ledger fails to record the rollover: a
    /// reset that is forgotten on restart would resurrect pre-rollover
    /// spend on top of post-rollover charges.
    pub fn reset_budgets(&self) {
        self.ledger.lock().expect("ledger lock").reset().expect("budget ledger reset");
    }

    /// Applies a batch of edge mutations atomically and starts a new
    /// epoch. On success, cached candidate/utility state is invalidated
    /// for exactly the returned [`Epoch::dirty_targets`]; budgets carry
    /// over untouched. On error nothing changes — not the graph, not the
    /// epoch, not the caches. An empty batch is a no-op: same epoch, no
    /// invalidation.
    ///
    /// Takes `&self`: the next epoch is staged on a copy and swapped in
    /// atomically, so concurrent readers keep draining on their pinned
    /// epoch throughout (writers serialise among themselves on the
    /// staging lock).
    pub fn apply_mutations(&self, mutations: &[EdgeMutation]) -> Result<Epoch, MutationError> {
        let _writer = self.staging.lock().expect("staging lock");
        let old = self.pin().state;
        if mutations.is_empty() {
            return Ok(Epoch {
                version: old.version,
                insertions: 0,
                deletions: 0,
                dirty_targets: DirtyTargets::Marked(Vec::new(), 0),
                invalidated: 0,
                compacted: false,
            });
        }
        // Stage on a copy: a mid-batch rejection leaves nothing behind,
        // and pinned readers never see a half-applied overlay.
        let mut staged = old.graph.clone();
        staged.apply_all(mutations).map_err(|(index, source)| MutationError::Rejected {
            index,
            mutation: mutations[index],
            source,
        })?;

        let num_nodes = staged.num_nodes();
        let dirty_targets = match self.utility.invalidation_radius() {
            // The radius bound is argued over undirected neighbourhoods;
            // bounding *in*-reachability on directed graphs would need a
            // reverse index the overlay does not keep, so directed graphs
            // conservatively dirty everyone.
            Some(radius) if !staged.is_directed() => {
                let seeds: BTreeSet<NodeId> = mutations.iter().flat_map(|m| [m.u, m.v]).collect();
                let mut marked = vec![0u64; num_nodes.div_ceil(64)];
                // The ball must cover both neighbourhoods: a deleted
                // edge's influence is visible from the pre-mutation
                // adjacency, an inserted edge's from the post-mutation
                // one.
                mark_ball(&old.graph, &seeds, radius, &mut marked);
                mark_ball(&staged, &seeds, radius, &mut marked);
                let len = marked.iter().map(|w| w.count_ones() as usize).sum();
                DirtyTargets::Marked(marked, len)
            }
            _ => DirtyTargets::All(num_nodes),
        };

        // The next epoch inherits every clean target's cached state; the
        // old epoch keeps its full cache for readers still pinned to it.
        let (cache, invalidated) = old.cache_without(&dirty_targets);

        // Re-calibrate Δf (it may depend on the maximum degree, which the
        // batch can change) and fold the overlay when it got heavy.
        let sensitivity = self.config.sensitivity(self.utility.as_ref(), &staged);
        let compacted = staged.num_dirty() as f64 > COMPACT_DIRTY_FRACTION * num_nodes as f64;
        if compacted {
            staged = DeltaGraph::new(staged.compact());
        }

        let next = EpochState::new(
            old.version + 1,
            staged,
            sensitivity,
            Arc::clone(&self.utility),
            self.config,
            cache,
        );
        *self.current.write().expect("epoch swap point") = Arc::new(next);

        let epoch = Epoch {
            version: old.version + 1,
            insertions: mutations.iter().filter(|m| m.op == MutationOp::Insert).count(),
            deletions: mutations.iter().filter(|m| m.op == MutationOp::Delete).count(),
            dirty_targets,
            invalidated,
            compacted,
        };
        epoch::trace_epoch_apply(&self.telemetry.telemetry, &epoch);
        Ok(epoch)
    }

    /// Folds any pending overlay mutations into a fresh CSR base now,
    /// regardless of overlay size. Reads, caches, budgets and the epoch
    /// version are unaffected (the edge set does not change); returns
    /// whether there was anything to fold.
    pub fn compact(&self) -> bool {
        let _writer = self.staging.lock().expect("staging lock");
        let old = self.pin().state;
        if old.graph.is_clean() {
            return false;
        }
        let next = EpochState::new(
            old.version,
            DeltaGraph::new(old.graph.compact()),
            old.sensitivity,
            Arc::clone(&self.utility),
            self.config,
            old.cache_clone(),
        );
        *self.current.write().expect("epoch swap point") = Arc::new(next);
        true
    }

    /// Serves a whole batch against the *current* epoch. Outcomes are
    /// returned in request order and are bit-identical for a given
    /// `(requests, seed)` and mutation history, regardless of the
    /// configured thread count and of how warm the per-target cache is.
    ///
    /// Budget admission runs sequentially in request order *before* any
    /// evaluation (so "which request hit the budget wall" never depends
    /// on scheduling), and the ledger is synced before any evaluation
    /// begins; admitted requests are then evaluated across the configured
    /// threads, each with an RNG stream split from `seed` and its request
    /// index.
    pub fn serve_batch(
        &self,
        requests: &[BatchRequest],
        seed: u64,
    ) -> Vec<Result<Served, ServeError>> {
        self.serve_batch_pinned(&self.pin(), requests, seed)
    }

    /// [`RecommendationService::serve_batch`] against an explicit pinned
    /// epoch. Admission still charges the live ledger (budgets are global
    /// across epochs by design); evaluation reads only the pin, so a
    /// batch pinned to epoch N completes identically even while later
    /// epochs are staged and swapped in.
    pub fn serve_batch_pinned(
        &self,
        pin: &EpochPin,
        requests: &[BatchRequest],
        seed: u64,
    ) -> Vec<Result<Served, ServeError>> {
        let _span = self.telemetry.serve_span(pin.version(), requests.len());

        // Phase 1 — validation + budget admission + durability point
        // (admission counters fold in inside `admit_batch`).
        let admissions = self.admit_batch(pin, requests);
        // Phase 2 — evaluation of admitted requests on the configured width.
        pin.state.evaluate_batch(
            requests,
            &admissions,
            seed,
            crate::par::threads(self.config.threads),
        )
    }

    /// Serves a single request (a one-element batch: same budget charge,
    /// same RNG stream derivation at index 0).
    pub fn serve_one(&self, target: NodeId, k: usize, seed: u64) -> Result<Served, ServeError> {
        self.serve_batch(&[BatchRequest { target, k }], seed)
            .pop()
            .expect("one request, one outcome")
    }

    /// Validates and budget-admits a batch against `pin`, in request
    /// order under the ledger lock, then syncs the ledger so every
    /// admitted charge is durable before any result can be released.
    /// `None` per slot means admitted.
    ///
    /// # Panics
    /// Panics if the ledger sync fails: a service that cannot persist its
    /// charges must stop answering, not serve on credit.
    pub(crate) fn admit_batch(
        &self,
        pin: &EpochPin,
        requests: &[BatchRequest],
    ) -> Vec<Option<ServeError>> {
        let mut ledger = self.ledger.lock().expect("ledger lock");
        let admissions: Vec<Option<ServeError>> =
            requests.iter().map(|r| admit(ledger.as_mut(), &pin.state, r)).collect();
        ledger.sync().expect("budget ledger sync failed; refusing to release results");
        drop(ledger);
        // Admission counters live here — the single admission point shared
        // by the one-shot serve path and the daemon's ingestion loop.
        self.telemetry.record_admissions(&admissions);
        admissions
    }
}

/// Validates a request and charges its budget; `None` means admitted.
fn admit(
    ledger: &mut dyn BudgetLedger,
    state: &EpochState,
    request: &BatchRequest,
) -> Option<ServeError> {
    let num_nodes = state.graph.num_nodes();
    if (request.target as usize) >= num_nodes {
        return Some(ServeError::UnknownTarget { target: request.target, num_nodes });
    }
    let mechanism = state.config.mechanism;
    if request.k == 0 || (request.k > 1 && mechanism.is_single_draw()) {
        return Some(ServeError::InvalidK { target: request.target, k: request.k });
    }
    // Only smoothing's charge depends on the target: its candidate count.
    let num_candidates = match mechanism {
        Mechanism::Smoothing { .. } => CandidateSet::for_target(&state.graph, request.target).len(),
        Mechanism::Exponential | Mechanism::Laplace => 0,
    };
    let charge = mechanism.charge(state.config.epsilon_per_request, num_candidates);
    match ledger.try_charge(request.target, charge) {
        Ok(()) => None,
        Err(BudgetExceeded { target, requested, remaining }) => {
            Some(ServeError::BudgetExhausted { target, requested, remaining })
        }
    }
}

/// Marks every node within `radius` hops of any seed (seeds included) in
/// `view`. Multi-source truncated BFS that reads lists without caching
/// them; `marked` accumulates across calls.
fn mark_ball(view: &DeltaGraph, seeds: &BTreeSet<NodeId>, radius: usize, marked: &mut [u64]) {
    let mut dist: Vec<u32> = vec![u32::MAX; view.num_nodes()];
    let mut queue = VecDeque::new();
    let mut scratch = Vec::new();
    for &s in seeds {
        dist[s as usize] = 0;
        marked[s as usize / 64] |= 1 << (s % 64);
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        if d as usize >= radius {
            continue;
        }
        for &w in view.neighbors_into(v, &mut scratch) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = d + 1;
                marked[w as usize / 64] |= 1 << (w % 64);
                queue.push_back(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_datasets::toy::karate_club;
    use psr_utility::{CandidateSet, CommonNeighbors};

    fn service(config: ServiceConfig) -> RecommendationService {
        RecommendationService::builder(karate_club(), Arc::new(CommonNeighbors))
            .config(config)
            .build()
    }

    fn requests(k: usize) -> Vec<BatchRequest> {
        (0..34u32).map(|target| BatchRequest { target, k }).collect()
    }

    #[test]
    fn batch_serves_valid_distinct_recommendations() {
        let svc = service(ServiceConfig::default());
        for outcome in svc.serve_batch(&requests(3), 7) {
            let served = outcome.unwrap();
            assert_eq!(served.recommendations.len(), 3);
            let set: std::collections::HashSet<_> = served.recommendations.iter().collect();
            assert_eq!(set.len(), 3, "slots must be distinct");
            for &v in &served.recommendations {
                assert_ne!(v, served.target);
                assert!(!svc.pin().has_edge(served.target, v), "recommended an existing edge");
            }
            assert_eq!(served.epsilon_spent, 1.0);
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let mut batch = requests(2);
        batch.extend(requests(1)); // duplicate targets in one batch
        let one = service(ServiceConfig { threads: Some(1), ..Default::default() });
        let eight = service(ServiceConfig { threads: Some(8), ..Default::default() });
        assert_eq!(one.serve_batch(&batch, 99), eight.serve_batch(&batch, 99));
    }

    #[test]
    fn cache_reuse_does_not_change_results() {
        // A warm cache (second serve of the same batch) must be
        // bit-identical to a cold fresh service.
        let warm =
            service(ServiceConfig { budget_per_target: f64::INFINITY, ..Default::default() });
        let _ = warm.serve_batch(&requests(2), 5);
        let again = warm.serve_batch(&requests(2), 5);
        let cold =
            service(ServiceConfig { budget_per_target: f64::INFINITY, ..Default::default() });
        assert_eq!(again, cold.serve_batch(&requests(2), 5));
    }

    #[test]
    fn budget_refuses_after_exhaustion_with_typed_error() {
        let svc = service(ServiceConfig {
            epsilon_per_request: 1.0,
            budget_per_target: 2.0,
            ..Default::default()
        });
        let batch = vec![BatchRequest { target: 0, k: 1 }; 3];
        let outcomes = svc.serve_batch(&batch, 1);
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_ok());
        match &outcomes[2] {
            Err(ServeError::BudgetExhausted { target: 0, requested, remaining }) => {
                assert_eq!(*requested, 1.0);
                assert!(*remaining < 1e-9);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(svc.remaining_budget(0), 0.0);
        assert_eq!(svc.remaining_budget(1), 2.0, "other targets untouched");

        svc.reset_budgets();
        assert!(svc.serve_one(0, 1, 2).is_ok());
    }

    #[test]
    fn unknown_target_and_zero_k_cost_nothing() {
        let svc = service(ServiceConfig::default());
        let outcomes = svc.serve_batch(
            &[BatchRequest { target: 999, k: 1 }, BatchRequest { target: 3, k: 0 }],
            5,
        );
        assert!(matches!(
            outcomes[0],
            Err(ServeError::UnknownTarget { target: 999, num_nodes: 34 })
        ));
        assert!(matches!(outcomes[1], Err(ServeError::InvalidK { target: 3, k: 0 })));
        assert_eq!(svc.remaining_budget(999), 10.0);
        assert_eq!(svc.remaining_budget(3), 10.0);
    }

    #[test]
    fn oversized_k_is_clamped_to_the_candidate_set() {
        let svc = service(ServiceConfig::default());
        let served = svc.serve_one(0, 10_000, 3).unwrap();
        let candidates = CandidateSet::for_target(&svc.pin(), 0);
        assert_eq!(served.requested_k, 10_000);
        assert_eq!(served.recommendations.len(), candidates.len());
        let set: std::collections::HashSet<_> = served.recommendations.iter().collect();
        assert_eq!(set.len(), served.recommendations.len());
    }

    #[test]
    fn zero_class_slots_resolve_to_distinct_concrete_nodes() {
        // Tiny ε ⇒ many slots land in the zero class; all must come back
        // as distinct real candidates with zero utility.
        let svc = service(ServiceConfig {
            epsilon_per_request: 1e-6,
            budget_per_target: f64::INFINITY,
            ..Default::default()
        });
        let served = svc.serve_one(0, 8, 11).unwrap();
        assert!(served.zero_class_picks > 0, "tiny ε must hit the zero class");
        let candidates = CandidateSet::for_target(&svc.pin(), 0);
        let set: std::collections::HashSet<_> = served.recommendations.iter().collect();
        assert_eq!(set.len(), served.recommendations.len());
        for &v in &served.recommendations {
            assert!(candidates.contains(v));
        }
    }

    #[test]
    fn both_engines_serve_valid_batches_and_identical_budgets() {
        let batch = requests(3);
        for engine in [TopKEngine::Peel, TopKEngine::Gumbel] {
            let svc = service(ServiceConfig { engine, ..Default::default() });
            for outcome in svc.serve_batch(&batch, 7) {
                let served = outcome.unwrap();
                assert_eq!(served.recommendations.len(), 3, "{engine:?}");
                let set: std::collections::HashSet<_> = served.recommendations.iter().collect();
                assert_eq!(set.len(), 3, "{engine:?}: slots must be distinct");
                for &v in &served.recommendations {
                    assert_ne!(v, served.target);
                    assert!(!svc.pin().has_edge(served.target, v), "{engine:?}");
                }
                // The ε charge is engine-independent: same budget spend.
                assert_eq!(served.epsilon_spent, 1.0, "{engine:?}");
            }
            assert_eq!(svc.remaining_budget(0), 9.0, "{engine:?}");
        }
    }

    #[test]
    fn engines_agree_when_serving_is_deterministic() {
        // At huge ε both engines serve the exact utility-ordered top-k, so
        // whole batches must match slot for slot.
        let config = |engine| ServiceConfig {
            epsilon_per_request: 1e6,
            budget_per_target: f64::INFINITY,
            engine,
            ..Default::default()
        };
        let peel = service(config(TopKEngine::Peel));
        let gumbel = service(config(TopKEngine::Gumbel));
        for (p, g) in
            peel.serve_batch(&requests(3), 13).iter().zip(gumbel.serve_batch(&requests(3), 13))
        {
            let (p, g) = (p.as_ref().unwrap(), g.as_ref().unwrap());
            assert_eq!(p.total_utility, g.total_utility, "target {}", p.target);
            // Slot order may differ only among tied utilities; the served
            // utility multiset is the deterministic invariant.
            assert_eq!(p.zero_class_picks, g.zero_class_picks);
        }
    }

    /// Recommenders are services too: each built from one `Arc<Graph>`
    /// aliases the same in-memory graph.
    #[test]
    fn shares_graph_with_recommenders() {
        let shared = Arc::new(karate_club());
        let a =
            RecommendationService::builder(Arc::clone(&shared), Arc::new(CommonNeighbors)).build();
        let b = RecommendationService::builder(a.shared_graph(), Arc::new(CommonNeighbors)).build();
        assert!(Arc::ptr_eq(&a.shared_graph(), &b.shared_graph()), "both must alias one graph");
        assert!(Arc::ptr_eq(&shared, &b.shared_graph()));
    }

    #[test]
    fn recommendations_are_valid_candidates() {
        let svc = service(ServiceConfig { budget_per_target: f64::INFINITY, ..Default::default() });
        for target in 0..34u32 {
            for seed in 0..5 {
                let v = svc.serve_one(target, 1, seed).unwrap().recommendations[0];
                assert_ne!(v, target);
                assert!(!svc.pin().has_edge(target, v), "recommended an existing neighbour");
            }
        }
    }

    #[test]
    fn high_eps_recommends_top_utility_node() {
        let svc = service(ServiceConfig {
            epsilon_per_request: 500.0,
            budget_per_target: f64::INFINITY,
            ..Default::default()
        });
        let u = CommonNeighbors.utilities_for(&karate_club(), 0);
        for seed in 0..10 {
            let got = svc.serve_one(0, 1, seed).unwrap().recommendations[0];
            // Ties possible: any argmax-utility node qualifies.
            assert_eq!(u.get(got), u.u_max());
        }
    }

    #[test]
    fn laplace_variant_works_too() {
        let svc = service(ServiceConfig { mechanism: Mechanism::Laplace, ..Default::default() });
        let served = svc.serve_one(5, 1, 4).unwrap();
        assert_eq!(served.recommendations.len(), 1);
        assert!(served.recommendations[0] < 34);
        assert!(!svc.pin().has_edge(5, served.recommendations[0]));
        assert_eq!(served.epsilon_spent, 1.0);
    }

    #[test]
    fn single_draw_mechanisms_refuse_two_slots_uncharged() {
        for mechanism in [Mechanism::Laplace, Mechanism::Smoothing { x: 0.05 }] {
            let svc = service(ServiceConfig { mechanism, ..Default::default() });
            let outcome = svc.serve_one(5, 2, 1);
            assert_eq!(outcome, Err(ServeError::InvalidK { target: 5, k: 2 }), "{mechanism:?}");
            assert_eq!(svc.spent_budget(5), 0.0);
        }
    }

    #[test]
    fn smoothing_charges_theorem_5() {
        let mechanism = Mechanism::Smoothing { x: 0.05 };
        let svc = service(ServiceConfig { mechanism, ..Default::default() });
        let served = svc.serve_one(5, 1, 2).unwrap();
        let n = CandidateSet::for_target(&karate_club(), 5).len();
        assert_eq!(served.epsilon_spent, mechanism.charge(1.0, n));
        assert_eq!(svc.spent_budget(5), served.epsilon_spent);
    }

    #[test]
    fn sensitivity_override_respected() {
        let svc = service(ServiceConfig { sensitivity_override: Some(7.5), ..Default::default() });
        assert_eq!(svc.sensitivity(), 7.5);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_eps_rejected() {
        let _ = service(ServiceConfig { epsilon_per_request: 0.0, ..Default::default() });
    }

    /// The mechanism is configuration, not a copy of the graph: services
    /// of all three mechanisms built from one `Arc<Graph>` alias it.
    #[test]
    fn services_of_every_mechanism_share_one_graph_instance() {
        let shared = Arc::new(karate_club());
        for mechanism in
            [Mechanism::Exponential, Mechanism::Laplace, Mechanism::Smoothing { x: 0.05 }]
        {
            let svc =
                RecommendationService::builder(Arc::clone(&shared), Arc::new(CommonNeighbors))
                    .config(ServiceConfig { mechanism, ..Default::default() })
                    .build();
            assert!(Arc::ptr_eq(&shared, &svc.shared_graph()), "{mechanism:?}");
        }
    }

    /// Laplace charges ε per request, so a zero ε is refused at build time
    /// under it as under the exponential default.
    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn laplace_zero_eps_rejected() {
        let _ = service(ServiceConfig {
            mechanism: Mechanism::Laplace,
            epsilon_per_request: 0.0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "disagrees with configured budget")]
    fn mismatched_ledger_budget_rejected() {
        let _ = RecommendationService::builder(karate_club(), Arc::new(CommonNeighbors))
            .ledger(Box::new(BudgetAccountant::new(3.0)))
            .build();
    }

    #[test]
    fn mutations_open_a_new_epoch_and_update_reads() {
        let svc = service(ServiceConfig::default());
        assert_eq!(svc.epoch(), 0);
        assert!(svc.pin().has_edge(0, 1));
        let epoch =
            svc.apply_mutations(&[EdgeMutation::delete(0, 1), EdgeMutation::insert(0, 9)]).unwrap();
        assert_eq!(epoch.version, 1);
        assert_eq!(svc.epoch(), 1);
        assert_eq!(epoch.insertions, 1);
        assert_eq!(epoch.deletions, 1);
        assert!(!svc.pin().has_edge(0, 1));
        assert!(svc.pin().has_edge(0, 9));
        // Recommendations in the new epoch respect the new edge set.
        let served = svc.serve_one(0, 3, 7).unwrap();
        for &v in &served.recommendations {
            assert!(!svc.pin().has_edge(0, v));
            assert_ne!(v, 0);
        }
    }

    #[test]
    fn pinned_epoch_survives_later_mutations() {
        // The RCU contract in miniature: a pin taken before a mutation
        // batch keeps reading (and serving) the old graph version.
        let svc = service(ServiceConfig { budget_per_target: f64::INFINITY, ..Default::default() });
        let pin = svc.pin();
        let before = svc.serve_batch_pinned(&pin, &requests(2), 21);
        svc.apply_mutations(&[EdgeMutation::delete(0, 1), EdgeMutation::insert(24, 16)]).unwrap();
        assert_eq!(pin.version(), 0);
        assert_eq!(svc.epoch(), 1);
        assert!(pin.has_edge(0, 1), "the pin still reads epoch 0");
        assert!(!svc.pin().has_edge(0, 1), "fresh pins read epoch 1");
        let replay = svc.serve_batch_pinned(&pin, &requests(2), 21);
        assert_eq!(before, replay, "pinned serving is bit-identical across the swap");
    }

    #[test]
    fn dirty_targets_cover_the_mutation_ball_only() {
        // Common neighbours has invalidation radius 1: the dirty set is
        // the endpoints plus their neighbours (old and new), not the
        // whole karate club.
        let svc = service(ServiceConfig::default());
        let graph = svc.shared_graph();
        // Warm every target's cache.
        let _ = svc.serve_batch(&requests(1), 3);
        let epoch = svc.apply_mutations(&[EdgeMutation::insert(24, 16)]).unwrap();
        let mut expected: BTreeSet<NodeId> = BTreeSet::from([24, 16]);
        expected.extend(graph.neighbors(24).iter().copied());
        expected.extend(graph.neighbors(16).iter().copied());
        assert!(epoch.dirty_targets.iter().eq(expected), "the ball, in order");
        assert!(epoch.dirty_targets.len() < 34, "must not dirty the whole graph");
        assert_eq!(epoch.invalidated, epoch.dirty_targets.len(), "all were cached");
    }

    #[test]
    fn rejected_batch_changes_nothing() {
        let svc = service(ServiceConfig::default());
        let before = svc.serve_batch(&requests(2), 9);
        svc.reset_budgets();
        let err = svc
            .apply_mutations(&[
                EdgeMutation::insert(0, 9),
                EdgeMutation::insert(0, 1), // duplicate: karate club has 0-1
            ])
            .unwrap_err();
        match &err {
            MutationError::Rejected { index, mutation, source } => {
                assert_eq!(*index, 1);
                assert_eq!(*mutation, EdgeMutation::insert(0, 1));
                assert_eq!(*source, GraphError::EdgeExists { from: 0, to: 1 });
            }
        }
        assert!(err.to_string().contains("mutation #1"));
        assert_eq!(svc.epoch(), 0);
        assert!(!svc.pin().has_edge(0, 9), "partial batch must be rolled back");
        svc.reset_budgets();
        assert_eq!(svc.serve_batch(&requests(2), 9), before, "serving state untouched");
    }

    #[test]
    fn empty_mutation_batch_is_a_no_op() {
        let svc = service(ServiceConfig::default());
        let _ = svc.serve_batch(&requests(1), 3); // warm caches
        let epoch = svc.apply_mutations(&[]).unwrap();
        assert_eq!(epoch.version, 0, "no change, no new epoch");
        assert!(epoch.dirty_targets.is_empty());
        assert_eq!(epoch.invalidated, 0, "warm caches must survive");
        assert_eq!(svc.epoch(), 0);
    }

    #[test]
    fn budgets_carry_across_epochs() {
        let svc = service(ServiceConfig {
            epsilon_per_request: 1.0,
            budget_per_target: 2.0,
            ..Default::default()
        });
        assert!(svc.serve_one(0, 1, 1).is_ok());
        assert_eq!(svc.remaining_budget(0), 1.0);
        svc.apply_mutations(&[EdgeMutation::insert(0, 9)]).unwrap();
        assert_eq!(svc.remaining_budget(0), 1.0, "mutations must not refund ε");
        assert!(svc.serve_one(0, 1, 2).is_ok());
        assert!(matches!(
            svc.serve_one(0, 1, 3),
            Err(ServeError::BudgetExhausted { target: 0, .. })
        ));
    }

    #[test]
    fn heavy_mutation_batch_triggers_compaction() {
        let svc = service(ServiceConfig::default());
        let base = svc.shared_graph();
        // Dirty well over a quarter of the 34 nodes: fresh edges between
        // disjoint endpoint pairs.
        let muts: Vec<EdgeMutation> = (0..17u32)
            .map(|i| (2 * i, 2 * i + 1))
            .filter(|&(u, v)| !base.has_edge(u, v))
            .map(|(u, v)| EdgeMutation::insert(u, v))
            .collect();
        assert!(muts.len() >= 10);
        let epoch = svc.apply_mutations(&muts).unwrap();
        assert!(epoch.compacted);
        assert!(svc.pin().graph().is_clean(), "overlay folded into the new base");
        assert!(!Arc::ptr_eq(&svc.shared_graph(), &base), "re-based onto a fresh CSR");
        for m in &muts {
            assert!(svc.pin().has_edge(m.u, m.v));
        }
    }

    #[test]
    fn explicit_compact_preserves_reads_and_epoch() {
        let svc = service(ServiceConfig::default());
        svc.apply_mutations(&[EdgeMutation::insert(24, 16)]).unwrap();
        let before = svc.snapshot();
        let epoch = svc.epoch();
        assert!(svc.compact());
        assert!(!svc.compact(), "second compact is a no-op");
        assert_eq!(svc.snapshot(), before);
        assert_eq!(svc.epoch(), epoch);
    }
}
