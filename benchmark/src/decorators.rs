//! Timing decorators around the serving stack's public traits.
//!
//! The service takes its utility function and its budget ledger as trait
//! objects, so the benchmark can time both layers from outside: each
//! decorator forwards every method to the wrapped implementation and adds
//! the wall time of the hot calls to shared atomic counters. Behaviour is
//! unchanged (every trait method is forwarded, including the defaulted
//! ones the serving layer reads, such as the invalidation radius).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use psr_core::serving::{BudgetExceeded, BudgetLedger};
use psr_graph::{GraphView, NodeId};
use psr_utility::{CandidateSet, Sensitivity, UtilityFunction, UtilityVector};

/// A call count and the summed wall time of those calls.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallStats {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed wall time of the recorded calls, in microseconds.
    pub fn total_us(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Mean wall time per call in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.total_us() / n as f64,
        }
    }
}

/// Times `UtilityFunction::utilities`. The service caches each target's
/// utility vector per epoch, so the call count against the request count
/// measures the cache.
pub struct TimedUtility {
    inner: Box<dyn UtilityFunction>,
    stats: Arc<CallStats>,
}

impl TimedUtility {
    pub fn wrap(inner: Box<dyn UtilityFunction>) -> (Self, Arc<CallStats>) {
        let stats = Arc::new(CallStats::default());
        (TimedUtility { inner, stats: Arc::clone(&stats) }, stats)
    }
}

impl UtilityFunction for TimedUtility {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn utilities(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        candidates: &CandidateSet,
    ) -> UtilityVector {
        self.stats.time(|| self.inner.utilities(graph, target, candidates))
    }

    fn sensitivity(&self, graph: &dyn GraphView) -> Option<Sensitivity> {
        self.inner.sensitivity(graph)
    }

    fn edit_distance_t(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        u: &UtilityVector,
    ) -> Option<u64> {
        self.inner.edit_distance_t(graph, target, u)
    }

    fn invalidation_radius(&self) -> Option<usize> {
        self.inner.invalidation_radius()
    }
}

/// What the ledger decorator records: admission charges and the
/// per-batch durability point (write + fsync).
#[derive(Debug, Default)]
pub struct LedgerStats {
    pub charge: CallStats,
    pub sync: CallStats,
}

/// Times `BudgetLedger::try_charge` and `BudgetLedger::sync`.
pub struct TimedLedger {
    inner: Box<dyn BudgetLedger>,
    stats: Arc<LedgerStats>,
}

impl TimedLedger {
    pub fn wrap(inner: Box<dyn BudgetLedger>) -> (Self, Arc<LedgerStats>) {
        let stats = Arc::new(LedgerStats::default());
        (TimedLedger { inner, stats: Arc::clone(&stats) }, stats)
    }
}

impl BudgetLedger for TimedLedger {
    fn budget_per_target(&self) -> f64 {
        self.inner.budget_per_target()
    }

    fn spent(&self, target: NodeId) -> f64 {
        self.inner.spent(target)
    }

    fn remaining(&self, target: NodeId) -> f64 {
        self.inner.remaining(target)
    }

    fn try_charge(&mut self, target: NodeId, eps: f64) -> Result<(), BudgetExceeded> {
        let stats = Arc::clone(&self.stats);
        stats.charge.time(|| self.inner.try_charge(target, eps))
    }

    fn sync(&mut self) -> io::Result<()> {
        let stats = Arc::clone(&self.stats);
        stats.sync.time(|| self.inner.sync())
    }

    fn reset(&mut self) -> io::Result<()> {
        self.inner.reset()
    }

    fn description(&self) -> String {
        self.inner.description()
    }

    fn instrument(&mut self, metrics: &psr_obs::MetricsRegistry) {
        self.inner.instrument(metrics)
    }

    fn export_spend_gauges(&self, metrics: &psr_obs::MetricsRegistry) {
        self.inner.export_spend_gauges(metrics)
    }
}
