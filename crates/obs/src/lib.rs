//! `psr-obs` — workspace-wide telemetry for the serving, daemon,
//! attack, and frontier layers.
//!
//! Two halves, bundled by [`Telemetry`]:
//!
//! * [`metrics`] — a sharded [`MetricsRegistry`] of named counters,
//!   gauges, and log₂ latency histograms with lock-free record ops and
//!   a sorted, serializable [`MetricsSnapshot`]. The log₂
//!   [`LatencyHistogram`] / [`LatencySummary`] pair that every layer
//!   shares lives here (promoted out of `psr-core`'s daemon).
//! * [`trace`] — structured point events and span guards with typed
//!   key/value fields, buffered in a bounded ring ([`TraceSink`]) and
//!   exportable as JSONL. Sequence numbers order events; wall-clock
//!   durations (`elapsed_ns`) are the only nondeterministic payload.
//! * [`heartbeat`] — the daemon's and the sweep's stderr progress lines.
//!
//! **Telemetry is an observer, never a participant.** Instrumented code
//! must produce bit-identical results with telemetry enabled or
//! disabled; the workspace's `tests/telemetry.rs` suite proves it for
//! serving, the daemon, and the frontier sweep. Disabled telemetry is
//! free: handles from a disabled registry carry no cell (one `Option`
//! branch per record op), and a disabled [`TraceSink`] never reads the
//! clock.

pub mod heartbeat;
pub mod metrics;
pub mod trace;

use std::sync::Arc;

pub use heartbeat::{Heartbeat, Progress};
pub use metrics::{
    Counter, CounterSample, Gauge, GaugeSample, Histogram, HistogramSample, LatencyHistogram,
    LatencySummary, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{SpanGuard, TraceEvent, TraceKind, TraceSink, TraceValue};

/// Builds the `Vec<(String, TraceValue)>` payload of a trace event:
/// `fields!["epoch" => version, "requests" => batch.len()]`. Values go
/// through [`TraceValue::from`]. Call behind `TraceSink::is_enabled`
/// on hot paths so disabled tracing allocates nothing.
#[macro_export]
macro_rules! fields {
    () => { ::std::vec::Vec::new() };
    ($($key:expr => $value:expr),+ $(,)?) => {
        ::std::vec![$((($key).to_string(), $crate::TraceValue::from($value))),+]
    };
}

/// The metrics registry and trace sink one subsystem run shares.
///
/// Constructed once per run (CLI command, daemon, sweep) and passed
/// down as `Arc<Telemetry>`; [`Telemetry::disabled`] is the default
/// everywhere and costs nothing.
#[derive(Debug, Default)]
pub struct Telemetry {
    metrics: MetricsRegistry,
    trace: TraceSink,
}

impl Telemetry {
    /// Telemetry that records nothing, for free.
    #[must_use]
    pub fn disabled() -> Arc<Self> {
        Arc::new(Telemetry { metrics: MetricsRegistry::disabled(), trace: TraceSink::disabled() })
    }

    /// Live metrics and a trace ring of [`TraceSink::DEFAULT_CAPACITY`].
    #[must_use]
    pub fn enabled() -> Arc<Self> {
        Telemetry::with_trace_capacity(TraceSink::DEFAULT_CAPACITY)
    }

    /// Live metrics and a trace ring of the given capacity.
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Telemetry {
            metrics: MetricsRegistry::enabled(),
            trace: TraceSink::enabled(capacity),
        })
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The trace sink.
    #[must_use]
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Whether either half records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.trace.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_is_fully_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        telemetry.metrics().counter("x").inc();
        telemetry.trace().event("x", fields!["k" => 1u64]);
        assert!(telemetry.metrics().snapshot().is_empty());
        assert!(telemetry.trace().is_empty());
    }

    #[test]
    fn enabled_bundle_records_both_halves() {
        let telemetry = Telemetry::enabled();
        assert!(telemetry.is_enabled());
        telemetry.metrics().counter("serve.batches").inc();
        telemetry.trace().event("serve.batch", fields!["requests" => 3usize]);
        assert_eq!(telemetry.metrics().snapshot().counters[0].value, 1);
        assert_eq!(telemetry.trace().len(), 1);
    }

    #[test]
    fn fields_macro_builds_typed_values() {
        let fields = fields!["count" => 2u64, "label" => "x", "ok" => true, "eps" => 0.5];
        assert_eq!(fields[0], ("count".to_string(), TraceValue::U64(2)));
        assert_eq!(fields[1], ("label".to_string(), TraceValue::Str("x".to_string())));
        assert_eq!(fields[2], ("ok".to_string(), TraceValue::Bool(true)));
        assert_eq!(fields[3], ("eps".to_string(), TraceValue::F64(0.5)));
        let empty: Vec<(String, TraceValue)> = fields![];
        assert!(empty.is_empty());
    }
}
