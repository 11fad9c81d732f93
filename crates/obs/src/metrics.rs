//! The metrics half of telemetry: a sharded registry of named counters,
//! gauges, and log₂ latency histograms.
//!
//! The design splits *registration* from *recording*. Registering a
//! metric takes a short-lived lock on one of `SHARDS` name shards and
//! hands back a cheap cloneable handle; recording through the handle is
//! a single relaxed atomic op with no lock anywhere. A handle minted by
//! a **disabled** registry carries no cell at all, so `Counter::inc` on
//! it is one branch on an `Option` — telemetry off means telemetry free.
//!
//! [`MetricsRegistry::snapshot`] freezes every registered metric into a
//! [`MetricsSnapshot`]: plain sorted vectors of `{name, value}` samples
//! (the vendored serde has no map impls, and sorted vectors make the
//! JSON byte-stable regardless of registration order).
//!
//! The log₂ [`LatencyHistogram`] and its [`LatencySummary`] give the
//! daemon, the serving layer and the frontier sweep one bucketing and one
//! quantile rule. [`Histogram`] is the concurrent (atomic) counterpart
//! with identical bucket math.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// Quantile summary of a latency population, from the log₂-bucketed
/// [`LatencyHistogram`]. Quantiles are bucket upper bounds (≤ 2× exact).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Exact maximum, nanoseconds.
    pub max_ns: u64,
}

/// A log₂-bucketed latency histogram: constant-size, constant-time
/// recording, good-enough quantiles for serving dashboards.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0, max_ns: 0 }
    }
}

/// The log₂ bucket a nanosecond sample falls into: bucket `b` holds
/// values in `[2^(b-1), 2^b)`, with everything ≥ `2^62` collapsed into
/// bucket 63.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(63)
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Recorded sample count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value at quantile `q` ∈ [0, 1]: the upper bound of the bucket
    /// holding the q-th sample (0 when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket b holds values in [2^(b-1), 2^b).
                let bound = if bucket >= 63 { u64::MAX } else { (1u64 << bucket) - 1 };
                return bound.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Collapses the histogram into the standard serving quantiles.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
            max_ns: self.max_ns,
        }
    }
}

/// The shared concurrent cell behind a [`Histogram`] handle: the same
/// buckets as [`LatencyHistogram`], recorded with relaxed atomics.
#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    max_ns: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn load(&self) -> LatencyHistogram {
        let mut hist = LatencyHistogram::default();
        for (slot, bucket) in hist.buckets.iter_mut().zip(&self.buckets) {
            let n = bucket.load(Ordering::Relaxed);
            *slot = n;
            hist.count += n;
        }
        hist.max_ns = self.max_ns.load(Ordering::Relaxed);
        hist
    }
}

/// Handle to a monotonically increasing counter. Cloning shares the
/// underlying cell; a handle from a disabled registry records nothing.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Whether this handle is backed by a live registry cell.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }
}

/// Handle to a last-value-wins gauge holding an `f64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a disabled handle).
    #[must_use]
    pub fn get(&self) -> f64 {
        self.cell.as_ref().map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }

    /// Whether this handle is backed by a live registry cell.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }
}

/// Handle to a concurrent log₂ latency histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one latency sample, in nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        if let Some(cell) = &self.cell {
            cell.record(ns);
        }
    }

    /// Freezes the current buckets into a single-threaded
    /// [`LatencyHistogram`] (empty for a disabled handle).
    #[must_use]
    pub fn load(&self) -> LatencyHistogram {
        self.cell.as_ref().map_or_else(LatencyHistogram::default, |cell| cell.load())
    }

    /// Whether this handle is backed by a live registry cell. Callers
    /// wrap `Instant::now()` in this check so timing a disabled
    /// histogram costs nothing.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }
}

/// One of the registry's registration shards.
#[derive(Debug, Default)]
struct Shard {
    entries: Mutex<HashMap<String, Entry>>,
}

/// What a name is registered as. Re-registering a name with a different
/// kind is a bug in the caller and panics.
#[derive(Debug, Clone)]
enum Entry {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

/// Registration shards: enough that concurrent registrations from a
/// worker pool rarely contend, few enough that a snapshot stays cheap.
const SHARDS: usize = 16;

fn shard_of(name: &str) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    (hasher.finish() % SHARDS as u64) as usize
}

/// A sharded registry of named metrics. `disabled()` registries hand
/// out inert handles, so instrumented code pays one `Option` branch per
/// record op when telemetry is off.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// `None` = disabled: every handle minted is inert.
    shards: Option<Vec<Shard>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::disabled()
    }
}

impl MetricsRegistry {
    /// A registry whose handles record nothing, for free.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRegistry { shards: None }
    }

    /// A live registry.
    #[must_use]
    pub fn enabled() -> Self {
        MetricsRegistry { shards: Some((0..SHARDS).map(|_| Shard::default()).collect()) }
    }

    /// Whether handles minted here actually record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.shards.is_some()
    }

    /// Registers (or looks up) the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let Some(entry) = self.register(name, || Entry::Counter(Arc::new(AtomicU64::new(0))))
        else {
            return Counter::default();
        };
        match entry {
            Entry::Counter(cell) => Counter { cell: Some(cell) },
            _ => panic!("metric {name:?} is already registered as a non-counter"),
        }
    }

    /// Registers (or looks up) the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(entry) = self.register(name, || Entry::Gauge(Arc::new(AtomicU64::new(0)))) else {
            return Gauge::default();
        };
        match entry {
            Entry::Gauge(cell) => Gauge { cell: Some(cell) },
            _ => panic!("metric {name:?} is already registered as a non-gauge"),
        }
    }

    /// Registers (or looks up) the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(entry) = self.register(name, || Entry::Histogram(Arc::new(HistogramCell::new())))
        else {
            return Histogram::default();
        };
        match entry {
            Entry::Histogram(cell) => Histogram { cell: Some(cell) },
            _ => panic!("metric {name:?} is already registered as a non-histogram"),
        }
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Entry) -> Option<Entry> {
        let shards = self.shards.as_ref()?;
        let mut entries = shards[shard_of(name)].entries.lock().expect("metrics shard");
        Some(entries.entry(name.to_string()).or_insert_with(make).clone())
    }

    /// Freezes every registered metric into a snapshot, each section
    /// sorted by name (empty for a disabled registry).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        let Some(shards) = &self.shards else { return snapshot };
        for shard in shards {
            for (name, entry) in shard.entries.lock().expect("metrics shard").iter() {
                let name = name.clone();
                match entry {
                    Entry::Counter(cell) => snapshot
                        .counters
                        .push(CounterSample { name, value: cell.load(Ordering::Relaxed) }),
                    Entry::Gauge(cell) => snapshot.gauges.push(GaugeSample {
                        name,
                        value: f64::from_bits(cell.load(Ordering::Relaxed)),
                    }),
                    Entry::Histogram(cell) => snapshot
                        .histograms
                        .push(HistogramSample { name, latency: cell.load().summary() }),
                }
            }
        }
        snapshot.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snapshot
    }
}

/// One counter's frozen value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge's frozen value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// One histogram's frozen quantile summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Quantile summary at snapshot time.
    pub latency: LatencySummary,
}

/// A point-in-time freeze of a [`MetricsRegistry`]: sorted sample
/// vectors, round-trippable through JSON.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Every counter, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Every gauge, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// Every histogram, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        let mut hist = LatencyHistogram::default();
        for ns in [100, 200, 400, 800, 100_000] {
            hist.record(ns);
        }
        let summary = hist.summary();
        assert_eq!(summary.count, 5);
        assert!(summary.p50_ns >= 200 && summary.p50_ns < 512, "p50={}", summary.p50_ns);
        assert_eq!(summary.max_ns, 100_000);
        assert!(summary.p99_ns <= summary.max_ns);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let hist = LatencyHistogram::default();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.quantile(0.5), 0);
        let summary = hist.summary();
        assert_eq!(
            summary,
            LatencySummary { count: 0, p50_ns: 0, p95_ns: 0, p99_ns: 0, max_ns: 0 }
        );
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let mut hist = LatencyHistogram::default();
        hist.record(777);
        let summary = hist.summary();
        assert_eq!(summary.count, 1);
        // One sample: every quantile is that sample's bucket, capped at
        // the exact max.
        assert_eq!(summary.p50_ns, 777);
        assert_eq!(summary.p95_ns, 777);
        assert_eq!(summary.p99_ns, 777);
        assert_eq!(summary.max_ns, 777);
    }

    #[test]
    fn max_latency_lands_in_the_top_bucket_without_overflow() {
        let mut hist = LatencyHistogram::default();
        hist.record(u64::MAX);
        hist.record(0);
        let summary = hist.summary();
        assert_eq!(summary.count, 2);
        assert_eq!(summary.max_ns, u64::MAX);
        assert_eq!(summary.p99_ns, u64::MAX, "top bucket's bound is u64::MAX, capped by max");
        assert_eq!(hist.quantile(0.25), 0, "a zero sample lives in bucket 0 with bound 0");
    }

    #[test]
    fn atomic_histogram_matches_single_threaded_bucketing() {
        let registry = MetricsRegistry::enabled();
        let shared = registry.histogram("test.latency");
        let mut reference = LatencyHistogram::default();
        for ns in [0, 1, 2, 3, 1_000, 1_000_000, u64::MAX] {
            shared.record(ns);
            reference.record(ns);
        }
        assert_eq!(shared.load(), reference);
        assert_eq!(shared.load().summary(), reference.summary());
    }

    #[test]
    fn disabled_registry_hands_out_inert_handles() {
        let registry = MetricsRegistry::disabled();
        assert!(!registry.is_enabled());
        let counter = registry.counter("c");
        let gauge = registry.gauge("g");
        let hist = registry.histogram("h");
        counter.inc();
        gauge.set(1.5);
        hist.record(42);
        assert!(!counter.is_enabled() && !gauge.is_enabled() && !hist.is_enabled());
        assert_eq!(counter.get(), 0);
        assert_eq!(gauge.get(), 0.0);
        assert_eq!(hist.load().count(), 0);
        assert!(registry.snapshot().is_empty());
    }

    #[test]
    fn handles_share_cells_and_snapshots_sort_by_name() {
        let registry = MetricsRegistry::enabled();
        let a = registry.counter("zeta.ops");
        let b = registry.counter("zeta.ops");
        a.add(2);
        b.inc();
        registry.gauge("alpha.level").set(0.25);
        registry.histogram("mid.latency").record(7);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters.len(), 1);
        assert_eq!(snapshot.counters[0].value, 3, "same name means the same cell");
        assert_eq!(snapshot.gauges[0].name, "alpha.level");
        assert_eq!(snapshot.histograms[0].latency.count, 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::enabled();
        let _ = registry.counter("metric");
        let _ = registry.gauge("metric");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let registry = MetricsRegistry::enabled();
        registry.counter("serve.batches").add(4);
        registry.gauge("budget.spent").set(2.5);
        registry.histogram("serve.latency_ns").record(1_234);
        let snapshot = registry.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn quantiles_are_monotone(samples in proptest::collection::vec(0u64..=u64::MAX, 0..200)) {
            let mut hist = LatencyHistogram::default();
            for ns in &samples {
                hist.record(*ns);
            }
            let summary = hist.summary();
            prop_assert!(summary.p50_ns <= summary.p95_ns);
            prop_assert!(summary.p95_ns <= summary.p99_ns);
            prop_assert!(summary.p99_ns <= summary.max_ns);
            prop_assert_eq!(summary.max_ns, samples.iter().copied().max().unwrap_or(0));
        }
    }
}
