//! Graph backends under the serving read pattern: the plain in-RAM CSR
//! against the compressed (PSRZ) snapshot and the degree-balanced
//! sharded view, on a LiveJournal-class R-MAT preset.
//!
//! Headline no-regression asserts, measured once outside the sampler (so
//! `cargo bench -- --test` smoke runs gate them too):
//!
//! * every backing must return identical adjacency (summed over the whole
//!   graph);
//! * a *warm* compressed scan (decode cache populated) must stay within
//!   [`WARM_OVERHEAD_CEILING`]× of the plain CSR scan — the steady-state
//!   read overhead a serving epoch actually pays;
//! * the cache-free workspace decode must stay within
//!   [`COLD_OVERHEAD_CEILING`]× — the worst-case first-touch cost.
//!
//! Alongside the timed cases the snapshot records byte gauges: snapshot
//! size vs resident CSR size (the compression win) and the process peak
//! RSS (`VmHWM`), the documented memory budget for serving this preset.

#![allow(missing_docs)] // the bench entry point is an undocumented `fn main`
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, Criterion};
use psr_bench::BENCH_SEED;
use psr_datasets::{livejournal_like, PresetConfig};
use psr_graph::{CompressedCsr, Graph, GraphView, NodeId, ShardedGraph};

/// Warm compressed reads may cost at most this multiple of a CSR scan.
const WARM_OVERHEAD_CEILING: f64 = 3.0;

/// Cache-free varint decode may cost at most this multiple of a CSR scan.
const COLD_OVERHEAD_CEILING: f64 = 25.0;

/// LiveJournal-class fixture at 2% scale: ~97k nodes, ~1.3M arcs.
const LJ_SCALE: f64 = 0.02;

fn lj_graph() -> Graph {
    livejournal_like(PresetConfig::scaled(LJ_SCALE, BENCH_SEED)).expect("generation").0
}

/// Times `routine` `rounds` times and keeps the fastest run.
fn best_of<O>(rounds: usize, mut routine: impl FnMut() -> O) -> (Duration, O) {
    let mut best: Option<(Duration, O)> = None;
    for _ in 0..rounds {
        let start = Instant::now();
        let out = black_box(routine());
        let elapsed = start.elapsed();
        match &best {
            Some((fastest, _)) if elapsed >= *fastest => {}
            _ => best = Some((elapsed, out)),
        }
    }
    best.expect("at least one round")
}

/// Full adjacency scan through the [`GraphView`] trait: the access
/// pattern of a utility pass over every node, reduced to a checksum.
fn scan<V: GraphView + ?Sized>(view: &V) -> u64 {
    let mut sum = 0u64;
    for v in view.nodes() {
        for &t in view.neighbors(v) {
            sum = sum.wrapping_add(u64::from(t));
        }
    }
    sum
}

/// The same scan through [`GraphView::neighbors_into`]. On a snapshot
/// whose decode cache is empty every list is decoded into `scratch`.
fn scan_workspace<V: GraphView + ?Sized>(view: &V, scratch: &mut Vec<NodeId>) -> u64 {
    let mut sum = 0u64;
    for v in view.nodes() {
        for &t in view.neighbors_into(v, scratch) {
            sum = sum.wrapping_add(u64::from(t));
        }
    }
    sum
}

/// Linux peak resident set size (`VmHWM`) in bytes, 0 where unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find(|l| l.starts_with("VmHWM:")).and_then(|line| {
                line.split_whitespace().nth(1).and_then(|kb| kb.parse::<u64>().ok())
            })
        })
        .map_or(0, |kb| kb * 1024)
}

fn backend_reads(c: &mut Criterion) {
    let graph = lj_graph();
    let bytes = CompressedCsr::encode(&graph, 8);
    psr_bench::snapshot::record_gauge("graph_backend/snapshot_bytes", bytes.len() as f64, "bytes");
    psr_bench::snapshot::record_gauge(
        "graph_backend/csr_resident_bytes",
        graph.resident_bytes() as f64,
        "bytes",
    );
    // `cold` is read only through `neighbors_into`, so its cache stays
    // empty and every scan of it decodes.
    let cold = CompressedCsr::open_bytes(bytes.clone()).expect("fresh snapshot validates");
    let compressed = CompressedCsr::open_bytes(bytes).expect("fresh snapshot validates");
    let sharded = ShardedGraph::from_view(&graph, 8);

    // Correctness first: all four read paths must see the same adjacency.
    let csr_sum = scan(&graph);
    let mut scratch = Vec::new();
    assert_eq!(scan_workspace(&cold, &mut scratch), csr_sum, "workspace decode diverged");
    assert_eq!(scan(&compressed), csr_sum, "compressed reads diverged"); // also warms the cache
    assert_eq!(scan(&sharded), csr_sum, "sharded reads diverged");

    // Headline: steady-state (warm) compressed overhead vs the plain CSR,
    // and the cache-free first-touch cost, best of 5 each.
    let (csr_time, _) = best_of(5, || scan(&graph));
    let (warm_time, _) = best_of(5, || scan(&compressed));
    let (cold_time, _) = best_of(5, || scan_workspace(&cold, &mut scratch));
    assert_eq!(cold.cached_nodes(), 0, "workspace decode must not fill the cache");
    let (sharded_time, _) = best_of(5, || scan(&sharded));
    println!(
        "[graph_backend] {} nodes / {} arcs scan: csr {:.2} ms, compressed warm {:.2} ms \
         ({:.2}x), workspace decode {:.2} ms ({:.2}x), sharded {:.2} ms ({:.2}x)",
        graph.num_nodes(),
        graph.num_arcs(),
        csr_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() / csr_time.as_secs_f64(),
        cold_time.as_secs_f64() * 1e3,
        cold_time.as_secs_f64() / csr_time.as_secs_f64(),
        sharded_time.as_secs_f64() * 1e3,
        sharded_time.as_secs_f64() / csr_time.as_secs_f64(),
    );
    assert!(
        warm_time.as_secs_f64() <= WARM_OVERHEAD_CEILING * csr_time.as_secs_f64(),
        "warm compressed scan ({warm_time:?}) exceeds {WARM_OVERHEAD_CEILING}x the CSR scan \
         ({csr_time:?})"
    );
    assert!(
        cold_time.as_secs_f64() <= COLD_OVERHEAD_CEILING * csr_time.as_secs_f64(),
        "workspace decode ({cold_time:?}) exceeds {COLD_OVERHEAD_CEILING}x the CSR scan \
         ({csr_time:?})"
    );

    let mut group = c.benchmark_group("graph_backend_scan");
    group.sample_size(10);
    group.bench_function("csr", |b| b.iter(|| scan(&graph)));
    group.bench_function("compressed_warm", |b| b.iter(|| scan(&compressed)));
    group.bench_function("compressed_workspace", |b| {
        let mut scratch = Vec::new();
        b.iter(|| scan_workspace(&cold, &mut scratch));
    });
    group.bench_function("sharded", |b| b.iter(|| scan(&sharded)));
    group.finish();
}

fn backend_open(c: &mut Criterion) {
    let graph = lj_graph();
    let bytes = CompressedCsr::encode(&graph, 8);

    let mut group = c.benchmark_group("graph_backend_open");
    group.sample_size(10);
    // Validate-on-open is the price of the trust-on-read decode path: one
    // full checksum + structural pass over the snapshot.
    group.bench_function("validate_open", |b| {
        b.iter(|| CompressedCsr::open_bytes(bytes.clone()).expect("valid snapshot"));
    });
    group.finish();
}

criterion_group!(benches, backend_reads, backend_open);

fn main() {
    benches();
    psr_bench::snapshot::record_gauge(
        "graph_backend/peak_rss_bytes",
        peak_rss_bytes() as f64,
        "bytes",
    );
    psr_bench::snapshot::write("graph_backend");
}
