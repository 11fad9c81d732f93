//! Serving-path kernels in isolation: the adaptive sorted-intersection
//! (`common_neighbor_count`, §4.1's pairwise utility) and the walk
//! workspace (`WalkWorkspace`) behind every utility pass, on its bulk
//! 2-step-walk count.
//!
//! Two headline no-regression asserts, measured once outside the sampler
//! on the 10k-node Barabási–Albert preset:
//!
//! * galloping intersection on hub/leaf pairs must not lose to the linear
//!   merge it replaces (and must return identical counts);
//! * a reused walk workspace must not lose to a fresh one (a fresh dense
//!   array) per target.

#![allow(missing_docs)] // the bench entry point is an undocumented `fn main`
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, Criterion};
use psr_bench::ba_graph_10k;
use psr_graph::algo::{common_neighbor_count, WalkWorkspace};
use psr_graph::{Graph, NodeId};

/// Times `routine` `rounds` times and keeps the fastest run — the
/// standard guard against scheduler noise in a one-shot comparison.
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

/// The linear merge the adaptive kernel falls back to — replicated here
/// as the baseline so the bench can race the two on identical inputs.
fn linear_merge_count(a: &[NodeId], b: &[NodeId]) -> u32 {
    let mut count = 0u32;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Hub/leaf pairs skewed far past the gallop gate: the highest-degree
/// node against every node whose degree is at most a 16th of the hub's.
fn skewed_pairs(graph: &Graph) -> (NodeId, Vec<NodeId>) {
    let hub = graph.nodes().max_by_key(|&v| graph.degree(v)).expect("non-empty");
    let cutoff = (graph.degree(hub) / 16).max(1);
    let leaves: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| v != hub && graph.degree(v) > 0 && graph.degree(v) <= cutoff)
        .take(4_000)
        .collect();
    (hub, leaves)
}

fn kernels_intersection(c: &mut Criterion) {
    let graph = ba_graph_10k();
    let (hub, leaves) = skewed_pairs(&graph);
    assert!(leaves.len() >= 1_000, "BA preset must supply plenty of skewed pairs");

    // Headline: race the adaptive kernel (which takes the galloping path
    // on every one of these pairs) against the linear merge, best of 5.
    let (gallop_time, gallop_sum) = best_of(5, || {
        leaves.iter().map(|&v| u64::from(common_neighbor_count(&graph, hub, v))).sum::<u64>()
    });
    let (linear_time, linear_sum) = best_of(5, || {
        let hub_list = graph.neighbors(hub);
        leaves.iter().map(|&v| u64::from(linear_merge_count(graph.neighbors(v), hub_list))).sum()
    });
    assert_eq!(gallop_sum, linear_sum, "kernels disagree on common-neighbour counts");
    println!(
        "[kernels] {} hub/leaf intersections (hub degree {}): galloping {:.2} ms vs \
         linear merge {:.2} ms ({:.2}x)",
        leaves.len(),
        graph.degree(hub),
        gallop_time.as_secs_f64() * 1e3,
        linear_time.as_secs_f64() * 1e3,
        linear_time.as_secs_f64() / gallop_time.as_secs_f64(),
    );
    assert!(
        gallop_time <= linear_time,
        "galloping ({gallop_time:?}) must not lose to the linear merge ({linear_time:?}) \
         on skewed pairs"
    );

    let mut group = c.benchmark_group("kernels_intersection");
    group.sample_size(20);
    group.bench_function("gallop_hub_leaf", |b| {
        b.iter(|| {
            leaves.iter().map(|&v| u64::from(common_neighbor_count(&graph, hub, v))).sum::<u64>()
        });
    });
    group.bench_function("linear_merge_baseline", |b| {
        let hub_list = graph.neighbors(hub);
        b.iter(|| {
            leaves
                .iter()
                .map(|&v| u64::from(linear_merge_count(graph.neighbors(v), hub_list)))
                .sum::<u64>()
        });
    });
    group.finish();
}

/// Sum and number of the 2-step-walk counts from each target.
fn walk_counts(walk: &mut WalkWorkspace, graph: &Graph, targets: &[NodeId]) -> (u64, u64) {
    let (mut sum, mut len) = (0u64, 0u64);
    for &r in targets {
        walk.common_neighbors(graph, r, |_, c| {
            sum += u64::from(c);
            len += 1;
        });
    }
    (sum, len)
}

/// The same counts on a fresh workspace per target.
fn fresh_walk_counts(graph: &Graph, targets: &[NodeId]) -> (u64, u64) {
    targets.iter().fold((0, 0), |(sum, len), &r| {
        let (s, l) = walk_counts(&mut WalkWorkspace::default(), graph, &[r]);
        (sum + s, len + l)
    })
}

fn kernels_counter(c: &mut Criterion) {
    let graph = ba_graph_10k();
    // Low-degree targets: the walk itself is cheap there, so the fresh
    // baseline's per-call dense allocation is the cost under test.
    let mut targets: Vec<NodeId> = graph.nodes().filter(|&v| graph.degree(v) > 0).collect();
    targets.sort_by_key(|&v| graph.degree(v));
    targets.truncate(256);

    // Headline: a long-lived workspace against a fresh one (a fresh dense
    // array) per target, best of 5.
    let mut walk = WalkWorkspace::default();
    let (reused_time, reused_sum) = best_of(5, || walk_counts(&mut walk, &graph, &targets));
    let (fresh_time, fresh_sum) = best_of(5, || fresh_walk_counts(&graph, &targets));
    assert_eq!(reused_sum, fresh_sum, "workspace reuse changed the counts");
    println!(
        "[kernels] {} bulk-count targets: reused workspace {:.2} ms vs fresh alloc \
         {:.2} ms ({:.2}x)",
        targets.len(),
        reused_time.as_secs_f64() * 1e3,
        fresh_time.as_secs_f64() * 1e3,
        fresh_time.as_secs_f64() / reused_time.as_secs_f64(),
    );
    assert!(
        reused_time <= fresh_time,
        "reused workspace ({reused_time:?}) must not lose to per-call allocation \
         ({fresh_time:?})"
    );

    let mut group = c.benchmark_group("kernels_counter");
    group.sample_size(20);
    group.bench_function("reused_workspace", |b| {
        let mut walk = WalkWorkspace::default();
        b.iter(|| walk_counts(&mut walk, &graph, &targets).1);
    });
    group.bench_function("fresh_workspace", |b| {
        b.iter(|| fresh_walk_counts(&graph, &targets).1);
    });
    group.finish();
}

criterion_group!(benches, kernels_intersection, kernels_counter);

fn main() {
    benches();
    psr_bench::snapshot::write("kernels");
}
