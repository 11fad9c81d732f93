//! Mechanism micro-benchmarks: the per-recommendation serving cost.

#![allow(missing_docs)] // `criterion_main!` expands an undocumented `fn main`
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use psr_bench::{median_target, wiki_graph};
use psr_privacy::{laplace_accuracy, Mechanism, TopKEngine};
use psr_utility::{CandidateSet, CommonNeighbors, UtilityFunction, UtilityVector};
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(7)
}

/// A realistic utility vector: mid-degree wiki target under common
/// neighbours (a handful of non-zero scores, thousands of zeros), with
/// its candidate set.
fn wiki_vector() -> (CandidateSet, UtilityVector) {
    let g = wiki_graph();
    let candidates = CandidateSet::for_target(&g, median_target(&g));
    let u = CommonNeighbors.utilities(&g, median_target(&g), &candidates);
    (candidates, u)
}

/// A synthetic wide vector stressing the non-zero path.
fn wide_vector(nonzero: u32, zeros: usize) -> UtilityVector {
    UtilityVector::from_sparse((0..nonzero).map(|i| (i, 1.0 + (i % 17) as f64)).collect(), zeros)
}

fn bench_mechanisms(c: &mut Criterion) {
    let mut group = c.benchmark_group("mechanisms");
    let (candidates, wiki) = wiki_vector();
    let mut recommend = |name: &str, mechanism: Mechanism| {
        group.bench_function(name, |b| {
            let mut r = rng();
            b.iter(|| {
                mechanism.sample(TopKEngine::Gumbel, &wiki, &candidates, 1, 1.0, 1.0, &mut r)
            });
        });
    };
    recommend("exponential_recommend_wiki_target", Mechanism::Exponential);
    recommend("laplace_recommend_wiki_target", Mechanism::Laplace);
    recommend("smoothing_recommend_wiki_target", Mechanism::Smoothing { x: 0.5 });
    group.bench_function("exponential_expected_accuracy_wiki_target", |b| {
        let mut r = rng();
        b.iter(|| Mechanism::Exponential.expected_accuracy(&wiki, 1.0, 1.0, &mut r));
    });
    group.bench_function("laplace_1000_trials_wiki_target", |b| {
        let mut r = rng();
        b.iter(|| laplace_accuracy(&wiki, 1.0, 1.0, 1000, &mut r));
    });

    // Scaling in the non-zero support size.
    for nonzero in [16u32, 256, 4096] {
        let v = wide_vector(nonzero, 100_000);
        group.bench_function(format!("exponential_accuracy_nnz_{nonzero}"), |b| {
            let mut r = rng();
            b.iter(|| Mechanism::Exponential.expected_accuracy(&v, 1.0, 1.0, &mut r));
        });
    }

    // Top-k peeling (extension): cost per extra slot.
    let v = wide_vector(64, 10_000);
    for k in [1usize, 5, 10] {
        group.bench_function(format!("topk_exponential_k{k}"), |b| {
            let mut r = rng();
            b.iter_batched(
                || v.clone(),
                |v| psr_privacy::topk::topk_exponential(&v, k, 2.0, 1.0, &mut r),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mechanisms);
criterion_main!(benches);
