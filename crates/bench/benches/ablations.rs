//! Design-choice ablations (DESIGN.md §5): each bench pair quantifies one
//! decision the reproduction had to make.

#![allow(missing_docs)] // `criterion_main!` expands an undocumented `fn main`
use criterion::{criterion_group, criterion_main, Criterion};
use psr_bench::{median_target, wiki_graph};
use psr_bounds::{best_accuracy_bound, corollary1_accuracy_upper_bound};
use psr_privacy::{laplace_accuracy, Laplace, Mechanism};
use psr_utility::{CommonNeighbors, SensitivityNorm, UtilityFunction};
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(13)
}

/// Ablation 1 — Exponential scaling: the paper's `exp(εu/Δ)` vs the
/// textbook `exp(εu/2Δ)`, which is the paper's form at ε/2. Same cost,
/// different accuracy; Criterion measures cost, the printed note records
/// the accuracy gap.
fn ablation_exp_scaling(c: &mut Criterion) {
    let g = wiki_graph();
    let u = CommonNeighbors.utilities_for(&g, median_target(&g));
    let mut group = c.benchmark_group("ablation_exp_scaling");
    for (name, eps) in [("paper", 1.0), ("standard_half", 0.5)] {
        let acc = Mechanism::Exponential.expected_accuracy(&u, eps, 1.0);
        println!("[ablation_exp_scaling] {name}: expected accuracy {acc:.4}");
        group.bench_function(name, |b| {
            b.iter(|| Mechanism::Exponential.expected_accuracy(&u, eps, 1.0));
        });
    }
    group.finish();
}

/// Ablation 2 — sensitivity norm: Δ₁ vs Δ∞ calibration of the mechanisms
/// (DESIGN.md §4). Identical cost; the accuracy consequence is printed.
fn ablation_sensitivity_norm(c: &mut Criterion) {
    let g = wiki_graph();
    let cn = CommonNeighbors;
    let u = cn.utilities_for(&g, median_target(&g));
    let sens = cn.sensitivity(&g).unwrap();
    let mut group = c.benchmark_group("ablation_sensitivity_norm");
    for (name, norm) in [("l1", SensitivityNorm::L1), ("linf", SensitivityNorm::LInf)] {
        let delta = sens.value(norm);
        let mech = Mechanism::Exponential;
        let acc = mech.expected_accuracy(&u, 1.0, delta);
        println!("[ablation_sensitivity_norm] {name} (Δ = {delta}): accuracy {acc:.4}");
        group.bench_function(name, |b| b.iter(|| mech.expected_accuracy(&u, 1.0, delta)));
    }
    group.finish();
}

/// Ablation 3 — Laplace evaluation strategy: the exact win-probability
/// integral over the value classes (ours) vs 100 trials of naive
/// per-candidate noising (the obvious implementation, which §7.1's 1,000
/// trials would cost ten times over at n ≈ 10⁵).
fn ablation_laplace_grouping(c: &mut Criterion) {
    let g = wiki_graph();
    let u = CommonNeighbors.utilities_for(&g, median_target(&g));
    let mut group = c.benchmark_group("ablation_laplace_eval");
    group.sample_size(10);

    group.bench_function("exact_integral", |b| b.iter(|| laplace_accuracy(&u, 1.0, 1.0)));
    group.bench_function("naive_per_candidate_100_trials", |b| {
        let noise = Laplace::for_mechanism(1.0, 1.0);
        let mut r = rng();
        // Materialise the dense utility vector once (setup cost excluded).
        let mut dense: Vec<f64> = Vec::with_capacity(u.len());
        for &(_, ui) in u.nonzero() {
            dense.push(ui);
        }
        dense.resize(u.len(), 0.0);
        b.iter(|| {
            let mut total = 0.0;
            for _ in 0..100 {
                let mut best = f64::NEG_INFINITY;
                let mut best_u = 0.0;
                for &ui in &dense {
                    let noisy = ui + noise.sample(&mut r);
                    if noisy > best {
                        best = noisy;
                        best_u = ui;
                    }
                }
                total += best_u;
            }
            total / 100.0 / u.u_max()
        });
    });
    group.finish();
}

/// Ablation 4 — Corollary 1's `c`: tightest sweep vs the worked example's
/// fixed `c = 0.99`. The sweep costs more per target and tightens the
/// ceiling; both are measured, the bound gap printed.
fn ablation_corollary_c(c: &mut Criterion) {
    let g = wiki_graph();
    let u = CommonNeighbors.utilities_for(&g, median_target(&g));
    let t = CommonNeighbors.edit_distance_t(&g, median_target(&g), &u).unwrap();
    let n = u.len();
    let k = u.count_above(0.0).max(1);
    let swept = best_accuracy_bound(&u, 1.0, t, None).accuracy_bound;
    let fixed = corollary1_accuracy_upper_bound(1.0, t, n, k.min(n - 1), 0.99);
    println!("[ablation_corollary_c] swept bound {swept:.4} vs fixed-c bound {fixed:.4}");

    let mut group = c.benchmark_group("ablation_corollary_c");
    group.bench_function("swept_c", |b| b.iter(|| best_accuracy_bound(&u, 1.0, t, None)));
    group.bench_function("fixed_c_099", |b| {
        b.iter(|| corollary1_accuracy_upper_bound(1.0, t, n, k.min(n - 1), 0.99))
    });
    group.finish();
}

/// Ablation 5 — max-of-N sampling: direct quantile transform vs naive max
/// over N draws (the primitive behind ablation 3).
fn ablation_max_of_n(c: &mut Criterion) {
    let noise = Laplace::new(1.0);
    let mut group = c.benchmark_group("ablation_max_of_n");
    for n in [100usize, 10_000, 1_000_000] {
        group.bench_function(format!("direct_quantile_n{n}"), |b| {
            let mut r = rng();
            b.iter(|| noise.sample_max_of(n, &mut r));
        });
    }
    // Naive reference at the smallest size only (the point is the gap).
    group.bench_function("naive_loop_n100", |b| {
        let mut r = rng();
        b.iter(|| (0..100).map(|_| noise.sample(&mut r)).fold(f64::NEG_INFINITY, f64::max));
    });
    group.finish();
}

/// Ablation 6 — graph model: does the harsh trade-off need a heavy tail?
/// Same n/m as the wiki graph, Erdős–Rényi vs preferential attachment.
fn ablation_graph_model(c: &mut Criterion) {
    use psr_core::{run_experiment, ExperimentConfig};
    let config = ExperimentConfig {
        epsilon: 0.5,
        target_fraction: 0.02,
        eval_laplace: false,
        ..Default::default()
    };
    let ba = wiki_graph();
    let er = {
        let mut r = rng();
        psr_gen::erdos_renyi::gnm(
            ba.num_nodes(),
            ba.num_edges(),
            psr_graph::Direction::Undirected,
            &mut r,
        )
        .unwrap()
    };
    for (name, graph) in [("preferential_attachment", &ba), ("erdos_renyi", &er)] {
        let result = run_experiment(graph, &CommonNeighbors, &config);
        let starved = result.exponential_accuracies().iter().filter(|&&a| a <= 0.1).count() as f64
            / result.evaluations.len() as f64;
        println!("[ablation_graph_model] {name}: {:.0}% of nodes ≤ 0.1 accuracy", starved * 100.0);
    }
    let mut group = c.benchmark_group("ablation_graph_model");
    group.sample_size(10);
    group.bench_function("experiment_on_ba", |b| {
        b.iter(|| run_experiment(&ba, &CommonNeighbors, &config))
    });
    group.bench_function("experiment_on_er", |b| {
        b.iter(|| run_experiment(&er, &CommonNeighbors, &config))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_exp_scaling,
    ablation_sensitivity_norm,
    ablation_laplace_grouping,
    ablation_corollary_c,
    ablation_max_of_n,
    ablation_graph_model
);
criterion_main!(benches);
