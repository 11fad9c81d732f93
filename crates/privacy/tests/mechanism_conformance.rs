//! Chi-square conformance: every arm of [`Mechanism::sample`] draws the
//! same concrete recommendation distribution as the single-recommendation
//! samplers it replaced.
//!
//! The reference copies below are the former per-mechanism
//! `recommend` methods followed by the former single-slot zero-class
//! resolver: the grouped Laplace noisy argmax (Definition 6), linear
//! smoothing over `R_best` (Definition 7), and the exponential
//! mechanism's inverse-CDF roll over its exact probabilities
//! (Definition 5). The moved samplers consume the RNG differently — the
//! exponential arm runs the top-`k` engines, and every arm resolves a
//! zero-class slot with [`psr_privacy::resolve_zero_class_distinct`] — so
//! the streams differ and only the laws can be compared.
//!
//! Each case draws 60,000 concrete ids from both samplers and compares the
//! two count vectors with the two-sample χ² statistic
//! `Σ (aᵢ − bᵢ)² / (aᵢ + bᵢ)`; ids with fewer than 20 draws in total are
//! pooled into one bin. The critical value is χ²(df, 0.999) by the
//! Wilson–Hilferty approximation. The vectors cover many distinct
//! values, ties, and a dominant zero class, so both resolver paths run.
//! A sampler that returns the argmax 3% more often is
//! rejected by the same statistic, so the test has the power to see a
//! biased sampler.

use std::collections::BTreeMap;

use psr_graph::{Direction, GraphBuilder, NodeId};
use psr_privacy::{exponential_probabilities, Laplace, Mechanism, TopKEngine};
use psr_utility::{CandidateSet, UtilityVector};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const DRAWS: usize = 60_000;

/// χ²(df, 0.999) by Wilson–Hilferty: `df·(1 − 2/(9df) + z·√(2/(9df)))³`.
fn chi2_crit(df: usize) -> f64 {
    let df = df as f64;
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + 3.090_232 * a.sqrt()).powi(3)
}

/// Target 0 of an edgeless `n`-node graph (candidates `1..n`) with the
/// given non-zero utilities; every other candidate is in the zero class.
fn case(
    label: &'static str,
    n: usize,
    nonzero: &[(NodeId, f64)],
) -> (&'static str, CandidateSet, UtilityVector) {
    let g = GraphBuilder::new(Direction::Undirected).with_num_nodes(n).build().unwrap();
    let candidates = CandidateSet::for_target(&g, 0);
    let u = UtilityVector::from_sparse(nonzero.to_vec(), candidates.len() - nonzero.len());
    (label, candidates, u)
}

/// Many distinct values (with a zero class under half of the id range,
/// so zero-class slots take the reservoir and rank-pick paths), ties, and
/// a dominant zero class (the rejection path).
fn cases() -> Vec<(&'static str, CandidateSet, UtilityVector)> {
    let many: Vec<(NodeId, f64)> = (1..=24).map(|v| (v, v as f64 * 0.25)).collect();
    let ties = [(1, 3.0), (2, 3.0), (3, 3.0), (4, 2.0), (5, 2.0), (6, 1.0), (7, 1.0), (8, 1.0)];
    vec![
        case("many-valued", 40, &many),
        case("ties", 40, &ties),
        case("dominant zero class", 64, &[(1, 2.0), (2, 1.0)]),
    ]
}

/// The former single-slot zero-class resolver: the rejection path when
/// the class covers half of the id range (and one pick is at most half
/// of it), otherwise the member at a uniform rank in id order.
fn reference_resolve(
    u: &UtilityVector,
    candidates: &CandidateSet,
    rng: &mut dyn RngCore,
) -> NodeId {
    let class = u.num_zero();
    let n = candidates.num_nodes();
    if class >= n.div_ceil(2) && 1 <= class / 2 {
        loop {
            let v = rng.gen_range(0..n as NodeId);
            if candidates.contains(v) && u.get(v) == 0.0 {
                return v;
            }
        }
    }
    let pick = rng.gen_range(0..class);
    candidates.iter().filter(|&v| u.get(v) == 0.0).nth(pick).unwrap()
}

/// The former Laplace `recommend`: the grouped noisy argmax, then a
/// uniform member of the winning class.
fn reference_laplace(
    u: &UtilityVector,
    candidates: &CandidateSet,
    eps: f64,
    rng: &mut dyn RngCore,
) -> NodeId {
    let noise = Laplace::for_mechanism(1.0, eps);
    let groups = u.grouped_desc();
    let (mut best, mut best_val) = (0, f64::NEG_INFINITY);
    for (i, &(value, count)) in groups.iter().enumerate() {
        let noisy = value + noise.sample_max_of(count, rng);
        if noisy > best_val {
            (best, best_val) = (i, noisy);
        }
    }
    let (value, count) = groups[best];
    if value == 0.0 {
        return reference_resolve(u, candidates, rng);
    }
    let pick = rng.gen_range(0..count);
    u.nonzero().iter().filter(|&&(_, ui)| ui == value).nth(pick).unwrap().0
}

/// The former smoothing `recommend` over `R_best`.
fn reference_smoothing(
    u: &UtilityVector,
    candidates: &CandidateSet,
    x: f64,
    rng: &mut dyn RngCore,
) -> NodeId {
    if rng.gen::<f64>() < x {
        if let Some(v) = u.argmax() {
            return v;
        }
    }
    let pick = rng.gen_range(0..u.len());
    match u.nonzero().get(pick) {
        Some(&(v, _)) => v,
        None => reference_resolve(u, candidates, rng),
    }
}

/// The former exponential `recommend`: one inverse-CDF roll over the
/// exact probabilities, the remaining mass landing in the zero class.
fn reference_exponential(
    u: &UtilityVector,
    candidates: &CandidateSet,
    eps: f64,
    rng: &mut dyn RngCore,
) -> NodeId {
    let (probs, _) = exponential_probabilities(u, eps, 1.0);
    let mut roll: f64 = rng.gen();
    for (&(v, _), &p) in u.nonzero().iter().zip(&probs) {
        if roll < p {
            return v;
        }
        roll -= p;
    }
    reference_resolve(u, candidates, rng)
}

/// Concrete-id counts of `DRAWS` draws.
fn counts(seed: u64, mut draw: impl FnMut(&mut StdRng) -> NodeId) -> BTreeMap<NodeId, f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = BTreeMap::new();
    for _ in 0..DRAWS {
        *counts.entry(draw(&mut rng)).or_insert(0.0) += 1.0;
    }
    counts
}

/// Two-sample χ² over equal-size count vectors, sparse ids pooled; returns
/// `(statistic, degrees of freedom)`.
fn two_sample_chi2(a: &BTreeMap<NodeId, f64>, b: &BTreeMap<NodeId, f64>) -> (f64, usize) {
    let ids: std::collections::BTreeSet<NodeId> = a.keys().chain(b.keys()).copied().collect();
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let mut pooled = (0.0, 0.0);
    for id in ids {
        let (x, y) = (a.get(&id).copied().unwrap_or(0.0), b.get(&id).copied().unwrap_or(0.0));
        if x + y < 20.0 {
            pooled = (pooled.0 + x, pooled.1 + y);
        } else {
            bins.push((x, y));
        }
    }
    if pooled.0 + pooled.1 > 0.0 {
        bins.push(pooled);
    }
    let stat = bins.iter().map(|&(x, y)| (x - y) * (x - y) / (x + y)).sum();
    (stat, bins.len().saturating_sub(1).max(1))
}

fn assert_same_law(label: &str, ours: &BTreeMap<NodeId, f64>, reference: &BTreeMap<NodeId, f64>) {
    let (stat, df) = two_sample_chi2(ours, reference);
    let crit = chi2_crit(df);
    assert!(stat < crit, "{label}: χ² = {stat:.1} over {df} df exceeds {crit:.1} (0.999)");
}

/// `mechanism`'s moved sampler, one slot.
fn moved(
    mechanism: Mechanism,
    engine: TopKEngine,
    u: &UtilityVector,
    candidates: &CandidateSet,
    eps: f64,
    rng: &mut StdRng,
) -> NodeId {
    let draw = mechanism.sample(engine, u, candidates, 1, eps, 1.0, rng);
    assert_eq!(draw.picks.len(), 1);
    assert!(candidates.contains(draw.picks[0]));
    assert_eq!(draw.zero_class_picks == 1, u.get(draw.picks[0]) == 0.0);
    draw.picks[0]
}

#[test]
fn laplace_arm_matches_the_former_laplace_sampler() {
    for (label, candidates, u) in cases() {
        for eps in [0.5, 2.0] {
            let ours = counts(1, |r| {
                moved(Mechanism::Laplace, TopKEngine::Gumbel, &u, &candidates, eps, r)
            });
            let reference = counts(2, |r| reference_laplace(&u, &candidates, eps, r));
            assert_same_law(&format!("laplace {label} ε={eps}"), &ours, &reference);
        }
    }
}

#[test]
fn smoothing_arm_matches_the_former_smoothing_sampler() {
    for (label, candidates, u) in cases() {
        for x in [0.05, 0.6] {
            let mechanism = Mechanism::Smoothing { x };
            let ours = counts(3, |r| moved(mechanism, TopKEngine::Gumbel, &u, &candidates, 1.0, r));
            let reference = counts(4, |r| reference_smoothing(&u, &candidates, x, r));
            assert_same_law(&format!("smoothing {label} x={x}"), &ours, &reference);
        }
    }
}

#[test]
fn exponential_single_slot_matches_the_single_draw_law() {
    for (label, candidates, u) in cases() {
        for engine in [TopKEngine::Gumbel, TopKEngine::Peel] {
            let ours =
                counts(5, |r| moved(Mechanism::Exponential, engine, &u, &candidates, 1.0, r));
            let reference = counts(6, |r| reference_exponential(&u, &candidates, 1.0, r));
            assert_same_law(&format!("exponential {label} {}", engine.name()), &ours, &reference);
        }
    }
}

#[test]
fn the_statistic_rejects_a_sampler_biased_toward_the_argmax() {
    for (label, candidates, u) in cases() {
        let best = u.argmax().unwrap();
        let biased = counts(7, |r| {
            if r.gen::<f64>() < 0.03 {
                best
            } else {
                moved(Mechanism::Laplace, TopKEngine::Gumbel, &u, &candidates, 0.5, r)
            }
        });
        let reference = counts(8, |r| reference_laplace(&u, &candidates, 0.5, r));
        let (stat, df) = two_sample_chi2(&biased, &reference);
        assert!(
            stat > chi2_crit(df),
            "{label}: a 3% argmax bias went unseen (χ² = {stat:.1} over {df} df)"
        );
    }
}
