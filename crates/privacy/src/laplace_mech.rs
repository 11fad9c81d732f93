//! The Laplace mechanism (Definition 6) behind [`crate::Mechanism::Laplace`].
//!
//! Utilities take few distinct values, and the candidates of one value
//! class are exchangeable. The sampler draws each class's noisy maximum
//! exactly ([`Laplace::sample_max_of`]), so a draw costs `O(#classes)`;
//! [`laplace_win_probabilities`] integrates the same law, and
//! [`laplace_accuracy`] and the attack's likelihoods read it.

use std::sync::OnceLock;

use psr_graph::NodeId;
use psr_utility::UtilityVector;
use rand::Rng;

use crate::laplace_dist::Laplace;

/// One noisy-argmax draw over the grouped representation; returns the
/// winning group's index into `groups`.
fn winning_group(groups: &[(f64, usize)], noise: &Laplace, rng: &mut (impl Rng + ?Sized)) -> usize {
    debug_assert!(!groups.is_empty());
    let mut best_idx = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    for (idx, &(value, count)) in groups.iter().enumerate() {
        let noisy = value + noise.sample_max_of(count, rng);
        if noisy > best_val {
            best_val = noisy;
            best_idx = idx;
        }
    }
    best_idx
}

/// The Laplace mechanism prepared over one utility vector: its noise, its
/// value classes in [`UtilityVector::grouped_desc`] order, and the
/// non-zero members of every class, so a draw costs `O(#classes)`.
#[derive(Debug, Clone)]
pub(crate) struct LaplaceClasses {
    noise: Laplace,
    groups: Vec<(f64, usize)>,
    /// The non-zero candidates, class by class in `groups` order, each
    /// class in id order.
    members: Vec<NodeId>,
    /// Where each class's members start in `members`.
    starts: Vec<usize>,
}

impl LaplaceClasses {
    /// Groups `u` for draws under `Lap(Δf/ε)` noise.
    pub(crate) fn new(u: &UtilityVector, eps: f64, sensitivity: f64) -> Self {
        let groups = u.grouped_desc();
        // A stable sort by value lays the classes out in `groups` order,
        // each in id order.
        let mut by_value = u.nonzero().to_vec();
        by_value.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite utilities"));
        let members = by_value.into_iter().map(|(v, _)| v).collect();
        let starts = groups
            .iter()
            .scan(0, |start, &(_, count)| {
                let class_start = *start;
                *start += count;
                Some(class_start)
            })
            .collect();
        LaplaceClasses { noise: Laplace::for_mechanism(sensitivity, eps), groups, members, starts }
    }

    /// Perturbs every utility with the noise and returns the noisy argmax:
    /// a uniform member of the winning value class (exchangeable by
    /// symmetry of the i.i.d. noise), or `None` when the zero class wins.
    pub(crate) fn winner(&self, rng: &mut dyn rand::RngCore) -> Option<NodeId> {
        let class = winning_group(&self.groups, &self.noise, rng);
        let (value, count) = self.groups[class];
        if value == 0.0 {
            return None;
        }
        let pick = rng.gen_range(0..count);
        Some(self.members[self.starts[class] + pick])
    }
}

/// Quadrature settings: the tail runs `TAIL` noise scales past
/// `u_max + b·ln M`; a piece of width `w` gets `2 + ⌈4w/b⌉` points (at
/// most 16) and is bisected, at most 30 times, until its mass is right to
/// `PIECE_TOL` relatively plus `PIECE_FLOOR`.
const TAIL: f64 = 40.0;
const POINTS_PER_SCALE: f64 = 4.0;
const MAX_ORDER: usize = 16;
const PIECE_TOL: f64 = 1e-14;
const PIECE_FLOOR: f64 = 1e-17;
const MAX_DEPTH: u32 = 30;

/// The probability that the Laplace mechanism recommends one given
/// member of each value class of `u`, in [`UtilityVector::grouped_desc`]
/// order: `Σ_g m_g·p_g = 1` over class sizes `m_g`.
///
/// With `f`, `F` the pdf and CDF of `Lap(b)`, `b = Δf/ε`, and
/// `Φ(x) = Π_h F(x − v_h)^{m_h}` the CDF of the noisy maximum over the
/// classes `(v_h, m_h)`, `p_g = ∫ f(x − v_g) / F(x − v_g) · Φ(x) dx`.
/// Below the lowest value the integral is closed-form, `Φ(v_min)/M` over
/// all `M` candidates. Above it, Gauss–Legendre rules run in log space on
/// pieces split at the class values (the integrand's kinks) and on to
/// `u_max + b·(40 + ln M)`. One pass over the classes per point gives
/// every class, so a point costs O(G) for G classes.
///
/// **Error bound.** Summed over all candidates the integrand is the
/// density of the maximum, whose integral over a piece is exactly `Φ`'s
/// increment; each piece is bisected until its quadrature of that density
/// matches the increment to `1e-14` relatively plus `1e-17` (and the few
/// ulps `Φ` is rounded by), and the tail beyond holds at most `e^{−40}`.
/// So `Σ_g m_g·p_g` is within about `1e-13` of one for up to ~10⁴ classes,
/// each `p_g` being a term of it (tested: Lemma 3 and unit mass to
/// `1e-12`, a 10⁶-draw Monte Carlo within 4σ); a `p_g` far below that has
/// no relative guarantee.
///
/// # Panics
/// Panics unless `eps` and `sensitivity` are positive and `u` has a
/// candidate.
pub fn laplace_win_probabilities(u: &UtilityVector, eps: f64, sensitivity: f64) -> Vec<f64> {
    let b = Laplace::for_mechanism(sensitivity, eps).scale();
    let groups = u.grouped_desc();
    let members: f64 = groups.iter().map(|&(_, m)| m as f64).sum();
    // Abscissas count from the top value: the mass keeps full precision.
    let classes: Vec<(f64, f64)> =
        groups.iter().map(|&(v, m)| (v - groups[0].0, m as f64)).collect();
    let n = classes.len();
    let (mut p, mut piece, mut ratio) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let end = |x: f64, ratio: &mut [f64]| (x, log_phi(&classes, b, x, ratio).0);
    let mut left = end(classes[n - 1].0, &mut ratio);
    p.fill(left.1.exp() / members);
    // Pieces `(left, right, order, depth)`, each end `(x, ln Φ(x))`.
    let mut pieces = Vec::new();
    for x in classes.iter().rev().skip(1).map(|c| c.0).chain([b * (TAIL + members.ln())]) {
        let right = end(x, &mut ratio);
        let order = 2 + (POINTS_PER_SCALE * (right.0 - left.0) / b).ceil() as usize;
        pieces.push((left, right, order.min(MAX_ORDER), 0));
        left = right;
    }
    pieces.reverse();
    while let Some((left, right, order, depth)) = pieces.pop() {
        let (mid, half) = (0.5 * (left.0 + right.0), 0.5 * (right.0 - left.0));
        piece.fill(0.0);
        let mut mass = 0.0;
        for &(node, weight) in gauss_legendre(order) {
            let (log_phi, slope) = log_phi(&classes, b, mid + half * node, &mut ratio);
            let c = half * weight * log_phi.exp() / b;
            piece.iter_mut().zip(&ratio).for_each(|(acc, &r)| *acc += c * r);
            mass += c * slope;
        }
        // Each Φ carries its log-sum's rounding, a few ulps of ln Φ.
        let rounding = |(_, ln_phi): (f64, f64)| 4.0 * f64::EPSILON * (1.0 - ln_phi) * ln_phi.exp();
        let exact = right.1.exp() - left.1.exp();
        let tolerance = PIECE_TOL * exact + PIECE_FLOOR + rounding(left) + rounding(right);
        if (mass - exact).abs() > tolerance && depth < MAX_DEPTH {
            let middle = end(mid, &mut ratio);
            pieces.push((middle, right, order, depth + 1));
            pieces.push((left, middle, order, depth + 1));
        } else {
            p.iter_mut().zip(&piece).for_each(|(p, &acc)| *p += acc);
        }
    }
    p
}

/// `ln Φ(x)` and `Σ_h m_h·b·f/F(x − v_h)` over `classes` (`v_h − u_max`,
/// `m_h`), with each class's `b·f/F` into `ratio`.
fn log_phi(classes: &[(f64, f64)], b: f64, x: f64, ratio: &mut [f64]) -> (f64, f64) {
    let (mut log_phi, mut slope) = (0.0, 0.0);
    for (&(d, m), ratio) in classes.iter().zip(ratio) {
        let z = (x - d) / b;
        // Below v: F = ½e^{z}, f/F = 1/b. Above: F = 1 − ½e^{−z},
        // f/F = e^{−z} / (b·(2 − e^{−z})).
        let (ln_cdf, r) = if z < 0.0 {
            (z - std::f64::consts::LN_2, 1.0)
        } else {
            let e = (-z).exp();
            ((-0.5 * e).ln_1p(), e / (2.0 - e))
        };
        *ratio = r;
        log_phi += m * ln_cdf;
        slope += m * r;
    }
    (log_phi, slope)
}

/// The `n`-point Gauss–Legendre rule on `[−1, 1]` as `(node, weight)`
/// pairs, `n ≤ MAX_ORDER`, built once by Newton's method.
fn gauss_legendre(n: usize) -> &'static [(f64, f64)] {
    static RULES: OnceLock<Vec<Vec<(f64, f64)>>> = OnceLock::new();
    &RULES.get_or_init(|| (0..=MAX_ORDER).map(legendre_rule).collect())[n]
}

fn legendre_rule(n: usize) -> Vec<(f64, f64)> {
    // P_n(x) and P_n'(x) by the three-term recurrence; nodes by Newton.
    let legendre = |x: f64| {
        let (mut p0, mut p1) = (1.0, x);
        for k in 2..=n {
            let k = k as f64;
            (p0, p1) = (p1, ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k);
        }
        (p1, n as f64 * (x * p1 - p0) / (x * x - 1.0))
    };
    (0..n)
        .map(|i| {
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            for _ in 0..100 {
                let (p, dp) = legendre(x);
                x -= p / dp;
            }
            let dp = legendre(x).1;
            (x, 2.0 / ((1.0 - x * x) * dp * dp))
        })
        .collect()
}

/// Exact expected accuracy `E[u_rec] / u_max` of the Laplace mechanism,
/// `Σ_g v_g·m_g·p_g / u_max` over [`laplace_win_probabilities`].
///
/// # Panics
/// Panics if `u` is all-zero (accuracy is undefined).
pub fn laplace_accuracy(u: &UtilityVector, eps: f64, sensitivity: f64) -> f64 {
    assert!(!u.is_all_zero(), "accuracy undefined for all-zero utility vectors");
    let p = laplace_win_probabilities(u, eps, sensitivity);
    let groups = u.grouped_desc().into_iter().zip(p);
    groups.map(|((v, m), p)| v * m as f64 * p).sum::<f64>() / u.u_max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::laplace_two_candidate_win_prob;
    use psr_utility::UtilityVector;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn laplace_winner(
        u: &UtilityVector,
        eps: f64,
        sensitivity: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Option<NodeId> {
        LaplaceClasses::new(u, eps, sensitivity).winner(rng)
    }

    #[test]
    fn grouped_sampler_matches_naive_on_small_vector() {
        // u = (3, 1, 0, 0): compare grouped winner frequencies against
        // naive per-candidate noising.
        let u = UtilityVector::from_sparse(vec![(0, 3.0), (1, 1.0)], 2);
        let noise = Laplace::for_mechanism(1.0, 1.0);
        let mut r = rng(11);
        let trials = 120_000;

        let mut grouped_top = 0usize;
        for _ in 0..trials {
            if laplace_winner(&u, 1.0, 1.0, &mut r) == Some(0) {
                grouped_top += 1;
            }
        }
        let mut naive_top = 0usize;
        for _ in 0..trials {
            let vals = [3.0, 1.0, 0.0, 0.0];
            let noisy: Vec<f64> = vals.iter().map(|v| v + noise.sample(&mut r)).collect();
            let best =
                noisy.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
            if best == 0 {
                naive_top += 1;
            }
        }
        let a = grouped_top as f64 / trials as f64;
        let b = naive_top as f64 / trials as f64;
        assert!((a - b).abs() < 0.01, "grouped {a} vs naive {b}");
    }

    #[test]
    fn two_candidate_frequencies_match_lemma3() {
        // n = 2: Lemma 3 gives the exact win probability.
        let (u1, u2, eps) = (2.5, 1.0, 0.8);
        let u = UtilityVector::from_sparse(vec![(0, u1), (1, u2)], 0);
        let mut r = rng(12);
        let trials = 200_000;
        let mut wins = 0usize;
        for _ in 0..trials {
            if laplace_winner(&u, eps, 1.0, &mut r) == Some(0) {
                wins += 1;
            }
        }
        let expected = laplace_two_candidate_win_prob(eps, u1 - u2);
        let got = wins as f64 / trials as f64;
        assert!((got - expected).abs() < 0.005, "got {got}, Lemma 3 says {expected}");
    }

    #[test]
    fn accuracy_increases_with_eps() {
        let u = UtilityVector::from_sparse(vec![(0, 5.0), (1, 3.0), (2, 1.0)], 50);
        let lo = laplace_accuracy(&u, 0.1, 1.0);
        let hi = laplace_accuracy(&u, 3.0, 1.0);
        assert!(hi > lo, "accuracy should grow with eps: {lo} vs {hi}");
        assert!(hi <= 1.0 + 1e-9);
        assert!(lo >= 0.0);
    }

    #[test]
    fn huge_eps_recovers_best_recommendation() {
        let u = UtilityVector::from_sparse(vec![(7, 5.0), (9, 3.0)], 100);
        let acc = laplace_accuracy(&u, 200.0, 1.0);
        assert!((acc - 1.0).abs() < 1e-6, "acc {acc}");
        assert_eq!(laplace_winner(&u, 200.0, 1.0, &mut rng(15)), Some(7));
    }

    #[test]
    fn zero_class_can_win_under_strong_privacy() {
        let u = UtilityVector::from_sparse(vec![(0, 1.0)], 100_000);
        let mut r = rng(16);
        let zero_wins = (0..200).filter(|_| laplace_winner(&u, 0.1, 1.0, &mut r).is_none()).count();
        // With ε = 0.1 and 10⁵ zero candidates the max zero noise is ~b·ln(n/2)
        // ≈ 108 ≫ 1; the zero class should essentially always win.
        assert!(zero_wins > 190, "zero class won only {zero_wins}/200");
    }

    #[test]
    fn ties_are_split_within_class() {
        let u = UtilityVector::from_sparse(vec![(3, 2.0), (8, 2.0)], 0);
        let mut r = rng(17);
        let mut first = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            match laplace_winner(&u, 5.0, 1.0, &mut r) {
                Some(3) => first += 1,
                Some(8) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let f = first as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.02, "tie split {f}");
    }

    #[test]
    #[should_panic(expected = "accuracy undefined")]
    fn all_zero_vector_rejected() {
        let u = UtilityVector::from_sparse(vec![], 5);
        let _ = crate::Mechanism::Laplace.expected_accuracy(&u, 1.0, 1.0);
    }

    #[test]
    fn gauss_legendre_rules_are_exact_to_degree_2n_minus_1() {
        for n in 1..=MAX_ORDER {
            for degree in 0..2 * n {
                let got: f64 =
                    gauss_legendre(n).iter().map(|&(x, w)| w * x.powi(degree as i32)).sum();
                let want = if degree % 2 == 0 { 2.0 / (degree as f64 + 1.0) } else { 0.0 };
                assert!((got - want).abs() < 1e-14, "n {n}, x^{degree}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn members_of_a_single_class_share_the_win() {
        for members in [1, 7, 1000] {
            let u = UtilityVector::from_sparse((0..members).map(|v| (v, 2.0)).collect(), 0);
            let p = laplace_win_probabilities(&u, 0.7, 1.0)[0];
            assert!((p * members as f64 - 1.0).abs() < 1e-12, "{members} members: {p}");
        }
    }

    /// `(name, vector, sensitivity)`: a many-valued vector with ties, one
    /// dominated by 10⁶ zero-utility candidates, and a real
    /// weighted-paths vector (karate club, target 0, γ = 0.005, Δf at
    /// the L∞ calibration the experiments use).
    fn battery() -> Vec<(&'static str, UtilityVector, f64)> {
        use psr_utility::{SensitivityNorm, UtilityFunction, WeightedPaths};
        let many = (0..60).map(|i| (i, 0.5 + 0.5 * ((i * 7) % 23) as f64)).collect();
        let zero = vec![(0, 3.0), (1, 2.0), (2, 2.0), (3, 1.0), (4, 1.0), (5, 1.0)];
        let graph = psr_datasets::toy::karate_club();
        let wp = WeightedPaths { gamma: 0.005, max_len: 3 };
        let sensitivity = wp.sensitivity(&graph).unwrap().value(SensitivityNorm::LInf);
        vec![
            ("many-valued", UtilityVector::from_sparse(many, 200), 1.0),
            ("zero-dominated", UtilityVector::from_sparse(zero, 1_000_000), 1.0),
            ("weighted paths", wp.utilities_for(&graph, 0), sensitivity),
        ]
    }

    #[test]
    fn win_probabilities_match_lemma3_over_an_eps_gap_grid() {
        for eps in [0.05, 0.3, 0.7, 1.0, 2.0, 5.0, 20.0] {
            for gap in [0.01, 0.3, 1.0, 2.5, 7.0, 30.0] {
                let u = UtilityVector::from_sparse(vec![(0, 1.0 + gap), (1, 1.0)], 0);
                let p = laplace_win_probabilities(&u, eps, 1.0);
                let want = laplace_two_candidate_win_prob(eps, gap);
                assert!((p[0] - want).abs() < 1e-12, "ε {eps}, gap {gap}: {} vs {want}", p[0]);
                assert!((p[1] - (1.0 - want)).abs() < 1e-12, "ε {eps}, gap {gap}: {}", p[1]);
            }
        }
    }

    #[test]
    fn win_probabilities_have_unit_mass() {
        for (name, u, sensitivity) in battery() {
            let groups = u.grouped_desc();
            for eps in [0.1, 0.5, 1.0, 3.0, 10.0] {
                let p = laplace_win_probabilities(&u, eps, sensitivity);
                let mass: f64 = groups.iter().zip(&p).map(|(&(_, m), &p)| m as f64 * p).sum();
                assert!((mass - 1.0).abs() < 1e-12, "{name} at ε {eps}: mass {mass}");
                assert!(p.windows(2).all(|w| w[0] >= w[1]), "{name}: not monotone in value");
            }
        }
    }

    #[test]
    fn accuracy_matches_a_grouped_monte_carlo_within_4_sigma() {
        const TRIALS: u32 = 1_000_000;
        for ((name, u, sensitivity), eps) in battery().into_iter().zip([0.5, 3.0, 1.0]) {
            let exact = laplace_accuracy(&u, eps, sensitivity);
            let groups = u.grouped_desc();
            let noise = Laplace::for_mechanism(sensitivity, eps);
            let mut r = rng(19);
            let (mut sum, mut sum_sq) = (0.0, 0.0);
            for _ in 0..TRIALS {
                let x = groups[winning_group(&groups, &noise, &mut r)].0 / u.u_max();
                sum += x;
                sum_sq += x * x;
            }
            let mean = sum / TRIALS as f64;
            let sigma = ((sum_sq / TRIALS as f64 - mean * mean) / TRIALS as f64).sqrt();
            assert!(sigma > 0.0, "{name}: a degenerate Monte Carlo tests nothing");
            assert!(
                (exact - mean).abs() < 4.0 * sigma,
                "{name} at ε {eps}: exact {exact} vs MC {mean} ± {sigma}"
            );
        }
    }
}
