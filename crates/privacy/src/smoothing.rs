//! Linear smoothing / sampling mechanism (Appendix F, Definition 7): the
//! sampler behind [`crate::Mechanism::Smoothing`] and Theorem 5's
//! calibration helpers.
//!
//! `A_S(x)` flips a biased coin: with probability `x` it plays a base
//! (non-private) recommender `A`, otherwise it recommends uniformly at
//! random. Theorem 5: `A_S(x)` is `ln(1 + nx/(1−x))`-differentially
//! private and `x·μ`-accurate when `A` is `μ`-accurate. Unlike the
//! mechanisms of §6, this needs no access to the full utility vector —
//! only the ability to *sample* from `A`. The base algorithm here is the
//! paper's default `R_best` (always recommend the top-utility node,
//! `μ = 1`).

use psr_graph::NodeId;
use psr_utility::UtilityVector;
use rand::Rng;

/// Privacy guarantee of Theorem 5 for mixing weight `x` over `n`
/// candidates: `ε = ln(1 + nx/(1−x))` (∞ at `x = 1`).
///
/// # Panics
/// Panics unless `x ∈ [0, 1]`.
pub fn smoothing_epsilon(x: f64, n: usize) -> f64 {
    assert!((0.0..=1.0).contains(&x), "x must be in [0, 1], got {x}");
    if x >= 1.0 {
        return f64::INFINITY;
    }
    (n as f64 * x / (1.0 - x)).ln_1p()
}

/// Inverse of [`smoothing_epsilon`]: the largest `x` giving `ε`-DP at
/// candidate-set size `n`: `x = (e^ε − 1)/(e^ε − 1 + n)`.
pub fn smoothing_x_for_epsilon(eps: f64, n: usize) -> f64 {
    assert!(eps >= 0.0);
    let g = eps.exp_m1(); // e^ε − 1, stable for small ε
    g / (g + n as f64)
}

/// The paper's closing parametrisation: to guarantee `2ε'`-DP with
/// `ε' = c·ln n`, set `x = (n^{2c} − 1)/(n^{2c} − 1 + n)`.
pub fn smoothing_x_for_log_privacy(c: f64, n: usize) -> f64 {
    let p = (n as f64).powf(2.0 * c) - 1.0;
    p / (p + n as f64)
}

/// One draw of `A_S(x)` over `R_best`: `best`, the argmax of `u`, with
/// probability `x` (all-zero vectors have no argmax and fall through),
/// otherwise a uniform candidate. `None` when the uniform draw lands in
/// the zero class.
pub(crate) fn smoothing_winner(
    u: &UtilityVector,
    x: f64,
    best: Option<NodeId>,
    rng: &mut dyn rand::RngCore,
) -> Option<NodeId> {
    if rng.gen::<f64>() < x {
        if let Some(v) = best {
            return Some(v);
        }
    }
    let pick = rng.gen_range(0..u.len());
    u.nonzero().get(pick).map(|&(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mechanism;
    use psr_utility::UtilityVector;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn vector() -> UtilityVector {
        UtilityVector::from_sparse(vec![(1, 4.0), (5, 2.0)], 2)
    }

    #[test]
    fn epsilon_and_inverse_agree() {
        for n in [10usize, 1000, 100_000] {
            for x in [0.01, 0.3, 0.9] {
                let eps = smoothing_epsilon(x, n);
                let back = smoothing_x_for_epsilon(eps, n);
                assert!((back - x).abs() < 1e-9, "n={n} x={x} back={back}");
            }
        }
    }

    #[test]
    fn x_zero_is_perfectly_private_and_uniform() {
        let mech = Mechanism::Smoothing { x: 0.0 };
        assert_eq!(mech.charge(1.0, 1000), 0.0);
        let acc = mech.expected_accuracy(&vector(), 0.0, 1.0);
        // Uniform: mean utility / u_max = (6/4)/4.
        assert!((acc - (6.0 / 4.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn x_one_is_best_but_non_private() {
        let mech = Mechanism::Smoothing { x: 1.0 };
        assert_eq!(mech.charge(1.0, 1000), f64::INFINITY);
        assert!(mech.validate().is_err(), "x = 1 is not a DP mixing weight");
        let acc = mech.expected_accuracy(&vector(), 0.0, 1.0);
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_exceeds_theorem5_bound() {
        // Theorem 5 guarantees ≥ x·μ (μ = 1 for R_best); the closed form
        // includes the uniform term too, so it must dominate.
        for x in [0.1, 0.5, 0.9] {
            let acc = Mechanism::Smoothing { x }.expected_accuracy(&vector(), 0.0, 1.0);
            assert!(acc >= x - 1e-12);
        }
    }

    #[test]
    fn paper_closing_parametrisation() {
        // x = (n^{2c} − 1)/(n^{2c} − 1 + n) must give ε = 2c·ln n exactly.
        let (c, n) = (0.4, 5000usize);
        let x = smoothing_x_for_log_privacy(c, n);
        let eps = smoothing_epsilon(x, n);
        assert!((eps - 2.0 * c * (n as f64).ln()).abs() < 1e-6, "eps {eps}");
    }

    #[test]
    fn sampling_matches_closed_form_accuracy() {
        let u = vector();
        let mut r = rng(4);
        let trials = 200_000;
        let mut total = 0.0;
        for _ in 0..trials {
            total += smoothing_winner(&u, 0.6, u.argmax(), &mut r).map_or(0.0, |v| u.get(v));
        }
        let mc = total / trials as f64 / u.u_max();
        let exact = Mechanism::Smoothing { x: 0.6 }.expected_accuracy(&u, 0.0, 1.0);
        assert!((mc - exact).abs() < 0.01, "MC {mc} vs exact {exact}");
    }

    #[test]
    fn dp_ratio_bounded_by_theorem5() {
        // Exact per-candidate probabilities: p = (1−x)/n + x·1[argmax].
        // Worst ratio across any two inputs is (x + (1−x)/n)/((1−x)/n)
        // = 1 + nx/(1−x) = e^ε.
        let (x, n) = (0.3, 50usize);
        let hi = x + (1.0 - x) / n as f64;
        let lo = (1.0 - x) / n as f64;
        assert!((hi / lo - smoothing_epsilon(x, n).exp()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "x must be in [0, 1]")]
    fn rejects_bad_x() {
        let _ = Mechanism::Smoothing { x: 1.5 }.charge(1.0, 10);
    }
}
