//! The Laplace mechanism (Definition 6): the grouped noisy-argmax
//! sampler behind [`crate::Mechanism::Laplace`].
//!
//! Evaluation strategy: utilities take few distinct values (common
//! neighbours are small integers; the zero class dominates), and within a
//! value class the noisy maximum is the class value plus the max of
//! `count` i.i.d. Laplace draws — sampled *exactly* through the quantile of
//! `F^count` ([`Laplace::sample_max_of`]). One trial therefore costs
//! `O(#classes)` instead of `O(n)`, which is what makes 1,000-trial
//! evaluation (§7.1) over ~10⁵-candidate vectors tractable. This is a
//! sampling optimisation, not an approximation: the induced distribution
//! over winners is identical to naive per-candidate noising.

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

/// Perturbs every utility with `Lap(Δf/ε)` noise and returns the noisy
/// argmax: a uniform member of the winning value class (exchangeable by
/// symmetry of the i.i.d. noise), or `None` when the zero class wins.
pub(crate) fn laplace_winner(
    u: &UtilityVector,
    eps: f64,
    sensitivity: f64,
    rng: &mut dyn rand::RngCore,
) -> Option<NodeId> {
    let noise = Laplace::for_mechanism(sensitivity, eps);
    let groups = u.grouped_desc();
    let (value, count) = groups[winning_group(&groups, &noise, rng)];
    if value == 0.0 {
        return None;
    }
    let pick = rng.gen_range(0..count);
    let mut class = u.nonzero().iter().filter(|&&(_, ui)| ui == value);
    class.nth(pick).map(|&(v, _)| v)
}

/// Monte-Carlo expected accuracy `E[u_rec] / u_max` of the Laplace
/// mechanism over `trials` independent runs (§7.1: "1,000 independent
/// trials of A_L(ε), averaging the utilities").
///
/// # Panics
/// Panics if `u` is all-zero (accuracy is undefined).
pub fn laplace_accuracy(
    u: &UtilityVector,
    eps: f64,
    sensitivity: f64,
    trials: u32,
    rng: &mut dyn rand::RngCore,
) -> f64 {
    assert!(!u.is_all_zero(), "accuracy undefined for all-zero utility vectors");
    let noise = Laplace::for_mechanism(sensitivity, eps);
    let groups = u.grouped_desc();
    let mut total = 0.0;
    for _ in 0..trials {
        total += groups[winning_group(&groups, &noise, rng)].0;
    }
    total / trials as f64 / u.u_max()
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
        let lo = laplace_accuracy(&u, 0.1, 1.0, 4000, &mut rng(13));
        let hi = laplace_accuracy(&u, 3.0, 1.0, 4000, &mut rng(13));
        assert!(hi > lo, "accuracy should grow with eps: {lo} vs {hi}");
        assert!(hi <= 1.0 + 1e-9);
        assert!(lo >= 0.0);
    }

    #[test]
    fn huge_eps_recovers_best_recommendation() {
        let u = UtilityVector::from_sparse(vec![(7, 5.0), (9, 3.0)], 100);
        let acc = laplace_accuracy(&u, 200.0, 1.0, 500, &mut rng(14));
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
        let _ = crate::Mechanism::Laplace.expected_accuracy(&u, 1.0, 1.0, &mut rng(18));
    }
}
