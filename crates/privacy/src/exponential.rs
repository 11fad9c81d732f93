//! The Exponential mechanism (Definition 5): exact probabilities.
//!
//! Definition 5 weights node `i` by `e^{(ε/Δf)·uᵢ}`. The McSherry–Talwar
//! mechanism as usually stated uses `e^{ε·uᵢ/(2Δf)}` (the factor 2 covers
//! utility functions whose normaliser can also shift between
//! neighbouring inputs); that form at ε is this one at ε/2. This crate
//! follows Definition 5 as printed, so a caller who wants the usual form
//! passes ε/2.

use psr_utility::UtilityVector;

/// Exact per-entry probabilities of [`crate::Mechanism::Exponential`] at
/// budget `eps` and sensitivity Δf: returns (probability of each non-zero
/// candidate aligned with `u.nonzero()`, probability of *each individual*
/// zero-utility candidate). Weights are shifted by `u_max` before
/// exponentiation, so the largest exponent is 0 and the sum cannot
/// overflow.
pub fn exponential_probabilities(u: &UtilityVector, eps: f64, sensitivity: f64) -> (Vec<f64>, f64) {
    assert!(eps >= 0.0, "privacy parameter must be non-negative");
    assert!(sensitivity > 0.0, "sensitivity must be positive");
    assert!(!u.is_empty(), "no candidates");
    let s = eps / sensitivity;
    let u_max = u.u_max();
    let weights: Vec<f64> = u.nonzero().iter().map(|&(_, ui)| (s * (ui - u_max)).exp()).collect();
    let zero_weight = (s * (0.0 - u_max)).exp();
    let z: f64 = weights.iter().sum::<f64>() + zero_weight * u.num_zero() as f64;
    (weights.iter().map(|w| w / z).collect(), zero_weight / z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mechanism, TopKEngine};
    use psr_graph::{Direction, GraphBuilder};
    use psr_utility::{CandidateSet, UtilityVector};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn vector() -> UtilityVector {
        UtilityVector::from_sparse(vec![(1, 4.0), (5, 2.0)], 3)
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (probs, zero_each) = exponential_probabilities(&vector(), 1.0, 1.0);
        let total: f64 = probs.iter().sum::<f64>() + zero_each * 3.0;
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn higher_utility_higher_probability_monotonicity() {
        // Definition 4 (monotonicity): uᵢ > uⱼ ⇒ pᵢ > pⱼ.
        let (probs, zero_each) = exponential_probabilities(&vector(), 0.7, 1.0);
        assert!(probs[0] > probs[1]);
        assert!(probs[1] > zero_each);
    }

    #[test]
    fn matches_manual_computation() {
        // u = (4, 2, 0×3), ε = 1, Δ = 1, paper scaling.
        let (probs, zero_each) = exponential_probabilities(&vector(), 1.0, 1.0);
        let z = 4f64.exp() + 2f64.exp() + 3.0;
        assert!((probs[0] - 4f64.exp() / z).abs() < 1e-12);
        assert!((probs[1] - 2f64.exp() / z).abs() < 1e-12);
        assert!((zero_each - 1.0 / z).abs() < 1e-12);
    }

    #[test]
    fn standard_half_is_flatter() {
        // The textbook e^{ε·u/(2Δf)} is the paper's form at ε/2.
        let (p, _) = exponential_probabilities(&vector(), 1.0, 1.0);
        let (h, _) = exponential_probabilities(&vector(), 0.5, 1.0);
        assert!(p[0] > h[0], "paper scaling concentrates more on the top node");
    }

    #[test]
    fn eps_zero_is_uniform() {
        let (probs, zero_each) = exponential_probabilities(&vector(), 0.0, 1.0);
        for &p in &probs {
            assert!((p - 0.2).abs() < 1e-12);
        }
        assert!((zero_each - 0.2).abs() < 1e-12);
    }

    #[test]
    fn large_eps_concentrates_on_max() {
        let (probs, _) = exponential_probabilities(&vector(), 50.0, 1.0);
        assert!(probs[0] > 0.999999);
    }

    #[test]
    fn no_overflow_with_huge_utilities() {
        let u = UtilityVector::from_sparse(vec![(0, 5000.0), (1, 4999.0)], 10);
        let (probs, zero_each) = exponential_probabilities(&u, 2.0, 1.0);
        assert!(probs.iter().all(|p| p.is_finite()));
        assert!(zero_each >= 0.0);
        let total: f64 = probs.iter().sum::<f64>() + zero_each * 10.0;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expected_accuracy_closed_form() {
        let u = vector();
        let acc = Mechanism::Exponential.expected_accuracy(&u, 1.0, 1.0);
        let z = 4f64.exp() + 2f64.exp() + 3.0;
        let manual = (4.0 * 4f64.exp() + 2.0 * 2f64.exp()) / z / 4.0;
        assert!((acc - manual).abs() < 1e-12);
    }

    #[test]
    fn expected_accuracy_in_unit_interval_and_monotone_in_eps() {
        let u = vector();
        let lo = Mechanism::Exponential.expected_accuracy(&u, 0.2, 1.0);
        let hi = Mechanism::Exponential.expected_accuracy(&u, 3.0, 1.0);
        assert!((0.0..=1.0).contains(&lo));
        assert!((0.0..=1.0).contains(&hi));
        assert!(hi > lo);
    }

    #[test]
    fn sampling_frequencies_match_probabilities() {
        // Candidates 1..=5 of target 0 on an edgeless 6-node graph; the
        // vector scores 1 and 5, so 2, 3 and 4 form the zero class, whose
        // total mass is compared.
        let g = GraphBuilder::new(Direction::Undirected).with_num_nodes(6).build().unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = vector();
        assert_eq!(candidates.len(), u.len());
        let (probs, zero_each) = exponential_probabilities(&u, 1.0, 1.0);
        let mut r = rng(2);
        let trials = 100_000;
        let mut hits = [0usize; 3]; // node 1, node 5, zero class
        for _ in 0..trials {
            let draw = Mechanism::Exponential.sample(
                TopKEngine::Gumbel,
                &u,
                &candidates,
                1,
                1.0,
                1.0,
                &mut r,
            );
            match draw.picks[..] {
                [1] => hits[0] += 1,
                [5] => hits[1] += 1,
                [v] if u.get(v) == 0.0 && candidates.contains(v) => hits[2] += 1,
                ref other => panic!("unexpected picks {other:?}"),
            }
        }
        let freq = |h: usize| h as f64 / trials as f64;
        assert!((freq(hits[0]) - probs[0]).abs() < 0.01);
        assert!((freq(hits[1]) - probs[1]).abs() < 0.01);
        assert!((freq(hits[2]) - zero_each * 3.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "accuracy undefined")]
    fn all_zero_vector_rejected() {
        let u = UtilityVector::from_sparse(vec![], 5);
        let _ = Mechanism::Exponential.expected_accuracy(&u, 1.0, 1.0);
    }
}
