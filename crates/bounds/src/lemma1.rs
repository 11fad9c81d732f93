//! Lemma 1 and Corollary 1 — the master privacy–accuracy trade-off.
//!
//! Setting (§4.2): split candidates into `k` high-utility nodes
//! (`uᵢ > (1−c)·u_max`) and `n−k` low-utility nodes; `t` edge alterations
//! suffice to promote a low-utility node to strict top utility. Then any
//! monotone `(1−δ)`-accurate algorithm satisfies
//! `ε ≥ (1/t)[ln((c−δ)/δ) + ln((n−k)/(k+1))]` (Lemma 1), equivalently
//! `1−δ ≤ 1 − c(n−k)/(n−k + (k+1)e^{εt})` (Corollary 1).

use serde::{Deserialize, Serialize};

use psr_utility::UtilityVector;

/// Lemma 1: the smallest `ε` compatible with accuracy `1−δ`.
///
/// Returns `0.0` when the parameters impose no constraint (e.g. `δ ≥ c`,
/// where the high-utility group need not receive any probability mass).
///
/// # Panics
/// Panics unless `c ∈ (0,1)`, `δ ∈ (0,1)`, `0 < k < n` and `t ≥ 1`.
pub fn lemma1_eps_lower_bound(c: f64, delta: f64, n: usize, k: usize, t: u64) -> f64 {
    assert!((0.0..1.0).contains(&c) && c > 0.0, "c must be in (0,1), got {c}");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1), got {delta}");
    assert!(k >= 1 && k < n, "need 1 <= k < n, got k={k} n={n}");
    assert!(t >= 1, "t must be at least 1");
    if delta >= c {
        return 0.0;
    }
    let gap = ((c - delta) / delta).ln() + ((n - k) as f64 / (k + 1) as f64).ln();
    (gap / t as f64).max(0.0)
}

/// Corollary 1: the highest accuracy `1−δ` any `ε`-DP algorithm can reach.
///
/// # Panics
/// Panics unless `c ∈ (0,1]`, `0 < k < n`, `t ≥ 1` and `ε ≥ 0` (`c = 1` is
/// accepted as the supremum of valid choices — the bound is continuous).
pub fn corollary1_accuracy_upper_bound(eps: f64, t: u64, n: usize, k: usize, c: f64) -> f64 {
    assert!(c > 0.0 && c <= 1.0, "c must be in (0,1], got {c}");
    assert!(k >= 1 && k < n, "need 1 <= k < n, got k={k} n={n}");
    assert!(t >= 1, "t must be at least 1");
    assert!(eps >= 0.0, "eps must be non-negative");
    let nk = (n - k) as f64;
    let growth = (k + 1) as f64 * (eps * t as f64).exp();
    if growth.is_infinite() {
        return 1.0; // e^{εt} overflow ⇒ the bound is vacuous
    }
    1.0 - c * nk / (nk + growth)
}

/// The tightest Corollary-1 bound for a concrete utility vector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundResult {
    /// The accuracy ceiling `sup(1−δ)`.
    pub accuracy_bound: f64,
    /// The `c` achieving it.
    pub c: f64,
    /// The corresponding high-utility group size `k`.
    pub k: usize,
    /// The edit distance `t` used.
    pub t: u64,
    /// The population size `n` used (candidate count by default).
    pub n: usize,
}

/// Evaluates Corollary 1 at every `c` induced by the distinct utility
/// values of `u` and returns the *tightest* (smallest) accuracy ceiling.
///
/// The paper leaves `c` free and Corollary 1 holds at every `c`, so the
/// minimum over all of them can only tighten the theoretical curve. For
/// each distinct value `v` (desc), the group `{uᵢ ≥ v}` becomes `V_hi` by
/// letting the threshold
/// `(1−c)u_max` approach the next-smaller value from above, i.e.
/// `c_j = 1 − v_{j+1}/u_max` with `k_j = #{uᵢ ≥ v_j}`; the final interval's
/// limit is `c → 1`, `k = nnz`.
///
/// `n_override` substitutes the population size (the paper's `n` is the
/// graph's node count; we default to the candidate count — the two differ
/// by `d_r + 1` and the bound is insensitive at experimental scales).
pub fn best_accuracy_bound(
    u: &UtilityVector,
    eps: f64,
    t: u64,
    n_override: Option<usize>,
) -> BoundResult {
    assert!(!u.is_all_zero(), "bound undefined for all-zero utility vectors");
    let n = n_override.unwrap_or_else(|| u.len());
    best_accuracy_bound_grouped(&u.grouped_desc(), u.u_max(), eps, t, n)
}

/// [`best_accuracy_bound`] over a vector already grouped: `groups` is its
/// [`UtilityVector::grouped_desc`], `u_max` its maximum utility and `n`
/// the population size. A caller evaluating the bound at many ε groups
/// the vector once.
pub fn best_accuracy_bound_grouped(
    groups: &[(f64, usize)],
    u_max: f64,
    eps: f64,
    t: u64,
    n: usize,
) -> BoundResult {
    let mut best = BoundResult { accuracy_bound: 1.0, c: f64::NAN, k: 0, t, n };
    let mut cumulative = 0usize;
    for (j, &(value, mult)) in groups.iter().enumerate() {
        if value == 0.0 {
            break; // zero class can never be part of V_hi
        }
        cumulative += mult;
        let k = cumulative;
        if k >= n {
            continue;
        }
        let next_value = groups.get(j + 1).map_or(0.0, |&(v, _)| if v > 0.0 { v } else { 0.0 });
        let c = 1.0 - next_value / u_max;
        if c <= 0.0 {
            continue;
        }
        let bound = corollary1_accuracy_upper_bound(eps, t, n, k, c);
        if bound < best.accuracy_bound {
            best = BoundResult { accuracy_bound: bound, c, k, t, n };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §4.2's worked example: n = 4·10⁸, c = 0.99, k = 100, t = 150,
    /// ε = 0.1 ⇒ accuracy ≤ ≈ 0.46.
    #[test]
    fn corollary1_worked_example() {
        let bound = corollary1_accuracy_upper_bound(0.1, 150, 400_000_000, 100, 0.99);
        assert!((bound - 0.4577).abs() < 5e-3, "bound {bound}");
        assert!(bound < 0.46);
    }

    /// Lemma 1 and Corollary 1 are algebraic inverses.
    #[test]
    fn lemma1_inverts_corollary1() {
        // Keep ε·t moderate: beyond ~e³⁵ the implied δ underflows f64 and
        // the inversion is meaningless.
        for &(eps, t, n, k, c) in &[
            (0.5, 10u64, 10_000usize, 5usize, 0.9),
            (1.0, 3, 500, 2, 0.5),
            (2.0, 5, 1_000_000, 50, 0.99),
        ] {
            let acc = corollary1_accuracy_upper_bound(eps, t, n, k, c);
            let delta = 1.0 - acc;
            let back = lemma1_eps_lower_bound(c, delta, n, k, t);
            assert!((back - eps).abs() < 1e-9, "eps {eps} -> acc {acc} -> {back}");
        }
    }

    #[test]
    fn bound_tightens_with_smaller_eps() {
        let strict = corollary1_accuracy_upper_bound(0.1, 10, 100_000, 10, 0.9);
        let lenient = corollary1_accuracy_upper_bound(2.0, 10, 100_000, 10, 0.9);
        assert!(strict < lenient);
    }

    #[test]
    fn bound_tightens_with_smaller_t() {
        let small_t = corollary1_accuracy_upper_bound(1.0, 2, 100_000, 10, 0.9);
        let large_t = corollary1_accuracy_upper_bound(1.0, 50, 100_000, 10, 0.9);
        assert!(small_t < large_t, "fewer edits to cheat ⇒ harsher bound");
    }

    #[test]
    fn bound_tightens_with_larger_n() {
        let small_n = corollary1_accuracy_upper_bound(1.0, 5, 1_000, 10, 0.9);
        let large_n = corollary1_accuracy_upper_bound(1.0, 5, 10_000_000, 10, 0.9);
        assert!(large_n < small_n, "more low-utility mass ⇒ harsher bound");
    }

    #[test]
    fn huge_eps_t_is_vacuous() {
        let bound = corollary1_accuracy_upper_bound(100.0, 100, 1000, 5, 0.9);
        assert!(bound > 0.999);
        let overflow = corollary1_accuracy_upper_bound(1000.0, 1000, 1000, 5, 0.9);
        assert_eq!(overflow, 1.0);
    }

    #[test]
    fn lemma1_no_constraint_when_delta_exceeds_c() {
        assert_eq!(lemma1_eps_lower_bound(0.3, 0.5, 1000, 5, 10), 0.0);
    }

    fn vector() -> UtilityVector {
        UtilityVector::from_sparse(vec![(0, 10.0), (1, 10.0), (2, 4.0), (3, 1.0)], 996)
    }

    #[test]
    fn best_bound_beats_every_single_c() {
        let u = vector();
        let best = best_accuracy_bound(&u, 1.0, 5, None);
        assert_eq!(best.n, 1000);
        // Any hand-picked (c, k) must be no tighter.
        for (c, k) in [(0.6, 2usize), (0.9, 3), (0.999, 4)] {
            let manual = corollary1_accuracy_upper_bound(1.0, 5, 1000, k, c);
            assert!(
                best.accuracy_bound <= manual + 1e-12,
                "best {} vs manual {manual} at c={c}, k={k}",
                best.accuracy_bound
            );
        }
        assert!(best.accuracy_bound > 0.0 && best.accuracy_bound < 1.0);
    }

    #[test]
    fn best_bound_respects_n_override() {
        let u = vector();
        let default_n = best_accuracy_bound(&u, 1.0, 5, None);
        let bigger = best_accuracy_bound(&u, 1.0, 5, Some(100_000));
        assert!(bigger.accuracy_bound < default_n.accuracy_bound);
    }

    #[test]
    fn single_value_vector_uses_c_equal_one() {
        let u = UtilityVector::from_sparse(vec![(0, 3.0), (1, 3.0)], 998);
        let best = best_accuracy_bound(&u, 0.5, 4, None);
        assert!((best.c - 1.0).abs() < 1e-12);
        assert_eq!(best.k, 2);
        let manual = corollary1_accuracy_upper_bound(0.5, 4, 1000, 2, 1.0);
        assert!((best.accuracy_bound - manual).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bound undefined")]
    fn all_zero_vector_rejected() {
        let u = UtilityVector::from_sparse(vec![], 10);
        let _ = best_accuracy_bound(&u, 1.0, 3, None);
    }

    #[test]
    #[should_panic(expected = "c must be in (0,1]")]
    fn corollary1_rejects_bad_c() {
        let _ = corollary1_accuracy_upper_bound(1.0, 5, 100, 5, 1.5);
    }
}
