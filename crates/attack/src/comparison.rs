//! Overlaying empirical leakage on the paper's theoretical curves.
//!
//! The bounds crate states what the theory *predicts*; the harness
//! measures what the mechanisms *do*. This module is the joint view:
//!
//! * **Lemma 1 / hypothesis testing.** For edge-neighbouring graphs
//!   (`t = 1`), pure ε-DP bounds any distinguisher's advantage by
//!   `(e^ε − 1)/(e^ε + 1)` ([`dp_advantage_ceiling`]); inverting it turns
//!   a measured advantage into the smallest ε any DP mechanism could have
//!   ([`epsilon_floor_from_advantage`]). A baseline whose advantage
//!   clears `dp_advantage_ceiling(1.0)` is therefore incompatible with
//!   *every* ε ≤ 1 — the empirical reading of Lemma 1's trade-off.
//! * **Corollary 1.** A measured accuracy plus a utility vector implies
//!   an ε floor through `psr_bounds::best_accuracy_bound`
//!   ([`lemma1_epsilon_floor_from_accuracy`]) — the accuracy side of the
//!   same trade-off, the curve plotted as "Theor. Bound" in Figures 1–2.
//! * **Theorem 5.** The smoothing mechanism's configured ε is
//!   `ln(1 + nx/(1−x))` from `psr_bounds::theorem5`, so its empirical ε
//!   is compared against the calibration the theory assigns it.
//! * **Appendix A / node adjacency.** For node-neighbouring graphs the
//!   exchange argument needs only `t = 2` steps, so accuracy forces
//!   `ε ≥ node_privacy_eps_lower(n, β)` (asymptotically `ln(n)/2`).
//!   [`compare`] overlays a node-identity measurement on those floors
//!   next to the Lemma-1 curves, with the Corollary-1 accuracy floor
//!   evaluated at `t = t_node_privacy()`.

use serde::{Deserialize, Serialize};

use psr_utility::UtilityVector;

use crate::harness::AttackResult;

/// The distinguishing-advantage ceiling pure ε-DP imposes on *any*
/// adversary over edge-neighbouring inputs: `(e^ε − 1)/(e^ε + 1)`.
///
/// This is the hypothesis-testing form of the paper's Definition 1 at
/// edit distance `t = 1`: a threshold test with rates `(TPR, FPR)` obeys
/// `TPR ≤ e^ε·FPR` and `1 − FPR ≤ e^ε·(1 − TPR)`, and the advantage
/// `TPR − FPR` is maximised on that constraint at
/// `(e^ε − 1)/(e^ε + 1)`.
pub fn dp_advantage_ceiling(eps: f64) -> f64 {
    assert!(eps >= 0.0, "epsilon must be non-negative");
    if eps.is_infinite() {
        return 1.0;
    }
    // tanh(ε/2) = (e^ε − 1)/(e^ε + 1), computed without overflow.
    (eps / 2.0).tanh()
}

/// Inverse of [`dp_advantage_ceiling`]: the smallest ε consistent with a
/// measured advantage (∞ for advantage ≥ 1 — a support mismatch no
/// finite ε permits).
pub fn epsilon_floor_from_advantage(advantage: f64) -> f64 {
    assert!((0.0..=1.0).contains(&advantage), "advantage must be in [0,1]");
    if advantage >= 1.0 {
        return f64::INFINITY;
    }
    ((1.0 + advantage) / (1.0 - advantage)).ln()
}

/// The smallest ε whose Corollary-1 accuracy ceiling admits the measured
/// accuracy on `u` at edit distance `t` — the Lemma-1 ε floor implied by
/// *accuracy* rather than by distinguishing advantage. Found by bisection
/// on the monotone `best_accuracy_bound` curve, over `u` grouped once;
/// `None` when even ε = 0 admits the accuracy (the bound is not binding).
///
/// The bisection runs at most 200 halvings and stops early once the
/// midpoint rounds onto an end of the bracket: from then on every step
/// keeps the answer `(lo + hi)/2` where it is.
pub fn lemma1_epsilon_floor_from_accuracy(u: &UtilityVector, accuracy: f64, t: u64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&accuracy), "accuracy must be in [0,1]");
    assert!(!u.is_all_zero(), "bound undefined for all-zero utility vectors");
    let groups = u.grouped_desc();
    let bound = |eps| {
        psr_bounds::best_accuracy_bound_grouped(&groups, u.u_max(), eps, t, u.len()).accuracy_bound
    };
    if bound(0.0) >= accuracy {
        return None;
    }
    const EPS_HI: f64 = 64.0; // far beyond any ceiling's binding range
    if bound(EPS_HI) < accuracy {
        return Some(f64::INFINITY);
    }
    let (mut lo, mut hi) = (0.0f64, EPS_HI);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if bound(mid) < accuracy {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Which neighbouring-graph notion a scenario plays (Definition 1 vs
/// Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adjacency {
    /// Edge adjacency: the worlds differ in one edge.
    Edge,
    /// Node adjacency: the worlds differ in one node's entire edge set.
    Node,
}

impl Adjacency {
    /// Every adjacency, in [`Adjacency::NAMES`] order.
    pub const ALL: [Adjacency; 2] = [Adjacency::Edge, Adjacency::Node];
    /// Every adjacency name, the `--adjacency` and plan-axis vocabulary.
    pub const NAMES: [&'static str; 2] = ["edge", "node"];

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        Self::NAMES[*self as usize]
    }
}

impl std::str::FromStr for Adjacency {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let names = Self::NAMES;
        Self::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| format!("unknown adjacency {s:?} (expected one of {names:?})"))
    }
}

/// One attack result overlaid on the theory: what the mechanism was
/// configured to guarantee, what the bounds allow at that configuration,
/// and what the adversary actually achieved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundsComparison {
    /// Adversary name the empirical side comes from.
    pub adversary: String,
    /// Which adjacency notion the scenario plays: `"edge"` or `"node"`.
    pub adjacency: String,
    /// Transcript-level ε budget of the scenario (`None` for the
    /// non-private baseline): per-request ε summed over every observation
    /// of a transcript by basic composition.
    pub configured_epsilon: Option<f64>,
    /// Lemma-1 advantage ceiling at the configured ε (1.0 when
    /// non-private).
    pub advantage_ceiling: f64,
    /// Measured adversary advantage.
    pub advantage: f64,
    /// The smallest ε consistent with the measured advantage.
    pub epsilon_floor: f64,
    /// Empirical-ε point estimate over the transcript release.
    pub empirical_epsilon: f64,
    /// Clopper–Pearson-conservative empirical-ε lower bound.
    pub empirical_epsilon_lower: f64,
    /// Mean measured accuracy of the world-1 transcripts (`None` when
    /// every observer had an all-zero vector).
    pub mean_accuracy: Option<f64>,
    /// Lemma-1 ε floor implied by the measured accuracy on a
    /// representative observer's utility vector (`None` when the bound is
    /// not binding, no accuracy was measurable or no edit distance is
    /// known). Evaluated at Corollary 1's edit distance for that observer
    /// (see [`crate::TwoWorldGame::accuracy_t`]).
    pub accuracy_epsilon_floor: Option<f64>,
    /// Appendix A's finite-`n` node-privacy floor
    /// `node_privacy_eps_lower(n, 1)` — what *any* constant-accuracy
    /// node-DP recommender must exceed. `None` for edge adjacency.
    pub node_epsilon_lower: Option<f64>,
    /// Appendix A's asymptotic floor `ln(n)/2`. `None` for edge
    /// adjacency.
    pub node_epsilon_lower_asymptotic: Option<f64>,
    /// Whether the measurement is consistent with the configured ε: the
    /// empirical-ε lower bound and the advantage stay at or below what
    /// the configured budget allows. Always `true` for the non-private
    /// baseline (nothing was promised).
    pub consistent: bool,
}

/// Overlays an [`AttackResult`] on the theoretical curves of one
/// adjacency notion.
///
/// `configured_epsilon` is the *transcript-level* budget (per-request ε
/// times observations per transcript; `None` for the non-private
/// baseline). `representative` is the utility vector used for the
/// Corollary-1 accuracy overlay — by convention the first observer's
/// world-1 vector — with the edit distance `t` to evaluate it at. Node
/// adjacency adds Appendix A's node-privacy floors at graph size
/// `num_nodes` (`β = 1`, the concentrated-utility worst case).
pub fn compare(
    result: &AttackResult,
    configured_epsilon: Option<f64>,
    representative: Option<(&UtilityVector, u64)>,
    adjacency: Adjacency,
    num_nodes: usize,
) -> BoundsComparison {
    let advantage = result.advantage.advantage;
    let advantage_ceiling = configured_epsilon.map_or(1.0, dp_advantage_ceiling);
    let accuracy_epsilon_floor = match (result.mean_accuracy, representative) {
        (Some(acc), Some((u, t))) if !u.is_all_zero() => {
            lemma1_epsilon_floor_from_accuracy(u, acc, t)
        }
        _ => None,
    };
    let (node_epsilon_lower, node_epsilon_lower_asymptotic) = match adjacency {
        Adjacency::Node => (
            Some(psr_bounds::node_privacy::node_privacy_eps_lower(num_nodes, 1)),
            Some(psr_bounds::node_privacy::node_privacy_eps_lower_asymptotic(num_nodes)),
        ),
        Adjacency::Edge => (None, None),
    };
    // Statistical slack on the consistency verdict: the CP lower bound is
    // conservative by construction, so it is compared exactly; the raw
    // advantage gets the ceiling check only through its own ε floor.
    let consistent = match configured_epsilon {
        None => true,
        Some(eps) => result.empirical_epsilon.lower <= eps,
    };
    BoundsComparison {
        adversary: result.adversary.clone(),
        adjacency: adjacency.name().to_owned(),
        configured_epsilon,
        advantage_ceiling,
        advantage,
        epsilon_floor: epsilon_floor_from_advantage(advantage),
        empirical_epsilon: result.empirical_epsilon.point,
        empirical_epsilon_lower: result.empirical_epsilon.lower,
        mean_accuracy: result.mean_accuracy,
        accuracy_epsilon_floor,
        node_epsilon_lower,
        node_epsilon_lower_asymptotic,
        consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_matches_the_closed_form() {
        for eps in [0.1f64, 0.5, 1.0, 2.0] {
            let direct = (eps.exp() - 1.0) / (eps.exp() + 1.0);
            assert!((dp_advantage_ceiling(eps) - direct).abs() < 1e-12, "eps {eps}");
        }
        assert_eq!(dp_advantage_ceiling(0.0), 0.0);
        assert_eq!(dp_advantage_ceiling(f64::INFINITY), 1.0);
        assert!(dp_advantage_ceiling(1000.0) > 1.0 - 1e-12, "no overflow at large ε");
    }

    #[test]
    fn ceiling_and_floor_are_inverses() {
        for eps in [0.05, 0.5, 1.0, 3.0] {
            let adv = dp_advantage_ceiling(eps);
            assert!((epsilon_floor_from_advantage(adv) - eps).abs() < 1e-9, "eps {eps}");
        }
        assert_eq!(epsilon_floor_from_advantage(0.0), 0.0);
        assert_eq!(epsilon_floor_from_advantage(1.0), f64::INFINITY);
    }

    #[test]
    fn ceiling_is_monotone_so_clearing_eps_1_clears_every_smaller_eps() {
        // The acceptance criterion's "for any ε ≤ 1" reduces to the ε = 1
        // ceiling because the ceiling is monotone in ε.
        let at_one = dp_advantage_ceiling(1.0);
        for eps in [0.9, 0.5, 0.1, 0.01] {
            assert!(dp_advantage_ceiling(eps) < at_one);
        }
        assert!((at_one - 0.46211715726000974).abs() < 1e-12);
    }

    #[test]
    fn accuracy_floor_brackets_the_bound_curve() {
        let u = UtilityVector::from_sparse(vec![(0, 3.0), (1, 2.0), (2, 1.0)], 197);
        // Perfect accuracy needs a large ε on a 200-candidate vector…
        let floor = lemma1_epsilon_floor_from_accuracy(&u, 0.99, 1).expect("binding");
        assert!(floor > 1.0, "floor {floor}");
        let ceiling = psr_bounds::best_accuracy_bound(&u, floor, 1, None).accuracy_bound;
        assert!((ceiling - 0.99).abs() < 1e-6, "bisection lands on the curve: {ceiling}");
        // …while terrible accuracy is admitted even at ε = 0.
        assert_eq!(lemma1_epsilon_floor_from_accuracy(&u, 0.001, 1), None);
    }

    #[test]
    fn node_overlay_carries_the_appendix_a_floors() {
        use crate::roc::{empirical_epsilon, roc_curve};
        let (s0, s1) = (vec![0.0, 0.1], vec![1.0, 1.1]);
        let result = crate::harness::AttackResult {
            adversary: "reconstruction".to_owned(),
            roc: roc_curve(&s0, &s1),
            auc: crate::roc::auc(&s0, &s1),
            advantage: crate::roc::best_advantage(&s0, &s1),
            empirical_epsilon: empirical_epsilon(&s0, &s1, 0.95),
            mean_accuracy: Some(1.0),
            scores_world0: s0,
            scores_world1: s1,
        };
        let u = UtilityVector::from_sparse(vec![(0, 3.0), (1, 2.0)], 95);
        let n = 7_115usize;
        let edge = compare(&result, None, Some((&u, 1)), Adjacency::Edge, n);
        assert_eq!(edge.adjacency, "edge");
        assert_eq!(edge.node_epsilon_lower, None);
        let t_node = psr_bounds::edit_distance::t_node_privacy();
        let node = compare(&result, None, Some((&u, t_node)), Adjacency::Node, n);
        assert_eq!(node.adjacency, "node");
        assert_eq!(
            node.node_epsilon_lower,
            Some(psr_bounds::node_privacy::node_privacy_eps_lower(n, 1))
        );
        assert_eq!(node.node_epsilon_lower_asymptotic, Some((n as f64).ln() / 2.0));
        // The accuracy floor relaxes from t = 1 to t = 2 but stays
        // binding for perfect accuracy on a 97-candidate vector.
        let (ef, nf) = (edge.accuracy_epsilon_floor.unwrap(), node.accuracy_epsilon_floor.unwrap());
        assert!(nf < ef, "t = 2 floor {nf} must sit below the t = 1 floor {ef}");
        assert!(nf > 0.0);
    }

    /// The floor as a fixed 200-step bisection over
    /// `best_accuracy_bound`, regrouping the vector at every step.
    fn reference_floor(u: &UtilityVector, accuracy: f64, t: u64) -> Option<f64> {
        let bound = |eps| psr_bounds::best_accuracy_bound(u, eps, t, None).accuracy_bound;
        if bound(0.0) >= accuracy {
            return None;
        }
        if bound(64.0) < accuracy {
            return Some(f64::INFINITY);
        }
        let (mut lo, mut hi) = (0.0f64, 64.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if bound(mid) < accuracy {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    #[test]
    fn grouped_floor_equals_the_200_step_bisection() {
        let vectors = [
            UtilityVector::from_sparse(vec![(0, 3.0), (1, 2.0), (2, 1.0)], 197),
            UtilityVector::from_sparse(vec![(0, 3.0), (1, 3.0), (4, 0.5)], 2),
            UtilityVector::from_sparse(
                (0..40).map(|v| (v, 1.0 + (v % 7) as f64 * 0.3)).collect(),
                5_000,
            ),
            UtilityVector::from_sparse(vec![(9, 0.004)], 1_000_000),
        ];
        let mut bracketed = 0;
        for u in &vectors {
            for t in [1, 2, 5] {
                let at_zero = psr_bounds::best_accuracy_bound(u, 0.0, t, None).accuracy_bound;
                // Floors just above zero, where the bracket closes after
                // the most halvings, and across the whole accuracy range.
                let near_zero = [at_zero + f64::EPSILON, at_zero * (1.0 + 1e-9)];
                let grid = (0..=40).map(|i| i as f64 / 40.0);
                for accuracy in near_zero.into_iter().filter(|&a| a <= 1.0).chain(grid) {
                    let got = lemma1_epsilon_floor_from_accuracy(u, accuracy, t);
                    let want = reference_floor(u, accuracy, t);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{u:?} {accuracy} {t}"
                    );
                    bracketed += usize::from(got.is_some_and(f64::is_finite));
                }
            }
        }
        assert!(bracketed > 100, "only {bracketed} floors were bisected");
    }

    #[test]
    fn accuracy_floor_relaxes_with_edit_distance() {
        let u = UtilityVector::from_sparse(vec![(0, 3.0), (1, 2.0)], 498);
        let tight = lemma1_epsilon_floor_from_accuracy(&u, 0.9, 1).expect("binding");
        let loose = lemma1_epsilon_floor_from_accuracy(&u, 0.9, 5).expect("binding");
        assert!(loose < tight, "more edits to cheat ⇒ weaker floor: {loose} vs {tight}");
    }
}
