//! The mechanism abstraction.

use std::collections::HashSet;

use psr_graph::NodeId;
use psr_utility::{CandidateSet, UtilityVector};
use rand::Rng;

/// Outcome of one mechanism invocation.
///
/// Any DP mechanism must put positive probability on *every* candidate,
/// including the (typically enormous) zero-utility class [24]. Utility
/// vectors store that class as a count, so a draw landing there names the
/// class instead of a particular node; callers that need a concrete id
/// resolve it uniformly (all zero-utility candidates are exchangeable —
/// the paper's Axiom 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recommendation {
    /// A specific candidate was recommended.
    Node(NodeId),
    /// A uniformly random member of the zero-utility class was recommended.
    ZeroUtilityClass,
}

/// A differentially private single-recommendation mechanism operating on a
/// utility vector (the formalisation of §3.1: the algorithm is a
/// probability vector derived from `~u`).
pub trait Mechanism: Send + Sync {
    /// Short stable name for reports and benchmarks.
    fn name(&self) -> String;

    /// Draws one recommendation.
    ///
    /// # Panics
    /// Implementations may panic if `u` is empty.
    fn recommend(
        &self,
        u: &UtilityVector,
        eps: f64,
        sensitivity: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Recommendation;

    /// Expected accuracy `E[u_rec] / u_max` (Def. 2 numerator for this
    /// input). Exact where a closed form exists, Monte-Carlo otherwise.
    ///
    /// # Panics
    /// Panics if `u` is all-zero — such targets are dropped by the
    /// experimental protocol (§7.1) because accuracy is undefined.
    fn expected_accuracy(
        &self,
        u: &UtilityVector,
        eps: f64,
        sensitivity: f64,
        rng: &mut dyn rand::RngCore,
    ) -> f64;
}

/// Resolves a [`Recommendation`] to a concrete node id, choosing uniformly
/// from the zero-utility members of `candidates` when needed. Returns
/// `None` only when the class is empty (cannot happen for draws produced
/// against the same vector).
///
/// `u` must be the utility vector of `candidates`, so that `u.num_zero()`
/// counts the zero-utility candidates. The uniform choice takes the
/// rejection path of [`resolve_zero_class_distinct`] when that applies and
/// otherwise picks the class member at a uniform rank in id order.
pub fn resolve_recommendation(
    rec: Recommendation,
    u: &UtilityVector,
    candidates: &CandidateSet,
    rng: &mut dyn rand::RngCore,
) -> Option<NodeId> {
    match rec {
        Recommendation::Node(v) => Some(v),
        Recommendation::ZeroUtilityClass => {
            let total = u.num_zero();
            if total == 0 {
                return None;
            }
            if rejection_applies(1, u, candidates) {
                return sample_by_rejection(1, u, candidates, rng).pop();
            }
            let pick = rng.gen_range(0..total);
            candidates.iter().filter(|&v| u.get(v) == 0.0).nth(pick)
        }
    }
}

/// Resolves `count` anonymous zero-utility-class picks (the `None` slots of
/// a [`crate::topk::TopK`]) to **distinct** concrete node ids, sampled
/// uniformly without replacement from the zero-utility members of
/// `candidates`. Returns fewer than `count` ids only when the class itself
/// is smaller — peeling accounting guarantees that never happens for draws
/// produced against the same vector. `u` must be the utility vector of
/// `candidates`.
///
/// Two samplers share one fixed rule. When the zero class covers at least
/// half of the id range and `count` is at most half of the class — the
/// common case, since only a target's two-hop ball can score — ids are
/// drawn uniformly from `0..num_nodes` and rejected unless they are
/// zero-class candidates not picked yet: fewer than 4 draws per pick on
/// average, each two binary searches, so the cost follows `count` instead
/// of `n`. Otherwise a reservoir pass over every candidate picks them.
/// Both give every `count`-subset of the class the same probability; the
/// rejection path also orders the picks uniformly, while the reservoir's
/// order depends on ids.
pub fn resolve_zero_class_distinct(
    count: usize,
    u: &UtilityVector,
    candidates: &CandidateSet,
    rng: &mut dyn rand::RngCore,
) -> Vec<NodeId> {
    if count == 0 {
        return Vec::new();
    }
    if rejection_applies(count, u, candidates) {
        return sample_by_rejection(count, u, candidates, rng);
    }
    let mut reservoir: Vec<NodeId> = Vec::with_capacity(count.min(u.num_zero()));
    for (seen, v) in candidates.iter().filter(|&v| u.get(v) == 0.0).enumerate() {
        if seen < count {
            reservoir.push(v);
        } else {
            let slot = rng.gen_range(0..=seen);
            if slot < count {
                reservoir[slot] = v;
            }
        }
    }
    reservoir
}

/// The rule choosing the rejection sampler: the zero class covers at least
/// half of the id range (so a uniform id lands in it with probability at
/// least ½) and `count` is at most half of the class (so at least half of
/// it is still unpicked at every draw). Together they bound the expected
/// draws per pick by 4.
fn rejection_applies(count: usize, u: &UtilityVector, candidates: &CandidateSet) -> bool {
    let class = u.num_zero();
    class >= candidates.num_nodes().div_ceil(2) && count <= class / 2
}

/// `count` distinct zero-class members, each drawn as a uniform id from
/// `0..num_nodes` and kept only when it is a candidate with zero utility
/// that was not picked before: sequential sampling without replacement.
fn sample_by_rejection(
    count: usize,
    u: &UtilityVector,
    candidates: &CandidateSet,
    rng: &mut dyn rand::RngCore,
) -> Vec<NodeId> {
    let n = candidates.num_nodes() as NodeId;
    let mut picks: Vec<NodeId> = Vec::with_capacity(count);
    let mut picked: HashSet<NodeId> = HashSet::with_capacity(count);
    while picks.len() < count {
        let v = rng.gen_range(0..n);
        if candidates.contains(v) && u.get(v) == 0.0 && picked.insert(v) {
            picks.push(v);
        }
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_graph::{Direction, GraphBuilder};
    use psr_utility::{CandidateSet, UtilityFunction};
    use rand::SeedableRng;

    #[test]
    fn resolve_zero_class_picks_a_zero_utility_candidate() {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (1, 2)])
            .with_num_nodes(6)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let v =
                resolve_recommendation(Recommendation::ZeroUtilityClass, &u, &candidates, &mut rng)
                    .unwrap();
            assert!(candidates.contains(v));
            assert_eq!(u.get(v), 0.0);
        }
        let v = resolve_recommendation(Recommendation::Node(2), &u, &candidates, &mut rng);
        assert_eq!(v, Some(2));
    }

    #[test]
    fn resolve_distinct_zero_class_members() {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (1, 2)])
            .with_num_nodes(10)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for count in 0..=u.num_zero() {
            let picks = resolve_zero_class_distinct(count, &u, &candidates, &mut rng);
            assert_eq!(picks.len(), count);
            let set: std::collections::HashSet<_> = picks.iter().collect();
            assert_eq!(set.len(), count, "picks must be distinct");
            for &v in &picks {
                assert!(candidates.contains(v));
                assert_eq!(u.get(v), 0.0);
            }
        }
        // Asking past the class size returns the whole class.
        let all = resolve_zero_class_distinct(usize::MAX, &u, &candidates, &mut rng);
        assert_eq!(all.len(), u.num_zero());
    }

    #[test]
    fn zero_class_reservoir_is_uniform_chi_square() {
        // The reservoir must sample zero-class subsets uniformly: over
        // 10k seeded draws of 4 members from a 20-member class, each
        // member's inclusion count is Binomial(10k, 4/20). The chi-square
        // statistic over the 20 inclusion counts has ~19 degrees of
        // freedom; its 0.999 quantile is 43.8, so a deterministic seeded
        // stream passing 45 pins both uniformity and the seed.
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (0, 3)])
            .with_num_nodes(24)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        assert_eq!(u.num_zero(), 20, "every candidate must be zero-class");

        const DRAWS: usize = 10_000;
        const COUNT: usize = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2011);
        let mut inclusions: std::collections::HashMap<NodeId, u32> = Default::default();
        for draw in 0..DRAWS {
            let picks = resolve_zero_class_distinct(COUNT, &u, &candidates, &mut rng);
            assert_eq!(picks.len(), COUNT, "draw {draw}");
            let set: std::collections::HashSet<_> = picks.iter().collect();
            assert_eq!(set.len(), COUNT, "draw {draw} produced duplicates: {picks:?}");
            for &v in &picks {
                assert!(candidates.contains(v) && u.get(v) == 0.0, "draw {draw} pick {v}");
                *inclusions.entry(v).or_insert(0) += 1;
            }
        }

        assert_eq!(inclusions.len(), 20, "every class member must be reachable");
        let expected = (DRAWS * COUNT) as f64 / 20.0;
        let chi2: f64 = inclusions
            .values()
            .map(|&obs| {
                let d = obs as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 45.0, "inclusion counts not uniform: chi² = {chi2:.2} (crit 43.8 @ 0.999)");
    }

    #[test]
    fn resolve_empty_zero_class_is_none() {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        assert_eq!(u.num_zero(), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        assert_eq!(
            resolve_recommendation(Recommendation::ZeroUtilityClass, &u, &candidates, &mut rng),
            None
        );
    }
}
