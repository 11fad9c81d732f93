//! The mechanism: Definitions 5–7 behind one enum, the one sampling path
//! of the serving layer, the attack harness's shadow sampler and the CLI.

use std::collections::HashSet;

use psr_graph::NodeId;
use psr_utility::{CandidateSet, UtilityVector};
use rand::Rng;

use crate::exponential::exponential_probabilities;
use crate::laplace_mech::{laplace_accuracy, laplace_winner};
use crate::smoothing::{smoothing_epsilon, smoothing_winner};
use crate::topk::{topk_with_engine, TopKEngine};

/// A differentially private recommender over one utility vector (§3.1).
/// It must put positive probability on *every* candidate, including the
/// (typically enormous) zero-utility class \[24\], which utility vectors
/// store as a count; a draw landing there is resolved to a uniform member
/// (zero-utility candidates are exchangeable — the paper's Axiom 1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Mechanism {
    /// Definition 5: recommend `i` with probability `∝ e^{(ε/Δf)·uᵢ}`.
    /// A request of `k` slots peels `k` draws without replacement at
    /// ε/k each ([`crate::topk`]), so it costs ε by basic composition.
    #[default]
    Exponential,
    /// Definition 6: perturb every utility with `Lap(Δf/ε)` noise and
    /// recommend the noisy argmax. One slot per request.
    Laplace,
    /// Definition 7: with probability `x` recommend the top-utility node
    /// (`R_best`), otherwise a uniform candidate. One slot per request;
    /// Theorem 5 makes it `ln(1 + nx/(1−x))`-DP over `n` candidates.
    Smoothing {
        /// Mixing weight `x ∈ [0, 1)`: probability of playing `R_best`.
        x: f64,
    },
}

/// One draw of a [`Mechanism`]: `k` distinct concrete recommendations.
#[derive(Debug, Clone, PartialEq)]
pub struct Draw {
    /// Distinct recommended nodes, in slot order.
    pub picks: Vec<NodeId>,
    /// How many slots fell into the zero-utility class (resolved to
    /// uniform members of the class).
    pub zero_class_picks: usize,
    /// Sum of the true utilities of the picks.
    pub total_utility: f64,
}

impl Mechanism {
    /// Every mechanism name, in declaration order: the `--mechanism` and
    /// plan-axis vocabulary.
    pub const NAMES: [&'static str; 3] = ["exponential", "laplace", "smoothing"];

    /// The mixing weight a bare `"smoothing"` parses to.
    pub const DEFAULT_SMOOTHING_X: f64 = 0.05;

    /// Monte-Carlo trials behind the Laplace mechanism's expected
    /// accuracy (§7.1 uses 1,000).
    pub const LAPLACE_TRIALS: u32 = 1000;

    /// Stable name, the inverse of [`std::str::FromStr`].
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::Exponential => "exponential",
            Mechanism::Laplace => "laplace",
            Mechanism::Smoothing { .. } => "smoothing",
        }
    }

    /// Checks the parameter: smoothing's `x` must lie in `[0, 1)`, the
    /// domain of Theorem 5's `ε = ln(1 + nx/(1−x))`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Mechanism::Smoothing { x } if !(0.0..1.0).contains(&x) => Err(format!(
                "smoothing x {x} must be in [0, 1) (x = 1 is the non-private baseline)"
            )),
            _ => Ok(()),
        }
    }

    /// Whether a request may ask for at most one slot. Only the
    /// exponential mechanism peels `k > 1`; the Laplace and smoothing
    /// guarantees are stated for a single recommendation.
    pub fn is_single_draw(&self) -> bool {
        !matches!(self, Mechanism::Exponential)
    }

    /// The ε one request costs at budget `epsilon` over `num_candidates`
    /// candidates: `epsilon`, or Theorem 5's `ln(1 + n·x/(1−x))` for
    /// smoothing (which has no ε parameter).
    pub fn charge(&self, epsilon: f64, num_candidates: usize) -> f64 {
        match *self {
            Mechanism::Exponential | Mechanism::Laplace => epsilon,
            Mechanism::Smoothing { x } => smoothing_epsilon(x, num_candidates),
        }
    }

    /// Draws `k` distinct recommendations (at most the candidate count)
    /// from `u`, the utility vector of `candidates`, at request budget
    /// `epsilon` and sensitivity Δf, zero-class slots resolved by
    /// [`resolve_zero_class_distinct`]. `engine` picks the exponential
    /// mechanism's top-`k` sampler; the other arms ignore it.
    ///
    /// # Panics
    /// Panics if `u` is empty, or if `k > 1` for a single-draw
    /// mechanism ([`Mechanism::is_single_draw`]).
    #[allow(clippy::too_many_arguments)]
    pub fn sample(
        &self,
        engine: TopKEngine,
        u: &UtilityVector,
        candidates: &CandidateSet,
        k: usize,
        epsilon: f64,
        sensitivity: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Draw {
        assert!(!u.is_empty(), "no candidates");
        assert!(
            k == 1 || !self.is_single_draw(),
            "the {} mechanism serves exactly one slot",
            self.name()
        );
        // Slots in order, `None` for a draw that landed in the zero class.
        let single = |winner: Option<NodeId>| (vec![winner], winner.map_or(0.0, |v| u.get(v)));
        let (slots, total_utility) = match *self {
            Mechanism::Exponential => {
                let top = topk_with_engine(engine, u, k.min(u.len()), epsilon, sensitivity, rng);
                (top.picks, top.total_utility)
            }
            Mechanism::Laplace => single(laplace_winner(u, epsilon, sensitivity, rng)),
            Mechanism::Smoothing { x } => single(smoothing_winner(u, x, rng)),
        };
        let zero_class_picks = slots.iter().filter(|p| p.is_none()).count();
        let mut zero_picks =
            resolve_zero_class_distinct(zero_class_picks, u, candidates, rng).into_iter();
        let picks = slots
            .iter()
            .map(|pick| pick.unwrap_or_else(|| zero_picks.next().expect("class member")))
            .collect();
        Draw { picks, zero_class_picks, total_utility }
    }

    /// Expected accuracy `E[u_rec] / u_max` of one slot (Def. 2) at budget
    /// `epsilon` and sensitivity Δf: closed form, except Laplace's
    /// [`Self::LAPLACE_TRIALS`]-trial Monte Carlo on `rng`.
    ///
    /// # Panics
    /// Panics if `u` is all-zero — such targets are dropped by the
    /// experimental protocol (§7.1) because accuracy is undefined.
    pub fn expected_accuracy(
        &self,
        u: &UtilityVector,
        epsilon: f64,
        sensitivity: f64,
        rng: &mut dyn rand::RngCore,
    ) -> f64 {
        assert!(!u.is_all_zero(), "accuracy undefined for all-zero utility vectors");
        match *self {
            Mechanism::Exponential => {
                let (probs, zero_each) = exponential_probabilities(u, epsilon, sensitivity);
                u.expected_utility(&probs, zero_each) / u.u_max()
            }
            Mechanism::Laplace => {
                laplace_accuracy(u, epsilon, sensitivity, Self::LAPLACE_TRIALS, rng)
            }
            Mechanism::Smoothing { x } => {
                // x·u_max from R_best plus (1−x)·mean(u) from the uniform
                // draw, normalised by u_max.
                let uniform_part = u.total() / u.len() as f64;
                (x * u.u_max() + (1.0 - x) * uniform_part) / u.u_max()
            }
        }
    }
}

impl std::str::FromStr for Mechanism {
    type Err = String;

    /// Parses a name of [`Mechanism::NAMES`]; `"smoothing"` takes
    /// [`Mechanism::DEFAULT_SMOOTHING_X`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exponential" => Ok(Mechanism::Exponential),
            "laplace" => Ok(Mechanism::Laplace),
            "smoothing" => Ok(Mechanism::Smoothing { x: Mechanism::DEFAULT_SMOOTHING_X }),
            other => {
                let names = Self::NAMES;
                Err(format!("unknown mechanism {other:?} (expected one of {names:?})"))
            }
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
            let v = resolve_zero_class_distinct(1, &u, &candidates, &mut rng)[0];
            assert!(candidates.contains(v));
            assert_eq!(u.get(v), 0.0);
            // A single-draw mechanism's zero-class slot resolves the same
            // way; its non-zero slot is the drawn node itself.
            let draw = Mechanism::Smoothing { x: 0.0 }.sample(
                TopKEngine::Peel,
                &u,
                &candidates,
                1,
                1.0,
                1.0,
                &mut rng,
            );
            let pick = draw.picks[0];
            assert!(candidates.contains(pick));
            assert_eq!(draw.zero_class_picks == 1, u.get(pick) == 0.0);
            assert_eq!(draw.total_utility, u.get(pick));
        }
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
        assert_eq!(resolve_zero_class_distinct(1, &u, &candidates, &mut rng), Vec::<NodeId>::new());
    }

    #[test]
    fn names_round_trip_through_the_one_table() {
        for name in Mechanism::NAMES {
            let mechanism: Mechanism = name.parse().unwrap();
            assert_eq!(mechanism.name(), name);
            mechanism.validate().unwrap();
        }
        assert_eq!(
            "smoothing".parse::<Mechanism>(),
            Ok(Mechanism::Smoothing { x: Mechanism::DEFAULT_SMOOTHING_X })
        );
        assert!("non-private".parse::<Mechanism>().is_err());
        assert!(Mechanism::Smoothing { x: 1.0 }.validate().is_err());
        assert!(Mechanism::Smoothing { x: -0.1 }.validate().is_err());
    }

    #[test]
    fn charges_follow_the_mechanism() {
        assert_eq!(Mechanism::Exponential.charge(0.7, 100), 0.7);
        assert_eq!(Mechanism::Laplace.charge(0.7, 100), 0.7);
        let smoothing = Mechanism::Smoothing { x: 0.2 };
        assert_eq!(smoothing.charge(0.7, 100), (100.0 * 0.2 / 0.8f64).ln_1p());
        assert!(!Mechanism::Exponential.is_single_draw());
        assert!(Mechanism::Laplace.is_single_draw() && smoothing.is_single_draw());
    }

    #[test]
    #[should_panic(expected = "serves exactly one slot")]
    fn single_draw_mechanisms_refuse_two_slots() {
        let u = UtilityVector::from_sparse(vec![(1, 2.0), (2, 1.0)], 3);
        let g = GraphBuilder::new(Direction::Undirected).with_num_nodes(6).build().unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        Mechanism::Laplace.sample(TopKEngine::Peel, &u, &candidates, 2, 1.0, 1.0, &mut rng);
    }
}
