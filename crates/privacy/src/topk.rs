//! Top-`k` recommendations by mechanism peeling (extension).
//!
//! Appendix A notes the paper's single-recommendation lower bounds "imply
//! stronger negative results for making multiple recommendations". This
//! module makes that concrete: `k` sequential Exponential-mechanism draws
//! without replacement, each charged `ε/k`, are `ε`-DP by basic
//! composition.
//!
//! The peel happens **in place**: one live list of non-zero entries plus a
//! zero-class counter, with each round's draw walking the live weights
//! directly. No per-round clone of the remaining candidates, no per-round
//! `UtilityVector` reconstruction.
//!
//! Two engines realise the same distribution ([`TopKEngine`]): the
//! peeling sampler above, and the one-pass Gumbel-max sampler
//! ([`topk_gumbel`]) that `psr_core::serving::RecommendationService` runs
//! by default — O(|C| + k log k) per request instead of O(k·|C|), exact
//! equivalence pinned by the chi-square conformance suite.

use std::cmp::Ordering;

use psr_graph::NodeId;
use psr_utility::UtilityVector;
use rand::Rng;

/// Which sampler realises the `k`-round Exponential-mechanism peel.
///
/// Both engines draw from the *same* distribution — `k` rounds of
/// Plackett–Luce sampling without replacement at weight `exp(rate·u)`,
/// `rate = ε/(k·Δf)` — they differ only in cost: the peel walks the live
/// weights `k` times (O(k·|C|)), the Gumbel engine perturbs every weight
/// once and selects the top `k` keys (O(|C| + k log k)). Equivalence is
/// exact because the per-round rate is constant, and is pinned by the
/// chi-square conformance suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopKEngine {
    /// `k` sequential peeling rounds (the original engine).
    Peel,
    /// One-pass Gumbel-max sampling (the default serving engine).
    #[default]
    Gumbel,
}

impl TopKEngine {
    /// Stable lowercase name, the CLI `--engine` vocabulary.
    pub fn name(self) -> &'static str {
        match self {
            TopKEngine::Peel => "peel",
            TopKEngine::Gumbel => "gumbel",
        }
    }
}

impl std::str::FromStr for TopKEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "peel" => Ok(TopKEngine::Peel),
            "gumbel" => Ok(TopKEngine::Gumbel),
            other => Err(format!("unknown top-k engine '{other}' (expected peel|gumbel)")),
        }
    }
}

/// Result of a top-`k` draw.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Distinct recommended nodes (zero-class picks are reported as
    /// `None` slots since the class is anonymous).
    pub picks: Vec<Option<NodeId>>,
    /// Sum of utilities of the recommended slots.
    pub total_utility: f64,
}

/// Draws `k` distinct recommendations by peeling: each round runs an
/// Exponential-mechanism draw with budget `ε/k` (paper scaling,
/// `exp(ε·u/Δf)`) over the still-unrecommended candidates, removing the
/// winner in place. One call prepares the first round and draws once
/// (`PreparedPeel`); [`crate::Mechanism::prepare`] keeps the preparation
/// for many draws.
///
/// Zero-class accounting is guarded on both paths a draw can land in the
/// zero class: a draw with the class already empty (reachable through
/// floating-point residue when the live probabilities sum just below 1)
/// falls back to a uniform live candidate instead of underflowing the
/// counter, and once the live entries are exhausted the remaining slots
/// consume the zero class one member per round, never past zero.
pub fn topk_exponential(
    u: &UtilityVector,
    k: usize,
    eps: f64,
    sensitivity: f64,
    rng: &mut dyn rand::RngCore,
) -> TopK {
    PreparedPeel::new(u, k, eps, sensitivity).draw(rng)
}

/// The peel of [`topk_exponential`] with its first round prepared: the
/// round's weights over all of `u` do not depend on the draw, so their
/// running sums and total mass are computed once, and each draw finds its
/// first pick by binary search instead of a walk. Later rounds peel the
/// live list as before. A draw consumes the same random numbers and
/// returns the same picks as the round-by-round walk.
#[derive(Debug, Clone)]
pub(crate) struct PreparedPeel<'a> {
    u: &'a UtilityVector,
    k: usize,
    /// Per-round exponent rate `ε/(k·Δf)`.
    rate: f64,
    /// Running sums of the first round's live weights, in id order.
    cumulative: Vec<f64>,
    /// The first round's mass: the zero class's weight, then every live
    /// weight added in id order.
    mass: f64,
}

/// Where one peel round's draw landed.
enum Slot {
    /// The live entry at this index.
    Live(usize),
    /// The zero class.
    Zero,
}

impl<'a> PreparedPeel<'a> {
    /// Prepares `k`-slot peels from `u` at budget `eps` and sensitivity Δf.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ |u|`, `eps ≥ 0` and `sensitivity > 0`.
    pub(crate) fn new(u: &'a UtilityVector, k: usize, eps: f64, sensitivity: f64) -> Self {
        assert!(k >= 1, "k must be positive");
        assert!(k <= u.len(), "cannot recommend more nodes than candidates");
        assert!(eps >= 0.0, "privacy parameter must be non-negative");
        assert!(sensitivity > 0.0, "sensitivity must be positive");
        let rate = eps / k as f64 / sensitivity; // per-round exponent rate s
        let live = u.nonzero();
        let u_max = live_max(live);
        let mut mass = zero_class_weight(u.num_zero(), rate, u_max);
        let mut acc = 0.0;
        let cumulative = live
            .iter()
            .map(|&(_, x)| {
                let w = (rate * (x - u_max)).exp();
                mass += w;
                acc += w;
                acc
            })
            .collect();
        PreparedPeel { u, k, rate, cumulative, mass }
    }

    /// Draws one `k`-slot peel.
    pub(crate) fn draw(&self, rng: &mut dyn rand::RngCore) -> TopK {
        let nonzero = self.u.nonzero();
        let mut zeros = self.u.num_zero();
        let mut top = TopK { picks: Vec::with_capacity(self.k), total_utility: 0.0 };
        let first = if nonzero.is_empty() {
            (zeros > 0).then_some(Slot::Zero)
        } else {
            let threshold = rng.gen::<f64>() * self.mass;
            // The walk's rule, the first index whose running sum exceeds
            // the threshold (`threshold < acc`), as a binary search: the
            // sums never decrease. A NaN threshold exceeds none, as in the
            // walk.
            let below = |acc: &f64| threshold.partial_cmp(acc) != Some(Ordering::Less);
            let i = self.cumulative.partition_point(below);
            Some(settle((i < nonzero.len()).then_some(i), nonzero.len(), zeros, rng))
        };
        let Some(first) = first else { return top };
        if self.k == 1 {
            // One slot: take the pick without copying the live list.
            match first {
                Slot::Live(i) => {
                    let (node, utility) = nonzero[i];
                    top.total_utility += utility;
                    top.picks.push(Some(node));
                }
                Slot::Zero => top.picks.push(None),
            }
            return top;
        }
        // Live non-zero entries, peeled in place. `Vec::remove` keeps the
        // sorted-by-id order the walk visits, matching the one-shot
        // mechanism's semantics; the walk is already O(live), so the shift
        // does not change the round's complexity.
        let mut live: Vec<(NodeId, f64)> = nonzero.to_vec();
        take(first, &mut live, &mut zeros, &mut top);
        for _ in 1..self.k {
            match peel_round(&live, zeros, self.rate, rng) {
                Some(slot) => take(slot, &mut live, &mut zeros, &mut top),
                None => break,
            }
        }
        top
    }
}

/// The largest live utility. The fold must start from −∞: seeding it with
/// 0.0 silently clamps the shift when all live utilities are negative
/// (reachable only through serde — the sparse constructors reject
/// negatives), underflowing every live weight at high rates and skewing
/// the draw toward the zero class.
fn live_max(live: &[(NodeId, f64)]) -> f64 {
    live.iter().map(|&(_, x)| x).fold(f64::NEG_INFINITY, f64::max)
}

/// The zero class's share of a round's mass, `zeros·e^{−rate·u_max}`.
/// Guards the empty class: `0.0 * exp(−rate·u_max)` is NaN once a
/// negative `u_max` sends the exponential to +∞.
fn zero_class_weight(zeros: usize, rate: f64, u_max: f64) -> f64 {
    if zeros > 0 {
        zeros as f64 * (-rate * u_max).exp()
    } else {
        0.0
    }
}

/// One peel round over the live entries (`None` once nothing is left).
/// Weights are shifted by the current max so the largest exponent is 0
/// and the mass cannot overflow; recomputed per round because the max
/// shrinks as top entries are peeled off.
fn peel_round(
    live: &[(NodeId, f64)],
    zeros: usize,
    rate: f64,
    rng: &mut dyn rand::RngCore,
) -> Option<Slot> {
    if live.is_empty() {
        // Only the zero class remains. The `k ≤ len` assertion plus
        // one-candidate-per-round accounting make `zeros ≥ 1` here; the
        // guard keeps a broken invariant from wrapping the counter in
        // release builds.
        return (zeros > 0).then_some(Slot::Zero);
    }
    let u_max = live_max(live);
    let mut mass = zero_class_weight(zeros, rate, u_max);
    for &(_, x) in live {
        mass += (rate * (x - u_max)).exp();
    }
    let threshold = rng.gen::<f64>() * mass;
    let mut acc = 0.0;
    let mut chosen = None;
    for (i, &(_, x)) in live.iter().enumerate() {
        acc += (rate * (x - u_max)).exp();
        if threshold < acc {
            chosen = Some(i);
            break;
        }
    }
    Some(settle(chosen, live.len(), zeros, rng))
}

/// Where a round's walk ends: the chosen live entry; the zero class when
/// the threshold passed every live weight; or, on floating-point residue
/// past every live weight with an empty zero class (at most a few ulps of
/// probability), a uniform live candidate instead of underflowing the
/// zero counter.
fn settle(
    chosen: Option<usize>,
    live_len: usize,
    zeros: usize,
    rng: &mut dyn rand::RngCore,
) -> Slot {
    match chosen {
        Some(i) => Slot::Live(i),
        None if zeros > 0 => Slot::Zero,
        None => Slot::Live(rng.gen_range(0..live_len)),
    }
}

/// Records a round's pick: removes a live entry, or consumes one uniform
/// member of the zero class.
fn take(slot: Slot, live: &mut Vec<(NodeId, f64)>, zeros: &mut usize, top: &mut TopK) {
    match slot {
        Slot::Live(i) => {
            let (node, utility) = live.remove(i);
            top.total_utility += utility;
            top.picks.push(Some(node));
        }
        Slot::Zero => {
            *zeros -= 1;
            top.picks.push(None);
        }
    }
}

/// A standard Gumbel(0, 1) variate: `−ln(−ln U)`, `U ∈ [0, 1)`. A zero
/// roll lands the key at −∞ — the worst possible key, never a crash.
fn gumbel(rng: &mut dyn rand::RngCore) -> f64 {
    let u: f64 = rng.gen();
    -(-u.ln()).ln()
}

/// A standard Exponential(1) variate: `−ln(1 − U)` keeps the argument in
/// `(0, 1]`, so the result is finite and non-negative.
fn exp1(rng: &mut dyn rand::RngCore) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln()
}

/// Draws `k` distinct recommendations in one pass with the Gumbel-max
/// trick: the top `k` of the perturbed keys `rate·uᵢ + Gumbelᵢ(0, 1)` are
/// distributed exactly as `k` rounds of Plackett–Luce peeling at weight
/// `exp(rate·uᵢ)` — the distribution of [`topk_exponential`] — because
/// the per-round rate `ε/(k·Δf)` never changes across the peel.
///
/// The anonymous zero class is handled in aggregate: its `z` members all
/// carry weight `exp(0) = 1`, so the top `min(k, z)` of their keys are
/// the descending order statistics of `z` i.i.d. Gumbels, sampled
/// directly through a Rényi exponential race (`Eᵢ₊₁ = Eᵢ + Exp(1)/(z−i)`,
/// key `= −ln Eᵢ₊₁`) without materialising the class. Zero-class winners
/// surface as `None` picks, preserving the peel's `Option<NodeId>`
/// semantics.
///
/// Cost: O(|C| + k log k) per request versus the peel's O(k·|C|).
pub fn topk_gumbel(
    u: &UtilityVector,
    k: usize,
    eps: f64,
    sensitivity: f64,
    rng: &mut dyn rand::RngCore,
) -> TopK {
    assert!(k >= 1, "k must be positive");
    assert!(k <= u.len(), "cannot recommend more nodes than candidates");
    assert!(eps >= 0.0, "privacy parameter must be non-negative");
    assert!(sensitivity > 0.0, "sensitivity must be positive");
    let rate = eps / k as f64 / sensitivity; // per-round exponent rate s

    let nonzero = u.nonzero();
    let zeros = u.num_zero();
    let mut keyed: Vec<(f64, Option<NodeId>, f64)> =
        Vec::with_capacity(nonzero.len() + zeros.min(k));
    for &(v, x) in nonzero {
        keyed.push((rate * x + gumbel(rng), Some(v), x));
    }
    // Only the zero class's top min(k, z) keys can ever be selected, and
    // they follow the race above; later picks have strictly smaller keys,
    // so pushing them in race order keeps the aggregate draw faithful.
    let mut race = 0.0;
    for i in 0..zeros.min(k) {
        race += exp1(rng) / (zeros - i) as f64;
        keyed.push((-race.ln(), None, 0.0));
    }
    // `k ≤ len` guarantees `keyed.len() ≥ k`: either `z ≥ k` contributes
    // `k` keys on its own, or every candidate contributed one.
    debug_assert!(keyed.len() >= k);
    if keyed.len() > k {
        keyed.select_nth_unstable_by(k - 1, |a, b| b.0.total_cmp(&a.0));
        keyed.truncate(k);
    }
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    let total_utility = keyed.iter().map(|&(_, _, x)| x).sum();
    let picks = keyed.into_iter().map(|(_, v, _)| v).collect();
    TopK { picks, total_utility }
}

/// Dispatches a top-`k` draw to the selected [`TopKEngine`].
pub fn topk_with_engine(
    engine: TopKEngine,
    u: &UtilityVector,
    k: usize,
    eps: f64,
    sensitivity: f64,
    rng: &mut dyn rand::RngCore,
) -> TopK {
    match engine {
        TopKEngine::Peel => topk_exponential(u, k, eps, sensitivity, rng),
        TopKEngine::Gumbel => topk_gumbel(u, k, eps, sensitivity, rng),
    }
}

/// The non-private optimum: sum of the `k` largest utilities, added in
/// descending order. Denominator of top-`k` accuracy. One pass keeps the
/// `k` largest values seen so far, so a call costs `O(|nonzero|)` for the
/// small `k` of one answer instead of sorting the vector.
pub fn topk_optimal_utility(u: &UtilityVector, k: usize) -> f64 {
    let mut top: Vec<f64> = Vec::with_capacity(k + 1);
    for &(_, x) in u.nonzero() {
        if top.len() < k || top.last().is_some_and(|&last| x > last) {
            top.insert(top.partition_point(|&y| y >= x), x);
            top.truncate(k);
        }
    }
    top.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn vector() -> UtilityVector {
        UtilityVector::from_sparse(vec![(0, 5.0), (1, 3.0), (2, 1.0)], 4)
    }

    #[test]
    fn draws_are_distinct() {
        let u = vector();
        for seed in 0..20 {
            let out = topk_exponential(&u, 3, 10.0, 1.0, &mut rng(seed));
            let nodes: Vec<NodeId> = out.picks.iter().flatten().copied().collect();
            let set: std::collections::HashSet<_> = nodes.iter().collect();
            assert_eq!(set.len(), nodes.len(), "duplicate picks: {:?}", out.picks);
        }
    }

    #[test]
    fn huge_eps_returns_the_true_top_k() {
        let u = vector();
        let out = topk_exponential(&u, 2, 1000.0, 1.0, &mut rng(1));
        assert_eq!(out.picks, vec![Some(0), Some(1)]);
        assert_eq!(out.total_utility, 8.0);
    }

    #[test]
    fn optimal_utility_sums_top_values() {
        let u = vector();
        assert_eq!(topk_optimal_utility(&u, 1), 5.0);
        assert_eq!(topk_optimal_utility(&u, 2), 8.0);
        assert_eq!(topk_optimal_utility(&u, 5), 9.0); // only 3 non-zero
    }

    #[test]
    fn optimal_utility_equals_the_sorted_sum() {
        // The former sort of every non-zero value, summed from the top.
        let sorted_sum = |u: &UtilityVector, k: usize| -> f64 {
            let mut vals: Vec<f64> = u.nonzero().iter().map(|&(_, x)| x).collect();
            vals.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            vals.iter().take(k).sum()
        };
        let mut r = rng(21);
        for len in [0usize, 1, 2, 7, 60] {
            for _ in 0..20 {
                // Few distinct values, so ties straddle the k-th place, or
                // all distinct, so the order of the sum shows.
                let ties = r.gen::<bool>();
                let value = |r: &mut rand::rngs::StdRng| {
                    if ties {
                        f64::from(r.gen_range(1..6u32)) * 0.25
                    } else {
                        r.gen::<f64>() + 0.01
                    }
                };
                let entries = (0..len as NodeId).map(|v| (v, value(&mut r))).collect();
                let u = UtilityVector::from_sparse(entries, 3);
                for k in 0..=len + 2 {
                    let (got, want) = (topk_optimal_utility(&u, k), sorted_sum(&u, k));
                    assert_eq!(got.to_bits(), want.to_bits(), "len {len}, k {k}");
                }
            }
        }
    }

    #[test]
    fn k_exceeding_nonzero_pool_fills_with_zero_class() {
        let u = UtilityVector::from_sparse(vec![(0, 2.0)], 3);
        let out = topk_exponential(&u, 3, 1000.0, 1.0, &mut rng(3));
        assert_eq!(out.picks[0], Some(0));
        assert_eq!(&out.picks[1..], &[None, None]);
        assert_eq!(out.total_utility, 2.0);
    }

    #[test]
    #[should_panic(expected = "cannot recommend more nodes than candidates")]
    fn k_larger_than_candidates_rejected() {
        let u = UtilityVector::from_sparse(vec![(0, 1.0)], 1);
        let _ = topk_exponential(&u, 3, 1.0, 1.0, &mut rng(4));
    }

    #[test]
    #[should_panic(expected = "privacy parameter must be non-negative")]
    fn negative_eps_rejected() {
        let u = UtilityVector::from_sparse(vec![(0, 1.0), (1, 2.0)], 1);
        let _ = topk_exponential(&u, 2, -1.0, 1.0, &mut rng(4));
    }

    /// Adversarial RNG: every draw returns the maximum roll (`1 − 2⁻⁵³`),
    /// pinning each round to the far edge of the probability walk where
    /// the zero-class residue paths live.
    struct MaxRollRng;

    impl rand::RngCore for MaxRollRng {
        fn next_u32(&mut self) -> u32 {
            u32::MAX
        }
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0xFF);
        }
    }

    #[test]
    fn extreme_rolls_never_underflow_the_zero_class() {
        // Regression: a draw landing past every live weight used to run
        // `zeros -= 1` unguarded — a debug-mode underflow panic (and a
        // wrapped counter in release) once the zero class was empty.
        for num_zero in [0usize, 1, 3] {
            for eps in [0.0, 1.0, 1000.0] {
                let entries = vec![(0, 1.0), (1, 1.0), (2, 1.0)];
                let u = UtilityVector::from_sparse(entries, num_zero);
                let k = u.len();
                let out = topk_exponential(&u, k, eps, 1.0, &mut MaxRollRng);
                assert_eq!(out.picks.len(), k, "num_zero={num_zero} eps={eps}");
                let nodes: Vec<NodeId> = out.picks.iter().flatten().copied().collect();
                let set: std::collections::HashSet<_> = nodes.iter().collect();
                assert_eq!(set.len(), nodes.len(), "duplicate live picks");
                let nones = out.picks.iter().filter(|p| p.is_none()).count();
                assert!(nones <= num_zero, "zero class over-consumed: {nones} > {num_zero}");
                assert_eq!(nodes.len() + nones, k);
            }
        }
    }

    /// Serde is the one boundary that admits negative utilities (the
    /// sparse constructors debug-assert positivity), standing in for any
    /// future untrusted utility source.
    fn negative_vector() -> UtilityVector {
        let json = r#"{"nonzero":[[0,-5.0],[1,-1.0],[2,-3.0]],"num_zero":0,"u_max":-1.0}"#;
        serde_json::from_str(json).expect("hand-built vector deserialises")
    }

    #[test]
    fn negative_utilities_keep_the_true_argmax_order() {
        // Regression for the 0.0-seeded `u_max` fold: clamping the shift
        // at 0 underflowed every all-negative live weight at high rates,
        // so the walk fell through to the uniform-residue fallback and
        // returned an arbitrary candidate instead of the argmax.
        let u = negative_vector();
        for seed in 0..20 {
            let out = topk_exponential(&u, 2, 5000.0, 1.0, &mut rng(seed));
            assert_eq!(out.picks, vec![Some(1), Some(2)], "seed {seed}");
            assert_eq!(out.total_utility, -4.0);
            let gumbel = topk_gumbel(&u, 2, 5000.0, 1.0, &mut rng(seed));
            assert_eq!(gumbel.picks, out.picks, "gumbel agrees, seed {seed}");
        }
    }

    #[test]
    fn negative_utilities_survive_extreme_rolls() {
        // MaxRollRng pins every draw to the far edge of the walk: with the
        // fold fixed the mass stays finite (no NaN from `0 · ∞`), the draw
        // stays inside the live weights, and all entries peel exactly once.
        let u = negative_vector();
        let out = topk_exponential(&u, 3, 5000.0, 1.0, &mut MaxRollRng);
        let mut nodes: Vec<NodeId> = out.picks.iter().flatten().copied().collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
        assert_eq!(out.total_utility, -9.0);
    }

    #[test]
    fn gumbel_huge_eps_returns_the_true_top_k() {
        let u = vector();
        for seed in 0..20 {
            let out = topk_gumbel(&u, 2, 1000.0, 1.0, &mut rng(seed));
            assert_eq!(out.picks, vec![Some(0), Some(1)], "seed {seed}");
            assert_eq!(out.total_utility, 8.0);
        }
    }

    #[test]
    fn gumbel_draws_are_distinct_and_balance_the_zero_class() {
        // Full-set draws mirror `zero_class_draws_mid_peel_balance_exactly`:
        // every non-zero entry appears once, every zero member once.
        let u = UtilityVector::from_sparse(vec![(2, 3.0), (5, 1.0), (9, 2.0)], 4);
        for seed in 0..50 {
            let out = topk_gumbel(&u, u.len(), 0.4, 1.0, &mut rng(seed));
            let mut nodes: Vec<NodeId> = out.picks.iter().flatten().copied().collect();
            nodes.sort_unstable();
            assert_eq!(nodes, vec![2, 5, 9], "seed {seed}");
            let nones = out.picks.iter().filter(|p| p.is_none()).count();
            assert_eq!(nones, 4, "seed {seed}");
            assert_eq!(out.total_utility, 6.0);
        }
    }

    #[test]
    fn gumbel_k_exceeding_nonzero_pool_fills_with_zero_class() {
        let u = UtilityVector::from_sparse(vec![(0, 2.0)], 3);
        let out = topk_gumbel(&u, 3, 1000.0, 1.0, &mut rng(3));
        assert_eq!(out.picks[0], Some(0));
        assert_eq!(&out.picks[1..], &[None, None]);
        assert_eq!(out.total_utility, 2.0);
    }

    #[test]
    fn gumbel_all_zero_vector_fills_all_slots() {
        let u = UtilityVector::from_sparse(vec![], 3);
        let out = topk_gumbel(&u, 3, 1.0, 1.0, &mut rng(5));
        assert_eq!(out.picks, vec![None, None, None]);
        assert_eq!(out.total_utility, 0.0);
    }

    #[test]
    fn gumbel_survives_extreme_rolls() {
        for num_zero in [0usize, 1, 3] {
            for eps in [0.0, 1.0, 1000.0] {
                let u = UtilityVector::from_sparse(vec![(0, 1.0), (1, 1.0), (2, 1.0)], num_zero);
                let k = u.len();
                let out = topk_gumbel(&u, k, eps, 1.0, &mut MaxRollRng);
                assert_eq!(out.picks.len(), k, "num_zero={num_zero} eps={eps}");
                let nones = out.picks.iter().filter(|p| p.is_none()).count();
                assert_eq!(nones, num_zero, "full-set draw consumes the class exactly");
            }
        }
    }

    #[test]
    fn engine_dispatch_and_names_round_trip() {
        assert_eq!(TopKEngine::default(), TopKEngine::Gumbel);
        for engine in [TopKEngine::Peel, TopKEngine::Gumbel] {
            assert_eq!(engine.name().parse::<TopKEngine>(), Ok(engine));
            let u = vector();
            let out = topk_with_engine(engine, &u, 2, 1000.0, 1.0, &mut rng(1));
            assert_eq!(out.picks, vec![Some(0), Some(1)], "{engine:?}");
        }
        assert!("laplace".parse::<TopKEngine>().is_err());
    }

    #[test]
    fn engines_agree_at_eps_zero_in_aggregate() {
        // ε = 0 is uniform over candidates-plus-zero-class for both
        // engines: per-slot zero-class rates over many draws must match
        // the hypergeometric expectation (and each other) closely.
        let u = UtilityVector::from_sparse(vec![(0, 9.0), (1, 4.0)], 2);
        let trials = 4000;
        let mut none_counts = [0usize; 2];
        for (e, engine) in [TopKEngine::Peel, TopKEngine::Gumbel].into_iter().enumerate() {
            let mut r = rng(77);
            for _ in 0..trials {
                let out = topk_with_engine(engine, &u, 2, 0.0, 1.0, &mut r);
                none_counts[e] += out.picks.iter().filter(|p| p.is_none()).count();
            }
        }
        // E[zero-class picks in a uniform 2-of-4 draw] = 1 per trial.
        for (e, &count) in none_counts.iter().enumerate() {
            let mean = count as f64 / trials as f64;
            assert!((mean - 1.0).abs() < 0.05, "engine {e}: mean zero picks {mean}");
        }
    }

    #[test]
    fn all_zero_vector_fills_all_slots() {
        // Regression for the all-zero branch: the zero counter is driven
        // exactly to zero — one member per slot, never past the class size.
        let u = UtilityVector::from_sparse(vec![], 3);
        let out = topk_exponential(&u, 3, 1.0, 1.0, &mut rng(5));
        assert_eq!(out.picks, vec![None, None, None]);
        assert_eq!(out.total_utility, 0.0);
    }

    #[test]
    fn zero_class_draws_mid_peel_balance_exactly() {
        // Peeling the whole candidate set must consume every non-zero entry
        // once and every zero-class member once, in any interleaving: a
        // mid-peel zero-class draw decrements the class, never a live entry.
        let u = UtilityVector::from_sparse(vec![(2, 3.0), (5, 1.0), (9, 2.0)], 4);
        for seed in 0..50 {
            let out = topk_exponential(&u, u.len(), 0.4, 1.0, &mut rng(seed));
            let nodes: Vec<NodeId> = out.picks.iter().flatten().copied().collect();
            let mut sorted = nodes.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![2, 5, 9], "seed {seed}: every live entry peeled once");
            let nones = out.picks.iter().filter(|p| p.is_none()).count();
            assert_eq!(nones, 4, "seed {seed}: every zero member consumed once");
            assert_eq!(out.total_utility, 6.0);
        }
    }
}
