//! Chi-square conformance: zero-class resolution samples the same
//! distribution on its rejection path as on its reservoir path.
//!
//! [`resolve_zero_class_distinct`] draws uniform ids and rejects
//! non-members when the zero class covers at least half of the id range
//! and the pick count is at most half of the class, and runs a reservoir
//! pass over every candidate otherwise. The suite checks:
//!
//! * outside the rejection rule the resolver is the reservoir, byte for
//!   byte, for `k` slots and for a single-draw mechanism's one slot (a
//!   reference copy of the reservoir is the oracle);
//! * per-member inclusion counts of both paths against Binomial(draws,
//!   count / class), and against each other;
//! * ordered slot pairs: the rejection path is uniform over ordered
//!   pairs, the reservoir matches its exactly enumerated law, and the
//!   rejection path's unordered pairs match that law's marginal;
//! * the rejection path's cost: 5 picks from a 1M-id class, or one
//!   single-draw slot, take at most 64 RNG draws (the reservoir takes
//!   about one per class member).
//!
//! Critical values are χ²(df, 0.999) by the Wilson–Hilferty
//! approximation, accurate to well under 1% for the degrees of freedom
//! used here.

use std::collections::HashMap;

use psr_graph::{Direction, GraphBuilder, NodeId};
use psr_privacy::{resolve_zero_class_distinct, Mechanism, TopKEngine};
use psr_utility::{CandidateSet, CommonNeighbors, UtilityFunction, UtilityVector};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// χ²(df, 0.999) by Wilson–Hilferty: `df·(1 − 2/(9df) + z·√(2/(9df)))³`.
fn chi2_crit(df: usize) -> f64 {
    let df = df as f64;
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + 3.090_232 * a.sqrt()).powi(3)
}

/// Pearson χ² of observed counts against expected counts.
fn chi_square(observed: &[f64], expected: &[f64]) -> f64 {
    observed.iter().zip(expected).map(|(&o, &e)| (o - e) * (o - e) / e).sum()
}

/// Target 0 of an `n`-node graph whose only edges join 0 to
/// `1..=degree`: every candidate has zero common-neighbour utility, so
/// the zero class is `degree + 1..n`.
fn star_target(n: usize, degree: u32) -> (CandidateSet, UtilityVector) {
    let g = GraphBuilder::new(Direction::Undirected)
        .add_edges((1..=degree).map(|v| (0, v)))
        .with_num_nodes(n)
        .build()
        .unwrap();
    let candidates = CandidateSet::for_target(&g, 0);
    let u = CommonNeighbors.utilities(&g, 0, &candidates);
    assert!(u.is_all_zero());
    (candidates, u)
}

/// The reservoir pass of the resolver, as a reference.
fn reference_reservoir(
    count: usize,
    u: &UtilityVector,
    candidates: &CandidateSet,
    rng: &mut dyn RngCore,
) -> Vec<NodeId> {
    let mut reservoir: Vec<NodeId> = Vec::new();
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

/// The single slot of a smoothing draw at `x = 0` on an all-zero vector:
/// the mixing coin, the uniform candidate rank (always in the zero
/// class), then the reservoir for one member — as a reference.
fn reference_single_slot(
    u: &UtilityVector,
    candidates: &CandidateSet,
    rng: &mut dyn RngCore,
) -> Vec<NodeId> {
    let _coin: f64 = rng.gen();
    let _rank = rng.gen_range(0..u.len());
    reference_reservoir(1, u, candidates, rng)
}

/// One slot of the smoothing mechanism at `x = 0`: a uniform candidate,
/// which on an all-zero vector is always a zero-class slot.
fn single_slot(u: &UtilityVector, candidates: &CandidateSet, rng: &mut dyn RngCore) -> Vec<NodeId> {
    let draw =
        Mechanism::Smoothing { x: 0.0 }.sample(TopKEngine::Peel, u, candidates, 1, 1.0, 1.0, rng);
    assert_eq!(draw.zero_class_picks, 1);
    draw.picks
}

#[test]
fn outside_the_rejection_rule_both_resolvers_keep_the_reservoir_byte_for_byte() {
    // (n, target degree, count): a class under half the id range, and a
    // count over half the class.
    let cases = [(40, 25, 1), (40, 25, 4), (40, 25, 14), (40, 3, 19), (40, 3, 36), (12, 3, 5)];
    for (n, degree, count) in cases {
        let (candidates, u) = star_target(n, degree);
        for seed in 0..50 {
            let mut ours = StdRng::seed_from_u64(seed);
            let mut reference = StdRng::seed_from_u64(seed);
            assert_eq!(
                resolve_zero_class_distinct(count, &u, &candidates, &mut ours),
                reference_reservoir(count, &u, &candidates, &mut reference),
                "n {n}, degree {degree}, count {count}, seed {seed}"
            );
            assert_eq!(ours.next_u64(), reference.next_u64(), "streams must stay aligned");
        }
    }
    // A single-draw mechanism's zero-class slot goes through the same
    // resolver: a class under half the id range, and a class of one
    // (count 1 over half of it).
    for (n, degree) in [(40, 25), (2, 0)] {
        let (candidates, u) = star_target(n, degree);
        for seed in 0..50 {
            let mut ours = StdRng::seed_from_u64(seed);
            let mut reference = StdRng::seed_from_u64(seed);
            assert_eq!(
                single_slot(&u, &candidates, &mut ours),
                reference_single_slot(&u, &candidates, &mut reference),
                "n {n}, degree {degree}, seed {seed}"
            );
            assert_eq!(ours.next_u64(), reference.next_u64(), "streams must stay aligned");
        }
    }
}

/// Inclusion counts of `draws` resolutions of `count` slots, indexed by
/// the member's rank in the class (ascending id).
fn inclusion_counts(
    candidates: &CandidateSet,
    u: &UtilityVector,
    count: usize,
    draws: usize,
    seed: u64,
) -> Vec<f64> {
    let members: Vec<NodeId> = candidates.iter().filter(|&v| u.get(v) == 0.0).collect();
    let rank: HashMap<NodeId, usize> = members.iter().enumerate().map(|(r, &v)| (v, r)).collect();
    let mut counts = vec![0.0; members.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..draws {
        let picks = resolve_zero_class_distinct(count, u, candidates, &mut rng);
        assert_eq!(picks.len(), count);
        let mut distinct = picks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), count, "picks must be distinct: {picks:?}");
        for v in picks {
            counts[rank[&v]] += 1.0;
        }
    }
    counts
}

#[test]
fn inclusion_counts_are_binomial_on_both_paths() {
    // A 36-member class, 4 slots: the rejection path on a 40-id range,
    // the reservoir on an 80-id range where the class is under half.
    const DRAWS: usize = 20_000;
    const COUNT: usize = 4;
    let (rc, ru) = star_target(40, 3);
    let (sc, su) = star_target(80, 43);
    assert_eq!((ru.num_zero(), su.num_zero()), (36, 36));
    let rejection = inclusion_counts(&rc, &ru, COUNT, DRAWS, 2011);
    let reservoir = inclusion_counts(&sc, &su, COUNT, DRAWS, 2011);

    let expected = vec![(DRAWS * COUNT) as f64 / 36.0; 36];
    let crit = chi2_crit(35);
    for (path, observed) in [("rejection", &rejection), ("reservoir", &reservoir)] {
        let chi2 = chi_square(observed, &expected);
        assert!(chi2 < crit, "{path}: inclusion χ² = {chi2:.2} (crit {crit:.2})");
    }
    // Two-sample homogeneity over the 2 × 36 table (equal totals, so the
    // pooled expectation of each cell is the pair's mean).
    let chi2: f64 = rejection
        .iter()
        .zip(&reservoir)
        .map(|(&a, &b)| {
            let e = (a + b) / 2.0;
            ((a - e) * (a - e) + (b - e) * (b - e)) / e
        })
        .sum();
    assert!(chi2 < crit, "rejection vs reservoir: χ² = {chi2:.2} (crit {crit:.2})");
}

/// The reservoir's exact law over ordered picks of `count` from a class of
/// `m` (members named by rank), by enumerating every slot choice.
fn reservoir_law(m: usize, count: usize) -> HashMap<Vec<usize>, f64> {
    let mut states: HashMap<Vec<usize>, f64> = HashMap::from([((0..count).collect(), 1.0)]);
    for seen in count..m {
        let mut next: HashMap<Vec<usize>, f64> = HashMap::new();
        for (state, p) in states {
            for slot in 0..=seen {
                let mut s = state.clone();
                if slot < count {
                    s[slot] = seen;
                }
                *next.entry(s).or_insert(0.0) += p / (seen + 1) as f64;
            }
        }
        states = next;
    }
    states
}

/// Ordered-pair counts of `draws` two-slot resolutions, by member rank.
fn ordered_pairs(
    candidates: &CandidateSet,
    u: &UtilityVector,
    draws: usize,
    seed: u64,
) -> HashMap<(usize, usize), f64> {
    let first = candidates.iter().find(|&v| u.get(v) == 0.0).unwrap() as usize;
    let mut counts = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..draws {
        let picks = resolve_zero_class_distinct(2, u, candidates, &mut rng);
        let pair = (picks[0] as usize - first, picks[1] as usize - first);
        assert_ne!(pair.0, pair.1);
        *counts.entry(pair).or_insert(0.0) += 1.0;
    }
    counts
}

#[test]
fn ordered_slot_pairs_match_the_reservoir_law() {
    // An 8-member class, 2 slots: 56 ordered pairs. The rejection path on
    // a 12-id range, the reservoir on a 20-id range (class under half).
    const DRAWS: usize = 40_000;
    const M: usize = 8;
    let (rc, ru) = star_target(12, 3);
    let (sc, su) = star_target(20, 11);
    assert_eq!((ru.num_zero(), su.num_zero()), (M, M));
    let rejection = ordered_pairs(&rc, &ru, DRAWS, 7);
    let reservoir = ordered_pairs(&sc, &su, DRAWS, 7);

    let law = reservoir_law(M, 2);
    let total: f64 = law.values().sum();
    assert!((total - 1.0).abs() < 1e-12);
    // Its unordered marginal is uniform over the 28 sets.
    let mut sets: HashMap<(usize, usize), f64> = HashMap::new();
    for (pair, &p) in &law {
        *sets.entry((pair[0].min(pair[1]), pair[0].max(pair[1]))).or_insert(0.0) += p;
    }
    assert_eq!(sets.len(), M * (M - 1) / 2);
    for p in sets.values() {
        assert!((p - 1.0 / 28.0).abs() < 1e-12, "reservoir set law {p}");
    }

    // The reservoir's empirical ordered pairs against its exact law.
    let cells: Vec<(&Vec<usize>, &f64)> = law.iter().collect();
    let observed: Vec<f64> = cells
        .iter()
        .map(|(pair, _)| reservoir.get(&(pair[0], pair[1])).copied().unwrap_or(0.0))
        .collect();
    let expected: Vec<f64> = cells.iter().map(|(_, &p)| p * DRAWS as f64).collect();
    assert_eq!(observed.iter().sum::<f64>(), DRAWS as f64, "reservoir left its law's support");
    let chi2 = chi_square(&observed, &expected);
    let crit = chi2_crit(cells.len() - 1);
    assert!(chi2 < crit, "reservoir ordered pairs: χ² = {chi2:.2} (crit {crit:.2})");

    // The rejection path is uniform over all 56 ordered pairs…
    let mut observed = Vec::new();
    for a in 0..M {
        for b in (0..M).filter(|&b| b != a) {
            observed.push(rejection.get(&(a, b)).copied().unwrap_or(0.0));
        }
    }
    let expected = vec![DRAWS as f64 / 56.0; 56];
    let chi2 = chi_square(&observed, &expected);
    let crit = chi2_crit(55);
    assert!(chi2 < crit, "rejection ordered pairs: χ² = {chi2:.2} (crit {crit:.2})");

    // …and its unordered pairs follow the reservoir law's marginal.
    let mut observed: HashMap<(usize, usize), f64> = HashMap::new();
    for (&(a, b), &c) in &rejection {
        *observed.entry((a.min(b), a.max(b))).or_insert(0.0) += c;
    }
    let keys: Vec<(usize, usize)> = sets.keys().copied().collect();
    let obs: Vec<f64> = keys.iter().map(|k| observed.get(k).copied().unwrap_or(0.0)).collect();
    let exp: Vec<f64> = keys.iter().map(|k| sets[k] * DRAWS as f64).collect();
    let chi2 = chi_square(&obs, &exp);
    let crit = chi2_crit(27);
    assert!(chi2 < crit, "rejection sets vs reservoir law: χ² = {chi2:.2} (crit {crit:.2})");
}

/// An RNG that counts the words drawn from it.
struct CountingRng {
    inner: StdRng,
    draws: usize,
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += dest.len().div_ceil(8);
        self.inner.fill_bytes(dest)
    }
}

#[test]
fn five_slots_from_a_million_id_class_take_at_most_64_draws() {
    let (candidates, u) = star_target(1_000_000, 0);
    assert_eq!(u.num_zero(), 999_999);
    for seed in 0..20 {
        let mut rng = CountingRng { inner: StdRng::seed_from_u64(seed), draws: 0 };
        let picks = resolve_zero_class_distinct(5, &u, &candidates, &mut rng);
        assert_eq!(picks.len(), 5);
        assert!(picks.iter().all(|&v| candidates.contains(v)));
        assert!(rng.draws <= 64, "seed {seed}: {} draws for 5 slots", rng.draws);

        let mut rng = CountingRng { inner: StdRng::seed_from_u64(seed), draws: 0 };
        let pick = single_slot(&u, &candidates, &mut rng)[0];
        assert!(candidates.contains(pick));
        assert!(rng.draws <= 64, "seed {seed}: {} draws for 1 slot", rng.draws);
    }
}
