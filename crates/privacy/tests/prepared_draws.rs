//! Prepared draws are the per-draw sampler, bit for bit.
//!
//! [`Mechanism::prepare`] moves the work that does not depend on the
//! random numbers out of the draw: the peel's first-round weights, the
//! Laplace value classes, smoothing's argmax. The reference copies below
//! are the per-draw samplers it replaced: the round-by-round peel, the
//! Laplace noisy argmax that re-groups the vector and scans for the
//! winning class's member on every draw, and smoothing with its argmax
//! recomputed per draw. One prepared sampler and the reference draw from
//! two identically seeded streams; every draw must return the same
//! picks, zero-class count and total utility, and both streams must end
//! in the same state, so no draw consumed a different random number.

use psr_graph::{Direction, GraphBuilder, NodeId};
use psr_privacy::{
    resolve_zero_class_distinct, topk_exponential, topk_gumbel, Draw, Laplace, Mechanism, TopK,
    TopKEngine,
};
use psr_utility::{CandidateSet, UtilityVector};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const DRAWS: usize = 400;

/// The round-by-round peel: every round walks the live weights.
fn reference_peel(
    u: &UtilityVector,
    k: usize,
    eps: f64,
    sensitivity: f64,
    rng: &mut dyn RngCore,
) -> TopK {
    let rate = eps / k as f64 / sensitivity;
    let mut live: Vec<(NodeId, f64)> = u.nonzero().to_vec();
    let mut zeros = u.num_zero();
    let mut picks = Vec::with_capacity(k);
    let mut total_utility = 0.0;
    for _ in 0..k {
        if live.is_empty() {
            if zeros == 0 {
                break;
            }
            zeros -= 1;
            picks.push(None);
            continue;
        }
        let u_max = live.iter().map(|&(_, x)| x).fold(f64::NEG_INFINITY, f64::max);
        let mut mass: f64 = if zeros > 0 { zeros as f64 * (-rate * u_max).exp() } else { 0.0 };
        for &(_, x) in &live {
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
        let i = match chosen {
            Some(i) => i,
            None if zeros > 0 => {
                zeros -= 1;
                picks.push(None);
                continue;
            }
            None => rng.gen_range(0..live.len()),
        };
        let (node, utility) = live.remove(i);
        total_utility += utility;
        picks.push(Some(node));
    }
    TopK { picks, total_utility }
}

/// The per-draw Laplace noisy argmax: groups the vector, takes each
/// class's noisy maximum, then scans for the winning class's member.
fn reference_laplace(
    u: &UtilityVector,
    eps: f64,
    sensitivity: f64,
    rng: &mut dyn RngCore,
) -> Option<NodeId> {
    let noise = Laplace::for_mechanism(sensitivity, eps);
    let groups = u.grouped_desc();
    let mut best = (0usize, f64::NEG_INFINITY);
    for (idx, &(value, count)) in groups.iter().enumerate() {
        let noisy = value + noise.sample_max_of(count, rng);
        if noisy > best.1 {
            best = (idx, noisy);
        }
    }
    let (value, count) = groups[best.0];
    if value == 0.0 {
        return None;
    }
    let pick = rng.gen_range(0..count);
    u.nonzero().iter().filter(|&&(_, ui)| ui == value).nth(pick).map(|&(v, _)| v)
}

/// Smoothing over `R_best` with the argmax found on every draw.
fn reference_smoothing(u: &UtilityVector, x: f64, rng: &mut dyn RngCore) -> Option<NodeId> {
    if rng.gen::<f64>() < x {
        if let Some(v) = u.argmax() {
            return Some(v);
        }
    }
    let pick = rng.gen_range(0..u.len());
    u.nonzero().get(pick).map(|&(v, _)| v)
}

/// The per-draw `Mechanism::sample`, each arm through its reference.
#[allow(clippy::too_many_arguments)]
fn reference_sample(
    mechanism: Mechanism,
    engine: TopKEngine,
    u: &UtilityVector,
    candidates: &CandidateSet,
    k: usize,
    epsilon: f64,
    sensitivity: f64,
    rng: &mut dyn RngCore,
) -> Draw {
    let single = |winner: Option<NodeId>| (vec![winner], winner.map_or(0.0, |v| u.get(v)));
    let (slots, total_utility) = match mechanism {
        Mechanism::Exponential => {
            let k = k.min(u.len());
            let top = match engine {
                TopKEngine::Peel => reference_peel(u, k, epsilon, sensitivity, rng),
                TopKEngine::Gumbel => topk_gumbel(u, k, epsilon, sensitivity, rng),
            };
            (top.picks, top.total_utility)
        }
        Mechanism::Laplace => single(reference_laplace(u, epsilon, sensitivity, rng)),
        Mechanism::Smoothing { x } => single(reference_smoothing(u, x, rng)),
    };
    let zero_class_picks = slots.iter().filter(|p| p.is_none()).count();
    let mut zero_picks =
        resolve_zero_class_distinct(zero_class_picks, u, candidates, rng).into_iter();
    let picks = slots.iter().map(|p| p.unwrap_or_else(|| zero_picks.next().unwrap())).collect();
    Draw { picks, zero_class_picks, total_utility }
}

/// Target 0 of an edgeless `n`-node graph (candidates `1..n`) with the
/// given non-zero utilities; every other candidate is in the zero class.
fn case(n: usize, nonzero: &[(NodeId, f64)]) -> (CandidateSet, UtilityVector) {
    let g = GraphBuilder::new(Direction::Undirected).with_num_nodes(n).build().unwrap();
    let candidates = CandidateSet::for_target(&g, 0);
    let u = UtilityVector::from_sparse(nonzero.to_vec(), candidates.len() - nonzero.len());
    (candidates, u)
}

/// Ties and many values, each with an empty zero class, a small one
/// (under half the ids: the reservoir resolves it) and a dominant one
/// (the rejection path), plus an all-zero vector.
fn cases() -> Vec<(&'static str, CandidateSet, UtilityVector)> {
    let ties = [(1, 3.0), (2, 3.0), (3, 2.0), (4, 3.0), (5, 1.0), (6, 2.0), (7, 1.0), (8, 1.0)];
    let many: Vec<(NodeId, f64)> =
        (1..=24).map(|v| (v, (v * 7 % 11) as f64 * 0.25 + 0.5)).collect();
    vec![
        ("ties, empty zero class", case(9, &ties)),
        ("ties, small zero class", case(14, &ties)),
        ("ties, dominant zero class", case(64, &ties)),
        ("many values, empty zero class", case(25, &many)),
        ("many values, dominant zero class", case(200, &many)),
        ("all zero", case(12, &[])),
    ]
    .into_iter()
    .map(|(label, (candidates, u))| (label, candidates, u))
    .collect()
}

#[test]
fn prepared_draws_equal_the_per_draw_sampler() {
    let mut runs = 0;
    for (label, candidates, u) in cases() {
        for mechanism in
            [Mechanism::Exponential, Mechanism::Laplace, Mechanism::Smoothing { x: 0.3 }]
        {
            let engines: &[TopKEngine] = match mechanism {
                Mechanism::Exponential => &[TopKEngine::Peel, TopKEngine::Gumbel],
                _ => &[TopKEngine::Peel],
            };
            let ks: &[usize] = if mechanism.is_single_draw() { &[1] } else { &[1, 2] };
            for (&engine, &k) in engines.iter().flat_map(|e| ks.iter().map(move |k| (e, k))) {
                // Laplace noise needs ε > 0.
                let min_epsilon = if mechanism == Mechanism::Laplace { 0.4 } else { 0.0 };
                for epsilon in [0.0, 0.4, 3.0, 1e6].into_iter().filter(|&e| e >= min_epsilon) {
                    let seed = runs as u64;
                    let (mut ours, mut theirs) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let prepared = mechanism.prepare(engine, &u, &candidates, k, epsilon, 1.5);
                    for draw in 0..DRAWS {
                        let got = prepared.draw(&mut ours);
                        let want = reference_sample(
                            mechanism,
                            engine,
                            &u,
                            &candidates,
                            k,
                            epsilon,
                            1.5,
                            &mut theirs,
                        );
                        let at = format!(
                            "{label}, {mechanism:?}, {engine:?}, k {k}, ε {epsilon}, draw {draw}"
                        );
                        assert_eq!(got.picks, want.picks, "{at}");
                        assert_eq!(got.zero_class_picks, want.zero_class_picks, "{at}");
                        assert_eq!(
                            got.total_utility.to_bits(),
                            want.total_utility.to_bits(),
                            "{at}"
                        );
                    }
                    assert_eq!(ours.next_u64(), theirs.next_u64(), "{label}: streams diverged");
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 6 * ((2 * 2 + 1) * 4 + 3));
}

/// Every draw returns the largest roll, `1 − 2⁻⁵³`: each round's
/// threshold sits at the far end of its walk, where floating-point
/// residue can pass every live weight.
struct MaxRollRng;

impl RngCore for MaxRollRng {
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
fn peels_equal_the_walk_at_extreme_rolls() {
    // Includes negative utilities, which only serde admits: the first
    // round's shift must start from −∞ on the prepared path too.
    let negative: UtilityVector = serde_json::from_str(
        r#"{"nonzero":[[0,-5.0],[1,-1.0],[2,-3.0]],"num_zero":2,"u_max":-1.0}"#,
    )
    .unwrap();
    let mut vectors: Vec<UtilityVector> = (0..3)
        .map(|num_zero| UtilityVector::from_sparse(vec![(0, 1.0), (1, 1.0), (2, 1.0)], num_zero))
        .collect();
    vectors.push(negative);
    for u in &vectors {
        for eps in [0.0, 1.0, 1000.0, 5000.0] {
            for k in 1..=u.len() {
                let got = topk_exponential(u, k, eps, 1.0, &mut MaxRollRng);
                let want = reference_peel(u, k, eps, 1.0, &mut MaxRollRng);
                assert_eq!(got, want, "{u:?}, ε {eps}, k {k}");
                let mut rng = StdRng::seed_from_u64(k as u64);
                let mut reference = rng.clone();
                assert_eq!(
                    topk_exponential(u, k, eps, 1.0, &mut rng),
                    reference_peel(u, k, eps, 1.0, &mut reference),
                    "{u:?}, ε {eps}, k {k}"
                );
            }
        }
    }
}
