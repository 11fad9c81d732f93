//! End-to-end differential-privacy validation (Theorem 4) and mechanism
//! invariants, over real neighbouring graph pairs.

use proptest::prelude::*;
use psr_graph::{Direction, GraphBuilder, MutableGraph};
use psr_privacy::audit::audit_exact;
use psr_privacy::{exponential_probabilities, laplace_accuracy, smoothing_epsilon, Mechanism};
use psr_utility::{CandidateSet, CommonNeighbors, SensitivityNorm, UtilityFunction};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn edge_set(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 1..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(u, v)| u != v).collect())
}

const N: u32 = 10;

/// Aligned exact outcome distributions of the Exponential mechanism on a
/// graph and its single-edge neighbour: per-candidate probabilities in
/// candidate-id order (candidate sets agree because the flipped edge
/// avoids the target).
fn exponential_distributions(
    edges: &[(u32, u32)],
    flip: (u32, u32),
    target: u32,
    eps: f64,
) -> (Vec<f64>, Vec<f64>) {
    exponential_distributions_with_norm(edges, flip, target, eps, SensitivityNorm::L1)
}

fn exponential_distributions_with_norm(
    edges: &[(u32, u32)],
    flip: (u32, u32),
    target: u32,
    eps: f64,
    norm: SensitivityNorm,
) -> (Vec<f64>, Vec<f64>) {
    let g = GraphBuilder::new(Direction::Undirected)
        .add_edges(edges.iter().copied())
        .with_num_nodes(N as usize)
        .build()
        .unwrap();
    let mut m = MutableGraph::from(&g);
    m.toggle_edge(flip.0, flip.1).unwrap();
    let g2 = m.freeze();

    let cn = CommonNeighbors;
    // Global sensitivity bound is graph-independent for common neighbours.
    let sens = cn.sensitivity(&g).unwrap().value(norm);
    let candidates = CandidateSet::for_target(&g, target);

    let dist = |graph: &psr_graph::Graph| -> Vec<f64> {
        let u = cn.utilities(graph, target, &candidates);
        let (probs, zero_each) = exponential_probabilities(&u, eps, sens);
        candidates
            .iter()
            .map(|v| match u.nonzero().binary_search_by_key(&v, |&(n, _)| n) {
                Ok(i) => probs[i],
                Err(_) => zero_each,
            })
            .collect()
    };
    (dist(&g), dist(&g2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 4 for the Exponential mechanism, audited exactly.
    ///
    /// Note the paper's Def. 5 scaling `exp(ε·u/Δf)` is ε-DP here because
    /// with `Δ₁ = 2` the per-candidate movement is ≤ 1 = Δ∞ and the
    /// normaliser shift is covered by the L1 slack; the audit confirms the
    /// printed claim on real neighbouring pairs.
    #[test]
    fn exponential_mechanism_is_eps_dp(
        edges in edge_set(N, 24),
        a in 1u32..N,
        b in 1u32..N,
        eps in 0.1f64..3.0,
    ) {
        prop_assume!(a != b);
        let (p, q) = exponential_distributions(&edges, (a, b), 0, eps);
        let audit = audit_exact(&p, &q, eps, 1e-9);
        prop_assert!(
            audit.holds,
            "DP violated: max log-ratio {} > eps {eps}",
            audit.max_log_ratio
        );
    }

    /// The monotone-utility case: common-neighbour counts all move in the
    /// same direction under an edge flip, so the Exponential mechanism is
    /// ε-DP even at the tighter Δ∞ = 1 calibration (the reading that
    /// reproduces the paper's experimental curves — DESIGN.md §4). This
    /// audit verifies that claim exactly on real neighbouring pairs.
    #[test]
    fn exponential_mechanism_is_eps_dp_at_linf(
        edges in edge_set(N, 24),
        a in 1u32..N,
        b in 1u32..N,
        eps in 0.1f64..3.0,
    ) {
        prop_assume!(a != b);
        let (p, q) =
            exponential_distributions_with_norm(&edges, (a, b), 0, eps, SensitivityNorm::LInf);
        let audit = audit_exact(&p, &q, eps, 1e-9);
        prop_assert!(
            audit.holds,
            "DP violated at Linf: max log-ratio {} > eps {eps}",
            audit.max_log_ratio
        );
    }

    /// Monotonicity (Definition 4) of the Exponential mechanism on every
    /// utility vector: uᵢ > uⱼ ⇒ pᵢ > pⱼ.
    #[test]
    fn exponential_is_monotonic(edges in edge_set(N, 24), eps in 0.05f64..4.0) {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .with_num_nodes(N as usize)
            .build()
            .unwrap();
        let u = CommonNeighbors.utilities_for(&g, 0);
        prop_assume!(!u.is_all_zero());
        let (probs, zero_each) = exponential_probabilities(&u, eps, 2.0);
        for (i, &(_, ui)) in u.nonzero().iter().enumerate() {
            for (j, &(_, uj)) in u.nonzero().iter().enumerate() {
                if ui > uj {
                    prop_assert!(probs[i] > probs[j]);
                }
            }
            prop_assert!(probs[i] > zero_each);
        }
    }

    /// Both mechanisms produce accuracy in [0, 1] and agree closely
    /// (§7.2 takeaway (ii)) on random graphs.
    #[test]
    fn mechanisms_agree_and_stay_bounded(edges in edge_set(N, 24), eps in 0.5f64..3.0) {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .with_num_nodes(N as usize)
            .build()
            .unwrap();
        let u = CommonNeighbors.utilities_for(&g, 0);
        prop_assume!(!u.is_all_zero());
        let mut r = rng(99);
        let exp = Mechanism::Exponential.expected_accuracy(&u, eps, 2.0, &mut r);
        let lap = laplace_accuracy(&u, eps, 2.0, 3000, &mut r);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&exp));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&lap));
        // "Nearly identical" in the paper's experiments; on tiny vectors
        // the gap can reach a few points, never more.
        prop_assert!((exp - lap).abs() < 0.12, "exp {exp} vs lap {lap}");
    }

    /// The two top-k engines agree wherever sampling is deterministic.
    /// At ε = 10⁶ the noise is negligible against any utility gap, so
    /// both must return a true top-k: identical total utility and an
    /// identical multiset of picked utilities (individual node ids may
    /// differ only inside exact-tie groups). At ε = 0 both are uniform
    /// samplers; the structural contract — k slots, distinct node picks,
    /// zero class never over-drawn — must hold for each (the matching
    /// distributions are pinned by the χ² conformance suite).
    #[test]
    fn topk_engines_agree_in_deterministic_regimes(
        edges in edge_set(N, 24),
        k in 1usize..5,
        seed in 0u64..1 << 32,
    ) {
        use psr_privacy::{topk_with_engine, TopKEngine};

        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .with_num_nodes(N as usize)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = CommonNeighbors.utilities(&g, 0, &candidates);
        prop_assume!(k <= u.len());

        let sorted_utilities = |picks: &[Option<u32>]| -> Vec<f64> {
            let mut us: Vec<f64> =
                picks.iter().map(|p| p.map_or(0.0, |v| u.get(v))).collect();
            us.sort_by(f64::total_cmp);
            us
        };
        let peel =
            topk_with_engine(TopKEngine::Peel, &u, k, 1e6, 2.0, &mut rng(seed));
        let gumbel =
            topk_with_engine(TopKEngine::Gumbel, &u, k, 1e6, 2.0, &mut rng(!seed));
        prop_assert!((peel.total_utility - gumbel.total_utility).abs() < 1e-9,
            "peel {} vs gumbel {}", peel.total_utility, gumbel.total_utility);
        prop_assert_eq!(sorted_utilities(&peel.picks), sorted_utilities(&gumbel.picks));

        for engine in [TopKEngine::Peel, TopKEngine::Gumbel] {
            let top = topk_with_engine(engine, &u, k, 0.0, 2.0, &mut rng(seed));
            prop_assert_eq!(top.picks.len(), k);
            let nodes: Vec<u32> = top.picks.iter().filter_map(|&p| p).collect();
            let mut distinct = nodes.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), nodes.len(), "duplicate picks under {:?}", engine);
            prop_assert!(k - nodes.len() <= u.num_zero(), "zero class over-drawn by {:?}", engine);
        }
    }

    /// Smoothing never exceeds its Theorem-5 epsilon: exact distribution
    /// ratio check across two arbitrary utility vectors on the same
    /// candidate count.
    #[test]
    fn smoothing_ratio_bounded(x in 0.01f64..0.95, n in 2usize..60) {
        let eps = smoothing_epsilon(x, n);
        // Worst case: argmax moves from one candidate to another.
        let hi = x + (1.0 - x) / n as f64;
        let lo = (1.0 - x) / n as f64;
        let ratio = (hi / lo).ln();
        prop_assert!(ratio <= eps + 1e-9, "ratio {ratio} > eps {eps}");
    }
}

/// Laplace mechanism DP smoke test (empirical; exact distribution has no
/// closed form for n > 2). Counts outcome frequencies on neighbouring
/// graphs and checks the smoothed ratio against e^ε with sampling slack.
#[test]
fn laplace_mechanism_empirical_dp_smoke() {
    let edges = [(0u32, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4), (2, 5)];
    let g = GraphBuilder::new(Direction::Undirected)
        .add_edges(edges.iter().copied())
        .with_num_nodes(8)
        .build()
        .unwrap();
    let mut m = MutableGraph::from(&g);
    m.toggle_edge(4, 5).unwrap();
    let g2 = m.freeze();

    let cn = CommonNeighbors;
    let sens = cn.sensitivity(&g).unwrap().l1;
    let candidates = CandidateSet::for_target(&g, 0);
    let eps = 1.0;
    let mut r = rng(7);

    // Zero-class draws are counted as one outcome (the class), the rest
    // per candidate.
    let mut count = |graph: &psr_graph::Graph| -> Vec<u64> {
        let u = cn.utilities(graph, 0, &candidates);
        let mut counts = vec![0u64; candidates.len() + 1];
        for _ in 0..60_000 {
            let draw = Mechanism::Laplace.sample(
                psr_privacy::TopKEngine::default(),
                &u,
                &candidates,
                1,
                eps,
                sens,
                &mut r,
            );
            if draw.zero_class_picks == 1 {
                *counts.last_mut().unwrap() += 1;
            } else {
                let idx = candidates.iter().position(|c| c == draw.picks[0]).unwrap();
                counts[idx] += 1;
            }
        }
        counts
    };
    let p = count(&g);
    let q = count(&g2);
    let audit = psr_privacy::audit::audit_empirical(&p, &q, eps, 0.35);
    assert!(audit.holds, "empirical DP audit failed: {audit:?}");
}
