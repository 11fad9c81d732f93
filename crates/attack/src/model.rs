//! Hypothesis models: the exact output distribution of one served request
//! under one hypothesised world.
//!
//! The edge-inference game hands the adversary two *world models* — the
//! graph with the secret edge and the graph without it — and a transcript
//! generated from one of them. An [`ObservationModel`] packages everything
//! the adversary knows about a single observation under one hypothesis:
//! the observer's candidate set, its utility vector, and which mechanism
//! produced the answer. Its [`ObservationModel::log_prob`] is the exact
//! (for the Exponential and smoothing mechanisms) or numerically
//! integrated (Laplace) log-probability of the concrete recommended ids,
//! which is what turns Lemma 1's constructive adversary into a
//! likelihood-ratio test over real serving outputs.
//!
//! ## Concrete-id probabilities
//!
//! The serving path resolves anonymous zero-utility-class draws to
//! uniformly random *distinct* members
//! ([`psr_privacy::resolve_zero_class_distinct`], inside
//! [`psr_privacy::Mechanism::sample`]). The uniform resolution
//! cancels the class multiplicity exactly: at every peel round, the
//! probability of any *concrete* still-available pick `v` is
//! `w(v) / Σ_remaining w`, whether `v` is a live entry or a zero-class
//! member (the round's class-draw probability `zᵣ·w₀/mass` times the
//! without-replacement assignment `1/zᵣ` collapses to `w₀/mass`). The
//! peeling likelihood below walks exactly that recursion in log space.

use psr_graph::NodeId;
use psr_privacy::{topk, Laplace, Mechanism, TopKEngine};
use psr_utility::{CandidateSet, UtilityVector};

/// Which mechanism and calibration produced an observation. A huge
/// `epsilon` on the exponential mechanism models the non-private top-`k`
/// baseline through the same code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechanismModel {
    /// The mechanism that answered.
    pub mechanism: Mechanism,
    /// Request-level privacy budget ε (split ε/k across the exponential
    /// mechanism's slots; ignored by smoothing).
    pub epsilon: f64,
    /// Calibrated sensitivity Δf.
    pub sensitivity: f64,
}

/// Number of trapezoid intervals for the Laplace win-probability
/// integration. The integrand has kinks at the utility values (Laplace
/// pdf/cdf are only C⁰ there), bounding plain trapezoid accuracy to
/// ~1e-5 at this grid — far below the Monte-Carlo noise of any attack.
const LAPLACE_GRID: usize = 8000;

/// Tail width, in noise scales, beyond which the Laplace integrand is
/// negligible (`e^{-45} ≈ 3e-20`).
const LAPLACE_TAILS: f64 = 45.0;

/// Everything the adversary knows about one observation under one
/// hypothesised world: who asked, what their candidates and utilities are
/// in that world, and which mechanism answered.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationModel {
    /// The observer's candidate set in the hypothesised graph.
    pub candidates: CandidateSet,
    /// The observer's utility vector in the hypothesised graph.
    pub utilities: UtilityVector,
    /// The mechanism that produced the observation.
    pub mechanism: MechanismModel,
}

impl ObservationModel {
    /// Log-probability of observing exactly `picks` (concrete ids, slot
    /// order) under this model. Returns `f64::NEG_INFINITY` for outputs
    /// that are impossible here (a pick outside the candidate set, a
    /// repeated id, more picks than candidates) — a support mismatch that
    /// by itself breaks ε-DP for any finite ε.
    pub fn log_prob(&self, picks: &[NodeId]) -> f64 {
        let MechanismModel { mechanism, epsilon, sensitivity } = self.mechanism;
        if mechanism.is_single_draw() {
            assert_eq!(picks.len(), 1, "{} observations are single draws", mechanism.name());
        }
        match mechanism {
            Mechanism::Exponential => self.exponential_topk_log_prob(picks, epsilon, sensitivity),
            Mechanism::Laplace => self.laplace_win_log_prob(picks[0], epsilon, sensitivity),
            Mechanism::Smoothing { x } => self.smoothing_log_prob(picks[0], x),
        }
    }

    /// The peeling likelihood: per round, the probability of the concrete
    /// pick is `w(pick) / Σ_remaining w` (see the module docs for why the
    /// zero-class resolution cancels), with weights `e^{rate·u}` walked in
    /// log space so the non-private limit (huge ε) stays finite.
    fn exponential_topk_log_prob(&self, picks: &[NodeId], epsilon: f64, sensitivity: f64) -> f64 {
        if picks.is_empty() || picks.len() > self.utilities.len() {
            return f64::NEG_INFINITY;
        }
        let rate = epsilon / picks.len() as f64 / sensitivity;
        let mut live: Vec<(NodeId, f64)> = self.utilities.nonzero().to_vec();
        let mut zeros = self.utilities.num_zero();
        let mut picked_zeros: Vec<NodeId> = Vec::new();
        let mut lp = 0.0;
        for &v in picks {
            if !self.candidates.contains(v) {
                return f64::NEG_INFINITY;
            }
            let uv = self.utilities.get(v);
            if uv > 0.0 {
                match live.binary_search_by_key(&v, |&(id, _)| id) {
                    Ok(i) => {
                        live.remove(i);
                    }
                    Err(_) => return f64::NEG_INFINITY, // repeated pick
                }
            } else {
                if zeros == 0 || picked_zeros.contains(&v) {
                    return f64::NEG_INFINITY;
                }
                picked_zeros.push(v);
                zeros -= 1;
            }
            // Log-mass over what was still available *including* v: terms
            // rate·u per live entry plus a lumped ln(zeros) for the class.
            let prev_zeros = if uv > 0.0 { zeros } else { zeros + 1 };
            let mut m = rate * uv;
            for &(_, x) in &live {
                m = m.max(rate * x);
            }
            if prev_zeros > 0 {
                m = m.max((prev_zeros as f64).ln());
            }
            let mut sum = ((rate * uv) - m).exp();
            for &(_, x) in &live {
                sum += (rate * x - m).exp();
            }
            if uv > 0.0 && prev_zeros > 0 {
                sum += ((prev_zeros as f64).ln() - m).exp();
            } else if uv == 0.0 && zeros > 0 {
                // v's own weight was already counted; add the rest of the
                // class (zeros members remain after removing v).
                sum += ((zeros as f64).ln() - m).exp();
            }
            lp += rate * uv - (m + sum.ln());
        }
        lp
    }

    /// `P(v is the noisy argmax)` for the Laplace mechanism, via trapezoid
    /// integration of `f(x−u_v)·Π_g F(x−u_g)^{m_g}` over the grouped
    /// utility classes (`v`'s own class decremented) — the exact win
    /// probability of a *specific* candidate, matching the mechanism's
    /// uniform within-class resolution by exchangeability.
    fn laplace_win_log_prob(&self, v: NodeId, epsilon: f64, sensitivity: f64) -> f64 {
        if !self.candidates.contains(v) {
            return f64::NEG_INFINITY;
        }
        let uv = self.utilities.get(v);
        let noise = Laplace::for_mechanism(sensitivity, epsilon);
        let b = noise.scale();
        let mut groups = self.utilities.grouped_desc();
        if let Some(g) = groups.iter_mut().find(|g| g.0 == uv) {
            g.1 -= 1;
        }
        groups.retain(|&(_, count)| count > 0);

        let hi = self.utilities.u_max().max(uv) + LAPLACE_TAILS * b;
        let lo = uv.min(0.0) - LAPLACE_TAILS * b;
        let h = (hi - lo) / LAPLACE_GRID as f64;
        let integrand = |x: f64| -> f64 {
            let mut log_others = 0.0;
            for &(value, count) in &groups {
                let f = noise.cdf(x - value);
                if f == 0.0 {
                    return 0.0;
                }
                log_others += count as f64 * f.ln();
            }
            noise.pdf(x - uv) * log_others.exp()
        };
        let mut total = 0.5 * (integrand(lo) + integrand(hi));
        for i in 1..LAPLACE_GRID {
            total += integrand(lo + i as f64 * h);
        }
        (total * h).min(1.0).ln()
    }

    /// Exact per-candidate probability of the smoothing mechanism:
    /// `(1−x)/n` uniform mass plus `x` on `R_best`'s argmax (uniform again
    /// when the vector is all-zero and `R_best` abstains).
    fn smoothing_log_prob(&self, v: NodeId, x: f64) -> f64 {
        if !self.candidates.contains(v) {
            return f64::NEG_INFINITY;
        }
        let n = self.utilities.len() as f64;
        let p = match self.utilities.argmax() {
            Some(best) if best == v => (1.0 - x) / n + x,
            Some(_) => (1.0 - x) / n,
            None => 1.0 / n,
        };
        p.ln()
    }

    /// Simulates one output of this model through the mechanism the
    /// serving path draws with — the shadow-model sampler behind the
    /// membership-inference attack. The exponential mechanism runs its
    /// peeling engine, the same distribution as either serving engine.
    pub fn sample(&self, k: usize, rng: &mut dyn rand::RngCore) -> Vec<NodeId> {
        let MechanismModel { mechanism, epsilon, sensitivity } = self.mechanism;
        let draw = mechanism.sample(
            TopKEngine::Peel,
            &self.utilities,
            &self.candidates,
            k,
            epsilon,
            sensitivity,
            rng,
        );
        draw.picks
    }

    /// Monte-Carlo estimate of `Pr[probe ∈ output]` with add-one
    /// smoothing, so downstream likelihood ratios never divide by zero.
    pub fn appearance_probability(
        &self,
        probe: NodeId,
        k: usize,
        samples: u32,
        rng: &mut dyn rand::RngCore,
    ) -> f64 {
        assert!(samples > 0, "need at least one shadow sample");
        let mut hits = 0u32;
        for _ in 0..samples {
            if self.sample(k, rng).contains(&probe) {
                hits += 1;
            }
        }
        (hits as f64 + 1.0) / (samples as f64 + 2.0)
    }

    /// Accuracy of a concrete answer under this model: utility of the
    /// picks over the best `|picks|` utilities (`None` when the observer's
    /// vector is all-zero — dropped by the §7.1 protocol).
    pub fn accuracy_of(&self, picks: &[NodeId]) -> Option<f64> {
        let denom = topk::topk_optimal_utility(&self.utilities, picks.len());
        if denom <= 0.0 {
            return None;
        }
        let got: f64 = picks.iter().map(|&v| self.utilities.get(v)).sum();
        Some(got / denom)
    }
}

/// The adversary's side knowledge of one hypothesised world: a model for
/// every transcript entry. Entries that share an (observer, graph-epoch)
/// pair share one deduplicated [`ObservationModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorldModel {
    models: Vec<ObservationModel>,
    entry_model: Vec<usize>,
}

impl WorldModel {
    /// Assembles a world model from deduplicated observation models and a
    /// per-transcript-entry index into them.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn new(models: Vec<ObservationModel>, entry_model: Vec<usize>) -> Self {
        assert!(
            entry_model.iter().all(|&i| i < models.len()),
            "entry model index out of range ({} models)",
            models.len()
        );
        WorldModel { models, entry_model }
    }

    /// The model governing transcript entry `entry`.
    pub fn model_for(&self, entry: usize) -> &ObservationModel {
        &self.models[self.entry_model[entry]]
    }

    /// Index of the deduplicated model governing entry `entry`.
    pub fn model_index(&self, entry: usize) -> usize {
        self.entry_model[entry]
    }

    /// The deduplicated models.
    pub fn models(&self) -> &[ObservationModel] {
        &self.models
    }

    /// Number of transcript entries this model covers.
    pub fn num_entries(&self) -> usize {
        self.entry_model.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_graph::{Direction, GraphBuilder};
    use psr_utility::UtilityFunction;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// A 6-node graph where target 0 has candidates {3, 4, 5} with
    /// utilities CN(3) = 2, CN(4) = 1, CN(5) = 0.
    fn model(mechanism: MechanismModel) -> ObservationModel {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)])
            .with_num_nodes(6)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let utilities = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        assert_eq!(utilities.get(3), 2.0);
        assert_eq!(utilities.get(4), 1.0);
        assert_eq!(utilities.num_zero(), 1);
        ObservationModel { candidates, utilities, mechanism }
    }

    /// Enumerates all length-`k` ordered pick sequences over `nodes`.
    fn sequences(nodes: &[NodeId], k: usize) -> Vec<Vec<NodeId>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for &v in nodes {
            let rest: Vec<NodeId> = nodes.iter().copied().filter(|&w| w != v).collect();
            for mut tail in sequences(&rest, k - 1) {
                let mut seq = vec![v];
                seq.append(&mut tail);
                out.push(seq);
            }
        }
        out
    }

    #[test]
    fn exponential_probabilities_normalise_for_k_1_and_2() {
        let m = model(MechanismModel {
            mechanism: Mechanism::Exponential,
            epsilon: 1.3,
            sensitivity: 1.0,
        });
        for k in [1usize, 2, 3] {
            let total: f64 = sequences(&[3, 4, 5], k).iter().map(|seq| m.log_prob(seq).exp()).sum();
            assert!((total - 1.0).abs() < 1e-9, "k={k}: total {total}");
        }
    }

    #[test]
    fn exponential_matches_single_draw_closed_form() {
        let m = model(MechanismModel {
            mechanism: Mechanism::Exponential,
            epsilon: 1.0,
            sensitivity: 1.0,
        });
        let z = 2f64.exp() + 1f64.exp() + 1.0;
        assert!((m.log_prob(&[3]).exp() - 2f64.exp() / z).abs() < 1e-12);
        assert!((m.log_prob(&[4]).exp() - 1f64.exp() / z).abs() < 1e-12);
        assert!((m.log_prob(&[5]).exp() - 1.0 / z).abs() < 1e-12);
    }

    #[test]
    fn exponential_sampling_frequencies_match_log_prob() {
        let m = model(MechanismModel {
            mechanism: Mechanism::Exponential,
            epsilon: 1.0,
            sensitivity: 1.0,
        });
        let mut r = rng(1);
        let trials = 40_000;
        let mut counts: std::collections::HashMap<Vec<NodeId>, u32> = Default::default();
        for _ in 0..trials {
            *counts.entry(m.sample(2, &mut r)).or_insert(0) += 1;
        }
        for (seq, count) in counts {
            let p = m.log_prob(&seq).exp();
            let freq = count as f64 / trials as f64;
            assert!((freq - p).abs() < 0.01, "{seq:?}: freq {freq} vs p {p}");
        }
    }

    #[test]
    fn impossible_picks_have_zero_probability() {
        let m = model(MechanismModel {
            mechanism: Mechanism::Exponential,
            epsilon: 1.0,
            sensitivity: 1.0,
        });
        assert_eq!(m.log_prob(&[0]), f64::NEG_INFINITY, "the target itself");
        assert_eq!(m.log_prob(&[1]), f64::NEG_INFINITY, "an existing neighbour");
        assert_eq!(m.log_prob(&[3, 3]), f64::NEG_INFINITY, "repeated pick");
        assert_eq!(m.log_prob(&[5, 5]), f64::NEG_INFINITY, "repeated zero pick");
        assert_eq!(m.log_prob(&[]), f64::NEG_INFINITY, "empty answer");
        assert_eq!(m.log_prob(&[3, 4, 5, 3]), f64::NEG_INFINITY, "too many picks");
    }

    #[test]
    fn non_private_epsilon_stays_finite_and_picks_the_argmax() {
        let m = model(MechanismModel {
            mechanism: Mechanism::Exponential,
            epsilon: 1e6,
            sensitivity: 1.0,
        });
        let lp_best = m.log_prob(&[3]);
        assert!((lp_best - 0.0).abs() < 1e-9, "argmax is near-certain, got {lp_best}");
        let lp_worse = m.log_prob(&[4]);
        assert!(lp_worse < -1e5, "non-argmax is astronomically unlikely, got {lp_worse}");
        assert!(lp_worse.is_finite(), "log-space walk must not overflow");
    }

    #[test]
    fn laplace_win_probabilities_normalise_and_order() {
        let m =
            model(MechanismModel { mechanism: Mechanism::Laplace, epsilon: 0.8, sensitivity: 1.0 });
        let p3 = m.log_prob(&[3]).exp();
        let p4 = m.log_prob(&[4]).exp();
        let p5 = m.log_prob(&[5]).exp();
        assert!((p3 + p4 + p5 - 1.0).abs() < 5e-5, "sum {}", p3 + p4 + p5);
        assert!(p3 > p4 && p4 > p5, "monotone in utility: {p3} {p4} {p5}");
    }

    #[test]
    fn laplace_integration_matches_two_candidate_closed_form() {
        // Lemma 3's exact two-candidate win probability is in psr-privacy;
        // on a two-candidate vector the integral must agree with it.
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)])
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let utilities = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        assert_eq!(utilities.nonzero().len(), 2);
        assert_eq!(utilities.num_zero(), 0);
        let (eps, sens) = (0.7, 1.0);
        let m = ObservationModel {
            candidates,
            utilities: utilities.clone(),
            mechanism: MechanismModel {
                mechanism: Mechanism::Laplace,
                epsilon: eps,
                sensitivity: sens,
            },
        };
        let gap = utilities.get(3) - utilities.get(4);
        assert_eq!(gap, 1.0);
        let p_closed = psr_privacy::closed_form::laplace_two_candidate_win_prob(eps / sens, gap);
        let p_hi = m.log_prob(&[3]).exp();
        assert!((p_hi - p_closed).abs() < 5e-5, "integral {p_hi} vs closed form {p_closed}");
    }

    #[test]
    fn laplace_sampling_frequencies_match_win_probabilities() {
        let m =
            model(MechanismModel { mechanism: Mechanism::Laplace, epsilon: 1.0, sensitivity: 1.0 });
        let mut r = rng(2);
        let trials = 40_000;
        let mut hits: std::collections::HashMap<NodeId, u32> = Default::default();
        for _ in 0..trials {
            let out = m.sample(1, &mut r);
            *hits.entry(out[0]).or_insert(0) += 1;
        }
        for (&v, &count) in &hits {
            let p = m.log_prob(&[v]).exp();
            let freq = count as f64 / trials as f64;
            assert!((freq - p).abs() < 0.01, "node {v}: freq {freq} vs p {p}");
        }
    }

    #[test]
    fn smoothing_probabilities_are_theorem5_exact() {
        let m = model(MechanismModel {
            mechanism: Mechanism::Smoothing { x: 0.4 },
            epsilon: 1.0,
            sensitivity: 1.0,
        });
        let n = 3.0;
        assert!((m.log_prob(&[3]).exp() - (0.4 + 0.6 / n)).abs() < 1e-12);
        assert!((m.log_prob(&[4]).exp() - 0.6 / n).abs() < 1e-12);
        assert!((m.log_prob(&[5]).exp() - 0.6 / n).abs() < 1e-12);
        let total: f64 = [3, 4, 5].iter().map(|&v| m.log_prob(&[v]).exp()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn appearance_probability_tracks_exact_for_high_eps() {
        let m = model(MechanismModel {
            mechanism: Mechanism::Exponential,
            epsilon: 50.0,
            sensitivity: 1.0,
        });
        let mut r = rng(3);
        let p = m.appearance_probability(3, 1, 400, &mut r);
        assert!(p > 0.9, "argmax nearly always appears, got {p}");
        let q = m.appearance_probability(5, 1, 400, &mut r);
        assert!(q < 0.1, "zero-class node nearly never appears, got {q}");
    }

    #[test]
    fn accuracy_of_scores_picks_against_the_top_k() {
        let m = model(MechanismModel {
            mechanism: Mechanism::Exponential,
            epsilon: 1.0,
            sensitivity: 1.0,
        });
        assert_eq!(m.accuracy_of(&[3]), Some(1.0));
        assert_eq!(m.accuracy_of(&[5]), Some(0.0));
        assert_eq!(m.accuracy_of(&[3, 4]), Some(1.0));
        assert_eq!(m.accuracy_of(&[4, 5]), Some(1.0 / 3.0));
    }

    #[test]
    #[should_panic(expected = "entry model index out of range")]
    fn world_model_rejects_bad_indices() {
        let m = model(MechanismModel {
            mechanism: Mechanism::Smoothing { x: 0.1 },
            epsilon: 1.0,
            sensitivity: 1.0,
        });
        let _ = WorldModel::new(vec![m], vec![0, 1]);
    }
}
