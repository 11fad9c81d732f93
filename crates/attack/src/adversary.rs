//! The adversaries: three instantiations of the paper's constructive
//! attacker, all scoring transcripts against the two hypothesised worlds.
//!
//! * [`ReconstructionAdversary`] — the Lemma-1 reconstruction attacker as
//!   an exact likelihood-ratio (Neyman–Pearson) test between the
//!   edge-neighbouring graphs `G`/`G'`, using the exact mechanism output
//!   distributions from `psr-privacy` (Exponential/smoothing closed
//!   forms, integrated Laplace win probabilities). By the Neyman–Pearson
//!   lemma no transcript-level distinguisher beats it, so its measured
//!   advantage is the empirical analogue of the paper's lower-bound
//!   argument.
//! * [`LikelihoodRatioMia`] — a membership-inference attack that only
//!   tracks whether a probe node appears in each answer, with per-world
//!   appearance probabilities estimated from shadow runs of the same
//!   serving primitives (the black-box measurement framing of
//!   arXiv:2308.03735). Weaker than full reconstruction but needs no
//!   per-candidate distributions.
//! * [`FrequencyBaseline`] — plurality voting on the probe's appearance
//!   frequency with no model knowledge at all; the sanity floor any
//!   serious attack must beat.

use std::collections::HashMap;

use psr_gen::seed::{rng_from_seed, split_seed};
use psr_graph::NodeId;

use crate::model::{Likelihood, ObservationModel, WorldModel};
use crate::transcript::Transcript;

/// Scores are clamped to ±this value so support mismatches (log-ratio
/// ±∞) stay orderable by the threshold machinery without producing NaN
/// when transcripts mix impossible-under-either-world entries.
pub const SCORE_CLAMP: f64 = 1e9;

/// An edge-inference adversary: maps an observation transcript to a real
/// score, higher meaning "the secret edge is present" (world 1).
///
/// Implementations receive the two hypothesised [`WorldModel`]s — the
/// adversary's side knowledge in the distinguishing game of Lemma 1 —
/// and must be deterministic given their configuration (seeded shadow
/// sampling included), so attack runs reproduce bit-identically.
pub trait Adversary: Send + Sync {
    /// Short stable name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Scores a batch of transcripts. Batch-level so implementations can
    /// amortise per-model work (e.g. shadow sampling, repeated
    /// likelihoods) across transcripts. A batch may mix both worlds'
    /// transcripts, so each score must be independent of the rest of its
    /// batch: the same as [`Adversary::score`] on the transcript alone.
    fn score_all(&self, transcripts: &[Transcript], w0: &WorldModel, w1: &WorldModel) -> Vec<f64>;

    /// Scores one transcript (a one-element batch).
    fn score(&self, transcript: &Transcript, w0: &WorldModel, w1: &WorldModel) -> f64 {
        self.score_all(std::slice::from_ref(transcript), w0, w1)
            .pop()
            .expect("one transcript, one score")
    }
}

/// The Lemma-1 reconstruction adversary: sums exact per-observation
/// log-likelihood ratios `ln P₁(obs)/P₀(obs)` over the transcript.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReconstructionAdversary;

impl Adversary for ReconstructionAdversary {
    fn name(&self) -> &'static str {
        "reconstruction"
    }

    /// Memoises `log_prob`, a pure function of (world, deduplicated
    /// model, picks), across the batch: transcripts repeat a handful of
    /// answers. Each (world, model) pair scores through one prepared
    /// likelihood, so a Laplace model's win probabilities are
    /// integrated once per batch, not once per distinct answer.
    fn score_all(&self, transcripts: &[Transcript], w0: &WorldModel, w1: &WorldModel) -> Vec<f64> {
        let likelihoods: [Vec<Likelihood>; 2] =
            [w0, w1].map(|w| w.models().iter().map(ObservationModel::likelihood).collect());
        let mut memo: HashMap<(usize, usize, &[NodeId]), f64> = HashMap::new();
        transcripts
            .iter()
            .map(|t| {
                let mut total = 0.0;
                for (i, obs) in t.entries.iter().enumerate() {
                    let picks = obs.recommendations.as_slice();
                    let [lp0, lp1] = [(0, w0), (1, w1)].map(|(world, w)| {
                        let model = w.model_index(i);
                        *memo
                            .entry((world, model, picks))
                            .or_insert_with(|| likelihoods[world][model].log_prob(picks))
                    });
                    match (lp0 == f64::NEG_INFINITY, lp1 == f64::NEG_INFINITY) {
                        // Impossible under both hypotheses: carries no
                        // evidence about which of the two worlds produced it.
                        (true, true) => {}
                        // Support mismatch: certainty, the strongest
                        // possible leak.
                        (true, false) => return SCORE_CLAMP,
                        (false, true) => return -SCORE_CLAMP,
                        (false, false) => total += lp1 - lp0,
                    }
                }
                total.clamp(-SCORE_CLAMP, SCORE_CLAMP)
            })
            .collect()
    }
}

/// The membership-inference attack: Bernoulli log-likelihood ratios on
/// "did the probe node appear in this answer", with per-(world, model)
/// appearance probabilities estimated once from seeded shadow samples.
#[derive(Debug, Clone, Copy)]
pub struct LikelihoodRatioMia {
    /// The node whose appearances are tracked (an endpoint of the secret
    /// edge: its utility for nearby observers is what the edge shifts).
    pub probe: NodeId,
    /// Shadow samples per deduplicated observation model.
    pub shadow_samples: u32,
    /// Seed for the shadow sampling streams.
    pub seed: u64,
}

impl LikelihoodRatioMia {
    /// A reasonable default: 256 shadow samples per model.
    pub fn new(probe: NodeId, seed: u64) -> Self {
        LikelihoodRatioMia { probe, shadow_samples: 256, seed }
    }

    /// Appearance probability per deduplicated model of `world`, indexed
    /// like [`WorldModel::models`]. Add-one smoothed, so ratios stay
    /// finite.
    fn appearance_table(&self, world: &WorldModel, world_tag: u64, k: usize) -> Vec<f64> {
        world
            .models()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut rng = rng_from_seed(split_seed(
                    self.seed,
                    0x4D1A_0000 + (world_tag << 32) + i as u64,
                ));
                m.appearance_probability(self.probe, k, self.shadow_samples, &mut rng)
            })
            .collect()
    }
}

impl Adversary for LikelihoodRatioMia {
    fn name(&self) -> &'static str {
        "likelihood-ratio-mia"
    }

    fn score_all(&self, transcripts: &[Transcript], w0: &WorldModel, w1: &WorldModel) -> Vec<f64> {
        let k = transcripts.iter().flat_map(|t| t.entries.first()).map(|o| o.k).next().unwrap_or(1);
        let p0 = self.appearance_table(w0, 0, k);
        let p1 = self.appearance_table(w1, 1, k);
        transcripts
            .iter()
            .map(|t| {
                let mut llr = 0.0;
                for (i, obs) in t.entries.iter().enumerate() {
                    let (a, b) = (p0[w0.model_index(i)], p1[w1.model_index(i)]);
                    llr += if obs.contains(self.probe) {
                        (b / a).ln()
                    } else {
                        ((1.0 - b) / (1.0 - a)).ln()
                    };
                }
                llr.clamp(-SCORE_CLAMP, SCORE_CLAMP)
            })
            .collect()
    }
}

/// The plurality baseline: score = the probe's appearance frequency,
/// ignoring the world models entirely.
#[derive(Debug, Clone, Copy)]
pub struct FrequencyBaseline {
    /// The node whose appearance frequency is the score.
    pub probe: NodeId,
}

impl Adversary for FrequencyBaseline {
    fn name(&self) -> &'static str {
        "frequency-baseline"
    }

    fn score_all(
        &self,
        transcripts: &[Transcript],
        _w0: &WorldModel,
        _w1: &WorldModel,
    ) -> Vec<f64> {
        transcripts.iter().map(|t| t.appearance_frequency(self.probe)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MechanismModel, ObservationModel};
    use crate::transcript::Observation;
    use psr_graph::{Direction, GraphBuilder};
    use psr_privacy::Mechanism;
    use psr_utility::{CandidateSet, UtilityFunction};

    /// Worlds: without (w0) and with (w1) the secret edge (1, 4); observer
    /// 0 watches. In w1, candidate 4 gains a common neighbour with 0.
    fn worlds(mechanism: fn(f64) -> MechanismModel) -> (WorldModel, WorldModel) {
        let base = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .with_num_nodes(6)
            .build()
            .unwrap();
        let with_edge = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)])
            .with_num_nodes(6)
            .build()
            .unwrap();
        let model = |g: &psr_graph::Graph| {
            let candidates = CandidateSet::for_target(g, 0);
            let utilities = psr_utility::CommonNeighbors.utilities(g, 0, &candidates);
            ObservationModel { candidates, utilities, mechanism: mechanism(1.0) }
        };
        (
            WorldModel::new(vec![model(&base)], vec![0, 0]),
            WorldModel::new(vec![model(&with_edge)], vec![0, 0]),
        )
    }

    fn transcript(picks: [NodeId; 2]) -> Transcript {
        Transcript {
            entries: picks
                .iter()
                .map(|&v| Observation { observer: 0, k: 1, recommendations: vec![v] })
                .collect(),
        }
    }

    fn exponential(epsilon: f64) -> MechanismModel {
        MechanismModel { mechanism: Mechanism::Exponential, epsilon, sensitivity: 1.0 }
    }

    #[test]
    fn reconstruction_llr_points_toward_the_generating_world() {
        let (w0, w1) = worlds(exponential);
        // Node 4 has utility 0 in w0 and 1 in w1: seeing it recommended
        // twice must push the score positive; node 3 (utility 2 in both,
        // but normalisation differs) pushes the other way.
        let adv = ReconstructionAdversary;
        let s_edge = adv.score(&transcript([4, 4]), &w0, &w1);
        let s_no_edge = adv.score(&transcript([3, 3]), &w0, &w1);
        assert!(s_edge > 0.0, "probe-heavy transcript scores world 1: {s_edge}");
        assert!(s_no_edge < s_edge, "ordering: {s_no_edge} < {s_edge}");
    }

    #[test]
    fn reconstruction_is_antisymmetric_in_the_worlds() {
        let (w0, w1) = worlds(exponential);
        let adv = ReconstructionAdversary;
        for picks in [[3, 4], [4, 4], [5, 3]] {
            let t = transcript(picks);
            let fwd = adv.score(&t, &w0, &w1);
            let bwd = adv.score(&t, &w1, &w0);
            assert!((fwd + bwd).abs() < 1e-9, "{picks:?}: {fwd} vs {bwd}");
        }
    }

    #[test]
    fn support_mismatch_saturates_the_score() {
        // An observer watching endpoint 1 directly: in w1 node 4 is 1's
        // neighbour, so "4 recommended to 1" is impossible there.
        let base = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .with_num_nodes(6)
            .build()
            .unwrap();
        let with_edge = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)])
            .with_num_nodes(6)
            .build()
            .unwrap();
        let model = |g: &psr_graph::Graph| {
            let candidates = CandidateSet::for_target(g, 1);
            let utilities = psr_utility::CommonNeighbors.utilities(g, 1, &candidates);
            ObservationModel { candidates, utilities, mechanism: exponential(1.0) }
        };
        let w0 = WorldModel::new(vec![model(&base)], vec![0]);
        let w1 = WorldModel::new(vec![model(&with_edge)], vec![0]);
        let t = Transcript {
            entries: vec![Observation { observer: 1, k: 1, recommendations: vec![4] }],
        };
        assert_eq!(ReconstructionAdversary.score(&t, &w0, &w1), -SCORE_CLAMP);
        assert_eq!(ReconstructionAdversary.score(&t, &w1, &w0), SCORE_CLAMP);
    }

    #[test]
    fn mia_scores_probe_appearances_toward_world_1() {
        let (w0, w1) = worlds(exponential);
        let mia = LikelihoodRatioMia::new(4, 7);
        let s_probe = mia.score(&transcript([4, 4]), &w0, &w1);
        let s_other = mia.score(&transcript([3, 5]), &w0, &w1);
        assert!(s_probe > 0.0, "probe appearances score positive: {s_probe}");
        assert!(s_other < s_probe);
    }

    #[test]
    fn mia_is_deterministic_given_its_seed() {
        let (w0, w1) = worlds(exponential);
        let t = transcript([4, 3]);
        let a = LikelihoodRatioMia::new(4, 11).score(&t, &w0, &w1);
        let b = LikelihoodRatioMia::new(4, 11).score(&t, &w0, &w1);
        assert_eq!(a, b);
    }

    #[test]
    fn frequency_baseline_is_the_appearance_frequency() {
        let (w0, w1) = worlds(exponential);
        let base = FrequencyBaseline { probe: 4 };
        assert_eq!(base.score(&transcript([4, 4]), &w0, &w1), 1.0);
        assert_eq!(base.score(&transcript([4, 3]), &w0, &w1), 0.5);
        assert_eq!(base.score(&transcript([3, 5]), &w0, &w1), 0.0);
    }

    /// Observers 0 and 1 of the secret edge (1, 4), entries alternating
    /// between them: 4 is a candidate of observer 1 in w0 only, and 1 is
    /// a candidate of observer 0 in neither world.
    fn two_observer_worlds(mechanism: MechanismModel) -> (WorldModel, WorldModel) {
        let world = |edges: &[(NodeId, NodeId)]| {
            let g = GraphBuilder::new(Direction::Undirected)
                .add_edges(edges.iter().copied())
                .with_num_nodes(6)
                .build()
                .unwrap();
            let models = [0, 1]
                .map(|o| {
                    let candidates = CandidateSet::for_target(&g, o);
                    let utilities = psr_utility::CommonNeighbors.utilities(&g, o, &candidates);
                    ObservationModel { candidates, utilities, mechanism }
                })
                .to_vec();
            WorldModel::new(models, vec![0, 1, 0, 1])
        };
        let base = [(0, 1), (0, 2), (1, 3), (2, 3)];
        (world(&base), world(&[&base[..], &[(1, 4)]].concat()))
    }

    /// `log_prob` with a Laplace answer scored per pick: its value class
    /// looked up and every class's win probability integrated again.
    fn reference_log_prob(model: &ObservationModel, picks: &[NodeId]) -> f64 {
        let MechanismModel { mechanism, epsilon, sensitivity } = model.mechanism;
        if mechanism != Mechanism::Laplace {
            return model.log_prob(picks);
        }
        let uv = model.utilities.get(picks[0]);
        match model.utilities.grouped_desc().iter().position(|&(value, _)| value == uv) {
            Some(class) if model.candidates.contains(picks[0]) => {
                let win =
                    psr_privacy::laplace_win_probabilities(&model.utilities, epsilon, sensitivity);
                win[class].ln()
            }
            _ => f64::NEG_INFINITY,
        }
    }

    /// The Lemma-1 score summed straight from per-pick likelihoods, no
    /// memo.
    fn reference_score(t: &Transcript, w0: &WorldModel, w1: &WorldModel) -> f64 {
        let mut total = 0.0;
        for (i, obs) in t.entries.iter().enumerate() {
            let lp0 = reference_log_prob(w0.model_for(i), &obs.recommendations);
            let lp1 = reference_log_prob(w1.model_for(i), &obs.recommendations);
            match (lp0 == f64::NEG_INFINITY, lp1 == f64::NEG_INFINITY) {
                (true, true) => {}
                (true, false) => return SCORE_CLAMP,
                (false, true) => return -SCORE_CLAMP,
                (false, false) => total += lp1 - lp0,
            }
        }
        total.clamp(-SCORE_CLAMP, SCORE_CLAMP)
    }

    /// A transcript with one entry per pick list.
    fn entries<const K: usize>(picks: [[NodeId; K]; 4]) -> Transcript {
        Transcript {
            entries: picks
                .iter()
                .map(|p| Observation { observer: 0, k: K, recommendations: p.to_vec() })
                .collect(),
        }
    }

    #[test]
    fn memoised_reconstruction_scores_are_bit_identical_to_log_prob_sums() {
        let model = |mechanism| MechanismModel { mechanism, epsilon: 1.0, sensitivity: 1.0 };
        let top2 = vec![
            entries([[3, 4], [2, 5], [4, 3], [5, 2]]),
            entries([[4, 5], [5, 2], [3, 4], [2, 5]]),
            entries([[3, 4], [2, 5], [3, 4], [2, 5]]),
            // Observer 1 answered 4: possible in w0 only.
            entries([[3, 4], [4, 2], [3, 5], [2, 5]]),
            // Observer 0 answered 1 and a repeat: possible in neither.
            entries([[1, 3], [2, 5], [3, 3], [5, 2]]),
        ];
        let single = vec![
            entries([[3], [2], [4], [5]]),
            entries([[4], [5], [3], [2]]),
            entries([[3], [2], [3], [2]]),
            entries([[3], [4], [5], [2]]),
            entries([[1], [2], [3], [5]]),
        ];
        let cases = [
            (model(Mechanism::Exponential), top2),
            (model(Mechanism::Laplace), single.clone()),
            (model(Mechanism::Smoothing { x: 0.3 }), single),
        ];
        for (mechanism, transcripts) in cases {
            let (w0, w1) = two_observer_worlds(mechanism);
            for (a, b) in [(&w0, &w1), (&w1, &w0)] {
                let scores = ReconstructionAdversary.score_all(&transcripts, a, b);
                for (t, score) in transcripts.iter().zip(&scores) {
                    let expected = reference_score(t, a, b);
                    assert_eq!(score.to_bits(), expected.to_bits(), "{mechanism:?}: {t:?}");
                }
                assert_eq!(scores[3].abs(), SCORE_CLAMP, "{mechanism:?}: support mismatch");
                assert!(scores[4].abs() < SCORE_CLAMP, "{mechanism:?}: no evidence either way");
            }
        }
    }

    #[test]
    fn batch_scoring_matches_single_scoring() {
        let (w0, w1) = worlds(exponential);
        let ts = [transcript([4, 4]), transcript([3, 5]), transcript([5, 4])];
        for adv in [&ReconstructionAdversary as &dyn Adversary, &LikelihoodRatioMia::new(4, 3)] {
            let batch = adv.score_all(&ts, &w0, &w1);
            for (t, &s) in ts.iter().zip(&batch) {
                assert_eq!(adv.score(t, &w0, &w1), s, "{}", adv.name());
            }
        }
    }
}
