//! Additional link-prediction utilities (§8: "it would be nice to consider
//! others as well").
//!
//! These are the classic scores from Liben-Nowell & Kleinberg \[14\] beyond
//! the two the paper analyses. They plug into the same pipeline, letting
//! the ablation benches ask whether the harsh trade-off is specific to the
//! analysed utilities (it is not: anything 2-hop-local inherits it).

use psr_graph::algo::{common_neighbor_count, with_walk};
use psr_graph::{GraphView, NodeId};

use crate::candidates::CandidateSet;
use crate::sensitivity::Sensitivity;
use crate::traits::UtilityFunction;
use crate::vector::UtilityVector;

/// Adamic–Adar: `Σ_{z ∈ Γ(r) ∩ Γ(i)} 1 / ln(deg z)` — common neighbours
/// discounted by their popularity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdamicAdar;

impl UtilityFunction for AdamicAdar {
    fn name(&self) -> String {
        "adamic-adar".to_owned()
    }

    fn utilities(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        candidates: &CandidateSet,
    ) -> UtilityVector {
        // A degree-1 middle node cannot complete a 2-path (and ln 1 = 0
        // would divide by zero), so it starts no walk.
        let discount = |z: NodeId| match graph.degree(z) {
            dz if dz < 2 => 0.0,
            dz => 1.0 / (dz as f64).ln(),
        };
        candidates.scores(|emit| {
            with_walk(|walk| walk.weighted(graph, target, discount, &[0.0, 1.0], emit))
        })
    }

    /// A flipped edge `(x, y)` adds/removes one discounted term at each
    /// endpoint (≤ `1/ln 2` each) and, by changing `deg x` and `deg y`,
    /// re-weights every 2-path through them (≤ `d_max` paths each, weight
    /// change ≤ `1/ln 2 − 1/ln 3` per path).
    fn sensitivity(&self, graph: &dyn GraphView) -> Option<Sensitivity> {
        let inv_ln2 = 1.0 / std::f64::consts::LN_2;
        let reweight = inv_ln2 - 1.0 / 3f64.ln();
        let d = graph.max_degree() as f64;
        Some(Sensitivity { l1: 2.0 * inv_ln2 + 2.0 * d * reweight, linf: inv_ln2 + d * reweight })
    }

    /// Both the 2-path structure and the middle-node degrees that weight
    /// it involve only edges incident to `N(r) ∪ {r}`, so a toggled edge
    /// matters only to targets within one hop of an endpoint.
    fn invalidation_radius(&self) -> Option<usize> {
        Some(1)
    }
}

/// Jaccard coefficient: `|Γ(r) ∩ Γ(i)| / |Γ(r) ∪ Γ(i)|`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Jaccard;

impl UtilityFunction for Jaccard {
    fn name(&self) -> String {
        "jaccard".to_owned()
    }

    fn utilities(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        candidates: &CandidateSet,
    ) -> UtilityVector {
        let d_r = graph.degree(target);
        // The walk-count kernel seeds the support set, but the score uses
        // the true out-neighbourhood intersection: on directed graphs a
        // 2-step walk count is *not* `|Γ(r) ∩ Γ(v)|` (it can exceed both
        // degrees and drive the union to zero). On undirected simple
        // graphs the two provably coincide, so the walk count is reused
        // there instead of re-intersecting per candidate.
        let directed = graph.is_directed();
        let jaccard = |emit: &mut dyn FnMut(NodeId, f64), v: NodeId, c: u32| {
            let inter = if directed { common_neighbor_count(graph, target, v) } else { c } as usize;
            if inter > 0 {
                emit(v, inter as f64 / (d_r + graph.degree(v) - inter) as f64);
            }
        };
        candidates.scores(|emit| {
            with_walk(|walk| walk.common_neighbors(graph, target, |v, c| jaccard(emit, v, c)))
        })
    }

    /// Bounded by 1 per candidate; a single flipped edge touches the
    /// intersection of its two endpoints and the union terms of every
    /// candidate adjacent to them.
    fn sensitivity(&self, graph: &dyn GraphView) -> Option<Sensitivity> {
        let d = graph.max_degree() as f64;
        // Endpoint scores move by ≤ 1 each; degree changes perturb ≤ 2·d_max
        // other candidates' union terms by ≤ 1/(union²) ≤ 1 each (coarse).
        Some(Sensitivity { l1: 2.0 + 2.0 * d, linf: 1.0 })
    }

    /// Beyond the 2-path structure (one hop, as for common neighbours),
    /// the union term reads `deg(i)` of scoring candidates — nodes two
    /// hops from `r` — so a toggled edge incident to such a candidate
    /// reaches targets two hops away.
    fn invalidation_radius(&self) -> Option<usize> {
        Some(2)
    }
}

/// Preferential attachment score: `deg(r) · deg(i)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreferentialAttachment;

impl UtilityFunction for PreferentialAttachment {
    fn name(&self) -> String {
        "preferential-attachment".to_owned()
    }

    fn utilities(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        candidates: &CandidateSet,
    ) -> UtilityVector {
        let d_r = graph.degree(target) as f64;
        // d_r = 0 zeroes every product; keep such entries out of the sparse
        // part so the vector still covers all candidates.
        let sparse: Vec<(NodeId, f64)> = candidates
            .iter()
            .map(|v| (v, d_r * graph.degree(v) as f64))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        let num_zero = candidates.len() - sparse.len();
        UtilityVector::from_sparse(sparse, num_zero)
    }

    /// A flipped edge changes two degrees by 1, so two candidates' scores
    /// move by `d_r ≤ d_max` each.
    fn sensitivity(&self, graph: &dyn GraphView) -> Option<Sensitivity> {
        let d = graph.max_degree() as f64;
        Some(Sensitivity { l1: 2.0 * d, linf: d })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_graph::{Direction, Graph, GraphBuilder};

    fn graph() -> Graph {
        // 0-1, 0-2, 1-3, 2-3, 1-4: candidates of 0 are {3, 4}.
        GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)])
            .build()
            .unwrap()
    }

    #[test]
    fn adamic_adar_discounts_popular_middlemen() {
        let g = graph();
        let u = AdamicAdar.utilities_for(&g, 0);
        // 3 reached via 1 (deg 3) and 2 (deg 2): 1/ln3 + 1/ln2.
        let expected3 = 1.0 / 3f64.ln() + 1.0 / 2f64.ln();
        assert!((u.get(3) - expected3).abs() < 1e-12);
        // 4 reached via 1 only: 1/ln3.
        assert!((u.get(4) - 1.0 / 3f64.ln()).abs() < 1e-12);
        assert!(u.get(3) > u.get(4));
    }

    #[test]
    fn adamic_adar_skips_degree_one_middlemen() {
        // 0-1 with 1 having no other edges: no 2-paths at all.
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1)])
            .with_num_nodes(3)
            .build()
            .unwrap();
        let u = AdamicAdar.utilities_for(&g, 0);
        assert!(u.is_all_zero());
    }

    #[test]
    fn jaccard_normalises_by_union() {
        let g = graph();
        let u = Jaccard.utilities_for(&g, 0);
        // C(3, 0) = 2; deg 0 = 2, deg 3 = 2 → union = 2 → score 1.0.
        assert!((u.get(3) - 1.0).abs() < 1e-12);
        // C(4, 0) = 1; deg 4 = 1 → union = 2 → 0.5.
        assert!((u.get(4) - 0.5).abs() < 1e-12);
        // Jaccard is bounded by 1.
        for &(_, s) in u.nonzero() {
            assert!(s <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn preferential_attachment_scores_every_connected_candidate() {
        let g = graph();
        let u = PreferentialAttachment.utilities_for(&g, 0);
        assert_eq!(u.get(3), 2.0 * 2.0);
        assert_eq!(u.get(4), 2.0 * 1.0);
        assert_eq!(u.num_zero(), 0);
    }

    #[test]
    fn all_extras_report_sensitivity() {
        let g = graph();
        assert!(AdamicAdar.sensitivity(&g).is_some());
        assert!(Jaccard.sensitivity(&g).is_some());
        assert!(PreferentialAttachment.sensitivity(&g).is_some());
    }

    #[test]
    fn names_are_distinct() {
        let names = [AdamicAdar.name(), Jaccard.name(), PreferentialAttachment.name()];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
