//! The weighted-paths utility (§5.2, §7.1).
//!
//! `score(r, y) = Σ_{l=2}^{∞} γ^{l-2} · |paths_l(r, y)|`, truncated at
//! `max_len` (the paper's experiments use 3; footnote 10). For candidates
//! (never adjacent to the target in a simple graph) walks of length ≤ 3
//! coincide with paths, so sparse walk propagation computes the truncated
//! score exactly — see `psr_graph::algo::WalkWorkspace` for the argument
//! and the brute-force cross-check.

use psr_graph::algo::with_walk;
use psr_graph::{GraphView, NodeId};

use crate::candidates::CandidateSet;
use crate::sensitivity::Sensitivity;
use crate::traits::UtilityFunction;
use crate::vector::UtilityVector;

/// Weighted-paths utility with damping `γ` and truncation length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPaths {
    /// Damping factor `γ` (paper sweeps 0.05, 0.005, 0.0005).
    pub gamma: f64,
    /// Maximum path length counted (the paper uses 3).
    pub max_len: usize,
}

impl WeightedPaths {
    /// The paper's experimental configuration: paths up to length 3.
    pub fn paper(gamma: f64) -> Self {
        WeightedPaths { gamma, max_len: 3 }
    }
}

impl Default for WeightedPaths {
    fn default() -> Self {
        WeightedPaths::paper(0.005)
    }
}

impl UtilityFunction for WeightedPaths {
    fn name(&self) -> String {
        format!("weighted-paths(gamma={}, len<={})", self.gamma, self.max_len)
    }

    fn utilities(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        candidates: &CandidateSet,
    ) -> UtilityVector {
        assert!(self.max_len >= 2, "weighted paths start at length 2");
        // Length l ≥ 2 weighs γ^{l-2}, by repeated multiplication; length
        // 1 (the target's own neighbours) weighs nothing.
        let powers = std::iter::successors(Some(1.0), |w| Some(w * self.gamma));
        let weights: Vec<f64> = std::iter::once(0.0).chain(powers).take(self.max_len).collect();
        candidates
            .scores(|emit| with_walk(|walk| walk.weighted(graph, target, |_| 1.0, &weights, emit)))
    }

    /// Toggling `(x, y)` away from the target `r` changes, at truncation 3:
    /// length-2 paths by ≤ 1 at each endpoint (`Δ₁` contribution ≤ 2) and
    /// length-3 paths `r–a–x–y`, `r–a–y–x`, `r–x–y–b`, `r–y–x–b` by at most
    /// `d_max` each (`Δ₁` contribution ≤ 4γ·d_max, `Δ∞` ≤ 2γ·d_max on the
    /// flipped edge's endpoints). Longer truncations scale by
    /// `(γ·d_max)^{l-3}` per extra level, summed geometrically.
    fn sensitivity(&self, graph: &dyn GraphView) -> Option<Sensitivity> {
        let d = graph.max_degree() as f64;
        let gd = self.gamma * d;
        let mut l1: f64 = 2.0;
        let mut linf: f64 = 1.0;
        let mut level = 1.0;
        for _ in 3..=self.max_len {
            level *= gd;
            l1 += 4.0 * level;
            linf += 2.0 * level;
        }
        Some(Sensitivity { l1, linf })
    }

    /// Paths of length ≤ `max_len` from `r` only traverse edges whose
    /// endpoints lie within `max_len − 1` hops of `r`, so a toggled edge
    /// is invisible to any target further than that from both endpoints.
    fn invalidation_radius(&self) -> Option<usize> {
        Some(self.max_len.saturating_sub(1))
    }

    /// §7.1: `t = ⌊u_max⌋ + 2` for weighted paths.
    fn edit_distance_t(
        &self,
        _graph: &dyn GraphView,
        _target: NodeId,
        u: &UtilityVector,
    ) -> Option<u64> {
        Some(u.u_max().floor() as u64 + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_graph::{Direction, Graph, GraphBuilder};

    fn diamond_with_tail() -> Graph {
        // 0-1, 0-2, 1-3, 2-3, 3-4.
        GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
            .build()
            .unwrap()
    }

    #[test]
    fn gamma_zero_truncation_matches_common_neighbors() {
        let g = diamond_with_tail();
        let wp = WeightedPaths::paper(0.0);
        let cn = crate::CommonNeighbors;
        for target in g.nodes() {
            let a = wp.utilities_for(&g, target);
            let b = cn.utilities_for(&g, target);
            // γ = 0 keeps only length-2 paths = common neighbours; supports
            // can differ (wp keeps zero-weight 3-hop nodes out since 0-utility
            // entries are dropped by construction).
            for &(v, u) in b.nonzero() {
                assert_eq!(a.get(v), u, "target {target} candidate {v}");
            }
            assert_eq!(a.u_max(), b.u_max());
        }
    }

    #[test]
    fn scores_on_diamond_with_tail() {
        let g = diamond_with_tail();
        let wp = WeightedPaths::paper(0.5);
        let u = wp.utilities_for(&g, 0);
        // Candidate 3: two length-2 paths (0-1-3, 0-2-3), no length-3 paths
        // (0-1-3-? / 0-2-3-? end at 4 or revisit). Score = 2.
        assert_eq!(u.get(3), 2.0);
        // Candidate 4: length-3 paths 0-1-3-4 and 0-2-3-4. Score = 0.5 * 2.
        assert_eq!(u.get(4), 1.0);
    }

    #[test]
    fn longer_truncation_only_adds_mass() {
        let g = diamond_with_tail();
        let short = WeightedPaths { gamma: 0.3, max_len: 2 };
        let long = WeightedPaths { gamma: 0.3, max_len: 3 };
        for target in g.nodes() {
            let a = short.utilities_for(&g, target);
            let b = long.utilities_for(&g, target);
            for &(v, u) in a.nonzero() {
                assert!(b.get(v) >= u - 1e-12, "target {target} candidate {v}");
            }
        }
    }

    #[test]
    fn directed_graph_follows_out_edges() {
        let g = GraphBuilder::new(Direction::Directed)
            .add_edges([(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        let wp = WeightedPaths::paper(0.1);
        let u = wp.utilities_for(&g, 0);
        assert_eq!(u.get(2), 1.0); // path 0→1→2
        assert!((u.get(3) - 0.1).abs() < 1e-12); // path 0→1→2→3, weight γ
    }

    #[test]
    fn edit_distance_matches_paper_formula() {
        let g = diamond_with_tail();
        let wp = WeightedPaths::paper(0.5);
        let u = wp.utilities_for(&g, 0);
        assert_eq!(u.u_max(), 2.0);
        assert_eq!(wp.edit_distance_t(&g, 0, &u), Some(4)); // floor(2)+2
    }

    #[test]
    fn sensitivity_grows_with_gamma_and_dmax() {
        let g = diamond_with_tail(); // d_max = 3 (node 3)
        let small = WeightedPaths::paper(0.001).sensitivity(&g).unwrap();
        let large = WeightedPaths::paper(0.1).sensitivity(&g).unwrap();
        assert!(large.l1 > small.l1);
        assert!((small.l1 - (2.0 + 4.0 * 0.001 * 3.0)).abs() < 1e-12);
        assert!((small.linf - (1.0 + 2.0 * 0.001 * 3.0)).abs() < 1e-12);
    }

    #[test]
    fn truncation_2_sensitivity_is_common_neighbors() {
        let g = diamond_with_tail();
        let wp = WeightedPaths { gamma: 0.5, max_len: 2 };
        let s = wp.sensitivity(&g).unwrap();
        assert_eq!(s.l1, 2.0);
        assert_eq!(s.linf, 1.0);
    }
}
