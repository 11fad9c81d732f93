//! The common-neighbours utility — the paper's running example (§4.1).

use std::sync::{Mutex, PoisonError};

use psr_graph::algo::CommonNeighborCounter;
use psr_graph::{GraphView, NodeId};

use crate::candidates::CandidateSet;
use crate::sensitivity::Sensitivity;
use crate::traits::UtilityFunction;
use crate::vector::UtilityVector;

/// Idle 2-step-walk workspaces, shared by every thread that scores
/// targets. A walk takes one (or makes one when all are busy) and puts it
/// back, so scoring a target costs its walk rather than a length-n
/// allocation, and the process holds one length-n array per walk that ever
/// ran concurrently. A pool rather than a thread-local: serving threads
/// are short-lived (the daemon spawns its job workers per run, a batch
/// map spawns per batch), and each new thread would allocate and zero its
/// own array again. The pool is never released: it keeps its counters,
/// each sized to the largest graph it has walked, for the life of the
/// process.
static COUNTERS: Mutex<Vec<CommonNeighborCounter>> = Mutex::new(Vec::new());

/// Runs `f` on a pooled [`CommonNeighborCounter`]. A workspace whose walk
/// panicked is dropped rather than returned, since it may hold counts.
fn with_counter<T>(f: impl FnOnce(&mut CommonNeighborCounter) -> T) -> T {
    let idle = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner).pop();
    let mut counter = idle.unwrap_or_else(|| CommonNeighborCounter::new(0));
    let out = f(&mut counter);
    COUNTERS.lock().unwrap_or_else(PoisonError::into_inner).push(counter);
    out
}

/// `u^{G,r}_i = C(i, r)`, the number of common neighbours between candidate
/// `i` and the target `r` (2-step out-walks on directed graphs, §7.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommonNeighbors;

impl UtilityFunction for CommonNeighbors {
    fn name(&self) -> String {
        "common-neighbors".to_owned()
    }

    fn utilities(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        candidates: &CandidateSet,
    ) -> UtilityVector {
        let raw = with_counter(|counter| counter.counts(graph, target));
        let sparse: Vec<(NodeId, f64)> = raw
            .into_iter()
            .filter(|&(v, _)| candidates.contains(v))
            .map(|(v, c)| (v, c as f64))
            .collect();
        let num_zero = candidates.len() - sparse.len();
        UtilityVector::from_sparse(sparse, num_zero)
    }

    /// Toggling edge `(x, y)` with `x, y ≠ r` changes `C(x, r)` by
    /// `𝟙[y ∈ N(r)]` and `C(y, r)` by `𝟙[x ∈ N(r)]` (directed: the change
    /// lands on the walk endpoint only); no other candidate's count moves.
    /// Hence `Δ₁ ≤ 2`, `Δ∞ ≤ 1` — independent of the graph.
    fn sensitivity(&self, _graph: &dyn GraphView) -> Option<Sensitivity> {
        Some(Sensitivity { l1: 2.0, linf: 1.0 })
    }

    /// `C(·, r)` depends only on edges within two hops of `r`: toggling
    /// `(x, y)` changes some `C(i, r)` (or `r`'s candidate set) only when
    /// `x` or `y` lies in `N(r) ∪ {r}`, i.e. when `r` is within one hop
    /// of an endpoint.
    fn invalidation_radius(&self) -> Option<usize> {
        Some(1)
    }

    /// §7.1: `t = u_max + 1 + 𝟙[u_max = d_r]` — add edges from a fresh
    /// candidate to `u_max + 1` of `r`'s neighbours to beat the incumbent;
    /// one extra alteration is needed when the incumbent already matches
    /// all `d_r` of them.
    fn edit_distance_t(
        &self,
        graph: &dyn GraphView,
        target: NodeId,
        u: &UtilityVector,
    ) -> Option<u64> {
        let u_max = u.u_max();
        let d_r = graph.degree(target) as f64;
        Some(u_max as u64 + 1 + u64::from(u_max == d_r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_graph::{Direction, Graph, GraphBuilder};

    fn diamond() -> Graph {
        // 0-1, 0-2, 1-3, 2-3: candidates of 0 are {3}; C(3,0) = 2.
        GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
            .unwrap()
    }

    #[test]
    fn utilities_on_diamond() {
        let g = diamond();
        let u = CommonNeighbors.utilities_for(&g, 0);
        assert_eq!(u.nonzero(), &[(3, 2.0)]);
        assert_eq!(u.num_zero(), 0);
        assert_eq!(u.u_max(), 2.0);
    }

    #[test]
    fn neighbors_and_target_excluded() {
        // Triangle plus pendant: 2-step walks reach neighbours, which must
        // be filtered out by the candidate policy.
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
            .build()
            .unwrap();
        let u = CommonNeighbors.utilities_for(&g, 0);
        assert_eq!(u.nonzero(), &[(3, 1.0)]); // via 2
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn directed_follows_out_edges() {
        let g = GraphBuilder::new(Direction::Directed)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
            .build()
            .unwrap();
        let u = CommonNeighbors.utilities_for(&g, 0);
        assert_eq!(u.get(3), 2.0);
    }

    #[test]
    fn isolated_target_all_zero() {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(1, 2)])
            .with_num_nodes(4)
            .build()
            .unwrap();
        let u = CommonNeighbors.utilities_for(&g, 0);
        assert!(u.is_all_zero());
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn edit_distance_matches_paper_formula() {
        let g = diamond();
        let u = CommonNeighbors.utilities_for(&g, 0);
        // u_max = 2 = d_r, so t = 2 + 1 + 1 = 4.
        assert_eq!(CommonNeighbors.edit_distance_t(&g, 0, &u), Some(4));

        // Star target: d_r = 3, u_max = 1 (< d_r) => t = 1 + 1 = 2.
        let star = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (0, 3), (1, 4)])
            .build()
            .unwrap();
        let u2 = CommonNeighbors.utilities_for(&star, 0);
        assert_eq!(u2.u_max(), 1.0);
        assert_eq!(CommonNeighbors.edit_distance_t(&star, 0, &u2), Some(2));
    }

    #[test]
    fn sensitivity_is_constant() {
        let s = CommonNeighbors.sensitivity(&diamond()).unwrap();
        assert_eq!(s.l1, 2.0);
        assert_eq!(s.linf, 1.0);
    }
}
