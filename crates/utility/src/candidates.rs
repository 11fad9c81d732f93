//! Candidate sets: which nodes may be recommended to a target.

use psr_graph::{GraphView, NodeId};

/// The candidate policy of §7.1: every node except the target itself and
/// the nodes the target is already connected to (by out-edges, for
/// directed graphs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    target: NodeId,
    /// Sorted list of *excluded* nodes (target + its neighbours). Stored as
    /// the complement because candidate sets are nearly the whole graph.
    excluded: Vec<NodeId>,
    num_nodes: usize,
}

impl CandidateSet {
    /// Builds the candidate set for `target` in `graph` (any
    /// [`GraphView`]: CSR snapshot, mutable graph or delta overlay).
    pub fn for_target<V: GraphView + ?Sized>(graph: &V, target: NodeId) -> Self {
        let mut excluded: Vec<NodeId> = graph.neighbors(target).to_vec();
        match excluded.binary_search(&target) {
            Ok(_) => {} // cannot happen in simple graphs, but harmless
            Err(pos) => excluded.insert(pos, target),
        }
        CandidateSet { target, excluded, num_nodes: graph.num_nodes() }
    }

    /// The target node.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Whether `node` may be recommended.
    pub fn contains(&self, node: NodeId) -> bool {
        (node as usize) < self.num_nodes && self.excluded.binary_search(&node).is_err()
    }

    /// Size of the id range `0..num_nodes` the candidates are drawn from.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.num_nodes - self.excluded.len()
    }

    /// Whether no candidates exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates candidates in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes as NodeId).filter(move |&v| self.contains(v))
    }

    /// Filters a sparse `(node, value)` list (sorted by node) down to
    /// candidates, preserving order. Shared by all utility functions.
    pub fn filter_sparse(&self, entries: &[(NodeId, f64)]) -> Vec<(NodeId, f64)> {
        entries.iter().copied().filter(|&(v, _)| self.contains(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_graph::{Graph, GraphBuilder};

    fn graph() -> Graph {
        // 0-1, 0-2, 3, 4 isolated-ish
        GraphBuilder::new(psr_graph::Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (3, 4)])
            .build()
            .unwrap()
    }

    #[test]
    fn excludes_target_and_neighbors() {
        let c = CandidateSet::for_target(&graph(), 0);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(0));
        assert!(!c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.contains(4));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn out_of_range_is_not_a_candidate() {
        let c = CandidateSet::for_target(&graph(), 0);
        assert!(!c.contains(99));
    }

    #[test]
    fn filter_sparse_keeps_only_candidates() {
        let c = CandidateSet::for_target(&graph(), 0);
        let filtered = c.filter_sparse(&[(0, 1.0), (1, 2.0), (3, 4.0), (4, 5.0)]);
        assert_eq!(filtered, vec![(3, 4.0), (4, 5.0)]);
    }

    #[test]
    fn directed_candidates_use_out_neighbors() {
        let g = psr_graph::GraphBuilder::new(psr_graph::Direction::Directed)
            .add_edges([(0, 1), (2, 0)])
            .build()
            .unwrap();
        let c = CandidateSet::for_target(&g, 0);
        // 1 is an out-neighbour (excluded); 2 only points at 0 (candidate).
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn isolated_target_has_everyone_else() {
        let g = GraphBuilder::new(psr_graph::Direction::Undirected)
            .add_edges([(0, 1)])
            .with_num_nodes(4)
            .build()
            .unwrap();
        let c = CandidateSet::for_target(&g, 3);
        assert_eq!(c.len(), 3);
    }
}
