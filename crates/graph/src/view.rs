//! The read-only graph abstraction shared by CSR snapshots and overlays.
//!
//! Every link-analysis kernel in this workspace reads a graph through four
//! primitives — `neighbors`, `degree`, `has_edge`, `nodes` — and never
//! writes. [`GraphView`] captures exactly that contract, so the kernels
//! (and `psr-utility`'s `UtilityFunction` implementations) run unchanged
//! over an immutable [`Graph`], a [`crate::MutableGraph`] mid-edit, or a
//! [`crate::DeltaGraph`] overlay carrying uncompacted mutations.
//!
//! The trait is object-safe: serving code holds `&dyn GraphView` so one
//! code path covers both the clean-CSR fast path and the overlay path.
//! `neighbors` returns a borrowed sorted slice — implementors must keep a
//! materialised sorted adjacency per node, which is what makes the
//! abstraction free for the CSR case (no iterator indirection on the hot
//! kernels).

use std::sync::Arc;

use crate::adjacency::MutableGraph;
use crate::builder::Direction;
use crate::compressed::{CacheStats, CompressedCsr};
use crate::csr::Graph;
use crate::node::NodeId;
use crate::shard::ShardedGraph;

/// Read-only access to a simple graph with sorted adjacency.
///
/// Invariants implementors must uphold (the differential conformance
/// suites check them for every implementation in this crate):
///
/// * `neighbors(v)` is sorted ascending and duplicate-free,
/// * undirected views are symmetric: `u ∈ neighbors(v) ⇔ v ∈ neighbors(u)`,
/// * `num_edges` counts each undirected edge once,
/// * node ids are dense: `0..num_nodes`.
pub trait GraphView: Send + Sync {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of logical edges (each undirected edge counted once).
    fn num_edges(&self) -> usize;

    /// Direction marker.
    fn direction(&self) -> Direction;

    /// Sorted out-neighbour slice of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    fn neighbors(&self, v: NodeId) -> &[NodeId];

    /// Sorted out-neighbour slice of `v`, decoded into `scratch` when the
    /// backing would otherwise have to materialise and keep it. Walks that
    /// read each list once (the second hop of a 2-step walk, a ball
    /// search) use this so they do not grow a decode cache; the default is
    /// [`GraphView::neighbors`], which never touches `scratch`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    fn neighbors_into<'a>(&'a self, v: NodeId, scratch: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        let _ = scratch;
        self.neighbors(v)
    }

    /// Whether the graph is directed.
    fn is_directed(&self) -> bool {
        self.direction() == Direction::Directed
    }

    /// Out-degree of `v`.
    fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Whether the arc `(u, v)` is present (symmetric for undirected
    /// graphs).
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids.
    fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Maximum out-degree over all nodes (0 for the empty graph).
    fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

impl GraphView for Graph {
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }
    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }
    fn direction(&self) -> Direction {
        Graph::direction(self)
    }
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        Graph::neighbors(self, v)
    }
    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }
}

impl GraphView for MutableGraph {
    fn num_nodes(&self) -> usize {
        MutableGraph::num_nodes(self)
    }
    fn num_edges(&self) -> usize {
        MutableGraph::num_edges(self)
    }
    fn direction(&self) -> Direction {
        MutableGraph::direction(self)
    }
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        MutableGraph::neighbors(self, v)
    }
}

macro_rules! forward_graph_view {
    ($($ty:ty),+) => {$(
        impl<V: GraphView + ?Sized> GraphView for $ty {
            fn num_nodes(&self) -> usize {
                (**self).num_nodes()
            }
            fn num_edges(&self) -> usize {
                (**self).num_edges()
            }
            fn direction(&self) -> Direction {
                (**self).direction()
            }
            fn neighbors(&self, v: NodeId) -> &[NodeId] {
                (**self).neighbors(v)
            }
            fn neighbors_into<'a>(
                &'a self,
                v: NodeId,
                scratch: &'a mut Vec<NodeId>,
            ) -> &'a [NodeId] {
                (**self).neighbors_into(v, scratch)
            }
            fn degree(&self, v: NodeId) -> usize {
                (**self).degree(v)
            }
            fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
                (**self).has_edge(u, v)
            }
            fn max_degree(&self) -> usize {
                (**self).max_degree()
            }
        }
    )+};
}

forward_graph_view!(&V, Arc<V>, Box<V>);

/// A cheaply clonable handle over any of the crate's graph backings.
///
/// `DeltaGraph` and the serving layer hold one of these instead of a
/// concrete `Arc<Graph>`, which is how kernels and `RecommendationService`
/// stay oblivious to whether reads come from the in-RAM CSR, the
/// compressed (possibly mmap-backed) snapshot, or the sharded segments.
#[derive(Debug, Clone)]
pub enum GraphBackend {
    /// Plain in-RAM CSR.
    Csr(Arc<Graph>),
    /// Varint/delta compressed snapshot ([`CompressedCsr`]), decoding
    /// neighbour runs on demand.
    Compressed(Arc<CompressedCsr>),
    /// Degree-balanced per-shard CSR segments ([`ShardedGraph`]).
    Sharded(Arc<ShardedGraph>),
}

impl GraphBackend {
    /// Short stable name of the backing, for reports and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            GraphBackend::Csr(_) => "csr",
            GraphBackend::Compressed(_) => "compressed",
            GraphBackend::Sharded(_) => "sharded",
        }
    }

    /// The underlying CSR when this backend is [`GraphBackend::Csr`].
    pub fn as_csr(&self) -> Option<&Arc<Graph>> {
        match self {
            GraphBackend::Csr(g) => Some(g),
            _ => None,
        }
    }

    /// Decode-cache statistics, for backends that decode on demand:
    /// `Some` for [`GraphBackend::Compressed`], `None` for the in-RAM
    /// backings, which have no cache. No downcasting needed.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match self {
            GraphBackend::Compressed(z) => Some(z.cache_stats()),
            GraphBackend::Csr(_) | GraphBackend::Sharded(_) => None,
        }
    }

    /// Materialises the backend into an in-RAM CSR: a cheap `Arc` clone for
    /// the CSR case, a full decode otherwise.
    pub fn to_graph_arc(&self) -> Arc<Graph> {
        match self {
            GraphBackend::Csr(g) => Arc::clone(g),
            GraphBackend::Compressed(z) => Arc::new(z.to_graph()),
            GraphBackend::Sharded(s) => Arc::new(s.to_graph()),
        }
    }
}

impl From<Graph> for GraphBackend {
    fn from(g: Graph) -> Self {
        GraphBackend::Csr(Arc::new(g))
    }
}

impl From<Arc<Graph>> for GraphBackend {
    fn from(g: Arc<Graph>) -> Self {
        GraphBackend::Csr(g)
    }
}

impl From<CompressedCsr> for GraphBackend {
    fn from(z: CompressedCsr) -> Self {
        GraphBackend::Compressed(Arc::new(z))
    }
}

impl From<Arc<CompressedCsr>> for GraphBackend {
    fn from(z: Arc<CompressedCsr>) -> Self {
        GraphBackend::Compressed(z)
    }
}

impl From<ShardedGraph> for GraphBackend {
    fn from(s: ShardedGraph) -> Self {
        GraphBackend::Sharded(Arc::new(s))
    }
}

impl From<Arc<ShardedGraph>> for GraphBackend {
    fn from(s: Arc<ShardedGraph>) -> Self {
        GraphBackend::Sharded(s)
    }
}

impl GraphView for GraphBackend {
    fn num_nodes(&self) -> usize {
        match self {
            GraphBackend::Csr(g) => g.num_nodes(),
            GraphBackend::Compressed(z) => GraphView::num_nodes(&**z),
            GraphBackend::Sharded(s) => GraphView::num_nodes(&**s),
        }
    }

    fn num_edges(&self) -> usize {
        match self {
            GraphBackend::Csr(g) => g.num_edges(),
            GraphBackend::Compressed(z) => GraphView::num_edges(&**z),
            GraphBackend::Sharded(s) => GraphView::num_edges(&**s),
        }
    }

    fn direction(&self) -> Direction {
        match self {
            GraphBackend::Csr(g) => g.direction(),
            GraphBackend::Compressed(z) => GraphView::direction(&**z),
            GraphBackend::Sharded(s) => GraphView::direction(&**s),
        }
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        match self {
            GraphBackend::Csr(g) => g.neighbors(v),
            GraphBackend::Compressed(z) => GraphView::neighbors(&**z, v),
            GraphBackend::Sharded(s) => GraphView::neighbors(&**s, v),
        }
    }

    fn neighbors_into<'a>(&'a self, v: NodeId, scratch: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        match self {
            GraphBackend::Compressed(z) => z.neighbors_into(v, scratch),
            GraphBackend::Csr(_) | GraphBackend::Sharded(_) => self.neighbors(v),
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        match self {
            GraphBackend::Csr(g) => g.degree(v),
            GraphBackend::Compressed(z) => GraphView::degree(&**z, v),
            GraphBackend::Sharded(s) => GraphView::degree(&**s, v),
        }
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match self {
            GraphBackend::Csr(g) => g.has_edge(u, v),
            GraphBackend::Compressed(z) => GraphView::has_edge(&**z, u, v),
            GraphBackend::Sharded(s) => GraphView::has_edge(&**s, u, v),
        }
    }

    fn max_degree(&self) -> usize {
        match self {
            GraphBackend::Csr(g) => g.max_degree(),
            GraphBackend::Compressed(z) => GraphView::max_degree(&**z),
            GraphBackend::Sharded(s) => GraphView::max_degree(&**s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::undirected_from_edges;

    fn reads<V: GraphView + ?Sized>(view: &V) -> (usize, usize, Vec<NodeId>, bool) {
        (view.num_nodes(), view.num_edges(), view.neighbors(1).to_vec(), view.has_edge(0, 2))
    }

    #[test]
    fn csr_mutable_and_smart_pointers_agree() {
        let g = undirected_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let m = MutableGraph::from(&g);
        let arc = Arc::new(g.clone());
        let boxed: Box<dyn GraphView> = Box::new(g.clone());
        let expected = (4, 4, vec![0, 2], true);
        assert_eq!(reads(&g), expected);
        assert_eq!(reads(&m), expected);
        assert_eq!(reads(&arc), expected);
        assert_eq!(reads(boxed.as_ref()), expected);
        assert_eq!(reads(&&g), expected);
    }

    #[test]
    fn backend_dispatch_agrees_across_backings() {
        let g = undirected_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let expected = (4, 4, vec![0, 2], true);
        let csr = GraphBackend::from(g.clone());
        let compressed =
            GraphBackend::from(CompressedCsr::open_bytes(CompressedCsr::encode(&g, 2)).unwrap());
        let sharded = GraphBackend::from(ShardedGraph::from_view(&g, 2));
        for backend in [&csr, &compressed, &sharded] {
            assert_eq!(reads(backend), expected, "backend {}", backend.kind());
            assert_eq!(backend.max_degree(), 3);
            assert_eq!(backend.degree(2), 3);
            assert_eq!(*backend.to_graph_arc(), g);
        }
        assert_eq!(csr.kind(), "csr");
        assert!(csr.as_csr().is_some());
        assert!(compressed.as_csr().is_none());
        assert_eq!(compressed.kind(), "compressed");
        assert_eq!(sharded.kind(), "sharded");
    }

    #[test]
    fn defaults_derive_from_neighbors() {
        let g = undirected_from_edges([(0, 1), (1, 2)]).unwrap();
        let view: &dyn GraphView = &g;
        assert_eq!(view.degree(1), 2);
        assert_eq!(view.max_degree(), 2);
        assert!(!view.is_directed());
        assert_eq!(view.nodes().collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
