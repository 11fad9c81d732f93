//! Immutable compressed-sparse-row graph.

use serde::{Deserialize, Serialize};

use crate::builder::Direction;
use crate::error::GraphError;
use crate::node::{ix, NodeId};
use crate::view::GraphView;

/// An immutable graph in compressed-sparse-row form.
///
/// For undirected graphs every edge is stored in both directions, so
/// [`Graph::neighbors`] is symmetric; [`Graph::num_edges`] still reports the
/// logical (undirected) edge count. Neighbour lists are sorted, which makes
/// [`Graph::has_edge`] a binary search and lets set-intersection style
/// algorithms run without hashing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Graph {
    direction: Direction,
    /// `offsets[v]..offsets[v+1]` indexes `targets` with v's out-neighbours.
    offsets: Vec<u64>,
    /// Concatenated sorted neighbour lists.
    targets: Vec<NodeId>,
    /// Logical edge count (each undirected edge counted once).
    num_edges: usize,
}

impl Graph {
    /// Builds a graph directly from CSR parts. Used by [`crate::GraphBuilder`]
    /// and [`crate::MutableGraph`]; not public because the invariants
    /// (sorted, deduplicated, symmetric-if-undirected) are not re-checked.
    pub(crate) fn from_parts(
        direction: Direction,
        offsets: Vec<u64>,
        targets: Vec<NodeId>,
        num_edges: usize,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        Graph { direction, offsets, targets, num_edges }
    }

    /// Builds a graph from CSR parts supplied by an *untrusted* source
    /// (serde trees, compressed-format materialisation),
    /// re-checking every structural invariant in release builds:
    ///
    /// - non-empty offset table starting at 0, monotone non-decreasing,
    ///   last entry equal to `targets.len()`;
    /// - node count addressable by [`NodeId`];
    /// - every neighbour list strictly ascending (sorted + deduplicated),
    ///   in range, and free of self-loops;
    /// - `num_edges` consistent with the arc count for the direction
    ///   (`arcs == num_edges` directed, `arcs == 2 * num_edges` undirected);
    /// - exact symmetry for undirected graphs (every arc has its reverse).
    ///
    /// All deserialization entry points route through this; internal
    /// construction (builder, mutation, compaction) keeps using the
    /// unchecked `Graph::from_parts`.
    pub fn try_from_parts(
        direction: Direction,
        offsets: Vec<u64>,
        targets: Vec<NodeId>,
        num_edges: usize,
    ) -> Result<Self, GraphError> {
        let first = *offsets
            .first()
            .ok_or_else(|| GraphError::Invariant("offset table is empty".into()))?;
        if first != 0 {
            return Err(GraphError::Invariant(format!("offsets[0] = {first}, expected 0")));
        }
        let n = offsets.len() - 1;
        if u32::try_from(n).is_err() {
            return Err(GraphError::Overflow { what: "node count", value: n as u64 });
        }
        for (i, pair) in offsets.windows(2).enumerate() {
            if pair[1] < pair[0] {
                return Err(GraphError::Invariant(format!(
                    "offsets not monotone at node {i}: {} > {}",
                    pair[0], pair[1]
                )));
            }
        }
        let last = *offsets.last().unwrap();
        if last != targets.len() as u64 {
            return Err(GraphError::Invariant(format!(
                "last offset {last} does not match target count {}",
                targets.len()
            )));
        }
        let expected_arcs = match direction {
            Direction::Directed => Some(num_edges),
            Direction::Undirected => num_edges.checked_mul(2),
        };
        if expected_arcs != Some(targets.len()) {
            return Err(GraphError::Invariant(format!(
                "{} arcs inconsistent with num_edges = {num_edges} ({direction:?})",
                targets.len()
            )));
        }
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            let list = &targets[lo..hi];
            let mut prev: Option<NodeId> = None;
            for &t in list {
                if ix(t) >= n {
                    return Err(GraphError::NodeOutOfRange { node: u64::from(t), num_nodes: n });
                }
                if ix(t) == v {
                    return Err(GraphError::SelfLoop { node: v as u64 });
                }
                if let Some(p) = prev {
                    if t <= p {
                        return Err(GraphError::Invariant(format!(
                            "neighbour list of node {v} not strictly ascending ({p} then {t})"
                        )));
                    }
                }
                prev = Some(t);
            }
        }
        let graph = Graph { direction, offsets, targets, num_edges };
        if direction == Direction::Undirected {
            for (u, v) in graph.arcs() {
                if !graph.has_edge(v, u) {
                    return Err(GraphError::Invariant(format!(
                        "undirected graph missing reverse arc ({v}, {u})"
                    )));
                }
            }
        }
        Ok(graph)
    }

    /// Materialises any [`GraphView`] into an in-RAM CSR `Graph`, preserving
    /// direction. Invariants hold by the `GraphView` contract, so this uses
    /// the unchecked constructor; decode paths validate before exposing a
    /// view.
    pub fn from_view<V: GraphView + ?Sized>(view: &V) -> Graph {
        let n = view.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut targets = Vec::new();
        for v in 0..n {
            targets.extend_from_slice(view.neighbors(v as NodeId));
            offsets.push(targets.len() as u64);
        }
        Graph::from_parts(view.direction(), offsets, targets, view.num_edges())
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of logical edges (each undirected edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of stored directed arcs. For a directed graph this equals
    /// [`Graph::num_edges`]. For an undirected graph every edge is
    /// materialised in both orientations, so this is exactly
    /// `2 * num_edges()` — the graphs are simple (no self-loops, which would
    /// otherwise contribute only one arc each and break the factor of two).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Approximate heap footprint of the CSR arrays in bytes (offsets +
    /// targets). `tests/graph_backend.rs` compares it against the
    /// compressed snapshot size.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.direction == Direction::Directed
    }

    /// Direction marker.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Sorted out-neighbour slice of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[ix(v)] as usize;
        let hi = self.offsets[ix(v) + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[ix(v) + 1] - self.offsets[ix(v)]) as usize
    }

    /// Whether the arc `(u, v)` is present (for undirected graphs this is
    /// symmetric).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over stored arcs `(u, v)`. For undirected graphs each edge
    /// appears twice (once per direction); use [`Graph::edges`] for the
    /// deduplicated view.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterator over logical edges: every arc for directed graphs, and each
    /// undirected edge once as `(min, max)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let directed = self.is_directed();
        self.arcs().filter(move |&(u, v)| directed || u < v)
    }

    /// Maximum out-degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.degree(v as NodeId)).max().unwrap_or(0)
    }

    /// The transposed graph (in-edges become out-edges). For undirected
    /// graphs this is a clone.
    pub fn reversed(&self) -> Graph {
        if !self.is_directed() {
            return self.clone();
        }
        let n = self.num_nodes();
        let mut counts = vec![0u64; n + 1];
        for &t in &self.targets {
            counts[ix(t) + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as NodeId; self.targets.len()];
        for (u, v) in self.arcs() {
            let slot = cursor[ix(v)];
            targets[slot as usize] = u;
            cursor[ix(v)] += 1;
        }
        // Each in-neighbour list was filled in increasing source order
        // (arcs() walks sources ascending), so lists are already sorted.
        Graph::from_parts(Direction::Directed, offsets, targets, self.num_edges)
    }

    /// Out-degree sequence, indexable by node.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_nodes()).map(|v| self.degree(v as NodeId)).collect()
    }

    /// In-degree sequence (equals [`Graph::degrees`] for undirected graphs).
    pub fn in_degrees(&self) -> Vec<usize> {
        if !self.is_directed() {
            return self.degrees();
        }
        let mut d = vec![0usize; self.num_nodes()];
        for &t in &self.targets {
            d[ix(t)] += 1;
        }
        d
    }
}

// Manual impl (the derive would trust the fields verbatim): serde trees are
// an untrusted deserialization entry point, so rebuilt graphs must pass
// `try_from_parts` in release builds too.
impl Deserialize for Graph {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let direction = Direction::deserialize(value.get_field("direction")?)?;
        let offsets = <Vec<u64>>::deserialize(value.get_field("offsets")?)?;
        let targets = <Vec<NodeId>>::deserialize(value.get_field("targets")?)?;
        let num_edges = usize::deserialize(value.get_field("num_edges")?)?;
        Graph::try_from_parts(direction, offsets, targets, num_edges)
            .map_err(|e| serde::Error::new(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Direction, GraphBuilder};

    fn path_graph() -> crate::Graph {
        // 0 - 1 - 2 - 3
        GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = path_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert!(!g.is_directed());
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn has_edge_is_symmetric_for_undirected() {
        let g = path_graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn edges_deduplicates_undirected() {
        let g = path_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.arcs().count(), 6);
    }

    #[test]
    fn directed_graph_keeps_arc_orientation() {
        let g = GraphBuilder::new(Direction::Directed)
            .add_edges([(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 3);
    }

    #[test]
    fn reversed_transposes_arcs() {
        let g = GraphBuilder::new(Direction::Directed)
            .add_edges([(0, 1), (0, 2), (1, 2)])
            .build()
            .unwrap();
        let r = g.reversed();
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(2, 0));
        assert!(r.has_edge(2, 1));
        assert!(!r.has_edge(0, 1));
        assert_eq!(r.num_edges(), 3);
        // Double reversal is the identity.
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn reversed_of_undirected_is_identity() {
        let g = path_graph();
        assert_eq!(g.reversed(), g);
    }

    #[test]
    fn in_degrees_directed() {
        let g = GraphBuilder::new(Direction::Directed)
            .add_edges([(0, 2), (1, 2), (2, 0)])
            .build()
            .unwrap();
        assert_eq!(g.in_degrees(), vec![1, 0, 2]);
        assert_eq!(g.degrees(), vec![1, 1, 1]);
    }

    #[test]
    fn serde_round_trip() {
        let g = path_graph();
        let json = serde_json::to_string(&g).unwrap();
        let back: crate::Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn serde_rejects_invariant_violations() {
        use serde::{Deserialize as _, Serialize as _, Value};
        fn with_field(g: &crate::Graph, name: &str, new: Value) -> Value {
            let mut tree = g.serialize();
            let Value::Object(fields) = &mut tree else { panic!("graph serializes to object") };
            let slot = fields.iter_mut().find(|(k, _)| k == name).expect("field present");
            slot.1 = new;
            tree
        }
        let g = path_graph();
        // Non-monotone offsets: the path graph's table is [0,1,3,5,6].
        let bad = with_field(
            &g,
            "offsets",
            Value::Array([0u64, 3, 1, 5, 6].iter().map(|&x| Value::UInt(x)).collect()),
        );
        let err = crate::Graph::deserialize(&bad).unwrap_err();
        assert!(err.to_string().contains("monotone"), "got: {err}");
        // Lying edge count.
        let bad = with_field(&g, "num_edges", Value::UInt(7));
        assert!(crate::Graph::deserialize(&bad).is_err());
    }

    #[test]
    fn try_from_parts_accepts_valid_graphs() {
        let g = path_graph();
        let rebuilt = crate::Graph::try_from_parts(
            Direction::Undirected,
            vec![0, 1, 3, 5, 6],
            vec![1, 0, 2, 1, 3, 2],
            3,
        )
        .unwrap();
        assert_eq!(rebuilt, g);
        // The empty graph is valid too.
        let empty = crate::Graph::try_from_parts(Direction::Directed, vec![0], vec![], 0).unwrap();
        assert_eq!(empty.num_nodes(), 0);
    }

    #[test]
    fn try_from_parts_rejects_each_violation() {
        use crate::GraphError;
        type Parts = (Direction, Vec<u64>, Vec<u32>, usize);
        let cases: Vec<(Parts, &str)> = vec![
            ((Direction::Directed, vec![], vec![], 0), "empty offsets"),
            ((Direction::Directed, vec![1, 1], vec![0], 1), "nonzero first offset"),
            ((Direction::Directed, vec![0, 2, 1, 3], vec![1, 2, 0], 3), "non-monotone"),
            ((Direction::Directed, vec![0, 1, 2], vec![1], 1), "last offset short"),
            ((Direction::Directed, vec![0, 1, 2], vec![1, 0], 3), "edge count lie"),
            ((Direction::Undirected, vec![0, 1, 2], vec![1, 0], 2), "undirected count lie"),
            ((Direction::Directed, vec![0, 2, 2], vec![1, 1], 2), "duplicate neighbour"),
            ((Direction::Directed, vec![0, 2, 2], vec![1, 0], 2), "unsorted neighbours"),
            ((Direction::Directed, vec![0, 1, 1], vec![5], 1), "target out of range"),
            ((Direction::Directed, vec![0, 1, 1], vec![0], 1), "self-loop"),
            ((Direction::Undirected, vec![0, 1, 1, 2], vec![1, 1], 1), "asymmetric arcs"),
        ];
        for ((direction, offsets, targets, num_edges), label) in cases {
            let got = crate::Graph::try_from_parts(direction, offsets, targets, num_edges);
            assert!(got.is_err(), "{label} should be rejected");
            let err = got.unwrap_err();
            assert!(
                matches!(
                    err,
                    GraphError::Invariant(_)
                        | GraphError::NodeOutOfRange { .. }
                        | GraphError::SelfLoop { .. }
                ),
                "{label} returned unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn from_view_round_trips_csr() {
        let g = path_graph();
        assert_eq!(crate::Graph::from_view(&g), g);
    }
}
