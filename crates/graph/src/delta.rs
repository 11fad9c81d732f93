//! A mutable overlay over an immutable CSR base graph.
//!
//! Real social graphs mutate continuously, but the paper's kernels (and
//! the serving layer built on them) want the read performance of an
//! immutable CSR snapshot. [`DeltaGraph`] is the bridge: it layers edge
//! insertions and deletions over an [`Arc`]-shared [`Graph`] base without
//! touching it. Only *dirty* nodes — nodes whose neighbourhood differs
//! from the base — carry any per-node state; every clean node reads
//! straight from the base CSR slice, so a `DeltaGraph` with no pending
//! mutations is (one map probe aside) as fast as the snapshot itself.
//!
//! Per dirty node the overlay keeps three sorted lists:
//!
//! * `merged` — the node's **current** full adjacency, materialised so
//!   [`GraphView::neighbors`] can hand out a borrowed slice,
//! * `added` — arcs present now but absent from the base,
//! * `removed` — **tombstones**: base arcs deleted by the overlay.
//!
//! Inserting a tombstoned edge cancels the tombstone (and vice versa), so
//! a node whose edits net out to the base automatically leaves the dirty
//! set. Each node's lists sit behind an [`Arc`] and are copied on write,
//! so cloning a `DeltaGraph` (how the serving layer stages an epoch)
//! copies one pointer per dirty node, not the adjacency lists.
//! [`DeltaGraph::compact`] folds the overlay into a fresh CSR in one
//! pass, which is how the serving layer periodically re-bases.
//!
//! The edge-neighbourhood semantics of the DP analysis carry over
//! directly: one applied [`EdgeMutation`] moves the current view to an
//! adjacent graph in the sense of Definition 1 (graphs differing in one
//! edge), which is exactly the granularity the per-target ε accounting in
//! `psr-core::serving` reasons about across epochs.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::builder::Direction;
use crate::csr::Graph;
use crate::error::GraphError;
use crate::mutation::{EdgeMutation, MutationOp};
use crate::node::{ix, NodeId};
use crate::view::{GraphBackend, GraphView};
use crate::Result;

/// Overlay state of one dirty node. All three lists are sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeOverlay {
    /// The node's current full adjacency (base minus tombstones plus
    /// additions), materialised for slice reads.
    merged: Vec<NodeId>,
    /// Arcs added relative to the base.
    added: Vec<NodeId>,
    /// Tombstoned base arcs.
    removed: Vec<NodeId>,
}

impl NodeOverlay {
    fn seeded(base_neighbors: &[NodeId]) -> Self {
        NodeOverlay { merged: base_neighbors.to_vec(), added: Vec::new(), removed: Vec::new() }
    }

    /// Whether the overlay nets out to the base adjacency.
    fn is_clean(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A dynamic graph: an immutable CSR base plus an edit overlay.
///
/// Reads go through [`GraphView`], so everything that consumes a
/// [`Graph`] through the trait (utility functions, link-analysis kernels,
/// the serving layer) works on a `DeltaGraph` unchanged — the
/// differential conformance suite asserts the two are bit-identical at
/// equal edge sets.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: GraphBackend,
    /// Dirty-node overlay, keyed by node id (ordered for deterministic
    /// iteration of the dirty set). Entries are shared between clones
    /// until one of them writes.
    overlay: BTreeMap<NodeId, Arc<NodeOverlay>>,
    /// Nodes appended past the base's id range by [`DeltaGraph::add_nodes`].
    /// They start isolated; edges touching them live purely in the overlay.
    extra_nodes: usize,
    /// The base's maximum out-degree, taken once at construction.
    base_max_degree: usize,
    num_edges: usize,
    insertions: usize,
    deletions: usize,
}

impl DeltaGraph {
    /// Wraps a base snapshot in an empty overlay. Accepts an owned
    /// [`Graph`] or an [`Arc<Graph>`] already shared with other consumers.
    pub fn new(base: impl Into<Arc<Graph>>) -> Self {
        DeltaGraph::with_backend(GraphBackend::Csr(base.into()))
    }

    /// Wraps any [`GraphBackend`] — in-RAM CSR, compressed snapshot, or
    /// sharded segments — in an empty overlay. The overlay layer itself is
    /// backend-oblivious: clean nodes read straight through, dirty nodes
    /// seed their merged list from whatever backing serves `neighbors`.
    pub fn with_backend(base: GraphBackend) -> Self {
        let num_edges = base.num_edges();
        DeltaGraph {
            base_max_degree: base.max_degree(),
            base,
            overlay: BTreeMap::new(),
            extra_nodes: 0,
            num_edges,
            insertions: 0,
            deletions: 0,
        }
    }

    /// Appends `count` fresh isolated nodes past the current id range and
    /// returns the id of the first one. Grown nodes are first-class
    /// endpoints for [`DeltaGraph::insert_edge`] / [`DeltaGraph::apply`]
    /// and survive [`DeltaGraph::compact`], which folds them into the new
    /// base. The growth itself marks the view dirty (reads no longer
    /// equal the base), even before any edge touches the new ids.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = self.num_nodes() as NodeId;
        self.extra_nodes += count;
        first
    }

    /// Number of nodes appended past the base snapshot.
    pub fn num_extra_nodes(&self) -> usize {
        self.extra_nodes
    }

    /// The shared base backend the overlay layers over.
    pub fn base(&self) -> &GraphBackend {
        &self.base
    }

    /// Whether the overlay carries no pending edits (reads equal the base).
    pub fn is_clean(&self) -> bool {
        self.overlay.is_empty() && self.extra_nodes == 0
    }

    /// Number of dirty nodes (nodes whose adjacency differs from the base).
    pub fn num_dirty(&self) -> usize {
        self.overlay.len()
    }

    /// Whether `v`'s neighbourhood differs from the base.
    pub fn is_dirty(&self, v: NodeId) -> bool {
        self.overlay.contains_key(&v)
    }

    /// The dirty nodes in ascending id order.
    pub fn dirty_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.overlay.keys().copied()
    }

    /// Number of edges inserted by the overlay (net of cancellations).
    pub fn pending_insertions(&self) -> usize {
        self.insertions
    }

    /// Number of base edges tombstoned by the overlay (net of
    /// cancellations).
    pub fn pending_deletions(&self) -> usize {
        self.deletions
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if ix(v) >= self.num_nodes() {
            return Err(GraphError::NodeOutOfRange { node: v as u64, num_nodes: self.num_nodes() });
        }
        Ok(())
    }

    /// Overlay entry for `u`, created from the base adjacency on demand
    /// (empty for nodes grown past the base) and unshared before the
    /// write.
    fn arm(&mut self, u: NodeId) -> &mut NodeOverlay {
        let base = &self.base;
        let entry = self.overlay.entry(u).or_insert_with(|| {
            let mut scratch = Vec::new();
            let seed =
                if ix(u) < base.num_nodes() { base.neighbors_into(u, &mut scratch) } else { &[] };
            Arc::new(NodeOverlay::seeded(seed))
        });
        Arc::make_mut(entry)
    }

    /// Drops `u`'s overlay entry if its edits cancelled out.
    fn disarm_if_clean(&mut self, u: NodeId) {
        if self.overlay.get(&u).is_some_and(|entry| entry.is_clean()) {
            self.overlay.remove(&u);
        }
    }

    /// Adds arc `(u, v)`: cancels a tombstone when one exists, records an
    /// addition otherwise. Returns whether a tombstone was cancelled.
    fn insert_arc(&mut self, u: NodeId, v: NodeId) -> bool {
        let entry = self.arm(u);
        let cancelled = match entry.removed.binary_search(&v) {
            Ok(pos) => {
                entry.removed.remove(pos);
                true
            }
            Err(_) => {
                let pos = entry.added.binary_search(&v).expect_err("arc known absent");
                entry.added.insert(pos, v);
                false
            }
        };
        let pos = entry.merged.binary_search(&v).expect_err("arc known absent");
        entry.merged.insert(pos, v);
        self.disarm_if_clean(u);
        cancelled
    }

    /// Removes arc `(u, v)`: cancels an addition when one exists, records
    /// a tombstone otherwise. Returns whether an addition was cancelled.
    fn remove_arc(&mut self, u: NodeId, v: NodeId) -> bool {
        let entry = self.arm(u);
        let cancelled = match entry.added.binary_search(&v) {
            Ok(pos) => {
                entry.added.remove(pos);
                true
            }
            Err(_) => {
                let pos = entry.removed.binary_search(&v).expect_err("arc known present");
                entry.removed.insert(pos, v);
                false
            }
        };
        let pos = entry.merged.binary_search(&v).expect("arc known present");
        entry.merged.remove(pos);
        self.disarm_if_clean(u);
        cancelled
    }

    /// Inserts edge `(u, v)` (both directions when undirected).
    ///
    /// Fails with [`GraphError::EdgeExists`] when the edge is already
    /// present in the current view, [`GraphError::SelfLoop`] on `u == v`,
    /// and [`GraphError::NodeOutOfRange`] for unknown endpoints; the
    /// overlay is untouched on error.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u as u64 });
        }
        self.check_node(u)?;
        self.check_node(v)?;
        if self.has_edge(u, v) {
            return Err(GraphError::EdgeExists { from: u, to: v });
        }
        let cancelled = self.insert_arc(u, v);
        if !self.is_directed() {
            self.insert_arc(v, u);
        }
        if cancelled {
            self.deletions -= 1;
        } else {
            self.insertions += 1;
        }
        self.num_edges += 1;
        Ok(())
    }

    /// Removes edge `(u, v)` (both directions when undirected).
    ///
    /// Fails with [`GraphError::EdgeNotFound`] when the edge is absent
    /// from the current view and [`GraphError::NodeOutOfRange`] for
    /// unknown endpoints; the overlay is untouched on error.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        if !self.has_edge(u, v) {
            return Err(GraphError::EdgeNotFound { from: u, to: v });
        }
        let cancelled = self.remove_arc(u, v);
        if !self.is_directed() {
            self.remove_arc(v, u);
        }
        if cancelled {
            self.insertions -= 1;
        } else {
            self.deletions += 1;
        }
        self.num_edges -= 1;
        Ok(())
    }

    /// Applies one mutation.
    pub fn apply(&mut self, mutation: &EdgeMutation) -> Result<()> {
        match mutation.op {
            MutationOp::Insert => self.insert_edge(mutation.u, mutation.v),
            MutationOp::Delete => self.remove_edge(mutation.u, mutation.v),
        }
    }

    /// Applies a batch of mutations in order, stopping at the first
    /// failure and reporting its index. Mutations before the failing one
    /// stay applied — callers wanting all-or-nothing semantics stage the
    /// batch on a clone and swap on success (the epoch handoff in
    /// `psr-core::serving` does exactly this).
    pub fn apply_all(
        &mut self,
        mutations: &[EdgeMutation],
    ) -> std::result::Result<(), (usize, GraphError)> {
        for (index, mutation) in mutations.iter().enumerate() {
            self.apply(mutation).map_err(|e| (index, e))?;
        }
        Ok(())
    }

    /// Folds the overlay into a fresh CSR snapshot of the current edge
    /// set. The overlay (and its base) are untouched; re-basing is
    /// `DeltaGraph::new(delta.compact())`.
    pub fn compact(&self) -> Graph {
        let n = self.num_nodes();
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + self.neighbors(v as NodeId).len() as u64;
        }
        let mut targets = Vec::with_capacity(*offsets.last().unwrap() as usize);
        for v in 0..n {
            targets.extend_from_slice(self.neighbors(v as NodeId));
        }
        Graph::from_parts(self.base.direction(), offsets, targets, self.num_edges)
    }
}

impl GraphView for DeltaGraph {
    fn num_nodes(&self) -> usize {
        self.base.num_nodes() + self.extra_nodes
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn direction(&self) -> Direction {
        self.base.direction()
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        match self.overlay.get(&v) {
            Some(entry) => &entry.merged,
            // Grown nodes with no edits yet are isolated, not base reads.
            None if ix(v) >= self.base.num_nodes() => &[],
            None => self.base.neighbors(v),
        }
    }

    fn neighbors_into<'a>(&'a self, v: NodeId, scratch: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        match self.overlay.get(&v) {
            Some(entry) => &entry.merged,
            None if ix(v) >= self.base.num_nodes() => &[],
            None => self.base.neighbors_into(v, scratch),
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        match self.overlay.get(&v) {
            Some(entry) => entry.merged.len(),
            None if ix(v) >= self.base.num_nodes() => 0,
            None => self.base.degree(v),
        }
    }

    /// O(dirty), unless no dirty node reaches the base maximum and one of
    /// them sat at it: then every node is scanned.
    fn max_degree(&self) -> usize {
        let (base, base_max) = (&self.base, self.base_max_degree);
        let dirty = self.overlay.values().map(|entry| entry.merged.len()).max().unwrap_or(0);
        let lowered = |&v: &NodeId| ix(v) < base.num_nodes() && base.degree(v) == base_max;
        if dirty < base_max && self.overlay.keys().any(lowered) {
            return self.nodes().map(|v| self.degree(v)).max().unwrap_or(0);
        }
        dirty.max(base_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::directed_from_edges;

    fn base() -> Arc<Graph> {
        // 0-1, 1-2, 2-3 path plus isolated 4.
        Arc::new(
            crate::GraphBuilder::new(Direction::Undirected)
                .add_edges([(0, 1), (1, 2), (2, 3)])
                .with_num_nodes(5)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn clean_overlay_reads_equal_base() {
        let b = base();
        let d = DeltaGraph::new(Arc::clone(&b));
        assert!(d.is_clean());
        assert_eq!(d.num_edges(), b.num_edges());
        for v in b.nodes() {
            assert_eq!(GraphView::neighbors(&d, v), b.neighbors(v));
        }
        assert_eq!(d.compact(), *b);
        assert!(Arc::ptr_eq(d.base().as_csr().unwrap(), &b));
    }

    #[test]
    fn apply_all_stops_at_the_first_failure_with_its_index() {
        let mut d = DeltaGraph::new(base());
        let batch = [
            EdgeMutation::insert(0, 3),
            EdgeMutation::delete(1, 2),
            EdgeMutation::delete(1, 2), // already gone: fails at index 2
            EdgeMutation::insert(0, 4),
        ];
        let (index, err) = d.apply_all(&batch).unwrap_err();
        assert_eq!(index, 2);
        assert!(matches!(err, GraphError::EdgeNotFound { from: 1, to: 2 }));
        // Prefix mutations stay applied; the suffix was never reached.
        assert!(d.has_edge(0, 3));
        assert!(!d.has_edge(1, 2));
        assert!(!d.has_edge(0, 4));

        let mut clean = DeltaGraph::new(base());
        clean.apply_all(&[EdgeMutation::insert(0, 3), EdgeMutation::delete(2, 3)]).unwrap();
        assert!(clean.has_edge(0, 3));
        assert!(!clean.has_edge(2, 3));
    }

    #[test]
    fn inserts_and_deletes_update_reads_and_dirty_set() {
        let mut d = DeltaGraph::new(base());
        d.insert_edge(0, 4).unwrap();
        d.remove_edge(1, 2).unwrap();
        assert_eq!(d.num_edges(), 3);
        assert_eq!(d.pending_insertions(), 1);
        assert_eq!(d.pending_deletions(), 1);
        assert!(d.has_edge(0, 4) && d.has_edge(4, 0));
        assert!(!d.has_edge(1, 2) && !d.has_edge(2, 1));
        assert_eq!(GraphView::neighbors(&d, 1), &[0]);
        assert_eq!(GraphView::neighbors(&d, 0), &[1, 4]);
        assert_eq!(d.dirty_nodes().collect::<Vec<_>>(), vec![0, 1, 2, 4]);
        // Node 3 never moved: still a borrowed base slice.
        assert!(!d.is_dirty(3));
        assert_eq!(GraphView::neighbors(&d, 3), d.base().neighbors(3));
    }

    #[test]
    fn tombstone_cancellation_returns_node_to_clean() {
        let mut d = DeltaGraph::new(base());
        d.remove_edge(0, 1).unwrap();
        assert_eq!(d.pending_deletions(), 1);
        d.insert_edge(1, 0).unwrap(); // re-insert, reversed endpoint order
        assert!(d.is_clean(), "net-zero edits must empty the dirty set");
        assert_eq!(d.pending_deletions(), 0);
        assert_eq!(d.pending_insertions(), 0);
        assert_eq!(d.compact(), *d.base().to_graph_arc());

        d.insert_edge(0, 3).unwrap();
        d.remove_edge(3, 0).unwrap();
        assert!(d.is_clean(), "addition cancellation must also clean up");
    }

    #[test]
    fn error_paths_leave_overlay_untouched() {
        let mut d = DeltaGraph::new(base());
        assert_eq!(d.insert_edge(2, 2).unwrap_err(), GraphError::SelfLoop { node: 2 });
        assert_eq!(d.insert_edge(0, 1).unwrap_err(), GraphError::EdgeExists { from: 0, to: 1 });
        assert_eq!(d.remove_edge(0, 3).unwrap_err(), GraphError::EdgeNotFound { from: 0, to: 3 });
        assert_eq!(
            d.insert_edge(0, 9).unwrap_err(),
            GraphError::NodeOutOfRange { node: 9, num_nodes: 5 }
        );
        assert_eq!(
            d.remove_edge(9, 0).unwrap_err(),
            GraphError::NodeOutOfRange { node: 9, num_nodes: 5 }
        );
        assert!(d.is_clean());
        assert_eq!(d.num_edges(), 3);
    }

    #[test]
    fn apply_dispatches_mutations() {
        let mut d = DeltaGraph::new(base());
        d.apply(&EdgeMutation::insert(0, 2)).unwrap();
        d.apply(&EdgeMutation::delete(2, 3)).unwrap();
        assert!(d.has_edge(0, 2));
        assert!(!d.has_edge(2, 3));
        assert!(d.apply(&EdgeMutation::insert(0, 2)).is_err());
    }

    #[test]
    fn compact_matches_rebuilt_csr() {
        let mut d = DeltaGraph::new(base());
        d.insert_edge(0, 4).unwrap();
        d.insert_edge(1, 3).unwrap();
        d.remove_edge(2, 3).unwrap();
        let compacted = d.compact();
        let rebuilt = crate::GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (1, 2), (0, 4), (1, 3)])
            .with_num_nodes(5)
            .build()
            .unwrap();
        assert_eq!(compacted, rebuilt);
        // Re-basing produces a clean overlay with identical reads.
        let rebased = DeltaGraph::new(compacted);
        assert!(rebased.is_clean());
        for v in 0..5 {
            assert_eq!(GraphView::neighbors(&rebased, v), GraphView::neighbors(&d, v));
        }
    }

    #[test]
    fn directed_edits_touch_one_endpoint_only() {
        let g = directed_from_edges([(0, 1), (1, 2)]).unwrap();
        let mut d = DeltaGraph::new(g);
        d.insert_edge(2, 0).unwrap();
        assert!(d.has_edge(2, 0));
        assert!(!d.has_edge(0, 2));
        assert_eq!(d.dirty_nodes().collect::<Vec<_>>(), vec![2]);
        d.remove_edge(0, 1).unwrap();
        assert!(!d.has_edge(0, 1));
        assert_eq!(d.dirty_nodes().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(d.num_edges(), 2);
    }

    #[test]
    fn add_nodes_grows_the_view_and_survives_compaction() {
        let mut d = DeltaGraph::new(base());
        assert_eq!(d.num_nodes(), 5);
        let first = d.add_nodes(2);
        assert_eq!(first, 5);
        assert_eq!(d.num_nodes(), 7);
        assert_eq!(d.num_extra_nodes(), 2);
        assert!(!d.is_clean(), "growth alone makes reads differ from the base");
        // Grown nodes start isolated and accept edges in either direction.
        assert_eq!(GraphView::neighbors(&d, 5), &[] as &[NodeId]);
        d.insert_edge(5, 0).unwrap();
        d.apply(&EdgeMutation::insert(6, 5)).unwrap();
        assert_eq!(GraphView::neighbors(&d, 5), &[0, 6]);
        assert_eq!(GraphView::neighbors(&d, 0), &[1, 5]);
        // Compaction folds the grown nodes into the new base.
        let compacted = d.compact();
        assert_eq!(compacted.num_nodes(), 7);
        let rebuilt = crate::GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (1, 2), (2, 3), (0, 5), (5, 6)])
            .with_num_nodes(7)
            .build()
            .unwrap();
        assert_eq!(compacted, rebuilt);
        // Endpoints past the grown range still error cleanly.
        assert_eq!(
            d.insert_edge(0, 7).unwrap_err(),
            GraphError::NodeOutOfRange { node: 7, num_nodes: 7 }
        );
    }

    #[test]
    fn overlay_over_compressed_backend_matches_csr() {
        let b = base();
        let z = crate::CompressedCsr::open_bytes(crate::CompressedCsr::encode(&*b, 2)).unwrap();
        let mut dc = DeltaGraph::with_backend(GraphBackend::from(z));
        let mut dg = DeltaGraph::new(Arc::clone(&b));
        assert_eq!(dc.base().kind(), "compressed");
        for d in [&mut dc, &mut dg] {
            d.insert_edge(0, 4).unwrap();
            d.remove_edge(1, 2).unwrap();
        }
        for v in 0..5 {
            assert_eq!(GraphView::neighbors(&dc, v), GraphView::neighbors(&dg, v));
        }
        assert_eq!(dc.compact(), dg.compact());
    }

    #[test]
    fn clones_share_overlay_entries_until_written() {
        let mut d = DeltaGraph::new(base());
        d.insert_edge(0, 4).unwrap();
        let mut staged = d.clone();
        assert!(Arc::ptr_eq(&d.overlay[&0], &staged.overlay[&0]));
        staged.insert_edge(0, 3).unwrap();
        assert!(!Arc::ptr_eq(&d.overlay[&0], &staged.overlay[&0]), "a write unshares");
        assert!(Arc::ptr_eq(&d.overlay[&4], &staged.overlay[&4]), "untouched stays shared");
        assert_eq!(GraphView::neighbors(&d, 0), &[1, 4]);
        assert_eq!(GraphView::neighbors(&staged, 0), &[1, 3, 4]);
    }

    #[test]
    fn base_is_shared_not_copied() {
        let b = base();
        let mut d = DeltaGraph::new(Arc::clone(&b));
        d.insert_edge(0, 4).unwrap();
        // The base snapshot is byte-identical after overlay edits.
        assert!(b.has_edge(0, 1));
        assert!(!b.has_edge(0, 4));
        assert_eq!(Arc::strong_count(&b), 2);
    }
}
