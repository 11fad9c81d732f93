//! Differential conformance of the `DeltaGraph` overlay against
//! from-scratch rebuilds.
//!
//! The dynamic-graph subsystem promises that a `DeltaGraph` at edge set
//! `E` is indistinguishable, through every `GraphView` read, from a CSR
//! built directly from `E`. These property suites drive random edit
//! sequences (toggles over random base graphs, both directions) and
//! check the promise at every step boundary: reads, kernel outputs and
//! compaction must be bit-identical to the reference `MutableGraph`
//! rebuild.

use proptest::prelude::*;
use psr_graph::algo::{bfs_distances, common_neighbor_counts};
use psr_graph::{DeltaGraph, Direction, GraphBuilder, GraphView, MutableGraph};

/// Strategy: a random simple edge set on up to `n` nodes.
fn edge_set(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(u, v)| u != v).collect())
}

/// Strategy: a sequence of edge toggles (endpoint pairs; equal endpoints
/// are skipped at application time).
fn toggles(n: u32, len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 1..len)
}

/// Asserts every `GraphView` read of `delta` equals the reference.
fn assert_reads_match(
    delta: &DeltaGraph,
    reference: &MutableGraph,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(delta.num_nodes(), reference.num_nodes(), "num_nodes {}", context);
    prop_assert_eq!(delta.num_edges(), reference.num_edges(), "num_edges {}", context);
    for v in reference.nodes() {
        prop_assert_eq!(delta.degree(v), reference.degree(v), "degree({}) {}", v, context);
        prop_assert_eq!(
            GraphView::neighbors(delta, v),
            reference.neighbors(v),
            "neighbors({}) {}",
            v,
            context
        );
    }
    for u in reference.nodes() {
        for v in reference.nodes() {
            prop_assert_eq!(
                delta.has_edge(u, v),
                reference.has_edge(u, v),
                "has_edge({}, {}) {}",
                u,
                v,
                context
            );
        }
    }
    Ok(())
}

/// Runs one differential case for the given direction.
fn run_case(
    direction: Direction,
    edges: Vec<(u32, u32)>,
    edits: Vec<(u32, u32)>,
    n: u32,
) -> Result<(), TestCaseError> {
    let base = GraphBuilder::new(direction)
        .add_edges(edges.iter().copied())
        .with_num_nodes(n as usize)
        .build()
        .unwrap();
    let mut delta = DeltaGraph::new(base.clone());
    let mut reference = MutableGraph::from(&base);

    // Check mid-sequence (after each third) and at the end, so transient
    // overlay states are covered, not just the final one.
    let checkpoint = (edits.len() / 3).max(1);
    for (step, &(u, v)) in edits.iter().enumerate() {
        if u == v {
            continue;
        }
        if reference.has_edge(u, v) {
            delta.remove_edge(u, v).unwrap();
            reference.remove_edge(u, v).unwrap();
        } else {
            delta.insert_edge(u, v).unwrap();
            reference.add_edge(u, v).unwrap();
        }
        if (step + 1) % checkpoint == 0 {
            assert_reads_match(&delta, &reference, &format!("after edit {step}"))?;
        }
    }
    assert_reads_match(&delta, &reference, "final")?;

    // Kernels read identically through the overlay.
    let rebuilt = reference.freeze();
    for r in rebuilt.nodes() {
        prop_assert_eq!(
            common_neighbor_counts(&delta, r),
            common_neighbor_counts(&rebuilt, r),
            "common neighbours at {}",
            r
        );
        prop_assert_eq!(bfs_distances(&delta, r), bfs_distances(&rebuilt, r), "bfs at {}", r);
    }

    // Compaction produces exactly the rebuilt CSR, and the overlay's
    // pending counters reconcile with the edge-count delta.
    prop_assert_eq!(delta.compact(), rebuilt);
    let net = delta.pending_insertions() as i64 - delta.pending_deletions() as i64;
    prop_assert_eq!(net, delta.num_edges() as i64 - base.num_edges() as i64);
    // Dirty nodes are exactly the nodes whose adjacency differs.
    for v in base.nodes() {
        let differs = base.neighbors(v) != GraphView::neighbors(&delta, v);
        prop_assert_eq!(delta.is_dirty(v), differs, "dirty flag of {}", v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn undirected_overlay_equals_rebuild(
        edges in edge_set(20, 50),
        edits in toggles(20, 40),
    ) {
        run_case(Direction::Undirected, edges, edits, 20)?;
    }

    #[test]
    fn directed_overlay_equals_rebuild(
        edges in edge_set(20, 50),
        edits in toggles(20, 40),
    ) {
        run_case(Direction::Directed, edges, edits, 20)?;
    }

    #[test]
    fn interleaved_cancellations_stay_consistent(
        edits in toggles(8, 60),
    ) {
        // A tiny node set forces heavy tombstone/addition cancellation
        // traffic: the same pairs toggle back and forth repeatedly.
        run_case(Direction::Undirected, vec![(0, 1), (1, 2), (2, 3)], edits, 8)?;
    }
}

/// The full scan `DeltaGraph::max_degree` avoids.
fn scanned_max_degree(delta: &DeltaGraph) -> usize {
    delta.nodes().map(|v| delta.degree(v)).max().unwrap_or(0)
}

/// Toggles `edits` on a base whose node 0 is a unique hub (a star over
/// 1..8 plus `edges`), half of them on the hub's edges, grows two nodes
/// at step `grow_at` and wires them up, and checks `max_degree` against
/// the full scan after every step.
fn run_max_degree_case(
    direction: Direction,
    edges: Vec<(u32, u32)>,
    edits: Vec<(u32, u32)>,
    grow_at: usize,
) -> Result<(), TestCaseError> {
    let base = GraphBuilder::new(direction)
        .add_edges((1..8).map(|v| (0, v)).chain(edges))
        .with_num_nodes(12)
        .build()
        .unwrap();
    let mut delta = DeltaGraph::new(base);
    prop_assert_eq!(delta.max_degree(), scanned_max_degree(&delta));
    for (step, &(u, v)) in edits.iter().enumerate() {
        if step == grow_at {
            let first = delta.add_nodes(2);
            prop_assert_eq!(delta.max_degree(), scanned_max_degree(&delta), "after growth");
            delta.insert_edge(first, 0).unwrap();
            delta.insert_edge(first, first + 1).unwrap();
        }
        let n = delta.num_nodes() as u32;
        let (u, v) = (if u % 2 == 0 { 0 } else { u % n }, v % n);
        if u == v {
            continue;
        }
        if delta.has_edge(u, v) {
            delta.remove_edge(u, v).unwrap();
        } else {
            delta.insert_edge(u, v).unwrap();
        }
        prop_assert_eq!(delta.max_degree(), scanned_max_degree(&delta), "after edit {}", step);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn undirected_max_degree_equals_the_scan(
        edges in edge_set(12, 30),
        edits in toggles(16, 60),
        grow_at in 0usize..60,
    ) {
        run_max_degree_case(Direction::Undirected, edges, edits, grow_at)?;
    }

    #[test]
    fn directed_max_degree_equals_the_scan(
        edges in edge_set(12, 30),
        edits in toggles(16, 60),
        grow_at in 0usize..60,
    ) {
        run_max_degree_case(Direction::Directed, edges, edits, grow_at)?;
    }
}

#[test]
fn max_degree_follows_the_hub_down_as_it_loses_its_edges() {
    // Hub 0 (degree 6) over a runner-up 1 (degree 3): deleting the hub's
    // edges one by one hands the maximum to the runner-up, and a grown
    // node wired to everything takes it back.
    let base = GraphBuilder::new(Direction::Undirected)
        .add_edges((1..7).map(|v| (0, v)).chain([(1, 2), (1, 3)]))
        .build()
        .unwrap();
    let mut delta = DeltaGraph::new(base);
    assert_eq!(delta.max_degree(), 6);
    for v in 1..7 {
        delta.remove_edge(0, v).unwrap();
        assert_eq!(delta.max_degree(), scanned_max_degree(&delta), "after deleting (0, {v})");
    }
    assert_eq!(delta.max_degree(), 2);
    let grown = delta.add_nodes(1);
    for v in 0..grown {
        delta.insert_edge(grown, v).unwrap();
    }
    assert_eq!(delta.max_degree(), 7);
    assert_eq!(delta.max_degree(), scanned_max_degree(&delta));
}
