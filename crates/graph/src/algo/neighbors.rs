//! Common-neighbour counting — the paper's running-example utility (§4.1).
//!
//! For a target `r`, `C(i, r)` is the number of common neighbours of `i`
//! and `r`. On directed graphs we follow out-edges of the target (§7.1):
//! `C(i, r) = |{a : (r, a) ∈ E ∧ (a, i) ∈ E}|`, i.e. the number of 2-step
//! out-walks from `r` to `i`.
//!
//! Two serving-path kernels live here, both covered by the `kernels`
//! criterion group with no-regression asserts:
//!
//! * [`common_neighbor_count`] — pairwise sorted-list intersection that
//!   switches from a linear merge to galloping (exponential search) when
//!   the degree ratio is skewed, turning O(d_u + d_v) into
//!   O(d_min · log d_max) for hub pairs;
//! * [`CommonNeighborCounter`] — the bulk 2-step-walk counter behind
//!   every utility pass, with a branch-light inner loop and a workspace
//!   that grows on demand across `DeltaGraph` node-growth epochs. Its
//!   second hop reads through [`GraphView::neighbors_into`], so a walk
//!   over a compressed snapshot leaves no decoded lists behind.

use crate::node::{ix, NodeId};
use crate::view::GraphView;

/// Counts common neighbours between the target `r` and *every* node reached
/// by a 2-step out-walk, returning sparse `(node, count)` pairs sorted by
/// node id. The list includes `r` itself and `r`'s neighbours when they are
/// reachable in two steps; callers filter by their candidate policy.
///
/// Runs in `O(Σ_{a ∈ N(r)} deg(a))` using a dense counting array that is
/// allocated per call; use [`CommonNeighborCounter`] to amortise the
/// allocation across many targets.
pub fn common_neighbor_counts<V: GraphView + ?Sized>(graph: &V, r: NodeId) -> Vec<(NodeId, u32)> {
    CommonNeighborCounter::new(graph.num_nodes()).counts(graph, r)
}

/// Degree ratio at which the pairwise intersection switches from the
/// linear merge to galloping. Below this the merge's branch-predictable
/// scan wins; above it, exponential search skips most of the long list.
const GALLOP_RATIO: usize = 8;

/// Common neighbours between a single pair, by sorted-list intersection.
/// On directed graphs this intersects out-neighbour lists, i.e. counts
/// nodes that both `u` and `v` point at — callers wanting the §7.1
/// semantics of 2-step walks from a target should use
/// [`common_neighbor_counts`] instead.
///
/// Adaptive: skewed degree pairs (hub vs. leaf, ratio ≥ 8) intersect by
/// galloping — for each element of the short list, exponential search
/// then binary search in the unscanned tail of the long one — while
/// near-balanced pairs keep the linear merge.
pub fn common_neighbor_count<V: GraphView + ?Sized>(graph: &V, u: NodeId, v: NodeId) -> u32 {
    let (mut a, mut b) = (graph.neighbors(u), graph.neighbors(v));
    if a.len() > b.len() {
        std::mem::swap(&mut a, &mut b);
    }
    if a.len() * GALLOP_RATIO <= b.len() {
        return gallop_intersection_count(a, b);
    }
    let mut count = 0u32;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Sorted-intersection size by galloping: every `x` in the short list `a`
/// is located in the still-unscanned tail of the long list `b` by
/// doubling a probe offset until it overshoots, then binary-searching the
/// bracketed window. The tail cursor only moves forward, so the whole
/// intersection costs `O(|a| · log |b|)` — and less when matches cluster.
fn gallop_intersection_count(a: &[NodeId], b: &[NodeId]) -> u32 {
    let mut count = 0u32;
    let mut lo = 0usize;
    for &x in a {
        let tail = &b[lo..];
        if tail.is_empty() {
            break;
        }
        // Exponential search: double `size` until b[lo + size] ≥ x (or the
        // tail runs out). Afterwards the match, if present, lies in
        // tail[..size + 1] ∩ tail.
        let mut size = 1usize;
        while size < tail.len() && tail[size] < x {
            size <<= 1;
        }
        let window = &tail[..(size + 1).min(tail.len())];
        match window.binary_search(&x) {
            Ok(pos) => {
                count += 1;
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
    }
    count
}

/// Reusable workspace for [`common_neighbor_counts`] over many targets.
#[derive(Debug)]
pub struct CommonNeighborCounter {
    counts: Vec<u32>,
    touched: Vec<NodeId>,
    /// Decode scratch for second-hop lists ([`GraphView::neighbors_into`]).
    scratch: Vec<NodeId>,
}

impl CommonNeighborCounter {
    /// Creates a workspace for graphs with `n` nodes. The workspace grows
    /// on demand, so a counter built against an earlier snapshot stays
    /// valid after a `DeltaGraph` mutation epoch extends the node set.
    pub fn new(n: usize) -> Self {
        CommonNeighborCounter { counts: vec![0; n], touched: Vec::new(), scratch: Vec::new() }
    }

    /// See [`common_neighbor_counts`].
    pub fn counts<V: GraphView + ?Sized>(&mut self, graph: &V, r: NodeId) -> Vec<(NodeId, u32)> {
        // Grow rather than assert: the graph behind a long-lived workspace
        // can gain nodes between epochs (`DeltaGraph::add_nodes`), and a
        // release-mode out-of-date workspace must not index out of bounds.
        if self.counts.len() < graph.num_nodes() {
            self.counts.resize(graph.num_nodes(), 0);
        }
        // Branch-light core: instead of a conditional push per visit, the
        // walk appends every visited id unconditionally and keeps it only
        // when the count was zero — a data dependency the CPU handles far
        // better than a mispredicted branch on hub-dense walks.
        let mut len = self.touched.len();
        debug_assert_eq!(len, 0);
        for &a in graph.neighbors(r) {
            let walk = graph.neighbors_into(a, &mut self.scratch);
            self.touched.resize(len + walk.len(), 0);
            for &i in walk {
                let c = self.counts[ix(i)];
                self.touched[len] = i;
                len += (c == 0) as usize;
                self.counts[ix(i)] = c + 1;
            }
            self.touched.truncate(len);
        }
        self.touched.sort_unstable();
        let mut out = Vec::with_capacity(self.touched.len());
        for &i in &self.touched {
            out.push((i, self.counts[ix(i)]));
            self.counts[ix(i)] = 0;
        }
        self.touched.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{directed_from_edges, undirected_from_edges, Direction};
    use crate::delta::DeltaGraph;
    use crate::mutation::EdgeMutation;

    #[test]
    fn pairwise_count_matches_manual() {
        // 0 and 3 share neighbours {1, 2}.
        let g = undirected_from_edges([(0, 1), (0, 2), (3, 1), (3, 2), (0, 4)]).unwrap();
        assert_eq!(common_neighbor_count(&g, 0, 3), 2);
        assert_eq!(common_neighbor_count(&g, 0, 4), 0);
        assert_eq!(common_neighbor_count(&g, 1, 2), 2); // via 0 and 3
    }

    #[test]
    fn bulk_counts_match_pairwise_on_undirected() {
        let g =
            undirected_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
                .unwrap();
        for r in g.nodes() {
            let bulk = common_neighbor_counts(&g, r);
            for (i, c) in bulk {
                assert_eq!(c, common_neighbor_count(&g, r, i), "target {r} candidate {i}");
            }
            // And anything absent from the sparse list has zero count.
            let present: std::collections::HashSet<u32> =
                common_neighbor_counts(&g, r).into_iter().map(|(i, _)| i).collect();
            for i in g.nodes() {
                if !present.contains(&i) {
                    assert_eq!(common_neighbor_count(&g, r, i), 0);
                }
            }
        }
    }

    #[test]
    fn directed_counts_follow_out_edges() {
        // r=0 -> {1,2}; 1 -> 3; 2 -> 3; so C(3, 0) = 2 by out-walks.
        let g = directed_from_edges([(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let counts = common_neighbor_counts(&g, 0);
        assert_eq!(counts, vec![(3, 2)]);
    }

    #[test]
    fn target_and_neighbors_can_appear_in_raw_counts() {
        // Triangle: two-step walks from 0 return to 0 and reach neighbours.
        let g = undirected_from_edges([(0, 1), (1, 2), (0, 2)]).unwrap();
        let counts = common_neighbor_counts(&g, 0);
        // 0 reached via 0-1-0 and 0-2-0; 1 via 0-2-1; 2 via 0-1-2.
        assert_eq!(counts, vec![(0, 2), (1, 1), (2, 1)]);
    }

    #[test]
    fn workspace_reuse_is_clean_across_targets() {
        let g = undirected_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut ws = CommonNeighborCounter::new(g.num_nodes());
        let first = ws.counts(&g, 0);
        let second = ws.counts(&g, 0);
        assert_eq!(first, second, "stale workspace state leaked between calls");
    }

    #[test]
    fn galloping_agrees_with_linear_merge_on_every_skew() {
        // Direct equivalence of the two intersection kernels across list
        // shapes: empty, singleton, disjoint, nested, clustered matches,
        // and ratios straddling the GALLOP_RATIO cutover.
        let cases: Vec<(Vec<NodeId>, Vec<NodeId>)> = vec![
            (vec![], vec![1, 2, 3]),
            (vec![5], (0..100).collect()),
            (vec![99], (0..100).collect()),
            (vec![100], (0..100).collect()),
            (vec![0, 50, 99], (0..100).collect()),
            ((0..10).collect(), (0..100).collect()),
            ((0..10).map(|i| i * 10).collect(), (0..100).collect()),
            ((90..110).collect(), (0..100).collect()),
            (vec![2, 4, 6], vec![1, 3, 5, 7]),
            (vec![7, 8, 9], (0..9).collect()),
        ];
        for (a, b) in cases {
            let gallop = gallop_intersection_count(&a, &b);
            let expected = a.iter().filter(|x| b.binary_search(x).is_ok()).count() as u32;
            assert_eq!(gallop, expected, "a={a:?}");
        }
    }

    #[test]
    fn skewed_pairs_take_the_galloping_path_and_match() {
        // A hub (degree 64) against leaves (degree ≤ 3): the ratio gate
        // sends these through gallop_intersection_count; counts must match
        // the naive definition.
        let mut edges: Vec<(NodeId, NodeId)> = (1..=64).map(|i| (0, i)).collect();
        edges.extend([(65, 1), (65, 2), (66, 63), (1, 2)]);
        let g = undirected_from_edges(edges).unwrap();
        for v in [65u32, 66, 1] {
            let naive: u32 =
                g.neighbors(0).iter().filter(|x| g.neighbors(v).binary_search(x).is_ok()).count()
                    as u32;
            assert_eq!(common_neighbor_count(&g, 0, v), naive, "pair (0, {v})");
            assert_eq!(common_neighbor_count(&g, v, 0), naive, "order-independent");
        }
    }

    #[test]
    fn workspace_grows_across_a_node_extending_mutation_epoch() {
        // Regression: the workspace used to debug_assert its capacity and
        // index out of bounds in release once a DeltaGraph epoch appended
        // nodes. Build the counter against the base snapshot, then grow
        // the graph through add_nodes + an apply() mutation batch and keep
        // counting with the same workspace.
        let base = crate::GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .with_num_nodes(4)
            .build()
            .unwrap();
        let mut ws = CommonNeighborCounter::new(base.num_nodes());
        let mut delta = DeltaGraph::new(base);
        let before = ws.counts(&delta, 0);

        // The epoch: two fresh nodes wired into the triangle.
        let first = delta.add_nodes(2);
        assert_eq!(first, 4);
        for m in
            [EdgeMutation::insert(4, 0), EdgeMutation::insert(4, 1), EdgeMutation::insert(5, 4)]
        {
            delta.apply(&m).unwrap();
        }

        // Same workspace, larger graph: must grow, not panic or skip.
        let after = ws.counts(&delta, 0);
        let fresh = CommonNeighborCounter::new(delta.num_nodes()).counts(&delta, 0);
        assert_eq!(after, fresh, "grown workspace must match a fresh one");
        assert!(after.iter().any(|&(i, _)| i == 5), "walk reaches the grown node 5");
        assert_ne!(before, after);

        // And the workspace stays clean for the next target.
        assert_eq!(ws.counts(&delta, 4), CommonNeighborCounter::new(6).counts(&delta, 4));
    }
}
