//! Common-neighbour counting — the paper's running-example utility (§4.1).
//!
//! For a target `r`, `C(i, r)` is the number of common neighbours of `i`
//! and `r`. On directed graphs we follow out-edges of the target (§7.1):
//! `C(i, r) = |{a : (r, a) ∈ E ∧ (a, i) ∈ E}|`, i.e. the number of 2-step
//! out-walks from `r` to `i`.
//!
//! [`common_neighbor_count`] intersects one pair's sorted lists, switching
//! from a linear merge to galloping (exponential search) when the degree
//! ratio is skewed, which turns O(d_u + d_v) into O(d_min · log d_max)
//! for hub pairs. The bulk count over every node is the pooled walk
//! kernel's [`WalkWorkspace::common_neighbors`]; [`common_neighbor_counts`]
//! collects it into a vector.

use crate::algo::walks::with_walk;
#[cfg(doc)]
use crate::algo::WalkWorkspace;
use crate::node::NodeId;
use crate::view::GraphView;

/// Counts common neighbours between the target `r` and *every* node reached
/// by a 2-step out-walk, returning sparse `(node, count)` pairs sorted by
/// node id. The list includes `r` itself and `r`'s neighbours when they are
/// reachable in two steps; callers filter by their candidate policy.
///
/// Runs in `O(Σ_{a ∈ N(r)} deg(a))` on a pooled [`WalkWorkspace`].
pub fn common_neighbor_counts<V: GraphView + ?Sized>(graph: &V, r: NodeId) -> Vec<(NodeId, u32)> {
    let mut out = Vec::new();
    with_walk(|walk| walk.common_neighbors(graph, r, |i, c| out.push((i, c))));
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::WalkWorkspace;
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

    /// The bulk counts of one workspace, collected.
    fn counts<V: GraphView + ?Sized>(
        ws: &mut WalkWorkspace,
        g: &V,
        r: NodeId,
    ) -> Vec<(NodeId, u32)> {
        let mut out = Vec::new();
        ws.common_neighbors(g, r, |i, c| out.push((i, c)));
        out
    }

    #[test]
    fn workspace_reuse_is_clean_across_targets() {
        let g = undirected_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut ws = WalkWorkspace::default();
        let first = counts(&mut ws, &g, 0);
        let second = counts(&mut ws, &g, 0);
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
        let mut ws = WalkWorkspace::default();
        ws.common_neighbors(&base, 0, |_, _| {});
        let mut delta = DeltaGraph::new(base);
        let before = counts(&mut ws, &delta, 0);

        // The epoch: two fresh nodes wired into the triangle.
        let first = delta.add_nodes(2);
        assert_eq!(first, 4);
        for m in
            [EdgeMutation::insert(4, 0), EdgeMutation::insert(4, 1), EdgeMutation::insert(5, 4)]
        {
            delta.apply(&m).unwrap();
        }

        // Same workspace, larger graph: must grow, not panic or skip.
        let after = counts(&mut ws, &delta, 0);
        let fresh = counts(&mut WalkWorkspace::default(), &delta, 0);
        assert_eq!(after, fresh, "grown workspace must match a fresh one");
        assert!(after.iter().any(|&(i, _)| i == 5), "walk reaches the grown node 5");
        assert_ne!(before, after);

        // And the workspace stays clean for the next target.
        assert_eq!(counts(&mut ws, &delta, 4), counts(&mut WalkWorkspace::default(), &delta, 4));
    }
}
