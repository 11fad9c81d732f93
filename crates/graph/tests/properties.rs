//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use psr_graph::algo::{
    bfs_distances, common_neighbor_count, common_neighbor_counts, connected_components,
    degree_histogram, WalkWorkspace, UNREACHABLE,
};
use psr_graph::{Direction, GraphBuilder, MutableGraph};

/// Strategy: a random simple edge set on up to `n` nodes.
fn edge_set(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(u, v)| u != v).collect())
}

/// Walk counts of length exactly 2 from a source, read off the weighted
/// walk with weight 1 on length 2 and 0 on length 1.
struct Level2Walks(Vec<(u32, f64)>);

impl Level2Walks {
    fn count(&self, l: usize, y: u32) -> f64 {
        assert_eq!(l, 2, "only length-2 counts were walked");
        self.0.binary_search_by_key(&y, |&(v, _)| v).map_or(0.0, |i| self.0[i].1)
    }
}

fn level_2_walks(wc: &mut WalkWorkspace, g: &psr_graph::Graph, r: u32) -> Level2Walks {
    let mut level = Vec::new();
    wc.weighted(g, r, |_| 1.0, &[0.0, 1.0], |v, c| level.push((v, c)));
    Level2Walks(level)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_dedups_and_symmetrises(edges in edge_set(24, 60)) {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .build()
            .unwrap();
        // Symmetry invariant.
        for (u, v) in g.arcs() {
            prop_assert!(g.has_edge(v, u));
        }
        // Every arc list is strictly sorted (sorted + deduped).
        for v in g.nodes() {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
        // Arc count is exactly twice the logical edge count.
        prop_assert_eq!(g.num_arcs(), 2 * g.num_edges());
    }

    #[test]
    fn csr_mutable_round_trip(edges in edge_set(24, 60)) {
        let g = GraphBuilder::new(Direction::Directed)
            .add_edges(edges.iter().copied())
            .build()
            .unwrap();
        let m = MutableGraph::from(&g);
        prop_assert_eq!(m.freeze(), g);
    }

    #[test]
    fn edge_toggle_round_trips(edges in edge_set(16, 40), u in 0u32..16, v in 0u32..16) {
        prop_assume!(u != v);
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .with_num_nodes(16)
            .build()
            .unwrap();
        let mut m = MutableGraph::from(&g);
        let before = m.clone();
        m.toggle_edge(u, v).unwrap();
        m.toggle_edge(u, v).unwrap();
        prop_assert_eq!(m, before);
    }

    #[test]
    fn binary_io_round_trips(edges in edge_set(24, 60)) {
        let g = GraphBuilder::new(Direction::Directed)
            .add_edges(edges.iter().copied())
            .build()
            .unwrap();
        let bytes = psr_graph::io::binary::encode(&g);
        prop_assert_eq!(psr_graph::io::binary::decode(bytes).unwrap(), g);
    }

    #[test]
    fn text_io_round_trips(edges in edge_set(24, 60)) {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .build()
            .unwrap();
        prop_assume!(g.num_edges() > 0);
        let mut out = Vec::new();
        psr_graph::io::write_edge_list(&g, &mut out).unwrap();
        let (back, _) = psr_graph::io::read_edge_list(&out[..], Direction::Undirected).unwrap();
        // Round-trip preserves the edge *set* modulo the id compaction the
        // reader applies; with dense ids the graphs are identical.
        prop_assert_eq!(back.num_edges(), g.num_edges());
    }

    #[test]
    fn bfs_distances_are_consistent(edges in edge_set(20, 50)) {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .with_num_nodes(20)
            .build()
            .unwrap();
        let dist = bfs_distances(&g, 0);
        prop_assert_eq!(dist[0], 0);
        // Triangle inequality across every edge.
        for (u, v) in g.arcs() {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            if du != UNREACHABLE {
                prop_assert!(dv != UNREACHABLE && dv <= du + 1);
            }
        }
        // Reachability agrees with component labels.
        let comp = connected_components(&g);
        for v in g.nodes() {
            prop_assert_eq!(
                dist[v as usize] != UNREACHABLE,
                comp.labels[v as usize] == comp.labels[0]
            );
        }
    }

    #[test]
    fn walk_level_2_matches_common_neighbors(edges in edge_set(16, 60)) {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .with_num_nodes(16)
            .build()
            .unwrap();
        let mut wc = WalkWorkspace::default();
        for r in g.nodes() {
            let walks = level_2_walks(&mut wc, &g, r);
            for y in g.nodes() {
                if y == r {
                    continue;
                }
                // #length-2 walks r→·→y equals the common-neighbour count.
                prop_assert_eq!(
                    walks.count(2, y),
                    common_neighbor_count(&g, r, y) as f64
                );
            }
        }
    }

    #[test]
    fn bulk_common_neighbors_match_pairwise(edges in edge_set(16, 60), r in 0u32..16) {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .with_num_nodes(16)
            .build()
            .unwrap();
        for (i, c) in common_neighbor_counts(&g, r) {
            prop_assert_eq!(c, common_neighbor_count(&g, r, i));
        }
    }

    #[test]
    fn histogram_mass_equals_nodes(edges in edge_set(24, 60)) {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges(edges.iter().copied())
            .build()
            .unwrap();
        prop_assert_eq!(degree_histogram(&g).iter().sum::<usize>(), g.num_nodes());
    }

    #[test]
    fn reversal_preserves_edge_multiset(edges in edge_set(24, 60)) {
        let g = GraphBuilder::new(Direction::Directed)
            .add_edges(edges.iter().copied())
            .build()
            .unwrap();
        let r = g.reversed();
        prop_assert_eq!(r.num_edges(), g.num_edges());
        let mut fwd: Vec<_> = g.arcs().map(|(u, v)| (v, u)).collect();
        let mut rev: Vec<_> = r.arcs().collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        prop_assert_eq!(fwd, rev);
    }
}
