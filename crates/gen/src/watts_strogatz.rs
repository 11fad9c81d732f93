//! Watts–Strogatz small-world graphs.
//!
//! A clustered, homogeneous-degree base family for the dynamic-graph
//! differential suite (`tests/dynamic_graph.rs`): lattice-like graphs
//! give common-neighbour utilities many overlapping neighbourhoods, unlike
//! the heavy-tailed presets.

use rand::Rng;

use psr_graph::{Direction, Graph, NodeId, Result};

/// Watts–Strogatz ring lattice on `n` nodes, each connected to its `k`
/// nearest neighbours (`k` even), with each lattice edge rewired to a
/// uniform random non-duplicate endpoint with probability `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, rng: &mut impl Rng) -> Result<Graph> {
    assert!(k % 2 == 0, "k must be even (k/2 neighbours per side)");
    assert!(k < n, "k must be below n");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");

    // Adjacency sets to keep rewiring simple-graph safe.
    let mut m = psr_graph::MutableGraph::new(Direction::Undirected, n);
    for u in 0..n as NodeId {
        for j in 1..=(k / 2) as NodeId {
            let v = (u + j) % n as NodeId;
            if !m.has_edge(u, v) {
                m.add_edge(u, v)?;
            }
        }
    }
    // Rewire pass, lattice edge (u, u+j) -> (u, w).
    for u in 0..n as NodeId {
        for j in 1..=(k / 2) as NodeId {
            let v = (u + j) % n as NodeId;
            if !m.has_edge(u, v) || rng.gen::<f64>() >= beta {
                continue;
            }
            // Choose a replacement endpoint; give up after bounded attempts
            // when the node is saturated.
            for _ in 0..32 {
                let w = rng.gen_range(0..n as NodeId);
                if w != u && !m.has_edge(u, w) {
                    m.remove_edge(u, v)?;
                    m.add_edge(u, w)?;
                    break;
                }
            }
        }
    }
    let g = m.freeze();
    debug_assert!(g.arcs().all(|(a, b)| a != b));
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::rng_from_seed;
    use psr_graph::algo::DegreeStats;

    #[test]
    fn beta_zero_is_exact_ring_lattice() {
        let g = watts_strogatz(20, 4, 0.0, &mut rng_from_seed(21)).unwrap();
        assert_eq!(g.num_edges(), 20 * 4 / 2);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(0, 19)); // wraps around
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn rewiring_preserves_edge_count() {
        let g = watts_strogatz(100, 6, 0.3, &mut rng_from_seed(22)).unwrap();
        assert_eq!(g.num_edges(), 100 * 6 / 2);
    }

    #[test]
    fn beta_one_destroys_lattice_regularity() {
        let g = watts_strogatz(200, 4, 1.0, &mut rng_from_seed(23)).unwrap();
        let stats = DegreeStats::compute(&g);
        assert!(stats.max > 4, "expected degree variance after full rewiring");
        assert_eq!(g.num_edges(), 400);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = watts_strogatz(80, 4, 0.2, &mut rng_from_seed(24)).unwrap();
        let b = watts_strogatz(80, 4, 0.2, &mut rng_from_seed(24)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "k must be even")]
    fn odd_k_rejected() {
        let _ = watts_strogatz(10, 3, 0.1, &mut rng_from_seed(25));
    }
}
