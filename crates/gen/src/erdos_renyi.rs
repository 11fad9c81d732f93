//! Erdős–Rényi random graphs — the homogeneous-degree baseline.
//!
//! ER graphs have no heavy tail, so they give the dynamic-graph
//! differential suite (`tests/dynamic_graph.rs`) a base family unlike the
//! preferential-attachment presets.

use rand::seq::SliceRandom;
use rand::Rng;

use psr_graph::{Direction, Graph, GraphBuilder, Result};

/// `G(n, m)`: exactly `m` distinct edges sampled uniformly among all
/// possible simple edges.
///
/// Sampling is rejection-based over node pairs, which is efficient while
/// `m` is well below the total pair count (all uses in this workspace are
/// sparse); for dense requests we fall back to shuffling the full pair set.
pub fn gnm(n: usize, m: usize, direction: Direction, rng: &mut impl Rng) -> Result<Graph> {
    let total_pairs = match direction {
        Direction::Directed => n.saturating_mul(n.saturating_sub(1)),
        Direction::Undirected => n.saturating_mul(n.saturating_sub(1)) / 2,
    };
    assert!(m <= total_pairs, "requested {m} edges but only {total_pairs} simple pairs exist");

    let mut builder = GraphBuilder::with_capacity(direction, m).with_num_nodes(n);
    if m > total_pairs / 2 {
        // Dense: materialise, shuffle, take m.
        let mut pairs = Vec::with_capacity(total_pairs);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u == v {
                    continue;
                }
                if direction == Direction::Undirected && u > v {
                    continue;
                }
                pairs.push((u, v));
            }
        }
        pairs.shuffle(rng);
        for &(u, v) in pairs.iter().take(m) {
            builder.push_edge(u, v);
        }
        return builder.build();
    }

    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    while chosen.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = if direction == Direction::Undirected && u > v { (v, u) } else { (u, v) };
        if chosen.insert(key) {
            builder.push_edge(key.0, key.1);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::rng_from_seed;

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = rng_from_seed(1);
        let g = gnm(100, 250, Direction::Undirected, &mut rng).unwrap();
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 250);
    }

    #[test]
    fn gnm_directed_exact_edge_count() {
        let mut rng = rng_from_seed(2);
        let g = gnm(50, 400, Direction::Directed, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 400);
        assert!(g.is_directed());
    }

    #[test]
    fn gnm_dense_path_complete_graph() {
        let mut rng = rng_from_seed(3);
        let g = gnm(10, 45, Direction::Undirected, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 45);
        assert_eq!(g.max_degree(), 9);
    }

    #[test]
    #[should_panic(expected = "simple pairs exist")]
    fn gnm_rejects_impossible_requests() {
        let mut rng = rng_from_seed(4);
        let _ = gnm(4, 100, Direction::Undirected, &mut rng);
    }

    #[test]
    fn gnm_is_deterministic() {
        let a = gnm(60, 120, Direction::Undirected, &mut rng_from_seed(9)).unwrap();
        let b = gnm(60, 120, Direction::Undirected, &mut rng_from_seed(9)).unwrap();
        assert_eq!(a, b);
    }
}
