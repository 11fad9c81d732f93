//! The node-identity privacy game (Appendix A): two worlds differing in
//! one node's *entire* edge set.
//!
//! Definition 1's edge adjacency asks whether one secret edge leaks;
//! Appendix A's node adjacency asks the much harder question — can the
//! service hide *who a node is connected to at all*? Neighbouring graphs
//! now differ in a whole neighbourhood: world 0 keeps node `v`'s edge
//! set, world 1 rewires it to a (typically disjoint) target set via the
//! minimal [`psr_graph::rewire_node`] batch. The paper's exchange
//! argument then needs only `t = 2` such steps, giving the
//! `ε ≥ ln(n)/2` floor of [`psr_bounds::node_privacy`] — node-identity
//! privacy is essentially impossible for accurate recommenders.
//!
//! A [`Secret::Node`](crate::Secret::Node) plays that game empirically on
//! the same [`crate::TwoWorldGame`] the edge game runs on: trials through
//! real [`psr_core::serving::RecommendationService`] batches (a
//! mid-stream epoch applies the whole rewire batch through
//! `apply_mutations`), the same three adversaries scoring the same
//! [`crate::model::WorldModel`] hypothesis pairs, and the same
//! Clopper–Pearson-certified empirical-ε estimator. The only things that
//! change are the hypothesis gap and the theory the measurement is
//! overlaid on ([`crate::comparison::compare`] adds the node-privacy
//! floors and evaluates the accuracy floor at `t = 2`). This module
//! holds the node game's secret and observer selection.
//!
//! Because a rewire moves `|N(v) Δ new|` edges at once, an ε-edge-DP
//! mechanism is only `(|batch| · ε)`-DP at node granularity (group
//! privacy along the edge path between the worlds) — see
//! [`crate::TwoWorldGame::node_transcript_epsilon`]. The acceptance
//! suite (`tests/node_privacy.rs`) pins both sides: the non-private
//! baseline's certified ε̂ floor clears every usable budget, while the
//! DP mechanisms stay within even their *edge-composed* transcript
//! budgets.

use std::sync::Arc;

use psr_graph::{rewire_node, Graph, GraphView, NodeId};
use psr_utility::UtilityFunction;

use crate::harness::{unique_argmax, SEARCH_BUDGET};

/// A deterministic degree-preserving **disjoint** rewire target for `v`:
/// `degree(v)` nodes outside `N(v) ∪ {v}`, preferring nodes at distance
/// 2 (they share a common neighbour with `v`, so the rewire visibly
/// moves common-neighbours utilities) and filling with the smallest
/// remaining ids. `None` when the graph has no node to rewire toward or
/// `v` is isolated.
pub fn default_rewire_target(graph: &Graph, v: NodeId) -> Option<Vec<NodeId>> {
    let want = graph.degree(v);
    if want == 0 {
        return None;
    }
    let eligible = |w: NodeId| {
        w != v && !graph.has_edge(v, w) && (graph.is_directed() || !graph.has_edge(w, v))
    };
    let mut target: Vec<NodeId> = Vec::with_capacity(want);
    // Distance-2 nodes first, in id order…
    let mut two_hop: Vec<NodeId> = graph
        .neighbors(v)
        .iter()
        .flat_map(|&u| graph.neighbors(u).iter().copied())
        .filter(|&w| eligible(w))
        .collect();
    two_hop.sort_unstable();
    two_hop.dedup();
    target.extend(two_hop.into_iter().take(want));
    // …then any other non-adjacent node.
    for w in graph.nodes() {
        if target.len() >= want {
            break;
        }
        if eligible(w) && !target.contains(&w) {
            target.push(w);
        }
    }
    target.sort_unstable();
    (!target.is_empty()).then_some(target)
}

/// Default observers for a node rewire: nodes outside
/// `{v} ∪ N(v) ∪ new_neighbours` that share at least one common
/// neighbour with `v` in the base graph (their utility for `v` is
/// nonzero in world 0, so the rewire moves it), capped, in id order.
pub fn node_observers(
    graph: &Graph,
    v: NodeId,
    new_neighbours: &[NodeId],
    cap: usize,
) -> Vec<NodeId> {
    let nv = graph.neighbors(v);
    graph
        .nodes()
        .filter(|&o| {
            o != v
                && !graph.has_edge(o, v)
                && !graph.has_edge(v, o)
                && !new_neighbours.contains(&o)
                && graph.neighbors(o).iter().any(|w| nv.binary_search(w).is_ok())
        })
        .take(cap)
        .collect()
}

/// The node rewire (and observers) to attack when none is given: the
/// first leak [`leaking_node_rewire`] finds within [`SEARCH_BUDGET`], else
/// the lowest-id node that has a [`default_rewire_target`] and at least
/// one [`node_observers`] observer. The node counterpart of
/// [`crate::search_secret_edge`]; `None` only on graphs with no such node.
pub fn search_node_rewire(
    base: &Arc<Graph>,
    utility: &dyn UtilityFunction,
    observer_cap: usize,
) -> Option<(NodeId, Vec<NodeId>, Vec<NodeId>)> {
    leaking_node_rewire(base, utility, observer_cap, SEARCH_BUDGET).or_else(|| {
        base.nodes().find_map(|v| {
            let new = default_rewire_target(base, v)?;
            let observers = node_observers(base, v, &new, observer_cap);
            (!observers.is_empty()).then_some((v, new, observers))
        })
    })
}

/// Searches for a node rewire that *visibly* leaks through non-private
/// top-1 serving: a node `v` and an observer `o` (non-adjacent to `v`)
/// such that rewiring `v` onto `N(o) ∖ (N(v) ∪ {v, o})` makes `v` the
/// **unique strict** argmax of `o`'s utility vector in world 1 while `o`
/// did not already answer `v` deterministically in world 0. Because the
/// target set sits inside `o`'s neighbourhood, `v`'s utility for `o`
/// jumps to `|new|` — a gap of whole utility units, not the single
/// tie-break of the edge game — so the non-private answer flips
/// deterministically and even heavily-noised mechanisms feel it.
///
/// Returns `(v, new_neighbours, observers)` with `o` first in the
/// observer list, followed by other eligible observers up to
/// `observer_cap`. Scans `(v, o)` pairs in id order, giving up after
/// `max_pairs` rewired-world evaluations (`None` if nothing leaks).
pub fn leaking_node_rewire(
    base: &Arc<Graph>,
    utility: &dyn UtilityFunction,
    observer_cap: usize,
    max_pairs: usize,
) -> Option<(NodeId, Vec<NodeId>, Vec<NodeId>)> {
    let n = base.num_nodes() as NodeId;
    let mut scanned = 0usize;
    for v in 0..n {
        if base.degree(v) == 0 {
            continue;
        }
        for o in 0..n {
            if o == v || base.has_edge(o, v) || base.has_edge(v, o) {
                continue;
            }
            let new: Vec<NodeId> = base
                .neighbors(o)
                .iter()
                .copied()
                .filter(|&w| w != v && w != o && !base.has_edge(v, w))
                .collect();
            if new.is_empty() {
                continue;
            }
            if scanned >= max_pairs {
                return None;
            }
            scanned += 1;
            // Probe through the DeltaGraph overlay — no per-pair CSR
            // rebuild (mirrors `leaking_secret_edge`).
            let Ok(batch) = rewire_node(base.as_ref(), v, &new) else { continue };
            let mut rewired = psr_graph::DeltaGraph::new(Arc::clone(base));
            if batch.iter().any(|m| rewired.apply(m).is_err()) {
                continue;
            }
            let after = utility.utilities_for(&rewired, o);
            if unique_argmax(&after) != Some(v) {
                continue;
            }
            let before = utility.utilities_for(base.as_ref(), o);
            if unique_argmax(&before) == Some(v) {
                continue;
            }
            let mut observers = vec![o];
            observers.extend(
                node_observers(base, v, &new, observer_cap.saturating_sub(1).max(1))
                    .into_iter()
                    .filter(|&w| w != o),
            );
            observers.truncate(observer_cap.max(1));
            return Some((v, new, observers));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ReconstructionAdversary;
    use crate::harness::{AttackMechanism, Epochs, GameConfig, Secret, TwoWorldGame};
    use psr_datasets::toy::karate_club;
    use psr_utility::CommonNeighbors;

    fn leaky(mechanism: AttackMechanism) -> (Arc<Graph>, GameConfig) {
        let graph = Arc::new(karate_club());
        let (v, new, observers) =
            leaking_node_rewire(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
        let config = GameConfig {
            rounds: 3,
            trials_per_world: 12,
            mechanism,
            ..GameConfig::new(Secret::Node { node: v, new_neighbours: new }, observers)
        };
        (graph, config)
    }

    #[test]
    fn leaking_rewire_flips_an_observer_argmax() {
        let graph = Arc::new(karate_club());
        let (v, new, observers) =
            leaking_node_rewire(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
        assert!(!new.is_empty() && !observers.is_empty());
        assert!(new.iter().all(|&w| !graph.has_edge(v, w)), "disjoint target set");
        assert!(observers.iter().all(|&o| o != v && !graph.has_edge(o, v)));
        // The first observer's world-1 argmax is the rewired node.
        let batch = rewire_node(graph.as_ref(), v, &new).unwrap();
        let mut delta = psr_graph::DeltaGraph::new(Arc::clone(&graph));
        for m in &batch {
            delta.apply(m).unwrap();
        }
        let after = CommonNeighbors.utilities_for(&delta, observers[0]);
        assert_eq!(unique_argmax(&after), Some(v));
    }

    #[test]
    fn worlds_differ_by_exactly_the_rewire_batch() {
        let (graph, config) = leaky(AttackMechanism::NonPrivateTopK);
        let Secret::Node { node, new_neighbours } = config.secret.clone() else { unreachable!() };
        let s = TwoWorldGame::new(Arc::clone(&graph), Box::new(CommonNeighbors), config);
        assert_eq!(
            s.rewire_size(),
            graph.degree(node) + new_neighbours.len(),
            "disjoint rewire: |N(v)| deletes + |new| inserts"
        );
        assert!(s.node_transcript_epsilon().is_none(), "non-private has no budget");
    }

    #[test]
    fn non_private_rewire_separates_the_worlds() {
        let (graph, config) = leaky(AttackMechanism::NonPrivateTopK);
        let s = TwoWorldGame::new(graph, Box::new(CommonNeighbors), config);
        let result = s.attack(&s.collect(), &ReconstructionAdversary);
        assert!(
            result.advantage.advantage > crate::comparison::dp_advantage_ceiling(1.0),
            "whole-neighbourhood rewire must leak at least as hard as one edge: {:?}",
            result.advantage
        );
    }

    #[test]
    fn node_budget_scales_the_edge_budget_by_the_batch() {
        let (graph, config) = leaky(AttackMechanism::Exponential { epsilon: 0.5 });
        let s = TwoWorldGame::new(graph, Box::new(CommonNeighbors), config);
        let edge = s.transcript_epsilon().unwrap();
        let node = s.node_transcript_epsilon().unwrap();
        assert!((node - edge * s.rewire_size() as f64).abs() < 1e-12);
    }

    #[test]
    fn rewire_mid_stream_shares_the_pre_epoch_prefix() {
        let (graph, config) = leaky(AttackMechanism::NonPrivateTopK);
        let config =
            GameConfig { epochs: Epochs::MidStream { prefix_rounds: 1 }, rounds: 4, ..config };
        let s = TwoWorldGame::new(graph, Box::new(CommonNeighbors), config);
        let set = s.collect();
        let per_round = s.config().observers.len();
        for (t0, t1) in set.world0.iter().zip(&set.world1) {
            assert_eq!(t0.entries[..per_round], t1.entries[..per_round]);
        }
        let result = s.attack(&set, &ReconstructionAdversary);
        assert!(result.advantage.advantage > 0.8, "{:?}", result.advantage);
    }

    #[test]
    fn default_rewire_target_is_disjoint_and_degree_preserving() {
        let g = karate_club();
        for v in [0u32, 5, 11] {
            let target = default_rewire_target(&g, v).expect("karate nodes have room");
            assert_eq!(target.len(), g.degree(v));
            assert!(target.iter().all(|&w| w != v && !g.has_edge(v, w)));
        }
        // The hub 33 has degree 17 but only 16 non-neighbours: the target
        // clamps to what the graph offers instead of failing.
        let hub = default_rewire_target(&g, 33).expect("clamped, not empty");
        assert_eq!(hub.len(), g.num_nodes() - 1 - g.degree(33));
        assert!(hub.iter().all(|&w| w != 33 && !g.has_edge(33, w)));
    }

    #[test]
    #[should_panic(expected = "changes no edge")]
    fn rewire_to_the_same_neighbourhood_is_rejected() {
        let g = karate_club();
        let same: Vec<NodeId> = g.neighbors(0).to_vec();
        let cfg = GameConfig::new(Secret::Node { node: 0, new_neighbours: same }, vec![9]);
        let _ = TwoWorldGame::new(g, Box::new(CommonNeighbors), cfg);
    }

    #[test]
    #[should_panic(expected = "adjacent to the rewired node")]
    fn observers_may_not_be_adjacent_to_the_node() {
        let g = karate_club();
        let neighbour = g.neighbors(0)[0];
        let new = default_rewire_target(&g, 0).unwrap();
        let cfg = GameConfig::new(Secret::Node { node: 0, new_neighbours: new }, vec![neighbour]);
        let _ = TwoWorldGame::new(g, Box::new(CommonNeighbors), cfg);
    }

    #[test]
    #[should_panic(expected = "rewired node itself")]
    fn the_node_may_not_observe_itself() {
        let g = karate_club();
        let new = default_rewire_target(&g, 0).unwrap();
        let cfg = GameConfig::new(Secret::Node { node: 0, new_neighbours: new }, vec![0]);
        let _ = TwoWorldGame::new(g, Box::new(CommonNeighbors), cfg);
    }
}
