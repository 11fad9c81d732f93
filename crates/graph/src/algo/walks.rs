//! The one walk kernel behind every 2-hop-local utility (§4.1, §5.2, §8):
//! [`WalkWorkspace`] and the pool [`with_walk`] lends it from.

use std::ops::Add;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::node::{ix, NodeId};
use crate::view::GraphView;

/// A drain sorts its ids when they are fewer than `n / DENSE_DRAIN`, and
/// scans the id range otherwise.
const DENSE_DRAIN: usize = 16;

/// Reusable state of the walk kernel. A walk pushes mass a bounded
/// number of hops out of a source and emits `(node, value)` in ascending
/// id order: 2-step counts in a `u32` array, or per-length weighted sums
/// in `f64` arrays that only weighted walks size. Every hop after the
/// first reads through [`GraphView::neighbors_into`]; only touched entries
/// are reset, and the arrays grow when a `DeltaGraph` adds nodes.
///
/// On a simple graph every walk of length ≤ 3 from `r` to a non-neighbour
/// `y` is a path (`r→a→b→y` repeats a node only if `a = y` or `b = r`,
/// both needing the edge `(r, y)`), so counting walks scores §7.1's
/// truncated paths exactly. Sums have a fixed order: the first hop in id
/// order, each score's lengths in increasing order; deeper levels add
/// integer counts, which `f64` sums exactly below 2⁵³ in any order.
#[derive(Debug, Default)]
pub struct WalkWorkspace {
    /// 2-step walk counts.
    hits: Vec<u32>,
    /// Mass at the current and next level, and the weighted score.
    cur: Vec<f64>,
    next: Vec<f64>,
    score: Vec<f64>,
    /// Nodes with mass at the current level, reached at the next one, and
    /// with a non-zero entry in `hits` or `score`.
    frontier: Vec<NodeId>,
    touched: Vec<NodeId>,
    scored: Vec<NodeId>,
    /// Decode scratch for [`GraphView::neighbors_into`].
    scratch: Vec<NodeId>,
}

impl WalkWorkspace {
    /// Calls `emit(i, c)` for every node `i` reached by `c ≥ 1` 2-step
    /// out-walks from `r` (`c = C(i, r)` on undirected graphs), in
    /// ascending id order. `r` and its neighbours can be among them.
    pub fn common_neighbors<V: GraphView + ?Sized>(
        &mut self,
        graph: &V,
        r: NodeId,
        emit: impl FnMut(NodeId, u32),
    ) {
        let n = graph.num_nodes();
        self.hits.resize(self.hits.len().max(n), 0);
        let hits = &mut self.hits[..n];
        spread(graph, graph.neighbors(r), |_| 1, hits, &mut self.scored, &mut self.scratch);
        drain(hits, &mut self.scored, emit);
    }

    /// Calls `emit(y, s)` for every node `y` with a non-zero score `s =
    /// Σ_l weights[l - 1] · mass_l(y)`, in ascending id order, where
    /// `mass_l(y)` sums the `first_hop` weight of the first node of every
    /// out-walk of length `l` from `source` to `y`.
    pub fn weighted<V: GraphView + ?Sized>(
        &mut self,
        graph: &V,
        source: NodeId,
        first_hop: impl Fn(NodeId) -> f64,
        weights: &[f64],
        emit: impl FnMut(NodeId, f64),
    ) {
        let n = graph.num_nodes();
        let WalkWorkspace { cur, next, score, frontier, touched, scored, scratch, .. } = self;
        for level in [&mut *cur, &mut *next, &mut *score] {
            level.resize(level.len().max(n), 0.0);
        }
        for &a in graph.neighbors(source) {
            cur[ix(a)] = first_hop(a);
            if cur[ix(a)] != 0.0 {
                frontier.push(a);
            }
        }
        for (length, &weight) in weights.iter().enumerate() {
            if length > 0 {
                spread(graph, frontier, |v| cur[ix(v)], next, touched, scratch);
                frontier.drain(..).for_each(|v| cur[ix(v)] = 0.0);
                std::mem::swap(cur, next);
                std::mem::swap(frontier, touched);
            }
            for &v in frontier.iter() {
                let before = score[ix(v)];
                score[ix(v)] = before + weight * cur[ix(v)];
                if before == 0.0 && score[ix(v)] != 0.0 {
                    scored.push(v);
                }
            }
        }
        frontier.drain(..).for_each(|v| cur[ix(v)] = 0.0);
        drain(&mut score[..n], scored, emit);
    }
}

/// Adds `mass(a)` to `acc[w]` for every arc `a → w` out of `from` and
/// appends each `w` whose entry was zero to `touched`. Branch-light: every
/// visited id is written and kept only when its entry was zero, a data
/// dependency the CPU handles far better than a mispredicted branch.
fn spread<V, T>(
    graph: &V,
    from: &[NodeId],
    mass: impl Fn(NodeId) -> T,
    acc: &mut [T],
    touched: &mut Vec<NodeId>,
    scratch: &mut Vec<NodeId>,
) where
    V: GraphView + ?Sized,
    T: Copy + Default + PartialEq + Add<Output = T>,
{
    let mut len = touched.len();
    for &a in from {
        let m = mass(a);
        let hop = graph.neighbors_into(a, scratch);
        touched.resize(len + hop.len(), 0);
        for &w in hop {
            let c = acc[ix(w)];
            touched[len] = w;
            len += (c == T::default()) as usize;
            acc[ix(w)] = c + m;
        }
        touched.truncate(len);
    }
}

/// Emits and zeroes `acc[v]` for every `v` in `touched` (exactly the
/// non-zero entries) in ascending id order.
fn drain<T: Default + PartialEq>(
    acc: &mut [T],
    touched: &mut Vec<NodeId>,
    mut emit: impl FnMut(NodeId, T),
) {
    if touched.len() * DENSE_DRAIN >= acc.len() {
        let nonzero = acc.iter_mut().enumerate().filter(|(_, x)| **x != T::default());
        nonzero.for_each(|(v, x)| emit(v as NodeId, std::mem::take(x)));
    } else {
        touched.sort_unstable();
        touched.iter().for_each(|&v| emit(v, std::mem::take(&mut acc[ix(v)])));
    }
    touched.clear();
}

/// Idle workspaces, shared by every thread that walks. A pool rather than
/// a thread-local: serving threads are short-lived (the daemon spawns its
/// job workers per run, a batch map per batch), and each new thread would
/// allocate and zero its own length-n arrays again.
static POOL: Mutex<Vec<WalkWorkspace>> = Mutex::new(Vec::new());

/// Runs `f` on a workspace from the process-wide pool, so scoring a target
/// costs its walk rather than length-n allocations. The pool keeps at
/// most `available_parallelism()` idle workspaces, each sized to the
/// largest graph it walked.
pub fn with_walk<T>(f: impl FnOnce(&mut WalkWorkspace) -> T) -> T {
    lend(&POOL, f)
}

/// Runs `f` on an idle workspace of `pool` (or a new one) and keeps it
/// after, unless `available_parallelism()` are idle already or `f` panicked.
fn lend<T>(pool: &Mutex<Vec<WalkWorkspace>>, f: impl FnOnce(&mut WalkWorkspace) -> T) -> T {
    static CAP: OnceLock<usize> = OnceLock::new();
    let mut walk = pool.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default();
    let out = f(&mut walk);
    let cap = *CAP.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    let mut idle = pool.lock().unwrap_or_else(PoisonError::into_inner);
    if idle.len() < cap {
        idle.push(walk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{directed_from_edges, undirected_from_edges};

    /// Per-length walk counts, one weighted walk per length: a one-hot
    /// weight vector picks out the walks of exactly that length.
    #[derive(Debug, PartialEq)]
    struct WalkCounts {
        per_length: Vec<Vec<(NodeId, f64)>>,
    }

    impl WalkCounts {
        fn count(&self, l: usize, node: NodeId) -> f64 {
            let level = &self.per_length[l - 1];
            level.binary_search_by_key(&node, |&(v, _)| v).map_or(0.0, |i| level[i].1)
        }
    }

    fn count_from(
        wc: &mut WalkWorkspace,
        g: &crate::Graph,
        source: u32,
        max_len: usize,
    ) -> WalkCounts {
        let per_length = (0..max_len)
            .map(|l| {
                let mut weights = vec![0.0; max_len];
                weights[l] = 1.0;
                let mut level = Vec::new();
                wc.weighted(g, source, |_| 1.0, &weights, |v, c| level.push((v, c)));
                level
            })
            .collect();
        WalkCounts { per_length }
    }

    #[test]
    fn path_graph_walks() {
        let g = undirected_from_edges([(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut wc = WalkWorkspace::default();
        let walks = count_from(&mut wc, &g, 0, 3);
        // Length 1: just node 1.
        assert_eq!(walks.per_length[0], vec![(1, 1.0)]);
        // Length 2: 0-1-0 and 0-1-2.
        assert_eq!(walks.per_length[1], vec![(0, 1.0), (2, 1.0)]);
        // Length 3: 0-1-0-1, 0-1-2-1 (to 1) and 0-1-2-3 (to 3).
        assert_eq!(walks.count(3, 1), 2.0);
        assert_eq!(walks.count(3, 3), 1.0);
        assert_eq!(walks.count(3, 0), 0.0);
    }

    #[test]
    fn triangle_walk_counts() {
        let g = undirected_from_edges([(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut wc = WalkWorkspace::default();
        let walks = count_from(&mut wc, &g, 0, 3);
        assert_eq!(walks.count(2, 0), 2.0); // 0-1-0, 0-2-0
        assert_eq!(walks.count(2, 1), 1.0); // 0-2-1
        assert_eq!(walks.count(3, 0), 2.0); // 0-1-2-0, 0-2-1-0
        assert_eq!(walks.count(3, 1), 3.0); // 0-1-0-1, 0-1-2-1, 0-2-0-1
    }

    /// Brute-force *path* enumeration (distinct nodes) for cross-checking.
    fn count_paths(g: &crate::Graph, src: u32, dst: u32, len: usize) -> f64 {
        fn rec(g: &crate::Graph, cur: u32, dst: u32, left: usize, seen: &mut Vec<u32>) -> f64 {
            if left == 0 {
                return if cur == dst { 1.0 } else { 0.0 };
            }
            let mut total = 0.0;
            for &w in g.neighbors(cur) {
                if !seen.contains(&w) {
                    seen.push(w);
                    total += rec(g, w, dst, left - 1, seen);
                    seen.pop();
                }
            }
            total
        }
        rec(g, src, dst, len, &mut vec![src])
    }

    /// The documented claim: for candidates not adjacent to the source (and
    /// not the source), walks of length ≤ 3 are exactly paths.
    #[test]
    fn walks_are_paths_for_non_adjacent_candidates() {
        // A dense-ish graph exercising many walk shapes.
        let g = undirected_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 4),
            (2, 4),
            (3, 4),
            (4, 5),
            (5, 6),
            (2, 6),
        ])
        .unwrap();
        let mut wc = WalkWorkspace::default();
        for r in g.nodes() {
            let walks = count_from(&mut wc, &g, r, 3);
            for y in g.nodes() {
                if y == r || g.has_edge(r, y) {
                    continue;
                }
                for l in 2..=3 {
                    assert_eq!(
                        walks.count(l, y),
                        count_paths(&g, r, y, l),
                        "walks != paths for r={r} y={y} l={l}"
                    );
                }
            }
        }
    }

    #[test]
    fn directed_walks_follow_arcs() {
        let g = directed_from_edges([(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut wc = WalkWorkspace::default();
        let walks = count_from(&mut wc, &g, 0, 3);
        assert_eq!(walks.count(1, 1), 1.0);
        assert_eq!(walks.count(2, 2), 1.0);
        assert_eq!(walks.count(3, 0), 1.0);
        assert_eq!(walks.count(2, 0), 0.0);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = undirected_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let mut wc = WalkWorkspace::default();
        let a = count_from(&mut wc, &g, 0, 3);
        let b = count_from(&mut wc, &g, 0, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_keeps_at_most_one_idle_workspace_per_hardware_thread() {
        let pool = Mutex::new(Vec::new());
        let g = undirected_from_edges([(0, 1), (1, 2), (2, 3)]).unwrap();
        let cap = std::thread::available_parallelism().map_or(1, usize::from);
        // More walks at once than the cap: each holds its workspace until
        // all of them have one.
        let walkers = cap + 2;
        let barrier = std::sync::Barrier::new(walkers);
        std::thread::scope(|s| {
            for _ in 0..walkers {
                s.spawn(|| {
                    lend(&pool, |walk| {
                        walk.common_neighbors(&g, 0, |_, _| {});
                        barrier.wait();
                    })
                });
            }
        });
        assert_eq!(pool.lock().unwrap().len(), cap);

        // A workspace whose walk panicked is not returned.
        let pool = Mutex::new(Vec::new());
        let panicked = std::panic::catch_unwind(|| {
            lend(&pool, |walk| {
                walk.common_neighbors(&g, 0, |_, _| panic!("walk failed midway"));
            })
        });
        assert!(panicked.is_err());
        assert_eq!(pool.lock().unwrap().len(), 0);
        lend(&pool, |walk| walk.common_neighbors(&g, 0, |_, _| {}));
        assert_eq!(pool.lock().unwrap().len(), 1);
    }
}
