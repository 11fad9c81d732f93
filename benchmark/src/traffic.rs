//! Seeded traffic: request targets and always-applicable mutation batches.
//!
//! The generators read the base graph through `GraphView` only, so the
//! 1M-node workload never materialises its snapshot as an in-RAM CSR (the
//! `psr_gen::stream` generators need a concrete `Graph` and copy its
//! whole edge list). Mutations are tracked in a small overlay so every
//! insert hits a current non-edge and every delete a current edge, in the
//! order the service applies them.

use std::collections::HashSet;

use psr_gen::rng_from_seed;
use psr_graph::{EdgeMutation, GraphView, MutationOp, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// How request targets are drawn.
#[derive(Debug, Clone, Copy)]
pub enum TargetLaw {
    /// Uniform over the nodes with at least one out-neighbour.
    Uniform,
    /// Zipf over a seeded permutation of those nodes, with this exponent.
    Zipf(f64),
}

/// Draws request targets.
pub struct TargetSampler {
    eligible: Vec<NodeId>,
    /// Cumulative weights by popularity rank (Zipf only).
    cdf: Option<Vec<f64>>,
}

impl TargetSampler {
    pub fn new(graph: &dyn GraphView, law: TargetLaw, rng: &mut StdRng) -> Self {
        let mut eligible: Vec<NodeId> = graph.nodes().filter(|&v| graph.degree(v) > 0).collect();
        let cdf = match law {
            TargetLaw::Uniform => None,
            TargetLaw::Zipf(exponent) => {
                // Popularity ranks are a seeded shuffle, so the hot set is
                // not simply the oldest (highest-degree) BA nodes.
                for i in (1..eligible.len()).rev() {
                    eligible.swap(i, rng.gen_range(0..=i));
                }
                let mut acc = 0.0;
                let cdf = (1..=eligible.len())
                    .map(|rank| {
                        acc += (rank as f64).powf(-exponent);
                        acc
                    })
                    .collect();
                Some(cdf)
            }
        };
        TargetSampler { eligible, cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> NodeId {
        match &self.cdf {
            None => self.eligible[rng.gen_range(0..self.eligible.len())],
            Some(cdf) => {
                let x = rng.gen::<f64>() * cdf[cdf.len() - 1];
                let rank = cdf.partition_point(|&c| c <= x).min(cdf.len() - 1);
                self.eligible[rank]
            }
        }
    }
}

/// Generates valid mutation batches against a base graph plus the
/// mutations generated so far.
pub struct MutationGen<G: GraphView> {
    base: G,
    directed: bool,
    insert_fraction: f64,
    inserted: HashSet<(NodeId, NodeId)>,
    deleted: HashSet<(NodeId, NodeId)>,
    rng: StdRng,
}

impl<G: GraphView> MutationGen<G> {
    pub fn new(base: G, insert_fraction: f64, seed: u64) -> Self {
        let directed = base.is_directed();
        MutationGen {
            base,
            directed,
            insert_fraction,
            inserted: HashSet::new(),
            deleted: HashSet::new(),
            rng: rng_from_seed(seed),
        }
    }

    fn key(&self, u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if self.directed || u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    fn exists(&self, key: (NodeId, NodeId)) -> bool {
        self.inserted.contains(&key)
            || (self.base.has_edge(key.0, key.1) && !self.deleted.contains(&key))
    }

    fn one(&mut self) -> EdgeMutation {
        let n = self.base.num_nodes() as NodeId;
        if self.rng.gen::<f64>() >= self.insert_fraction {
            // Delete a base edge still present: a random arc of a random
            // node with out-neighbours.
            for _ in 0..1_000 {
                let u = self.rng.gen_range(0..n);
                let degree = self.base.degree(u);
                if degree == 0 {
                    continue;
                }
                let v = self.base.neighbors(u)[self.rng.gen_range(0..degree)];
                let key = self.key(u, v);
                if !self.deleted.contains(&key) && !self.inserted.contains(&key) {
                    self.deleted.insert(key);
                    return EdgeMutation::delete(u, v);
                }
            }
        }
        loop {
            let (u, v) = (self.rng.gen_range(0..n), self.rng.gen_range(0..n));
            let key = self.key(u, v);
            if u == v || self.exists(key) {
                continue;
            }
            if !self.deleted.remove(&key) {
                self.inserted.insert(key);
            }
            return EdgeMutation::insert(u, v);
        }
    }

    pub fn batch(&mut self, size: usize) -> Vec<EdgeMutation> {
        (0..size).map(|_| self.one()).collect()
    }
}

/// The edge changes applied during a run, by the epoch version they
/// opened, so a served list can be checked against the graph of the epoch
/// it was pinned to after later epochs have moved on.
#[derive(Default)]
pub struct EdgeHistory {
    /// Per arc key: `(version, op)` in application order.
    ops: std::collections::HashMap<(NodeId, NodeId), Vec<(u64, MutationOp)>>,
    /// Per node: the versions at which one of its out-arcs changed, and
    /// the sign of the change.
    degree_changes: std::collections::HashMap<NodeId, Vec<(u64, i64)>>,
    directed: bool,
}

impl EdgeHistory {
    pub fn new(directed: bool) -> Self {
        EdgeHistory { directed, ..Default::default() }
    }

    pub fn record(&mut self, version: u64, mutations: &[EdgeMutation]) {
        for m in mutations {
            let sign = if m.op == MutationOp::Insert { 1 } else { -1 };
            let key = if self.directed || m.u < m.v { (m.u, m.v) } else { (m.v, m.u) };
            self.ops.entry(key).or_default().push((version, m.op));
            self.degree_changes.entry(m.u).or_default().push((version, sign));
            if !self.directed {
                self.degree_changes.entry(m.v).or_default().push((version, sign));
            }
        }
    }

    /// Whether arc `(u, v)` existed at `version`, given whether it exists
    /// in `now` (the latest graph).
    pub fn had_edge(&self, now: &dyn GraphView, version: u64, u: NodeId, v: NodeId) -> bool {
        let key = if self.directed || u < v { (u, v) } else { (v, u) };
        match self.ops.get(&key).and_then(|ops| ops.iter().find(|(ver, _)| *ver > version)) {
            // The first change after `version` tells the state before it.
            Some((_, MutationOp::Insert)) => false,
            Some((_, MutationOp::Delete)) => true,
            None => now.has_edge(u, v),
        }
    }

    /// Out-degree of `v` at `version`, given the latest graph.
    pub fn degree_at(&self, now: &dyn GraphView, version: u64, v: NodeId) -> usize {
        let later: i64 = self
            .degree_changes
            .get(&v)
            .map_or(0, |c| c.iter().filter(|(ver, _)| *ver > version).map(|(_, s)| s).sum());
        (now.degree(v) as i64 - later) as usize
    }
}
