//! Graph substrate for the `private-social-recs` workspace.
//!
//! This crate provides everything the reproduction of
//! *"Personalized Social Recommendations — Accurate or Private?"*
//! (Machanavajjhala, Korolova, Das Sarma; VLDB 2011) needs from a graph
//! library, built from scratch:
//!
//! * [`Graph`] — an immutable, compressed-sparse-row (CSR) graph optimised
//!   for the read-heavy link-analysis workloads of the paper (common
//!   neighbours, truncated walk counting, BFS).
//! * [`GraphBuilder`] — deduplicating, validating construction, with
//!   optional symmetrisation for undirected graphs.
//! * [`MutableGraph`] — a sorted adjacency-list graph supporting the
//!   single-edge additions/removals that differential-privacy
//!   neighbourhood arguments (and the paper's `t` edit-distance
//!   experiments) require.
//! * [`GraphView`] — the read-only abstraction (`neighbors` / `degree` /
//!   `has_edge` / `nodes`) every kernel consumes, implemented by
//!   [`Graph`], [`MutableGraph`] and [`DeltaGraph`] alike.
//! * [`DeltaGraph`] — a dynamic overlay of [`EdgeMutation`]s (insertions,
//!   tombstoned deletions, per-node dirty sets) over an `Arc`-shared CSR
//!   base, with `compact()` back into a fresh snapshot. One applied
//!   mutation steps the view to an edge-adjacent graph in the sense of
//!   the paper's Definition 1, which is the granularity the serving
//!   layer's epoch/ε-budget accounting reasons about.
//! * [`io`] — SNAP-style edge-list text I/O.
//! * [`algo`] — BFS, connected components, degree statistics, truncated
//!   walk counting and common-neighbour counting (generic over
//!   [`GraphView`]).
//!
//! # Example
//!
//! ```
//! use psr_graph::{GraphBuilder, Direction};
//!
//! // The triangle 0-1-2 plus a pendant node 3.
//! let g = GraphBuilder::new(Direction::Undirected)
//!     .add_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
//!     .build()
//!     .unwrap();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.neighbors(2), &[0, 1, 3]);
//! assert!(g.has_edge(0, 1));
//! ```

mod adjacency;
pub mod algo;
mod builder;
pub mod compressed;
mod csr;
mod delta;
mod error;
pub mod io;
mod mutation;
mod node;
pub mod shard;
mod view;

pub use adjacency::MutableGraph;
pub use builder::{
    directed_from_edges, undirected_from_edges, Direction, GraphBuilder, OutOfCoreBuilder,
    SnapshotStats,
};
pub use compressed::{CacheStats, CompressedCsr};
pub use csr::Graph;
pub use delta::DeltaGraph;
pub use error::GraphError;
pub use mutation::{rewire_node, EdgeMutation, MutationOp};
pub use node::NodeId;
pub use shard::{degree_balanced_shards, shards_from_degrees, ShardRange, ShardedGraph};
pub use view::{GraphBackend, GraphView};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
