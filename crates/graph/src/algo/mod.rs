//! Link-analysis algorithms used by the paper's utility functions and
//! experiments.
//! Every 2-hop-local utility scores through one walk kernel,
//! [`WalkWorkspace`], lent by [`with_walk`] from one process-wide pool
//! that keeps at most `available_parallelism()` idle workspaces.

mod bfs;
mod clustering;
mod components;
mod neighbors;
mod stats;
mod walks;

pub use bfs::{bfs_distances, k_hop_neighborhood, UNREACHABLE};
pub use clustering::{
    average_clustering, global_clustering, local_clustering, triangle_count, triangles_at,
};
pub use components::{connected_components, largest_component, ComponentLabels};
pub use neighbors::{common_neighbor_count, common_neighbor_counts};
pub use stats::{degree_histogram, DegreeStats};
pub use walks::{with_walk, WalkWorkspace};
