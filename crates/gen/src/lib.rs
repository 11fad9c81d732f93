//! Synthetic social-graph generators.
//!
//! The paper evaluates on two real graphs (the SNAP Wikipedia vote network
//! and a Twitter sample) that are not redistributable with this repository.
//! Its theory and experiments depend on *degree structure* — bounds are
//! functions of `d_r`, `t` and `n`, and utilities are local path counts —
//! so this crate provides generators whose outputs match those graphs'
//! structural statistics (see `psr-datasets` for the matched presets):
//!
//! * [`erdos_renyi`] — the `G(n, m)` baseline,
//! * [`barabasi_albert`] — preferential attachment (heavy-tailed degrees,
//!   the model behind "power law degree distribution" in §5.1),
//! * [`watts_strogatz`](mod@watts_strogatz) — small-world ring lattices,
//! * [`rmat`] — streaming R-MAT arc sampling for LiveJournal-class graphs
//!   that must be built out of core (`psr_graph::OutOfCoreBuilder`).
//!
//! All generators are deterministic given a [`seed`], making every figure
//! in the reproduction replayable.
//!
//! Beyond static bases, [`stream`] generates timestamped
//! insert/delete mutation sequences over any of them — the workload the
//! dynamic-graph subsystem (`psr_graph::DeltaGraph`, serving epochs,
//! `psr serve --mutations`) consumes.

pub mod barabasi_albert;
pub mod erdos_renyi;
pub mod rmat;
pub mod seed;
pub mod stream;
pub mod watts_strogatz;

pub use barabasi_albert::{ba_directed, ba_undirected, BaParams};
pub use erdos_renyi::gnm;
pub use rmat::{rmat_arcs, RmatArcs, RmatParams};
pub use seed::{rng_from_seed, split_seed};
pub use stream::{
    edge_stream, request_stream, ReplayClock, RequestEvent, RequestStreamParams, StreamEvent,
    StreamParams,
};
pub use watts_strogatz::watts_strogatz;
