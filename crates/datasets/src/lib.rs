//! Dataset layer for the reproduction.
//!
//! The paper evaluates on two graphs we cannot redistribute:
//!
//! * **Wikipedia vote network** `G_WV` — 7,115 nodes, 100,762 edges after
//!   symmetrisation (SNAP `wiki-Vote`),
//! * **Twitter connections sample** `G_T` — 96,403 nodes, 489,986 directed
//!   edges, maximum degree 13,181 (from Silberstein et al. \[25\]).
//!
//! [`wiki_vote_like`] and [`twitter_like`] generate synthetic stand-ins
//! with matched node/edge counts, heavy-tailed degree structure, and (for
//! the Twitter preset) a forced 13k-degree hub. That preserves what the
//! experiments measure: the bounds are functions of `d_r`, `t` and `n`,
//! and the utilities are local path counts. When the real SNAP files are
//! available, [`load_snap`] drops them in transparently.
//! [`toy::karate_club`] ships a small classic graph for examples and
//! tests. [`DatasetSpec`] names one graph source (a [`Preset`], an edge
//! list or a snapshot, through a [`Backend`]) and is the one loader the
//! CLI and frontier plans share.

pub mod meta;
pub mod presets;
pub mod source;
pub mod toy;

pub use meta::DatasetMeta;
pub use presets::{
    livejournal_like, livejournal_like_snapshot, twitter_like, wiki_vote_like, PresetConfig,
};
pub use source::{Backend, DatasetSpec, Preset};

use std::path::Path;

use psr_graph::io::IdMap;
use psr_graph::{Direction, Graph, Result};

/// Loads a SNAP-format edge list from disk (comments with `#`, whitespace
/// separated pairs, arbitrary ids), compacting node ids. Use
/// `Direction::Undirected` for `wiki-Vote.txt` to apply the paper's
/// symmetrisation.
///
/// The returned [`IdMap`] recovers the file's original node labels from
/// compact ids — attack and serving reports use it to name nodes the way
/// the source data does instead of by internal index.
pub fn load_snap(path: &Path, direction: Direction) -> Result<(Graph, IdMap)> {
    let file = std::fs::File::open(path)?;
    psr_graph::io::read_edge_list(file, direction)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_snap_round_trip_via_tempfile() {
        let dir = std::env::temp_dir().join("psr-datasets-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.txt");
        std::fs::write(&path, "# comment\n10 21\n21 32\n32 10\n").unwrap();
        let (g, ids) = load_snap(&path, Direction::Undirected).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        // Original labels survive the id compaction, in first-seen order.
        assert_eq!((ids.original(0), ids.original(1), ids.original(2)), (10, 21, 32));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_snap_missing_file_errors() {
        let err = load_snap(Path::new("/nonexistent/psr.txt"), Direction::Directed);
        assert!(err.is_err());
    }
}
