//! `psr build-snapshot` — build a compressed, sharded `PSRZ` graph
//! snapshot on disk, ready for `psr serve|daemon|attack --snapshot`.
//!
//! The `livejournal` preset (the default) streams R-MAT arcs straight
//! through `psr_graph::OutOfCoreBuilder`, so the graph is never
//! materialised in RAM — peak memory is the `--arc-budget` spill buffer
//! plus one offset and degree per node. The other presets and `--input`
//! files are built in RAM first (they are orders of magnitude smaller)
//! and encoded with the same codec.

use std::path::Path;

use psr_datasets::{livejournal_like_snapshot, Preset, PresetConfig};
use psr_graph::{CompressedCsr, SnapshotStats};
use serde::Serialize;

use crate::args::BuildSnapshotOptions;

/// The JSON stats report emitted by `psr build-snapshot`.
#[derive(Debug, Serialize)]
struct BuildReport {
    out: String,
    preset: String,
    scale: f64,
    seed: u64,
    stats: SnapshotStats,
}

pub fn run(opts: &BuildSnapshotOptions) -> Result<(), String> {
    let out = Path::new(&opts.out);
    let graph = &opts.graph;
    let stats = if graph.input.is_none() && graph.preset == Preset::LiveJournal.name() {
        let config = PresetConfig::scaled(graph.scale, opts.run.seed);
        livejournal_like_snapshot(config, opts.arc_budget, opts.shards, out)
            .map_err(|e| format!("building {}: {e}", opts.out))?
    } else {
        let graph = graph.load(opts.run.seed)?.0.to_graph_arc();
        let bytes = CompressedCsr::encode(graph.as_ref(), opts.shards);
        let snapshot_bytes = bytes.len() as u64;
        super::write(&opts.out, &bytes)?;
        // Re-open to compute the data-region size (and prove the file we
        // just wrote validates).
        let compressed =
            CompressedCsr::open_bytes(bytes).expect("a freshly encoded snapshot always validates");
        SnapshotStats {
            num_nodes: graph.num_nodes(),
            num_edges: graph.num_edges(),
            num_arcs: compressed.num_arcs(),
            shard_count: compressed.shards().len(),
            snapshot_bytes,
            data_bytes: compressed.data_region_len() as u64,
            spilled_runs: 0,
        }
    };

    let report = BuildReport {
        out: opts.out.clone(),
        preset: graph.input.clone().unwrap_or_else(|| graph.preset.clone()),
        scale: graph.scale,
        seed: opts.run.seed,
        stats,
    };
    let headline = format!(
        "wrote {} ({} nodes, {} arcs, {} shards, {} bytes, {} spilled runs)",
        report.out,
        report.stats.num_nodes,
        report.stats.num_arcs,
        report.stats.shard_count,
        report.stats.snapshot_bytes,
        report.stats.spilled_runs,
    );
    let json = serde_json::to_string_pretty(&report).expect("serialisable");
    super::emit_json(&json, opts.run.json.as_deref(), &headline)
}
