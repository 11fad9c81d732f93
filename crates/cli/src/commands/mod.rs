//! Command implementations.

mod attack_cmd;
mod bounds_cmd;
mod build_snapshot_cmd;
mod claims_cmd;
mod daemon_cmd;
mod dataset_cmd;
mod figure_cmd;
mod frontier_cmd;
mod recommend_cmd;
mod serve_cmd;

use std::sync::Arc;

use psr_graph::io::IdMap;
use psr_obs::{MetricsSnapshot, Telemetry};

use crate::args::{Command, TelemetryFlags};

/// Dispatches a parsed command. Bad inputs (a missing file, a corrupt
/// snapshot, a malformed request list) come back as `Err`.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Figure { id, opts } => figure_cmd::run(&id, &opts),
        Command::Claims { opts } => claims_cmd::run(&opts),
        Command::Bounds { topic } => {
            bounds_cmd::run(&topic);
            Ok(())
        }
        Command::Dataset { name, opts } => dataset_cmd::run(&name, &opts),
        Command::Recommend { opts } => recommend_cmd::run(&opts),
        Command::Serve { opts } => serve_cmd::run(&opts),
        Command::Attack { opts } => attack_cmd::run(&opts),
        Command::Daemon { opts } => daemon_cmd::run(&opts),
        Command::BuildSnapshot { opts } => build_snapshot_cmd::run(&opts),
        Command::Frontier { opts } => frontier_cmd::run(&opts),
    }
}

/// Writes an output file, naming the path on failure.
pub(crate) fn write(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// Reads an input file, naming the path on failure.
pub(crate) fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Writes a JSON report to `--json`, printing `headline` and the path, or
/// prints the report to stdout when no path was given.
pub(crate) fn emit_json(json: &str, path: Option<&str>, headline: &str) -> Result<(), String> {
    match path {
        Some(path) => {
            write(path, json)?;
            println!("{headline} -> {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Builds a command's telemetry bundle: live when `--metrics-out` or
/// `--trace` was given, disabled (every handle a no-op) otherwise.
/// Shared by `serve`, `daemon` and `frontier`.
pub(crate) fn build_telemetry(flags: &TelemetryFlags) -> Arc<Telemetry> {
    if flags.metrics_out.is_some() || flags.trace.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Writes the metrics snapshot and/or trace JSONL the user asked for and
/// returns the snapshot so the command's JSON report can embed it.
/// Returns `None` (and writes nothing) when telemetry was never enabled.
pub(crate) fn finish_telemetry(
    telemetry: &Telemetry,
    flags: &TelemetryFlags,
) -> Result<Option<MetricsSnapshot>, String> {
    if !telemetry.is_enabled() {
        return Ok(None);
    }
    let snapshot = telemetry.metrics().snapshot();
    if let Some(path) = &flags.metrics_out {
        write(path, serde_json::to_string_pretty(&snapshot).expect("serialisable") + "\n")?;
    }
    if let Some(path) = &flags.trace {
        write(path, telemetry.trace().to_jsonl())?;
    }
    Ok(Some(snapshot))
}

/// Renders a compact node id under an optional [`IdMap`]: the original
/// label when the graph came from a file, the compact id itself
/// otherwise.
pub(crate) fn original_label(ids: Option<&IdMap>, node: psr_graph::NodeId) -> u64 {
    ids.map_or(node as u64, |m| m.original(node))
}
