//! `psr frontier` — the orchestrated privacy–utility sweep lab.
//!
//! Loads (or defaults) an experiment plan, runs or resumes the sweep it
//! declares through `psr-frontier`, and — once every cell is measured —
//! writes the single machine-readable `frontier.json` report next to a
//! human-readable summary on stdout. Incomplete invocations (a kill, or
//! an explicit `--max-cells` budget) say how far they got; re-running
//! the same command resumes from the results journal instead of
//! recomputing anything.

use std::path::{Path, PathBuf};
use std::time::Duration;

use psr_frontier::{run_sweep, ExperimentPlan, FrontierReport, SweepOptions};

use crate::args::FrontierOptions;

/// Entry point for `psr frontier`.
pub fn run(opts: &FrontierOptions) -> Result<(), String> {
    if let Some(path) = &opts.write_plan {
        super::write(path, ExperimentPlan::toy().to_json() + "\n")?;
        println!("template plan written to {path}; edit it and run psr frontier --plan {path}");
        return Ok(());
    }

    let plan = match &opts.plan {
        Some(path) => ExperimentPlan::from_json(&super::read(path)?)
            .map_err(|e| format!("plan {path}: {e}"))?,
        None => ExperimentPlan::toy(),
    };

    // The journal defaults to living next to the report, so the bare
    // command is already kill-safe and resumable.
    let journal: Option<PathBuf> = if opts.no_journal {
        None
    } else {
        Some(
            opts.journal
                .as_ref()
                .map(PathBuf::from)
                .unwrap_or_else(|| Path::new(&opts.out).with_extension("journal")),
        )
    };
    // Telemetry goes to the `--metrics-out`/`--trace` side files, never
    // into `frontier.json`: the report is pinned byte-identical across
    // worker counts and kill/resume boundaries, and latency data is not.
    let telemetry = super::build_telemetry(&opts.telemetry);
    let sweep = SweepOptions {
        threads: opts.run.threads,
        journal: journal.clone(),
        max_cells: opts.max_cells,
        telemetry: Some(telemetry.clone()),
        heartbeat: opts.telemetry.heartbeat.map(Duration::from_secs),
    };
    let outcome = run_sweep(&plan, &sweep)?;
    super::finish_telemetry(&telemetry, &opts.telemetry)?;

    if !outcome.complete {
        let measured = outcome.results.len();
        println!(
            "frontier '{}': {measured}/{} cells measured ({} computed now, {} resumed); \
             run the same command again to resume from {}",
            plan.name,
            outcome.total,
            outcome.computed,
            outcome.resumed,
            journal.as_deref().map_or_else(|| "scratch".to_owned(), |p| p.display().to_string()),
        );
        return Ok(());
    }

    let report = FrontierReport::assemble(&plan, outcome.fingerprint, outcome.results);
    super::write(&opts.out, report.to_json() + "\n")?;
    print!("{}", report.render_text());
    println!(
        "report written to {} ({} cells computed now, {} resumed from the journal)",
        opts.out, outcome.computed, outcome.resumed
    );
    Ok(())
}
