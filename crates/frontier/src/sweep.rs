//! The sweep scheduler: expand, fan out, checkpoint, resume.
//!
//! [`run_sweep`] expands a validated plan into its cells, subtracts the
//! cells already replayed from the results journal, and fans the rest
//! across `psr_core::par`'s indexed map. Determinism is structural, not
//! accidental: each cell derives its own seed stream from the plan seed
//! and the cell *index* and runs its scenario single-threaded, so the
//! worker count only changes wall-clock time — never a byte of any
//! result. Completed cells are journalled (with an `fsync`) the moment
//! they finish, which makes a kill at any point resumable: the next
//! invocation recomputes only what never hit the journal, and the
//! assembled report is bit-identical to an uninterrupted run because
//! cells are ordered by index, not by completion time.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use psr_graph::Graph;
use psr_obs::{fields, Heartbeat, Progress, Telemetry};

use crate::cell::{run_cell, CellResult, CellSpec};
use crate::journal::ResultsJournal;
use crate::plan::ExperimentPlan;

/// Knobs of one sweep invocation (everything else lives in the plan).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` = available parallelism. Any value produces
    /// the same results.
    pub threads: Option<usize>,
    /// Journal path for checkpoint/resume; `None` computes everything in
    /// memory (no resume).
    pub journal: Option<PathBuf>,
    /// Stop after computing this many *new* cells (already-journalled
    /// cells don't count). The sweep reports itself incomplete; invoking
    /// it again continues from the journal. This is how the CI smoke and
    /// the kill/resume tests exercise resumption deterministically.
    pub max_cells: Option<usize>,
    /// Telemetry sink for per-cell trace events, resume counters and the
    /// journal fsync histogram; `None` = disabled. Purely observational:
    /// results are bit-identical either way.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Stderr progress-line period (cells done, ETA); `None` = silent.
    /// Operational output only, never part of any result.
    pub heartbeat: Option<Duration>,
}

/// What one invocation of [`run_sweep`] did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The plan's fingerprint (journal identity).
    pub fingerprint: u64,
    /// Every measured cell so far, sorted by index.
    pub results: Vec<CellResult>,
    /// Cells the grid expands to.
    pub total: usize,
    /// Cells computed by *this* invocation.
    pub computed: usize,
    /// Cells replayed from the journal instead of recomputed.
    pub resumed: usize,
    /// Whether every cell of the grid is now measured.
    pub complete: bool,
}

/// Runs (or resumes) the sweep a plan declares. See the [module
/// docs](self) for the determinism and resume contracts.
pub fn run_sweep(plan: &ExperimentPlan, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    plan.validate()?;
    let cells = plan.expand();
    let fingerprint = plan.fingerprint();
    let total = cells.len();
    let telemetry = opts.telemetry.clone().unwrap_or_else(Telemetry::disabled);

    // Resume: everything already in the journal is settled.
    let (mut journal, replayed) = match &opts.journal {
        Some(path) => {
            let (mut journal, replayed) = ResultsJournal::open(path, fingerprint, total)
                .map_err(|e| format!("opening journal: {e}"))?;
            journal.instrument(telemetry.metrics().histogram("frontier.journal.fsync_ns"));
            (Some(journal), replayed)
        }
        None => (None, Vec::new()),
    };
    let resumed = replayed.len();
    if telemetry.is_enabled() {
        telemetry.metrics().counter("frontier.cells_total").add(total as u64);
        telemetry.metrics().counter("frontier.cells_resumed").add(resumed as u64);
        let trace = telemetry.trace();
        if trace.is_enabled() {
            for cell in &replayed {
                trace.event("frontier.cell.resume", fields!["index" => cell.spec.index]);
            }
        }
    }
    let mut done: Vec<Option<CellResult>> = vec![None; total];
    for cell in replayed {
        let index = cell.spec.index;
        done[index] = Some(cell);
    }

    let mut pending: Vec<&CellSpec> = cells.iter().filter(|c| done[c.index].is_none()).collect();
    if let Some(cap) = opts.max_cells {
        pending.truncate(cap);
    }

    // Load each needed dataset axis exactly once, shared across workers.
    // Presets generate at the plan seed; the attack harness mutates
    // per-trial world copies, so every backing is materialised in RAM.
    let mut graphs: Vec<Option<Arc<Graph>>> = vec![None; plan.datasets.len()];
    for cell in &pending {
        if graphs[cell.dataset].is_none() {
            let (backend, _) = plan.datasets[cell.dataset].load(plan.seed)?;
            graphs[cell.dataset] = Some(backend.to_graph_arc());
        }
    }

    // Fan out: each finished cell is journalled under the lock before it
    // counts as computed. Slots are preassigned by index, so completion
    // order is irrelevant.
    let journal = Mutex::new(journal.as_mut());
    // Heartbeat progress counter: operational only, never results.
    let completed = AtomicUsize::new(0);
    let progress = || {
        let done = completed.load(Ordering::Relaxed);
        Progress {
            summary: format!(
                "{}/{total} cells measured ({done}/{} this run)",
                resumed + done,
                pending.len()
            ),
            done,
            total: pending.len(),
        }
    };
    let computed_cells = Heartbeat::new("psr frontier", opts.heartbeat).run(progress, || {
        psr_core::par::try_map(psr_core::par::threads(opts.threads), pending.len(), |slot| {
            let spec = pending[slot];
            let graph = graphs[spec.dataset].as_ref().expect("dataset preloaded");
            let trace = telemetry.trace();
            if trace.is_enabled() {
                trace.event("frontier.cell.start", fields!["index" => spec.index]);
            }
            let cell = run_cell(plan, spec, graph)?;
            if let Some(journal) = journal.lock().expect("sweep journal").as_mut() {
                journal
                    .append(&cell)
                    .map_err(|e| format!("journalling cell {}: {e}", cell.spec.index))?;
            }
            if trace.is_enabled() {
                trace.event("frontier.cell.finish", fields!["index" => spec.index]);
            }
            telemetry.metrics().counter("frontier.cells_computed").inc();
            completed.fetch_add(1, Ordering::Relaxed);
            Ok::<_, String>(cell)
        })
    })?;

    let computed = computed_cells.len();
    for cell in computed_cells {
        let index = cell.spec.index;
        done[index] = Some(cell);
    }

    let results: Vec<CellResult> = done.into_iter().flatten().collect();
    let complete = results.len() == total;
    Ok(SweepOutcome { fingerprint, results, total, computed, resumed, complete })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn scratch_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("psr-sweep-{tag}-{}-{n}.journal", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn sweep_measures_every_cell_in_index_order() {
        let plan = ExperimentPlan::toy();
        let outcome = run_sweep(&plan, &SweepOptions::default()).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.total, plan.expand().len());
        assert_eq!(outcome.computed, outcome.total);
        assert_eq!(outcome.resumed, 0);
        let indices: Vec<usize> = outcome.results.iter().map(|c| c.spec.index).collect();
        assert_eq!(indices, (0..outcome.total).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let plan = ExperimentPlan::toy();
        let one =
            run_sweep(&plan, &SweepOptions { threads: Some(1), ..Default::default() }).unwrap();
        let four =
            run_sweep(&plan, &SweepOptions { threads: Some(4), ..Default::default() }).unwrap();
        assert_eq!(one.results, four.results);
    }

    #[test]
    fn killed_sweep_resumes_from_the_journal() {
        let plan = ExperimentPlan::toy();
        let path = scratch_path("resume");
        let _cleanup = Cleanup(path.clone());
        let uninterrupted = run_sweep(&plan, &SweepOptions::default()).unwrap();

        // "Kill" after two cells, then resume.
        let first = run_sweep(
            &plan,
            &SweepOptions {
                threads: Some(2),
                journal: Some(path.clone()),
                max_cells: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!first.complete);
        assert_eq!(first.computed, 2);
        let second = run_sweep(
            &plan,
            &SweepOptions {
                threads: Some(3),
                journal: Some(path.clone()),
                max_cells: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(second.complete);
        assert_eq!(second.resumed, 2, "journalled cells are not recomputed");
        assert_eq!(second.results, uninterrupted.results, "resume is bit-identical");

        // A third run replays everything and computes nothing.
        let third =
            run_sweep(&plan, &SweepOptions { journal: Some(path), ..Default::default() }).unwrap();
        assert_eq!(third.computed, 0);
        assert_eq!(third.resumed, third.total);
        assert_eq!(third.results, uninterrupted.results);
    }

    #[test]
    fn smoothing_sweep_reports_empirical_epsilon() {
        let plan =
            ExperimentPlan { mechanisms: vec!["smoothing".to_owned()], ..ExperimentPlan::toy() };
        let outcome = run_sweep(&plan, &SweepOptions::default()).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.total, 1, "smoothing has no ε axis");
        let cell = &outcome.results[0];
        assert_eq!(cell.spec.mechanism, "smoothing");
        assert!(cell.transcript_epsilon.is_some_and(|e| e > 0.0), "Theorem 5 budget");
        assert_eq!(cell.adversaries.len(), 3);
        for adversary in &cell.adversaries {
            assert!(adversary.empirical_epsilon.is_finite(), "{adversary:?}");
            assert!(adversary.empirical_epsilon_lower <= adversary.empirical_epsilon);
        }
    }

    #[test]
    fn invalid_plan_is_rejected_before_any_work() {
        let mut plan = ExperimentPlan::toy();
        plan.epsilons.clear();
        assert!(run_sweep(&plan, &SweepOptions::default()).is_err());
    }
}
