//! The sweep scheduler: expand, fan out, checkpoint, resume.
//!
//! [`run_sweep`] expands a validated plan into its cells, subtracts the
//! cells already replayed from the results journal, and fans the rest
//! across `psr_core::par`'s indexed map. A cell's scenario (secret and
//! observers, [`cell_scenario`]) depends only on its dataset, utility and
//! adjacency, so the sweep searches it once per such group among the
//! pending cells, the groups in parallel, and every ε × mechanism ×
//! engine cell of the group plays on the shared result. Determinism is
//! structural, not accidental: each cell derives its own seed stream
//! from the plan seed and the cell *index* and plays its game
//! single-threaded, and the scenario search is deterministic, so the
//! worker count only changes wall-clock time — never a byte of any
//! result. Completed cells are journalled (with an `fsync`) the moment
//! they finish, which makes a kill at any point resumable: the next
//! invocation recomputes only what never hit the journal, and the
//! assembled report is bit-identical to an uninterrupted run because
//! cells are ordered by index, not by completion time.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use psr_graph::Graph;
use psr_obs::{fields, Heartbeat, Progress, Telemetry};

use crate::cell::{cell_scenario, play_cell, CellResult, CellSpec};
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

    // One scenario search per (dataset, utility, adjacency) group, from
    // the group's first pending cell (whose index its errors name).
    let same_group = |a: &CellSpec, b: &CellSpec| {
        a.dataset == b.dataset && a.utility == b.utility && a.adjacency == b.adjacency
    };
    let mut leaders: Vec<&CellSpec> = Vec::new();
    let group_of: Vec<usize> = pending
        .iter()
        .map(|spec| {
            leaders.iter().position(|l| same_group(l, spec)).unwrap_or_else(|| {
                leaders.push(spec);
                leaders.len() - 1
            })
        })
        .collect();
    if telemetry.is_enabled() {
        telemetry.metrics().counter("frontier.scenarios_searched").add(leaders.len() as u64);
        for spec in &leaders {
            telemetry.trace().event(
                "frontier.scenario",
                fields![
                    "dataset" => plan.datasets[spec.dataset].label(),
                    "utility" => spec.utility.as_str(),
                    "adjacency" => spec.adjacency.as_str(),
                    "index" => spec.index,
                ],
            );
        }
    }
    // One sample per group search, in nanoseconds like every psr-obs
    // histogram; inert (and the clock unread) when telemetry is off.
    let search_ns = telemetry.metrics().histogram("frontier.scenario_search_ns");
    let width = psr_core::par::threads(opts.threads);
    let graph_of = |spec: &CellSpec| graphs[spec.dataset].as_ref().expect("dataset preloaded");

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
        let scenarios = psr_core::par::try_map(width, leaders.len(), |group| {
            let start = search_ns.is_enabled().then(Instant::now);
            let scenario = cell_scenario(plan, leaders[group], graph_of(leaders[group]));
            if let Some(start) = start {
                search_ns.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            scenario
        })?;
        psr_core::par::try_map(width, pending.len(), |slot| {
            let spec = pending[slot];
            let trace = telemetry.trace();
            if trace.is_enabled() {
                trace.event("frontier.cell.start", fields!["index" => spec.index]);
            }
            let scenario = scenarios[group_of[slot]].clone();
            let cell = play_cell(plan, spec, graph_of(spec), scenario)?;
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
    use crate::cell::run_cell;
    use crate::plan::DatasetSpec;
    use psr_obs::TraceValue;
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

    /// Karate with every mechanism on both adjacencies: two scenario
    /// groups (edge cells 0–5, node cells 6–11), Laplace and smoothing
    /// cells in each.
    fn wide_plan() -> ExperimentPlan {
        ExperimentPlan {
            mechanisms: ["exponential", "laplace", "non-private", "smoothing"]
                .map(str::to_owned)
                .to_vec(),
            adjacencies: vec!["edge".to_owned(), "node".to_owned()],
            ..ExperimentPlan::toy()
        }
    }

    #[test]
    fn shared_scenarios_give_the_cell_by_cell_results() {
        let plan = wide_plan();
        let graph = plan.datasets[0].load(plan.seed).unwrap().0.to_graph_arc();
        let expected: Vec<CellResult> =
            plan.expand().iter().map(|spec| run_cell(&plan, spec, &graph).unwrap()).collect();
        for threads in [1, 2] {
            let outcome =
                run_sweep(&plan, &SweepOptions { threads: Some(threads), ..Default::default() })
                    .unwrap();
            assert_eq!(outcome.results, expected, "{threads} threads");
        }
    }

    #[test]
    fn resume_inside_a_group_finds_the_same_scenario() {
        let plan = wide_plan();
        let path = scratch_path("mid-group");
        let _cleanup = Cleanup(path.clone());
        let uninterrupted = run_sweep(&plan, &SweepOptions::default()).unwrap();
        let opts = |max_cells| SweepOptions {
            threads: Some(2),
            journal: Some(path.clone()),
            max_cells,
            ..Default::default()
        };
        assert_eq!(run_sweep(&plan, &opts(Some(3))).unwrap().computed, 3);
        // The edge group's scenario is now searched from cell 3.
        let resumed = run_sweep(&plan, &opts(None)).unwrap();
        assert_eq!(resumed.resumed, 3);
        assert_eq!(resumed.results, uninterrupted.results);
    }

    #[test]
    fn each_scenario_group_is_searched_once() {
        // Toy cells 0–2 play edge adjacency, cells 3–5 node adjacency.
        let plan = ExperimentPlan {
            adjacencies: vec!["edge".to_owned(), "node".to_owned()],
            ..ExperimentPlan::toy()
        };
        let path = scratch_path("searches");
        let _cleanup = Cleanup(path.clone());
        let sweep = |journal: Option<PathBuf>, max_cells| {
            let telemetry = Telemetry::enabled();
            let opts = SweepOptions {
                journal,
                max_cells,
                telemetry: Some(telemetry.clone()),
                ..Default::default()
            };
            run_sweep(&plan, &opts).unwrap();
            let snapshot = telemetry.metrics().snapshot();
            let searched =
                snapshot.counters.iter().find(|c| c.name == "frontier.scenarios_searched");
            let timed = telemetry.metrics().histogram("frontier.scenario_search_ns").load().count();
            // Histogram summaries read nanoseconds, so every name says so.
            let histograms: Vec<&str> =
                snapshot.histograms.iter().map(|h| h.name.as_str()).collect();
            assert!(histograms.contains(&"frontier.scenario_search_ns"), "{histograms:?}");
            assert!(histograms.iter().all(|h| h.ends_with("_ns")), "{histograms:?}");
            let events: Vec<Vec<(String, TraceValue)>> = telemetry
                .trace()
                .events()
                .into_iter()
                .filter(|e| e.name == "frontier.scenario")
                .map(|e| e.fields)
                .collect();
            let searched = searched.expect("counter registered").value;
            assert_eq!(timed, searched, "one search-time sample per group searched");
            (searched, events)
        };
        let group = |adjacency: &str, index: usize| {
            fields![
                "dataset" => "karate",
                "utility" => "common-neighbors",
                "adjacency" => adjacency,
                "index" => index,
            ]
        };

        assert_eq!(sweep(None, None), (2, vec![group("edge", 0), group("node", 3)]));
        // A journalled run of the edge group, then a resume whose pending
        // cells are all node cells, then a full replay.
        assert_eq!(sweep(Some(path.clone()), Some(3)), (1, vec![group("edge", 0)]));
        assert_eq!(sweep(Some(path.clone()), None), (1, vec![group("node", 3)]));
        assert_eq!(sweep(Some(path), None), (0, Vec::new()));
    }

    #[test]
    fn a_failed_search_names_the_group_first_pending_cell() {
        let path = scratch_path("one-edge");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, "0 1\n").unwrap();
        let one_edge = DatasetSpec {
            input: Some(path.to_string_lossy().into_owned()),
            ..DatasetSpec::karate()
        };
        // Karate's cells are 0–2; the one-edge graph's start at 3.
        let plan = ExperimentPlan {
            datasets: vec![DatasetSpec::karate(), one_edge.clone()],
            ..ExperimentPlan::toy()
        };
        let error = run_sweep(&plan, &SweepOptions::default()).unwrap_err();
        assert_eq!(error, format!("cell 3: no suitable secret edge on {}", one_edge.label()));
    }

    #[test]
    fn invalid_plan_is_rejected_before_any_work() {
        let mut plan = ExperimentPlan::toy();
        plan.epsilons.clear();
        assert!(run_sweep(&plan, &SweepOptions::default()).is_err());
    }
}
