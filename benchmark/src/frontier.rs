//! `frontier_grid`: a fixed 14-cell privacy–utility sweep with the
//! results journal on and two workers.
//!
//! A run sweeps the plan in pairs until its time is up, each pair under a
//! plan seed split from the run seed:
//!
//! * `run_sweep`, the public entry point, timed as a whole — its cells
//!   per second is the throughput;
//! * the same plan driven cell by cell from outside (`run_cell` on two
//!   workers, each finished cell appended to a `ResultsJournal` under a
//!   lock, as `run_sweep` does), which times every cell and every journal
//!   append.
//!
//! Both halves of a pair must produce the same cells, since a sweep's
//! results are a pure function of its plan. Every sweep must cover every
//! cell of the expanded plan, and every journal must replay all of them.
//!
//! The plan leaves the `smoothing` mechanism off. `ExperimentPlan::
//! validate` requires `smoothing_x > 1`, while the attack harness asserts
//! the smoothing parameter lies in `[0, 1)`, so any plan with smoothing on
//! its mechanism axis is either rejected or panics inside the sweep.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use psr_datasets::presets::{wiki_vote_like, PresetConfig};
use psr_frontier::{
    run_cell, run_sweep, CellResult, DatasetSpec, ExperimentPlan, FrontierReport, ResultsJournal,
    SweepOptions,
};
use psr_gen::split_seed;
use psr_graph::{CompressedCsr, Graph, GraphView};

use crate::stats::{median, quantile};
use crate::{Metrics, RunArgs, RunResult};

const WORKERS: usize = 2;
const SETUP_REPEATS: usize = 9;
const DATASET_SCALE: f64 = 0.1;

/// The fixed plan: wiki at scale 0.1 (read from `snapshot`, so the graph
/// stays fixed while the plan seed varies the trials), exponential /
/// Laplace / non-private × edge / node adjacency × ε ∈ {0.5, 1, 2} — 14
/// cells.
fn plan(seed: u64, snapshot: &Path) -> ExperimentPlan {
    ExperimentPlan {
        name: "bench-frontier-grid".to_owned(),
        seed,
        datasets: vec![DatasetSpec {
            preset: "wiki".to_owned(),
            input: None,
            directed: false,
            scale: DATASET_SCALE,
            backend: "compressed".to_owned(),
            snapshot: Some(snapshot.to_string_lossy().into_owned()),
        }],
        mechanisms: vec!["exponential".to_owned(), "laplace".to_owned(), "non-private".to_owned()],
        utilities: vec!["common-neighbors".to_owned()],
        adjacencies: vec!["edge".to_owned(), "node".to_owned()],
        epsilons: vec![0.5, 1.0, 2.0],
        engines: vec!["gumbel".to_owned()],
        gamma: 0.5,
        // Unused (smoothing is off the mechanism axis) but validated.
        smoothing_x: 2.0,
        rounds: 2,
        k: 1,
        trials_per_world: 8,
        observer_cap: 2,
        confidence: 0.95,
    }
}

/// What one manual sweep measured.
struct ManualSweep {
    cells: Vec<CellResult>,
    cell_ms: Vec<f64>,
    append_ms: Vec<f64>,
}

/// Runs the plan cell by cell on two workers with a results journal.
fn manual_sweep(plan: &ExperimentPlan, graph: &Arc<Graph>, journal: &Path) -> ManualSweep {
    let cells = plan.expand();
    let (journal, replayed) =
        ResultsJournal::open(journal, plan.fingerprint(), cells.len()).expect("opening journal");
    assert!(replayed.is_empty(), "manual sweeps start from a fresh journal");
    let next = AtomicUsize::new(0);
    let sink = Mutex::new((journal, Vec::new(), Vec::new(), Vec::new()));
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| {
                while let Some(spec) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let start = Instant::now();
                    let cell = run_cell(plan, spec, graph).expect("cell runs");
                    let mut sink = sink.lock().expect("sweep sink");
                    let appending = Instant::now();
                    sink.0.append(&cell).expect("journal append");
                    let end = Instant::now();
                    sink.1.push(cell);
                    sink.2.push((end - start).as_secs_f64() * 1e3);
                    sink.3.push((end - appending).as_secs_f64() * 1e3);
                }
            });
        }
    });
    let (_, mut done, cell_ms, append_ms) = sink.into_inner().expect("sweep sink");
    done.sort_by_key(|c| c.spec.index);
    ManualSweep { cells: done, cell_ms, append_ms }
}

/// The per-cell results rendered for comparison (NaN-safe).
fn fingerprint(cells: &[CellResult]) -> Vec<String> {
    cells.iter().map(|c| format!("{c:?}")).collect()
}

pub fn run(args: &RunArgs, work: &Path) -> RunResult {
    // Set-up: the dataset written as the snapshot the plan names, the
    // plan (validated and expanded), and the graph the cells run on,
    // loaded as `run_sweep` loads it.
    let mut setup_times = Vec::new();
    let mut built = None;
    let snapshot = work.join("frontier-wiki.psrz");
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let (graph, _) = wiki_vote_like(PresetConfig::scaled(DATASET_SCALE, crate::DATASET_SEED))
            .expect("wiki-vote preset");
        let build_s = start.elapsed().as_secs_f64();
        CompressedCsr::write_snapshot(&graph, 1, &snapshot).expect("writing the dataset");
        let plan = plan(args.seed, &snapshot);
        plan.validate().expect("the benchmark plan is valid");
        let total = plan.expand().len();
        let opening = Instant::now();
        let graph = CompressedCsr::open_path(&snapshot).expect("opening the dataset").to_graph();
        let open_ms = opening.elapsed().as_secs_f64() * 1e3;
        setup_times.push(start.elapsed().as_secs_f64());
        built = Some((plan, total, Arc::new(graph), build_s, open_ms));
    }
    let (plan, total, graph, build_s, open_ms) = built.expect("at least one set-up");

    // Pairs of sweeps until the time is up: `run_sweep`, then the same plan
    // cell by cell. Each pair's plan seed is split from the run seed, so a
    // run averages over several seeds' trials.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut pairs, mut sweep_cells, mut sweep_s) = (0u64, 0usize, 0.0f64);
    let (mut sweep_ms, mut cell_ms, mut append_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut violations) = (0u64, 0u64, 0u64);
    while start.elapsed() < budget || pairs == 0 {
        let plan = ExperimentPlan { seed: split_seed(args.seed, pairs), ..plan.clone() };
        let journal = work.join(format!("frontier-{pairs}.journal"));
        let _ = std::fs::remove_file(&journal);
        let opts = SweepOptions {
            threads: Some(WORKERS),
            journal: Some(journal.clone()),
            max_cells: None,
            telemetry: None,
            heartbeat: None,
        };
        let began = Instant::now();
        let outcome = run_sweep(&plan, &opts);
        let elapsed = began.elapsed();
        sweep_s += elapsed.as_secs_f64();
        sweep_ms.push(elapsed.as_secs_f64() * 1e3);
        attempted += total as u64;
        let swept = match outcome {
            Ok(outcome) if outcome.complete && outcome.computed == total => {
                sweep_cells += outcome.computed;
                outcome.results
            }
            Ok(outcome) => {
                eprintln!("run_sweep computed {} of {total} cells", outcome.computed);
                failed += (total - outcome.computed) as u64;
                outcome.results
            }
            Err(error) => {
                eprintln!("run_sweep failed: {error}");
                failed += total as u64;
                Vec::new()
            }
        };
        let manual_journal = work.join(format!("frontier-{pairs}-cells.journal"));
        let _ = std::fs::remove_file(&manual_journal);
        let began = Instant::now();
        let manual = manual_sweep(&plan, &graph, &manual_journal);
        sweep_ms.push(began.elapsed().as_secs_f64() * 1e3);
        attempted += total as u64;
        cell_ms.extend(&manual.cell_ms);
        append_ms.extend(&manual.append_ms);

        // The report covers every cell of the expanded plan, both ways of
        // running the plan agree, and both journals replay every cell.
        let report = FrontierReport::assemble(&plan, plan.fingerprint(), swept.clone());
        let complete = report.cells.len() == total
            && report.cells.iter().enumerate().all(|(i, c)| c.spec.index == i);
        if !complete || fingerprint(&swept) != fingerprint(&manual.cells) {
            eprintln!("sweep pair {pairs}: results do not cover or agree on the plan's cells");
            violations += 1;
        }
        for path in [&journal, &manual_journal] {
            match ResultsJournal::open(path, plan.fingerprint(), total) {
                Ok((_, replayed)) if replayed.len() == total => {}
                _ => {
                    eprintln!("journal {} does not replay all {total} cells", path.display());
                    violations += 1;
                }
            }
        }
        pairs += 1;
    }

    let mut metrics = Metrics::default();
    metrics.e2e("throughput_per_s", sweep_cells as f64 / sweep_s);
    // A frontier user waits for the whole sweep: its latency is the time
    // to a complete, journalled set of cells. Per-cell times are the
    // frontier layer's own metrics.
    metrics.e2e("latency_p50_ms", median(&sweep_ms));
    metrics.e2e("latency_p99_ms", quantile(&sweep_ms, 0.99));
    metrics.e2e("publish_p50_ms", median(&append_ms));
    metrics.e2e("setup_s", median(&setup_times));
    metrics.e2e("peak_rss_mb", crate::stats::peak_rss_mb());
    if args.trace {
        // The serving stages the cells' services run, timed on the cells'
        // graph with the plan's utility.
        let stages = crate::serving::replay_sampled(graph.as_ref(), args.seed, budget.mul_f64(0.1));
        metrics.layer("graph.build_s", build_s);
        metrics.layer("graph.open_ms", open_ms);
        metrics.layer("frontier.cell_ms_p50", median(&cell_ms));
        metrics.layer("frontier.cell_ms_max", quantile(&cell_ms, 1.0));
        metrics.layer("frontier.journal_append_ms", median(&append_ms));
        stages.report(&mut metrics, None);
        metrics.layer("error_rate", failed as f64 / attempted.max(1) as f64);
    }
    metrics.detail(
        "setup_s_each",
        format!("[{}]", setup_times.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")),
    );
    metrics.detail("graph_nodes", graph.num_nodes().to_string());
    metrics.detail("graph_arcs", graph.num_arcs().to_string());
    metrics.detail("cells_per_sweep", total.to_string());
    metrics.detail("sweep_pairs", pairs.to_string());
    metrics.detail("sweep_latency_samples", sweep_ms.len().to_string());
    metrics.detail("cell_latency_samples", cell_ms.len().to_string());
    RunResult { correct: violations == 0, attempted, failed, metrics }
}
