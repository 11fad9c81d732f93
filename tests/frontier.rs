//! Frontier acceptance: the orchestrated privacy–utility sweep lab.
//!
//! One plan sweeping ≥ 2 mechanisms × ≥ 3 ε × ≥ 2 utilities × both
//! adjacency notions on the karate graph must measure every cell with a
//! theoretical bound, an achieved accuracy, an empirical ε̂ from the full
//! adversary panel and Clopper–Pearson error bars — and the assembled
//! `frontier.json` must be byte-identical across worker counts and
//! across a kill/resume boundary (the determinism contract of
//! `psr-frontier`'s per-cell seed streams and index-ordered reports).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use psr_attack::{default_rewire_target, node_observers, search_node_rewire};
use psr_datasets::Preset;
use psr_frontier::{run_sweep, DatasetSpec, ExperimentPlan, FrontierReport, SweepOptions};
use psr_utility::UtilityKind;

/// The acceptance grid: 1 dataset × 2 utilities × 2 adjacencies ×
/// (exponential at 3 ε + ε-free non-private) = 16 cells.
fn acceptance_plan() -> ExperimentPlan {
    ExperimentPlan {
        name: "acceptance".to_owned(),
        datasets: vec![DatasetSpec::karate()],
        mechanisms: vec!["exponential".to_owned(), "non-private".to_owned()],
        utilities: vec!["common-neighbors".to_owned(), "weighted-paths".to_owned()],
        adjacencies: vec!["edge".to_owned(), "node".to_owned()],
        epsilons: vec![0.3, 0.8, 2.0],
        trials_per_world: 8,
        ..ExperimentPlan::toy()
    }
}

/// A unique scratch path (no tempfile crate in the offline vendor set).
fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("psr-frontier-it-{tag}-{}-{n}.journal", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn acceptance_sweep_measures_every_cell_with_bounds_accuracy_and_error_bars() {
    let plan = acceptance_plan();
    let outcome = run_sweep(&plan, &SweepOptions::default()).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.total, 16, "2 utilities x 2 adjacencies x (3 eps + eps-free)");

    // Every axis combination the plan declares is measured.
    for utility in &plan.utilities {
        for adjacency in &plan.adjacencies {
            let exp_cells = outcome
                .results
                .iter()
                .filter(|c| {
                    c.spec.utility == *utility
                        && c.spec.adjacency == *adjacency
                        && c.spec.mechanism == "exponential"
                })
                .count();
            assert_eq!(exp_cells, plan.epsilons.len(), "{utility}/{adjacency}");
        }
    }

    for cell in &outcome.results {
        let id = format!(
            "{}/{}/{}/{:?}",
            cell.spec.utility, cell.spec.adjacency, cell.spec.mechanism, cell.spec.epsilon
        );
        // Theoretical ceiling: Corollary 1 for budgeted cells, trivial (1)
        // for the ε-free mechanism.
        assert!(
            cell.accuracy_bound.is_finite() && cell.accuracy_bound > 0.0,
            "{id}: bound {}",
            cell.accuracy_bound
        );
        if cell.spec.mechanism == "non-private" {
            assert_eq!(cell.accuracy_bound, 1.0, "{id}");
        }
        // Achieved accuracy with its Clopper–Pearson interval.
        let accuracy = cell.mean_accuracy.unwrap_or_else(|| panic!("{id}: no accuracy"));
        assert!((0.0..=1.0).contains(&accuracy), "{id}: accuracy {accuracy}");
        assert!(cell.scored_entries > 0, "{id}: nothing scored");
        let interval = cell.accuracy_interval.as_ref().unwrap_or_else(|| panic!("{id}"));
        assert!(
            0.0 <= interval.lower && interval.lower <= interval.upper && interval.upper <= 1.0,
            "{id}: accuracy interval [{}, {}]",
            interval.lower,
            interval.upper
        );
        // The full adversary panel, each with an empirical ε̂ and CP-backed
        // TPR/FPR error bars.
        assert_eq!(cell.adversaries.len(), 3, "{id}");
        for adversary in &cell.adversaries {
            let aid = format!("{id}/{}", adversary.adversary);
            assert!(
                adversary.empirical_epsilon.is_finite() && adversary.empirical_epsilon >= 0.0,
                "{aid}: bad empirical eps {}",
                adversary.empirical_epsilon
            );
            assert!(adversary.empirical_epsilon_lower >= 0.0, "{aid}");
            for (name, rate, interval) in [
                ("tpr", adversary.tpr, &adversary.tpr_interval),
                ("fpr", adversary.fpr, &adversary.fpr_interval),
            ] {
                assert!(
                    interval.lower <= rate && rate <= interval.upper,
                    "{aid}: {name} {rate} outside [{}, {}]",
                    interval.lower,
                    interval.upper
                );
            }
        }
    }

    // The report groups every workload and stays parseable.
    let report = FrontierReport::assemble(&plan, outcome.fingerprint, outcome.results);
    assert_eq!(report.recommendations.len(), 2 * 2 * 4, "one winner per workload group");
    assert_eq!(FrontierReport::from_json(&report.to_json()).unwrap(), report);
}

#[test]
fn frontier_json_is_byte_identical_across_worker_counts() {
    let plan = acceptance_plan();
    let one = run_sweep(&plan, &SweepOptions { threads: Some(1), ..Default::default() }).unwrap();
    let four = run_sweep(&plan, &SweepOptions { threads: Some(4), ..Default::default() }).unwrap();
    let report_one = FrontierReport::assemble(&plan, one.fingerprint, one.results);
    let report_four = FrontierReport::assemble(&plan, four.fingerprint, four.results);
    assert_eq!(report_one.to_json(), report_four.to_json());
}

#[test]
fn killed_sweep_resumes_to_a_byte_identical_report() {
    let plan = acceptance_plan();
    let path = scratch_path("resume");
    let _cleanup = Cleanup(path.clone());

    let uninterrupted = run_sweep(&plan, &SweepOptions::default()).unwrap();
    let reference =
        FrontierReport::assemble(&plan, uninterrupted.fingerprint, uninterrupted.results);

    // "Kill" after five cells (journalled, fsync'd), then re-invoke.
    let first = run_sweep(
        &plan,
        &SweepOptions {
            threads: Some(3),
            journal: Some(path.clone()),
            max_cells: Some(5),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!first.complete);
    assert_eq!(first.computed, 5);
    let second = run_sweep(
        &plan,
        &SweepOptions { threads: Some(2), journal: Some(path), ..Default::default() },
    )
    .unwrap();
    assert!(second.complete);
    assert_eq!(second.resumed, 5, "journalled cells must not be recomputed");
    let resumed = FrontierReport::assemble(&plan, second.fingerprint, second.results);
    assert_eq!(resumed.to_json(), reference.to_json(), "resume must be byte-identical");
}

/// The toy plan over `mechanisms` × both adjacencies at `k` slots.
fn toy_plan_over(mechanisms: &[&str], k: usize) -> ExperimentPlan {
    ExperimentPlan {
        mechanisms: mechanisms.iter().map(|&m| m.to_owned()).collect(),
        adjacencies: vec!["edge".to_owned(), "node".to_owned()],
        k,
        ..ExperimentPlan::toy()
    }
}

/// Sweeps `plan` and checks its report byte for byte against a committed
/// golden copy, rendered as `psr frontier` writes it.
fn assert_golden_report(plan: &ExperimentPlan, golden: &str) {
    let outcome =
        run_sweep(plan, &SweepOptions { threads: Some(2), ..Default::default() }).unwrap();
    let report = FrontierReport::assemble(plan, outcome.fingerprint, outcome.results);
    let json = report.to_json() + "\n";
    if let Some((line, (got, want))) =
        json.lines().zip(golden.lines()).enumerate().find(|(_, (got, want))| got != want)
    {
        panic!("report line {}: {got:?}, golden copy {want:?}", line + 1);
    }
    assert_eq!(json.len(), golden.len(), "the report's length moved off its golden copy");
}

#[test]
fn wide_toy_plan_reproduces_its_golden_report() {
    let plan = toy_plan_over(&["exponential", "laplace", "non-private", "smoothing"], 1);
    assert_golden_report(&plan, include_str!("golden/frontier-wide.json"));
}

#[test]
fn top_2_toy_plan_reproduces_its_golden_report() {
    let plan = toy_plan_over(&["exponential", "non-private"], 2);
    assert_golden_report(&plan, include_str!("golden/frontier-k2.json"));
}

#[test]
fn node_cells_fall_back_to_a_default_rewire_when_nothing_leaks() {
    // At γ = 0.5 weighted paths finds no leaking rewire on wiki 0.1
    // within the search budget; the cell rewires the first node that has
    // a rewire target and an observer instead of failing the sweep.
    let plan = ExperimentPlan {
        datasets: vec![DatasetSpec { scale: 0.1, ..DatasetSpec::from_preset(Preset::Wiki) }],
        mechanisms: vec!["exponential".to_owned()],
        utilities: vec!["weighted-paths".to_owned()],
        adjacencies: vec!["node".to_owned()],
        epsilons: vec![1.0],
        trials_per_world: 4,
        ..ExperimentPlan::toy()
    };
    let graph = plan.datasets[0].load(plan.seed).unwrap().0.to_graph_arc();
    let utility = "weighted-paths".parse::<UtilityKind>().unwrap().build(plan.gamma);
    let cap = plan.observer_cap;
    // No leak is found, so the search returns the fallback: the first
    // node with a rewire target and an observer.
    let (node, new_neighbours, observers) =
        search_node_rewire(&graph, utility.as_ref(), cap).expect("a fallback rewire");
    let first = graph
        .nodes()
        .find(|&v| {
            default_rewire_target(&graph, v)
                .is_some_and(|new| !node_observers(&graph, v, &new, cap).is_empty())
        })
        .unwrap();
    assert_eq!(node, first);
    assert_eq!(Some(new_neighbours.clone()), default_rewire_target(&graph, node));
    assert_eq!(observers, node_observers(&graph, node, &new_neighbours, cap));

    let outcome = run_sweep(&plan, &SweepOptions::default()).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.results.len(), 1);
}
