//! End-to-end benchmark of the serving stack and the frontier sweep.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload <lj1m_uniform|wiki_wp_churn|frontier_grid> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is a separate run that wraps the serving layers in
//! timing decorators, replays the per-request stages and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it holds
//! the run's provenance and sample counts, also appended to
//! `.bench_results/results.jsonl`. See `benchmark/README.md`.

mod decorators;
mod frontier;
mod serving;
mod stats;
mod traffic;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// End-to-end metrics, `(name, unit)`: reported by every `--trace 0` run.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("publish_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`: reported by every `--trace 1` run.
/// A layer the workload does not run through reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.open_ms", "ms"),
    ("graph.decode_cache_hit_ratio", "ratio"),
    ("graph.decode_cache_mb", "MiB"),
    ("utility.candidates_us", "us"),
    ("utility.score_us", "us"),
    ("serving.cache_hit_ratio", "ratio"),
    ("privacy.topk_us", "us"),
    ("privacy.zero_class_us", "us"),
    ("privacy.zero_slots_per_request", "count"),
    ("ledger.charge_us", "us"),
    ("ledger.sync_us", "us"),
    ("ledger.syncs", "count"),
    ("epoch.apply_ms", "ms"),
    ("epoch.dirty_targets", "count"),
    ("epoch.invalidated", "count"),
    ("epoch.compactions", "count"),
    ("daemon.max_queue_depth", "count"),
    ("serving.request_us", "us"),
    ("serving.unattributed_us", "us"),
    ("frontier.cell_ms_p50", "ms"),
    ("frontier.cell_ms_max", "ms"),
    ("frontier.journal_append_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// Seed of every workload's graph. The graphs are fixed datasets, so runs
/// with different `--seed`s differ in traffic, mutation streams, mechanism
/// randomness and frontier trials, not in the graph they measure.
pub const DATASET_SEED: u64 = 1;

/// Held-out seed: never used while the benchmark or a change is tuned;
/// a claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 7919;

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Metric values and run details collected by a workload.
#[derive(Default)]
pub struct Metrics {
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    details: Vec<(&'static str, String)>,
}

impl Metrics {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// A run detail (sample counts, graph size) printed with provenance.
    pub fn detail(&mut self, name: &'static str, value: String) {
        self.details.push((name, value));
    }
}

/// What a workload run returns.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(if value == "held-out" {
                    HELD_OUT_SEED
                } else {
                    value.parse().map_err(|e| format!("--seed {value}: {e}"))?
                })
            }
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds {value}: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Renders a finite number for JSON (non-finite values become 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!(
                "usage: --workload <lj1m_uniform|wiki_wp_churn|frontier_grid> --seed <n|held-out> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Scratch state (snapshots, journals) lives in the working tree, on
    // whatever disk backs it, and is removed after the run.
    let work = Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("creating the benchmark's work directory");
    let fs_type = stats::filesystem_type(&work);

    let result = match args.workload.as_str() {
        "lj1m_uniform" => serving::run(&serving::LJ1M_UNIFORM, &args, &work),
        "wiki_wp_churn" => serving::run(&serving::WIKI_WP_CHURN, &args, &work),
        "frontier_grid" => frontier::run(&args, &work),
        other => {
            eprintln!("error: unknown workload {other}");
            let _ = std::fs::remove_dir_all(&work);
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    let (names, values) = if args.trace {
        (PER_LAYER, &result.metrics.layers)
    } else {
        (END_TO_END, &result.metrics.e2e)
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = match values.get(name) {
                Some(&value) => value,
                None if args.trace => 0.0,
                None => panic!("workload {} did not measure {name}", args.workload),
            };
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
        })
        .collect();

    let mut provenance = vec![
        ("workload", format!("\"{}\"", escape(&args.workload))),
        ("seed", args.seed.to_string()),
        ("held_out_seed", (args.seed == HELD_OUT_SEED).to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("git_sha", format!("\"{}\"", escape(&stats::git_sha()))),
        ("source_fnv", format!("\"{}\"", stats::source_fingerprint())),
        ("nproc", std::thread::available_parallelism().map_or(0, |p| p.get()).to_string()),
        ("journal_fs", format!("\"{}\"", escape(&fs_type))),
    ];
    for (name, value) in &result.metrics.details {
        provenance.push((name, value.clone()));
    }
    let provenance = format!(
        "{{{}, \"metrics\": {{{}}}}}",
        provenance.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect::<Vec<_>>().join(", "),
        metrics.join(", ")
    );
    let _ = std::fs::create_dir_all(".bench_results");
    if let Ok(mut log) =
        std::fs::OpenOptions::new().create(true).append(true).open(".bench_results/results.jsonl")
    {
        let _ = writeln!(log, "{provenance}");
    }
    println!("{provenance}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
    if !result.correct {
        std::process::exit(1);
    }
}
