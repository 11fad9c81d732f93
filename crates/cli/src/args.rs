//! Hand-rolled argument parsing (no CLI crates in the allowed set).
//!
//! Flags several subcommands share are parsed by one flag group each:
//! the graph source ([`GraphFlags`], filling a [`DatasetSpec`]), serving
//! ([`ServingFlags`]), telemetry ([`TelemetryFlags`]) and run
//! ([`RunFlags`]). A subcommand lists which shared flags it accepts and
//! matches only its own; names are checked against the tables of the
//! crates that own each axis.

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage:
  psr figure <1a|1b|2a|2b|2c|lap-vs-exp|lemma3|smoothing> [options]
  psr claims [options]            re-derive the §7.2 headline claims
  psr bounds <example|theorems|planner>
  psr dataset <wiki|twitter> [options]
  psr recommend --target <id> [--target <id> ...] [recommend options]
  psr serve --requests <path> [serve options]
  psr daemon [daemon options]     always-on serving over generated streams
  psr attack [attack options]     run the edge-inference adversaries
  psr frontier [frontier options] sweep the privacy-utility frontier from
                                  a resumable experiment plan
  psr build-snapshot --out <path> [build-snapshot options]
                                  build a compressed PSRZ graph snapshot

recommend options:
  --input <path>    SNAP edge list to serve from (default: generated preset)
  --directed        treat the input file as directed
  --preset <name>   wiki|twitter when no --input (default wiki)
  --scale <0..1]    dataset scale (default 1.0)
  --utility <name>  common-neighbors|weighted-paths (default common-neighbors)
  --gamma <f64>     weighted-paths damping (default 0.005)
  --mechanism <m>   exponential|laplace|smoothing (default exponential;
                    smoothing mixes at x = 0.05 and ignores --epsilon)
  --epsilon <f64>   privacy budget (default 1.0)
  --seed <u64>      generator and mechanism seed (default 42)

serve options (batch serving over a worker pool):
  --requests <path> JSON array of {\"target\": N, \"k\": M} requests (required)
  --mutations <path> JSON array of mutation batches (arrays of
                    {\"op\": \"Insert\"|\"Delete\", \"u\": N, \"v\": M});
                    batch i is applied after request chunk i, opening a new
                    graph epoch for the remaining chunks
  --input, --directed, --preset, --scale, --utility, --gamma   as for recommend
                    (--preset also accepts livejournal here)
  --backend <b>     csr|compressed graph backing (default csr; compressed
                    round-trips the graph through the PSRZ codec in RAM)
  --snapshot <path> serve straight from a PSRZ snapshot built with
                    build-snapshot (mmap-backed; implies
                    --backend compressed, excludes --input/--preset)
  --epsilon <f64>   privacy cost of one request, split over its k slots
                    (default 1.0)
  --budget <f64>    total ε each target may spend before the service
                    refuses it (default 10.0)
  --engine <name>   peel|gumbel top-k sampler; same distribution, gumbel
                    is the one-pass fast path (default gumbel)
  --threads <n>     worker threads (default: all cores)
  --seed <u64>      master seed (default 42)
  --json <path>     write the JSON outcome report here instead of stdout
  --metrics-out <path>  enable telemetry and write the metrics snapshot
                    (counters, gauges, latency histograms) as JSON here;
                    the report embeds the same snapshot
  --trace <path>    enable telemetry and write the structured trace ring
                    as JSONL here (one event per line, sequence-ordered)

daemon options (always-on serving over generated request/mutation streams):
  --input, --directed, --preset, --scale, --utility, --gamma, --backend,
  --snapshot, --epsilon, --budget, --engine, --threads, --seed, --json,
  --metrics-out, --trace
                    as for serve
  --request-events <n>   requests to generate (default 256)
  --mutation-events <n>  edge mutations to interleave (default 32)
  --insert-fraction <f>  insert share of mutations in [0,1] (default 0.7)
  --k <n>           slots per generated request (default 5)
  --batch <n>       requests per dispatched batch (default 16)
  --mutation-batch <n>   mutations per apply_mutations call (default 8)
  --queue <n>       bounded job-queue capacity; ingestion blocks when
                    full (backpressure) (default 8)
  --ledger <path>   persistent budget journal; replayed on startup so
                    ε spend survives restarts (default: in-memory)
  --rate <f64>      replay pacing in stream ticks per second
                    (default: no pacing, drain as fast as possible)
  --heartbeat <secs>  print an ingestion-progress line (events ingested,
                    batches drained, ETA) to stderr every <secs> seconds

attack options (empirical edge- and node-inference adversaries):
  --input, --directed, --scale, --seed  as for recommend
  --preset <name>   karate|wiki|twitter|livejournal when no --input
                    (default karate)
  --backend <b>     csr|compressed — compressed attacks the graph after a
                    PSRZ encode->open->materialise round trip, proving the
                    attack surface is backing-oblivious (default csr)
  --snapshot <path> attack the graph stored in a PSRZ snapshot (implies
                    --backend compressed, excludes --input/--preset)
  --utility <name>  common-neighbors|weighted-paths (default common-neighbors)
  --gamma <f64>     weighted-paths damping (default 0.005)
  --engine <name>   peel|gumbel top-k sampler for exponential observations
                    (default gumbel)
  --adjacency <a>   edge|node — Definition 1's single-edge worlds or
                    Appendix A's whole-neighbourhood rewire (default edge)
  --mechanism <m>   exponential|laplace|smoothing|non-private
                    (default exponential)
  --epsilon <f64>   per-observation ε for exponential/laplace (default 0.5)
  --smoothing-x <f64>  smoothing mixing weight x in [0,1) (default 0.05)
  --adversary <a>   reconstruction|mia|frequency|all (default all)
  --edge <u,v>      the secret edge, edge adjacency only (default: search
                    for a pair whose insertion flips a non-private answer)
  --node <v>        the rewired node, node adjacency only (default: search
                    for a rewire that flips a non-private answer; the
                    replacement neighbourhood is the disjoint default)
  --observer-cap <n>  max observers watched (default 4)
  --rounds <n>      request batches per trial (default 4)
  --k <n>           slots per request; must be 1 for laplace/smoothing
                    (default 1)
  --trials <n>      Monte-Carlo trials per world (default 48)
  --epoch <style>   edge adjacency: static|insert|delete (insert/delete
                    apply the secret edge mid-stream); node adjacency:
                    static|rewire (rewire applies the whole batch
                    mid-stream through apply_mutations) (default static)
  --prefix-rounds <n>  rounds before the mutation epoch (default 1)
  --threads <n>     harness worker threads (default: all cores)
  --json <path>     write the JSON attack report here instead of stdout

frontier options (orchestrated privacy-utility sweep lab):
  --plan <path>     experiment-plan JSON declaring the sweep grid
                    (default: the built-in toy plan; see --write-plan)
  --write-plan <path>  write the built-in toy plan as an editable
                    template to <path> and exit
  --out <path>      where frontier.json is written once the sweep is
                    complete (default frontier.json)
  --journal <path>  append-only results journal for checkpoint/resume
                    (default: <out> with a .journal extension)
  --no-journal      compute in memory without checkpointing (no resume)
  --max-cells <n>   stop after computing n new cells; the sweep reports
                    itself incomplete and the same command resumes it
  --threads <n>     worker threads (default: all cores); any value
                    produces a byte-identical report
  --heartbeat <secs>  print a sweep-progress line (cells done, ETA) to
                    stderr every <secs> seconds
  --metrics-out <path>  enable telemetry and write the metrics snapshot
                    (fsync latency, resume counters) as JSON here
  --trace <path>    enable telemetry and write per-cell start/finish/
                    resume events as JSONL here

build-snapshot options (out-of-core PSRZ snapshot builder):
  --out <path>      where to write the snapshot (required)
  --input <path>    SNAP edge list to encode (default: generated preset)
  --directed        treat the input file as directed
  --preset <name>   wiki|twitter|livejournal when no --input
                    (default livejournal; livejournal streams R-MAT arcs
                    through the out-of-core builder and never materialises
                    the graph in RAM)
  --scale <0..1]    dataset scale (default 1.0)
  --seed <u64>      generator seed (default 42)
  --shards <n>      degree-balanced shard count in the manifest (default 8)
  --arc-budget <n>  arcs buffered in RAM before spilling a sorted run
                    (16 bytes each; default 4194304 = 64 MiB)
  --json <path>     write the build stats as JSON here instead of stdout

options:
  --scale <0..1]   dataset scale relative to the paper (default 1.0)
  --seed <u64>     master seed (default 42)
  --laplace        also evaluate the Laplace mechanism (slower)
  --threads <n>    worker threads (default: all cores)
  --json <path>    also write the result as JSON";

use std::fmt::Display;
use std::str::FromStr;

use psr_attack::{Adjacency, AttackMechanism};
use psr_datasets::{Backend, DatasetSpec, Preset};
use psr_privacy::{Mechanism, TopKEngine};
use psr_utility::{UtilityFunction, UtilityKind};

/// Presets `recommend` and `dataset` accept: the paper's two graphs.
const PAPER_PRESETS: &[Preset] = &[Preset::Wiki, Preset::Twitter];
/// Presets the serving surfaces and `build-snapshot` accept.
const SERVING_PRESETS: &[Preset] = &[Preset::Wiki, Preset::Twitter, Preset::LiveJournal];
/// Presets `attack` accepts (karate is the demo graph).
const ATTACK_PRESETS: &[Preset] = &Preset::ALL;

/// Graph-source flags every graph-loading subcommand accepts.
const SOURCE: &[&str] = &["--input", "--directed", "--preset", "--scale"];
/// Graph-source flags of the subcommands that can read a snapshot.
const BACKEND: &[&str] = &["--backend", "--snapshot"];
/// Serving flags of `serve` and `daemon`.
const SERVING: &[&str] = &["--utility", "--gamma", "--epsilon", "--budget", "--engine"];
/// Telemetry flags of `daemon` and `frontier`.
const TELEMETRY: &[&str] = &["--metrics-out", "--trace", "--heartbeat"];
/// Run flags of `serve`, `daemon` and `attack`.
const RUN: &[&str] = &["--threads", "--seed", "--json"];

/// One subcommand's arguments, consumed left to right.
struct Flags<'a> {
    sub: &'static str,
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn new(sub: &'static str, rest: &'a [String]) -> Self {
        Flags { sub, rest: rest.iter() }
    }

    /// The next flag that is not one of the `shared` flags; those are
    /// handed to the first of `groups` that parses them.
    fn next(
        &mut self,
        shared: &[&[&str]],
        groups: &mut [&mut dyn FlagGroup],
    ) -> Result<Option<&'a str>, String> {
        while let Some(flag) = self.rest.next() {
            if !shared.iter().any(|set| set.contains(&flag.as_str())) {
                return Ok(Some(flag));
            }
            let mut parsed = false;
            for group in groups.iter_mut() {
                parsed = parsed || group.flag(flag, self)?;
            }
            assert!(parsed, "{flag} is shared by {} but no group parses it", self.sub);
        }
        Ok(None)
    }

    /// The error for a flag this subcommand does not accept.
    fn unknown(&self, flag: &str) -> String {
        format!("unknown {} option {flag:?}", self.sub)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.rest.next().map(String::as_str).ok_or(format!("{flag} expects a value"))
    }

    fn string(&mut self, flag: &str) -> Result<String, String> {
        self.value(flag).map(str::to_owned)
    }

    fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    }

    /// A positive count: a whole number of at least 1.
    fn count<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let n: T = self.parse(flag)?;
        if n == T::default() {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    }

    /// A positive, finite real.
    fn positive(&mut self, flag: &str) -> Result<f64, String> {
        let x: f64 = self.parse(flag)?;
        if !(x > 0.0 && x.is_finite()) {
            return Err(format!("{flag} must be positive and finite"));
        }
        Ok(x)
    }
}

/// A set of flags several subcommands share, parsed in one place.
trait FlagGroup {
    /// Parses `flag` (and its value) when it belongs to this group.
    fn flag(&mut self, flag: &str, args: &mut Flags) -> Result<bool, String>;
}

/// Validated `--scale` parse: a fraction of the paper-scale dataset.
fn parse_scale(args: &mut Flags, flag: &str) -> Result<f64, String> {
    let scale: f64 = args.parse(flag)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(scale)
}

/// Checks `raw` against a subcommand's preset set.
fn parse_preset(raw: &str, presets: &[Preset]) -> Result<Preset, String> {
    presets.iter().copied().find(|p| p.name() == raw).ok_or_else(|| {
        let names: Vec<&str> = presets.iter().map(|p| p.name()).collect();
        format!("unknown preset {raw:?} (expected one of {names:?})")
    })
}

/// The graph-source group: `--input --directed --preset --scale`, plus
/// `--backend --snapshot` where a subcommand accepts them. The preset
/// set is the subcommand's.
struct GraphFlags<'o> {
    spec: &'o mut DatasetSpec,
    presets: &'static [Preset],
    backend_explicit: bool,
}

impl<'o> GraphFlags<'o> {
    fn new(spec: &'o mut DatasetSpec, presets: &'static [Preset]) -> Self {
        GraphFlags { spec, presets, backend_explicit: false }
    }

    /// Validates the source. A snapshot implies the compressed backend,
    /// whatever the argument order, unless `--backend` named another.
    fn finish(self) -> Result<(), String> {
        if self.spec.snapshot.is_some() && !self.backend_explicit {
            self.spec.backend = Backend::Compressed.name().to_owned();
        }
        self.spec.validate()
    }
}

impl FlagGroup for GraphFlags<'_> {
    fn flag(&mut self, flag: &str, args: &mut Flags) -> Result<bool, String> {
        match flag {
            "--input" => self.spec.input = Some(args.string(flag)?),
            "--directed" => self.spec.directed = true,
            "--preset" => {
                let preset = parse_preset(args.value(flag)?, self.presets)?;
                self.spec.preset = preset.name().to_owned();
            }
            "--scale" => self.spec.scale = parse_scale(args, flag)?,
            "--backend" => {
                self.spec.backend = args.parse::<Backend>(flag)?.name().to_owned();
                self.backend_explicit = true;
            }
            "--snapshot" => self.spec.snapshot = Some(args.string(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The serving group: `--utility --gamma --epsilon --budget --engine`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingFlags {
    /// Utility function name.
    pub utility: String,
    /// Weighted-paths damping.
    pub gamma: f64,
    /// Privacy cost ε of one request (one observation for `attack`).
    pub epsilon: f64,
    /// Total ε each target may spend.
    pub budget: f64,
    /// Top-k engine name: peel|gumbel.
    pub engine: String,
}

impl Default for ServingFlags {
    fn default() -> Self {
        ServingFlags {
            utility: UtilityKind::CommonNeighbors.name().to_owned(),
            gamma: 0.005,
            epsilon: 1.0,
            budget: 10.0,
            engine: TopKEngine::Gumbel.name().to_owned(),
        }
    }
}

impl ServingFlags {
    /// The utility function `--utility` and `--gamma` name.
    pub fn utility(&self) -> Result<Box<dyn UtilityFunction>, String> {
        Ok(self.utility.parse::<UtilityKind>()?.build(self.gamma))
    }

    /// The top-k engine `--engine` names.
    pub fn engine(&self) -> Result<TopKEngine, String> {
        self.engine.parse()
    }
}

impl FlagGroup for ServingFlags {
    fn flag(&mut self, flag: &str, args: &mut Flags) -> Result<bool, String> {
        match flag {
            "--utility" => self.utility = args.parse::<UtilityKind>(flag)?.name().to_owned(),
            "--gamma" => self.gamma = args.parse(flag)?,
            "--epsilon" => self.epsilon = args.positive(flag)?,
            "--budget" => self.budget = args.positive(flag)?,
            "--engine" => self.engine = args.parse::<TopKEngine>(flag)?.name().to_owned(),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The telemetry group: `--metrics-out --trace --heartbeat`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryFlags {
    /// Telemetry metrics-snapshot path (None = telemetry stays off
    /// unless `--trace` enables it).
    pub metrics_out: Option<String>,
    /// Telemetry trace JSONL path (None = no trace export).
    pub trace: Option<String>,
    /// Stderr progress-line period in seconds (None = silent).
    pub heartbeat: Option<u64>,
}

impl FlagGroup for TelemetryFlags {
    fn flag(&mut self, flag: &str, args: &mut Flags) -> Result<bool, String> {
        match flag {
            "--metrics-out" => self.metrics_out = Some(args.string(flag)?),
            "--trace" => self.trace = Some(args.string(flag)?),
            "--heartbeat" => self.heartbeat = Some(args.count(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The run group: `--threads --seed --json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFlags {
    /// Worker threads (None = all cores).
    pub threads: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<String>,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags { threads: None, seed: 42, json: None }
    }
}

impl FlagGroup for RunFlags {
    fn flag(&mut self, flag: &str, args: &mut Flags) -> Result<bool, String> {
        match flag {
            "--threads" => self.threads = Some(args.parse(flag)?),
            "--seed" => self.seed = args.parse(flag)?,
            "--json" => self.json = Some(args.string(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `psr figure <id> …`
    Figure {
        /// Figure identifier.
        id: String,
        /// Common options.
        opts: Options,
    },
    /// `psr claims …`
    Claims {
        /// Common options.
        opts: Options,
    },
    /// `psr bounds <topic>`
    Bounds {
        /// Which bound table to print.
        topic: String,
    },
    /// `psr dataset <name> …`
    Dataset {
        /// Preset name.
        name: String,
        /// Common options.
        opts: Options,
    },
    /// `psr recommend …`
    Recommend {
        /// Serving options.
        opts: RecommendOptions,
    },
    /// `psr serve …`
    Serve {
        /// Batch-serving options.
        opts: ServeOptions,
    },
    /// `psr attack …`
    Attack {
        /// Edge-inference options.
        opts: AttackOptions,
    },
    /// `psr daemon …`
    Daemon {
        /// Stream-serving options.
        opts: DaemonOptions,
    },
    /// `psr build-snapshot …`
    BuildSnapshot {
        /// Snapshot-builder options.
        opts: BuildSnapshotOptions,
    },
    /// `psr frontier …`
    Frontier {
        /// Sweep-lab options.
        opts: FrontierOptions,
    },
}

/// Options for the `frontier` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierOptions {
    /// Experiment-plan JSON path (None = the built-in toy plan).
    pub plan: Option<String>,
    /// Where the frontier report is written on completion.
    pub out: String,
    /// Results-journal path (None = derived from `out`).
    pub journal: Option<String>,
    /// Disable checkpointing entirely.
    pub no_journal: bool,
    /// Stop after computing this many new cells.
    pub max_cells: Option<usize>,
    /// Write the built-in toy plan to this path and exit.
    pub write_plan: Option<String>,
    /// Telemetry outputs and the heartbeat.
    pub telemetry: TelemetryFlags,
    /// Worker threads (`run.threads`; the plan carries the seed).
    pub run: RunFlags,
}

impl Default for FrontierOptions {
    fn default() -> Self {
        FrontierOptions {
            plan: None,
            out: "frontier.json".to_owned(),
            journal: None,
            no_journal: false,
            max_cells: None,
            write_plan: None,
            telemetry: TelemetryFlags::default(),
            run: RunFlags::default(),
        }
    }
}

fn parse_frontier(rest: &[String]) -> Result<FrontierOptions, String> {
    let mut opts = FrontierOptions::default();
    let mut args = Flags::new("frontier", rest);
    let shared: &[&[&str]] = &[TELEMETRY, &["--threads"]];
    while let Some(flag) = args.next(shared, &mut [&mut opts.telemetry, &mut opts.run])? {
        match flag {
            "--plan" => opts.plan = Some(args.string(flag)?),
            "--out" => opts.out = args.string(flag)?,
            "--journal" => opts.journal = Some(args.string(flag)?),
            "--no-journal" => opts.no_journal = true,
            "--max-cells" => opts.max_cells = Some(args.count(flag)?),
            "--write-plan" => opts.write_plan = Some(args.string(flag)?),
            other => return Err(args.unknown(other)),
        }
    }
    if opts.no_journal && opts.journal.is_some() {
        return Err("--no-journal and --journal are mutually exclusive".into());
    }
    if opts.no_journal && opts.max_cells.is_some() {
        return Err("--max-cells needs a journal to resume from (drop --no-journal)".into());
    }
    Ok(opts)
}

/// Options for the `build-snapshot` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSnapshotOptions {
    /// Output snapshot path.
    pub out: String,
    /// The graph to encode.
    pub graph: DatasetSpec,
    /// Degree-balanced shard count.
    pub shards: usize,
    /// Arcs buffered in RAM before spilling a sorted run.
    pub arc_budget: usize,
    /// Generator seed and the JSON stats path (stdout when absent).
    pub run: RunFlags,
}

impl Default for BuildSnapshotOptions {
    fn default() -> Self {
        BuildSnapshotOptions {
            out: String::new(),
            graph: DatasetSpec::from_preset(Preset::LiveJournal),
            shards: 8,
            arc_budget: 4 * 1024 * 1024,
            run: RunFlags::default(),
        }
    }
}

fn parse_build_snapshot(rest: &[String]) -> Result<BuildSnapshotOptions, String> {
    let mut opts = BuildSnapshotOptions::default();
    let mut graph = GraphFlags::new(&mut opts.graph, SERVING_PRESETS);
    let mut args = Flags::new("build-snapshot", rest);
    let shared: &[&[&str]] = &[SOURCE, &["--seed", "--json"]];
    while let Some(flag) = args.next(shared, &mut [&mut graph, &mut opts.run])? {
        match flag {
            "--out" => opts.out = args.string(flag)?,
            "--shards" => opts.shards = args.count(flag)?,
            "--arc-budget" => opts.arc_budget = args.count(flag)?,
            other => return Err(args.unknown(other)),
        }
    }
    graph.finish()?;
    if opts.out.is_empty() {
        return Err("build-snapshot: --out <path> is required".into());
    }
    Ok(opts)
}

/// Options for the `daemon` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonOptions {
    /// The graph to serve.
    pub graph: DatasetSpec,
    /// Utility, ε, budget and engine.
    pub serving: ServingFlags,
    /// Requests to generate.
    pub request_events: usize,
    /// Edge mutations to interleave.
    pub mutation_events: usize,
    /// Insert share of generated mutations.
    pub insert_fraction: f64,
    /// Slots per generated request.
    pub k: usize,
    /// Requests per dispatched batch.
    pub batch: usize,
    /// Mutations per `apply_mutations` call.
    pub mutation_batch: usize,
    /// Bounded job-queue capacity.
    pub queue: usize,
    /// Persistent budget-journal path (None = in-memory).
    pub ledger: Option<String>,
    /// Replay pacing in stream ticks per second (None = no pacing).
    pub rate: Option<f64>,
    /// Telemetry outputs and the heartbeat.
    pub telemetry: TelemetryFlags,
    /// Threads, seed and the JSON report path (stdout when absent).
    pub run: RunFlags,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            graph: DatasetSpec::from_preset(Preset::Wiki),
            serving: ServingFlags::default(),
            request_events: 256,
            mutation_events: 32,
            insert_fraction: 0.7,
            k: 5,
            batch: 16,
            mutation_batch: 8,
            queue: 8,
            ledger: None,
            rate: None,
            telemetry: TelemetryFlags::default(),
            run: RunFlags::default(),
        }
    }
}

fn parse_daemon(rest: &[String]) -> Result<DaemonOptions, String> {
    let mut opts = DaemonOptions::default();
    let mut graph = GraphFlags::new(&mut opts.graph, SERVING_PRESETS);
    let mut args = Flags::new("daemon", rest);
    let shared: &[&[&str]] = &[SOURCE, BACKEND, SERVING, TELEMETRY, RUN];
    while let Some(flag) =
        args.next(shared, &mut [&mut graph, &mut opts.serving, &mut opts.telemetry, &mut opts.run])?
    {
        match flag {
            "--request-events" => opts.request_events = args.count(flag)?,
            "--mutation-events" => opts.mutation_events = args.parse(flag)?,
            "--insert-fraction" => {
                opts.insert_fraction = args.parse(flag)?;
                if !(0.0..=1.0).contains(&opts.insert_fraction) {
                    return Err("--insert-fraction must be in [0, 1]".into());
                }
            }
            "--k" => opts.k = args.count(flag)?,
            "--batch" => opts.batch = args.count(flag)?,
            "--mutation-batch" => opts.mutation_batch = args.count(flag)?,
            "--queue" => opts.queue = args.count(flag)?,
            "--ledger" => opts.ledger = Some(args.string(flag)?),
            "--rate" => opts.rate = Some(args.positive(flag)?),
            other => return Err(args.unknown(other)),
        }
    }
    graph.finish()?;
    Ok(opts)
}

/// Options for the `attack` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOptions {
    /// The graph to attack (`karate` allowed here).
    pub graph: DatasetSpec,
    /// Utility, per-observation ε and engine (the budget is unused).
    pub serving: ServingFlags,
    /// Mechanism under attack.
    pub mechanism: String,
    /// Smoothing mixing weight `x`.
    pub smoothing_x: f64,
    /// Adjacency notion: edge|node.
    pub adjacency: String,
    /// Which adversaries to run.
    pub adversary: String,
    /// The secret edge, if given explicitly (edge adjacency).
    pub edge: Option<(u32, u32)>,
    /// The rewired node, if given explicitly (node adjacency).
    pub node: Option<u32>,
    /// Maximum observers watched.
    pub observer_cap: usize,
    /// Request batches per trial.
    pub rounds: usize,
    /// Slots per request.
    pub k: usize,
    /// Monte-Carlo trials per world.
    pub trials: usize,
    /// Epoch style: static|insert|delete|rewire.
    pub epoch: String,
    /// Rounds before the mid-stream mutation.
    pub prefix_rounds: usize,
    /// Harness threads, seed and the JSON report path (stdout when
    /// absent).
    pub run: RunFlags,
}

impl Default for AttackOptions {
    fn default() -> Self {
        AttackOptions {
            graph: DatasetSpec::karate(),
            serving: ServingFlags { epsilon: 0.5, ..ServingFlags::default() },
            mechanism: "exponential".to_owned(),
            smoothing_x: Mechanism::DEFAULT_SMOOTHING_X,
            adjacency: Adjacency::Edge.name().to_owned(),
            adversary: "all".to_owned(),
            edge: None,
            node: None,
            observer_cap: 4,
            rounds: 4,
            k: 1,
            trials: 48,
            epoch: "static".to_owned(),
            prefix_rounds: 1,
            run: RunFlags::default(),
        }
    }
}

fn parse_attack(rest: &[String]) -> Result<AttackOptions, String> {
    let mut opts = AttackOptions::default();
    let mut graph = GraphFlags::new(&mut opts.graph, ATTACK_PRESETS);
    let mut args = Flags::new("attack", rest);
    let shared: &[&[&str]] =
        &[SOURCE, BACKEND, &["--utility", "--gamma", "--epsilon", "--engine"], RUN];
    while let Some(flag) = args.next(shared, &mut [&mut graph, &mut opts.serving, &mut opts.run])? {
        match flag {
            "--mechanism" => opts.mechanism = args.string(flag)?,
            "--smoothing-x" => {
                let x = args.parse(flag)?;
                Mechanism::Smoothing { x }.validate()?;
                opts.smoothing_x = x;
            }
            "--adjacency" => opts.adjacency = args.parse::<Adjacency>(flag)?.name().to_owned(),
            "--adversary" => {
                opts.adversary = args.string(flag)?;
                if !["reconstruction", "mia", "frequency", "all"].contains(&opts.adversary.as_str())
                {
                    return Err(format!("unknown adversary {:?}", opts.adversary));
                }
            }
            "--edge" => {
                let raw = args.value(flag)?;
                let (u, v) = raw
                    .split_once(',')
                    .ok_or_else(|| format!("--edge expects \"u,v\", got {raw:?}"))?;
                let u = u.trim().parse().map_err(|e| format!("--edge u: {e}"))?;
                let v = v.trim().parse().map_err(|e| format!("--edge v: {e}"))?;
                opts.edge = Some((u, v));
            }
            "--node" => opts.node = Some(args.parse(flag)?),
            "--observer-cap" => opts.observer_cap = args.count(flag)?,
            "--rounds" => opts.rounds = args.count(flag)?,
            "--k" => opts.k = args.count(flag)?,
            "--trials" => opts.trials = args.count(flag)?,
            "--epoch" => {
                opts.epoch = args.string(flag)?;
                if !["static", "insert", "delete", "rewire"].contains(&opts.epoch.as_str()) {
                    return Err(format!("unknown epoch style {:?}", opts.epoch));
                }
            }
            "--prefix-rounds" => opts.prefix_rounds = args.parse(flag)?,
            other => return Err(args.unknown(other)),
        }
    }
    graph.finish()?;
    let mechanism = AttackMechanism::new(&opts.mechanism, opts.serving.epsilon, opts.smoothing_x)?;
    if opts.k != 1 && mechanism.served().0.is_single_draw() {
        return Err("--k must be 1 for the single-draw laplace/smoothing mechanisms".into());
    }
    if opts.epoch != "static" && !(1..opts.rounds).contains(&opts.prefix_rounds) {
        return Err("--prefix-rounds must be in 1..--rounds for mid-stream epochs".into());
    }
    match opts.adjacency.parse()? {
        Adjacency::Edge => {
            if opts.node.is_some() {
                return Err("--node is a node-adjacency option (pass --adjacency node)".into());
            }
            if opts.epoch == "rewire" {
                return Err("--epoch rewire is a node-adjacency style (pass --adjacency node; \
                            edge adjacency uses insert/delete)"
                    .into());
            }
            if opts.epoch == "delete" && opts.edge.is_none() {
                return Err(
                    "--epoch delete needs an explicit --edge that exists in the graph".into()
                );
            }
        }
        Adjacency::Node => {
            if opts.edge.is_some() {
                return Err("--edge is an edge-adjacency option (node adjacency rewires a \
                            whole neighbourhood; pass --node)"
                    .into());
            }
            if ["insert", "delete"].contains(&opts.epoch.as_str()) {
                return Err("--epoch insert/delete are edge-adjacency styles (node adjacency \
                            uses static|rewire)"
                    .into());
            }
        }
    }
    Ok(opts)
}

/// Options for the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Path to the JSON request list (array of `{"target": N, "k": M}`).
    pub requests: String,
    /// Optional JSON mutation schedule (array of mutation batches)
    /// interleaved with the request chunks.
    pub mutations: Option<String>,
    /// The graph to serve.
    pub graph: DatasetSpec,
    /// Utility, ε, budget and engine.
    pub serving: ServingFlags,
    /// Telemetry outputs (`--heartbeat` is a daemon/frontier flag).
    pub telemetry: TelemetryFlags,
    /// Threads, seed and the JSON report path (stdout when absent).
    pub run: RunFlags,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            requests: String::new(),
            mutations: None,
            graph: DatasetSpec::from_preset(Preset::Wiki),
            serving: ServingFlags::default(),
            telemetry: TelemetryFlags::default(),
            run: RunFlags::default(),
        }
    }
}

fn parse_serve(rest: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut graph = GraphFlags::new(&mut opts.graph, SERVING_PRESETS);
    let mut args = Flags::new("serve", rest);
    let shared: &[&[&str]] = &[SOURCE, BACKEND, SERVING, &["--metrics-out", "--trace"], RUN];
    while let Some(flag) =
        args.next(shared, &mut [&mut graph, &mut opts.serving, &mut opts.telemetry, &mut opts.run])?
    {
        match flag {
            "--requests" => opts.requests = args.string(flag)?,
            "--mutations" => opts.mutations = Some(args.string(flag)?),
            other => return Err(args.unknown(other)),
        }
    }
    graph.finish()?;
    if opts.requests.is_empty() {
        return Err("serve: --requests <path> is required".into());
    }
    Ok(opts)
}

/// Options for the `recommend` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendOptions {
    /// Targets to serve.
    pub targets: Vec<u32>,
    /// The graph to serve.
    pub graph: DatasetSpec,
    /// Utility and ε (the budget and engine are unused).
    pub serving: ServingFlags,
    /// The mechanism that draws the recommendations.
    pub mechanism: Mechanism,
    /// Generator and mechanism seed (`run.seed`).
    pub run: RunFlags,
}

impl Default for RecommendOptions {
    fn default() -> Self {
        RecommendOptions {
            targets: Vec::new(),
            graph: DatasetSpec::from_preset(Preset::Wiki),
            serving: ServingFlags::default(),
            mechanism: Mechanism::Exponential,
            run: RunFlags::default(),
        }
    }
}

fn parse_recommend(rest: &[String]) -> Result<RecommendOptions, String> {
    let mut opts = RecommendOptions::default();
    let mut graph = GraphFlags::new(&mut opts.graph, PAPER_PRESETS);
    let mut args = Flags::new("recommend", rest);
    let shared: &[&[&str]] = &[SOURCE, &["--utility", "--gamma", "--epsilon", "--seed"]];
    while let Some(flag) = args.next(shared, &mut [&mut graph, &mut opts.serving, &mut opts.run])? {
        match flag {
            "--target" => opts.targets.push(args.parse(flag)?),
            "--mechanism" => opts.mechanism = args.parse(flag)?,
            other => return Err(args.unknown(other)),
        }
    }
    graph.finish()?;
    if opts.targets.is_empty() {
        return Err("recommend: at least one --target is required".into());
    }
    Ok(opts)
}

/// Options shared by `figure`, `claims` and `dataset`.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Dataset scale in (0, 1].
    pub scale: f64,
    /// Evaluate the Laplace mechanism.
    pub laplace: bool,
    /// Threads, seed and the JSON output path.
    pub run: RunFlags,
}

impl Default for Options {
    fn default() -> Self {
        Options { scale: 1.0, laplace: false, run: RunFlags::default() }
    }
}

fn parse_options(sub: &'static str, rest: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = Flags::new(sub, rest);
    while let Some(flag) = args.next(&[RUN], &mut [&mut opts.run])? {
        match flag {
            "--scale" => opts.scale = parse_scale(&mut args, flag)?,
            "--laplace" => opts.laplace = true,
            other => return Err(args.unknown(other)),
        }
    }
    Ok(opts)
}

/// Parses argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    match sub.as_str() {
        "figure" => {
            let id = it.next().ok_or("figure: missing id")?.clone();
            const KNOWN: [&str; 8] =
                ["1a", "1b", "2a", "2b", "2c", "lap-vs-exp", "lemma3", "smoothing"];
            if !KNOWN.contains(&id.as_str()) {
                return Err(format!("unknown figure {id:?} (expected one of {KNOWN:?})"));
            }
            Ok(Command::Figure { id, opts: parse_options("figure", it.as_slice())? })
        }
        "claims" => Ok(Command::Claims { opts: parse_options("claims", it.as_slice())? }),
        "bounds" => {
            let topic = it.next().ok_or("bounds: missing topic")?.clone();
            if !["example", "theorems", "planner"].contains(&topic.as_str()) {
                return Err(format!("unknown bounds topic {topic:?}"));
            }
            if it.next().is_some() {
                return Err("bounds takes no options".into());
            }
            Ok(Command::Bounds { topic })
        }
        "recommend" => Ok(Command::Recommend { opts: parse_recommend(it.as_slice())? }),
        "serve" => Ok(Command::Serve { opts: parse_serve(it.as_slice())? }),
        "attack" => Ok(Command::Attack { opts: parse_attack(it.as_slice())? }),
        "daemon" => Ok(Command::Daemon { opts: parse_daemon(it.as_slice())? }),
        "frontier" => Ok(Command::Frontier { opts: parse_frontier(it.as_slice())? }),
        "build-snapshot" => {
            Ok(Command::BuildSnapshot { opts: parse_build_snapshot(it.as_slice())? })
        }
        "dataset" => {
            let name = it.next().ok_or("dataset: missing name")?.clone();
            parse_preset(&name, PAPER_PRESETS)?;
            Ok(Command::Dataset { name, opts: parse_options("dataset", it.as_slice())? })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_figure_with_options() {
        let cmd = parse(&argv("figure 1a --scale 0.5 --seed 7 --laplace --json out.json")).unwrap();
        match cmd {
            Command::Figure { id, opts } => {
                assert_eq!(id, "1a");
                assert_eq!(opts.scale, 0.5);
                assert_eq!(opts.run.seed, 7);
                assert!(opts.laplace);
                assert_eq!(opts.run.json.as_deref(), Some("out.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_figure_and_flag() {
        assert!(parse(&argv("figure 9z")).is_err());
        assert!(parse(&argv("figure 1a --bogus")).is_err());
        assert!(parse(&argv("figure 1a --scale nope")).is_err());
        assert!(parse(&argv("figure 1a --scale 2.0")).is_err());
        for cmd in ["figure 1a", "claims", "dataset wiki"] {
            assert!(parse(&argv(&format!("{cmd} --trials 0"))).is_err(), "{cmd}");
        }
    }

    #[test]
    fn parses_other_subcommands() {
        assert!(matches!(parse(&argv("claims")).unwrap(), Command::Claims { .. }));
        assert!(matches!(parse(&argv("bounds example")).unwrap(), Command::Bounds { .. }));
        assert!(matches!(
            parse(&argv("dataset wiki --scale 0.1")).unwrap(),
            Command::Dataset { .. }
        ));
        assert!(parse(&argv("bounds nope")).is_err());
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("nonsense")).is_err());
    }

    #[test]
    fn parses_recommend() {
        let cmd = parse(&argv(
            "recommend --target 3 --target 9 --mechanism laplace --epsilon 0.5 --preset twitter",
        ))
        .unwrap();
        match cmd {
            Command::Recommend { opts } => {
                assert_eq!(opts.targets, vec![3, 9]);
                assert_eq!(opts.mechanism, Mechanism::Laplace);
                assert_eq!(opts.serving.epsilon, 0.5);
                assert_eq!(opts.graph.preset, "twitter");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn recommend_requires_targets_and_validates() {
        assert!(parse(&argv("recommend")).is_err());
        assert!(parse(&argv("recommend --target 1 --mechanism bogus")).is_err());
        assert!(parse(&argv("recommend --target 1 --epsilon -1")).is_err());
        assert!(parse(&argv("recommend --target 1 --utility nope")).is_err());
    }

    #[test]
    fn parses_serve() {
        let cmd = parse(&argv(
            "serve --requests reqs.json --preset twitter --epsilon 0.5 --budget 2.5 \
             --engine peel --threads 4 --seed 9 --json out.json",
        ))
        .unwrap();
        match cmd {
            Command::Serve { opts } => {
                assert_eq!(opts.requests, "reqs.json");
                assert_eq!(opts.graph.preset, "twitter");
                assert_eq!(opts.serving.epsilon, 0.5);
                assert_eq!(opts.serving.budget, 2.5);
                assert_eq!(opts.serving.engine, "peel");
                assert_eq!(opts.run.threads, Some(4));
                assert_eq!(opts.run.seed, 9);
                assert_eq!(opts.run.json.as_deref(), Some("out.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_requires_requests_and_validates() {
        assert!(parse(&argv("serve")).is_err());
        assert!(parse(&argv("serve --requests r.json --epsilon 0")).is_err());
        assert!(parse(&argv("serve --requests r.json --budget -1")).is_err());
        assert!(parse(&argv("serve --requests r.json --budget inf")).is_err());
        assert!(parse(&argv("serve --requests r.json --utility nope")).is_err());
        assert!(parse(&argv("serve --requests r.json --mechanism laplace")).is_err());
        assert!(parse(&argv("serve --requests r.json --engine bogus")).is_err());
        assert!(parse(&argv("serve --requests r.json --engine")).is_err());
    }

    #[test]
    fn serve_defaults() {
        let cmd = parse(&argv("serve --requests r.json")).unwrap();
        match cmd {
            Command::Serve { opts } => {
                assert_eq!(opts.serving.epsilon, 1.0);
                assert_eq!(opts.serving.budget, 10.0);
                assert_eq!(opts.serving.engine, "gumbel");
                assert_eq!(opts.graph.preset, "wiki");
                assert_eq!(opts.run.threads, None);
                assert_eq!(opts.run.json, None);
                assert_eq!(opts.mutations, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_accepts_a_mutation_schedule() {
        let cmd = parse(&argv("serve --requests r.json --mutations muts.json")).unwrap();
        match cmd {
            Command::Serve { opts } => {
                assert_eq!(opts.mutations.as_deref(), Some("muts.json"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --requests r.json --mutations")).is_err());
    }

    #[test]
    fn parses_daemon() {
        let cmd = parse(&argv(
            "daemon --preset twitter --request-events 64 --mutation-events 8 \
             --insert-fraction 0.5 --k 3 --batch 4 --mutation-batch 2 --queue 5 \
             --ledger spend.ledger --rate 100 --engine peel --threads 2 --seed 9 \
             --json out.json",
        ))
        .unwrap();
        match cmd {
            Command::Daemon { opts } => {
                assert_eq!(opts.graph.preset, "twitter");
                assert_eq!(opts.request_events, 64);
                assert_eq!(opts.mutation_events, 8);
                assert_eq!(opts.insert_fraction, 0.5);
                assert_eq!(opts.k, 3);
                assert_eq!(opts.batch, 4);
                assert_eq!(opts.mutation_batch, 2);
                assert_eq!(opts.queue, 5);
                assert_eq!(opts.ledger.as_deref(), Some("spend.ledger"));
                assert_eq!(opts.rate, Some(100.0));
                assert_eq!(opts.serving.engine, "peel");
                assert_eq!(opts.run.threads, Some(2));
                assert_eq!(opts.run.seed, 9);
                assert_eq!(opts.run.json.as_deref(), Some("out.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn daemon_defaults() {
        let cmd = parse(&argv("daemon")).unwrap();
        match cmd {
            Command::Daemon { opts } => {
                assert_eq!(opts, DaemonOptions::default());
                assert_eq!(opts.request_events, 256);
                assert_eq!(opts.mutation_events, 32);
                assert_eq!(opts.batch, 16);
                assert_eq!(opts.queue, 8);
                assert_eq!(opts.ledger, None);
                assert_eq!(opts.rate, None);
                assert_eq!(opts.serving.engine, "gumbel");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn daemon_validates_options() {
        assert!(parse(&argv("daemon --request-events 0")).is_err());
        assert!(parse(&argv("daemon --insert-fraction 1.5")).is_err());
        assert!(parse(&argv("daemon --k 0")).is_err());
        assert!(parse(&argv("daemon --batch 0")).is_err());
        assert!(parse(&argv("daemon --mutation-batch 0")).is_err());
        assert!(parse(&argv("daemon --queue 0")).is_err());
        assert!(parse(&argv("daemon --rate 0")).is_err());
        assert!(parse(&argv("daemon --rate inf")).is_err());
        assert!(parse(&argv("daemon --engine bogus")).is_err());
        assert!(parse(&argv("daemon --budget -1")).is_err());
        assert!(parse(&argv("daemon --ledger")).is_err());
        assert!(parse(&argv("daemon --bogus")).is_err());
    }

    #[test]
    fn attack_accepts_an_engine() {
        let cmd = parse(&argv("attack --engine peel")).unwrap();
        match cmd {
            Command::Attack { opts } => assert_eq!(opts.serving.engine, "peel"),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("attack --engine bogus")).is_err());
    }

    #[test]
    fn parses_attack_with_options() {
        let cmd = parse(&argv(
            "attack --preset wiki --scale 0.1 --mechanism non-private --adversary mia \
             --edge 3,9 --rounds 6 --trials 32 --epoch insert --prefix-rounds 2 \
             --observer-cap 3 --seed 7 --json out.json",
        ))
        .unwrap();
        match cmd {
            Command::Attack { opts } => {
                assert_eq!(opts.graph.preset, "wiki");
                assert_eq!(opts.graph.scale, 0.1);
                assert_eq!(opts.mechanism, "non-private");
                assert_eq!(opts.adversary, "mia");
                assert_eq!(opts.edge, Some((3, 9)));
                assert_eq!(opts.rounds, 6);
                assert_eq!(opts.trials, 32);
                assert_eq!(opts.epoch, "insert");
                assert_eq!(opts.prefix_rounds, 2);
                assert_eq!(opts.observer_cap, 3);
                assert_eq!(opts.run.seed, 7);
                assert_eq!(opts.run.json.as_deref(), Some("out.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attack_defaults_are_the_karate_demo() {
        let cmd = parse(&argv("attack")).unwrap();
        match cmd {
            Command::Attack { opts } => {
                assert_eq!(opts, AttackOptions::default());
                assert_eq!(opts.graph.preset, "karate");
                assert_eq!(opts.mechanism, "exponential");
                assert_eq!(opts.serving.epsilon, 0.5);
                assert_eq!(opts.adversary, "all");
                assert_eq!(opts.edge, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attack_rejects_inconsistent_options() {
        assert!(parse(&argv("attack --mechanism bogus")).is_err());
        assert!(parse(&argv("attack --adversary bogus")).is_err());
        assert!(parse(&argv("attack --edge 3")).is_err());
        assert!(parse(&argv("attack --edge 3,x")).is_err());
        assert!(parse(&argv("attack --epsilon 0")).is_err());
        assert!(parse(&argv("attack --smoothing-x 1.0")).is_err());
        assert!(parse(&argv("attack --mechanism laplace --k 2")).is_err());
        assert!(parse(&argv("attack --epoch insert --rounds 2 --prefix-rounds 2")).is_err());
        assert!(parse(&argv("attack --epoch insert --prefix-rounds 0")).is_err());
        assert!(parse(&argv("attack --epoch delete")).is_err(), "delete needs --edge");
        assert!(parse(&argv("attack --preset bogus")).is_err());
        assert!(parse(&argv("attack --trials 0")).is_err());
    }

    #[test]
    fn parses_node_adjacency_attack() {
        let cmd = parse(&argv(
            "attack --adjacency node --node 5 --epoch rewire --rounds 4 --prefix-rounds 2",
        ))
        .unwrap();
        match cmd {
            Command::Attack { opts } => {
                assert_eq!(opts.adjacency, "node");
                assert_eq!(opts.node, Some(5));
                assert_eq!(opts.epoch, "rewire");
                assert_eq!(opts.prefix_rounds, 2);
            }
            other => panic!("{other:?}"),
        }
        // Default adjacency stays edge, with node search available.
        let cmd = parse(&argv("attack --adjacency node")).unwrap();
        match cmd {
            Command::Attack { opts } => assert_eq!(opts.node, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attack_rejects_mixed_adjacency_options() {
        assert!(parse(&argv("attack --adjacency bogus")).is_err());
        assert!(parse(&argv("attack --node 5")).is_err(), "--node needs --adjacency node");
        assert!(parse(&argv("attack --epoch rewire")).is_err(), "rewire is node-only");
        assert!(parse(&argv("attack --adjacency node --edge 3,9")).is_err());
        assert!(parse(&argv("attack --adjacency node --epoch insert")).is_err());
        assert!(parse(&argv("attack --adjacency node --epoch delete --node 3")).is_err());
        assert!(parse(&argv(
            "attack --adjacency node --epoch rewire --rounds 2 --prefix-rounds 2"
        ))
        .is_err());
    }

    #[test]
    fn parses_build_snapshot() {
        let cmd = parse(&argv(
            "build-snapshot --out lj.psrz --preset livejournal --scale 0.01 --seed 7 \
             --shards 16 --arc-budget 1000000 --json stats.json",
        ))
        .unwrap();
        match cmd {
            Command::BuildSnapshot { opts } => {
                assert_eq!(opts.out, "lj.psrz");
                assert_eq!(opts.graph.preset, "livejournal");
                assert_eq!(opts.graph.scale, 0.01);
                assert_eq!(opts.run.seed, 7);
                assert_eq!(opts.shards, 16);
                assert_eq!(opts.arc_budget, 1_000_000);
                assert_eq!(opts.run.json.as_deref(), Some("stats.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn build_snapshot_defaults_and_validation() {
        let cmd = parse(&argv("build-snapshot --out g.psrz")).unwrap();
        match cmd {
            Command::BuildSnapshot { opts } => {
                assert_eq!(opts.graph.preset, "livejournal");
                assert_eq!(opts.shards, 8);
                assert_eq!(opts.arc_budget, 4 * 1024 * 1024);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("build-snapshot")).is_err(), "--out is required");
        assert!(parse(&argv("build-snapshot --out g --preset bogus")).is_err());
        assert!(parse(&argv("build-snapshot --out g --shards 0")).is_err());
        assert!(parse(&argv("build-snapshot --out g --arc-budget 0")).is_err());
        assert!(parse(&argv("build-snapshot --out g --scale 2")).is_err());
    }

    #[test]
    fn serve_accepts_backend_and_snapshot() {
        let cmd = parse(&argv("serve --requests r.json --backend compressed")).unwrap();
        match cmd {
            Command::Serve { opts } => assert_eq!(opts.graph.backend, "compressed"),
            other => panic!("{other:?}"),
        }
        // --snapshot implies the compressed backend and excludes --input.
        let cmd = parse(&argv("serve --requests r.json --snapshot g.psrz")).unwrap();
        match cmd {
            Command::Serve { opts } => {
                assert_eq!(opts.graph.backend, "compressed");
                assert_eq!(opts.graph.snapshot.as_deref(), Some("g.psrz"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --requests r.json --backend bogus")).is_err());
        assert!(parse(&argv("serve --requests r.json --snapshot g --backend csr")).is_err());
        assert!(parse(&argv("serve --requests r.json --snapshot g --input e.txt")).is_err());
        // The snapshot implication is argument-order independent.
        assert!(parse(&argv("serve --requests r.json --backend csr --snapshot g")).is_err());
    }

    #[test]
    fn daemon_and_attack_accept_backends() {
        match parse(&argv("daemon --backend compressed --preset livejournal --scale 0.01")).unwrap()
        {
            Command::Daemon { opts } => {
                assert_eq!(opts.graph.backend, "compressed");
                assert_eq!(opts.graph.preset, "livejournal");
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("attack --snapshot g.psrz")).unwrap() {
            Command::Attack { opts } => {
                assert_eq!(opts.graph.backend, "compressed");
                assert_eq!(opts.graph.snapshot.as_deref(), Some("g.psrz"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("daemon --backend bogus")).is_err());
        assert!(parse(&argv("attack --backend csr --snapshot g")).is_err());
        // Defaults stay csr with no snapshot.
        match parse(&argv("daemon")).unwrap() {
            Command::Daemon { opts } => {
                assert_eq!(opts.graph.backend, "csr");
                assert_eq!(opts.graph.snapshot, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_frontier() {
        let cmd = parse(&argv(
            "frontier --plan plan.json --out f.json --journal f.journal \
             --max-cells 2 --threads 3",
        ))
        .unwrap();
        match cmd {
            Command::Frontier { opts } => {
                assert_eq!(opts.plan.as_deref(), Some("plan.json"));
                assert_eq!(opts.out, "f.json");
                assert_eq!(opts.journal.as_deref(), Some("f.journal"));
                assert_eq!(opts.max_cells, Some(2));
                assert_eq!(opts.run.threads, Some(3));
                assert!(!opts.no_journal);
                assert_eq!(opts.write_plan, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frontier_defaults_and_validation() {
        let cmd = parse(&argv("frontier")).unwrap();
        match cmd {
            Command::Frontier { opts } => {
                assert_eq!(opts, FrontierOptions::default());
                assert_eq!(opts.out, "frontier.json");
                assert_eq!(opts.plan, None);
                assert_eq!(opts.journal, None);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("frontier --write-plan plan.json")).unwrap() {
            Command::Frontier { opts } => {
                assert_eq!(opts.write_plan.as_deref(), Some("plan.json"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("frontier --max-cells 0")).is_err());
        assert!(parse(&argv("frontier --no-journal --journal j")).is_err());
        assert!(parse(&argv("frontier --no-journal --max-cells 1")).is_err());
        assert!(parse(&argv("frontier --plan")).is_err());
        assert!(parse(&argv("frontier --bogus")).is_err());
    }

    #[test]
    fn telemetry_flags_parse_on_serve_daemon_and_frontier() {
        match parse(&argv("serve --requests r.json --metrics-out m.json --trace t.jsonl")).unwrap()
        {
            Command::Serve { opts } => {
                assert_eq!(opts.telemetry.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(opts.telemetry.trace.as_deref(), Some("t.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("daemon --metrics-out m.json --trace t.jsonl --heartbeat 5")).unwrap() {
            Command::Daemon { opts } => {
                assert_eq!(opts.telemetry.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(opts.telemetry.trace.as_deref(), Some("t.jsonl"));
                assert_eq!(opts.telemetry.heartbeat, Some(5));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("frontier --metrics-out m.json --trace t.jsonl --heartbeat 2")).unwrap() {
            Command::Frontier { opts } => {
                assert_eq!(opts.telemetry.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(opts.telemetry.trace.as_deref(), Some("t.jsonl"));
                assert_eq!(opts.telemetry.heartbeat, Some(2));
            }
            other => panic!("{other:?}"),
        }
        // Telemetry stays off by default, and heartbeats must be positive.
        match parse(&argv("daemon")).unwrap() {
            Command::Daemon { opts } => {
                assert_eq!(opts.telemetry.metrics_out, None);
                assert_eq!(opts.telemetry.trace, None);
                assert_eq!(opts.telemetry.heartbeat, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("daemon --heartbeat 0")).is_err());
        assert!(parse(&argv("frontier --heartbeat x")).is_err());
        assert!(parse(&argv("daemon --metrics-out")).is_err());
        assert!(parse(&argv("serve --requests r.json --trace")).is_err());
    }

    #[test]
    fn shared_axis_parsers_reject_consistently() {
        // The same allow-lists guard every subcommand that takes the axis.
        for cmd in ["recommend --target 1", "serve --requests r.json", "daemon", "attack"] {
            assert!(parse(&argv(&format!("{cmd} --utility nope"))).is_err(), "{cmd}");
            assert!(parse(&argv(&format!("{cmd} --epsilon 0"))).is_err(), "{cmd}");
            assert!(parse(&argv(&format!("{cmd} --epsilon inf"))).is_err(), "{cmd}");
            assert!(parse(&argv(&format!("{cmd} --scale 2"))).is_err(), "{cmd}");
        }
        for cmd in ["serve --requests r.json", "daemon", "attack"] {
            assert!(parse(&argv(&format!("{cmd} --engine bogus"))).is_err(), "{cmd}");
        }
    }

    /// A value each flag accepts on its own (`None`: a switch). `--node`
    /// also needs node adjacency.
    fn sample_value(flag: &str) -> Option<&'static str> {
        Some(match flag {
            "--directed" | "--laplace" | "--no-journal" => return None,
            "--node" => "5 --adjacency node",
            "--edge" => "3,9",
            "--preset" => "wiki",
            "--backend" => "compressed",
            "--utility" => "weighted-paths",
            "--engine" => "peel",
            "--mechanism" => "laplace",
            "--adjacency" => "node",
            "--adversary" => "mia",
            "--epoch" => "static",
            "--scale" | "--gamma" | "--epsilon" | "--budget" | "--rate" | "--insert-fraction"
            | "--smoothing-x" => "0.5",
            "--target" | "--threads" | "--seed" | "--trials" | "--k" | "--rounds"
            | "--observer-cap" | "--prefix-rounds" | "--request-events" | "--mutation-events"
            | "--batch" | "--mutation-batch" | "--queue" | "--heartbeat" | "--max-cells"
            | "--shards" | "--arc-budget" => "2",
            _ => "x.json",
        })
    }

    #[test]
    fn every_flag_in_a_usage_block_parses_for_its_subcommand() {
        // Each usage block, and the argv prefixes that must accept every
        // flag it names.
        let blocks: [(&str, &[&str]); 7] = [
            ("recommend options", &["recommend --target 1"]),
            ("serve options", &["serve --requests r.json"]),
            ("daemon options", &["daemon"]),
            ("attack options", &["attack"]),
            ("frontier options", &["frontier"]),
            ("build-snapshot options", &["build-snapshot --out g.psrz"]),
            ("options:", &["figure 1a", "claims", "dataset wiki"]),
        ];
        for (header, prefixes) in blocks {
            let start = USAGE.find(&format!("\n{header}")).expect(header) + 1;
            let block = &USAGE[start..];
            let block = &block[..block.find("\n\n").unwrap_or(block.len())];
            let flags: Vec<&str> = block
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|word| word.starts_with("--") && word.len() > 2)
                .collect();
            assert!(flags.len() > 3, "{header}: {flags:?}");
            for prefix in prefixes {
                for flag in &flags {
                    let line = match sample_value(flag) {
                        Some(value) => format!("{prefix} {flag} {value}"),
                        None => format!("{prefix} {flag}"),
                    };
                    if let Err(e) = parse(&argv(&line)) {
                        panic!("{header}: `{line}` does not parse: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn defaults_are_paper_scale() {
        let cmd = parse(&argv("figure 2a")).unwrap();
        match cmd {
            Command::Figure { opts, .. } => {
                assert_eq!(opts.scale, 1.0);
                assert_eq!(opts.run.seed, 42);
                assert!(!opts.laplace);
            }
            other => panic!("{other:?}"),
        }
    }
}
