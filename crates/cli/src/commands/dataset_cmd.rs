//! `psr dataset` — generate and describe a preset graph.

use psr_datasets::{Preset, PresetConfig};
use psr_graph::algo::{connected_components, degree_histogram};

use crate::args::Options;

pub fn run(name: &str, opts: &Options) -> Result<(), String> {
    let config = PresetConfig::scaled(opts.scale, opts.run.seed);
    let (graph, meta) =
        name.parse::<Preset>()?.generate(config).map_err(|e| format!("generating {name}: {e}"))?;
    println!("{}", meta.summary());
    let comp = connected_components(&graph);
    let largest = comp.sizes.iter().max().copied().unwrap_or(0);
    println!(
        "components: {} (largest {} = {:.1}% of nodes)",
        comp.count(),
        largest,
        100.0 * largest as f64 / graph.num_nodes() as f64
    );

    // Degree histogram in powers of two, like the paper's log-scale plots.
    let hist = degree_histogram(&graph);
    println!("\n{:>16} {:>10}", "degree range", "nodes");
    let mut lo = 0usize;
    let mut hi = 1usize;
    while lo < hist.len() {
        let count: usize = hist[lo..hist.len().min(hi)].iter().sum();
        if count > 0 {
            println!("{:>16} {count:>10}", format!("[{lo}, {})", hi.min(hist.len())));
        }
        lo = hi;
        hi *= 2;
    }

    if let Some(path) = &opts.run.json {
        super::write(path, serde_json::to_string_pretty(&meta).expect("serialisable"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
