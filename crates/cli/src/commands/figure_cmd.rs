//! `psr figure <id>` — regenerate one of the paper's figures.

use psr_core::figures::{
    fig1a, fig1b, fig2a, fig2b, fig2c, lap_vs_exp, lemma3_curves, smoothing_tradeoff, FigureConfig,
    FigureResult,
};
use psr_core::report::{render_figure, render_mechanism_comparison};

use crate::args::Options;

pub fn run(id: &str, opts: &Options) -> Result<(), String> {
    let cfg = FigureConfig {
        scale: opts.scale,
        seed: opts.run.seed,
        eval_laplace: opts.laplace,
        laplace_trials: opts.trials,
        threads: opts.run.threads,
    };
    let started = std::time::Instant::now();
    let figure: Option<FigureResult> = match id {
        "1a" => Some(fig1a(&cfg)),
        "1b" => Some(fig1b(&cfg)),
        "2a" => Some(fig2a(&cfg)),
        "2b" => Some(fig2b(&cfg)),
        "2c" => Some(fig2c(&cfg)),
        "lemma3" => Some(lemma3_curves(1.0)),
        "smoothing" => Some(smoothing_tradeoff(psr_datasets::presets::TWITTER_NODES)),
        "lap-vs-exp" => {
            let cmp = lap_vs_exp(&cfg, 1.0);
            println!(
                "Laplace vs Exponential (wiki-like, common neighbours, ε = {}):\n",
                cmp.epsilon
            );
            println!(
                "{}",
                render_mechanism_comparison(&cmp.exponential, &cmp.laplace, Some(cmp.max_abs_gap))
            );
            println!("mean |gap| = {:.5} over {} targets", cmp.mean_abs_gap, cmp.exponential.len());
            maybe_write_json(opts, &serde_json::to_string_pretty(&cmp).expect("serialisable"))?;
            None
        }
        other => unreachable!("arg parser admits only known figures, got {other}"),
    };
    if let Some(figure) = figure {
        println!("{}", render_figure(&figure));
        maybe_write_json(opts, &serde_json::to_string_pretty(&figure).expect("serialisable"))?;
    }
    eprintln!("[{:.1}s]", started.elapsed().as_secs_f64());
    Ok(())
}

fn maybe_write_json(opts: &Options, payload: &str) -> Result<(), String> {
    if let Some(path) = &opts.run.json {
        super::write(path, payload)?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
