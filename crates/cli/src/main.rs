//! `psr` — run any experiment from the reproduction of
//! "Personalized Social Recommendations — Accurate or Private?".
//!
//! `psr <subcommand> [options]`; `args::USAGE` lists every subcommand
//! and flag. A parse error prints `error: …` and the usage; a bad input
//! (a missing file, a corrupt snapshot, a malformed request list) prints
//! `error: …`. Both exit with status 1.
//!
//! `serve` reads a JSON array of `{"target": N, "k": M}` requests, answers
//! them in one batch over a shared-graph worker pool with per-target
//! ε-budget accounting, and emits a JSON report (stdout, or `--json PATH`).
//!
//! `attack` runs the empirical edge-inference adversaries (`psr-attack`)
//! against the chosen mechanism and emits a JSON report of per-adversary
//! ROC curves, advantage, and empirical-ε estimates overlaid on the
//! Lemma-1/Corollary-1/Theorem-5 bounds.
//!
//! `frontier` orchestrates a whole grid of those probes from a declarative
//! experiment plan (`psr-frontier`), checkpoints every finished cell to a
//! results journal so a killed sweep resumes where it stopped, and emits a
//! single machine-readable frontier report.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("error: {message}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
