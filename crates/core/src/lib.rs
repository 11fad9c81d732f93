//! # private-social-recs
//!
//! A full reproduction of **"Personalized Social Recommendations —
//! Accurate or Private?"** (Machanavajjhala, Korolova, Das Sarma;
//! PVLDB 4(7), 2011) as a production-quality Rust library.
//!
//! The paper asks whether recommendations computed *solely from a social
//! graph's links* can be simultaneously accurate and edge-differentially
//! private, and answers mostly negatively: it proves trade-off lower
//! bounds, adapts the Laplace and Exponential mechanisms, and measures
//! both against the bounds on real graphs. This crate ties the workspace
//! together:
//!
//! * [`Recommender`] — serve a single ε-private recommendation for a
//!   target node (the paper's deliverable, as an API),
//! * [`serving`] — the batch deployment of that API: a
//!   [`RecommendationService`] fans `(target, k)` request batches across
//!   a worker pool, enforces per-target ε budgets, and serves a *mutable*
//!   graph through versioned epochs
//!   ([`serving::RecommendationService::apply_mutations`]): edge
//!   mutations land in a `psr_graph::DeltaGraph` overlay, and only dirty
//!   targets lose their cached candidate/utility state,
//! * [`experiment`] — the §7 protocol: sample targets, compute per-target
//!   expected accuracies and theoretical ceilings, in parallel,
//! * [`par`] — the one executor every parallel loop above runs on: an
//!   indexed parallel map with index-ordered results,
//! * [`figures`] — one harness per figure (1(a)–2(c)) plus the in-text
//!   comparisons, regenerating the paper's series,
//! * [`cdf`]/[`report`] — the accuracy-CDF aggregation and text rendering
//!   used for EXPERIMENTS.md.
//!
//! ## Sharing one graph across consumers
//!
//! Both [`Recommender`] and [`serving::RecommendationService`] keep their
//! graph behind an [`std::sync::Arc`], and their constructors accept
//! either an owned [`psr_graph::Graph`] or an existing `Arc<Graph>`. A
//! deployment therefore loads the graph once and hands the same handle to
//! every service, recommender and experiment
//! (`service.shared_graph()` / `recommender.shared_graph()`), instead of
//! cloning a multi-million-edge structure per consumer.
//!
//! ## Privacy-budget semantics
//!
//! Every request served by a [`serving::RecommendationService`] costs its
//! configured ε (the request's `k` slots are peeled at ε/k each, so basic
//! composition charges ε per request), and repeated requests about one
//! target compose additively. The service's
//! [`serving::BudgetAccountant`] admits requests sequentially in batch
//! order, *charges at admission time* (a request that later finds no
//! candidates has still queried the graph — refunds would be unsound),
//! and rejects anything that would push a target past
//! `budget_per_target` with a typed
//! [`serving::ServeError::BudgetExhausted`]. Budgets persist across graph
//! epochs: applying mutations moves the served graph to an edge-adjacent
//! neighbour (Definition 1), not to a fresh database, so spend is never
//! refunded implicitly (see the [`serving`] module docs).
//!
//! ## Quickstart
//!
//! ```
//! use psr_core::{Recommender, RecommenderConfig};
//! use psr_datasets::toy::karate_club;
//! use psr_utility::CommonNeighbors;
//! use psr_privacy::ExponentialMechanism;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let graph = karate_club();
//! let rec = Recommender::new(
//!     graph,
//!     Box::new(CommonNeighbors),
//!     Box::new(ExponentialMechanism::paper()),
//!     RecommenderConfig { epsilon: 1.0, ..Default::default() },
//! );
//! // Seeded for reproducibility; `rand::thread_rng()` works the same way.
//! let mut rng = StdRng::seed_from_u64(42);
//! let suggestion = rec.recommend(0, &mut rng).unwrap();
//! assert!(suggestion != 0);
//! ```

pub mod cdf;
pub mod experiment;
pub mod figures;
pub mod par;
mod pipeline;
pub mod report;
pub mod serving;

pub use cdf::AccuracyCdf;
pub use experiment::{
    evaluate_target, run_experiment, ExperimentConfig, ExperimentResult, TargetEvaluation,
};
pub use pipeline::{Recommender, RecommenderConfig};
pub use serving::{
    BatchRequest, BudgetLedger, EpochPin, JournalLedger, RecommendationService, ServeError, Served,
    ServiceConfig,
};
