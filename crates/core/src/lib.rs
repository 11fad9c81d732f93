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
//! * [`serving`] — the paper's deliverable as an API: a
//!   [`RecommendationService`] serves ε-private recommendations from any
//!   of the paper's mechanisms (one [`psr_privacy::Mechanism`]), one
//!   request ([`RecommendationService::serve_one`]) or a `(target, k)`
//!   batch across a worker pool at a time, enforces per-target ε budgets,
//!   and serves a *mutable* graph through versioned epochs
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
//! A [`serving::RecommendationService`] keeps its graph behind an
//! [`std::sync::Arc`], and its builder accepts an owned
//! [`psr_graph::Graph`], an existing `Arc<Graph>` or any
//! [`psr_graph::GraphBackend`]. A deployment therefore loads the graph
//! once and hands the same handle to every service and experiment
//! (`service.shared_graph()`), instead of cloning a multi-million-edge
//! structure per consumer.
//!
//! ## Privacy-budget semantics
//!
//! Every request served by a [`serving::RecommendationService`] costs
//! what its mechanism charges ([`psr_privacy::Mechanism::charge`]): the
//! configured ε for the exponential mechanism (the request's `k` slots
//! are peeled at ε/k each, so basic composition charges ε per request)
//! and for Laplace, Theorem 5's `ln(1 + n·x/(1−x))` for smoothing. Repeated
//! requests about one target compose additively. The service's
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
//! use std::sync::Arc;
//!
//! use psr_core::{RecommendationService, ServiceConfig};
//! use psr_datasets::toy::karate_club;
//! use psr_privacy::Mechanism;
//! use psr_utility::CommonNeighbors;
//!
//! let service = RecommendationService::builder(karate_club(), Arc::new(CommonNeighbors))
//!     .config(ServiceConfig {
//!         mechanism: Mechanism::Exponential,
//!         epsilon_per_request: 1.0,
//!         ..Default::default()
//!     })
//!     .build();
//! // One ε-private suggestion for member 0; the seed makes it reproducible.
//! let served = service.serve_one(0, 1, 42).unwrap();
//! assert!(served.recommendations[0] != 0);
//! assert_eq!(served.epsilon_spent, 1.0);
//! ```

pub mod cdf;
pub mod experiment;
pub mod figures;
pub mod par;
pub mod report;
pub mod serving;

pub use cdf::AccuracyCdf;
pub use experiment::{
    evaluate_target, run_experiment, ExperimentConfig, ExperimentResult, TargetEvaluation,
};
pub use serving::{
    BatchRequest, BudgetLedger, EpochPin, JournalLedger, RecommendationService, ServeError, Served,
    ServiceBuilder, ServiceConfig,
};
