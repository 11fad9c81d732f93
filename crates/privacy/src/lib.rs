//! Differentially private recommendation mechanisms (paper §6, App. D–F).
//!
//! One type, [`Mechanism`], covers the two mechanisms the paper adapts to
//! social recommendations and Appendix F's smoothing mechanism. It owns
//! sampling (`k` slots, zero-class slots resolved to distinct concrete
//! candidates), the ε a request costs, and the expected accuracy:
//!
//! * [`Mechanism::Exponential`] (Def. 5) — recommends node `i` with
//!   probability `∝ e^{(ε/Δf)·uᵢ}`, `k` slots peeled at ε/k each
//!   ([`topk`]); exact accuracy from [`exponential_probabilities`].
//! * [`Mechanism::Laplace`] (Def. 6) — the noisy argmax under `Lap(Δf/ε)`
//!   noise, sampled by an *exact grouped max* (zero-utility candidates are
//!   exchangeable, and the max of `N` i.i.d. Laplace draws has a direct
//!   quantile), so 1,000-trial Monte-Carlo accuracy
//!   ([`laplace_accuracy`]) is feasible at the paper's scales.
//! * [`Mechanism::Smoothing`] (Def. 7 / Theorem 5) — mixes the best
//!   recommender with the uniform distribution; `ln(1 + nx/(1−x))`-DP
//!   with accuracy `x·μ` ([`smoothing_epsilon`] and its inverses).
//! * [`closed_form`] — Lemma 3's exact two-candidate Laplace win
//!   probability, used to show Laplace ≢ Exponential (App. E).
//! * [`audit`] — exact DP-ratio verification on neighbouring inputs.

pub mod audit;
pub mod closed_form;
mod exponential;
mod laplace_dist;
mod laplace_mech;
mod mechanism;
mod smoothing;
pub mod topk;

pub use exponential::exponential_probabilities;
pub use laplace_dist::Laplace;
pub use laplace_mech::laplace_accuracy;
pub use mechanism::{resolve_zero_class_distinct, Draw, Mechanism};
pub use smoothing::{smoothing_epsilon, smoothing_x_for_epsilon, smoothing_x_for_log_privacy};
pub use topk::{topk_exponential, topk_gumbel, topk_with_engine, TopK, TopKEngine};
