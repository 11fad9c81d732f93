//! Theoretical privacy–accuracy trade-off bounds (paper §4–§5, App. A–C).
//!
//! Everything the paper *proves* lives here as executable formulas:
//!
//! * [`lemma1_eps_lower_bound`] — the master trade-off
//!   `ε ≥ (1/t)[ln((c−δ)/δ) + ln((n−k)/(k+1))]`.
//! * [`corollary1_accuracy_upper_bound`] and [`best_accuracy_bound`] — the
//!   equivalent accuracy ceiling `1−δ ≤ 1 − c(n−k)/(n−k+(k+1)e^{εt})`,
//!   including the tightest choice of `c` for a concrete utility vector
//!   (the curve plotted as "Theor. Bound" in Figures 1–2).
//! * [`lemma2_eps_lower_bound`] — the `(log n − o(log n))/t` form.
//! * [`theorems`] — Theorem 1 (any utility), Theorem 2 (common
//!   neighbours), Theorem 3 (weighted paths) with their `t` upper bounds.
//! * [`node_privacy`] — Appendix A's node-identity variant (`t = 2`).
//! * [`non_monotone`] — Appendix A's exchange argument for algorithms
//!   without the monotonicity property.
//! * [`partial`] — §8's sensitive-edge-subset extension.
//! * [`theorem5`] — Appendix F's smoothing trade-off.
//! * [`edit_distance`] — the exact per-target `t` formulas used in §7.1.

pub mod edit_distance;
mod lemma1;
mod lemma2;
pub mod node_privacy;
pub mod non_monotone;
pub mod partial;
pub mod theorem5;
pub mod theorems;

pub use lemma1::{
    best_accuracy_bound, best_accuracy_bound_grouped, corollary1_accuracy_upper_bound,
    lemma1_eps_lower_bound, BoundResult,
};
pub use lemma2::lemma2_eps_lower_bound;
