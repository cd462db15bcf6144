//! Robust cardinality estimation — the primary contribution of Babcock &
//! Chaudhuri, *"Towards a Robust Query Optimizer: A Principled and
//! Practical Approach"* (SIGMOD 2005).
//!
//! Instead of a single-point selectivity guess, the estimator derives a
//! full *probability distribution* over the unknown selectivity and then
//! collapses it according to user preference:
//!
//! 1. **Observe** — evaluate the query's predicates against a precomputed
//!    uniform sample (a [join synopsis](rqo_stats::synopsis) for FK-join
//!    expressions), yielding `k` satisfying tuples out of `n`.
//! 2. **Infer** — by Bayes's rule with a [`Prior`] (Jeffreys by default),
//!    the posterior over selectivity is `Beta(k + a₀, n − k + b₀)`
//!    ([`SelectivityPosterior`]).
//! 3. **Collapse** — return the posterior quantile at the
//!    [`ConfidenceThreshold`] `T`: the estimator is "`T`-percent sure" the
//!    true selectivity does not exceed the returned value.  Because every
//!    plan operator's cost is monotone in input cardinality, feeding this
//!    percentile *selectivity* through an ordinary cost model yields
//!    exactly the `T`-percentile of the plan's *cost* distribution
//!    (§3.1.1) — so nothing outside the cardinality-estimation module has
//!    to know distributions exist.
//!
//! Raising `T` makes the optimizer conservative (it assumes predicates are
//! less selective than they look, favouring plans whose cost is flat in
//! selectivity); lowering it makes the optimizer aggressive.  The paper's
//! recommended presets are captured by [`RobustnessLevel`].
//!
//! The crate also implements the paper's §3.5 extensions: fallback to
//! independent per-table samples with the AVI assumption when no covering
//! synopsis exists, a "magic" distribution when no statistics exist at
//! all ([`magic`]), and sample-based distinct-value
//! estimation for `GROUP BY`.  The estimators it is measured against are
//! the histogram (AVI) baseline and the exact oracle; §3.2's other
//! alternatives — on-the-fly sampling and distributions wrapped around
//! histogram estimates — are the paper's arguments, not code here.

#![warn(missing_docs)]

pub mod adaptive;
pub mod confidence;
pub mod config;
pub mod estimator;
pub mod feedback;
pub mod groupby;
mod key;
pub mod magic;
pub mod penalty;
pub mod posterior;
pub mod prior;
pub mod service;

pub use confidence::{cost_at_threshold, ConfidenceThreshold, RobustnessLevel};
pub use config::{EstimationStrategy, EstimatorConfig};
pub use estimator::{
    CardinalityEstimator, EstimateSource, EstimationRequest, HistogramEstimator, OracleEstimator,
    RobustEstimator, SelectivityEstimate,
};
pub use feedback::FeedbackStore;
pub use key::{PreHashed, RequestKey};
pub use penalty::{
    expected_penalties, penalty_grid, select_min_penalty, PenaltyScore, PlanSelection,
};
pub use posterior::SelectivityPosterior;
pub use prior::Prior;
pub use service::{QueryToken, ServiceConfig, StopReason};
