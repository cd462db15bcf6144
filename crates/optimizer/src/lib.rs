//! A cost-based select-project-join optimizer whose *only* interface to
//! statistics is the [`rqo_core::CardinalityEstimator`] trait — the
//! architectural claim of the paper (§3.1.1): swapping in the robust
//! sampling-based estimator requires no changes to plan enumeration, cost
//! estimation, or search.
//!
//! The optimizer handles the paper's query model: SPJ queries whose joins
//! follow declared foreign keys, with optional aggregation on top.  For
//! each query it performs:
//!
//! * **access-path selection** per table — sequential scan, single index
//!   seek, or index intersection over the indexed range conjuncts (the
//!   choice at the heart of Experiments 1 and 4);
//! * **join enumeration** — dynamic programming over connected subsets of
//!   the FK join graph, considering hash join (both build sides), merge
//!   join (sort-avoiding when inputs arrive clustered), and indexed
//!   nested-loops join (Experiment 2's three regimes);
//! * **star-semijoin candidates** — index-driven semijoin plans for
//!   star-shaped queries, including the hybrid shapes the paper observed
//!   (Experiment 3).
//!
//! Every number attached to a plan node — the estimation request it stands
//! for, its rows, its cost — comes from one per-node derivation
//! ([`derive`](derive::derive)): the enumerator costs candidates with it,
//! [`price_plan`] and [`annotate_plan`] read it off a finished plan.  Its
//! cost formulas are the executor's charging rules evaluated at the
//! *estimated* cardinalities; with the robust estimator those cardinalities
//! are posterior quantiles at the configured confidence threshold, so a
//! single knob moves every plan choice along the
//! performance/predictability frontier.

#![warn(missing_docs)]

pub mod access;
pub mod analyze;
pub mod cache;
pub mod cost;
pub mod derive;
pub mod enumerate;
pub mod planner;
pub mod query;
pub mod replan;
pub mod selection;

pub use analyze::{annotate_plan, NodeAnnotation, NodeAnnotations};
pub use cache::{CacheStats, PlanCache, PlanFingerprint, DRIFT_BOUND};
pub use cost::CostModel;
pub use derive::{price_plan, PricedPlan};
pub use planner::{Optimizer, PlannedQuery};
pub use query::Query;
pub use selection::{CandidateScore, PenaltyReport, PENALTY_ANNOTATION_QUANTILE};
