//! The integration suites: one test binary, one module per suite.
//!
//! Every suite builds its data, its queries and its comparisons through
//! [`support`], so a catalog is generated once per process and "two runs
//! agree" means the same thing everywhere: rows, cost bits, the metrics
//! tree and its rendering, re-plans and plan shape.

mod support;

mod adaptive_equivalence;
mod adaptive_golden;
mod adaptive_replan;
mod end_to_end;
mod evidence_gate;
mod explain_analyze;
mod guard_alignment;
mod insert_differential;
mod net_differential;
mod parallel_equivalence;
mod penalty_regret;
mod penalty_selection;
mod plan_cache;
mod plan_shapes;
mod service_differential;
