//! Runtime cardinality guards and resumable execution — the executor
//! half of mid-query adaptive re-optimization.
//!
//! Every materializing operator is a natural checkpoint: when its output
//! batch is complete, the *actual* cardinality is known exactly, and the
//! cost of everything downstream is still unspent.  A [`RowGuard`] armed
//! at such a node compares the actual row count against the estimate the
//! plan was priced at; when the q-error exceeds the guard's bound,
//! [`execute_guarded`] stops at that pipeline breaker and returns a
//! [`GuardTrip`] carrying the materialized batch, the completed subtree's
//! metrics (for feedback recording), and the cost charged so far (left in
//! the caller's [`CostTracker`]).  The caller — the engine's one run loop
//! — records the observed selectivities, re-optimizes the remainder of
//! the query at an escalated confidence threshold, grafts a
//! [`PhysicalPlan::Materialized`] leaf over the finished fragment, and
//! resumes by calling [`execute_guarded`] again with the batch bound to
//! its slot.
//!
//! Guard decisions are **deterministic and thread-invariant**: they
//! compare batch lengths (bit-identical at every thread count by the
//! morsel executor's construction) against plan-time estimates, so the
//! same query trips the same guards in the same order at 1, 2, or 8
//! workers.

use rqo_core::StopReason;
use rqo_storage::{Catalog, CostParams, CostTracker};

use crate::batch::Batch;
use crate::executor::{run_guarded, Interrupt};
use crate::metrics::OpMetrics;
use crate::morsel::ExecOptions;
use crate::plan::PhysicalPlan;

/// A runtime cardinality guard armed on one plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGuard {
    /// Pre-order index of the guarded node (node before children,
    /// children in execution order — the numbering shared with
    /// `OpMetrics` and the optimizer's annotations).
    pub node: usize,
    /// Estimated output rows the plan was priced at for this node.
    pub est_rows: f64,
    /// Maximum tolerated q-error between estimate and actual.
    pub bound: f64,
}

impl RowGuard {
    /// Whether an actual row count violates this guard.
    pub fn trips(&self, actual_rows: u64) -> bool {
        q_error(self.est_rows, actual_rows as f64) > self.bound
    }
}

/// The q-error between an estimate and an actual cardinality, both
/// floored at one row so empty results do not divide by zero: 1.0 is a
/// perfect estimate, 10.0 is an order of magnitude off either way.  The
/// one row q-error: guards and [`OpMetrics::q_error`] both use it.
pub fn q_error(est_rows: f64, actual_rows: f64) -> f64 {
    let est = est_rows.max(1.0);
    let actual = actual_rows.max(1.0);
    (est / actual).max(actual / est)
}

/// A guard violation: execution stopped at a pipeline breaker with the
/// breaker's output fully materialized.
#[derive(Debug)]
pub struct GuardTrip {
    /// Pre-order index of the tripped node in the executed plan.
    pub node: usize,
    /// The estimate the guard compared against.
    pub est_rows: f64,
    /// Rows actually materialized at the breaker.
    pub actual_rows: u64,
    /// `q_error(est_rows, actual_rows)` — by construction greater than
    /// the guard's bound.
    pub q_error: f64,
    /// The breaker's materialized output, ready to resume against.
    pub batch: Batch,
    /// Metrics of the *completed* subtree rooted at the tripped node, in
    /// the same pre-order as the plan — the observations worth feeding
    /// back before re-planning.
    pub metrics: OpMetrics,
}

/// The outcome of a guarded execution.
#[derive(Debug)]
pub enum ExecStatus {
    /// The plan ran to completion; no guard tripped.
    Complete {
        /// Result rows.
        batch: Batch,
        /// Per-operator metrics for the whole plan.
        metrics: OpMetrics,
    },
    /// A guard tripped; execution paused at the pipeline breaker.
    Tripped(Box<GuardTrip>),
    /// The query's cancellation/deadline token fired; execution stopped
    /// within one morsel, producing nothing.
    Stopped(StopReason),
}

/// Pre-order indices of the plan's **guardable checkpoints**: nodes whose
/// output is fully materialized before any downstream work consumes it,
/// so pausing there wastes nothing.
///
/// * the **build child** of every hash join (the build side is consumed
///   whole before probing starts);
/// * the **input child** of every hash aggregate;
/// * both **inputs of a merge join** (each side is sorted, i.e. blocked,
///   before merging);
/// * the **outer child** of every indexed nested-loops join (the outer
///   is materialized before the probe loop begins);
/// * every **index intersection** and **star semijoin** node itself (RID
///   intersection blocks on all legs before fetching).
///
/// [`PhysicalPlan::Materialized`] leaves are never guard points — their
/// cardinality is already known exactly.
pub fn guard_points(plan: &PhysicalPlan) -> Vec<usize> {
    let mut out = Vec::new();
    for node in plan.preorder() {
        match node.plan {
            PhysicalPlan::IndexIntersection { .. } | PhysicalPlan::StarSemiJoin { .. } => {
                out.push(node.index);
            }
            PhysicalPlan::HashJoin { build, .. } => mark(build, node.children[0], &mut out),
            PhysicalPlan::MergeJoin { left, right, .. } => {
                mark(left, node.children[0], &mut out);
                mark(right, node.children[1], &mut out);
            }
            PhysicalPlan::IndexedNlJoin { outer, .. } => mark(outer, node.children[0], &mut out),
            PhysicalPlan::HashAggregate { input, .. } => mark(input, node.children[0], &mut out),
            _ => {}
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn mark(child: &PhysicalPlan, idx: usize, out: &mut Vec<usize>) {
    if !matches!(child, PhysicalPlan::Materialized { .. }) {
        out.push(idx);
    }
}

/// Executes a plan with runtime cardinality guards and bound
/// intermediates.
///
/// `guards` arm the checkpoints (see [`guard_points`]); an empty slice
/// makes this identical to `execute_analyze`.  `slots` binds
/// [`PhysicalPlan::Materialized`] leaves by index.  Cost accumulates
/// into `tracker` across the call — on a trip, the tracker holds exactly
/// the work performed up to the breaker, and a subsequent resume call
/// with the same tracker yields the query's true total.
///
/// # Panics
///
/// Panics when a `Materialized` leaf references a slot outside `slots`.
pub fn execute_guarded(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    opts: &ExecOptions,
    guards: &[RowGuard],
    slots: &[Batch],
    tracker: &mut CostTracker,
) -> ExecStatus {
    match run_guarded(plan, catalog, params, tracker, opts, guards, slots) {
        Ok((batch, metrics)) => ExecStatus::Complete { batch, metrics },
        Err(Interrupt::Trip(trip)) => ExecStatus::Tripped(trip),
        Err(Interrupt::Stopped(reason)) => ExecStatus::Stopped(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::IndexRange;
    use rqo_core::RequestKey;
    use rqo_expr::Expr;
    use rqo_storage::Value;

    fn scan(table: &str) -> PhysicalPlan {
        PhysicalPlan::SeqScan {
            table: table.into(),
            predicate: None,
        }
    }

    #[test]
    fn q_error_is_symmetric_and_floored() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        // Sub-row estimates are floored at one row.
        assert_eq!(q_error(0.001, 0.0), 1.0);
        assert_eq!(q_error(0.5, 8.0), 8.0);
    }

    #[test]
    fn guard_points_cover_blocking_checkpoints() {
        // agg(hj(build=scan, probe=inl(outer=ixsect, inner)))
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                build: Box::new(scan("a")),
                probe: Box::new(PhysicalPlan::IndexedNlJoin {
                    outer: Box::new(PhysicalPlan::IndexIntersection {
                        table: "b".into(),
                        ranges: vec![
                            IndexRange::eq("x", Value::Int(1)),
                            IndexRange::eq("y", Value::Int(2)),
                        ],
                        residual: None,
                    }),
                    inner_table: "c".into(),
                    inner_index_column: "ck".into(),
                    outer_key: "x".into(),
                }),
                build_key: "k".into(),
                probe_key: "k".into(),
            }),
            group_by: vec![],
            aggregates: vec![],
        };
        // Pre-order: 0 agg, 1 hj, 2 scan a (build), 3 inl, 4 ixsect b.
        // Checkpoints: agg input (1), hj build (2), inl outer (4), and
        // the intersection node itself (4, deduped).
        assert_eq!(guard_points(&plan), vec![1, 2, 4]);
    }

    #[test]
    fn materialized_leaves_are_not_guarded() {
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Materialized {
                slot: 0,
                tables: vec!["a".into()],
                request: RequestKey::new(["a"], [("a", &Expr::col("x").lt(Expr::lit(1i64)))]),
            }),
            group_by: vec![],
            aggregates: vec![],
        };
        assert!(guard_points(&plan).is_empty());
    }

    #[test]
    fn merge_join_inputs_are_checkpoints() {
        let plan = PhysicalPlan::MergeJoin {
            left: Box::new(scan("a")),
            right: Box::new(scan("b")),
            left_key: "k".into(),
            right_key: "k".into(),
        };
        assert_eq!(guard_points(&plan), vec![1, 2]);
    }
}
