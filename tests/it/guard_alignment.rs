//! Guard-index / annotation alignment over the golden plan suite.
//!
//! The adaptive executor arms guards at pre-order indices computed by
//! `rqo_exec::guard_points`, and the optimizer attaches per-node
//! estimates at pre-order indices computed by its own `annotate_plan`
//! pass.  Both used to walk the plan with hand-maintained counters; both
//! now iterate the canonical [`PhysicalPlan::preorder`] numbering.  A
//! disagreement between the two traversals would silently arm a guard
//! with another node's estimate — the failure mode this test pins.
//!
//! The oracle below is an *independent* re-implementation of the original
//! recursive counter walk.  For every plan shape the golden suite
//! produces (all three paper experiments at T ∈ {5%, 50%, 80%, 95%}),
//! plus synthetic plans with `Materialized` grafts, the oracle and the
//! shared helper must agree exactly, and the annotation vector must have
//! one entry per pre-order node.

use robust_qo::prelude::*;

use crate::support::{self, star_db, tpch_db};

const THRESHOLDS: [f64; 4] = [0.05, 0.50, 0.80, 0.95];

/// Independent oracle: the original recursive traversal with a manual
/// pre-order counter (a child's index is the counter value at the moment
/// of recursion).  Kept deliberately separate from the shared
/// `preorder()` helper so the two can disagree.
fn oracle_guard_points(plan: &PhysicalPlan) -> Vec<usize> {
    let mut out = Vec::new();
    walk(plan, &mut 0, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn walk(plan: &PhysicalPlan, counter: &mut usize, out: &mut Vec<usize>) {
    let my = *counter;
    *counter += 1;
    match plan {
        PhysicalPlan::IndexIntersection { .. } | PhysicalPlan::StarSemiJoin { .. } => {
            out.push(my);
        }
        PhysicalPlan::HashJoin { build, probe, .. } => {
            mark(build, *counter, out);
            walk(build, counter, out);
            walk(probe, counter, out);
        }
        PhysicalPlan::MergeJoin { left, right, .. } => {
            mark(left, *counter, out);
            walk(left, counter, out);
            mark(right, *counter, out);
            walk(right, counter, out);
        }
        PhysicalPlan::IndexedNlJoin { outer, .. } => {
            mark(outer, *counter, out);
            walk(outer, counter, out);
        }
        PhysicalPlan::HashAggregate { input, .. } => {
            mark(input, *counter, out);
            walk(input, counter, out);
        }
        _ => {
            for child in plan.children() {
                walk(child, counter, out);
            }
        }
    }
}

fn mark(child: &PhysicalPlan, idx: usize, out: &mut Vec<usize>) {
    if !matches!(child, PhysicalPlan::Materialized { .. }) {
        out.push(idx);
    }
}

/// Asserts the shared helper and the oracle agree on `planned`, and that
/// the annotation pass produced exactly one (possibly empty) slot per
/// pre-order node.
fn check(planned: &PlannedQuery, context: &str) {
    let plan = &planned.plan;
    let shared = robust_qo::exec::guard_points(plan);
    let oracle = oracle_guard_points(plan);
    assert_eq!(
        shared,
        oracle,
        "{context}: guard_points disagree on shape {}",
        planned.shape()
    );
    let nodes = plan.preorder().len();
    assert_eq!(
        planned.node_annotations.len(),
        nodes,
        "{context}: annotate_plan must cover every pre-order node of shape {}",
        planned.shape()
    );
}

fn check_suite(mut db: Engine, query: &Query, name: &str) {
    for &t in &THRESHOLDS {
        db = db.with_threshold(ConfidenceThreshold::new(t));
        let planned = db.optimizer().optimize(query);
        check(&planned, &format!("{name} @ T={t}"));
    }
}

#[test]
fn golden_tpch_plans_align() {
    check_suite(tpch_db(), &support::exp1(110), "exp1");
    check_suite(tpch_db(), &support::exp2(212), "exp2");
}

#[test]
fn golden_star_plans_align() {
    check_suite(star_db(), &support::exp3(3), "exp3");
}

#[test]
fn synthetic_plans_with_materialized_grafts_align() {
    // Shapes the optimizer only produces mid-adaptive-run: Materialized
    // leaves replacing finished fragments.  The oracle must skip them as
    // guard points exactly like the shared helper.
    let scan = |t: &str| PhysicalPlan::SeqScan {
        table: t.into(),
        predicate: None,
    };
    let mat = |slot: usize| PhysicalPlan::Materialized {
        slot,
        tables: vec!["lineitem".into()],
        predicates: Vec::new(),
    };

    let plans = [
        // Aggregate over a hash join whose build side is materialized.
        PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                build: Box::new(mat(0)),
                probe: Box::new(scan("orders")),
                build_key: "l_orderkey".into(),
                probe_key: "o_orderkey".into(),
            }),
            group_by: vec![],
            aggregates: vec![AggExpr::count_star("n")],
        },
        // Merge join with one materialized side, nested under a filter.
        PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(mat(1)),
                right: Box::new(PhysicalPlan::IndexedNlJoin {
                    outer: Box::new(scan("orders")),
                    inner_table: "lineitem".into(),
                    inner_index_column: "l_orderkey".into(),
                    outer_key: "o_orderkey".into(),
                }),
                left_key: "l_orderkey".into(),
                right_key: "o_orderkey".into(),
            }),
            predicate: Expr::col("l_quantity").ge(Expr::lit(1)),
        },
        // A bare materialized leaf (fully-resumed query).
        PhysicalPlan::HashAggregate {
            input: Box::new(mat(0)),
            group_by: vec![],
            aggregates: vec![AggExpr::count_star("n")],
        },
    ];

    for (i, plan) in plans.iter().enumerate() {
        assert_eq!(
            robust_qo::exec::guard_points(plan),
            oracle_guard_points(plan),
            "synthetic plan {i}"
        );
    }
}
