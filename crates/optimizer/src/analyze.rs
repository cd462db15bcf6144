//! Per-node cardinality annotation — the optimizer side of
//! `EXPLAIN ANALYZE`.
//!
//! The physical plan type is a pure algebra shared with the executor and
//! compared structurally all over the test suite, so estimated
//! cardinalities are not stored inside the plan nodes.  Instead a
//! finished plan carries a side vector of [`NodeAnnotation`]s — the
//! request and row estimate of each node's [`Derivation`], in the plan's
//! **pre-order** numbering (node before children, children in execution
//! order), the same numbering as [`rqo_exec::OpMetrics::preorder`], so
//! the executor's actuals and the optimizer's estimates zip together
//! node for node.
//!
//! Because each annotation records the exact request as its
//! [`RequestKey`], observed actual selectivities can be fed back into a
//! [`rqo_core::FeedbackStore`] under keys the estimator will hit when the
//! same query is optimized again — closing the estimate → execute →
//! observe → re-estimate loop.

use rqo_core::RequestKey;
use rqo_exec::PhysicalPlan;

use crate::derive::{derive_plan, group_count, Derivation};
use crate::enumerate::PlanContext;
use crate::query::Query;

/// The estimation context of one plan node, in pre-order.
#[derive(Debug, Clone)]
pub struct NodeAnnotation {
    /// Estimated output rows of the node's subtree under the estimator
    /// the plan was derived with.
    pub est_rows: f64,
    /// Rows of the FK-root relation of the subtree's tables — the base
    /// the selectivity multiplies; `rows_out / root_rows` is the node's
    /// observed selectivity.
    pub root_rows: f64,
    /// The subtree's estimation request (tables covered, query predicates
    /// applied): what feedback is recorded under, what the plan cache
    /// checks drift against, and what a re-plan matches a finished
    /// fragment by.  `None` on an aggregate's value-only annotation.
    pub request: Option<RequestKey>,
}

/// A `NodeAnnotation` wrapped in `Option`: `None` marks nodes whose
/// request could not be reconstructed (hand-built plans whose filters do
/// not correspond to query predicates, and everything above them).
/// Aggregates estimate group counts heuristically and get a value-only
/// annotation (no request).
pub type NodeAnnotations = Vec<Option<NodeAnnotation>>;

/// Annotates every node of `plan` with its derivation under `ctx`, in
/// pre-order.  `ctx` should hold the same (possibly hinted) estimator
/// that produced the plan, so the annotations reproduce the
/// selectivities the optimizer actually used.
pub fn annotate_plan(ctx: &PlanContext<'_>, query: &Query, plan: &PhysicalPlan) -> NodeAnnotations {
    annotations(plan, &derive_plan(ctx, query, plan))
}

/// Projects `plan`'s pre-order derivations onto annotations.
pub(crate) fn annotations(plan: &PhysicalPlan, derived: &[Derivation]) -> NodeAnnotations {
    let nodes = plan.preorder();
    let mut out: NodeAnnotations = vec![None; nodes.len()];
    // Reverse pre-order: an aggregate reads its input's annotation.
    for node in nodes.iter().rev() {
        let d = &derived[node.index];
        out[node.index] = if let PhysicalPlan::HashAggregate { group_by, .. } = node.plan {
            let input = out[node.children[0]].as_ref().map(|a| a.est_rows);
            // A scalar aggregate yields one row whatever feeds it.
            let est_rows = if group_by.is_empty() {
                Some(1.0)
            } else {
                input
            };
            est_rows.map(|rows| NodeAnnotation {
                est_rows: group_count(group_by, rows),
                root_rows: 0.0,
                request: None,
            })
        } else {
            d.known.then(|| NodeAnnotation {
                // No predicates ⇒ the FK-join cardinality is the root's
                // rows exactly, whatever the estimator's quantile says.
                est_rows: if d.request.predicates().len() == 0 {
                    d.root_rows
                } else {
                    d.est_rows
                },
                root_rows: d.root_rows,
                request: Some(d.request.clone()),
            })
        };
    }
    out
}

/// Estimated output rows per node in pre-order (`None` where no estimate
/// could be derived) — the shape [`rqo_exec::OpMetrics::annotate`] takes.
pub fn estimates_only(annotations: &NodeAnnotations) -> Vec<Option<f64>> {
    annotations
        .iter()
        .map(|a| a.as_ref().map(|a| a.est_rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_core::{CardinalityEstimator, OracleEstimator};
    use rqo_datagen::{workload, TpchConfig, TpchData};
    use rqo_exec::AggExpr;
    use rqo_storage::{Catalog, CostParams};
    use std::sync::Arc;

    fn tpch() -> Arc<Catalog> {
        Arc::new(
            TpchData::generate(&TpchConfig {
                scale_factor: 0.005,
                seed: 42,
            })
            .into_catalog(),
        )
    }

    #[test]
    fn oracle_annotations_match_executed_cardinalities() {
        // With the exact estimator, every annotated node's estimate must
        // equal the actual row count the executor produces for it.
        let cat = tpch();
        let oracle: Arc<dyn CardinalityEstimator> =
            Arc::new(OracleEstimator::new(Arc::clone(&cat)));
        let opt =
            crate::Optimizer::new(Arc::clone(&cat), CostParams::default(), Arc::clone(&oracle));
        let query = Query::over(&["lineitem", "orders", "part"])
            .filter("part", workload::exp2_part_predicate(150))
            .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
        let planned = opt.optimize(&query);
        let annotations = annotate_plan(&opt.context(oracle.as_ref()), &query, &planned.plan);
        assert_eq!(
            annotations.len(),
            planned.plan.node_count(),
            "one annotation per plan node"
        );
        let (_, _, metrics) = rqo_exec::execute_analyze(
            &planned.plan,
            &cat,
            opt.params(),
            &rqo_exec::ExecOptions::default(),
        );
        let actuals: Vec<u64> = metrics.preorder().iter().map(|m| m.rows_out).collect();
        for (i, (ann, actual)) in annotations.iter().zip(&actuals).enumerate() {
            let Some(ann) = ann else { continue };
            // The aggregate's group-count heuristic is not exact; every
            // real cardinality node must be.
            if ann.request.is_none() {
                continue;
            }
            assert!(
                (ann.est_rows - *actual as f64).abs() < 1e-6,
                "node {i}: oracle est {} vs actual {actual}",
                ann.est_rows
            );
        }
    }

    #[test]
    fn scalar_aggregate_estimates_one_row() {
        let cat = tpch();
        let oracle: Arc<dyn CardinalityEstimator> =
            Arc::new(OracleEstimator::new(Arc::clone(&cat)));
        let opt =
            crate::Optimizer::new(Arc::clone(&cat), CostParams::default(), Arc::clone(&oracle));
        let query = Query::over(&["lineitem"])
            .filter("lineitem", workload::exp1_lineitem_predicate(50))
            .aggregate(AggExpr::count_star("n"));
        let planned = opt.optimize(&query);
        let annotations = annotate_plan(&opt.context(oracle.as_ref()), &query, &planned.plan);
        let root = annotations[0].as_ref().expect("aggregate annotated");
        assert_eq!(root.est_rows, 1.0);
        assert!(root.request.is_none(), "no feedback key for aggregates");
    }

    #[test]
    fn unmatched_filter_degrades_to_none() {
        // A hand-built filter that is not a query predicate cannot be
        // mapped to an estimation request; the node and its ancestors
        // stay unannotated rather than getting a wrong estimate.
        let cat = tpch();
        let oracle: Arc<dyn CardinalityEstimator> =
            Arc::new(OracleEstimator::new(Arc::clone(&cat)));
        let opt =
            crate::Optimizer::new(Arc::clone(&cat), CostParams::default(), Arc::clone(&oracle));
        let query = Query::over(&["part"]);
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "part".into(),
                predicate: None,
            }),
            predicate: rqo_expr::Expr::col("p_x").lt(rqo_expr::Expr::lit(10i64)),
        };
        let annotations = annotate_plan(&opt.context(oracle.as_ref()), &query, &plan);
        assert!(annotations[0].is_none(), "unattributable filter");
        assert!(annotations[1].is_some(), "scan below is still annotated");
    }
}
