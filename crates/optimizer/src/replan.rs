//! Mid-query re-optimization: planning the remainder of a query against
//! an already-materialized intermediate.
//!
//! When a runtime cardinality guard trips at a pipeline breaker, the
//! adaptive driver (the engine's run loop) has three things in hand:
//! the materialized batch, the `(tables, predicates)` request of the
//! subtree that produced it (from the tripped node's [`NodeAnnotation`]),
//! and a feedback store that now records the *observed* selectivities
//! for that request.  [`Optimizer::replan_with_materialized`] turns those
//! into a resumable plan:
//!
//! 1. re-optimize the **full** query — the estimator, primed with the
//!    fed-back truth, no longer repeats the misestimate, and the search
//!    is free to restructure everything downstream of the breaker;
//! 2. find the node of the fresh plan whose annotated estimation request
//!    has the finished fragment's canonical key (the same keying the
//!    feedback store uses);
//! 3. graft a [`PhysicalPlan::Materialized`] leaf over that subtree, so
//!    the finished work is served from memory instead of recomputed.
//!
//! Step 2 can legitimately fail: the fresh plan may have absorbed the
//! fragment's tables into a shape with no matching subtree (e.g. the
//! table became the *inner* of an indexed nested-loops join).  In that
//! case the un-grafted plan is returned and the caller simply re-executes
//! it from scratch — correctness never depends on the graft, only the
//! cost saving does.

use rqo_core::PlanSelection;
use rqo_exec::PhysicalPlan;
use rqo_expr::Expr;

use crate::analyze::{annotate_plan, NodeAnnotation};
use crate::planner::{Optimizer, PlannedQuery};
use crate::query::Query;
use crate::selection::median;

/// A finished, materialized query fragment: the request of the subtree
/// whose output is already in memory, and the slot its batch is bound to
/// at execution time.
#[derive(Debug, Clone)]
pub struct MaterializedFragment {
    /// Tables the fragment covers.
    pub tables: Vec<String>,
    /// Query predicates applied within the fragment.
    pub predicates: Vec<(String, Expr)>,
    /// The request's canonical key — the identity used to find the
    /// matching subtree in a fresh plan.
    pub key: String,
    /// Executor slot the fragment's batch is bound to.
    pub slot: usize,
}

impl MaterializedFragment {
    /// Builds a fragment from the tripped node's annotation and the slot
    /// its batch will occupy.
    pub fn from_annotation(annotation: &NodeAnnotation, slot: usize) -> Self {
        Self {
            tables: annotation.tables.clone(),
            predicates: annotation.predicates.clone(),
            key: annotation.key.clone(),
            slot,
        }
    }
}

impl Optimizer {
    /// Re-optimizes `query` and grafts a [`PhysicalPlan::Materialized`]
    /// leaf over the subtree matching `fragment`, returning the planned
    /// query and whether the graft happened.
    ///
    /// The returned plan is always executable; when the flag is `false`
    /// no subtree of the fresh plan matched the fragment's request and
    /// the plan recomputes everything (correct, just not resumed).
    pub fn replan_with_materialized(
        &self,
        query: &Query,
        fragment: &MaterializedFragment,
    ) -> (PlannedQuery, bool) {
        let mut planned = self.optimize(query);
        // First pre-order match = shallowest = the largest finished
        // subtree the fresh plan can reuse.  Value-only annotations
        // (aggregates) carry no request and never match.
        let target = planned.node_annotations.iter().position(|ann| {
            ann.as_ref()
                .is_some_and(|a| !a.tables.is_empty() && a.key == fragment.key)
        });
        let Some(idx) = target else {
            return (planned, false);
        };
        let leaf = PhysicalPlan::Materialized {
            slot: fragment.slot,
            tables: fragment.tables.clone(),
            predicates: fragment.predicates.clone(),
        };
        let Some(plan) = planned.plan.replace_subtree(idx, leaf) else {
            return (planned, false);
        };
        // Re-derive annotations for the grafted shape with the same
        // (possibly hinted) estimator that derived the fresh plan's own
        // annotations, so downstream guard arming and metric annotation
        // stay aligned node-for-node.  Penalty-mode plans annotate at
        // the posterior median regardless of any threshold hint.
        let annotation_hint = match query.selection.unwrap_or_default() {
            PlanSelection::ExpectedPenalty => Some(median()),
            PlanSelection::Quantile => query.hint,
        };
        planned.node_annotations =
            self.with_hinted_context(annotation_hint, |ctx| annotate_plan(ctx, query, &plan));
        planned.plan = plan;
        (planned, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_core::OracleEstimator;
    use rqo_datagen::{workload, TpchConfig, TpchData};
    use rqo_exec::AggExpr;
    use rqo_storage::{Catalog, CostParams};
    use std::sync::Arc;

    fn oracle_optimizer() -> Optimizer {
        let cat: Arc<Catalog> = Arc::new(
            TpchData::generate(&TpchConfig {
                scale_factor: 0.005,
                seed: 42,
            })
            .into_catalog(),
        );
        let est = OracleEstimator::new(Arc::clone(&cat));
        Optimizer::new(cat, CostParams::default(), Arc::new(est))
    }

    #[test]
    fn graft_replaces_matching_subtree() {
        let opt = oracle_optimizer();
        let pred = workload::exp1_lineitem_predicate(50);
        let query = Query::over(&["lineitem"])
            .filter("lineitem", pred.clone())
            .aggregate(AggExpr::count_star("n"));
        // The scan under the aggregate is the finished fragment.
        let scan = opt.optimize(&query).node_annotations[1]
            .clone()
            .expect("scan annotated");
        assert_eq!(scan.predicates, vec![("lineitem".to_string(), pred)]);
        let fragment = MaterializedFragment::from_annotation(&scan, 0);
        let (planned, substituted) = opt.replan_with_materialized(&query, &fragment);
        assert!(substituted);
        assert_eq!(planned.shape(), "agg(mat#0)");
        assert_eq!(
            planned.node_annotations.len(),
            planned.plan.node_count(),
            "annotations re-derived for the grafted shape"
        );
        // The materialized leaf keeps its spec annotation.
        let leaf = planned.node_annotations[1].as_ref().expect("leaf spec");
        assert_eq!(leaf.tables, vec!["lineitem".to_string()]);
    }

    #[test]
    fn unmatched_fragment_returns_plan_unchanged() {
        let opt = oracle_optimizer();
        let query = Query::over(&["lineitem"])
            .filter("lineitem", workload::exp1_lineitem_predicate(50))
            .aggregate(AggExpr::count_star("n"));
        let orders = opt.optimize(&Query::over(&["orders"])).node_annotations[0]
            .clone()
            .expect("scan annotated");
        let fragment = MaterializedFragment::from_annotation(&orders, 0);
        let baseline = opt.optimize(&query);
        let (planned, substituted) = opt.replan_with_materialized(&query, &fragment);
        assert!(!substituted);
        assert_eq!(planned.shape(), baseline.shape());
    }
}
