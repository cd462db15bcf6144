//! Mid-query re-optimization: planning the remainder of a query against
//! an already-materialized intermediate.
//!
//! When a runtime cardinality guard trips at a pipeline breaker, the
//! adaptive driver (the engine's run loop) has three things in hand:
//! the materialized batch, the tripped plan (whose node annotation holds
//! the [`RequestKey`](rqo_core::RequestKey) of the subtree that produced the batch), and a
//! feedback store that now records the *observed* selectivities for that
//! request.  [`Optimizer::replan_with_materialized`] turns those
//! into a resumable plan:
//!
//! 1. re-optimize the **full** query — the estimator, primed with the
//!    fed-back truth, no longer repeats the misestimate, and the search
//!    is free to restructure everything downstream of the breaker;
//! 2. find the node of the fresh plan whose annotated estimation request
//!    has the finished subtree's key (the key the feedback store uses);
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

use crate::analyze::annotate_plan;
use crate::planner::{Optimizer, PlannedQuery};
use crate::query::Query;
use crate::selection::median;

impl Optimizer {
    /// Re-optimizes `query` and grafts a [`PhysicalPlan::Materialized`]
    /// leaf, bound to executor slot `slot`, over the subtree of the fresh
    /// plan whose request is that of node `node` of the `tripped` plan —
    /// a finished subtree whose output is already in memory.  Returns the
    /// planned query and whether the graft happened.
    ///
    /// The plan is always executable: unmatched, it recomputes everything.
    ///
    /// # Panics
    ///
    /// Panics when `node` has no request: an aggregate's value-only
    /// annotation, where guards are never armed.
    pub fn replan_with_materialized(
        &self,
        query: &Query,
        tripped: &PlannedQuery,
        node: usize,
        slot: usize,
    ) -> (PlannedQuery, bool) {
        let finished = tripped.node_annotations[node]
            .as_ref()
            .and_then(|a| a.request.as_ref())
            .expect("a finished subtree has a request");
        let mut planned = self.optimize(query);
        // First pre-order match = shallowest = the largest finished
        // subtree the fresh plan can reuse.  Value-only annotations
        // (aggregates) carry no request and never match.
        let target = planned.node_annotations.iter().position(|ann| {
            ann.as_ref()
                .is_some_and(|a| a.request.as_ref() == Some(finished))
        });
        let Some(idx) = target else {
            return (planned, false);
        };
        // The leaf lists the finished subtree's tables in its own order.
        let mut tables = Vec::new();
        plan_tables(tripped.plan.preorder()[node].plan, &mut tables);
        let leaf = PhysicalPlan::Materialized {
            slot,
            tables,
            request: finished.clone(),
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

/// Appends the tables `plan` reads in the order its derivation lists
/// them: an indexed nested-loops join's inner after its outer, a star
/// semijoin's fact before its dimensions.
fn plan_tables(plan: &PhysicalPlan, out: &mut Vec<String>) {
    match plan {
        PhysicalPlan::SeqScan { table, .. }
        | PhysicalPlan::IndexSeek { table, .. }
        | PhysicalPlan::IndexIntersection { table, .. } => out.push(table.clone()),
        PhysicalPlan::StarSemiJoin { fact_table, legs } => {
            out.push(fact_table.clone());
            out.extend(legs.iter().map(|l| l.dim_table.clone()));
        }
        PhysicalPlan::Materialized { tables, .. } => out.extend(tables.iter().cloned()),
        other => other
            .children()
            .into_iter()
            .for_each(|c| plan_tables(c, out)),
    }
    if let PhysicalPlan::IndexedNlJoin { inner_table, .. } = plan {
        out.push(inner_table.clone());
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
        let first = opt.optimize(&query);
        let scan = first.node_annotations[1].clone().expect("scan annotated");
        let request = scan.request.as_ref().expect("scan has a request");
        assert_eq!(
            request.predicates().collect::<Vec<_>>(),
            [("lineitem", &pred)]
        );
        let (planned, substituted) = opt.replan_with_materialized(&query, &first, 1, 0);
        assert!(substituted);
        assert_eq!(planned.shape(), "agg(mat#0)");
        assert_eq!(
            planned.node_annotations.len(),
            planned.plan.node_count(),
            "annotations re-derived for the grafted shape"
        );
        // The materialized leaf keeps its spec annotation.
        let leaf = planned.node_annotations[1].as_ref().expect("leaf spec");
        let request = leaf.request.as_ref().expect("leaf has a request");
        assert_eq!(request.tables().collect::<Vec<_>>(), ["lineitem"]);
    }

    #[test]
    fn unmatched_fragment_returns_plan_unchanged() {
        let opt = oracle_optimizer();
        let query = Query::over(&["lineitem"])
            .filter("lineitem", workload::exp1_lineitem_predicate(50))
            .aggregate(AggExpr::count_star("n"));
        let orders = opt.optimize(&Query::over(&["orders"]));
        let baseline = opt.optimize(&query);
        let (planned, substituted) = opt.replan_with_materialized(&query, &orders, 0, 0);
        assert!(!substituted);
        assert_eq!(planned.shape(), baseline.shape());
    }
}
