//! The optimizer facade.

use std::sync::Arc;

use rqo_core::{CardinalityEstimator, ConfidenceThreshold, PlanSelection};
use rqo_exec::PhysicalPlan;
use rqo_storage::{Catalog, CostParams};

use crate::analyze::{annotations, estimates_only, NodeAnnotations};
use crate::cost::CostModel;
use crate::derive::{derive_plan, PricedPlan};
use crate::enumerate::{best_join_plan, PlanContext};
use crate::query::Query;
use crate::selection::{optimize_expected_penalty, PenaltyReport};

/// The result of optimization.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The chosen physical plan (aggregation included when requested).
    pub plan: PhysicalPlan,
    /// The optimizer's cost estimate, in simulated milliseconds.
    pub estimated_cost_ms: f64,
    /// Estimated output rows of the join (pre-aggregation).
    pub estimated_rows: f64,
    /// Number of distinct cardinality-estimation calls made while
    /// planning (the traffic the paper's §6.1 overhead numbers are about).
    pub estimator_calls: usize,
    /// Per-node estimation context in the plan's pre-order numbering
    /// (see [`crate::analyze`]): the estimated cardinality each operator
    /// was planned at, plus the key of the request behind it.
    pub node_annotations: NodeAnnotations,
    /// The plan-selection mode that chose this plan.
    pub selection: PlanSelection,
    /// The expected-penalty decision record, present iff `selection` is
    /// [`PlanSelection::ExpectedPenalty`].
    pub penalty: Option<PenaltyReport>,
}

impl PlannedQuery {
    /// A short label of the plan's shape (for experiment reports).
    pub fn shape(&self) -> String {
        self.plan.shape_label()
    }

    /// Estimated output rows per plan node in pre-order — the vector
    /// [`rqo_exec::OpMetrics::annotate`] accepts.
    pub fn node_estimates(&self) -> Vec<Option<f64>> {
        estimates_only(&self.node_annotations)
    }

    /// A quantile-mode result for `plan`: cost, rows and per-node
    /// annotations all read off one derivation of the plan under `ctx`.
    pub(crate) fn derived(ctx: &PlanContext<'_>, query: &Query, plan: PhysicalPlan) -> Self {
        let derived = derive_plan(ctx, query, &plan);
        let priced = PricedPlan::of(&plan, &derived);
        Self {
            estimated_cost_ms: priced.cost_ms,
            estimated_rows: priced.join_rows,
            estimator_calls: ctx.estimator_calls(),
            node_annotations: annotations(&plan, &derived),
            plan,
            selection: PlanSelection::Quantile,
            penalty: None,
        }
    }
}

/// Adds the query's (plan-invariant) top aggregate to a join plan.
pub(crate) fn wrap_aggregate(query: &Query, plan: PhysicalPlan) -> PhysicalPlan {
    if query.aggregates.is_empty() {
        plan
    } else {
        PhysicalPlan::HashAggregate {
            input: Box::new(plan),
            group_by: query.group_by.clone(),
            aggregates: query.aggregates.clone(),
        }
    }
}

/// A cost-based optimizer bound to a catalog, cost parameters, and a
/// cardinality-estimation module.
///
/// The estimation module is the *only* statistics interface — swapping
/// [`rqo_core::RobustEstimator`] for [`rqo_core::HistogramEstimator`]
/// changes nothing else, which is the architectural point of the paper.
pub struct Optimizer {
    catalog: Arc<Catalog>,
    params: CostParams,
    estimator: Arc<dyn CardinalityEstimator>,
}

impl Optimizer {
    /// Creates an optimizer.  Construction is free: physical-order
    /// metadata (which columns each table is stored sorted by) was
    /// recorded when the tables were frozen
    /// ([`rqo_storage::Table::is_sorted`]).
    pub fn new(
        catalog: Arc<Catalog>,
        params: CostParams,
        estimator: Arc<dyn CardinalityEstimator>,
    ) -> Self {
        Self {
            catalog,
            params,
            estimator,
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The cost parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// The active estimation module.
    pub fn estimator(&self) -> &Arc<dyn CardinalityEstimator> {
        &self.estimator
    }

    /// Optimizes a query, honouring its per-query confidence-threshold
    /// hint and per-query selection mode (defaulting to quantile mode
    /// when the query carries no override).
    pub fn optimize(&self, query: &Query) -> PlannedQuery {
        self.optimize_with(query, PlanSelection::default())
    }

    /// Optimizes a query under a caller-supplied default selection mode;
    /// the query's own [`Query::selection`] override still wins.  This is
    /// how the engine threads its session-wide mode through without the
    /// query needing to know it.
    pub fn optimize_with(&self, query: &Query, default_selection: PlanSelection) -> PlannedQuery {
        match query.selection.unwrap_or(default_selection) {
            PlanSelection::Quantile => self.optimize_quantile(query),
            PlanSelection::ExpectedPenalty => optimize_expected_penalty(self, query),
        }
    }

    /// A planning context over `estimator`.
    pub(crate) fn context<'a>(
        &'a self,
        estimator: &'a dyn CardinalityEstimator,
    ) -> PlanContext<'a> {
        let model = CostModel::new(&self.catalog, &self.params);
        PlanContext::new(&self.catalog, model, estimator)
    }

    /// Runs `plan` under a context whose estimator honours `hint` (the
    /// estimator itself when there is no hint, or it has no threshold to
    /// move).
    pub(crate) fn with_hinted_context<R>(
        &self,
        hint: Option<ConfidenceThreshold>,
        plan: impl FnOnce(&PlanContext<'_>) -> R,
    ) -> R {
        let hinted = hint.and_then(|t| self.estimator.hinted(t));
        plan(&self.context(hinted.as_deref().unwrap_or(self.estimator.as_ref())))
    }

    /// The paper's scheme: collapse each posterior at the confidence
    /// threshold, then run one enumeration at those point selectivities.
    fn optimize_quantile(&self, query: &Query) -> PlannedQuery {
        self.with_hinted_context(query.hint, |ctx| {
            let best = best_join_plan(ctx, query);
            PlannedQuery::derived(ctx, query, wrap_aggregate(query, best.plan))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_core::{
        ConfidenceThreshold, EstimatorConfig, HistogramEstimator, OracleEstimator, RobustEstimator,
    };
    use rqo_datagen::{workload, StarConfig, StarData, TpchConfig, TpchData};
    use rqo_exec::AggExpr;
    use rqo_stats::SynopsisRepository;

    fn tpch_catalog() -> Arc<Catalog> {
        Arc::new(
            TpchData::generate(&TpchConfig {
                scale_factor: 0.01, // ~60k lineitem
                seed: 1234,
            })
            .into_catalog(),
        )
    }

    fn robust_optimizer(catalog: &Arc<Catalog>, threshold: f64, seed: u64) -> Optimizer {
        let repo = Arc::new(SynopsisRepository::build_all(catalog, 500, seed));
        let est = RobustEstimator::new(
            repo,
            EstimatorConfig::with_threshold(ConfidenceThreshold::new(threshold)),
        );
        Optimizer::new(Arc::clone(catalog), CostParams::default(), Arc::new(est))
    }

    fn exp1_query(offset: i64) -> Query {
        Query::over(&["lineitem"])
            .filter("lineitem", workload::exp1_lineitem_predicate(offset))
            .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
    }

    #[test]
    fn single_table_plan_structure() {
        let cat = tpch_catalog();
        let opt = robust_optimizer(&cat, 0.5, 1);
        let planned = opt.optimize(&exp1_query(0));
        // Top must be the scalar aggregate.
        assert!(matches!(planned.plan, PhysicalPlan::HashAggregate { .. }));
        assert!(planned.estimated_cost_ms > 0.0);
        assert!(planned.estimator_calls > 0);
    }

    #[test]
    fn threshold_flips_access_path() {
        // Low selectivity (offset 110 ⇒ near-zero overlap): at a low
        // confidence threshold the optimizer gambles on index
        // intersection; at a very high threshold it must refuse the gamble
        // and sequential-scan (the §6.2.4 "self-adjusting" behaviour in
        // reverse).
        let cat = tpch_catalog();
        let aggressive = robust_optimizer(&cat, 0.05, 7);
        let conservative = robust_optimizer(&cat, 0.995, 7);
        let q = exp1_query(110);
        let shape_a = aggressive.optimize(&q).shape();
        let shape_c = conservative.optimize(&q).shape();
        assert!(
            shape_a.contains("ixsect"),
            "aggressive should pick index intersection, got {shape_a}"
        );
        assert!(
            shape_c.contains("seqscan"),
            "conservative should pick sequential scan, got {shape_c}"
        );
    }

    #[test]
    fn histogram_estimator_always_picks_same_plan() {
        // The AVI estimate of the exp1 predicate does not depend on the
        // offset, so the histogram optimizer must pick the same plan shape
        // for the empty and the overlapping windows (the paper's
        // observation that the standard module "always selected the index
        // intersection plan").
        let cat = tpch_catalog();
        let est = HistogramEstimator::build_default(&cat);
        let opt = Optimizer::new(Arc::clone(&cat), CostParams::default(), Arc::new(est));
        let s0 = opt.optimize(&exp1_query(0)).shape();
        let s130 = opt.optimize(&exp1_query(130)).shape();
        assert_eq!(s0, s130);
    }

    #[test]
    fn three_way_join_produces_valid_plan() {
        let cat = tpch_catalog();
        let opt = robust_optimizer(&cat, 0.8, 3);
        let q = Query::over(&["lineitem", "orders", "part"])
            .filter("part", workload::exp2_part_predicate(250))
            .aggregate(AggExpr::count_star("n"));
        let planned = opt.optimize(&q);
        // Execute it and compare against the oracle count.
        let (batch, _) = rqo_exec::execute(&planned.plan, &cat, opt.params());
        assert_eq!(batch.len(), 1);
        let n = batch.to_rows()[0][0].as_int();
        let oracle = OracleEstimator::new(Arc::clone(&cat));
        let pred = workload::exp2_part_predicate(250);
        let req = rqo_core::EstimationRequest::new(
            vec!["lineitem", "orders", "part"],
            vec![("part", &pred)],
        );
        let truth =
            oracle.estimate(&req).selectivity * cat.table("lineitem").unwrap().num_rows() as f64;
        assert_eq!(n as f64, truth, "plan result must equal true count");
    }

    #[test]
    fn join_plan_shape_responds_to_part_selectivity() {
        // Very selective part predicate ⇒ INL into lineitem; wide
        // predicate (30% of parts — unambiguous even with sampling noise)
        // ⇒ scan-based join.
        let cat = tpch_catalog();
        let opt = robust_optimizer(&cat, 0.5, 9);
        let narrow = Query::over(&["lineitem", "orders", "part"])
            .filter("part", workload::exp2_part_predicate(295))
            .aggregate(AggExpr::count_star("n"));
        let wide = Query::over(&["lineitem", "orders", "part"])
            .filter(
                "part",
                rqo_expr::Expr::col("p_x").lt(rqo_expr::Expr::lit(300i64)),
            )
            .aggregate(AggExpr::count_star("n"));
        let shape_narrow = opt.optimize(&narrow).shape();
        let shape_wide = opt.optimize(&wide).shape();
        assert!(
            shape_narrow.contains("inl"),
            "narrow predicate should use indexed NL, got {shape_narrow}"
        );
        assert!(
            !shape_wide.contains("inl"),
            "wide predicate should avoid indexed NL, got {shape_wide}"
        );
    }

    #[test]
    fn star_query_selects_semijoin_at_low_match_fraction() {
        // The semijoin's fixed cost (one index descend per selected dim
        // key) only pays off once the fact table is large enough that a
        // full scan is expensive; 500k rows is comfortably past that
        // point, mirroring the paper's 10M-row fact table.
        let cat = Arc::new(
            StarData::generate(&StarConfig {
                fact_rows: 500_000,
                seed: 10,
            })
            .into_catalog(),
        );
        let opt = robust_optimizer(&cat, 0.5, 11);
        let q_low = star_query(0); // diag_fraction(0) = 0 matches
        let q_high = star_query(9); // 10% of fact rows match
        let low_shape = opt.optimize(&q_low).shape();
        let high_shape = opt.optimize(&q_high).shape();
        assert!(
            low_shape.contains("semijoin"),
            "low-match star should use semijoin, got {low_shape}"
        );
        assert!(
            !high_shape.contains("semijoin"),
            "high-match star should use hash joins, got {high_shape}"
        );
    }

    fn star_query(level: i64) -> Query {
        let mut q = Query::over(&["fact", "dim1", "dim2", "dim3"])
            .aggregate(AggExpr::sum("f_measure1", "total"));
        for dim in ["dim1", "dim2", "dim3"] {
            q = q.filter(dim, workload::exp3_dim_predicate(level));
        }
        q
    }

    #[test]
    fn star_semijoin_applies_fact_local_predicate() {
        // Regression: StarSemiJoin emits unfiltered fact rows, so a
        // predicate on the fact table itself must be re-applied by the
        // candidate generator (it was silently dropped once).
        let cat = Arc::new(
            StarData::generate(&StarConfig {
                fact_rows: 500_000,
                seed: 10,
            })
            .into_catalog(),
        );
        let opt = robust_optimizer(&cat, 0.05, 11);
        let fpred = rqo_expr::Expr::col("f_measure1").lt(rqo_expr::Expr::lit(50.0));
        let mut q = Query::over(&["fact", "dim1", "dim2", "dim3"])
            .filter("fact", fpred.clone())
            .aggregate(AggExpr::count_star("n"));
        for dim in ["dim1", "dim2", "dim3"] {
            q = q.filter(dim, workload::exp3_dim_predicate(2));
        }
        let planned = opt.optimize(&q);
        assert!(
            planned.shape().contains("semijoin"),
            "repro requires the semijoin plan, got {}",
            planned.shape()
        );
        let (batch, _) = rqo_exec::execute(&planned.plan, &cat, opt.params());
        let dpred = workload::exp3_dim_predicate(2);
        let req = rqo_core::EstimationRequest::new(
            vec!["fact", "dim1", "dim2", "dim3"],
            vec![
                ("fact", &fpred),
                ("dim1", &dpred),
                ("dim2", &dpred),
                ("dim3", &dpred),
            ],
        );
        let oracle = OracleEstimator::new(Arc::clone(&cat));
        let truth = (oracle.estimate(&req).selectivity * 500_000.0).round() as i64;
        assert_eq!(batch.to_rows()[0][0].as_int(), truth);
    }

    #[test]
    fn star_plan_executes_correctly() {
        let cat = Arc::new(
            StarData::generate(&StarConfig {
                fact_rows: 20_000,
                seed: 12,
            })
            .into_catalog(),
        );
        let opt = robust_optimizer(&cat, 0.8, 13);
        for level in [0i64, 5, 9] {
            let q = star_query(level).aggregate(AggExpr::count_star("n"));
            let planned = opt.optimize(&q);
            let (batch, _) = rqo_exec::execute(&planned.plan, &cat, opt.params());
            let n = batch.to_rows()[0][batch.schema.expect_index("n")].as_int();
            // Compare with brute-force count through the oracle.
            let pred = workload::exp3_dim_predicate(level);
            let req = rqo_core::EstimationRequest::new(
                vec!["fact", "dim1", "dim2", "dim3"],
                vec![("dim1", &pred), ("dim2", &pred), ("dim3", &pred)],
            );
            let oracle = OracleEstimator::new(Arc::clone(&cat));
            let truth = (oracle.estimate(&req).selectivity
                * cat.table("fact").unwrap().num_rows() as f64)
                .round() as i64;
            assert_eq!(n, truth, "level {level}");
        }
    }

    #[test]
    fn per_query_hint_overrides_system_threshold() {
        let cat = tpch_catalog();
        // System-wide aggressive; hint conservative.
        let opt = robust_optimizer(&cat, 0.05, 7);
        let q = exp1_query(110);
        let unhinted = opt.optimize(&q).shape();
        let hinted = opt
            .optimize(&q.clone().with_hint(ConfidenceThreshold::new(0.995)))
            .shape();
        assert!(unhinted.contains("ixsect"), "{unhinted}");
        assert!(hinted.contains("seqscan"), "{hinted}");
    }

    #[test]
    fn sorted_column_detection() {
        let cat = tpch_catalog();
        let sorted = |table: &str, column: &str| {
            let t = cat.table(table).unwrap();
            t.is_sorted(t.schema().expect_index(column))
        };
        assert!(sorted("lineitem", "l_orderkey"));
        assert!(sorted("orders", "o_orderkey"));
        assert!(sorted("part", "p_partkey"));
        assert!(!sorted("lineitem", "l_partkey"));
    }

    #[test]
    fn query_without_aggregates_returns_join_rows() {
        let cat = tpch_catalog();
        let opt = robust_optimizer(&cat, 0.8, 21);
        let q = Query::over(&["lineitem", "orders"]).filter(
            "orders",
            rqo_expr::Expr::col("o_orderkey").le(rqo_expr::Expr::lit(5i64)),
        );
        let planned = opt.optimize(&q);
        assert!(!matches!(planned.plan, PhysicalPlan::HashAggregate { .. }));
        let (batch, _) = rqo_exec::execute(&planned.plan, &cat, opt.params());
        // Every surviving row joins one of the first five orders; columns
        // from both tables are present.
        assert!(!batch.is_empty());
        assert!(batch.schema.index_of("l_partkey").is_some());
        assert!(batch.schema.index_of("o_totalprice").is_some());
        let ok = batch.schema.expect_index("o_orderkey");
        for row in &batch.to_rows() {
            assert!(row[ok].as_int() <= 5);
        }
    }

    #[test]
    #[should_panic(expected = "connected FK join graph")]
    fn disconnected_query_is_rejected() {
        let cat = tpch_catalog();
        let opt = robust_optimizer(&cat, 0.8, 22);
        // orders and part share no FK edge.
        let q = Query::over(&["orders", "part"]).aggregate(AggExpr::count_star("n"));
        opt.optimize(&q);
    }

    #[test]
    fn unfiltered_single_table_query_scans() {
        let cat = tpch_catalog();
        let opt = robust_optimizer(&cat, 0.8, 23);
        let q = Query::over(&["part"]).aggregate(AggExpr::count_star("n"));
        let planned = opt.optimize(&q);
        assert_eq!(planned.shape(), "agg(seqscan)");
        let (batch, _) = rqo_exec::execute(&planned.plan, &cat, opt.params());
        assert_eq!(
            batch.to_rows()[0][0].as_int(),
            cat.table("part").unwrap().num_rows() as i64
        );
    }

    #[test]
    fn grouped_query_plans_and_executes() {
        let cat = tpch_catalog();
        let opt = robust_optimizer(&cat, 0.8, 24);
        let q = Query::over(&["lineitem", "part"])
            .filter(
                "part",
                rqo_expr::Expr::col("p_x").lt(rqo_expr::Expr::lit(100i64)),
            )
            .group(&["p_brand"])
            .aggregate(AggExpr::count_star("n"))
            .aggregate(AggExpr::sum("l_extendedprice", "rev"));
        let planned = opt.optimize(&q);
        let (batch, _) = rqo_exec::execute(&planned.plan, &cat, opt.params());
        assert!(
            batch.len() > 1 && batch.len() <= 25,
            "{} brands",
            batch.len()
        );
        assert_eq!(batch.schema.names(), vec!["p_brand", "n", "rev"]);
        // Group counts sum to the ungrouped count.
        let total: i64 = batch.to_rows().iter().map(|r| r[1].as_int()).sum();
        let q_total = Query::over(&["lineitem", "part"])
            .filter(
                "part",
                rqo_expr::Expr::col("p_x").lt(rqo_expr::Expr::lit(100i64)),
            )
            .aggregate(AggExpr::count_star("n"));
        let planned_total = opt.optimize(&q_total);
        let (b2, _) = rqo_exec::execute(&planned_total.plan, &cat, opt.params());
        assert_eq!(total, b2.to_rows()[0][0].as_int());
    }

    #[test]
    fn oracle_optimizer_always_picks_best_executed_plan() {
        // With exact cardinalities, the chosen plan's *executed* cost must
        // not exceed the executed cost of the obvious alternatives.
        let cat = tpch_catalog();
        let oracle = OracleEstimator::new(Arc::clone(&cat));
        let opt = Optimizer::new(Arc::clone(&cat), CostParams::default(), Arc::new(oracle));
        for offset in [0i64, 90, 130] {
            let planned = opt.optimize(&exp1_query(offset));
            let (_, cost) = rqo_exec::execute(&planned.plan, &cat, opt.params());
            let chosen = cost.seconds(opt.params());
            // Alternative: forced sequential scan.
            let scan = PhysicalPlan::HashAggregate {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: "lineitem".into(),
                    predicate: Some(workload::exp1_lineitem_predicate(offset)),
                }),
                group_by: vec![],
                aggregates: vec![AggExpr::sum("l_extendedprice", "revenue")],
            };
            let (_, scan_cost) = rqo_exec::execute(&scan, &cat, opt.params());
            assert!(
                chosen <= scan_cost.seconds(opt.params()) * 1.05,
                "offset {offset}: chosen {chosen} vs scan {}",
                scan_cost.seconds(opt.params())
            );
        }
    }
}
