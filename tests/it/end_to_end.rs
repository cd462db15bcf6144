//! End-to-end integration tests: all three paper scenarios planned and
//! executed at small scale, checking both correctness (every chosen plan
//! returns the true answer) and the robustness claims (variance ordering
//! across thresholds, histogram blindness to correlation).

use std::sync::Arc;

use robust_qo::prelude::*;
use rqo_core::OracleEstimator;
use rqo_math::RunningStats;

use crate::support::{self, robust_optimizer, SAMPLE, SCALE, SEED};

fn tpch() -> Arc<Catalog> {
    Arc::new(support::tpch(SCALE, SEED))
}

/// Every plan the optimizer emits — whatever the estimator said — must
/// compute the correct answer: statistics influence cost, never results.
#[test]
fn all_exp1_plans_return_true_counts() {
    let cat = tpch();
    let lineitem = cat.table("lineitem").unwrap();
    for threshold in [0.05, 0.5, 0.95] {
        let opt = robust_optimizer(&cat, SAMPLE, 1, threshold);
        for offset in [0i64, 80, 100, 120, 130] {
            let pred = exp1_lineitem_predicate(offset);
            let truth =
                (true_selectivity(lineitem, &pred) * lineitem.num_rows() as f64).round() as i64;
            let q = support::lineitem_window(offset).aggregate(AggExpr::count_star("n"));
            let planned = opt.optimize(&q);
            let (batch, _) = robust_qo::exec::execute(&planned.plan, &cat, opt.params());
            assert_eq!(
                batch.to_rows()[0][0].as_int(),
                truth,
                "offset {offset} threshold {threshold} plan {}",
                planned.shape()
            );
        }
    }
}

#[test]
fn all_exp2_plans_agree_across_estimators() {
    let cat = tpch();
    let oracle: Arc<dyn CardinalityEstimator> = Arc::new(OracleEstimator::new(Arc::clone(&cat)));
    let histogram: Arc<dyn CardinalityEstimator> =
        Arc::new(HistogramEstimator::build_default(&cat));
    let robust = robust_optimizer(&cat, SAMPLE, 2, 0.8);
    for window in [60i64, 200, 226, 240] {
        let q = support::part_join(window)
            .aggregate(AggExpr::count_star("n"))
            .aggregate(AggExpr::sum("l_extendedprice", "rev"));
        let mut answers = Vec::new();
        for est in [&oracle, &histogram] {
            let opt = Optimizer::new(Arc::clone(&cat), CostParams::default(), Arc::clone(est));
            let planned = opt.optimize(&q);
            let (batch, _) = robust_qo::exec::execute(&planned.plan, &cat, opt.params());
            answers.push(batch.to_rows()[0].clone());
        }
        let planned = robust.optimize(&q);
        let (batch, _) = robust_qo::exec::execute(&planned.plan, &cat, robust.params());
        answers.push(batch.to_rows()[0].clone());
        assert_eq!(answers[0], answers[1], "window {window}");
        assert_eq!(answers[0], answers[2], "window {window}");
    }
}

/// The paper's core predictability claim, measured end to end: across an
/// Experiment-1 workload, execution-time variance at T=95% is (weakly)
/// below variance at T=5%, and the histogram baseline cannot change plans.
#[test]
fn variance_ordering_and_histogram_constancy() {
    let cat = tpch();
    let offsets = [0i64, 70, 90, 100, 110, 120, 130];
    let params = CostParams::default();

    let mut stats = std::collections::HashMap::<String, RunningStats>::new();
    let mut histogram_shapes = std::collections::HashSet::new();

    for seed in 0..5u64 {
        for &t in &[0.05, 0.95] {
            let opt = robust_optimizer(&cat, SAMPLE, seed, t);
            for &offset in &offsets {
                let q = support::lineitem_window(offset)
                    .aggregate(AggExpr::sum("l_extendedprice", "rev"));
                let planned = opt.optimize(&q);
                let (_, cost) = robust_qo::exec::execute(&planned.plan, &cat, &params);
                stats
                    .entry(format!("T{t}"))
                    .or_default()
                    .push(cost.seconds(&params));
            }
        }
    }
    let hist: Arc<dyn CardinalityEstimator> = Arc::new(HistogramEstimator::build_default(&cat));
    let opt = Optimizer::new(Arc::clone(&cat), params, hist);
    for &offset in &offsets {
        let q = support::lineitem_window(offset).aggregate(AggExpr::sum("l_extendedprice", "rev"));
        histogram_shapes.insert(opt.optimize(&q).shape());
    }

    let std_aggressive = stats["T0.05"].std_dev();
    let std_conservative = stats["T0.95"].std_dev();
    assert!(
        std_conservative <= std_aggressive + 1e-9,
        "std(T=95) = {std_conservative} should not exceed std(T=5) = {std_aggressive}"
    );
    assert_eq!(
        histogram_shapes.len(),
        1,
        "histogram optimizer must be blind to the offset: {histogram_shapes:?}"
    );
}

#[test]
fn star_scenario_correctness_and_adaptivity() {
    let cat = Arc::new(support::star(400_000, 9));
    let opt = robust_optimizer(&cat, SAMPLE, 3, 0.5);
    let oracle = OracleEstimator::new(Arc::clone(&cat));
    let mut shapes = std::collections::HashSet::new();
    for level in [0i64, 4, 9] {
        let pred = exp3_dim_predicate(level);
        let q = support::star_join(level).aggregate(AggExpr::count_star("n"));
        let planned = opt.optimize(&q);
        shapes.insert(planned.shape());
        let (batch, _) = robust_qo::exec::execute(&planned.plan, &cat, opt.params());
        let req = rqo_core::EstimationRequest::new(
            vec!["fact", "dim1", "dim2", "dim3"],
            vec![("dim1", &pred), ("dim2", &pred), ("dim3", &pred)],
        );
        let truth = (oracle.estimate(&req).selectivity
            * cat.table("fact").unwrap().num_rows() as f64)
            .round() as i64;
        assert_eq!(batch.to_rows()[0][0].as_int(), truth, "level {level}");
    }
    assert!(
        shapes.len() >= 2,
        "the robust optimizer should adapt the star plan across levels: {shapes:?}"
    );
}

/// Queries through the high-level facade behave identically to the
/// hand-wired stack.
#[test]
fn facade_matches_manual_stack() {
    let db = support::engine(support::tpch(SCALE, SEED), SAMPLE, 1)
        .with_threshold(ConfidenceThreshold::new(0.8));
    let q = support::lineitem_window(90).aggregate(AggExpr::count_star("n"));
    let outcome = db.run(&q);

    let cat = tpch();
    let opt = robust_optimizer(&cat, SAMPLE, 1, 0.8);
    let planned = opt.optimize(&q);
    let (batch, cost) = robust_qo::exec::execute(&planned.plan, &cat, opt.params());
    assert_eq!(outcome.rows, batch.to_rows());
    assert!((outcome.simulated_seconds - cost.seconds(opt.params())).abs() < 1e-12);
}
