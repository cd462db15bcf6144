//! End-to-end execution-feedback loop.
//!
//! Running a query through `EXPLAIN ANALYZE` records every annotated
//! operator's observed selectivity in the database's [`FeedbackStore`].
//! Re-optimizing the same query must then (a) produce different
//! cardinality estimates — the observations demonstrably reach the
//! estimator — and (b) produce estimates that match the observed
//! actuals, so the second `EXPLAIN ANALYZE` reports a q-error of 1 on
//! every annotated node.

use robust_qo::prelude::*;

const SEED: u64 = 42;

fn tpch_db() -> Engine {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.005,
        seed: SEED,
    });
    Engine::with_options(data.into_catalog(), CostParams::default(), 500, SEED)
}

/// Every annotated node in the metrics tree has q-error ≈ 1.
fn assert_estimates_match_actuals(metrics: &OpMetrics, context: &str) {
    for node in metrics.preorder() {
        if let Some(q) = node.q_error() {
            assert!(
                q <= 1.0 + 1e-6,
                "{context}: node {:?} has q_error {q} (est {:?}, actual {})",
                node.label,
                node.est_rows,
                node.rows_out
            );
        }
    }
}

#[test]
fn exp1_feedback_corrects_estimates() {
    // A conservative threshold makes the first-pass estimates badly
    // inflated, so the correction is unambiguous.
    let db = tpch_db().with_threshold(ConfidenceThreshold::new(0.95));
    let query = Query::over(&["lineitem"])
        .filter("lineitem", exp1_lineitem_predicate(110))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"));

    let first = db.optimizer().optimize(&query);
    assert!(db.feedback().is_empty());

    let analyzed = db
        .execute(&query, &ExecOptions::default(), RunPolicy::Analyze)
        .unwrap();
    assert!(!db.feedback().is_empty(), "`Analyze` records feedback");
    let actual_rows: Vec<u64> = analyzed
        .metrics
        .preorder()
        .iter()
        .map(|n| n.rows_out)
        .collect();

    // Second optimization: the observed selectivity replaces the
    // posterior-quantile estimate.
    let second = db.optimizer().optimize(&query);
    assert_ne!(
        first.estimated_rows, second.estimated_rows,
        "feedback must change the output-cardinality estimate"
    );

    // The second plan's estimates equal the observed cardinalities.
    let re = db
        .execute(&query, &ExecOptions::default(), RunPolicy::Analyze)
        .unwrap();
    assert_estimates_match_actuals(&re.metrics, "exp1 second pass");

    // The answer itself is unchanged — feedback moves plans, not results.
    assert_eq!(analyzed.outcome.rows, re.outcome.rows);
    let re_rows: Vec<u64> = re.metrics.preorder().iter().map(|n| n.rows_out).collect();
    if re.outcome.planned.plan == analyzed.outcome.planned.plan {
        assert_eq!(actual_rows, re_rows);
    }
}

#[test]
fn exp2_feedback_covers_every_join_combination() {
    // The exp2 join query's only predicate is on `part`; the connected
    // subexpressions containing it — {part}, {part, lineitem},
    // {part, lineitem, orders} — all appear as nodes of the first chosen
    // plan, so the feedback store ends up covering every estimation
    // request any re-optimization can make.
    let db = tpch_db().with_threshold(ConfidenceThreshold::new(0.50));
    let query = Query::over(&["lineitem", "orders", "part"])
        .filter("part", exp2_part_predicate(212))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"));

    let first = db
        .execute(&query, &ExecOptions::default(), RunPolicy::Analyze)
        .unwrap();
    assert!(
        db.feedback().len() >= 3,
        "store has {} entries",
        db.feedback().len()
    );

    let re = db
        .execute(&query, &ExecOptions::default(), RunPolicy::Analyze)
        .unwrap();
    assert_estimates_match_actuals(&re.metrics, "exp2 second pass");
    assert_eq!(first.outcome.rows, re.outcome.rows);
}
