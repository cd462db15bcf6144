//! Property-based integration tests: for randomly generated databases
//! and queries, every plan the optimizer produces computes exactly the
//! result of a naive reference evaluation, and the estimator invariants
//! hold for arbitrary observations.

use std::sync::Arc;

use proptest::prelude::*;
use robust_qo::prelude::*;

/// A small random two-table FK database: `parent(pk, a)` and
/// `child(pk, fk → parent.pk, b)`.
fn build_catalog(parent_a: &[i64], child: &[(i64, i64)]) -> Arc<Catalog> {
    let parent_schema = Schema::from_pairs(&[("p_pk", DataType::Int), ("a", DataType::Int)]);
    let mut pb = TableBuilder::new("parent", parent_schema, parent_a.len());
    for (i, &a) in parent_a.iter().enumerate() {
        pb.push_row(&[Value::Int(i as i64), Value::Int(a)]);
    }
    let child_schema = Schema::from_pairs(&[
        ("c_pk", DataType::Int),
        ("fk", DataType::Int),
        ("b", DataType::Int),
    ]);
    let mut cb = TableBuilder::new("child", child_schema, child.len());
    for (i, &(fk, b)) in child.iter().enumerate() {
        cb.push_row(&[Value::Int(i as i64), Value::Int(fk), Value::Int(b)]);
    }
    let mut cat = Catalog::new();
    cat.add_table(pb.finish()).unwrap();
    cat.add_table(cb.finish()).unwrap();
    cat.add_foreign_key("child", "fk", "parent", "p_pk")
        .unwrap();
    cat.ensure_secondary_index("child", "b").unwrap();
    cat.ensure_secondary_index("child", "fk").unwrap();
    cat.ensure_secondary_index("parent", "a").unwrap();
    Arc::new(cat)
}

/// Reference evaluation of the test query shape:
/// `COUNT(*) WHERE child.b in [b_lo, b_hi] AND parent.a in [a_lo, a_hi]`.
fn reference_count(
    parent_a: &[i64],
    child: &[(i64, i64)],
    (b_lo, b_hi): (i64, i64),
    (a_lo, a_hi): (i64, i64),
) -> i64 {
    child
        .iter()
        .filter(|(fk, b)| {
            (b_lo..=b_hi).contains(b) && {
                let a = parent_a[*fk as usize];
                (a_lo..=a_hi).contains(&a)
            }
        })
        .count() as i64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever plan the robust optimizer picks — any threshold, any
    /// sample — the executed answer equals the reference count.
    #[test]
    fn optimized_plans_compute_reference_answers(
        parent_a in prop::collection::vec(0i64..50, 8..60),
        child_raw in prop::collection::vec((0usize..1000, 0i64..50), 10..200),
        b_lo in 0i64..50,
        b_len in 0i64..25,
        a_lo in 0i64..50,
        a_len in 0i64..25,
        threshold in 1u32..99,
        seed in 0u64..1000,
    ) {
        let child: Vec<(i64, i64)> = child_raw
            .iter()
            .map(|&(fk, b)| ((fk % parent_a.len()) as i64, b))
            .collect();
        let cat = build_catalog(&parent_a, &child);
        let expected = reference_count(&parent_a, &child, (b_lo, b_lo + b_len), (a_lo, a_lo + a_len));

        let est: Arc<dyn CardinalityEstimator> = Arc::new(RobustEstimator::new(
            Arc::new(SynopsisRepository::build_all(&cat, 50, seed)),
            EstimatorConfig::with_threshold(ConfidenceThreshold::new(threshold as f64 / 100.0)),
        ));
        let opt = Optimizer::new(Arc::clone(&cat), CostParams::default(), est);
        let q = Query::over(&["child", "parent"])
            .filter("child", Expr::col("b").between(Expr::lit(b_lo), Expr::lit(b_lo + b_len)))
            .filter("parent", Expr::col("a").between(Expr::lit(a_lo), Expr::lit(a_lo + a_len)))
            .aggregate(AggExpr::count_star("n"));
        let planned = opt.optimize(&q);
        let (batch, cost) = robust_qo::exec::execute(&planned.plan, &cat, opt.params());
        prop_assert_eq!(batch.to_rows()[0][0].as_int(), expected, "plan: {}", planned.shape());
        prop_assert!(cost.seconds(opt.params()) >= 0.0);
    }

    /// Single-table plans also agree with reference filtering, across all
    /// access paths (scan, seek, intersection).
    #[test]
    fn single_table_plans_compute_reference_answers(
        parent_a in prop::collection::vec(0i64..30, 5..40),
        child_raw in prop::collection::vec((0usize..1000, 0i64..30), 10..150),
        b_lo in 0i64..30,
        b_len in 0i64..15,
        fk_lo in 0i64..30,
        fk_len in 0i64..15,
        threshold in 1u32..99,
    ) {
        let child: Vec<(i64, i64)> = child_raw
            .iter()
            .map(|&(fk, b)| ((fk % parent_a.len()) as i64, b))
            .collect();
        let cat = build_catalog(&parent_a, &child);
        let expected = child
            .iter()
            .filter(|(fk, b)| (b_lo..=b_lo + b_len).contains(b) && (fk_lo..=fk_lo + fk_len).contains(fk))
            .count() as i64;

        let est: Arc<dyn CardinalityEstimator> = Arc::new(RobustEstimator::new(
            Arc::new(SynopsisRepository::build_all(&cat, 40, 7)),
            EstimatorConfig::with_threshold(ConfidenceThreshold::new(threshold as f64 / 100.0)),
        ));
        let opt = Optimizer::new(Arc::clone(&cat), CostParams::default(), est);
        // Two indexed range conjuncts: lets the optimizer choose among
        // scan, single seek, and index intersection.
        let q = Query::over(&["child"])
            .filter("child", Expr::col("b").between(Expr::lit(b_lo), Expr::lit(b_lo + b_len)))
            .filter("child", Expr::col("fk").between(Expr::lit(fk_lo), Expr::lit(fk_lo + fk_len)))
            .aggregate(AggExpr::count_star("n"));
        let planned = opt.optimize(&q);
        let (batch, _) = robust_qo::exec::execute(&planned.plan, &cat, opt.params());
        prop_assert_eq!(batch.to_rows()[0][0].as_int(), expected, "plan: {}", planned.shape());
    }

    /// Estimator invariants for arbitrary observations: the estimate is a
    /// valid selectivity, monotone in the threshold, and brackets the MLE
    /// between low and high thresholds.
    #[test]
    fn posterior_invariants(k in 0usize..500, extra in 0usize..500, t1 in 0.01f64..0.99, t2 in 0.01f64..0.99) {
        let n = k + extra;
        prop_assume!(n > 0);
        let p = SelectivityPosterior::from_observation(k, n, Prior::Jeffreys);
        let (lo_t, hi_t) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let lo = p.at_threshold(ConfidenceThreshold::new(lo_t));
        let hi = p.at_threshold(ConfidenceThreshold::new(hi_t));
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= hi + 1e-12);
        // CDF/quantile coherence.
        prop_assert!((p.cdf(p.at_threshold(ConfidenceThreshold::new(0.5))) - 0.5).abs() < 1e-6);
        // Posterior mean between the extreme quantiles.
        let q01 = p.at_threshold(ConfidenceThreshold::new(0.01));
        let q99 = p.at_threshold(ConfidenceThreshold::new(0.99));
        prop_assert!(p.mean() >= q01 - 1e-12 && p.mean() <= q99 + 1e-12);
    }
}
