//! Optimizer → estimator traffic: the estimator is invoked once per
//! distinct subexpression and no more.
//!
//! `PlannedQuery::estimator_calls` reports the planning memo's size — the
//! paper's §6.1 overhead figure.  This test wraps the estimator in a
//! counter and pins that the report is the truth: every cardinality the
//! optimizer uses (enumeration, pricing, per-node annotation) is answered
//! through that memo, so the number of `estimate()` invocations equals
//! the number reported.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use robust_qo::estimator::SelectivityEstimate;
use robust_qo::prelude::*;

const SEED: u64 = 42;

/// Counts `estimate()` invocations, on itself and on every hinted
/// variant it hands out.
struct Counting {
    inner: Arc<dyn CardinalityEstimator>,
    invocations: Arc<AtomicUsize>,
}

impl CardinalityEstimator for Counting {
    fn name(&self) -> &str {
        "counting"
    }

    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.inner.estimate(request)
    }

    fn hinted(&self, threshold: ConfidenceThreshold) -> Option<Box<dyn CardinalityEstimator>> {
        let inner = self.inner.hinted(threshold)?;
        Some(Box::new(Counting {
            inner: Arc::from(inner),
            invocations: Arc::clone(&self.invocations),
        }))
    }
}

fn counting_optimizer(catalog: Catalog) -> (Optimizer, Arc<AtomicUsize>) {
    let catalog = Arc::new(catalog);
    let repo = Arc::new(SynopsisRepository::build_all(&catalog, 500, SEED));
    let robust = RobustEstimator::new(
        repo,
        EstimatorConfig::with_threshold(ConfidenceThreshold::new(0.8)),
    );
    let invocations = Arc::new(AtomicUsize::new(0));
    let counting = Counting {
        inner: Arc::new(robust),
        invocations: Arc::clone(&invocations),
    };
    let opt = Optimizer::new(catalog, CostParams::default(), Arc::new(counting));
    (opt, invocations)
}

/// Plans `query` at T = 5/50/95 in both selection modes and checks the
/// invocation count against the reported one.
fn check(opt: &Optimizer, invocations: &AtomicUsize, query: &Query, name: &str) {
    for t in [0.05, 0.50, 0.95] {
        let hinted = query.clone().with_hint(ConfidenceThreshold::new(t));

        invocations.store(0, Ordering::Relaxed);
        let planned = opt.optimize(&hinted);
        assert!(planned.estimator_calls > 0, "{name} T={t}");
        assert_eq!(
            invocations.load(Ordering::Relaxed),
            planned.estimator_calls,
            "{name} T={t}: quantile mode must ask once per distinct request ({})",
            planned.shape()
        );

        // Penalty mode probes predicate posteriors outside any pricing
        // context (it needs the distribution, not a selectivity): one
        // probe per predicate until the first non-degenerate one.
        // Everything else — candidate generation, the sensitivity pass,
        // the quadrature grid, and the final median pricing the
        // annotations are read off — is memoized traffic.
        invocations.store(0, Ordering::Relaxed);
        let planned = opt.optimize(&hinted.with_selection(PlanSelection::ExpectedPenalty));
        let probes = invocations.load(Ordering::Relaxed) - planned.estimator_calls;
        assert!(
            (1..=query.predicates.len()).contains(&probes),
            "{name} T={t}: penalty mode made {probes} invocations outside its pricing \
             contexts for {} predicate(s) ({})",
            query.predicates.len(),
            planned.shape()
        );
    }
}

#[test]
fn tpch_templates_ask_once_per_distinct_request() {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.005,
        seed: SEED,
    });
    let (opt, invocations) = counting_optimizer(data.into_catalog());

    let exp1 = Query::over(&["lineitem"])
        .filter("lineitem", exp1_lineitem_predicate(110))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
    check(&opt, &invocations, &exp1, "exp1");

    let exp2 = Query::over(&["lineitem", "orders", "part"])
        .filter("part", exp2_part_predicate(212))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
    check(&opt, &invocations, &exp2, "exp2");
}

#[test]
fn star_template_asks_once_per_distinct_request() {
    let data = StarData::generate(&StarConfig {
        fact_rows: 30_000,
        seed: SEED,
    });
    let (opt, invocations) = counting_optimizer(data.into_catalog());
    let mut exp3 = Query::over(&["fact", "dim1", "dim2", "dim3"])
        .aggregate(AggExpr::sum("f_measure1", "total"));
    for dim in ["dim1", "dim2", "dim3"] {
        exp3 = exp3.filter(dim, exp3_dim_predicate(2));
    }
    check(&opt, &invocations, &exp3, "exp3");
}
