//! Differential tests for `PlanSelection::ExpectedPenalty`.
//!
//! The penalty scorer is only trustworthy if its re-coster reproduces
//! the enumerator's own arithmetic — otherwise candidates generated at
//! one threshold are priced on a different scale than the enumerator
//! that emitted them.  These tests pin that contract (`price_plan` ==
//! the quantile optimizer's `estimated_cost_ms`, bit for bit, at every
//! hint), then pin the penalty mode's own guarantees: hint invariance,
//! degenerate-posterior short-circuiting, report coherence, and
//! thread-invariant execution.

use robust_qo::optimizer::{enumerate::PlanContext, price_plan, CostModel};
use robust_qo::prelude::*;
use std::sync::Arc;

use crate::support::{self, tpch_db, QueryRun, SCALE, SEED};

/// The narrow-part join from the adaptive scenarios: the predicate's
/// sample posterior is wide enough that different thresholds pick
/// different join strategies.
fn join_query() -> Query {
    support::exp2(212)
}

fn scan_query() -> Query {
    support::lineitem_window(50).aggregate(AggExpr::count_star("n"))
}

/// `price_plan` must reproduce the quantile optimizer's costing of its
/// own chosen plan exactly, at every hint threshold — the differential
/// contract the penalty scorer is built on.
#[test]
fn price_plan_reproduces_quantile_costing_at_every_hint() {
    let db = tpch_db();
    let opt = db.optimizer();
    let catalog = db.catalog();
    for query in [scan_query(), join_query()] {
        for t in [0.05, 0.5, 0.8, 0.95] {
            let hint = ConfidenceThreshold::new(t);
            let planned = opt.optimize(&query.clone().with_hint(hint));
            let hinted = opt
                .estimator()
                .hinted(hint)
                .expect("robust estimator honours hints");
            let model = CostModel::new(&catalog, opt.params());
            let ctx = PlanContext::new(&catalog, model, hinted.as_ref());
            let priced = price_plan(&ctx, &query, &planned.plan);
            assert_eq!(
                priced.cost_ms,
                planned.estimated_cost_ms,
                "T={t}: price_plan diverged from the enumerator on {}",
                planned.shape()
            );
            assert_eq!(
                priced.join_rows,
                planned.estimated_rows,
                "T={t}: row estimate diverged on {}",
                planned.shape()
            );
        }
    }
}

/// Penalty mode integrates over the posterior; the per-query threshold
/// hint (a quantile-mode knob) must not change its decision or score.
#[test]
fn penalty_choice_is_hint_invariant() {
    let db = tpch_db();
    let opt = db.optimizer();
    let base = opt.optimize(&join_query().with_selection(PlanSelection::ExpectedPenalty));
    assert_eq!(base.selection, PlanSelection::ExpectedPenalty);
    for t in [0.05, 0.5, 0.95] {
        let hinted = opt.optimize(
            &join_query()
                .with_hint(ConfidenceThreshold::new(t))
                .with_selection(PlanSelection::ExpectedPenalty),
        );
        assert_eq!(hinted.shape(), base.shape(), "T={t}");
        assert_eq!(hinted.estimated_cost_ms, base.estimated_cost_ms, "T={t}");
    }
}

/// The report must be coherent: the chosen candidate minimizes expected
/// penalty, penalties are regrets (non-negative, and zero only for a
/// per-node winner), and the sensitivity partition covers exactly the
/// query's predicates.
#[test]
fn penalty_report_is_coherent() {
    let db = tpch_db();
    let opt = db.optimizer();
    let query = join_query();
    let planned = opt.optimize(&query.clone().with_selection(PlanSelection::ExpectedPenalty));
    let report = planned
        .penalty
        .as_ref()
        .expect("penalty mode attaches a report");

    assert!(
        report.candidates.len() >= 2,
        "the uncertain join must harvest multiple candidates: {report:?}"
    );
    assert!(!report.degenerate, "sample posterior is not point-like");
    assert!(
        !report.sensitive.is_empty(),
        "the part predicate must steer the plan choice: {report:?}"
    );
    assert_eq!(
        report.sensitive.len() + report.pruned.len(),
        query.predicates.len(),
        "sensitivity partition covers the query's predicates"
    );
    assert!(report.nodes > 1, "sensitive predicates demand quadrature");

    let chosen = &report.candidates[report.chosen];
    assert_eq!(chosen.shape, planned.plan.shape_label());
    for c in &report.candidates {
        assert!(c.expected_penalty >= 0.0);
        assert!(c.expected_cost > 0.0);
        assert!(
            chosen.expected_penalty <= c.expected_penalty,
            "chosen candidate must minimize expected penalty: {report:?}"
        );
    }
}

/// An estimator with no posterior at all (the oracle) and a predicate
/// whose truth has been fed back (posterior collapsed by observation)
/// must both short-circuit quadrature to the single median node.
#[test]
fn degenerate_posteriors_short_circuit_quadrature() {
    // Oracle: exact selectivities, no posterior object.
    let cat: Arc<Catalog> = Arc::new(support::tpch(SCALE, SEED));
    let est = robust_qo::estimator::OracleEstimator::new(Arc::clone(&cat));
    let opt = robust_qo::optimizer::Optimizer::new(cat, CostParams::default(), Arc::new(est));
    let planned = opt.optimize(&join_query().with_selection(PlanSelection::ExpectedPenalty));
    let report = planned.penalty.as_ref().expect("report");
    assert!(
        report.degenerate,
        "oracle posteriors are absent: {report:?}"
    );
    assert_eq!(report.nodes, 1, "no quadrature on a point mass");

    // Feedback: once the only predicate's truth is observed, there is no
    // residual uncertainty to integrate over.
    let db = tpch_db();
    let pred = exp1_lineitem_predicate(50);
    db.feedback()
        .inject_observation(&["lineitem"], &[("lineitem", &pred)], 0.02);
    let planned = db
        .optimizer()
        .optimize(&scan_query().with_selection(PlanSelection::ExpectedPenalty));
    let report = planned.penalty.as_ref().expect("report");
    assert!(report.degenerate, "fed-back predicate: {report:?}");
    assert_eq!(report.nodes, 1);
}

/// Penalty-mode execution must be bit-identical across worker threads:
/// same rows, same simulated cost, same plan shape.
#[test]
fn penalty_execution_is_thread_invariant() {
    let penalty_db = || tpch_db().with_selection(PlanSelection::ExpectedPenalty);
    let reference = penalty_db().run(&join_query());
    let swept = support::sweep_query(penalty_db, &join_query(), RunPolicy::Run)
        .unwrap_or_else(|e| panic!("{e}"));
    support::assert_same(
        QueryRun::of_outcome(&reference).diff(&QueryRun::of_analyzed(&swept)),
        "`run` against the worker sweep",
    );
}

/// The selection mode threads through every layer: `Engine` builder,
/// engine accessor, and a per-query override, also through a service.
#[test]
fn selection_mode_threads_through_the_service_stack() {
    let db = tpch_db().with_selection(PlanSelection::ExpectedPenalty);
    assert_eq!(db.selection(), PlanSelection::ExpectedPenalty);
    let planned = db.optimize(&join_query());
    assert_eq!(planned.selection, PlanSelection::ExpectedPenalty);
    assert!(planned.penalty.is_some());

    // A per-query override wins over the system-wide mode.
    let quantile = db.optimize(&join_query().with_selection(PlanSelection::Quantile));
    assert_eq!(quantile.selection, PlanSelection::Quantile);
    assert!(quantile.penalty.is_none());

    // A per-query override through a session of a service sharing a
    // quantile-mode engine.
    let service = tpch_db().into_service(ServiceConfig::default());
    let session = service.session();
    let outcome = session
        .run(&join_query().with_selection(PlanSelection::ExpectedPenalty))
        .expect("no deadline");
    assert_eq!(
        outcome.planned.plan.shape_label(),
        planned.plan.shape_label(),
        "per-query override through a session must reproduce the penalty-mode plan"
    );
}
