//! Regression tests for the forced-misestimate adaptive path.
//!
//! The scenario: `FeedbackStore::inject_observation` plants a wildly
//! wrong selectivity for the part predicate (50% when the truth is a
//! handful of rows), so the first plan is provably bad — a scan-based
//! hash join sized for half the part table.  The runtime cardinality
//! guard at the hash build must fire after the (cheap) part access,
//! *before* the expensive lineitem scan, and the re-plan — primed with
//! the observed truth — must switch to the indexed nested-loops plan the
//! truthful optimizer would have chosen, resuming against the
//! materialized part rows.
//!
//! Every test constructs fresh, identically-seeded databases per arm:
//! an adaptive run feeds observations back into its database, which would
//! otherwise let a later static `run` on the same handle benefit from
//! the adaptive run's discoveries.

use robust_qo::prelude::*;

use crate::support::{self, QueryRun, SAMPLE};

/// Deterministic database: TPC-H-like at scale 0.01 (≈60k lineitem,
/// 1000 part), fixed generator and sampling seeds.
fn db() -> Engine {
    support::engine(support::tpch(0.01, 1234), SAMPLE, 9)
}

/// The narrow part-predicate query (window 250 ⇒ ~1 qualifying part).
fn query() -> Query {
    Query::over(&["lineitem", "part"])
        .filter("part", exp2_part_predicate(250))
        .aggregate(AggExpr::count_star("n"))
        .aggregate(AggExpr::sum("l_extendedprice", "rev"))
}

/// [`db`] with the wildly wrong selectivity planted: half the part
/// table matches.
fn planted() -> Engine {
    let handle = db();
    let pred = exp2_part_predicate(250);
    handle
        .feedback()
        .inject_observation(&["part"], &[("part", &pred)], 0.5);
    handle
}

#[test]
fn forced_misestimate_trips_guard_and_beats_static_plan() {
    let static_db = planted();
    let static_run = static_db.run(&query());
    assert!(
        static_run.planned.plan.shape_label().contains("hj"),
        "misestimate must push the static plan to a scan-based join, got {}",
        static_run.planned.plan.shape_label()
    );

    let adaptive_db = planted();
    let adaptive = adaptive_db
        .execute(&query(), &ExecOptions::default(), RunPolicy::Adaptive)
        .unwrap();

    // ≥1 guard fired, and each trip's q-error exceeded the bound.
    let bound = robust_qo::estimator::adaptive::GUARD_BOUND;
    assert!(adaptive.replans() >= 1, "guard must fire");
    for event in &adaptive.events {
        assert!(
            event.q_error > bound,
            "trip below the guard bound: {}",
            event.render()
        );
        assert!(
            event.resumed,
            "fragment must be grafted: {}",
            event.render()
        );
        assert!(
            event.threshold_after.value() >= event.threshold_before.value(),
            "escalation never lowers the threshold"
        );
    }

    // Answers are bit-identical to the static run.
    assert_eq!(adaptive.outcome.rows, static_run.rows);
    assert_eq!(adaptive.outcome.columns, static_run.columns);

    // The re-planned fragments brought every estimated node at or below
    // the guard bound: the final, completed execution has no violating
    // breaker left.
    for node in adaptive.metrics.preorder() {
        if let Some(q) = node.q_error() {
            assert!(
                q <= bound,
                "final plan still violates the guard bound at {}: q={q}",
                node.label
            );
        }
    }

    // Total tracked cost (including all partial executions) beats the
    // static plan — the guard fired before the expensive probe side ran.
    assert!(
        adaptive.outcome.simulated_seconds < static_run.simulated_seconds,
        "adaptive {} vs static {}",
        adaptive.outcome.simulated_seconds,
        static_run.simulated_seconds
    );
}

/// The non-adaptive policy, `RunPolicy::Run`, arms no guard: under the
/// same planted misestimate that makes `Adaptive` re-plan, it observes
/// zero re-plans and pays exactly the static plan's cost.
#[test]
fn disabled_policy_observes_zero_replans_and_static_cost() {
    let static_db = planted();
    let static_run = static_db.run(&query());

    let disabled_db = planted();
    let disabled = disabled_db
        .execute(&query(), &ExecOptions::default(), RunPolicy::Run)
        .unwrap();

    assert_eq!(disabled.replans(), 0);
    assert!(disabled.events.is_empty());
    support::assert_same(
        QueryRun::of_outcome(&static_run).diff(&QueryRun::of_analyzed(&disabled)),
        "the non-adaptive policy must reproduce the static run exactly",
    );

    // The zero is the policy's doing: the same injection trips a guard
    // under `Adaptive`.
    let adaptive_db = planted();
    let adaptive = adaptive_db
        .execute(&query(), &ExecOptions::default(), RunPolicy::Adaptive)
        .unwrap();
    assert!(adaptive.replans() >= 1);
}

/// Trip points (node, actual rows, new shape), re-plan count, rows and
/// cost bits are identical at every worker count.
#[test]
fn trip_points_and_costs_are_thread_invariant() {
    let reference = support::sweep_query(planted, &query(), RunPolicy::Adaptive)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(reference.replans() >= 1);
}

#[test]
fn replanned_fragments_bypass_the_plan_cache() {
    let handle = planted();
    let adaptive = handle
        .execute(&query(), &ExecOptions::default(), RunPolicy::Adaptive)
        .unwrap();
    assert!(adaptive.replans() >= 1, "scenario requires a trip");

    // The initial plan was cached by `optimize`; the trip's observation
    // drift-evicted that fingerprint, and no re-planned fragment was ever
    // inserted — the cache ends empty.
    let stats = handle.cache_stats();
    assert!(
        stats.drift_evictions >= 1,
        "triggering fingerprint must be drift-evicted: {stats:?}"
    );
    assert_eq!(
        handle.plan_cache().len(),
        0,
        "re-planned fragments must never be cached"
    );

    // The next static run re-plans with the fed-back truth and lands on
    // the good plan directly — the cross-query payoff of the trip.
    let follow_up = handle.run(&query());
    assert_eq!(
        follow_up.planned.plan.shape_label(),
        adaptive
            .outcome
            .planned
            .plan
            .shape_label()
            .replace("mat#1", "inl(seqscan,lineitem)"),
        "follow-up should adopt the corrected plan family"
    );
    assert_eq!(follow_up.rows, adaptive.outcome.rows);
}

#[test]
fn second_guard_trip_escalates_to_penalty_selection() {
    // The exp2 scenario at scale 0.005 trips twice: the first re-plan
    // raises the threshold but stays in quantile mode; the second
    // escalates to expected-penalty selection — re-planning the
    // remainder by integrating over the posterior instead of collapsing
    // it at an even higher quantile.
    let handle = support::tpch_db();
    let pred = exp2_part_predicate(212);
    let query = support::exp2(212);
    handle
        .feedback()
        .inject_observation(&["part"], &[("part", &pred)], 0.5);

    let adaptive = handle
        .execute(&query, &ExecOptions::default(), RunPolicy::Adaptive)
        .unwrap();
    assert!(
        adaptive.replans() >= 2,
        "scenario must trip twice to exercise the escalation ladder"
    );

    let first = &adaptive.events[0];
    assert_eq!(first.selection_before, PlanSelection::Quantile);
    assert_eq!(
        first.selection_after,
        PlanSelection::Quantile,
        "the first trip only raises the threshold"
    );
    assert!(!first.render().contains("[penalty]"));

    let second = &adaptive.events[1];
    assert_eq!(second.selection_before, PlanSelection::Quantile);
    assert_eq!(
        second.selection_after,
        PlanSelection::ExpectedPenalty,
        "the second trip must switch selection modes"
    );
    assert!(
        second.render().contains("[penalty]"),
        "escalation must be visible in the event log: {}",
        second.render()
    );
    assert!(
        second.resumed,
        "the penalty re-plan must still graft the finished fragment"
    );

    // Escalated re-plans bypass the plan cache exactly like quantile
    // ones: the triggering fingerprint is drift-evicted and no fragment
    // plan is ever inserted.
    assert!(handle.cache_stats().drift_evictions >= 1);
    assert_eq!(
        handle.plan_cache().len(),
        0,
        "re-planned fragments must never be cached"
    );
}

/// What makes `Adaptive` safe to turn on: a run that trips no guard is
/// exactly `Run` — the same plan, rows, cost bits and metrics tree.
#[test]
fn accurate_estimates_never_trip() {
    // No injection, and predicates the sample estimates well — a scan, a
    // two-way and a three-way join: the adaptive run must not pay any
    // re-plans and must match `run` exactly.  (A *narrow* predicate can
    // legitimately trip even without injection — sampling zero of a
    // handful of qualifying rows is exactly the misestimate the guards
    // exist to catch.)
    let wide = Expr::col("p_x").lt(Expr::lit(300i64));
    let queries = [
        support::exp1(110),
        Query::over(&["lineitem", "part"])
            .filter("part", wide.clone())
            .aggregate(AggExpr::count_star("n"))
            .aggregate(AggExpr::sum("l_extendedprice", "rev")),
        Query::over(&["lineitem", "orders", "part"])
            .filter("part", wide)
            .aggregate(AggExpr::sum("l_extendedprice", "revenue")),
    ];
    for query in &queries {
        let opts = ExecOptions::default();
        let run = db().execute(query, &opts, RunPolicy::Run).unwrap();
        let adaptive = db().execute(query, &opts, RunPolicy::Adaptive).unwrap();
        let shape = run.outcome.planned.plan.shape_label();
        assert_eq!(adaptive.replans(), 0, "{shape} tripped");
        assert_eq!(adaptive.outcome.planned.plan, run.outcome.planned.plan);
        support::assert_same(
            QueryRun::of_analyzed(&run).diff(&QueryRun::of_analyzed(&adaptive)),
            &shape,
        );
    }
}

/// Three planted misestimates, each run static and adaptive on fresh,
/// identically seeded databases at scale 0.005:
///
/// - `exp1`: a near-empty window estimated at 90% of `lineitem` trips at
///   the scan, and the resumed plan only breaks even (the scan was the
///   expensive part);
/// - `join2`: a handful of parts estimated at half the table trips the
///   build-side guard before the `lineitem` scan, and the re-plan
///   switches to indexed nested loops;
/// - `join3`: the same misestimate under a DP-enumerated three-way join.
///
/// Answers match static, the workload provokes re-plans (1 + 2 + 2), and
/// the adaptive total never exceeds the static one (0.3245 vs 0.6976
/// simulated seconds).
#[test]
fn adaptive_total_never_exceeds_static_over_three_misestimates() {
    let exp1 = exp1_lineitem_predicate(110);
    let narrow_part = exp2_part_predicate(250);
    let wide_part = exp2_part_predicate(212);
    let scenarios = [
        (support::exp1(110), ("lineitem", exp1, 0.9)),
        (
            Query::over(&["lineitem", "part"])
                .filter("part", narrow_part.clone())
                .aggregate(AggExpr::count_star("n"))
                .aggregate(AggExpr::sum("l_extendedprice", "rev")),
            ("part", narrow_part, 0.5),
        ),
        (support::exp2(212), ("part", wide_part, 0.5)),
    ];
    let planted_db = |(table, pred, selectivity): &(&str, Expr, f64)| {
        let db = support::engine(support::tpch(support::SCALE, 1234), SAMPLE, 9);
        db.feedback()
            .inject_observation(&[table], &[(table, pred)], *selectivity);
        db
    };

    let (mut static_total, mut adaptive_total) = (0.0, 0.0);
    let mut replans = Vec::new();
    for (i, (query, planted)) in scenarios.iter().enumerate() {
        let static_run = planted_db(planted).run(query);
        let adaptive = planted_db(planted)
            .execute(query, &ExecOptions::default(), RunPolicy::Adaptive)
            .unwrap();
        assert_eq!(adaptive.outcome.rows, static_run.rows, "scenario {i}");
        static_total += static_run.simulated_seconds;
        adaptive_total += adaptive.outcome.simulated_seconds;
        replans.push(adaptive.replans());
    }
    assert_eq!(replans, [1, 2, 2], "re-plans per scenario");
    assert!(
        adaptive_total <= static_total,
        "adaptive {adaptive_total:.6}s vs static {static_total:.6}s"
    );
    assert_eq!(
        ((adaptive_total * 1e4).round(), (static_total * 1e4).round()),
        (3245.0, 6976.0),
        "the totals EXPERIMENTS.md quotes"
    );
}
