//! Golden snapshots of one **adaptive** run per paper scenario, showing
//! the re-plan event log and the final plan's annotated metrics tree.
//!
//! Each scenario plants a wildly wrong selectivity through the test-only
//! `FeedbackStore::inject_observation`, so the first plan is provably bad
//! and at least one runtime cardinality guard must fire.  The rendered
//! [`AnalyzedOutcome`] — trip points, q-errors, threshold escalation,
//! graft decisions, and the completed plan's estimate-vs-actual tree —
//! must be byte-identical to the checked-in golden files and identical
//! across thread counts.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test --test it adaptive_golden
//! ```
//!
//! On mismatch the actual rendering is written to
//! `target/golden-diff/<name>.actual.txt` so CI can upload it as an
//! artifact.

use robust_qo::prelude::*;

use crate::support::{self, star_db, tpch_db};

/// Runs the scenario adaptively at every worker count (fresh database
/// per run — an adaptive run records feedback), asserts at least one
/// guard fired, then compares against (or regenerates) the golden
/// snapshot.
fn check(label: &str, make_db: impl Fn() -> Engine, query: &Query) {
    let outcome = support::sweep_query(make_db, query, RunPolicy::Adaptive)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(
        outcome.replans() >= 1,
        "{label}: scenario must trip at least one guard"
    );
    support::assert_golden(label, &outcome.render_adaptive());
}

/// The same three scenarios under `PlanSelection::ExpectedPenalty` from
/// the start.  The planted misestimate is *feedback*, which overrides
/// the posterior for every selection mode — so the first plan is the
/// same provably-bad one and the guards still fire; the goldens pin how
/// penalty-mode re-planning differs (median-quantile annotations, every
/// event tagged `[penalty]` since the mode never de-escalates).
fn penalty(query: &Query) -> Query {
    query.clone().with_selection(PlanSelection::ExpectedPenalty)
}

#[test]
fn adaptive_exp1_golden() {
    // Truth: the offset-110 window is essentially empty.  Planted: 90%
    // of lineitem matches, pushing the optimizer to a conservative scan.
    let pred = exp1_lineitem_predicate(110);
    let query = support::exp1(110);
    let make_db = || {
        let db = tpch_db();
        db.feedback()
            .inject_observation(&["lineitem"], &[("lineitem", &pred)], 0.9);
        db
    };
    check("adaptive_exp1", make_db, &query);
    check("adaptive_exp1_penalty", make_db, &penalty(&query));
}

#[test]
fn adaptive_exp2_golden() {
    // Truth: the window-212 part predicate matches a handful of parts.
    // Planted: half the part table, pushing the optimizer to scan-based
    // joins whose build-side guard fires cheaply.
    let pred = exp2_part_predicate(212);
    let query = support::exp2(212);
    let make_db = || {
        let db = tpch_db();
        db.feedback()
            .inject_observation(&["part"], &[("part", &pred)], 0.5);
        db
    };
    check("adaptive_exp2", make_db, &query);
    check("adaptive_exp2_penalty", make_db, &penalty(&query));
}

#[test]
fn adaptive_exp3_golden() {
    // Truth: each dimension predicate selects ~40% of its dimension.
    // Planted: near-zero on every dimension, luring the optimizer into
    // the index-driven star semijoin whose own guard then fires.
    let dpred = exp3_dim_predicate(3);
    let query = support::exp3(3);
    let make_db = || {
        let db = star_db();
        for dim in ["dim1", "dim2", "dim3"] {
            db.feedback()
                .inject_observation(&[dim], &[(dim, &dpred)], 1e-6);
        }
        db
    };
    check("adaptive_exp3", make_db, &query);
    check("adaptive_exp3_penalty", make_db, &penalty(&query));
}
