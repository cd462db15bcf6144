//! Golden plan-shape regression for the three paper scenarios.
//!
//! Pins the shape (`PlannedQuery::shape()`) the robust optimizer picks at
//! confidence thresholds T ∈ {5%, 50%, 80%, 95%} over deterministic data
//! (TPC-H-like at scale 0.005, star schema at 30k fact rows, all seeded
//! with 42 — including the synopsis sample draw).  The paper's central
//! claim is *monotone plan conservatism*: as T rises the optimizer must
//! move from risky, selectivity-sensitive plans toward stable ones, and a
//! refactor that silently shifts these crossovers should fail here.

use robust_qo::prelude::*;

use crate::support::{self, star_db, tpch_db};

const THRESHOLDS: [f64; 4] = [0.05, 0.50, 0.80, 0.95];

/// The chosen plan shape at each threshold in [`THRESHOLDS`] order.
fn shapes(db: Engine, query: &Query) -> Vec<String> {
    let mut db = db;
    let mut out = Vec::new();
    for &t in &THRESHOLDS {
        db = db.with_threshold(ConfidenceThreshold::new(t));
        out.push(db.optimizer().optimize(query).shape());
    }
    out
}

#[test]
fn exp1_single_table_shapes() {
    // Experiment 1: correlated date predicates on lineitem.  A moderate
    // offset keeps the true selectivity in the contested region between
    // the index plan and the sequential scan.
    let got = shapes(tpch_db(), &support::exp1(110));
    let printable = got.join(" ");
    // Low thresholds gamble on the index intersection; at T = 95% the
    // optimizer retreats to the selectivity-insensitive sequential scan.
    assert_eq!(
        got,
        vec!["agg(ixsect)", "agg(ixsect)", "agg(ixsect)", "agg(seqscan)",],
        "exp1 shapes at T=5/50/80/95: {printable}"
    );
}

#[test]
fn exp2_join_shapes() {
    // Experiment 2: lineitem ⋈ orders ⋈ part with a filter on part.
    let got = shapes(tpch_db(), &support::exp2(212));
    let printable = got.join(" ");
    // The optimistic plans drive an indexed nested-loop into lineitem;
    // rising thresholds inflate the join cardinality upper bound until
    // hash/merge joins over full scans win.
    assert_eq!(
        got,
        vec![
            "agg(mj(inl(seqscan,lineitem),seqscan))",
            "agg(mj(inl(seqscan,lineitem),seqscan))",
            "agg(hj(seqscan,semijoin[1]))",
            "agg(mj(hj(seqscan,seqscan),seqscan))",
        ],
        "exp2 shapes at T=5/50/80/95: {printable}"
    );
}

#[test]
fn exp3_star_shapes() {
    // Experiment 3: star join with three filtered dimensions.
    let got = shapes(star_db(), &support::exp3(3));
    let printable = got.join(" ");
    // At this fact-table size the left-deep hash-join cascade dominates
    // at every threshold; the pin guards join-enumeration order.
    let stable = "agg(hj(seqscan,hj(seqscan,hj(seqscan,seqscan))))".to_string();
    assert_eq!(
        got,
        vec![stable.clone(), stable.clone(), stable.clone(), stable],
        "exp3 shapes at T=5/50/80/95: {printable}"
    );
}
