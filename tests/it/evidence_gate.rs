//! The plan cache's evidence level serves exactly what fresh planning
//! would.  Every plan an engine hands out on the query streams below —
//! exact hits, evidence hits and fresh plans alike — must equal a fresh
//! `optimize` of the same query under [`support::same_plan`], which
//! compares the plan tree, cost and row bits, estimator calls, selection
//! mode and every node's annotation (rows bits and request key).  Debug
//! builds also re-plan every evidence hit inside the cache and panic on
//! a difference, so any hit another suite makes is checked as well.
//!
//! The streams: a walk of the ad hoc two-range window space (ship-window
//! start × length × receipt offset 60–190) at SF 0.005, the golden
//! experiment menus at T = 5, 50 and 95 %, and the query shapes of the
//! `properties` and `plan_monotonicity` proptests.

use std::sync::OnceLock;

use proptest::prelude::*;
use robust_qo::datagen::workload::{exp1_offsets, exp2_window_starts, exp3_levels};
use robust_qo::prelude::*;
use robust_qo::storage::days_from_civil;

use crate::support::{self, exp1, exp2, exp3};

/// Serves each query through `engine` and checks it against a fresh
/// plan; returns how many the evidence level served.
fn gate(engine: &Engine, queries: impl IntoIterator<Item = Query>) -> u64 {
    let before = engine.cache_stats().evidence_hits;
    for (i, query) in queries.into_iter().enumerate() {
        let served = engine.optimize(&query);
        let fresh = engine.optimizer().optimize(&query);
        support::assert_same(
            support::same_plan(&fresh, &served),
            &format!("query {i} ({:?})", query.predicates),
        );
    }
    engine.cache_stats().evidence_hits - before
}

/// `COUNT(*), SUM(l_quantity)` over a ship window of `len` days from
/// `start` whose receipt window is the same one `offset` days later.
fn two_range(start: i32, len: i32, offset: i32) -> Query {
    let date = |d: i32| Expr::lit(Value::Date(d));
    let ship = Expr::col("l_shipdate").between(date(start), date(start + len));
    let receipt =
        Expr::col("l_receiptdate").between(date(start + offset), date(start + len + offset));
    Query::over(&["lineitem"])
        .filter("lineitem", ship.and(receipt))
        .aggregate(AggExpr::count_star("n"))
        .aggregate(AggExpr::sum("l_quantity", "quantity"))
}

/// The `i`-th point of a walk over 2 000 window starts from 1992-03-01 ×
/// 8 lengths (60–116 days) × 131 receipt offsets (60–190 days), with a
/// stride coprime to the space so that consecutive points spread evenly
/// over the offsets.
fn walk(i: u64) -> Query {
    const OFFSETS: u64 = 131;
    const STARTS: u64 = 2000;
    const SPACE: u64 = OFFSETS * STARTS * 8;
    let k = (987_654 + i * 1_000_003) % SPACE;
    let start = days_from_civil(1992, 3, 1) + ((k / OFFSETS) % STARTS) as i32;
    let len = 60 + 8 * (k / (OFFSETS * STARTS)) as i32;
    two_range(start, len, 60 + (k % OFFSETS) as i32)
}

#[test]
fn the_window_walk_gets_evidence_hits_equal_to_fresh_plans() {
    let engine = support::tpch_db();
    let hits = gate(&engine, (0..1500).map(walk));
    assert!(
        hits >= 500,
        "only {hits} of 1 500 walk queries hit the evidence level"
    );
    // Exact repeats are served by the exact level and still agree.
    let exact = engine.cache_stats().hits;
    gate(&engine, (1490..1500).map(walk));
    assert_eq!(engine.cache_stats().hits, exact + 10);
}

/// Two windows after the data ends: no sample tuple satisfies any of
/// their requests, so their evidence is equal while every constant
/// differs.  The second is served the first's plan with its own dates in
/// the ranges, residuals and annotation keys.
#[test]
fn unequal_constants_at_equal_evidence_share_one_plan_rebound() {
    let engine = support::tpch_db();
    let first = days_from_civil(2031, 1, 1);
    let second = days_from_civil(2033, 6, 1);
    assert_eq!(gate(&engine, [two_range(first, 60, 100)]), 0);
    assert_eq!(gate(&engine, [two_range(second, 68, 110)]), 1);
    let served = engine.optimize(&two_range(second, 68, 110));
    let plan = format!("{:?}", served.plan);
    assert!(
        !plan.contains(&format!("Date({first})")),
        "the first window's dates leaked into the second's plan: {plan}"
    );
    assert!(plan.contains(&format!("Date({})", second + 68 + 110)));
}

#[test]
fn the_experiment_menus_agree_with_fresh_plans_at_every_threshold() {
    for t in [0.05, 0.5, 0.95] {
        let t = ConfidenceThreshold::new(t);
        let tpch = support::tpch_db().with_threshold(t);
        let menu = || {
            (exp1_offsets().into_iter().map(exp1)).chain(exp2_window_starts().into_iter().map(exp2))
        };
        // Cold, then warm.
        gate(&tpch, menu());
        gate(&tpch, menu());
        let star = support::star_db().with_threshold(t);
        gate(&star, exp3_levels().into_iter().map(exp3));
        gate(&star, exp3_levels().into_iter().map(exp3));
    }
}

/// The `properties` suite's two-table database: `parent(p_pk, a)` and
/// `child(c_pk, fk → parent.p_pk, b)`, indexed on `child.b`, `child.fk`
/// and `parent.a`.
fn parent_child(parent_a: &[i64], child: &[(i64, i64)]) -> Catalog {
    let parent = support::table(
        "parent",
        &[("p_pk", DataType::Int), ("a", DataType::Int)],
        (parent_a.iter().enumerate()).map(|(i, &a)| vec![Value::Int(i as i64), Value::Int(a)]),
    );
    let child = support::table(
        "child",
        &[
            ("c_pk", DataType::Int),
            ("fk", DataType::Int),
            ("b", DataType::Int),
        ],
        (child.iter().enumerate())
            .map(|(i, &(fk, b))| vec![Value::Int(i as i64), Value::Int(fk), Value::Int(b)]),
    );
    let mut catalog = Catalog::new();
    catalog.add_table(parent).unwrap();
    catalog.add_table(child).unwrap();
    catalog
        .add_foreign_key("child", "fk", "parent", "p_pk")
        .unwrap();
    for (table, column) in [("child", "b"), ("child", "fk"), ("parent", "a")] {
        catalog.ensure_secondary_index(table, column).unwrap();
    }
    catalog
}

fn between(column: &str, lo: i64, len: i64) -> Expr {
    Expr::col(column).between(Expr::lit(lo), Expr::lit(lo + len))
}

/// The `plan_monotonicity` suite's engine: TPC-H SF 0.005, 500-tuple
/// synopses, seed 42, shared by every case so that its cache warms.
fn monotonicity_db() -> &'static Engine {
    static DB: OnceLock<Engine> = OnceLock::new();
    DB.get_or_init(support::tpch_db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `properties`' join and single-table shapes, each asked at five
    /// neighbouring constant sets so the evidence level sees repeats.
    #[test]
    fn the_properties_queries_agree_with_fresh_plans(
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
        let engine = support::engine(parent_child(&parent_a, &child), 50, seed)
            .with_threshold(ConfidenceThreshold::new(f64::from(threshold) / 100.0));
        let join = |d: i64| {
            Query::over(&["child", "parent"])
                .filter("child", between("b", b_lo + d, b_len))
                .filter("parent", between("a", a_lo + d, a_len))
                .aggregate(AggExpr::count_star("n"))
        };
        let single = |d: i64| {
            Query::over(&["child"])
                .filter("child", between("b", b_lo + d, b_len))
                .filter("child", between("fk", a_lo + 2 * d, a_len))
                .aggregate(AggExpr::count_star("n"))
        };
        gate(&engine, (0..5).map(join).chain((0..5).map(single)));
    }

    /// `plan_monotonicity`'s one-conjunct ship window under a threshold
    /// hint, and its neighbour one day later.
    #[test]
    fn the_monotonicity_queries_agree_with_fresh_plans(
        start_day in 0i32..2400,
        len_days in 0i32..400,
        t_pct in 1u32..99,
    ) {
        let hint = ConfidenceThreshold::new(f64::from(t_pct) / 100.0);
        let window = |start: i32| {
            let lo = parse_date("1992-01-02").as_date() + start;
            let window = Expr::col("l_shipdate").between(
                Expr::lit(Value::Date(lo)),
                Expr::lit(Value::Date(lo + len_days)),
            );
            Query::over(&["lineitem"])
                .filter("lineitem", window)
                .aggregate(AggExpr::count_star("n"))
                .with_hint(hint)
        };
        gate(monotonicity_db(), [window(start_day), window(start_day + 1)]);
    }
}
