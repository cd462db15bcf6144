//! Incremental statistics refresh at the engine level: the regression
//! tests for the headline bug.  `refresh_statistics_partial` used to be
//! impossible to express — the only refresh advanced the *global*
//! statistics epoch, wiping every table's feedback observations and
//! retiring every cached plan's fingerprint, even for queries that never
//! touch the refreshed table.  These tests pin the scoped behavior:
//!
//! * feedback observations referencing other tables survive a partial
//!   refresh byte-for-byte;
//! * warm plan-cache entries for other tables keep hitting;
//! * plans and observations that *do* read the refreshed table are
//!   retired, exactly as a full refresh would have retired them;
//! * `set_drift_bound` carries the cache's lifetime counters forward
//!   instead of zeroing the operator's statistics;
//! * the optimizer prunes a range-partitioned table on its own, and the
//!   pruned scan is charged for the partitions it reads.

use rqo_datagen::workload::{exp1_lineitem_predicate, exp2_part_predicate};
use rqo_datagen::{TpchConfig, TpchData};
use rqo_exec::{execute, AggExpr, PhysicalPlan};
use rqo_expr::Expr;
use rqo_optimizer::Query;
use rqo_service::{Engine, RunPolicy};
use rqo_storage::{
    Catalog, DataType, PartitionSpec, PartitionedTableBuilder, Schema, TableBuilder, Value,
};

/// A small TPC-H catalog with `part` range-partitioned four ways on
/// `p_partkey`; `orders` and `lineitem` stay single-blob.  Row order is
/// identical to the flat catalog (partition keys ascend), so plans and
/// results are comparable across the two layouts.
fn partitioned_catalog() -> Catalog {
    let flat = TpchData::generate(&TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    })
    .into_catalog();
    let part = flat.table("part").unwrap();
    let n = part.num_rows() as i64;
    let bounds: Vec<Value> = (1..4).map(|i| part.value((i * n / 4) as u32, 0)).collect();
    let spec = PartitionSpec::Range {
        column: part.schema().column(0).name.clone(),
        bounds,
    };
    let mut b = PartitionedTableBuilder::new("part", part.schema().clone(), spec);
    for rid in 0..part.num_rows() as u32 {
        b.push_row(&part.row(rid));
    }
    let (table, layout) = b.finish();
    let mut cat = Catalog::new();
    cat.add_partitioned_table(table, layout).unwrap();
    for name in ["orders", "lineitem"] {
        let t = flat.table(name).unwrap();
        let mut tb = TableBuilder::new(name, t.schema().clone(), t.num_rows());
        for rid in 0..t.num_rows() as u32 {
            tb.push_row(&t.row(rid));
        }
        cat.add_table(tb.finish()).unwrap();
    }
    for fk in flat.foreign_keys() {
        cat.add_foreign_key(&fk.from_table, &fk.from_column, &fk.to_table, &fk.to_column)
            .unwrap();
    }
    cat
}

fn lineitem_query() -> Query {
    Query::over(&["lineitem"])
        .filter("lineitem", exp1_lineitem_predicate(30))
        .aggregate(AggExpr::count_star("n"))
}

fn part_query() -> Query {
    Query::over(&["part"])
        .filter("part", exp2_part_predicate(160))
        .aggregate(AggExpr::count_star("n"))
}

fn join_query() -> Query {
    Query::over(&["lineitem", "part"])
        .filter("part", exp2_part_predicate(170))
        .aggregate(AggExpr::count_star("n"))
}

#[test]
fn partial_refresh_preserves_other_tables_feedback_and_plans() {
    let mut e = Engine::new(partitioned_catalog());
    let opts = e.query_exec_options(None, None);
    let li = lineitem_query();
    let pq = part_query();
    let jq = join_query();

    // Warm everything: feedback observations and cached plans for a
    // lineitem-only query, a part-only query, and a join reading both.
    e.execute(&li, &opts, RunPolicy::Analyze).unwrap();
    let lineitem_only = e.feedback().snapshot();
    assert!(
        !lineitem_only.is_empty(),
        "the lineitem query must record feedback for the test to mean anything"
    );
    e.execute(&pq, &opts, RunPolicy::Analyze).unwrap();
    e.execute(&jq, &opts, RunPolicy::Analyze).unwrap();
    assert!(e.feedback().len() > lineitem_only.len());

    let fp_li = e.fingerprint(&li);
    let fp_part = e.fingerprint(&pq);
    let fp_join = e.fingerprint(&jq);
    assert!(e.plan_cache().contains(&fp_li));
    assert!(e.plan_cache().contains(&fp_part));
    assert!(e.plan_cache().contains(&fp_join));

    // Refresh one partition of `part`.  Scoped invalidation: only
    // part-referencing state is retired.
    e.refresh_statistics_partial("part", &[1], 0xBEEF);

    // Feedback: exactly the part-referencing observations are gone — the
    // survivor set is byte-identical to the post-lineitem snapshot.
    assert_eq!(e.feedback().snapshot(), lineitem_only);
    assert_eq!(
        e.stats_epoch(),
        0,
        "partial refresh must not bump the global epoch"
    );

    // Plans: the lineitem entry is still warm under its old fingerprint;
    // the part and join entries are dropped and their fingerprints moved.
    assert!(e.plan_cache().contains(&fp_li));
    assert!(!e.plan_cache().contains(&fp_part));
    assert!(!e.plan_cache().contains(&fp_join));
    assert_ne!(e.fingerprint(&pq), fp_part);
    assert_ne!(e.fingerprint(&jq), fp_join);
    assert_eq!(e.fingerprint(&li), fp_li);

    // And the warm entry actually hits.
    let hits_before = e.cache_stats().hits;
    e.run_opts(&li, &opts).unwrap();
    assert_eq!(e.cache_stats().hits, hits_before + 1);

    // The refreshed table replans cleanly and returns the same rows: the
    // sample changed, the data did not.
    let before = e.run_opts(&pq, &opts).unwrap().rows;
    let again = e.run_opts(&pq, &opts).unwrap().rows;
    assert_eq!(before, again);
}

#[test]
fn partial_refresh_on_unpartitioned_table_is_scoped_too() {
    let mut e = Engine::new(partitioned_catalog());
    let opts = e.query_exec_options(None, None);
    let li = lineitem_query();
    let pq = part_query();
    e.execute(&li, &opts, RunPolicy::Analyze).unwrap();
    e.execute(&pq, &opts, RunPolicy::Analyze).unwrap();
    let fp_li = e.fingerprint(&li);
    let fp_part = e.fingerprint(&pq);

    // Empty partition list on a single-blob table: whole-table resample,
    // still scoped to that table.
    e.refresh_statistics_partial("lineitem", &[], 0xF00D);
    assert!(!e.plan_cache().contains(&fp_li));
    assert!(e.plan_cache().contains(&fp_part));
    assert_ne!(e.fingerprint(&li), fp_li);
    assert_eq!(e.fingerprint(&pq), fp_part);
}

#[test]
fn full_refresh_still_invalidates_globally() {
    let mut e = Engine::new(partitioned_catalog());
    let opts = e.query_exec_options(None, None);
    let li = lineitem_query();
    let pq = part_query();
    e.execute(&li, &opts, RunPolicy::Analyze).unwrap();
    e.execute(&pq, &opts, RunPolicy::Analyze).unwrap();
    let fp_li = e.fingerprint(&li);
    let fp_part = e.fingerprint(&pq);

    e.refresh_statistics(0xD1CE);
    assert!(e.feedback().is_empty());
    assert_eq!(e.stats_epoch(), 1);
    assert_ne!(e.fingerprint(&li), fp_li);
    assert_ne!(e.fingerprint(&pq), fp_part);
}

#[test]
fn set_drift_bound_carries_cache_stats_forward() {
    let mut e = Engine::new(partitioned_catalog());
    let opts = e.query_exec_options(None, None);
    let li = lineitem_query();
    // One miss (planned + cached after execution), then two hits.
    e.run_opts(&li, &opts).unwrap();
    e.run_opts(&li, &opts).unwrap();
    e.run_opts(&li, &opts).unwrap();
    let before = e.cache_stats();
    assert!(before.hits >= 2);
    assert_eq!(before.entries, 1);

    e.set_drift_bound(2.5);

    let after = e.cache_stats();
    assert_eq!(after.hits, before.hits, "hits must survive the knob change");
    assert_eq!(after.misses, before.misses);
    assert_eq!(after.drift_evictions, before.drift_evictions);
    assert_eq!(
        after.epoch_invalidations,
        before.epoch_invalidations + before.entries as u64,
        "dropped entries are accounted, not vanished"
    );
    assert_eq!(after.entries, 0);

    // The next run replans (the old entry is gone) and re-warms.
    e.run_opts(&li, &opts).unwrap();
    assert_eq!(e.cache_stats().misses, before.misses + 1);
    assert_eq!(e.cache_stats().entries, 1);
}

/// `t(x, v)` with ascending `x`, range-partitioned 16 ways.  A thin range
/// straddling the partition-3/4 boundary must plan as a scan of exactly
/// partitions 3 and 4, and that scan must cost at least 2× less in
/// simulated time than the same scan forced over all 16 (7.8× here: 2 of 16
/// partitions' pages, plus the charges that do not shrink with the scan).
#[test]
fn optimizer_prunes_a_range_partitioned_scan_to_the_partitions_it_reads() {
    const PARTS: i64 = 16;
    const ROWS: i64 = 16_000;
    let mut b = PartitionedTableBuilder::new(
        "t",
        Schema::from_pairs(&[("x", DataType::Int), ("v", DataType::Int)]),
        PartitionSpec::Range {
            column: "x".into(),
            bounds: (1..PARTS).map(|q| Value::Int(q * ROWS / PARTS)).collect(),
        },
    );
    for i in 0..ROWS {
        b.push_row(&[Value::Int(i), Value::Int(i * 7 % 1000)]);
    }
    let (table, layout) = b.finish();
    let mut cat = Catalog::new();
    cat.add_partitioned_table(table, layout).unwrap();
    let engine = Engine::new(cat);

    let pred = Expr::col("x")
        .ge(Expr::lit(ROWS / 4 - ROWS / 400))
        .and(Expr::col("x").lt(Expr::lit(ROWS / 4 + ROWS / 400)));
    let query = Query::over(&["t"])
        .filter("t", pred.clone())
        .aggregate(AggExpr::count_star("n"));
    let planned = engine.optimize(&query);
    let PhysicalPlan::HashAggregate { input, .. } = &planned.plan else {
        panic!("expected an aggregate root, got {:?}", planned.plan);
    };
    let PhysicalPlan::PartitionedScan { partitions, .. } = input.as_ref() else {
        panic!("expected a partitioned scan under the aggregate, got {input:?}");
    };
    assert_eq!(partitions, &[3, 4], "the optimizer prunes on its own");

    let scan_over = |partitions: Vec<usize>| PhysicalPlan::HashAggregate {
        input: Box::new(PhysicalPlan::PartitionedScan {
            table: "t".into(),
            predicate: Some(pred.clone()),
            partitions,
            total_partitions: PARTS as usize,
        }),
        group_by: vec![],
        aggregates: vec![AggExpr::count_star("n")],
    };
    let seconds = |plan: &PhysicalPlan| {
        let (batch, cost) = execute(plan, &engine.catalog(), engine.params());
        (batch.to_rows(), cost.seconds(engine.params()))
    };
    let (pruned_rows, pruned) = seconds(&scan_over(partitions.clone()));
    let (unpruned_rows, unpruned) = seconds(&scan_over((0..PARTS as usize).collect()));
    assert_eq!(
        pruned_rows, unpruned_rows,
        "pruning never changes the answer"
    );
    assert!(
        unpruned >= 2.0 * pruned,
        "pruned scan {pruned:.4}s vs unpruned {unpruned:.4}s"
    );
}
