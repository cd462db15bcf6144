//! Differential partitioned-vs-single-blob executor tests.
//!
//! A partitioned table is semantically the *same relation* as its
//! single-blob twin: the canonical row order is the concatenation of the
//! partitions.  For randomly generated plans over paired catalogs — one
//! flat, one range-partitioned four ways — executing the plan with
//! `PartitionedScan` leaves (all partitions surviving) must be
//! **bit-identical** to executing the `SeqScan` version on the flat twin:
//! same rows in the same order, the same `CostTracker` totals (adjacent
//! surviving spans merge into one page run, collapsing the page charge to
//! the blob's), and the same per-operator metrics tree modulo the scan
//! label — at 1, 2, and 8 worker threads.
//!
//! Pruned scans additionally must return exactly the full scan's rows
//! (pruning is conservative: dropped partitions provably hold no matching
//! rows) while charging strictly less, and guard trips must fire at the
//! same node with the same actuals on both layouts.

use proptest::prelude::*;
use rqo_exec::{
    execute, execute_analyze, execute_guarded, AggExpr, ExecOptions, ExecStatus, OpMetrics,
    PhysicalPlan, RowGuard,
};
use rqo_expr::Expr;
use rqo_storage::{
    Catalog, CostParams, CostTracker, DataType, PartitionSpec, PartitionedTableBuilder, Schema,
    TableBuilder, Value,
};

const PARTS: usize = 4;

/// Paired catalogs over the same logical data: `t(x, k, f)` with `x`
/// ascending (the partition key — insertion order equals canonical
/// partition order, so the two layouts hold byte-identical rows), plus an
/// unpartitioned outer table `u(k, w)` in both.
fn paired_catalogs(n: usize, key_mod: i64) -> (Catalog, Catalog) {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Int),
        ("k", DataType::Int),
        ("f", DataType::Float),
    ]);
    let row = |i: i64| {
        [
            Value::Int(i),
            Value::Int(i * 3 % key_mod),
            Value::Float((i * 7 % 50) as f64),
        ]
    };
    let mut flat_b = TableBuilder::new("t", schema.clone(), n);
    for i in 0..n as i64 {
        flat_b.push_row(&row(i));
    }
    let bounds: Vec<Value> = (1..PARTS as i64)
        .map(|q| Value::Int(q * n as i64 / PARTS as i64))
        .collect();
    let spec = PartitionSpec::Range {
        column: "x".into(),
        bounds,
    };
    let mut part_b = PartitionedTableBuilder::new("t", schema, spec);
    for i in 0..n as i64 {
        part_b.push_row(&row(i));
    }
    let (table, layout) = part_b.finish();

    let outer = |cat: &mut Catalog| {
        let mut b = TableBuilder::new(
            "u",
            Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
            32,
        );
        for i in 0..32i64 {
            b.push_row(&[Value::Int(i % key_mod), Value::Int(i)]);
        }
        cat.add_table(b.finish()).unwrap();
    };
    let mut flat = Catalog::new();
    flat.add_table(flat_b.finish()).unwrap();
    outer(&mut flat);
    let mut parted = Catalog::new();
    parted.add_partitioned_table(table, layout).unwrap();
    outer(&mut parted);
    (flat, parted)
}

/// Rewrites every `SeqScan t` leaf into a `PartitionedScan` over the
/// given surviving partitions; other nodes (including scans of `u`) are
/// untouched.
fn partitioned_twin(plan: &PhysicalPlan, partitions: &[usize]) -> PhysicalPlan {
    let mut twin = plan.clone();
    rewrite(&mut twin, partitions);
    twin
}

fn rewrite(plan: &mut PhysicalPlan, partitions: &[usize]) {
    match plan {
        PhysicalPlan::SeqScan { table, predicate } if *table == "t" => {
            *plan = PhysicalPlan::PartitionedScan {
                table: table.clone(),
                predicate: predicate.take(),
                partitions: partitions.to_vec(),
                total_partitions: PARTS,
            };
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::HashAggregate { input, .. } => rewrite(input, partitions),
        PhysicalPlan::HashJoin { build, probe, .. } => {
            rewrite(build, partitions);
            rewrite(probe, partitions);
        }
        PhysicalPlan::MergeJoin { left, right, .. } => {
            rewrite(left, partitions);
            rewrite(right, partitions);
        }
        PhysicalPlan::IndexedNlJoin { outer, .. } => rewrite(outer, partitions),
        _ => {}
    }
}

/// Rewrites `PartitionedScan` labels to their `SeqScan` twin's so the
/// metrics trees compare structurally.
fn normalize_labels(m: &mut OpMetrics) {
    if let Some(rest) = m.label.strip_prefix("PartitionedScan ") {
        let (table, tail) = rest.split_once(' ').expect("label has a parts segment");
        let tail = tail
            .split_once("parts]")
            .expect("label has a parts segment")
            .1;
        m.label = format!("SeqScan {table}{tail}");
    }
    for c in &mut m.children {
        normalize_labels(c);
    }
}

fn rows_out_preorder(m: &OpMetrics) -> Vec<(String, u64)> {
    m.preorder()
        .iter()
        .map(|n| (n.label.clone(), n.rows_out))
        .collect()
}

/// Full bit-identity when every partition survives: rows, cost, and
/// normalized metrics, serial and parallel.
fn assert_bit_identical(
    flat_cat: &Catalog,
    part_cat: &Catalog,
    flat_plan: &PhysicalPlan,
    morsel: usize,
) -> Result<(), TestCaseError> {
    let params = CostParams::default();
    let part_plan = partitioned_twin(flat_plan, &[0, 1, 2, 3]);
    let (flat_rows, flat_cost) = execute(flat_plan, flat_cat, &params);
    let (part_rows, part_cost) = execute(&part_plan, part_cat, &params);
    prop_assert_eq!(
        &part_rows.to_rows(),
        &flat_rows.to_rows(),
        "serial rows diverged"
    );
    prop_assert_eq!(part_cost, flat_cost, "serial cost diverged");
    for threads in [1usize, 2, 8] {
        let opts = ExecOptions::with_threads(threads).with_morsel_size(morsel);
        let (f_batch, f_cost, mut f_metrics) = execute_analyze(flat_plan, flat_cat, &params, &opts);
        let (p_batch, p_cost, mut p_metrics) =
            execute_analyze(&part_plan, part_cat, &params, &opts);
        prop_assert_eq!(
            &p_batch.to_rows(),
            &f_batch.to_rows(),
            "rows diverged: threads={} morsel={}",
            threads,
            morsel
        );
        prop_assert_eq!(p_cost, f_cost, "cost diverged: threads={}", threads);
        normalize_labels(&mut f_metrics);
        normalize_labels(&mut p_metrics);
        prop_assert_eq!(
            &p_metrics,
            &f_metrics,
            "metrics diverged: threads={} morsel={}",
            threads,
            morsel
        );
    }
    Ok(())
}

/// The plan pool: scans, filtered scans, scalar and grouped aggregates,
/// and a hash join against the unpartitioned outer — every shape a
/// partitioned leaf can feed.
fn plan_pool(kind: usize, lo: i64, hi: i64) -> PhysicalPlan {
    let scan = |p: Option<Expr>| PhysicalPlan::SeqScan {
        table: "t".into(),
        predicate: p,
    };
    let pred = Expr::col("x")
        .ge(Expr::lit(lo))
        .and(Expr::col("x").lt(Expr::lit(hi)));
    match kind {
        0 => scan(None),
        1 => scan(Some(pred)),
        2 => scan(Some(Expr::col("k").lt(Expr::lit(hi % 7 + 1)))),
        3 => PhysicalPlan::HashAggregate {
            input: Box::new(scan(Some(pred))),
            group_by: vec![],
            aggregates: vec![AggExpr::sum("f", "s"), AggExpr::count_star("n")],
        },
        4 => PhysicalPlan::HashAggregate {
            input: Box::new(scan(None)),
            group_by: vec!["k".into()],
            aggregates: vec![AggExpr::count_star("n")],
        },
        _ => PhysicalPlan::HashJoin {
            build: Box::new(scan(Some(pred))),
            probe: Box::new(PhysicalPlan::SeqScan {
                table: "u".into(),
                predicate: None,
            }),
            build_key: "k".into(),
            probe_key: "k".into(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All-partitions-surviving scans are indistinguishable from the
    /// single blob, through every plan shape and execution mode.
    #[test]
    fn partitioned_execution_is_bit_identical_to_single_blob(
        n in 16usize..300,
        key_mod in 2i64..12,
        kind in 0usize..6,
        sel in 0u8..4,
        morsel_idx in 0usize..3,
    ) {
        let morsel = [7usize, 64, 1024][morsel_idx];
        let (flat, parted) = paired_catalogs(n, key_mod);
        let lo = n as i64 * sel as i64 / 8;
        let hi = n as i64 * (sel as i64 + 3) / 8;
        let plan = plan_pool(kind, lo, hi);
        assert_bit_identical(&flat, &parted, &plan, morsel)?;
    }
}

#[test]
fn pruned_scan_matches_full_scan_rows_and_charges_less() {
    let n = 400;
    let (flat, parted) = paired_catalogs(n, 10);
    let params = CostParams::default();
    // x < 100: only partition 0 (rows 0..100) can match.
    let pred = Expr::col("x").lt(Expr::lit(100i64));
    let flat_plan = PhysicalPlan::SeqScan {
        table: "t".into(),
        predicate: Some(pred.clone()),
    };
    let pruned_plan = PhysicalPlan::PartitionedScan {
        table: "t".into(),
        predicate: Some(pred),
        partitions: vec![0],
        total_partitions: PARTS,
    };
    let (flat_rows, flat_cost) = execute(&flat_plan, &flat, &params);
    let (pruned_rows, pruned_cost) = execute(&pruned_plan, &parted, &params);
    assert_eq!(
        pruned_rows.to_rows(),
        flat_rows.to_rows(),
        "pruning changed the result"
    );
    assert!(
        pruned_cost.seconds(&params) < flat_cost.seconds(&params) / 2.0,
        "reading 1/4 of the table must cost well under half: pruned {:?} vs full {:?}",
        pruned_cost,
        flat_cost
    );
    // Thread-count invariance of the pruned path itself, and per-node
    // output parity with the flat plan (rows_in legitimately differs:
    // the pruned scan examines fewer rows).
    let mut baseline: Option<(Vec<Vec<Value>>, CostTracker, OpMetrics)> = None;
    for threads in [1usize, 2, 8] {
        let opts = ExecOptions::with_threads(threads).with_morsel_size(32);
        let (batch, cost, metrics) = execute_analyze(&pruned_plan, &parted, &params, &opts);
        let (f_batch, _, f_metrics) = execute_analyze(&flat_plan, &flat, &params, &opts);
        let mut normalized = metrics.clone();
        normalize_labels(&mut normalized);
        assert_eq!(
            rows_out_preorder(&normalized),
            rows_out_preorder(&f_metrics)
        );
        assert_eq!(batch.to_rows(), f_batch.to_rows());
        match &baseline {
            None => baseline = Some((batch.to_rows(), cost, metrics)),
            Some((rows, c, m)) => {
                assert_eq!(
                    &batch.to_rows(),
                    rows,
                    "pruned rows diverged at {threads} threads"
                );
                assert_eq!(&cost, c, "pruned cost diverged at {threads} threads");
                assert_eq!(&metrics, m, "pruned metrics diverged at {threads} threads");
            }
        }
    }
}

#[test]
fn guard_trips_identically_on_both_layouts() {
    let n = 240;
    let (flat, parted) = paired_catalogs(n, 8);
    let params = CostParams::default();
    let flat_plan = plan_pool(5, 0, n as i64); // join; build side = all of t
    let part_plan = partitioned_twin(&flat_plan, &[0, 1, 2, 3]);
    // Wildly underestimate the build side so the guard must trip.
    let guards = vec![RowGuard {
        node: 1,
        est_rows: 2.0,
        bound: 3.0,
    }];
    for threads in [1usize, 2, 8] {
        let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
        let mut f_tracker = CostTracker::new();
        let mut p_tracker = CostTracker::new();
        let f = execute_guarded(
            &flat_plan,
            &flat,
            &params,
            &opts,
            &guards,
            &[],
            &mut f_tracker,
        );
        let p = execute_guarded(
            &part_plan,
            &parted,
            &params,
            &opts,
            &guards,
            &[],
            &mut p_tracker,
        );
        let (ExecStatus::Tripped(f_trip), ExecStatus::Tripped(p_trip)) = (f, p) else {
            panic!("both layouts must trip the build-side guard");
        };
        assert_eq!(p_trip.node, f_trip.node);
        assert_eq!(p_trip.actual_rows, f_trip.actual_rows);
        assert_eq!(p_trip.q_error, f_trip.q_error);
        assert_eq!(p_trip.batch.to_rows(), f_trip.batch.to_rows());
        assert_eq!(p_tracker, f_tracker, "cost up to the trip must match");
        let mut f_metrics = f_trip.metrics;
        let mut p_metrics = p_trip.metrics;
        normalize_labels(&mut f_metrics);
        normalize_labels(&mut p_metrics);
        assert_eq!(p_metrics, f_metrics, "completed-subtree metrics must match");
    }
}
