//! Differential serial-vs-parallel executor tests.
//!
//! For randomly generated catalogs and plans, parallel execution at 1, 2,
//! and 8 worker threads must return **exactly** the serial rows (same
//! values, same order — stronger than the multiset requirement) and the
//! **bit-identical** `CostTracker` totals: the simulated cost models the
//! plan's work, never the host's parallelism.
//!
//! Most aggregate inputs use integer-valued floats, for which partial-sum
//! merging is exact, so SUM/AVG match `execute()` (default morsel size)
//! to the last bit at *any* morsel size.  The aggregate arm uses
//! irrational floats instead: there the serial reference runs at the
//! same morsel size, and must still match every thread count bit for bit.
//!
//! The same differential harness also pins the `EXPLAIN ANALYZE` metrics
//! tree: every per-operator counter ([`OpMetrics`] compares everything
//! except wall time) and its rendered form must be identical at 1, 2,
//! and 8 threads for the same morsel size.

use proptest::prelude::*;
use rqo_datagen::workload::exp1_lineitem_predicate;
use rqo_exec::{AggExpr, IndexRange, PhysicalPlan};
use rqo_expr::Expr;
use rqo_storage::{Catalog, DataType, Value};

use crate::support::{self, PlanRun};

/// Runs the plan at 1/2/8 workers with the given morsel size, requiring
/// rows and cost totals identical to `reference` and metrics trees
/// identical across every worker count.
fn sweep(
    cat: &Catalog,
    plan: &PhysicalPlan,
    morsel: usize,
    reference: &PlanRun,
) -> Result<(), TestCaseError> {
    support::sweep_plan(plan, cat, morsel, reference).map_err(TestCaseError::Fail)?;
    Ok(())
}

/// [`sweep`] against the serial run at the default morsel size.
fn sweep_serial(cat: &Catalog, plan: &PhysicalPlan, morsel: usize) -> Result<(), TestCaseError> {
    sweep(cat, plan, morsel, &PlanRun::serial(plan, cat, None))
}

/// A table `t(k, v, f)` with `n` rows: `k` in a small domain (join/group
/// collisions), `v` a pseudo-random int, `f` an integer-valued float.
/// Secondary indexes on `k` and `v`.
fn base_catalog(n: usize, key_mod: i64) -> Catalog {
    catalog_with(n, key_mod, |i| (i * 7 % 50) as f64)
}

/// [`base_catalog`] with an arbitrary `f` column.
fn catalog_with(n: usize, key_mod: i64, f: impl Fn(i64) -> f64) -> Catalog {
    let t = support::table(
        "t",
        &[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("f", DataType::Float),
        ],
        (0..n as i64).map(|i| {
            vec![
                Value::Int(i % key_mod),
                Value::Int(i * 3 % 101),
                Value::Float(f(i)),
            ]
        }),
    );
    let mut cat = Catalog::new();
    cat.add_table(t).unwrap();
    cat.ensure_secondary_index("t", "k").unwrap();
    cat.ensure_secondary_index("t", "v").unwrap();
    cat
}

/// Adds an outer table `u(k, w)` whose keys overlap `t.k`'s domain.
fn with_outer(mut cat: Catalog, m: usize, key_mod: i64) -> Catalog {
    let u = support::table(
        "u",
        &[("k", DataType::Int), ("w", DataType::Int)],
        (0..m as i64).map(|i| vec![Value::Int(i * 5 % key_mod), Value::Int(i)]),
    );
    cat.add_table(u).unwrap();
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scan_and_seek_plans_equivalent(
        n in 0usize..300,
        key_mod in 1i64..20,
        cut in 0i64..101,
        res in 0i64..101,
        morsel in 1usize..100,
    ) {
        let cat = base_catalog(n, key_mod);

        let seq = PhysicalPlan::SeqScan {
            table: "t".into(),
            predicate: Some(Expr::col("v").lt(Expr::lit(cut))),
        };
        sweep_serial(&cat, &seq, morsel)?;

        let seek = PhysicalPlan::IndexSeek {
            table: "t".into(),
            range: IndexRange::between(
                "k",
                Value::Int(cut % key_mod),
                Value::Int(cut % key_mod + 3),
            ),
            residual: Some(Expr::col("v").ge(Expr::lit(res))),
        };
        sweep_serial(&cat, &seek, morsel)?;

        let sect = PhysicalPlan::IndexIntersection {
            table: "t".into(),
            ranges: vec![
                IndexRange::between("k", Value::Int(0), Value::Int(cut % key_mod)),
                IndexRange::between("v", Value::Int(res / 2), Value::Int(res / 2 + 40)),
            ],
            residual: None,
        };
        sweep_serial(&cat, &sect, morsel)?;
    }

    #[test]
    fn join_plans_equivalent(
        n in 0usize..250,
        m in 0usize..120,
        key_mod in 1i64..15,
        cut in 0i64..101,
        morsel in 1usize..64,
    ) {
        let cat = with_outer(base_catalog(n, key_mod), m, key_mod);

        let hash = PhysicalPlan::HashJoin {
            build: Box::new(PhysicalPlan::SeqScan {
                table: "u".into(),
                predicate: None,
            }),
            probe: Box::new(PhysicalPlan::SeqScan {
                table: "t".into(),
                predicate: Some(Expr::col("v").lt(Expr::lit(cut))),
            }),
            build_key: "k".into(),
            probe_key: "k".into(),
        };
        sweep_serial(&cat, &hash, morsel)?;

        let inl = PhysicalPlan::IndexedNlJoin {
            outer: Box::new(PhysicalPlan::SeqScan {
                table: "u".into(),
                predicate: Some(Expr::col("w").lt(Expr::lit(cut))),
            }),
            inner_table: "t".into(),
            inner_index_column: "k".into(),
            outer_key: "k".into(),
        };
        sweep_serial(&cat, &inl, morsel)?;
    }

    #[test]
    fn aggregate_and_pipeline_plans_equivalent(
        n in 0usize..400,
        key_mod in 1i64..12,
        cut in 0i64..101,
        grouped: bool,
        morsel in 1usize..128,
    ) {
        // Irrational floats: summation order reaches the last ulp, so the
        // serial reference must run at the same morsel size.
        let cat = catalog_with(n, key_mod, |i| 1.0 / (i + 3) as f64 + (i as f64).sqrt());
        let serial = |plan| PlanRun::serial(plan, &cat, Some(morsel));
        let group_by = if grouped { vec!["k".to_string()] } else { vec![] };

        let agg = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "t".into(),
                predicate: None,
            }),
            group_by: group_by.clone(),
            aggregates: vec![
                AggExpr::sum("f", "s"),
                AggExpr::count_star("n"),
                AggExpr::avg("f", "a"),
                AggExpr::min("f", "lo"),
                AggExpr::max("f", "hi"),
            ],
        };
        sweep(&cat, &agg, morsel, &serial(&agg))?;

        // Filter → project → aggregate pipeline over the scan.
        let pipeline = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::SeqScan {
                        table: "t".into(),
                        predicate: None,
                    }),
                    predicate: Expr::col("v").lt(Expr::lit(cut)),
                }),
                columns: vec!["k".into(), "f".into()],
            }),
            group_by,
            aggregates: vec![AggExpr::sum("f", "s"), AggExpr::count_star("n")],
        };
        sweep(&cat, &pipeline, morsel, &serial(&pipeline))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end over rqo-datagen's TPC-H-like catalog: the paper's
    /// Experiment-1 query shape at random seeds and predicate offsets.
    #[test]
    fn tpch_catalog_equivalent(
        seed in 0u64..1000,
        offset in 0i64..200,
        morsel in 1usize..2048,
    ) {
        let cat = support::tpch(0.002, seed);
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "lineitem".into(),
                predicate: Some(exp1_lineitem_predicate(offset)),
            }),
            group_by: vec![],
            aggregates: vec![
                AggExpr::count_star("n"),
                AggExpr::min("l_extendedprice", "lo"),
                AggExpr::max("l_extendedprice", "hi"),
            ],
        };
        sweep_serial(&cat, &plan, morsel)?;
    }
}
