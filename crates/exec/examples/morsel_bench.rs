//! Wall-clock timing of the morsel-driven executor at varying thread
//! counts, over a synthetic table large enough for the scan to dominate
//! setup.  Usage:
//!
//! ```sh
//! cargo run --release -p rqo-exec --example morsel_bench -- [rows] [t1 t2 ...]
//! ```
//!
//! Prints per-thread-count mean runtimes for a predicated scan and a
//! grouped aggregate, asserts that rows, simulated cost, and the
//! per-operator metrics tree stay bit-identical across every setting
//! (the differential invariant), and finishes with the EXPLAIN ANALYZE
//! rendering of each plan.

use std::time::Instant;

use rqo_exec::{execute_analyze, execute_with, AggExpr, ExecOptions, PhysicalPlan};
use rqo_expr::Expr;
use rqo_storage::{Catalog, CostParams, DataType, Schema, TableBuilder, Value};

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args
        .next()
        .map(|s| s.parse().expect("rows"))
        .unwrap_or(2_000_000);
    let threads: Vec<usize> = {
        let rest: Vec<usize> = args.map(|s| s.parse().expect("thread count")).collect();
        if rest.is_empty() {
            vec![1, 2, 4]
        } else {
            rest
        }
    };

    let mut b = TableBuilder::new(
        "t",
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("f", DataType::Float),
        ]),
        rows,
    );
    for i in 0..rows as i64 {
        b.push_row(&[
            Value::Int(i % 64),
            Value::Int(i.wrapping_mul(2654435761) % 1000),
            Value::Float((i % 97) as f64),
        ]);
    }
    let mut cat = Catalog::new();
    cat.add_table(b.finish()).unwrap();
    let params = CostParams::default();

    let scan = PhysicalPlan::SeqScan {
        table: "t".into(),
        predicate: Some(Expr::col("v").lt(Expr::lit(500i64))),
    };
    let agg = PhysicalPlan::HashAggregate {
        input: Box::new(scan.clone()),
        group_by: vec!["k".into()],
        aggregates: vec![AggExpr::sum("f", "s"), AggExpr::count_star("n")],
    };

    const REPS: u32 = 5;
    for (name, plan) in [("scan+filter", &scan), ("scan+agg", &agg)] {
        let (base_batch, base_cost, base_metrics) =
            execute_analyze(plan, &cat, &params, &ExecOptions::default());
        for &t in &threads {
            let opts = ExecOptions::with_threads(t);
            let start = Instant::now();
            let mut out = None;
            for _ in 0..REPS {
                out = Some(execute_with(plan, &cat, &params, &opts));
            }
            let mean = start.elapsed().as_secs_f64() / f64::from(REPS);
            let (batch, cost) = out.unwrap();
            assert_eq!(
                batch.to_rows(),
                base_batch.to_rows(),
                "rows diverged at {t} threads"
            );
            assert_eq!(cost, base_cost, "cost diverged at {t} threads");
            let (_, _, metrics) = execute_analyze(plan, &cat, &params, &opts);
            assert_eq!(metrics, base_metrics, "metrics diverged at {t} threads");
            println!(
                "{name:<12} rows={rows} threads={t} mean={:.1}ms",
                mean * 1e3
            );
        }
        println!("\n{name} EXPLAIN ANALYZE:\n{}", base_metrics.render());
    }
}
