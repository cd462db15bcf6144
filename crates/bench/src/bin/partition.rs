//! Partition pruning and incremental-statistics driver, emitted as
//! `BENCH_partition.json`.
//!
//! Two claims are measured and self-asserted:
//!
//! * **Pruning wins** — on a 16-way range-partitioned table, a range
//!   query touching 2 partitions must run ≥ 2× faster (wall clock *and*
//!   simulated cost) through the pruned partition-wise scan than through
//!   the same scan forced to read every partition, and the optimizer
//!   must pick the pruned plan on its own.
//! * **Warm plans survive partial refresh** — re-sampling one table's
//!   statistics through `refresh_statistics_partial` must leave another
//!   table's warm plan-cache entry hitting, where the old global
//!   `refresh_statistics` retires every fingerprint in the system.
//!
//! ```sh
//! cargo run --release -p rqo-bench --bin partition -- \
//!     [--rows N] [--iters N] [--out PATH] [--tiny]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use rqo_exec::{execute, AggExpr, PhysicalPlan};
use rqo_expr::Expr;
use rqo_optimizer::Query;
use rqo_service::Engine;
use rqo_storage::{
    Catalog, CostParams, DataType, PartitionSpec, PartitionedTableBuilder, Schema, TableBuilder,
    Value,
};

const PARTS: usize = 16;

struct Args {
    rows: usize,
    iters: usize,
    out: String,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            rows: 2_000_000,
            iters: 30,
            out: "BENCH_partition.json".to_string(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                // CI smoke preset: small table, few iterations.
                "--tiny" => {
                    args.rows = 100_000;
                    args.iters = 10;
                    i += 1;
                }
                flag => {
                    let value = argv
                        .get(i + 1)
                        .unwrap_or_else(|| panic!("missing value after {flag}"));
                    match flag {
                        "--rows" => args.rows = value.parse().expect("--rows"),
                        "--iters" => args.iters = value.parse().expect("--iters"),
                        "--out" => args.out = value.clone(),
                        other => panic!("unknown flag {other:?}"),
                    }
                    i += 2;
                }
            }
        }
        args
    }
}

/// `t(x, v, f)` with ascending partition key `x`, range-partitioned 16
/// ways, plus a small unpartitioned table `s` whose statistics refresh
/// must not disturb `t`'s warm plans.
fn catalog(rows: usize) -> Catalog {
    let spec = PartitionSpec::Range {
        column: "x".into(),
        bounds: (1..PARTS as i64)
            .map(|q| Value::Int(q * rows as i64 / PARTS as i64))
            .collect(),
    };
    let mut b = PartitionedTableBuilder::new(
        "t",
        Schema::from_pairs(&[
            ("x", DataType::Int),
            ("v", DataType::Int),
            ("f", DataType::Float),
        ]),
        spec,
    );
    for i in 0..rows as i64 {
        b.push_row(&[
            Value::Int(i),
            Value::Int(i * 7 % 1000),
            Value::Float((i % 97) as f64),
        ]);
    }
    let (table, layout) = b.finish();
    let mut cat = Catalog::new();
    cat.add_partitioned_table(table, layout).unwrap();
    let mut s = TableBuilder::new(
        "s",
        Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
        1000,
    );
    for i in 0..1000i64 {
        s.push_row(&[Value::Int(i), Value::Int(i * 3 % 11)]);
    }
    cat.add_table(s.finish()).unwrap();
    cat
}

/// Wall-clock of `iters` serial executions, plus one simulated-cost
/// reading (identical every iteration by construction).
fn measure(plan: &PhysicalPlan, cat: &Catalog, params: &CostParams, iters: usize) -> (f64, f64) {
    let start = Instant::now();
    let mut rows = 0usize;
    for _ in 0..iters {
        let (batch, _) = execute(plan, cat, params);
        rows = std::hint::black_box(batch.len());
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / iters as f64;
    let (_, cost) = execute(plan, cat, params);
    std::hint::black_box(rows);
    (wall_ms, cost.seconds(params) * 1e3)
}

fn main() {
    let args = Args::parse();
    let params = CostParams::default();
    let cat = catalog(args.rows);

    // A thin range straddling the partition-3/4 boundary: the scan must
    // read 2 of 16 partitions but matches only ~0.5% of the rows, so the
    // measured wall time is dominated by partitions examined, not by
    // materializing the result.
    let lo = args.rows as i64 / 4 - args.rows as i64 / 400;
    let hi = args.rows as i64 / 4 + args.rows as i64 / 400;
    let pred = Expr::col("x")
        .ge(Expr::lit(lo))
        .and(Expr::col("x").lt(Expr::lit(hi)));

    // The optimizer must prune on its own: plan the query through the
    // engine and read the surviving-partition list off the chosen plan.
    let mut engine = Engine::new(catalog(args.rows));
    let query = Query::over(&["t"])
        .filter("t", pred.clone())
        .aggregate(AggExpr::count_star("n"));
    let planned = engine.optimize(&query);
    let chosen = match &planned.plan {
        PhysicalPlan::HashAggregate { input, .. } => match input.as_ref() {
            PhysicalPlan::PartitionedScan { partitions, .. } => partitions.clone(),
            other => panic!("expected a partitioned scan under the aggregate, got {other:?}"),
        },
        other => panic!("expected an aggregate root, got {other:?}"),
    };

    // Pruned vs. forced-unpruned execution of the same scan, under a
    // count aggregate so the measured wall time is the scan itself, not
    // the (identical) materialization of the matching rows.
    let agg_over = |partitions: Vec<usize>| PhysicalPlan::HashAggregate {
        input: Box::new(PhysicalPlan::PartitionedScan {
            table: "t".into(),
            predicate: Some(pred.clone()),
            partitions,
            total_partitions: PARTS,
        }),
        group_by: vec![],
        aggregates: vec![AggExpr::count_star("n")],
    };
    let pruned_plan = agg_over(chosen.clone());
    let unpruned_plan = agg_over((0..PARTS).collect());
    let (pruned_wall_ms, pruned_sim_ms) = measure(&pruned_plan, &cat, &params, args.iters);
    let (unpruned_wall_ms, unpruned_sim_ms) = measure(&unpruned_plan, &cat, &params, args.iters);
    let wall_speedup = unpruned_wall_ms / pruned_wall_ms;
    let sim_speedup = unpruned_sim_ms / pruned_sim_ms;

    // Warm-cache survival: warm t's plan, partially refresh s, and the
    // entry must keep hitting; a full refresh must retire it.
    let opts = engine.query_exec_options(None, None);
    engine.run_opts(&query, &opts).unwrap();
    engine.run_opts(&query, &opts).unwrap();
    let hits_before = engine.cache_stats().hits;
    engine.refresh_statistics_partial("s", &[], 0xA11CE);
    engine.run_opts(&query, &opts).unwrap();
    let hits_after_partial = engine.cache_stats().hits;
    let survived = hits_after_partial == hits_before + 1;
    engine.refresh_statistics(0xD00D);
    engine.run_opts(&query, &opts).unwrap();
    let hits_after_full = engine.cache_stats().hits;
    let full_retired = hits_after_full == hits_after_partial;

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"partition\",").unwrap();
    writeln!(json, "  \"rows\": {},", args.rows).unwrap();
    writeln!(json, "  \"partitions\": {PARTS},").unwrap();
    writeln!(json, "  \"pruning\": {{").unwrap();
    writeln!(json, "    \"surviving_partitions\": {},", chosen.len()).unwrap();
    writeln!(json, "    \"pruned_wall_ms\": {pruned_wall_ms:.3},").unwrap();
    writeln!(json, "    \"unpruned_wall_ms\": {unpruned_wall_ms:.3},").unwrap();
    writeln!(json, "    \"wall_speedup\": {wall_speedup:.2},").unwrap();
    writeln!(json, "    \"pruned_simulated_ms\": {pruned_sim_ms:.3},").unwrap();
    writeln!(json, "    \"unpruned_simulated_ms\": {unpruned_sim_ms:.3},").unwrap();
    writeln!(json, "    \"simulated_speedup\": {sim_speedup:.2}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"warm_cache\": {{").unwrap();
    writeln!(json, "    \"hits_before_refresh\": {hits_before},").unwrap();
    writeln!(
        json,
        "    \"hits_after_partial_refresh\": {hits_after_partial},"
    )
    .unwrap();
    writeln!(json, "    \"survived_partial_refresh\": {survived},").unwrap();
    writeln!(json, "    \"retired_by_full_refresh\": {full_retired}").unwrap();
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    print!("{json}");
    std::fs::write(&args.out, &json).expect("write BENCH json");
    eprintln!(
        "pruning {}/{PARTS} parts: wall {wall_speedup:.1}×, simulated {sim_speedup:.1}×; \
         warm plan survived partial refresh: {survived}; wrote {}",
        chosen.len(),
        args.out
    );

    assert_eq!(
        chosen,
        vec![3usize, 4],
        "the optimizer must statically prune to partitions 3 and 4"
    );
    assert!(
        wall_speedup >= 2.0,
        "pruned scan must be ≥ 2× faster on wall clock (got {wall_speedup:.2}×)"
    );
    assert!(
        sim_speedup >= 2.0,
        "pruned scan must be ≥ 2× cheaper in simulated cost (got {sim_speedup:.2}×)"
    );
    assert!(
        survived,
        "warm plan must survive a partial refresh of another table"
    );
    assert!(full_retired, "full refresh must retire the warm plan");
}
