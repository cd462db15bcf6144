//! Adaptive-vs-static cost driver on a skewed (misestimated) workload,
//! emitted as `BENCH_adaptive.json`.
//!
//! Each scenario plants a wildly wrong selectivity through the feedback
//! store — the situation the paper's runtime cardinality guards exist
//! for — then executes the query twice on identically-seeded fresh
//! databases:
//!
//! * **static** — [`RobustDb::run`], committed to the misestimate-driven
//!   plan for the whole query;
//! * **adaptive** — [`RobustDb::execute`] under [`RunPolicy::Adaptive`],
//!   which may pause at a pipeline breaker, feed the observed truth
//!   back, and re-plan the remainder against the materialized
//!   intermediate.
//!
//! The driver self-asserts that the total adaptive simulated cost never
//! exceeds the static total: re-optimization is risk-bounded, so a cache
//! of guards can only help (or break even when a trip lands after the
//! expensive work is already paid).
//!
//! ```sh
//! cargo run --release -p rqo-bench --bin adaptive -- \
//!     [--scale F] [--out PATH] [--tiny]
//! ```

use std::fmt::Write as _;

use robust_qo::{RobustDb, RunPolicy};
use rqo_datagen::workload::{exp1_lineitem_predicate, exp2_part_predicate};
use rqo_datagen::{TpchConfig, TpchData};
use rqo_exec::AggExpr;
use rqo_expr::Expr;
use rqo_optimizer::Query;
use rqo_storage::CostParams;

struct Args {
    scale: f64,
    out: String,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            scale: 0.01,
            out: "BENCH_adaptive.json".to_string(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                // CI smoke preset: small catalog.
                "--tiny" => {
                    args.scale = 0.005;
                    i += 1;
                }
                flag => {
                    let value = argv
                        .get(i + 1)
                        .unwrap_or_else(|| panic!("missing value after {flag}"));
                    match flag {
                        "--scale" => args.scale = value.parse().expect("--scale"),
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

/// One skewed scenario: a query plus the misestimate planted before
/// planning (table set, per-table predicate, wrong selectivity).
struct Scenario {
    name: &'static str,
    query: Query,
    planted: Vec<(&'static str, Expr, f64)>,
}

fn scenarios() -> Vec<Scenario> {
    let exp1_pred = exp1_lineitem_predicate(110);
    let narrow_part = exp2_part_predicate(250);
    let wide_part = exp2_part_predicate(212);
    vec![
        // Near-empty window estimated at 90% of lineitem: the guard fires
        // at the scan, and the resumed plan merely breaks even (the scan
        // was the expensive part).
        Scenario {
            name: "exp1_wrong_big",
            query: Query::over(&["lineitem"])
                .filter("lineitem", exp1_pred.clone())
                .aggregate(AggExpr::sum("l_extendedprice", "revenue")),
            planted: vec![("lineitem", exp1_pred, 0.9)],
        },
        // A handful of parts estimated at half the table: the build-side
        // guard fires before the lineitem scan, and the re-plan switches
        // to indexed nested loops — the paper's motivating win.
        Scenario {
            name: "join2_wrong_big",
            query: Query::over(&["lineitem", "part"])
                .filter("part", narrow_part.clone())
                .aggregate(AggExpr::count_star("n"))
                .aggregate(AggExpr::sum("l_extendedprice", "rev")),
            planted: vec![("part", narrow_part, 0.5)],
        },
        // The same misestimate under a three-way join with DP-enumerated
        // join order.
        Scenario {
            name: "join3_wrong_big",
            query: Query::over(&["lineitem", "orders", "part"])
                .filter("part", wide_part.clone())
                .aggregate(AggExpr::sum("l_extendedprice", "revenue")),
            planted: vec![("part", wide_part, 0.5)],
        },
    ]
}

fn fresh_db(scale: f64, planted: &[(&'static str, Expr, f64)]) -> RobustDb {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: scale,
        seed: 1234,
    });
    let db = RobustDb::with_options(data.into_catalog(), CostParams::default(), 500, 9);
    for (table, pred, sel) in planted {
        db.feedback()
            .inject_observation(&[table], &[(table, pred)], *sel);
    }
    db
}

struct Row {
    name: &'static str,
    static_seconds: f64,
    adaptive_seconds: f64,
    replans: usize,
}

fn main() {
    let args = Args::parse();
    let mut rows = Vec::new();
    for sc in scenarios() {
        let static_run = fresh_db(args.scale, &sc.planted).run(&sc.query);
        let adaptive = fresh_db(args.scale, &sc.planted).execute(&sc.query, RunPolicy::Adaptive);
        assert_eq!(
            adaptive.outcome.rows, static_run.rows,
            "{}: adaptive answers must match static",
            sc.name
        );
        rows.push(Row {
            name: sc.name,
            static_seconds: static_run.simulated_seconds,
            adaptive_seconds: adaptive.outcome.simulated_seconds,
            replans: adaptive.replans(),
        });
    }

    let static_total: f64 = rows.iter().map(|r| r.static_seconds).sum();
    let adaptive_total: f64 = rows.iter().map(|r| r.adaptive_seconds).sum();
    let total_replans: usize = rows.iter().map(|r| r.replans).sum();

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"adaptive\",").unwrap();
    writeln!(json, "  \"scale_factor\": {},", args.scale).unwrap();
    writeln!(json, "  \"scenarios\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"static_seconds\": {:.6}, \"adaptive_seconds\": {:.6}, \
             \"replans\": {}, \"saving_pct\": {:.1}}}{comma}",
            r.name,
            r.static_seconds,
            r.adaptive_seconds,
            r.replans,
            100.0 * (1.0 - r.adaptive_seconds / r.static_seconds),
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"static_total_seconds\": {static_total:.6},").unwrap();
    writeln!(json, "  \"adaptive_total_seconds\": {adaptive_total:.6},").unwrap();
    writeln!(json, "  \"total_replans\": {total_replans},").unwrap();
    writeln!(
        json,
        "  \"total_saving_pct\": {:.1}",
        100.0 * (1.0 - adaptive_total / static_total)
    )
    .unwrap();
    writeln!(json, "}}").unwrap();

    print!("{json}");
    std::fs::write(&args.out, &json).expect("write BENCH json");
    eprintln!(
        "static {static_total:.4}s vs adaptive {adaptive_total:.4}s over {} scenarios \
         ({total_replans} re-plans), wrote {}",
        rows.len(),
        args.out
    );
    assert!(
        total_replans >= 1,
        "the skewed workload must provoke at least one re-plan"
    );
    assert!(
        adaptive_total <= static_total,
        "adaptive execution must never cost more than static \
         (adaptive {adaptive_total:.6}s vs static {static_total:.6}s)"
    );
}
