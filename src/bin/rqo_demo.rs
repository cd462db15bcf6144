//! `rqo_demo` — command-line driver for the three paper scenarios.
//!
//! ```sh
//! rqo_demo exp1 --offset 110 --threshold 80 --scale 0.01
//! rqo_demo exp2 --window 212 --threshold 50
//! rqo_demo exp3 --level 2 --fact-rows 500000 --threshold 95
//! ```
//!
//! Prints the chosen plan, the result row, the simulated execution time,
//! and — for contrast — what the histogram-based baseline would have
//! picked for the same query.

use std::sync::Arc;

use robust_qo::prelude::*;

struct Args {
    scenario: String,
    offset: i64,
    window: i64,
    level: i64,
    threshold_pct: f64,
    selection: PlanSelection,
    scale: f64,
    fact_rows: usize,
    seed: u64,
    threads: usize,
    explain_analyze: bool,
    adaptive: bool,
    force_misestimate: bool,
    repeat: usize,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            scenario: String::new(),
            offset: 110,
            window: 212,
            level: 2,
            threshold_pct: 80.0,
            selection: PlanSelection::Quantile,
            scale: 0.01,
            fact_rows: 500_000,
            seed: 7,
            threads: 1,
            explain_analyze: false,
            adaptive: false,
            force_misestimate: false,
            repeat: 0,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.is_empty() {
            eprintln!(
                "usage: rqo_demo <exp1|exp2|exp3> [--offset N] [--window N] [--level N] \
                 [--threshold PCT] [--selection quantile|penalty] [--scale F] [--fact-rows N] \
                 [--seed N] [--threads N] [--explain-analyze] [--adaptive] \
                 [--force-misestimate] [--repeat N]"
            );
            std::process::exit(2);
        }
        args.scenario = argv[0].clone();
        let mut i = 1;
        while i < argv.len() {
            let flag = argv[i].as_str();
            // Boolean flags take no value.
            if flag == "--explain-analyze" {
                args.explain_analyze = true;
                i += 1;
                continue;
            }
            if flag == "--adaptive" {
                args.adaptive = true;
                i += 1;
                continue;
            }
            if flag == "--force-misestimate" {
                args.force_misestimate = true;
                i += 1;
                continue;
            }
            let value = argv
                .get(i + 1)
                .unwrap_or_else(|| panic!("missing value after {flag}"));
            match flag {
                "--offset" => args.offset = value.parse().expect("--offset"),
                "--window" => args.window = value.parse().expect("--window"),
                "--level" => args.level = value.parse().expect("--level"),
                "--threshold" => args.threshold_pct = value.parse().expect("--threshold"),
                "--selection" => {
                    args.selection = PlanSelection::parse(value).unwrap_or_else(|| {
                        panic!("--selection expects quantile|penalty, got {value:?}")
                    })
                }
                "--scale" => args.scale = value.parse().expect("--scale"),
                "--fact-rows" => args.fact_rows = value.parse().expect("--fact-rows"),
                "--seed" => args.seed = value.parse().expect("--seed"),
                "--threads" => args.threads = value.parse().expect("--threads"),
                "--repeat" => args.repeat = value.parse().expect("--repeat"),
                other => panic!("unknown flag {other:?}"),
            }
            i += 2;
        }
        args
    }
}

fn main() {
    let args = Args::parse();
    if !(0.0 < args.threshold_pct && args.threshold_pct < 100.0) {
        eprintln!(
            "--threshold must be strictly between 0 and 100 (got {})",
            args.threshold_pct
        );
        std::process::exit(2);
    }
    let threshold = ConfidenceThreshold::from_percent(args.threshold_pct);

    let (catalog, query) = match args.scenario.as_str() {
        "exp1" => {
            let cat = TpchData::generate(&TpchConfig {
                scale_factor: args.scale,
                seed: args.seed,
            })
            .into_catalog();
            let q = Query::over(&["lineitem"])
                .filter("lineitem", exp1_lineitem_predicate(args.offset))
                .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
                .aggregate(AggExpr::count_star("n"));
            (cat, q)
        }
        "exp2" => {
            let cat = TpchData::generate(&TpchConfig {
                scale_factor: args.scale,
                seed: args.seed,
            })
            .into_catalog();
            let q = Query::over(&["lineitem", "orders", "part"])
                .filter("part", exp2_part_predicate(args.window))
                .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
                .aggregate(AggExpr::count_star("n"));
            (cat, q)
        }
        "exp3" => {
            let cat = StarData::generate(&StarConfig {
                fact_rows: args.fact_rows,
                seed: args.seed,
            })
            .into_catalog();
            let mut q = Query::over(&["fact", "dim1", "dim2", "dim3"])
                .aggregate(AggExpr::sum("f_measure1", "total"))
                .aggregate(AggExpr::count_star("n"));
            for dim in ["dim1", "dim2", "dim3"] {
                q = q.filter(dim, exp3_dim_predicate(args.level));
            }
            (cat, q)
        }
        other => {
            eprintln!("unknown scenario {other:?} (expected exp1|exp2|exp3)");
            std::process::exit(2);
        }
    };

    // Histogram baseline for contrast (before the catalog moves into the
    // facade).
    let catalog = Arc::new(catalog);
    let baseline: Arc<dyn CardinalityEstimator> =
        Arc::new(HistogramEstimator::build_default(&catalog));
    let baseline_opt = Optimizer::new(Arc::clone(&catalog), CostParams::default(), baseline);
    let baseline_plan = baseline_opt.optimize(&query);

    let db = Engine::with_options(
        Arc::try_unwrap(catalog).unwrap_or_else(|arc| (*arc).clone()),
        CostParams::default(),
        500,
        args.seed,
    )
    .with_threshold(threshold)
    .with_selection(args.selection);

    // Plant a wildly wrong selectivity so the first plan is provably bad
    // — the demo knob for watching runtime cardinality guards fire.
    if args.force_misestimate {
        match args.scenario.as_str() {
            "exp1" => {
                let pred = exp1_lineitem_predicate(args.offset);
                db.feedback()
                    .record(&RequestKey::new(["lineitem"], [("lineitem", &pred)]), 0.9);
            }
            "exp2" => {
                let pred = exp2_part_predicate(args.window);
                db.feedback()
                    .record(&RequestKey::new(["part"], [("part", &pred)]), 0.5);
            }
            _ => {
                let pred = exp3_dim_predicate(args.level);
                for dim in ["dim1", "dim2", "dim3"] {
                    db.feedback()
                        .record(&RequestKey::new([dim], [(dim, &pred)]), 1e-6);
                }
            }
        }
    }

    println!(
        "scenario: {}  (T = {}%, selection = {}, threads = {})",
        args.scenario,
        args.threshold_pct,
        args.selection.label(),
        args.threads
    );

    // In penalty mode, show how the integration reached its decision:
    // every scored candidate, the sensitivity partition, and the number
    // of quadrature nodes spent.
    if args.selection == PlanSelection::ExpectedPenalty {
        let planned = db.optimize(&query);
        if let Some(report) = &planned.penalty {
            println!(
                "\nexpected-penalty selection ({} candidate(s), {} quadrature node(s){}):",
                report.candidates.len(),
                report.nodes,
                if report.degenerate {
                    ", degenerate posterior"
                } else {
                    ""
                }
            );
            for (i, c) in report.candidates.iter().enumerate() {
                println!(
                    "  {}{}  E[cost]={:.3}ms  E[penalty]={:.3}ms",
                    if i == report.chosen { "*" } else { " " },
                    c.shape,
                    c.expected_cost,
                    c.expected_penalty
                );
            }
            if !report.sensitive.is_empty() || !report.pruned.is_empty() {
                println!(
                    "  sensitive: [{}]  pruned-to-median: [{}]",
                    report.sensitive.join(", "),
                    report.pruned.join(", ")
                );
            }
        }
    }
    let policy = if args.adaptive {
        RunPolicy::Adaptive
    } else if args.explain_analyze {
        RunPolicy::Analyze
    } else {
        RunPolicy::Run
    };
    // One set of executor options for the robust run and the baseline,
    // dropped with its pool before the repeat phase builds a service.
    let opts = ExecOptions::with_threads(args.threads);
    let ran = db
        .execute(&query, &opts, policy)
        .expect("no token, so the run cannot stop");
    match policy {
        RunPolicy::Adaptive => println!("\n{}", ran.render_adaptive()),
        RunPolicy::Analyze => println!("\nrobust plan (EXPLAIN ANALYZE):\n{}", ran.render()),
        _ => println!("\nrobust plan:\n{}", ran.outcome.planned.plan.explain()),
    }
    let outcome = ran.outcome;
    print!("result: ");
    for (c, v) in outcome.columns.iter().zip(&outcome.rows[0]) {
        print!("{c}={v}  ");
    }
    println!(
        "\nsimulated time: {:.4}s  (optimizer estimate {:.4}s)",
        outcome.simulated_seconds, outcome.estimated_seconds
    );

    let (_, baseline_cost) = robust_qo::exec::execute_with(
        &baseline_plan.plan,
        &db.catalog(),
        &CostParams::default(),
        &opts,
    );
    drop(opts);
    println!(
        "\nhistogram baseline would pick: {}  ({:.4}s)",
        baseline_plan.shape(),
        baseline_cost.seconds(&CostParams::default())
    );

    // Demonstrate repeated traffic through ONE long-lived service over
    // the same engine (same plan cache, same feedback): the first run
    // above seeded the cache, so every repeat is a cache hit, and the
    // service counters show the admission lifecycle alongside the cache
    // counters.
    if args.repeat > 0 {
        let service =
            db.into_service(ServiceConfig::default().with_workers(args.threads.saturating_sub(1)));
        let start = std::time::Instant::now();
        for _ in 0..args.repeat {
            std::hint::black_box(service.run(&query).expect("no cancellation source"));
        }
        let per_query = start.elapsed().as_nanos() as f64 / args.repeat as f64;
        println!(
            "\nre-ran {}× through one service ({:.1}µs/query)",
            args.repeat,
            per_query / 1e3
        );
        println!("plan cache: {}", service.engine().cache_stats());
        println!("service:    {}", service.stats());
    } else {
        println!("plan cache: {}", db.cache_stats());
    }
}
