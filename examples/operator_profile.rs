//! Where a join query's time goes, operator by operator: the median self
//! time (an operator's wall time minus its children's) of every node over
//! `--runs` EXPLAIN ANALYZE runs of the two query shapes of the
//! benchmark's `join_heavy` workload, on a two-worker pool:
//!
//! - experiment 2's three-way join at T = 95 %
//!   (`mj(hj(seqscan,seqscan),seqscan)`), at part window `--window`;
//! - `lineitem ⋈ part` grouped by part key.
//!
//! ```sh
//! cargo run --release --example operator_profile -- --scale 0.05 --runs 200 --window 60
//! ```
//!
//! The data is TPC-H-like at `--scale` with data seed 7, as the benchmark
//! generates it.  Self times are wall clock, so they vary with the host;
//! rows and simulated costs do not.

use robust_qo::prelude::*;

/// Pool workers, as the benchmark's service runs them.
const WORKERS: usize = 2;

fn main() {
    let mut scale = 0.05;
    let mut runs = 200usize;
    let mut window = 60i64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&flag));
        match flag.as_str() {
            "--scale" => scale = value.parse().unwrap_or_else(|_| usage(&flag)),
            "--runs" => runs = value.parse().unwrap_or_else(|_| usage(&flag)),
            "--window" => window = value.parse().unwrap_or_else(|_| usage(&flag)),
            _ => usage(&flag),
        }
    }
    let runs = runs.max(1);

    let data = TpchData::generate(&TpchConfig {
        scale_factor: scale,
        seed: 7,
    });
    let engine = Engine::new(data.into_catalog());
    let opts = ExecOptions::with_threads(WORKERS);

    let join3 = Query::over(&["lineitem", "orders", "part"])
        .filter("part", exp2_part_predicate(window))
        .aggregate(AggExpr::count_star("n"))
        .with_hint(ConfidenceThreshold::new(0.95));
    let grouped = Query::over(&["lineitem", "part"])
        .group(&["l_partkey"])
        .aggregate(AggExpr::count_star("n"))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"));

    println!("scale {scale}, {runs} runs per query, {WORKERS} pool workers");
    for (name, query) in [("three-way join", &join3), ("grouped join", &grouped)] {
        // The first run plans and caches; it is not counted.
        let first = analyze(&engine, query, &opts);
        let mut nodes: Vec<(String, Vec<u128>)> = Vec::new();
        flatten(&first.metrics, 0, &mut |depth, node, _| {
            nodes.push((format!("{}{}", "  ".repeat(depth), node.label), Vec::new()));
        });
        let mut totals = Vec::with_capacity(runs);
        for _ in 0..runs {
            let run = analyze(&engine, query, &opts);
            assert_eq!(run.metrics, first.metrics, "runs agree on rows and costs");
            totals.push(run.metrics.wall_ns);
            let mut at = 0;
            flatten(&run.metrics, 0, &mut |_, _, self_ns| {
                nodes[at].1.push(self_ns);
                at += 1;
            });
        }
        println!(
            "\n{name}: {}, median {:.3} ms",
            first.outcome.planned.plan.shape_label(),
            median_ms(&mut totals)
        );
        println!("{:>10}  operator", "self ms");
        for (label, mut times) in nodes {
            println!("{:>10.3}  {label}", median_ms(&mut times));
        }
    }
}

fn analyze(engine: &Engine, query: &Query, opts: &ExecOptions) -> AnalyzedOutcome {
    engine
        .analyze_quiet(query, opts)
        .expect("a run without a token cannot stop")
}

/// Calls `visit(depth, node, self_ns)` on every node in pre-order.
fn flatten(node: &OpMetrics, depth: usize, visit: &mut impl FnMut(usize, &OpMetrics, u128)) {
    let children: u128 = node.children.iter().map(|c| c.wall_ns).sum();
    visit(depth, node, node.wall_ns.saturating_sub(children));
    for child in &node.children {
        flatten(child, depth + 1, visit);
    }
}

fn median_ms(ns: &mut [u128]) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1e6
}

fn usage(flag: &str) -> ! {
    eprintln!(
        "bad argument {flag:?}\n\
         usage: operator_profile [--scale SF] [--runs N] [--window START]"
    );
    std::process::exit(2)
}
