//! Star-join planning (the paper's Experiment 3 in miniature): a fact
//! table whose join selectivity against three filtered dimensions ranges
//! from ~0% to 10% while every dimension filter stays at 10%.
//!
//! An AVI-based optimizer always estimates 10%³ = 0.1% and picks one
//! plan; the robust optimizer reads the joint selectivity off the fact
//! synopsis and switches between the semijoin strategy (few matches) and
//! cascading hash joins (many matches).
//!
//! ```sh
//! cargo run --release --example star_join
//! ```

use robust_qo::prelude::*;

fn main() {
    // The semijoin's fixed cost (one fact-index probe per selected
    // dimension key) needs a reasonably large fact table to amortize —
    // the paper used 10M rows; 1M is enough to show every regime.
    let data = StarData::generate(&StarConfig {
        fact_rows: 1_000_000,
        seed: 3,
    });
    let db = Engine::new(data.into_catalog()).with_robustness(RobustnessLevel::Aggressive);

    println!(
        "{:>6} {:>12} {:>34} {:>10}",
        "level", "fact match", "chosen plan", "time (s)"
    );
    for level in [0i64, 2, 4, 6, 9] {
        let mut query = Query::over(&["fact", "dim1", "dim2", "dim3"])
            .aggregate(AggExpr::sum("f_measure1", "total"))
            .aggregate(AggExpr::count_star("n"));
        for dim in ["dim1", "dim2", "dim3"] {
            query = query.filter(dim, exp3_dim_predicate(level));
        }
        let outcome = db.run(&query);
        let matched = outcome.rows[0][1].as_int();
        let fraction = matched as f64 / db.catalog().table("fact").unwrap().num_rows() as f64;
        println!(
            "{level:>6} {:>11.3}% {:>34} {:>10.3}",
            fraction * 100.0,
            outcome.planned.plan.shape_label(),
            outcome.simulated_seconds
        );
    }
    println!(
        "\nLow levels match almost no fact rows: the index-driven semijoin wins.  \
         High levels match up to 10% of the fact table: fetching those rows one \
         random I/O at a time would be ruinous, so the optimizer flips to hash joins."
    );
}
