//! Quickstart: build a tiny database, run a query, and watch the
//! confidence threshold change the chosen plan.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use robust_qo::prelude::*;

fn main() {
    // 1. A small TPC-H-like database (≈60k lineitem rows at SF 0.01),
    //    with FKs declared and the experiment indexes built.
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 7,
    });
    let db = Engine::new(data.into_catalog());

    // 2. The paper's running example: two date predicates that are
    //    correlated (receipt follows ship by 1-30 days).  An offset of
    //    130 days leaves no overlap at all, so the conjunction is empty
    //    even though each predicate alone matches ~4% of rows.
    let query = Query::over(&["lineitem"])
        .filter("lineitem", exp1_lineitem_predicate(130))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
        .aggregate(AggExpr::count_star("matching_rows"));

    //    `execute` is the one run verb; the policy says what the run may
    //    publish (`Run`: only its plan, into the cache), and the options
    //    say how this run executes (default: serial, no token).  Every
    //    policy returns the plan that ran with estimate vs. actual rows
    //    per node; `db.run(&query)` is the serial shorthand for
    //    `.outcome` alone.
    let ran = db
        .execute(&query, &ExecOptions::default(), RunPolicy::Run)
        .expect("no token, so the run cannot stop");
    println!("chosen plan, estimate vs. actual:\n{}", ran.render());
    let outcome = ran.outcome;
    println!(
        "revenue = {}, matching rows = {}",
        outcome.rows[0][0], outcome.rows[0][1]
    );
    println!(
        "simulated execution time: {:.4}s (optimizer estimated {:.4}s)\n",
        outcome.simulated_seconds, outcome.estimated_seconds
    );

    // 3. The robustness knob.  The same query, planned at each preset:
    //    aggressive planning gambles on the index intersection (the
    //    sample says the predicate is rare); the conservative preset
    //    refuses unless the sample leaves no doubt.
    let mut aggressive_db = None;
    for level in [
        RobustnessLevel::Aggressive,
        RobustnessLevel::Moderate,
        RobustnessLevel::Conservative,
    ] {
        let db = Engine::new(
            TpchData::generate(&TpchConfig {
                scale_factor: 0.01,
                seed: 7,
            })
            .into_catalog(),
        )
        .with_robustness(level);
        let outcome = db.run(&query);
        println!(
            "{level:?} ({}): plan = {}, time = {:.4}s",
            db.threshold(),
            outcome.planned.plan.shape_label(),
            outcome.simulated_seconds
        );
        if level == RobustnessLevel::Aggressive {
            aggressive_db = Some(db);
        }
    }

    // 4. Per-query hints override the system setting (§6.2.5): the same
    //    aggressive database, but this one query demands near-certainty.
    let aggressive_db = aggressive_db.expect("built above");
    let hinted = query.clone().with_hint(ConfidenceThreshold::new(0.99));
    println!(
        "\naggressive system default: plan = {}",
        aggressive_db.run(&query).planned.plan.shape_label()
    );
    println!(
        "same system, T=99% query hint: plan = {}",
        aggressive_db.run(&hinted).planned.plan.shape_label()
    );
}
