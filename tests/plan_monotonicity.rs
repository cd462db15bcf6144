//! Plan stability under the confidence threshold (paper §5, Fig. 5).
//!
//! With a single uncertain selectivity, every plan's cost is a monotone
//! function of that one number, so raising `T` can only move the query
//! towards plans that are cheaper at the top of the posterior's support:
//! the plan chosen at `T₂` never costs more than the plan chosen at
//! `T₁ < T₂` when both are priced at the 0.99 quantile of the same
//! posterior.  With several uncertain selectivities (marginals and a
//! joint moving together) the argument no longer holds plan for plan;
//! how often it fails is recorded, not asserted.

use std::sync::OnceLock;

use proptest::prelude::*;
use robust_qo::optimizer::{enumerate::PlanContext, price_plan, CostModel};
use robust_qo::prelude::*;
use robust_qo::storage::parse_date;

const SEED: u64 = 42;
const TOP: f64 = 0.99;

fn db() -> &'static Engine {
    static DB: OnceLock<Engine> = OnceLock::new();
    DB.get_or_init(|| {
        let data = TpchData::generate(&TpchConfig {
            scale_factor: 0.005,
            seed: SEED,
        });
        Engine::with_options(data.into_catalog(), CostParams::default(), 500, SEED)
    })
}

/// Cost, at the `TOP` quantile, of the plans `query` gets at `t1 < t2`.
fn top_costs(query: &Query, t1: f64, t2: f64) -> (f64, f64) {
    let db = db();
    let opt = db.optimizer();
    let catalog = db.catalog();
    let top = opt
        .estimator()
        .hinted(ConfidenceThreshold::new(TOP))
        .expect("robust estimator honours hints");
    let ctx = PlanContext::new(
        &catalog,
        CostModel::new(&catalog, opt.params()),
        top.as_ref(),
    );
    let cost_of_choice_at = |t: f64| {
        let planned = opt.optimize(&query.clone().with_hint(ConfidenceThreshold::new(t)));
        price_plan(&ctx, query, &planned.plan).cost_ms
    };
    (cost_of_choice_at(t1), cost_of_choice_at(t2))
}

/// `COUNT(*)` over one ship-date window: one range conjunct, one
/// uncertain selectivity (seek vs. scan).
fn ship_window(start_day: i32, len_days: i32) -> Query {
    let lo = parse_date("1992-01-02").as_date() + start_day;
    let window = Expr::col("l_shipdate").between(
        Expr::lit(Value::Date(lo)),
        Expr::lit(Value::Date(lo + len_days)),
    );
    Query::over(&["lineitem"])
        .filter("lineitem", window)
        .aggregate(AggExpr::count_star("n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn raising_the_threshold_never_costs_more_at_the_top_of_the_posterior(
        start_day in 0i32..2400,
        len_days in 0i32..400,
        t1_pct in 1u32..98,
        gap_pct in 1u32..98,
    ) {
        // T1 ≤ 0.97 < T2 ≤ the quantile both plans are priced at.
        let t1 = f64::from(t1_pct) / 100.0;
        let t2 = (f64::from(t1_pct + gap_pct) / 100.0).min(TOP);
        let (at_t1, at_t2) = top_costs(&ship_window(start_day, len_days), t1, t2);
        prop_assert!(
            at_t2 <= at_t1,
            "window {start_day}+{len_days}: the T={t2} plan costs {at_t2} at the {TOP} quantile, \
             the T={t1} plan {at_t1}"
        );
    }
}

/// The Experiment-1 template has three uncertain selectivities (two
/// marginals and their joint).  Reports how often the single-parameter
/// monotonicity fails there; asserts nothing about the rate.
#[test]
fn violation_rate_with_several_uncertain_selectivities_is_recorded() {
    let thresholds = [0.05, 0.20, 0.50, 0.80, 0.95, TOP];
    let (mut pairs, mut violations) = (0usize, 0usize);
    for offset in (0..=130).step_by(10) {
        let query = Query::over(&["lineitem"])
            .filter("lineitem", exp1_lineitem_predicate(offset))
            .aggregate(AggExpr::count_star("n"));
        for (i, &t1) in thresholds.iter().enumerate() {
            for &t2 in &thresholds[i + 1..] {
                let (at_t1, at_t2) = top_costs(&query, t1, t2);
                pairs += 1;
                violations += usize::from(at_t2 > at_t1);
            }
        }
    }
    println!(
        "exp1 template: {violations} of {pairs} (T1 < T2) pairs pick a plan at T2 that costs \
         more at the {TOP} quantile than the plan picked at T1"
    );
}
