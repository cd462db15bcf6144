//! Differential adaptive-vs-static executor tests.
//!
//! For random SPJ workloads over the seeded TPC-H-like generator (whose
//! correlated ship/receipt dates and clustered part keys are the
//! deliberately skewed columns the paper's estimator struggles with),
//! [`Engine::execute`] under `RunPolicy::Adaptive` must return
//! **bit-identical** rows to the static [`Engine::run`] path — at 1,
//! 2, and 8 worker threads — no
//! matter how wrong the planted selectivity is and how many mid-query
//! re-plans it provokes.  Guard-trigger points, re-plan counts, and the
//! total tracked cost must also be identical across thread counts: guard
//! decisions compare materialized batch lengths (bit-identical at every
//! thread count by the morsel executor's construction) against plan-time
//! estimates, so parallelism can never change *what* the adaptive layer
//! does, only how fast it does it.
//!
//! Aggregates are restricted to order-insensitive reductions (COUNT,
//! MIN, MAX) plus SUM over the integer-valued `l_quantity` column, so
//! results are exact even when a re-plan changes the order in which the
//! aggregate consumes its input.
//!
//! The suite drives the whole stack because adaptivity spans it:
//! optimizer annotations arm the guards, the executor trips them, and
//! the engine re-plans.

use proptest::prelude::*;
use robust_qo::prelude::*;

use crate::support::{self, QueryRun};

/// Three SPJ families over the TPC-H-like schema, all aggregate-topped
/// (plan-independent output order).
fn build_query(family: usize, offset: i64, window: i64) -> Query {
    let aggs = |q: Query| {
        q.aggregate(AggExpr::count_star("n"))
            .aggregate(AggExpr::sum("l_quantity", "qty"))
            .aggregate(AggExpr::min("l_extendedprice", "lo"))
            .aggregate(AggExpr::max("l_extendedprice", "hi"))
    };
    match family {
        0 => aggs(support::lineitem_window(offset % 200)),
        1 => aggs(
            Query::over(&["lineitem", "part"]).filter("part", exp2_part_predicate(window % 300)),
        ),
        _ => aggs(support::part_join(window % 300)),
    }
}

/// The single-table key the misestimate is planted under: the family's
/// filtered table and its predicate.
fn inject_misestimate(handle: &Engine, family: usize, offset: i64, window: i64, sel: f64) {
    match family {
        0 => {
            let pred = exp1_lineitem_predicate(offset % 200);
            handle
                .feedback()
                .inject_observation(&["lineitem"], &[("lineitem", &pred)], sel);
        }
        _ => {
            let pred = exp2_part_predicate(window % 300);
            handle
                .feedback()
                .inject_observation(&["part"], &[("part", &pred)], sel);
        }
    }
}

/// A fresh engine over the scale-0.002 catalog generated with `seed`,
/// with the misestimate planted.
fn planted_db(seed: u64, family: usize, offset: i64, window: i64, sel: f64) -> Engine {
    let handle = support::engine(support::tpch(0.002, seed), 300, seed ^ 0xA5);
    inject_misestimate(&handle, family, offset, window, sel);
    handle
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn adaptive_rows_match_static_at_all_thread_counts(
        seed in 0u64..500,
        family in 0usize..3,
        offset in 0i64..200,
        window in 0i64..300,
        // Spans "absurdly selective" to "everything matches" — either
        // direction of wrongness must leave answers untouched.
        sel in prop_oneof![Just(1e-6), Just(0.01), Just(0.5), Just(0.999)],
    ) {
        let query = build_query(family, offset, window);

        // Static reference: fresh database, same planted misestimate.
        let static_run = planted_db(seed, family, offset, window, sel).run(&query);

        // Adaptive at each worker count, each on its own fresh database
        // (an adaptive run feeds truth back into its handle's store, which
        // must not leak between arms): guard-trigger points, re-plan
        // counts and cost bits identical at every count.
        let adaptive = support::sweep_query(
            || planted_db(seed, family, offset, window, sel),
            &query,
            RunPolicy::Adaptive,
        )
        .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(
            &adaptive.outcome.rows,
            &static_run.rows,
            "rows diverged: family={} sel={}",
            family, sel
        );
        prop_assert_eq!(&adaptive.outcome.columns, &static_run.columns);
    }

    /// The non-adaptive policy is exactly the static path, for every
    /// workload and misestimate: `RunPolicy::Run` arms no guard, so even
    /// a planted misestimate re-plans nothing.
    #[test]
    fn disabled_policy_is_exactly_static(
        seed in 0u64..500,
        family in 0usize..3,
        offset in 0i64..200,
        window in 0i64..300,
    ) {
        let query = build_query(family, offset, window);
        let opts = ExecOptions::with_threads(2);
        let static_run = planted_db(seed, family, offset, window, 0.9)
            .run_opts(&query, &opts)
            .unwrap();
        let disabled = planted_db(seed, family, offset, window, 0.9)
            .execute(&query, &opts, RunPolicy::Run)
            .unwrap();
        prop_assert_eq!(disabled.replans(), 0);
        prop_assert!(disabled.events.is_empty());
        QueryRun::of_outcome(&static_run)
            .diff(&QueryRun::of_analyzed(&disabled))
            .map_err(TestCaseError::Fail)?;
    }
}
