//! Property-based cancellation hygiene: a query cancelled at an
//! arbitrary poll boundary must leave **no trace** — no partial rows, no
//! plan-cache entry, no feedback observations — and a subsequent
//! un-cancelled run on the same engine must be bit-identical to a run on
//! a pristine engine.
//!
//! `QueryToken::cancel_after_polls(k)` makes the cut point deterministic:
//! the token fires at the k-th cooperative checkpoint (operator entry or
//! morsel boundary), so each proptest case pins one exact interruption
//! point rather than a race.

use proptest::prelude::*;
use rqo_core::{QueryToken, StopReason};
use rqo_datagen::workload::{exp1_lineitem_predicate, exp2_part_predicate};
use rqo_datagen::{TpchConfig, TpchData};
use rqo_exec::AggExpr;
use rqo_optimizer::Query;
use rqo_service::{Engine, RunPolicy};

fn engine() -> Engine {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    Engine::new(data.into_catalog())
}

/// The query pool: single-table windows (cheap, few checkpoints) and a
/// three-way join (many operators, many checkpoints).
fn query(kind: usize, param: i64) -> Query {
    match kind {
        0 => Query::over(&["lineitem"])
            .filter("lineitem", exp1_lineitem_predicate(param))
            .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
            .aggregate(AggExpr::count_star("n")),
        1 => Query::over(&["lineitem", "orders"]).aggregate(AggExpr::count_star("n")),
        _ => Query::over(&["lineitem", "orders", "part"])
            .filter("part", exp2_part_predicate(150 + param))
            .aggregate(AggExpr::count_star("n")),
    }
}

const POLICIES: [RunPolicy; 4] = [
    RunPolicy::Run,
    RunPolicy::Adaptive,
    RunPolicy::Analyze,
    RunPolicy::AnalyzeQuiet,
];

/// Runs `q` on `e` under `policy`, reduced to the comparable core:
/// result rows and tracked cost.
fn run(
    e: &Engine,
    q: &Query,
    policy: RunPolicy,
    token: Option<QueryToken>,
) -> Result<(Vec<Vec<rqo_storage::Value>>, f64), StopReason> {
    e.execute(q, &e.query_exec_options(token, None), policy)
        .map(|a| (a.outcome.rows, a.outcome.simulated_seconds))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cancel at the k-th checkpoint, then prove the engine state is
    /// byte-identical to never having run: empty feedback snapshot, empty
    /// plan cache, and a follow-up run that matches a pristine engine
    /// bit-for-bit.
    #[test]
    fn cancellation_leaves_no_trace(
        kind in 0usize..3,
        policy in (0usize..4).prop_map(|i| POLICIES[i]),
        param in 0i64..90,
        polls in 0u64..60,
    ) {
        let e = engine();
        let q = query(kind, param);
        let token = QueryToken::cancel_after_polls(polls);
        let result = run(&e, &q, policy, Some(token));

        // The pristine reference: the same policy, never cancelled,
        // on a fresh identical engine.
        let (ref_rows, ref_seconds) =
            run(&engine(), &q, policy, None).expect("no token, cannot stop");

        match result {
            Err(reason) => {
                prop_assert_eq!(reason, StopReason::Cancelled);
                // No feedback observation was published.
                prop_assert!(e.feedback().snapshot().is_empty(),
                    "cancelled {policy:?}/{kind} published feedback: {:?}", e.feedback().snapshot());
                // No plan entered the cache, and nothing was evicted.
                let cache = e.cache_stats();
                prop_assert_eq!(cache.entries, 0);
                prop_assert_eq!(cache.drift_evictions, 0);
                prop_assert!(e.plan_cache().get(&e.fingerprint(&q)).is_none());
                // The engine is as good as untouched: re-running without
                // the token is bit-identical to the pristine engine.
                let (rows, seconds) =
                    run(&e, &q, policy, None).expect("no token, cannot stop");
                prop_assert_eq!(rows, ref_rows);
                prop_assert_eq!(seconds, ref_seconds);
            }
            Ok((rows, seconds)) => {
                // The token never fired before completion: the run under a
                // (dormant) token must equal the un-tokened reference.
                prop_assert_eq!(rows, ref_rows);
                prop_assert_eq!(seconds, ref_seconds);
            }
        }
    }
}
