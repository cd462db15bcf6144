//! Plan-cache correctness and statistics-lifecycle regression tests.
//!
//! Three properties are pinned:
//!
//! 1. **Bit-identity** — a cache hit returns exactly the plan fresh
//!    planning would produce (same plan tree, same cost bits), at any
//!    thread count.
//! 2. **Drift invalidation** — an `EXPLAIN ANALYZE` run whose observed
//!    selectivities drift past the bound evicts exactly the overlapping
//!    fingerprints; disjoint cached plans survive.
//! 3. **Statistics lifecycle** — `refresh_statistics` advances the epoch,
//!    clears feedback (stale observations must not override fresh
//!    samples), and invalidates cached plans; a zero-row observation is
//!    floored at half a tuple instead of pinning the selectivity to 0.0.

use std::sync::Arc;

use robust_qo::prelude::*;

use crate::support::{self, exp1 as exp1_query, tpch_db, SCALE};

#[test]
fn warm_hits_are_bit_identical_across_thread_counts() {
    let db = tpch_db();
    let queries: Vec<Query> = [0i64, 30, 60, 110].into_iter().map(exp1_query).collect();

    // Reference: fresh, uncached planning.
    let fresh: Vec<PlannedQuery> = queries.iter().map(|q| db.optimizer().optimize(q)).collect();

    // Warm the cache once, then hammer it from 1, 2, and 8 threads.
    for q in &queries {
        db.optimize(q);
    }
    for threads in [1usize, 2, 8] {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for (q, reference) in queries.iter().zip(&fresh) {
                        support::assert_same(
                            support::same_plan(reference, &db.optimize(q)),
                            &format!("{threads} threads"),
                        );
                    }
                });
            }
        });
    }

    let stats = db.cache_stats();
    assert_eq!(stats.entries, queries.len());
    assert_eq!(stats.misses, queries.len() as u64, "one miss per query");
    // Warm pass + (1 + 2 + 8) threaded passes, all hits.
    assert_eq!(stats.hits, 11 * queries.len() as u64);
    assert_eq!(stats.drift_evictions, 0);
}

#[test]
fn cache_hit_shares_the_memoized_plan() {
    let db = tpch_db();
    let q = exp1_query(30);
    let first = db.optimize(&q);
    let second = db.optimize(&q);
    assert!(
        Arc::ptr_eq(&first, &second),
        "a hit returns the same shared plan, not a re-plan"
    );
    // Construction order must not defeat the fingerprint.
    let reordered = Query::over(&["lineitem"])
        .filter("lineitem", exp1_lineitem_predicate(30))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
    assert!(Arc::ptr_eq(&first, &db.optimize(&reordered)));
    assert_eq!(db.cache_stats().hits, 2);
}

#[test]
fn drift_evicts_exactly_the_overlapping_fingerprints() {
    // A conservative threshold badly inflates the estimate for the
    // near-empty offset-110 window, so its observed selectivity drifts
    // far past the bound; the offset-30 query's fingerprint shares no
    // estimation-request key and must survive.
    let db = tpch_db().with_threshold(ConfidenceThreshold::new(0.95));
    let drifting = exp1_query(110);
    let bystander = exp1_query(30);

    db.run(&drifting);
    db.run(&bystander);
    assert_eq!(db.cache_stats().entries, 2);

    let analyzed = db
        .execute(&drifting, &ExecOptions::default(), RunPolicy::Analyze)
        .unwrap();
    assert!(!analyzed.outcome.rows.is_empty());
    let stats = db.cache_stats();
    assert!(
        stats.drift_evictions >= 1,
        "observed drift must evict, stats: {stats}"
    );
    assert!(
        !db.plan_cache().contains(&db.fingerprint(&drifting)),
        "the drifting query's fingerprint is gone"
    );
    assert!(
        db.plan_cache().contains(&db.fingerprint(&bystander)),
        "the disjoint query's fingerprint survives"
    );

    // The next optimization re-plans with feedback in effect: its
    // estimate now equals the observed cardinality.
    let replanned = db.optimize(&drifting);
    let re = db
        .execute(&drifting, &ExecOptions::default(), RunPolicy::Analyze)
        .unwrap();
    for node in re.metrics.preorder() {
        if let Some(q) = node.q_error() {
            assert!(
                q <= 1.0 + 1e-6,
                "post-eviction re-plan must price at observed selectivities, q={q}"
            );
        }
    }
    drop(replanned);
}

#[test]
fn refresh_statistics_clears_stale_feedback() {
    // Regression (stale-feedback bug): feedback observed against the old
    // statistics survived `refresh_statistics`, so re-optimization kept
    // overriding fresh samples with stale selectivities forever.
    let mut db = tpch_db();
    let q = exp1_query(110);
    let pred = exp1_lineitem_predicate(110);
    let request = EstimationRequest::single("lineitem", &pred);

    db.execute(&q, &ExecOptions::default(), RunPolicy::Analyze)
        .unwrap();
    assert!(!db.feedback().is_empty());
    {
        let opt = db.optimizer();
        assert!(
            matches!(
                opt.estimator().estimate(&request).source,
                EstimateSource::Feedback
            ),
            "after EXPLAIN ANALYZE the estimate comes from feedback"
        );
    }
    assert_eq!(db.stats_epoch(), 0);

    db.refresh_statistics(999);

    assert_eq!(db.stats_epoch(), 1);
    assert!(
        db.feedback().is_empty(),
        "refresh must drop observations measured against the old statistics"
    );
    assert!(
        db.plan_cache().is_empty(),
        "refresh must invalidate cached plans"
    );
    let opt = db.optimizer();
    let source = opt.estimator().estimate(&request).source;
    assert!(
        matches!(source, EstimateSource::JoinSynopsis { .. }),
        "after refresh the estimate reverts to the synopsis, got {source:?}"
    );
}

#[test]
fn refreshed_epoch_never_serves_pre_refresh_plans() {
    let mut db = tpch_db();
    let q = exp1_query(30);
    let before = db.fingerprint(&q);
    db.optimize(&q);
    db.refresh_statistics(7);
    assert_ne!(before, db.fingerprint(&q), "epoch is part of the identity");
    db.optimize(&q);
    let stats = db.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 2),
        "both passes plan fresh across a refresh"
    );
}

#[test]
fn zero_row_observation_does_not_pin_selectivity() {
    // Regression (zero-pinning bug): `rows_out / root_rows` for an empty
    // result recorded exactly 0.0, and every later plan for the predicate
    // was priced at zero cardinality.  The recorded observation is now
    // floored at half a tuple.
    let db = tpch_db();
    // l_quantity is generated in [1, 50], so this matches nothing.
    let empty_pred = Expr::col("l_quantity").lt(Expr::lit(1.0));
    let q = Query::over(&["lineitem"])
        .filter("lineitem", empty_pred.clone())
        .aggregate(AggExpr::count_star("n"));

    let analyzed = db
        .execute(&q, &ExecOptions::default(), RunPolicy::Analyze)
        .unwrap();
    assert_eq!(
        analyzed.outcome.rows[0][0].as_int(),
        0,
        "the query really matches zero rows"
    );

    let observed = db
        .feedback()
        .lookup(&RequestKey::new(["lineitem"], [("lineitem", &empty_pred)]))
        .expect("observation recorded");
    assert!(
        observed > 0.0,
        "zero-row run must not record selectivity 0.0"
    );

    let rows = db.catalog().table("lineitem").unwrap().num_rows() as f64;
    assert!(
        (observed - 0.5 / rows).abs() < 1e-12,
        "observation floored at half a tuple, got {observed}"
    );

    // Re-optimization prices the predicate at the floor, not at zero.
    let replanned = db.optimizer().optimize(&q);
    assert!(
        replanned.estimated_rows > 0.0,
        "feedback must not zero out later cardinality estimates"
    );
}

/// Regression: a string literal used to render unquoted in the plan
/// cache's fingerprint, so `IN ('Brand#11, Brand#25')` (one string) and
/// `IN ('Brand#11', 'Brand#25')` (two) shared a key.  The second query
/// was served the first one's cached plan and answered 0 rows.
#[test]
fn string_literals_that_render_alike_get_their_own_plans() {
    let catalog = || support::tpch(SCALE, 7);
    let brands = |list: &[&str]| {
        Query::over(&["part"])
            .filter(
                "part",
                Expr::col("p_brand").in_list(list.iter().map(|&b| Value::str(b)).collect()),
            )
            .aggregate(AggExpr::count_star("n"))
    };
    let one_string = brands(&["Brand#11, Brand#25"]);
    let two_strings = brands(&["Brand#11", "Brand#25"]);

    let shared = support::stock_engine(catalog());
    assert_eq!(shared.run(&one_string).rows, vec![vec![Value::Int(0)]]);
    let served = shared.run(&two_strings).rows;
    let fresh = support::stock_engine(catalog()).run(&two_strings).rows;
    assert_ne!(fresh, vec![vec![Value::Int(0)]], "both brands exist");
    assert_eq!(served, fresh, "served another query's cached plan");
}

/// A scheduler that, on its first job, appends one `lineitem` row to the
/// engine running the query — a data version replaced mid-run — and
/// then runs every morsel inline.
struct InsertOnFirstJob {
    engine: Arc<Engine>,
    row: Vec<Value>,
    fired: std::sync::atomic::AtomicBool,
}

impl robust_qo::exec::MorselScheduler for InsertOnFirstJob {
    fn run_job(
        &self,
        _token: Option<&QueryToken>,
        n_morsels: usize,
        run_one: &(dyn Fn(usize) + Send + Sync),
    ) -> bool {
        if !self.fired.swap(true, std::sync::atomic::Ordering::SeqCst) {
            self.engine
                .insert_rows("lineitem", std::slice::from_ref(&self.row))
                .expect("append one lineitem row");
        }
        (0..n_morsels).for_each(run_one);
        true
    }

    fn workers(&self) -> usize {
        0
    }
}

/// Regression: a run whose data version was replaced while it ran
/// published into the new version anyway — its plan was cached under
/// the superseded epoch (a slot nothing can hit) and its observations,
/// measured on the pre-insert rows, entered the feedback store the
/// insert had just cleared.  It must publish nothing, and still return
/// the rows of the version it read.
#[test]
fn a_run_over_a_replaced_data_version_publishes_nothing() {
    let query = exp1_query(110);
    let expected = tpch_db().run(&query).rows;

    let engine = Arc::new(tpch_db());
    let row = engine.catalog().table("lineitem").unwrap().row(0);
    let scheduler = Arc::new(InsertOnFirstJob {
        engine: Arc::clone(&engine),
        row,
        fired: Default::default(),
    });
    let opts = ExecOptions::default().with_scheduler(scheduler.clone());
    let analyzed = engine.execute(&query, &opts, RunPolicy::Analyze).unwrap();
    assert!(scheduler.fired.load(std::sync::atomic::Ordering::SeqCst));
    assert_eq!(
        analyzed.outcome.rows, expected,
        "the run reads its own version"
    );

    assert_eq!(engine.plan_cache().len(), 0, "a stale plan holds a slot");
    assert!(
        engine.feedback().snapshot().is_empty(),
        "pre-insert observations published: {:?}",
        engine.feedback().snapshot()
    );

    // The same run over the current version publishes as usual.
    engine
        .execute(&query, &ExecOptions::default(), RunPolicy::Analyze)
        .unwrap();
    assert!(!engine.feedback().snapshot().is_empty());
}
