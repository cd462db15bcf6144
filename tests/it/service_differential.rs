//! Service ≡ single-tenant differential suite.
//!
//! The concurrent query service (shared worker pool, admission control,
//! round-robin morsel scheduling across queries) must be *semantically
//! invisible*: every golden experiment query run through the service —
//! with 1, 4, or 16 client threads hammering it concurrently — returns
//! bit-identical result rows, `EXPLAIN ANALYZE` operator-metrics trees,
//! and tracked simulated costs to the same query on a standalone
//! [`Engine`].  Also pins the admission-control slot lifecycle:
//! cancelled and deadline-exceeded queries release their slots and are
//! counted, leaving the stats balanced.

use robust_qo::prelude::*;

use crate::support::{self, exp1, exp2, exp3, star_db, tpch_db, PlanRun, QueryRun, SAMPLE, SEED};

const CLIENTS: [usize; 3] = [1, 4, 16];

/// The single-tenant truth for one query, via the side-effect-free
/// analyze path.
fn reference(db: &Engine, query: &Query) -> QueryRun {
    let analyzed = db
        .analyze_quiet(query, &ExecOptions::default())
        .expect("no token, cannot stop");
    QueryRun::of_analyzed(&analyzed)
}

/// Runs every query through the service from `clients` concurrent
/// threads and asserts each analyzed result is bit-identical to its
/// reference.
fn serve_from_clients(db: Engine, queries: &[Query], refs: &[QueryRun], clients: usize) {
    let service = db.into_service(
        ServiceConfig::default()
            .with_workers(2)
            .with_max_concurrent(clients.max(1))
            .with_queue_capacity(2 * clients),
    );
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let service = &service;
            scope.spawn(move || {
                let session = service.session();
                for (query, reference) in queries.iter().zip(refs) {
                    let analyzed = session
                        .execute(query, &QueryToken::new(), RunPolicy::AnalyzeQuiet)
                        .expect("no cancellation source");
                    support::assert_same(
                        reference.diff(&QueryRun::of_analyzed(&analyzed)),
                        "AnalyzeQuiet through the service",
                    );
                    // The plain run path must agree too.
                    let outcome = session.run(query).expect("no cancellation source");
                    support::assert_same(
                        reference.diff(&QueryRun::of_outcome(&outcome)),
                        "a plain run through the service",
                    );
                }
            });
        }
    });
    let stats = service.stats();
    let expected = (clients * queries.len() * 2) as u64;
    assert_eq!(stats.admitted, expected, "every query admitted");
    assert_eq!(stats.completed, expected, "every query completed");
    assert!(stats.slots_balanced(), "slots leaked: {stats}");
}

#[test]
fn tpch_service_matches_single_tenant() {
    let queries = vec![exp1(110), exp2(212)];
    let db = tpch_db();
    let refs: Vec<QueryRun> = queries.iter().map(|q| reference(&db, q)).collect();
    drop(db);
    for clients in CLIENTS {
        serve_from_clients(tpch_db(), &queries, &refs, clients);
    }
}

#[test]
fn star_service_matches_single_tenant() {
    let queries = vec![exp3(3)];
    let db = star_db();
    let refs: Vec<QueryRun> = queries.iter().map(|q| reference(&db, q)).collect();
    drop(db);
    for clients in CLIENTS {
        serve_from_clients(star_db(), &queries, &refs, clients);
    }
}

#[test]
fn stopped_queries_release_their_slots() {
    let service = tpch_db().into_service(
        ServiceConfig::default()
            .with_workers(1)
            .with_max_concurrent(1)
            .with_queue_capacity(4),
    );
    let session = service.session();
    let query = exp1(110);

    // A pre-cancelled query and an already-expired deadline both stop
    // before producing rows — and both must free their slot.
    let cancelled = QueryToken::new();
    cancelled.cancel();
    assert_eq!(
        session
            .execute(&query, &cancelled, RunPolicy::Run)
            .unwrap_err(),
        ServiceError::Stopped(StopReason::Cancelled)
    );
    let expired = QueryToken::with_deadline(std::time::Duration::ZERO);
    assert_eq!(
        session
            .execute(&query, &expired, RunPolicy::Run)
            .unwrap_err(),
        ServiceError::Stopped(StopReason::DeadlineExceeded)
    );

    // With max_concurrent = 1, the next query only runs if both slots
    // above were released.
    let outcome = session.run(&query).expect("slot must be free");
    assert_eq!(outcome.rows.len(), 1);

    let stats = service.stats();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.completed, 1);
    assert!(stats.slots_balanced(), "{stats}");

    // A stopped query must publish nothing: the only cache entry is the
    // completed run's plan.
    assert_eq!(service.engine().cache_stats().entries, 1);
}

/// The four policies are one loop: on fresh identical engines they return
/// the same rows and the same cost bits, a plain run now carries the very
/// metrics tree `AnalyzeQuiet` does — and *observing is not publishing*:
/// only what the policy allows reaches the feedback store and the cache.
/// An adaptive run that trips no guard (exp1, exp3) is exactly `Run`; on
/// exp2 the ladder trips twice and still returns `Run`'s rows.
#[test]
fn four_policies_agree_and_observing_is_not_publishing() {
    let menu: [(fn() -> Engine, Query); 3] = [
        (tpch_db, exp1(110)),
        (tpch_db, exp2(212)),
        (star_db, exp3(3)),
    ];
    // Guard trips per query: the ladder trips only on exp2.
    for ((make_db, query), trips) in menu.iter().zip([0, 2, 0]) {
        let ran = |policy: RunPolicy| {
            let db = make_db();
            let analyzed = db.execute(query, &ExecOptions::default(), policy).unwrap();
            (db, analyzed)
        };
        let (run_db, run) = ran(RunPolicy::Run);
        let (adaptive_db, adaptive) = ran(RunPolicy::Adaptive);
        let (analyze_db, analyze) = ran(RunPolicy::Analyze);
        let (quiet_db, quiet) = ran(RunPolicy::AnalyzeQuiet);

        assert_eq!(adaptive.replans(), trips);
        // A plain run observes the same tree as the others.
        let untripped = if trips == 0 { Some(&adaptive) } else { None };
        let reference = QueryRun::of_analyzed(&run);
        for other in [&analyze, &quiet].into_iter().chain(untripped) {
            support::assert_same(reference.diff(&QueryRun::of_analyzed(other)), "policies");
        }

        // Observed, not published: no feedback, no drift eviction.
        for db in [&run_db, &quiet_db] {
            assert!(db.feedback().snapshot().is_empty());
            assert_eq!(db.cache_stats().drift_evictions, 0);
        }
        let ran_once = CacheStats {
            misses: 1,
            entries: 1,
            ..CacheStats::default()
        };
        assert_eq!(run_db.cache_stats(), ran_once);
        if trips == 0 {
            assert_eq!(adaptive_db.cache_stats(), ran_once);
        } else {
            // The trips publish their observations on completion, whose
            // drift checks may evict the plan just cached.
            assert_eq!(adaptive.outcome.rows, run.outcome.rows);
            let stats = adaptive_db.cache_stats();
            assert_eq!((stats.hits, stats.misses), (0, 1));
            assert!(!adaptive_db.feedback().snapshot().is_empty());
        }
        assert_eq!(quiet_db.cache_stats(), CacheStats::default());
        // `Analyze` never probes; its own observations may drift-evict the
        // plan it just cached, so `entries` is not pinned.
        let analyzed = analyze_db.cache_stats();
        assert_eq!((analyzed.hits, analyzed.misses), (0, 0));
        assert!(!analyze_db.feedback().snapshot().is_empty());
    }
}

/// Float `SUM`/`AVG` over irrational inputs spanning several morsels are
/// bit-identical at every entry point: the bare executor serially, at
/// 1/2/8 threads, with a token at one thread, the `Engine` handle, and
/// a `QueryService` on the shared pool.
#[test]
fn float_aggregates_bit_identical_at_every_entry_point() {
    use robust_qo::exec::try_execute_with;

    const ROWS: i64 = 20_000; // five default-sized morsels
    let m = support::table(
        "m",
        &[("g", DataType::Int), ("x", DataType::Float)],
        (0..ROWS).map(|i| {
            let x = 1.0 / (i + 3) as f64 + (i as f64).sqrt();
            vec![Value::Int(i % 7), Value::Float(x)]
        }),
    );
    let mut catalog = Catalog::new();
    catalog.add_table(m).unwrap();
    let db = support::engine(catalog, SAMPLE, SEED);
    let query = Query::over(&["m"])
        .group(&["g"])
        .aggregate(AggExpr::sum("x", "s"))
        .aggregate(AggExpr::avg("x", "a"));

    let plan = db.optimize(&query).plan.clone();
    let catalog = db.catalog();
    let serial = PlanRun::serial(&plan, &catalog, None);
    assert_eq!(serial.rows.len(), 7);
    let morsel = ExecOptions::default().morsel_size;
    support::sweep_plan(&plan, &catalog, morsel, &serial).unwrap_or_else(|e| panic!("{e}"));

    let tokened = ExecOptions::with_threads(1).with_token(QueryToken::new());
    let (out, cost) = try_execute_with(&plan, &catalog, &CostParams::default(), &tokened).unwrap();
    let tokened = PlanRun {
        rows: out.to_rows(),
        cost,
        metrics: None,
    };
    support::assert_same(serial.diff(&tokened), "token at one thread");

    // Float values compare bit for bit.
    assert_eq!(db.run(&query).rows, serial.rows, "Engine::run");
    let service = db.into_service(ServiceConfig::default().with_workers(2));
    let outcome = service.run(&query).unwrap();
    assert_eq!(outcome.rows, serial.rows, "QueryService::run");
}
