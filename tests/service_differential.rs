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

const SEED: u64 = 42;
const CLIENTS: [usize; 3] = [1, 4, 16];

fn tpch_db() -> Engine {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.005,
        seed: SEED,
    });
    Engine::with_options(data.into_catalog(), CostParams::default(), 500, SEED)
}

fn star_db() -> Engine {
    let data = StarData::generate(&StarConfig {
        fact_rows: 30_000,
        seed: SEED,
    });
    Engine::with_options(data.into_catalog(), CostParams::default(), 500, SEED)
}

fn exp1_query() -> Query {
    Query::over(&["lineitem"])
        .filter("lineitem", exp1_lineitem_predicate(110))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
}

fn exp2_query() -> Query {
    Query::over(&["lineitem", "orders", "part"])
        .filter("part", exp2_part_predicate(212))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
}

fn exp3_query() -> Query {
    let mut query = Query::over(&["fact", "dim1", "dim2", "dim3"])
        .aggregate(AggExpr::sum("f_measure1", "total"));
    for dim in ["dim1", "dim2", "dim3"] {
        query = query.filter(dim, exp3_dim_predicate(3));
    }
    query
}

/// The single-tenant truth for one query: rows, rendered metrics tree,
/// and tracked cost, via the side-effect-free analyze path.
struct Reference {
    rows: Vec<Vec<Value>>,
    render: String,
    seconds: f64,
}

fn reference(db: &Engine, query: &Query) -> Reference {
    let analyzed = db
        .analyze_quiet(query, &ExecOptions::default())
        .expect("no token, cannot stop");
    let render = analyzed.render();
    Reference {
        rows: analyzed.outcome.rows,
        render,
        seconds: analyzed.outcome.simulated_seconds,
    }
}

/// Runs every query through the service from `clients` concurrent
/// threads and asserts each analyzed result is bit-identical to its
/// reference.
fn assert_differential(db: Engine, queries: &[Query], refs: &[Reference], clients: usize) {
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
                    assert_eq!(analyzed.outcome.rows, reference.rows, "rows diverged");
                    assert_eq!(analyzed.render(), reference.render, "metrics tree diverged");
                    assert_eq!(
                        analyzed.outcome.simulated_seconds, reference.seconds,
                        "tracked cost diverged"
                    );
                    // The plain run path must agree on rows and cost too.
                    let outcome = session.run(query).expect("no cancellation source");
                    assert_eq!(outcome.rows, reference.rows);
                    assert_eq!(outcome.simulated_seconds, reference.seconds);
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
    let queries = vec![exp1_query(), exp2_query()];
    let db = tpch_db();
    let refs: Vec<Reference> = queries.iter().map(|q| reference(&db, q)).collect();
    drop(db);
    for clients in CLIENTS {
        assert_differential(tpch_db(), &queries, &refs, clients);
    }
}

#[test]
fn star_service_matches_single_tenant() {
    let queries = vec![exp3_query()];
    let db = star_db();
    let refs: Vec<Reference> = queries.iter().map(|q| reference(&db, q)).collect();
    drop(db);
    for clients in CLIENTS {
        assert_differential(star_db(), &queries, &refs, clients);
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
    let query = exp1_query();

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
        (tpch_db, exp1_query()),
        (tpch_db, exp2_query()),
        (star_db, exp3_query()),
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
        let untripped = if trips == 0 { Some(&adaptive) } else { None };
        for other in [&analyze, &quiet].into_iter().chain(untripped) {
            assert_eq!(other.outcome.rows, run.outcome.rows);
            assert_eq!(
                other.outcome.simulated_seconds.to_bits(),
                run.outcome.simulated_seconds.to_bits()
            );
            assert_eq!(other.replans(), 0);
        }
        assert_eq!(
            run.metrics, quiet.metrics,
            "a plain run observes the same tree"
        );

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
    use robust_qo::exec::{execute, execute_with, try_execute_with};
    use robust_qo::storage::{DataType, Schema, TableBuilder};

    const ROWS: i64 = 20_000; // five default-sized morsels
    let mut b = TableBuilder::new(
        "m",
        Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]),
        ROWS as usize,
    );
    for i in 0..ROWS {
        let x = 1.0 / (i + 3) as f64 + (i as f64).sqrt();
        b.push_row(&[Value::Int(i % 7), Value::Float(x)]);
    }
    let mut catalog = Catalog::new();
    catalog.add_table(b.finish()).unwrap();
    let db = Engine::with_options(catalog, CostParams::default(), 500, SEED);
    let query = Query::over(&["m"])
        .group(&["g"])
        .aggregate(AggExpr::sum("x", "s"))
        .aggregate(AggExpr::avg("x", "a"));

    let bits = |rows: &[Vec<Value>]| -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.as_f64().to_bits()).collect())
            .collect()
    };
    let plan = db.optimize(&query).plan.clone();
    let (catalog, params) = (db.catalog(), CostParams::default());
    let (serial, _) = execute(&plan, &catalog, &params);
    assert_eq!(serial.len(), 7);
    let expect = bits(&serial.to_rows());

    for threads in [1, 2, 8] {
        let opts = ExecOptions::with_threads(threads);
        let (out, _) = execute_with(&plan, &catalog, &params, &opts);
        assert_eq!(
            bits(&out.to_rows()),
            expect,
            "execute_with threads={threads}"
        );
    }
    let tokened = ExecOptions::with_threads(1).with_token(QueryToken::new());
    let (out, _) = try_execute_with(&plan, &catalog, &params, &tokened).unwrap();
    assert_eq!(bits(&out.to_rows()), expect, "token at one thread");

    assert_eq!(bits(&db.run(&query).rows), expect, "Engine::run");
    let service = db.into_service(ServiceConfig::default().with_workers(2));
    let outcome = service.run(&query).unwrap();
    assert_eq!(bits(&outcome.rows), expect, "QueryService::run");
}
