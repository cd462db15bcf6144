//! Streamed-vs-one-shot differential suite for the ingest path.
//!
//! A table grown by [`Engine::insert_rows`] is semantically the *same
//! relation* as its one-shot twin built from the identical row stream:
//! every append extends the table at its tail, appends merge the batch
//! into (not drop) cached indexes, and a statistics refresh over
//! bit-identical catalogs draws bit-identical synopses.  So after ingest
//! plus a same-seed refresh, query results **and** annotated
//! `EXPLAIN ANALYZE` trees must be bit-identical between the two engines
//! — at 1, 2, and 8 worker threads.
//!
//! The scoped-invalidation tests pin what an insert retires: only the
//! ingested table's feedback epoch advances, only the cached plans and
//! feedback observations reading it are evicted, and warm plans for
//! untouched tables keep hitting.  Ingest builds no statistics: it
//! republishes the join synopses it did not change.  A full statistics
//! refresh, by contrast, retires everything.
//!
//! A last test crosses ingest with *concurrent* readers: while a writer
//! appends batches, readers in-process and over TCP must only ever see
//! counts of some prefix of the acknowledged batches — a plan made
//! against one version of the table must never run over another.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rqo_datagen::workload::{exp1_lineitem_predicate, exp2_part_predicate};
use rqo_exec::{AggExpr, ExecOptions};
use rqo_expr::Expr;
use rqo_optimizer::Query;
use rqo_service::net::{NetClient, NetServerConfig};
use rqo_service::Engine;
use rqo_service::RunPolicy;
use rqo_storage::{Catalog, DataType, Value};

use crate::support::{self, QueryRun};

const N: i64 = 4_000;
/// The rows `x < WINDOW` the window query of [`workload`] reads.
const WINDOW: i64 = N / 4;
const SEED: u64 = 11;

fn t_row(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::Int(i * 3 % 17),
        Value::Float((i * 7 % 50) as f64),
    ]
}

/// A catalog holding the first `upto` rows of `t` plus the full outer
/// table `u(k, w)`.
fn catalog_with(upto: i64) -> Catalog {
    let t = support::table(
        "t",
        &[
            ("x", DataType::Int),
            ("k", DataType::Int),
            ("f", DataType::Float),
        ],
        (0..upto).map(t_row),
    );
    let mut cat = Catalog::new();
    cat.add_table(t).unwrap();

    // A dimension table keyed by `k` (unique), so `t.k → u.k` is a
    // declarable FK edge and t ⋈ u enters the optimizer's join graph.
    let u = support::table(
        "u",
        &[("k", DataType::Int), ("w", DataType::Int)],
        (0..17i64).map(|i| vec![Value::Int(i), Value::Int(i * 5 % 23)]),
    );
    cat.add_table(u).unwrap();
    cat.add_foreign_key("t", "k", "u", "k").unwrap();
    cat
}

fn engine_over(cat: Catalog) -> Engine {
    support::engine(cat, 256, SEED)
}

/// The one-shot twin: every row present at build time.
fn one_shot() -> Engine {
    engine_over(catalog_with(N))
}

/// The streamed twin: half the rows at build time, the rest ingested in
/// three uneven batches, then a same-seed statistics refresh (the
/// `UPDATE STATISTICS` a steward would run after bulk ingest).  Because
/// the streamed catalog is bit-identical to the one-shot catalog, the
/// refresh draws bit-identical synopses — everything downstream (plans,
/// estimates, results) must follow.
fn streamed() -> Engine {
    let mut engine = engine_over(catalog_with(N / 2));
    for (lo, hi) in [
        (N / 2, N / 2 + 700),
        (N / 2 + 700, N / 2 + 701),
        (N / 2 + 701, N),
    ] {
        let batch: Vec<Vec<Value>> = (lo..hi).map(t_row).collect();
        let summary = engine.insert_rows("t", &batch).expect("ingest");
        assert_eq!(summary.rows_inserted, (hi - lo) as usize);
    }
    assert_eq!(
        engine.catalog().table("t").unwrap().num_rows(),
        N as usize,
        "streamed engine reached the full row count"
    );
    engine.refresh_statistics(SEED);
    engine
}

/// The workload: a window over a quarter of `t`, a full-scan GROUP BY,
/// and a join with grouping — scans, aggregation, and joins all cross
/// the differential.
fn workload() -> Vec<Query> {
    vec![
        Query::over(&["t"])
            .filter("t", Expr::col("x").lt(Expr::lit(WINDOW)))
            .aggregate(AggExpr::sum("f", "total"))
            .aggregate(AggExpr::count_star("n")),
        Query::over(&["t"])
            .group(&["k"])
            .aggregate(AggExpr::count_star("n"))
            .aggregate(AggExpr::min("x", "first_x")),
        Query::over(&["t", "u"])
            .filter("u", Expr::col("w").lt(Expr::lit(16i64)))
            .group(&["w"])
            .aggregate(AggExpr::sum("f", "total")),
    ]
}

#[test]
fn streamed_ingest_matches_one_shot_build_bit_for_bit() {
    let one = one_shot();
    let two = streamed();

    for threads in support::WORKERS {
        let opts = ExecOptions::with_threads(threads);
        for (qi, query) in workload().iter().enumerate() {
            // `analyze_quiet` is side-effect-free, so each comparison is
            // independent of the others and of the thread sweep.
            let a = one.analyze_quiet(query, &opts).expect("one-shot run");
            let b = two.analyze_quiet(query, &opts).expect("streamed run");
            support::assert_same(
                QueryRun::of_analyzed(&a).diff(&QueryRun::of_analyzed(&b)),
                &format!("query {qi}, {threads} thread(s)"),
            );
        }
    }
}

#[test]
fn ingest_invalidation_is_scoped() {
    let engine = one_shot();
    let opts = ExecOptions::with_threads(1);
    let q_t = workload().remove(0);
    let q_u = Query::over(&["u"]).aggregate(AggExpr::count_star("n"));

    // Warm the cache: one miss each, then one hit each.
    engine.run_opts(&q_t, &opts).expect("run t");
    engine.run_opts(&q_u, &opts).expect("run u");
    engine.run_opts(&q_t, &opts).expect("run t warm");
    engine.run_opts(&q_u, &opts).expect("run u warm");
    let warm = engine.cache_stats();
    assert_eq!((warm.hits, warm.misses), (2, 2), "{warm}");

    // Ingest into `t` only.
    let batch: Vec<Vec<Value>> = (N..N + 50).map(t_row).collect();
    let summary = engine.insert_rows("t", &batch).expect("ingest");
    assert_eq!(summary.rows_inserted, 50);
    assert_eq!(summary.table_rows, (N + 50) as usize);

    // Scoped invalidation: the warm plan over `u` survives (hit), the
    // plan over `t` was evicted and re-planned (miss) — and now sees
    // the new rows.
    let before = engine.run_opts(&q_u, &opts).expect("run u after ingest");
    assert_eq!(before.rows[0][0], Value::Int(17));
    let t_out = engine.run_opts(&q_t, &opts).expect("run t after ingest");
    assert_eq!(
        t_out.rows[0][1],
        Value::Int(WINDOW),
        "window count unchanged (new rows land outside the window)"
    );
    let after = engine.cache_stats();
    assert_eq!(
        (after.hits - warm.hits, after.misses - warm.misses),
        (1, 1),
        "u hit, t re-planned: {after}"
    );

    // An empty batch is a no-op: nothing invalidated, both plans hit.
    let noop = engine.insert_rows("t", &[]).expect("empty batch");
    assert_eq!(noop.rows_inserted, 0);
    assert_eq!(noop.table_rows, (N + 50) as usize);
    engine.run_opts(&q_t, &opts).expect("run t after no-op");
    engine.run_opts(&q_u, &opts).expect("run u after no-op");
    let still = engine.cache_stats();
    assert_eq!(
        (still.hits - after.hits, still.misses - after.misses),
        (2, 0),
        "no-op batches invalidate nothing: {still}"
    );
}

/// Ingest builds no statistics: a non-empty batch publishes a new
/// catalog beside the very same join synopses, and only a refresh draws
/// new ones.
#[test]
fn ingest_republishes_the_statistics_it_did_not_change() {
    let mut engine = one_shot();
    let synopses = engine.synopses();
    let catalog = engine.catalog();
    let batch: Vec<Vec<Value>> = (N..N + 50).map(t_row).collect();
    engine.insert_rows("t", &batch).expect("ingest");
    assert!(
        !std::sync::Arc::ptr_eq(&engine.catalog(), &catalog),
        "the batch published a new catalog"
    );
    assert!(
        std::sync::Arc::ptr_eq(&engine.synopses(), &synopses),
        "ingest republished the synopses it did not change"
    );
    engine.refresh_statistics(SEED);
    assert!(
        !std::sync::Arc::ptr_eq(&engine.synopses(), &synopses),
        "a refresh draws new synopses"
    );
}

/// An engine over a small TPC-H-like catalog, and three queries: one
/// over `lineitem`, one over `part`, and a join reading both.  Every
/// query's estimate is within the plan cache's drift bound of the truth,
/// so an analyzed run leaves its plan cached.
fn tpch_engine_and_queries() -> (Engine, [Query; 3]) {
    let engine = support::stock_engine(support::tpch(0.001, 7));
    let lineitem = Query::over(&["lineitem"])
        .filter("lineitem", exp1_lineitem_predicate(30))
        .aggregate(AggExpr::count_star("n"));
    let part = Query::over(&["part"])
        .filter("part", exp2_part_predicate(160))
        .aggregate(AggExpr::count_star("n"));
    let join = Query::over(&["lineitem", "part"])
        .filter("part", exp2_part_predicate(170))
        .aggregate(AggExpr::count_star("n"));
    (engine, [lineitem, part, join])
}

/// Inserting new keys into `part` retires exactly the state that read
/// `part`: the feedback observations over other tables survive
/// byte-for-byte, the global epoch stays 0, and the warm `lineitem` plan
/// keeps hitting under its old fingerprint, while the `part` and join
/// plans are dropped and their fingerprints move.  Likewise an insert
/// into `lineitem` retires the evidence-level plans of templates that
/// read `lineitem` and keeps the others.
#[test]
fn ingest_preserves_other_tables_feedback_and_plans() {
    let (e, [li, pq, jq]) = tpch_engine_and_queries();
    let opts = e.query_exec_options(None, None);

    // Warm everything: feedback observations and cached plans for a
    // lineitem-only query, a part-only query, and a join reading both.
    e.execute(&li, &opts, RunPolicy::Analyze).unwrap();
    let lineitem_only = e.feedback().snapshot();
    assert!(
        !lineitem_only.is_empty(),
        "the lineitem query must record feedback for the test to mean anything"
    );
    e.execute(&pq, &opts, RunPolicy::Analyze).unwrap();
    e.execute(&jq, &opts, RunPolicy::Analyze).unwrap();
    assert!(e.feedback().len() > lineitem_only.len());

    let fp_li = e.fingerprint(&li);
    let fp_part = e.fingerprint(&pq);
    let fp_join = e.fingerprint(&jq);
    assert!(e.plan_cache().contains(&fp_li));
    assert!(e.plan_cache().contains(&fp_part));
    assert!(e.plan_cache().contains(&fp_join));

    // New parts: copies of the first row under fresh keys.
    let catalog = e.catalog();
    let part = catalog.table("part").unwrap();
    let template = part.row(0);
    let next_key = (0..part.num_rows() as u32)
        .map(|rid| part.value(rid, 0).as_int())
        .max()
        .unwrap()
        + 1;
    let rows: Vec<Vec<Value>> = (next_key..next_key + 40)
        .map(|key| {
            let mut row = template.clone();
            row[0] = Value::Int(key);
            row
        })
        .collect();
    e.insert_rows("part", &rows).expect("ingest");

    // Feedback: exactly the part-referencing observations are gone — the
    // survivor set is byte-identical to the post-lineitem snapshot.
    assert_eq!(e.feedback().snapshot(), lineitem_only);
    assert_eq!(e.stats_epoch(), 0, "ingest must not bump the global epoch");

    // Plans: the lineitem entry is still warm under its old fingerprint;
    // the part and join entries are dropped and their fingerprints moved.
    assert!(e.plan_cache().contains(&fp_li));
    assert!(!e.plan_cache().contains(&fp_part));
    assert!(!e.plan_cache().contains(&fp_join));
    assert_ne!(e.fingerprint(&pq), fp_part);
    assert_ne!(e.fingerprint(&jq), fp_join);
    assert_eq!(e.fingerprint(&li), fp_li);

    // And the warm entry actually hits.
    let hits_before = e.cache_stats().hits;
    e.run_opts(&li, &opts).unwrap();
    assert_eq!(e.cache_stats().hits, hits_before + 1);

    // The evidence level: a part-only template and one that reads
    // lineitem, each filed by one `p_y` window and served to another.  No
    // part has a `p_y` in any of these windows, so their evidence is
    // equal while their constants differ.
    let part_window = |tables: &[&str], lo: i64| {
        let window = Expr::col("p_x")
            .lt(Expr::lit(30i64))
            .and(Expr::col("p_y").between(Expr::lit(lo), Expr::lit(lo + 29)));
        Query::over(tables)
            .filter("part", window)
            .aggregate(AggExpr::count_star("n"))
    };
    let evidence_hits = || e.cache_stats().evidence_hits;
    for lo in [5_000, 6_000] {
        e.run_opts(&part_window(&["part"], lo), &opts).unwrap();
        e.run_opts(&part_window(&["lineitem", "part"], lo), &opts)
            .unwrap();
    }
    let warm = evidence_hits();
    assert_eq!(warm, 2, "both templates are warm");

    // An insert into lineitem retires the lineitem template's evidence
    // and keeps the part template's.
    let lineitem_row = catalog.table("lineitem").unwrap().row(0);
    e.insert_rows("lineitem", &[lineitem_row]).expect("ingest");
    e.run_opts(&part_window(&["part"], 7_000), &opts).unwrap();
    assert_eq!(evidence_hits(), warm + 1, "the part template still hits");
    e.run_opts(&part_window(&["lineitem", "part"], 7_000), &opts)
        .unwrap();
    assert_eq!(
        evidence_hits(),
        warm + 1,
        "the lineitem template is retired"
    );
}

/// A full statistics refresh, unlike an insert, retires every table's
/// feedback and moves every fingerprint.
#[test]
fn full_refresh_still_invalidates_globally() {
    let (mut e, [li, pq, _]) = tpch_engine_and_queries();
    let opts = e.query_exec_options(None, None);
    e.execute(&li, &opts, RunPolicy::Analyze).unwrap();
    e.execute(&pq, &opts, RunPolicy::Analyze).unwrap();
    let fp_li = e.fingerprint(&li);
    let fp_part = e.fingerprint(&pq);

    e.refresh_statistics(0xD1CE);
    assert!(e.feedback().is_empty());
    assert_eq!(e.stats_epoch(), 1);
    assert_ne!(e.fingerprint(&li), fp_li);
    assert_ne!(e.fingerprint(&pq), fp_part);
}

/// A batch repeating a primary key is rejected atomically, in-process as
/// over the wire: typed error, nothing published, nothing invalidated,
/// and the engine takes the next valid batch — into the slots the
/// rejected rows had written, holding exactly the valid rows.
#[test]
fn duplicate_key_batch_is_rejected_atomically() {
    let engine = one_shot();
    let opts = ExecOptions::with_threads(1);
    let q_u = Query::over(&["u"]).aggregate(AggExpr::count_star("n"));
    engine.run_opts(&q_u, &opts).expect("warm u");
    let warm = engine.cache_stats();
    let catalog_before = engine.catalog();

    // `u.k` is unique (the FK target): key 3 is stored, key 17 is new —
    // but it rides in the same batch, so it must not stick.
    let err = engine
        .insert_rows(
            "u",
            &[
                vec![Value::Int(17), Value::Int(0)],
                vec![Value::Int(3), Value::Int(0)],
            ],
        )
        .unwrap_err();
    assert_eq!(
        err,
        rqo_storage::StorageError::DuplicateKey {
            table: "u".into(),
            column: "k".into(),
            key: 3
        }
    );
    assert!(
        std::sync::Arc::ptr_eq(&engine.catalog(), &catalog_before),
        "no catalog version was published"
    );
    let out = engine.run_opts(&q_u, &opts).expect("run u after reject");
    assert_eq!(out.rows[0][0], Value::Int(17));
    let after = engine.cache_stats();
    assert_eq!(
        (after.hits - warm.hits, after.misses - warm.misses),
        (1, 0),
        "a rejected batch invalidates nothing: {after}"
    );

    // The write lock is healthy and key 17 is still free.
    let summary = engine
        .insert_rows("u", &[vec![Value::Int(17), Value::Int(0)]])
        .expect("valid batch after a rejected one");
    assert_eq!(summary.table_rows, 18);
    let out = engine.run_opts(&q_u, &opts).expect("run u after insert");
    assert_eq!(out.rows[0][0], Value::Int(18));

    // `u` now sits in a buffer with spare room, so the next rejected batch
    // writes its rows into slots 18 and 19 in place before the unique
    // index turns it down.  Those slots must never surface: the next
    // valid batch lands at the same rids, bit for bit its own values.
    let err = engine
        .insert_rows(
            "u",
            &[
                vec![Value::Int(18), Value::Int(-1)],
                vec![Value::Int(4), Value::Int(-2)],
            ],
        )
        .unwrap_err();
    assert!(matches!(
        err,
        rqo_storage::StorageError::DuplicateKey { key: 4, .. }
    ));
    let valid = [
        vec![Value::Int(18), Value::Int(7)],
        vec![Value::Int(19), Value::Int(8)],
    ];
    let summary = engine.insert_rows("u", &valid).expect("valid batch");
    assert_eq!(summary.table_rows, 20);
    let catalog = engine.catalog();
    let u = catalog.table("u").unwrap();
    for (rid, row) in (18..).zip(&valid) {
        let stored = u.row(rid);
        assert_eq!(
            stored.iter().map(Value::as_int).collect::<Vec<_>>(),
            row.iter().map(Value::as_int).collect::<Vec<_>>(),
            "rid {rid} holds the valid batch's row"
        );
    }
    let out = engine.run_opts(&q_u, &opts).expect("run u after both");
    assert_eq!(out.rows[0][0], Value::Int(20));
}

/// Window counts × concurrent ingest.  `t` starts with rows `0..2100`;
/// ten batches of 100 consecutive rows then grow it up to `x = 3099`.
/// Window `m` counts `x BETWEEN 2100 + 100m AND 2999`, so after `j`
/// batches it holds `100 · (min(j, 9) − m)` rows (none while `j ≤ m`).
///
/// Each reader notes how many batches were acknowledged before it sent a
/// query and how many had been started when the reply came back; the
/// count must be the window's count after some number of batches in
/// between.  A plan made against an older table version run over a
/// newer one (or the reverse) reads a count from outside that range.
#[test]
fn window_counts_under_concurrent_ingest_are_prefix_consistent() {
    const BASE: i64 = 2100;
    const BATCHES: usize = 10;
    const WINDOWS: usize = 9;
    let window = |m: usize| {
        Query::over(&["t"])
            .filter(
                "t",
                Expr::col("x").between(Expr::lit(BASE + 100 * m as i64), Expr::lit(2999i64)),
            )
            .aggregate(AggExpr::count_star("n"))
    };
    let count_after =
        |m: usize, batches: usize| 100 * batches.min(WINDOWS).saturating_sub(m) as i64;

    let server = support::serve(engine_over(catalog_with(BASE)), NetServerConfig::default());
    let service = server.service();

    // Batches the writer has begun / had acknowledged, and queries each
    // reader has finished (the writer paces itself on the latter, so
    // every batch lands between queries of both readers).
    let started = AtomicUsize::new(0);
    let acked = AtomicUsize::new(0);
    let finished = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let done = AtomicBool::new(false);
    // Set when a thread leaves, normally or by a failed assertion, so
    // the others stop waiting for it and the failure surfaces.
    struct SetOnExit<'a>(&'a AtomicBool);
    impl Drop for SetOnExit<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let reader_left = AtomicBool::new(false);

    let read_loop = |reader: usize, run: &mut dyn FnMut(&Query) -> i64| {
        let _leaving = SetOnExit(&reader_left);
        let mut m = 0;
        loop {
            let last = done.load(Ordering::SeqCst);
            let lo = acked.load(Ordering::SeqCst);
            let got = run(&window(m));
            let hi = started.load(Ordering::SeqCst);
            assert!(
                (lo..=hi).any(|j| got == count_after(m, j)),
                "reader {reader}, window {m}: count {got} matches no prefix of {lo}..={hi} batches"
            );
            finished[reader].fetch_add(1, Ordering::SeqCst);
            m = (m + 1) % WINDOWS;
            // Once ingest is over, one more full pass over the windows.
            if last && m == 0 {
                break;
            }
        }
    };

    std::thread::scope(|scope| {
        scope.spawn(|| {
            read_loop(0, &mut |q| {
                service.run(q).expect("in-process query").rows[0][0].as_int()
            });
        });
        scope.spawn(|| {
            let mut client = NetClient::connect(server.local_addr()).expect("connect");
            read_loop(1, &mut |q| {
                client.run(q).expect("wire query").rows[0][0].as_int()
            });
        });
        scope.spawn(|| {
            let _finishing = SetOnExit(&done);
            for b in 0..BATCHES {
                let seen: Vec<usize> = finished.iter().map(|f| f.load(Ordering::SeqCst)).collect();
                let lo = BASE + 100 * b as i64;
                let batch: Vec<Vec<Value>> = (lo..lo + 100).map(t_row).collect();
                started.store(b + 1, Ordering::SeqCst);
                service.engine().insert_rows("t", &batch).expect("ingest");
                acked.store(b + 1, Ordering::SeqCst);
                // Let both readers get a few queries in against this version.
                for (f, before) in finished.iter().zip(seen) {
                    while f.load(Ordering::SeqCst) < before + 3
                        && !reader_left.load(Ordering::SeqCst)
                    {
                        std::thread::yield_now();
                    }
                }
            }
        });
    });

    for m in 0..WINDOWS {
        let got = service.run(&window(m)).expect("query").rows[0][0].as_int();
        assert_eq!(got, count_after(m, BATCHES), "window {m} after ingest");
    }
    let stats = service.stats();
    assert!(stats.slots_balanced(), "{stats}");
    assert_eq!(stats.panicked, 0, "{stats}");
}
