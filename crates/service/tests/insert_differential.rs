//! Streamed-vs-one-shot differential suite for the ingest path.
//!
//! A table grown by [`Engine::insert_rows`] is semantically the *same
//! relation* as its one-shot twin built from the identical row stream:
//! the storage layer reproduces the exact per-partition concatenation a
//! one-shot build would emit, appends merge the batch into (not drop)
//! cached indexes, and a statistics refresh over bit-identical catalogs draws
//! bit-identical synopses.  So after ingest plus a same-seed refresh,
//! query results **and** annotated `EXPLAIN ANALYZE` trees must be
//! bit-identical between the two engines — at 1, 2, and 8 worker
//! threads, including statically pruned partitioned scans.
//!
//! A second test pins the scoped-invalidation contract: ingest into one
//! table advances only that table's feedback epoch and evicts only the
//! cached plans reading it, warm plans for untouched tables keep
//! hitting, and streaming sketches exist exactly for ingest-touched
//! tables.
//!
//! A last test crosses partition pruning with *concurrent* ingest: while
//! a writer widens a statically pruned partition, readers in-process and
//! over TCP must only ever see counts of some prefix of the acknowledged
//! batches — a partition list pruned against one version of the table
//! must never run over another.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rqo_core::ServiceConfig;
use rqo_exec::{AggExpr, ExecOptions};
use rqo_expr::Expr;
use rqo_optimizer::Query;
use rqo_service::net::{NetClient, NetServer, NetServerConfig};
use rqo_service::Engine;
use rqo_storage::{
    Catalog, CostParams, DataType, PartitionSpec, PartitionedTableBuilder, Schema, TableBuilder,
    Value,
};

const PARTS: i64 = 4;
const N: i64 = 4_000;
const SEED: u64 = 11;

fn t_schema() -> Schema {
    Schema::from_pairs(&[
        ("x", DataType::Int),
        ("k", DataType::Int),
        ("f", DataType::Float),
    ])
}

fn t_row(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::Int(i * 3 % 17),
        Value::Float((i * 7 % 50) as f64),
    ]
}

/// Range partitioning over the *full* domain `[0, N)`, so the streamed
/// engine (which starts with a prefix of the rows) routes late arrivals
/// into the same partitions the one-shot build uses.
fn t_spec() -> PartitionSpec {
    PartitionSpec::Range {
        column: "x".into(),
        bounds: (1..PARTS).map(|q| Value::Int(q * N / PARTS)).collect(),
    }
}

/// A catalog holding the first `upto` rows of `t` plus the full outer
/// table `u(k, w)`.
fn catalog_with(upto: i64) -> Catalog {
    let mut part_b = PartitionedTableBuilder::new("t", t_schema(), t_spec());
    for i in 0..upto {
        part_b.push_row(&t_row(i));
    }
    let (table, layout) = part_b.finish();
    let mut cat = Catalog::new();
    cat.add_partitioned_table(table, layout).unwrap();

    // A dimension table keyed by `k` (unique), so `t.k → u.k` is a
    // declarable FK edge and t ⋈ u enters the optimizer's join graph.
    let mut b = TableBuilder::new(
        "u",
        Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
        17,
    );
    for i in 0..17i64 {
        b.push_row(&[Value::Int(i), Value::Int(i * 5 % 23)]);
    }
    cat.add_table(b.finish()).unwrap();
    cat.add_foreign_key("t", "k", "u", "k").unwrap();
    cat
}

fn engine_over(cat: Catalog) -> Engine {
    Engine::with_options(cat, CostParams::default(), 256, SEED)
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

/// The workload: a statically prunable window (one of four partitions
/// survives), a full-scan GROUP BY, and a join with grouping — scans,
/// pruning, aggregation, and joins all cross the differential.
fn workload() -> Vec<Query> {
    vec![
        Query::over(&["t"])
            .filter("t", Expr::col("x").lt(Expr::lit(N / PARTS)))
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

    for threads in [1usize, 2, 8] {
        let opts = ExecOptions::with_threads(threads);
        for (qi, query) in workload().iter().enumerate() {
            // `analyze_quiet` is side-effect-free, so each comparison is
            // independent of the others and of the thread sweep.
            let a = one.analyze_quiet(query, &opts).expect("one-shot run");
            let b = two.analyze_quiet(query, &opts).expect("streamed run");

            assert_eq!(
                a.outcome.rows, b.outcome.rows,
                "rows diverged (query {qi}, {threads} thread(s))"
            );
            assert_eq!(a.outcome.columns, b.outcome.columns, "columns (query {qi})");
            assert_eq!(
                a.outcome.simulated_seconds.to_bits(),
                b.outcome.simulated_seconds.to_bits(),
                "simulated cost diverged (query {qi}, {threads} thread(s))"
            );
            assert_eq!(
                a.outcome.estimated_seconds.to_bits(),
                b.outcome.estimated_seconds.to_bits(),
                "estimate diverged (query {qi}, {threads} thread(s))"
            );
            assert_eq!(
                a.render(),
                b.render(),
                "EXPLAIN ANALYZE trees diverged (query {qi}, {threads} thread(s))"
            );
        }

        // The window query's scan was statically pruned to one of the
        // four partitions — on both layouts, which only holds because
        // appends keep per-partition min/max exact.
        let pruned = two
            .analyze_quiet(&workload()[0], &opts)
            .expect("pruned run")
            .render();
        assert!(
            pruned.contains("PartitionedScan t [1/4 parts]"),
            "expected a pruned partitioned scan, got:\n{pruned}"
        );
    }
}

#[test]
fn ingest_invalidation_is_scoped_and_sketches_are_lazy() {
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

    // Sketches are lazy: no table has streaming statistics before
    // ingest touches it.
    assert!(engine.sketches_for("t").is_none());
    assert!(engine.sketches_for("u").is_none());

    // Ingest into `t` only.
    let batch: Vec<Vec<Value>> = (N..N + 50).map(t_row).collect();
    let summary = engine.insert_rows("t", &batch).expect("ingest");
    assert_eq!(summary.rows_inserted, 50);
    assert_eq!(summary.table_rows, (N + 50) as usize);
    // Every new x lands past the last bound — exactly one partition.
    assert_eq!(summary.partitions_touched, vec![PARTS as usize - 1]);

    // Sketch lifecycle: `t` now has streaming statistics, `u` still
    // does not (so its estimation path is byte-identical to pre-ingest).
    let sketches = engine.sketches_for("t").expect("ingest seeded sketches");
    assert!(engine.sketches_for("u").is_none());
    let x = sketches.column_index("x").unwrap();
    let distinct_x = sketches.column_distinct(x);
    let exact = (N + 50) as f64;
    assert!(
        (distinct_x - exact).abs() / exact < 0.05,
        "merged sketch tracks ingest: {distinct_x} vs {exact}"
    );

    // Scoped invalidation: the warm plan over `u` survives (hit), the
    // plan over `t` was evicted and re-planned (miss) — and now sees
    // the new rows.
    let before = engine.run_opts(&q_u, &opts).expect("run u after ingest");
    assert_eq!(before.rows[0][0], Value::Int(17));
    let t_out = engine.run_opts(&q_t, &opts).expect("run t after ingest");
    assert_eq!(
        t_out.rows[0][1],
        Value::Int(N / PARTS),
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
    assert!(engine.sketches_for("u").is_none(), "no statistics either");
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

/// Partition pruning × concurrent ingest.  `t` starts with rows
/// `0..2100`, so partition 2 (`[2000, 3000)`) holds `2000..=2099`; ten
/// batches of 100 consecutive rows then widen its maximum up to 3099.
/// Window `m` counts `x BETWEEN 2100 + 100m AND 2999`: partition 2 is
/// statically pruned for it (by the partition's max) until batch `m`
/// lands, and after `j` batches it holds `100 · (min(j, 9) − m)` rows.
///
/// Each reader notes how many batches were acknowledged before it sent a
/// query and how many had been started when the reply came back; the
/// count must be the window's count after some number of batches in
/// between.  A plan pruned against an older table version run over a
/// newer one (or the reverse) reads a count from outside that range.
#[test]
fn pruned_counts_under_concurrent_ingest_are_prefix_consistent() {
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

    let service = engine_over(catalog_with(BASE)).into_service(ServiceConfig::default());
    let server =
        NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
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
