//! Over-the-wire differential suite: the same query mix run through
//! N concurrent TCP connections must return results **bit-identical**
//! to an in-process [`QueryService`] on an identically-seeded engine — at
//! 1, 4, and 16 connections.  The wire adds framing, batching,
//! threads, and admission, none of which may perturb a single row,
//! column name, or simulated cost.
//!
//! The concurrent sweep uses the plain run path, whose engine-side
//! publications (plan-cache inserts) are deterministic under
//! interleaving.  Adaptive execution *feeds back* observations that
//! later queries consume, so it is order-dependent by design; its wire
//! equivalence is pinned separately with a single connection replaying
//! the exact in-process order.

use std::sync::Mutex;

use rqo_exec::AggExpr;
use rqo_optimizer::Query;
use rqo_service::net::{NetClient, NetServerConfig, QueryReply};
use rqo_service::proto::{write_frame, Request, Response, RunMode};
use rqo_service::{Engine, QueryToken, RunPolicy, ServiceConfig};
use rqo_storage::Value;

use crate::support::{self, QueryRun};

fn engine() -> Engine {
    support::stock_engine(support::tpch(0.001, 7))
}

/// The mixed workload: cheap single-table windows plus multi-way joins
/// with grouping, so scans, joins, and aggregates all cross the wire.
fn workload() -> Vec<Query> {
    vec![
        support::exp1(30).aggregate(AggExpr::count_star("n")),
        support::lineitem_window(110).aggregate(AggExpr::count_star("n")),
        Query::over(&["lineitem", "orders"]).aggregate(AggExpr::count_star("n")),
        support::part_join(150).aggregate(AggExpr::count_star("n")),
        Query::over(&["lineitem", "part"])
            .filter("part", rqo_datagen::workload::exp2_part_predicate(212))
            .group(&["p_container"])
            .aggregate(AggExpr::count_star("n")),
    ]
}

/// The workload run in order through an in-process service over `engine`.
fn in_process_truth(engine: Engine) -> Vec<QueryRun> {
    let service = engine.into_service(ServiceConfig::default());
    workload()
        .iter()
        .map(|q| QueryRun::of_outcome(&service.run(q).expect("in-process run")))
        .collect()
}

#[test]
fn concurrent_wire_results_match_in_process_sessions() {
    // Ground truth from an in-process session on an identical engine.
    let truth = in_process_truth(engine());

    for clients in [1usize, 4, 16] {
        let server = support::serve(engine(), NetServerConfig::default());
        let addr = server.local_addr();
        let mismatches: Mutex<Vec<String>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for client_id in 0..clients {
                let truth = &truth;
                let mismatches = &mismatches;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect");
                    client.hello(&format!("client-{client_id}")).expect("hello");
                    // Each client walks the workload from its own
                    // offset so different queries overlap on the server.
                    let queries = workload();
                    for k in 0..queries.len() {
                        let qi = (client_id + k) % queries.len();
                        let reply = client
                            .run_mode(&queries[qi], RunMode::Run, 0)
                            .expect("wire query succeeds");
                        if let Err(e) = truth[qi].diff(&QueryRun::of_reply(reply)) {
                            mismatches
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(format!("client {client_id} query {qi}: {e}"));
                        }
                    }
                });
            }
        });

        let bad = mismatches
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(
            bad.is_empty(),
            "{clients} connections: {} mismatches vs in-process session:\n{}",
            bad.len(),
            bad.join("\n")
        );

        let total = (clients * workload().len()) as u64;
        let stats = server.service().stats();
        assert!(
            stats.slots_balanced(),
            "slot leak at {clients} clients: {stats}"
        );
        assert_eq!(
            stats.completed, total,
            "every wire query completed exactly once: {stats}"
        );
        let net = server.stats();
        assert_eq!(net.protocol_errors, 0, "clean run had protocol errors");
        assert_eq!(net.queries_ok, total);
    }
}

/// MIN and MAX over a `Str` column (grouped, across a join) keep their
/// input's type end to end: the wire reply equals the in-process one,
/// and every aggregate cell arrives as a `Str` value.
#[test]
fn min_over_str_matches_in_process() {
    let query = Query::over(&["lineitem", "part"])
        .group(&["p_size"])
        .aggregate(AggExpr::min("p_brand", "lo"))
        .aggregate(AggExpr::max("p_container", "hi"));
    let truth = engine()
        .into_service(ServiceConfig::default())
        .run(&query)
        .expect("in-process run");
    assert!(!truth.rows.is_empty(), "the query selects some rows");

    let server = support::serve(engine(), NetServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let reply = client.run(&query).expect("wire query succeeds");
    for row in &reply.rows {
        assert!(
            row[1..].iter().all(|v| matches!(v, Value::Str(_))),
            "MIN/MAX over Str reply as Str: {row:?}"
        );
    }
    support::assert_same(
        QueryRun::of_outcome(&truth).diff(&QueryRun::of_reply(reply)),
        "MIN/MAX over Str",
    );
}

/// A reply several times the 64 KiB at which the server writes queued
/// frames out mid-reply (every `lineitem` row, ≈ 300 KiB encoded), read
/// frame by frame: however `batch_rows` cuts it and wherever the flushes
/// fall, the frames carry the in-process rows in order, full batches up
/// to the last, and a `Done` whose count and cost bits are the
/// in-process ones.
#[test]
fn multi_flush_reply_is_identical_at_every_batch_size() {
    let query = Query::over(&["lineitem"]);
    let truth = engine()
        .into_service(ServiceConfig::default())
        .run(&query)
        .expect("in-process run");

    let default_rows = NetServerConfig::default().batch_rows;
    for batch_rows in [1, 7, default_rows] {
        let config = NetServerConfig::default().with_batch_rows(batch_rows);
        let server = support::serve(engine(), config);
        let mut client = NetClient::connect(server.local_addr()).expect("connect");

        let run = Request::Run {
            id: 9,
            mode: RunMode::Run,
            deadline_ms: 0,
            query: query.clone(),
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &run.encode()).unwrap();
        client.send_raw(&frame).expect("send run");

        let mut rows = Vec::new();
        let mut batch_sizes = Vec::new();
        let mut reply_bytes = 0;
        let (reply, total_rows) = loop {
            let frame = client.recv().expect("reply frame");
            reply_bytes += 4 + frame.encode().len();
            match frame {
                Response::Batch { id: 9, rows: batch } => {
                    batch_sizes.push(batch.len());
                    rows.extend(batch);
                }
                Response::Done {
                    id: 9,
                    columns,
                    total_rows,
                    simulated_seconds,
                    estimated_seconds,
                    replans,
                } => {
                    let reply = QueryReply {
                        rows: std::mem::take(&mut rows),
                        columns,
                        simulated_seconds,
                        estimated_seconds,
                        replans,
                    };
                    break (reply, total_rows);
                }
                other => panic!("batch_rows {batch_rows}: unexpected frame {other:?}"),
            }
        };

        assert!(
            reply_bytes > 4 * 64 * 1024,
            "reply spans several flushes: {reply_bytes}"
        );
        let (last, full) = batch_sizes.split_last().expect("at least one batch");
        assert!(
            full.iter().all(|&n| n == batch_rows) && (1..=batch_rows).contains(last),
            "batch_rows {batch_rows}: frames of {batch_sizes:?} rows"
        );
        assert_eq!(total_rows, truth.rows.len() as u64);
        support::assert_same(
            QueryRun::of_outcome(&truth).diff(&QueryRun::of_reply(reply)),
            &format!("batch_rows {batch_rows}"),
        );
        assert_eq!(server.stats().protocol_errors, 0);
    }
}

/// Fresh `part` rows (keys past the generated range, so unique indexes
/// stay unique) that shift the answers of every part-touching query.
fn part_batch(engine: &Engine) -> Vec<Vec<Value>> {
    let catalog = engine.catalog();
    let part = catalog.table("part").unwrap();
    let key = part.schema().expect_index("p_partkey");
    let max_key = (0..part.num_rows())
        .map(|i| match part.value(i as u32, key) {
            Value::Int(k) => k,
            other => panic!("p_partkey should be Int, got {other:?}"),
        })
        .max()
        .expect("part is non-empty");
    (0..25i64)
        .map(|i| {
            let mut row = part.row(i as u32 % part.num_rows() as u32);
            row[key] = Value::Int(max_key + 1 + i);
            row
        })
        .collect()
}

#[test]
fn insert_then_query_over_wire_matches_in_process() {
    // Ground truth: an in-process session on an identically-seeded
    // engine, ingesting the same batch before the same workload.
    let truth_engine = engine();
    let batch = part_batch(&truth_engine);
    let truth_summary = truth_engine
        .insert_rows("part", &batch)
        .expect("in-process ingest");
    let truth = in_process_truth(truth_engine);

    // The wire twin: same engine seed, same batch, but ingested through
    // a TCP Insert frame.
    let server = support::serve(engine(), NetServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let (inserted, total) = client.insert("part", batch).expect("wire ingest");
    assert_eq!(inserted as usize, truth_summary.rows_inserted);
    assert_eq!(total as usize, truth_summary.table_rows);

    for (qi, query) in workload().iter().enumerate() {
        let reply = client.run(query).expect("wire query succeeds");
        support::assert_same(
            truth[qi].diff(&QueryRun::of_reply(reply)),
            &format!("post-ingest divergence at query {qi}"),
        );
    }
    let net = server.stats();
    assert_eq!(net.inserts_ok, 1, "{net}");
    assert_eq!(net.inserts_err, 0, "{net}");
    assert_eq!(net.protocol_errors, 0, "{net}");
}

#[test]
fn adaptive_wire_replay_matches_in_process_order() {
    // Adaptive runs consume the feedback earlier adaptive runs publish,
    // so equivalence is defined over a fixed order: one wire connection
    // replaying exactly the sequence the in-process session ran.
    let truth: Vec<QueryRun> = {
        let service = engine().into_service(ServiceConfig::default());
        workload()
            .iter()
            .map(|q| {
                let a = service
                    .execute(q, &QueryToken::new(), RunPolicy::Adaptive)
                    .expect("in-process adaptive");
                QueryRun::of_analyzed(&a)
            })
            .collect()
    };

    let server = support::serve(engine(), NetServerConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for (qi, query) in workload().iter().enumerate() {
        let reply = client
            .run_mode(query, RunMode::Adaptive, 0)
            .expect("wire adaptive succeeds");
        support::assert_same(
            truth[qi].diff(&QueryRun::of_reply(reply)),
            &format!("adaptive divergence at query {qi}"),
        );
    }
    let stats = server.service().stats();
    assert!(stats.slots_balanced(), "{stats}");
    assert_eq!(stats.completed as usize, workload().len());
}
