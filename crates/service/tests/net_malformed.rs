//! Hostile-bytes hardening for the network front-end: truncated,
//! oversized, and garbage frames must each produce one typed
//! [`ErrorCode::Protocol`] reply (or a silent close for streams that
//! never complete a frame), must never panic the server, and must never
//! leak an execution slot or a connection.  The server must keep
//! serving valid clients afterwards.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rqo_datagen::workload::{exp1_lineitem_predicate, exp2_part_predicate};
use rqo_datagen::{TpchConfig, TpchData};
use rqo_exec::AggExpr;
use rqo_optimizer::Query;
use rqo_service::net::{ClientError, NetClient, NetServer, NetServerConfig};
use rqo_service::proto::{write_frame, ErrorCode, Request, Response, RunMode};
use rqo_service::{Engine, QueryService, ServiceConfig};
use rqo_storage::Value;

fn serve() -> NetServer {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let service = QueryService::new(Engine::new(data.into_catalog()), ServiceConfig::default());
    NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback")
}

fn count_query() -> Query {
    Query::over(&["part"]).aggregate(AggExpr::count_star("n"))
}

/// Polls until the server is quiescent (no open connections) so the
/// post-conditions below are race-free.
fn await_quiescent(server: &NetServer) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().active > 0 {
        assert!(Instant::now() < deadline, "connections never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Complete garbage frames the server must answer with a typed
/// protocol error before closing the connection.
fn poison_frames() -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = Vec::new();
    // Unknown tag.
    let mut f = Vec::new();
    write_frame(&mut f, &[0x7F, 1, 2, 3]).unwrap();
    frames.push(f);
    // Zero-length frame.
    frames.push(0u32.to_le_bytes().to_vec());
    // Oversized length claim (4 GiB) with no body.
    frames.push(u32::MAX.to_le_bytes().to_vec());
    // Valid Ping with trailing bytes.
    let mut body = Request::Ping { nonce: 1 }.encode();
    body.push(0xAB);
    let mut f = Vec::new();
    write_frame(&mut f, &body).unwrap();
    frames.push(f);
    // Run frame whose payload dies mid-query (bad discriminant).
    let mut f = Vec::new();
    write_frame(&mut f, &[0x02, 0, 0, 0, 0, 0, 0, 0, 0, 9]).unwrap();
    frames.push(f);
    // A batch-count lie: claims u32::MAX tables.
    let mut body = vec![0x02u8];
    body.extend_from_slice(&7u64.to_le_bytes()); // id
    body.push(0); // mode
    body.extend_from_slice(&0u64.to_le_bytes()); // deadline
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // table count
    let mut f = Vec::new();
    write_frame(&mut f, &body).unwrap();
    frames.push(f);
    // Insert into an unnamed table.
    let mut body = vec![0x04u8];
    body.extend_from_slice(&1u64.to_le_bytes()); // id
    body.extend_from_slice(&0u32.to_le_bytes()); // empty table name
    body.extend_from_slice(&0u32.to_le_bytes()); // zero rows
    let mut f = Vec::new();
    write_frame(&mut f, &body).unwrap();
    frames.push(f);
    // Insert with a row-count lie (u32::MAX rows in a tiny frame).
    let mut body = vec![0x04u8];
    body.extend_from_slice(&2u64.to_le_bytes()); // id
    body.extend_from_slice(&4u32.to_le_bytes()); // name length
    body.extend_from_slice(b"part");
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // row count
    let mut f = Vec::new();
    write_frame(&mut f, &body).unwrap();
    frames.push(f);
    // Insert cut off mid-value (one row promised, payload ends inside it).
    let mut body = vec![0x04u8];
    body.extend_from_slice(&3u64.to_le_bytes()); // id
    body.extend_from_slice(&4u32.to_le_bytes()); // name length
    body.extend_from_slice(b"part");
    body.extend_from_slice(&1u32.to_le_bytes()); // one row
    body.extend_from_slice(&1u32.to_le_bytes()); // one column
    body.push(1); // Value::Int discriminant, missing its 8 payload bytes
    let mut f = Vec::new();
    write_frame(&mut f, &body).unwrap();
    frames.push(f);
    frames
}

#[test]
fn poison_frames_get_typed_errors_and_leak_nothing() {
    let server = serve();
    let addr = server.local_addr();

    for (i, frame) in poison_frames().iter().enumerate() {
        let mut client = NetClient::connect(addr).expect("connect");
        client.send_raw(frame).expect("send poison");
        match client.recv() {
            Ok(Response::Error { id, code, .. }) => {
                assert_eq!((id, code), (0, ErrorCode::Protocol), "case {i}");
            }
            other => panic!("case {i}: expected protocol error, got {other:?}"),
        }
        // The server closed the connection after replying.
        match client.recv() {
            Err(_) => {}
            Ok(resp) => panic!("case {i}: connection stayed open: {resp:?}"),
        }
    }

    // A half-frame followed by a hangup is EOF mid-frame: a truncation
    // the server counts as a protocol error (the reply goes nowhere,
    // the connection just closes).
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&[200u8, 0, 0, 0, 1, 2, 3]).expect("send");
        drop(stream);
    }

    // The half-frame connection above may not even be accepted yet, so
    // poll the counter to its expected value instead of racing it.
    let expected = poison_frames().len() as u64 + 1;
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().protocol_errors < expected {
        assert!(
            Instant::now() < deadline,
            "every poison frame (and the truncated one) counted: {}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    await_quiescent(&server);
    let net = server.stats();
    assert_eq!(net.protocol_errors, expected, "no over-count either: {net}");

    // Nothing leaked and the server still works.
    let service_stats = server.service().stats();
    assert!(service_stats.slots_balanced(), "slot leak: {service_stats}");
    assert_eq!(service_stats.panicked, 0, "hostile bytes panicked a query");
    let mut client = NetClient::connect(addr).expect("connect after poison");
    let reply = client.run(&count_query()).expect("server still serves");
    assert_eq!(reply.rows.len(), 1);
}

#[test]
fn unknown_tables_and_columns_are_bad_query_not_panic() {
    let server = serve();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let ghost = Query::over(&["no_such_table"]).aggregate(AggExpr::count_star("n"));
    match client.run(&ghost) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("expected BadQuery, got {other:?}"),
    }

    let ghost_col = Query::over(&["part"]).aggregate(AggExpr::sum("no_such_col", "s"));
    match client.run(&ghost_col) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("expected BadQuery, got {other:?}"),
    }

    // Same connection still serves valid queries — BadQuery is not a
    // connection-fatal condition.
    let reply = client.run(&count_query()).expect("connection survives");
    assert_eq!(reply.rows.len(), 1);

    let stats = server.service().stats();
    assert!(stats.slots_balanced());
    assert_eq!(stats.panicked, 0);
}

/// Table lists that exist but cannot be planned — no FK path, or a
/// table listed twice — used to pass validation, take an admission slot
/// and die on the enumerator's `assert!`s.
#[test]
fn unplannable_table_lists_are_bad_query_before_admission() {
    let server = serve();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    for tables in [
        &["orders", "part"][..],
        &["part", "part"],
        &["lineitem", "lineitem", "orders"],
    ] {
        let query = Query::over(tables).aggregate(AggExpr::count_star("n"));
        for mode in [RunMode::Run, RunMode::Adaptive] {
            match client.run_mode(&query, mode, 0) {
                Err(ClientError::Server { code, .. }) => {
                    assert_eq!(code, ErrorCode::BadQuery, "{tables:?}")
                }
                other => panic!("{tables:?}: expected BadQuery, got {other:?}"),
            }
        }
    }
    let stats = server.service().stats();
    assert_eq!(stats.admitted, 0, "rejected before admission: {stats}");
    assert_eq!(stats.panicked, 0, "{stats}");

    // The same connection then runs a valid query.
    let reply = client.run(&count_query()).expect("connection survives");
    assert_eq!(reply.rows.len(), 1);
    assert!(server.service().stats().slots_balanced());
}

/// Queries whose names all resolve but whose types do not — `LIKE` on an
/// integer, a predicate that is not a condition, `AND` over a number,
/// `SUM`/`AVG` over a string — used to pass validation, take an admission
/// slot and die in the evaluator under `catch_unwind`.
#[test]
fn ill_typed_queries_are_bad_query_before_admission() {
    use rqo_expr::Expr;
    let server = serve();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let count = |predicate: Expr| {
        Query::over(&["lineitem"])
            .filter("lineitem", predicate)
            .aggregate(AggExpr::count_star("n"))
    };
    let quantity_plus_one = || Expr::col("l_quantity").add(Expr::lit(1i64));
    let cases = [
        ("LIKE on Int", count(Expr::col("l_orderkey").like("1%"))),
        ("non-boolean predicate", count(quantity_plus_one())),
        (
            "AND over non-booleans",
            count(quantity_plus_one().and(Expr::col("l_orderkey").lt(Expr::lit(5i64)))),
        ),
        (
            "SUM over Str",
            Query::over(&["part"]).aggregate(AggExpr::sum("p_brand", "s")),
        ),
        (
            "AVG over Str",
            Query::over(&["lineitem", "part"]).aggregate(AggExpr::avg("p_brand", "a")),
        ),
    ];
    for (what, query) in &cases {
        for mode in [RunMode::Run, RunMode::Adaptive] {
            match client.run_mode(query, mode, 0) {
                Err(ClientError::Server { code, .. }) => {
                    assert_eq!(code, ErrorCode::BadQuery, "{what}")
                }
                other => panic!("{what}: expected BadQuery, got {other:?}"),
            }
        }
    }
    let stats = server.service().stats();
    assert_eq!(stats.admitted, 0, "rejected before admission: {stats}");
    assert_eq!(stats.panicked, 0, "{stats}");
    assert_eq!(server.stats().queries_err, 2 * cases.len() as u64);

    // The same connection then runs a valid query.
    let reply = client.run(&count_query()).expect("connection survives");
    assert_eq!(reply.rows.len(), 1);
    assert!(server.service().stats().slots_balanced());
}

/// A bare group-by or aggregate column that two listed tables share
/// (`d_attr`, `d_key` on every star dimension) names no column of the
/// join output, which renames it `l.`/`r.`.  It used to pass validation,
/// take an admission slot and panic in the executor's schema lookup.
#[test]
fn shared_bare_output_column_is_bad_query_before_admission() {
    use rqo_datagen::{StarConfig, StarData};
    let data = StarData::generate(&StarConfig {
        fact_rows: 500,
        seed: 7,
    });
    let service = QueryService::new(Engine::new(data.into_catalog()), ServiceConfig::default());
    let server =
        NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let star = || Query::over(&["fact", "dim1", "dim2"]);
    let cases = [
        (
            "shared group-by column",
            star()
                .group(&["d_attr"])
                .aggregate(AggExpr::count_star("n")),
        ),
        (
            "shared aggregate column",
            star().aggregate(AggExpr::max("d_key", "k")),
        ),
    ];
    for (what, query) in &cases {
        for mode in [RunMode::Run, RunMode::Adaptive] {
            match client.run_mode(query, mode, 0) {
                Err(ClientError::Server { code, .. }) => {
                    assert_eq!(code, ErrorCode::BadQuery, "{what}")
                }
                other => panic!("{what}: expected BadQuery, got {other:?}"),
            }
        }
    }
    let stats = server.service().stats();
    assert_eq!(stats.admitted, 0, "rejected before admission: {stats}");
    assert_eq!(stats.panicked, 0, "{stats}");

    // The same connection then runs the one-dimension form of the query.
    let one = Query::over(&["fact", "dim1"])
        .group(&["d_attr"])
        .aggregate(AggExpr::count_star("n"));
    let reply = client.run(&one).expect("connection survives");
    assert!(!reply.rows.is_empty());
    assert!(server.service().stats().slots_balanced());
}

/// Integer arithmetic whose result leaves `i64` — `i64::MIN / -1` panics
/// in every build profile, `+ - *` overflow under debug assertions — is
/// well-typed, so it passes validation; built from literals alone it
/// needs no particular data.  It used to die in the evaluator under
/// `catch_unwind` (`Internal`, `panicked` bumped); it is NULL now, like
/// division by zero, so the predicate is simply not satisfied.
#[test]
fn overflowing_arithmetic_is_null_not_a_panic() {
    use rqo_expr::Expr;
    let server = serve();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let count = |predicate: Expr| {
        Query::over(&["lineitem"])
            .filter("lineitem", predicate)
            .aggregate(AggExpr::count_star("n"))
    };
    let zero = || Expr::lit(0i64);
    let cases = [
        (
            "MIN / -1",
            count(Expr::lit(i64::MIN).div(Expr::lit(-1i64)).gt(zero())),
        ),
        (
            "MAX + 1",
            count(Expr::lit(i64::MAX).add(Expr::lit(1i64)).gt(zero())),
        ),
        (
            "MIN - column",
            count(Expr::lit(i64::MIN).sub(Expr::col("l_orderkey")).lt(zero())),
        ),
        (
            "MAX * column",
            count(
                Expr::lit(i64::MAX)
                    .mul(Expr::col("l_orderkey").add(Expr::lit(1i64)))
                    .gt(zero()),
            ),
        ),
        (
            "date off the calendar",
            count(
                Expr::col("l_shipdate")
                    .add(Expr::lit(i64::MAX))
                    .gt(Expr::col("l_shipdate")),
            ),
        ),
    ];
    for (what, query) in &cases {
        for mode in [RunMode::Run, RunMode::Adaptive] {
            let reply = client
                .run_mode(query, mode, 0)
                .unwrap_or_else(|e| panic!("{what}: expected Done, got {e}"));
            assert_eq!(
                reply.rows,
                vec![vec![Value::Int(0)]],
                "{what}: NULL is not true"
            );
        }
    }
    let stats = server.service().stats();
    assert_eq!(stats.panicked, 0, "no panic behind the wire: {stats}");
    assert_eq!(stats.completed, 2 * cases.len() as u64, "{stats}");
    assert!(stats.slots_balanced());
    assert_eq!(server.stats().queries_ok, 2 * cases.len() as u64);
}

#[test]
fn bad_insert_batches_are_typed_errors_not_panics() {
    let server = serve();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let width = {
        let catalog = server.service().engine().catalog();
        catalog.table("part").unwrap().schema().len()
    };

    // Unknown table.
    match client.insert("no_such_table", vec![vec![Value::Int(1); width]]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("expected BadQuery, got {other:?}"),
    }
    // Wrong arity.
    match client.insert("part", vec![vec![Value::Int(1)]]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("expected BadQuery, got {other:?}"),
    }
    // Wrong type in every column.
    match client.insert("part", vec![vec![Value::Bool(true); width]]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("expected BadQuery, got {other:?}"),
    }
    // NULLs are not storable.
    match client.insert("part", vec![vec![Value::Null; width]]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadQuery),
        other => panic!("expected BadQuery, got {other:?}"),
    }

    // None of the rejected batches changed the table, the connection
    // survived (BadQuery is not connection-fatal), and nothing leaked.
    let before = server
        .service()
        .engine()
        .catalog()
        .table("part")
        .unwrap()
        .num_rows();
    let reply = client.run(&count_query()).expect("connection survives");
    assert_eq!(reply.rows[0][0], Value::Int(before as i64));

    let stats = server.service().stats();
    assert!(stats.slots_balanced(), "slot leak: {stats}");
    assert_eq!(stats.panicked, 0);
    let net = server.stats();
    assert_eq!(net.inserts_ok, 0);
    assert_eq!(net.inserts_err, 4, "each bad batch counted once: {net}");
    assert_eq!(
        net.protocol_errors, 0,
        "schema errors are not protocol errors"
    );
}

/// A wire `Insert` repeating a primary key used to reach an `assert!`
/// inside the unique-index rebuild — under the catalog write lock, after
/// the table had already been swapped — and came back as
/// `ErrorCode::Internal` via `catch_unwind` with the lock poisoned.  It
/// is an ordinary rejected batch now.
#[test]
fn duplicate_primary_key_insert_is_bad_query_and_changes_nothing() {
    let server = serve();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let part = std::sync::Arc::clone(server.service().engine().catalog().table("part").unwrap());
    let before = part.num_rows();
    let key = part.schema().expect_index("p_partkey");
    let fresh_key = part.int_column(key).iter().max().unwrap() + 1;
    let with_key = |k: i64| {
        let mut row = part.row(0);
        row[key] = Value::Int(k);
        row
    };

    // One stored key again, behind a row that is fine on its own: the
    // whole batch must go.
    let stored_key = part.int_column(key)[3];
    match client.insert("part", vec![with_key(fresh_key), with_key(stored_key)]) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadQuery, "{message}");
            assert!(message.contains("duplicate key"), "{message}");
        }
        other => panic!("expected one typed BadQuery, got {other:?}"),
    }
    let stats = server.service().stats();
    assert_eq!(stats.panicked, 0, "no panic behind the wire: {stats}");
    assert!(stats.slots_balanced(), "slot leak: {stats}");
    let reply = client.run(&count_query()).expect("connection survives");
    assert_eq!(
        reply.rows[0][0],
        Value::Int(before as i64),
        "row count unchanged"
    );

    // The next valid Insert on the same connection goes through — the
    // write lock was never poisoned and `fresh_key` did not stick.
    let (inserted, table_rows) = client
        .insert("part", vec![with_key(fresh_key)])
        .expect("valid insert after a rejected one");
    assert_eq!((inserted, table_rows), (1, before as u64 + 1));
    let reply = client.run(&count_query()).expect("query after insert");
    assert_eq!(reply.rows[0][0], Value::Int(before as i64 + 1));

    let net = server.stats();
    assert_eq!((net.inserts_ok, net.inserts_err), (1, 1), "{net}");
    assert_eq!(net.protocol_errors, 0);
    assert_eq!(server.service().stats().panicked, 0);
}

/// Reply frames are cut by bytes as well as by rows.  Two stored rows
/// with a ≈ 9 MiB string each fit one `Insert` frame apiece, but as one
/// 256-row `Batch` they were an 18 MiB frame: over `MAX_FRAME_LEN`, so a
/// `debug_assert!` panic of the connection thread in debug builds and a
/// frame the client rejects as `Oversized` in release.  Each now travels
/// in a frame of its own — and a join row carrying two such strings,
/// which no frame can hold, is a typed error on a connection that lives
/// on.
#[test]
fn replies_with_huge_strings_are_cut_into_frames_that_fit() {
    use rqo_expr::Expr;
    use rqo_storage::{Catalog, DataType, Schema, TableBuilder};

    // note(n_key, n_text) ← tag(t_key, t_note, t_text): strings on both
    // sides of a foreign key.
    let mut notes = TableBuilder::new(
        "note",
        Schema::from_pairs(&[("n_key", DataType::Int), ("n_text", DataType::Str)]),
        4,
    );
    let mut tags = TableBuilder::new(
        "tag",
        Schema::from_pairs(&[
            ("t_key", DataType::Int),
            ("t_note", DataType::Int),
            ("t_text", DataType::Str),
        ]),
        4,
    );
    for k in 0..4i64 {
        notes.push_row(&[Value::Int(k), Value::str("short")]);
        tags.push_row(&[Value::Int(k), Value::Int(k), Value::str("short")]);
    }
    let mut catalog = Catalog::new();
    catalog.add_table(notes.finish()).unwrap();
    catalog.add_table(tags.finish()).unwrap();
    catalog
        .add_foreign_key("tag", "t_note", "note", "n_key")
        .unwrap();
    let service = QueryService::new(Engine::new(catalog), ServiceConfig::default());
    let server = NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    // A connection thread that dies mid-reply leaves the socket open; fail
    // rather than wait for it.
    let patience = Some(Duration::from_secs(60));
    client.stream().set_read_timeout(patience).unwrap();

    let huge = |fill: &str| Value::str(fill.repeat(9 << 20));
    let big_notes = vec![
        vec![Value::Int(10), huge("a")],
        vec![Value::Int(11), huge("b")],
    ];
    for row in &big_notes {
        client
            .insert("note", vec![row.clone()])
            .expect("9 MiB fit an Insert frame");
    }
    let is_big = Expr::col("n_key").ge(Expr::lit(10i64));
    let reply = client
        .run(&Query::over(&["note"]).filter("note", is_big.clone()))
        .expect("18 MiB of rows arrive as frames that fit");
    assert_eq!(reply.rows, big_notes);

    // One joined row of 18 MiB: refused by name, mid-reply, and the
    // connection carries on.
    client
        .insert("tag", vec![vec![Value::Int(10), Value::Int(10), huge("c")]])
        .expect("9 MiB fit an Insert frame");
    match client.run(&Query::over(&["tag", "note"]).filter("note", is_big)) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Internal, "{message}");
            assert!(message.contains("exceeds the frame cap"), "{message}");
        }
        other => panic!(
            "expected a typed error, got {:?}",
            other.map(|r| r.rows.len())
        ),
    }
    client.ping().expect("connection survives");

    let stats = server.service().stats();
    assert_eq!(stats.panicked, 0, "{stats}");
    assert!(stats.slots_balanced(), "{stats}");
    let net = server.stats();
    assert_eq!((net.queries_ok, net.queries_err), (1, 1), "{net}");
    assert_eq!(net.protocol_errors, 0, "{net}");
}

#[test]
fn connection_limit_turns_excess_clients_away() {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let service = QueryService::new(Engine::new(data.into_catalog()), ServiceConfig::default());
    let config = NetServerConfig::default().with_max_connections(1);
    let server = NetServer::bind(service, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let mut first = NetClient::connect(addr).expect("first connect");
    first.ping().expect("first connection live");

    let mut second = NetClient::connect(addr).expect("tcp connect succeeds");
    match second.recv() {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::ConnectionLimit),
        other => panic!("expected ConnectionLimit, got {other:?}"),
    }
    assert_eq!(server.stats().rejected_conn_limit, 1);

    // Capacity frees when the first client leaves.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = NetClient::connect(addr).expect("tcp connect");
        match retry.ping() {
            Ok(()) => break,
            Err(_) => assert!(Instant::now() < deadline, "slot never freed"),
        }
    }
}

/// Clean traffic, poison frames and forced disconnects against one
/// server at once.  Eight clients each replay a mixed menu through a
/// 4-slot service (so queries queue); between rounds every client also
/// opens a side connection that sends one poison frame, and every other
/// client fires a three-way join on another connection and hangs up
/// mid-query.  Every clean reply matches the in-process reference, every
/// poison frame draws exactly one typed protocol error (and nothing
/// else counts as one), and the server quiesces with its slots balanced
/// and no query panicked.
#[test]
fn poison_and_disconnects_beside_clean_traffic_leak_nothing() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let config = ServiceConfig::default()
        .with_workers(2)
        .with_max_concurrent(4)
        .with_queue_capacity(4 * CLIENTS)
        .with_queue_timeout(Duration::from_secs(60));
    let service = QueryService::new(Engine::new(data.into_catalog()), config);
    let server =
        NetServer::bind(service.clone(), "127.0.0.1:0", NetServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let join = Query::over(&["lineitem", "orders", "part"]).aggregate(AggExpr::count_star("n"));
    let menu = [
        count_query(),
        Query::over(&["lineitem"])
            .filter("lineitem", exp1_lineitem_predicate(30))
            .aggregate(AggExpr::sum("l_extendedprice", "revenue")),
        Query::over(&["lineitem", "orders", "part"])
            .filter("part", exp2_part_predicate(212))
            .aggregate(AggExpr::count_star("n")),
    ];
    let expected: Vec<Vec<Vec<Value>>> = menu
        .iter()
        .map(|q| service.session().run(q).expect("reference run").rows)
        .collect();
    let poison = poison_frames();

    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let (menu, expected, poison, join) = (&menu, &expected, &poison, &join);
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                client.hello(&format!("tenant-{}", client_id % 4)).unwrap();
                for round in 0..ROUNDS {
                    for k in 0..menu.len() {
                        let qi = (client_id + round + k) % menu.len();
                        let reply = client.run(&menu[qi]).expect("clean client sees no error");
                        assert_eq!(reply.rows, expected[qi], "client {client_id} query {qi}");
                    }
                    if round == 0 {
                        let frame = &poison[client_id % poison.len()];
                        let mut attacker = NetClient::connect(addr).expect("connect attacker");
                        attacker.send_raw(frame).expect("send poison");
                        match attacker.recv() {
                            Ok(Response::Error { id, code, .. }) => {
                                assert_eq!((id, code), (0, ErrorCode::Protocol));
                            }
                            other => panic!("client {client_id}: poison got {other:?}"),
                        }
                        assert!(attacker.recv().is_err(), "one error, then the close");
                    }
                    if round == 1 && client_id % 2 == 0 {
                        let mut victim = NetClient::connect(addr).expect("connect victim");
                        let run = Request::Run {
                            id: 9,
                            mode: RunMode::Run,
                            deadline_ms: 0,
                            query: join.clone(),
                        };
                        let mut frame = Vec::new();
                        write_frame(&mut frame, &run.encode()).unwrap();
                        victim.send_raw(&frame).expect("send doomed run");
                        victim.stream().shutdown(Shutdown::Both).expect("hang up");
                    }
                }
            });
        }
    });

    // The hung-up joins may still be unwinding: poll to quiescence.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().active > 0 || !service.stats().slots_balanced() {
        assert!(
            Instant::now() < deadline,
            "server never quiesced: {} / {}",
            service.stats(),
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let net = server.stats();
    assert_eq!(net.protocol_errors, CLIENTS as u64, "{net}");
    let stats = service.stats();
    assert_eq!(stats.panicked, 0, "{stats}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Socket-level fuzz: arbitrary byte blobs (whatever frames they
    /// happen to contain) never panic the server and never leak slots.
    /// One shared server across all cases keeps this cheap.
    #[test]
    fn random_bytes_never_wedge_the_server(blob in proptest::collection::vec(any::<u8>(), 0..128)) {
        use std::sync::OnceLock;
        static SERVER: OnceLock<NetServer> = OnceLock::new();
        let server = SERVER.get_or_init(serve);

        {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            let _ = stream.write_all(&blob);
            // Read whatever comes back (error frame or close) so the
            // write is not raced by our own reset, then hang up.
            read_one(&mut stream);
        }

        // The server still answers a valid client and leaked nothing.
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client.ping().expect("server alive");
        let reply = client.run(&count_query()).expect("server functional");
        prop_assert_eq!(reply.rows.len(), 1);
        drop(client);
        let stats = server.service().stats();
        prop_assert!(stats.slots_balanced(), "slot leak: {}", stats);
        prop_assert_eq!(stats.panicked, 0);
    }
}

/// Reads one response frame with a timeout, ignoring failures.
fn read_one(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = rqo_service::proto::read_frame(stream);
}
