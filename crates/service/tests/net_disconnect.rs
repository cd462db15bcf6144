//! Client-disconnect propagation over a real socket: a client that hangs
//! up while its reply is being written ends the connection and leaves
//! nothing behind, and a reply the client never reads pins the
//! per-tenant admission quota, which needs a query held in flight to be
//! observable.  A client that hangs up while its query executes is tested
//! beside the server (`net.rs`), where the service can hold the query
//! until the disconnect lands.

use std::net::Shutdown;
use std::time::{Duration, Instant};

use rqo_datagen::{TpchConfig, TpchData};
use rqo_exec::AggExpr;
use rqo_optimizer::Query;
use rqo_service::net::{ClientError, NetClient, NetServer, NetServerConfig};
use rqo_service::proto::{write_frame, ErrorCode, Request, Response, RunMode};
use rqo_service::{Engine, ServiceConfig, ServiceStats};

/// Big enough that a `lineitem ⋈ part` reply (≈ 14 MB) outgrows what
/// loopback socket buffers absorb.
const SCALE: f64 = 0.02;

fn server_with(config: NetServerConfig) -> NetServer {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: SCALE,
        seed: 7,
    });
    let service = Engine::new(data.into_catalog()).into_service(ServiceConfig::default());
    NetServer::bind(service, "127.0.0.1:0", config).expect("bind loopback")
}

fn short_query() -> Query {
    Query::over(&["part"]).aggregate(AggExpr::count_star("n"))
}

fn poll_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn assert_quiescent_and_balanced(stats: ServiceStats) {
    assert!(stats.slots_balanced(), "execution slot leaked: {stats}");
    assert_eq!(stats.panicked, 0, "query panicked: {stats}");
}

/// The other place a client can vanish: not while its query runs but
/// while the reply is being written.  The reply here (every
/// `lineitem ⋈ part` row, ≈ 14 MB) is written out in hundreds of
/// flushes and outgrows what loopback socket buffers absorb; the client
/// reads its first `Batch` and hangs up.  The executor must come back
/// from its write with an error — not block on a peer that will never
/// read — and leave nothing behind.
#[test]
fn disconnect_mid_reply_ends_the_connection_and_leaves_nothing() {
    let server = server_with(NetServerConfig::default().with_tenant_quota(1));
    let service = server.service().clone();

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.hello("acme").expect("hello");
    let req = Request::Run {
        id: 1,
        mode: RunMode::Run,
        deadline_ms: 0,
        query: Query::over(&["lineitem", "part"]),
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &req.encode()).unwrap();
    client.send_raw(&frame).expect("send run");
    match client.recv().expect("first frame of the reply") {
        Response::Batch { id: 1, rows } => assert!(!rows.is_empty()),
        other => panic!("expected the first Batch, got {other:?}"),
    }
    client.stream().shutdown(Shutdown::Both).expect("shutdown");
    drop(client);

    poll_until("connection drained", || server.stats().active == 0);

    // The query itself had finished before its reply began.
    let stats = service.stats();
    assert_eq!((stats.completed, stats.cancelled), (1, 0), "{stats}");
    assert_quiescent_and_balanced(stats);
    assert_eq!(server.stats().protocol_errors, 0, "{}", server.stats());

    // The tenant's only quota unit came back with the connection.
    let mut retry = NetClient::connect(server.local_addr()).expect("reconnect");
    retry.hello("acme").expect("hello");
    let reply = retry.run(&short_query()).expect("server still serves");
    assert_eq!(reply.rows.len(), 1);
    assert_eq!(server.stats().tenant_rejections, 0);
}

#[test]
fn tenant_quota_bounds_in_flight_queries_per_tenant() {
    let config = NetServerConfig::default().with_tenant_quota(1);
    let server = server_with(config);
    let service = server.service().clone();
    let addr = server.local_addr();

    // Tenant "acme" occupies its whole quota with one query whose
    // ≈ 14 MB reply it never reads: the connection's handler blocks on
    // the write and holds the slot however fast the query itself ran...
    let mut first = NetClient::connect(addr).expect("connect first");
    first.hello("acme").expect("hello");
    let req = Request::Run {
        id: 1,
        mode: RunMode::Run,
        deadline_ms: 0,
        query: Query::over(&["lineitem", "part"]),
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &req.encode()).unwrap();
    first.send_raw(&frame).expect("send run");
    poll_until("first query admitted", || service.stats().admitted == 1);

    // ... so a second "acme" connection is refused before admission ...
    let mut second = NetClient::connect(addr).expect("connect second");
    second.hello("acme").expect("hello");
    match second.run(&short_query()) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::TenantQuota),
        other => panic!("expected TenantQuota, got {other:?}"),
    }
    assert_eq!(server.stats().tenant_rejections, 1);

    // ... while a different tenant sails through on the same service.
    let mut other = NetClient::connect(addr).expect("connect other");
    other.hello("globex").expect("hello");
    let reply = other.run(&short_query()).expect("other tenant unaffected");
    assert_eq!(reply.rows.len(), 1);

    // Hanging up ends the first connection's handler, which releases the
    // tenant's slot; retry until it has.
    first.stream().shutdown(Shutdown::Both).expect("shutdown");
    drop(first);
    let mut reply = None;
    poll_until("quota slot released", || match second.run(&short_query()) {
        Err(ClientError::Server {
            code: ErrorCode::TenantQuota,
            ..
        }) => false,
        other => {
            reply = Some(other.expect("the second acme query runs"));
            true
        }
    });
    assert_eq!(reply.expect("polled until it ran").rows.len(), 1);

    assert_quiescent_and_balanced(service.stats());
}
