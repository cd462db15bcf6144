//! Client-disconnect propagation over a real socket: a client that hangs
//! up while its reply is being written ends the connection and leaves
//! nothing behind.  A client that hangs up while its query executes is
//! tested beside the server (`net.rs`), where the service can hold the
//! query until the disconnect lands.

use std::net::Shutdown;
use std::time::{Duration, Instant};

use rqo_datagen::{TpchConfig, TpchData};
use rqo_exec::AggExpr;
use rqo_optimizer::Query;
use rqo_service::net::{NetClient, NetServer, NetServerConfig};
use rqo_service::proto::{write_frame, Request, Response, RunMode};
use rqo_service::{Engine, ServiceConfig};

/// Big enough that a `lineitem ⋈ part` reply (≈ 14 MB) outgrows what
/// loopback socket buffers absorb.
const SCALE: f64 = 0.02;

fn server() -> NetServer {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: SCALE,
        seed: 7,
    });
    let service = Engine::new(data.into_catalog()).into_service(ServiceConfig::default());
    NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback")
}

fn poll_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
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
    let server = server();
    let service = server.service().clone();

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
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
    assert!(stats.slots_balanced(), "execution slot leaked: {stats}");
    assert_eq!(stats.panicked, 0, "query panicked: {stats}");
    assert_eq!(server.stats().protocol_errors, 0, "{}", server.stats());

    // The server still serves a fresh connection.
    let mut retry = NetClient::connect(server.local_addr()).expect("reconnect");
    let short = Query::over(&["part"]).aggregate(AggExpr::count_star("n"));
    let reply = retry.run(&short).expect("server still serves");
    assert_eq!(reply.rows.len(), 1);
}
