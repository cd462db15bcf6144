//! The wire path must work, not wait: a request/reply exchange over
//! loopback costs a fraction of a millisecond beyond the query itself.
//!
//! With replies written frame by frame — length prefix and body as two
//! writes, `Batch` and `Done` as two more — on an accepted socket that
//! still has Nagle's algorithm on, every reply waits ≈ 44 ms on the
//! client's delayed ACK: 200 sequential round trips take ≥ 8.8 s.  The
//! 2 s bound below is forty times what the fixed path needs in a debug
//! build and a quarter of what the stalled one needs in any build.
//!
//! This file holds one test on purpose: test binaries run one after
//! another, so nothing else in the suite competes for the clock.

use std::time::{Duration, Instant};

use rqo_datagen::{TpchConfig, TpchData};
use rqo_exec::AggExpr;
use rqo_optimizer::Query;
use rqo_service::net::{NetClient, NetServer, NetServerConfig};
use rqo_service::{Engine, ServiceConfig};

const ROUND_TRIPS: usize = 200;
const BOUND: Duration = Duration::from_secs(2);

#[test]
fn sequential_round_trips_do_not_wait_on_delayed_acks() {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.001,
        seed: 7,
    });
    let service = Engine::new(data.into_catalog()).into_service(ServiceConfig::default());
    let server = NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // One-frame replies.
    let start = Instant::now();
    for _ in 0..ROUND_TRIPS {
        client.ping().expect("pong");
    }
    let pings = start.elapsed();
    assert!(pings < BOUND, "{ROUND_TRIPS} pings took {pings:?}");

    // Two-frame replies (`Batch` + `Done`) of a cached point query.
    let query = Query::over(&["part"]).aggregate(AggExpr::count_star("n"));
    let expected = client.run(&query).expect("plans and caches").rows;
    assert_eq!(expected.len(), 1);
    let start = Instant::now();
    for _ in 0..ROUND_TRIPS {
        assert_eq!(client.run(&query).expect("cached run").rows, expected);
    }
    let runs = start.elapsed();
    assert!(
        runs < BOUND,
        "{ROUND_TRIPS} cached point runs took {runs:?}"
    );

    assert_eq!(server.stats().queries_ok, ROUND_TRIPS as u64 + 1);
    assert_eq!(server.stats().protocol_errors, 0);
}
