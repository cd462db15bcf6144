//! The program under test, assembled through its public API exactly as
//! `rqo_serve` assembles it: generated tables → catalog with indexes →
//! engine with synopses → query service → TCP server, all in this process.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use robust_qo::datagen::{TpchConfig, TpchData};
use robust_qo::estimator::ServiceConfig;
use robust_qo::optimizer::Query;
use robust_qo::storage::{Catalog, Value};
use robust_qo::{Engine, NetClient, NetServer, NetServerConfig, QueryService, RobustDb, Session};

use crate::queries::DATA_SEED;

/// The same service everywhere, sized for a two-core host: two pool
/// workers, two execution slots, a short queue that must stay empty
/// because no workload has more clients than slots.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(2)
        .with_max_concurrent(2)
        .with_queue_capacity(16)
}

/// Seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupPhases {
    pub generate_s: f64,
    pub index_build_s: f64,
    pub synopsis_build_s: f64,
}

pub struct Stack {
    pub service: QueryService,
    pub server: NetServer,
    pub addr: SocketAddr,
    /// The catalog before any ingest, for the brute-force oracle.
    pub base: Arc<Catalog>,
}

pub fn tpch(scale: f64) -> TpchData {
    TpchData::generate(&TpchConfig {
        scale_factor: scale,
        seed: DATA_SEED,
    })
}

impl Stack {
    pub fn build(scale: f64) -> (Stack, SetupPhases) {
        let t = Instant::now();
        let data = tpch(scale);
        let generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let catalog = data.into_catalog();
        let index_build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let db = RobustDb::new(catalog);
        let synopsis_build_s = t.elapsed().as_secs_f64();

        let base = db.catalog();
        let service = db.into_service(service_config());
        let server = NetServer::bind(service.clone(), "127.0.0.1:0", NetServerConfig::default())
            .expect("bind a loopback port");
        let addr = server.local_addr();
        let phases = SetupPhases {
            generate_s,
            index_build_s,
            synopsis_build_s,
        };
        (
            Stack {
                service,
                server,
                addr,
                base,
            },
            phases,
        )
    }

    pub fn engine(&self) -> &Arc<Engine> {
        self.service.engine()
    }

    pub fn connect(&self) -> Client {
        Client::Net(NetClient::connect(self.addr).expect("connect over loopback"))
    }

    pub fn session(&self) -> Client {
        Client::Local(self.service.session())
    }
}

/// What a client got back, whichever way it asked.
#[derive(Debug, Clone)]
pub struct Reply {
    pub rows: Vec<Vec<Value>>,
    pub simulated_seconds: f64,
}

/// One client of the service: over TCP, or in-process.
pub enum Client {
    Net(NetClient),
    Local(Session),
}

impl Client {
    pub fn run(&mut self, query: &Query) -> Result<Reply, String> {
        match self {
            Client::Net(c) => c
                .run(query)
                .map(|r| Reply {
                    rows: r.rows,
                    simulated_seconds: r.simulated_seconds,
                })
                .map_err(|e| e.to_string()),
            Client::Local(s) => s
                .run(query)
                .map(|o| Reply {
                    rows: o.rows,
                    simulated_seconds: o.simulated_seconds,
                })
                .map_err(|e| e.to_string()),
        }
    }

    pub fn net(&mut self) -> &mut NetClient {
        match self {
            Client::Net(c) => c,
            Client::Local(_) => panic!("this workload's client is in-process"),
        }
    }
}
