//! `rqo_serve` — a multi-client driver for the concurrent query service.
//!
//! Spins up one [`QueryService`] (shared worker pool + admission control)
//! over a TPC-H-like catalog and hammers it from N client threads, each
//! replaying the paper's experiment queries through its own service clone.
//! Every client checks its rows against a precomputed reference, so the
//! run doubles as a live concurrency-correctness check; the tail of the
//! output shows the service counters, including the deadline/cancellation
//! demo queries.
//!
//! ```sh
//! rqo_serve [--clients N] [--rounds N] [--scale F] [--seed N] \
//!           [--workers N] [--max-concurrent N] [--queue-capacity N] [--tiny]
//! ```
//!
//! With `--listen ADDR` it instead becomes a **network server**: the
//! same service behind the length-prefixed wire protocol, accepting TCP
//! clients until killed and printing its counters once a second when
//! they change.  `--connect ADDR` is the matching client: it replays
//! the workload over the wire and prints each reply's shape and
//! latency.
//!
//! ```sh
//! rqo_serve --listen 127.0.0.1:4410 [--scale F] [--max-connections N] ...
//! rqo_serve --connect 127.0.0.1:4410 [--rounds N]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use robust_qo::prelude::*;

struct Args {
    clients: usize,
    rounds: usize,
    scale: f64,
    seed: u64,
    workers: usize,
    max_concurrent: usize,
    queue_capacity: usize,
    listen: Option<String>,
    connect: Option<String>,
    max_connections: usize,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            clients: 4,
            rounds: 25,
            scale: 0.01,
            seed: 42,
            workers: 2,
            max_concurrent: 4,
            queue_capacity: 64,
            listen: None,
            connect: None,
            max_connections: 512,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                // CI smoke preset: small catalog, short run.
                "--tiny" => {
                    args.scale = 0.002;
                    args.rounds = 5;
                    i += 1;
                }
                flag => {
                    let value = argv
                        .get(i + 1)
                        .unwrap_or_else(|| panic!("missing value after {flag}"));
                    match flag {
                        "--clients" => args.clients = value.parse().expect("--clients"),
                        "--rounds" => args.rounds = value.parse().expect("--rounds"),
                        "--scale" => args.scale = value.parse().expect("--scale"),
                        "--seed" => args.seed = value.parse().expect("--seed"),
                        "--workers" => args.workers = value.parse().expect("--workers"),
                        "--max-concurrent" => {
                            args.max_concurrent = value.parse().expect("--max-concurrent")
                        }
                        "--queue-capacity" => {
                            args.queue_capacity = value.parse().expect("--queue-capacity")
                        }
                        "--listen" => args.listen = Some(value.clone()),
                        "--connect" => args.connect = Some(value.clone()),
                        "--max-connections" => {
                            args.max_connections = value.parse().expect("--max-connections")
                        }
                        other => panic!("unknown flag {other:?}"),
                    }
                    i += 2;
                }
            }
        }
        args
    }
}

/// The client workload: single-table windows and three-way joins, all
/// aggregate-topped so results are order-independent.
fn workload() -> Vec<Query> {
    let mut queries = Vec::new();
    for offset in [30i64, 60, 110] {
        queries.push(
            Query::over(&["lineitem"])
                .filter("lineitem", exp1_lineitem_predicate(offset))
                .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
                .aggregate(AggExpr::count_star("n")),
        );
    }
    for window in [150i64, 212] {
        queries.push(
            Query::over(&["lineitem", "orders", "part"])
                .filter("part", exp2_part_predicate(window))
                .aggregate(AggExpr::count_star("n")),
        );
    }
    queries
}

/// `--listen` mode: serve the wire protocol until killed.
fn listen_mode(args: &Args, addr: &str) -> ! {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: args.scale,
        seed: args.seed,
    });
    let service = Engine::new(data.into_catalog()).into_service(
        ServiceConfig::default()
            .with_workers(args.workers)
            .with_max_concurrent(args.max_concurrent)
            .with_queue_capacity(args.queue_capacity)
            .with_queue_timeout(Duration::from_secs(30)),
    );
    let config = NetServerConfig::default().with_max_connections(args.max_connections);
    let server = NetServer::bind(service, addr, config).expect("bind listen address");
    println!(
        "listening on {}  (scale={}, workers={}, max_concurrent={}, max_connections={})",
        server.local_addr(),
        args.scale,
        args.workers,
        args.max_concurrent,
        args.max_connections
    );
    let mut last = String::new();
    loop {
        std::thread::sleep(Duration::from_secs(1));
        let line = format!("{} | {}", server.stats(), server.service().stats());
        if line != last {
            println!("{line}");
            last = line;
        }
    }
}

/// `--connect` mode: replay the workload over the wire.
fn connect_mode(args: &Args, addr: &str) {
    let mut client = NetClient::connect(addr).expect("connect to server");
    let queries = workload();
    let start = Instant::now();
    let mut ran = 0usize;
    for round in 0..args.rounds {
        for (qi, query) in queries.iter().enumerate() {
            let t0 = Instant::now();
            match client.run(query) {
                Ok(reply) => {
                    ran += 1;
                    println!(
                        "round {round} query {qi}: {} row(s) × {} col(s) in {:.1}ms \
                         (simulated {:.3}s)",
                        reply.rows.len(),
                        reply.columns.len(),
                        t0.elapsed().as_secs_f64() * 1e3,
                        reply.simulated_seconds
                    );
                }
                Err(e) => println!("round {round} query {qi}: ERROR {e}"),
            }
        }
    }
    println!(
        "\n{} queries in {:.2}s over one connection to {addr}",
        ran,
        start.elapsed().as_secs_f64()
    );
}

fn main() {
    let args = Args::parse();
    if let Some(addr) = args.listen.clone() {
        listen_mode(&args, &addr);
    }
    if let Some(addr) = args.connect.clone() {
        connect_mode(&args, &addr);
        return;
    }
    let data = TpchData::generate(&TpchConfig {
        scale_factor: args.scale,
        seed: args.seed,
    });
    let service = Engine::new(data.into_catalog()).into_service(
        ServiceConfig::default()
            .with_workers(args.workers)
            .with_max_concurrent(args.max_concurrent)
            .with_queue_capacity(args.queue_capacity)
            .with_queue_timeout(Duration::from_secs(30)),
    );
    let queries = workload();

    // Reference answers, computed once through the service itself while
    // it is otherwise idle.
    let expected: Vec<Vec<Vec<Value>>> = queries
        .iter()
        .map(|q| service.run(q).expect("reference run").rows)
        .collect();

    println!(
        "serving {} clients × {} rounds × {} queries  \
         (workers={}, max_concurrent={}, queue={})",
        args.clients,
        args.rounds,
        queries.len(),
        args.workers,
        args.max_concurrent,
        args.queue_capacity
    );

    let mismatches = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..args.clients {
            let service = &service;
            let queries = &queries;
            let expected = &expected;
            let mismatches = &mismatches;
            scope.spawn(move || {
                let session = service.session();
                for round in 0..args.rounds {
                    // Stagger each client's starting query so concurrent
                    // clients mix cheap and expensive work.
                    for k in 0..queries.len() {
                        let qi = (client + round + k) % queries.len();
                        let outcome = session.run(&queries[qi]).expect("no cancellation source");
                        if outcome.rows != expected[qi] {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let total = args.clients * args.rounds * queries.len();

    // Deadline/cancellation demo: both must stop cleanly and release
    // their slots (visible in the counters below).
    let cancelled = QueryToken::new();
    cancelled.cancel();
    match service.execute(&queries[0], &cancelled, RunPolicy::Run) {
        Err(ServiceError::Stopped(reason)) => println!("\ncancelled demo query: {reason}"),
        other => println!("\ncancelled demo query: unexpected {other:?}"),
    }
    let expired = QueryToken::with_deadline(Duration::ZERO);
    match service.execute(&queries[0], &expired, RunPolicy::Run) {
        Err(ServiceError::Stopped(reason)) => println!("expired-deadline demo query: {reason}"),
        other => println!("expired-deadline demo query: unexpected {other:?}"),
    }

    let lost = mismatches.load(Ordering::Relaxed);
    println!(
        "\n{} queries in {:.2}s  ({:.0} queries/s), {} result mismatches",
        total,
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64(),
        lost
    );
    println!("plan cache: {}", service.engine().cache_stats());
    println!("service:    {}", service.stats());
    let stats = service.stats();
    assert_eq!(lost, 0, "concurrent clients observed wrong rows");
    assert!(stats.slots_balanced(), "execution slots leaked: {stats}");
}
