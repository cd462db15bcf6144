//! Concurrent query-service driver: throughput and tail latency at
//! 1/4/16 clients, with and without admission control, emitted as
//! `BENCH_service.json`.
//!
//! Every client replays the experiment workload through its own session
//! of one shared [`QueryService`] and checks each result against a
//! precomputed reference, so the bench self-asserts **zero lost or
//! corrupted rows** under concurrency.  Each configuration also runs a
//! cancelled and an expired-deadline query and asserts — via
//! [`ServiceStats`] — that both released their execution slots.
//!
//! ```sh
//! cargo run --release -p rqo-bench --bin service -- \
//!     [--scale F] [--rounds N] [--out PATH] [--tiny]
//! ```

use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use robust_qo::prelude::*;

const CLIENTS: [usize; 3] = [1, 4, 16];

struct Args {
    scale: f64,
    rounds: usize,
    out: String,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            scale: 0.01,
            rounds: 8,
            out: "BENCH_service.json".to_string(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                // CI smoke preset: small catalog, short run.
                "--tiny" => {
                    args.scale = 0.002;
                    args.rounds = 3;
                    i += 1;
                }
                flag => {
                    let value = argv
                        .get(i + 1)
                        .unwrap_or_else(|| panic!("missing value after {flag}"));
                    match flag {
                        "--scale" => args.scale = value.parse().expect("--scale"),
                        "--rounds" => args.rounds = value.parse().expect("--rounds"),
                        "--out" => args.out = value.clone(),
                        other => panic!("unknown flag {other:?}"),
                    }
                    i += 2;
                }
            }
        }
        args
    }
}

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

struct ConfigResult {
    clients: usize,
    admission: bool,
    queries: usize,
    wall_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    mismatches: u64,
    stats: ServiceStats,
}

impl ConfigResult {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_s
    }
}

fn percentile(sorted_ns: &[u128], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

fn run_config(
    catalog: &Catalog,
    queries: &[Query],
    clients: usize,
    admission: bool,
    rounds: usize,
) -> ConfigResult {
    let config = if admission {
        // Fewer slots than peak clients: the 16-client run exercises the
        // wait queue; the generous timeout keeps waits bounded but
        // admitted.
        ServiceConfig::default()
            .with_workers(2)
            .with_max_concurrent(4)
            .with_queue_capacity(64)
            .with_queue_timeout(Duration::from_secs(60))
    } else {
        ServiceConfig::unlimited().with_workers(2)
    };
    let service = RobustDb::new(catalog.clone()).into_service(config);

    let warm = service.session();
    let expected: Vec<Vec<Vec<Value>>> = queries
        .iter()
        .map(|q| warm.run(q).expect("reference run").rows)
        .collect();
    let warm_runs = queries.len() as u64;

    let latencies: Mutex<Vec<u128>> = Mutex::new(Vec::new());
    let mismatch_count: Mutex<u64> = Mutex::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let service = &service;
            let latencies = &latencies;
            let mismatch_count = &mismatch_count;
            let expected = &expected;
            scope.spawn(move || {
                let session = service.session();
                let mut local_lat = Vec::with_capacity(rounds * queries.len());
                let mut local_bad = 0u64;
                for round in 0..rounds {
                    for k in 0..queries.len() {
                        let qi = (client + round + k) % queries.len();
                        let t0 = Instant::now();
                        let outcome = session.run(&queries[qi]).expect("no cancellation source");
                        local_lat.push(t0.elapsed().as_nanos());
                        if outcome.rows != expected[qi] {
                            local_bad += 1;
                        }
                    }
                }
                latencies
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(local_lat);
                *mismatch_count
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) += local_bad;
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    // Slot-release check: a cancelled and an expired-deadline query per
    // configuration, both of which must be counted and release slots.
    let session = service.session();
    let cancelled = QueryHandle::new();
    cancelled.cancel();
    assert!(matches!(
        session.execute(&queries[0], &cancelled, RunPolicy::Run),
        Err(ServiceError::Stopped(StopReason::Cancelled))
    ));
    let expired = QueryHandle::with_deadline(Duration::ZERO);
    assert!(matches!(
        session.execute(&queries[0], &expired, RunPolicy::Run),
        Err(ServiceError::Stopped(StopReason::DeadlineExceeded))
    ));

    let mut sorted = latencies
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    sorted.sort_unstable();
    let stats = service.stats();
    let total = clients * rounds * queries.len();

    // Self-checks: nothing lost, nothing corrupted, every slot returned.
    let mismatches = *mismatch_count
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    assert_eq!(sorted.len(), total, "lost or duplicated query executions");
    assert_eq!(mismatches, 0, "corrupted rows under concurrency");
    assert!(stats.slots_balanced(), "execution slots leaked: {stats}");
    assert_eq!(stats.cancelled, 1, "cancelled query not counted");
    assert_eq!(stats.deadline_exceeded, 1, "deadline query not counted");
    assert_eq!(
        stats.completed,
        total as u64 + warm_runs,
        "completed-query count mismatch"
    );

    ConfigResult {
        clients,
        admission,
        queries: total,
        wall_s,
        p50_ms: percentile(&sorted, 0.50),
        p99_ms: percentile(&sorted, 0.99),
        mismatches,
        stats,
    }
}

fn main() {
    let args = Args::parse();
    let catalog = TpchData::generate(&TpchConfig {
        scale_factor: args.scale,
        seed: 42,
    })
    .into_catalog();
    let queries = workload();

    let mut results = Vec::new();
    for clients in CLIENTS {
        for admission in [true, false] {
            let r = run_config(&catalog, &queries, clients, admission, args.rounds);
            eprintln!(
                "clients={:2} admission={:5} {:6.0} q/s  p50 {:7.2}ms  p99 {:7.2}ms  queued={}",
                r.clients,
                r.admission,
                r.qps(),
                r.p50_ms,
                r.p99_ms,
                r.stats.queued
            );
            results.push(r);
        }
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"service\",").unwrap();
    writeln!(json, "  \"scale_factor\": {},", args.scale).unwrap();
    writeln!(json, "  \"rounds\": {},", args.rounds).unwrap();
    writeln!(json, "  \"workload_queries\": {},", queries.len()).unwrap();
    writeln!(json, "  \"configs\": [").unwrap();
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let s = &r.stats;
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"clients\": {},", r.clients).unwrap();
        writeln!(json, "      \"admission_control\": {},", r.admission).unwrap();
        writeln!(json, "      \"queries\": {},", r.queries).unwrap();
        writeln!(json, "      \"wall_s\": {:.4},", r.wall_s).unwrap();
        writeln!(json, "      \"queries_per_sec\": {:.1},", r.qps()).unwrap();
        writeln!(json, "      \"p50_ms\": {:.3},", r.p50_ms).unwrap();
        writeln!(json, "      \"p99_ms\": {:.3},", r.p99_ms).unwrap();
        writeln!(json, "      \"mismatches\": {},", r.mismatches).unwrap();
        writeln!(
            json,
            "      \"stats\": {{\"admitted\": {}, \"queued\": {}, \"rejected_queue_full\": {}, \
             \"rejected_queue_timeout\": {}, \"completed\": {}, \"cancelled\": {}, \
             \"deadline_exceeded\": {}, \"stopped_in_queue\": {}}}",
            s.admitted,
            s.queued,
            s.rejected_queue_full,
            s.rejected_queue_timeout,
            s.completed,
            s.cancelled,
            s.deadline_exceeded,
            s.stopped_in_queue
        )
        .unwrap();
        writeln!(json, "    }}{comma}").unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    print!("{json}");
    std::fs::write(&args.out, &json).expect("write BENCH json");
    eprintln!("wrote {}", args.out);
}
