//! The traced run's second half: a fixed sample of the workload's
//! requests replayed single-threaded at successive depths of the stack,
//! each call inside a span recorded here, outside the program.
//!
//! ```text
//! depth 0  NetClient::run / insert          net + proto + everything below
//! depth 1  Session::run                     service + everything below
//! depth 2  Engine::run_opts / insert_rows   engine + everything below
//! depth 3  the calls Engine::run_opts makes fingerprint, PlanCache::get,
//!          Optimizer::optimize_with, try_execute_with, insert_shared
//! probes   a cold single-table plan, a cold three-way plan, estimator
//!          calls, operator wall time (analyze_quiet), the frame codec
//! ```
//!
//! A layer's self time is its depth's duration minus the next depth's on
//! the same request.  Depths 0–3 each really execute the request, so the
//! cache state a workload defines is kept: a workload of repeats replays
//! the same query at every depth (all hits), a workload of unique queries
//! takes the next unused one per depth (all misses).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use robust_qo::estimator::{
    CardinalityEstimator, ConfidenceThreshold, EstimationRequest, EstimatorConfig, QueryToken,
    RobustEstimator, SelectivityEstimate,
};
use robust_qo::exec::{try_execute_with, ExecOptions, MorselScheduler, OpMetrics};
use robust_qo::optimizer::{Optimizer, Query};
use robust_qo::service::proto::DEFAULT_BATCH_ROWS;
use robust_qo::service::{RunMode, WorkerPool};
use robust_qo::stats::sketch::DEFAULT_PRECISION;
use robust_qo::stats::TableSketches;
use robust_qo::storage::{Catalog, CostTracker, Value};
use robust_qo::{Engine, NetClient, Request, Response};

use crate::queries::join3_probe;
use crate::span::{SpanId, SpanLog};
use crate::stack::{service_config, Stack};
use crate::stats::median;

/// What to replay.  Queries and batches come from the workload's own
/// generators so the sample is a function of `--seed`.
pub struct ReplayPlan<'a> {
    pub reads: usize,
    /// The query of replay request `r` at `depth` (0–3).
    pub query_at: &'a dyn Fn(usize, usize) -> Query,
    /// A single-table query no cache has seen, for the cold-plan probe.
    pub cold_point: &'a dyn Fn(usize) -> Query,
    pub insert_rounds: usize,
    /// A batch no table has seen.
    pub batch_at: &'a dyn Fn(usize) -> Vec<Vec<Value>>,
    /// Queries that put the workload's plans back in the cache between
    /// insert rounds, so each invalidation has something to retire.
    pub refill: &'a [Query],
}

#[derive(Default)]
struct Series {
    values: Vec<f64>,
}

impl Series {
    fn push_ns(&mut self, ns: u64) {
        self.values.push(ns as f64);
    }
    /// A difference of two durations, which noise can make negative.
    fn push(&mut self, ns: f64) {
        self.values.push(ns);
    }
    fn us(&self) -> f64 {
        median(&self.values) / 1e3
    }
    fn ms(&self) -> f64 {
        median(&self.values) / 1e6
    }
    fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// Counts and times calls into the estimator from outside it.
struct TimedEstimator {
    inner: Box<dyn CardinalityEstimator>,
    tally: Arc<Tally>,
}

#[derive(Default)]
struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl CardinalityEstimator for TimedEstimator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        let t = Instant::now();
        let estimate = self.inner.estimate(request);
        // Relaxed: statistics read after the optimizer call returns.
        self.tally
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
        estimate
    }

    fn hinted(&self, threshold: ConfidenceThreshold) -> Option<Box<dyn CardinalityEstimator>> {
        self.inner.hinted(threshold).map(|inner| {
            Box::new(TimedEstimator {
                inner,
                tally: Arc::clone(&self.tally),
            }) as Box<dyn CardinalityEstimator>
        })
    }
}

/// The optimizer `Engine::optimizer` builds, with its estimator wrapped.
fn timed_optimizer(engine: &Engine) -> (Optimizer, Arc<Tally>) {
    let tally = Arc::new(Tally::default());
    let estimator = RobustEstimator::new(
        engine.synopses(),
        EstimatorConfig::with_threshold(engine.threshold()),
    )
    .with_feedback(Arc::clone(engine.feedback()));
    let timed = TimedEstimator {
        inner: Box::new(estimator),
        tally: Arc::clone(&tally),
    };
    (
        Optimizer::new(engine.catalog(), *engine.params(), Arc::new(timed)),
        tally,
    )
}

#[derive(Default)]
struct OpWall {
    scan_ns: f64,
    join_ns: f64,
    agg_ns: f64,
    leaf_rows_in: u64,
}

fn op_wall(node: &OpMetrics, out: &mut OpWall) {
    let children: u128 = node.children.iter().map(|c| c.wall_ns).sum();
    let own = node.wall_ns.saturating_sub(children) as f64;
    match node.label.split(' ').next().unwrap_or("") {
        "HashJoin" | "MergeJoin" | "IndexedNlJoin" | "StarSemiJoin" => out.join_ns += own,
        "HashAggregate" => out.agg_ns += own,
        _ => out.scan_ns += own,
    }
    if node.children.is_empty() {
        out.leaf_rows_in += node.rows_in;
    }
    for child in &node.children {
        op_wall(child, out);
    }
}

/// The frames the server writes for one result, as `handle_run` builds
/// them: the rows in `DEFAULT_BATCH_ROWS` chunks, then the summary.
fn response_frames(id: u64, rows: &[Vec<Value>], columns: &[String], sim: f64) -> Vec<Response> {
    let mut frames: Vec<Response> = rows
        .chunks(DEFAULT_BATCH_ROWS)
        .map(|chunk| Response::Batch {
            id,
            rows: chunk.to_vec(),
        })
        .collect();
    frames.push(Response::Done {
        id,
        columns: columns.to_vec(),
        total_rows: rows.len() as u64,
        simulated_seconds: sim,
        estimated_seconds: sim,
        replans: 0,
    });
    frames
}

pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub failures: Vec<String>,
}

#[derive(Default)]
struct ReadSeries {
    net: Series,
    service: Series,
    engine: Series,
    net_self: Series,
    service_self: Series,
    engine_self: Series,
    unattributed: Vec<f64>,
    fingerprint: Series,
    get_hit: Series,
    get_miss: Series,
    cache_insert: Series,
    optimizer_build: Series,
    optimize_cold: Series,
    optimize_join3: Series,
    own_optimize: Series,
    leaves: Series,
    estimate_per_call: Vec<f64>,
    estimate_calls: Vec<f64>,
    estimate_share: Vec<f64>,
    execute: Series,
    scan: Series,
    join: Series,
    agg: Series,
    leaf_rows_in: u64,
    result_rows: u64,
    cost: CostTracker,
    req_encode: Series,
    req_decode: Series,
    resp_encode: Series,
    resp_decode: Series,
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
}

const REPLAY_REQUEST_BASE: u64 = 1 << 40;

pub fn replay(stack: &Stack, plan: &ReplayPlan<'_>, log: &mut SpanLog) -> LayerReport {
    let mut failures = Vec::new();
    let mut net = NetClient::connect(stack.addr).expect("connect over loopback");
    let session = stack.service.session();
    // Depths 2 and 3 call below the service, so they bring the scheduler
    // the service would have attached: a pool of the same size.
    let pool: Arc<dyn MorselScheduler> = Arc::new(WorkerPool::new(service_config().workers));
    let exec_options = || -> ExecOptions {
        stack
            .engine()
            .query_exec_options(Some(QueryToken::new()), Some(Arc::clone(&pool)))
    };

    let mut ping = Series::default();
    for _ in 0..20 {
        let t = Instant::now();
        if let Err(e) = net.ping() {
            failures.push(format!("ping: {e}"));
        }
        ping.push_ns(t.elapsed().as_nanos() as u64);
    }

    // Two passes, so the in-process depths run back to back on warm
    // caches as they do in the workload, not each after a socket wait.
    let mut s = ReadSeries::default();
    let mut wire_ns = vec![None; plan.reads];
    for (r, wire) in wire_ns.iter_mut().enumerate() {
        let request = REPLAY_REQUEST_BASE + r as u64;
        let root = log.open("replay.wire", None, request);
        match replay_wire(plan, r, root, request, &mut net, log, &mut s) {
            Ok(ns) => *wire = Some(ns),
            Err(e) => failures.push(format!("replay over the wire {r}: {e}")),
        }
        log.close(root);
    }
    for (r, wire) in wire_ns.iter().enumerate() {
        let Some(wire) = *wire else { continue };
        let request = REPLAY_REQUEST_BASE + r as u64;
        let root = log.open("replay.local", None, request);
        if let Err(e) = replay_local(
            stack,
            plan,
            r,
            root,
            request,
            wire,
            &session,
            &exec_options,
            log,
            &mut s,
        ) {
            failures.push(format!("replay in process {r}: {e}"));
        }
        log.close(root);
    }

    let ins = replay_inserts(stack, plan, &mut net, &session, log, &mut failures);

    let leaves_total = s.leaves.sum();
    let rows_in_per_s = if s.execute.sum() > 0.0 {
        s.leaf_rows_in as f64 / (s.execute.sum() / 1e9)
    } else {
        0.0
    };
    let metrics = vec![
        ("net.roundtrip_ms", s.net.ms(), "ms"),
        ("net.self_ms", s.net_self.ms(), "ms"),
        ("net.ping_rtt_ms", ping.ms(), "ms"),
        ("net.insert_roundtrip_ms", ins.net.ms(), "ms"),
        ("proto.request_encode_us", s.req_encode.us(), "us"),
        ("proto.request_decode_us", s.req_decode.us(), "us"),
        ("proto.response_encode_us", s.resp_encode.us(), "us"),
        ("proto.response_decode_us", s.resp_decode.us(), "us"),
        ("proto.request_bytes", median(&s.req_bytes), "bytes"),
        ("proto.response_bytes", median(&s.resp_bytes), "bytes"),
        ("proto.insert_encode_us", ins.encode.us(), "us"),
        ("proto.insert_decode_us", ins.decode.us(), "us"),
        ("service.run_ms", s.service.ms(), "ms"),
        ("service.self_us", s.service_self.us(), "us"),
        ("engine.run_ms", s.engine.ms(), "ms"),
        ("engine.fingerprint_us", s.fingerprint.us(), "us"),
        ("engine.self_us", s.engine_self.us(), "us"),
        ("engine.insert_ms", ins.engine.ms(), "ms"),
        ("engine.insert_self_ms", ins.engine_self.ms(), "ms"),
        ("plancache.get_hit_us", s.get_hit.us(), "us"),
        ("plancache.get_miss_us", s.get_miss.us(), "us"),
        ("plancache.insert_us", s.cache_insert.us(), "us"),
        ("plancache.invalidate_table_us", ins.invalidate.us(), "us"),
        ("optimizer.build_us", s.optimizer_build.us(), "us"),
        ("optimizer.optimize_us", s.optimize_cold.us(), "us"),
        ("optimizer.optimize_join3_us", s.optimize_join3.us(), "us"),
        (
            "optimizer.optimize_share",
            if leaves_total > 0.0 {
                s.own_optimize.sum() / leaves_total
            } else {
                0.0
            },
            "ratio",
        ),
        ("core.estimate_us", median(&s.estimate_per_call) / 1e3, "us"),
        ("core.estimate_calls", median(&s.estimate_calls), "count"),
        ("core.estimate_share", median(&s.estimate_share), "ratio"),
        ("exec.execute_ms", s.execute.ms(), "ms"),
        ("exec.scan_ms", s.scan.ms(), "ms"),
        ("exec.join_ms", s.join.ms(), "ms"),
        ("exec.agg_ms", s.agg.ms(), "ms"),
        ("exec.rows_in_per_s", rows_in_per_s, "1/s"),
        ("exec.result_rows", s.result_rows as f64, "count"),
        ("exec.sim_pages", s.cost.seq_pages as f64, "count"),
        ("exec.sim_random_ios", s.cost.random_ios as f64, "count"),
        ("exec.sim_cpu_ops", s.cost.cpu_ops as f64, "count"),
        ("storage.append_ms", ins.append.ms(), "ms"),
        ("stats.sketch_fold_us", ins.fold.us(), "us"),
        ("stats.sketch_seed_ms", ins.seed_ms, "ms"),
        ("trace.unattributed_frac", median(&s.unattributed), "ratio"),
    ];
    LayerReport { metrics, failures }
}

/// Depth 0 of one request, and the frame codec on that request's own
/// frames.  Returns the wire time left once the codec is taken out; the
/// caller pairs it with the same request's depth 1.
fn replay_wire(
    plan: &ReplayPlan<'_>,
    r: usize,
    root: SpanId,
    request: u64,
    net: &mut NetClient,
    log: &mut SpanLog,
    s: &mut ReadSeries,
) -> Result<f64, String> {
    let under = Some(root);
    let q0 = (plan.query_at)(0, r);
    let (reply, d_net) = log.time("net.roundtrip", under, request, || net.run(&q0));
    let reply = reply.map_err(|e| e.to_string())?;
    s.net.push_ns(d_net);

    // The frame codec, on this request's own frames.
    let run = Request::Run {
        id: request,
        mode: RunMode::Run,
        deadline_ms: 0,
        query: q0,
    };
    let (bytes, d_enc_req) = log.time("probe.proto.request_encode", under, request, || {
        run.encode()
    });
    s.req_encode.push_ns(d_enc_req);
    s.req_bytes.push(bytes.len() as f64);
    let (decoded, d_dec) = log.time("probe.proto.request_decode", under, request, || {
        Request::decode(&bytes)
    });
    decoded.map_err(|e| format!("request decode: {e}"))?;
    s.req_decode.push_ns(d_dec);
    let frames = response_frames(
        request,
        &reply.rows,
        &reply.columns,
        reply.simulated_seconds,
    );
    let (encoded, d_enc) = log.time("probe.proto.response_encode", under, request, || {
        frames.iter().map(Response::encode).collect::<Vec<_>>()
    });
    s.resp_encode.push_ns(d_enc);
    s.resp_bytes
        .push(encoded.iter().map(Vec::len).sum::<usize>() as f64);
    let (decoded, d_rdec) = log.time("probe.proto.response_decode", under, request, || {
        encoded
            .iter()
            .map(|b| Response::decode(b))
            .collect::<Result<Vec<_>, _>>()
    });
    decoded.map_err(|e| format!("response decode: {e}"))?;
    s.resp_decode.push_ns(d_rdec);
    let codec_ns = (d_enc_req + d_dec + d_enc + d_rdec) as f64;

    Ok(d_net as f64 - codec_ns)
}

/// Depths 1–3 and the probes of one request, all in this process.
#[allow(clippy::too_many_arguments)]
fn replay_local(
    stack: &Stack,
    plan: &ReplayPlan<'_>,
    r: usize,
    root: SpanId,
    request: u64,
    wire_ns: f64,
    session: &robust_qo::Session,
    exec_options: &dyn Fn() -> ExecOptions,
    log: &mut SpanLog,
    s: &mut ReadSeries,
) -> Result<(), String> {
    let engine: &Engine = stack.engine();
    let under = Some(root);

    // Depth 1: through admission and the pool.
    let q1 = (plan.query_at)(1, r);
    let (outcome, d_service) = log.time("service.run", under, request, || session.run(&q1));
    outcome.map_err(|e| e.to_string())?;

    // Depth 2: the engine alone.
    let q2 = (plan.query_at)(2, r);
    let opts = exec_options();
    let (ran, d_engine) = log.time("engine.run", under, request, || engine.run_opts(&q2, &opts));
    ran.map_err(|e| e.to_string())?;

    // Depth 3: what Engine::run_opts does, one public call at a time.
    let q3 = (plan.query_at)(3, r);
    let opts = exec_options();
    let leaves = log.open("engine.leaves", under, request);
    let inside = Some(leaves);
    let mut own_optimize_ns = 0;
    let (fingerprint, d) = log.time("engine.fingerprint", inside, request, || {
        engine.fingerprint(&q3)
    });
    s.fingerprint.push_ns(d);
    let cache = engine.plan_cache();
    let (cached, _) = log.time("plancache.get", inside, request, || cache.get(&fingerprint));
    let missed = cached.is_none();
    let planned = match cached {
        Some(planned) => planned,
        None => {
            let (optimizer, d_build) =
                log.time("optimizer.build", inside, request, || engine.optimizer());
            let (planned, d_opt) = log.time("optimizer.optimize", inside, request, || {
                optimizer.optimize_with(&q3, engine.selection())
            });
            own_optimize_ns = d_build + d_opt;
            Arc::new(planned)
        }
    };
    let catalog = engine.catalog();
    let (executed, d) = log.time("exec.execute", inside, request, || {
        try_execute_with(&planned.plan, &catalog, engine.params(), &opts)
    });
    executed.map_err(|e| format!("execute stopped: {e}"))?;
    s.execute.push_ns(d);
    if missed {
        log.time("plancache.insert", inside, request, || {
            cache.insert_shared(fingerprint.clone(), Arc::clone(&planned))
        });
    }
    // What the leaf calls cover of the re-enactment; the rest of it is
    // this file's own glue between them.
    let leaf_ns = log.close(leaves) - log.self_time_ns(leaves);

    // Probes: children of the request, outside every sum above.
    let (hit, d) = log.time("probe.plancache.get_hit", under, request, || {
        cache.get(&fingerprint)
    });
    if hit.is_some() {
        s.get_hit.push_ns(d);
    }
    let cold = (plan.cold_point)(r);
    let cold_fp = engine.fingerprint(&cold);
    let (miss, d) = log.time("probe.plancache.get_miss", under, request, || {
        cache.get(&cold_fp)
    });
    if miss.is_none() {
        s.get_miss.push_ns(d);
    }
    let (optimizer, d) = log.time("probe.optimizer.build", under, request, || {
        engine.optimizer()
    });
    s.optimizer_build.push_ns(d);
    let (cold_plan, d) = log.time("probe.optimizer.optimize", under, request, || {
        optimizer.optimize_with(&cold, engine.selection())
    });
    s.optimize_cold.push_ns(d);
    let (_, d) = log.time("probe.plancache.insert", under, request, || {
        cache.insert_shared(cold_fp, Arc::new(cold_plan))
    });
    s.cache_insert.push_ns(d);
    let join3 = join3_probe(r as u64);
    let (_, d) = log.time("probe.optimizer.optimize_join3", under, request, || {
        optimizer.optimize_with(&join3, engine.selection())
    });
    s.optimize_join3.push_ns(d);

    let (timed, tally) = timed_optimizer(engine);
    let (_, d) = log.time("probe.core.estimate", under, request, || {
        timed.optimize_with(&cold, engine.selection())
    });
    let calls = tally.calls.load(Ordering::Relaxed);
    let est_ns = tally.ns.load(Ordering::Relaxed) as f64;
    if calls > 0 && d > 0 {
        s.estimate_per_call.push(est_ns / calls as f64);
        s.estimate_calls.push(calls as f64);
        s.estimate_share.push(est_ns / d as f64);
    }

    let (analyzed, _) = log.time("probe.exec.analyze", under, request, || {
        engine.analyze_quiet(&q3, &opts)
    });
    let analyzed = analyzed.map_err(|e| format!("analyze stopped: {e}"))?;
    let mut wall = OpWall::default();
    op_wall(&analyzed.metrics, &mut wall);
    s.scan.push(wall.scan_ns);
    s.join.push(wall.join_ns);
    s.agg.push(wall.agg_ns);
    s.leaf_rows_in += wall.leaf_rows_in;
    s.result_rows += analyzed.outcome.rows.len() as u64;
    s.cost.absorb(&analyzed.metrics.cost);

    s.service.push_ns(d_service);
    s.engine.push_ns(d_engine);
    s.leaves.push_ns(leaf_ns);
    s.own_optimize.push_ns(own_optimize_ns);
    s.net_self.push(wire_ns - d_service as f64);
    s.service_self.push(d_service as f64 - d_engine as f64);
    s.engine_self.push(d_engine as f64 - leaf_ns as f64);
    if d_engine > 0 {
        s.unattributed
            .push((d_engine as f64 - leaf_ns as f64) / d_engine as f64);
    }
    Ok(())
}

#[derive(Default)]
struct InsertSeries {
    net: Series,
    engine: Series,
    engine_self: Series,
    append: Series,
    fold: Series,
    invalidate: Series,
    encode: Series,
    decode: Series,
    seed_ms: f64,
}

/// Seeds sketches exactly as `Engine::insert_rows` does on a table's
/// first streamed batch, without publishing them.
fn seed_sketches(catalog: &Catalog, table: &str) -> TableSketches {
    TableSketches::seeded_from_table(
        catalog.table(table).expect("table exists"),
        catalog.partitioning(table).map(Arc::as_ref),
        DEFAULT_PRECISION,
        500,
        0xD5,
    )
}

fn replay_inserts(
    stack: &Stack,
    plan: &ReplayPlan<'_>,
    net: &mut NetClient,
    session: &robust_qo::Session,
    log: &mut SpanLog,
    failures: &mut Vec<String>,
) -> InsertSeries {
    const TABLE: &str = "lineitem";
    let engine: &Engine = stack.engine();
    let mut s = InsertSeries::default();
    let refill = |failures: &mut Vec<String>| {
        for q in plan.refill {
            if let Err(e) = session.run(q) {
                failures.push(format!("refill: {e}"));
            }
        }
    };

    let catalog = engine.catalog();
    let (_, d) = log.time("probe.stats.sketch_seed", None, REPLAY_REQUEST_BASE, || {
        seed_sketches(&catalog, TABLE)
    });
    s.seed_ms = d as f64 / 1e6;
    drop(catalog);

    let mut next_batch = 0;
    let mut batch = || {
        next_batch += 1;
        (plan.batch_at)(next_batch - 1)
    };
    for round in 0..plan.insert_rounds {
        let request = REPLAY_REQUEST_BASE + (1 << 20) + round as u64;
        let root = log.open("replay.insert", None, request);
        let under = Some(root);

        // Depth 0: over the wire.
        refill(failures);
        let rows = batch();
        let insert = Request::Insert {
            id: request,
            table: TABLE.to_string(),
            rows: rows.clone(),
        };
        let (bytes, d) = log.time("probe.proto.insert_encode", under, request, || {
            insert.encode()
        });
        s.encode.push_ns(d);
        let (decoded, d) = log.time("probe.proto.insert_decode", under, request, || {
            Request::decode(&bytes)
        });
        if let Err(e) = decoded {
            failures.push(format!("insert decode: {e}"));
        }
        s.decode.push_ns(d);
        let before = engine
            .catalog()
            .table(TABLE)
            .expect("table exists")
            .num_rows();
        let (sent, d) = log.time("net.insert_roundtrip", under, request, || {
            net.insert(TABLE, rows)
        });
        match sent {
            Ok((inserted, total))
                if inserted as usize == crate::queries::BATCH_ROWS
                    && total as usize == before + crate::queries::BATCH_ROWS => {}
            other => failures.push(format!("replay insert over the wire: {other:?}")),
        }
        s.net.push_ns(d);

        // Depth 2: the engine alone.
        refill(failures);
        let rows = batch();
        let (done, d_engine) = log.time("engine.insert", under, request, || {
            engine.insert_rows(TABLE, &rows)
        });
        if let Err(e) = done {
            failures.push(format!("replay insert: {e}"));
        }
        s.engine.push_ns(d_engine);

        // Depth 3: the calls Engine::insert_rows makes, on private
        // copies, so nothing but the invalidation is published.
        refill(failures);
        let rows = batch();
        let leaves = log.open("engine.insert_leaves", under, request);
        let inside = Some(leaves);
        let snapshot = engine.catalog();
        let (assignments, d_append) = log.time("storage.append", inside, request, || {
            let mut successor = Catalog::clone(&snapshot);
            successor.append_rows(TABLE, &rows)
        });
        let assignments = assignments.unwrap_or_else(|e| {
            failures.push(format!("append_rows: {e}"));
            vec![0; rows.len()]
        });
        let current = engine
            .sketches_for(TABLE)
            .expect("an earlier round's insert seeded the sketches");
        let (_, d_fold) = log.time("stats.sketch_fold", inside, request, || {
            let mut sketches = TableSketches::clone(&current);
            for (row, &p) in rows.iter().zip(&assignments) {
                sketches.observe(p, row);
            }
            sketches
        });
        let (_, d_inval) = log.time("plancache.invalidate_table", inside, request, || {
            engine.plan_cache().invalidate_table(TABLE)
        });
        let leaf_ns = log.close(leaves) - log.self_time_ns(leaves);
        s.append.push_ns(d_append);
        s.fold.push_ns(d_fold);
        s.invalidate.push_ns(d_inval);
        s.engine_self.push(d_engine as f64 - leaf_ns as f64);
        log.close(root);
    }
    s
}
