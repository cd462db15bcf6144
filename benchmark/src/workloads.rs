//! The five workloads: how each is set up, verified, driven and checked.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use robust_qo::exec::ExecOptions;
use robust_qo::optimizer::Query;
use robust_qo::storage::{TableBuilder, Value};
use robust_qo::RobustDb;

use crate::host::ProcessUsage;
use crate::layers::{self, ReplayPlan};
use crate::openloop::{self, WallClock};
use crate::oracle::{self, AdhocOracle, PrefixAnswers};
use crate::queries::{self, AdhocSequence, BATCH_ROWS};
use crate::span::SpanLog;
use crate::stack::{tpch, Client, Reply, SetupPhases, Stack};
use crate::stats::{self, median, percentile};
use crate::util::{InputHash, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NetPoint,
    JoinHeavy,
    AdhocPlan,
    IngestMixed,
    IngestWrite,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// TPC-H-like scale factor (1.0 = 6 M `lineitem` rows).
    pub scale: f64,
    /// Closed-loop reading clients; with the writer, never more than the
    /// host's two cores.
    pub clients: usize,
    /// Requests replayed per depth in the traced run.
    pub replay_reads: usize,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "net_point",
        why: "cached sub-ms point queries over 2 TCP connections: per-request fixed cost (socket, frames, thread hops) dominates",
        kind: Kind::NetPoint,
        scale: 0.02,
        clients: 2,
        replay_reads: 96,
    },
    Spec {
        name: "join_heavy",
        why: "cached 3-way and grouped joins on 1 in-process session, net bypassed: hash/merge join, aggregation and row building dominate",
        kind: Kind::JoinHeavy,
        scale: 0.05,
        clients: 1,
        replay_reads: 24,
    },
    Spec {
        name: "adhoc_plan",
        why: "never-repeating queries on 1 in-process session: every request misses the plan cache, so estimation and planning dominate",
        kind: Kind::AdhocPlan,
        scale: 0.005,
        clients: 1,
        replay_reads: 200,
    },
    Spec {
        name: "ingest_mixed",
        why: "open-loop 4 batches/s x 256 rows on one TCP connection beside a closed-loop TCP reader: reads measured while writes retire their plans",
        kind: Kind::IngestMixed,
        scale: 0.02,
        clients: 1,
        replay_reads: 48,
    },
    Spec {
        name: "ingest_write",
        why: "closed-loop 256-row insert batches on one TCP connection, no reader: the cost of one append as the table grows",
        kind: Kind::IngestWrite,
        scale: 0.02,
        clients: 1,
        replay_reads: 48,
    },
];

/// Batches per second of the open-loop writer.
const WRITER_RATE_HZ: u64 = 4;
const SETUP_REPS: usize = 5;
const ADHOC_WARMUP: u64 = 200;
/// Ten whole cycles of the sequence's 131 receipt offsets, so every seed's
/// verification list holds the same mix of plans.
const ADHOC_VERIFIED: u64 = 1310;
const INSERT_ROUNDS: usize = 6;
const MAX_REPORTED_FAILURES: usize = 8;

pub type Metric = (&'static str, f64, &'static str);

pub struct RunOutput {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub spans: Option<SpanLog>,
}

/// Failures of one client or one check, counted and sampled.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_REPORTED_FAILURES {
            self.messages.push(message);
        }
    }

    fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < MAX_REPORTED_FAILURES {
                self.messages.push(m);
            }
        }
    }
}

/// Everything generated from `--seed` before anything is timed.
struct Inputs {
    menu: Vec<Query>,
    adhoc: AdhocSequence,
    /// Per client: the order it cycles the menu in.
    orders: Vec<Vec<usize>>,
    /// Hash of the above; batches are fed in as they are generated.
    hash: InputHash,
}

fn generate(spec: &Spec, seed: u64) -> Inputs {
    let menu = match spec.kind {
        Kind::NetPoint => queries::net_point_menu(seed),
        Kind::JoinHeavy => queries::join_heavy_menu(seed),
        Kind::AdhocPlan => Vec::new(),
        Kind::IngestMixed | Kind::IngestWrite => queries::ingest_reader_menu(seed),
    };
    let adhoc = AdhocSequence::new(seed);
    let orders: Vec<Vec<usize>> = (0..spec.clients)
        .map(|c| {
            let mut order: Vec<usize> = (0..menu.len()).collect();
            Rng::fork(seed, 100 + c as u64).shuffle(&mut order);
            order
        })
        .collect();
    let mut hash = InputHash::default();
    hash.feed(spec.name.as_bytes());
    hash.feed_debug(&menu);
    hash.feed_debug(&orders);
    if spec.kind == Kind::AdhocPlan {
        for i in 0..4096 {
            hash.feed_debug(&adhoc.params(i));
        }
    }
    Inputs {
        menu,
        adhoc,
        orders,
        hash,
    }
}

fn connect(spec: &Spec, stack: &Stack) -> Vec<Client> {
    (0..spec.clients)
        .map(|_| match spec.kind {
            Kind::JoinHeavy | Kind::AdhocPlan => stack.session(),
            _ => stack.connect(),
        })
        .collect()
}

/// Lets plan caches fill and lazy set-up finish; part of `setup_s`.
fn warm_up(spec: &Spec, inputs: &Inputs, clients: &mut [Client]) -> Result<(), String> {
    match spec.kind {
        Kind::AdhocPlan => {
            for i in 0..ADHOC_WARMUP {
                clients[0].run(&inputs.adhoc.query(i))?;
            }
        }
        _ => {
            // The plan cache is shared: the first client fills it, the
            // others only need their own connection and threads warm.
            for (c, client) in clients.iter_mut().enumerate() {
                let share = if c == 0 { inputs.menu.len() } else { 1 };
                for query in &inputs.menu[..share] {
                    client.run(query)?;
                }
            }
        }
    }
    Ok(())
}

/// What the read loop asks next and how it judges the answer.
trait Source {
    fn next(&mut self, i: u64) -> &Query;
    fn check(&mut self, i: u64, reply: &Reply) -> Result<(), String>;
    /// Requests after which the source's mix of queries repeats.
    fn cycle(&self) -> u64 {
        1
    }
}

/// Cycles a menu; every reply must equal the verification pass's, rows
/// and simulated cost bit for bit.
struct MenuSource<'a> {
    menu: &'a [Query],
    reference: &'a [Reply],
    order: &'a [usize],
    current: usize,
}

impl Source for MenuSource<'_> {
    fn next(&mut self, i: u64) -> &Query {
        self.current = self.order[i as usize % self.order.len()];
        &self.menu[self.current]
    }

    fn cycle(&self) -> u64 {
        self.order.len() as u64
    }

    fn check(&mut self, _: u64, reply: &Reply) -> Result<(), String> {
        let reference = &self.reference[self.current];
        if !oracle::rows_identical(&reply.rows, &reference.rows) {
            return Err(format!(
                "menu query {}: rows differ from the reference",
                self.current
            ));
        }
        if reply.simulated_seconds.to_bits() != reference.simulated_seconds.to_bits() {
            return Err(format!(
                "menu query {}: simulated cost {} differs from the reference {}",
                self.current, reply.simulated_seconds, reference.simulated_seconds
            ));
        }
        Ok(())
    }
}

/// Walks the never-repeating sequence; every reply is checked against the
/// benchmark's own count and sum.
struct AdhocSource<'a> {
    sequence: &'a AdhocSequence,
    oracle: &'a AdhocOracle,
    first: u64,
    query: Query,
}

impl Source for AdhocSource<'_> {
    fn next(&mut self, i: u64) -> &Query {
        self.query = self.sequence.query(self.first + i);
        &self.query
    }

    fn check(&mut self, i: u64, reply: &Reply) -> Result<(), String> {
        let (start, len, offset) = self.sequence.params(self.first + i);
        let (count, quantity) = self.oracle.answer(start, len, offset);
        let expected = [vec![Value::Int(count), Value::Float(quantity)]];
        if oracle::rows_identical(&reply.rows, &expected) {
            Ok(())
        } else {
            Err(format!(
                "adhoc query {}: got {:?}, expected {expected:?}",
                self.first + i,
                reply.rows
            ))
        }
    }
}

/// The reader beside the writer: `lineitem` counts must be the answer on
/// some prefix of the batches, everything else must not move at all.
struct IngestReader<'a> {
    menu: &'a [Query],
    reference: &'a [Reply],
    prefixes: &'a [Option<PrefixAnswers>],
    order: &'a [usize],
    sent: &'a AtomicUsize,
    acked: &'a AtomicUsize,
    current: usize,
    acked_before: usize,
}

impl Source for IngestReader<'_> {
    fn next(&mut self, i: u64) -> &Query {
        self.current = self.order[i as usize % self.order.len()];
        self.acked_before = self.acked.load(Ordering::SeqCst);
        &self.menu[self.current]
    }

    fn cycle(&self) -> u64 {
        self.order.len() as u64
    }

    fn check(&mut self, _: u64, reply: &Reply) -> Result<(), String> {
        let sent = self.sent.load(Ordering::SeqCst);
        match &self.prefixes[self.current] {
            None => {
                if oracle::rows_identical(&reply.rows, &self.reference[self.current].rows) {
                    Ok(())
                } else {
                    Err(format!(
                        "reader query {} moved though its table never changed",
                        self.current
                    ))
                }
            }
            Some(prefix) => {
                let count = match reply.rows.as_slice() {
                    [row] if row.len() == 1 => row[0].as_int(),
                    other => {
                        return Err(format!(
                            "reader query {}: malformed reply {other:?}",
                            self.current
                        ))
                    }
                };
                if prefix.admits(count, self.acked_before, sent) {
                    Ok(())
                } else {
                    Err(format!(
                        "reader query {}: count {count} is the answer on no prefix of batches {}..={sent}",
                        self.current, self.acked_before
                    ))
                }
            }
        }
    }
}

/// What one loop measured: every latency, split into the recorded and
/// the unrecorded half of a traced run, and when the last reply came.
struct Timings {
    latency_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    finished: Instant,
}

impl Timings {
    fn starting(at: Instant) -> Self {
        Timings {
            latency_ms: Vec::new(),
            traced_ms: Vec::new(),
            untraced_ms: Vec::new(),
            finished: at,
        }
    }

    fn push(&mut self, start: Instant, end: Instant, traced: bool) {
        let ms = (end - start).as_secs_f64() * 1e3;
        self.latency_ms.push(ms);
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.untraced_ms.push(ms);
        }
        self.finished = end;
    }

    fn absorb(&mut self, other: Timings) {
        self.latency_ms.extend(other.latency_ms);
        self.traced_ms.extend(other.traced_ms);
        self.untraced_ms.extend(other.untraced_ms);
        self.finished = self.finished.max(other.finished);
    }
}

struct ClientLog {
    timings: Timings,
    tally: Tally,
    spans: SpanLog,
}

/// One closed-loop client: the next request goes out when the previous
/// reply has been read and checked.  In a traced run every other cycle of
/// the source is recorded as spans, so the two halves hold the same mix of
/// queries and their difference is the tracing overhead.
fn read_loop(
    client: &mut Client,
    source: &mut dyn Source,
    deadline: Instant,
    trace: bool,
    origin: Instant,
    client_index: u64,
) -> ClientLog {
    let mut log = ClientLog {
        timings: Timings::starting(origin),
        tally: Tally::default(),
        spans: SpanLog::new(origin),
    };
    let cycle = source.cycle();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let query = source.next(i);
        let start = Instant::now();
        let result = client.run(query);
        let end = Instant::now();
        let traced = trace && (i / cycle) % 2 == 1;
        log.timings.push(start, end, traced);
        if traced {
            log.spans
                .record("request", start, end, (client_index << 32) | i);
        }
        let verdict = result.and_then(|reply| source.check(i, &reply));
        log.tally.attempted += 1;
        if let Err(message) = verdict {
            log.tally.fail(message);
        }
        i += 1;
    }
    log
}

struct WriterLog {
    /// Due instant (open loop) or send instant (closed loop) to `InsertOk`.
    /// The open loop's spans are all written after the fact, so its
    /// timings have no recorded half.
    timings: Timings,
    /// Open loop only: how late each batch was sent.
    late_ms: Vec<f64>,
    tally: Tally,
    spans: SpanLog,
    /// Every acknowledged batch, in order, for the twin check.
    batches: Vec<Vec<Vec<Value>>>,
}

fn check_insert_ok(
    tally: &mut Tally,
    index: usize,
    base_rows: usize,
    result: Result<(u64, u64), robust_qo::ClientError>,
) {
    tally.attempted += 1;
    match result {
        Ok((inserted, total)) => {
            let expected = (base_rows + (index + 1) * BATCH_ROWS) as u64;
            if inserted != BATCH_ROWS as u64 || total != expected {
                tally.fail(format!(
                    "batch {index}: InsertOk({inserted}, {total}), expected ({BATCH_ROWS}, {expected})"
                ));
            }
        }
        Err(e) => tally.fail(format!("batch {index}: {e}")),
    }
}

/// The open-loop writer: batch `i` is due at `i / rate` seconds.
#[allow(clippy::too_many_arguments)]
fn open_loop_writer(
    client: &mut Client,
    batches: &[Vec<Vec<Value>>],
    base_rows: usize,
    sent: &AtomicUsize,
    acked: &AtomicUsize,
    trace: bool,
    origin: Instant,
) -> WriterLog {
    let mut tally = Tally::default();
    // `insert` consumes its rows; the copies are made before the clock starts.
    let mut outgoing = batches.to_vec();
    let started = Instant::now();
    let mut clock = WallClock::starting_now();
    let net = client.net();
    let samples = openloop::run(
        &mut clock,
        batches.len(),
        1_000_000_000 / WRITER_RATE_HZ,
        |_, i| {
            let rows = std::mem::take(&mut outgoing[i]);
            sent.fetch_add(1, Ordering::SeqCst);
            let result = net.insert("lineitem", rows);
            acked.fetch_add(1, Ordering::SeqCst);
            check_insert_ok(&mut tally, i, base_rows, result);
        },
    );
    let mut spans = SpanLog::new(origin);
    if trace {
        for (i, s) in samples.iter().enumerate() {
            spans.record(
                "insert",
                started + Duration::from_nanos(s.sent_ns),
                started + Duration::from_nanos(s.done_ns),
                (1 << 36) | i as u64,
            );
        }
    }
    let mut timings = Timings::starting(started);
    timings.latency_ms = samples
        .iter()
        .map(|s| s.latency_ns() as f64 / 1e6)
        .collect();
    timings.finished = started + Duration::from_nanos(samples.last().map_or(0, |s| s.done_ns));
    WriterLog {
        timings,
        late_ms: samples
            .iter()
            .map(|s| s.lateness_ns() as f64 / 1e6)
            .collect(),
        tally,
        spans,
        batches: batches.to_vec(),
    }
}

/// The closed-loop writer: the next batch goes out when the previous one
/// is acknowledged.  Batches are generated between requests, untimed.
#[allow(clippy::too_many_arguments)]
fn closed_loop_writer(
    client: &mut Client,
    seed: u64,
    (orders, parts): (i64, i64),
    base_rows: usize,
    deadline: Instant,
    trace: bool,
    origin: Instant,
    hash_into: &mut InputHash,
) -> WriterLog {
    let mut log = WriterLog {
        timings: Timings::starting(origin),
        late_ms: Vec::new(),
        tally: Tally::default(),
        spans: SpanLog::new(origin),
        batches: Vec::new(),
    };
    let net = client.net();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let rows = queries::ingest_batch(seed, i as u64, orders, parts);
        if i < 16 {
            hash_into.feed_debug(&rows);
        }
        log.batches.push(rows.clone());
        let start = Instant::now();
        let result = net.insert("lineitem", rows);
        let end = Instant::now();
        let traced = trace && i % 2 == 1;
        log.timings.push(start, end, traced);
        if traced {
            log.spans.record("insert", start, end, (1 << 36) | i as u64);
        }
        check_insert_ok(&mut log.tally, i, base_rows, result);
        i += 1;
    }
    log
}

/// Streamed table against a twin built in one shot from the same rows:
/// same row count, same full-table aggregates, bit for bit.
fn twin_check(spec: &Spec, stack: &Stack, batches: &[Vec<Vec<Value>>], tally: &mut Tally) {
    let data = tpch(spec.scale);
    let base = &data.lineitem;
    let total = base.num_rows() + batches.len() * BATCH_ROWS;
    let mut builder = TableBuilder::new("lineitem", base.schema().clone(), total);
    for rid in 0..base.num_rows() as u32 {
        builder.push_row(&base.row(rid));
    }
    for row in batches.iter().flatten() {
        builder.push_row(row);
    }
    let twin = RobustDb::new(
        robust_qo::datagen::TpchData {
            orders: data.orders,
            lineitem: builder.finish(),
            part: data.part,
        }
        .into_catalog(),
    );
    // Both sides run serially on this thread: a float sum is only
    // bit-stable for one summation order.
    let query = queries::table_check_query();
    let expected = twin.run(&query);
    let streamed_rows = stack
        .engine()
        .catalog()
        .table("lineitem")
        .expect("table exists")
        .num_rows();
    tally.expect(streamed_rows == total, || {
        format!("streamed table has {streamed_rows} rows, its one-shot twin {total}")
    });
    match stack.engine().run_opts(&query, &ExecOptions::default()) {
        Ok(streamed) => tally.expect(
            oracle::rows_identical(&streamed.rows, &expected.rows),
            || {
                format!(
                    "streamed table answers {:?}, its one-shot twin {:?}",
                    streamed.rows, expected.rows
                )
            },
        ),
        Err(e) => tally.expect(false, || format!("table check query: {e}")),
    }
}

/// The measured stack with its clients, and what five set-ups cost.
struct SetUp {
    stack: Stack,
    clients: Vec<Client>,
    seconds: Vec<f64>,
    phases: Vec<SetupPhases>,
}

/// Set-up, several times over so `setup_s` is a median; the last stack is
/// the one measured.
fn set_up(spec: &Spec, inputs: &Inputs, tally: &mut Tally) -> SetUp {
    let mut seconds = Vec::new();
    let mut phases = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let (stack, phase) = Stack::build(spec.scale);
        let mut clients = connect(spec, &stack);
        if let Err(e) = warm_up(spec, inputs, &mut clients) {
            tally.expect(false, || format!("warm-up: {e}"));
        }
        seconds.push(t.elapsed().as_secs_f64());
        phases.push(phase);
        kept = Some((stack, clients));
    }
    let (stack, clients) = kept.expect("at least one set-up");
    SetUp {
        stack,
        clients,
        seconds,
        phases,
    }
}

/// What the verification pass establishes.
struct Verified {
    /// Per menu query: the reply every later reply must equal.
    reference: Vec<Reply>,
    /// Σ simulated seconds over the verification list.
    sim_cost_s: f64,
    /// First index of the ad-hoc sequence nobody has asked yet.
    next_adhoc: u64,
}

/// The workload's fixed list, through the workload's own path, against
/// the brute-force oracle.
fn verify(
    spec: &Spec,
    inputs: &Inputs,
    stack: &Stack,
    client: &mut Client,
    adhoc_oracle: &AdhocOracle,
    tally: &mut Tally,
) -> Verified {
    let mut verified = Verified {
        reference: Vec::new(),
        sim_cost_s: 0.0,
        next_adhoc: 0,
    };
    if spec.kind == Kind::AdhocPlan {
        let mut source = AdhocSource {
            sequence: &inputs.adhoc,
            oracle: adhoc_oracle,
            first: ADHOC_WARMUP,
            query: inputs.adhoc.query(0),
        };
        for i in 0..ADHOC_VERIFIED {
            let verdict = client.run(source.next(i)).and_then(|reply| {
                verified.sim_cost_s += reply.simulated_seconds;
                // Every fiftieth: the fast oracle itself, against plain
                // row-by-row counting.
                if i % 50 == 0 {
                    let query = inputs.adhoc.query(ADHOC_WARMUP + i);
                    if !oracle::counts_agree(&stack.base, &query, &reply.rows) {
                        return Err(format!("adhoc query {i}: count disagrees with brute force"));
                    }
                }
                source.check(i, &reply)
            });
            tally.expect(verdict.is_ok(), || verdict.unwrap_err());
        }
        verified.next_adhoc = ADHOC_WARMUP + ADHOC_VERIFIED;
        return verified;
    }
    for (k, query) in inputs.menu.iter().enumerate() {
        let reply = client.run(query).unwrap_or_else(|e| {
            tally.expect(false, || format!("menu query {k}: {e}"));
            Reply {
                rows: Vec::new(),
                simulated_seconds: 0.0,
            }
        });
        tally.expect(
            oracle::counts_agree(&stack.base, query, &reply.rows),
            || format!("menu query {k}: COUNT(*) disagrees with brute force"),
        );
        verified.sim_cost_s += reply.simulated_seconds;
        verified.reference.push(reply);
    }
    verified
}

/// Per menu query of the reader beside the open-loop writer: the answers
/// the batch sequence allows, or `None` where the query never reads the
/// table being appended to.
fn prefix_answers(
    stack: &Stack,
    menu: &[Query],
    reference: &[Reply],
    batches: &[Vec<Vec<Value>>],
) -> Vec<Option<PrefixAnswers>> {
    let lineitem = stack.base.table("lineitem").expect("table exists");
    menu.iter()
        .zip(reference)
        .map(|(query, base)| {
            let predicate = query.predicate_for("lineitem")?;
            let per_batch: Vec<i64> = batches
                .iter()
                .map(|rows| oracle::matching(lineitem, predicate, rows))
                .collect();
            let base_count = base.rows.first().map_or(0, |row| row[0].as_int());
            Some(PrefixAnswers::new(base_count, &per_batch))
        })
        .collect()
}

/// The writer's side of an ingest workload, for the `ingest.*` metrics.
#[derive(Default)]
struct WriterSummary {
    p50_ms: f64,
    p90_ms: f64,
    batches: f64,
    late_p95_ms: f64,
}

impl WriterSummary {
    fn of(writer: &WriterLog) -> Self {
        let latency = stats::sorted(writer.timings.latency_ms.clone());
        let late = stats::sorted(writer.late_ms.clone());
        WriterSummary {
            p50_ms: percentile(&latency, 0.50),
            p90_ms: percentile(&latency, 0.90),
            batches: latency.len() as f64,
            late_p95_ms: if late.is_empty() {
                0.0
            } else {
                percentile(&late, 0.95)
            },
        }
    }
}

fn median_of(phases: &[SetupPhases], field: impl Fn(&SetupPhases) -> f64) -> f64 {
    median(&phases.iter().map(field).collect::<Vec<_>>())
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> RunOutput {
    let inputs = generate(spec, seed);
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut hash = inputs.hash;

    let SetUp {
        stack,
        mut clients,
        seconds: setup_s,
        phases,
    } = set_up(spec, &inputs, &mut tally);
    let rows_of = |table: &str| stack.base.table(table).expect("table exists").num_rows();
    let base_rows = rows_of("lineitem");
    let (orders, parts) = (rows_of("orders") as i64, rows_of("part") as i64);

    let adhoc_oracle = AdhocOracle::new(stack.base.table("lineitem").expect("table exists"));
    let Verified {
        reference,
        sim_cost_s,
        next_adhoc,
    } = verify(
        spec,
        &inputs,
        &stack,
        &mut clients[0],
        &adhoc_oracle,
        &mut tally,
    );

    // The open-loop writer's batches and the answers they allow.
    let mixed_batches: Vec<Vec<Vec<Value>>> = if spec.kind == Kind::IngestMixed {
        (0..seconds * WRITER_RATE_HZ)
            .map(|i| queries::ingest_batch(seed, i, orders, parts))
            .collect()
    } else {
        Vec::new()
    };
    for batch in mixed_batches.iter().take(16) {
        hash.feed_debug(batch);
    }
    let prefixes = if spec.kind == Kind::IngestMixed {
        prefix_answers(&stack, &inputs.menu, &reference, &mixed_batches)
    } else {
        Vec::new()
    };

    let cache_before = stack.engine().cache_stats();
    let usage_before = ProcessUsage::now();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs(seconds);
    let (sent, acked) = (AtomicUsize::new(0), AtomicUsize::new(0));

    // The measured window.
    let mut reader_logs: Vec<ClientLog> = Vec::new();
    let mut writer_log: Option<WriterLog> = None;
    match spec.kind {
        Kind::NetPoint | Kind::JoinHeavy => {
            reader_logs = std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(c, client)| {
                        let mut source = MenuSource {
                            menu: &inputs.menu,
                            reference: &reference,
                            order: &inputs.orders[c],
                            current: 0,
                        };
                        scope.spawn(move || {
                            read_loop(client, &mut source, deadline, trace, origin, c as u64)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
        }
        Kind::AdhocPlan => {
            let mut source = AdhocSource {
                sequence: &inputs.adhoc,
                oracle: &adhoc_oracle,
                first: next_adhoc,
                query: inputs.adhoc.query(0),
            };
            let log = read_loop(&mut clients[0], &mut source, deadline, trace, origin, 0);
            reader_logs.push(log);
        }
        Kind::IngestMixed => {
            let mut writer_client = stack.connect();
            let (reader, writer) = std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    open_loop_writer(
                        &mut writer_client,
                        &mixed_batches,
                        base_rows,
                        &sent,
                        &acked,
                        trace,
                        origin,
                    )
                });
                let mut source = IngestReader {
                    menu: &inputs.menu,
                    reference: &reference,
                    prefixes: &prefixes,
                    order: &inputs.orders[0],
                    sent: &sent,
                    acked: &acked,
                    current: 0,
                    acked_before: 0,
                };
                let reader = read_loop(&mut clients[0], &mut source, deadline, trace, origin, 0);
                (reader, writer.join().expect("writer thread"))
            });
            reader_logs.push(reader);
            writer_log = Some(writer);
        }
        Kind::IngestWrite => {
            writer_log = Some(closed_loop_writer(
                &mut clients[0],
                seed,
                (orders, parts),
                base_rows,
                deadline,
                trace,
                origin,
                &mut hash,
            ));
        }
    }
    let usage = ProcessUsage::now().since(&usage_before);
    let cache_after = stack.engine().cache_stats();

    // After the window: every prefix answer has settled on the last one,
    // the table equals its twin, and the service is quiescent and clean.
    for (k, prefix) in prefixes.iter().enumerate() {
        let Some(prefix) = prefix else { continue };
        let settled = clients[0].run(&inputs.menu[k]);
        tally.expect(
            matches!(&settled, Ok(r) if r.rows.len() == 1 && r.rows[0][0].as_int() == prefix.after_all()),
            || format!("reader query {k} after all batches: {settled:?}, expected {}", prefix.after_all()),
        );
    }
    if let Some(writer) = &writer_log {
        twin_check(spec, &stack, &writer.batches, &mut tally);
    }
    let service_stats = stack.service.stats();
    let net_stats = stack.server.stats();
    let final_rows = stack
        .engine()
        .catalog()
        .table("lineitem")
        .expect("table exists")
        .num_rows();
    tally.expect(service_stats.slots_balanced(), || {
        format!("slots leaked: {service_stats}")
    });
    tally.expect(service_stats.panicked == 0, || {
        format!("queries panicked: {service_stats}")
    });
    tally.expect(
        net_stats.protocol_errors == 0 && net_stats.queries_err == 0 && net_stats.inserts_err == 0,
        || format!("wire errors: {net_stats}"),
    );
    if service_stats.queued > 0 {
        notes.push(format!(
            "{} requests waited for a slot",
            service_stats.queued
        ));
    }

    // End-to-end numbers: the operation a user of this workload waits for
    // — the reader's queries, or on `ingest_write` the writer's batches.
    let writer_summary = writer_log
        .as_ref()
        .map(WriterSummary::of)
        .unwrap_or_default();
    let mut spans = SpanLog::new(origin);
    let mut measured = Timings::starting(origin);
    for log in reader_logs {
        tally.absorb(log.tally);
        spans.absorb(log.spans);
        measured.absorb(log.timings);
    }
    if let Some(writer) = writer_log {
        tally.absorb(writer.tally);
        spans.absorb(writer.spans);
        if spec.kind == Kind::IngestWrite {
            measured.absorb(writer.timings);
        }
    }
    let Timings {
        latency_ms,
        traced_ms,
        untraced_ms,
        finished,
    } = measured;
    let elapsed_s = (finished - origin).as_secs_f64();
    let latency_ms = stats::sorted(latency_ms);
    let samples = latency_ms.len();
    if stats::samples_beyond(samples, 0.95) < stats::MIN_BEYOND {
        notes.push(format!(
            "only {} samples lie beyond p95 of {samples}; the sample supports p{}",
            stats::samples_beyond(samples, 0.95),
            stats::highest_supported(samples).map_or(0.0, |p| p * 100.0)
        ));
    }
    let end_to_end = vec![
        ("throughput_qps", samples as f64 / elapsed_s, "1/s"),
        ("latency_p50_ms", percentile(&latency_ms, 0.50), "ms"),
        ("latency_p95_ms", percentile(&latency_ms, 0.95), "ms"),
        ("sim_cost_s", sim_cost_s, "sim_s"),
        ("setup_s", median(&setup_s), "s"),
    ];
    notes.push(format!("{samples} latency samples over {elapsed_s:.3} s"));
    notes.push(format!("input hash {:016x}", hash.value()));

    // The traced run's second half: layered replay, then the counts the
    // program kept of the window itself.
    let mut per_layer = Vec::new();
    if trace {
        let reads = spec.replay_reads;
        let query_at = |depth: usize, r: usize| match spec.kind {
            Kind::AdhocPlan => inputs.adhoc.query_from_end((r * 4 + depth) as u64),
            _ => inputs.menu[r % inputs.menu.len()].clone(),
        };
        // Past everything the depths above can reach.
        let cold_point = |r: usize| inputs.adhoc.query_from_end((reads * 4 + r) as u64);
        // Far past any batch a window can reach.
        let batch_at = |k: usize| queries::ingest_batch(seed, 1_000_000 + k as u64, orders, parts);
        let plan = ReplayPlan {
            reads,
            query_at: &query_at,
            cold_point: &cold_point,
            insert_rounds: INSERT_ROUNDS,
            batch_at: &batch_at,
            refill: &inputs.menu,
        };
        let report = layers::replay(&stack, &plan, &mut spans);
        for message in report.failures {
            tally.expect(false, || message);
        }
        per_layer = report.metrics;

        let overhead = if untraced_ms.is_empty() || traced_ms.is_empty() {
            0.0
        } else {
            let base = median(&untraced_ms);
            (median(&traced_ms) - base) / base
        };
        let lookups =
            (cache_after.hits - cache_before.hits) + (cache_after.misses - cache_before.misses);
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            (cache_after.hits - cache_before.hits) as f64 / lookups as f64
        };
        let rejected = service_stats.rejected_queue_full + service_stats.rejected_queue_timeout;
        let invalidated = cache_after.epoch_invalidations - cache_before.epoch_invalidations;
        per_layer.extend([
            ("net.accepted", net_stats.accepted as f64, "count"),
            (
                "net.protocol_errors",
                net_stats.protocol_errors as f64,
                "count",
            ),
            ("net.queries_ok", net_stats.queries_ok as f64, "count"),
            ("net.queries_err", net_stats.queries_err as f64, "count"),
            ("net.inserts_ok", net_stats.inserts_ok as f64, "count"),
            ("service.admitted", service_stats.admitted as f64, "count"),
            ("service.queued", service_stats.queued as f64, "count"),
            (
                "service.peak_queued",
                service_stats.peak_queued as f64,
                "count",
            ),
            ("service.rejected", rejected as f64, "count"),
            ("service.panicked", service_stats.panicked as f64, "count"),
            ("plancache.hit_rate", hit_rate, "ratio"),
            ("plancache.entries", cache_after.entries as f64, "count"),
            ("plancache.epoch_invalidations", invalidated as f64, "count"),
            (
                "storage.index_build_s",
                median_of(&phases, |p| p.index_build_s),
                "s",
            ),
            ("storage.table_rows_final", final_rows as f64, "count"),
            (
                "stats.synopsis_build_s",
                median_of(&phases, |p| p.synopsis_build_s),
                "s",
            ),
            (
                "datagen.generate_s",
                median_of(&phases, |p| p.generate_s),
                "s",
            ),
            ("process.peak_rss_mb", ProcessUsage::peak_rss_mb(), "MiB"),
            (
                "process.cpu_ms_per_query",
                usage.cpu_s * 1e3 / samples.max(1) as f64,
                "ms",
            ),
            ("process.cpu_util", usage.cpu_s / elapsed_s, "cores"),
            ("ingest.insert_p50_ms", writer_summary.p50_ms, "ms"),
            ("ingest.insert_p90_ms", writer_summary.p90_ms, "ms"),
            ("ingest.batches", writer_summary.batches, "count"),
            ("loadgen.late_p95_ms", writer_summary.late_p95_ms, "ms"),
            (
                "loadgen.input_hash",
                (hash.value() & ((1 << 48) - 1)) as f64,
                "id",
            ),
            ("loadgen.samples", samples as f64, "count"),
            ("trace.overhead_frac", overhead, "ratio"),
            ("trace.spans", spans.spans().len() as f64, "count"),
        ]);
    }

    drop(clients);
    drop(stack);
    RunOutput {
        end_to_end,
        per_layer,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.messages,
        notes,
        spans: trace.then_some(spans),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.001;

    fn references(menu: &[Query], client: &mut Client) -> Vec<Reply> {
        menu.iter()
            .map(|q| client.run(q).expect("query runs"))
            .collect()
    }

    #[test]
    fn a_corrupted_reference_row_fails_exactly_the_requests_that_return_it() {
        let (stack, _) = Stack::build(TINY);
        let menu = queries::join_heavy_menu(1);
        let mut client = stack.session();
        let mut reference = references(&menu, &mut client);
        let order: Vec<usize> = (0..menu.len()).collect();
        let origin = Instant::now();
        let mut run = |reference: &[Reply]| {
            let mut source = MenuSource {
                menu: &menu,
                reference,
                order: &order,
                current: 0,
            };
            let deadline = Instant::now() + Duration::from_millis(300);
            read_loop(&mut client, &mut source, deadline, false, origin, 0)
        };

        let clean = run(&reference);
        assert!(
            clean.tally.attempted >= menu.len() as u64,
            "at least one cycle ran"
        );
        assert_eq!(clean.tally.failed, 0, "{:?}", clean.tally.messages);

        // One expected row, one column, off by one.
        let Value::Int(n) = reference[2].rows[0][0] else {
            panic!("COUNT(*) is an integer")
        };
        reference[2].rows[0][0] = Value::Int(n + 1);
        let corrupted = run(&reference);
        assert!(corrupted.tally.failed > 0);
        assert!(
            corrupted.tally.failed < corrupted.tally.attempted,
            "only query 2 is affected"
        );
        assert!(corrupted
            .tally
            .messages
            .iter()
            .all(|m| m.contains("menu query 2")));
    }

    #[test]
    fn a_reader_beside_the_writer_passes_on_whole_batches_and_fails_on_a_torn_one() {
        let spec = Spec {
            scale: TINY,
            ..WORKLOADS[3]
        };
        assert_eq!(spec.kind, Kind::IngestMixed);
        let (stack, _) = Stack::build(spec.scale);
        let lineitem = stack.base.table("lineitem").unwrap();
        let base_rows = lineitem.num_rows();
        let orders = stack.base.table("orders").unwrap().num_rows() as i64;
        let parts = stack.base.table("part").unwrap().num_rows() as i64;
        let menu = queries::ingest_reader_menu(1);
        let mut reader = stack.connect();
        let mut writer = stack.connect();
        let reference = references(&menu, &mut reader);
        let batches: Vec<Vec<Vec<Value>>> = (0..4)
            .map(|i| queries::ingest_batch(1, i, orders, parts))
            .collect();
        let prefixes = |skew: i64| -> Vec<Option<PrefixAnswers>> {
            menu.iter()
                .zip(&reference)
                .map(|(query, base)| {
                    let predicate = query.predicate_for("lineitem")?;
                    let per_batch: Vec<i64> = batches
                        .iter()
                        .map(|rows| oracle::matching(lineitem, predicate, rows) + skew)
                        .collect();
                    Some(PrefixAnswers::new(base.rows[0][0].as_int(), &per_batch))
                })
                .collect()
        };
        let order: Vec<usize> = (0..menu.len()).collect();
        let (sent, acked) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let origin = Instant::now();

        // Whole batches: every read is some prefix's answer.
        let good = prefixes(0);
        let (reads, writes) = std::thread::scope(|scope| {
            let writes = scope.spawn(|| {
                open_loop_writer(
                    &mut writer,
                    &batches,
                    base_rows,
                    &sent,
                    &acked,
                    false,
                    origin,
                )
            });
            let mut source = IngestReader {
                menu: &menu,
                reference: &reference,
                prefixes: &good,
                order: &order,
                sent: &sent,
                acked: &acked,
                current: 0,
                acked_before: 0,
            };
            let deadline = origin + Duration::from_millis(1200);
            let reads = read_loop(&mut reader, &mut source, deadline, false, origin, 0);
            (reads, writes.join().unwrap())
        });
        assert_eq!(writes.tally.failed, 0, "{:?}", writes.tally.messages);
        assert_eq!(writes.timings.latency_ms.len(), 4);
        assert!(reads.tally.attempted >= menu.len() as u64);
        assert_eq!(reads.tally.failed, 0, "{:?}", reads.tally.messages);
        let mut tally = Tally::default();
        twin_check(&spec, &stack, &writes.batches, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.messages);

        // The same reads against answers that expect one more match per
        // batch than was inserted: what the table now holds is between
        // prefixes, as a torn batch would be.
        let torn = prefixes(1);
        let mut source = IngestReader {
            menu: &menu,
            reference: &reference,
            prefixes: &torn,
            order: &order,
            sent: &sent,
            acked: &acked,
            current: 0,
            acked_before: 0,
        };
        let deadline = Instant::now() + Duration::from_millis(500);
        let reads = read_loop(&mut reader, &mut source, deadline, false, origin, 0);
        assert!(reads.tally.failed > 0);
        assert!(
            reads.tally.messages[0].contains("no prefix"),
            "{:?}",
            reads.tally.messages
        );
    }
}
