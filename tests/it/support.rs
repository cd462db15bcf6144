//! The one place the integration suites build data and compare runs.
//!
//! - **Fixtures.** [`tpch`] and [`star`] generate each (dataset, scale,
//!   seed) once per process and hand out shallow clones of the shared
//!   [`Catalog`]; [`engine`] builds a fresh [`Engine`] over one, so no
//!   test sees another's plan cache or feedback store.
//! - **Queries.** The paper's three templates with the parameters the
//!   golden suites pin: [`exp1`], [`exp2`], [`exp3`], and their
//!   unaggregated cores for suites that aggregate differently.
//! - **Comparisons.** A [`PlanRun`] is one executor run (rows, cost
//!   counters, metrics tree) and a [`QueryRun`] one query through an
//!   [`Engine`], a [`QueryService`] or a TCP connection (rows, columns,
//!   cost bits, metrics, re-plans, plan shape).  Each has one `diff`
//!   naming the first field two runs disagree on; [`sweep_plan`] and
//!   [`sweep_query`] repeat a run at 1, 2 and 8 workers and require
//!   every repetition to be identical.

use std::collections::HashMap;
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use robust_qo::exec::{execute_analyze, execute_with};
use robust_qo::optimizer::NodeAnnotation;
use robust_qo::prelude::*;
use robust_qo::storage::CostTracker;

/// The seed of every golden fixture: data, synopsis draw, everything.
pub const SEED: u64 = 42;
/// The TPC-H-like scale factor of the golden fixtures.
pub const SCALE: f64 = 0.005;
/// The star schema's fact rows in the golden fixtures.
pub const FACT_ROWS: usize = 30_000;
/// The paper's synopsis size.
pub const SAMPLE: usize = 500;
/// The worker counts every sweep runs at.
pub const WORKERS: [usize; 3] = [1, 2, 8];

// ---------------------------------------------------------------- fixtures

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Dataset {
    Tpch { scale_bits: u64, seed: u64 },
    Star { fact_rows: usize, seed: u64 },
}

/// The catalog of `dataset`, generated on first use.  Concurrent callers
/// of one dataset wait for a single generation; different datasets
/// generate in parallel.
fn shared(dataset: Dataset) -> Catalog {
    type Cells = Mutex<HashMap<Dataset, Arc<OnceLock<Catalog>>>>;
    static CATALOGS: OnceLock<Cells> = OnceLock::new();
    // The map only ever gains entries, so a lock poisoned by a panicking
    // test still guards a valid map.
    let cell = Arc::clone(
        CATALOGS
            .get_or_init(Default::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(dataset)
            .or_default(),
    );
    cell.get_or_init(|| match dataset {
        Dataset::Tpch { scale_bits, seed } => TpchData::generate(&TpchConfig {
            scale_factor: f64::from_bits(scale_bits),
            seed,
        })
        .into_catalog(),
        Dataset::Star { fact_rows, seed } => {
            StarData::generate(&StarConfig { fact_rows, seed }).into_catalog()
        }
    })
    .clone()
}

/// The TPC-H-like catalog at `scale` generated with `seed`.
pub fn tpch(scale: f64, seed: u64) -> Catalog {
    shared(Dataset::Tpch {
        scale_bits: scale.to_bits(),
        seed,
    })
}

/// The star-schema catalog with `fact_rows` fact rows generated with `seed`.
pub fn star(fact_rows: usize, seed: u64) -> Catalog {
    shared(Dataset::Star { fact_rows, seed })
}

/// A fresh engine over `catalog` with default cost parameters and
/// `sample`-tuple synopses drawn with `sample_seed`.
pub fn engine(catalog: Catalog, sample: usize, sample_seed: u64) -> Engine {
    priced_engine(catalog, CostParams::default(), sample, sample_seed)
}

/// [`engine`] under explicit cost parameters.
pub fn priced_engine(
    catalog: Catalog,
    params: CostParams,
    sample: usize,
    sample_seed: u64,
) -> Engine {
    Engine::with_options(catalog, params, sample, sample_seed)
}

/// A fresh engine over `catalog` with `Engine::new`'s defaults.
pub fn stock_engine(catalog: Catalog) -> Engine {
    Engine::new(catalog)
}

/// The golden TPC-H-like engine: scale 0.005, 500-tuple synopses, seed 42
/// throughout.
pub fn tpch_db() -> Engine {
    engine(tpch(SCALE, SEED), SAMPLE, SEED)
}

/// The golden star-schema engine: 30k fact rows, 500-tuple synopses,
/// seed 42 throughout.
pub fn star_db() -> Engine {
    engine(star(FACT_ROWS, SEED), SAMPLE, SEED)
}

/// A TCP server on a free loopback port, serving `engine` behind a
/// default [`QueryService`].
pub fn serve(engine: Engine, config: NetServerConfig) -> NetServer {
    let service = engine.into_service(ServiceConfig::default());
    NetServer::bind(service, "127.0.0.1:0", config).expect("bind loopback")
}

/// An optimizer over `catalog` whose robust estimator reads
/// `sample`-tuple synopses drawn with `sample_seed`, at threshold `t`.
pub fn robust_optimizer(
    catalog: &Arc<Catalog>,
    sample: usize,
    sample_seed: u64,
    t: f64,
) -> Optimizer {
    let repo = Arc::new(SynopsisRepository::build_all(catalog, sample, sample_seed));
    let estimator = RobustEstimator::new(
        repo,
        EstimatorConfig::with_threshold(ConfidenceThreshold::new(t)),
    );
    Optimizer::new(
        Arc::clone(catalog),
        CostParams::default(),
        Arc::new(estimator),
    )
}

/// A table named `name` with the given columns and rows.
pub fn table(
    name: &str,
    columns: &[(&str, DataType)],
    rows: impl IntoIterator<Item = Vec<Value>>,
) -> Table {
    let rows: Vec<Vec<Value>> = rows.into_iter().collect();
    let mut builder = TableBuilder::new(name, Schema::from_pairs(columns), rows.len().max(1));
    for row in &rows {
        builder.push_row(row);
    }
    builder.finish()
}

// ----------------------------------------------------------------- queries

/// Experiment 1's `lineitem` window at `offset`, unaggregated.
pub fn lineitem_window(offset: i64) -> Query {
    Query::over(&["lineitem"]).filter("lineitem", exp1_lineitem_predicate(offset))
}

/// Experiment 2's `lineitem ⋈ orders ⋈ part` with the part window at
/// `window`, unaggregated.
pub fn part_join(window: i64) -> Query {
    Query::over(&["lineitem", "orders", "part"]).filter("part", exp2_part_predicate(window))
}

/// Experiment 3's star join with every dimension filtered at `level`,
/// unaggregated.
pub fn star_join(level: i64) -> Query {
    let mut query = Query::over(&["fact", "dim1", "dim2", "dim3"]);
    for dim in ["dim1", "dim2", "dim3"] {
        query = query.filter(dim, exp3_dim_predicate(level));
    }
    query
}

/// Experiment 1 as the golden suites run it: `SUM(l_extendedprice)`.
pub fn exp1(offset: i64) -> Query {
    lineitem_window(offset).aggregate(AggExpr::sum("l_extendedprice", "revenue"))
}

/// Experiment 2 as the golden suites run it: `SUM(l_extendedprice)`.
pub fn exp2(window: i64) -> Query {
    part_join(window).aggregate(AggExpr::sum("l_extendedprice", "revenue"))
}

/// Experiment 3 as the golden suites run it: `SUM(f_measure1)`.
pub fn exp3(level: i64) -> Query {
    star_join(level).aggregate(AggExpr::sum("f_measure1", "total"))
}

// ------------------------------------------------------------- comparisons

/// `Err` naming `field` unless the two values are equal.
fn same<T: PartialEq + Debug>(field: &str, expected: &T, got: &T) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{field} differ:\n  expected {expected:?}\n  got      {got:?}"
        ))
    }
}

/// [`same`] when both sides observed the field.
fn same_if_both<T: PartialEq + Debug>(
    field: &str,
    expected: &Option<T>,
    got: &Option<T>,
) -> Result<(), String> {
    match (expected, got) {
        (Some(e), Some(g)) => same(field, e, g),
        _ => Ok(()),
    }
}

/// A metrics tree and its rendering, both of which must agree.
fn same_metrics(expected: &Option<OpMetrics>, got: &Option<OpMetrics>) -> Result<(), String> {
    if let (Some(e), Some(g)) = (expected, got) {
        same("rendered metrics", &e.render(), &g.render())?;
        same("metrics trees", e, g)?;
    }
    Ok(())
}

/// Panics with `context` and the difference when `diff` failed.
#[track_caller]
pub fn assert_same(diff: Result<(), String>, context: &str) {
    if let Err(e) = diff {
        panic!("{context}: {e}");
    }
}

/// Two plannings of one query agree: the same plan tree, the same
/// estimated cost and cardinality bit for bit, the same estimator calls
/// and selection mode, and per node the same annotation — estimated and
/// root rows bit for bit and the same request key.
pub fn same_plan(expected: &PlannedQuery, got: &PlannedQuery) -> Result<(), String> {
    same("plan trees", &expected.plan, &got.plan)?;
    same(
        "estimated cost bits",
        &expected.estimated_cost_ms.to_bits(),
        &got.estimated_cost_ms.to_bits(),
    )?;
    same(
        "estimated row bits",
        &expected.estimated_rows.to_bits(),
        &got.estimated_rows.to_bits(),
    )?;
    same(
        "estimator calls",
        &expected.estimator_calls,
        &got.estimator_calls,
    )?;
    same("selection modes", &expected.selection, &got.selection)?;
    same(
        "annotated node counts",
        &expected.node_annotations.len(),
        &got.node_annotations.len(),
    )?;
    let nodes = expected.node_annotations.iter().zip(&got.node_annotations);
    for (i, (e, g)) in nodes.enumerate() {
        let bits = |a: &Option<NodeAnnotation>| {
            a.as_ref()
                .map(|a| (a.est_rows.to_bits(), a.root_rows.to_bits()))
        };
        same(
            &format!("node {i}'s (est_rows, root_rows) bits"),
            &bits(e),
            &bits(g),
        )?;
        let key = |a: &Option<NodeAnnotation>| a.as_ref().and_then(|a| a.request.clone());
        if key(e) != key(g) {
            let text = |a: &Option<NodeAnnotation>| key(a).map(|k| k.to_string());
            same(&format!("node {i}'s request keys"), &text(e), &text(g))?;
            return Err(format!("node {i}'s request keys differ but render alike"));
        }
    }
    Ok(())
}

/// One execution of a physical plan: its rows, its simulated cost
/// counters, and — when run through the analyzing entry point — its
/// metrics tree.  Rows compare bit for bit: float values are equal only
/// when their bits are.
#[derive(Debug, Clone)]
pub struct PlanRun {
    pub rows: Vec<Vec<Value>>,
    pub cost: CostTracker,
    pub metrics: Option<OpMetrics>,
}

impl PlanRun {
    /// The serial reference at `morsel` rows per morsel (the default when
    /// `None`); records no metrics.
    pub fn serial(plan: &PhysicalPlan, catalog: &Catalog, morsel: Option<usize>) -> PlanRun {
        let opts = match morsel {
            Some(m) => ExecOptions::default().with_morsel_size(m),
            None => ExecOptions::default(),
        };
        let (batch, cost) = execute_with(plan, catalog, &CostParams::default(), &opts);
        PlanRun {
            rows: batch.to_rows(),
            cost,
            metrics: None,
        }
    }

    /// An analyzed run at `workers` workers and `morsel` rows per morsel.
    pub fn analyzed(
        plan: &PhysicalPlan,
        catalog: &Catalog,
        workers: usize,
        morsel: usize,
    ) -> PlanRun {
        let opts = ExecOptions::with_threads(workers).with_morsel_size(morsel);
        let (batch, cost, metrics) = execute_analyze(plan, catalog, &CostParams::default(), &opts);
        PlanRun {
            rows: batch.to_rows(),
            cost,
            metrics: Some(metrics),
        }
    }

    /// The first field `got` disagrees with `self` on; metrics only when
    /// both runs recorded them.
    pub fn diff(&self, got: &PlanRun) -> Result<(), String> {
        same("rows", &self.rows, &got.rows)?;
        same("cost counters", &self.cost, &got.cost)?;
        same_metrics(&self.metrics, &got.metrics)
    }
}

/// Runs `plan` analyzed at every [`WORKERS`] count and `morsel` rows per
/// morsel: each run must equal `reference` and the first run, metrics
/// included.  Returns the runs in [`WORKERS`] order.
pub fn sweep_plan(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    morsel: usize,
    reference: &PlanRun,
) -> Result<Vec<PlanRun>, String> {
    let mut runs: Vec<PlanRun> = Vec::new();
    for workers in WORKERS {
        let run = PlanRun::analyzed(plan, catalog, workers, morsel);
        let context = |e| {
            format!(
                "{workers} workers, morsel {morsel}, {} plan nodes: {e}",
                plan.node_count()
            )
        };
        reference.diff(&run).map_err(context)?;
        if let Some(first) = runs.first() {
            first.diff(&run).map_err(context)?;
        }
        runs.push(run);
    }
    Ok(runs)
}

/// One query's observable result, whichever handle ran it.  Fields a
/// path does not report (a wire reply carries no metrics tree, a plain
/// run no events) are `None` and skipped by [`QueryRun::diff`].
#[derive(Debug, Clone)]
pub struct QueryRun {
    pub rows: Vec<Vec<Value>>,
    pub columns: Vec<String>,
    /// Simulated seconds, as raw bits.
    pub cost_bits: u64,
    /// The optimizer's estimate in seconds, as raw bits.
    pub estimate_bits: u64,
    pub replans: u64,
    pub shape: Option<String>,
    pub metrics: Option<OpMetrics>,
    /// Each re-plan event, rendered.
    pub events: Option<Vec<String>>,
}

impl QueryRun {
    /// A run through [`Engine::execute`] or [`QueryService::execute`].
    pub fn of_analyzed(analyzed: &AnalyzedOutcome) -> QueryRun {
        QueryRun {
            replans: analyzed.replans() as u64,
            metrics: Some(analyzed.metrics.clone()),
            events: Some(analyzed.events.iter().map(ReplanEvent::render).collect()),
            ..QueryRun::of_outcome(&analyzed.outcome)
        }
    }

    /// A plain run, which re-plans nothing.
    pub fn of_outcome(outcome: &QueryOutcome) -> QueryRun {
        QueryRun {
            rows: outcome.rows.clone(),
            columns: outcome.columns.clone(),
            cost_bits: outcome.simulated_seconds.to_bits(),
            estimate_bits: outcome.estimated_seconds.to_bits(),
            replans: 0,
            shape: Some(outcome.planned.plan.shape_label()),
            metrics: None,
            events: None,
        }
    }

    /// A reply read off a TCP connection.
    pub fn of_reply(reply: QueryReply) -> QueryRun {
        QueryRun {
            rows: reply.rows,
            columns: reply.columns,
            cost_bits: reply.simulated_seconds.to_bits(),
            estimate_bits: reply.estimated_seconds.to_bits(),
            replans: reply.replans,
            shape: None,
            metrics: None,
            events: None,
        }
    }

    /// The first field `got` disagrees with `self` on.
    pub fn diff(&self, got: &QueryRun) -> Result<(), String> {
        same("rows", &self.rows, &got.rows)?;
        same("columns", &self.columns, &got.columns)?;
        same("simulated cost bits", &self.cost_bits, &got.cost_bits)?;
        same(
            "estimated cost bits",
            &self.estimate_bits,
            &got.estimate_bits,
        )?;
        same("re-plans", &self.replans, &got.replans)?;
        same_if_both("plan shapes", &self.shape, &got.shape)?;
        same_if_both("re-plan events", &self.events, &got.events)?;
        same_metrics(&self.metrics, &got.metrics)
    }
}

/// Runs `query` under `policy` at every [`WORKERS`] count, each on a
/// fresh engine from `make` (a run may publish into its engine), and
/// requires every run to be identical to the first.  Returns the first.
pub fn sweep_query(
    make: impl Fn() -> Engine,
    query: &Query,
    policy: RunPolicy,
) -> Result<AnalyzedOutcome, String> {
    let mut first: Option<(AnalyzedOutcome, QueryRun)> = None;
    for workers in WORKERS {
        let analyzed = make()
            .execute(query, &ExecOptions::with_threads(workers), policy)
            .expect("no token, cannot stop");
        let run = QueryRun::of_analyzed(&analyzed);
        match &first {
            None => first = Some((analyzed, run)),
            Some((_, reference)) => reference
                .diff(&run)
                .map_err(|e| format!("{workers} workers: {e}"))?,
        }
    }
    Ok(first.expect("WORKERS is not empty").0)
}

// ----------------------------------------------------------------- goldens

/// Compares `rendered` with `tests/golden/<label>.txt`, or rewrites the
/// file when `UPDATE_GOLDENS` is set.  On a mismatch the rendering is
/// written to `target/golden-diff/<label>.actual.txt` for CI to upload.
pub fn assert_golden(label: &str, rendered: &str) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("tests/golden").join(format!("{label}.txt"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; run with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if rendered != expected {
        let diff_dir = root.join("target/golden-diff");
        std::fs::create_dir_all(&diff_dir).unwrap();
        std::fs::write(diff_dir.join(format!("{label}.actual.txt")), rendered).unwrap();
        assert_eq!(
            rendered, expected,
            "{label}: golden mismatch; actual written to target/golden-diff/{label}.actual.txt"
        );
    }
}

// ------------------------------------------------------------------- tests

/// Each comparison rejects the three smallest faults a broken executor
/// could introduce: a cost one unit of least precision off, two rows
/// swapped, and a metrics node renamed.
#[test]
fn comparisons_reject_one_ulp_a_row_swap_and_a_renamed_node() {
    let engine = tpch_db();
    let analyzed = engine
        .execute(&exp1(30), &ExecOptions::default(), RunPolicy::AnalyzeQuiet)
        .unwrap();

    let planned = &analyzed.outcome.planned;
    assert_same(same_plan(planned, planned), "a plan equals itself");
    let mut off = PlannedQuery::clone(planned);
    off.estimated_cost_ms = off.estimated_cost_ms.next_up();
    assert!(
        same_plan(planned, &off).is_err(),
        "one ulp of estimated cost"
    );

    let query = QueryRun::of_analyzed(&analyzed);
    assert_same(query.diff(&query.clone()), "a run equals itself");
    let mut off = query.clone();
    off.cost_bits = (f64::from_bits(off.cost_bits).next_up()).to_bits();
    assert!(query.diff(&off).is_err(), "one ulp of simulated cost");
    let mut two_rows = query.clone();
    two_rows.rows = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
    let mut swapped = two_rows.clone();
    swapped.rows.swap(0, 1);
    assert!(two_rows.diff(&swapped).is_err(), "two rows swapped");
    let mut renamed = query.clone();
    renamed.metrics.as_mut().unwrap().children[0]
        .label
        .push('\'');
    assert!(query.diff(&renamed).is_err(), "a renamed metrics node");

    let catalog = engine.catalog();
    let run = PlanRun::analyzed(&planned.plan, &catalog, 1, 64);
    assert_same(run.diff(&run.clone()), "a run equals itself");
    let mut off = run.clone();
    off.cost.cpu_ops += 1;
    assert!(run.diff(&off).is_err(), "one unit of a cost counter");
    let mut two_rows = run.clone();
    two_rows.rows = vec![vec![Value::Float(0.5)], vec![Value::Float(1.5)]];
    let mut swapped = two_rows.clone();
    swapped.rows.swap(0, 1);
    assert!(two_rows.diff(&swapped).is_err(), "two rows swapped");
    let mut one_ulp = two_rows.clone();
    one_ulp.rows[0][0] = Value::Float(0.5f64.next_up());
    assert!(two_rows.diff(&one_ulp).is_err(), "one ulp of a float value");
    let mut renamed = run.clone();
    renamed.metrics.as_mut().unwrap().label.push('\'');
    assert!(run.diff(&renamed).is_err(), "a renamed metrics node");
}
