//! Workload-replay regret harness: does expected-penalty selection
//! actually reduce realized regret against quantile selection at any
//! fixed threshold?
//!
//! Protocol, per query of a skewed workload (narrow/empty predicate
//! windows the 500-tuple synopsis estimates badly, plus wide ones it
//! estimates well):
//!
//! 1. **Choose** — plan the query under quantile mode at every T in
//!    {5, 50, 80, 95} and under penalty mode, all against the same
//!    synopsis-based estimator (no feedback yet).
//! 2. **Observe** — price every distinct chosen plan with a recording
//!    oracle: each estimation request's *true* selectivity is computed
//!    exactly and recorded into the database's `FeedbackStore` — the
//!    same store `EXPLAIN ANALYZE` would populate, just with complete
//!    coverage of every candidate's requests.
//! 3. **Replay** — re-price every chosen plan through the database's
//!    own estimator, which now serves every request from the observed
//!    feedback.  The replayed cost is the realized cost of running that
//!    plan; per-query regret is realized cost minus the cheapest
//!    realized cost among the plans any mode chose.
//!
//! The pin: penalty mode's total replayed regret is no worse than every
//! fixed threshold's, and strictly better than the worst one.

use robust_qo::estimator::{OracleEstimator, SelectivityEstimate};
use robust_qo::optimizer::{enumerate::PlanContext, price_plan, CostModel};
use robust_qo::prelude::*;
use std::sync::Arc;

use crate::support::{self, PlanRun, SAMPLE, SEED};

const THRESHOLDS: [f64; 4] = [0.05, 0.5, 0.8, 0.95];

/// The plan each arm chooses for `query`: one per fixed threshold in
/// [`THRESHOLDS`] order, then penalty selection's.
fn arms(opt: &Optimizer, query: &Query) -> Vec<PhysicalPlan> {
    let mut plans: Vec<_> = THRESHOLDS
        .iter()
        .map(|&t| {
            opt.optimize(&query.clone().with_hint(ConfidenceThreshold::new(t)))
                .plan
        })
        .collect();
    plans.push(
        opt.optimize(&query.clone().with_selection(PlanSelection::ExpectedPenalty))
            .plan,
    );
    plans
}

/// A recording truth source: answers with the oracle's exact
/// selectivity and records it into the feedback store, so a later
/// replay through the robust estimator prices at observed values.
struct RecordingOracle {
    inner: OracleEstimator,
    store: Arc<FeedbackStore>,
}

impl CardinalityEstimator for RecordingOracle {
    fn name(&self) -> &str {
        "recording-oracle"
    }

    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        let estimate = self.inner.estimate(request);
        self.store
            .record(&request.tables, &request.predicates, estimate.selectivity);
        estimate
    }
}

/// Skewed workload: lineitem windows from dense to empty (offset 110 is
/// past the data), and the narrow part-join at several windows.
fn workload() -> Vec<Query> {
    let mut queries = Vec::new();
    // Lineitem windows sliding off the data: offset 70 is the dense
    // tail an aggressive threshold misjudges into an index-intersection
    // disaster; offset 110 is past the data, where a conservative
    // threshold pays for a full scan the index would have skipped.
    for offset in [0, 30, 70, 110] {
        queries.push(
            Query::over(&["lineitem", "orders"])
                .filter("lineitem", exp1_lineitem_predicate(offset))
                .aggregate(AggExpr::sum("l_extendedprice", "revenue")),
        );
    }
    // Wide part windows: the aggressive threshold bets on an indexed
    // nested-loops join that the true density punishes.
    for window in [50, 150] {
        queries.push(support::exp2(window));
    }
    queries
}

#[test]
fn penalty_total_regret_beats_every_fixed_threshold() {
    // The paper's 500-tuple synopsis: accurate on wide windows, blind on
    // narrow/empty ones — the mix that separates point-collapsing
    // thresholds from posterior integration.
    let db = support::tpch_db();
    let opt = db.optimizer();
    let catalog = db.catalog();
    let oracle = RecordingOracle {
        inner: OracleEstimator::new(Arc::clone(&catalog)),
        store: Arc::clone(db.feedback()),
    };

    // 1. Choose, all arms and all queries, before any observation
    // exists (the feedback store is shared, and an observation recorded
    // for one query must not leak into another's planning).
    let chosen: Vec<(Query, Vec<robust_qo::exec::PhysicalPlan>)> = workload()
        .into_iter()
        .map(|query| {
            let plans = arms(&opt, &query);
            (query, plans)
        })
        .collect();

    // arm index 0..4 = fixed thresholds, 4 = penalty.
    let mut regret = [0.0f64; 5];
    let mut differed = false;
    for (query, plans) in chosen {
        // 2. Observe: price each distinct plan once with the recording
        // oracle, capturing every request's true selectivity.
        let model = CostModel::new(&catalog, opt.params());
        let ctx = PlanContext::new(&catalog, model, &oracle);
        for plan in &plans {
            price_plan(&ctx, &query, plan);
        }

        // 3. Replay through the database's own estimator — every request
        // now resolves from the observed feedback.
        let replay_est = db.optimizer();
        let model = CostModel::new(&catalog, opt.params());
        let ctx = PlanContext::new(&catalog, model, replay_est.estimator().as_ref());
        let realized: Vec<f64> = plans
            .iter()
            .map(|p| price_plan(&ctx, &query, p).cost_ms)
            .collect();
        let best = realized.iter().cloned().fold(f64::INFINITY, f64::min);
        for (arm, &cost) in realized.iter().enumerate() {
            regret[arm] += cost - best;
        }
        let penalty_shape = plans[4].shape_label();
        if plans[..4].iter().any(|p| p.shape_label() != penalty_shape) {
            differed = true;
        }
    }

    assert!(
        differed,
        "workload too easy: every arm picked the penalty plan everywhere"
    );
    let penalty = regret[4];
    for (i, &t) in THRESHOLDS.iter().enumerate() {
        assert!(
            penalty <= regret[i] + 1e-9,
            "penalty regret {penalty:.3}ms exceeds fixed T={t}: {:.3}ms (all: {regret:?})",
            regret[i]
        );
    }
    let worst = regret[..4].iter().cloned().fold(0.0f64, f64::max);
    assert!(
        penalty < worst,
        "penalty must strictly beat the worst fixed threshold: {regret:?}"
    );
    // On this workload the posterior integration threads the needle
    // exactly: the aggressive index plan where the window is empty, the
    // scan where it is dense — zero realized regret.
    assert!(
        penalty <= 1e-9,
        "penalty mode should realize the hindsight-optimal plan everywhere here: {regret:?}"
    );
}

/// Five trap scenarios, each a (scale, synopsis seed, cost parameters,
/// query) tuple tuned so that some fixed threshold picks a *disaster* — a
/// plan whose simulated cost exceeds 2× the cheapest plan any arm chose —
/// while posterior integration escapes it:
///
/// - dense tail: T=5% bets on an index intersection the true density
///   punishes;
/// - empty tail: T=95% pays a full scan where the window is all but empty;
/// - straddled cap: on a faster-seek device the index ramp crosses the
///   scan line between the posterior mean and its 80th percentile, so
///   T=80/95 scan while integration keeps the page-capped index plan;
/// - hidden moderate window: the synopsis misses every matching part, so
///   the median collapse picks indexed nested loops whose fetch volume is
///   2.3× the scan join;
/// - narrow window: conservative collapses pay the flat hash join at 5×
///   the cost-capped semijoin.
///
/// Disasters per arm are t5=2, t50=1, t80=1, t95=3, penalty=0.  The
/// penalty arm's simulated cost must not depend on the executor's thread
/// count.
#[test]
fn penalty_records_no_disaster_where_every_fixed_threshold_does() {
    let fast_seek = CostParams {
        random_io_ms: 2.0,
        ..CostParams::default()
    };
    let (lineitem_window, part_window) = (support::exp1, support::exp2);
    let default = CostParams::default();
    let scenarios = [
        ("dense_tail", 0.005, 42, default, lineitem_window(70)),
        ("empty_tail", 0.005, 42, default, lineitem_window(115)),
        ("straddled_cap", 0.005, 5, fast_seek, lineitem_window(115)),
        ("hidden_moderate_window", 0.01, 6, default, part_window(156)),
        ("narrow_window", 0.005, 42, default, part_window(212)),
    ];

    // Arm index 0..4 = fixed thresholds, 4 = penalty.
    let mut disasters = [0usize; 5];
    for (name, scale, sample_seed, params, query) in scenarios {
        let db = support::priced_engine(support::tpch(scale, SEED), params, SAMPLE, sample_seed);
        let opt = db.optimizer();
        let plans = arms(&opt, &query);
        let catalog = db.catalog();
        let seconds = |plan: &PhysicalPlan| {
            let (_, cost) = robust_qo::exec::execute(plan, &catalog, &params);
            cost.seconds(&params)
        };
        let realized: Vec<f64> = plans.iter().map(seconds).collect();
        let best = realized.iter().cloned().fold(f64::INFINITY, f64::min);
        for (arm, &cost) in realized.iter().enumerate() {
            if cost > 2.0 * best {
                disasters[arm] += 1;
            }
        }
        // The penalty arm's cost counters are the same at every worker
        // count (and so, therefore, are its simulated seconds).
        let morsel = ExecOptions::default().morsel_size;
        let serial = PlanRun::serial(&plans[4], &catalog, None);
        support::sweep_plan(&plans[4], &catalog, morsel, &serial)
            .unwrap_or_else(|e| panic!("{name}: penalty arm: {e}"));
    }

    assert_eq!(
        disasters,
        [2, 1, 1, 3, 0],
        "disasters per arm [t5, t50, t80, t95, penalty]"
    );
}
