//! Expected-penalty plan selection (the integration alternative to the
//! paper's quantile collapse).
//!
//! Quantile mode asks the estimation module for one number per
//! subexpression and trusts the cost model from there.  Penalty mode
//! instead keeps the selectivity *posterior* in play during the final
//! plan choice:
//!
//! 1. **Candidates** — run the ordinary DP enumerator at a small spread
//!    of confidence thresholds; the distinct winners are exactly the
//!    plans some plausible selectivity regime prefers.
//! 2. **Sensitivity pruning** — a predicate whose selectivity never
//!    flips which candidate is cheapest (probed at an aggressive and a
//!    conservative extreme) is *insensitive*: it is pinned at the
//!    posterior median for the rest of the analysis, so quadrature
//!    effort concentrates on the predicates that actually steer the
//!    plan choice.
//! 3. **Scoring** — price every candidate ([`price_plan`], the same
//!    derivation the enumerator costs with) at a shared grid of posterior
//!    quantile nodes (the comonotone collapse: all sensitive posteriors
//!    at quantile `u` together, [`rqo_core::penalty_grid`]) and pick
//!    the candidate minimizing expected regret against the per-node
//!    lower envelope ([`rqo_core::expected_penalties`]).
//!
//! Pricing at a quantile node reuses the §3.1.1 machinery unchanged —
//! `hinted(u)` estimators and the deterministic cost model — so penalty
//! mode inherits determinism and thread-invariance for free.  When every
//! predicate posterior is (near-)degenerate the grid short-circuits to a
//! single median node: integration over a point mass *is* the point
//! estimate, so no quadrature is spent.
//!

use rqo_core::{
    expected_penalties, penalty_grid, select_min_penalty, CardinalityEstimator,
    ConfidenceThreshold, EstimationRequest, PlanSelection, SelectivityEstimate,
};
use rqo_exec::PhysicalPlan;
use rqo_expr::Expr;
use rqo_math::{DEFAULT_QUADRATURE_NODES, DEGENERATE_STD_DEV};

use crate::derive::price_plan;
use crate::enumerate::{best_join_plan, PlanContext};
use crate::planner::{wrap_aggregate, Optimizer, PlannedQuery};
use crate::query::Query;

/// Thresholds the candidate generator runs the enumerator at.  A spread
/// from aggressive to conservative harvests every plan shape some
/// plausible selectivity regime prefers; duplicates are deduplicated, so
/// a flat cost landscape degenerates gracefully to one candidate.
const GENERATION_THRESHOLDS: [f64; 7] = [0.05, 0.20, 0.35, 0.50, 0.65, 0.80, 0.95];

/// The two probe quantiles of the sensitivity pass.  A predicate whose
/// collapse at both extremes leaves the argmin-cost candidate unchanged
/// cannot flip the plan choice anywhere in between (costs are monotone
/// in each selectivity), so it is pruned to the median.
const SENSITIVITY_PROBES: [f64; 2] = [0.05, 0.95];

/// The quantile insensitive predicates are pinned at, and the quantile
/// the winner's row estimates / node annotations are derived at — the
/// posterior median, the natural "typical case" summary.
pub const PENALTY_ANNOTATION_QUANTILE: f64 = 0.5;

/// [`PENALTY_ANNOTATION_QUANTILE`] as a threshold.
pub(crate) fn median() -> ConfidenceThreshold {
    ConfidenceThreshold::new(PENALTY_ANNOTATION_QUANTILE)
}

/// How [`PlanSelection::ExpectedPenalty`] reached its decision — kept on
/// the [`PlannedQuery`] for reports, experiments, and tests.
#[derive(Debug, Clone)]
pub struct PenaltyReport {
    /// Every scored candidate, in generation order.
    pub candidates: Vec<CandidateScore>,
    /// Index of the winner within `candidates`.
    pub chosen: usize,
    /// `table:expr` keys of predicates whose selectivity can flip the
    /// plan choice (integrated over).
    pub sensitive: Vec<String>,
    /// `table:expr` keys of predicates pruned to the posterior median by
    /// the sensitivity pass.
    pub pruned: Vec<String>,
    /// Number of quadrature nodes the candidates were priced at.
    pub nodes: usize,
    /// Whether the degenerate-posterior short circuit fired (all
    /// posteriors point-like ⇒ a single median node, no quadrature).
    pub degenerate: bool,
}

/// One candidate's identity and score in a [`PenaltyReport`].
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// The candidate's plan-shape label.
    pub shape: String,
    /// Posterior-expected cost in simulated milliseconds.
    pub expected_cost: f64,
    /// Posterior-expected regret against the per-node lower envelope.
    pub expected_penalty: f64,
}

/// An estimation wrapper that collapses *sensitive* predicates at one
/// grid quantile and everything else at the posterior median — the
/// comonotone collapse with sensitivity pruning applied.  Requests are
/// routed by whether they touch any sensitive predicate, so joint
/// (multi-predicate) requests involving a sensitive predicate move with
/// the grid node exactly as the enumerator's costing expects.
struct PinnedEstimator<'a> {
    base: &'a dyn CardinalityEstimator,
    at_node: Option<Box<dyn CardinalityEstimator>>,
    at_median: Option<Box<dyn CardinalityEstimator>>,
    sensitive: &'a [(&'a str, &'a Expr)],
}

impl<'a> PinnedEstimator<'a> {
    fn new(
        base: &'a dyn CardinalityEstimator,
        sensitive: &'a [(&'a str, &'a Expr)],
        node: ConfidenceThreshold,
    ) -> Self {
        Self {
            base,
            at_node: base.hinted(node),
            at_median: base.hinted(median()),
            sensitive,
        }
    }
}

impl CardinalityEstimator for PinnedEstimator<'_> {
    fn name(&self) -> &str {
        "penalty-pinned"
    }

    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        let touches_sensitive = request
            .key()
            .predicates()
            .any(|p| self.sensitive.contains(&p));
        let chosen = if touches_sensitive {
            self.at_node.as_deref()
        } else {
            self.at_median.as_deref()
        };
        chosen.unwrap_or(self.base).estimate(request)
    }
}

/// True when every predicate's posterior is missing or point-like — the
/// short-circuit condition under which quadrature adds nothing over the
/// median point estimate.
fn degenerate_posterior(estimator: &dyn CardinalityEstimator, query: &Query) -> bool {
    query.predicates.iter().all(|(t, e)| {
        match estimator
            .estimate(&EstimationRequest::single(t, e))
            .posterior
        {
            Some(p) => p.std_dev() < DEGENERATE_STD_DEV,
            None => true,
        }
    })
}

/// Runs the enumerator at [`GENERATION_THRESHOLDS`] and returns the
/// distinct winners (full plans, aggregation included).
fn generate_candidates(opt: &Optimizer, query: &Query, calls: &mut usize) -> Vec<PhysicalPlan> {
    // No hint support: every threshold yields the same plan.
    let thresholds = match opt.estimator().hinted(median()) {
        Some(_) => &GENERATION_THRESHOLDS[..],
        None => &GENERATION_THRESHOLDS[..1],
    };
    let mut out: Vec<PhysicalPlan> = Vec::new();
    for &t in thresholds {
        let plan = opt.with_hinted_context(Some(ConfidenceThreshold::new(t)), |ctx| {
            let best = best_join_plan(ctx, query);
            *calls += ctx.estimator_calls();
            wrap_aggregate(query, best.plan)
        });
        if !out.contains(&plan) {
            out.push(plan);
        }
    }
    out
}

/// Index of the cheapest candidate under `ctx` (ties to the lower index).
fn argmin_cost(ctx: &PlanContext<'_>, query: &Query, candidates: &[PhysicalPlan]) -> usize {
    let mut best = 0;
    let mut best_cost = f64::INFINITY;
    for (i, plan) in candidates.iter().enumerate() {
        let c = price_plan(ctx, query, plan).cost_ms;
        if c.total_cmp(&best_cost) == std::cmp::Ordering::Less {
            best = i;
            best_cost = c;
        }
    }
    best
}

/// The sensitivity pass: for each predicate alone, collapse it at both
/// probe extremes (all others at the median) and keep it only if the
/// cheapest candidate differs between the extremes.
fn sensitive_predicates<'q>(
    opt: &Optimizer,
    query: &'q Query,
    candidates: &[PhysicalPlan],
    calls: &mut usize,
) -> Vec<(&'q str, &'q Expr)> {
    let mut sensitive = Vec::new();
    for (t, e) in &query.predicates {
        let probed = [(t.as_str(), e)];
        let mut argmins = [0usize; 2];
        for (slot, probe) in SENSITIVITY_PROBES.into_iter().enumerate() {
            let pinned = PinnedEstimator::new(
                opt.estimator().as_ref(),
                &probed,
                ConfidenceThreshold::new(probe),
            );
            let ctx = opt.context(&pinned);
            argmins[slot] = argmin_cost(&ctx, query, candidates);
            *calls += ctx.estimator_calls();
        }
        if argmins[0] != argmins[1] {
            sensitive.push(probed[0]);
        }
    }
    sensitive
}

/// Optimizes `query` under [`PlanSelection::ExpectedPenalty`].
pub(crate) fn optimize_expected_penalty(opt: &Optimizer, query: &Query) -> PlannedQuery {
    let mut calls = 0usize;
    let candidates = generate_candidates(opt, query, &mut calls);
    let degenerate = degenerate_posterior(opt.estimator().as_ref(), query);

    let sensitive = if degenerate || candidates.len() < 2 {
        Vec::new()
    } else {
        sensitive_predicates(opt, query, &candidates, &mut calls)
    };
    // The report lists predicates by their `table:expr` text.
    let mut sensitive_keys: Vec<String> =
        sensitive.iter().map(|(t, e)| format!("{t}:{e}")).collect();
    sensitive_keys.sort_unstable();
    let mut pruned_keys: Vec<String> = query
        .predicates
        .iter()
        .filter(|(t, e)| !sensitive.contains(&(t.as_str(), e)))
        .map(|(t, e)| format!("{t}:{e}"))
        .collect();
    pruned_keys.sort_unstable();

    // With nothing sensitive (or a point-like posterior) every node
    // prices identically: one median node suffices and the integration
    // collapses to the point estimate.
    let grid: Vec<(ConfidenceThreshold, f64)> = if sensitive.is_empty() {
        vec![(median(), 1.0)]
    } else {
        penalty_grid(DEFAULT_QUADRATURE_NODES)
    };

    let mut costs = vec![vec![0.0; grid.len()]; candidates.len()];
    for (j, &(node, _)) in grid.iter().enumerate() {
        let pinned = PinnedEstimator::new(opt.estimator().as_ref(), &sensitive, node);
        let ctx = opt.context(&pinned);
        for (i, plan) in candidates.iter().enumerate() {
            costs[i][j] = price_plan(&ctx, query, plan).cost_ms;
        }
        calls += ctx.estimator_calls();
    }
    let weights: Vec<f64> = grid.iter().map(|&(_, w)| w).collect();
    let scores = expected_penalties(&costs, &weights);
    let chosen = select_min_penalty(&scores);

    let report = PenaltyReport {
        candidates: candidates
            .iter()
            .zip(&scores)
            .map(|(p, s)| CandidateScore {
                shape: p.shape_label(),
                expected_cost: s.expected_cost,
                expected_penalty: s.expected_penalty,
            })
            .collect(),
        chosen,
        sensitive: sensitive_keys,
        pruned: pruned_keys,
        nodes: grid.len(),
        degenerate,
    };

    // Row estimates and node annotations are derived at the posterior
    // median — the guard-arming baseline for adaptive execution.
    let plan = candidates
        .into_iter()
        .nth(chosen)
        .expect("chosen index is in range");
    let at_median = opt.with_hinted_context(Some(median()), |ctx| {
        PlannedQuery::derived(ctx, query, plan)
    });
    PlannedQuery {
        estimated_cost_ms: scores[chosen].expected_cost,
        estimator_calls: calls + at_median.estimator_calls,
        selection: PlanSelection::ExpectedPenalty,
        penalty: Some(report),
        ..at_median
    }
}
