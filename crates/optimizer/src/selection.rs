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
//! 3. **Scoring** — price every candidate at a shared grid of posterior
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
//! The module also exposes [`price_plan`]: an exact re-coster of any
//! enumerator-shaped plan under an arbitrary estimation context.  It
//! reproduces the enumerator's own arithmetic (the differential tests
//! pin this), which is what lets candidates from one threshold be priced
//! under another — and lets tests price plans at *observed* (fed-back)
//! selectivities to measure realized regret.

use std::collections::HashSet;

use rqo_core::{
    expected_penalties, penalty_grid, select_min_penalty, CardinalityEstimator,
    ConfidenceThreshold, EstimationRequest, PlanSelection, SelectivityEstimate,
};
use rqo_exec::{IndexRange, PhysicalPlan};
use rqo_expr::Expr;
use rqo_math::{DEFAULT_QUADRATURE_NODES, DEGENERATE_STD_DEV};
use rqo_stats::synopsis::find_root;

use crate::analyze::annotate_plan;
use crate::cost::CostModel;
use crate::enumerate::{best_join_plan, PlanContext};
use crate::planner::{Optimizer, PlannedQuery};
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

/// What [`price_plan`] computes for a plan under one estimation context.
#[derive(Debug, Clone, Copy)]
pub struct PricedPlan {
    /// Total cost in simulated milliseconds, matching the enumerator's
    /// costing of the same shape under the same estimates.
    pub cost_ms: f64,
    /// Output rows of the plan root.
    pub out_rows: f64,
    /// Output rows of the join (pre-aggregation) — what
    /// [`PlannedQuery::estimated_rows`] reports.
    pub join_rows: f64,
}

/// Prices an enumerator-shaped physical plan under `ctx`'s estimates,
/// reproducing the enumerator's costing arithmetic exactly.
///
/// # Panics
///
/// Panics on plans the enumerator cannot emit for `query` (e.g. an index
/// seek whose range matches no predicate conjunct, or a subtree over a
/// disconnected table set).
pub fn price_plan(ctx: &PlanContext<'_>, query: &Query, plan: &PhysicalPlan) -> PricedPlan {
    let priced = price(ctx, query, plan);
    PricedPlan {
        cost_ms: priced.cost_ms,
        out_rows: priced.out_rows,
        join_rows: priced.join_rows,
    }
}

/// Internal pricing state: enough context to re-derive every cardinality
/// the enumerator would have asked for while building this subtree.
struct Priced {
    cost_ms: f64,
    out_rows: f64,
    join_rows: f64,
    tables: Vec<String>,
    preds: Vec<(String, Expr)>,
    sorted_by: Option<String>,
}

/// `rows(root) × selectivity(tables, preds)` — the enumerator's
/// cardinality of a connected subexpression.
fn spec_rows(ctx: &PlanContext<'_>, tables: &[String], preds: &[(String, Expr)]) -> f64 {
    let t: Vec<&str> = tables.iter().map(String::as_str).collect();
    let p: Vec<(&str, &Expr)> = preds.iter().map(|(t, e)| (t.as_str(), e)).collect();
    let root = find_root(ctx.catalog, &t).expect("priced subtree covers a connected FK subset");
    ctx.model.table_rows(root) * ctx.selectivity(&t, &p)
}

/// The predicate conjunct an index range was derived from.
fn conjunct_for_range<'e>(pred: &'e Expr, range: &IndexRange) -> Option<&'e Expr> {
    pred.conjuncts().into_iter().find(|c| {
        c.as_column_range()
            .is_some_and(|(col, lo, hi)| col == range.column && lo == range.lo && hi == range.hi)
    })
}

fn price(ctx: &PlanContext<'_>, query: &Query, plan: &PhysicalPlan) -> Priced {
    match plan {
        PhysicalPlan::SeqScan { table, predicate } => {
            let rows = ctx.model.table_rows(table);
            let (out_rows, preds) = match predicate {
                Some(p) => {
                    let preds = vec![(table.clone(), p.clone())];
                    (spec_rows(ctx, std::slice::from_ref(table), &preds), preds)
                }
                None => (rows, Vec::new()),
            };
            Priced {
                cost_ms: ctx.model.seq_scan_ms(table),
                out_rows,
                join_rows: out_rows,
                tables: vec![table.clone()],
                preds,
                sorted_by: ctx.clustered_column(table),
            }
        }
        PhysicalPlan::PartitionedScan {
            table,
            predicate,
            partitions,
            ..
        } => {
            // Pruning is semantically transparent (pruned partitions hold
            // no qualifying rows), so output cardinality is the same as a
            // full scan's; only the cost shrinks with the survivors.
            let (out_rows, preds) = match predicate {
                Some(p) => {
                    let preds = vec![(table.clone(), p.clone())];
                    (spec_rows(ctx, std::slice::from_ref(table), &preds), preds)
                }
                None => (ctx.model.partition_rows(table, partitions), Vec::new()),
            };
            Priced {
                cost_ms: ctx.model.partitioned_scan_ms(table, partitions),
                out_rows,
                join_rows: out_rows,
                tables: vec![table.clone()],
                preds,
                sorted_by: ctx.clustered_column(table),
            }
        }
        PhysicalPlan::IndexSeek { table, range, .. } => {
            let pred = query
                .predicate_for(table)
                .expect("index seek implies a table predicate");
            let seek = conjunct_for_range(pred, range)
                .expect("index-seek range matches a predicate conjunct");
            let rows = ctx.model.table_rows(table);
            let entries = rows * ctx.selectivity(&[table], &[(table, seek)]);
            let preds = vec![(table.clone(), pred.clone())];
            let out_rows = spec_rows(ctx, std::slice::from_ref(table), &preds);
            Priced {
                cost_ms: ctx.model.index_seek_ms(table, entries),
                out_rows,
                join_rows: out_rows,
                tables: vec![table.clone()],
                preds,
                sorted_by: ctx.clustered_column(table),
            }
        }
        PhysicalPlan::IndexIntersection { table, ranges, .. } => {
            let pred = query
                .predicate_for(table)
                .expect("index intersection implies a table predicate");
            let rows = ctx.model.table_rows(table);
            let consumed: Vec<&Expr> = ranges
                .iter()
                .map(|r| {
                    conjunct_for_range(pred, r)
                        .expect("index-intersection range matches a predicate conjunct")
                })
                .collect();
            let entries: Vec<f64> = consumed
                .iter()
                .map(|c| rows * ctx.selectivity(&[table], &[(table, c)]))
                .collect();
            let range_conj = Expr::conjunction(consumed.iter().map(|c| (*c).clone()).collect())
                .expect("at least two ranges");
            let joint = ctx.selectivity(&[table], &[(table, &range_conj)]);
            let preds = vec![(table.clone(), pred.clone())];
            let out_rows = spec_rows(ctx, std::slice::from_ref(table), &preds);
            Priced {
                cost_ms: ctx
                    .model
                    .index_intersection_ms(table, &entries, rows * joint),
                out_rows,
                join_rows: out_rows,
                tables: vec![table.clone()],
                preds,
                sorted_by: ctx.clustered_column(table),
            }
        }
        PhysicalPlan::Filter { input, predicate } => {
            let child = price(ctx, query, input);
            let cost_ms = child.cost_ms + ctx.model.per_row_ms(child.out_rows);
            let mut tables = child.tables;
            let mut preds = child.preds;
            // The enumerator only emits filters for a deferred *query*
            // predicate (INL inner residual, semijoin fact predicate);
            // attribute it so downstream cardinalities include it.
            let out_rows = match tables
                .iter()
                .find(|t| query.predicate_for(t) == Some(predicate))
                .cloned()
            {
                Some(t) => {
                    preds.push((t, predicate.clone()));
                    spec_rows(ctx, &tables, &preds)
                }
                None => child.out_rows,
            };
            tables.sort_unstable();
            Priced {
                cost_ms,
                out_rows,
                join_rows: out_rows,
                tables,
                preds,
                sorted_by: child.sorted_by,
            }
        }
        PhysicalPlan::Project { input, .. } => price(ctx, query, input),
        PhysicalPlan::HashJoin { build, probe, .. } => {
            let b = price(ctx, query, build);
            let p = price(ctx, query, probe);
            let tables: Vec<String> = b.tables.iter().chain(&p.tables).cloned().collect();
            let preds: Vec<(String, Expr)> = b.preds.iter().chain(&p.preds).cloned().collect();
            let out_rows = spec_rows(ctx, &tables, &preds);
            Priced {
                cost_ms: b.cost_ms
                    + p.cost_ms
                    + ctx.model.hash_join_ms(b.out_rows, p.out_rows, out_rows),
                out_rows,
                join_rows: out_rows,
                sorted_by: p.sorted_by,
                tables,
                preds,
            }
        }
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let l = price(ctx, query, left);
            let r = price(ctx, query, right);
            let l_sorted = l.sorted_by.as_deref() == Some(left_key.as_str());
            let r_sorted = r.sorted_by.as_deref() == Some(right_key.as_str());
            let tables: Vec<String> = l.tables.iter().chain(&r.tables).cloned().collect();
            let preds: Vec<(String, Expr)> = l.preds.iter().chain(&r.preds).cloned().collect();
            let out_rows = spec_rows(ctx, &tables, &preds);
            Priced {
                cost_ms: l.cost_ms
                    + r.cost_ms
                    + ctx
                        .model
                        .merge_join_ms(l.out_rows, r.out_rows, out_rows, l_sorted, r_sorted),
                out_rows,
                join_rows: out_rows,
                sorted_by: Some(left_key.clone()),
                tables,
                preds,
            }
        }
        PhysicalPlan::IndexedNlJoin {
            outer, inner_table, ..
        } => {
            let o = price(ctx, query, outer);
            let mut tables = o.tables;
            tables.push(inner_table.clone());
            // Rows fetched before the inner residual: the inner table's
            // predicate is excluded here and re-applied by the Filter the
            // enumerator wraps on top.
            let fetched = spec_rows(ctx, &tables, &o.preds);
            Priced {
                cost_ms: o.cost_ms + ctx.model.indexed_nl_join_ms(o.out_rows, fetched),
                out_rows: fetched,
                join_rows: fetched,
                tables,
                preds: o.preds,
                sorted_by: o.sorted_by,
            }
        }
        PhysicalPlan::StarSemiJoin { fact_table, legs } => {
            let fact_rows = ctx.model.table_rows(fact_table);
            let mut cost_ms = 0.0;
            let mut total_entries = 0.0;
            for leg in legs {
                let dim = leg.dim_table.as_str();
                let dim_rows = ctx.model.table_rows(dim);
                let keys = dim_rows * ctx.selectivity(&[dim], &[(dim, &leg.dim_predicate)]);
                let entries =
                    fact_rows * ctx.selectivity(&[fact_table, dim], &[(dim, &leg.dim_predicate)]);
                total_entries += entries;
                cost_ms += ctx.model.semijoin_leg_ms(dim, keys, entries);
            }
            let tables: Vec<String> = std::iter::once(fact_table.clone())
                .chain(legs.iter().map(|l| l.dim_table.clone()))
                .collect();
            let preds: Vec<(String, Expr)> = legs
                .iter()
                .map(|l| (l.dim_table.clone(), l.dim_predicate.clone()))
                .collect();
            let matched = spec_rows(ctx, &tables, &preds);
            cost_ms += ctx
                .model
                .semijoin_finish_ms(fact_table, total_entries, matched);
            Priced {
                cost_ms,
                out_rows: matched,
                join_rows: matched,
                tables,
                preds,
                sorted_by: None,
            }
        }
        PhysicalPlan::HashAggregate {
            input, group_by, ..
        } => {
            let child = price(ctx, query, input);
            let groups = if group_by.is_empty() {
                1.0
            } else {
                child.out_rows.sqrt().max(1.0)
            };
            Priced {
                cost_ms: child.cost_ms + ctx.model.aggregate_ms(child.out_rows, groups),
                out_rows: groups,
                join_rows: child.out_rows,
                tables: child.tables,
                preds: child.preds,
                sorted_by: None,
            }
        }
        PhysicalPlan::Materialized {
            tables, predicates, ..
        } => {
            let out_rows = spec_rows(ctx, tables, predicates);
            Priced {
                cost_ms: 0.0,
                out_rows,
                join_rows: out_rows,
                tables: tables.clone(),
                preds: predicates.clone(),
                sorted_by: None,
            }
        }
    }
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
    sensitive: &'a HashSet<String>,
}

impl<'a> PinnedEstimator<'a> {
    fn new(
        base: &'a dyn CardinalityEstimator,
        sensitive: &'a HashSet<String>,
        node: ConfidenceThreshold,
    ) -> Self {
        Self {
            base,
            at_node: base.hinted(node),
            at_median: base.hinted(ConfidenceThreshold::new(PENALTY_ANNOTATION_QUANTILE)),
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
            .predicates
            .iter()
            .any(|(t, e)| self.sensitive.contains(&predicate_key(t, e)));
        let chosen = if touches_sensitive {
            self.at_node.as_deref()
        } else {
            self.at_median.as_deref()
        };
        chosen.unwrap_or(self.base).estimate(request)
    }
}

/// Canonical `table:expr` identity of one query predicate.
fn predicate_key(table: &str, expr: &Expr) -> String {
    format!("{table}:{expr}")
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
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for t in GENERATION_THRESHOLDS {
        let hinted = opt.estimator().hinted(ConfidenceThreshold::new(t));
        let est: &dyn CardinalityEstimator = hinted
            .as_deref()
            .unwrap_or_else(|| opt.estimator().as_ref());
        let model = CostModel::new(opt.catalog(), opt.params());
        let ctx = PlanContext::new(opt.catalog(), model, est);
        let best = best_join_plan(&ctx, query);
        *calls += ctx.estimator_calls();
        let plan = wrap_aggregate(query, best.plan);
        if seen.insert(format!("{plan:?}")) {
            out.push(plan);
        }
        if hinted.is_none() {
            // No hint support: every threshold yields the same plan.
            break;
        }
    }
    out
}

/// Adds the query's (plan-invariant) top aggregate, as the planner does.
fn wrap_aggregate(query: &Query, plan: PhysicalPlan) -> PhysicalPlan {
    if query.aggregates.is_empty() {
        plan
    } else {
        PhysicalPlan::HashAggregate {
            input: Box::new(plan),
            group_by: query.group_by.clone(),
            aggregates: query.aggregates.clone(),
        }
    }
}

/// Index of the cheapest candidate under `ctx` (ties to the lower index).
fn argmin_cost(ctx: &PlanContext<'_>, query: &Query, candidates: &[PhysicalPlan]) -> usize {
    let mut best = 0;
    let mut best_cost = f64::INFINITY;
    for (i, plan) in candidates.iter().enumerate() {
        let c = price(ctx, query, plan).cost_ms;
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
fn sensitive_predicates(
    opt: &Optimizer,
    query: &Query,
    candidates: &[PhysicalPlan],
    calls: &mut usize,
) -> HashSet<String> {
    let mut sensitive = HashSet::new();
    for (t, e) in &query.predicates {
        let key = predicate_key(t, e);
        let probe_set: HashSet<String> = std::iter::once(key.clone()).collect();
        let mut argmins = [0usize; 2];
        for (slot, probe) in SENSITIVITY_PROBES.into_iter().enumerate() {
            let pinned = PinnedEstimator::new(
                opt.estimator().as_ref(),
                &probe_set,
                ConfidenceThreshold::new(probe),
            );
            let model = CostModel::new(opt.catalog(), opt.params());
            let ctx = PlanContext::new(opt.catalog(), model, &pinned);
            argmins[slot] = argmin_cost(&ctx, query, candidates);
            *calls += ctx.estimator_calls();
        }
        if argmins[0] != argmins[1] {
            sensitive.insert(key);
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
        HashSet::new()
    } else {
        sensitive_predicates(opt, query, &candidates, &mut calls)
    };
    let mut sensitive_keys: Vec<String> = sensitive.iter().cloned().collect();
    sensitive_keys.sort_unstable();
    let mut pruned_keys: Vec<String> = query
        .predicates
        .iter()
        .map(|(t, e)| predicate_key(t, e))
        .filter(|k| !sensitive.contains(k))
        .collect();
    pruned_keys.sort_unstable();

    // With nothing sensitive (or a point-like posterior) every node
    // prices identically: one median node suffices and the integration
    // collapses to the point estimate.
    let grid: Vec<(ConfidenceThreshold, f64)> = if sensitive.is_empty() {
        vec![(ConfidenceThreshold::new(PENALTY_ANNOTATION_QUANTILE), 1.0)]
    } else {
        penalty_grid(DEFAULT_QUADRATURE_NODES)
    };

    let mut costs = vec![vec![0.0; grid.len()]; candidates.len()];
    for (j, &(node, _)) in grid.iter().enumerate() {
        let pinned = PinnedEstimator::new(opt.estimator().as_ref(), &sensitive, node);
        let model = CostModel::new(opt.catalog(), opt.params());
        let ctx = PlanContext::new(opt.catalog(), model, &pinned);
        for (i, plan) in candidates.iter().enumerate() {
            costs[i][j] = price(&ctx, query, plan).cost_ms;
        }
        calls += ctx.estimator_calls();
    }
    let weights: Vec<f64> = grid.iter().map(|&(_, w)| w).collect();
    let scores = expected_penalties(&costs, &weights);
    let chosen = select_min_penalty(&scores);

    // Row estimates and node annotations are derived at the posterior
    // median — the guard-arming baseline for adaptive execution.
    let median = ConfidenceThreshold::new(PENALTY_ANNOTATION_QUANTILE);
    let hinted = opt.estimator().hinted(median);
    let est: &dyn CardinalityEstimator = hinted
        .as_deref()
        .unwrap_or_else(|| opt.estimator().as_ref());
    let model = CostModel::new(opt.catalog(), opt.params());
    let ctx = PlanContext::new(opt.catalog(), model, est);
    let priced = price(&ctx, query, &candidates[chosen]);
    calls += ctx.estimator_calls();
    let node_annotations = annotate_plan(opt.catalog(), est, query, &candidates[chosen]);

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

    let plan = candidates
        .into_iter()
        .nth(chosen)
        .expect("chosen index is in range");
    PlannedQuery {
        plan,
        estimated_cost_ms: scores[chosen].expected_cost,
        estimated_rows: priced.join_rows,
        estimator_calls: calls,
        node_annotations,
        selection: PlanSelection::ExpectedPenalty,
        penalty: Some(report),
    }
}
