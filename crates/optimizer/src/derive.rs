//! The optimizer's one pricing walk: what a plan node stands for.
//!
//! [`derive()`] turns a plan node plus its children's derivations into the
//! node's own [`Derivation`]: the estimation request its subtree stands
//! for (tables covered, query predicates applied, canonical key), the
//! rows that request yields, the cumulative cost of producing them and
//! the order they arrive in.  Every cardinality goes through
//! [`PlanContext::ask`]'s memo, so the estimator is consulted once per
//! distinct request however often a node is derived.
//!
//! Everything that needs a number for a plan node reads it here: the
//! enumerator derives each candidate as it builds it, [`derive_plan`]
//! folds `derive` over a finished plan, [`price_plan`] is that fold's
//! root, and [`crate::annotate_plan`] is its per-node projection.

use rqo_exec::{IndexRange, PhysicalPlan};
use rqo_expr::Expr;
use rqo_stats::synopsis::find_root;

use crate::enumerate::PlanContext;
use crate::query::Query;

/// One plan node's estimation request, rows, cost and output order.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// Tables covered by the node's subtree.
    pub tables: Vec<String>,
    /// Query predicates applied within the subtree, as `(table, expr)`.
    pub predicates: Vec<(String, Expr)>,
    /// Canonical key of the `(tables, predicates)` request — the
    /// identity the memo, the feedback store and the plan cache share.
    pub key: String,
    /// Rows of the FK-root relation of `tables`, the base the request's
    /// selectivity multiplies.
    pub root_rows: f64,
    /// Estimated output rows of the node.
    pub est_rows: f64,
    /// Estimated cost of the whole subtree, in simulated milliseconds.
    pub cost_ms: f64,
    /// Column the output is sorted by, when known (enables sort-free
    /// merge joins downstream).
    pub sorted_by: Option<String>,
    /// False once a filter in the subtree could not be mapped back to a
    /// query predicate: rows from there up are a lower-effort guess and
    /// the node gets no annotation.
    pub known: bool,
}

impl Derivation {
    /// The bare request: `rows(FK root) × selectivity(tables, predicates)`,
    /// costing nothing yet and arriving in no particular order.
    fn request(
        ctx: &PlanContext<'_>,
        tables: Vec<String>,
        predicates: Vec<(String, Expr)>,
    ) -> Self {
        let t: Vec<&str> = tables.iter().map(String::as_str).collect();
        let p: Vec<(&str, &Expr)> = predicates.iter().map(|(t, e)| (t.as_str(), e)).collect();
        let root = find_root(ctx.catalog, &t).expect("a plan subtree covers a connected FK subset");
        let root_rows = ctx.model.table_rows(root);
        let (key, selectivity) = ctx.ask(&t, &p);
        Self {
            tables,
            predicates,
            key,
            root_rows,
            est_rows: root_rows * selectivity,
            cost_ms: 0.0,
            sorted_by: None,
            known: true,
        }
    }

    /// A base-table access applying `predicate`, in clustering order.
    fn access(ctx: &PlanContext<'_>, table: &str, predicate: Option<&Expr>, cost_ms: f64) -> Self {
        let predicates = predicate
            .map(|p| (table.to_string(), p.clone()))
            .into_iter()
            .collect();
        Self {
            cost_ms,
            sorted_by: ctx.clustered_column(table),
            ..Self::request(ctx, vec![table.to_string()], predicates)
        }
    }

    /// The join of two subtrees: both sides' tables and predicates.
    fn join(ctx: &PlanContext<'_>, a: &Self, b: &Self) -> Self {
        Self {
            known: a.known && b.known,
            ..Self::request(
                ctx,
                a.tables.iter().chain(&b.tables).cloned().collect(),
                a.predicates.iter().chain(&b.predicates).cloned().collect(),
            )
        }
    }
}

/// Group-count guess for an aggregate over `input_rows`: one row for a
/// scalar aggregate, √input for a grouped one.  Any monotone heuristic
/// works for costing because the top aggregate is the same for every
/// candidate.
pub(crate) fn group_count(group_by: &[String], input_rows: f64) -> f64 {
    if group_by.is_empty() {
        1.0
    } else {
        input_rows.sqrt().max(1.0)
    }
}

/// Rows of `table` satisfying `predicate` on its own (a marginal: the
/// entries an index range touches, the keys a semijoin leg selects).
fn filtered_rows(ctx: &PlanContext<'_>, table: &str, predicate: &Expr) -> f64 {
    ctx.model.table_rows(table) * ctx.selectivity(&[table], &[(table, predicate)])
}

/// The predicate conjunct an index range was derived from.
fn conjunct_for_range<'e>(pred: &'e Expr, range: &IndexRange) -> &'e Expr {
    pred.conjuncts()
        .into_iter()
        .find(|c| {
            c.as_column_range().is_some_and(|(col, lo, hi)| {
                col == range.column && lo == range.lo && hi == range.hi
            })
        })
        .expect("index range matches a conjunct of the table's query predicate")
}

/// Derives one node from its own shape and its children's derivations
/// (`children` in [`PhysicalPlan::children`] order).
///
/// # Panics
///
/// Panics on nodes the enumerator cannot emit for `query`: an index
/// access whose table has no query predicate or whose range matches no
/// conjunct of it, or a subtree over a disconnected table set.
pub fn derive(
    ctx: &PlanContext<'_>,
    query: &Query,
    node: &PhysicalPlan,
    children: &[&Derivation],
) -> Derivation {
    let model = &ctx.model;
    let indexed_predicate = |table: &str| {
        query
            .predicate_for(table)
            .expect("an index access implies a table predicate")
    };
    match node {
        PhysicalPlan::SeqScan { table, predicate } => {
            Derivation::access(ctx, table, predicate.as_ref(), model.seq_scan_ms(table))
        }
        // A seek or intersection implements the table's whole query
        // predicate (range conjuncts via the index, the rest as the
        // residual); the index work is driven by the ranges' marginals.
        PhysicalPlan::IndexSeek { table, range, .. } => {
            let pred = indexed_predicate(table);
            let entries = filtered_rows(ctx, table, conjunct_for_range(pred, range));
            Derivation::access(ctx, table, Some(pred), model.index_seek_ms(table, entries))
        }
        PhysicalPlan::IndexIntersection { table, ranges, .. } => {
            let pred = indexed_predicate(table);
            let consumed: Vec<&Expr> = ranges.iter().map(|r| conjunct_for_range(pred, r)).collect();
            let entries: Vec<f64> = consumed
                .iter()
                .map(|c| filtered_rows(ctx, table, c))
                .collect();
            // Joint selectivity of the range conjuncts only: the
            // quantity the confidence threshold acts on.
            let range_conj = Expr::conjunction(consumed.into_iter().cloned().collect())
                .expect("an intersection has at least two ranges");
            let result_rows = filtered_rows(ctx, table, &range_conj);
            let cost_ms = model.index_intersection_ms(table, &entries, result_rows);
            Derivation::access(ctx, table, Some(pred), cost_ms)
        }
        PhysicalPlan::Filter { predicate, .. } => {
            let child = children[0];
            // The enumerator only emits filters for a deferred *query*
            // predicate (INL inner residual, star fact predicate):
            // attribute it to the covered table it belongs to.
            let owner = child
                .tables
                .iter()
                .find(|t| query.predicate_for(t) == Some(predicate));
            let applied = |t: &String| {
                child
                    .predicates
                    .iter()
                    .any(|(pt, pe)| pt == t && pe == predicate)
            };
            let request = match owner {
                Some(t) if !applied(t) => {
                    let mut predicates = child.predicates.clone();
                    predicates.push((t.clone(), predicate.clone()));
                    Derivation::request(ctx, child.tables.clone(), predicates)
                }
                _ => child.clone(),
            };
            Derivation {
                cost_ms: child.cost_ms + model.per_row_ms(child.est_rows),
                sorted_by: child.sorted_by.clone(),
                known: child.known && owner.is_some(),
                ..request
            }
        }
        PhysicalPlan::Project { .. } => children[0].clone(),
        PhysicalPlan::HashJoin { .. } => {
            let (build, probe) = (children[0], children[1]);
            let join = Derivation::join(ctx, build, probe);
            Derivation {
                cost_ms: build.cost_ms
                    + probe.cost_ms
                    + model.hash_join_ms(build.est_rows, probe.est_rows, join.est_rows),
                sorted_by: probe.sorted_by.clone(),
                ..join
            }
        }
        PhysicalPlan::MergeJoin {
            left_key,
            right_key,
            ..
        } => {
            let (left, right) = (children[0], children[1]);
            let join = Derivation::join(ctx, left, right);
            Derivation {
                cost_ms: left.cost_ms
                    + right.cost_ms
                    + model.merge_join_ms(
                        left.est_rows,
                        right.est_rows,
                        join.est_rows,
                        left.sorted_by.as_deref() == Some(left_key.as_str()),
                        right.sorted_by.as_deref() == Some(right_key.as_str()),
                    ),
                sorted_by: Some(left_key.clone()),
                ..join
            }
        }
        // Rows fetched before the inner residual: the inner table's
        // predicate is excluded here and re-applied by the Filter the
        // enumerator wraps on top.
        PhysicalPlan::IndexedNlJoin { inner_table, .. } => {
            let outer = children[0];
            let mut tables = outer.tables.clone();
            tables.push(inner_table.clone());
            let fetched = Derivation::request(ctx, tables, outer.predicates.clone());
            Derivation {
                cost_ms: outer.cost_ms + model.indexed_nl_join_ms(outer.est_rows, fetched.est_rows),
                sorted_by: outer.sorted_by.clone(),
                known: outer.known,
                ..fetched
            }
        }
        // The operator emits the fact rows surviving every leg; the
        // dimensions act purely as key filters.
        PhysicalPlan::StarSemiJoin { fact_table, legs } => {
            let fact = fact_table.as_str();
            let fact_rows = model.table_rows(fact);
            let mut cost_ms = 0.0;
            let mut total_entries = 0.0;
            for leg in legs {
                let dim = leg.dim_table.as_str();
                let keys = filtered_rows(ctx, dim, &leg.dim_predicate);
                let entries =
                    fact_rows * ctx.selectivity(&[fact, dim], &[(dim, &leg.dim_predicate)]);
                total_entries += entries;
                cost_ms += model.semijoin_leg_ms(dim, keys, entries);
            }
            let matched = Derivation::request(
                ctx,
                std::iter::once(fact_table)
                    .chain(legs.iter().map(|l| &l.dim_table))
                    .cloned()
                    .collect(),
                legs.iter()
                    .map(|l| (l.dim_table.clone(), l.dim_predicate.clone()))
                    .collect(),
            );
            Derivation {
                cost_ms: cost_ms + model.semijoin_finish_ms(fact, total_entries, matched.est_rows),
                ..matched
            }
        }
        // Rows are the group-count guess; the request stays the input's.
        PhysicalPlan::HashAggregate { group_by, .. } => {
            let input = children[0];
            let groups = group_count(group_by, input.est_rows);
            Derivation {
                est_rows: groups,
                cost_ms: input.cost_ms + model.aggregate_ms(input.est_rows, groups),
                sorted_by: None,
                ..input.clone()
            }
        }
        // A materialized intermediate carries the request of the subtree
        // it replaced, so the estimator — primed with the observed
        // feedback for that key — answers with the truth, at no cost.
        PhysicalPlan::Materialized {
            tables, predicates, ..
        } => Derivation::request(ctx, tables.clone(), predicates.clone()),
    }
}

/// Folds [`derive()`] over a finished plan: one derivation per node, in
/// [`PhysicalPlan::preorder`] numbering (the numbering `explain()`,
/// `OpMetrics` and the executor's guard points share).
pub fn derive_plan(ctx: &PlanContext<'_>, query: &Query, plan: &PhysicalPlan) -> Vec<Derivation> {
    let nodes = plan.preorder();
    let n = nodes.len();
    // In pre-order every child's index is greater than its parent's, so
    // a reverse sweep has each node's children already derived: node
    // `c` sits at `n - 1 - c` of the reversed output.
    let mut reversed: Vec<Derivation> = Vec::with_capacity(n);
    for node in nodes.iter().rev() {
        let children: Vec<&Derivation> = node
            .children
            .iter()
            .map(|&c| &reversed[n - 1 - c])
            .collect();
        let derived = derive(ctx, query, node.plan, &children);
        reversed.push(derived);
    }
    reversed.reverse();
    reversed
}

/// What [`price_plan`] reads off a plan's derivation.
#[derive(Debug, Clone, Copy)]
pub struct PricedPlan {
    /// Total cost in simulated milliseconds.
    pub cost_ms: f64,
    /// Output rows of the plan root.
    pub out_rows: f64,
    /// Output rows of the join (pre-aggregation) — what
    /// [`crate::PlannedQuery::estimated_rows`] reports.
    pub join_rows: f64,
}

impl PricedPlan {
    /// Reads the root (and the join under a top aggregate) off `plan`'s
    /// pre-order derivations.
    pub(crate) fn of(plan: &PhysicalPlan, derived: &[Derivation]) -> Self {
        let join_root = usize::from(matches!(plan, PhysicalPlan::HashAggregate { .. }));
        Self {
            cost_ms: derived[0].cost_ms,
            out_rows: derived[0].est_rows,
            join_rows: derived[join_root].est_rows,
        }
    }
}

/// Prices a plan under `ctx`'s estimates — the same derivation the
/// enumerator costs its candidates with, which is what lets a plan
/// chosen under one estimation context be priced under another
/// (penalty-mode quadrature nodes, *observed* selectivities when
/// measuring realized regret).
///
/// # Panics
///
/// As [`derive()`].
pub fn price_plan(ctx: &PlanContext<'_>, query: &Query, plan: &PhysicalPlan) -> PricedPlan {
    PricedPlan::of(plan, &derive_plan(ctx, query, plan))
}
