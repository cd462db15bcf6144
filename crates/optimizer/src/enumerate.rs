//! Join enumeration: dynamic programming over connected subsets of the FK
//! join graph, plus star-semijoin candidates for star-shaped queries.
//! Every candidate is built as a plan node and costed by
//! [`derive()`](crate::derive::derive) from its inputs' derivations.

use std::cell::RefCell;
use std::collections::HashMap;

use rqo_core::{CardinalityEstimator, EstimationRequest, RequestKey};
use rqo_exec::{PhysicalPlan, SemiJoinLeg};
use rqo_expr::Expr;
use rqo_storage::Catalog;

use crate::access::access_paths;
use crate::cost::CostModel;
use crate::derive::{derive, Derivation};
use crate::query::Query;

/// A plan candidate and the derivation it is costed by.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The physical plan.
    pub plan: PhysicalPlan,
    /// Rows, cumulative cost and output order of the plan's root.
    pub derived: Derivation,
}

impl Candidate {
    /// Derives `plan`, whose root's inputs were derived as `inputs`.
    pub(crate) fn new(
        ctx: &PlanContext<'_>,
        query: &Query,
        plan: PhysicalPlan,
        inputs: &[&Derivation],
    ) -> Self {
        let derived = derive(ctx, query, &plan, inputs);
        Self { plan, derived }
    }

    /// This candidate under a filter applying a deferred query predicate.
    fn filtered(self, ctx: &PlanContext<'_>, query: &Query, predicate: &Expr) -> Self {
        let plan = PhysicalPlan::Filter {
            input: Box::new(self.plan),
            predicate: predicate.clone(),
        };
        Self::new(ctx, query, plan, &[&self.derived])
    }
}

/// Shared planning state: catalog, cost model, the cardinality-estimation
/// module, and a selectivity memo (the estimator is consulted once per
/// distinct subexpression, as in the paper's description of
/// optimizer/estimator traffic).
pub struct PlanContext<'a> {
    /// Catalog (tables, FKs, indexes).
    pub catalog: &'a Catalog,
    /// Cost model.
    pub model: CostModel<'a>,
    /// The pluggable cardinality-estimation module.
    pub estimator: &'a dyn CardinalityEstimator,
    cache: RefCell<HashMap<RequestKey, f64>>,
}

impl<'a> PlanContext<'a> {
    /// Creates a context.
    pub fn new(
        catalog: &'a Catalog,
        model: CostModel<'a>,
        estimator: &'a dyn CardinalityEstimator,
    ) -> Self {
        Self {
            catalog,
            model,
            estimator,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The estimated selectivity of the request `key`, memoized per key:
    /// the memo, the feedback store and the plan cache share the key, so
    /// they agree on what "the same subexpression" means.  The estimator
    /// sees the request in the key's own order, so the answer does not
    /// depend on which caller happened to ask first.  A bare base table
    /// needs no estimate: its selectivity is 1 by definition.
    pub fn ask(&self, key: &RequestKey) -> f64 {
        if key.predicates().len() == 0 && key.tables().len() == 1 {
            return 1.0;
        }
        if let Some(&v) = self.cache.borrow().get(key) {
            return v;
        }
        let sel = self
            .estimator
            .estimate(&EstimationRequest::from(key))
            .selectivity
            .clamp(0.0, 1.0);
        self.cache.borrow_mut().insert(key.clone(), sel);
        sel
    }

    /// The column a table's storage is physically ordered by, if any (the
    /// clustering key: the first schema column that is globally sorted).
    pub fn clustered_column(&self, table: &str) -> Option<String> {
        let t = self.catalog.table(table).ok()?;
        let col = (0..t.schema().len()).find(|&c| t.is_sorted(c))?;
        Some(t.schema().column(col).name.clone())
    }

    /// Number of estimator invocations so far (for overhead reporting).
    pub fn estimator_calls(&self) -> usize {
        self.cache.borrow().len()
    }
}

/// An FK edge between two query tables (by index into the query's table
/// list).
#[derive(Debug, Clone)]
struct Edge {
    from: usize,
    to: usize,
    from_col: String,
    to_col: String,
}

/// Returns the best full-query candidate (joins only; aggregation is added
/// by the planner).
///
/// # Panics
///
/// Panics when the query's tables do not form a connected FK subgraph, or
/// when more than 16 tables are queried (the DP is over bitmasks).
pub fn best_join_plan(ctx: &PlanContext<'_>, query: &Query) -> Candidate {
    let n = query.tables.len();
    assert!(
        n <= Query::MAX_TABLES,
        "join enumeration supports at most 16 tables"
    );

    // Base case: single-table access paths.
    let mut plans: HashMap<u32, Vec<Candidate>> = HashMap::new();
    for (i, table) in query.tables.iter().enumerate() {
        plans.insert(1 << i, prune(access_paths(ctx, query, table)));
    }
    if n == 1 {
        return best_of(&plans[&1]).clone();
    }

    // FK edges among the query's tables.
    let index_of = |name: &str| query.tables.iter().position(|t| t == name);
    let mut edges: Vec<Edge> = Vec::new();
    for fk in ctx.catalog.foreign_keys() {
        if let (Some(a), Some(b)) = (index_of(&fk.from_table), index_of(&fk.to_table)) {
            edges.push(Edge {
                from: a,
                to: b,
                from_col: fk.from_column.clone(),
                to_col: fk.to_column.clone(),
            });
        }
    }

    let connected = |mask: u32| -> bool {
        let first = mask.trailing_zeros();
        let mut seen = 1u32 << first;
        loop {
            let mut grew = false;
            for e in &edges {
                let (fa, fb) = (1u32 << e.from, 1u32 << e.to);
                if mask & fa != 0 && mask & fb != 0 {
                    if seen & fa != 0 && seen & fb == 0 {
                        seen |= fb;
                        grew = true;
                    }
                    if seen & fb != 0 && seen & fa == 0 {
                        seen |= fa;
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        seen == mask
    };
    let full: u32 = (1 << n) - 1;
    assert!(
        connected(full),
        "query tables must form a connected FK join graph"
    );

    // DP over subsets by population count.
    for mask in 1u32..=full {
        if mask.count_ones() < 2 || !connected(mask) {
            continue;
        }
        let mut cands: Vec<Candidate> = Vec::new();

        // Enumerate partitions: a proper nonempty subset of mask
        // containing its lowest bit (each unordered pair once; both join
        // orientations generated explicitly below).
        let low = mask & mask.wrapping_neg();
        let mut sub = (mask - 1) & mask;
        while sub != 0 {
            if sub & low != 0 && sub != mask {
                let a_mask = sub;
                let b_mask = mask ^ sub;
                if connected(a_mask) && connected(b_mask) {
                    for e in &edges {
                        let (fa, fb) = (1u32 << e.from, 1u32 << e.to);
                        let (a_side, b_side) = if a_mask & fa != 0 && b_mask & fb != 0 {
                            ((a_mask, &e.from_col), (b_mask, &e.to_col))
                        } else if b_mask & fa != 0 && a_mask & fb != 0 {
                            ((b_mask, &e.from_col), (a_mask, &e.to_col))
                        } else {
                            continue;
                        };
                        join_candidates(ctx, query, &plans, &mut cands, a_side, b_side);
                    }
                }
            }
            sub = (sub - 1) & mask;
        }

        plans.insert(mask, prune(cands));
    }

    // Star-semijoin candidates compete at the top level.
    let mut finals = plans.remove(&full).expect("full plan set exists");
    finals.extend(star_semijoin_candidates(ctx, query));
    best_of(&prune(finals)).clone()
}

/// Generates hash/merge/INL candidates for one (side-a, side-b) split
/// joined on `a.col_a = b.col_b`, appending to `out`.
fn join_candidates(
    ctx: &PlanContext<'_>,
    query: &Query,
    plans: &HashMap<u32, Vec<Candidate>>,
    out: &mut Vec<Candidate>,
    (a_mask, a_col): (u32, &String),
    (b_mask, b_col): (u32, &String),
) {
    let (Some(a_cands), Some(b_cands)) = (plans.get(&a_mask), plans.get(&b_mask)) else {
        return;
    };

    for ca in a_cands {
        for cb in b_cands {
            // Hash join, both build orientations.
            for ((build, build_key), (probe, probe_key)) in
                [((ca, a_col), (cb, b_col)), ((cb, b_col), (ca, a_col))]
            {
                let plan = PhysicalPlan::HashJoin {
                    build: Box::new(build.plan.clone()),
                    probe: Box::new(probe.plan.clone()),
                    build_key: build_key.clone(),
                    probe_key: probe_key.clone(),
                };
                out.push(Candidate::new(
                    ctx,
                    query,
                    plan,
                    &[&build.derived, &probe.derived],
                ));
            }
            // Merge join.
            let plan = PhysicalPlan::MergeJoin {
                left: Box::new(ca.plan.clone()),
                right: Box::new(cb.plan.clone()),
                left_key: a_col.clone(),
                right_key: b_col.clone(),
            };
            out.push(Candidate::new(
                ctx,
                query,
                plan,
                &[&ca.derived, &cb.derived],
            ));
        }
    }

    // Indexed nested loops, in both orientations: the inner side must be a
    // single base table with a secondary index on its join column; the
    // outer side drives.
    for ((outer_col, outer_cands), (inner_mask, inner_col)) in [
        ((a_col, a_cands), (b_mask, b_col)),
        ((b_col, b_cands), (a_mask, a_col)),
    ] {
        if inner_mask.count_ones() != 1 {
            continue;
        }
        let inner_table = &query.tables[inner_mask.trailing_zeros() as usize];
        if ctx
            .catalog
            .secondary_index(inner_table, inner_col)
            .is_none()
        {
            continue;
        }
        for ca in outer_cands {
            let plan = PhysicalPlan::IndexedNlJoin {
                outer: Box::new(ca.plan.clone()),
                inner_table: inner_table.clone(),
                inner_index_column: inner_col.clone(),
                outer_key: outer_col.clone(),
            };
            let mut cand = Candidate::new(ctx, query, plan, &[&ca.derived]);
            // The index fetches by join key alone; the inner table's
            // own predicate is a residual filter on top.
            if let Some(p) = query.predicate_for(inner_table) {
                cand = cand.filtered(ctx, query, p);
            }
            out.push(cand);
        }
    }
}

/// Star-semijoin candidates: when one query table (the fact) has FK edges
/// to all the others (the dimensions), each filtered dimension with an
/// indexed fact-side FK column can become a semijoin leg; remaining
/// dimensions are applied with hash joins (the paper's "hybrid" plans).
fn star_semijoin_candidates(ctx: &PlanContext<'_>, query: &Query) -> Vec<Candidate> {
    let mut out = Vec::new();
    let n = query.tables.len();
    if n < 3 {
        return out;
    }
    // Identify the fact: FK edges from it to every other query table.
    let fact = query.tables.iter().find(|f| {
        query
            .tables
            .iter()
            .all(|d| d == *f || ctx.catalog.foreign_keys_from(f).any(|fk| &fk.to_table == d))
    });
    let Some(fact) = fact else {
        return out;
    };
    // Aggregation outputs must survive the semijoin (which drops dimension
    // columns that are not re-joined).  Require fact-only outputs, the
    // paper's scenario.
    let fact_schema = ctx.catalog.table(fact).expect("fact exists").schema();
    let outputs_ok = query
        .aggregates
        .iter()
        .filter_map(|a| a.column.as_deref())
        .chain(query.group_by.iter().map(String::as_str))
        .all(|c| fact_schema.index_of(c).is_some());
    if !outputs_ok {
        return out;
    }

    // Possible legs: filtered dims with an indexed fact FK.
    let mut legs: Vec<SemiJoinLeg> = Vec::new();
    for dim in &query.tables {
        if dim == fact {
            continue;
        }
        let Some(pred) = query.predicate_for(dim) else {
            continue;
        };
        let Some(fk) = ctx
            .catalog
            .foreign_keys_from(fact)
            .find(|fk| &fk.to_table == dim)
        else {
            continue;
        };
        if ctx.catalog.secondary_index(fact, &fk.from_column).is_some() {
            legs.push(SemiJoinLeg {
                dim_table: dim.clone(),
                dim_key: fk.to_column.clone(),
                dim_predicate: pred.clone(),
                fact_fk: fk.from_column.clone(),
            });
        }
    }

    // Every nonempty subset of possible legs.
    for leg_mask in 1u32..(1 << legs.len()) {
        let chosen: Vec<SemiJoinLeg> = legs
            .iter()
            .enumerate()
            .filter(|(i, _)| leg_mask & (1 << i) != 0)
            .map(|(_, l)| l.clone())
            .collect();
        let hashed: Vec<&String> = query
            .tables
            .iter()
            .filter(|t| *t != fact && !chosen.iter().any(|l| &l.dim_table == *t))
            .collect();
        let plan = PhysicalPlan::StarSemiJoin {
            fact_table: fact.clone(),
            legs: chosen,
        };
        let mut cand = Candidate::new(ctx, query, plan, &[]);

        // The StarSemiJoin operator emits *unfiltered* fact rows (the
        // dimensions act purely as key filters), so a local predicate on
        // the fact table itself must be re-applied on top.
        if let Some(fact_pred) = query.predicate_for(fact) {
            cand = cand.filtered(ctx, query, fact_pred);
        }

        // Hash-join the remaining dimensions (hybrid shape).
        for dim in hashed {
            let fk = ctx
                .catalog
                .foreign_keys_from(fact)
                .find(|fk| &fk.to_table == dim)
                .expect("the fact references every other query table");
            let scan = PhysicalPlan::SeqScan {
                table: dim.clone(),
                predicate: query.predicate_for(dim).cloned(),
            };
            let build = Candidate::new(ctx, query, scan, &[]);
            let plan = PhysicalPlan::HashJoin {
                build: Box::new(build.plan),
                probe: Box::new(cand.plan),
                build_key: fk.to_column.clone(),
                probe_key: fk.from_column.clone(),
            };
            cand = Candidate::new(ctx, query, plan, &[&build.derived, &cand.derived]);
        }
        out.push(cand);
    }
    out
}

/// Keeps, per distinct output order, the cheapest candidate (the classic
/// interesting-orders pruning), plus the overall cheapest.
fn prune(cands: Vec<Candidate>) -> Vec<Candidate> {
    let mut best: HashMap<Option<String>, Candidate> = HashMap::new();
    for c in cands {
        match best.get(&c.derived.sorted_by) {
            Some(existing) if existing.derived.cost_ms <= c.derived.cost_ms => {}
            _ => {
                best.insert(c.derived.sorted_by.clone(), c);
            }
        }
    }
    best.into_values().collect()
}

/// The cheapest candidate.
///
/// # Panics
///
/// Panics on an empty slice (enumeration always yields at least the
/// all-scans plan).
pub fn best_of(cands: &[Candidate]) -> &Candidate {
    cands
        .iter()
        .min_by(|a, b| a.derived.cost_ms.total_cmp(&b.derived.cost_ms))
        .expect("at least one candidate")
}
