//! Join enumeration: dynamic programming over connected subsets of the FK
//! join graph, plus star-semijoin candidates for star-shaped queries.

use std::cell::RefCell;
use std::collections::HashMap;

use rqo_core::{CardinalityEstimator, EstimationRequest};
use rqo_exec::{PhysicalPlan, SemiJoinLeg};
use rqo_expr::Expr;
use rqo_stats::synopsis::find_root;
use rqo_storage::Catalog;

use crate::access::access_paths;
use crate::cost::CostModel;
use crate::query::Query;

/// A costed plan candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The physical plan.
    pub plan: PhysicalPlan,
    /// Estimated cost in simulated milliseconds.
    pub cost_ms: f64,
    /// Estimated output rows.
    pub out_rows: f64,
    /// Column the output is sorted by, when known (enables sort-free merge
    /// joins downstream).
    pub sorted_by: Option<String>,
}

/// Shared planning state: catalog, cost model, the cardinality-estimation
/// module, and a selectivity cache (the estimator
/// is consulted once per distinct subexpression, as in the paper's
/// description of optimizer/estimator traffic).
pub struct PlanContext<'a> {
    /// Catalog (tables, FKs, indexes).
    pub catalog: &'a Catalog,
    /// Cost model.
    pub model: CostModel<'a>,
    /// The pluggable cardinality-estimation module.
    pub estimator: &'a dyn CardinalityEstimator,
    cache: RefCell<HashMap<String, f64>>,
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

    /// Estimated selectivity of `predicates` over the FK-join expression
    /// on `tables`, memoized per distinct subexpression.
    pub fn selectivity(&self, tables: &[&str], predicates: &[(&str, &Expr)]) -> f64 {
        let mut key_tables: Vec<&str> = tables.to_vec();
        key_tables.sort_unstable();
        let mut key_preds: Vec<String> =
            predicates.iter().map(|(t, e)| format!("{t}:{e}")).collect();
        key_preds.sort_unstable();
        let key = format!("{key_tables:?}|{key_preds:?}");
        if let Some(&v) = self.cache.borrow().get(&key) {
            return v;
        }
        let request = EstimationRequest::new(tables.to_vec(), predicates.to_vec());
        let sel = self
            .estimator
            .estimate(&request)
            .selectivity
            .clamp(0.0, 1.0);
        self.cache.borrow_mut().insert(key, sel);
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
    assert!(n <= 16, "join enumeration supports at most 16 tables");

    // Base case: single-table access paths.
    let mut plans: HashMap<u32, Vec<Candidate>> = HashMap::new();
    for (i, table) in query.tables.iter().enumerate() {
        let cands = access_paths(ctx, table, query.predicate_for(table));
        plans.insert(1 << i, prune(cands));
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

    // Cardinality of a connected subset.
    let subset_card = |mask: u32| -> f64 {
        let tables: Vec<&str> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| query.tables[i].as_str())
            .collect();
        let preds: Vec<(&str, &Expr)> = query
            .predicates
            .iter()
            .filter(|(t, _)| tables.contains(&t.as_str()))
            .map(|(t, e)| (t.as_str(), e))
            .collect();
        let root =
            find_root(ctx.catalog, &tables).expect("connected FK subset has a root relation");
        ctx.model.table_rows(root) * ctx.selectivity(&tables, &preds)
    };
    let mut cards: HashMap<u32, f64> = HashMap::new();

    // DP over subsets by population count.
    for mask in 1u32..=full {
        if mask.count_ones() < 2 || !connected(mask) {
            continue;
        }
        let out_rows = *cards.entry(mask).or_insert_with(|| subset_card(mask));
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
                        join_candidates(ctx, query, &plans, &mut cands, a_side, b_side, out_rows);
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
#[allow(clippy::too_many_arguments)]
fn join_candidates(
    ctx: &PlanContext<'_>,
    query: &Query,
    plans: &HashMap<u32, Vec<Candidate>>,
    out: &mut Vec<Candidate>,
    (a_mask, a_col): (u32, &String),
    (b_mask, b_col): (u32, &String),
    out_rows: f64,
) {
    let (Some(a_cands), Some(b_cands)) = (plans.get(&a_mask), plans.get(&b_mask)) else {
        return;
    };
    let n = query.tables.len();
    let tables_of = |mask: u32| -> Vec<&str> {
        (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| query.tables[i].as_str())
            .collect()
    };

    for ca in a_cands {
        for cb in b_cands {
            // Hash join, both build orientations.
            out.push(Candidate {
                plan: PhysicalPlan::HashJoin {
                    build: Box::new(ca.plan.clone()),
                    probe: Box::new(cb.plan.clone()),
                    build_key: a_col.clone(),
                    probe_key: b_col.clone(),
                },
                cost_ms: ca.cost_ms
                    + cb.cost_ms
                    + ctx.model.hash_join_ms(ca.out_rows, cb.out_rows, out_rows),
                out_rows,
                sorted_by: cb.sorted_by.clone(),
            });
            out.push(Candidate {
                plan: PhysicalPlan::HashJoin {
                    build: Box::new(cb.plan.clone()),
                    probe: Box::new(ca.plan.clone()),
                    build_key: b_col.clone(),
                    probe_key: a_col.clone(),
                },
                cost_ms: ca.cost_ms
                    + cb.cost_ms
                    + ctx.model.hash_join_ms(cb.out_rows, ca.out_rows, out_rows),
                out_rows,
                sorted_by: ca.sorted_by.clone(),
            });
            // Merge join.
            let a_sorted = ca.sorted_by.as_deref() == Some(a_col.as_str());
            let b_sorted = cb.sorted_by.as_deref() == Some(b_col.as_str());
            out.push(Candidate {
                plan: PhysicalPlan::MergeJoin {
                    left: Box::new(ca.plan.clone()),
                    right: Box::new(cb.plan.clone()),
                    left_key: a_col.clone(),
                    right_key: b_col.clone(),
                },
                cost_ms: ca.cost_ms
                    + cb.cost_ms
                    + ctx.model.merge_join_ms(
                        ca.out_rows,
                        cb.out_rows,
                        out_rows,
                        a_sorted,
                        b_sorted,
                    ),
                out_rows,
                sorted_by: Some(a_col.clone()),
            });
        }
    }

    // Indexed nested loops, in both orientations: the inner side must be a
    // single base table with a secondary index on its join column; the
    // outer side drives.
    for ((outer_mask, outer_col, outer_cands), (inner_mask, inner_col)) in [
        ((a_mask, a_col, a_cands), (b_mask, b_col)),
        ((b_mask, b_col, b_cands), (a_mask, a_col)),
    ] {
        if inner_mask.count_ones() != 1 {
            continue;
        }
        let inner_table = tables_of(inner_mask)[0];
        if ctx
            .catalog
            .secondary_index(inner_table, inner_col)
            .is_none()
        {
            continue;
        }
        // Rows fetched from the index before the inner residual filter:
        // the join with the inner table's predicate *removed*.
        let joint_tables = tables_of(outer_mask | inner_mask);
        let preds_without_inner: Vec<(&str, &Expr)> = query
            .predicates
            .iter()
            .filter(|(t, _)| t != inner_table && joint_tables.contains(&t.as_str()))
            .map(|(t, e)| (t.as_str(), e))
            .collect();
        let root = find_root(ctx.catalog, &joint_tables).expect("root exists");
        let fetched =
            ctx.model.table_rows(root) * ctx.selectivity(&joint_tables, &preds_without_inner);
        let inner_pred = query.predicate_for(inner_table);
        for ca in outer_cands {
            let mut plan = PhysicalPlan::IndexedNlJoin {
                outer: Box::new(ca.plan.clone()),
                inner_table: inner_table.to_string(),
                inner_index_column: inner_col.clone(),
                outer_key: outer_col.clone(),
            };
            let mut cost = ca.cost_ms + ctx.model.indexed_nl_join_ms(ca.out_rows, fetched);
            if let Some(p) = inner_pred {
                plan = PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: p.clone(),
                };
                cost += ctx.model.per_row_ms(fetched);
            }
            out.push(Candidate {
                plan,
                cost_ms: cost,
                out_rows,
                sorted_by: ca.sorted_by.clone(),
            });
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
    struct LegInfo<'q> {
        dim: &'q str,
        fk_col: String,
        key_col: String,
        pred: &'q Expr,
    }
    let mut legs: Vec<LegInfo<'_>> = Vec::new();
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
            legs.push(LegInfo {
                dim,
                fk_col: fk.from_column.clone(),
                key_col: fk.to_column.clone(),
                pred,
            });
        }
    }
    if legs.is_empty() {
        return out;
    }

    let fact_rows = ctx.model.table_rows(fact);
    let full_tables: Vec<&str> = query.table_refs();
    let full_preds: Vec<(&str, &Expr)> = query
        .predicates
        .iter()
        .map(|(t, e)| (t.as_str(), e))
        .collect();
    let final_rows = fact_rows * ctx.selectivity(&full_tables, &full_preds);

    // Every nonempty subset of possible legs.
    for leg_mask in 1u32..(1 << legs.len()) {
        let chosen: Vec<&LegInfo<'_>> = legs
            .iter()
            .enumerate()
            .filter(|(i, _)| leg_mask & (1 << i) != 0)
            .map(|(_, l)| l)
            .collect();

        let mut cost = 0.0;
        let mut total_entries = 0.0;
        for leg in &chosen {
            let dim_rows = ctx.model.table_rows(leg.dim);
            let keys = dim_rows * ctx.selectivity(&[leg.dim], &[(leg.dim, leg.pred)]);
            let entries = fact_rows * ctx.selectivity(&[fact, leg.dim], &[(leg.dim, leg.pred)]);
            total_entries += entries;
            cost += ctx.model.semijoin_leg_ms(leg.dim, keys, entries);
        }
        // Fact rows surviving the chosen legs.
        let mut covered: Vec<&str> = vec![fact];
        covered.extend(chosen.iter().map(|l| l.dim));
        let leg_preds: Vec<(&str, &Expr)> = chosen.iter().map(|l| (l.dim, l.pred)).collect();
        let matched = fact_rows * ctx.selectivity(&covered, &leg_preds);
        cost += ctx.model.semijoin_finish_ms(fact, total_entries, matched);

        let mut plan = PhysicalPlan::StarSemiJoin {
            fact_table: fact.clone(),
            legs: chosen
                .iter()
                .map(|l| SemiJoinLeg {
                    dim_table: l.dim.to_string(),
                    dim_key: l.key_col.clone(),
                    dim_predicate: l.pred.clone(),
                    fact_fk: l.fk_col.clone(),
                })
                .collect(),
        };
        let mut current_rows = matched;

        // The StarSemiJoin operator emits *unfiltered* fact rows (the
        // dimensions act purely as key filters), so a local predicate on
        // the fact table itself must be re-applied on top.
        if let Some(fact_pred) = query.predicate_for(fact) {
            plan = PhysicalPlan::Filter {
                input: Box::new(plan),
                predicate: fact_pred.clone(),
            };
            cost += ctx.model.per_row_ms(matched);
            let mut preds = leg_preds.clone();
            preds.push((fact.as_str(), fact_pred));
            current_rows = fact_rows * ctx.selectivity(&covered, &preds);
        }

        // Hash-join the remaining filtered dimensions (hybrid shape).
        let mut feasible = true;
        for dim in &query.tables {
            if dim == fact || chosen.iter().any(|l| l.dim == dim.as_str()) {
                continue;
            }
            let Some(fk) = ctx
                .catalog
                .foreign_keys_from(fact)
                .find(|fk| &fk.to_table == dim)
            else {
                feasible = false;
                break;
            };
            let pred = query.predicate_for(dim);
            let dim_rows = ctx.model.table_rows(dim);
            let build_rows = match pred {
                Some(p) => dim_rows * ctx.selectivity(&[dim], &[(dim.as_str(), p)]),
                None => dim_rows,
            };
            covered.push(dim);
            let mut preds: Vec<(&str, &Expr)> = leg_preds.clone();
            if let Some(p) = pred {
                preds.push((dim, p));
            }
            // Include predicates of previously hash-joined dims.
            let next_rows = fact_rows
                * ctx.selectivity(
                    &covered,
                    &query
                        .predicates
                        .iter()
                        .filter(|(t, _)| covered.contains(&t.as_str()))
                        .map(|(t, e)| (t.as_str(), e))
                        .collect::<Vec<_>>(),
                );
            cost += ctx.model.seq_scan_ms(dim)
                + ctx.model.hash_join_ms(build_rows, current_rows, next_rows);
            plan = PhysicalPlan::HashJoin {
                build: Box::new(PhysicalPlan::SeqScan {
                    table: dim.clone(),
                    predicate: pred.cloned(),
                }),
                probe: Box::new(plan),
                build_key: fk.to_column.clone(),
                probe_key: fk.from_column.clone(),
            };
            current_rows = next_rows;
        }
        if !feasible {
            continue;
        }

        out.push(Candidate {
            plan,
            cost_ms: cost,
            out_rows: final_rows,
            sorted_by: None,
        });
    }
    out
}

/// Keeps, per distinct output order, the cheapest candidate (the classic
/// interesting-orders pruning), plus the overall cheapest.
fn prune(cands: Vec<Candidate>) -> Vec<Candidate> {
    let mut best: HashMap<Option<String>, Candidate> = HashMap::new();
    for c in cands {
        match best.get(&c.sorted_by) {
            Some(existing) if existing.cost_ms <= c.cost_ms => {}
            _ => {
                best.insert(c.sorted_by.clone(), c);
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
        .min_by(|a, b| a.cost_ms.total_cmp(&b.cost_ms))
        .expect("at least one candidate")
}
