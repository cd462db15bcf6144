//! The plan cache's evidence level: a plan is a function of what the
//! estimator saw, not of the query's literals.
//!
//! Under the paper's estimator a request's estimate depends only on its
//! evidence — `k` of `n` sample tuples, the prior and `T`, or a recorded
//! observation — and the enumerator is deterministic.  So two queries
//! that differ only in their literals, and whose requests were estimated
//! alike, get the same plan, each with its own literals in it.  This
//! module holds what [`crate::PlanCache`] keys and rebinds such plans by:
//!
//! * a [`Template`]: the query with every literal replaced by a slot of
//!   the literal's type, plus its *constants* in slot order;
//! * the template's [`Requests`]: the requests its first fresh plan asked
//!   the estimator, in ask order;
//! * an [`EvidenceKey`]: the template plus the exact bits of those
//!   requests' estimates under one query's constants;
//! * *slot form*: a plan or request with each literal replaced by its
//!   slot number, which [`bind`] fills with another query's constants.
//!
//! A query is *eligible* only when nothing but an estimate reads its
//! literals.  A column-free compound expression (a folded constant such
//! as `'1997-07-01' + 30`) is read by index matching directly, and two
//! equal constants make predicates, ranges and requests coincide that
//! differ once the constants differ; either bypasses the level, as does
//! expected-penalty selection, which reads whole posteriors rather than
//! estimates.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

use rqo_core::RequestKey;
use rqo_exec::{IndexRange, PhysicalPlan, SemiJoinLeg};
use rqo_expr::Expr;
use rqo_storage::Value;

use crate::analyze::{NodeAnnotation, NodeAnnotations};
use crate::cache::PlanFingerprint;
use crate::planner::PlannedQuery;
use crate::query::Query;

/// A query with every literal replaced by a typed slot, hashed once: the
/// fingerprint's identity minus the literals, plus the table listing
/// order the enumerator walks subsets in.
#[derive(Clone)]
pub(crate) struct Template(Arc<TemplateParts>);

struct TemplateParts {
    hash: u64,
    /// The fingerprint of the query that made this template: all of it
    /// but its literals is the template's.
    exact: PlanFingerprint,
    /// The query's tables in listing order.
    listing: Vec<String>,
    /// Each predicate's shape, in the fingerprint's predicate order.
    shapes: Vec<Vec<u8>>,
}

/// A `Hasher` that keeps the bytes it is fed: a predicate's shape.
#[derive(Default)]
struct Shape(Vec<u8>);

impl Hasher for Shape {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
    fn finish(&self) -> u64 {
        unreachable!("read as bytes")
    }
}

/// A literal's slot type.
fn variant(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Date(_) => 3,
        Value::Str(_) => 4,
        Value::Bool(_) => 5,
    }
}

/// Writes `e`'s shape — each literal as its slot type alone, every other
/// node whole — and collects its literals in pre-order.  Returns whether
/// `e` reads a column, or `None` at a column-free compound expression.
fn shape(e: &Expr, out: &mut Shape, constants: &mut Vec<Value>) -> Option<bool> {
    let reads_column = match e {
        Expr::Col(name) => {
            out.write_u8(0);
            name.hash(out);
            return Some(true);
        }
        Expr::ColIdx(i, name) => {
            out.write_u8(1);
            (i, name).hash(out);
            return Some(true);
        }
        Expr::Lit(v) => {
            out.write_u8(2);
            out.write_u8(variant(v));
            constants.push(v.clone());
            return Some(false);
        }
        Expr::Binary { op, left, right } => {
            out.write_u8(3);
            op.hash(out);
            shape(left, out, constants)? | shape(right, out, constants)?
        }
        Expr::Unary { op, expr } => {
            out.write_u8(4);
            op.hash(out);
            shape(expr, out, constants)?
        }
        Expr::Between { expr, lo, hi } => {
            out.write_u8(5);
            shape(expr, out, constants)? | shape(lo, out, constants)? | shape(hi, out, constants)?
        }
        Expr::Like { expr, pattern } => {
            out.write_u8(6);
            pattern.hash(out);
            shape(expr, out, constants)?
        }
        Expr::InList { expr, list } => {
            out.write_u8(7);
            list.hash(out);
            shape(expr, out, constants)?
        }
    };
    reads_column.then_some(true)
}

impl Template {
    /// The template of `query`, fingerprinted as `exact`, and its
    /// constants in slot order; `None` when the query is not eligible
    /// (see the module docs).
    pub(crate) fn of(query: &Query, exact: &PlanFingerprint) -> Option<(Self, Vec<Value>)> {
        let mut constants = Vec::new();
        let mut shapes = Vec::new();
        let mut previous = None;
        for (table, predicate) in exact.request().predicates() {
            // The planner reads one predicate per table.
            if previous == Some(table) {
                return None;
            }
            previous = Some(table);
            let mut out = Shape::default();
            shape(predicate, &mut out, &mut constants)?;
            shapes.push(out.0);
        }
        if (1..constants.len()).any(|i| constants[..i].contains(&constants[i])) {
            return None;
        }
        let mut h = DefaultHasher::new();
        exact.hash_shape(&mut h);
        (&query.tables, &shapes).hash(&mut h);
        let parts = TemplateParts {
            hash: h.finish(),
            exact: exact.clone(),
            listing: query.tables.clone(),
            shapes,
        };
        Some((Self(Arc::new(parts)), constants))
    }

    /// A fingerprint of the template: its tables and epoch are the
    /// template's.
    pub(crate) fn exact(&self) -> &PlanFingerprint {
        &self.0.exact
    }
}

impl PartialEq for Template {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.0, &other.0);
        Arc::ptr_eq(a, b)
            || (a.hash == b.hash
                && a.shapes == b.shapes
                && a.listing == b.listing
                && a.exact.same_shape(&b.exact))
    }
}

impl Eq for Template {}

impl Hash for Template {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

/// The requests a template's fresh plan asked the estimator, in ask
/// order and slot form, hashed once.
pub(crate) struct Requests {
    hash: u64,
    keys: Vec<RequestKey>,
    /// The place of the query's whole request (its fingerprint's), which
    /// binding takes from the fingerprint instead of building it again.
    whole: Option<usize>,
}

impl Requests {
    /// `asked` in slot form, its literals numbered by their place among
    /// `constants`; `whole` is the asking query's whole request.
    pub(crate) fn record(
        asked: &[RequestKey],
        constants: &[Value],
        whole: &RequestKey,
    ) -> Option<Self> {
        let to_slot = |v: &Value| to_slot(v, constants);
        let keys = asked
            .iter()
            .map(|k| map_key(k, &to_slot))
            .collect::<Option<Vec<_>>>()?;
        let mut h = DefaultHasher::new();
        keys.hash(&mut h);
        Some(Self {
            hash: h.finish(),
            keys,
            whole: asked.iter().position(|k| k == whole),
        })
    }

    /// The requests with `constants` in their slots, where `whole` is the
    /// binding query's whole request.
    pub(crate) fn bind(&self, constants: &[Value], whole: &RequestKey) -> Option<Vec<RequestKey>> {
        let from_slot = |v: &Value| from_slot(v, constants);
        (self.keys.iter().enumerate())
            .map(|(i, k)| match self.whole == Some(i) {
                true => Some(whole.clone()),
                false => map_key(k, &from_slot),
            })
            .collect()
    }
}

/// A template and the exact bits of its requests' estimates, in the
/// order its [`Requests`] list them, hashed once.
#[derive(Clone)]
pub(crate) struct EvidenceKey(Arc<KeyParts>);

struct KeyParts {
    hash: u64,
    template: Template,
    /// Which recorded list the estimates follow.
    requests: u64,
    estimates: Vec<u64>,
}

impl EvidenceKey {
    pub(crate) fn new(template: &Template, requests: &Requests, estimates: Vec<u64>) -> Self {
        let mut h = DefaultHasher::new();
        (template.0.hash, requests.hash, &estimates).hash(&mut h);
        Self(Arc::new(KeyParts {
            hash: h.finish(),
            template: template.clone(),
            requests: requests.hash,
            estimates,
        }))
    }

    pub(crate) fn template(&self) -> &Template {
        &self.0.template
    }
}

impl PartialEq for EvidenceKey {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.0, &other.0);
        Arc::ptr_eq(a, b)
            || (a.hash == b.hash
                && a.requests == b.requests
                && a.estimates == b.estimates
                && a.template == b.template)
    }
}

impl Eq for EvidenceKey {}

impl Hash for EvidenceKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

/// What a plan planned fresh past an evidence miss carries to the
/// cache: the key it files under, itself in slot form, and — when it was
/// the first of its template — the requests it asked.
pub(crate) struct Filing {
    pub(crate) key: EvidenceKey,
    pub(crate) slotted: Arc<Slotted>,
    pub(crate) requests: Option<Arc<Requests>>,
}

/// Its key's hash only: a plan's `Debug` output stays the plan's.
impl fmt::Debug for Filing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Filing({:016x})", self.key.0.hash)
    }
}

/// A plan at the evidence level: in slot form, and each node's request
/// also as its place in the template's [`Requests`] where it has one, so
/// a hit reuses the requests it has just bound instead of rebuilding
/// them.
pub(crate) struct Slotted {
    planned: PlannedQuery,
    requests: Vec<Option<usize>>,
}

/// `v`'s slot: the place of the one constant of its type equal to it
/// (the constants of an eligible query are pairwise unequal).
fn to_slot(v: &Value, constants: &[Value]) -> Option<Value> {
    let slot = constants
        .iter()
        .position(|c| variant(c) == variant(v) && c == v)?;
    Some(Value::Int(slot as i64))
}

/// The constant in slot `v`.
fn from_slot(v: &Value, constants: &[Value]) -> Option<Value> {
    match v {
        Value::Int(slot) => constants.get(usize::try_from(*slot).ok()?).cloned(),
        _ => None,
    }
}

/// Rewrites a value-bearing part of a plan: `None` when `f` has no image
/// for one of its literals.
type Rewrite<'a> = &'a dyn Fn(&Value) -> Option<Value>;

fn map_expr(e: &Expr, f: Rewrite<'_>) -> Option<Expr> {
    let map = |e: &Expr| map_expr(e, f).map(Box::new);
    Some(match e {
        Expr::Lit(v) => Expr::Lit(f(v)?),
        Expr::Col(_) | Expr::ColIdx(..) => e.clone(),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: map(left)?,
            right: map(right)?,
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: map(expr)?,
        },
        Expr::Between { expr, lo, hi } => Expr::Between {
            expr: map(expr)?,
            lo: map(lo)?,
            hi: map(hi)?,
        },
        Expr::Like { expr, pattern } => Expr::Like {
            expr: map(expr)?,
            pattern: pattern.clone(),
        },
        Expr::InList { expr, list } => Expr::InList {
            expr: map(expr)?,
            list: list.clone(),
        },
    })
}

fn map_optional(e: &Option<Expr>, f: Rewrite<'_>) -> Option<Option<Expr>> {
    match e {
        Some(e) => map_expr(e, f).map(Some),
        None => Some(None),
    }
}

fn map_bound(b: &Bound<Value>, f: Rewrite<'_>) -> Option<Bound<Value>> {
    Some(match b {
        Bound::Included(v) => Bound::Included(f(v)?),
        Bound::Excluded(v) => Bound::Excluded(f(v)?),
        Bound::Unbounded => Bound::Unbounded,
    })
}

fn map_range(r: &IndexRange, f: Rewrite<'_>) -> Option<IndexRange> {
    Some(IndexRange {
        column: r.column.clone(),
        lo: map_bound(&r.lo, f)?,
        hi: map_bound(&r.hi, f)?,
    })
}

fn map_plan(p: &PhysicalPlan, f: Rewrite<'_>) -> Option<PhysicalPlan> {
    let child = |c: &PhysicalPlan| map_plan(c, f).map(Box::new);
    Some(match p {
        PhysicalPlan::SeqScan { table, predicate } => PhysicalPlan::SeqScan {
            table: table.clone(),
            predicate: map_optional(predicate, f)?,
        },
        PhysicalPlan::IndexSeek {
            table,
            range,
            residual,
        } => PhysicalPlan::IndexSeek {
            table: table.clone(),
            range: map_range(range, f)?,
            residual: map_optional(residual, f)?,
        },
        PhysicalPlan::IndexIntersection {
            table,
            ranges,
            residual,
        } => PhysicalPlan::IndexIntersection {
            table: table.clone(),
            ranges: ranges
                .iter()
                .map(|r| map_range(r, f))
                .collect::<Option<_>>()?,
            residual: map_optional(residual, f)?,
        },
        PhysicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
            input: child(input)?,
            predicate: map_expr(predicate, f)?,
        },
        PhysicalPlan::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
        } => PhysicalPlan::HashJoin {
            build: child(build)?,
            probe: child(probe)?,
            build_key: build_key.clone(),
            probe_key: probe_key.clone(),
        },
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => PhysicalPlan::MergeJoin {
            left: child(left)?,
            right: child(right)?,
            left_key: left_key.clone(),
            right_key: right_key.clone(),
        },
        PhysicalPlan::IndexedNlJoin {
            outer,
            inner_table,
            inner_index_column,
            outer_key,
        } => PhysicalPlan::IndexedNlJoin {
            outer: child(outer)?,
            inner_table: inner_table.clone(),
            inner_index_column: inner_index_column.clone(),
            outer_key: outer_key.clone(),
        },
        PhysicalPlan::StarSemiJoin { fact_table, legs } => PhysicalPlan::StarSemiJoin {
            fact_table: fact_table.clone(),
            legs: legs
                .iter()
                .map(|l| {
                    Some(SemiJoinLeg {
                        dim_predicate: map_expr(&l.dim_predicate, f)?,
                        ..l.clone()
                    })
                })
                .collect::<Option<_>>()?,
        },
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggregates,
        } => PhysicalPlan::HashAggregate {
            input: child(input)?,
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
        },
        // A re-plan's grafted fragment: never in a fresh plan.
        PhysicalPlan::Materialized { .. } => return None,
    })
}

fn map_key(k: &RequestKey, f: Rewrite<'_>) -> Option<RequestKey> {
    let predicates = k
        .predicates()
        .map(|(t, e)| Some((t, map_expr(e, f)?)))
        .collect::<Option<Vec<_>>>()?;
    Some(RequestKey::new(
        k.tables(),
        predicates.iter().map(|(t, e)| (*t, e)),
    ))
}

fn map_planned(p: &PlannedQuery, f: Rewrite<'_>) -> Option<PlannedQuery> {
    let node_annotations = (p.node_annotations.iter())
        .map(|a| {
            let Some(a) = a else { return Some(None) };
            let request = match &a.request {
                Some(k) => Some(map_key(k, f)?),
                None => None,
            };
            Some(Some(NodeAnnotation { request, ..*a }))
        })
        .collect::<Option<_>>()?;
    Some(rebuilt(p, map_plan(&p.plan, f)?, node_annotations))
}

/// `p`'s numbers around another plan tree and its annotations.
fn rebuilt(
    p: &PlannedQuery,
    plan: PhysicalPlan,
    node_annotations: NodeAnnotations,
) -> PlannedQuery {
    PlannedQuery {
        plan,
        estimated_cost_ms: p.estimated_cost_ms,
        estimated_rows: p.estimated_rows,
        estimator_calls: p.estimator_calls,
        node_annotations,
        selection: p.selection,
        penalty: p.penalty.clone(),
        evidence: None,
    }
}

/// `planned` at the evidence level: in slot form for `constants`, each
/// node's request placed among `asked`, the requests its key's estimates
/// are of.
pub(crate) fn to_slots(
    planned: &PlannedQuery,
    constants: &[Value],
    asked: &[RequestKey],
) -> Option<Slotted> {
    let requests = (planned.node_annotations.iter())
        .map(|a| {
            let key = a.as_ref()?.request.as_ref()?;
            asked.iter().position(|k| k == key)
        })
        .collect();
    Some(Slotted {
        planned: map_planned(planned, &|v| to_slot(v, constants))?,
        requests,
    })
}

/// A slot-form plan with `constants` in its slots, where `bound` are
/// its template's requests with the same constants.
pub(crate) fn bind(
    slotted: &Slotted,
    constants: &[Value],
    bound: &[RequestKey],
) -> Option<PlannedQuery> {
    let from_slot = |v: &Value| from_slot(v, constants);
    let p = &slotted.planned;
    let node_annotations = (p.node_annotations.iter().zip(&slotted.requests))
        .map(|(a, place)| {
            let Some(a) = a else { return Some(None) };
            let request = match (place, &a.request) {
                (Some(i), _) => Some(bound.get(*i)?.clone()),
                (None, Some(k)) => Some(map_key(k, &from_slot)?),
                (None, None) => None,
            };
            Some(Some(NodeAnnotation { request, ..*a }))
        })
        .collect::<Option<_>>()?;
    Some(rebuilt(p, map_plan(&p.plan, &from_slot)?, node_annotations))
}

/// Plans `query` fresh and panics if `hit`, served at the evidence
/// `key` names for the requests `bound`, differs from it.  A difference
/// that feedback published since the probe explains — the requests'
/// estimates moved, so the fresh plan read other evidence — is no fault.
#[cfg(debug_assertions)]
pub(crate) fn check_hit(
    optimizer: &crate::Optimizer,
    query: &Query,
    key: &EvidenceKey,
    bound: &[RequestKey],
    hit: &PlannedQuery,
) {
    let fresh = optimizer.optimize_with(query, rqo_core::PlanSelection::Quantile);
    let Some(diff) = difference(&fresh, hit) else {
        return;
    };
    let now: Vec<u64> = optimizer.with_hinted_context(query.hint, |ctx| {
        bound.iter().map(|k| ctx.ask(k).to_bits()).collect()
    });
    assert!(
        now != key.0.estimates,
        "an evidence-level hit differs from a fresh plan in its {diff}"
    );
}

/// The first part in which two plannings of one query differ — plan
/// tree, cost and row bits, estimator calls, selection mode, or a node's
/// annotation (rows bits and request key) — or `None`.
#[cfg(debug_assertions)]
fn difference(expected: &PlannedQuery, got: &PlannedQuery) -> Option<String> {
    let node = |a: &Option<NodeAnnotation>| {
        a.as_ref().map(|a| {
            (
                a.est_rows.to_bits(),
                a.root_rows.to_bits(),
                a.request.clone(),
            )
        })
    };
    let parts = [
        ("plan tree", expected.plan == got.plan),
        (
            "estimated cost",
            expected.estimated_cost_ms.to_bits() == got.estimated_cost_ms.to_bits(),
        ),
        (
            "estimated rows",
            expected.estimated_rows.to_bits() == got.estimated_rows.to_bits(),
        ),
        (
            "estimator calls",
            expected.estimator_calls == got.estimator_calls,
        ),
        ("selection", expected.selection == got.selection),
        (
            "node annotations",
            expected
                .node_annotations
                .iter()
                .map(node)
                .eq(got.node_annotations.iter().map(node)),
        ),
    ];
    let (part, _) = parts.into_iter().find(|(_, same)| !same)?;
    Some(format!("{part}: expected {expected:?}, got {got:?}"))
}
