//! Physical plan trees.
//!
//! The optimizer emits these; the executor interprets them.  The node set
//! is exactly what the paper's three experimental scenarios require: two
//! access paths (sequential scan, index seek / index intersection plus RID
//! fetch), three join algorithms (hash, merge, indexed nested loops), the
//! star-join semijoin strategy, and hash aggregation.

use std::fmt;
use std::ops::Bound;

use rqo_core::RequestKey;
use rqo_expr::Expr;
use rqo_storage::Value;

/// A key range over a single indexed column.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexRange {
    /// Indexed column.
    pub column: String,
    /// Lower bound.
    pub lo: Bound<Value>,
    /// Upper bound.
    pub hi: Bound<Value>,
}

impl IndexRange {
    /// An equality range.
    pub fn eq(column: impl Into<String>, v: Value) -> Self {
        Self {
            column: column.into(),
            lo: Bound::Included(v.clone()),
            hi: Bound::Included(v),
        }
    }

    /// A closed range `[lo, hi]`.
    pub fn between(column: impl Into<String>, lo: Value, hi: Value) -> Self {
        Self {
            column: column.into(),
            lo: Bound::Included(lo),
            hi: Bound::Included(hi),
        }
    }
}

/// One leg of a star semijoin: a dimension whose filtered keys drive a
/// fact-side FK index probe.
#[derive(Debug, Clone, PartialEq)]
pub struct SemiJoinLeg {
    /// Dimension table.
    pub dim_table: String,
    /// Dimension key column (the FK target).
    pub dim_key: String,
    /// Filter on the dimension.
    pub dim_predicate: Expr,
    /// Fact-side FK column (must have a secondary index).
    pub fact_fk: String,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `SUM(col)`, accumulated in `f64`: the output is `Float` whatever
    /// the input, so a `SUM` over `Int` is exact only up to 2^53.
    Sum,
    /// `COUNT(*)` (column ignored) or `COUNT(col)`
    Count,
    /// `AVG(col)`
    Avg,
    /// `MIN(col)`, of `col`'s declared type
    Min,
    /// `MAX(col)`, of `col`'s declared type
    Max,
}

/// One aggregate expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggExpr {
    /// Function.
    pub func: AggFunc,
    /// Input column (`None` only for `COUNT(*)`).
    pub column: Option<String>,
    /// Output column name.
    pub alias: String,
}

impl AggExpr {
    /// `SUM(column) AS alias`, a `Float` output accumulated in `f64`
    /// (exact over `Int` only up to 2^53).
    pub fn sum(column: impl Into<String>, alias: impl Into<String>) -> Self {
        Self {
            func: AggFunc::Sum,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// `COUNT(*) AS alias`
    pub fn count_star(alias: impl Into<String>) -> Self {
        Self {
            func: AggFunc::Count,
            column: None,
            alias: alias.into(),
        }
    }

    /// `AVG(column) AS alias`
    pub fn avg(column: impl Into<String>, alias: impl Into<String>) -> Self {
        Self {
            func: AggFunc::Avg,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// `MIN(column) AS alias`
    pub fn min(column: impl Into<String>, alias: impl Into<String>) -> Self {
        Self {
            func: AggFunc::Min,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// `MAX(column) AS alias`
    pub fn max(column: impl Into<String>, alias: impl Into<String>) -> Self {
        Self {
            func: AggFunc::Max,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }
}

/// One entry of the canonical pre-order flattening produced by
/// [`PhysicalPlan::preorder`]: the node, its pre-order index, and its
/// children's pre-order indices.
///
/// This numbering — node before children, children in execution order
/// ([`PhysicalPlan::children`]) — is the *single* coordinate system
/// shared by `explain()`, `OpMetrics`, the optimizer's `NodeAnnotations`,
/// guard indices, and `replace_subtree`.  Anything that needs "node
/// number ↔ plan node" should walk this flattening rather than keeping
/// its own counter.
#[derive(Debug, Clone, PartialEq)]
pub struct PreorderNode<'a> {
    /// Pre-order index of this node.
    pub index: usize,
    /// The plan node itself.
    pub plan: &'a PhysicalPlan,
    /// Pre-order indices of this node's children, in execution order.
    pub children: Vec<usize>,
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Full sequential scan with an optional pushed-down predicate.
    SeqScan {
        /// Table to scan.
        table: String,
        /// Predicate applied during the scan.
        predicate: Option<Expr>,
    },
    /// Single-index seek: scan one key range's leaf entries, fetch the
    /// rows, apply the residual predicate.
    IndexSeek {
        /// Table.
        table: String,
        /// Key range (the index on `range.column` must exist).
        range: IndexRange,
        /// Residual predicate applied after fetching.
        residual: Option<Expr>,
    },
    /// Index intersection: seek several ranges, intersect the RID lists,
    /// fetch only rows matching all ranges, apply the residual.
    IndexIntersection {
        /// Table.
        table: String,
        /// Ranges (each column's index must exist; two or more).
        ranges: Vec<IndexRange>,
        /// Residual predicate applied after fetching.
        residual: Option<Expr>,
    },
    /// Filter on an intermediate result.
    Filter {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// Hash join: build a table on `build`, probe with `probe`.
    HashJoin {
        /// Build side (should be the smaller input).
        build: Box<PhysicalPlan>,
        /// Probe side.
        probe: Box<PhysicalPlan>,
        /// Join key in the build schema.
        build_key: String,
        /// Join key in the probe schema.
        probe_key: String,
    },
    /// Merge join; sorts inputs that are not already sorted on their key
    /// (charging the sort).
    MergeJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join key in the left schema.
        left_key: String,
        /// Join key in the right schema.
        right_key: String,
    },
    /// Indexed nested-loops join: for each outer row, probe the inner
    /// table's secondary index on `inner_index_column` with the outer
    /// row's `outer_key` and fetch matches.
    IndexedNlJoin {
        /// Outer input.
        outer: Box<PhysicalPlan>,
        /// Inner (indexed) table.
        inner_table: String,
        /// Inner indexed column.
        inner_index_column: String,
        /// Key column in the outer schema.
        outer_key: String,
    },
    /// Star semijoin: filter each dimension, probe the fact FK indexes for
    /// matching RIDs, intersect across legs, fetch the fact rows.  Output
    /// schema is the fact schema (dimensions act purely as filters).
    StarSemiJoin {
        /// Fact table.
        fact_table: String,
        /// Semijoin legs (one or more).
        legs: Vec<SemiJoinLeg>,
    },
    /// Hash aggregation (empty `group_by` = scalar aggregate over all
    /// rows, yielding exactly one row even for empty input).
    HashAggregate {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregates.
        aggregates: Vec<AggExpr>,
    },
    /// An already-materialized intermediate, bound at execution time to a
    /// batch produced *before* an adaptive re-plan paused the pipeline.
    /// The executor serves the batch from its slot table without
    /// re-charging the work that produced it; `request` records what the
    /// replaced subtree covered so the optimizer can still annotate the
    /// node and its ancestors.
    Materialized {
        /// Index into the executor's bound-intermediates table.
        slot: usize,
        /// Tables the materialized subtree covered, in its plan order.
        tables: Vec<String>,
        /// The replaced subtree's estimation request.
        request: RequestKey,
    },
}

impl PhysicalPlan {
    /// Renders an `EXPLAIN`-style indented tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{}", self.node_label());
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }

    /// The one-line `EXPLAIN` label for this node alone (no children).
    /// `EXPLAIN ANALYZE` output reuses the same labels so annotated trees
    /// line up with plain `explain()` output.
    pub fn node_label(&self) -> String {
        match self {
            PhysicalPlan::SeqScan { table, predicate } => match predicate {
                Some(p) => format!("SeqScan {table} filter={p}"),
                None => format!("SeqScan {table}"),
            },
            PhysicalPlan::IndexSeek { table, range, .. } => {
                format!("IndexSeek {table}.{}", range.column)
            }
            PhysicalPlan::IndexIntersection { table, ranges, .. } => {
                let cols: Vec<&str> = ranges.iter().map(|r| r.column.as_str()).collect();
                format!("IndexIntersection {table} [{}]", cols.join(", "))
            }
            PhysicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            PhysicalPlan::HashJoin {
                build_key,
                probe_key,
                ..
            } => format!("HashJoin {build_key} = {probe_key}"),
            PhysicalPlan::MergeJoin {
                left_key,
                right_key,
                ..
            } => format!("MergeJoin {left_key} = {right_key}"),
            PhysicalPlan::IndexedNlJoin {
                inner_table,
                inner_index_column,
                outer_key,
                ..
            } => format!("IndexedNlJoin {outer_key} -> {inner_table}.{inner_index_column}"),
            PhysicalPlan::StarSemiJoin { fact_table, legs } => {
                let dims: Vec<&str> = legs.iter().map(|l| l.dim_table.as_str()).collect();
                format!("StarSemiJoin {fact_table} [{}]", dims.join(", "))
            }
            PhysicalPlan::HashAggregate {
                group_by,
                aggregates,
                ..
            } => {
                let aggs: Vec<&str> = aggregates.iter().map(|a| a.alias.as_str()).collect();
                format!(
                    "HashAggregate group=[{}] aggs=[{}]",
                    group_by.join(", "),
                    aggs.join(", ")
                )
            }
            PhysicalPlan::Materialized { slot, tables, .. } => {
                format!("Materialized #{slot} [{}]", tables.join(", "))
            }
        }
    }

    /// Child subtrees in execution order (build before probe, left before
    /// right, outer only for indexed nested loops).  The pre-order walk
    /// over this ordering is the canonical node numbering shared by
    /// `explain()`, `OpMetrics`, and the optimizer's per-node estimates.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::IndexSeek { .. }
            | PhysicalPlan::IndexIntersection { .. }
            | PhysicalPlan::StarSemiJoin { .. }
            | PhysicalPlan::Materialized { .. } => vec![],
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::HashAggregate { input, .. } => {
                vec![input]
            }
            PhysicalPlan::HashJoin { build, probe, .. } => vec![build, probe],
            PhysicalPlan::MergeJoin { left, right, .. } => vec![left, right],
            PhysicalPlan::IndexedNlJoin { outer, .. } => vec![outer],
        }
    }

    /// The canonical pre-order flattening of the tree: entry `i` describes
    /// the node with pre-order index `i` and links to its children's
    /// indices.  Guard-point selection ([`crate::guard_points`]) and the
    /// optimizer's per-node annotation walk are both built on this, which
    /// is what keeps their numberings provably aligned.
    pub fn preorder(&self) -> Vec<PreorderNode<'_>> {
        fn walk<'a>(plan: &'a PhysicalPlan, out: &mut Vec<PreorderNode<'a>>) -> usize {
            let my = out.len();
            out.push(PreorderNode {
                index: my,
                plan,
                children: Vec::new(),
            });
            for child in plan.children() {
                let child_index = walk(child, out);
                out[my].children.push(child_index);
            }
            my
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Mutable counterpart of [`children`](Self::children), in the same
    /// execution order — used by [`replace_subtree`](Self::replace_subtree)
    /// so the mutable walk visits nodes under the canonical pre-order
    /// numbering.
    fn children_mut(&mut self) -> Vec<&mut PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::IndexSeek { .. }
            | PhysicalPlan::IndexIntersection { .. }
            | PhysicalPlan::StarSemiJoin { .. }
            | PhysicalPlan::Materialized { .. } => vec![],
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::HashAggregate { input, .. } => {
                vec![input]
            }
            PhysicalPlan::HashJoin { build, probe, .. } => vec![build, probe],
            PhysicalPlan::MergeJoin { left, right, .. } => vec![left, right],
            PhysicalPlan::IndexedNlJoin { outer, .. } => vec![outer],
        }
    }

    /// Returns a copy of the tree with the subtree at pre-order index
    /// `target` (node before children, children in execution order — the
    /// numbering shared with `OpMetrics` and the optimizer's annotations)
    /// replaced by `replacement`, or `None` when `target` is out of
    /// range.  This is the surgery an adaptive re-plan performs to graft
    /// a [`PhysicalPlan::Materialized`] leaf over the already-executed
    /// fragment.
    pub fn replace_subtree(
        &self,
        target: usize,
        replacement: PhysicalPlan,
    ) -> Option<PhysicalPlan> {
        fn walk(
            node: &mut PhysicalPlan,
            counter: &mut usize,
            target: usize,
            r: &mut Option<PhysicalPlan>,
        ) -> bool {
            let my = *counter;
            *counter += 1;
            if my == target {
                *node = r.take().expect("replacement consumed once");
                return true;
            }
            node.children_mut()
                .into_iter()
                .any(|child| walk(child, counter, target, r))
        }
        let mut out = self.clone();
        let mut replacement = Some(replacement);
        walk(&mut out, &mut 0, target, &mut replacement).then_some(out)
    }

    /// A short label identifying the plan's shape (used by the experiment
    /// reports to show which plan family was chosen).
    pub fn shape_label(&self) -> String {
        match self {
            PhysicalPlan::SeqScan { .. } => "seqscan".to_string(),
            PhysicalPlan::IndexSeek { .. } => "ixseek".to_string(),
            PhysicalPlan::IndexIntersection { .. } => "ixsect".to_string(),
            PhysicalPlan::Filter { input, .. } => input.shape_label(),
            PhysicalPlan::HashJoin { build, probe, .. } => {
                format!("hj({},{})", build.shape_label(), probe.shape_label())
            }
            PhysicalPlan::MergeJoin { left, right, .. } => {
                format!("mj({},{})", left.shape_label(), right.shape_label())
            }
            PhysicalPlan::IndexedNlJoin {
                outer, inner_table, ..
            } => {
                format!("inl({},{inner_table})", outer.shape_label())
            }
            PhysicalPlan::StarSemiJoin { legs, .. } => format!("semijoin[{}]", legs.len()),
            PhysicalPlan::HashAggregate { input, .. } => format!("agg({})", input.shape_label()),
            PhysicalPlan::Materialized { slot, .. } => format!("mat#{slot}"),
        }
    }

    /// Number of operator nodes in the tree (used by test diagnostics and
    /// plan-complexity reports).
    pub fn node_count(&self) -> usize {
        1 + match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::IndexSeek { .. }
            | PhysicalPlan::IndexIntersection { .. }
            | PhysicalPlan::StarSemiJoin { .. }
            | PhysicalPlan::Materialized { .. } => 0,
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::HashAggregate { input, .. } => {
                input.node_count()
            }
            PhysicalPlan::HashJoin { build, probe, .. } => build.node_count() + probe.node_count(),
            PhysicalPlan::MergeJoin { left, right, .. } => left.node_count() + right.node_count(),
            PhysicalPlan::IndexedNlJoin { outer, .. } => outer.node_count(),
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.explain().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_renders_tree() {
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                build: Box::new(PhysicalPlan::SeqScan {
                    table: "part".into(),
                    predicate: Some(Expr::col("p_x").lt(Expr::lit(100i64))),
                }),
                probe: Box::new(PhysicalPlan::SeqScan {
                    table: "lineitem".into(),
                    predicate: None,
                }),
                build_key: "p_partkey".into(),
                probe_key: "l_partkey".into(),
            }),
            group_by: vec![],
            aggregates: vec![AggExpr::sum("l_extendedprice", "revenue")],
        };
        let text = plan.explain();
        assert!(text.contains("HashAggregate"));
        assert!(text.contains("HashJoin p_partkey = l_partkey"));
        assert!(text.contains("SeqScan part filter=(p_x < 100)"));
        assert_eq!(plan.shape_label(), "agg(hj(seqscan,seqscan))");
        assert_eq!(plan.to_string(), text.trim_end());
        assert_eq!(plan.node_count(), 4);
    }

    #[test]
    fn preorder_matches_explain_order_and_links_children() {
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                build: Box::new(PhysicalPlan::SeqScan {
                    table: "part".into(),
                    predicate: None,
                }),
                probe: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::SeqScan {
                        table: "lineitem".into(),
                        predicate: None,
                    }),
                    predicate: Expr::col("l_qty").lt(Expr::lit(5i64)),
                }),
                build_key: "p_partkey".into(),
                probe_key: "l_partkey".into(),
            }),
            group_by: vec![],
            aggregates: vec![],
        };
        let nodes = plan.preorder();
        assert_eq!(nodes.len(), plan.node_count());
        // Indices are dense and self-describing.
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.index, i);
        }
        // Labels line up with explain() line for line.
        let labels: Vec<String> = nodes.iter().map(|n| n.plan.node_label()).collect();
        let explain_labels: Vec<String> = plan
            .explain()
            .lines()
            .map(|l| l.trim_start().to_string())
            .collect();
        assert_eq!(labels, explain_labels);
        // 0 agg -> [1 hj]; 1 hj -> [2 scan part, 3 filter]; 3 -> [4 scan].
        assert_eq!(nodes[0].children, vec![1]);
        assert_eq!(nodes[1].children, vec![2, 3]);
        assert_eq!(nodes[2].children, Vec::<usize>::new());
        assert_eq!(nodes[3].children, vec![4]);
    }

    #[test]
    fn index_range_builders() {
        let r = IndexRange::eq("c", Value::Int(5));
        assert_eq!(r.lo, Bound::Included(Value::Int(5)));
        assert_eq!(r.hi, Bound::Included(Value::Int(5)));
        let r = IndexRange::between("c", Value::Int(1), Value::Int(9));
        assert_eq!(r.lo, Bound::Included(Value::Int(1)));
        assert_eq!(r.hi, Bound::Included(Value::Int(9)));
    }

    #[test]
    fn agg_builders() {
        assert_eq!(AggExpr::count_star("n").column, None);
        assert_eq!(AggExpr::sum("x", "s").func, AggFunc::Sum);
        assert_eq!(AggExpr::avg("x", "a").func, AggFunc::Avg);
        assert_eq!(AggExpr::min("x", "lo").func, AggFunc::Min);
        assert_eq!(AggExpr::max("x", "hi").func, AggFunc::Max);
    }
}
