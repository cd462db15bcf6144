//! Logical queries: the paper's SPJ-with-FK-joins model plus aggregation.

use rqo_core::{ConfidenceThreshold, PlanSelection};
use rqo_exec::{AggExpr, AggFunc};
use rqo_expr::Expr;
use rqo_storage::{Catalog, DataType};

/// A logical query: a set of tables implicitly joined along declared
/// foreign keys, per-table selection predicates, and an optional aggregate
/// on top.
///
/// Join predicates are not written explicitly — the optimizer derives them
/// from the catalog's FK edges between the listed tables, matching the
/// paper's assumption that all joins are foreign-key joins over an acyclic
/// join graph.
///
/// Column references in `group_by` and `aggregates` are resolved by bare
/// name against the join output.  When two joined tables share a column
/// name (e.g. `d_attr` across several dimension tables), the colliding
/// columns are disambiguated with `l.`/`r.` prefixes, so a bare reference
/// to them names no output column and [`Query::validate`] rejects it;
/// qualified output references are future work — per-table *predicates*
/// are unaffected, since they bind against their own table's schema
/// before the join.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Tables referenced by the query.
    pub tables: Vec<String>,
    /// Local predicates, attached to the table they reference.
    pub predicates: Vec<(String, Expr)>,
    /// Grouping columns (empty = scalar aggregate or plain SPJ).
    pub group_by: Vec<String>,
    /// Aggregates (empty = return the join result itself).
    pub aggregates: Vec<AggExpr>,
    /// Per-query robustness hint (paper §6.2.5), overriding the
    /// system-wide confidence threshold for this query only.
    pub hint: Option<ConfidenceThreshold>,
    /// Per-query plan-selection mode, overriding the system-wide mode
    /// for this query only (`None` = inherit).
    pub selection: Option<PlanSelection>,
}

impl Query {
    /// Most tables one query may join (the enumerator's DP is over
    /// 16-bit subset masks' worth of tables).
    pub const MAX_TABLES: usize = 16;

    /// Starts a query over the given tables.
    pub fn over(tables: &[&str]) -> Self {
        assert!(!tables.is_empty(), "query needs at least one table");
        Self {
            tables: tables.iter().map(|t| t.to_string()).collect(),
            predicates: Vec::new(),
            group_by: Vec::new(),
            aggregates: Vec::new(),
            hint: None,
            selection: None,
        }
    }

    /// Adds a local predicate on one table.  Multiple predicates on the
    /// same table are ANDed.
    ///
    /// # Panics
    ///
    /// Panics when the table is not part of the query.
    pub fn filter(mut self, table: &str, predicate: Expr) -> Self {
        assert!(
            self.tables.iter().any(|t| t == table),
            "filter on {table:?} which is not in the query"
        );
        if let Some((_, existing)) = self.predicates.iter_mut().find(|(t, _)| t == table) {
            let combined = existing.clone().and(predicate);
            *existing = combined;
        } else {
            self.predicates.push((table.to_string(), predicate));
        }
        self
    }

    /// Adds an aggregate output.
    pub fn aggregate(mut self, agg: AggExpr) -> Self {
        self.aggregates.push(agg);
        self
    }

    /// Sets grouping columns.
    pub fn group(mut self, columns: &[&str]) -> Self {
        self.group_by = columns.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Attaches a per-query confidence-threshold hint.
    pub fn with_hint(mut self, threshold: ConfidenceThreshold) -> Self {
        self.hint = Some(threshold);
        self
    }

    /// Attaches a per-query plan-selection mode.
    pub fn with_selection(mut self, selection: PlanSelection) -> Self {
        self.selection = Some(selection);
        self
    }

    /// The predicate attached to a table, if any.
    pub fn predicate_for(&self, table: &str) -> Option<&Expr> {
        self.predicates
            .iter()
            .find(|(t, _)| t == table)
            .map(|(_, e)| e)
    }

    /// Checks that the optimizer can plan this query over `catalog` and
    /// the executor can evaluate it — the check for queries that arrive
    /// from outside the program, where the enumerator's `assert!`s and the
    /// evaluator's type panics must never be what rejects them.
    ///
    /// # Errors
    ///
    /// A human-readable reason when a table is unknown or listed twice,
    /// there are more than [`MAX_TABLES`](Self::MAX_TABLES), the tables
    /// do not form a tree of foreign-key joins, a predicate names an
    /// unlisted table, does not bind against its table's schema, is
    /// ill-typed ([`Expr::data_type`]) or is not boolean, a group-by /
    /// aggregate column exists on no listed table or on more than one
    /// (the join output renames it, see [`Query`]), or `SUM`/`AVG` reads
    /// a non-numeric column.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), String> {
        let n = self.tables.len();
        if n == 0 || n > Self::MAX_TABLES {
            return Err(format!(
                "a query joins 1 to {} tables, not {n}",
                Self::MAX_TABLES
            ));
        }
        let mut schemas = Vec::with_capacity(n);
        for (i, name) in self.tables.iter().enumerate() {
            if self.tables[..i].contains(name) {
                return Err(format!("table {name:?} is listed twice"));
            }
            match catalog.table(name) {
                Ok(table) => schemas.push(table.schema()),
                Err(_) => return Err(format!("unknown table {name:?}")),
            }
        }

        // The enumerator joins along FK edges between listed tables and
        // sizes every connected subset from its FK root (`find_root`):
        // both hold exactly when those edges form a tree hanging off one
        // table — the paper's acyclic FK-join model.
        let listed = |t: &String| self.tables.contains(t);
        let edges: Vec<(&String, &String)> = catalog
            .foreign_keys()
            .iter()
            .map(|fk| (&fk.from_table, &fk.to_table))
            .filter(|(from, to)| from != to && listed(from) && listed(to))
            .collect();
        let reaches_all = |root: &String| {
            let mut reached = vec![root];
            let mut next = 0;
            while next < reached.len() {
                for &(from, to) in &edges {
                    if from == reached[next] && !reached.contains(&to) {
                        reached.push(to);
                    }
                }
                next += 1;
            }
            reached.len() == n
        };
        if edges.len() != n - 1 || !self.tables.iter().any(reaches_all) {
            return Err(format!(
                "tables {:?} are not connected by a tree of foreign-key joins",
                self.tables
            ));
        }

        for (table, predicate) in &self.predicates {
            let Some(idx) = self.tables.iter().position(|t| t == table) else {
                return Err(format!("predicate on {table:?}, which is not in the query"));
            };
            match predicate.data_type(schemas[idx]) {
                Ok(None | Some(DataType::Bool)) => {}
                Ok(Some(t)) => {
                    return Err(format!("predicate on {table:?} is {t}, not a condition"))
                }
                Err(e) => return Err(format!("predicate on {table:?}: {e}")),
            }
        }
        // The type of the one listed table's column of that name: a name
        // two joined tables share is renamed in the join output.
        let column_type = |col: &str, role: &str| -> Result<DataType, String> {
            let types: Vec<DataType> = schemas
                .iter()
                .filter_map(|s| Some(s.column(s.index_of(col)?).data_type))
                .collect();
            match types[..] {
                [t] => Ok(t),
                [] => Err(format!("unknown {role} column {col:?}")),
                _ => Err(format!(
                    "{role} column {col:?} is ambiguous: {} listed tables have it",
                    types.len()
                )),
            }
        };
        for col in &self.group_by {
            column_type(col, "group-by")?;
        }
        for agg in &self.aggregates {
            let Some(col) = &agg.column else { continue };
            let t = column_type(col, "aggregate")?;
            // SUM and AVG widen through `Value::as_f64`, which has no
            // rule for these.
            let summed = matches!(agg.func, AggFunc::Sum | AggFunc::Avg);
            if summed && matches!(t, DataType::Str | DataType::Bool) {
                return Err(format!(
                    "{:?} over non-numeric aggregate column {col:?}",
                    agg.func
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let q = Query::over(&["lineitem", "orders"])
            .filter("lineitem", Expr::col("l_quantity").gt(Expr::lit(5.0)))
            .filter("lineitem", Expr::col("l_quantity").lt(Expr::lit(10.0)))
            .filter("orders", Expr::col("o_totalprice").gt(Expr::lit(0.0)))
            .aggregate(AggExpr::count_star("n"))
            .group(&["l_partkey"])
            .with_hint(ConfidenceThreshold::new(0.95))
            .with_selection(PlanSelection::ExpectedPenalty);
        assert_eq!(q.tables, ["lineitem", "orders"]);
        assert_eq!(q.predicates.len(), 2); // lineitem preds merged
        let li = q.predicate_for("lineitem").unwrap();
        assert_eq!(li.conjuncts().len(), 2);
        assert!(q.predicate_for("part").is_none());
        assert_eq!(q.group_by, vec!["l_partkey"]);
        assert_eq!(q.hint.unwrap().percent(), 95.0);
        assert_eq!(q.selection, Some(PlanSelection::ExpectedPenalty));
    }

    fn tpch() -> Catalog {
        rqo_datagen::TpchData::generate(&rqo_datagen::TpchConfig {
            scale_factor: 0.002,
            seed: 3,
        })
        .into_catalog()
    }

    #[test]
    fn validate_accepts_what_the_optimizer_plans() {
        let cat = tpch();
        for tables in [
            &["lineitem"][..],
            &["orders", "lineitem"],
            &["part", "lineitem", "orders"],
        ] {
            let q = Query::over(tables)
                .filter("lineitem", Expr::col("l_quantity").gt(Expr::lit(5.0)))
                .group(&["l_partkey"])
                .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
            assert_eq!(q.validate(&cat), Ok(()), "{tables:?}");
        }
    }

    #[test]
    fn validate_names_each_rejection() {
        let cat = tpch();
        let rejected = |q: Query, needle: &str| {
            let err = q.validate(&cat).expect_err(needle);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        rejected(Query::over(&["nope"]), "unknown table");
        rejected(Query::over(&["part", "part"]), "listed twice");
        rejected(
            Query::over(&["lineitem", "lineitem", "orders"]),
            "listed twice",
        );
        // orders and part share no FK edge: both hang off lineitem.
        rejected(Query::over(&["orders", "part"]), "foreign-key");
        let seventeen: Vec<String> = (0..17).map(|i| format!("t{i}")).collect();
        let refs: Vec<&str> = seventeen.iter().map(String::as_str).collect();
        rejected(Query::over(&refs), "1 to 16 tables");
        let mut empty = Query::over(&["part"]);
        empty.tables.clear();
        rejected(empty, "1 to 16 tables");

        rejected(
            Query::over(&["part"]).filter("part", Expr::col("p_nope").lt(Expr::lit(1i64))),
            "predicate on \"part\"",
        );
        let mut stray = Query::over(&["part"]);
        stray
            .predicates
            .push(("orders".into(), Expr::col("o_orderkey").lt(Expr::lit(1i64))));
        rejected(stray, "not in the query");
        rejected(Query::over(&["part"]).group(&["p_nope"]), "group-by column");
        rejected(
            Query::over(&["part"]).aggregate(AggExpr::sum("l_quantity", "q")),
            "aggregate column",
        );
    }

    /// Queries that bind but that the evaluator or an aggregate would
    /// panic on — each used to pass and die behind `catch_unwind`.
    #[test]
    fn validate_rejects_ill_typed_queries() {
        let cat = tpch();
        let rejected = |q: Query, needle: &str| {
            let err = q.validate(&cat).expect_err(needle);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        let part = |predicate: Expr| Query::over(&["part"]).filter("part", predicate);
        rejected(part(Expr::col("p_partkey").like("1%")), "LIKE");
        rejected(
            part(Expr::col("p_x").add(Expr::lit(1i64))),
            "not a condition",
        );
        rejected(
            part(Expr::col("p_x").and(Expr::col("p_y").lt(Expr::lit(3i64)))),
            "AND",
        );
        rejected(
            part(Expr::col("p_brand").lt(Expr::lit(7i64))),
            "incomparable",
        );
        rejected(
            Query::over(&["part"]).aggregate(AggExpr::sum("p_brand", "s")),
            "non-numeric",
        );
        rejected(
            Query::over(&["lineitem", "part"]).aggregate(AggExpr::avg("p_brand", "a")),
            "non-numeric",
        );
        // MIN/MAX/COUNT take any column; a NULL condition is a condition.
        let fine = Query::over(&["part"])
            .filter(
                "part",
                Expr::col("p_brand").eq(Expr::lit(rqo_storage::Value::Null)),
            )
            .aggregate(AggExpr::min("p_brand", "lo"))
            .aggregate(AggExpr::max("p_brand", "hi"));
        assert_eq!(fine.validate(&cat), Ok(()));
    }

    /// Regression: a bare output column two listed tables share used to
    /// pass validation and then panic the caller in the executor's
    /// schema lookup (the join output renames it `l.`/`r.`).
    #[test]
    fn validate_rejects_a_bare_column_two_tables_share() {
        let cat = rqo_datagen::StarData::generate(&rqo_datagen::StarConfig {
            fact_rows: 200,
            seed: 5,
        })
        .into_catalog();
        let star = || Query::over(&["fact", "dim1", "dim2"]);
        let err = star()
            .group(&["d_attr"])
            .aggregate(AggExpr::count_star("n"))
            .validate(&cat)
            .unwrap_err();
        assert!(
            err.contains("group-by column \"d_attr\" is ambiguous"),
            "{err:?}"
        );
        let err = star()
            .aggregate(AggExpr::max("d_key", "k"))
            .validate(&cat)
            .unwrap_err();
        assert!(
            err.contains("aggregate column \"d_key\" is ambiguous"),
            "{err:?}"
        );
        // One dimension: the name is unique, and the query is fine.
        let one = Query::over(&["fact", "dim1"])
            .group(&["d_attr"])
            .aggregate(AggExpr::count_star("n"));
        assert_eq!(one.validate(&cat), Ok(()));
    }

    #[test]
    #[should_panic(expected = "not in the query")]
    fn filter_requires_listed_table() {
        Query::over(&["a"]).filter("b", Expr::col("x").eq(Expr::lit(1i64)));
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn rejects_empty_table_list() {
        Query::over(&[]);
    }
}
