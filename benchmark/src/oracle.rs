//! Reference answers computed by the benchmark itself, row by row with
//! `rqo_expr::eval_bool`, and the checks every reply is held to.

use std::collections::{HashMap, HashSet};

use robust_qo::exec::AggFunc;
use robust_qo::expr::{eval_bool, Expr};
use robust_qo::optimizer::Query;
use robust_qo::storage::{Catalog, Table, Value};

/// FK columns of the TPC-H-like schema: (child column, parent table,
/// parent key column).
const LINEITEM_EDGES: [(&str, &str, &str); 2] = [
    ("l_orderkey", "orders", "o_orderkey"),
    ("l_partkey", "part", "p_partkey"),
];

fn bound(table: &Table, predicate: &Expr) -> Expr {
    predicate
        .bind(table.schema())
        .expect("benchmark predicates name existing columns")
}

/// Rows of `rows` (laid out by `table`'s schema) satisfying `predicate`.
pub fn matching(table: &Table, predicate: &Expr, rows: &[Vec<Value>]) -> i64 {
    let bound = bound(table, predicate);
    rows.iter().filter(|row| eval_bool(&bound, row)).count() as i64
}

fn keys_where(table: &Table, key_column: &str, predicate: &Expr) -> HashSet<i64> {
    let bound = bound(table, predicate);
    let key = table
        .schema()
        .index_of(key_column)
        .expect("key column exists");
    (0..table.num_rows() as u32)
        .filter_map(|rid| {
            let row = table.row(rid);
            eval_bool(&bound, &row).then(|| row[key].as_int())
        })
        .collect()
}

/// `COUNT(*)` of a query per group, by brute force: the root table's rows
/// passing the root predicate whose FK parents pass theirs.  Scalar
/// queries come back under the empty group key.
pub fn group_counts(catalog: &Catalog, query: &Query) -> HashMap<Vec<Value>, i64> {
    let root_name = if query.tables.iter().any(|t| t == "lineitem") {
        "lineitem"
    } else {
        assert_eq!(query.tables.len(), 1, "joins are rooted at lineitem");
        query.tables[0].as_str()
    };
    let root = catalog.table(root_name).expect("root table exists");
    let root_pred = query.predicate_for(root_name).map(|p| bound(root, p));

    // (child column index, surviving parent keys) for each filtered parent.
    let mut parents: Vec<(usize, HashSet<i64>)> = Vec::new();
    for table in query.tables.iter().filter(|t| *t != root_name) {
        let (child_col, _, parent_key) = LINEITEM_EDGES
            .iter()
            .find(|(_, parent, _)| parent == table)
            .expect("joined tables are FK parents of lineitem");
        if let Some(pred) = query.predicate_for(table) {
            let parent = catalog.table(table).expect("parent table exists");
            let idx = root.schema().index_of(child_col).expect("FK column");
            parents.push((idx, keys_where(parent, parent_key, pred)));
        }
    }
    let group_cols: Vec<usize> = query
        .group_by
        .iter()
        .map(|c| root.schema().index_of(c).expect("groups by a root column"))
        .collect();

    let mut counts: HashMap<Vec<Value>, i64> = HashMap::new();
    for rid in 0..root.num_rows() as u32 {
        let row = root.row(rid);
        if root_pred.as_ref().is_some_and(|p| !eval_bool(p, &row)) {
            continue;
        }
        if parents
            .iter()
            .any(|(col, keys)| !keys.contains(&row[*col].as_int()))
        {
            continue;
        }
        let key: Vec<Value> = group_cols.iter().map(|&c| row[c].clone()).collect();
        *counts.entry(key).or_insert(0) += 1;
    }
    if group_cols.is_empty() {
        counts.entry(Vec::new()).or_insert(0);
    }
    counts
}

/// Position of the `COUNT(*)` column in a reply row.
pub fn count_column(query: &Query) -> usize {
    let agg = query
        .aggregates
        .iter()
        .position(|a| a.func == AggFunc::Count && a.column.is_none())
        .expect("every benchmark query carries COUNT(*)");
    query.group_by.len() + agg
}

/// Checks a reply's `COUNT(*)` column against the brute-force counts.
pub fn counts_agree(catalog: &Catalog, query: &Query, rows: &[Vec<Value>]) -> bool {
    let expected = group_counts(catalog, query);
    let groups = query.group_by.len();
    let col = count_column(query);
    rows.len() == expected.len()
        && rows
            .iter()
            .all(|row| expected.get(&row[..groups]) == Some(&row[col].as_int()))
}

/// Two replies are the same answer: same rows in the same order, floats
/// compared by bit pattern.
pub fn rows_identical(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q)))
}

/// Answers the ad-hoc two-range queries from the table's raw columns,
/// fast enough to check every one of tens of thousands of replies: rows
/// sorted by ship date, a binary search for the ship window, a scan of it
/// for the receipt window.  Quantities are whole numbers, so their sum is
/// exact in any order and can be compared bit for bit.
pub struct AdhocOracle {
    /// (ship date, receipt date, quantity), ascending by ship date.
    rows: Vec<(i32, i32, f64)>,
}

impl AdhocOracle {
    pub fn new(lineitem: &Table) -> Self {
        let col = |name: &str| lineitem.schema().index_of(name).expect("lineitem column");
        let ship = lineitem.date_column(col("l_shipdate"));
        let receipt = lineitem.date_column(col("l_receiptdate"));
        let quantity = lineitem.float_column(col("l_quantity"));
        let mut rows: Vec<(i32, i32, f64)> = (0..lineitem.num_rows())
            .map(|i| (ship[i], receipt[i], quantity[i]))
            .collect();
        rows.sort_by_key(|r| r.0);
        AdhocOracle { rows }
    }

    /// `COUNT(*)` and `SUM(l_quantity)` of `queries::two_range(start, len, offset)`.
    pub fn answer(&self, start: i32, len: i32, offset: i32) -> (i64, f64) {
        let from = self.rows.partition_point(|r| r.0 < start);
        let to = self.rows.partition_point(|r| r.0 <= start + len);
        let (lo, hi) = (start + offset, start + len + offset);
        self.rows[from..to]
            .iter()
            .filter(|r| (lo..=hi).contains(&r.1))
            .fold((0, 0.0), |(n, sum), r| (n + 1, sum + r.2))
    }
}

/// The answers a `COUNT(*)` reader may legally see while batches are
/// being appended: the count on the base table plus the matches of some
/// *prefix* of the batch sequence.  A count that falls between two
/// prefixes means the reader saw part of a batch.
#[derive(Debug, Clone)]
pub struct PrefixAnswers {
    /// `answers[k]` is the count after the first `k` batches.
    answers: Vec<i64>,
}

impl PrefixAnswers {
    pub fn new(base: i64, per_batch_matches: &[i64]) -> Self {
        let mut answers = Vec::with_capacity(per_batch_matches.len() + 1);
        let mut total = base;
        answers.push(total);
        for m in per_batch_matches {
            total += m;
            answers.push(total);
        }
        PrefixAnswers { answers }
    }

    /// Whether `count` is the answer on some prefix of `lo..=hi` batches.
    /// `lo` is how many batches were acknowledged before the read was
    /// sent (they must be visible) and `hi` how many had been sent when
    /// it returned (no others can be).
    pub fn admits(&self, count: i64, lo: usize, hi: usize) -> bool {
        let hi = hi.min(self.answers.len() - 1);
        lo <= hi && self.answers[lo..=hi].contains(&count)
    }

    pub fn after_all(&self) -> i64 {
        *self.answers.last().expect("never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_valid_prefix_is_admitted() {
        let p = PrefixAnswers::new(100, &[3, 0, 5, 2]);
        for (k, count) in [100, 103, 103, 108, 110].into_iter().enumerate() {
            assert!(p.admits(count, 0, 4), "prefix {k}");
            assert!(p.admits(count, k, k), "prefix {k} exactly");
        }
        assert_eq!(p.after_all(), 110);
    }

    #[test]
    fn a_torn_batch_is_rejected() {
        let p = PrefixAnswers::new(100, &[3, 0, 5, 2]);
        // 105 = base + batch 0 + two of batch 2's five rows.
        assert!(!p.admits(105, 0, 4));
        assert!(!p.admits(99, 0, 4));
        assert!(!p.admits(111, 0, 4));
    }

    #[test]
    fn visibility_bounds_are_enforced() {
        let p = PrefixAnswers::new(100, &[3, 0, 5, 2]);
        // Three batches were acknowledged before the read: the base
        // answer is stale.
        assert!(!p.admits(100, 3, 4));
        assert!(p.admits(108, 3, 4));
        // Only one batch had been sent: the reader cannot know batch 3.
        assert!(!p.admits(108, 0, 1));
        assert!(p.admits(103, 0, 1));
        // A bound past the sequence is clamped, an empty range admits nothing.
        assert!(p.admits(110, 4, 9));
        assert!(!p.admits(110, 5, 9));
    }

    #[test]
    fn float_rows_compare_by_bits() {
        let a = vec![vec![Value::Int(1), Value::Float(0.1 + 0.2)]];
        let b = vec![vec![Value::Int(1), Value::Float(0.3)]];
        assert!(rows_identical(&a, &a));
        assert!(!rows_identical(&a, &b));
        assert!(!rows_identical(&a, &[]));
    }
}
