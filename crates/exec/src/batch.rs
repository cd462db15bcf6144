//! Materialized intermediate results.

use rqo_storage::{Schema, Value};

/// A fully materialized operator result: a schema plus row-major values.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Column layout of the rows.
    pub schema: Schema,
    /// Row-major data.
    pub rows: Vec<Vec<Value>>,
}

impl Batch {
    /// Creates a batch.
    ///
    /// # Panics
    ///
    /// Panics when any row's arity differs from the schema.  The check is
    /// always on (not `debug_assert!`): it is one `usize` compare per row,
    /// and it guards the storage→exec boundary — a malformed row here would
    /// otherwise make every downstream columnar kernel silently misread
    /// columns.
    pub fn new(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == schema.len()),
            "row arity mismatch: batch schema has {} columns",
            schema.len()
        );
        Self { schema, rows }
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
        }
    }

    /// Concatenates per-morsel row chunks, in order, into one batch.
    ///
    /// Operators produce one chunk per morsel; recombining them in morsel
    /// index order gives the same row order at every thread count.
    pub fn from_parts(schema: Schema, parts: Vec<Vec<Vec<Value>>>) -> Self {
        let total = parts.iter().map(Vec::len).sum();
        let mut rows = Vec::with_capacity(total);
        for part in parts {
            rows.extend(part);
        }
        Self::new(schema, rows)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The values in one column, cloned out.
    ///
    /// # Panics
    ///
    /// Panics when the column does not exist.
    pub fn column_values(&self, name: &str) -> Vec<Value> {
        let idx = self.schema.expect_index(name);
        self.rows.iter().map(|r| r[idx].clone()).collect()
    }

    /// True when the rows are non-decreasing in the named column.
    pub fn is_sorted_by(&self, name: &str) -> bool {
        let idx = self.schema.expect_index(name);
        self.rows
            .windows(2)
            .all(|w| w[0][idx].total_cmp(&w[1][idx]) != std::cmp::Ordering::Greater)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::DataType;

    fn batch() -> Batch {
        Batch::new(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![
                vec![Value::Int(1), Value::Int(9)],
                vec![Value::Int(2), Value::Int(5)],
                vec![Value::Int(3), Value::Int(7)],
            ],
        )
    }

    #[test]
    fn accessors() {
        let b = batch();
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(
            b.column_values("b"),
            vec![Value::Int(9), Value::Int(5), Value::Int(7)]
        );
    }

    #[test]
    fn from_parts_concatenates_in_order() {
        let b = batch();
        let parts = vec![
            vec![b.rows[0].clone()],
            Vec::new(),
            vec![b.rows[1].clone(), b.rows[2].clone()],
        ];
        let joined = Batch::from_parts(b.schema.clone(), parts);
        assert_eq!(joined.rows, b.rows);
        assert!(Batch::from_parts(b.schema.clone(), Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn new_rejects_short_rows_in_all_builds() {
        // Regression: this used to be debug-only, so a release build would
        // silently accept the malformed row and misread columns downstream.
        Batch::new(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![vec![Value::Int(1)]],
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn from_parts_rejects_malformed_chunks() {
        Batch::from_parts(
            Schema::from_pairs(&[("a", DataType::Int)]),
            vec![vec![vec![Value::Int(1), Value::Int(2)]]],
        );
    }

    #[test]
    fn sortedness() {
        let b = batch();
        assert!(b.is_sorted_by("a"));
        assert!(!b.is_sorted_by("b"));
        let e = Batch::empty(b.schema.clone());
        assert!(e.is_empty());
        assert!(e.is_sorted_by("a"));
    }
}
