//! Materialized intermediate results.

use std::sync::Arc;

use rqo_storage::{ColumnVec, Schema, Value};

/// A fully materialized operator result: a schema plus one shared
/// [`ColumnVec`] per schema column.
///
/// The one invariant: every column holds exactly [`Batch::len`] rows —
/// there is no selection vector or other deferred state on a batch, so
/// any consumer may index any column by row id.  Columns are behind
/// `Arc`s: a projection, a served `Materialized` slot, or a predicate-free
/// scan hands columns on without copying them.  Rows exist only at the
/// edge ([`Batch::to_rows`]).
#[derive(Debug, Clone)]
pub struct Batch {
    /// Column layout.
    pub schema: Schema,
    columns: Vec<Arc<ColumnVec>>,
}

impl Batch {
    /// Creates a batch from its columns.
    ///
    /// # Panics
    ///
    /// Panics when the column count differs from the schema's or the
    /// columns differ in length.  The check is always on (not
    /// `debug_assert!`): it is O(columns), and it guards the storage→exec
    /// boundary — a short column here would otherwise make every
    /// ordinal-based kernel downstream misread rows.
    pub fn new(schema: Schema, columns: Vec<Arc<ColumnVec>>) -> Self {
        assert_eq!(
            columns.len(),
            schema.len(),
            "column count diverges from the batch schema"
        );
        assert!(
            columns.windows(2).all(|w| w[0].len() == w[1].len()),
            "batch columns differ in length"
        );
        Self { schema, columns }
    }

    /// Transposes row-major values into a batch (tests; operators
    /// exchange columns).
    ///
    /// # Panics
    ///
    /// Panics when any row's arity differs from the schema, or when a
    /// value is neither NULL nor of its column's declared type (see
    /// [`ColumnVec::from_rows`]).
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == schema.len()),
            "row arity mismatch: batch schema has {} columns",
            schema.len()
        );
        let columns = (0..schema.len())
            .map(|ord| {
                let dt = schema.column(ord).data_type;
                Arc::new(ColumnVec::from_rows(&rows, ord, dt))
            })
            .collect();
        Self { schema, columns }
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Self::from_rows(schema, Vec::new())
    }

    /// The rows, materialized — what a result consumer (the service's
    /// `QueryOutcome`, the wire frames, a test) reads.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..self.len())
            .map(|_| Vec::with_capacity(self.columns.len()))
            .collect();
        for col in &self.columns {
            for (i, row) in rows.iter_mut().enumerate() {
                row.push(col.value(i));
            }
        }
        rows
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Arc<ColumnVec>] {
        &self.columns
    }

    /// The rows `ids` of this batch, in that order (repeats allowed): one
    /// typed gather per column.
    pub fn take(&self, ids: &[u32]) -> Batch {
        let columns = self.columns.iter().map(|c| Arc::new(c.take(ids))).collect();
        Batch {
            schema: self.schema.clone(),
            columns,
        }
    }

    /// This batch without the columns whose name `keep` rejects (the
    /// kept ones are shared, not copied).  The first column stays when
    /// nothing else would: a batch's row count lives in its columns.
    pub fn retain_columns(self, keep: impl Fn(&str) -> bool) -> Batch {
        let mut ordinals: Vec<usize> = (0..self.columns.len())
            .filter(|&i| keep(&self.schema.column(i).name))
            .collect();
        if ordinals.is_empty() && !self.columns.is_empty() {
            ordinals.push(0);
        }
        Batch {
            schema: self.schema.project(&ordinals),
            columns: ordinals.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::DataType;

    fn batch() -> Batch {
        Batch::from_rows(
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
        let column_b: Vec<Value> = b.to_rows().iter().map(|r| r[1].clone()).collect();
        assert_eq!(column_b, vec![Value::Int(9), Value::Int(5), Value::Int(7)]);
    }

    #[test]
    fn rows_roundtrip_and_take_gathers_in_id_order() {
        let b = batch();
        let rows = b.to_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            Batch::from_rows(b.schema.clone(), rows.clone()).to_rows(),
            rows
        );
        let picked = b.take(&[2, 0, 2]);
        assert_eq!(
            picked.to_rows(),
            vec![rows[2].clone(), rows[0].clone(), rows[2].clone()]
        );
        assert!(b.take(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn new_rejects_short_rows_in_all_builds() {
        // Regression: this used to be debug-only, so a release build would
        // silently accept the malformed row and misread columns downstream.
        Batch::from_rows(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![vec![Value::Int(1)]],
        );
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn new_rejects_ragged_columns() {
        let b = batch();
        let short = Arc::new(b.columns()[1].take(&[0]));
        Batch::new(b.schema.clone(), vec![Arc::clone(&b.columns()[0]), short]);
    }

    #[test]
    fn sortedness() {
        let sorted = |b: &Batch, c: usize| b.to_rows().is_sorted_by_key(|r| r[c].clone());
        let b = batch();
        assert!(sorted(&b, 0));
        assert!(!sorted(&b, 1));
        let e = Batch::empty(b.schema.clone());
        assert!(e.is_empty());
        assert!(sorted(&e, 0));
    }
}
