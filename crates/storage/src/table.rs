//! Columnar tables.
//!
//! Tables are append-only and columnar: each column is a shared
//! [`ColumnVec`] — the same type the executor's batches carry, so a scan
//! hands its columns on without copying — and a row identifier ([`Rid`])
//! is simply the row's ordinal position.  The experiments never store SQL
//! NULLs (the TPC-H-like and star-schema data are fully populated), so
//! stored columns reject `Value::Null`; NULL exists only as an
//! expression-evaluation result.

use std::ops::Range;
use std::sync::Arc;

use crate::column::{ColumnBuilder, ColumnVec};
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Row identifier: ordinal position of the row within its table.
///
/// In the simulated cost model, fetching a row by RID through a nonclustered
/// index costs one random I/O unless the previous fetch touched the same
/// page — exactly the paper's "one random disk read per record" behaviour
/// for scattered qualifying rows.
pub type Rid = u32;

/// An immutable columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Arc<ColumnVec>>,
    /// Per column: stored in non-decreasing order (see [`Table::is_sorted`]).
    sorted: Vec<bool>,
    num_rows: usize,
}

impl Table {
    /// Freezes finished columns into a table, recording which of them are
    /// stored in non-decreasing order.
    fn freeze(name: String, schema: Schema, columns: Vec<ColumnVec>) -> Table {
        let num_rows = columns.first().map_or(0, ColumnVec::len);
        let sorted = columns
            .iter()
            .map(|c| num_rows > 1 && ascending(c, 0..num_rows))
            .collect();
        Table {
            name,
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            sorted,
            num_rows,
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Value at `(rid, column ordinal)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn value(&self, rid: Rid, col: usize) -> Value {
        self.columns[col].value(rid as usize)
    }

    /// Materializes a full row.
    pub fn row(&self, rid: Rid) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(rid as usize)).collect()
    }

    /// Typed access to an integer column.
    ///
    /// # Panics
    ///
    /// Panics when the column is not `Int`.
    pub fn int_column(&self, col: usize) -> &[i64] {
        match &*self.columns[col] {
            ColumnVec::Int { values, .. } => values,
            _ => panic!(
                "column {col} is {} not Int",
                self.schema.column(col).data_type
            ),
        }
    }

    /// Typed access to a float column.
    ///
    /// # Panics
    ///
    /// Panics when the column is not `Float`.
    pub fn float_column(&self, col: usize) -> &[f64] {
        match &*self.columns[col] {
            ColumnVec::Float { values, .. } => values,
            _ => panic!(
                "column {col} is {} not Float",
                self.schema.column(col).data_type
            ),
        }
    }

    /// Typed access to a date column.
    ///
    /// # Panics
    ///
    /// Panics when the column is not `Date`.
    pub fn date_column(&self, col: usize) -> &[i32] {
        match &*self.columns[col] {
            ColumnVec::Date { values, .. } => values,
            _ => panic!(
                "column {col} is {} not Date",
                self.schema.column(col).data_type
            ),
        }
    }

    /// Estimated stored row width in bytes (payload + per-row overhead),
    /// feeding the page-count model.
    pub fn row_width_bytes(&self) -> usize {
        const ROW_OVERHEAD: usize = 16; // header + slot array share
        let width = |dt: DataType| match dt {
            DataType::Int | DataType::Float => 8,
            DataType::Date => 4,
            DataType::Str => 16, // average payload assumption
            DataType::Bool => 1,
        };
        ROW_OVERHEAD
            + self
                .schema
                .columns()
                .iter()
                .map(|c| width(c.data_type))
                .sum::<usize>()
    }

    /// The stored columns, in schema order.  Cloning an `Arc` out of this
    /// slice is how a scan produces a column without copying it.
    pub fn columns(&self) -> &[Arc<ColumnVec>] {
        &self.columns
    }

    /// True when column `col` is an `Int`/`Date` column of more than one
    /// row stored in non-decreasing order — the physical clustering the
    /// merge-join costing exploits.  Recorded once, when the table was
    /// frozen.
    pub fn is_sorted(&self, col: usize) -> bool {
        self.sorted[col]
    }

    /// Returns a new table holding this table's rows followed by
    /// `rows`, in order.  The original is untouched — tables are
    /// immutable, so ingest builds a successor and republishes it
    /// (the engine's snapshot semantics).  The batch is built once as
    /// columns continuing this table's string dictionaries, and each
    /// column is extended by it: when this table is the newest version
    /// of its columns (see [`crate::AppendVec`]) the batch is written
    /// into their spare capacity, so the append costs O(batch); the
    /// original still reads exactly its own rows.  A sortedness flag is
    /// this table's flag confirmed across the seam and the batch, and is
    /// recomputed in full only when this table had at most one row
    /// (whose flag says nothing).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::SchemaMismatch`] when any row's arity or
    /// value types do not match the schema or a value is NULL; the
    /// batch is rejected atomically (no partial append).
    pub fn appended(&self, rows: &[Vec<Value>]) -> Result<Table, StorageError> {
        for row in rows {
            check_row(&self.schema, row).map_err(StorageError::SchemaMismatch)?;
        }
        let mut batch = TableBuilder {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self
                .schema
                .columns()
                .iter()
                .zip(&self.columns)
                .map(|(meta, c)| ColumnBuilder::new(meta.data_type, rows.len()).continuing(c))
                .collect(),
        };
        for row in rows {
            batch.push_checked(row);
        }
        let columns: Vec<ColumnVec> = self
            .columns
            .iter()
            .zip(batch.columns)
            .map(|(old, new)| old.extended(&new.finish()))
            .collect();
        let (old_rows, num_rows) = (self.num_rows, self.num_rows + rows.len());
        let sorted = columns
            .iter()
            .zip(&self.sorted)
            .map(|(c, &was)| {
                if old_rows <= 1 {
                    return num_rows > 1 && ascending(c, 0..num_rows);
                }
                was && ascending(c, old_rows - 1..num_rows)
            })
            .collect();
        Ok(Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: columns.into_iter().map(Arc::new).collect(),
            sorted,
            num_rows,
        })
    }

    /// The table holding rows `ids` of this one, in that order (any
    /// order, repeats allowed): one typed gather per column, and a `Str`
    /// column's output shares its dictionary.  This is how a statistics
    /// sample is drawn.
    ///
    /// # Panics
    ///
    /// Panics when an id is out of range.
    pub fn take(&self, ids: &[Rid]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(ids)).collect();
        Table::freeze(self.name.clone(), self.schema.clone(), columns)
    }
}

/// True when rows `range` of an `Int`/`Date` column are in
/// non-decreasing order; never for other types (nothing exploits them).
fn ascending(col: &ColumnVec, range: Range<usize>) -> bool {
    match col {
        ColumnVec::Int { values, .. } => values[range].windows(2).all(|w| w[0] <= w[1]),
        ColumnVec::Date { values, .. } => values[range].windows(2).all(|w| w[0] <= w[1]),
        _ => false,
    }
}

/// Validates one row against a schema: arity, NULL-freedom, and
/// value-vs-column type (with the same `Int`→`Float` coercion storage
/// applies).  Returns a message naming the offending column so the
/// failure is diagnosable at the ingest boundary instead of deep inside
/// a column kernel.
pub(crate) fn check_row(schema: &Schema, row: &[Value]) -> Result<(), String> {
    if row.len() != schema.len() {
        return Err(format!(
            "row arity {} != schema arity {}",
            row.len(),
            schema.len()
        ));
    }
    for (meta, v) in schema.columns().iter().zip(row) {
        if v.is_null() {
            return Err(format!(
                "stored tables do not accept NULL (column {:?})",
                meta.name
            ));
        }
        if !meta.data_type.accepts(v) {
            return Err(format!(
                "type mismatch: column {:?} is {} <- value {v:?}",
                meta.name, meta.data_type
            ));
        }
    }
    Ok(())
}

/// Builder that appends rows and freezes into a [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    columns: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// Starts a builder with a row-count hint for pre-allocation.
    pub fn new(name: impl Into<String>, schema: Schema, capacity: usize) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnBuilder::new(c.data_type, capacity))
            .collect();
        Self {
            name: name.into(),
            schema,
            columns,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the arity or any value type does not match the schema, or
    /// when a value is NULL (stored tables are fully populated).
    pub fn push_row(&mut self, row: &[Value]) {
        // Validate the whole row up front so a bad value is reported
        // against its schema column before any column vector grows —
        // a mid-row panic would otherwise leave the builder with
        // ragged column lengths.
        if let Err(msg) = check_row(&self.schema, row) {
            panic!("{msg}");
        }
        self.push_checked(row);
    }

    /// Appends a row that already passed [`check_row`], widening `Int`
    /// values bound for `Float` columns.
    fn push_checked(&mut self, row: &[Value]) {
        for ((col, meta), v) in self.columns.iter_mut().zip(self.schema.columns()).zip(row) {
            match (meta.data_type, v) {
                (DataType::Float, Value::Int(x)) => col.push(&Value::Float(*x as f64)),
                _ => col.push(v),
            }
        }
    }

    /// Current number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, ColumnBuilder::len)
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freezes into an immutable table.
    pub fn finish(self) -> Table {
        let columns = self
            .columns
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        Table::freeze(self.name, self.schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::parse_date;

    fn sample_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("price", DataType::Float),
            ("ship", DataType::Date),
            ("brand", DataType::Str),
            ("flag", DataType::Bool),
        ]);
        let mut b = TableBuilder::new("t", schema, 3);
        b.push_row(&[
            Value::Int(1),
            Value::Float(9.5),
            parse_date("1997-07-01"),
            Value::str("B#12"),
            Value::Bool(true),
        ]);
        b.push_row(&[
            Value::Int(2),
            Value::Float(3.25),
            parse_date("1997-08-15"),
            Value::str("B#12"),
            Value::Bool(false),
        ]);
        b.push_row(&[
            Value::Int(3),
            Value::Float(7.0),
            parse_date("1997-09-30"),
            Value::str("B#7"),
            Value::Bool(true),
        ]);
        b.finish()
    }

    #[test]
    fn roundtrip_rows() {
        let t = sample_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(0, 0), Value::Int(1));
        assert_eq!(t.value(1, 1), Value::Float(3.25));
        assert_eq!(t.value(2, 3), Value::str("B#7"));
        assert_eq!(t.row(1).len(), 5);
        assert_eq!(t.row(1)[4], Value::Bool(false));
    }

    #[test]
    fn string_dictionary_is_shared() {
        let t = sample_table();
        match &*t.columns()[3] {
            ColumnVec::Str { codes, dict, .. } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes, &[0, 0, 1]);
            }
            _ => panic!("expected Str column"),
        }
    }

    #[test]
    fn typed_accessors() {
        let t = sample_table();
        assert_eq!(t.int_column(0), &[1, 2, 3]);
        assert_eq!(t.float_column(1), &[9.5, 3.25, 7.0]);
        assert_eq!(t.date_column(2).len(), 3);
    }

    #[test]
    fn int_values_coerce_into_float_columns() {
        let schema = Schema::from_pairs(&[("x", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema, 1);
        b.push_row(&[Value::Int(4)]);
        assert_eq!(b.finish().value(0, 0), Value::Float(4.0));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn rejects_wrong_type() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema, 1);
        b.push_row(&[Value::str("nope")]);
    }

    #[test]
    #[should_panic(expected = "NULL")]
    fn rejects_null() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema, 1);
        b.push_row(&[Value::Null]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let schema = Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema, 1);
        b.push_row(&[Value::Int(1)]);
    }

    #[test]
    fn wrong_type_is_reported_against_its_column() {
        // Regression: a wrong-typed Value used to slip past push_row and
        // only panic deep inside the column push with no column name.
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("price", DataType::Float)]);
        let mut b = TableBuilder::new("t", schema, 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.push_row(&[Value::Int(1), Value::str("oops")]);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("type mismatch"), "got {msg:?}");
        assert!(msg.contains("price"), "names the column: {msg:?}");
        // ...and the builder is still rectangular: the bad row touched
        // no column vector.
        assert_eq!(b.len(), 0);
        b.push_row(&[Value::Int(1), Value::Float(2.0)]);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn appended_extends_without_mutating_original() {
        let t = sample_table();
        let t2 = t
            .appended(&[vec![
                Value::Int(4),
                Value::Int(5), // Int coerces into the Float column
                parse_date("1997-10-01"),
                Value::str("B#12"),
                Value::Bool(false),
            ]])
            .unwrap();
        assert_eq!(t.num_rows(), 3, "original untouched");
        assert_eq!(t2.num_rows(), 4);
        assert_eq!(t2.value(3, 0), Value::Int(4));
        assert_eq!(t2.value(3, 1), Value::Float(5.0));
        // Dictionary code reuse: the appended brand shares the dict entry.
        match (&*t2.columns()[3], &*t.columns()[3]) {
            (ColumnVec::Str { codes, dict, .. }, ColumnVec::Str { dict: old_dict, .. }) => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes, &[0, 0, 1, 0]);
                assert!(
                    Arc::ptr_eq(dict, old_dict),
                    "no new string: the successor shares the dictionary"
                );
            }
            _ => panic!("expected Str column"),
        }
        // Old rows are bit-identical.
        for r in 0..3u32 {
            assert_eq!(t.row(r), t2.row(r));
        }
    }

    #[test]
    fn appended_rejects_bad_rows_atomically() {
        let t = sample_table();
        // Wrong arity.
        assert!(matches!(
            t.appended(&[vec![Value::Int(1)]]),
            Err(StorageError::SchemaMismatch(_))
        ));
        // Wrong type in the SECOND row: nothing from the first sticks.
        let good = t.row(0);
        let bad = vec![
            Value::str("not-an-int"),
            Value::Float(0.0),
            parse_date("1997-01-01"),
            Value::str("B#1"),
            Value::Bool(true),
        ];
        let err = t.appended(&[good, bad]).unwrap_err();
        match err {
            StorageError::SchemaMismatch(msg) => {
                assert!(msg.contains("type mismatch"), "{msg}");
                assert!(msg.contains("id"), "names the column: {msg}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(t.num_rows(), 3);
        // NULL rejected with a typed error too.
        let nul = vec![
            Value::Null,
            Value::Float(0.0),
            parse_date("1997-01-01"),
            Value::str("B#1"),
            Value::Bool(true),
        ];
        assert!(matches!(
            t.appended(&[nul]),
            Err(StorageError::SchemaMismatch(m)) if m.contains("NULL")
        ));
    }

    #[test]
    fn sortedness_is_recorded_when_the_table_freezes() {
        let t = sample_table();
        // id and ship ascend; price is Float, brand Str, flag Bool.
        let flags: Vec<bool> = (0..5).map(|c| t.is_sorted(c)).collect();
        assert_eq!(flags, vec![true, false, true, false, false]);
        let row = |id: i64, ship: &str| {
            vec![
                Value::Int(id),
                Value::Float(0.0),
                parse_date(ship),
                Value::str("B#1"),
                Value::Bool(true),
            ]
        };
        // An append keeps a flag only while the order still holds.
        let t2 = t.appended(&[row(3, "1997-01-01")]).unwrap();
        assert!(t2.is_sorted(0), "ties are non-decreasing");
        assert!(!t2.is_sorted(2));
        assert!(t.is_sorted(2), "original untouched");
        // A gather re-derives the flags from the gathered order.
        let rev = t.take(&[2, 1, 0]);
        assert!(!rev.is_sorted(0));
        assert_eq!(rev.row(0), t.row(2));
        // A single row is never "sorted" (nothing to exploit).
        assert!(!t.take(&[0]).is_sorted(0));
    }

    #[test]
    fn row_width_estimate() {
        let t = sample_table();
        // 16 overhead + 8 + 8 + 4 + 16 + 1 = 53
        assert_eq!(t.row_width_bytes(), 53);
    }

    #[test]
    fn empty_table() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let t = TableBuilder::new("t", schema, 0).finish();
        assert_eq!(t.num_rows(), 0);
    }
}
