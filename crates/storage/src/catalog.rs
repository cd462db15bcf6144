//! The catalog: tables, foreign keys, and indexes.
//!
//! Foreign-key metadata is load-bearing in this system: join-synopsis
//! construction (paper §3.2) walks the FK graph recursively, and the
//! optimizer only enumerates FK joins (the query model the paper assumes).
//! The catalog therefore validates FKs at registration time and exposes the
//! graph for traversal, asserting acyclicity as the paper does.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::StorageError;
use crate::index::{SecondaryIndex, UniqueIndex};
use crate::table::Table;
use crate::value::{DataType, Value};

/// Opaque identifier of a registered table (its registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// A foreign-key edge: `from_table.from_column` references the unique key
/// `to_table.to_column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing table.
    pub from_table: String,
    /// Referencing column.
    pub from_column: String,
    /// Referenced table.
    pub to_table: String,
    /// Referenced (unique) column.
    pub to_column: String,
}

/// In-memory catalog of tables, indexes, and FK edges.
///
/// Cloning is shallow: tables and indexes are shared behind `Arc`s.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: Vec<Arc<Table>>,
    by_name: HashMap<String, TableId>,
    foreign_keys: Vec<ForeignKey>,
    secondary: HashMap<(String, String), Arc<SecondaryIndex>>,
    unique: HashMap<(String, String), Arc<UniqueIndex>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table.
    pub fn add_table(&mut self, table: Table) -> Result<TableId, StorageError> {
        if self.by_name.contains_key(table.name()) {
            return Err(StorageError::DuplicateTable(table.name().to_string()));
        }
        let id = TableId(self.tables.len());
        self.by_name.insert(table.name().to_string(), id);
        self.tables.push(Arc::new(table));
        Ok(id)
    }

    /// Always `None`: no table is partitioned.  A benchmark-only shim,
    /// kept with a return type that cannot hold a value so that the
    /// `benchmark/` crate, whose sketch-seed probe passes it to
    /// `rqo_stats::TableSketches::seeded_from_table`, builds unchanged.
    /// Nothing in the workspace calls it; ROADMAP items 11(d) and 19
    /// retire it with the benchmark's sketch metrics.
    pub fn partitioning(&self, _name: &str) -> Option<&Arc<std::convert::Infallible>> {
        None
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Result<&Arc<Table>, StorageError> {
        self.by_name
            .get(name)
            .map(|id| &self.tables[id.0])
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// The id for a table name.
    pub fn table_id(&self, name: &str) -> Result<TableId, StorageError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// All registered tables in registration order.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<Table>> {
        self.tables.iter()
    }

    /// Declares a foreign key and builds the unique index on the referenced
    /// side if it does not already exist.
    ///
    /// Both columns must be `Int`: every join the planner emits follows
    /// an FK edge, so this is what makes every join key an `i64`.
    ///
    /// Returns an error when either endpoint is missing, when either
    /// column is not `Int` or the edge would create a cycle in the FK graph
    /// (the paper assumes acyclic join graphs; synopsis construction would
    /// not terminate otherwise) — both [`StorageError::InvalidForeignKey`]
    /// — or, [`StorageError::DuplicateKey`], when the referenced column is
    /// not unique.  A rejected edge leaves the catalog unchanged.
    pub fn add_foreign_key(
        &mut self,
        from_table: &str,
        from_column: &str,
        to_table: &str,
        to_column: &str,
    ) -> Result<(), StorageError> {
        let declared = |table: &str, column: &str| {
            let schema = self.table(table)?.schema();
            schema
                .index_of(column)
                .map(|i| schema.column(i).data_type)
                .ok_or_else(|| StorageError::UnknownColumn {
                    table: table.to_string(),
                    column: column.to_string(),
                })
        };
        let (from_type, to_type) = (
            declared(from_table, from_column)?,
            declared(to_table, to_column)?,
        );
        if (from_type, to_type) != (DataType::Int, DataType::Int) {
            return Err(StorageError::InvalidForeignKey(format!(
                "{from_table}.{from_column} ({from_type}) -> {to_table}.{to_column} \
                 ({to_type}): join keys must both be INT"
            )));
        }
        if self.reaches(to_table, from_table) {
            return Err(StorageError::InvalidForeignKey(format!(
                "edge {from_table} -> {to_table} would create an FK cycle"
            )));
        }
        self.ensure_unique_index(to_table, to_column)?;
        self.foreign_keys.push(ForeignKey {
            from_table: from_table.to_string(),
            from_column: from_column.to_string(),
            to_table: to_table.to_string(),
            to_column: to_column.to_string(),
        });
        Ok(())
    }

    /// True when `from` can reach `to` by following FK edges.
    fn reaches(&self, from: &str, to: &str) -> bool {
        if from == to {
            return true;
        }
        self.foreign_keys
            .iter()
            .filter(|fk| fk.from_table == from)
            .any(|fk| self.reaches(&fk.to_table, to))
    }

    /// All FK edges.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// FK edges leaving the given table.
    pub fn foreign_keys_from<'a>(&'a self, table: &'a str) -> impl Iterator<Item = &'a ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(move |fk| fk.from_table == table)
    }

    /// Builds (or returns the cached) nonclustered index on a column.
    pub fn ensure_secondary_index(
        &mut self,
        table: &str,
        column: &str,
    ) -> Result<Arc<SecondaryIndex>, StorageError> {
        let key = (table.to_string(), column.to_string());
        if let Some(idx) = self.secondary.get(&key) {
            return Ok(Arc::clone(idx));
        }
        let t = self.table(table)?.clone();
        if t.schema().index_of(column).is_none() {
            return Err(StorageError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            });
        }
        let idx = Arc::new(SecondaryIndex::build(&t, column));
        self.secondary.insert(key, Arc::clone(&idx));
        Ok(idx)
    }

    /// The nonclustered index on a column, if one has been built.
    pub fn secondary_index(&self, table: &str, column: &str) -> Option<&Arc<SecondaryIndex>> {
        self.secondary.get(&(table.to_string(), column.to_string()))
    }

    /// Builds (or returns the cached) unique index on a key column.
    ///
    /// # Errors
    ///
    /// [`StorageError::DuplicateKey`] when the column holds a key twice.
    pub fn ensure_unique_index(
        &mut self,
        table: &str,
        column: &str,
    ) -> Result<Arc<UniqueIndex>, StorageError> {
        let key = (table.to_string(), column.to_string());
        if let Some(idx) = self.unique.get(&key) {
            return Ok(Arc::clone(idx));
        }
        let t = self.table(table)?.clone();
        if t.schema().index_of(column).is_none() {
            return Err(StorageError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            });
        }
        let idx = Arc::new(UniqueIndex::build(&t, column)?);
        self.unique.insert(key, Arc::clone(&idx));
        Ok(idx)
    }

    /// The unique index on a column, if one has been built.
    pub fn unique_index(&self, table: &str, column: &str) -> Option<&Arc<UniqueIndex>> {
        self.unique.get(&(table.to_string(), column.to_string()))
    }

    /// Appends a batch of rows to the end of a registered table.  The
    /// returned vector holds one `0` per row: it is the shape the
    /// `benchmark/` crate reads until ROADMAP items 11(d) and 19 land.
    ///
    /// Tables are immutable, so this replaces the table's `Arc` with an
    /// extended successor (other `Catalog` clones sharing the old `Arc`
    /// keep seeing the pre-insert snapshot).  Cached secondary/unique
    /// indexes on the table are carried over eagerly — dropping them
    /// instead would silently change access-path selection relative to a
    /// one-shot-built catalog — by adding the batch, never by rebuilding:
    /// each successor index holds the entries of a build over the
    /// successor table.
    ///
    /// The batch is atomic: the successor table and every successor
    /// index are built first, and only when all of them exist is
    /// anything published.  A rejected batch may already have written
    /// its rows past the end of the published columns, in place; no
    /// published table covers those slots, and the next append, finding
    /// them claimed, copies instead.
    ///
    /// # Errors
    ///
    /// [`StorageError::SchemaMismatch`] for a row failing
    /// arity/type/NULL validation and [`StorageError::DuplicateKey`] for
    /// a batch repeating a key of a unique-indexed column; either way
    /// the catalog is untouched.  Foreign-key targets are not checked
    /// per batch (FK edges are validated at registration).
    pub fn append_rows(
        &mut self,
        name: &str,
        rows: &[Vec<Value>],
    ) -> Result<Vec<usize>, StorageError> {
        let id = self.table_id(name)?;
        let old_rows = self.tables[id.0].num_rows();
        let new_table = self.tables[id.0].appended(rows)?;
        let unique = self
            .unique
            .iter()
            .filter(|(key, _)| key.0 == name)
            .map(|(key, idx)| Ok((key.clone(), idx.appended(&new_table, old_rows)?)))
            .collect::<Result<Vec<_>, StorageError>>()?;
        let secondary: Vec<_> = self
            .secondary
            .iter()
            .filter(|(key, _)| key.0 == name)
            .map(|(key, idx)| (key.clone(), idx.appended(&new_table, old_rows)))
            .collect();

        self.tables[id.0] = Arc::new(new_table);
        for (key, idx) in unique {
            self.unique.insert(key, Arc::new(idx));
        }
        for (key, idx) in secondary {
            self.secondary.insert(key, Arc::new(idx));
        }
        Ok(vec![0; rows.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};

    fn make_table(name: &str, pk_values: &[i64], fk_values: Option<&[i64]>) -> Table {
        let mut cols = vec![("pk", DataType::Int)];
        if fk_values.is_some() {
            cols.push(("fk", DataType::Int));
        }
        let schema = Schema::from_pairs(&cols);
        let mut b = TableBuilder::new(name, schema, pk_values.len());
        for (i, &pk) in pk_values.iter().enumerate() {
            let mut row = vec![Value::Int(pk)];
            if let Some(fks) = fk_values {
                row.push(Value::Int(fks[i]));
            }
            b.push_row(&row);
        }
        b.finish()
    }

    fn catalog_with_fk() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(make_table("parent", &[1, 2, 3], None))
            .unwrap();
        cat.add_table(make_table("child", &[10, 11, 12, 13], Some(&[1, 1, 2, 3])))
            .unwrap();
        cat.add_foreign_key("child", "fk", "parent", "pk").unwrap();
        cat
    }

    #[test]
    fn table_registration_and_lookup() {
        let cat = catalog_with_fk();
        assert_eq!(cat.table("parent").unwrap().num_rows(), 3);
        assert_eq!(cat.table("child").unwrap().num_rows(), 4);
        assert!(matches!(
            cat.table("nope"),
            Err(StorageError::UnknownTable(_))
        ));
        let id = cat.table_id("child").unwrap();
        assert_eq!(cat.tables().nth(id.0).unwrap().name(), "child");
        assert_eq!(cat.tables().count(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = Catalog::new();
        cat.add_table(make_table("t", &[1], None)).unwrap();
        assert!(matches!(
            cat.add_table(make_table("t", &[2], None)),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn fk_registration_builds_pk_index() {
        let cat = catalog_with_fk();
        let idx = cat.unique_index("parent", "pk").expect("pk index built");
        assert_eq!(idx.get(2), Some(1));
        assert_eq!(cat.foreign_keys().len(), 1);
        assert_eq!(cat.foreign_keys_from("child").count(), 1);
        assert_eq!(cat.foreign_keys()[0].to_table, "parent");
        assert_eq!(cat.foreign_keys_from("parent").count(), 0);
    }

    #[test]
    fn fk_validation_errors() {
        let mut cat = Catalog::new();
        cat.add_table(make_table("a", &[1], Some(&[1]))).unwrap();
        assert!(cat.add_foreign_key("a", "fk", "missing", "pk").is_err());
        assert!(cat.add_foreign_key("a", "missing", "a", "pk").is_err());
    }

    #[test]
    fn fk_cycle_rejected() {
        let mut cat = Catalog::new();
        cat.add_table(make_table("a", &[1], Some(&[1]))).unwrap();
        cat.add_table(make_table("b", &[1], Some(&[1]))).unwrap();
        cat.add_foreign_key("a", "fk", "b", "pk").unwrap();
        let err = cat.add_foreign_key("b", "fk", "a", "pk");
        assert!(matches!(err, Err(StorageError::InvalidForeignKey(_))));
        // Self-loop is also a cycle.
        let mut cat2 = Catalog::new();
        cat2.add_table(make_table("a", &[1], Some(&[1]))).unwrap();
        assert!(cat2.add_foreign_key("a", "fk", "a", "pk").is_err());
    }

    /// A one-column table `name(col)` holding `values`.
    fn column_table(name: &str, col: &str, values: &[Value]) -> Table {
        let dt = values[0].data_type().unwrap();
        let mut b = TableBuilder::new(name, Schema::from_pairs(&[(col, dt)]), values.len());
        for v in values {
            b.push_row(std::slice::from_ref(v));
        }
        b.finish()
    }

    /// Rejects the edge `child.fk -> parent.pk` as `InvalidForeignKey`
    /// naming both declared types, and leaves the catalog unchanged.
    fn assert_fk_rejected(child: &[Value], parent: &[Value], types: &str) {
        let mut cat = Catalog::new();
        cat.add_table(column_table("child", "fk", child)).unwrap();
        cat.add_table(column_table("parent", "pk", parent)).unwrap();
        match cat.add_foreign_key("child", "fk", "parent", "pk") {
            Err(StorageError::InvalidForeignKey(msg)) => {
                assert!(msg.contains(types), "{msg:?} names {types:?}")
            }
            other => panic!("expected InvalidForeignKey, got {other:?}"),
        }
        assert!(cat.foreign_keys().is_empty(), "no edge recorded");
        assert!(cat.unique_index("parent", "pk").is_none(), "no index built");
    }

    #[test]
    fn fk_rejects_a_str_primary_key() {
        assert_fk_rejected(
            &[Value::Int(1)],
            &[Value::str("a"), Value::str("b")],
            "child.fk (INT) -> parent.pk (STR)",
        );
    }

    #[test]
    fn fk_rejects_a_date_foreign_key_column() {
        assert_fk_rejected(
            &[Value::Date(1), Value::Date(2)],
            &[Value::Int(1), Value::Int(2)],
            "child.fk (DATE) -> parent.pk (INT)",
        );
    }

    #[test]
    fn fk_accepts_int_to_int() {
        let mut cat = Catalog::new();
        cat.add_table(column_table("child", "fk", &[Value::Int(2)]))
            .unwrap();
        cat.add_table(column_table(
            "parent",
            "pk",
            &[Value::Int(1), Value::Int(2)],
        ))
        .unwrap();
        cat.add_foreign_key("child", "fk", "parent", "pk").unwrap();
        assert_eq!(cat.foreign_keys().len(), 1);
        assert_eq!(cat.unique_index("parent", "pk").unwrap().get(2), Some(1));
    }

    #[test]
    fn append_rows_replaces_table_and_rebuilds_indexes() {
        let mut cat = catalog_with_fk();
        let before = Arc::clone(cat.table("child").unwrap());
        cat.ensure_secondary_index("child", "fk").unwrap();
        let assignments = cat
            .append_rows("child", &[vec![Value::Int(14), Value::Int(2)]])
            .unwrap();
        assert_eq!(
            assignments,
            vec![0],
            "unpartitioned rows land in partition 0"
        );
        assert_eq!(cat.table("child").unwrap().num_rows(), 5);
        assert_eq!(before.num_rows(), 4, "old snapshot Arc still intact");
        // The cached secondary index was carried over to the new table.
        let idx = cat.secondary_index("child", "fk").unwrap();
        assert_eq!(idx.num_entries(), 5);
        // The parent pk unique index (built by add_foreign_key) is
        // untouched by an insert into child.
        assert!(cat.unique_index("parent", "pk").is_some());
        // Bad batches are typed errors, not panics, and change nothing.
        assert!(matches!(
            cat.append_rows("child", &[vec![Value::Int(1)]]),
            Err(StorageError::SchemaMismatch(_))
        ));
        assert!(matches!(
            cat.append_rows("nope", &[]),
            Err(StorageError::UnknownTable(_))
        ));
        assert_eq!(cat.table("child").unwrap().num_rows(), 5);
    }

    #[test]
    fn append_rows_rejects_a_duplicate_key_atomically() {
        let mut cat = catalog_with_fk();
        cat.ensure_secondary_index("parent", "pk").unwrap();
        let before = Arc::clone(cat.table("parent").unwrap());
        let index_before = Arc::clone(cat.unique_index("parent", "pk").unwrap());
        // Repeats stored key 2 — and, in the same batch, brings a fresh
        // key that must not stick either.
        let err = cat
            .append_rows("parent", &[vec![Value::Int(4)], vec![Value::Int(2)]])
            .unwrap_err();
        assert_eq!(
            err,
            StorageError::DuplicateKey {
                table: "parent".into(),
                column: "pk".into(),
                key: 2
            }
        );
        // Nothing was published: same table Arc, same indexes.
        assert!(Arc::ptr_eq(cat.table("parent").unwrap(), &before));
        assert!(Arc::ptr_eq(
            cat.unique_index("parent", "pk").unwrap(),
            &index_before
        ));
        assert_eq!(
            cat.secondary_index("parent", "pk").unwrap().num_entries(),
            3
        );
        // A duplicate *within* the batch is caught the same way...
        assert!(matches!(
            cat.append_rows("parent", &[vec![Value::Int(9)], vec![Value::Int(9)]]),
            Err(StorageError::DuplicateKey { key: 9, .. })
        ));
        // ...and the catalog still takes a valid batch afterwards.
        cat.append_rows("parent", &[vec![Value::Int(4)]]).unwrap();
        assert_eq!(cat.unique_index("parent", "pk").unwrap().get(4), Some(3));
    }

    #[test]
    fn non_unique_key_is_an_error_not_a_panic() {
        let mut cat = Catalog::new();
        cat.add_table(make_table("p", &[1, 1], None)).unwrap();
        cat.add_table(make_table("c", &[1], Some(&[1]))).unwrap();
        assert!(matches!(
            cat.ensure_unique_index("p", "pk"),
            Err(StorageError::DuplicateKey { key: 1, .. })
        ));
        assert!(matches!(
            cat.add_foreign_key("c", "fk", "p", "pk"),
            Err(StorageError::DuplicateKey { .. })
        ));
        assert!(cat.foreign_keys().is_empty(), "the edge was not recorded");
    }
    #[test]
    fn secondary_index_caching() {
        let mut cat = catalog_with_fk();
        assert!(cat.secondary_index("child", "fk").is_none());
        let a = cat.ensure_secondary_index("child", "fk").unwrap();
        let b = cat.ensure_secondary_index("child", "fk").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(cat.secondary_index("child", "fk").is_some());
        assert!(cat.ensure_secondary_index("child", "zzz").is_err());
    }
}
