//! Secondary (nonclustered) and unique (primary-key) indexes.
//!
//! [`SecondaryIndex`] models a B-tree's leaf level as a sorted
//! `(key, rid)` array.  Range lookups return a contiguous slice of entries,
//! whose leaf pages the executor charges as sequential reads; fetching the
//! matching rows from the base table then costs random I/Os — the access
//! pattern at the heart of the paper's index-intersection-vs-scan example.
//!
//! [`UniqueIndex`] maps integer primary keys to RIDs, supporting the
//! foreign-key joins (indexed nested loops, join-synopsis construction)
//! that both the optimizer and the statistics layer rely on.

use std::collections::HashMap;
use std::ops::Bound;

use crate::error::StorageError;
use crate::table::{Rid, Table};
use crate::value::Value;

/// A nonclustered index: all `(key, rid)` pairs for one column, sorted by
/// key (ties broken by RID so results are deterministic).
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    table: String,
    column: String,
    entries: Vec<(Value, Rid)>,
}

impl SecondaryIndex {
    /// Builds the index over `table[column]`.
    ///
    /// # Panics
    ///
    /// Panics when the column does not exist.
    pub fn build(table: &Table, column: &str) -> Self {
        let col = table.schema().expect_index(column);
        let mut entries: Vec<(Value, Rid)> = (0..table.num_rows() as Rid)
            .map(|rid| (table.value(rid, col), rid))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Self {
            table: table.name().to_string(),
            column: column.to_string(),
            entries,
        }
    }

    /// Name of the indexed table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Name of the indexed column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Total number of leaf entries (= table rows).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// The contiguous run of entries whose keys fall within the bounds.
    ///
    /// `Bound::Unbounded` opens the corresponding side of the range.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> &[(Value, Rid)] {
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => self
                .entries
                .partition_point(|(k, _)| k.total_cmp(v) == std::cmp::Ordering::Less),
            Bound::Excluded(v) => self
                .entries
                .partition_point(|(k, _)| k.total_cmp(v) != std::cmp::Ordering::Greater),
        };
        let end = match hi {
            Bound::Unbounded => self.entries.len(),
            Bound::Included(v) => self
                .entries
                .partition_point(|(k, _)| k.total_cmp(v) != std::cmp::Ordering::Greater),
            Bound::Excluded(v) => self
                .entries
                .partition_point(|(k, _)| k.total_cmp(v) == std::cmp::Ordering::Less),
        };
        &self.entries[start.min(end)..end]
    }

    /// All entries with exactly this key.
    pub fn lookup_eq(&self, key: &Value) -> &[(Value, Rid)] {
        self.range(Bound::Included(key), Bound::Included(key))
    }
}

/// A unique index over an integer key column (primary keys).
#[derive(Debug, Clone)]
pub struct UniqueIndex {
    table: String,
    column: String,
    map: HashMap<i64, Rid>,
}

impl UniqueIndex {
    /// Builds the index over `table[column]`, which must be an `Int`
    /// column.
    ///
    /// # Errors
    ///
    /// [`StorageError::DuplicateKey`] when a key occurs twice — reachable
    /// from a wire `Insert` that repeats a primary key, so it is an
    /// error, not a panic.
    ///
    /// # Panics
    ///
    /// Panics when the column is missing or non-integer.
    pub fn build(table: &Table, column: &str) -> Result<Self, StorageError> {
        let col = table.schema().expect_index(column);
        let keys = table.int_column(col);
        let mut map = HashMap::with_capacity(keys.len());
        for (rid, &key) in keys.iter().enumerate() {
            if map.insert(key, rid as Rid).is_some() {
                return Err(StorageError::DuplicateKey {
                    table: table.name().to_string(),
                    column: column.to_string(),
                    key,
                });
            }
        }
        Ok(Self {
            table: table.name().to_string(),
            column: column.to_string(),
            map,
        })
    }

    /// Name of the indexed table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Name of the indexed column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// RID holding the given key, if present.
    pub fn get(&self, key: i64) -> Option<Rid> {
        self.map.get(&key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::DataType;

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("pk", DataType::Int), ("v", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema, 8);
        for (pk, v) in [
            (10, 5),
            (11, 3),
            (12, 5),
            (13, 1),
            (14, 9),
            (15, 5),
            (16, 2),
        ] {
            b.push_row(&[Value::Int(pk), Value::Int(v)]);
        }
        b.finish()
    }

    #[test]
    fn secondary_eq_lookup() {
        let t = table();
        let idx = SecondaryIndex::build(&t, "v");
        let hits = idx.lookup_eq(&Value::Int(5));
        let rids: Vec<Rid> = hits.iter().map(|(_, r)| *r).collect();
        assert_eq!(rids, vec![0, 2, 5]);
        assert!(idx.lookup_eq(&Value::Int(100)).is_empty());
        assert_eq!(idx.num_entries(), 7);
        assert_eq!(idx.table(), "t");
        assert_eq!(idx.column(), "v");
    }

    #[test]
    fn secondary_range_bounds() {
        let t = table();
        let idx = SecondaryIndex::build(&t, "v");
        let all = idx.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 7);
        // v in [2, 5]: values 2,3,5,5,5
        let r = idx.range(
            Bound::Included(&Value::Int(2)),
            Bound::Included(&Value::Int(5)),
        );
        assert_eq!(r.len(), 5);
        // v in (2, 5): 3,5,5,5
        let r = idx.range(
            Bound::Excluded(&Value::Int(2)),
            Bound::Included(&Value::Int(5)),
        );
        assert_eq!(r.len(), 4);
        // v in [2, 5): 2,3
        let r = idx.range(
            Bound::Included(&Value::Int(2)),
            Bound::Excluded(&Value::Int(5)),
        );
        assert_eq!(r.len(), 2);
        // Empty range.
        let r = idx.range(
            Bound::Included(&Value::Int(6)),
            Bound::Included(&Value::Int(8)),
        );
        assert!(r.is_empty());
        // Inverted range degenerates to empty rather than panicking.
        let r = idx.range(
            Bound::Included(&Value::Int(5)),
            Bound::Included(&Value::Int(2)),
        );
        assert!(r.is_empty());
    }

    #[test]
    fn secondary_keys_sorted() {
        let t = table();
        let idx = SecondaryIndex::build(&t, "v");
        let keys: Vec<i64> = idx
            .range(Bound::Unbounded, Bound::Unbounded)
            .iter()
            .map(|(k, _)| k.as_int())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn unique_index_lookup() {
        let t = table();
        let idx = UniqueIndex::build(&t, "pk").unwrap();
        assert_eq!(idx.len(), 7);
        assert!(!idx.is_empty());
        assert_eq!(idx.get(13), Some(3));
        assert_eq!(idx.get(99), None);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let t = table();
        assert_eq!(
            UniqueIndex::build(&t, "v").unwrap_err(),
            StorageError::DuplicateKey {
                table: "t".into(),
                column: "v".into(),
                key: 5
            }
        );
    }
}
