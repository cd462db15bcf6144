//! Secondary (nonclustered) and unique (primary-key) indexes.
//!
//! [`SecondaryIndex`] models a B-tree's leaf level as two arrays: the
//! indexed column gathered in key order (a [`ColumnVec`], so an `Int` key
//! costs 8 bytes and a `Date` 4) and the rid permutation that gathered
//! it.  Range lookups binary-search the key column and return a
//! contiguous slice of rids, whose leaf pages the executor charges as
//! sequential reads; fetching the matching rows from the base table then
//! costs random I/Os — the access pattern at the heart of the paper's
//! index-intersection-vs-scan example.  An append never re-sorts: the
//! batch's own sorted run is merged in, and both arrays are spliced.
//!
//! [`UniqueIndex`] maps integer primary keys to RIDs, supporting the
//! foreign-key joins (indexed nested loops, join-synopsis construction)
//! that both the optimizer and the statistics layer rely on.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use crate::column::{spliced, ColumnVec, Run};
use crate::error::StorageError;
use crate::table::{Rid, Splice, Table};
use crate::value::Value;

/// A nonclustered index over one column: every row's key in
/// [`Value::total_cmp`] order, ties broken by RID so results are
/// deterministic, stored as a key column plus the matching rids.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    table: String,
    column: String,
    keys: ColumnVec,
    rids: Vec<Rid>,
}

impl SecondaryIndex {
    /// Builds the index over `table[column]`: one typed argsort.
    ///
    /// # Panics
    ///
    /// Panics when the column does not exist.
    pub fn build(table: &Table, column: &str) -> Self {
        let col = &table.columns()[table.schema().expect_index(column)];
        let rids = argsort(col, 0..table.num_rows() as Rid);
        Self {
            table: table.name().to_string(),
            column: column.to_string(),
            keys: col.take(&rids),
            rids,
        }
    }

    /// The index over `successor`, which `splice` laid out from this
    /// index's table and a batch: the batch's rows sorted on their own,
    /// then merged into this index by `(key, rid)` — old rids renumbered
    /// by the splice's monotone shift, which keeps their order — and both
    /// arrays spliced around them.  Equal to [`SecondaryIndex::build`]
    /// over `successor`, without sorting it.
    pub(crate) fn appended(&self, successor: &Table, splice: &Splice) -> Self {
        let col = &successor.columns()[successor.schema().expect_index(&self.column)];
        let old: Cow<[Rid]> = match splice.renumbering() {
            Some(shift) => Cow::Owned(self.rids.iter().map(|&r| shift(r)).collect()),
            None => Cow::Borrowed(&self.rids),
        };
        let run = argsort(col, splice.batch_rids());
        // Where each run entry goes among the old entries; the run is
        // sorted, so each search starts where the last one ended.
        let mut runs: Vec<Run> = Vec::new();
        let mut from = 0;
        for (j, &rid) in run.iter().enumerate() {
            let key = col.value(rid as usize);
            let lo = from.max(self.bound(&key, false));
            let hi = self.bound(&key, true).max(lo);
            let at = lo + old[lo..hi].partition_point(|&r| r < rid);
            match runs.last_mut() {
                Some((mine, theirs)) if mine.end == at => theirs.end = j + 1,
                _ => runs.push((from..at, j..j + 1)),
            }
            from = at;
        }
        runs.push((from..old.len(), run.len()..run.len()));
        Self {
            table: self.table.clone(),
            column: self.column.clone(),
            keys: self.keys.splice(&col.take(&run), &runs),
            rids: spliced(&old, &run, &runs),
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
        self.rids.len()
    }

    /// The leaf level's keys, in index order (rid `rids[i]` holds key
    /// `keys().value(i)`).
    pub fn keys(&self) -> &ColumnVec {
        &self.keys
    }

    /// The rids whose keys fall within the bounds, in index order.
    ///
    /// `Bound::Unbounded` opens the corresponding side of the range.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> &[Rid] {
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => self.bound(v, false),
            Bound::Excluded(v) => self.bound(v, true),
        };
        let end = match hi {
            Bound::Unbounded => self.rids.len(),
            Bound::Included(v) => self.bound(v, true),
            Bound::Excluded(v) => self.bound(v, false),
        };
        &self.rids[start.min(end)..end]
    }

    /// The rids whose key is exactly this one, in rid order.
    pub fn lookup_eq(&self, key: &Value) -> &[Rid] {
        self.range(Bound::Included(key), Bound::Included(key))
    }

    /// Position of the first key above `v` (`past_equal`) or at-or-above
    /// it, comparing by [`Value::total_cmp`] on the typed keys.
    fn bound(&self, v: &Value, past_equal: bool) -> usize {
        let before = |o: Ordering| o.is_lt() || (past_equal && o.is_eq());
        let at = |k: Value| before(k.total_cmp(v));
        match &self.keys {
            ColumnVec::Int { values, .. } => values.partition_point(|&k| at(Value::Int(k))),
            ColumnVec::Float { values, .. } => values.partition_point(|&k| at(Value::Float(k))),
            ColumnVec::Date { values, .. } => values.partition_point(|&k| at(Value::Date(k))),
            ColumnVec::Bool { values, .. } => values.partition_point(|&k| at(Value::Bool(k))),
            ColumnVec::Str { codes, dict, .. } => {
                codes.partition_point(|&c| at(Value::Str(Arc::clone(&dict[c as usize]))))
            }
        }
    }
}

/// `rids` sorted by `(col[rid], rid)` in [`Value::total_cmp`] order: one
/// `sort_unstable` of typed `(key, rid)` pairs.  Floats sort by their
/// `total_cmp` bits, strings by the dictionary strings (not the codes).
fn argsort(col: &ColumnVec, rids: impl Iterator<Item = Rid>) -> Vec<Rid> {
    fn by<K: Ord>(rids: impl Iterator<Item = Rid>, key: impl Fn(usize) -> K) -> Vec<Rid> {
        let mut pairs: Vec<(K, Rid)> = rids.map(|r| (key(r as usize), r)).collect();
        pairs.sort_unstable();
        pairs.into_iter().map(|(_, r)| r).collect()
    }
    match col {
        ColumnVec::Int { values, .. } => by(rids, |r| values[r]),
        // `f64::total_cmp` is the signed comparison of these bits.
        ColumnVec::Float { values, .. } => by(rids, |r| {
            let bits = values[r].to_bits() as i64;
            bits ^ (((bits >> 63) as u64) >> 1) as i64
        }),
        ColumnVec::Date { values, .. } => by(rids, |r| values[r]),
        ColumnVec::Bool { values, .. } => by(rids, |r| values[r]),
        ColumnVec::Str { codes, dict, .. } => by(rids, |r| dict[codes[r] as usize].as_ref()),
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

    /// The index over `successor` (see [`SecondaryIndex::appended`]):
    /// this map with its rids renumbered by the splice, plus the batch's
    /// keys.
    ///
    /// # Errors
    ///
    /// The [`StorageError::DuplicateKey`] that [`UniqueIndex::build`]
    /// over `successor` would report: of every repeated key, the one
    /// whose second occurrence comes first in rid order.
    pub(crate) fn appended(
        &self,
        successor: &Table,
        splice: &Splice,
    ) -> Result<Self, StorageError> {
        let keys = successor.int_column(successor.schema().expect_index(&self.column));
        let mut map = self.map.clone();
        if let Some(shift) = splice.renumbering() {
            map.values_mut().for_each(|r| *r = shift(*r));
        }
        // (rid at which a build would trip, key); batch rids ascend.
        let mut first: Option<(Rid, i64)> = None;
        for rid in splice.batch_rids() {
            let key = keys[rid as usize];
            if let Some(prev) = map.insert(key, rid) {
                let trip = prev.max(rid);
                if first.is_none_or(|(at, _)| trip < at) {
                    first = Some((trip, key));
                }
            }
        }
        if let Some((_, key)) = first {
            return Err(StorageError::DuplicateKey {
                table: self.table.clone(),
                column: self.column.clone(),
                key,
            });
        }
        Ok(Self {
            table: self.table.clone(),
            column: self.column.clone(),
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
        assert_eq!(idx.lookup_eq(&Value::Int(5)), &[0, 2, 5]);
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
            .map(|&rid| t.value(rid, 1).as_int())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        // The key column is those keys, gathered.
        let stored: Vec<i64> = (0..idx.num_entries())
            .map(|i| idx.keys().value(i).as_int())
            .collect();
        assert_eq!(stored, keys);
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
