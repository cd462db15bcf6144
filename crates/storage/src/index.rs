//! Secondary (nonclustered) and unique (primary-key) indexes.
//!
//! [`SecondaryIndex`] models a B-tree's leaf level as a stack of sorted
//! runs.  A run is two arrays: indexed keys in `(key, rid)` order (a
//! [`ColumnVec`], so an `Int` key costs 8 bytes and a `Date` 4) and the
//! rid permutation that gathered them.  Range lookups binary-search each
//! run's keys and return one contiguous slice of rids per run, whose leaf
//! pages the executor charges as sequential reads; fetching the matching
//! rows from the base table then costs random I/Os — the access pattern
//! at the heart of the paper's index-intersection-vs-scan example.
//!
//! An append never re-sorts the table: it argsorts the batch's rows into
//! a new run, then merges the newest two runs while the older holds at
//! most `MERGE_RATIO` (2) times the newer's entries.  That is the
//! logarithmic method: an entry is merged O(log(N/b)) times, so a b-row
//! batch costs O(b·log N) amortized (most appends merge small runs or
//! none, an occasional one merges large ones), and since every run holds
//! more than twice the next one's entries there are at most
//! ⌈log₂(N/b)⌉ + 1 of them.  Runs are shared between index versions, so
//! an older snapshot's index keeps reading its own.
//!
//! [`UniqueIndex`] maps integer primary keys to RIDs, supporting the
//! foreign-key joins (indexed nested loops, join-synopsis construction)
//! that both the optimizer and the statistics layer rely on.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::{Bound, Range};
use std::sync::Arc;

use crate::buffer::AppendVec;
use crate::column::ColumnVec;
use crate::error::StorageError;
use crate::table::{Rid, Table};
use crate::value::Value;

/// The newest two runs merge while the older holds at most this many
/// times the newer's entries.
const MERGE_RATIO: usize = 2;

/// A nonclustered index over one column: every row's key in
/// [`Value::total_cmp`] order, ties broken by RID so results are
/// deterministic, stored as a stack of sorted runs.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    table: String,
    column: String,
    /// Oldest first; each holds more than `MERGE_RATIO` times the entries
    /// of the next, and none is empty.
    runs: Vec<Arc<SortedRun>>,
}

/// One run: keys in `(key, rid)` order and the rids that gathered them
/// (rid `rids[i]` holds key `keys.value(i)`).
#[derive(Debug)]
struct SortedRun {
    keys: ColumnVec,
    rids: AppendVec<Rid>,
}

impl SecondaryIndex {
    /// Builds the index over `table[column]`: one typed argsort, one run.
    ///
    /// # Panics
    ///
    /// Panics when the column does not exist.
    pub fn build(table: &Table, column: &str) -> Self {
        let col = &table.columns()[table.schema().expect_index(column)];
        let mut index = Self {
            table: table.name().to_string(),
            column: column.to_string(),
            runs: Vec::new(),
        };
        index.push(col, argsort(col, 0..table.num_rows() as Rid));
        index
    }

    /// The index over `successor`, this index's table with a batch
    /// appended after its `old_rows` rows: these runs plus the batch's
    /// rows sorted as a run of their own.  Holds the same entries as
    /// [`SecondaryIndex::build`] over `successor`, without sorting it.
    pub(crate) fn appended(&self, successor: &Table, old_rows: usize) -> Self {
        let col = &successor.columns()[successor.schema().expect_index(&self.column)];
        let mut next = self.clone();
        next.push(
            col,
            argsort(col, old_rows as Rid..successor.num_rows() as Rid),
        );
        next
    }

    /// Pushes `rids`, sorted by `(col[rid], rid)`, as the newest run, then
    /// merges the newest two while the older is at most `MERGE_RATIO`
    /// times the newer.
    fn push(&mut self, col: &ColumnVec, rids: Vec<Rid>) {
        if rids.is_empty() {
            return;
        }
        self.runs.push(Arc::new(SortedRun {
            keys: col.take(&rids),
            rids: rids.into(),
        }));
        while let [.., older, newer] = &self.runs[..] {
            if older.rids.len() > MERGE_RATIO * newer.rids.len() {
                break;
            }
            let merged = Arc::new(older.merged(newer));
            self.runs.truncate(self.runs.len() - 2);
            self.runs.push(merged);
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
        self.runs.iter().map(|run| run.rids.len()).sum()
    }

    /// The rids whose keys fall within the bounds: one slice per run,
    /// oldest run first, each in `(key, rid)` order.  Across runs the rids
    /// are in no particular order, so a caller that needs rid order sorts
    /// (every executor caller does, before it charges or intersects).
    ///
    /// `Bound::Unbounded` opens the corresponding side of the range.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<&[Rid]> {
        self.runs
            .iter()
            .map(|run| {
                let start = match lo {
                    Bound::Unbounded => 0,
                    Bound::Included(v) => run.bound(v, false),
                    Bound::Excluded(v) => run.bound(v, true),
                };
                let end = match hi {
                    Bound::Unbounded => run.rids.len(),
                    Bound::Included(v) => run.bound(v, true),
                    Bound::Excluded(v) => run.bound(v, false),
                };
                &run.rids[start.min(end)..end]
            })
            .collect()
    }

    /// The rids whose key is exactly this one: one slice per run, each in
    /// rid order (see [`SecondaryIndex::range`]).
    pub fn lookup_eq(&self, key: &Value) -> Vec<&[Rid]> {
        self.range(Bound::Included(key), Bound::Included(key))
    }
}

impl SortedRun {
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

    /// This run merged with `newer`, a run built later (whose `Str`
    /// dictionary continues this one's): one linear pass over both lays
    /// out the interleaving as runs (a range of this run's entries, then
    /// a range of `newer`'s), and keys and rids are each copied once,
    /// run by run.  When every entry of `newer` sorts after every entry
    /// here — keys that only grow — both arrays extend in place instead.
    fn merged(&self, newer: &SortedRun) -> SortedRun {
        fn by<T: Copy, K: Ord>(
            (a, ra): (&[T], &[Rid]),
            (b, rb): (&[T], &[Rid]),
            key: impl Fn(T) -> K,
        ) -> Vec<Run> {
            let at_a = |i: usize| (key(a[i]), ra[i]);
            let at_b = |j: usize| (key(b[j]), rb[j]);
            let mut runs: Vec<Run> = Vec::new();
            let (mut i, mut j) = (0, 0);
            while j < b.len() {
                // Older entries before newer entry `j`, then `j` and the
                // newer entries after it that precede older entry `i`.
                let (from_a, from_b) = (i, j);
                while i < a.len() && at_a(i) < at_b(j) {
                    i += 1;
                }
                j += 1;
                while j < b.len() && (i == a.len() || at_b(j) < at_a(i)) {
                    j += 1;
                }
                runs.push((from_a..i, from_b..j));
            }
            if i < a.len() {
                runs.push((i..a.len(), b.len()..b.len()));
            }
            runs
        }
        let (ra, rb): (&[Rid], &[Rid]) = (&self.rids, &newer.rids);
        let runs = match (&self.keys, &newer.keys) {
            (ColumnVec::Int { values: a, .. }, ColumnVec::Int { values: b, .. }) => {
                by((a, ra), (b, rb), |k| k)
            }
            (ColumnVec::Float { values: a, .. }, ColumnVec::Float { values: b, .. }) => {
                by((a, ra), (b, rb), float_key)
            }
            (ColumnVec::Date { values: a, .. }, ColumnVec::Date { values: b, .. }) => {
                by((a, ra), (b, rb), |k| k)
            }
            (ColumnVec::Bool { values: a, .. }, ColumnVec::Bool { values: b, .. }) => {
                by((a, ra), (b, rb), |k| k)
            }
            (ColumnVec::Str { codes: a, .. }, ColumnVec::Str { codes: b, dict, .. }) => {
                by((a, ra), (b, rb), |c| dict[c as usize].as_ref())
            }
            _ => unreachable!("the runs of one index share its column's type"),
        };
        let tail = runs
            .iter()
            .skip_while(|(_, theirs)| theirs.is_empty())
            .skip(1)
            .all(|(mine, _)| mine.is_empty());
        if tail {
            return SortedRun {
                keys: self.keys.extended(&newer.keys),
                rids: self.rids.extended(rb),
            };
        }
        let keys = match (&self.keys, &newer.keys) {
            (ColumnVec::Int { values: a, .. }, ColumnVec::Int { values: b, .. }) => {
                ColumnVec::Int {
                    values: interleaved(a, b, &runs),
                    nulls: None,
                }
            }
            (ColumnVec::Float { values: a, .. }, ColumnVec::Float { values: b, .. }) => {
                ColumnVec::Float {
                    values: interleaved(a, b, &runs),
                    nulls: None,
                }
            }
            (ColumnVec::Date { values: a, .. }, ColumnVec::Date { values: b, .. }) => {
                ColumnVec::Date {
                    values: interleaved(a, b, &runs),
                    nulls: None,
                }
            }
            (ColumnVec::Bool { values: a, .. }, ColumnVec::Bool { values: b, .. }) => {
                ColumnVec::Bool {
                    values: interleaved(a, b, &runs),
                    nulls: None,
                }
            }
            (ColumnVec::Str { codes: a, .. }, ColumnVec::Str { codes: b, dict, .. }) => {
                ColumnVec::Str {
                    codes: interleaved(a, b, &runs),
                    dict: Arc::clone(dict),
                    nulls: None,
                }
            }
            _ => unreachable!("the runs of one index share its column's type"),
        };
        SortedRun {
            keys,
            rids: interleaved(&self.rids, rb, &runs),
        }
    }
}

/// One run of a merge: a range of the older run's entries, then a range
/// of the newer's.
type Run = (Range<usize>, Range<usize>);

/// Run by run `a[mine]` then `b[theirs]`, each a `memcpy`, into one
/// exactly-sized vector.
fn interleaved<T: Copy>(a: &[T], b: &[T], runs: &[Run]) -> AppendVec<T> {
    debug_assert_eq!(runs.iter().map(|(m, _)| m.len()).sum::<usize>(), a.len());
    debug_assert_eq!(runs.iter().map(|(_, t)| t.len()).sum::<usize>(), b.len());
    let mut out = Vec::with_capacity(a.len() + b.len());
    for (mine, theirs) in runs {
        out.extend_from_slice(&a[mine.clone()]);
        out.extend_from_slice(&b[theirs.clone()]);
    }
    out.into()
}

/// A float's position in `f64::total_cmp` order, as a signed integer.
fn float_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// `rids` sorted by `(col[rid], rid)` in [`Value::total_cmp`] order: one
/// `sort_unstable` of typed `(key, rid)` pairs.  Floats sort by
/// [`float_key`], strings by the dictionary strings (not the codes).
fn argsort(col: &ColumnVec, rids: impl Iterator<Item = Rid>) -> Vec<Rid> {
    fn by<T: Copy, K: Ord>(
        rids: impl Iterator<Item = Rid>,
        values: &[T],
        key: impl Fn(T) -> K,
    ) -> Vec<Rid> {
        let mut pairs: Vec<(K, Rid)> = rids.map(|r| (key(values[r as usize]), r)).collect();
        pairs.sort_unstable();
        pairs.into_iter().map(|(_, r)| r).collect()
    }
    match col {
        ColumnVec::Int { values, .. } => by(rids, values, |k| k),
        ColumnVec::Float { values, .. } => by(rids, values, float_key),
        ColumnVec::Date { values, .. } => by(rids, values, |k| k),
        ColumnVec::Bool { values, .. } => by(rids, values, |k| k),
        ColumnVec::Str { codes, dict, .. } => by(rids, codes, |c| dict[c as usize].as_ref()),
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
    /// this map plus the batch's keys.
    ///
    /// # Errors
    ///
    /// The [`StorageError::DuplicateKey`] that [`UniqueIndex::build`]
    /// over `successor` would report: of every repeated key, the one
    /// whose second occurrence comes first in rid order.
    pub(crate) fn appended(
        &self,
        successor: &Table,
        old_rows: usize,
    ) -> Result<Self, StorageError> {
        let keys = successor.int_column(successor.schema().expect_index(&self.column));
        let mut map = self.map.clone();
        // (rid at which a build would trip, key); batch rids ascend.
        let mut first: Option<(Rid, i64)> = None;
        for rid in old_rows as Rid..successor.num_rows() as Rid {
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
        assert_eq!(idx.lookup_eq(&Value::Int(5)).concat(), &[0, 2, 5]);
        assert!(idx.lookup_eq(&Value::Int(100)).concat().is_empty());
        assert_eq!(idx.num_entries(), 7);
        assert_eq!(idx.table(), "t");
        assert_eq!(idx.column(), "v");
    }

    #[test]
    fn secondary_range_bounds() {
        let t = table();
        let idx = SecondaryIndex::build(&t, "v");
        let len = |lo: Bound<&Value>, hi: Bound<&Value>| idx.range(lo, hi).concat().len();
        assert_eq!(len(Bound::Unbounded, Bound::Unbounded), 7);
        let (two, five) = (Value::Int(2), Value::Int(5));
        // v in [2, 5]: values 2,3,5,5,5
        assert_eq!(len(Bound::Included(&two), Bound::Included(&five)), 5);
        // v in (2, 5): 3,5,5,5
        assert_eq!(len(Bound::Excluded(&two), Bound::Included(&five)), 4);
        // v in [2, 5): 2,3
        assert_eq!(len(Bound::Included(&two), Bound::Excluded(&five)), 2);
        // Empty range.
        assert_eq!(
            len(
                Bound::Included(&Value::Int(6)),
                Bound::Included(&Value::Int(8))
            ),
            0
        );
        // Inverted range degenerates to empty rather than panicking.
        assert_eq!(len(Bound::Included(&five), Bound::Included(&two)), 0);
    }

    #[test]
    fn secondary_keys_sorted() {
        let t = table();
        let idx = SecondaryIndex::build(&t, "v");
        let keys: Vec<i64> = idx
            .range(Bound::Unbounded, Bound::Unbounded)
            .concat()
            .iter()
            .map(|&rid| t.value(rid, 1).as_int())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        // The key column is those keys, gathered.
        let run = &idx.runs[0];
        let stored: Vec<i64> = (0..idx.num_entries())
            .map(|i| run.keys.value(i).as_int())
            .collect();
        assert_eq!(stored, keys);
    }

    /// Appends `rows` (each `(pk, v)`) to `t` and `idx` as one batch.
    fn append(t: &mut Table, idx: &mut SecondaryIndex, rows: &[(i64, i64)]) {
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(pk, v)| vec![Value::Int(pk), Value::Int(v)])
            .collect();
        let next = t.appended(&rows).unwrap();
        *idx = idx.appended(&next, t.num_rows());
        *t = next;
    }

    #[test]
    fn appends_keep_a_logarithmic_stack_of_runs() {
        let (mut t, mut idx) = (table(), SecondaryIndex::build(&table(), "v"));
        for i in 0..300 {
            let batch: Vec<(i64, i64)> = (0..1 + i % 5)
                .map(|j| (100 + i, (i * 7 + j) % 11))
                .collect();
            append(&mut t, &mut idx, &batch);
            let sizes: Vec<usize> = idx.runs.iter().map(|r| r.rids.len()).collect();
            assert!(
                sizes.windows(2).all(|w| w[0] > MERGE_RATIO * w[1]),
                "each run holds more than twice the next: {sizes:?}"
            );
            // Every run is sorted by (key, rid), and together they hold
            // exactly a build's entries.
            let mut entries: Vec<(i64, Rid)> = Vec::new();
            for run in &idx.runs {
                let pairs: Vec<(i64, Rid)> = (0..run.rids.len())
                    .map(|k| (run.keys.value(k).as_int(), run.rids[k]))
                    .collect();
                assert!(pairs.windows(2).all(|w| w[0] < w[1]));
                entries.extend(pairs);
            }
            entries.sort_unstable();
            let built = SecondaryIndex::build(&t, "v");
            let run = &built.runs[0];
            let expected: Vec<(i64, Rid)> = (0..run.rids.len())
                .map(|k| (run.keys.value(k).as_int(), run.rids[k]))
                .collect();
            assert_eq!(entries, expected);
        }
        assert!(idx.runs.len() > 1, "small batches leave several runs");
    }

    #[test]
    fn a_merge_of_ascending_keys_extends_in_place() {
        fn run(keys: &[i64], rids: &[Rid]) -> SortedRun {
            let mut spare = Vec::with_capacity(16);
            spare.extend_from_slice(keys);
            let mut r = Vec::with_capacity(16);
            r.extend_from_slice(rids);
            SortedRun {
                keys: ColumnVec::Int {
                    values: spare.into(),
                    nulls: None,
                },
                rids: r.into(),
            }
        }
        let ints = |run: &SortedRun| -> Vec<(i64, Rid)> {
            (0..run.rids.len())
                .map(|k| (run.keys.value(k).as_int(), run.rids[k]))
                .collect()
        };
        let older = run(&[1, 2, 2], &[0, 1, 4]);
        // Every newer entry sorts after every older one: a tail.
        let grown = older.merged(&run(&[2, 3], &[5, 2]));
        assert_eq!(ints(&grown), [(1, 0), (2, 1), (2, 4), (2, 5), (3, 2)]);
        assert_eq!(grown.rids.as_ptr(), older.rids.as_ptr(), "rids in place");
        let (ColumnVec::Int { values: a, .. }, ColumnVec::Int { values: b, .. }) =
            (&grown.keys, &older.keys)
        else {
            unreachable!()
        };
        assert_eq!(a.as_ptr(), b.as_ptr(), "keys in place");
        // Interleaved entries copy, in (key, rid) order; the older run and
        // its in-place successor read on unchanged.
        let mixed = older.merged(&run(&[0, 2], &[3, 2]));
        assert_eq!(ints(&mixed), [(0, 3), (1, 0), (2, 1), (2, 2), (2, 4)]);
        assert_ne!(mixed.rids.as_ptr(), older.rids.as_ptr());
        assert_eq!(ints(&older), [(1, 0), (2, 1), (2, 4)]);
        assert_eq!(ints(&grown).len(), 5);
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
