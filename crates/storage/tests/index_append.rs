//! Appended indexes equal one-shot builds.  `Catalog::append_rows` never
//! rebuilds an index: it pushes the batch's sorted run onto each
//! secondary index's stack of runs (merging the newest two while the
//! older is at most twice the newer) and adds the batch's keys to each
//! unique index.  After every batch — with heavy key ties, NaN and ±0.0
//! floats, and strings that grow the dictionary — each secondary index's
//! runs must merge into a build's
//! `(key, rid)` sequence, stay within the logarithmic run bound, and
//! answer every range and equality lookup with a build's rids; a repeated
//! primary key must be rejected with the error a build would report and
//! change nothing; and the successor's sortedness flags must equal a
//! freshly frozen copy's.

use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;
use rqo_storage::{
    Catalog, DataType, Rid, Schema, SecondaryIndex, StorageError, Table, TableBuilder, UniqueIndex,
    Value,
};

const INDEXED: [&str; 5] = ["i", "f", "d", "s", "t"];
const PK: usize = 5;
const FLOATS: [f64; 6] = [f64::NAN, -0.0, 0.0, 1.5, f64::NEG_INFINITY, -f64::NAN];
const STRS: [&str; 4] = ["b", "a", "ab", ""];

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("d", DataType::Date),
        ("s", DataType::Str),
        ("t", DataType::Int),
        ("pk", DataType::Int),
    ])
}

/// Raw generator output for one row: tie-heavy keys, a step for the
/// mostly-ascending `t`, and a 1-in-16 chance of repeating a primary key.
type Cell = (i64, usize, i32, usize, i64, u8);

fn cell() -> impl Strategy<Value = Cell> {
    (-3i64..3, 0usize..8, -2i32..2, 0usize..6, -1i64..3, 0u8..16)
}

/// Turns cells into rows, threading the running `t` and next primary key.
struct Rows {
    t: i64,
    next_pk: i64,
}

impl Rows {
    fn row(&mut self, (i, f, d, s, step, dup): Cell, allow_dup: bool) -> Vec<Value> {
        self.t += step;
        let pk = if allow_dup && dup == 0 && self.next_pk > 0 {
            self.next_pk - 1 - (i.unsigned_abs() as i64 % self.next_pk)
        } else {
            self.next_pk += 1;
            self.next_pk - 1
        };
        vec![
            Value::Int(i),
            match FLOATS.get(f) {
                Some(&x) => Value::Float(x),
                // An `Int` bound for a `Float` column is widened on push.
                None => Value::Int(f as i64 - 7),
            },
            Value::Date(d),
            match STRS.get(s) {
                Some(&x) => Value::str(x),
                // A fresh string grows the dictionary.
                None => Value::str(format!("new{pk}")),
            },
            Value::Int(self.t),
            Value::Int(pk),
        ]
    }
}

fn catalog(rows: &[Vec<Value>]) -> Catalog {
    let mut cat = Catalog::new();
    let mut b = TableBuilder::new("t", schema(), rows.len());
    rows.iter().for_each(|r| b.push_row(r));
    cat.add_table(b.finish()).unwrap();
    for col in INDEXED {
        cat.ensure_secondary_index("t", col).unwrap();
    }
    cat.ensure_unique_index("t", "pk").unwrap();
    cat
}

/// `(key, rid)` order, keys by [`Value::total_cmp`] (the index order).
fn entry_cmp(t: &Table, col: usize, a: Rid, b: Rid) -> Ordering {
    t.value(a, col).total_cmp(&t.value(b, col)).then(a.cmp(&b))
}

/// The k-way merge of sorted rid runs by `(key, rid)`.
fn merge_runs(t: &Table, col: usize, runs: &[&[Rid]]) -> Vec<Rid> {
    let mut heads = vec![0; runs.len()];
    let mut out = Vec::new();
    while let Some(r) = (0..runs.len())
        .filter(|&r| heads[r] < runs[r].len())
        .min_by(|&x, &y| entry_cmp(t, col, runs[x][heads[x]], runs[y][heads[y]]))
    {
        out.push(runs[r][heads[r]]);
        heads[r] += 1;
    }
    out
}

/// The rids of `slices`, in rid order.
fn rid_set(slices: Vec<&[Rid]>) -> Vec<Rid> {
    let mut rids = slices.concat();
    rids.sort_unstable();
    rids
}

fn assert_matches_builds(cat: &Catalog) -> Result<(), TestCaseError> {
    let t = cat.table("t").unwrap();
    let n = t.num_rows();
    for name in INDEXED {
        let col = t.schema().expect_index(name);
        let merged = cat.secondary_index("t", name).unwrap();
        let built = SecondaryIndex::build(t, name);
        prop_assert_eq!(merged.num_entries(), n);
        // The runs: each sorted, together a build's (key, rid) sequence.
        let runs = merged.range(Bound::Unbounded, Bound::Unbounded);
        for run in &runs {
            prop_assert!(
                run.windows(2)
                    .all(|w| entry_cmp(t, col, w[0], w[1]).is_lt()),
                "a run of {} out of order",
                name
            );
        }
        let sequence = built.range(Bound::Unbounded, Bound::Unbounded).concat();
        prop_assert_eq!(
            merge_runs(t, col, &runs),
            sequence.clone(),
            "entries of {}",
            name
        );
        // The logarithmic method's bound: each run holds more than twice
        // the next, so k runs over N entries, the newest b of them, number
        // at most ⌈log₂(N/b)⌉ + 1.
        prop_assert!(runs.iter().all(|r| !r.is_empty()));
        prop_assert!(
            runs.windows(2).all(|w| w[0].len() > 2 * w[1].len()),
            "run sizes of {}: {:?}",
            name,
            runs.iter().map(|r| r.len()).collect::<Vec<_>>()
        );
        if let Some(newest) = runs.last() {
            let bound = (n as f64 / newest.len() as f64).log2().ceil() as usize + 1;
            prop_assert!(runs.len() <= bound, "{} runs > {}", runs.len(), bound);
        }
        // Every lookup answers with a build's rids: each stored key as an
        // equality, and as either end of a range, open or closed.
        let mut probes: Vec<Value> = Vec::new();
        for &rid in &sequence {
            let v = t.value(rid, col);
            if probes.last().is_none_or(|p| p.total_cmp(&v).is_ne()) {
                probes.push(v);
            }
        }
        for (p, v) in probes.iter().enumerate() {
            let next = &probes[(p + 1) % probes.len()];
            for (lo, hi) in [
                (Bound::Included(v), Bound::Included(v)),
                (Bound::Included(v), Bound::Unbounded),
                (Bound::Excluded(v), Bound::Unbounded),
                (Bound::Unbounded, Bound::Excluded(v)),
                (Bound::Unbounded, Bound::Included(v)),
                (Bound::Included(v), Bound::Excluded(next)),
                (Bound::Excluded(v), Bound::Included(next)),
            ] {
                prop_assert_eq!(
                    rid_set(merged.range(lo, hi)),
                    rid_set(built.range(lo, hi)),
                    "{} in {:?}..{:?}",
                    name,
                    lo,
                    hi
                );
            }
            prop_assert_eq!(
                rid_set(merged.lookup_eq(v)),
                rid_set(built.lookup_eq(v)),
                "{} = {:?}",
                name,
                v
            );
        }
    }
    let unique = cat.unique_index("t", "pk").unwrap();
    let rebuilt = UniqueIndex::build(t, "pk").unwrap();
    prop_assert_eq!(unique.len(), rebuilt.len());
    for rid in 0..n as Rid {
        let key = t.value(rid, PK).as_int();
        prop_assert_eq!(unique.get(key), Some(rid));
        prop_assert_eq!(rebuilt.get(key), Some(rid));
    }
    prop_assert_eq!(unique.get(-1), None);
    let frozen = t.take(&(0..n as Rid).collect::<Vec<_>>());
    for c in 0..t.schema().len() {
        prop_assert_eq!(t.is_sorted(c), frozen.is_sorted(c), "column {}", c);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn appended_indexes_equal_one_shot_builds(
        first in prop::collection::vec(cell(), 0..24),
        batches in prop::collection::vec(prop::collection::vec(cell(), 0..20), 1..7),
    ) {
        let mut gen = Rows { t: 0, next_pk: 0 };
        let first: Vec<Vec<Value>> = first.into_iter().map(|c| gen.row(c, false)).collect();
        let mut cat = catalog(&first);
        assert_matches_builds(&cat)?;
        for batch in batches {
            let rows: Vec<Vec<Value>> = batch.into_iter().map(|c| gen.row(c, true)).collect();
            let successor = cat.table("t").unwrap().appended(&rows).unwrap();
            let expected = UniqueIndex::build(&successor, "pk").map(|_| ());
            let table = Arc::clone(cat.table("t").unwrap());
            let indexes: Vec<_> = INDEXED
                .iter()
                .map(|col| Arc::clone(cat.secondary_index("t", col).unwrap()))
                .collect();
            let unique = Arc::clone(cat.unique_index("t", "pk").unwrap());
            match cat.append_rows("t", &rows) {
                Ok(assignments) => {
                    prop_assert_eq!(expected, Ok(()));
                    prop_assert_eq!(assignments.len(), rows.len());
                    assert_matches_builds(&cat)?;
                }
                Err(err) => {
                    prop_assert!(matches!(err, StorageError::DuplicateKey { .. }), "{:?}", err);
                    prop_assert_eq!(Err(err), expected, "the error a build would report");
                    // Rejected atomically: nothing was published.
                    prop_assert!(Arc::ptr_eq(cat.table("t").unwrap(), &table));
                    prop_assert!(Arc::ptr_eq(cat.unique_index("t", "pk").unwrap(), &unique));
                    for (col, idx) in INDEXED.iter().zip(&indexes) {
                        prop_assert!(Arc::ptr_eq(cat.secondary_index("t", col).unwrap(), idx));
                    }
                }
            }
        }
    }
}
