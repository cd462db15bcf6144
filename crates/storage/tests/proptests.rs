//! Property-based tests of the storage layer: index lookups against naive
//! filtering, date arithmetic, value ordering laws, and the column type's
//! round trip and gather.

use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;
use rqo_storage::{
    civil_from_days, days_from_civil, ColumnVec, DataType, Schema, SecondaryIndex, Table,
    TableBuilder, UniqueIndex, Value,
};

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Date,
    DataType::Str,
    DataType::Bool,
];

/// One cell of a column declared `dt`, decoded from raw generator output:
/// mostly on-type values built straight from `payload`'s bits (so floats
/// cover NaN payloads, infinities and both zeros; strings both repeat and
/// stay distinct), some NULLs, and — when `off_type` — an occasional value
/// of another type, which a column build must refuse.
fn cell(dt: DataType, off_type: bool, kind: u8, payload: u64) -> Value {
    let on_type = |dt: DataType| match dt {
        DataType::Int => Value::Int(payload as i64),
        DataType::Float => Value::Float(match kind {
            2 => -0.0,
            3 => 0.0,
            _ => f64::from_bits(payload),
        }),
        DataType::Date => Value::Date(payload as i32),
        DataType::Str if kind.is_multiple_of(2) => Value::str(format!("rep{}", payload % 4)),
        DataType::Str => Value::str(format!("distinct{payload}")),
        DataType::Bool => Value::Bool(payload.is_multiple_of(2)),
    };
    match kind {
        0 => Value::Null,
        1 if off_type => {
            let other = TYPES[(payload % 5) as usize];
            on_type(if other == dt {
                TYPES[(payload % 5 + 1) as usize % 5]
            } else {
                other
            })
        }
        _ => on_type(dt),
    }
}

/// A `Value`'s exact identity: variant tag plus payload bits.  (`Value`'s
/// own `==` is storage equality — `Int(1) == Float(1.0)` — and too weak
/// to pin a bit-for-bit round trip.)
fn bits(v: &Value) -> (u8, u64, Option<Arc<str>>) {
    match v {
        Value::Null => (0, 0, None),
        Value::Int(x) => (1, *x as u64, None),
        Value::Float(x) => (2, x.to_bits(), None),
        Value::Date(x) => (3, *x as u64, None),
        Value::Str(s) => (4, 0, Some(Arc::clone(s))),
        Value::Bool(b) => (5, *b as u64, None),
    }
}

fn column_rows(dt: DataType, off_type: bool, cells: &[(u8, u64)]) -> Vec<Vec<Value>> {
    cells
        .iter()
        .map(|&(kind, payload)| vec![cell(dt, off_type, kind, payload)])
        .collect()
}

fn int_table(values: &[i64]) -> Table {
    let mut b = TableBuilder::new(
        "t",
        Schema::from_pairs(&[("x", DataType::Int)]),
        values.len(),
    );
    for &v in values {
        b.push_row(&[Value::Int(v)]);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn index_range_equals_naive_filter(
        values in prop::collection::vec(-50i64..50, 0..200),
        lo in -60i64..60,
        len in 0i64..60,
        lo_inclusive: bool,
        hi_inclusive: bool,
    ) {
        let t = int_table(&values);
        let idx = SecondaryIndex::build(&t, "x");
        let hi = lo + len;
        let lo_v = Value::Int(lo);
        let hi_v = Value::Int(hi);
        let lo_bound = if lo_inclusive { Bound::Included(&lo_v) } else { Bound::Excluded(&lo_v) };
        let hi_bound = if hi_inclusive { Bound::Included(&hi_v) } else { Bound::Excluded(&hi_v) };
        let mut from_index: Vec<u32> = idx.range(lo_bound, hi_bound).concat();
        from_index.sort_unstable();
        let mut naive: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| {
                let above = if lo_inclusive { v >= lo } else { v > lo };
                let below = if hi_inclusive { v <= hi } else { v < hi };
                above && below
            })
            .map(|(i, _)| i as u32)
            .collect();
        naive.sort_unstable();
        prop_assert_eq!(from_index, naive);
    }

    #[test]
    fn index_eq_equals_naive_filter(values in prop::collection::vec(-20i64..20, 0..150), key in -25i64..25) {
        let t = int_table(&values);
        let idx = SecondaryIndex::build(&t, "x");
        let mut hits: Vec<u32> = idx.lookup_eq(&Value::Int(key)).concat();
        hits.sort_unstable();
        let naive: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == key)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(hits, naive);
    }

    #[test]
    fn unique_index_finds_every_key(n in 1usize..200, offset in -1000i64..1000) {
        let values: Vec<i64> = (0..n as i64).map(|i| i * 3 + offset).collect();
        let t = int_table(&values);
        let idx = UniqueIndex::build(&t, "x").unwrap();
        for (rid, &v) in values.iter().enumerate() {
            prop_assert_eq!(idx.get(v), Some(rid as u32));
        }
        prop_assert_eq!(idx.get(offset - 1), None);
    }

    #[test]
    fn from_rows_round_trips_bit_for_bit(
        dt in 0usize..5,
        off_type: bool,
        cells in prop::collection::vec((0u8..12, any::<u64>()), 0..120),
    ) {
        let dt = TYPES[dt];
        let rows = column_rows(dt, off_type, &cells);
        let built = std::panic::catch_unwind(|| ColumnVec::from_rows(&rows, 0, dt));
        // Any value of another type — an `Int` bound for a `Float` column
        // included, since only stored rows widen — panics; NULLs never do.
        let has_off_type = rows.iter().any(|r| r[0].data_type().is_some_and(|t| t != dt));
        prop_assert_eq!(built.is_err(), has_off_type);
        let Ok(col) = built else { return Ok(()) };
        let typed = matches!(
            (&col, dt),
            (ColumnVec::Int { .. }, DataType::Int)
                | (ColumnVec::Float { .. }, DataType::Float)
                | (ColumnVec::Date { .. }, DataType::Date)
                | (ColumnVec::Str { .. }, DataType::Str)
                | (ColumnVec::Bool { .. }, DataType::Bool)
        );
        prop_assert!(typed, "a {} column stays typed: {:?}", dt, col);
        prop_assert_eq!(col.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(bits(&col.value(i)), bits(&row[0]), "row {}", i);
            prop_assert_eq!(col.is_null(i), row[0].is_null());
        }
    }

    #[test]
    fn take_equals_row_at_a_time_indexing(
        dt in 0usize..5,
        cells in prop::collection::vec((0u8..12, any::<u64>()), 1..120),
        picks in prop::collection::vec(any::<u32>(), 0..200),
    ) {
        let col = ColumnVec::from_rows(&column_rows(TYPES[dt], false, &cells), 0, TYPES[dt]);
        // Arbitrary ids: unsorted, repeated, any subset.
        let ids: Vec<u32> = picks.iter().map(|p| p % col.len() as u32).collect();
        let taken = col.take(&ids);
        prop_assert_eq!(taken.len(), ids.len());
        for (k, &i) in ids.iter().enumerate() {
            prop_assert_eq!(bits(&taken.value(k)), bits(&col.value(i as usize)), "slot {}", k);
        }
        if let (ColumnVec::Str { dict: a, .. }, ColumnVec::Str { dict: b, .. }) = (&col, &taken) {
            prop_assert!(Arc::ptr_eq(a, b), "a gather shares the dictionary");
        }
    }

    #[test]
    fn civil_date_roundtrip(days in -200_000i32..200_000) {
        let (y, m, d) = civil_from_days(days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        prop_assert_eq!(days_from_civil(y, m, d), days);
    }

    #[test]
    fn date_ordering_matches_day_numbers(a in -100_000i32..100_000, b in -100_000i32..100_000) {
        let va = Value::Date(a);
        let vb = Value::Date(b);
        prop_assert_eq!(va.total_cmp(&vb), a.cmp(&b));
    }

    #[test]
    fn value_total_order_is_consistent(vals in prop::collection::vec(-100i64..100, 3)) {
        // Antisymmetry + transitivity over sampled triples of Int values
        // (mixing in float coercion).
        let a = Value::Int(vals[0]);
        let b = Value::Float(vals[1] as f64 + 0.5);
        let c = Value::Int(vals[2]);
        let ord_ab = a.total_cmp(&b);
        let ord_ba = b.total_cmp(&a);
        prop_assert_eq!(ord_ab, ord_ba.reverse());
        if a.total_cmp(&b) != std::cmp::Ordering::Greater
            && b.total_cmp(&c) != std::cmp::Ordering::Greater
        {
            prop_assert_ne!(a.total_cmp(&c), std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn table_roundtrips_arbitrary_rows(
        rows in prop::collection::vec((-1000i64..1000, -1e6f64..1e6, any::<bool>()), 0..100),
    ) {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("b", DataType::Bool),
        ]);
        let mut builder = TableBuilder::new("t", schema, rows.len());
        for &(i, f, b) in &rows {
            builder.push_row(&[Value::Int(i), Value::Float(f), Value::Bool(b)]);
        }
        let t = builder.finish();
        prop_assert_eq!(t.num_rows(), rows.len());
        for (rid, &(i, f, b)) in rows.iter().enumerate() {
            prop_assert_eq!(t.value(rid as u32, 0), Value::Int(i));
            prop_assert_eq!(t.value(rid as u32, 1), Value::Float(f));
            prop_assert_eq!(t.value(rid as u32, 2), Value::Bool(b));
        }
    }
}
