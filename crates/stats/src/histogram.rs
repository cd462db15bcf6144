//! Equi-depth (equi-height) single-column histograms — the baseline
//! summary the paper compares against.
//!
//! The commercial system in the paper keeps ~250-bucket histograms per
//! column, each bucket storing a boundary value, a row count, and a
//! distinct count (§6.1).  This module reproduces that: buckets hold equal
//! row counts; range selectivities interpolate linearly within partially
//! overlapped buckets (the *continuous values* assumption); equality
//! selectivities assume uniform frequency across a bucket's distinct
//! values.  Multi-predicate combination — the attribute-value-independence
//! product — is deliberately *not* done here: it lives in the estimator
//! layer, because it is an estimator policy, not a property of the
//! summary.

use std::ops::Bound;

use rqo_storage::{DataType, Table, Value};

/// The paper's histogram resolution (≈ what the commercial DBMS used).
pub const DEFAULT_BUCKETS: usize = 250;

/// One bucket: `[lo, hi]` (inclusive), with row and distinct counts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bucket {
    lo: f64,
    hi: f64,
    rows: u64,
    distinct: u64,
}

/// An equi-depth histogram over one numeric (`Int`/`Float`/`Date`) column.
#[derive(Debug, Clone)]
pub struct EquiDepthHistogram {
    table: String,
    column: String,
    data_type: DataType,
    total_rows: u64,
    buckets: Vec<Bucket>,
}

impl EquiDepthHistogram {
    /// Builds a histogram with at most `num_buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics when the column is missing, non-numeric (`Str`/`Bool`
    /// columns have no ordering useful to a range histogram — the paper's
    /// baseline also only histograms sortable columns), or when
    /// `num_buckets` is zero.
    pub fn build(table: &Table, column: &str, num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "histogram needs at least one bucket");
        let col = table.schema().expect_index(column);
        let dt = table.schema().column(col).data_type;
        let mut values: Vec<f64> = match dt {
            DataType::Int => table.int_column(col).iter().map(|&v| v as f64).collect(),
            DataType::Float => table.float_column(col).to_vec(),
            DataType::Date => table.date_column(col).iter().map(|&v| v as f64).collect(),
            other => panic!("cannot build range histogram over {other} column {column:?}"),
        };
        values.sort_unstable_by(f64::total_cmp);
        let total_rows = values.len() as u64;
        let mut buckets = Vec::with_capacity(num_buckets.min(values.len().max(1)));
        if !values.is_empty() {
            let per = values.len().div_ceil(num_buckets);
            let mut start = 0usize;
            while start < values.len() {
                let end = (start + per).min(values.len());
                let slice = &values[start..end];
                let mut distinct = 1u64;
                for w in slice.windows(2) {
                    if w[0] != w[1] {
                        distinct += 1;
                    }
                }
                buckets.push(Bucket {
                    lo: slice[0],
                    hi: slice[slice.len() - 1],
                    rows: slice.len() as u64,
                    distinct,
                });
                start = end;
            }
        }
        Self {
            table: table.name().to_string(),
            column: column.to_string(),
            data_type: dt,
            total_rows,
            buckets,
        }
    }

    /// The histogrammed table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The histogrammed column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Total rows summarized.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Approximate stored size in bytes: per bucket one boundary value and
    /// two counters (the §6.1 space-parity accounting: 8-byte value +
    /// 2×4-byte counters).
    pub fn stored_bytes(&self) -> usize {
        self.buckets.len() * 16
    }

    /// Estimated selectivity of `column ∈ (lo, hi)` under the bounds'
    /// open/closedness, with linear interpolation inside buckets.
    pub fn range_selectivity(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> f64 {
        if self.total_rows == 0 {
            return 0.0;
        }
        // Normalize to a closed numeric interval.  For discrete domains
        // (Int/Date) exclusive bounds shift by one; for floats the
        // continuous assumption makes open/closed indistinguishable.
        let lo = match lo {
            Bound::Unbounded => f64::NEG_INFINITY,
            Bound::Included(v) => v.as_f64(),
            Bound::Excluded(v) => v.as_f64() + self.discrete_step(),
        };
        let hi = match hi {
            Bound::Unbounded => f64::INFINITY,
            Bound::Included(v) => v.as_f64(),
            Bound::Excluded(v) => v.as_f64() - self.discrete_step(),
        };
        if lo > hi {
            return 0.0;
        }
        let mut rows = 0.0;
        for b in &self.buckets {
            rows += overlap_rows(b, lo, hi);
        }
        (rows / self.total_rows as f64).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of `column = v`: within the containing
    /// bucket(s), frequency is assumed uniform across distinct values.
    pub fn eq_selectivity(&self, v: &Value) -> f64 {
        if self.total_rows == 0 {
            return 0.0;
        }
        let x = v.as_f64();
        let mut rows = 0.0;
        for b in &self.buckets {
            if x >= b.lo && x <= b.hi {
                rows += b.rows as f64 / b.distinct as f64;
            }
        }
        (rows / self.total_rows as f64).clamp(0.0, 1.0)
    }

    fn discrete_step(&self) -> f64 {
        match self.data_type {
            DataType::Int | DataType::Date => 1.0,
            _ => 0.0,
        }
    }
}

/// Rows of bucket `b` falling inside `[lo, hi]`, by linear interpolation.
fn overlap_rows(b: &Bucket, lo: f64, hi: f64) -> f64 {
    let a = lo.max(b.lo);
    let z = hi.min(b.hi);
    if a > z {
        return 0.0;
    }
    if b.hi == b.lo {
        return b.rows as f64; // single-value bucket, fully inside
    }
    b.rows as f64 * (z - a) / (b.hi - b.lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::{Schema, TableBuilder};

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

    fn uniform_0_to_999() -> Table {
        int_table(&(0..1000).collect::<Vec<i64>>())
    }

    #[test]
    fn bucket_structure() {
        let t = uniform_0_to_999();
        let h = EquiDepthHistogram::build(&t, "x", 10);
        assert_eq!(h.buckets.len(), 10);
        assert_eq!(h.total_rows(), 1000);
        assert_eq!(h.stored_bytes(), 160);
        assert_eq!(h.table(), "t");
        assert_eq!(h.column(), "x");
    }

    #[test]
    fn range_selectivity_uniform_data() {
        let t = uniform_0_to_999();
        let h = EquiDepthHistogram::build(&t, "x", 50);
        let sel = h.range_selectivity(
            Bound::Included(&Value::Int(100)),
            Bound::Included(&Value::Int(299)),
        );
        assert!((sel - 0.2).abs() < 0.02, "sel = {sel}");
        // Unbounded sides.
        let sel = h.range_selectivity(Bound::Unbounded, Bound::Included(&Value::Int(499)));
        assert!((sel - 0.5).abs() < 0.02, "sel = {sel}");
        let sel = h.range_selectivity(Bound::Included(&Value::Int(900)), Bound::Unbounded);
        assert!((sel - 0.1).abs() < 0.02, "sel = {sel}");
        // Full range.
        let sel = h.range_selectivity(Bound::Unbounded, Bound::Unbounded);
        assert!((sel - 1.0).abs() < 1e-9);
        // Empty and inverted ranges.
        let sel = h.range_selectivity(
            Bound::Included(&Value::Int(5000)),
            Bound::Included(&Value::Int(6000)),
        );
        assert_eq!(sel, 0.0);
        let sel = h.range_selectivity(
            Bound::Included(&Value::Int(500)),
            Bound::Included(&Value::Int(100)),
        );
        assert_eq!(sel, 0.0);
    }

    #[test]
    fn exclusive_bounds_on_integers() {
        let t = int_table(&[1, 2, 3, 4, 5]);
        let h = EquiDepthHistogram::build(&t, "x", 5);
        // x < 3 → {1, 2} = 40%
        let sel = h.range_selectivity(Bound::Unbounded, Bound::Excluded(&Value::Int(3)));
        assert!((sel - 0.4).abs() < 0.05, "sel = {sel}");
        // x > 3 → {4, 5} = 40%
        let sel = h.range_selectivity(Bound::Excluded(&Value::Int(3)), Bound::Unbounded);
        assert!((sel - 0.4).abs() < 0.05, "sel = {sel}");
    }

    #[test]
    fn eq_selectivity_skewed_data() {
        // 900 copies of 7 plus 100 distinct values: an equality lookup on 7
        // should be ≈90% if 7 dominates its bucket(s).
        let mut vals = vec![7i64; 900];
        vals.extend(1000..1100);
        let t = int_table(&vals);
        let h = EquiDepthHistogram::build(&t, "x", 10);
        let sel = h.eq_selectivity(&Value::Int(7));
        assert!(sel > 0.5, "sel = {sel}");
        // A value outside every bucket.
        assert_eq!(h.eq_selectivity(&Value::Int(5_000)), 0.0);
    }

    #[test]
    fn single_value_column() {
        let t = int_table(&[42; 100]);
        let h = EquiDepthHistogram::build(&t, "x", 10);
        assert!((h.eq_selectivity(&Value::Int(42)) - 1.0).abs() < 1e-9);
        let sel = h.range_selectivity(
            Bound::Included(&Value::Int(0)),
            Bound::Included(&Value::Int(100)),
        );
        assert!((sel - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_table() {
        let t = int_table(&[]);
        let h = EquiDepthHistogram::build(&t, "x", 10);
        assert!(h.buckets.is_empty());
        assert_eq!(h.range_selectivity(Bound::Unbounded, Bound::Unbounded), 0.0);
        assert_eq!(h.eq_selectivity(&Value::Int(1)), 0.0);
    }

    #[test]
    fn float_and_date_columns() {
        let mut b = TableBuilder::new(
            "t",
            Schema::from_pairs(&[("f", DataType::Float), ("d", DataType::Date)]),
            100,
        );
        for i in 0..100 {
            b.push_row(&[Value::Float(i as f64 / 10.0), Value::Date(i)]);
        }
        let t = b.finish();
        let hf = EquiDepthHistogram::build(&t, "f", 10);
        let sel = hf.range_selectivity(
            Bound::Included(&Value::Float(2.0)),
            Bound::Included(&Value::Float(4.0)),
        );
        assert!((sel - 0.2).abs() < 0.05, "float sel {sel}");
        let hd = EquiDepthHistogram::build(&t, "d", 10);
        let sel = hd.range_selectivity(
            Bound::Included(&Value::Date(50)),
            Bound::Included(&Value::Date(99)),
        );
        assert!((sel - 0.5).abs() < 0.05, "date sel {sel}");
    }

    #[test]
    #[should_panic(expected = "cannot build range histogram")]
    fn rejects_string_column() {
        let mut b = TableBuilder::new("t", Schema::from_pairs(&[("s", DataType::Str)]), 1);
        b.push_row(&[Value::str("a")]);
        EquiDepthHistogram::build(&b.finish(), "s", 10);
    }

    #[test]
    fn histogram_is_blind_to_correlation() {
        // The defining failure mode the paper exploits: two perfectly
        // correlated columns look identical to per-column histograms
        // whether or not the joint predicate is satisfiable.
        let n = 1000i64;
        let mut b = TableBuilder::new(
            "t",
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
            n as usize,
        );
        for i in 0..n {
            b.push_row(&[Value::Int(i), Value::Int(i)]); // b == a
        }
        let t = b.finish();
        let ha = EquiDepthHistogram::build(&t, "a", 50);
        let hb = EquiDepthHistogram::build(&t, "b", 50);
        let sa = ha.range_selectivity(
            Bound::Included(&Value::Int(0)),
            Bound::Included(&Value::Int(99)),
        );
        let sb_hit = hb.range_selectivity(
            Bound::Included(&Value::Int(0)),
            Bound::Included(&Value::Int(99)),
        );
        let sb_miss = hb.range_selectivity(
            Bound::Included(&Value::Int(900)),
            Bound::Included(&Value::Int(999)),
        );
        // AVI product is the same (~1%) for the fully-overlapping and the
        // fully-disjoint joint predicates, though the truth is 10% vs 0%.
        assert!((sa * sb_hit - 0.01).abs() < 0.005);
        assert!((sa * sb_miss - 0.01).abs() < 0.005);
    }
}
