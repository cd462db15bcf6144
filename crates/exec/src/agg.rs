//! Hash aggregation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

use rqo_storage::{ColumnMeta, ColumnVec, CostTracker, DataType, NullMask, Schema, Value};

use crate::batch::Batch;
use crate::morsel::{run_morsels, ExecOptions};
use crate::plan::{AggExpr, AggFunc};

/// Running state of one aggregate.
#[derive(Debug, Clone)]
enum AggState {
    Sum(f64),
    Count(u64),
    Avg { sum: f64, count: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => AggState::Sum(0.0),
            AggFunc::Count => AggState::Count(0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Sum(acc) => {
                let v = v.expect("SUM needs a column");
                if !v.is_null() {
                    *acc += v.as_f64();
                }
            }
            AggState::Count(n) => {
                // COUNT(*) counts rows; COUNT(col) skips NULLs.
                if v.is_none() || v.is_some_and(|x| !x.is_null()) {
                    *n += 1;
                }
            }
            AggState::Avg { sum, count } => {
                let v = v.expect("AVG needs a column");
                if !v.is_null() {
                    *sum += v.as_f64();
                    *count += 1;
                }
            }
            AggState::Min(cur) => {
                let v = v.expect("MIN needs a column");
                if !v.is_null()
                    && cur
                        .as_ref()
                        .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Less)
                {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                let v = v.expect("MAX needs a column");
                if !v.is_null()
                    && cur
                        .as_ref()
                        .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Greater)
                {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    /// Folds another partial state for the same aggregate into this one
    /// (used when merging per-morsel partial aggregations, in morsel
    /// index order).
    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (
                AggState::Avg { sum, count },
                AggState::Avg {
                    sum: other_sum,
                    count: other_count,
                },
            ) => {
                *sum += other_sum;
                *count += other_count;
            }
            (AggState::Min(cur), AggState::Min(other)) => {
                if let Some(v) = other {
                    if cur
                        .as_ref()
                        .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Less)
                    {
                        *cur = Some(v);
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(other)) => {
                if let Some(v) = other {
                    if cur
                        .as_ref()
                        .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Greater)
                    {
                        *cur = Some(v);
                    }
                }
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Sum(acc) => Value::Float(acc),
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }

    /// The declared type of the output column, given the input column's
    /// declared type (`None` for `COUNT(*)`): MIN and MAX keep their
    /// input's type, SUM and AVG accumulate in `f64`.
    fn output_type(func: AggFunc, input: Option<DataType>) -> DataType {
        match func {
            AggFunc::Sum | AggFunc::Avg => DataType::Float,
            AggFunc::Count => DataType::Int,
            AggFunc::Min | AggFunc::Max => input.expect("MIN/MAX needs a column"),
        }
    }
}

/// Hash aggregation over `input`.
///
/// With an empty `group_by`, produces exactly one row (SQL scalar
/// aggregate semantics — zero input rows still yield one output row of
/// identity values).  Charges one hash insert per input row (group lookup
/// + state update) and one CPU op per output row.
///
/// Group and aggregate input columns are read in place.  Each morsel
/// assigns group ids in a first pass and then updates each aggregate's
/// states in a tight column-at-a-time loop (`f64`/`i64` adds with a
/// null-mask check), producing a partial
/// `group → states` map; the partials are merged **in morsel index
/// order** via `AggState::merge`.  Morsel boundaries depend only on the
/// morsel size, so the merge tree — and therefore every float-summation
/// order — is the same for every thread count, scheduler, and entry
/// point.  Returns `None` when the query's token fired mid-accumulation.
///
/// # Panics
///
/// Panics when a referenced column is missing, or when a non-COUNT
/// aggregate omits its column.
pub fn hash_aggregate(
    tracker: &mut CostTracker,
    input: Batch,
    group_by: &[String],
    aggregates: &[AggExpr],
    opts: &ExecOptions,
) -> Option<Batch> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema.expect_index(g))
        .collect();
    let agg_idx: Vec<Option<usize>> = aggregates
        .iter()
        .map(|a| a.column.as_ref().map(|c| input.schema.expect_index(c)))
        .collect();
    tracker.charge_hash_builds(input.len() as u64);
    let cols = input.columns();
    let group_cols: Vec<&ColumnVec> = group_idx.iter().map(|&g| &*cols[g]).collect();
    let agg_cols: Vec<Option<&ColumnVec>> = agg_idx.iter().map(|i| i.map(|i| &*cols[i])).collect();
    let partials = run_morsels(opts, input.len(), |morsel| {
        accumulate(morsel, &group_cols, &agg_cols, aggregates)
    })?;
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    for partial in partials {
        for (key, states) in partial {
            match groups.entry(key) {
                Entry::Occupied(mut existing) => {
                    for (into, from) in existing.get_mut().iter_mut().zip(states) {
                        into.merge(from);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(states);
                }
            }
        }
    }
    Some(finalize(
        tracker, input, group_by, aggregates, group_idx, &agg_idx, groups,
    ))
}

/// Deterministic multiply-mix hasher for the typed `Option<i64>`
/// group-id map: one multiply and a shift per written word, an order of
/// magnitude cheaper than SipHash on single-integer keys.  Only group-id
/// *assignment* uses it; the `Vec<Value>`-keyed maps the caller sees are
/// untouched, and group ids feed a finalize step that sorts output rows,
/// so hash iteration order never reaches results.
#[derive(Default)]
struct IntKeyHasher(u64);

impl std::hash::Hasher for IntKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        // Golden-ratio multiply with a high-bit fold (the HashMap keeps
        // the low bits, so fold the well-mixed high bits down).
        let mixed = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = mixed ^ (mixed >> 32);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type IntKeyMap<V> = HashMap<Option<i64>, V, std::hash::BuildHasherDefault<IntKeyHasher>>;

/// Accumulates one morsel — the absolute row range `range` — into a
/// partial `group → states` map: pass 1 assigns group ids (a
/// primitive-keyed map when the single group column is an `Int` vector,
/// otherwise `Vec<Value>` keys read off the group columns); pass 2 runs
/// one typed loop per aggregate, in row order.
fn accumulate(
    range: Range<usize>,
    group_cols: &[&ColumnVec],
    agg_cols: &[Option<&ColumnVec>],
    aggregates: &[AggExpr],
) -> HashMap<Vec<Value>, Vec<AggState>> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(range.len());
    let new_group = |states: &mut Vec<Vec<AggState>>| {
        states.push(aggregates.iter().map(|a| AggState::new(a.func)).collect());
        states.len() - 1
    };
    if let [ColumnVec::Int { values, nulls }] = group_cols {
        // Single Int group column: group on `Option<i64>` read straight
        // out of the vector — no one-element `Vec<Value>` alloc + hash
        // per row.  NULL keys map to `None` (storage equality: NULL
        // groups with NULL); the `Value` keys the caller's merge/finalize
        // see are reconstructed below.
        let mut typed: IntKeyMap<usize> = IntKeyMap::default();
        for i in range.clone() {
            let key = (!null_at(nulls.as_ref(), i)).then(|| values[i]);
            let gid = *typed.entry(key).or_insert_with(|| new_group(&mut states));
            gids.push(gid as u32);
        }
        for (key, gid) in typed {
            index.insert(vec![key.map_or(Value::Null, Value::Int)], gid);
        }
    } else {
        for i in range.clone() {
            let key: Vec<Value> = group_cols.iter().map(|c| c.value(i)).collect();
            let gid = *index.entry(key).or_insert_with(|| new_group(&mut states));
            gids.push(gid as u32);
        }
    }
    for (j, (agg, col)) in aggregates.iter().zip(agg_cols).enumerate() {
        update_states(&mut states, &gids, range.start, j, agg.func, *col);
    }
    index
        .into_iter()
        .map(|(key, gid)| (key, std::mem::take(&mut states[gid])))
        .collect()
}

fn null_at(nulls: Option<&NullMask>, i: usize) -> bool {
    nulls.is_some_and(|m| m.is_null(i))
}

/// Updates aggregate `j`'s state for every row, in row order.  `SUM`,
/// `AVG`, and `COUNT` over numeric columns run typed loops; everything
/// else goes through [`AggState::update`] with the materialized value
/// (MIN/MAX keep the input's type; SUM over a non-numeric input panics
/// there).
fn update_states(
    states: &mut [Vec<AggState>],
    gids: &[u32],
    start: usize,
    j: usize,
    func: AggFunc,
    col: Option<&ColumnVec>,
) {
    let add = |state: &mut AggState, v: f64| match state {
        AggState::Sum(acc) => *acc += v,
        AggState::Avg { sum, count } => {
            *sum += v;
            *count += 1;
        }
        _ => unreachable!("typed add on non-SUM/AVG state"),
    };
    match (func, col) {
        (AggFunc::Count, None) => {
            // COUNT(*): every row counts.
            for &g in gids {
                match &mut states[g as usize][j] {
                    AggState::Count(n) => *n += 1,
                    _ => unreachable!("COUNT state"),
                }
            }
        }
        (AggFunc::Count, Some(col)) => {
            // COUNT(col): skip NULLs.
            for (k, &g) in gids.iter().enumerate() {
                if !col.is_null(start + k) {
                    match &mut states[g as usize][j] {
                        AggState::Count(n) => *n += 1,
                        _ => unreachable!("COUNT state"),
                    }
                }
            }
        }
        (AggFunc::Sum | AggFunc::Avg, Some(ColumnVec::Int { values, nulls })) => {
            for (k, &g) in gids.iter().enumerate() {
                let i = start + k;
                if !null_at(nulls.as_ref(), i) {
                    add(&mut states[g as usize][j], values[i] as f64);
                }
            }
        }
        (AggFunc::Sum | AggFunc::Avg, Some(ColumnVec::Float { values, nulls })) => {
            for (k, &g) in gids.iter().enumerate() {
                let i = start + k;
                if !null_at(nulls.as_ref(), i) {
                    add(&mut states[g as usize][j], values[i]);
                }
            }
        }
        (AggFunc::Sum | AggFunc::Avg, Some(ColumnVec::Date { values, nulls })) => {
            // `Value::as_f64` widens dates like any numeric.
            for (k, &g) in gids.iter().enumerate() {
                let i = start + k;
                if !null_at(nulls.as_ref(), i) {
                    add(&mut states[g as usize][j], values[i] as f64);
                }
            }
        }
        (_, Some(col)) => {
            // MIN/MAX (any type), SUM/AVG over non-numeric columns:
            // materialize the value and update per row.
            for (k, &g) in gids.iter().enumerate() {
                let v = col.value(start + k);
                states[g as usize][j].update(Some(&v));
            }
        }
        (_, None) => {
            // Non-COUNT aggregate without a column: panics in update.
            for &g in gids {
                states[g as usize][j].update(None);
            }
        }
    }
}

/// Builds the output schema and the deterministically ordered result rows.
fn finalize(
    tracker: &mut CostTracker,
    input: Batch,
    group_by: &[String],
    aggregates: &[AggExpr],
    group_idx: Vec<usize>,
    agg_idx: &[Option<usize>],
    mut groups: HashMap<Vec<Value>, Vec<AggState>>,
) -> Batch {
    // Scalar aggregates over empty input still produce one group.
    if group_by.is_empty() && groups.is_empty() {
        groups.insert(
            Vec::new(),
            aggregates.iter().map(|a| AggState::new(a.func)).collect(),
        );
    }

    let mut columns: Vec<ColumnMeta> = group_idx
        .iter()
        .map(|&i| input.schema.column(i).clone())
        .collect();
    for (a, &i) in aggregates.iter().zip(agg_idx) {
        let input_type = i.map(|i| input.schema.column(i).data_type);
        columns.push(ColumnMeta::new(
            a.alias.clone(),
            AggState::output_type(a.func, input_type),
        ));
    }
    let schema = Schema::new(columns);

    let mut rows: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(mut key, states)| {
            key.extend(states.into_iter().map(AggState::finish));
            key
        })
        .collect();
    // Deterministic output order for tests and reports.
    rows.sort_by(|a, b| {
        for i in 0..group_idx.len() {
            let ord = a[i].total_cmp(&b[i]);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    tracker.charge_cpu_ops(rows.len() as u64);
    Batch::from_rows(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Batch {
        Batch::from_rows(
            Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]),
            vec![
                vec![Value::Int(1), Value::Float(10.0)],
                vec![Value::Int(2), Value::Float(5.0)],
                vec![Value::Int(1), Value::Float(30.0)],
                vec![Value::Int(2), Value::Float(15.0)],
                vec![Value::Int(1), Value::Float(20.0)],
            ],
        )
    }

    #[test]
    fn scalar_aggregates() {
        let mut tracker = CostTracker::new();
        let out = hash_aggregate(
            &mut tracker,
            input(),
            &[],
            &[
                AggExpr::sum("x", "total"),
                AggExpr::count_star("n"),
                AggExpr::avg("x", "mean"),
                AggExpr::min("x", "lo"),
                AggExpr::max("x", "hi"),
            ],
            &ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let row = &out.to_rows()[0];
        assert_eq!(row[0], Value::Float(80.0));
        assert_eq!(row[1], Value::Int(5));
        assert_eq!(row[2], Value::Float(16.0));
        assert_eq!(row[3], Value::Float(5.0));
        assert_eq!(row[4], Value::Float(30.0));
        assert_eq!(tracker.hash_builds, 5);
    }

    #[test]
    fn grouped_aggregates_sorted_output() {
        let mut tracker = CostTracker::new();
        let out = hash_aggregate(
            &mut tracker,
            input(),
            &["g".to_string()],
            &[AggExpr::sum("x", "total"), AggExpr::count_star("n")],
            &ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema.names(), vec!["g", "total", "n"]);
        assert_eq!(
            out.to_rows()[0],
            vec![Value::Int(1), Value::Float(60.0), Value::Int(3)]
        );
        assert_eq!(
            out.to_rows()[1],
            vec![Value::Int(2), Value::Float(20.0), Value::Int(2)]
        );
    }

    #[test]
    fn empty_input_scalar_yields_identity_row() {
        let mut tracker = CostTracker::new();
        let empty = Batch::empty(Schema::from_pairs(&[("x", DataType::Float)]));
        let out = hash_aggregate(
            &mut tracker,
            empty,
            &[],
            &[
                AggExpr::sum("x", "s"),
                AggExpr::count_star("n"),
                AggExpr::avg("x", "a"),
                AggExpr::min("x", "lo"),
            ],
            &ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(
            out.to_rows(),
            vec![vec![
                Value::Float(0.0),
                Value::Int(0),
                Value::Null,
                Value::Null
            ]]
        );
    }

    #[test]
    fn empty_input_grouped_yields_no_rows() {
        let mut tracker = CostTracker::new();
        let empty = Batch::empty(Schema::from_pairs(&[
            ("g", DataType::Int),
            ("x", DataType::Float),
        ]));
        let out = hash_aggregate(
            &mut tracker,
            empty,
            &["g".to_string()],
            &[AggExpr::sum("x", "s")],
            &ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn integer_valued_sums_are_exact_at_every_morsel_size() {
        // Integer-valued floats: partial-sum merges are exact, so any
        // morsel size and thread count reproduces the one-morsel result.
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::Int(i % 7), Value::Float((i * 3 % 100) as f64)])
            .collect();
        let b = Batch::from_rows(
            Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]),
            rows,
        );
        let aggs = [
            AggExpr::sum("x", "s"),
            AggExpr::count_star("n"),
            AggExpr::avg("x", "a"),
            AggExpr::min("x", "lo"),
            AggExpr::max("x", "hi"),
        ];
        for group_by in [vec![], vec!["g".to_string()]] {
            let mut ts = CostTracker::new();
            let whole =
                hash_aggregate(&mut ts, b.clone(), &group_by, &aggs, &ExecOptions::serial())
                    .unwrap();
            for threads in [1, 2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(64);
                let mut tp = CostTracker::new();
                let par = hash_aggregate(&mut tp, b.clone(), &group_by, &aggs, &opts).unwrap();
                assert_eq!(par.to_rows(), whole.to_rows(), "threads={threads}");
                assert_eq!(tp, ts, "threads={threads}");
            }
        }
    }

    #[test]
    fn irrational_sums_are_bit_identical_at_every_thread_count() {
        // NULL-heavy float column plus an Int column so MIN/MAX keep the
        // native type and SUM widens; irrational values so float addition
        // order matters and bit-identity is a real claim.
        let xs: Vec<Option<f64>> = (0..500)
            .map(|i| (i % 5 != 0).then(|| (i as f64).sqrt()))
            .collect();
        let rows: Vec<Vec<Value>> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                vec![
                    Value::Int(i as i64 % 7),
                    x.map_or(Value::Null, Value::Float),
                    Value::Int(i as i64 % 11),
                ]
            })
            .collect();
        let b = Batch::from_rows(
            Schema::from_pairs(&[
                ("g", DataType::Int),
                ("x", DataType::Float),
                ("y", DataType::Int),
            ]),
            rows,
        );
        let aggs = [
            AggExpr::sum("x", "s"),
            AggExpr::count_star("n"),
            AggExpr {
                func: AggFunc::Count,
                column: Some("x".into()),
                alias: "cx".into(),
            },
            AggExpr::avg("x", "a"),
            AggExpr::min("y", "lo"),
            AggExpr::max("x", "hi"),
        ];
        // The scalar SUM is the morsel partials added in index order.
        let expect_sum = xs.chunks(64).fold(0.0, |acc, chunk| {
            acc + chunk.iter().flatten().fold(0.0, |s, x| s + x)
        });
        for group_by in [vec![], vec!["g".to_string()]] {
            let one = ExecOptions::serial().with_morsel_size(64);
            let mut ts = CostTracker::new();
            let whole = hash_aggregate(&mut ts, b.clone(), &group_by, &aggs, &one).unwrap();
            if group_by.is_empty() {
                assert_eq!(
                    whole.to_rows()[0][0].as_f64().to_bits(),
                    expect_sum.to_bits()
                );
            }
            // MIN over the Int column keeps its type.
            let lo_idx = whole.schema.expect_index("lo");
            assert_eq!(whole.schema.column(lo_idx).data_type, DataType::Int);
            assert!(matches!(whole.to_rows()[0][lo_idx], Value::Int(_)));
            for threads in [2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(64);
                let mut tp = CostTracker::new();
                let par = hash_aggregate(&mut tp, b.clone(), &group_by, &aggs, &opts).unwrap();
                assert_eq!(par.to_rows(), whole.to_rows(), "threads={threads}");
                assert_eq!(tp, ts, "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_input_identity_row_at_many_threads() {
        let empty = Batch::empty(Schema::from_pairs(&[("x", DataType::Float)]));
        let mut tracker = CostTracker::new();
        let out = hash_aggregate(
            &mut tracker,
            empty,
            &[],
            &[AggExpr::sum("x", "s"), AggExpr::count_star("n")],
            &ExecOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.to_rows()[0][0], Value::Float(0.0));
        assert_eq!(out.to_rows()[0][1], Value::Int(0));
    }

    #[test]
    fn count_column_skips_nulls() {
        let mut tracker = CostTracker::new();
        let b = Batch::from_rows(
            Schema::from_pairs(&[("x", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        );
        let out = hash_aggregate(
            &mut tracker,
            b,
            &[],
            &[
                AggExpr {
                    func: AggFunc::Count,
                    column: Some("x".into()),
                    alias: "c".into(),
                },
                AggExpr::count_star("n"),
            ],
            &ExecOptions::serial(),
        )
        .unwrap();
        assert_eq!(out.to_rows()[0][0], Value::Int(2));
        assert_eq!(out.to_rows()[0][1], Value::Int(3));
    }
}
