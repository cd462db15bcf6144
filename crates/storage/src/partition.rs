//! Hash and range table partitioning.
//!
//! A partitioned table stores the same rows as an unpartitioned one — the
//! catalog's canonical [`Table`] is the *concatenation* of the partitions
//! in partition order, so every existing consumer of the `Table` read API
//! (scans, indexes, synopses, histograms) works unchanged.  What
//! partitioning adds is metadata: each partition is a contiguous RID span
//! of the concatenated table, annotated with the min/max of the partition
//! column, which lets
//!
//! * the executor treat partitions as the natural morsel source (scan only
//!   the surviving spans),
//! * the optimizer prune partitions whose bounds/hash bucket cannot match
//!   a predicate, and
//! * the statistics layer sample and refresh partitions independently.
//!
//! Rows are routed at build time by [`PartitionedTableBuilder`]; the
//! routing function is deterministic (a fixed FNV-1a hash for hash
//! partitioning, [`Value::total_cmp`] against ascending bounds for range
//! partitioning), so the same input rows always produce the same physical
//! layout regardless of process or platform.

use std::ops::Range;

use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::{Rid, Splice, Table, TableBuilder};
use crate::value::Value;

/// How a table's rows are assigned to partitions.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionSpec {
    /// Rows are routed by a deterministic hash of `column` modulo
    /// `partitions`.  NULL keys route to partition 0.
    Hash {
        /// The partitioning column.
        column: String,
        /// Number of hash buckets (≥ 1).
        partitions: usize,
    },
    /// Rows are routed by comparing `column` against ascending, exclusive
    /// upper `bounds`: partition `i` holds rows with `value < bounds[i]`
    /// (and `value >= bounds[i-1]`); a final catch-all partition holds the
    /// rest, for `bounds.len() + 1` partitions in total.  NULL keys sort
    /// below every bound and land in partition 0.
    Range {
        /// The partitioning column.
        column: String,
        /// Ascending exclusive upper bounds of all but the last partition.
        bounds: Vec<Value>,
    },
}

impl PartitionSpec {
    /// The partitioning column.
    pub fn column(&self) -> &str {
        match self {
            PartitionSpec::Hash { column, .. } | PartitionSpec::Range { column, .. } => column,
        }
    }

    /// Number of partitions this spec produces.
    pub fn partition_count(&self) -> usize {
        match self {
            PartitionSpec::Hash { partitions, .. } => *partitions,
            PartitionSpec::Range { bounds, .. } => bounds.len() + 1,
        }
    }

    /// The partition a key value routes to.
    pub fn route(&self, value: &Value) -> usize {
        match self {
            PartitionSpec::Hash { partitions, .. } => {
                if value.is_null() {
                    0
                } else {
                    (partition_hash(value) % *partitions as u64) as usize
                }
            }
            PartitionSpec::Range { bounds, .. } => bounds
                .iter()
                .position(|b| value.total_cmp(b).is_lt())
                .unwrap_or(bounds.len()),
        }
    }
}

/// Deterministic 64-bit hash of a partition-key value (FNV-1a over a type
/// tag and the payload).  Numeric values that compare equal under
/// [`Value::total_cmp`]'s coercions (`Int`/`Date`/integral `Float`) hash
/// identically, so hash-bucket pruning agrees with predicate evaluation.
pub fn partition_hash(value: &Value) -> u64 {
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    let h = 0xcbf2_9ce4_8422_2325u64;
    match value {
        Value::Null => fnv(h, &[0]),
        Value::Int(v) => fnv(fnv(h, &[1]), &v.to_le_bytes()),
        Value::Date(v) => fnv(fnv(h, &[1]), &(*v as i64).to_le_bytes()),
        Value::Float(v) => {
            // Integral floats hash like the integer they equal.
            if v.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(v) {
                fnv(fnv(h, &[1]), &(*v as i64).to_le_bytes())
            } else {
                fnv(fnv(h, &[2]), &v.to_bits().to_le_bytes())
            }
        }
        Value::Str(s) => fnv(fnv(h, &[3]), s.as_bytes()),
        Value::Bool(b) => fnv(fnv(h, &[4]), &[*b as u8]),
    }
}

/// Partition layout of a registered table.
///
/// The catalog's canonical [`Table`] for a partitioned table is the
/// concatenation of the partitions in partition order; partition `p`
/// occupies the contiguous RID span `spans()[p]`.
#[derive(Debug, Clone)]
pub struct Partitioning {
    spec: PartitionSpec,
    spans: Vec<Range<usize>>,
    min_max: Vec<Option<(Value, Value)>>,
}

impl Partitioning {
    /// Assembles a layout from a spec, per-partition RID spans, and
    /// per-partition key bounds.
    ///
    /// # Panics
    ///
    /// Panics when the span list does not match the spec's partition count
    /// or the spans are not contiguous from RID 0.
    pub fn new(
        spec: PartitionSpec,
        spans: Vec<Range<usize>>,
        min_max: Vec<Option<(Value, Value)>>,
    ) -> Self {
        assert_eq!(
            spans.len(),
            spec.partition_count(),
            "span count must match the partition spec"
        );
        assert_eq!(min_max.len(), spans.len(), "one min/max per partition");
        let mut next = 0usize;
        for (p, s) in spans.iter().enumerate() {
            assert_eq!(s.start, next, "partition {p} span must start at {next}");
            assert!(s.end >= s.start, "partition {p} span is inverted");
            next = s.end;
        }
        Self {
            spec,
            spans,
            min_max,
        }
    }

    /// The partitioning spec.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.spans.len()
    }

    /// Per-partition contiguous RID spans of the concatenated table, in
    /// partition order.
    pub fn spans(&self) -> &[Range<usize>] {
        &self.spans
    }

    /// The RID span of one partition.
    ///
    /// # Panics
    ///
    /// Panics when `p` is out of range.
    pub fn span(&self, p: usize) -> Range<usize> {
        self.spans[p].clone()
    }

    /// Min/max of the partition column over partition `p`'s non-NULL
    /// keys, or `None` when the partition is empty or all-NULL.  NULL keys
    /// never satisfy a comparison predicate on the partition column, so
    /// bounds pruning against this interval is safe.
    pub fn min_max(&self, p: usize) -> Option<&(Value, Value)> {
        self.min_max[p].as_ref()
    }

    /// Total rows across the named partitions.
    pub fn rows_in(&self, partitions: &[usize]) -> usize {
        partitions.iter().map(|&p| self.spans[p].len()).sum()
    }

    /// Routes `rows` into their partitions and lays out the successor
    /// table so every partition remains one contiguous RID span:
    /// partition `p`'s new span holds its old rows (in order) followed by
    /// the batch's rows routed to `p` (in batch order) — exactly the
    /// layout a one-shot [`PartitionedTableBuilder`] build over the
    /// combined row stream would produce, which is what keeps streamed
    /// and one-shot tables bit-identical.  Each column is copied once,
    /// run by run — or extended in place when no old row follows a batch
    /// row, as when a range partition on a growing key takes the whole
    /// batch (see [`Table::appended`]).
    ///
    /// Returns the new table, the updated layout (spans re-derived,
    /// per-partition min/max widened by the new keys), and each input
    /// row's partition, in input order — the ingest path feeds those
    /// assignments to the per-partition sketches.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::SchemaMismatch`] when any row fails
    /// arity/type/NULL validation; the batch is rejected atomically.
    pub fn append(
        &self,
        table: &Table,
        rows: &[Vec<Value>],
    ) -> Result<(Table, Partitioning, Vec<usize>), StorageError> {
        let batch = table.batch(rows)?;
        let key = table.schema().expect_index(self.spec.column());
        let mut min_max = self.min_max.clone();
        let assignments: Vec<usize> = rows
            .iter()
            .map(|row| route(&self.spec, &mut min_max, &row[key]))
            .collect();
        let (order, spans) = place(&self.spans, &assignments);
        let new_table = table.spliced(&batch.take(&order), &Splice::new(&self.spans, &spans));
        let layout = Partitioning::new(self.spec.clone(), spans, min_max);
        Ok((new_table, layout, assignments))
    }
}

/// The one routing routine: the partition `key` routes to, with that
/// partition's min/max widened to cover it (NULL keys widen nothing).
fn route(spec: &PartitionSpec, min_max: &mut [Option<(Value, Value)>], key: &Value) -> usize {
    let p = spec.route(key);
    if !key.is_null() {
        min_max[p] = Some(match min_max[p].take() {
            None => (key.clone(), key.clone()),
            Some((lo, hi)) => (
                if key.total_cmp(&lo).is_lt() {
                    key.clone()
                } else {
                    lo
                },
                if key.total_cmp(&hi).is_gt() {
                    key.clone()
                } else {
                    hi
                },
            ),
        });
    }
    p
}

/// Places newly routed rows after partitions `old`: partition `p` keeps
/// its old rows, then takes its new ones in arrival order.  Returns the
/// new rows' indices grouped partition by partition (the order they are
/// spliced in) and the new spans.
fn place(old: &[Range<usize>], assignments: &[usize]) -> (Vec<Rid>, Vec<Range<usize>>) {
    let mut routed: Vec<Vec<Rid>> = vec![Vec::new(); old.len()];
    for (j, &p) in assignments.iter().enumerate() {
        routed[p].push(j as Rid);
    }
    let mut next = 0;
    let spans = old
        .iter()
        .zip(&routed)
        .map(|(span, extra)| {
            let grown = next..next + span.len() + extra.len();
            next = grown.end;
            grown
        })
        .collect();
    (routed.concat(), spans)
}

/// Routes rows to partitions as they arrive and, on
/// [`finish`](Self::finish), concatenates the partitions, in partition
/// order, into one canonical [`Table`] plus its [`Partitioning`] metadata.
pub struct PartitionedTableBuilder {
    rows: TableBuilder,
    spec: PartitionSpec,
    key: usize,
    assignments: Vec<usize>,
    min_max: Vec<Option<(Value, Value)>>,
}

impl PartitionedTableBuilder {
    /// Starts a partitioned table.
    ///
    /// # Panics
    ///
    /// Panics when the partition column is missing from the schema, a hash
    /// spec has zero buckets, or range bounds are not strictly ascending.
    pub fn new(name: impl Into<String>, schema: Schema, spec: PartitionSpec) -> Self {
        let key = schema.expect_index(spec.column());
        match &spec {
            PartitionSpec::Hash { partitions, .. } => {
                assert!(*partitions >= 1, "hash partitioning needs >= 1 bucket");
            }
            PartitionSpec::Range { bounds, .. } => {
                assert!(
                    bounds.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()),
                    "range bounds must be strictly ascending"
                );
            }
        }
        let min_max = vec![None; spec.partition_count()];
        Self {
            rows: TableBuilder::new(name, schema, 0),
            spec,
            key,
            assignments: Vec::new(),
            min_max,
        }
    }

    /// Routes one row to its partition.
    ///
    /// # Panics
    ///
    /// Panics when the arity or any value type does not match the schema,
    /// or a value is NULL (same contract as [`TableBuilder::push_row`]).
    pub fn push_row(&mut self, values: &[Value]) {
        self.rows.push_row(values);
        let p = route(&self.spec, &mut self.min_max, &values[self.key]);
        self.assignments.push(p);
    }

    /// Rows routed so far.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no rows have been routed.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Concatenates the partitions into the canonical table and returns it
    /// with the partition layout.
    pub fn finish(self) -> (Table, Partitioning) {
        // The same placement as an append to an empty table, whose
        // splice is just the rows in placed order.
        let none_yet = vec![0..0; self.spec.partition_count()];
        let (order, spans) = place(&none_yet, &self.assignments);
        let table = self.rows.finish().take(&order);
        (table, Partitioning::new(self.spec, spans, self.min_max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)])
    }

    fn build(spec: PartitionSpec, keys: &[i64]) -> (Table, Partitioning) {
        let mut b = PartitionedTableBuilder::new("t", schema(), spec);
        for &k in keys {
            b.push_row(&[Value::Int(k), Value::Float(k as f64 / 2.0)]);
        }
        b.finish()
    }

    #[test]
    fn range_routing_and_spans() {
        let spec = PartitionSpec::Range {
            column: "k".into(),
            bounds: vec![Value::Int(10), Value::Int(20)],
        };
        assert_eq!(spec.partition_count(), 3);
        let (t, p) = build(spec, &[25, 5, 15, 9, 10, 19, 20, 3]);
        assert_eq!(t.num_rows(), 8);
        // Partition 0: 5, 9, 3; partition 1: 15, 10, 19; partition 2: 25, 20.
        assert_eq!(p.spans(), &[0..3, 3..6, 6..8]);
        // Concatenation preserves per-partition arrival order.
        let keys: Vec<i64> = (0..8).map(|r| t.value(r, 0).as_int()).collect();
        assert_eq!(keys, vec![5, 9, 3, 15, 10, 19, 25, 20]);
        assert_eq!(
            p.min_max(0),
            Some(&(Value::Int(3), Value::Int(9))),
            "partition 0 bounds"
        );
        assert_eq!(p.min_max(1), Some(&(Value::Int(10), Value::Int(19))));
        assert_eq!(p.min_max(2), Some(&(Value::Int(20), Value::Int(25))));
        assert_eq!(p.rows_in(&[0, 2]), 5);
    }

    #[test]
    fn empty_partition_has_no_bounds() {
        let spec = PartitionSpec::Range {
            column: "k".into(),
            bounds: vec![Value::Int(100)],
        };
        let (_, p) = build(spec, &[1, 2, 3]);
        assert_eq!(p.spans(), &[0..3, 3..3]);
        assert!(p.min_max(1).is_none());
    }

    #[test]
    fn hash_routing_is_deterministic_and_total() {
        let spec = PartitionSpec::Hash {
            column: "k".into(),
            partitions: 4,
        };
        let keys: Vec<i64> = (0..100).collect();
        let (t1, p1) = build(spec.clone(), &keys);
        let (t2, p2) = build(spec.clone(), &keys);
        assert_eq!(p1.spans(), p2.spans(), "layout must be reproducible");
        for r in 0..t1.num_rows() as u32 {
            assert_eq!(t1.value(r, 0), t2.value(r, 0));
        }
        // Every row landed in the partition its key routes to.
        for (part, span) in p1.spans().iter().enumerate() {
            for r in span.clone() {
                assert_eq!(spec.route(&t1.value(r as u32, 0)), part);
            }
        }
        // All four buckets should be populated for 100 consecutive keys.
        assert!(p1.spans().iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn hash_agrees_across_numeric_coercions() {
        assert_eq!(
            partition_hash(&Value::Int(42)),
            partition_hash(&Value::Float(42.0))
        );
        assert_eq!(
            partition_hash(&Value::Int(7)),
            partition_hash(&Value::Date(7))
        );
        assert_ne!(
            partition_hash(&Value::Int(1)),
            partition_hash(&Value::Int(2))
        );
    }

    #[test]
    fn null_keys_route_to_partition_zero() {
        // Stored tables are fully populated (TableBuilder rejects NULLs),
        // but the routing function itself is total over `Value`.
        let range = PartitionSpec::Range {
            column: "k".into(),
            bounds: vec![Value::Int(0)],
        };
        assert_eq!(range.route(&Value::Null), 0);
        let hash = PartitionSpec::Hash {
            column: "k".into(),
            partitions: 7,
        };
        assert_eq!(hash.route(&Value::Null), 0);
    }

    #[test]
    fn append_matches_one_shot_build() {
        let spec = PartitionSpec::Range {
            column: "k".into(),
            bounds: vec![Value::Int(10), Value::Int(20)],
        };
        let first: Vec<i64> = vec![25, 5, 15, 9];
        let second: Vec<i64> = vec![10, 19, 20, 3];
        let (t1, p1) = build(spec.clone(), &first);
        let batch: Vec<Vec<Value>> = second
            .iter()
            .map(|&k| vec![Value::Int(k), Value::Float(k as f64 / 2.0)])
            .collect();
        let (t2, p2, assignments) = p1.append(&t1, &batch).unwrap();
        // Identical to routing all eight rows in one shot.
        let all: Vec<i64> = first.iter().chain(&second).copied().collect();
        let (t_ref, p_ref) = build(spec.clone(), &all);
        assert_eq!(t2.num_rows(), t_ref.num_rows());
        for r in 0..t_ref.num_rows() as u32 {
            assert_eq!(t2.row(r), t_ref.row(r), "row {r}");
        }
        assert_eq!(p2.spans(), p_ref.spans());
        for p in 0..p2.partition_count() {
            assert_eq!(p2.min_max(p), p_ref.min_max(p), "partition {p} bounds");
        }
        // Assignments report where each batch row landed.
        assert_eq!(
            assignments,
            second
                .iter()
                .map(|&k| spec.route(&Value::Int(k)))
                .collect::<Vec<_>>()
        );
        // Original table/layout untouched.
        assert_eq!(t1.num_rows(), 4);
        assert_eq!(p1.spans().last().unwrap().end, 4);
    }

    #[test]
    fn append_rejects_bad_rows() {
        let spec = PartitionSpec::Hash {
            column: "k".into(),
            partitions: 2,
        };
        let (t, p) = build(spec, &[1, 2, 3]);
        let err = p.append(&t, &[vec![Value::Int(1)]]);
        assert!(matches!(err, Err(StorageError::SchemaMismatch(_))));
        let err = p.append(&t, &[vec![Value::str("x"), Value::Float(0.0)]]);
        assert!(matches!(err, Err(StorageError::SchemaMismatch(_))));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_row_rejects_a_wrong_typed_value_at_once() {
        // Used to be caught only inside `finish`, far from the bad row.
        let spec = PartitionSpec::Hash {
            column: "k".into(),
            partitions: 2,
        };
        let mut b = PartitionedTableBuilder::new("t", schema(), spec);
        b.push_row(&[Value::Int(1), Value::str("not a float")]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_bounds() {
        PartitionedTableBuilder::new(
            "t",
            schema(),
            PartitionSpec::Range {
                column: "k".into(),
                bounds: vec![Value::Int(10), Value::Int(10)],
            },
        );
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn rejects_missing_column() {
        PartitionedTableBuilder::new(
            "t",
            schema(),
            PartitionSpec::Hash {
                column: "zzz".into(),
                partitions: 2,
            },
        );
    }
}
