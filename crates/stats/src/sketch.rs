//! Mergeable streaming sketches: HyperLogLog distinct counts and
//! deterministic reservoir row samples.
//!
//! Everything else in this crate is batch-only — distinct counts come
//! from GEE over an offline sample, and absorbing new rows means a full
//! `refresh_statistics` rebuild.  This module is the streaming half of
//! the statistics subsystem: a dense-register HyperLogLog sketch
//! ([`DistinctSketch`]) that supports `insert`/`merge`/`estimate`, and a
//! deterministic reservoir sampler ([`RowReservoir`]) that maintains a
//! uniform without-replacement row sample under a stream of inserts.
//! Sketches live in memory only; no wire frame or file carries them.
//!
//! Both structures are *mergeable per partition*: the ingest path keeps
//! one sketch per (partition, column) and one reservoir per partition,
//! and the estimator merges partition sketches on demand — union of
//! register-wise maxima — so a table-level distinct estimate never
//! requires re-scanning data.  Merging is commutative and associative
//! and `insert`-then-merge equals merge-then-`insert`, which is what
//! makes the per-partition decomposition sound (pinned by the property
//! suite in `crates/stats/tests/sketch_props.rs`).
//!
//! Determinism: hashing is seed-free and platform-independent
//! ([`value_hash`] is the storage layer's FNV-1a value hash finished
//! with a splitmix64-style avalanche), and the reservoir draws from an
//! explicit-seed splitmix64 stream, so identical insert sequences
//! produce bit-identical sketches and samples on every machine.

use std::sync::Arc;

use rqo_storage::{partition_hash, Value};

/// Minimum supported HLL precision (16 registers).
pub const MIN_PRECISION: u8 = 4;
/// Maximum supported HLL precision (65 536 registers).
pub const MAX_PRECISION: u8 = 16;
/// Default HLL precision: 2^14 = 16 384 registers, ~0.8 % standard
/// error — comfortably inside the 5 % relative-error acceptance bound
/// at 10^5+ distinct values.
pub const DEFAULT_PRECISION: u8 = 14;

/// splitmix64 finalizer: a fast full-avalanche bijection on `u64`.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic 64-bit hash of a [`Value`] for sketching.
///
/// Reuses the storage layer's type-tagged FNV-1a
/// ([`rqo_storage::partition_hash`]) so numeric values that compare
/// equal under `Value::total_cmp`'s coercions (`Int`/`Date`/integral
/// `Float`) hash identically — a column rewritten from `Int` to `Float`
/// keeps the same distinct count.  FNV alone avalanches poorly in the
/// high bits HLL uses for register selection, so the result is finished
/// with a splitmix64 mix.
pub fn value_hash(value: &Value) -> u64 {
    mix64(partition_hash(value))
}

/// A mergeable HyperLogLog distinct-count sketch with dense `u8`
/// registers.
///
/// `precision` bits of the value hash select a register; the register
/// keeps the maximum rank (position of the first set bit, 1-based) seen
/// in the remaining `64 - precision` bits.  The estimator is classic
/// HLL with the small-range linear-counting correction — with 64-bit
/// hashes no large-range correction is needed at the cardinalities this
/// system stores.
///
/// Two sketches over the same precision merge by register-wise `max`,
/// which computes the sketch of the *union* of the two insert streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    precision: u8,
    registers: Vec<u8>,
}

impl Default for DistinctSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl DistinctSketch {
    /// A sketch at [`DEFAULT_PRECISION`].
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION)
    }

    /// A sketch with `2^precision` registers.
    ///
    /// # Panics
    ///
    /// Panics when `precision` is outside
    /// [`MIN_PRECISION`]..=[`MAX_PRECISION`].
    pub fn with_precision(precision: u8) -> Self {
        assert!(
            (MIN_PRECISION..=MAX_PRECISION).contains(&precision),
            "sketch precision {precision} outside {MIN_PRECISION}..={MAX_PRECISION}"
        );
        Self {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// The precision (register-index bits).
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// True when no value has ever been inserted (all registers zero).
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Observes one value.
    pub fn insert(&mut self, value: &Value) {
        self.insert_hash(value_hash(value));
    }

    /// Observes a pre-computed [`value_hash`].
    pub fn insert_hash(&mut self, hash: u64) {
        let p = self.precision as u32;
        let idx = (hash >> (64 - p)) as usize;
        // Rank of the first set bit in the low 64-p bits, 1-based; a
        // zero suffix saturates at 64-p+1.
        let suffix = hash << p;
        let rank = if suffix == 0 {
            (64 - p + 1) as u8
        } else {
            (suffix.leading_zeros() + 1) as u8
        };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merges another sketch into this one (register-wise max), giving
    /// the sketch of the union of both insert streams.
    ///
    /// # Panics
    ///
    /// Panics when the precisions differ — per-partition sketches for
    /// one column are always built at one precision.
    pub fn merge(&mut self, other: &DistinctSketch) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge sketches of different precision"
        );
        for (r, &o) in self.registers.iter_mut().zip(&other.registers) {
            if o > *r {
                *r = o;
            }
        }
    }

    /// Returns the merge of `self` and `other` without mutating either.
    pub fn merged(&self, other: &DistinctSketch) -> DistinctSketch {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Estimated number of distinct values inserted.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in &self.registers {
            sum += 1.0 / (1u64 << r.min(63)) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            // Small-range correction: linear counting over empty
            // registers is near-exact while collisions are rare.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

/// A deterministic streaming reservoir sample of rows (Vitter's
/// Algorithm R over an explicit-seed splitmix64 stream).
///
/// Maintains a uniform without-replacement sample of `capacity` rows
/// over everything ever [`insert`](RowReservoir::insert)ed.  The ingest
/// path keeps one reservoir per partition so partition-local synopses
/// can be rebuilt from the sample without re-scanning the partition.
/// Unlike the offline samplers in [`crate::sampler`] this one never
/// sees the table — it observes the insert stream itself, so it works
/// on data that arrives incrementally.
///
/// Determinism: the replacement decisions depend only on `(seed, number
/// of rows seen)`, so the same insert sequence yields the same sample
/// on every run and platform.
#[derive(Debug, Clone)]
pub struct RowReservoir {
    capacity: usize,
    seed: u64,
    state: u64,
    seen: u64,
    rows: Vec<Vec<Value>>,
}

impl RowReservoir {
    /// An empty reservoir holding at most `capacity` rows.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            capacity,
            seed,
            // splitmix64 recommends seeding the stream with a mixed
            // seed so nearby seeds give unrelated streams.
            state: mix64(seed ^ 0x9e37_79b9_7f4a_7c15),
            seen: 0,
            rows: Vec::new(),
        }
    }

    /// splitmix64 step.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Observes one row.
    pub fn insert(&mut self, row: &[Value]) {
        self.seen += 1;
        if self.rows.len() < self.capacity {
            self.rows.push(row.to_vec());
            return;
        }
        if self.capacity == 0 {
            return;
        }
        // Algorithm R: replace slot j with probability capacity/seen.
        let j = self.next_u64() % self.seen;
        if (j as usize) < self.capacity {
            self.rows[j as usize] = row.to_vec();
        }
    }

    /// The current sample, in reservoir slot order.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Total rows ever observed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Sample size currently held (`min(capacity, seen)`).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Maximum sample size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The seed this reservoir draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Streaming statistics for one partition of a table: one
/// [`DistinctSketch`] per column plus a [`RowReservoir`] row sample.
#[derive(Debug, Clone)]
pub struct PartitionSketch {
    /// Per-column distinct sketches, in schema order.
    pub columns: Vec<DistinctSketch>,
    /// Uniform row sample of this partition's insert stream.
    pub reservoir: RowReservoir,
    /// Rows ever routed to this partition.
    pub rows: u64,
}

impl PartitionSketch {
    /// Empty statistics for a partition of a `columns`-wide table.
    pub fn new(columns: usize, precision: u8, sample_capacity: usize, seed: u64) -> Self {
        Self {
            columns: (0..columns)
                .map(|_| DistinctSketch::with_precision(precision))
                .collect(),
            reservoir: RowReservoir::new(sample_capacity, seed),
            rows: 0,
        }
    }

    /// Observes one row: every column sketch and the reservoir see it.
    pub fn observe(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.columns.len(), "row arity vs sketch arity");
        for (sketch, v) in self.columns.iter_mut().zip(row) {
            sketch.insert(v);
        }
        self.reservoir.insert(row);
        self.rows += 1;
    }
}

/// Streaming statistics for a whole table: one [`PartitionSketch`] per
/// partition (a single partition for unpartitioned tables), merged on
/// demand for table-level estimates.
///
/// Shared immutably behind an `Arc`; the ingest path builds an updated
/// copy and republishes, matching the engine's snapshot semantics.
#[derive(Debug, Clone)]
pub struct TableSketches {
    name: String,
    columns: Vec<String>,
    partitions: Vec<PartitionSketch>,
}

impl TableSketches {
    /// Empty statistics for `partition_count` partitions of a table
    /// with the given columns (in schema order).
    ///
    /// Per-partition reservoirs draw from sub-seeds derived the same
    /// way the stratified synopsis builder derives its partition seeds
    /// (`seed ^ ((p + 1) << 16)`), so streams never collide.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<String>,
        partition_count: usize,
        precision: u8,
        sample_capacity: usize,
        seed: u64,
    ) -> Self {
        let width = columns.len();
        Self {
            name: name.into(),
            columns,
            partitions: (0..partition_count)
                .map(|p| {
                    PartitionSketch::new(
                        width,
                        precision,
                        sample_capacity,
                        seed ^ ((p as u64 + 1) << 16),
                    )
                })
                .collect(),
        }
    }

    /// The table these statistics describe.
    pub fn table(&self) -> &str {
        &self.name
    }

    /// Column names in schema order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Ordinal of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Bulk-seeds statistics from an already-stored table so the
    /// sketches cover rows that predate streaming; subsequent inserts
    /// maintain them incrementally.  Partitioned tables attribute each
    /// stored row to its partition via the layout's RID spans.
    pub fn seeded_from_table(
        table: &rqo_storage::Table,
        layout: Option<&rqo_storage::Partitioning>,
        precision: u8,
        sample_capacity: usize,
        seed: u64,
    ) -> Self {
        let columns = table
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let partition_count = layout.map_or(1, |l| l.partition_count());
        let mut out = Self::new(
            table.name(),
            columns,
            partition_count,
            precision,
            sample_capacity,
            seed,
        );
        match layout {
            Some(l) => {
                for (p, span) in l.spans().iter().enumerate() {
                    for rid in span.clone() {
                        out.observe(p, &table.row(rid as rqo_storage::Rid));
                    }
                }
            }
            None => {
                for rid in 0..table.num_rows() {
                    out.observe(0, &table.row(rid as rqo_storage::Rid));
                }
            }
        }
        out
    }

    /// Number of partitions tracked.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Per-partition statistics.
    pub fn partition(&self, p: usize) -> &PartitionSketch {
        &self.partitions[p]
    }

    /// Routes one row's statistics update to partition `p`.
    pub fn observe(&mut self, p: usize, row: &[Value]) {
        self.partitions[p].observe(row);
    }

    /// Total rows observed across all partitions.
    pub fn rows(&self) -> u64 {
        self.partitions.iter().map(|p| p.rows).sum()
    }

    /// The table-level distinct sketch for a column: the merge of every
    /// partition's sketch, computed on demand.
    pub fn merged_column(&self, col: usize) -> DistinctSketch {
        let mut merged = self.partitions[0].columns[col].clone();
        for p in &self.partitions[1..] {
            merged.merge(&p.columns[col]);
        }
        merged
    }

    /// Table-level distinct estimate for a column.
    pub fn column_distinct(&self, col: usize) -> f64 {
        self.merged_column(col).estimate()
    }
}

/// A shared, immutable set of [`TableSketches`] keyed by table name —
/// the streaming counterpart of `SynopsisRepository`, published by the
/// engine alongside the catalog snapshot.
#[derive(Debug, Clone, Default)]
pub struct SketchRepository {
    tables: Vec<Arc<TableSketches>>,
}

impl SketchRepository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics for a table, if ingest has touched it.
    pub fn for_table(&self, name: &str) -> Option<&Arc<TableSketches>> {
        self.tables.iter().find(|t| t.table() == name)
    }

    /// Installs (or replaces) a table's statistics.
    pub fn publish(&mut self, sketches: Arc<TableSketches>) {
        match self
            .tables
            .iter_mut()
            .find(|t| t.table() == sketches.table())
        {
            Some(slot) => *slot = sketches,
            None => self.tables.push(sketches),
        }
    }

    /// All tracked tables.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableSketches>> {
        self.tables.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: impl Iterator<Item = i64>) -> DistinctSketch {
        let mut s = DistinctSketch::new();
        for v in values {
            s.insert(&Value::Int(v));
        }
        s
    }

    #[test]
    fn estimates_track_true_cardinality() {
        for &n in &[1i64, 10, 100, 1_000, 50_000, 200_000] {
            let s = sketch_of(0..n);
            let est = s.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            let bound = if n < 1_000 { 0.02 } else { 0.05 };
            assert!(
                rel <= bound,
                "n={n}: estimate {est:.1} off by {:.2}%",
                rel * 100.0
            );
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = DistinctSketch::new();
        for _ in 0..10 {
            for v in 0..500i64 {
                s.insert(&Value::Int(v));
            }
        }
        let est = s.estimate();
        assert!((est - 500.0).abs() / 500.0 < 0.05, "estimate {est}");
    }

    #[test]
    fn merge_is_union() {
        let a = sketch_of(0..10_000);
        let b = sketch_of(5_000..15_000);
        let m = a.merged(&b);
        let est = m.estimate();
        assert!((est - 15_000.0).abs() / 15_000.0 < 0.05, "union {est}");
        // Commutative.
        assert_eq!(m, b.merged(&a));
    }

    #[test]
    fn insert_then_merge_equals_merge_then_insert() {
        let mut a = sketch_of(0..100);
        let b = sketch_of(100..200);
        let mut merged_first = a.merged(&b);
        merged_first.insert(&Value::Int(999));
        a.insert(&Value::Int(999));
        assert_eq!(a.merged(&b), merged_first);
    }

    #[test]
    fn numeric_coercions_count_once() {
        let mut s = DistinctSketch::new();
        s.insert(&Value::Int(42));
        s.insert(&Value::Float(42.0));
        s.insert(&Value::Date(42));
        let one = {
            let mut t = DistinctSketch::new();
            t.insert(&Value::Int(42));
            t
        };
        assert_eq!(s, one, "coercion-equal values must hash identically");
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_rejects_mixed_precision() {
        let mut a = DistinctSketch::with_precision(10);
        a.merge(&DistinctSketch::with_precision(12));
    }

    #[test]
    fn reservoir_is_deterministic_and_uniform() {
        let mut r1 = RowReservoir::new(50, 7);
        let mut r2 = RowReservoir::new(50, 7);
        for i in 0..10_000i64 {
            r1.insert(&[Value::Int(i)]);
            r2.insert(&[Value::Int(i)]);
        }
        assert_eq!(r1.rows(), r2.rows(), "same seed, same stream, same sample");
        assert_eq!(r1.seen(), 10_000);
        assert_eq!(r1.len(), 50);
        // Different seed should (overwhelmingly) give a different sample.
        let mut r3 = RowReservoir::new(50, 8);
        for i in 0..10_000i64 {
            r3.insert(&[Value::Int(i)]);
        }
        assert_ne!(r1.rows(), r3.rows());
        // Inclusion probability: each of 200 items appears in ~25% of
        // 50-slot reservoirs over 200 inserts.
        let mut hits = vec![0usize; 200];
        for seed in 0..400u64 {
            let mut r = RowReservoir::new(50, seed);
            for i in 0..200i64 {
                r.insert(&[Value::Int(i)]);
            }
            for row in r.rows() {
                if let Value::Int(i) = row[0] {
                    hits[i as usize] += 1;
                }
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let p = h as f64 / 400.0;
            assert!((0.15..0.36).contains(&p), "item {i}: inclusion {p}");
        }
    }

    #[test]
    fn reservoir_small_and_zero_capacity() {
        let mut r = RowReservoir::new(0, 1);
        r.insert(&[Value::Int(1)]);
        assert!(r.is_empty());
        assert_eq!(r.seen(), 1);
        let mut r = RowReservoir::new(10, 1);
        for i in 0..5i64 {
            r.insert(&[Value::Int(i)]);
        }
        assert_eq!(r.len(), 5, "under capacity keeps everything");
    }

    #[test]
    fn table_sketches_merge_partitions() {
        let mut ts = TableSketches::new(
            "t",
            vec!["a".into(), "b".into()],
            4,
            DEFAULT_PRECISION,
            32,
            42,
        );
        assert_eq!(ts.column_index("b"), Some(1));
        assert_eq!(ts.column_index("z"), None);
        for i in 0..40_000i64 {
            let p = (i % 4) as usize;
            ts.observe(p, &[Value::Int(i), Value::Int(i % 100)]);
        }
        assert_eq!(ts.rows(), 40_000);
        let d0 = ts.column_distinct(0);
        assert!((d0 - 40_000.0).abs() / 40_000.0 < 0.05, "col 0 {d0}");
        let d1 = ts.column_distinct(1);
        assert!((d1 - 100.0).abs() / 100.0 < 0.05, "col 1 {d1}");
        // Each partition saw a quarter of the keyspace.
        let p0 = ts.partition(0).columns[0].estimate();
        assert!((p0 - 10_000.0).abs() / 10_000.0 < 0.05, "partition 0 {p0}");
        assert_eq!(ts.partition(0).reservoir.len(), 32);
    }

    #[test]
    fn repository_publish_and_lookup() {
        let mut repo = SketchRepository::new();
        assert!(repo.for_table("t").is_none());
        repo.publish(Arc::new(TableSketches::new(
            "t",
            vec!["x".into()],
            1,
            10,
            8,
            1,
        )));
        assert!(repo.for_table("t").is_some());
        let mut ts = TableSketches::new("t", vec!["x".into()], 1, 10, 8, 1);
        ts.observe(0, &[Value::Int(5)]);
        repo.publish(Arc::new(ts));
        assert_eq!(repo.for_table("t").unwrap().rows(), 1);
        assert_eq!(repo.tables().count(), 1);
    }
}
