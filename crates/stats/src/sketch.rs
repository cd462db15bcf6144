//! Streaming sketches: HyperLogLog distinct counts and deterministic
//! reservoir row samples.
//!
//! Nothing that plans reads them.  The estimator reads the join synopses
//! drawn at build or refresh (PAPER.md §1), and `Engine::insert_rows`
//! builds no statistics: an appended batch is read by the next refresh.
//! This module holds a dense-register HyperLogLog sketch
//! ([`DistinctSketch`]), a deterministic reservoir sampler
//! ([`RowReservoir`]) and their per-table bundle ([`TableSketches`]),
//! kept only for the `benchmark/` crate's sketch metrics (ROADMAP items
//! 11(d) and 19).  Sketches live in memory only; no wire frame or file
//! carries them.
//!
//! Determinism: hashing is seed-free and platform-independent
//! ([`value_hash`] is a type-tagged FNV-1a value hash finished with a
//! splitmix64-style avalanche), and the reservoir draws from an
//! explicit-seed splitmix64 stream, so identical insert sequences
//! produce bit-identical sketches and samples on every machine.

use std::convert::Infallible;

use rqo_storage::Value;

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
/// A type-tagged FNV-1a under which numeric values that compare equal
/// under `Value::total_cmp`'s coercions (`Int`/`Date`/integral `Float`)
/// hash identically — a column rewritten from `Int` to `Float` keeps the
/// same distinct count.  FNV alone avalanches poorly in
/// the high bits HLL uses for register selection, so the result is
/// finished with a splitmix64 mix.
pub fn value_hash(value: &Value) -> u64 {
    mix64(fnv_hash(value))
}

/// FNV-1a over a type tag and the payload.  Numeric values that compare
/// equal under [`Value::total_cmp`]'s coercions (`Int`/`Date`/integral
/// `Float`) hash identically.
fn fnv_hash(value: &Value) -> u64 {
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

/// A HyperLogLog distinct-count sketch with dense `u8` registers.
///
/// `precision` bits of the value hash select a register; the register
/// keeps the maximum rank (position of the first set bit, 1-based) seen
/// in the remaining `64 - precision` bits.  The estimator is classic
/// HLL with the small-range linear-counting correction — with 64-bit
/// hashes no large-range correction is needed at the cardinalities this
/// system stores.
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
/// over everything ever [`insert`](RowReservoir::insert)ed.  Unlike the
/// offline samplers in [`crate::sampler`] this one never sees the table —
/// it observes the insert stream itself.
///
/// Determinism: the replacement decisions depend only on `(seed, number
/// of rows seen)`, so the same insert sequence yields the same sample
/// on every run and platform.
#[derive(Debug, Clone)]
pub struct RowReservoir {
    capacity: usize,
    state: u64,
    seen: u64,
    rows: Vec<Vec<Value>>,
}

impl RowReservoir {
    /// An empty reservoir holding at most `capacity` rows.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            capacity,
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
}

/// Per-column [`DistinctSketch`]es plus a [`RowReservoir`] row sample of
/// one table, built from a full scan by
/// [`seeded_from_table`](Self::seeded_from_table) and extended row by row
/// by [`observe`](Self::observe).
///
/// No planning path reads these statistics and the engine keeps none: the
/// estimator reads the join synopses drawn at build or refresh.  The type
/// lives on only for the `benchmark/` crate's sketch metrics, and goes
/// with them (ROADMAP items 11(d) and 19).
#[derive(Debug, Clone)]
pub struct TableSketches {
    columns: Vec<DistinctSketch>,
    reservoir: RowReservoir,
}

impl TableSketches {
    /// Statistics over every stored row of `table`.  `_layout` can hold
    /// no value: it is kept only so that the `benchmark/` crate builds
    /// unchanged until ROADMAP items 11(d) and 19 retire this type.
    pub fn seeded_from_table(
        table: &rqo_storage::Table,
        _layout: Option<&Infallible>,
        precision: u8,
        sample_capacity: usize,
        seed: u64,
    ) -> Self {
        let mut out = Self {
            columns: (0..table.schema().len())
                .map(|_| DistinctSketch::with_precision(precision))
                .collect(),
            reservoir: RowReservoir::new(sample_capacity, seed),
        };
        for rid in 0..table.num_rows() {
            out.observe(0, &table.row(rid as rqo_storage::Rid));
        }
        out
    }

    /// Observes one row: every column sketch and the reservoir see it.
    /// `partition` must be 0, the only partition a table has.
    pub fn observe(&mut self, partition: usize, row: &[Value]) {
        debug_assert_eq!(partition, 0, "a table has one partition");
        debug_assert_eq!(row.len(), self.columns.len(), "row arity vs sketch arity");
        for (sketch, v) in self.columns.iter_mut().zip(row) {
            sketch.insert(v);
        }
        self.reservoir.insert(row);
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
    fn hash_agrees_across_numeric_coercions() {
        assert_eq!(fnv_hash(&Value::Int(42)), 0xb960_a184_f070_32c6);
        assert_eq!(fnv_hash(&Value::str("abc")), 0x3418_6a89_cedc_1e56);
        assert_eq!(fnv_hash(&Value::Int(42)), fnv_hash(&Value::Float(42.0)));
        assert_eq!(fnv_hash(&Value::Int(7)), fnv_hash(&Value::Date(7)));
        assert_ne!(fnv_hash(&Value::Int(1)), fnv_hash(&Value::Int(2)));
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
}
