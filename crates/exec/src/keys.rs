//! The one key table behind hash join and hash aggregation, and the one
//! rule for when a key needs none.
//!
//! Both kernels turn a row's key into a fixed number of `u64` words and
//! map equal words to one dense id, `0..len` in first-seen order; the
//! caller keeps its per-key data (a join's row chains, an aggregate's
//! states) in flat arrays indexed by that id.  Keys live back to back in
//! one arena and are found by hash-then-verify, in the style of X100's
//! hash tables (Boncz et al.): an open-addressing slot holds an id, the
//! probe hashes the key's words, then compares the words stored at that
//! id.  No `Value` is built and nothing is allocated per row.
//!
//! The encoding ([`KeyColumns`]) makes word equality the storage equality
//! of `Value` (NULL equals NULL):
//! - `Int`, `Date` and `Bool` by value;
//! - `Str` by dictionary code — `ColumnBuilder` interns strings, so within
//!   one column (and everything gathered from it) a code *is* a string;
//! - `Float` by `to_bits`, which is exactly `f64::total_cmp` equality
//!   (`-0.0` and `+0.0` differ, each NaN payload is its own key).
//!
//! A NULL cell encodes as word 0 plus its bit in a trailing word of NULL
//! flags, so a NULL key gets its own id, distinct from every value.
//!
//! Before either kernel builds a table it asks [`dense_domain`]: a key
//! that is one NULL-free `Int` column spanning at most 2¹⁸ values needs
//! no table at all, because `key − min` is already a dense id.

use std::ops::Range;

use rqo_storage::ColumnVec;

/// A slot that holds no id.
const EMPTY: u32 = u32::MAX;

/// Maps keys of `width` words to dense ids `0..len()`, in the order the
/// keys were first inserted.
pub(crate) struct KeyTable {
    width: usize,
    /// Key `id` is `arena[id * width..(id + 1) * width]`.
    arena: Vec<u64>,
    /// Open addressing with linear probing; a power of two in length, at
    /// most a quarter full.  Most probes of a selective join miss, and a
    /// miss stops at the first empty slot: the emptier the slots, the
    /// fewer mispredicted "keep probing" branches (on a 2-vCPU x86-64
    /// host, a half-full table made 300 k probes of a 48-key build 2.2×
    /// slower).
    slots: Vec<u32>,
    len: u32,
}

impl KeyTable {
    /// An empty table for keys of `width` words (0 is allowed: every key
    /// is then the empty key).
    pub(crate) fn new(width: usize) -> Self {
        Self {
            width,
            arena: Vec::new(),
            slots: vec![EMPTY; 16],
            len: 0,
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The words of key `id`.
    #[inline]
    fn key(&self, id: u32) -> &[u64] {
        let at = id as usize * self.width;
        &self.arena[at..at + self.width]
    }

    /// The id of `key`, which is `len()` before the call when the key is
    /// new.
    pub(crate) fn insert(&mut self, key: &[u64]) -> u32 {
        if 4 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        match self.find(key) {
            Ok(id) => id,
            Err(slot) => {
                let id = self.len;
                self.slots[slot] = id;
                self.arena.extend_from_slice(key);
                self.len += 1;
                id
            }
        }
    }

    /// The id of `key`, if it was inserted.
    #[inline]
    pub(crate) fn get(&self, key: &[u64]) -> Option<u32> {
        self.find(key).ok()
    }

    /// `Ok(id)` of `key`, or `Err(slot)`: the empty slot it would take.
    #[inline]
    fn find(&self, key: &[u64]) -> Result<u32, usize> {
        debug_assert_eq!(key.len(), self.width, "key width");
        let mask = self.slots.len() - 1;
        let mut slot = hash(key) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                // Word by word rather than `==`, which calls `memcmp`.
                id if self.key(id).iter().zip(key).all(|(a, b)| a == b) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Quadruples the slots and re-seats every id: over a table's growth,
    /// a third of the re-seats doubling would make.
    fn grow(&mut self) {
        let mut slots = vec![EMPTY; 4 * self.slots.len()];
        let mask = slots.len() - 1;
        for id in 0..self.len {
            let mut slot = hash(self.key(id)) as usize & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id;
        }
        self.slots = slots;
    }
}

/// The most slots a direct-addressed key domain allocates: a kernel
/// whose key is one NULL-free `Int` column spanning at most this many
/// values indexes its per-key data by `key − min`, not by a [`KeyTable`]
/// id.  2¹⁸
/// `u32` join chain heads are 1 MiB, which stays in one core's L2.
/// Measured on a 2-vCPU x86-64 host (2 MiB of L2 per core), a 48-row
/// join build probed by 300 k rows took 1.4 ms over 2¹⁸ direct heads
/// against 2.2 ms through the key table, and 2.7 ms over 2²⁰ heads against
/// 1.9 ms.
const DIRECT_SLOTS: u64 = 1 << 18;

/// The dense-domain rule hash join and hash aggregation share: when
/// `col` is an `Int` column with no null mask whose values span fewer
/// than [`DIRECT_SLOTS`], its `(min, slots)` — key `k` then takes slot
/// `k − min` of `0..slots` — and `None` for any other column, an empty
/// one included.  The span is an `abs_diff`, so no domain overflows it.
pub(crate) fn dense_domain(col: &ColumnVec) -> Option<(i64, usize)> {
    let ColumnVec::Int {
        values,
        nulls: None,
    } = col
    else {
        return None;
    };
    let (&first, rest) = values.split_first()?;
    let (min, max) = rest
        .iter()
        .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = max.abs_diff(min);
    (span < DIRECT_SLOTS).then(|| (min, span as usize + 1))
}

/// Which of `parts` partitions (a power of two) `key` falls in: the top
/// bits of its hash.  A table picks a slot from the low bits, so one
/// partition's keys still spread over every slot.
#[inline]
pub(crate) fn partition(key: &[u64], parts: usize) -> usize {
    debug_assert!(parts.is_power_of_two());
    (hash(key) >> 32 >> (32 - parts.trailing_zeros())) as usize
}

/// Multiply-fold hash: per word a golden-ratio multiply, then the
/// well-mixed high half folded into the low half that picks the slot.
#[inline]
fn hash(key: &[u64]) -> u64 {
    key.iter().fold(0, |h, &w| {
        let mixed = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        mixed ^ (mixed >> 32)
    })
}

/// The key columns of one input, and how their rows become key words:
/// one word per column, then — when `nullable` — one word of NULL flags
/// per 64 columns.
pub(crate) struct KeyColumns<'a> {
    cols: Vec<&'a ColumnVec>,
    nullable: bool,
}

impl<'a> KeyColumns<'a> {
    /// `nullable` must hold when any of `cols` has a null mask; two inputs
    /// whose keys meet in one table must agree on it.
    pub(crate) fn new(cols: Vec<&'a ColumnVec>, nullable: bool) -> Self {
        debug_assert!(nullable || cols.iter().all(|c| c.null_mask().is_none()));
        Self { cols, nullable }
    }

    /// Words per key.
    pub(crate) fn width(&self) -> usize {
        self.cols.len()
            + if self.nullable {
                self.cols.len().div_ceil(64)
            } else {
                0
            }
    }

    /// The keys of rows `rows`, back to back.
    pub(crate) fn encode(&self, rows: Range<usize>) -> Vec<u64> {
        fn fill<T: Copy>(
            words: &mut [u64],
            width: usize,
            c: usize,
            values: &[T],
            word: impl Fn(T) -> u64,
        ) {
            for (key, &v) in words.chunks_exact_mut(width).zip(values) {
                key[c] = word(v);
            }
        }
        let width = self.width();
        let mut words = vec![0; rows.len() * width];
        for (c, col) in self.cols.iter().enumerate() {
            match col {
                ColumnVec::Int { values, .. } => {
                    fill(&mut words, width, c, &values[rows.clone()], |v| v as u64)
                }
                ColumnVec::Float { values, .. } => {
                    fill(&mut words, width, c, &values[rows.clone()], f64::to_bits)
                }
                ColumnVec::Date { values, .. } => {
                    fill(&mut words, width, c, &values[rows.clone()], |v| v as u64)
                }
                ColumnVec::Bool { values, .. } => {
                    fill(&mut words, width, c, &values[rows.clone()], u64::from)
                }
                ColumnVec::Str { codes, .. } => {
                    fill(&mut words, width, c, &codes[rows.clone()], u64::from)
                }
            }
            let Some(mask) = col.null_mask() else {
                continue;
            };
            let flags = self.cols.len() + c / 64;
            for (key, i) in words.chunks_exact_mut(width).zip(rows.clone()) {
                if mask.is_null(i) {
                    key[c] = 0;
                    key[flags] |= 1 << (c % 64);
                }
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::{DataType, Value};

    fn column(dt: DataType, values: Vec<Value>) -> ColumnVec {
        let rows: Vec<Vec<Value>> = values.into_iter().map(|v| vec![v]).collect();
        ColumnVec::from_rows(&rows, 0, dt)
    }

    #[test]
    fn ids_are_dense_in_first_seen_order_across_growth() {
        let mut t = KeyTable::new(2);
        for round in 0..2 {
            for k in 0..1000u64 {
                assert_eq!(t.insert(&[k % 500, k / 500]), k as u32, "round {round}");
            }
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.key(7), &[7, 0]);
        assert_eq!(t.get(&[499, 1]), Some(999));
        assert_eq!(t.get(&[500, 1]), None);
    }

    #[test]
    fn the_empty_key_is_one_key() {
        let mut t = KeyTable::new(0);
        assert_eq!(t.get(&[]), None);
        assert!((0..5).all(|_| t.insert(&[]) == 0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn partitions_split_the_keys_and_one_partition_takes_all() {
        let mut counts = [0; 4];
        for k in 0..1000u64 {
            counts[partition(&[k], 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 150), "{counts:?}");
        assert!((0..1000u64).all(|k| partition(&[k, 7], 1) == 0));
    }

    #[test]
    fn the_dense_domain_rule_stops_at_its_bound() {
        let ints = |values: &[i64]| ColumnVec::Int {
            values: values.to_vec().into(),
            nulls: None,
        };
        let bound = 1i64 << 18;
        assert_eq!(
            dense_domain(&ints(&[5, 5 + bound - 1, 9])),
            Some((5, 1 << 18))
        );
        assert_eq!(dense_domain(&ints(&[5 + bound, 5])), None);
        assert_eq!(dense_domain(&ints(&[i64::MAX])), Some((i64::MAX, 1)));
        assert_eq!(
            dense_domain(&ints(&[i64::MIN + 3, i64::MIN])),
            Some((i64::MIN, 4))
        );
        // A span past `i64::MAX` wraps a subtraction, not `abs_diff`.
        assert_eq!(dense_domain(&ints(&[i64::MIN, i64::MAX])), None);
        assert_eq!(dense_domain(&ints(&[-1, i64::MAX])), None);
        assert_eq!(dense_domain(&ints(&[])), None);
        let nullable = column(DataType::Int, vec![Value::Int(1), Value::Null]);
        assert_eq!(dense_domain(&nullable), None, "a null mask takes the table");
        let dates = column(DataType::Date, vec![Value::Date(1), Value::Date(2)]);
        assert_eq!(dense_domain(&dates), None, "only `Int` keys are direct");
    }

    #[test]
    fn words_are_storage_equality() {
        let floats = column(
            DataType::Float,
            vec![
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(f64::NAN),
                Value::Null,
                Value::Float(0.0),
            ],
        );
        let ints = column(
            DataType::Int,
            vec![
                Value::Int(0),
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Int(0),
            ],
        );
        let keys = KeyColumns::new(vec![&floats, &ints], true);
        assert_eq!(keys.width(), 3);
        let words = keys.encode(0..5);
        let mut t = KeyTable::new(3);
        let ids: Vec<u32> = words.chunks(3).map(|k| t.insert(k)).collect();
        // +0.0 and -0.0 differ; a NULL cell differs from 0 in its column.
        assert_eq!(ids, vec![0, 1, 2, 3, 0]);
        assert_eq!(t.key(3), &[0, 0, 0b11]);
        // A range encodes the same words as the whole.
        assert_eq!(keys.encode(2..4), words[6..12]);
        // Past 64 columns the NULL flags take a second word.
        let wide = KeyColumns::new(vec![&ints; 65], true);
        assert_eq!(wide.width(), 67);
        assert_eq!(wide.encode(3..4)[65..], [u64::MAX, 1]);
    }
}
