//! The one column type.
//!
//! A [`ColumnVec`] is a typed vector with an optional [`NullMask`]; it is
//! what a [`crate::Table`] stores, what the executor's batches carry
//! between operators, and what the expression kernels read.  Its payload
//! is an [`AppendVec`], which derefs to one contiguous slice, so every
//! kernel reads a column as `&[T]`; table versions share it, and an
//! append writes the batch into the newest version's spare capacity
//! instead of copying the column.  Strings are
//! dictionary-encoded and the dictionary sits behind an `Arc`, so
//! [`ColumnVec::take`] — the gather every filter, fetch, and join ends
//! with — copies codes and never touches a string.  Stored columns hold
//! no NULLs; intermediates may.  Every column holds values of its
//! declared type (or NULL).  `Value`s are only rebuilt at the edge
//! ([`ColumnVec::value`]).

use std::collections::HashMap;
use std::sync::Arc;

use crate::buffer::AppendVec;
use crate::value::{DataType, Value};

/// Compact validity bitmap: bit `i` set means row `i` is NULL.
///
/// Columns without NULLs carry no mask at all (`Option<NullMask>` is
/// `None`), so the common all-valid case pays nothing per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NullMask {
    bits: Vec<u64>,
    len: usize,
}

impl NullMask {
    /// An all-valid mask covering `len` rows.
    pub fn all_valid(len: usize) -> Self {
        Self {
            bits: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Appends one row.
    pub fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.bits.push(0);
        }
        self.len += 1;
        if null {
            self.set_null(self.len - 1);
        }
    }

    /// Marks row `i` as NULL.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn set_null(&mut self, i: usize) {
        assert!(
            i < self.len,
            "null-mask index {i} out of range {}",
            self.len
        );
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// True when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(
            i < self.len,
            "null-mask index {i} out of range {}",
            self.len
        );
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// True when any row is NULL.
    pub fn any_null(&self) -> bool {
        self.bits.iter().any(|w| *w != 0)
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mask of rows `ids`, or `None` when none of them is NULL.
    fn take(&self, ids: &[u32]) -> Option<NullMask> {
        let mut out = NullMask::all_valid(ids.len());
        for (k, &i) in ids.iter().enumerate() {
            if self.is_null(i as usize) {
                out.set_null(k);
            }
        }
        out.any_null().then_some(out)
    }
}

/// True when `nulls` marks row `i` NULL (no mask means all-valid).
fn null_at(nulls: &Option<NullMask>, i: usize) -> bool {
    nulls.as_ref().is_some_and(|m| m.is_null(i))
}

/// A typed column: one vector of payloads plus an optional null bitmap.
#[derive(Debug, Clone)]
pub enum ColumnVec {
    /// 64-bit integers.
    Int {
        /// Per-row payloads (arbitrary at NULL positions).
        values: AppendVec<i64>,
        /// Null bitmap; `None` means no NULLs.
        nulls: Option<NullMask>,
    },
    /// 64-bit floats.
    Float {
        /// Per-row payloads (arbitrary at NULL positions).
        values: AppendVec<f64>,
        /// Null bitmap; `None` means no NULLs.
        nulls: Option<NullMask>,
    },
    /// Dates as days since epoch.
    Date {
        /// Per-row payloads (arbitrary at NULL positions).
        values: AppendVec<i32>,
        /// Null bitmap; `None` means no NULLs.
        nulls: Option<NullMask>,
    },
    /// Dictionary-encoded strings.
    Str {
        /// Per-row codes indexing into `dict` (arbitrary at NULL
        /// positions).
        codes: AppendVec<u32>,
        /// Distinct values, shared by every column gathered from this one.
        dict: Arc<Vec<Arc<str>>>,
        /// Null bitmap; `None` means no NULLs.
        nulls: Option<NullMask>,
    },
    /// Booleans.
    Bool {
        /// Per-row payloads (arbitrary at NULL positions).
        values: AppendVec<bool>,
        /// Null bitmap; `None` means no NULLs.
        nulls: Option<NullMask>,
    },
}

impl ColumnVec {
    /// Extracts column `ord` of row-major `rows` into a typed vector.
    ///
    /// # Panics
    ///
    /// Panics when any row is shorter than `ord + 1`, or when a value is
    /// neither NULL nor of type `dt` (a programmer error: stored rows are
    /// checked before they get here, and every operator declares the
    /// type of what it outputs).
    pub fn from_rows(rows: &[Vec<Value>], ord: usize, dt: DataType) -> ColumnVec {
        let mut b = ColumnBuilder::new(dt, rows.len());
        for r in rows {
            b.push(&r[ord]);
        }
        b.finish()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { values, .. } => values.len(),
            ColumnVec::Float { values, .. } => values.len(),
            ColumnVec::Date { values, .. } => values.len(),
            ColumnVec::Str { codes, .. } => codes.len(),
            ColumnVec::Bool { values, .. } => values.len(),
        }
    }

    /// True when the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.null_mask().is_some_and(|m| m.is_null(i))
    }

    /// Materializes the `Value` at row `i` (NULL positions yield
    /// `Value::Null`; strings are refcount clones).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn value(&self, i: usize) -> Value {
        // One dispatch per call: this sits under every row leaving the
        // engine.
        let or_null = |nulls: &Option<NullMask>, v: Value| {
            if null_at(nulls, i) {
                Value::Null
            } else {
                v
            }
        };
        match self {
            ColumnVec::Int { values, nulls } => or_null(nulls, Value::Int(values[i])),
            ColumnVec::Float { values, nulls } => or_null(nulls, Value::Float(values[i])),
            ColumnVec::Date { values, nulls } => or_null(nulls, Value::Date(values[i])),
            ColumnVec::Bool { values, nulls } => or_null(nulls, Value::Bool(values[i])),
            ColumnVec::Str { codes, dict, nulls } if !null_at(nulls, i) => {
                Value::Str(Arc::clone(&dict[codes[i] as usize]))
            }
            ColumnVec::Str { .. } => Value::Null,
        }
    }

    /// Gathers rows `ids` (any order, repeats allowed) into a new column
    /// of the same type.  A `Str` column's output shares its dictionary.
    ///
    /// # Panics
    ///
    /// Panics when an id is out of range.
    pub fn take(&self, ids: &[u32]) -> ColumnVec {
        fn pick<T: Copy>(values: &[T], ids: &[u32]) -> AppendVec<T> {
            ids.iter().map(|&i| values[i as usize]).collect()
        }
        let mask = |nulls: &Option<NullMask>| nulls.as_ref().and_then(|m| m.take(ids));
        match self {
            ColumnVec::Int { values, nulls } => ColumnVec::Int {
                values: pick(values, ids),
                nulls: mask(nulls),
            },
            ColumnVec::Float { values, nulls } => ColumnVec::Float {
                values: pick(values, ids),
                nulls: mask(nulls),
            },
            ColumnVec::Date { values, nulls } => ColumnVec::Date {
                values: pick(values, ids),
                nulls: mask(nulls),
            },
            ColumnVec::Str { codes, dict, nulls } => ColumnVec::Str {
                codes: pick(codes, ids),
                dict: Arc::clone(dict),
                nulls: mask(nulls),
            },
            ColumnVec::Bool { values, nulls } => ColumnVec::Bool {
                values: pick(values, ids),
                nulls: mask(nulls),
            },
        }
    }

    /// This column followed by `tail`, a NULL-free column of the same
    /// type (stored columns and index keys are both NULL-free): extended
    /// in place when `self` is its buffer's tip (see [`AppendVec`]),
    /// otherwise copied once.  A `Str` result takes `tail`'s dictionary,
    /// which must continue this one's (as [`crate::Table`]'s batches do).
    ///
    /// # Panics
    ///
    /// Panics when the two columns differ in type or either has a null
    /// bitmap.
    pub(crate) fn extended(&self, tail: &ColumnVec) -> ColumnVec {
        assert!(
            self.null_mask().is_none() && tail.null_mask().is_none(),
            "only NULL-free (stored) columns are extended"
        );
        let nulls = None;
        match (self, tail) {
            (ColumnVec::Int { values: a, .. }, ColumnVec::Int { values: b, .. }) => {
                ColumnVec::Int {
                    values: a.extended(b),
                    nulls,
                }
            }
            (ColumnVec::Float { values: a, .. }, ColumnVec::Float { values: b, .. }) => {
                ColumnVec::Float {
                    values: a.extended(b),
                    nulls,
                }
            }
            (ColumnVec::Date { values: a, .. }, ColumnVec::Date { values: b, .. }) => {
                ColumnVec::Date {
                    values: a.extended(b),
                    nulls,
                }
            }
            (ColumnVec::Bool { values: a, .. }, ColumnVec::Bool { values: b, .. }) => {
                ColumnVec::Bool {
                    values: a.extended(b),
                    nulls,
                }
            }
            (
                ColumnVec::Str { codes: a, dict, .. },
                ColumnVec::Str {
                    codes: b, dict: db, ..
                },
            ) => {
                debug_assert!(
                    db.len() >= dict.len() && dict.iter().zip(db.iter()).all(|(x, y)| x == y),
                    "the tail's dictionary must continue this column's"
                );
                ColumnVec::Str {
                    codes: a.extended(b),
                    dict: Arc::clone(db),
                    nulls,
                }
            }
            _ => panic!("cannot extend a column by one of another type"),
        }
    }

    /// The null bitmap, if any (`None`: the column holds no NULL).
    pub fn null_mask(&self) -> Option<&NullMask> {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Date { nulls, .. }
            | ColumnVec::Str { nulls, .. }
            | ColumnVec::Bool { nulls, .. } => nulls.as_ref(),
        }
    }
}

/// Appends `Value`s to a typed vector and freezes it into a
/// [`ColumnVec`] — the one routine behind [`ColumnVec::from_rows`],
/// [`crate::TableBuilder`], and [`crate::Table::appended`].  String codes
/// are assigned through a hash map, so building stays linear in
/// high-cardinality columns.
#[derive(Debug)]
pub(crate) struct ColumnBuilder {
    dt: DataType,
    values: Payload,
    nulls: Option<NullMask>,
    len: usize,
    /// A `Str` column's dictionary, and each of its strings' code.
    dict: Arc<Vec<Arc<str>>>,
    codes: HashMap<Arc<str>, u32>,
}

/// What a [`ColumnBuilder`] grows: one vector of its column's type.
#[derive(Debug)]
enum Payload {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Date(Vec<i32>),
    Str(Vec<u32>),
    Bool(Vec<bool>),
}

impl ColumnBuilder {
    /// An empty column of type `dt` with room for `cap` rows.
    pub(crate) fn new(dt: DataType, cap: usize) -> Self {
        let values = match dt {
            DataType::Int => Payload::Int(Vec::with_capacity(cap)),
            DataType::Float => Payload::Float(Vec::with_capacity(cap)),
            DataType::Date => Payload::Date(Vec::with_capacity(cap)),
            DataType::Str => Payload::Str(Vec::with_capacity(cap)),
            DataType::Bool => Payload::Bool(Vec::with_capacity(cap)),
        };
        Self {
            dt,
            values,
            nulls: None,
            len: 0,
            dict: Arc::default(),
            codes: HashMap::new(),
        }
    }

    /// This builder continuing `col`'s dictionary when both are `Str`, so
    /// a code means the same string in both — which is what lets
    /// [`ColumnVec::extended`] copy codes from either side verbatim.
    pub(crate) fn continuing(mut self, col: &ColumnVec) -> Self {
        if let (Payload::Str(_), ColumnVec::Str { dict, .. }) = (&self.values, col) {
            self.codes = dict
                .iter()
                .enumerate()
                .map(|(code, s)| (Arc::clone(s), code as u32))
                .collect();
            self.dict = Arc::clone(dict);
        }
        self
    }

    /// Rows so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends one value: the column's type or NULL.
    ///
    /// # Panics
    ///
    /// Panics on a value of any other type, naming the column's type and
    /// the value.
    pub(crate) fn push(&mut self, v: &Value) {
        match (&mut self.values, v) {
            (Payload::Int(values), Value::Int(_) | Value::Null) => {
                values.push(if let Value::Int(x) = v { *x } else { 0 });
            }
            (Payload::Float(values), Value::Float(_) | Value::Null) => {
                values.push(if let Value::Float(x) = v { *x } else { 0.0 });
            }
            (Payload::Date(values), Value::Date(_) | Value::Null) => {
                values.push(if let Value::Date(x) = v { *x } else { 0 });
            }
            (Payload::Bool(values), Value::Bool(_) | Value::Null) => {
                values.push(matches!(v, Value::Bool(true)));
            }
            (Payload::Str(codes), Value::Str(_) | Value::Null) => {
                codes.push(match v {
                    Value::Str(s) => *self.codes.entry(Arc::clone(s)).or_insert_with(|| {
                        let dict = Arc::make_mut(&mut self.dict);
                        dict.push(Arc::clone(s));
                        (dict.len() - 1) as u32
                    }),
                    _ => 0,
                });
            }
            (_, v) => panic!("{} column cannot hold {v:?}", self.dt),
        }
        if v.is_null() {
            self.nulls
                .get_or_insert_with(|| NullMask::all_valid(self.len))
                .push(true);
        } else if let Some(mask) = &mut self.nulls {
            mask.push(false);
        }
        self.len += 1;
    }

    /// The finished column.  Its payload keeps the vector's allocation,
    /// spare capacity included.
    pub(crate) fn finish(self) -> ColumnVec {
        let nulls = self.nulls;
        match self.values {
            Payload::Int(v) => ColumnVec::Int {
                values: v.into(),
                nulls,
            },
            Payload::Float(v) => ColumnVec::Float {
                values: v.into(),
                nulls,
            },
            Payload::Date(v) => ColumnVec::Date {
                values: v.into(),
                nulls,
            },
            Payload::Str(v) => ColumnVec::Str {
                codes: v.into(),
                dict: self.dict,
                nulls,
            },
            Payload::Bool(v) => ColumnVec::Bool {
                values: v.into(),
                nulls,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_mask_bits() {
        let mut m = NullMask::all_valid(130);
        assert!(!m.any_null());
        assert_eq!(m.len(), 130);
        m.set_null(0);
        m.set_null(64);
        m.set_null(129);
        assert!(m.is_null(0) && m.is_null(64) && m.is_null(129));
        assert!(!m.is_null(1) && !m.is_null(63) && !m.is_null(128));
        assert!(m.any_null());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn null_mask_bounds() {
        NullMask::all_valid(8).set_null(8);
    }

    #[test]
    fn from_rows_typed_roundtrip() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(1.5), Value::str("a")],
            vec![Value::Null, Value::Float(2.5), Value::str("b")],
            vec![Value::Int(3), Value::Null, Value::str("a")],
        ];
        let ints = ColumnVec::from_rows(&rows, 0, DataType::Int);
        let floats = ColumnVec::from_rows(&rows, 1, DataType::Float);
        let strs = ColumnVec::from_rows(&rows, 2, DataType::Str);
        for (col, ord) in [(&ints, 0), (&floats, 1), (&strs, 2)] {
            assert_eq!(col.len(), 3);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(col.value(i), row[ord], "col {ord} row {i}");
                assert_eq!(col.is_null(i), row[ord].is_null());
            }
        }
        match strs {
            ColumnVec::Str { codes, dict, .. } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes, [0, 1, 0]);
            }
            other => panic!("expected Str column, got {other:?}"),
        }
    }

    #[test]
    fn from_rows_heterogeneous_falls_back_to_mixed() {
        // An off-type value is a programmer error, not a demotion: the
        // column keeps its declared type or the build stops.
        let rows = vec![vec![Value::Float(2.5)], vec![Value::Int(7)]];
        let err = std::panic::catch_unwind(|| ColumnVec::from_rows(&rows, 0, DataType::Float))
            .expect_err("an off-type value panics");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert_eq!(msg, "FLOAT column cannot hold Int(7)");
    }

    #[test]
    fn from_rows_all_null() {
        let rows = vec![vec![Value::Null], vec![Value::Null]];
        let col = ColumnVec::from_rows(&rows, 0, DataType::Str);
        assert!(col.is_null(0) && col.is_null(1));
        assert_eq!(col.value(1), Value::Null);
    }
}
