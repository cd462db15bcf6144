//! Vectorized predicate evaluation over typed columns.
//!
//! [`select`] evaluates a bound predicate against a set of
//! [`ColumnVec`]s — a table's stored columns, a batch's or a statistics
//! sample's, the same type every way — and returns the *selection
//! vector* of qualifying row ids (ascending), instead of materializing
//! filtered rows.  The common predicate shapes — conjunctions,
//! `column <op> constant` comparisons, `BETWEEN`, `LIKE`, `IN` — run as
//! tight per-column loops the compiler can unroll and auto-vectorize: a
//! numeric comparison or `BETWEEN` tests one interval of `i64` keys that
//! order as `Value::total_cmp` does, and every loop writes each candidate
//! and advances its cursor by the verdict instead of branching on it
//! (string tests run once per dictionary entry or once per candidate,
//! whichever is fewer); every other shape falls back to row-at-a-time
//! [`eval_bool`] over values materialized from the columns, so the result
//! is *always* identical (including panics on type errors) to filtering
//! with the row evaluator.
//!
//! Equivalence invariants (pinned by `crates/exec/tests/kernel_oracle.rs`):
//!
//! - a row id survives iff `eval_bool(expr, row)` is true for that row
//!   (SQL semantics: NULL comparisons are "unknown", which `WHERE`
//!   treats as false);
//! - ids come out in candidate order, so downstream row materialization
//!   is order-identical to the row-at-a-time path;
//! - conjunctions short-circuit left-to-right: the right conjunct is
//!   only evaluated on the left conjunct's survivors, exactly like the
//!   row evaluator's lazy `AND`.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use rqo_storage::{ColumnVec, NullMask, Value};

use crate::eval::eval_bool;
use crate::like::like_match;
use crate::tree::{BinaryOp, Expr};

/// The candidate row ids a kernel evaluates a predicate over: either a
/// dense morsel range or a prior selection vector.
#[derive(Debug, Clone)]
pub enum Candidates<'a> {
    /// Every row id in the range.
    Range(Range<usize>),
    /// An ascending list of row ids (a prior selection vector).
    List(&'a [u32]),
}

/// Evaluates `expr` over `cols` and returns the selection vector of
/// candidate ids for which the predicate is true.
///
/// `cols` is indexed by column ordinal (full batch arity).
///
/// # Panics
///
/// Panics exactly where the row evaluator would: unbound `Col` nodes,
/// type errors (`LIKE` on an integer, comparisons between incomparable
/// types), out-of-range ordinals.
pub fn select(expr: &Expr, cols: &[Arc<ColumnVec>], cand: Candidates<'_>) -> Vec<u32> {
    select_inner(expr, cols, &cand)
}

fn select_inner(expr: &Expr, cols: &[Arc<ColumnVec>], cand: &Candidates<'_>) -> Vec<u32> {
    match expr {
        // AND short-circuits left-to-right: evaluate the right conjunct
        // only on the left conjunct's survivors.  Identical to the row
        // evaluator's Kleene AND under WHERE semantics: a row passes iff
        // both sides evaluate to true.
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let lhs = select_inner(left, cols, cand);
            select_inner(right, cols, &Candidates::List(&lhs))
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            // Normalize to `column <op> constant` (flipping the operator
            // when the column is on the right), then dispatch to a typed
            // loop mirroring Value::total_cmp's coercion table.
            let normalized = match (left.as_ref(), right.as_ref()) {
                (Expr::ColIdx(i, _), rhs) if column_free(rhs) => Some((*i, *op, rhs)),
                (lhs, Expr::ColIdx(i, _)) if column_free(lhs) => Some((*i, op.flip(), lhs)),
                _ => None,
            };
            if let Some((ord, op, lit_expr)) = normalized {
                let lit = lit_expr.eval(&[]);
                if lit.is_null() {
                    // NULL comparand: the comparison is NULL for
                    // every row, which WHERE treats as false.
                    return Vec::new();
                }
                if let Some(out) = cmp_select(&cols[ord], op, &lit, cand) {
                    return out;
                }
            }
            select_fallback(expr, cols, cand)
        }
        Expr::Between { expr: v, lo, hi } => {
            if let Expr::ColIdx(ord, _) = v.as_ref() {
                if column_free(lo) && column_free(hi) {
                    let (lo, hi) = (lo.eval(&[]), hi.eval(&[]));
                    if lo.is_null() || hi.is_null() {
                        return Vec::new();
                    }
                    if let Some(out) = between_select(&cols[*ord], &lo, &hi, cand) {
                        return out;
                    }
                }
            }
            select_fallback(expr, cols, cand)
        }
        Expr::Like { expr: v, pattern } => {
            if let Expr::ColIdx(ord, _) = v.as_ref() {
                if let ColumnVec::Str { codes, dict, nulls } = &*cols[*ord] {
                    return str_select(codes, dict, nulls, cand, |s| like_match(pattern, s));
                }
            }
            select_fallback(expr, cols, cand)
        }
        Expr::InList { expr: v, list } => {
            if let Expr::ColIdx(ord, _) = v.as_ref() {
                let col = &cols[*ord];
                return select_where(cand, |i| {
                    if col.is_null(i) {
                        return false; // NULL IN (...) is unknown
                    }
                    let v = col.value(i);
                    list.iter().any(|c| c.total_cmp(&v).is_eq())
                });
            }
            select_fallback(expr, cols, cand)
        }
        _ => select_fallback(expr, cols, cand),
    }
}

/// Typed comparison loop: `column <op> lit` over the candidates, with
/// the column as the *left* operand.  Returns `None` for type pairings
/// outside `Value::total_cmp`'s coercion table so the caller falls back
/// to the row evaluator (which panics on them, as documented).
fn cmp_select(
    col: &ColumnVec,
    op: BinaryOp,
    lit: &Value,
    cand: &Candidates<'_>,
) -> Option<Vec<u32>> {
    if let (ColumnVec::Str { codes, dict, nulls }, Value::Str(s)) = (col, lit) {
        let test = |d: &str| ord_ok(op, d.cmp(s.as_ref()));
        return Some(str_select(codes, dict, nulls, cand, test));
    }
    let (pairing, k) = lit_key(col, lit)?;
    Some(match KeyInterval::of(op, k) {
        Some(interval) => key_select(col, pairing, interval, cand),
        None => Vec::new(),
    })
}

/// `column BETWEEN lo AND hi` (non-NULL bounds) as one typed loop: the
/// intersection of `>= lo` and `<= hi`.  Returns `None`, for the row
/// evaluator, when either bound is outside the coercion table or the two
/// bounds key the column differently (an `Int` column between an `Int`
/// and a `Float`).
fn between_select(
    col: &ColumnVec,
    lo: &Value,
    hi: &Value,
    cand: &Candidates<'_>,
) -> Option<Vec<u32>> {
    if let (ColumnVec::Str { codes, dict, nulls }, Value::Str(lo), Value::Str(hi)) = (col, lo, hi) {
        let test = |d: &str| lo.as_ref() <= d && d <= hi.as_ref();
        return Some(str_select(codes, dict, nulls, cand, test));
    }
    let ((lo_pairing, lo), (hi_pairing, hi)) = (lit_key(col, lo)?, lit_key(col, hi)?);
    let interval = KeyInterval {
        lo,
        hi,
        inside: true,
    };
    (lo_pairing == hi_pairing).then(|| key_select(col, lo_pairing, interval, cand))
}

/// How a numeric row value becomes the `i64` key its comparison with a
/// literal orders by — keys compare exactly as `Value::total_cmp` compares
/// the values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pairing {
    /// `Int`, `Date` and `Bool` against a literal compared by value: the
    /// value itself.
    Exact,
    /// Compared as `f64` (a `Float` on either side): `total_cmp`'s own
    /// bit key of the value as `f64`.
    Float,
}

/// The pairing and the key of `lit` against `col`, or `None` outside the
/// coercion table (and for `Str`, which [`str_select`] serves).
fn lit_key(col: &ColumnVec, lit: &Value) -> Option<(Pairing, i64)> {
    Some(match (col, lit) {
        (ColumnVec::Int { .. }, &Value::Int(b)) => (Pairing::Exact, b),
        (ColumnVec::Int { .. }, &Value::Date(b)) => (Pairing::Exact, b as i64),
        (ColumnVec::Int { .. }, &Value::Float(b)) => (Pairing::Float, float_key(b)),
        (ColumnVec::Float { .. }, &Value::Float(b)) => (Pairing::Float, float_key(b)),
        (ColumnVec::Float { .. }, &Value::Int(b)) => (Pairing::Float, float_key(b as f64)),
        (ColumnVec::Date { .. }, &Value::Date(b)) => (Pairing::Exact, b as i64),
        (ColumnVec::Date { .. }, &Value::Int(b)) => (Pairing::Exact, b),
        (ColumnVec::Bool { .. }, &Value::Bool(b)) => (Pairing::Exact, i64::from(b)),
        _ => return None,
    })
}

/// The key `f64::total_cmp` orders by: the bits as a signed integer, with
/// the magnitude bits flipped for negative values.
fn float_key(f: f64) -> i64 {
    let bits = f.to_bits() as i64;
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

/// A closed interval of keys, or — `inside == false` — its complement.
#[derive(Debug, Clone, Copy)]
struct KeyInterval {
    lo: i64,
    hi: i64,
    inside: bool,
}

impl KeyInterval {
    /// The keys `key <op> k` admits; `None` when there are none (`< MIN`,
    /// `> MAX`).
    fn of(op: BinaryOp, k: i64) -> Option<Self> {
        let (lo, hi, inside) = match op {
            BinaryOp::Eq => (k, k, true),
            BinaryOp::Ne => (k, k, false),
            BinaryOp::Lt => (i64::MIN, k.checked_sub(1)?, true),
            BinaryOp::Le => (i64::MIN, k, true),
            BinaryOp::Gt => (k.checked_add(1)?, i64::MAX, true),
            BinaryOp::Ge => (k, i64::MAX, true),
            other => panic!("key interval of non-comparison {other:?}"),
        };
        Some(Self { lo, hi, inside })
    }

    #[inline]
    fn holds(self, key: i64) -> bool {
        ((self.lo <= key) & (key <= self.hi)) == self.inside
    }
}

/// The candidates whose non-NULL key lies in `interval`: one typed loop
/// per column type and pairing, with no per-row branch.
fn key_select(
    col: &ColumnVec,
    pairing: Pairing,
    interval: KeyInterval,
    cand: &Candidates<'_>,
) -> Vec<u32> {
    match (col, pairing) {
        (ColumnVec::Int { values, nulls }, Pairing::Exact) => {
            typed_select(values, nulls, cand, |v| interval.holds(v))
        }
        (ColumnVec::Int { values, nulls }, Pairing::Float) => {
            typed_select(values, nulls, cand, |v| interval.holds(float_key(v as f64)))
        }
        (ColumnVec::Float { values, nulls }, Pairing::Float) => {
            typed_select(values, nulls, cand, |v| interval.holds(float_key(v)))
        }
        (ColumnVec::Date { values, nulls }, Pairing::Exact) => {
            typed_select(values, nulls, cand, |v| interval.holds(v as i64))
        }
        (ColumnVec::Bool { values, nulls }, Pairing::Exact) => {
            typed_select(values, nulls, cand, |v| interval.holds(i64::from(v)))
        }
        _ => unreachable!("lit_key pairs no {pairing:?} key with this column"),
    }
}

/// The candidates whose non-NULL value passes `test`.  The payload comes
/// in as a plain slice, so the loop indexes memory the compiler can see
/// does not change under it; the null mask is matched once, outside the
/// loop, and a NULL slot's arbitrary payload is tested and discarded.
fn typed_select<T: Copy>(
    values: &[T],
    nulls: &Option<NullMask>,
    cand: &Candidates<'_>,
    test: impl Fn(T) -> bool,
) -> Vec<u32> {
    match nulls {
        None => select_where(cand, |i| test(values[i])),
        Some(m) => select_where(cand, |i| !m.is_null(i) & test(values[i])),
    }
}

/// A string test over a dictionary-encoded column: `test` runs once per
/// dictionary entry and the row loop is a table lookup — unless the
/// dictionary outnumbers the candidates (a gathered sample or a morsel
/// shares its base table's whole dictionary), where it runs once per
/// candidate instead.  Either way at most `min(|dict|, |cand|)` calls.
fn str_select(
    codes: &[u32],
    dict: &[Arc<str>],
    nulls: &Option<NullMask>,
    cand: &Candidates<'_>,
    test: impl Fn(&str) -> bool,
) -> Vec<u32> {
    let candidates = match cand {
        Candidates::Range(r) => r.len(),
        Candidates::List(ids) => ids.len(),
    };
    // A NULL slot holds code 0, which an all-NULL column's empty
    // dictionary cannot index: the NULL test goes first.
    let valid = |i: usize| nulls.as_ref().is_none_or(|m| !m.is_null(i));
    if dict.len() <= candidates {
        let pass: Vec<bool> = dict.iter().map(|d| test(d)).collect();
        select_where(cand, |i| valid(i) && pass[codes[i] as usize])
    } else {
        select_where(cand, |i| valid(i) && test(&dict[codes[i] as usize]))
    }
}

/// Row-at-a-time fallback for predicate shapes without a typed kernel:
/// materializes the referenced columns into a scratch row and runs the
/// ordinary evaluator, so semantics (including panics) match exactly.
fn select_fallback(expr: &Expr, cols: &[Arc<ColumnVec>], cand: &Candidates<'_>) -> Vec<u32> {
    let mut ords = Vec::new();
    referenced_ordinals(expr, &mut ords);
    let mut row: Vec<Value> = vec![Value::Null; cols.len()];
    select_where(cand, |i| {
        for &ord in &ords {
            row[ord] = cols[ord].value(i);
        }
        eval_bool(expr, &row)
    })
}

/// Runs `keep` over the candidates in order, collecting passing ids.
fn select_where(cand: &Candidates<'_>, keep: impl FnMut(usize) -> bool) -> Vec<u32> {
    match cand {
        Candidates::Range(r) => compact(r.start as u32..r.end as u32, keep),
        Candidates::List(ids) => compact(ids.iter().copied(), keep),
    }
}

/// Writes every candidate id and advances the cursor by `keep`'s
/// verdict, so the loop decides with data, not a branch.
fn compact(
    ids: impl ExactSizeIterator<Item = u32>,
    mut keep: impl FnMut(usize) -> bool,
) -> Vec<u32> {
    let mut out = vec![0u32; ids.len()];
    let mut n = 0;
    for i in ids {
        out[n] = i;
        n += usize::from(keep(i as usize));
    }
    out.truncate(n);
    out
}

/// Mirrors the row evaluator's ordering-to-boolean mapping exactly.
fn ord_ok(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::Ne => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::Le => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::Ge => ord != Ordering::Less,
        other => panic!("ord_ok on non-comparison {other:?}"),
    }
}

/// True when the expression references no columns (safe to evaluate
/// against an empty row).
fn column_free(e: &Expr) -> bool {
    match e {
        Expr::Col(_) | Expr::ColIdx(..) => false,
        Expr::Lit(_) => true,
        Expr::Binary { left, right, .. } => column_free(left) && column_free(right),
        Expr::Unary { expr, .. } => column_free(expr),
        Expr::Between { expr, lo, hi } => column_free(expr) && column_free(lo) && column_free(hi),
        Expr::Like { expr, .. } | Expr::InList { expr, .. } => column_free(expr),
    }
}

/// The bound column ordinals `e` reads (unbound `Col` nodes are left for
/// the evaluator to reject with its own message).
fn referenced_ordinals(e: &Expr, out: &mut Vec<usize>) {
    match e {
        Expr::ColIdx(i, _) if !out.contains(i) => out.push(*i),
        Expr::ColIdx(..) | Expr::Col(_) | Expr::Lit(_) => {}
        Expr::Binary { left, right, .. } => {
            referenced_ordinals(left, out);
            referenced_ordinals(right, out);
        }
        Expr::Between { expr, lo, hi } => {
            referenced_ordinals(expr, out);
            referenced_ordinals(lo, out);
            referenced_ordinals(hi, out);
        }
        Expr::Unary { expr, .. } | Expr::Like { expr, .. } | Expr::InList { expr, .. } => {
            referenced_ordinals(expr, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::{parse_date, DataType, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("s", DataType::Str),
            ("d", DataType::Date),
        ])
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Int(1),
                Value::Float(0.5),
                Value::str("apple"),
                parse_date("1997-07-01"),
            ],
            vec![
                Value::Null,
                Value::Float(1.5),
                Value::str("banana"),
                parse_date("1997-08-01"),
            ],
            vec![
                Value::Int(3),
                Value::Null,
                Value::str("apricot"),
                parse_date("1997-09-01"),
            ],
            vec![
                Value::Int(4),
                Value::Float(3.5),
                Value::str("apple"),
                parse_date("1997-10-01"),
            ],
        ]
    }

    fn check(pred: Expr) {
        check_on(&schema(), &rows(), pred);
    }

    /// `select` over `rows` equals the row evaluator's filter, and returns
    /// what it selected.
    fn check_on(schema: &Schema, rows: &[Vec<Value>], pred: Expr) -> Vec<u32> {
        let bound = pred.bind(schema).unwrap();
        let cols: Vec<Arc<ColumnVec>> = (0..schema.len())
            .map(|i| Arc::new(ColumnVec::from_rows(rows, i, schema.column(i).data_type)))
            .collect();
        let got = select(&bound, &cols, Candidates::Range(0..rows.len()));
        let want: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| eval_bool(&bound, r))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want, "selection mismatch for {bound:?}");
        got
    }

    #[test]
    fn typed_comparisons_match_row_eval() {
        check(Expr::col("a").ge(Expr::lit(3i64)));
        check(Expr::col("a").lt(Expr::lit(4i64)));
        check(Expr::lit(2i64).le(Expr::col("a"))); // flipped operand order
        check(Expr::col("a").gt(Expr::lit(1.5))); // Int column vs Float lit
        check(Expr::col("b").le(Expr::lit(2i64))); // Float column vs Int lit
        check(Expr::col("b").ne(Expr::lit(1.5)));
        check(Expr::col("s").eq(Expr::lit(Value::str("apple"))));
        check(Expr::col("s").gt(Expr::lit(Value::str("apq"))));
        check(Expr::col("d").ge(Expr::lit(parse_date("1997-08-01"))));
    }

    #[test]
    fn compound_shapes_match_row_eval() {
        check(
            Expr::col("a")
                .ge(Expr::lit(1i64))
                .and(Expr::col("b").lt(Expr::lit(2.0))),
        );
        check(Expr::col("a").between(Expr::lit(1i64), Expr::lit(3i64)));
        check(Expr::col("d").between(
            Expr::lit(parse_date("1997-07-01")).add(Expr::lit(10i64)),
            Expr::lit(parse_date("1997-09-30")),
        ));
        check(Expr::col("s").like("ap%"));
        check(Expr::col("s").like("%an%"));
        check(Expr::col("a").in_list(vec![Value::Int(1), Value::Int(4)]));
        // Fallback shapes: OR, NOT, IS NULL.
        check(
            Expr::col("a")
                .eq(Expr::lit(1i64))
                .or(Expr::col("s").eq(Expr::lit(Value::str("banana")))),
        );
        check(Expr::col("a").is_null());
        check(Expr::col("a").eq(Expr::lit(1i64)).not());
        // NULL comparand: empty selection (WHERE semantics).
        check(Expr::col("a").eq(Expr::lit(Value::Null)));
        check(Expr::col("a").between(Expr::lit(Value::Null), Expr::lit(3i64)));
    }

    /// A near-unique `Str` column under few candidates — a morsel, or a
    /// sample that shares its base table's dictionary — must cost one
    /// test per candidate, not one per dictionary entry; a small
    /// dictionary under many candidates the other way round.
    #[test]
    fn string_kernels_test_the_smaller_of_dictionary_and_candidates() {
        use std::cell::Cell;
        let rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| vec![Value::str(format!("name-{i:04}").as_str())])
            .collect();
        let ColumnVec::Str { codes, dict, nulls } = ColumnVec::from_rows(&rows, 0, DataType::Str)
        else {
            panic!("expected a Str column")
        };
        let calls = Cell::new(0usize);
        let ends_in_7 = |s: &str| {
            calls.set(calls.get() + 1);
            s.ends_with('7')
        };
        let want = |ids: &mut dyn Iterator<Item = u32>| -> Vec<u32> {
            ids.filter(|i| i % 10 == 7).collect()
        };

        let few = [3u32, 7, 500, 997];
        let got = str_select(&codes, &dict, &nulls, &Candidates::List(&few), ends_in_7);
        assert_eq!(got, want(&mut few.iter().copied()));
        assert_eq!(calls.replace(0), few.len(), "one test per candidate");

        let got = str_select(&codes, &dict, &nulls, &Candidates::Range(40..60), ends_in_7);
        assert_eq!(got, want(&mut (40..60)));
        assert_eq!(calls.replace(0), 20, "one test per morsel row");

        // 25 distinct values over 1000 rows: one test per entry.
        let brands: Vec<Vec<Value>> = (0..1000)
            .map(|i| vec![Value::str(format!("Brand#{}", i % 25).as_str())])
            .collect();
        let ColumnVec::Str { codes, dict, nulls } = ColumnVec::from_rows(&brands, 0, DataType::Str)
        else {
            panic!("expected a Str column")
        };
        let got = str_select(
            &codes,
            &dict,
            &nulls,
            &Candidates::Range(0..1000),
            ends_in_7,
        );
        assert_eq!(got.len(), 80, "Brand#7 and Brand#17");
        assert_eq!(calls.get(), 25, "one test per dictionary entry");
    }

    /// NULL `Str` slots hold code 0, which an all-NULL column's empty
    /// dictionary cannot index: every string kernel selects nothing.
    #[test]
    fn all_null_strings_select_nothing() {
        let schema = Schema::from_pairs(&[("s", DataType::Str)]);
        let rows = vec![vec![Value::Null]; 70];
        let ColumnVec::Str { dict, .. } = ColumnVec::from_rows(&rows, 0, DataType::Str) else {
            panic!("expected a Str column")
        };
        assert!(dict.is_empty());
        let s = || Expr::col("s");
        let lit = |v: &str| Expr::lit(Value::str(v));
        for pred in [
            s().eq(lit("apple")),
            s().lt(lit("zzz")),
            s().between(lit(""), lit("zzz")),
            s().like("%"),
        ] {
            assert!(check_on(&schema, &rows, pred).is_empty());
        }
    }

    /// A comparison no key can pass (`< i64::MIN`, `> i64::MAX`) selects
    /// nothing; the ones at the other end select every non-NULL row.
    #[test]
    fn comparisons_past_the_key_range_select_nothing() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let rows: Vec<Vec<Value>> = [i64::MIN, -1, 0, i64::MAX]
            .into_iter()
            .map(|v| vec![Value::Int(v)])
            .chain([vec![Value::Null]])
            .collect();
        let a = || Expr::col("a");
        assert!(check_on(&schema, &rows, a().lt(Expr::lit(i64::MIN))).is_empty());
        assert!(check_on(&schema, &rows, a().gt(Expr::lit(i64::MAX))).is_empty());
        assert_eq!(
            check_on(&schema, &rows, a().ge(Expr::lit(i64::MIN))).len(),
            4
        );
        assert_eq!(
            check_on(&schema, &rows, a().le(Expr::lit(i64::MAX))).len(),
            4
        );
        assert_eq!(
            check_on(&schema, &rows, a().ne(Expr::lit(0i64))),
            vec![0, 1, 3]
        );
    }

    /// BETWEEN keys a `Date` column past its NULLs, a `Float` column by
    /// `total_cmp` (so -0.0 sorts below 0.0, and NaN above everything), and
    /// an `Int` column against `Float` bounds as `f64`; bounds of two
    /// pairings take the row evaluator.
    #[test]
    fn between_is_one_key_interval() {
        let schema = Schema::from_pairs(&[
            ("d", DataType::Date),
            ("f", DataType::Float),
            ("a", DataType::Int),
        ]);
        let days = [
            "1997-07-01",
            "",
            "1997-08-15",
            "1997-09-01",
            "",
            "1998-01-01",
        ];
        let floats = [-1.5, -0.0, 0.0, f64::NAN, 2.5, f64::NEG_INFINITY];
        let rows: Vec<Vec<Value>> = days
            .iter()
            .zip(floats)
            .enumerate()
            .map(|(i, (&day, f))| {
                let d = if day.is_empty() {
                    Value::Null
                } else {
                    parse_date(day)
                };
                vec![d, Value::Float(f), Value::Int(i as i64 - 2)]
            })
            .collect();
        let d = Expr::col("d").between(
            Expr::lit(parse_date("1997-08-01")),
            Expr::lit(parse_date("1997-12-31")),
        );
        assert_eq!(check_on(&schema, &rows, d), vec![2, 3]);
        let f = |lo: f64, hi: f64| Expr::col("f").between(Expr::lit(lo), Expr::lit(hi));
        assert_eq!(check_on(&schema, &rows, f(-0.0, 0.0)), vec![1, 2]);
        assert_eq!(check_on(&schema, &rows, f(0.0, 0.0)), vec![2]);
        assert_eq!(check_on(&schema, &rows, f(-0.0, -0.0)), vec![1]);
        assert_eq!(check_on(&schema, &rows, f(0.0, f64::NAN)), vec![2, 3, 4]);
        assert_eq!(
            check_on(&schema, &rows, f(f64::NEG_INFINITY, -0.0)),
            vec![0, 1, 5]
        );
        check_on(&schema, &rows, Expr::col("f").ne(Expr::lit(-0.0)));
        check_on(&schema, &rows, Expr::col("f").lt(Expr::lit(0i64)));
        let a = Expr::col("a").between(Expr::lit(-1.5), Expr::lit(1.0));
        assert_eq!(check_on(&schema, &rows, a), vec![1, 2, 3]);
        let mixed = Expr::col("a").between(Expr::lit(-1i64), Expr::lit(1.5));
        assert_eq!(check_on(&schema, &rows, mixed), vec![1, 2, 3]);
    }

    #[test]
    fn list_candidates_restrict_and_preserve_order() {
        let schema = schema();
        let rows = rows();
        let bound = Expr::col("a").ge(Expr::lit(1i64)).bind(&schema).unwrap();
        let cols: Vec<Arc<ColumnVec>> = (0..schema.len())
            .map(|i| Arc::new(ColumnVec::from_rows(&rows, i, schema.column(i).data_type)))
            .collect();
        let cand = [0u32, 3u32];
        let got = select(&bound, &cols, Candidates::List(&cand));
        assert_eq!(got, vec![0, 3]);
    }
}
