//! Vectorized predicate evaluation over typed columns.
//!
//! [`select`] evaluates a bound predicate against a set of
//! [`ColumnVec`]s — a table's stored columns, a batch's or a statistics
//! sample's, the same type every way — and returns the *selection
//! vector* of qualifying row ids (ascending), instead of materializing
//! filtered rows.  The common predicate shapes — conjunctions,
//! `column <op> constant` comparisons, `BETWEEN`, `LIKE`, `IN` — run as
//! tight per-column loops the compiler can unroll and auto-vectorize
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
                    let col = &cols[*ord];
                    let (lo, hi) = (lo.eval(&[]), hi.eval(&[]));
                    if lo.is_null() || hi.is_null() {
                        return Vec::new();
                    }
                    // BETWEEN is (v >= lo) AND (v <= hi) on non-NULL
                    // rows; compose the two typed comparisons.
                    if let Some(ge) = cmp_select(col, BinaryOp::Ge, &lo, cand) {
                        if let Some(out) =
                            cmp_select(col, BinaryOp::Le, &hi, &Candidates::List(&ge))
                        {
                            return out;
                        }
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
                    list.iter().any(|c| c == &v)
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
    Some(match (col, lit) {
        (ColumnVec::Int { values, nulls }, &Value::Int(b)) => {
            typed_select(values, nulls, cand, |v| ord_ok(op, v.cmp(&b)))
        }
        (ColumnVec::Int { values, nulls }, &Value::Float(b)) => {
            typed_select(values, nulls, cand, |v| {
                ord_ok(op, (v as f64).total_cmp(&b))
            })
        }
        (ColumnVec::Int { values, nulls }, &Value::Date(b)) => {
            typed_select(values, nulls, cand, |v| ord_ok(op, v.cmp(&(b as i64))))
        }
        (ColumnVec::Float { values, nulls }, &Value::Float(b)) => {
            typed_select(values, nulls, cand, |v| ord_ok(op, v.total_cmp(&b)))
        }
        (ColumnVec::Float { values, nulls }, &Value::Int(b)) => {
            typed_select(values, nulls, cand, |v| {
                ord_ok(op, v.total_cmp(&(b as f64)))
            })
        }
        (ColumnVec::Date { values, nulls }, &Value::Date(b)) => {
            typed_select(values, nulls, cand, |v| ord_ok(op, v.cmp(&b)))
        }
        (ColumnVec::Date { values, nulls }, &Value::Int(b)) => {
            typed_select(values, nulls, cand, |v| ord_ok(op, (v as i64).cmp(&b)))
        }
        (ColumnVec::Bool { values, nulls }, &Value::Bool(b)) => {
            typed_select(values, nulls, cand, |v| ord_ok(op, v.cmp(&b)))
        }
        (ColumnVec::Str { codes, dict, nulls }, Value::Str(s)) => {
            str_select(codes, dict, nulls, cand, |d| ord_ok(op, d.cmp(s.as_ref())))
        }
        _ => return None,
    })
}

/// The candidates whose non-NULL value passes `test`.  The payload comes
/// in as a plain slice, so the loop indexes memory the compiler can see
/// does not change under it.
fn typed_select<T: Copy>(
    values: &[T],
    nulls: &Option<NullMask>,
    cand: &Candidates<'_>,
    test: impl Fn(T) -> bool,
) -> Vec<u32> {
    select_where(cand, |i| !null_at(nulls, i) && test(values[i]))
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
    if dict.len() <= candidates {
        let pass: Vec<bool> = dict.iter().map(|d| test(d)).collect();
        select_where(cand, |i| !null_at(nulls, i) && pass[codes[i] as usize])
    } else {
        select_where(cand, |i| {
            !null_at(nulls, i) && test(&dict[codes[i] as usize])
        })
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
fn select_where(cand: &Candidates<'_>, mut keep: impl FnMut(usize) -> bool) -> Vec<u32> {
    let mut out = Vec::new();
    match cand {
        Candidates::Range(r) => {
            for i in r.clone() {
                if keep(i) {
                    out.push(i as u32);
                }
            }
        }
        Candidates::List(ids) => {
            for &i in *ids {
                if keep(i as usize) {
                    out.push(i);
                }
            }
        }
    }
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

fn null_at(nulls: &Option<NullMask>, i: usize) -> bool {
    nulls.as_ref().is_some_and(|m| m.is_null(i))
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
        let schema = schema();
        let rows = rows();
        let bound = pred.bind(&schema).unwrap();
        let cols: Vec<Arc<ColumnVec>> = (0..schema.len())
            .map(|i| Arc::new(ColumnVec::from_rows(&rows, i, schema.column(i).data_type)))
            .collect();
        let got = select(&bound, &cols, Candidates::Range(0..rows.len()));
        let want: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| eval_bool(&bound, r))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want, "selection mismatch for {bound:?}");
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
