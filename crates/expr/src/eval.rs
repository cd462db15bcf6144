//! Expression evaluation with SQL three-valued logic.

use rqo_storage::Value;

use crate::like::like_match;
use crate::tree::{BinaryOp, Expr, UnaryOp};

impl Expr {
    /// Evaluates the expression against a row.
    ///
    /// The expression must have been [bound](Expr::bind) first: `Col` nodes
    /// panic here so that an unbound expression fails loudly the first time
    /// it is used rather than silently producing wrong answers.
    ///
    /// NULL semantics follow SQL: comparisons and arithmetic involving NULL
    /// yield NULL; `AND`/`OR`/`NOT` use Kleene logic; `IS NULL` never
    /// returns NULL.  Division by zero, integer arithmetic whose result is
    /// outside `i64` and a date shifted off the `i32` calendar are NULL.
    ///
    /// # Panics
    ///
    /// Panics on unbound column references, on type errors (e.g. `LIKE` on
    /// an integer), and on out-of-range column ordinals — all of which are
    /// planner bugs, not data-dependent conditions.
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            Expr::Col(name) => panic!("evaluating unbound column {name:?}; call bind() first"),
            Expr::ColIdx(i, _) => row[*i].clone(),
            Expr::Lit(v) => v.clone(),
            Expr::Binary { op, left, right } => {
                eval_binary(*op, left.eval(row), || right.eval(row))
            }
            Expr::Unary { op, expr } => {
                let v = expr.eval(row);
                match op {
                    UnaryOp::IsNull => Value::Bool(v.is_null()),
                    UnaryOp::Not => match v {
                        Value::Null => Value::Null,
                        Value::Bool(b) => Value::Bool(!b),
                        other => panic!("NOT on non-boolean {other:?}"),
                    },
                    UnaryOp::Neg => match v {
                        Value::Null => Value::Null,
                        Value::Int(x) => x.checked_neg().map_or(Value::Null, Value::Int),
                        Value::Float(x) => Value::Float(-x),
                        other => panic!("negation of non-numeric {other:?}"),
                    },
                }
            }
            Expr::Between { expr, lo, hi } => {
                let v = expr.eval(row);
                if v.is_null() {
                    return Value::Null;
                }
                let lo = lo.eval(row);
                let hi = hi.eval(row);
                if lo.is_null() || hi.is_null() {
                    return Value::Null;
                }
                Value::Bool(
                    v.total_cmp(&lo) != std::cmp::Ordering::Less
                        && v.total_cmp(&hi) != std::cmp::Ordering::Greater,
                )
            }
            Expr::Like { expr, pattern } => {
                let v = expr.eval(row);
                match v {
                    Value::Null => Value::Null,
                    Value::Str(s) => Value::Bool(like_match(pattern, &s)),
                    other => panic!("LIKE on non-string {other:?}"),
                }
            }
            Expr::InList { expr, list } => {
                let v = expr.eval(row);
                if v.is_null() {
                    return Value::Null;
                }
                // `total_cmp`, not `==`: an incomparable element panics,
                // as every other comparison of the evaluator does.
                Value::Bool(list.iter().any(|c| c.total_cmp(&v).is_eq()))
            }
        }
    }
}

fn eval_binary(op: BinaryOp, left: Value, right: impl FnOnce() -> Value) -> Value {
    use BinaryOp::*;
    match op {
        And => match left {
            Value::Bool(false) => Value::Bool(false),
            Value::Bool(true) => match right() {
                Value::Bool(b) => Value::Bool(b),
                Value::Null => Value::Null,
                other => panic!("AND on non-boolean {other:?}"),
            },
            Value::Null => match right() {
                Value::Bool(false) => Value::Bool(false),
                Value::Bool(true) | Value::Null => Value::Null,
                other => panic!("AND on non-boolean {other:?}"),
            },
            other => panic!("AND on non-boolean {other:?}"),
        },
        Or => match left {
            Value::Bool(true) => Value::Bool(true),
            Value::Bool(false) => match right() {
                Value::Bool(b) => Value::Bool(b),
                Value::Null => Value::Null,
                other => panic!("OR on non-boolean {other:?}"),
            },
            Value::Null => match right() {
                Value::Bool(true) => Value::Bool(true),
                Value::Bool(false) | Value::Null => Value::Null,
                other => panic!("OR on non-boolean {other:?}"),
            },
            other => panic!("OR on non-boolean {other:?}"),
        },
        Eq | Ne | Lt | Le | Gt | Ge => {
            let right = right();
            if left.is_null() || right.is_null() {
                return Value::Null;
            }
            let ord = left.total_cmp(&right);
            use std::cmp::Ordering::*;
            let b = match op {
                Eq => ord == Equal,
                Ne => ord != Equal,
                Lt => ord == Less,
                Le => ord != Greater,
                Gt => ord == Greater,
                Ge => ord != Less,
                _ => unreachable!(),
            };
            Value::Bool(b)
        }
        Add | Sub | Mul | Div => {
            let right = right();
            if left.is_null() || right.is_null() {
                return Value::Null;
            }
            // Integer arithmetic when both sides are Int/Date; float
            // otherwise.  Date + Int yields Date (day arithmetic), matching
            // the paper's template `'07/01/97' + ?`.  Integer arithmetic is
            // checked: a result outside `i64` (or a date off the `i32`
            // calendar) is NULL, the answer division by zero gives —
            // operands arrive from the wire, so it must not panic or wrap.
            let int = |r: Option<i64>| r.map_or(Value::Null, Value::Int);
            let date = |r: Option<i32>| r.map_or(Value::Null, Value::Date);
            match (&left, &right) {
                // Date ± days and days + Date are meaningful; `Int − Date`
                // is not (what would "5 minus July 1st" be?) and panics
                // rather than silently producing a bogus date.
                (Value::Date(d), Value::Int(n)) => {
                    let n = i32::try_from(*n).ok();
                    date(match op {
                        Add => n.and_then(|n| d.checked_add(n)),
                        Sub => n.and_then(|n| d.checked_sub(n)),
                        _ => panic!("unsupported date arithmetic {op}"),
                    })
                }
                (Value::Int(n), Value::Date(d)) => match op {
                    Add => date(i32::try_from(*n).ok().and_then(|n| d.checked_add(n))),
                    _ => panic!("unsupported arithmetic Int {op} Date"),
                },
                (Value::Date(a), Value::Date(b)) if op == Sub => {
                    Value::Int(i64::from(*a) - i64::from(*b))
                }
                (Value::Int(a), Value::Int(b)) => int(match op {
                    Add => a.checked_add(*b),
                    Sub => a.checked_sub(*b),
                    Mul => a.checked_mul(*b),
                    // `None` for a zero divisor and for `i64::MIN / -1`.
                    Div => a.checked_div(*b),
                    _ => unreachable!(),
                }),
                _ => {
                    let a = left.as_f64();
                    let b = right.as_f64();
                    let r = match op {
                        Add => a + b,
                        Sub => a - b,
                        Mul => a * b,
                        Div => {
                            if b == 0.0 {
                                return Value::Null;
                            }
                            a / b
                        }
                        _ => unreachable!(),
                    };
                    Value::Float(r)
                }
            }
        }
    }
}

/// Evaluates a predicate to a plain boolean: NULL (SQL "unknown") is
/// *false*, matching `WHERE`-clause semantics.
///
/// # Panics
///
/// Panics when the expression does not evaluate to a boolean or NULL.
pub fn eval_bool(expr: &Expr, row: &[Value]) -> bool {
    match expr.eval(row) {
        Value::Bool(b) => b,
        Value::Null => false,
        other => panic!("predicate evaluated to non-boolean {other:?}"),
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

    fn row() -> Vec<Value> {
        vec![
            Value::Int(5),
            Value::Float(2.5),
            Value::str("hello world"),
            parse_date("1997-07-15"),
        ]
    }

    fn eval(e: Expr) -> Value {
        e.bind(&schema()).unwrap().eval(&row())
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval(Expr::col("a").eq(Expr::lit(5i64))), Value::Bool(true));
        assert_eq!(eval(Expr::col("a").ne(Expr::lit(5i64))), Value::Bool(false));
        assert_eq!(eval(Expr::col("a").lt(Expr::lit(6i64))), Value::Bool(true));
        assert_eq!(eval(Expr::col("a").ge(Expr::lit(5i64))), Value::Bool(true));
        assert_eq!(eval(Expr::col("b").gt(Expr::lit(2.4))), Value::Bool(true));
        // Cross numeric comparison.
        assert_eq!(eval(Expr::col("a").gt(Expr::lit(4.5))), Value::Bool(true));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            eval(Expr::lit(Value::Null).eq(Expr::lit(1i64))),
            Value::Null
        );
        assert_eq!(
            eval(Expr::lit(Value::Null).add(Expr::lit(1i64))),
            Value::Null
        );
        assert_eq!(eval(Expr::lit(Value::Null).is_null()), Value::Bool(true));
        assert_eq!(eval(Expr::col("a").is_null()), Value::Bool(false));
        // BETWEEN with NULL operand.
        assert_eq!(
            eval(Expr::lit(Value::Null).between(Expr::lit(1i64), Expr::lit(2i64))),
            Value::Null
        );
    }

    #[test]
    fn kleene_logic() {
        let t = || Expr::lit(true);
        let f = || Expr::lit(false);
        let n = || Expr::lit(Value::Null);
        assert_eq!(eval(t().and(n())), Value::Null);
        assert_eq!(eval(f().and(n())), Value::Bool(false));
        assert_eq!(eval(n().and(f())), Value::Bool(false));
        assert_eq!(eval(t().or(n())), Value::Bool(true));
        assert_eq!(eval(n().or(t())), Value::Bool(true));
        assert_eq!(eval(f().or(n())), Value::Null);
        assert_eq!(eval(n().not()), Value::Null);
        assert_eq!(eval(t().not()), Value::Bool(false));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval(Expr::col("a").add(Expr::lit(3i64))), Value::Int(8));
        assert_eq!(eval(Expr::col("a").mul(Expr::lit(2i64))), Value::Int(10));
        assert_eq!(
            eval(Expr::col("b").mul(Expr::lit(4i64))),
            Value::Float(10.0)
        );
        assert_eq!(eval(Expr::col("a").div(Expr::lit(0i64))), Value::Null);
        assert_eq!(eval(Expr::col("b").div(Expr::lit(0.0))), Value::Null);
        // Out of `i64` is NULL too, never a panic or a wrapped value.
        assert_eq!(eval(Expr::lit(i64::MIN).div(Expr::lit(-1i64))), Value::Null);
        assert_eq!(eval(Expr::lit(i64::MAX).add(Expr::col("a"))), Value::Null);
        assert_eq!(eval(Expr::lit(i64::MIN).sub(Expr::col("a"))), Value::Null);
        assert_eq!(eval(Expr::lit(i64::MAX).mul(Expr::col("a"))), Value::Null);
        assert_eq!(
            eval(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(Expr::col("a"))
            }),
            Value::Int(-5)
        );
    }

    #[test]
    fn date_arithmetic_matches_paper_template() {
        // l_receiptdate BETWEEN '07/01/97' + 10 AND '09/30/97' + 10
        let pred = Expr::col("d").between(
            Expr::lit(parse_date("1997-07-01")).add(Expr::lit(10i64)),
            Expr::lit(parse_date("1997-09-30")).add(Expr::lit(10i64)),
        );
        assert_eq!(eval(pred), Value::Bool(true));
        let pred_out = Expr::col("d").between(
            Expr::lit(parse_date("1997-07-01")).add(Expr::lit(20i64)),
            Expr::lit(parse_date("1997-09-30")).add(Expr::lit(20i64)),
        );
        // 1997-07-15 < 1997-07-21, so out of range.
        assert_eq!(eval(pred_out), Value::Bool(false));
        // Date difference in days.
        assert_eq!(
            eval(Expr::col("d").sub(Expr::lit(parse_date("1997-07-01")))),
            Value::Int(14)
        );
        // A date off the `i32` calendar is NULL, not a truncated shift.
        let far = Expr::lit(1i64 << 32);
        assert_eq!(eval(Expr::col("d").add(far.clone())), Value::Null);
        assert_eq!(eval(Expr::col("d").sub(far)), Value::Null);
        // Date − Date is computed in `i64`: no `i32` pair can overflow it.
        assert_eq!(
            eval(Expr::lit(Value::Date(i32::MIN)).sub(Expr::lit(Value::Date(1)))),
            Value::Int(i64::from(i32::MIN) - 1)
        );
    }

    #[test]
    fn like_and_in() {
        assert_eq!(eval(Expr::col("s").like("hello%")), Value::Bool(true));
        assert_eq!(eval(Expr::col("s").like("%world")), Value::Bool(true));
        assert_eq!(eval(Expr::col("s").like("%lo w%")), Value::Bool(true));
        assert_eq!(eval(Expr::col("s").like("hello")), Value::Bool(false));
        assert_eq!(
            eval(Expr::col("a").in_list(vec![Value::Int(1), Value::Int(5)])),
            Value::Bool(true)
        );
        assert_eq!(
            eval(Expr::col("a").in_list(vec![Value::Int(1), Value::Int(2)])),
            Value::Bool(false)
        );
        assert_eq!(
            eval(Expr::lit(Value::Null).in_list(vec![Value::Int(1)])),
            Value::Null
        );
    }

    #[test]
    fn eval_bool_treats_null_as_false() {
        let e = Expr::lit(Value::Null)
            .eq(Expr::lit(1i64))
            .bind(&schema())
            .unwrap();
        assert!(!eval_bool(&e, &row()));
        let t = Expr::col("a").eq(Expr::lit(5i64)).bind(&schema()).unwrap();
        assert!(eval_bool(&t, &row()));
    }

    #[test]
    #[should_panic(expected = "unbound column")]
    fn unbound_eval_panics() {
        Expr::col("a").eval(&row());
    }

    #[test]
    #[should_panic(expected = "LIKE on non-string")]
    fn like_on_int_panics() {
        eval(Expr::col("a").like("%"));
    }
}
