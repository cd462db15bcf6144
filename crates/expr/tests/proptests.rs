//! Property-based tests of the expression layer: the LIKE matcher against
//! a naive reference, constant folding against direct evaluation,
//! range-recognition against predicate semantics, and the static type
//! check against the evaluator's panics.

use proptest::prelude::*;
use rqo_expr::{eval_bool, Expr};
use rqo_storage::{DataType, Schema, Value};

/// Naive exponential-time LIKE reference.
fn like_reference(pattern: &[u8], text: &[u8]) -> bool {
    match (pattern.first(), text.first()) {
        (None, None) => true,
        (Some(b'%'), _) => {
            like_reference(&pattern[1..], text)
                || (!text.is_empty() && like_reference(pattern, &text[1..]))
        }
        (Some(b'_'), Some(_)) => like_reference(&pattern[1..], &text[1..]),
        (Some(&p), Some(&t)) if p == t => like_reference(&pattern[1..], &text[1..]),
        _ => false,
    }
}

fn pattern_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![Just('%'), Just('_'), prop::char::range('a', 'd'),],
        0..8,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::char::range('a', 'd'), 0..10)
        .prop_map(|cs| cs.into_iter().collect())
}

/// One column of every type; `typed_schema()` and `typed_row` agree.
fn typed_schema() -> Schema {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("d", DataType::Date),
        ("s", DataType::Str),
        ("b", DataType::Bool),
    ])
}

/// Integer operands come from the edges of the range, where unchecked
/// arithmetic would overflow (`i64::MIN / -1`, `MAX + 1`, `-MIN`).
const EDGES: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];

/// A random expression tree of at most `depth` operator levels over
/// [`typed_schema`], mostly ill-typed: every operator over every operand.
fn random_expr(next: &mut impl FnMut(u64) -> u64, depth: u32) -> Expr {
    let literal = |k: u64| match k {
        0 => Value::Null,
        1..=5 => Value::Int(EDGES[k as usize - 1]),
        6 => Value::Float(1.5),
        7 => Value::Date(10_000),
        8 => Value::Date(i32::MIN),
        9 => Value::Date(i32::MAX),
        10 => Value::str("ab"),
        _ => Value::Bool(true),
    };
    if depth == 0 || next(4) == 0 {
        return match next(2) {
            0 => Expr::col(["i", "f", "d", "s", "b"][next(5) as usize]),
            _ => Expr::lit(literal(next(12))),
        };
    }
    let mut sub = || random_expr(next, depth - 1);
    let (a, b, c) = (sub(), sub(), sub());
    match next(18) {
        0 => a.eq(b),
        1 => a.ne(b),
        2 => a.lt(b),
        3 => a.ge(b),
        4 => a.and(b),
        5 => a.or(b),
        6 => a.add(b),
        7 => a.sub(b),
        8 => a.mul(b),
        9 => a.div(b),
        10 => a.not(),
        11 => a.is_null(),
        12 => Expr::Unary {
            op: rqo_expr::UnaryOp::Neg,
            expr: Box::new(a),
        },
        13 => a.between(b, c),
        14 => a.like("a%"),
        15 => a.in_list(vec![literal(next(12)), literal(next(12))]),
        16 => a.le(b),
        _ => a.gt(b),
    }
}

proptest! {
    // Only about one random tree in sixteen is a well-typed operator.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// What `data_type` accepts, `eval` has a rule for: over rows with and
    /// without NULLs an accepted expression never panics and yields its
    /// declared type (or NULL).  (That each rejected shape does panic is
    /// pinned shape by shape in `tree.rs`.)
    #[test]
    fn accepted_expressions_never_panic_the_evaluator(seed: u64, nulls in 0u8..32) {
        let mut state = seed | 1;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let schema = typed_schema();
        let expr = random_expr(&mut next, 3);
        let mut row = vec![
            Value::Int(EDGES[next(5) as usize]),
            Value::Float(2.5),
            Value::Date(9_000),
            Value::str("abc"),
            Value::Bool(false),
        ];
        for (c, v) in row.iter_mut().enumerate() {
            if nulls & (1 << c) != 0 {
                *v = Value::Null;
            }
        }
        let bound = expr.bind(&schema).unwrap();
        let outcome = std::panic::catch_unwind(|| bound.eval(&row));
        match expr.data_type(&schema) {
            Ok(t) => {
                let v = outcome.unwrap_or_else(|_| panic!("{expr} typed {t:?} but eval panicked"));
                prop_assert!(v.is_null() || v.data_type() == t, "{} typed {:?} gave {:?}", expr, t, v);
            }
            Err(e) => prop_assert!(
                matches!(e, rqo_expr::ExprError::IllTyped(_)),
                "{} -> {:?}", expr, e
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn like_matches_reference(pattern in pattern_strategy(), text in text_strategy()) {
        let schema = Schema::from_pairs(&[("s", DataType::Str)]);
        let expr = Expr::col("s").like(pattern.clone()).bind(&schema).unwrap();
        let row = vec![Value::str(text.as_str())];
        let got = eval_bool(&expr, &row);
        let expected = like_reference(pattern.as_bytes(), text.as_bytes());
        prop_assert_eq!(got, expected, "pattern {:?} text {:?}", pattern, text);
    }

    #[test]
    fn const_folding_matches_direct_eval(a in -1000i64..1000, b in -1000i64..1000) {
        // (a + b) * 2 - a, built as an expression over literals only.
        let e = Expr::lit(a)
            .add(Expr::lit(b))
            .mul(Expr::lit(2i64))
            .sub(Expr::lit(a));
        let folded = e.const_value().expect("column-free expression folds");
        prop_assert_eq!(folded, Value::Int((a + b) * 2 - a));
    }

    #[test]
    fn division_by_zero_never_folds(a in -1000i64..1000) {
        let e = Expr::lit(a).div(Expr::lit(0i64));
        prop_assert!(e.const_value().is_none());
    }

    #[test]
    fn recognized_ranges_agree_with_predicate_semantics(
        x in -100i64..100,
        lo in -100i64..100,
        len in 0i64..100,
        shift in -50i64..50,
    ) {
        // A BETWEEN with arithmetic bounds, the paper's template shape.
        let pred = Expr::col("x").between(
            Expr::lit(lo).add(Expr::lit(shift)),
            Expr::lit(lo + len).add(Expr::lit(shift)),
        );
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let bound = pred.bind(&schema).unwrap();
        let truth = eval_bool(&bound, &[Value::Int(x)]);

        let (col, range_lo, range_hi) = pred.as_column_range().expect("recognized");
        prop_assert_eq!(col, "x");
        let in_lo = match &range_lo {
            std::ops::Bound::Included(v) => x >= v.as_int(),
            std::ops::Bound::Excluded(v) => x > v.as_int(),
            std::ops::Bound::Unbounded => true,
        };
        let in_hi = match &range_hi {
            std::ops::Bound::Included(v) => x <= v.as_int(),
            std::ops::Bound::Excluded(v) => x < v.as_int(),
            std::ops::Bound::Unbounded => true,
        };
        prop_assert_eq!(truth, in_lo && in_hi);
    }

    #[test]
    fn comparison_ranges_agree_with_semantics(x in -100i64..100, c in -100i64..100, op in 0u8..5) {
        let col = Expr::col("x");
        let pred = match op {
            0 => col.eq(Expr::lit(c)),
            1 => col.lt(Expr::lit(c)),
            2 => col.le(Expr::lit(c)),
            3 => col.gt(Expr::lit(c)),
            _ => col.ge(Expr::lit(c)),
        };
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let truth = eval_bool(&pred.bind(&schema).unwrap(), &[Value::Int(x)]);
        let (_, lo, hi) = pred.as_column_range().expect("comparisons are ranges");
        let in_lo = match &lo {
            std::ops::Bound::Included(v) => x >= v.as_int(),
            std::ops::Bound::Excluded(v) => x > v.as_int(),
            std::ops::Bound::Unbounded => true,
        };
        let in_hi = match &hi {
            std::ops::Bound::Included(v) => x <= v.as_int(),
            std::ops::Bound::Excluded(v) => x < v.as_int(),
            std::ops::Bound::Unbounded => true,
        };
        prop_assert_eq!(truth, in_lo && in_hi);
    }

    #[test]
    fn conjuncts_preserve_semantics(
        vals in prop::collection::vec(-20i64..20, 3),
        bounds in prop::collection::vec((-20i64..20, 0i64..20), 3),
    ) {
        // AND of three range predicates == conjunction of the parts.
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ]);
        let names = ["a", "b", "c"];
        let parts: Vec<Expr> = bounds
            .iter()
            .zip(names)
            .map(|(&(lo, len), n)| Expr::col(n).between(Expr::lit(lo), Expr::lit(lo + len)))
            .collect();
        let whole = Expr::conjunction(parts.clone()).unwrap().bind(&schema).unwrap();
        let row: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        let whole_result = eval_bool(&whole, &row);
        let parts_result = parts
            .iter()
            .all(|p| eval_bool(&p.bind(&schema).unwrap(), &row));
        prop_assert_eq!(whole_result, parts_result);
        // And the flattening is lossless.
        let rebuilt = Expr::conjunction(parts).unwrap();
        prop_assert_eq!(rebuilt.conjuncts().len(), 3);
    }
}

/// A literal whose rendering looks like SQL syntax: NULL, or a string
/// built from `'`, `,`, space and the word `NULL`.
fn tricky_literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop::collection::vec(
            prop_oneof![Just("'"), Just(","), Just(" "), Just("NULL")],
            0..4
        )
        .prop_map(|tokens| Value::str(tokens.concat())),
    ]
}

/// `s = literal` or `s IN (literal, ...)`.
fn literal_predicate() -> impl Strategy<Value = Expr> {
    prop_oneof![
        tricky_literal().prop_map(|v| Expr::col("s").eq(Expr::lit(v))),
        prop::collection::vec(tricky_literal(), 1..4).prop_map(|list| Expr::col("s").in_list(list)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The rendering the plan-cache and feedback keys are built from is
    /// injective on literals: two predicates that print alike are the
    /// same predicate.
    #[test]
    fn rendering_is_injective_on_literals(
        preds in prop::collection::vec(literal_predicate(), 16)
    ) {
        for a in &preds {
            for b in &preds {
                if a.to_string() == b.to_string() {
                    prop_assert_eq!(a, b);
                }
            }
        }
    }
}
