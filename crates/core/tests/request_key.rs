//! `RequestKey` against the text key it replaced: tables sorted and
//! predicates rendered as sorted `table:expr` strings, the string the
//! optimizer's memo, the feedback store and the plan cache used to share.
//!
//! * Key equality implies text equality over literals of every `Value`
//!   variant: the key may be finer than the text where the text is not
//!   injective (`1` and `1.0` both print `1`), never coarser.
//! * Text equality implies key equality over the workload query shapes,
//!   so no memo, feedback or plan-cache hit rate can move.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use rqo_core::RequestKey;
use rqo_datagen::workload::{exp1_lineitem_predicate, exp2_part_predicate, exp3_dim_predicate};
use rqo_expr::Expr;
use rqo_storage::{days_from_civil, Value};

/// The text key, as the memo, feedback store and plan cache rendered it.
fn text_key(tables: &[&str], predicates: &[(&str, Expr)]) -> String {
    let mut tables = tables.to_vec();
    tables.sort_unstable();
    let mut predicates: Vec<String> = predicates.iter().map(|(t, e)| format!("{t}:{e}")).collect();
    predicates.sort_unstable();
    format!("{tables:?}|{predicates:?}")
}

#[derive(Debug, Clone)]
struct Request {
    tables: Vec<&'static str>,
    predicates: Vec<(&'static str, Expr)>,
}

impl Request {
    fn key(&self) -> RequestKey {
        let predicates = self.predicates.iter().map(|(t, e)| (*t, e));
        RequestKey::new(self.tables.iter().copied(), predicates)
    }

    fn text(&self) -> String {
        text_key(&self.tables, &self.predicates)
    }

    /// The same request with both lists rotated by `by`.
    fn rotated(&self, by: usize) -> Request {
        let mut r = self.clone();
        let (nt, np) = (r.tables.len(), r.predicates.len());
        r.tables.rotate_left(by % nt.max(1));
        r.predicates.rotate_left(by % np.max(1));
        r
    }
}

fn hash_of(key: &RequestKey) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Checks one pair: key equality implies text and hash equality, and the
/// key displays as the text.  Returns whether the keys are equal.
fn keys_no_coarser(a: &Request, b: &Request) -> Result<bool, TestCaseError> {
    let (ka, kb) = (a.key(), b.key());
    prop_assert_eq!(ka.to_string(), a.text());
    prop_assert_eq!(&ka, &a.rotated(1).key());
    if ka == kb {
        prop_assert_eq!(a.text(), b.text());
        prop_assert_eq!(hash_of(&ka), hash_of(&kb));
    }
    Ok(ka == kb)
}

/// A literal of any variant, drawn from values whose renderings collide
/// across variants: `1`/`1.0`, `0.0`/`-0.0`, NaN, a date and its day
/// number, and strings built from `'`, `,`, space and `NULL`.
fn literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..3).prop_map(Value::Int),
        prop_oneof![Just(0.0), Just(-0.0), Just(1.0), Just(f64::NAN), Just(2.5)]
            .prop_map(Value::Float),
        (0i32..3).prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
        prop::collection::vec(
            prop_oneof![Just("'"), Just(","), Just(" "), Just("NULL"), Just("1")],
            0..3
        )
        .prop_map(|tokens| Value::str(tokens.concat())),
    ]
}

/// A predicate over column `c`: a comparison, a range, an IN list or a
/// LIKE.
fn predicate() -> impl Strategy<Value = Expr> {
    let col = || Expr::col("c");
    prop_oneof![
        literal().prop_map(move |v| col().eq(Expr::lit(v))),
        literal().prop_map(move |v| col().lt(Expr::lit(v))),
        (literal(), literal())
            .prop_map(move |(lo, hi)| col().between(Expr::lit(lo), Expr::lit(hi))),
        prop::collection::vec(literal(), 1..3).prop_map(move |list| col().in_list(list)),
        prop_oneof![Just("%"), Just("a'%"), Just("NULL")].prop_map(move |p| col().like(p)),
    ]
}

fn tricky_request() -> impl Strategy<Value = Request> {
    (
        prop_oneof![Just(vec!["t"]), Just(vec!["t", "u"])],
        prop::collection::vec((prop_oneof![Just("t"), Just("u")], predicate()), 0..3),
    )
        .prop_map(|(tables, predicates)| Request { tables, predicates })
}

/// `l_shipdate` and `l_receiptdate` windows, as the benchmark's point and
/// ad hoc workloads ask them.
fn two_range(start: i32, len: i32, offset: i32) -> Expr {
    let date = |d: i32| Expr::lit(Value::Date(days_from_civil(1993, 1, 1) + d));
    let ship = Expr::col("l_shipdate").between(date(start), date(start + len));
    let receipt =
        Expr::col("l_receiptdate").between(date(start + offset), date(start + len + offset));
    ship.and(receipt)
}

/// The workload shapes: experiment 1's lineitem window, the benchmark's
/// two-range windows, experiment 2's part window alone and joined,
/// experiment 3's star, and the ingest reader's orders window.  Small
/// parameter ranges so that equal requests are drawn often.
fn workload_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0i64..4).prop_map(|o| Request {
            tables: vec!["lineitem"],
            predicates: vec![("lineitem", exp1_lineitem_predicate(100 + o))],
        }),
        (0i32..2, 0i32..2, 0i32..2).prop_map(|(s, l, o)| Request {
            tables: vec!["lineitem"],
            predicates: vec![("lineitem", two_range(s, 60 + 8 * l, 60 + o))],
        }),
        (0i64..3, 0usize..3).prop_map(|(w, n)| Request {
            tables: [
                vec!["part"],
                vec!["lineitem", "part"],
                vec!["lineitem", "orders", "part"]
            ][n]
                .clone(),
            predicates: vec![("part", exp2_part_predicate(40 + w))],
        }),
        (0i64..2, 0i64..2).prop_map(|(a, b)| Request {
            tables: vec!["fact", "dim1", "dim2", "dim3"],
            predicates: vec![
                ("dim1", exp3_dim_predicate(a)),
                ("dim2", exp3_dim_predicate(b)),
                ("dim3", exp3_dim_predicate(a)),
            ],
        }),
        (0i32..2).prop_map(|d| Request {
            tables: vec!["orders"],
            predicates: vec![(
                "orders",
                Expr::col("o_orderdate").between(
                    Expr::lit(Value::Date(8766 + d)),
                    Expr::lit(Value::Date(8966 + d)),
                ),
            )],
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Equal keys render equal texts, whatever literals they hold.
    #[test]
    fn key_equality_implies_text_equality(
        requests in prop::collection::vec(tricky_request(), 12)
    ) {
        for a in &requests {
            for b in &requests {
                keys_no_coarser(a, b)?;
            }
        }
    }

    /// On the workload shapes, equal texts mean equal keys, so the key
    /// splits no request the text key merged.
    #[test]
    fn text_equality_implies_key_equality_on_workload_shapes(
        requests in prop::collection::vec(workload_request(), 12),
        by in 0usize..4,
    ) {
        for a in &requests {
            for b in &requests {
                let b = b.rotated(by);
                let equal = keys_no_coarser(a, &b)?;
                prop_assert_eq!(equal, a.text() == b.text());
            }
        }
    }
}

/// The cases the text key could not tell apart, or told apart only by
/// accident of rendering.
#[test]
fn literal_variants_and_bits_are_part_of_the_key() {
    let key = |v: Value| RequestKey::new(["t"], [("t", &Expr::col("c").eq(Expr::lit(v)))]);
    // `1` and `1.0` print alike; the key tells them apart.
    assert_ne!(key(Value::Int(1)), key(Value::Float(1.0)));
    assert_eq!(
        key(Value::Int(1)).to_string(),
        key(Value::Float(1.0)).to_string()
    );
    assert_ne!(key(Value::Float(0.0)), key(Value::Float(-0.0)));
    assert_ne!(key(Value::Date(3)), key(Value::Int(3)));
    // The same NaN is the same literal.
    assert_eq!(key(Value::Float(f64::NAN)), key(Value::Float(f64::NAN)));
    assert_ne!(key(Value::Null), key(Value::str("NULL")));
}
