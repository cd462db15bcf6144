//! The expression tree.

// Builder methods `add`/`sub`/`mul`/`div`/`not` intentionally mirror SQL
// operator names rather than implementing the std operator traits, which
// would force `Expr: Sized` receivers and obscure the DSL.
#![allow(clippy::should_implement_trait)]

use std::fmt;
use std::ops::Bound;

use rqo_storage::{DataType, Schema, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Logical AND (Kleene).
    And,
    /// Logical OR (Kleene).
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinaryOp {
    /// True for the six comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// The comparison with its operands swapped (`a < b` ⇔ `b > a`).
    ///
    /// # Panics
    ///
    /// Panics when called on a non-comparison operator.
    pub fn flip(&self) -> BinaryOp {
        match self {
            BinaryOp::Eq => BinaryOp::Eq,
            BinaryOp::Ne => BinaryOp::Ne,
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            other => panic!("flip on non-comparison {other:?}"),
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Logical NOT (Kleene).
    Not,
    /// Numeric negation.
    Neg,
    /// `IS NULL`.
    IsNull,
}

/// Errors from binding an expression to a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprError {
    /// A named column was not found in the schema.
    UnknownColumn(String),
    /// Evaluation was attempted on an unbound column reference.
    Unbound(String),
    /// An operator is applied to operand types the evaluator panics on.
    IllTyped(String),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            ExprError::Unbound(c) => write!(f, "unbound column reference {c:?}"),
            ExprError::IllTyped(what) => write!(f, "ill-typed expression: {what}"),
        }
    }
}

impl std::error::Error for ExprError {}

/// A scalar expression.  `==` compares literals by value (`1 == 1.0`);
/// `Hash` is structural, feeding each literal's variant and bits.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// A named column reference (unbound).
    Col(String),
    /// A bound column reference: ordinal into the input row.  The name is
    /// retained for display.
    ColIdx(usize, String),
    /// A literal value.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr BETWEEN lo AND hi` (inclusive both sides).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
    },
    /// `expr LIKE pattern` with `%`/`_` wildcards.
    Like {
        /// Tested expression (must evaluate to a string).
        expr: Box<Expr>,
        /// Pattern with SQL wildcards.
        pattern: String,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
    },
}

impl Expr {
    /// A named column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// A literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Eq, self, other)
    }

    /// `self <> other`
    pub fn ne(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Ne, self, other)
    }

    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Lt, self, other)
    }

    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Le, self, other)
    }

    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Gt, self, other)
    }

    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Ge, self, other)
    }

    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::And, self, other)
    }

    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Or, self, other)
    }

    /// `self + other`
    pub fn add(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Add, self, other)
    }

    /// `self - other`
    pub fn sub(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Sub, self, other)
    }

    /// `self * other`
    pub fn mul(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Mul, self, other)
    }

    /// `self / other`
    pub fn div(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Div, self, other)
    }

    /// `NOT self`
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(self),
        }
    }

    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::Unary {
            op: UnaryOp::IsNull,
            expr: Box::new(self),
        }
    }

    /// `self BETWEEN lo AND hi`
    pub fn between(self, lo: Expr, hi: Expr) -> Expr {
        Expr::Between {
            expr: Box::new(self),
            lo: Box::new(lo),
            hi: Box::new(hi),
        }
    }

    /// `self LIKE pattern`
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
        }
    }

    /// `self IN (list)`
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
        }
    }

    /// ANDs a list of predicates together; `None` when the list is empty.
    pub fn conjunction(mut exprs: Vec<Expr>) -> Option<Expr> {
        let mut acc = exprs.pop()?;
        while let Some(e) = exprs.pop() {
            acc = e.and(acc);
        }
        Some(acc)
    }

    /// Resolves all `Col(name)` references against a schema, producing an
    /// expression that evaluates without string lookups.
    pub fn bind(&self, schema: &Schema) -> Result<Expr, ExprError> {
        Ok(match self {
            Expr::Col(name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| ExprError::UnknownColumn(name.clone()))?;
                Expr::ColIdx(idx, name.clone())
            }
            // Re-binding to a different schema: resolve by retained name.
            Expr::ColIdx(_, name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| ExprError::UnknownColumn(name.clone()))?;
                Expr::ColIdx(idx, name.clone())
            }
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.bind(schema)?),
            },
            Expr::Between { expr, lo, hi } => Expr::Between {
                expr: Box::new(expr.bind(schema)?),
                lo: Box::new(lo.bind(schema)?),
                hi: Box::new(hi.bind(schema)?),
            },
            Expr::Like { expr, pattern } => Expr::Like {
                expr: Box::new(expr.bind(schema)?),
                pattern: pattern.clone(),
            },
            Expr::InList { expr, list } => Expr::InList {
                expr: Box::new(expr.bind(schema)?),
                list: list.clone(),
            },
        })
    }

    /// The static type of this expression over `schema` (columns resolve
    /// by name, as in [`Expr::bind`]): `Some(t)` when it evaluates to a
    /// `t` or NULL, `None` when it is always NULL.
    ///
    /// This is the check for expressions that arrive from outside the
    /// program: it accepts exactly the operand types [`Expr::eval`] has a
    /// rule for, so an accepted expression cannot reach one of the
    /// evaluator's type panics.
    ///
    /// # Errors
    ///
    /// [`ExprError::UnknownColumn`] for a column `schema` lacks,
    /// [`ExprError::IllTyped`] naming the first operator whose operand
    /// types the evaluator would panic on.
    pub fn data_type(&self, schema: &Schema) -> Result<Option<DataType>, ExprError> {
        use DataType::*;
        // `Value::total_cmp`'s coercion table; NULL compares with anything.
        let comparable = |a: Option<DataType>, b: Option<DataType>| match (a, b) {
            (None, _) | (_, None) => true,
            (Some(a), Some(b)) => {
                a == b || matches!((a, b), (Int, Float | Date) | (Float | Date, Int))
            }
        };
        let ill = |what: String| Err(ExprError::IllTyped(what));
        Ok(match self {
            Expr::Col(name) | Expr::ColIdx(_, name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| ExprError::UnknownColumn(name.clone()))?;
                Some(schema.column(idx).data_type)
            }
            Expr::Lit(v) => v.data_type(),
            Expr::Binary { op, left, right } => {
                let (l, r) = (left.data_type(schema)?, right.data_type(schema)?);
                match op {
                    BinaryOp::And | BinaryOp::Or => match (l, r) {
                        (None | Some(Bool), None | Some(Bool)) => Some(Bool),
                        _ => return ill(format!("{op} over non-boolean {self}")),
                    },
                    op if op.is_comparison() => {
                        if !comparable(l, r) {
                            return ill(format!("incomparable operands in {self}"));
                        }
                        Some(Bool)
                    }
                    // Mirrors `eval_binary`'s arithmetic table.
                    _ => match (l, r) {
                        (None, _) | (_, None) => None,
                        (Some(Date), Some(Int)) if matches!(op, BinaryOp::Add | BinaryOp::Sub) => {
                            Some(Date)
                        }
                        (Some(Int), Some(Date)) if *op == BinaryOp::Add => Some(Date),
                        (Some(Date), Some(Int)) | (Some(Int), Some(Date)) => {
                            return ill(format!("unsupported date arithmetic {self}"))
                        }
                        (Some(Date), Some(Date)) if *op == BinaryOp::Sub => Some(Int),
                        (Some(Int), Some(Int)) => Some(Int),
                        (Some(Int | Float | Date), Some(Int | Float | Date)) => Some(Float),
                        _ => return ill(format!("arithmetic over non-numeric {self}")),
                    },
                }
            }
            Expr::Unary { op, expr } => match (op, expr.data_type(schema)?) {
                (UnaryOp::IsNull, _) => Some(Bool),
                (UnaryOp::Not, t @ (None | Some(Bool))) => t,
                (UnaryOp::Neg, t @ (None | Some(Int | Float))) => t,
                (UnaryOp::Not, _) => return ill(format!("NOT over non-boolean {self}")),
                (UnaryOp::Neg, _) => return ill(format!("negation of non-numeric {self}")),
            },
            Expr::Between { expr, lo, hi } => {
                let v = expr.data_type(schema)?;
                if !comparable(v, lo.data_type(schema)?) || !comparable(v, hi.data_type(schema)?) {
                    return ill(format!("incomparable operands in {self}"));
                }
                Some(Bool)
            }
            Expr::Like { expr, .. } => match expr.data_type(schema)? {
                None | Some(Str) => Some(Bool),
                Some(_) => return ill(format!("LIKE over non-string {self}")),
            },
            Expr::InList { expr, list } => {
                let v = expr.data_type(schema)?;
                if !list.iter().all(|c| comparable(v, c.data_type())) {
                    return ill(format!("incomparable operands in {self}"));
                }
                Some(Bool)
            }
        })
    }

    /// Collects the names of all referenced columns (deduplicated, in first
    /// appearance order).
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        let mut push = |name: &'a str| {
            if !out.contains(&name) {
                out.push(name);
            }
        };
        match self {
            Expr::Col(name) | Expr::ColIdx(_, name) => push(name),
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Between { expr, lo, hi } => {
                expr.collect_columns(out);
                lo.collect_columns(out);
                hi.collect_columns(out);
            }
            Expr::Like { expr, .. } | Expr::InList { expr, .. } => expr.collect_columns(out),
        }
    }

    /// Splits a conjunctive predicate into its AND-ed factors.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                left.collect_conjuncts(out);
                right.collect_conjuncts(out);
            }
            other => out.push(other),
        }
    }

    /// Evaluates this expression to a constant when it references no
    /// columns (constant folding).  Returns `None` for column-dependent
    /// expressions and for NULL-valued constants.
    ///
    /// This is what lets the index-matching machinery see through the
    /// paper's query template `l_receiptdate BETWEEN '07/01/97' + ? AND
    /// '09/30/97' + ?`: the bounds are arithmetic over literals, not bare
    /// literals.
    pub fn const_value(&self) -> Option<Value> {
        if !self.referenced_columns().is_empty() {
            return None;
        }
        match self.eval(&[]) {
            Value::Null => None,
            v => Some(v),
        }
    }

    /// Recognizes this predicate as a single-column range:
    /// `col op constant`, `constant op col`, or
    /// `col BETWEEN constant AND constant`, where "constant" is any
    /// column-free expression (folded via [`Expr::const_value`]).
    ///
    /// Returns `(column name, lower bound, upper bound)` when the predicate
    /// constrains exactly one column against constants — the shape an index
    /// seek (and a one-dimensional histogram) can serve.
    pub fn as_column_range(&self) -> Option<(&str, Bound<Value>, Bound<Value>)> {
        fn col_name(e: &Expr) -> Option<&str> {
            match e {
                Expr::Col(n) | Expr::ColIdx(_, n) => Some(n.as_str()),
                _ => None,
            }
        }
        match self {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let (name, lit, op) =
                    if let (Some(n), Some(v)) = (col_name(left), right.const_value()) {
                        (n, v, *op)
                    } else if let (Some(v), Some(n)) = (left.const_value(), col_name(right)) {
                        (n, v, op.flip())
                    } else {
                        return None;
                    };
                let range = match op {
                    BinaryOp::Eq => (Bound::Included(lit.clone()), Bound::Included(lit)),
                    BinaryOp::Lt => (Bound::Unbounded, Bound::Excluded(lit)),
                    BinaryOp::Le => (Bound::Unbounded, Bound::Included(lit)),
                    BinaryOp::Gt => (Bound::Excluded(lit), Bound::Unbounded),
                    BinaryOp::Ge => (Bound::Included(lit), Bound::Unbounded),
                    _ => return None, // Ne is not a contiguous range
                };
                Some((name, range.0, range.1))
            }
            Expr::Between { expr, lo, hi } => {
                let n = col_name(expr)?;
                let a = lo.const_value()?;
                let b = hi.const_value()?;
                Some((n, Bound::Included(a), Bound::Included(b)))
            }
            _ => None,
        }
    }
}

/// Writes a literal as SQL would: a string quoted with any `'` inside it
/// doubled, anything else as its value.  Quoting keeps the rendering
/// injective — `'NULL'` is not `NULL`, and `IN ('a, b')` is not
/// `IN ('a', 'b')` — which the plan cache and feedback keys rely on.
fn write_literal(f: &mut fmt::Formatter<'_>, v: &Value) -> fmt::Result {
    match v {
        Value::Str(s) => write_quoted(f, s),
        v => write!(f, "{v}"),
    }
}

fn write_quoted(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "'{}'", s.replace('\'', "''"))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(n) => write!(f, "{n}"),
            Expr::ColIdx(i, n) => write!(f, "{n}#{i}"),
            Expr::Lit(v) => write_literal(f, v),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::IsNull => write!(f, "({expr} IS NULL)"),
            },
            Expr::Between { expr, lo, hi } => write!(f, "({expr} BETWEEN {lo} AND {hi})"),
            Expr::Like { expr, pattern } => {
                write!(f, "({expr} LIKE ")?;
                write_quoted(f, pattern)?;
                write!(f, ")")
            }
            Expr::InList { expr, list } => {
                write!(f, "({expr} IN (")?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write_literal(f, v)?;
                }
                write!(f, "))")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)])
    }

    #[test]
    fn bind_resolves_ordinals() {
        let e = Expr::col("b")
            .gt(Expr::lit(1.0))
            .and(Expr::col("a").eq(Expr::lit(3i64)));
        let bound = e.bind(&schema()).unwrap();
        let shown = bound.to_string();
        assert!(shown.contains("b#1"), "{shown}");
        assert!(shown.contains("a#0"), "{shown}");
    }

    #[test]
    fn bind_unknown_column_fails() {
        let e = Expr::col("zzz").eq(Expr::lit(1i64));
        assert_eq!(
            e.bind(&schema()),
            Err(ExprError::UnknownColumn("zzz".into()))
        );
    }

    #[test]
    fn rebind_to_new_schema() {
        let s1 = schema();
        let s2 = Schema::from_pairs(&[("b", DataType::Float), ("a", DataType::Int)]);
        let e = Expr::col("a").eq(Expr::lit(1i64)).bind(&s1).unwrap();
        let re = e.bind(&s2).unwrap();
        assert!(re.to_string().contains("a#1"));
    }

    #[test]
    fn data_type_follows_the_evaluators_rules() {
        let s = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("d", DataType::Date),
            ("s", DataType::Str),
        ]);
        let ty = |e: Expr| e.data_type(&s);
        assert_eq!(
            ty(Expr::col("a").add(Expr::lit(1i64))),
            Ok(Some(DataType::Int))
        );
        assert_eq!(
            ty(Expr::col("a").mul(Expr::col("b"))),
            Ok(Some(DataType::Float))
        );
        assert_eq!(
            ty(Expr::col("d").add(Expr::lit(10i64))),
            Ok(Some(DataType::Date))
        );
        assert_eq!(
            ty(Expr::col("d").sub(Expr::col("d"))),
            Ok(Some(DataType::Int))
        );
        assert_eq!(
            ty(Expr::col("a").lt(Expr::lit(2.5))),
            Ok(Some(DataType::Bool))
        );
        assert_eq!(
            ty(Expr::col("s").like("x%").not()),
            Ok(Some(DataType::Bool))
        );
        assert_eq!(ty(Expr::lit(Value::Null).add(Expr::col("s"))), Ok(None));
        assert_eq!(
            ty(Expr::col("s").eq(Expr::lit(Value::Null))),
            Ok(Some(DataType::Bool))
        );
        // A bound reference resolves by its retained name, like `bind`.
        assert_eq!(ty(Expr::ColIdx(9, "b".into())), Ok(Some(DataType::Float)));
        assert_eq!(
            ty(Expr::col("zzz")),
            Err(ExprError::UnknownColumn("zzz".into()))
        );
    }

    /// Every shape `data_type` rejects is one the evaluator panics on.
    #[test]
    fn data_type_rejects_what_eval_panics_on() {
        let s = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("d", DataType::Date),
            ("s", DataType::Str),
        ]);
        let row = [
            Value::Int(1),
            Value::Float(2.0),
            Value::Date(3),
            Value::str("x"),
        ];
        let neg = |e: Expr| Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(e),
        };
        for (e, needle) in [
            (Expr::col("a").like("1%"), "LIKE"),
            (
                Expr::col("a").add(Expr::lit(1i64)).and(Expr::lit(true)),
                "AND",
            ),
            (Expr::lit(false).or(Expr::col("s")), "OR"),
            (Expr::col("a").not(), "NOT"),
            (neg(Expr::col("d")), "negation"),
            (
                Expr::col("a").eq(Expr::lit(Value::str("1"))),
                "incomparable",
            ),
            (Expr::col("b").lt(Expr::col("d")), "incomparable"),
            (
                Expr::col("s").between(Expr::lit(1i64), Expr::lit(2i64)),
                "incomparable",
            ),
            (
                Expr::col("a").in_list(vec![Value::Int(2), Value::str("x")]),
                "incomparable",
            ),
            (Expr::col("s").add(Expr::lit(1i64)), "arithmetic"),
            (Expr::col("d").mul(Expr::lit(2i64)), "date arithmetic"),
            (Expr::lit(2i64).sub(Expr::col("d")), "date arithmetic"),
        ] {
            match e.data_type(&s) {
                Err(ExprError::IllTyped(what)) => assert!(what.contains(needle), "{what}"),
                other => panic!("{e}: expected IllTyped, got {other:?}"),
            }
            let bound = e.bind(&s).unwrap();
            let outcome = std::panic::catch_unwind(|| bound.eval(&row));
            assert!(outcome.is_err(), "{e} is rejected but evaluates");
        }
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::col("a")
            .gt(Expr::lit(1i64))
            .and(Expr::col("b").lt(Expr::col("a")));
        assert_eq!(e.referenced_columns(), vec!["a", "b"]);
    }

    #[test]
    fn conjuncts_flatten() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").gt(Expr::lit(0.0)))
            .and(Expr::col("a").lt(Expr::lit(10i64)));
        assert_eq!(e.conjuncts().len(), 3);
        // OR does not flatten.
        let e2 = Expr::col("a")
            .eq(Expr::lit(1i64))
            .or(Expr::col("a").eq(Expr::lit(2i64)));
        assert_eq!(e2.conjuncts().len(), 1);
    }

    #[test]
    fn conjunction_builder() {
        assert!(Expr::conjunction(vec![]).is_none());
        let single = Expr::conjunction(vec![Expr::col("a").eq(Expr::lit(1i64))]).unwrap();
        assert_eq!(single.conjuncts().len(), 1);
        let multi = Expr::conjunction(vec![
            Expr::col("a").eq(Expr::lit(1i64)),
            Expr::col("b").gt(Expr::lit(2.0)),
        ])
        .unwrap();
        assert_eq!(multi.conjuncts().len(), 2);
    }

    #[test]
    fn column_range_recognition() {
        let e = Expr::col("a").between(Expr::lit(5i64), Expr::lit(9i64));
        let (col, lo, hi) = e.as_column_range().unwrap();
        assert_eq!(col, "a");
        assert_eq!(lo, Bound::Included(Value::Int(5)));
        assert_eq!(hi, Bound::Included(Value::Int(9)));

        let e = Expr::col("a").lt(Expr::lit(3i64));
        let (col, lo, hi) = e.as_column_range().unwrap();
        assert_eq!(col, "a");
        assert_eq!(lo, Bound::Unbounded);
        assert_eq!(hi, Bound::Excluded(Value::Int(3)));

        // Flipped literal side: 3 < a means a > 3.
        let e = Expr::lit(3i64).lt(Expr::col("a"));
        let (col, lo, hi) = e.as_column_range().unwrap();
        assert_eq!(col, "a");
        assert_eq!(lo, Bound::Excluded(Value::Int(3)));
        assert_eq!(hi, Bound::Unbounded);

        let e = Expr::col("a").eq(Expr::lit(7i64));
        let (_, lo, hi) = e.as_column_range().unwrap();
        assert_eq!(lo, Bound::Included(Value::Int(7)));
        assert_eq!(hi, Bound::Included(Value::Int(7)));

        // Non-range shapes.
        assert!(Expr::col("a")
            .ne(Expr::lit(1i64))
            .as_column_range()
            .is_none());
        assert!(Expr::col("a")
            .lt(Expr::col("b"))
            .as_column_range()
            .is_none());
        assert!(Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").gt(Expr::lit(0.0)))
            .as_column_range()
            .is_none());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::col("a")
            .between(Expr::lit(1i64), Expr::lit(2i64))
            .and(Expr::col("b").like("B#%"));
        assert_eq!(e.to_string(), "((a BETWEEN 1 AND 2) AND (b LIKE 'B#%'))");
    }

    #[test]
    fn flip_comparisons() {
        assert_eq!(BinaryOp::Lt.flip(), BinaryOp::Gt);
        assert_eq!(BinaryOp::Ge.flip(), BinaryOp::Le);
        assert_eq!(BinaryOp::Eq.flip(), BinaryOp::Eq);
    }

    #[test]
    #[should_panic(expected = "flip on non-comparison")]
    fn flip_rejects_arith() {
        BinaryOp::Add.flip();
    }
}
