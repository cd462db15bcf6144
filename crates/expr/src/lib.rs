//! Scalar expressions and predicates.
//!
//! One of the paper's arguments for sampling-based estimation (§3.2,
//! point 3) is that it works for *almost any* predicate — arithmetic
//! expressions, substring matches — because the predicate is simply
//! evaluated against each sampled tuple.  This crate provides that shared
//! predicate language: a small expression tree with SQL three-valued
//! logic, and **one evaluator for base tables and sample tuples alike** —
//! [`select`] takes a bound predicate, a set of columns and candidate row
//! ids and returns the ids that pass.  The executor runs it over a
//! table's or a batch's columns per morsel; the robust estimator runs it
//! over a join synopsis' component columns (a sample is `Table::take`,
//! its columns are the same `ColumnVec`s).  [`eval_bool`], the
//! row-at-a-time evaluator with SQL three-valued logic, is what `select`
//! falls back to for shapes without a typed kernel, and the reference
//! every columnar path is tested against (the exact oracle estimator and
//! the test oracles call it directly).
//!
//! Expressions are built name-based ([`Expr::col`]) and *bound* to a schema
//! ([`Expr::bind`]) before evaluation, turning column references into
//! ordinals so the hot evaluation path does no string lookups; an
//! expression that arrives from outside the program is type-checked first
//! ([`Expr::data_type`]), so that the evaluator's type panics stay
//! unreachable from the wire.

#![warn(missing_docs)]

pub mod columnar;
pub mod eval;
pub mod like;
pub mod tree;

pub use columnar::{select, Candidates};
pub use eval::eval_bool;
pub use tree::{BinaryOp, Expr, ExprError, UnaryOp};
