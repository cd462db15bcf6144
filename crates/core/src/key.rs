//! The identity of an estimation request: the one decision of when two
//! requests are "the same" that the optimizer's selectivity memo, the
//! [`FeedbackStore`](crate::FeedbackStore), the plan-node annotations and
//! the plan cache share.  Its text form exists only for display.
//!
//! A key hashes itself once, when built; [`PreHashed`] lets the maps
//! that hold keys use that hash instead of hashing it again per probe.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rqo_expr::Expr;

/// An estimation request's identity: the tables it joins and its
/// `(table, predicate)` pairs, each sorted, with a hash computed once.
///
/// Equality is structural: the same tables, and predicates of the same
/// shape whose literals have the same variant and the same bits (`1` is
/// not `1.0`, `0.0` is not `-0.0`, a date is not its day number).  Tables
/// sort by name, predicates by table and then by their bytes (below), so
/// two requests listing the same pairs in any order get equal keys.
#[derive(Clone, Debug)]
pub struct RequestKey(Arc<Parts>);

#[derive(Debug)]
struct Parts {
    hash: u64,
    tables: Vec<String>,
    /// Each predicate's table and the bytes `Expr`'s structural `Hash`
    /// feeds a hasher: std asks every `Hash` to feed prefix-free bytes,
    /// so equal bytes mean an equal predicate.  `exprs` in the same order.
    ids: Vec<(String, Vec<u8>)>,
    exprs: Vec<Expr>,
}

/// The hasher of every map whose keys carry a hash computed once
/// ([`RequestKey`], the plan cache's keys): such a key writes that one
/// `u64`, and the hasher passes it through.  Use it as
/// `BuildHasherDefault<PreHashed>`.  Bytes written by any other key are
/// folded in (FNV-1a), so a map stays correct if handed one.
#[derive(Debug, Default, Clone, Copy)]
pub struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `Hasher` that keeps the bytes it is fed.
struct Bytes(Vec<u8>);

impl Hasher for Bytes {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
    fn finish(&self) -> u64 {
        unreachable!("read as bytes")
    }
}

/// The bytes `e`'s structural `Hash` feeds a hasher.
fn bytes_of(e: &Expr) -> Vec<u8> {
    let mut bytes = Bytes(Vec::new());
    e.hash(&mut bytes);
    bytes.0
}

impl RequestKey {
    /// The key of the request joining `tables` under `predicates`, in any
    /// order.
    pub fn new<'a>(
        tables: impl IntoIterator<Item = &'a str>,
        predicates: impl IntoIterator<Item = (&'a str, &'a Expr)>,
    ) -> Self {
        let mut tables: Vec<String> = tables.into_iter().map(str::to_string).collect();
        tables.sort_unstable();
        let mut predicates: Vec<((String, Vec<u8>), Expr)> = predicates
            .into_iter()
            .map(|(t, e)| ((t.to_string(), bytes_of(e)), e.clone()))
            .collect();
        predicates.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let (ids, exprs): (Vec<_>, Vec<_>) = predicates.into_iter().unzip();
        let mut h = DefaultHasher::new();
        (&tables, &ids).hash(&mut h);
        Self(Arc::new(Parts {
            hash: h.finish(),
            tables,
            ids,
            exprs,
        }))
    }

    /// The request's tables, sorted.
    pub fn tables(&self) -> impl ExactSizeIterator<Item = &str> + Clone {
        self.0.tables.iter().map(String::as_str)
    }

    /// The request's `(table, predicate)` pairs, in key order: the order
    /// the estimator sees them in.
    pub fn predicates(&self) -> impl ExactSizeIterator<Item = (&str, &Expr)> {
        let tables = self.0.ids.iter().map(|(t, _)| t.as_str());
        tables.zip(&self.0.exprs)
    }
}

impl PartialEq for RequestKey {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.0, &other.0);
        Arc::ptr_eq(a, b) || (a.hash, &a.tables, &a.ids) == (b.hash, &b.tables, &b.ids)
    }
}

impl Eq for RequestKey {}

impl Hash for RequestKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

/// The text form `["t", "u"]|["t:(x < 1)"]`, each list sorted as strings.
impl fmt::Display for RequestKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut predicates: Vec<String> =
            self.predicates().map(|(t, e)| format!("{t}:{e}")).collect();
        predicates.sort_unstable();
        write!(f, "{:?}|{predicates:?}", self.0.tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::Value;

    fn pred(column: &str, value: i64) -> Expr {
        Expr::col(column).lt(Expr::lit(value))
    }

    #[test]
    fn key_is_invariant_to_request_order() {
        let a = pred("a", 10);
        let b = pred("b", 20);
        let fwd = RequestKey::new(["t", "u"], [("t", &a), ("u", &b)]);
        let rev = RequestKey::new(["u", "t"], [("u", &b), ("t", &a)]);
        assert_eq!(fwd, rev);

        let other = RequestKey::new(["t", "u"], [("t", &b), ("u", &a)]);
        assert_ne!(
            fwd, other,
            "swapping which table a predicate applies to changes the key"
        );
    }

    /// Regression: string literals used to render unquoted, so these
    /// pairs of different predicates shared one key — and one feedback
    /// observation, and one cached plan.
    #[test]
    fn literals_that_render_alike_get_distinct_keys() {
        let key = |e: &Expr| RequestKey::new(["part"], [("part", e)]);
        let brand = || Expr::col("p_brand");
        let one_string = brand().in_list(vec![Value::str("a, b")]);
        let two_strings = brand().in_list(vec![Value::str("a"), Value::str("b")]);
        assert_ne!(key(&one_string), key(&two_strings));
        let null = brand().eq(Expr::lit(Value::Null));
        let word = brand().eq(Expr::lit("NULL"));
        assert_ne!(key(&null), key(&word));
        let quote = brand().eq(Expr::lit("it's"));
        let doubled = brand().eq(Expr::lit("it''s"));
        assert_ne!(key(&quote), key(&doubled));
    }

    /// The text form is the one the feedback snapshot has always printed.
    #[test]
    fn display_is_the_sorted_text_form() {
        let a = pred("a", 10);
        let b = pred("b", 20);
        let key = RequestKey::new(["u", "t"], [("u", &b), ("t", &a)]);
        assert_eq!(
            key.to_string(),
            r#"["t", "u"]|["t:(a < 10)", "u:(b < 20)"]"#
        );
        let tables: Vec<&str> = key.tables().collect();
        assert_eq!(tables, ["t", "u"]);
        let clone = key.clone();
        assert!(Arc::ptr_eq(&key.0, &clone.0), "a clone shares the parts");
    }
}
