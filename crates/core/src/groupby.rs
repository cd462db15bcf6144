//! Distinct-value estimation for `GROUP BY` result sizes (paper §3.5,
//! "Incorporating other operators").
//!
//! The output cardinality of `GROUP BY g₁, …, g_m` is the number of
//! distinct grouping-key combinations among qualifying rows.  Following
//! the paper's sketch, this adapts sample-based distinct-value estimators
//! to the precomputed synopsis: collect the grouping keys of the sample
//! tuples that satisfy the predicates ([`JoinSynopsis::qualifying`]),
//! then apply GEE scaled to the estimated qualifying population.

use rqo_expr::Expr;
use rqo_stats::distinct::gee_estimate;
use rqo_stats::JoinSynopsis;
use rqo_storage::Value;

/// Estimates the number of distinct values of `group_table.group_columns`
/// among the rows of the synopsis' root relation that satisfy
/// `predicates`, where `root_rows` is the root relation's cardinality.
///
/// A composite key is its typed tuple of column values.
/// Returns 0 when no sample tuple qualifies (no evidence of any group).
///
/// Note: the synopsis is drawn *with* replacement (the Bayesian
/// selectivity model requires it), while GEE's analysis assumes
/// without-replacement sampling.  The duplicate probability is
/// `O(n²/N)` — negligible for the intended regime of a few hundred
/// sample tuples over many thousands of rows, but the estimate degrades
/// for samples approaching the table size.
///
/// # Panics
///
/// Panics when the group table is not covered by the synopsis or a column
/// is missing.
pub fn estimate_group_count(
    synopsis: &JoinSynopsis,
    predicates: &[(&str, &Expr)],
    group_table: &str,
    group_columns: &[&str],
    root_rows: usize,
) -> f64 {
    let component = synopsis
        .component(group_table)
        .unwrap_or_else(|| panic!("table {group_table:?} not covered by synopsis"));
    let ordinals: Vec<usize> = group_columns
        .iter()
        .map(|c| component.schema().expect_index(c))
        .collect();

    // One key per qualifying tuple: the typed tuple of its grouping
    // values, so distinct combinations never collide.
    let keys: Vec<Vec<Value>> = synopsis
        .qualifying(predicates)
        .into_iter()
        .map(|i| ordinals.iter().map(|&c| component.value(i, c)).collect())
        .collect();

    if keys.is_empty() {
        return 0.0;
    }
    // Scale to the estimated qualifying population: the MLE fraction of
    // qualifying tuples times the root cardinality.
    let qualifying_fraction = keys.len() as f64 / synopsis.sample_size() as f64;
    let qualifying_population = (qualifying_fraction * root_rows as f64).max(1.0) as u64;
    gee_estimate(&keys, qualifying_population)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_datagen::{StarConfig, StarData, TpchConfig, TpchData};
    use rqo_stats::JoinSynopsis;

    #[test]
    fn group_by_low_cardinality_column() {
        // part.p_brand has 25 distinct values; with a 500-tuple sample
        // every brand is seen many times, so the estimate should be ≈25.
        let cat = TpchData::generate(&TpchConfig {
            scale_factor: 0.02,
            seed: 31,
        })
        .into_catalog();
        let syn = JoinSynopsis::build(&cat, "part", 500, 1);
        let rows = cat.table("part").unwrap().num_rows();
        let est = estimate_group_count(&syn, &[], "part", &["p_brand"], rows);
        assert!((20.0..30.0).contains(&est), "estimate {est}");
    }

    #[test]
    fn group_by_through_join_with_predicate() {
        // GROUP BY d_attr over fact ⋈ dim1 restricted to d_attr >= 5: five
        // groups survive.
        let cat = StarData::generate(&StarConfig {
            fact_rows: 20_000,
            seed: 3,
        })
        .into_catalog();
        let syn = JoinSynopsis::build(&cat, "fact", 500, 2);
        let pred = Expr::col("d_attr").ge(Expr::lit(5i64));
        let rows = cat.table("fact").unwrap().num_rows();
        let est = estimate_group_count(&syn, &[("dim1", &pred)], "dim1", &["d_attr"], rows);
        assert!((4.0..6.5).contains(&est), "estimate {est}");
    }

    #[test]
    fn composite_group_keys() {
        let cat = StarData::generate(&StarConfig {
            fact_rows: 10_000,
            seed: 4,
        })
        .into_catalog();
        let syn = JoinSynopsis::build(&cat, "fact", 400, 5);
        let rows = cat.table("fact").unwrap().num_rows();
        // (d_attr of dim1) has 10 values; composite with itself stays 10.
        let est = estimate_group_count(&syn, &[], "dim1", &["d_attr", "d_attr"], rows);
        assert!((8.0..12.0).contains(&est), "estimate {est}");
    }

    /// Regression: composite keys used to be rendered and joined with
    /// U+001F, so two tuples whose strings shift a separator between
    /// columns counted as one group.
    #[test]
    fn composite_keys_that_render_alike_are_distinct_groups() {
        use rqo_storage::{Catalog, DataType, Schema, TableBuilder};
        let schema = Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Str)]);
        let mut t = TableBuilder::new("t", schema, 400);
        for i in 0..400 {
            let (a, b) = if i % 2 == 0 {
                ("a\u{1f}b", "c")
            } else {
                ("a", "b\u{1f}c")
            };
            t.push_row(&[Value::str(a), Value::str(b)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(t.finish()).unwrap();
        let syn = JoinSynopsis::build(&cat, "t", 200, 1);
        let est = estimate_group_count(&syn, &[], "t", &["a", "b"], 400);
        assert_eq!(est, 2.0);
    }

    #[test]
    fn impossible_predicate_gives_zero_groups() {
        let cat = TpchData::generate(&TpchConfig {
            scale_factor: 0.005,
            seed: 6,
        })
        .into_catalog();
        let syn = JoinSynopsis::build(&cat, "part", 200, 7);
        let none = Expr::col("p_x").lt(Expr::lit(0i64));
        let rows = cat.table("part").unwrap().num_rows();
        let est = estimate_group_count(&syn, &[("part", &none)], "part", &["p_brand"], rows);
        assert_eq!(est, 0.0);
    }

    #[test]
    fn high_cardinality_key_scales_up() {
        // Grouping by p_partkey (unique): the estimate must scale far
        // beyond the sample's distinct count toward the population size.
        let cat = TpchData::generate(&TpchConfig {
            scale_factor: 0.05, // 10_000 parts
            seed: 8,
        })
        .into_catalog();
        let syn = JoinSynopsis::build(&cat, "part", 400, 9);
        let rows = cat.table("part").unwrap().num_rows();
        let est = estimate_group_count(&syn, &[], "part", &["p_partkey"], rows);
        assert!(est > 1_000.0, "estimate {est}");
        assert!(est <= rows as f64);
    }
}
