//! Property-based tests of the statistics layer: histogram estimates
//! against exact counts, sampler contracts, and synopsis invariants.

use std::ops::Bound;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rqo_stats::{sample_with_replacement, sample_without_replacement, EquiDepthHistogram};
use rqo_storage::{DataType, Schema, Table, TableBuilder, Value};

fn int_table(values: &[i64]) -> Table {
    let mut b = TableBuilder::new(
        "t",
        Schema::from_pairs(&[("x", DataType::Int)]),
        values.len(),
    );
    for &v in values {
        b.push_row(&[Value::Int(v)]);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Equi-depth histogram range estimates are exact at bucket
    /// boundaries and within one bucket's mass anywhere (the classical
    /// error bound).
    #[test]
    fn histogram_range_error_bounded_by_bucket_mass(
        values in prop::collection::vec(-100i64..100, 1..400),
        lo in -110i64..110,
        len in 0i64..120,
        buckets in 1usize..40,
    ) {
        let t = int_table(&values);
        let h = EquiDepthHistogram::build(&t, "x", buckets);
        let hi = lo + len;
        let est = h.range_selectivity(
            Bound::Included(&Value::Int(lo)),
            Bound::Included(&Value::Int(hi)),
        );
        let exact = values.iter().filter(|&&v| (lo..=hi).contains(&v)).count() as f64
            / values.len() as f64;
        // Two partially covered buckets, each bounded by the bucket mass,
        // plus interpolation error within them.
        let bucket_mass = (values.len() as f64 / buckets as f64).ceil() / values.len() as f64;
        prop_assert!(
            (est - exact).abs() <= 2.0 * bucket_mass + 1e-9,
            "est {est} exact {exact} bucket_mass {bucket_mass}"
        );
    }

    #[test]
    fn histogram_selectivities_are_probabilities(
        values in prop::collection::vec(-50i64..50, 1..200),
        probe in -60i64..60,
        buckets in 1usize..20,
    ) {
        let t = int_table(&values);
        let h = EquiDepthHistogram::build(&t, "x", buckets);
        let eq = h.eq_selectivity(&Value::Int(probe));
        prop_assert!((0.0..=1.0).contains(&eq));
        let full = h.range_selectivity(Bound::Unbounded, Bound::Unbounded);
        prop_assert!((full - 1.0).abs() < 1e-9);
    }

    #[test]
    fn with_replacement_sampler_contract(rows in 0usize..300, n in 0usize..600, seed: u64) {
        let t = int_table(&(0..rows as i64).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_with_replacement(&t, n, &mut rng);
        if rows == 0 {
            prop_assert!(s.is_empty());
        } else {
            prop_assert_eq!(s.len(), n);
            prop_assert!(s.iter().all(|&r| (r as usize) < rows));
        }
    }

    #[test]
    fn without_replacement_sampler_contract(rows in 0usize..300, n in 0usize..600, seed: u64) {
        let t = int_table(&(0..rows as i64).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = sample_without_replacement(&t, n, &mut rng);
        prop_assert_eq!(s.len(), n.min(rows));
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), n.min(rows), "duplicates in reservoir sample");
    }
}

mod synopsis_props {
    use super::*;
    use rqo_expr::Expr;
    use rqo_stats::JoinSynopsis;
    use rqo_storage::Catalog;

    fn two_table_catalog(parent_a: &[i64], child_fk: &[usize]) -> Catalog {
        let pschema = Schema::from_pairs(&[("pk", DataType::Int), ("a", DataType::Int)]);
        let mut pb = TableBuilder::new("parent", pschema, parent_a.len());
        for (i, &a) in parent_a.iter().enumerate() {
            pb.push_row(&[Value::Int(i as i64), Value::Int(a)]);
        }
        let cschema = Schema::from_pairs(&[("ck", DataType::Int), ("fk", DataType::Int)]);
        let mut cb = TableBuilder::new("child", cschema, child_fk.len());
        for (i, &fk) in child_fk.iter().enumerate() {
            cb.push_row(&[
                Value::Int(i as i64),
                Value::Int((fk % parent_a.len()) as i64),
            ]);
        }
        let mut cat = Catalog::new();
        cat.add_table(pb.finish()).unwrap();
        cat.add_table(cb.finish()).unwrap();
        cat.add_foreign_key("child", "fk", "parent", "pk").unwrap();
        cat
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every synopsis tuple is a genuine join tuple: the child
        /// component's FK equals the parent component's PK, row by row.
        #[test]
        fn synopsis_components_are_aligned(
            parent_a in prop::collection::vec(0i64..10, 1..30),
            child_fk in prop::collection::vec(0usize..1000, 1..100),
            n in 1usize..80,
            seed: u64,
        ) {
            let cat = two_table_catalog(&parent_a, &child_fk);
            let syn = JoinSynopsis::build(&cat, "child", n, seed);
            prop_assert_eq!(syn.sample_size(), n);
            let child = syn.component("child").unwrap();
            let parent = syn.component("parent").unwrap();
            let fk_col = child.schema().expect_index("fk");
            let pk_col = parent.schema().expect_index("pk");
            for i in 0..n as u32 {
                prop_assert_eq!(
                    child.value(i, fk_col).as_int(),
                    parent.value(i, pk_col).as_int()
                );
            }
        }

        /// Evaluating a cross-table predicate on the synopsis gives a k/n
        /// whose expectation is the true joined fraction: checked loosely
        /// with a generous tolerance over one draw (tight unbiasedness is
        /// covered by seeded averaging tests elsewhere).
        #[test]
        fn synopsis_fraction_tracks_truth(
            parent_a in prop::collection::vec(0i64..4, 4..20),
            child_fk in prop::collection::vec(0usize..1000, 50..150),
            seed in 0u64..50,
        ) {
            let cat = two_table_catalog(&parent_a, &child_fk);
            let pred = Expr::col("a").eq(Expr::lit(0i64));
            let truth = child_fk
                .iter()
                .filter(|&&fk| parent_a[fk % parent_a.len()] == 0)
                .count() as f64 / child_fk.len() as f64;
            let syn = JoinSynopsis::build(&cat, "child", 400, seed);
            let (k, n) = syn.evaluate(&[("parent", &pred)]);
            let frac = k as f64 / n as f64;
            // 400 Bernoulli draws: 5 sigma ≈ 0.125 worst case.
            prop_assert!((frac - truth).abs() < 0.15, "frac {frac} truth {truth}");
        }
    }
}
