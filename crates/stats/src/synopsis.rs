//! Join synopses (paper §3.2, after Acharya et al. 1999).
//!
//! Evaluating an SPJ expression on independent per-table samples does not
//! work: the probability that two small samples contain *matching* join
//! keys is tiny.  A join synopsis fixes this for foreign-key joins: take a
//! uniform sample of the *root* relation and join each sampled tuple with
//! the full referenced relations, recursively along every FK path.  The
//! result is a uniform sample of the (lossless) FK join rooted there, so
//! the selectivity of any predicate over any subset of the reached tables
//! can be estimated by directly evaluating the predicate on the synopsis —
//! one sample, no AVI assumption, no error propagation across subresults.
//!
//! Both halves read columns.  A sample *is* [`Table::take`]: the root
//! component gathers the sampled rids, and each FK hop reads the key
//! column of the component it leaves as `&[i64]`, looks the keys up in the
//! target's unique index and gathers those rids — one typed gather per
//! column, string dictionaries shared with the base table.  Evidence *is*
//! [`rqo_expr::select`]: the `(k, n)` of [`JoinSynopsis::evaluate`] is the
//! survivor count of `select` chained over the predicates' component
//! columns, the same kernels the executor filters base tables with.  No
//! sample tuple is ever materialised as a row.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rqo_expr::{Candidates, Expr};
use rqo_storage::{Catalog, Rid, Table};

/// A join synopsis rooted at one relation.
///
/// Row `i` of every component table corresponds to the same joined sample
/// tuple: `components["root"][i]` is the `i`-th sampled root row and
/// `components[S][i]` is the unique `S` row it (transitively) references.
#[derive(Debug, Clone)]
pub struct JoinSynopsis {
    root: String,
    sample_size: usize,
    components: Vec<(String, Table)>,
}

impl JoinSynopsis {
    /// Builds the synopsis for `root` with `sample_size` tuples drawn with
    /// replacement (the sampling model assumed by the Bayesian posterior).
    ///
    /// # Panics
    ///
    /// Panics when `root` is not in the catalog, when a referenced unique
    /// index is missing (the catalog builds them when FKs are declared),
    /// when a foreign key dangles, or when two FK paths reach the same
    /// table (role-distinct duplicate tables are future work, as in the
    /// paper's single-role join graphs).
    pub fn build(catalog: &Catalog, root: &str, sample_size: usize, seed: u64) -> Self {
        let root_table = catalog.table(root).expect("root table exists");
        let rows = root_table.num_rows();
        // An empty root has nothing to draw from, so its sample is empty.
        let mut rng = StdRng::seed_from_u64(seed);
        let rids: Vec<Rid> = match rows {
            0 => Vec::new(),
            _ => (0..sample_size)
                .map(|_| rng.gen_range(0..rows as Rid))
                .collect(),
        };
        let mut components = vec![(root.to_string(), root_table.take(&rids))];

        let mut frontier = vec![root];
        while let Some(from) = frontier.pop() {
            for fk in catalog.foreign_keys_from(from) {
                assert!(
                    !components.iter().any(|(name, _)| *name == fk.to_table),
                    "table {} reached by more than one FK path; role-distinct \
                     synopses are not supported",
                    fk.to_table
                );
                let from_component = &components
                    .iter()
                    .find(|(name, _)| *name == fk.from_table)
                    .expect("component built before traversal")
                    .1;
                let key_col = from_component.schema().expect_index(&fk.from_column);
                let target = catalog.table(&fk.to_table).expect("FK target exists");
                let index = catalog
                    .unique_index(&fk.to_table, &fk.to_column)
                    .unwrap_or_else(|| {
                        panic!(
                            "unique index on {}.{} missing; declare the FK through \
                             Catalog::add_foreign_key",
                            fk.to_table, fk.to_column
                        )
                    });
                let target_rids: Vec<Rid> = from_component
                    .int_column(key_col)
                    .iter()
                    .map(|&key| {
                        index.get(key).unwrap_or_else(|| {
                            panic!("dangling FK: {}.{} = {key}", fk.from_table, fk.from_column)
                        })
                    })
                    .collect();
                components.push((fk.to_table.clone(), target.take(&target_rids)));
                frontier.push(&fk.to_table);
            }
        }

        Self {
            root: root.to_string(),
            sample_size: rids.len(),
            components,
        }
    }

    /// The root relation.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Number of sample tuples (`n` in the Beta posterior).
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Tables covered by this synopsis (root first, then FK closure).
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.components.iter().map(|(n, _)| n.as_str())
    }

    /// True when every listed table is covered.
    pub fn covers<'a>(&self, tables: impl IntoIterator<Item = &'a str>) -> bool {
        tables
            .into_iter()
            .all(|t| self.components.iter().any(|(n, _)| n == t))
    }

    /// The sample component for one table.
    pub fn component(&self, table: &str) -> Option<&Table> {
        self.components
            .iter()
            .find(|(n, _)| n == table)
            .map(|(_, t)| t)
    }

    /// Evaluates per-table predicates against the synopsis, returning
    /// `(satisfying tuples, sample size)` — the `(k, n)` fed to the Beta
    /// posterior.  Tables participating in the query but carrying no
    /// predicate need not be listed: FK joins are lossless, so they do not
    /// filter.
    ///
    /// # Panics
    ///
    /// Panics when a predicate references a table outside the synopsis or
    /// a column outside that table.
    pub fn evaluate(&self, predicates: &[(&str, &Expr)]) -> (usize, usize) {
        (self.qualifying(predicates).len(), self.sample_size)
    }

    /// The sample tuples (ascending) that satisfy every predicate:
    /// [`rqo_expr::select`] over each predicate's component columns, the
    /// first over the whole sample and each next one over the previous
    /// survivors.
    ///
    /// # Panics
    ///
    /// Panics like [`JoinSynopsis::evaluate`].
    pub fn qualifying(&self, predicates: &[(&str, &Expr)]) -> Vec<u32> {
        let mut survivors: Option<Vec<u32>> = None;
        for (table, expr) in predicates {
            let component = self.component(table).unwrap_or_else(|| {
                panic!(
                    "table {table:?} not covered by synopsis rooted at {:?}",
                    self.root
                )
            });
            let bound = expr
                .bind(component.schema())
                .unwrap_or_else(|e| panic!("binding predicate on {table:?}: {e}"));
            let candidates = match &survivors {
                None => Candidates::Range(0..self.sample_size),
                Some(ids) => Candidates::List(ids),
            };
            survivors = Some(rqo_expr::select(&bound, component.columns(), candidates));
        }
        survivors.unwrap_or_else(|| (0..self.sample_size as u32).collect())
    }

    /// Approximate stored size in bytes (for the §6.1 storage-parity
    /// comparison against histograms).
    pub fn stored_bytes(&self) -> usize {
        self.components
            .iter()
            .map(|(_, t)| t.num_rows() * t.row_width_bytes())
            .sum()
    }
}

/// All join synopses for a catalog, one per relation.
#[derive(Debug, Clone)]
pub struct SynopsisRepository {
    synopses: Vec<JoinSynopsis>,
}

impl SynopsisRepository {
    /// Builds one synopsis per registered table.  Each synopsis gets a
    /// distinct deterministic sub-seed derived from `seed`.
    pub fn build_all(catalog: &Catalog, sample_size: usize, seed: u64) -> Self {
        let synopses = catalog
            .tables()
            .enumerate()
            .map(|(i, t)| {
                let root_seed = seed ^ ((i as u64 + 1) << 32);
                JoinSynopsis::build(catalog, t.name(), sample_size, root_seed)
            })
            .collect();
        Self { synopses }
    }

    /// The synopsis rooted at a table.
    pub fn for_root(&self, root: &str) -> Option<&JoinSynopsis> {
        self.synopses.iter().find(|s| s.root() == root)
    }

    /// All synopses.
    pub fn iter(&self) -> impl Iterator<Item = &JoinSynopsis> {
        self.synopses.iter()
    }

    /// Chooses the synopsis for an expression over `tables`: the paper's
    /// "root relation" rule — the relation whose primary key is not
    /// involved in any join, i.e. the one from which every other listed
    /// table is FK-reachable.
    pub fn for_expression<'a>(
        &self,
        tables: impl IntoIterator<Item = &'a str> + Clone,
    ) -> Option<&JoinSynopsis> {
        self.synopses
            .iter()
            .filter(|s| s.covers(tables.clone()))
            // Prefer the smallest covering synopsis: the root must itself
            // be one of the queried tables.
            .find(|s| tables.clone().into_iter().any(|t| t == s.root()))
    }

    /// Total stored bytes across all synopses.
    pub fn stored_bytes(&self) -> usize {
        self.synopses.iter().map(JoinSynopsis::stored_bytes).sum()
    }
}

/// Finds the root relation of an FK-join expression: the unique listed
/// table from which all other listed tables are reachable along FK edges.
pub fn find_root<'a>(catalog: &Catalog, tables: &[&'a str]) -> Option<&'a str> {
    fn reachable(catalog: &Catalog, from: &str, to: &str) -> bool {
        if from == to {
            return true;
        }
        catalog
            .foreign_keys_from(from)
            .any(|fk| reachable(catalog, &fk.to_table, to))
    }
    tables
        .iter()
        .copied()
        .find(|root| tables.iter().all(|t| reachable(catalog, root, t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_datagen::{StarConfig, StarData, TpchConfig, TpchData};

    fn tpch_catalog() -> Catalog {
        TpchData::generate(&TpchConfig {
            scale_factor: 0.005, // 7500 orders / ~30k lineitem / 1000 parts
            seed: 21,
        })
        .into_catalog()
    }

    #[test]
    fn lineitem_synopsis_covers_closure() {
        let cat = tpch_catalog();
        let syn = JoinSynopsis::build(&cat, "lineitem", 200, 1);
        assert_eq!(syn.root(), "lineitem");
        assert_eq!(syn.sample_size(), 200);
        let mut tables: Vec<&str> = syn.tables().collect();
        tables.sort_unstable();
        assert_eq!(tables, vec!["lineitem", "orders", "part"]);
        assert!(syn.covers(["lineitem", "part"]));
        assert!(!syn.covers(["lineitem", "nonexistent"]));
    }

    #[test]
    fn components_are_aligned_joins() {
        let cat = tpch_catalog();
        let syn = JoinSynopsis::build(&cat, "lineitem", 150, 2);
        let li = syn.component("lineitem").unwrap();
        let orders = syn.component("orders").unwrap();
        let part = syn.component("part").unwrap();
        let lo = li.schema().expect_index("l_orderkey");
        let lp = li.schema().expect_index("l_partkey");
        let oo = orders.schema().expect_index("o_orderkey");
        let pp = part.schema().expect_index("p_partkey");
        for i in 0..150u32 {
            assert_eq!(li.value(i, lo).as_int(), orders.value(i, oo).as_int());
            assert_eq!(li.value(i, lp).as_int(), part.value(i, pp).as_int());
        }
    }

    #[test]
    fn leaf_synopsis_has_single_component() {
        let cat = tpch_catalog();
        let syn = JoinSynopsis::build(&cat, "part", 100, 3);
        assert_eq!(syn.tables().count(), 1);
        assert!(syn.covers(["part"]));
        assert!(!syn.covers(["lineitem"]));
    }

    #[test]
    fn evaluate_counts_cross_table_predicates() {
        let cat = tpch_catalog();
        let syn = JoinSynopsis::build(&cat, "lineitem", 400, 4);
        // Predicate on part evaluated through the lineitem synopsis: p_x in
        // a 10% window — expect roughly 10% of sample tuples to satisfy.
        let pred = Expr::col("p_x").lt(Expr::lit(100i64));
        let (k, n) = syn.evaluate(&[("part", &pred)]);
        assert_eq!(n, 400);
        let frac = k as f64 / n as f64;
        assert!((0.05..0.18).contains(&frac), "fraction {frac}");

        // Empty predicate list: everything satisfies (lossless FK join).
        let (k, n) = syn.evaluate(&[]);
        assert_eq!((k, n), (400, 400));

        // Impossible predicate.
        let none = Expr::col("p_x").lt(Expr::lit(0i64));
        let (k, _) = syn.evaluate(&[("part", &none)]);
        assert_eq!(k, 0);
    }

    #[test]
    fn evaluate_matches_true_fraction_in_expectation() {
        let cat = tpch_catalog();
        // Average the estimate over several synopses; it must approach the
        // true joined fraction (unbiasedness of uniform sampling).
        let part = cat.table("part").unwrap();
        let pred = Expr::col("p_x").lt(Expr::lit(100i64));
        let truth = rqo_datagen::workload::true_selectivity(part, &pred);
        let mut total = 0.0;
        let reps = 30;
        for seed in 0..reps {
            let syn = JoinSynopsis::build(&cat, "lineitem", 300, seed);
            let (k, n) = syn.evaluate(&[("part", &pred)]);
            total += k as f64 / n as f64;
        }
        let mean = total / reps as f64;
        // l_partkey is uniform, so the lineitem-joined fraction equals the
        // part-table fraction.
        assert!(
            (mean - truth).abs() < 0.02,
            "mean estimate {mean} vs truth {truth}"
        );
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn evaluate_rejects_uncovered_table() {
        let cat = tpch_catalog();
        let syn = JoinSynopsis::build(&cat, "part", 50, 5);
        let pred = Expr::col("l_quantity").gt(Expr::lit(0.0));
        syn.evaluate(&[("lineitem", &pred)]);
    }

    #[test]
    fn repository_builds_and_routes() {
        let cat = tpch_catalog();
        let repo = SynopsisRepository::build_all(&cat, 100, 9);
        assert_eq!(repo.iter().count(), 3);
        assert!(repo.for_root("lineitem").is_some());
        assert!(repo.for_root("nope").is_none());
        // Expression over all three tables routes to the lineitem synopsis.
        let s = repo
            .for_expression(["orders", "part", "lineitem"])
            .expect("covered");
        assert_eq!(s.root(), "lineitem");
        // Single-table expression routes to that table's synopsis.
        let s = repo.for_expression(["part"]).unwrap();
        assert_eq!(s.root(), "part");
        // Orders+part have no common root: no FK path connects them.
        assert!(repo.for_expression(["orders", "part"]).is_none());
        assert!(repo.stored_bytes() > 0);
    }

    #[test]
    fn find_root_logic() {
        let cat = tpch_catalog();
        assert_eq!(
            find_root(&cat, &["orders", "lineitem", "part"]),
            Some("lineitem")
        );
        assert_eq!(find_root(&cat, &["orders"]), Some("orders"));
        assert_eq!(find_root(&cat, &["orders", "part"]), None);
    }

    #[test]
    fn star_synopsis() {
        let cat = StarData::generate(&StarConfig {
            fact_rows: 5000,
            seed: 17,
        })
        .into_catalog();
        let repo = SynopsisRepository::build_all(&cat, 200, 33);
        let syn = repo
            .for_expression(["fact", "dim1", "dim2", "dim3"])
            .expect("fact synopsis covers the star");
        assert_eq!(syn.root(), "fact");
        // Level-9 diagonal ≈ 10% of fact rows.
        let pred = Expr::col("d_attr").eq(Expr::lit(9i64));
        let (k, n) = syn.evaluate(&[("dim1", &pred), ("dim2", &pred), ("dim3", &pred)]);
        let frac = k as f64 / n as f64;
        assert!((0.04..0.18).contains(&frac), "level-9 fraction {frac}");
    }
}
