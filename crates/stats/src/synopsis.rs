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

use std::ops::Range;

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
        let rows = catalog.table(root).expect("root table exists").num_rows();
        Self::build_for_partition(catalog, root, 0..rows, sample_size, seed)
    }

    /// Builds a synopsis whose root sample is drawn (with replacement)
    /// from one partition's row span only — the unit of incremental
    /// statistics refresh.
    pub fn build_for_partition(
        catalog: &Catalog,
        root: &str,
        span: Range<usize>,
        sample_size: usize,
        seed: u64,
    ) -> Self {
        let draws = draw_in_partition(span.len(), sample_size, seed);
        Self::from_partition_draws(catalog, root, &[span], &[draws])
    }

    /// The synopsis whose root sample is, partition by partition, the
    /// rows `draws[p]` picks inside `spans[p]` — a partitioned root's
    /// table-level synopsis; proportionally allocated draw counts make it
    /// a stratified uniform sample of the root.  The root component is
    /// those rids gathered from the root table, and each FK hop reads the
    /// key column of the component it leaves and gathers the rows those
    /// keys reference.
    fn from_partition_draws(
        catalog: &Catalog,
        root: &str,
        spans: &[Range<usize>],
        draws: &[Vec<Rid>],
    ) -> Self {
        let rids: Vec<Rid> = spans
            .iter()
            .zip(draws)
            .flat_map(|(span, offsets)| offsets.iter().map(|o| span.start as Rid + o))
            .collect();
        let root_table = catalog.table(root).expect("root table exists");
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
///
/// Partitioned roots are sampled **per partition** (stratified, sample
/// budget allocated proportionally to partition row counts) and each
/// partition's draws kept alongside the table-level synopsis gathered
/// from them; the estimator only ever sees that synopsis, but
/// [`SynopsisRepository::refresh_table`] can re-draw a subset of a root's
/// partitions and gather again without re-sampling the rest.
#[derive(Debug, Clone)]
pub struct SynopsisRepository {
    synopses: Vec<JoinSynopsis>,
    /// Per-partition draws for partitioned roots, `(root, draws)` with
    /// `draws[p]` the sampled offsets into partition `p`'s span.  Offsets,
    /// not rids: a partition only grows at its tail, so an offset names
    /// the same row in every later catalog version, whatever ingest did
    /// to the spans before it.
    pieces: Vec<(String, Vec<Vec<Rid>>)>,
    sample_size: usize,
    /// Streaming sketch statistics for tables touched by ingest.  Empty
    /// until the first insert; once a table streams, its distinct
    /// counts come from merged per-partition sketches instead of the
    /// (stale) offline sample.
    sketches: crate::sketch::SketchRepository,
}

/// Splits `sample_size` across partitions proportionally to their row
/// counts, assigning leftovers by largest fractional remainder (ties to
/// the lower partition index).  Deterministic; empty partitions get zero.
fn allocate_samples(sample_size: usize, lens: &[usize]) -> Vec<usize> {
    let total: usize = lens.iter().sum();
    if total == 0 {
        return vec![0; lens.len()];
    }
    let mut quotas: Vec<usize> = lens
        .iter()
        .map(|&l| sample_size * l / total) // floor of the exact share
        .collect();
    let assigned: usize = quotas.iter().sum();
    // Largest-remainder: rank partitions by sample_size*l mod total.
    let mut order: Vec<usize> = (0..lens.len()).collect();
    order.sort_by_key(|&p| (std::cmp::Reverse(sample_size * lens[p] % total), p));
    for &p in order.iter().take(sample_size - assigned) {
        quotas[p] += 1;
    }
    quotas
}

/// The deterministic sub-seed for partition `p` of a root whose own
/// sub-seed is `root_seed`.
fn partition_seed(root_seed: u64, p: usize) -> u64 {
    root_seed ^ ((p as u64 + 1) << 16)
}

/// `sample_size` offsets drawn uniformly with replacement into a
/// partition of `len` rows (none from an empty one).
fn draw_in_partition(len: usize, sample_size: usize, seed: u64) -> Vec<Rid> {
    if len == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..sample_size)
        .map(|_| rng.gen_range(0..len as Rid))
        .collect()
}

/// Re-draws partitions `targets` of `root` under `seed` — the sample
/// budget split across all partitions in proportion to their rows — and
/// gathers the table-level synopsis from every partition's draws.
///
/// # Panics
///
/// Panics when a target is out of range for `spans`.
fn redraw_partitions(
    catalog: &Catalog,
    root: &str,
    spans: &[Range<usize>],
    draws: &mut [Vec<Rid>],
    targets: &[usize],
    sample_size: usize,
    seed: u64,
) -> JoinSynopsis {
    let lens: Vec<usize> = spans.iter().map(Range::len).collect();
    let quotas = allocate_samples(sample_size, &lens);
    for &p in targets {
        assert!(p < spans.len(), "partition {p} out of range for {root:?}");
        draws[p] = draw_in_partition(lens[p], quotas[p], partition_seed(seed, p));
    }
    JoinSynopsis::from_partition_draws(catalog, root, spans, draws)
}

impl SynopsisRepository {
    /// Builds one synopsis per registered table.  Each synopsis gets a
    /// distinct deterministic sub-seed derived from `seed`; partitioned
    /// tables are drawn partition by partition.
    pub fn build_all(catalog: &Catalog, sample_size: usize, seed: u64) -> Self {
        let mut synopses = Vec::new();
        let mut pieces = Vec::new();
        for (i, t) in catalog.tables().enumerate() {
            let root_seed = seed ^ ((i as u64 + 1) << 32);
            match catalog.partitioning(t.name()) {
                Some(layout) => {
                    let spans = layout.spans();
                    let mut draws = vec![Vec::new(); spans.len()];
                    let all: Vec<usize> = (0..spans.len()).collect();
                    synopses.push(redraw_partitions(
                        catalog,
                        t.name(),
                        spans,
                        &mut draws,
                        &all,
                        sample_size,
                        root_seed,
                    ));
                    pieces.push((t.name().to_string(), draws));
                }
                None => {
                    synopses.push(JoinSynopsis::build(
                        catalog,
                        t.name(),
                        sample_size,
                        root_seed,
                    ));
                }
            }
        }
        Self {
            synopses,
            pieces,
            sample_size,
            sketches: crate::sketch::SketchRepository::new(),
        }
    }

    /// Rebuilds the statistics of one table — and **only** that table.
    ///
    /// For a partitioned root with a non-empty `partitions` list, only the
    /// named partitions are re-drawn (under `seed`) and the table-level
    /// synopsis gathered again; the other partitions keep their sample
    /// rows exactly.  For an unpartitioned root, or an empty
    /// `partitions` list, the whole root synopsis is rebuilt.  Synopses
    /// rooted at *other* tables are never touched: their component rows
    /// for this table are joined through immutable FK edges from their own
    /// root samples, so they stay exact.
    ///
    /// # Panics
    ///
    /// Panics when `root` has no synopsis, or when a named partition index
    /// is out of range for the root's layout.
    pub fn refresh_table(
        &mut self,
        catalog: &Catalog,
        root: &str,
        partitions: &[usize],
        seed: u64,
    ) {
        let slot = self
            .synopses
            .iter()
            .position(|s| s.root() == root)
            .unwrap_or_else(|| panic!("no synopsis rooted at {root:?}"));
        match catalog.partitioning(root) {
            Some(layout) => {
                let spans = layout.spans();
                let draws = &mut self
                    .pieces
                    .iter_mut()
                    .find(|(r, _)| r == root)
                    .expect("partitioned root has pieces")
                    .1;
                let targets: Vec<usize> = if partitions.is_empty() {
                    (0..spans.len()).collect()
                } else {
                    partitions.to_vec()
                };
                self.synopses[slot] = redraw_partitions(
                    catalog,
                    root,
                    spans,
                    draws,
                    &targets,
                    self.sample_size,
                    seed,
                );
            }
            None => {
                self.synopses[slot] = JoinSynopsis::build(catalog, root, self.sample_size, seed);
            }
        }
    }

    /// The per-partition draws of a partitioned root, as offsets into
    /// each partition's span (testing/inspection).
    pub fn pieces_for(&self, root: &str) -> Option<&[Vec<Rid>]> {
        self.pieces
            .iter()
            .find(|(r, _)| r == root)
            .map(|(_, p)| p.as_slice())
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

    /// Installs (or replaces) streaming sketch statistics for one
    /// table.  Called by the ingest path each time a batch lands; the
    /// repository itself is immutable-shared, so the engine clones,
    /// publishes, and swaps — same lifecycle as a partial refresh.
    pub fn publish_sketches(&mut self, sketches: std::sync::Arc<crate::sketch::TableSketches>) {
        self.sketches.publish(sketches);
    }

    /// Streaming statistics for a table, if ingest has touched it.
    pub fn sketches_for(
        &self,
        table: &str,
    ) -> Option<&std::sync::Arc<crate::sketch::TableSketches>> {
        self.sketches.for_table(table)
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
    fn allocate_samples_proportional_and_exact() {
        // Proportional with largest-remainder leftovers; sums exactly.
        assert_eq!(allocate_samples(100, &[500, 300, 200]), vec![50, 30, 20]);
        let q = allocate_samples(100, &[333, 333, 334]);
        assert_eq!(q.iter().sum::<usize>(), 100);
        assert!(q.iter().all(|&x| (33..=34).contains(&x)), "{q:?}");
        // Empty partitions get nothing; empty table gets all zeros.
        assert_eq!(allocate_samples(10, &[0, 100, 0]), vec![0, 10, 0]);
        assert_eq!(allocate_samples(10, &[0, 0]), vec![0, 0]);
        // Deterministic tie-break: equal remainders go to lower indexes.
        assert_eq!(allocate_samples(3, &[1, 1]), allocate_samples(3, &[1, 1]));
    }

    /// A range-partitioned copy of the TPC-H `part` table (4 partitions on
    /// `p_partkey`) plus `lineitem`/`orders` unpartitioned.
    fn partitioned_tpch_catalog() -> Catalog {
        use rqo_storage::{PartitionSpec, PartitionedTableBuilder, Value};
        let flat = tpch_catalog();
        let part = flat.table("part").unwrap();
        let n = part.num_rows() as i64;
        let bounds: Vec<Value> = (1..4).map(|i| part.value((i * n / 4) as u32, 0)).collect();
        let spec = PartitionSpec::Range {
            column: part.schema().column(0).name.clone(),
            bounds,
        };
        let mut b = PartitionedTableBuilder::new("part", part.schema().clone(), spec);
        for rid in 0..part.num_rows() as u32 {
            b.push_row(&part.row(rid));
        }
        let (table, layout) = b.finish();
        let mut cat = Catalog::new();
        cat.add_partitioned_table(table, layout).unwrap();
        for name in ["orders", "lineitem"] {
            cat.add_table(Table::clone(flat.table(name).unwrap()))
                .unwrap();
        }
        for fk in flat.foreign_keys() {
            cat.add_foreign_key(&fk.from_table, &fk.from_column, &fk.to_table, &fk.to_column)
                .unwrap();
        }
        cat
    }

    #[test]
    fn partitioned_root_builds_pieces_and_merges() {
        let cat = partitioned_tpch_catalog();
        let repo = SynopsisRepository::build_all(&cat, 200, 11);
        let pieces = repo.pieces_for("part").expect("part is partitioned");
        assert_eq!(pieces.len(), 4);
        let total: usize = pieces.iter().map(Vec::len).sum();
        assert_eq!(total, 200, "proportional allocation sums to the budget");
        let merged = repo.for_root("part").unwrap();
        assert_eq!(merged.sample_size(), 200);
        // Each piece samples only rows inside its span: partition rid
        // ranges translate to key ranges under range partitioning, and
        // the merged synopsis holds the pieces in partition order.
        let layout = cat.partitioning("part").unwrap();
        let part = cat.table("part").unwrap();
        let c = merged.component("part").unwrap();
        let mut i = 0u32;
        for (p, piece) in pieces.iter().enumerate() {
            let span = layout.span(p);
            let lo = part.value(span.start as u32, 0).as_int();
            let hi = part.value(span.end as u32 - 1, 0).as_int();
            for _ in piece {
                let k = c.value(i, 0).as_int();
                assert!((lo..=hi).contains(&k), "piece {p} leaked key {k}");
                i += 1;
            }
        }
        // Unpartitioned roots have no pieces.
        assert!(repo.pieces_for("lineitem").is_none());
    }

    #[test]
    fn partial_refresh_touches_only_named_partitions() {
        let cat = partitioned_tpch_catalog();
        let mut repo = SynopsisRepository::build_all(&cat, 200, 11);
        let before = repo.pieces_for("part").unwrap().to_vec();
        let merged_before = rows_of(repo.for_root("part").unwrap(), "part");
        let lineitem_before = repo.for_root("lineitem").unwrap().clone();
        repo.refresh_table(&cat, "part", &[1, 3], 999);
        let after = repo.pieces_for("part").unwrap();
        let merged_after = rows_of(repo.for_root("part").unwrap(), "part");
        // Piece `p`'s rows within the merged synopsis.
        let rows = |merged: &[Vec<rqo_storage::Value>], p: usize| {
            let start: usize = before[..p].iter().map(Vec::len).sum();
            merged[start..start + before[p].len()].to_vec()
        };
        // Untouched partitions keep their exact sample rows.
        for p in [0, 2] {
            assert_eq!(before[p], after[p]);
            assert_eq!(rows(&merged_before, p), rows(&merged_after, p));
        }
        // Refreshed partitions were re-sampled under the new seed (same
        // size, same span, different draws).
        for p in [1, 3] {
            assert_eq!(before[p].len(), after[p].len());
            assert_ne!(rows(&merged_before, p), rows(&merged_after, p));
        }
        // The merged synopsis reflects the refresh and keeps its size.
        assert_eq!(repo.for_root("part").unwrap().sample_size(), 200);
        // Other roots are untouched.
        let li = repo.for_root("lineitem").unwrap();
        assert_eq!(
            rows_of(li, "lineitem"),
            rows_of(&lineitem_before, "lineitem")
        );
    }

    fn rows_of(s: &JoinSynopsis, table: &str) -> Vec<Vec<rqo_storage::Value>> {
        let c = s.component(table).unwrap();
        (0..c.num_rows() as u32).map(|i| c.row(i)).collect()
    }

    #[test]
    fn refresh_unpartitioned_root_rebuilds_whole_synopsis() {
        let cat = tpch_catalog();
        let mut repo = SynopsisRepository::build_all(&cat, 150, 5);
        let before = rows_of(repo.for_root("orders").unwrap(), "orders");
        let part_before = rows_of(repo.for_root("part").unwrap(), "part");
        repo.refresh_table(&cat, "orders", &[], 777);
        assert_ne!(rows_of(repo.for_root("orders").unwrap(), "orders"), before);
        assert_eq!(repo.for_root("orders").unwrap().sample_size(), 150);
        // Other roots untouched.
        assert_eq!(rows_of(repo.for_root("part").unwrap(), "part"), part_before);
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
