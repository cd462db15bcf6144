//! The optimizer's cost model.
//!
//! Formulas mirror the executor's charging rules
//! ([`rqo_exec::scan`]/[`join`](rqo_exec::join)/[`agg`](rqo_exec::agg))
//! evaluated at *estimated* cardinalities, so a plan's estimated cost at
//! the true selectivity equals its executed cost up to the page-coalescing
//! approximation (Cardenas's formula here vs. exact distinct-page counting
//! there).  All costs are in simulated milliseconds.
//!
//! Crucially, every formula is monotone non-decreasing in its cardinality
//! arguments.  That is the property (§3.1.1, footnote 2) that lets the
//! robust estimator hand the optimizer a selectivity *percentile* and get
//! back a cost *percentile* without any distribution plumbing.

use rqo_storage::{Catalog, CostParams};

/// Expected number of distinct pages touched when fetching `k` uniformly
/// scattered rows from a table of `pages` pages (Cardenas's formula).
///
/// At low selectivity this is ≈ `k` (one random I/O per row — the paper's
/// model); at high selectivity it saturates at `pages`.
pub fn cardenas_pages(pages: f64, k: f64) -> f64 {
    if pages <= 0.0 || k <= 0.0 {
        return 0.0;
    }
    if k / pages > 30.0 {
        return pages; // avoid pow underflow; fully saturated
    }
    pages * (1.0 - (1.0 - 1.0 / pages).powf(k))
}

/// The cost model, bound to a catalog (for table sizes) and cost
/// parameters.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    catalog: &'a Catalog,
    params: &'a CostParams,
}

impl<'a> CostModel<'a> {
    /// Creates the model.
    pub fn new(catalog: &'a Catalog, params: &'a CostParams) -> Self {
        Self { catalog, params }
    }

    /// The cost parameters in use.
    pub fn params(&self) -> &CostParams {
        self.params
    }

    /// Number of rows in a table.
    pub fn table_rows(&self, table: &str) -> f64 {
        self.catalog.table(table).expect("table exists").num_rows() as f64
    }

    /// Number of data pages of a table.
    pub fn table_pages(&self, table: &str) -> f64 {
        let t = self.catalog.table(table).expect("table exists");
        self.params.data_pages(t.num_rows(), t.row_width_bytes()) as f64
    }

    /// Sequential scan: all pages + per-row CPU.  Independent of
    /// selectivity — the "stable" plan of the paper's running example.
    pub fn seq_scan_ms(&self, table: &str) -> f64 {
        self.table_pages(table) * self.params.seq_page_ms
            + self.table_rows(table) * self.params.cpu_op_ms
    }

    /// Partition-wise sequential scan over the surviving partitions only:
    /// pages per merged run of adjacent survivors + per-surviving-row CPU.
    /// Mirrors [`rqo_exec::surviving_spans`]'s charging exactly, so the
    /// priced cost of a pruned scan equals its executed cost — and when
    /// every partition survives it collapses to [`Self::seq_scan_ms`].
    pub fn partitioned_scan_ms(&self, table: &str, partitions: &[usize]) -> f64 {
        let t = self.catalog.table(table).expect("table exists");
        let spans = rqo_exec::surviving_spans(self.catalog, table, partitions);
        let rows: usize = spans.iter().map(|s| s.len()).sum();
        let pages: f64 = spans
            .iter()
            .map(|s| self.params.data_pages(s.len(), t.row_width_bytes()) as f64)
            .sum();
        pages * self.params.seq_page_ms + rows as f64 * self.params.cpu_op_ms
    }

    /// One index-range resolution: B-tree descend + leaf pages + per-entry
    /// CPU.
    pub fn index_range_ms(&self, entries: f64) -> f64 {
        let leaf_pages = (entries * self.params.index_entry_bytes as f64
            / self.params.page_bytes as f64)
            .ceil()
            .max(1.0);
        self.params.random_io_ms
            + leaf_pages * self.params.seq_page_ms
            + entries * self.params.cpu_op_ms
    }

    /// Fetching `k` scattered rows from a table by RID: random I/Os on the
    /// expected distinct pages + per-row CPU.
    pub fn fetch_ms(&self, table: &str, k: f64) -> f64 {
        cardenas_pages(self.table_pages(table), k) * self.params.random_io_ms
            + k * self.params.cpu_op_ms
    }

    /// Index seek: one range + fetch + residual filter.
    pub fn index_seek_ms(&self, table: &str, entries: f64) -> f64 {
        self.index_range_ms(entries)
            + self.fetch_ms(table, entries)
            + entries * self.params.cpu_op_ms
    }

    /// Index intersection: every range + RID-merge CPU + fetch of the
    /// intersection + residual filter.  The ranges' (constant, marginal)
    /// entry counts form the paper's `f₂`; the fetch of `result_rows` is
    /// its `v₂ · x`.
    pub fn index_intersection_ms(&self, table: &str, entries: &[f64], result_rows: f64) -> f64 {
        let ranges: f64 = entries.iter().map(|&e| self.index_range_ms(e)).sum();
        let merge: f64 = entries.iter().sum::<f64>() * self.params.cpu_op_ms;
        ranges + merge + self.fetch_ms(table, result_rows) + result_rows * self.params.cpu_op_ms
    }

    /// Hash join over already-produced inputs.
    pub fn hash_join_ms(&self, build_rows: f64, probe_rows: f64, out_rows: f64) -> f64 {
        build_rows * self.params.hash_build_ms
            + probe_rows * self.params.hash_probe_ms
            + out_rows * self.params.cpu_op_ms
    }

    /// Merge join over already-produced inputs; unsorted sides pay an
    /// in-memory sort.
    pub fn merge_join_ms(
        &self,
        left_rows: f64,
        right_rows: f64,
        out_rows: f64,
        left_sorted: bool,
        right_sorted: bool,
    ) -> f64 {
        let sort = |n: f64, sorted: bool| {
            if sorted || n < 2.0 {
                0.0
            } else {
                n * n.log2().ceil() * self.params.cpu_op_ms
            }
        };
        sort(left_rows, left_sorted)
            + sort(right_rows, right_sorted)
            + (left_rows + right_rows + out_rows) * self.params.cpu_op_ms
    }

    /// Indexed nested-loops join: one descend per outer row plus the
    /// scattered fetch of every matching inner row (`fetched_rows`,
    /// *before* the inner residual filter).
    pub fn indexed_nl_join_ms(&self, outer_rows: f64, fetched_rows: f64) -> f64 {
        outer_rows * self.params.random_io_ms
            + fetched_rows * (self.params.random_io_ms + 2.0 * self.params.cpu_op_ms)
    }

    /// One star-semijoin leg: dimension scan + one index descend per
    /// selected key + leaf pages for the touched entries.
    pub fn semijoin_leg_ms(&self, dim_table: &str, selected_keys: f64, entries: f64) -> f64 {
        let leaf_pages = (entries * self.params.index_entry_bytes as f64
            / self.params.page_bytes as f64)
            .ceil()
            .max(1.0);
        self.seq_scan_ms(dim_table)
            + selected_keys * self.params.random_io_ms
            + leaf_pages * self.params.seq_page_ms
            + 2.0 * entries * self.params.cpu_op_ms
    }

    /// Star-semijoin completion: RID intersection + fetch of matching fact
    /// rows.
    pub fn semijoin_finish_ms(&self, fact_table: &str, total_entries: f64, matched: f64) -> f64 {
        total_entries * self.params.cpu_op_ms + self.fetch_ms(fact_table, matched)
    }

    /// Hash aggregation.
    pub fn aggregate_ms(&self, input_rows: f64, groups: f64) -> f64 {
        input_rows * self.params.hash_build_ms + groups * self.params.cpu_op_ms
    }

    /// In-memory filter/projection of an intermediate result.
    pub fn per_row_ms(&self, rows: f64) -> f64 {
        rows * self.params.cpu_op_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::{DataType, Schema, TableBuilder, Value};

    fn catalog(rows: usize) -> Catalog {
        let mut b = TableBuilder::new(
            "t",
            Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]),
            rows,
        );
        for i in 0..rows as i64 {
            b.push_row(&[Value::Int(i), Value::Int(i % 10)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(b.finish()).unwrap();
        cat
    }

    #[test]
    fn cardenas_limits() {
        assert_eq!(cardenas_pages(100.0, 0.0), 0.0);
        assert_eq!(cardenas_pages(0.0, 10.0), 0.0);
        // One row: exactly one page.
        assert!((cardenas_pages(100.0, 1.0) - 1.0).abs() < 1e-9);
        // Few rows over many pages: ≈ one page per row.
        assert!((cardenas_pages(1e6, 100.0) - 100.0).abs() < 0.1);
        // Many rows: saturates at the page count.
        assert!((cardenas_pages(100.0, 1e6) - 100.0).abs() < 1e-6);
        // Monotone in k.
        let mut prev = 0.0;
        for k in [1.0, 10.0, 100.0, 1000.0, 10_000.0] {
            let v = cardenas_pages(500.0, k);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn seq_scan_flat_index_fetch_linear() {
        let cat = catalog(100_000);
        let params = CostParams::default();
        let m = CostModel::new(&cat, &params);
        let scan = m.seq_scan_ms("t");
        // Sequential scan cost does not depend on selectivity at all; the
        // intersection cost grows linearly in the result.
        let low = m.index_intersection_ms("t", &[3000.0, 3000.0], 10.0);
        let high = m.index_intersection_ms("t", &[3000.0, 3000.0], 2000.0);
        assert!(
            low < scan,
            "low-sel intersection {low} should beat scan {scan}"
        );
        assert!(
            high > scan,
            "high-sel intersection {high} should lose to scan {scan}"
        );
        assert!(high > low);
    }

    #[test]
    fn crossover_fraction_matches_paper_ballpark() {
        // With default parameters the scan/intersection crossover must sit
        // in the paper's sub-percent region.
        let cat = catalog(100_000);
        let params = CostParams::default();
        let m = CostModel::new(&cat, &params);
        let scan = m.seq_scan_ms("t");
        let entries = [3000.0, 3000.0];
        let mut crossover = None;
        for permille in 1..50 {
            let rows = 100_000.0 * permille as f64 / 10_000.0; // 0.01% steps
            if m.index_intersection_ms("t", &entries, rows) > scan {
                crossover = Some(permille as f64 / 10_000.0);
                break;
            }
        }
        let c = crossover.expect("crossover in range");
        assert!(
            (0.0005..0.004).contains(&c),
            "crossover fraction {c} outside the paper's ballpark"
        );
    }

    #[test]
    fn monotonicity_in_cardinalities() {
        let cat = catalog(10_000);
        let params = CostParams::default();
        let m = CostModel::new(&cat, &params);
        for k in 1..20 {
            let a = k as f64 * 50.0;
            let b = a + 50.0;
            assert!(m.fetch_ms("t", a) <= m.fetch_ms("t", b));
            assert!(m.index_seek_ms("t", a) <= m.index_seek_ms("t", b));
            assert!(m.hash_join_ms(a, 100.0, 10.0) <= m.hash_join_ms(b, 100.0, 10.0));
            assert!(m.hash_join_ms(100.0, a, 10.0) <= m.hash_join_ms(100.0, b, 10.0));
            assert!(
                m.merge_join_ms(a, 100.0, 10.0, false, true)
                    <= m.merge_join_ms(b, 100.0, 10.0, false, true)
            );
            assert!(m.indexed_nl_join_ms(a, 100.0) <= m.indexed_nl_join_ms(b, 100.0));
            assert!(m.aggregate_ms(a, 5.0) <= m.aggregate_ms(b, 5.0));
        }
    }

    #[test]
    fn merge_join_sort_penalty() {
        let cat = catalog(100);
        let params = CostParams::default();
        let m = CostModel::new(&cat, &params);
        let sorted = m.merge_join_ms(10_000.0, 10_000.0, 100.0, true, true);
        let unsorted = m.merge_join_ms(10_000.0, 10_000.0, 100.0, false, false);
        assert!(unsorted > 2.0 * sorted);
    }
}
