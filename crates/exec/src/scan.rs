//! Access-path operators: sequential scan, partition-wise scan, index
//! seek, index intersection.

use std::ops::Range;

use rqo_expr::columnar::{select, Candidates};
use rqo_expr::Expr;
use rqo_storage::{Catalog, CostParams, CostTracker, Rid, Table};

use crate::batch::Batch;
use crate::columnar::SelVec;
use crate::morsel::{run_morsels, ExecOptions};
use crate::plan::IndexRange;

/// Number of B-tree levels charged as random I/Os per index descend.
const BTREE_DESCEND_IOS: u64 = 1;

/// Sequential scan with an optional pushed-down predicate.
///
/// The predicate runs over the table's stored columns, producing a
/// selection vector that one `take` per column gathers; without a
/// predicate the batch *is* the table's columns (shared, not copied).
/// Either way the batch carries only the columns `needed` names (`None`:
/// all; none: the first, as [`Batch::retain_columns`] keeps).
/// Charges one sequential page read per data page plus one CPU op per
/// row (the predicate/projection work).  Returns `None` when the query's
/// token fired mid-scan.
pub fn seq_scan(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    predicate: Option<&Expr>,
    needed: Option<&[String]>,
    opts: &ExecOptions,
) -> Option<Batch> {
    let whole = 0..catalog.table(table).expect("table exists").num_rows();
    let spans = std::slice::from_ref(&whole);
    scan_spans(
        catalog, params, tracker, table, predicate, spans, needed, opts,
    )
}

/// Partition-wise sequential scan over the surviving partitions of a
/// partitioned table.
///
/// Each surviving partition is a contiguous RID span of the canonical
/// concatenated table; adjacent surviving spans are merged and each
/// merged run charges its own sequential data pages, plus one CPU op per
/// surviving row — so a scan listing *every* partition charges exactly
/// what [`seq_scan`] charges, and pruning shows up as fewer page reads.
/// Builds only the columns `needed` names, as [`seq_scan`] does.
/// Returns `None` when the query's token fired mid-scan.
#[allow(clippy::too_many_arguments)]
pub fn partitioned_scan(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    predicate: Option<&Expr>,
    partitions: &[usize],
    needed: Option<&[String]>,
    opts: &ExecOptions,
) -> Option<Batch> {
    let spans = surviving_spans(catalog, table, partitions);
    scan_spans(
        catalog, params, tracker, table, predicate, &spans, needed, opts,
    )
}

/// The surviving RID spans of a partitioned table, ascending and with
/// adjacent spans merged (empty partitions vanish, so runs of surviving
/// partitions separated only by empty ones still coalesce).  Shared with
/// the optimizer's cost model so priced and executed page charges agree.
///
/// # Panics
///
/// Panics when the table has no partition layout, a partition index is
/// out of range, or the list is not strictly ascending.
pub fn surviving_spans(catalog: &Catalog, table: &str, partitions: &[usize]) -> Vec<Range<usize>> {
    let layout = catalog
        .partitioning(table)
        .unwrap_or_else(|| panic!("table {table} has no partition layout"));
    assert!(
        partitions.windows(2).all(|w| w[0] < w[1]),
        "partition list must be strictly ascending"
    );
    let mut spans: Vec<Range<usize>> = Vec::new();
    for &p in partitions {
        let s = layout.span(p);
        if s.is_empty() {
            continue;
        }
        match spans.last_mut() {
            Some(prev) if prev.end == s.start => prev.end = s.end,
            _ => spans.push(s),
        }
    }
    spans
}

/// The one scan body: filters the ascending, disjoint RID `spans` of
/// `table` and materializes the survivors in table order.
///
/// Charges are selectivity- and thread-independent, so they are made
/// centrally before any morsel runs.  Morsels are carved from the virtual
/// concatenation of the spans: boundaries depend only on `morsel_size`
/// and the spanned row count, which keeps rows, order, and metrics
/// bit-identical at any parallelism — and a partitioned scan with nothing
/// pruned bit-identical to the single-span [`seq_scan`].
#[allow(clippy::too_many_arguments)]
fn scan_spans(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    predicate: Option<&Expr>,
    spans: &[Range<usize>],
    needed: Option<&[String]>,
    opts: &ExecOptions,
) -> Option<Batch> {
    let t = catalog.table(table).expect("table exists");
    let total: usize = spans.iter().map(Range::len).sum();
    for s in spans {
        tracker.charge_seq_pages(params.data_pages(s.len(), t.row_width_bytes()));
    }
    tracker.charge_cpu_ops(total as u64);

    let n = t.num_rows();
    let Some(predicate) = predicate else {
        // Nothing to evaluate: a full scan shares the stored columns, a
        // pruned one gathers its spans.
        if total == n {
            return Some(whole(t, needed));
        }
        let ids: Vec<u32> = spans
            .iter()
            .flat_map(|s| s.start as u32..s.end as u32)
            .collect();
        return Some(whole(t, needed).take(SelVec::new(ids, n).ids()));
    };
    let bound = predicate.bind(t.schema()).expect("predicate binds");

    let parts = run_morsels(opts, total, |vmorsel| {
        // Translate the virtual morsel into actual RID sub-ranges (at
        // most one per span) and select within each.
        let mut ids: Vec<u32> = Vec::new();
        let mut voff = 0usize;
        for s in spans {
            let lo = vmorsel.start.max(voff);
            let hi = vmorsel.end.min(voff + s.len());
            if lo < hi {
                let actual = s.start + (lo - voff)..s.start + (hi - voff);
                ids.extend(select(&bound, t.columns(), Candidates::Range(actual)));
            }
            voff += s.len();
        }
        ids
    })?;
    Some(whole(t, needed).take(SelVec::new(parts.concat(), n).ids()))
}

/// Every row of `table` as a batch sharing the stored columns `needed`
/// names (`None`: all of them), so a `take` on it gathers only those.
fn whole(table: &Table, needed: Option<&[String]>) -> Batch {
    let all = Batch::new(table.schema().clone(), table.columns().to_vec());
    match needed {
        Some(names) => all.retain_columns(|name| names.iter().any(|n| n == name)),
        None => all,
    }
}

/// Resolves one index range to its RID list (run by run, so not in rid
/// order), charging the index descend plus sequential leaf-page reads
/// proportional to the entries touched.
pub(crate) fn rids_for_range(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    range: &IndexRange,
) -> Vec<Rid> {
    let index = catalog
        .secondary_index(table, &range.column)
        .unwrap_or_else(|| panic!("no secondary index on {table}.{}", range.column));
    tracker.charge_random_ios(BTREE_DESCEND_IOS);
    let rids = index.range(range.lo.as_ref(), range.hi.as_ref()).concat();
    tracker.charge_seq_pages(params.index_leaf_pages(rids.len()));
    tracker.charge_cpu_ops(rids.len() as u64);
    rids
}

/// Sorts and deduplicates a RID list (already so when it comes from
/// [`intersect_rids`]) and charges its fetch: one random
/// I/O per *distinct page* touched (densely clustered qualifying rows
/// coalesce while scattered rows — the common case at low selectivity —
/// pay one seek each, matching the paper's cost model) plus one CPU op
/// per row.
///
/// The page coalescing is a property of the *whole* sorted list, so every
/// caller charges one list in one call (the indexed nested-loops join:
/// one call per outer row's matches).
pub(crate) fn charge_fetch(
    table: &Table,
    params: &CostParams,
    tracker: &mut CostTracker,
    rids: &mut Vec<Rid>,
) {
    rids.sort_unstable();
    rids.dedup();
    let rows_per_page = (params.page_bytes / table.row_width_bytes()).max(1) as u64;
    let mut pages = 0u64;
    let mut last_page = u64::MAX;
    for &rid in rids.iter() {
        let page = rid as u64 / rows_per_page;
        if page != last_page {
            pages += 1;
            last_page = page;
        }
    }
    tracker.charge_random_ios(pages);
    tracker.charge_cpu_ops(rids.len() as u64);
}

/// Charges the fetch of `rids` (see [`charge_fetch`]) and gathers those
/// base-table rows, in RID order.
pub(crate) fn fetch_rows(
    table: &Table,
    params: &CostParams,
    tracker: &mut CostTracker,
    mut rids: Vec<Rid>,
) -> Batch {
    charge_fetch(table, params, tracker, &mut rids);
    whole(table, None).take(SelVec::new(rids, table.num_rows()).ids())
}

/// Charges the fetch of `rids`, applies the optional residual filter to
/// the fetched RIDs (the same `select` kernel a scan runs, morsel by
/// morsel over the RID list) and gathers the survivors' `needed` columns
/// — the shared tail of [`index_seek`] and [`index_intersection`].
/// Returns the batch plus the number of rows fetched before the residual
/// (the deduplicated RID count), which `EXPLAIN ANALYZE` reports as the
/// operator's `rows_in` and uses to size its morsel count.
fn fetch_and_filter(
    table: &Table,
    params: &CostParams,
    tracker: &mut CostTracker,
    mut rids: Vec<Rid>,
    residual: Option<&Expr>,
    needed: Option<&[String]>,
    opts: &ExecOptions,
) -> Option<(Batch, usize)> {
    charge_fetch(table, params, tracker, &mut rids);
    let fetched = rids.len();
    if let Some(p) = residual {
        let bound = p.bind(table.schema()).expect("residual binds");
        tracker.charge_cpu_ops(fetched as u64);
        let parts = run_morsels(opts, fetched, |morsel| {
            select(&bound, table.columns(), Candidates::List(&rids[morsel]))
        })?;
        rids = parts.concat();
    }
    let batch = whole(table, needed).take(SelVec::new(rids, table.num_rows()).ids());
    Some((batch, fetched))
}

/// Index seek: one range, fetch, residual filter.  The index descend and
/// leaf scan are one B-tree traversal on the calling thread; the row
/// fetch is morselized and builds only the columns `needed` names.
/// Returns the batch plus the number of rows fetched before the residual
/// filter, or `None` when the query's token fired mid-fetch.
///
/// The one list is sorted before its fetch is charged: a table-sized bitmap
/// would cost O(rows / 64) to read out a handful of rids.
#[allow(clippy::too_many_arguments)]
pub fn index_seek(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    range: &IndexRange,
    residual: Option<&Expr>,
    needed: Option<&[String]>,
    opts: &ExecOptions,
) -> Option<(Batch, usize)> {
    let t = catalog.table(table).expect("table exists");
    let rids = rids_for_range(catalog, params, tracker, table, range);
    fetch_and_filter(t, params, tracker, rids, residual, needed, opts)
}

/// Index intersection (the paper's risky plan): resolve each range's RID
/// list from its index, intersect, and fetch only rows matching *all*
/// ranges.
///
/// The fixed cost (index leaf scans, sized by the constant marginal
/// selectivities) does not depend on the predicates' joint selectivity;
/// the variable cost is one random I/O per qualifying row — the
/// `f₂ + v₂·x` line of the paper's analytical model.  The leaf scans and
/// the RID-list intersection (a bitmap AND, no list sorted) run on
/// the calling thread; the surviving-row fetch is morselized and builds
/// only the columns `needed` names.  Returns the batch plus the number
/// of rows fetched before the residual filter, or `None` when the
/// query's token fired.
///
/// # Panics
///
/// Panics when fewer than two ranges are supplied (use
/// [`index_seek`] instead).
#[allow(clippy::too_many_arguments)]
pub fn index_intersection(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    ranges: &[IndexRange],
    residual: Option<&Expr>,
    needed: Option<&[String]>,
    opts: &ExecOptions,
) -> Option<(Batch, usize)> {
    assert!(
        ranges.len() >= 2,
        "index intersection needs at least two ranges"
    );
    let t = catalog.table(table).expect("table exists");

    let rid_lists: Vec<Vec<Rid>> = ranges
        .iter()
        .map(|r| rids_for_range(catalog, params, tracker, table, r))
        .collect();
    // The merge work, Σ|list|, is charged up front: it does not depend on
    // where the intersection empties.
    let merge_work: u64 = rid_lists.iter().map(|s| s.len() as u64).sum();
    tracker.charge_cpu_ops(merge_work);
    let acc = intersect_rids(t.num_rows(), rid_lists, |_| {});
    fetch_and_filter(t, params, tracker, acc, residual, needed, opts)
}

/// The RIDs (each below `num_rows`) every one of `lists` holds,
/// ascending and distinct, with no list sorted.
///
/// The smallest list's rids are set in a bitmap of one bit per row; each
/// later list, by ascending length, keeps only the bits it also hits —
/// `step` sees the list first — and the walk stops as soon as none
/// survive.  The survivors are then read out word by word.  Each list
/// costs O(|list| + rows / 64), however its rids are ordered.
pub(crate) fn intersect_rids(
    num_rows: usize,
    mut lists: Vec<Vec<Rid>>,
    mut step: impl FnMut(&[Rid]),
) -> Vec<Rid> {
    lists.sort_by_key(Vec::len);
    let words = num_rows.div_ceil(64);
    let set = |bits: &mut [u64], rids: &[Rid]| {
        for &r in rids {
            bits[r as usize / 64] |= 1u64 << (r % 64);
        }
    };
    let mut acc = vec![0u64; words];
    set(&mut acc, &lists[0]);
    let mut hits = vec![0u64; words];
    for other in &lists[1..] {
        step(other);
        hits.fill(0);
        set(&mut hits, other);
        let mut any = 0u64;
        for (a, h) in acc.iter_mut().zip(&hits) {
            *a &= h;
            any |= *a;
        }
        if any == 0 {
            return Vec::new();
        }
    }
    let mut out = Vec::new();
    for (w, &word) in acc.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push((w * 64) as Rid + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::{DataType, Schema, TableBuilder, Value};

    /// 1000 rows: x = i, y = i % 10.
    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "t",
            Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]),
            1000,
        );
        for i in 0..1000i64 {
            b.push_row(&[Value::Int(i), Value::Int(i % 10)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(b.finish()).unwrap();
        cat.ensure_secondary_index("t", "x").unwrap();
        cat.ensure_secondary_index("t", "y").unwrap();
        cat
    }

    #[test]
    fn seq_scan_filters_and_charges() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let pred = Expr::col("x").lt(Expr::lit(100i64));
        let batch = seq_scan(
            &cat,
            &params,
            &mut tracker,
            "t",
            Some(&pred),
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(batch.len(), 100);
        assert_eq!(tracker.cpu_ops, 1000);
        let expected_pages = params.data_pages(1000, cat.table("t").unwrap().row_width_bytes());
        assert_eq!(tracker.seq_pages, expected_pages);
        assert_eq!(tracker.random_ios, 0);
        // Unfiltered scan returns everything.
        let mut t2 = CostTracker::new();
        let all = seq_scan(
            &cat,
            &params,
            &mut t2,
            "t",
            None,
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(all.len(), 1000);
    }

    #[test]
    fn seq_scan_cost_is_selectivity_independent() {
        let cat = catalog();
        let params = CostParams::default();
        let narrow = Expr::col("x").lt(Expr::lit(1i64));
        let wide = Expr::col("x").lt(Expr::lit(999i64));
        let mut ta = CostTracker::new();
        let mut tb = CostTracker::new();
        seq_scan(
            &cat,
            &params,
            &mut ta,
            "t",
            Some(&narrow),
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        seq_scan(
            &cat,
            &params,
            &mut tb,
            "t",
            Some(&wide),
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(ta, tb);
    }

    /// Same 1000 rows as [`catalog`], range-partitioned on `x` at
    /// 250/500/750 (4 partitions of 250 rows each).  Rows arrive in
    /// ascending `x` order, so the concatenated table is bit-identical
    /// to the single-blob one.
    fn partitioned_catalog() -> Catalog {
        use rqo_storage::{PartitionSpec, PartitionedTableBuilder};
        let spec = PartitionSpec::Range {
            column: "x".into(),
            bounds: vec![Value::Int(250), Value::Int(500), Value::Int(750)],
        };
        let mut b = PartitionedTableBuilder::new(
            "t",
            Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]),
            spec,
        );
        for i in 0..1000i64 {
            b.push_row(&[Value::Int(i), Value::Int(i % 10)]);
        }
        let (table, layout) = b.finish();
        let mut cat = Catalog::new();
        cat.add_partitioned_table(table, layout).unwrap();
        cat
    }

    #[test]
    fn partitioned_all_parts_is_bit_identical_to_seq_scan() {
        let single = catalog();
        let parted = partitioned_catalog();
        let params = CostParams::default();
        let all = [0usize, 1, 2, 3];
        let pred = Expr::col("y").eq(Expr::lit(3i64));
        for pred in [None, Some(&pred)] {
            let mut ts = CostTracker::new();
            let reference = seq_scan(
                &single,
                &params,
                &mut ts,
                "t",
                pred,
                None,
                &ExecOptions::default(),
            )
            .unwrap();
            // Same rows, same charges at every thread count.
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(64);
                let mut tp = CostTracker::new();
                let b = partitioned_scan(&parted, &params, &mut tp, "t", pred, &all, None, &opts)
                    .unwrap();
                assert_eq!(b.to_rows(), reference.to_rows(), "threads={threads}");
                assert_eq!(tp, ts, "threads={threads}");
            }
        }
    }

    #[test]
    fn pruned_scan_reads_only_surviving_partitions() {
        let parted = partitioned_catalog();
        let params = CostParams::default();
        let w = parted.table("t").unwrap().row_width_bytes();
        let pred = Expr::col("x").between(Expr::lit(250i64), Expr::lit(499i64));
        // Only partition 1 can match: pages and CPU charged for 250 rows.
        let mut tracker = CostTracker::new();
        let batch = partitioned_scan(
            &parted,
            &params,
            &mut tracker,
            "t",
            Some(&pred),
            &[1],
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(batch.len(), 250);
        assert_eq!(tracker.cpu_ops, 250);
        assert_eq!(tracker.seq_pages, params.data_pages(250, w));
        // Rows come back in table order.
        assert_eq!(batch.to_rows()[0][0], Value::Int(250));
        assert_eq!(batch.to_rows()[249][0], Value::Int(499));
    }

    #[test]
    fn adjacent_surviving_partitions_merge_into_one_page_run() {
        let parted = partitioned_catalog();
        let params = CostParams::default();
        let w = parted.table("t").unwrap().row_width_bytes();
        // Partitions 1 and 2 are adjacent: one merged 500-row page run,
        // not two 250-row runs (which could round up to more pages).
        let mut tracker = CostTracker::new();
        partitioned_scan(
            &parted,
            &params,
            &mut tracker,
            "t",
            None,
            &[1, 2],
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(tracker.seq_pages, params.data_pages(500, w));
        // Non-adjacent survivors charge per run.
        let mut gap = CostTracker::new();
        partitioned_scan(
            &parted,
            &params,
            &mut gap,
            "t",
            None,
            &[0, 2],
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(
            gap.seq_pages,
            params.data_pages(250, w) + params.data_pages(250, w)
        );
    }

    #[test]
    fn index_seek_range() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let range = IndexRange::between("x", Value::Int(100), Value::Int(199));
        let (batch, fetched) = index_seek(
            &cat,
            &params,
            &mut tracker,
            "t",
            &range,
            None,
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(batch.len(), 100);
        assert_eq!(fetched, 100);
        assert!(tracker.random_ios > 0);
        // No full-table page reads: leaf pages only.
        assert!(tracker.seq_pages < params.data_pages(1000, 24));
    }

    #[test]
    fn index_seek_residual() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let range = IndexRange::between("x", Value::Int(0), Value::Int(99));
        let residual = Expr::col("y").eq(Expr::lit(3i64));
        let (batch, fetched) = index_seek(
            &cat,
            &params,
            &mut tracker,
            "t",
            &range,
            Some(&residual),
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(batch.len(), 10); // x in 0..100 with x % 10 == 3
        assert_eq!(fetched, 100); // counted before the residual
    }

    fn intersect(cat: &Catalog, tracker: &mut CostTracker, ranges: &[IndexRange]) -> Batch {
        let params = CostParams::default();
        index_intersection(
            cat,
            &params,
            tracker,
            "t",
            ranges,
            None,
            None,
            &ExecOptions::default(),
        )
        .unwrap()
        .0
    }

    #[test]
    fn index_intersection_matches_conjunction() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let ranges = vec![
            IndexRange::between("x", Value::Int(0), Value::Int(499)),
            IndexRange::eq("y", Value::Int(7)),
        ];
        let batch = intersect(&cat, &mut tracker, &ranges);
        // x in 0..500 and x % 10 == 7: 50 rows.
        assert_eq!(batch.len(), 50);

        // Equivalent seq scan agrees.
        let pred = Expr::col("x")
            .between(Expr::lit(0i64), Expr::lit(499i64))
            .and(Expr::col("y").eq(Expr::lit(7i64)));
        let mut t2 = CostTracker::new();
        let scan = seq_scan(
            &cat,
            &params,
            &mut t2,
            "t",
            Some(&pred),
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(scan.len(), batch.len());
    }

    #[test]
    fn intersection_fetch_cost_scales_with_result() {
        let cat = catalog();
        // Small result.
        let mut small = CostTracker::new();
        intersect(
            &cat,
            &mut small,
            &[
                IndexRange::between("x", Value::Int(0), Value::Int(49)),
                IndexRange::eq("y", Value::Int(7)),
            ],
        );
        // Larger result, same marginal index work for y.
        let mut large = CostTracker::new();
        intersect(
            &cat,
            &mut large,
            &[
                IndexRange::between("x", Value::Int(0), Value::Int(999)),
                IndexRange::eq("y", Value::Int(7)),
            ],
        );
        assert!(large.random_ios > small.random_ios);
    }

    #[test]
    fn empty_intersection_short_circuits() {
        let cat = catalog();
        let mut tracker = CostTracker::new();
        let batch = intersect(
            &cat,
            &mut tracker,
            &[
                IndexRange::between("x", Value::Int(0), Value::Int(9)),
                IndexRange::eq("y", Value::Int(7)),
                IndexRange::between("x", Value::Int(500), Value::Int(599)),
            ],
        );
        assert_eq!(batch.len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least two ranges")]
    fn intersection_needs_two_ranges() {
        let cat = catalog();
        let mut tracker = CostTracker::new();
        intersect(&cat, &mut tracker, &[IndexRange::eq("y", Value::Int(1))]);
    }

    /// Sort-and-merge intersection of two ascending RID lists: the
    /// oracle [`intersect_rids`] is checked against.
    fn intersect_sorted(a: &[Rid], b: &[Rid]) -> Vec<Rid> {
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// The sort-and-merge intersection of `lists`: each sorted, smallest
    /// first, stopping once empty.
    fn merge_oracle(mut lists: Vec<Vec<Rid>>) -> Vec<Rid> {
        for l in &mut lists {
            l.sort_unstable();
        }
        lists.sort_by_key(Vec::len);
        let mut acc = lists[0].clone();
        for other in &lists[1..] {
            acc = intersect_sorted(&acc, other);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// `rows` as `t(x, y, z)`, each column indexed.
    fn xyz_catalog(rows: &[(i64, i64, i64)]) -> Catalog {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Int),
            ("y", DataType::Int),
            ("z", DataType::Int),
        ]);
        let mut b = TableBuilder::new("t", schema, rows.len());
        for &(x, y, z) in rows {
            b.push_row(&[Value::Int(x), Value::Int(y), Value::Int(z)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(b.finish()).unwrap();
        for c in ["x", "y", "z"] {
            cat.ensure_secondary_index("t", c).unwrap();
        }
        cat
    }

    proptest::proptest! {
        /// The bitmap AND returns the conjunction's rows and charges what
        /// sorting and merging the lists charged.  1–300 rows cross the
        /// bitmap's 64- and 128-row word edges; `lo > hi` gives an empty
        /// range, two ranges on one column may be disjoint, and
        /// `repeat_first` makes the last range identical to the first.
        #[test]
        fn intersection_is_the_conjunction_at_merge_charges(
            rows in proptest::collection::vec((0i64..8, 0i64..8, 0i64..8), 1..=300),
            spec in proptest::collection::vec((0usize..3, -1i64..9, -1i64..9), 2..=3),
            repeat_first in proptest::arbitrary::any::<bool>(),
        ) {
            // Small fixed lists, given out of order: nothing is sorted.
            let fixed: [(Vec<Rid>, Vec<Rid>, Vec<Rid>); 4] = [
                (vec![5, 1, 3], vec![7, 2, 5, 3], vec![3, 5]),
                (vec![], vec![2, 1], vec![]),
                (vec![2, 1], vec![4, 3], vec![]),
                (vec![3, 1, 2], vec![1, 2, 3], vec![1, 2, 3]),
            ];
            for (a, b, want) in fixed {
                proptest::prop_assert_eq!(intersect_rids(8, vec![a, b], |_| {}), want);
            }

            let cat = xyz_catalog(&rows);
            let params = CostParams::default();
            let t = cat.table("t").unwrap();
            let mut ranges: Vec<IndexRange> = spec
                .iter()
                .map(|&(c, lo, hi)| {
                    IndexRange::between(["x", "y", "z"][c], Value::Int(lo), Value::Int(hi))
                })
                .collect();
            if repeat_first {
                let first = ranges[0].clone();
                *ranges.last_mut().unwrap() = first;
            }

            // Reference charges: the same leaf scans, the Σ|list| merge
            // work, and the fetch of the sort-and-merge result.
            let mut want = CostTracker::new();
            let lists: Vec<Vec<Rid>> = ranges
                .iter()
                .map(|r| rids_for_range(&cat, &params, &mut want, "t", r))
                .collect();
            want.charge_cpu_ops(lists.iter().map(|l| l.len() as u64).sum());
            let mut merged = merge_oracle(lists.clone());
            charge_fetch(t, &params, &mut want, &mut merged);
            proptest::prop_assert_eq!(
                &intersect_rids(t.num_rows(), lists, |_| {}),
                &merged
            );

            let conjunction = ranges
                .iter()
                .map(|r| {
                    let bound = |b: &std::ops::Bound<Value>| match b {
                        std::ops::Bound::Included(v) => Expr::lit(v.clone()),
                        other => unreachable!("closed ranges only: {other:?}"),
                    };
                    Expr::col(r.column.as_str()).between(bound(&r.lo), bound(&r.hi))
                })
                .reduce(Expr::and)
                .unwrap();
            let mut ts = CostTracker::new();
            let serial = ExecOptions::default();
            let scan = seq_scan(&cat, &params, &mut ts, "t", Some(&conjunction), None, &serial)
                .unwrap();
            for opts in [serial, ExecOptions::with_threads(2).with_morsel_size(16)] {
                let mut got = CostTracker::new();
                let (batch, fetched) =
                    index_intersection(&cat, &params, &mut got, "t", &ranges, None, None, &opts)
                        .unwrap();
                proptest::prop_assert_eq!(batch.to_rows(), scan.to_rows());
                proptest::prop_assert_eq!(fetched, merged.len());
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn index_paths_are_bit_identical_at_every_thread_count() {
        let cat = catalog();
        let params = CostParams::default();
        let range = IndexRange::between("x", Value::Int(100), Value::Int(499));
        let residual = Expr::col("y").eq(Expr::lit(7i64));
        let ranges = vec![
            IndexRange::between("x", Value::Int(0), Value::Int(499)),
            IndexRange::eq("y", Value::Int(7)),
        ];
        let mut ts = CostTracker::new();
        let seek = index_seek(
            &cat,
            &params,
            &mut ts,
            "t",
            &range,
            Some(&residual),
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        let mut ti = CostTracker::new();
        let sect = index_intersection(
            &cat,
            &params,
            &mut ti,
            "t",
            &ranges,
            None,
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        for threads in [1, 2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(10);
            let mut tp = CostTracker::new();
            let par = index_seek(
                &cat,
                &params,
                &mut tp,
                "t",
                &range,
                Some(&residual),
                None,
                &opts,
            )
            .unwrap();
            assert_eq!(par.0.to_rows(), seek.0.to_rows(), "threads={threads}");
            assert_eq!((par.1, tp), (seek.1, ts), "threads={threads}");
            let mut tp = CostTracker::new();
            let par = index_intersection(&cat, &params, &mut tp, "t", &ranges, None, None, &opts)
                .unwrap();
            assert_eq!(par.0.to_rows(), sect.0.to_rows(), "threads={threads}");
            assert_eq!((par.1, tp), (sect.1, ti), "threads={threads}");
        }
    }

    #[test]
    fn seq_scan_matches_row_at_a_time_reference() {
        let cat = catalog();
        let params = CostParams::default();
        let t = cat.table("t").unwrap();
        let preds: Vec<Option<Expr>> = vec![
            None,
            Some(Expr::col("y").eq(Expr::lit(3i64))),
            Some(Expr::col("x").between(Expr::lit(100i64), Expr::lit(299i64))),
            Some(Expr::col("x").lt(Expr::lit(0i64))), // none selected
        ];
        for pred in &preds {
            let bound = pred.as_ref().map(|p| p.bind(t.schema()).unwrap());
            let reference: Vec<Vec<Value>> = (0..t.num_rows() as Rid)
                .map(|rid| t.row(rid))
                .filter(|row| bound.as_ref().is_none_or(|p| rqo_expr::eval_bool(p, row)))
                .collect();
            let mut ts = CostTracker::new();
            let whole = seq_scan(
                &cat,
                &params,
                &mut ts,
                "t",
                pred.as_ref(),
                None,
                &ExecOptions::default(),
            )
            .unwrap();
            assert_eq!(whole.to_rows(), reference, "pred={pred:?}");
            for threads in [1, 2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(64);
                let mut tp = CostTracker::new();
                let par =
                    seq_scan(&cat, &params, &mut tp, "t", pred.as_ref(), None, &opts).unwrap();
                assert_eq!(par.to_rows(), reference, "pred={pred:?} threads={threads}");
                assert_eq!(tp, ts, "pred={pred:?} threads={threads}");
            }
        }
    }

    #[test]
    fn fetch_coalesces_same_page_rids() {
        let cat = catalog();
        let params = CostParams::default();
        let t = cat.table("t").unwrap();
        // Rows are 32 bytes here, so a page holds 256 of them: 100
        // adjacent RIDs sit on one page, while page-stride RIDs each pay a
        // random I/O.
        let rows_per_page = params.page_bytes / t.row_width_bytes();
        assert_eq!(rows_per_page, 256);
        let mut dense = CostTracker::new();
        fetch_rows(t, &params, &mut dense, (0..100).collect());
        assert_eq!(dense.random_ios, 1);
        let mut sparse = CostTracker::new();
        fetch_rows(
            t,
            &params,
            &mut sparse,
            (0..1000).step_by(rows_per_page).collect(),
        );
        assert_eq!(sparse.random_ios, 4);
        // Duplicate RIDs are fetched once.
        let mut dup = CostTracker::new();
        let rows = fetch_rows(t, &params, &mut dup, vec![5, 5, 5]);
        assert_eq!(rows.len(), 1);
    }
}
