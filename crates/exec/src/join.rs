//! Join operators: hash join, merge join, indexed nested loops, and the
//! star semijoin strategy.
//!
//! Every join first decides *which* rows pair up — as two id lists, one
//! per side — and only then builds its output: one typed `take` per
//! output column its consumer reads, and none for a side that passes
//! through.

use std::borrow::Cow;
use std::sync::Arc;

use rqo_storage::{Catalog, ColumnVec, CostParams, CostTracker, Rid, Schema, Value};

use crate::batch::Batch;
use crate::keys::{KeyColumns, KeyTable};
use crate::morsel::{run_morsels, ExecOptions};
use crate::plan::SemiJoinLeg;
use crate::scan::{charge_fetch, fetch_rows, intersect_rids, rids_for_range, seq_scan};

/// One join input and, morsel by morsel, the row of it each output row
/// takes.
struct Side<'a> {
    schema: &'a Schema,
    columns: &'a [Arc<ColumnVec>],
    ids: Vec<Vec<u32>>,
}

impl<'a> Side<'a> {
    fn of(batch: &'a Batch, ids: Vec<Vec<u32>>) -> Self {
        Self {
            schema: &batch.schema,
            columns: batch.columns(),
            ids,
        }
    }

    /// Whether the ids are exactly `0..len`: every input row once, in
    /// order — a probe side whose every row met exactly one build row.
    fn passes_through(&self) -> bool {
        let len = self.columns.first().map_or(0, |c| c.len());
        self.ids.iter().map(Vec::len).sum::<usize>() == len
            && self.ids.iter().flatten().copied().eq(0..len as u32)
    }
}

/// The join output: row `k` is the `left` row and then the `right` row
/// at place `k` of their ids, under [`Schema::join`]'s names.  Only the
/// columns named in `needed` are built (`None`: all); when it names none,
/// one column stays, as in [`Batch::retain_columns`].  A side that passes
/// through hands on its input columns uncopied — and the one column kept
/// for the row count is one of those when it can be.
fn gather(left: Side<'_>, right: Side<'_>, needed: Option<&[String]>) -> Batch {
    let schema = left.schema.join(right.schema, "l", "r");
    let split = left.columns.len();
    let sides = [left, right];
    let through = [sides[0].passes_through(), sides[1].passes_through()];
    let mut keep: Vec<usize> = (0..schema.len())
        .filter(|&c| needed.is_none_or(|names| names.contains(&schema.column(c).name)))
        .collect();
    if keep.is_empty() {
        keep.push(if through[1] && !through[0] { split } else { 0 });
    }
    // A side's ids are concatenated once, and only if it is gathered.
    let mut flat: [Option<Vec<u32>>; 2] = [None, None];
    let columns = keep
        .iter()
        .map(|&c| {
            let s = usize::from(c >= split);
            let col = &sides[s].columns[c - s * split];
            if through[s] {
                return Arc::clone(col);
            }
            let ids = flat[s].get_or_insert_with(|| sides[s].ids.concat());
            Arc::new(col.take(ids))
        })
        .collect();
    Batch::new(schema.project(&keep), columns)
}

/// The key column `key` of `batch`, and its values (arbitrary at NULL
/// positions).
///
/// # Panics
///
/// Panics when the column is not `Int`.  Every planned join follows an FK
/// edge, and [`Catalog::add_foreign_key`] admits only `Int` columns, so
/// only a hand-built plan gets here with another type.
fn int_column<'a>(batch: &'a Batch, key: &str) -> (&'a ColumnVec, &'a [i64]) {
    let ord = batch.schema.expect_index(key);
    let col = &*batch.columns()[ord];
    let ColumnVec::Int { values, .. } = col else {
        panic!(
            "join key {key:?} is {}, not INT",
            batch.schema.column(ord).data_type
        )
    };
    (col, values)
}

/// The key column `key` of `batch` as `Option<i64>`s (`None` is NULL).
///
/// # Panics
///
/// As [`int_column`].
fn int_key<'a>(batch: &'a Batch, key: &str) -> impl Fn(usize) -> Option<i64> + Sync + 'a {
    let (col, values) = int_column(batch, key);
    let nulls = col.null_mask();
    move |i| (!nulls.is_some_and(|m| m.is_null(i))).then(|| values[i])
}

/// Marks the end of a chain of build rows.
const END: u32 = u32::MAX;

/// The most chain heads a direct-addressed build allocates.  2¹⁸ `u32`
/// heads are 1 MiB, which stays in one core's L2.  Measured on a 2-vCPU
/// x86-64 host (2 MiB of L2 per core), a 48-row build probed by 300 k rows
/// took 1.4 ms over 2¹⁸ direct heads against 2.2 ms through the key table,
/// and 2.7 ms over 2²⁰ heads against 1.9 ms.
const DIRECT_SLOTS: u64 = 1 << 18;

/// Where each key's chain of build rows starts.
enum Heads {
    /// A NULL-free build whose keys span at most the direct-addressing
    /// bound: key `k`'s chain starts at `head[k − min]` (`END`: no row).
    Direct { min: i64, head: Vec<u32> },
    /// Any other build: the chain of the key with id `id` in `table`
    /// starts at `head[id]`.
    Table { table: KeyTable, head: Vec<u32> },
}

impl Heads {
    /// Chains the build rows of each key through `next` (filled back to
    /// front, so every chain ascends) and records where each chain
    /// starts: directly over `[min, max]` of `values` when neither join
    /// key is `nullable` and that span is within the bound — measured by
    /// `abs_diff`, so no key domain overflows it — and through the key
    /// table of `keys` otherwise.
    fn build(keys: &KeyColumns<'_>, values: &[i64], nullable: bool, next: &mut [u32]) -> Self {
        let span = (!nullable).then(|| values.iter().min().zip(values.iter().max()));
        match span.flatten().map(|(&min, &max)| (min, max.abs_diff(min))) {
            Some((min, span)) if span < DIRECT_SLOTS => {
                let mut head = vec![END; span as usize + 1];
                for (i, &k) in values.iter().enumerate().rev() {
                    next[i] = std::mem::replace(&mut head[k.abs_diff(min) as usize], i as u32);
                }
                Heads::Direct { min, head }
            }
            _ => {
                let width = keys.width();
                let words = keys.encode(0..values.len());
                let mut table = KeyTable::new(width);
                let mut head: Vec<u32> = Vec::new();
                for (i, key) in words.chunks_exact(width).enumerate().rev() {
                    let id = table.insert(key) as usize;
                    if id == head.len() {
                        head.push(END);
                    }
                    next[i] = std::mem::replace(&mut head[id], i as u32);
                }
                Heads::Table { table, head }
            }
        }
    }
}

/// Hash join: builds on `build`, probes with `probe`.  Keys are `Int`
/// columns, because every planned join follows an FK edge and
/// [`Catalog::add_foreign_key`] admits only `Int` columns.  NULL keys join
/// with each other, matching `Value::total_cmp`'s NULL-equals-NULL.
///
/// Charges one hash insert per build row, one probe per probe row, and one
/// CPU op per output row.  Output rows are `build ++ probe` columns, in
/// probe order and, within one probe row, build order.
///
/// The build, one pass on the calling thread, chains the rows of each key
/// through a `next` array, so each key's rows come out in ascending build
/// order, and records where each chain starts.  When neither key column
/// has NULLs and the build keys span at most 2¹⁸ values, the chain heads
/// are an array over `[min, max]` of the build keys: a probe morsel reads
/// the probe key column in place, and a probe row costs one subtract, one
/// bounds check and one load.  Otherwise every build row gets its key's
/// dense id in the crate's one key table (`keys.rs`, shared with
/// [`crate::agg::hash_aggregate`]), the heads are indexed by id, and a
/// probe morsel encodes its keys and looks them up in the read-only
/// table.  Probe morsels walk the chains and emit a build id and a probe
/// id per output row, kept in morsel order.  Only the output columns
/// named in `needed` are built (`None`: all), and when every probe row
/// meets exactly one build row — an FK probe whose every key is in the
/// build — the probe columns are the input's, uncopied.  All three charges
/// are totals over input/output sizes, so rows, row order, and costs are
/// the same for every thread count, morsel size, key domain and `needed`.
/// Returns `None` when the query's token fired during the probe.
///
/// # Panics
///
/// Panics when either key column is not `Int` (a hand-built plan).
pub fn hash_join(
    tracker: &mut CostTracker,
    build: Batch,
    probe: Batch,
    build_key: &str,
    probe_key: &str,
    needed: Option<&[String]>,
    opts: &ExecOptions,
) -> Option<Batch> {
    let ((bcol, bvals), (pcol, pvals)) =
        (int_column(&build, build_key), int_column(&probe, probe_key));
    // A NULL on either side widens both sides' keys by the NULL flags.
    let nullable = bcol.null_mask().is_some() || pcol.null_mask().is_some();
    let (bkeys, pkeys) = (
        KeyColumns::new(vec![bcol], nullable),
        KeyColumns::new(vec![pcol], nullable),
    );
    let width = bkeys.width();
    tracker.charge_hash_builds(build.len() as u64);
    let mut next: Vec<u32> = vec![END; build.len()];
    let heads = Heads::build(&bkeys, bvals, nullable, &mut next);

    tracker.charge_hash_probes(probe.len() as u64);
    let parts = run_morsels(opts, probe.len(), |morsel| {
        let mut bids: Vec<u32> = Vec::with_capacity(morsel.len());
        let mut pids: Vec<u32> = Vec::with_capacity(morsel.len());
        let mut emit = |mut b: u32, i: usize| {
            while b != END {
                bids.push(b);
                pids.push(i as u32);
                b = next[b as usize];
            }
        };
        match &heads {
            Heads::Direct { min, head } => {
                let keys = &pvals[morsel.clone()];
                for (i, &k) in morsel.zip(keys) {
                    // Below `min` the difference wraps past every slot.
                    let slot = k.wrapping_sub(*min) as u64;
                    if slot < head.len() as u64 {
                        emit(head[slot as usize], i);
                    }
                }
            }
            Heads::Table { table, head } => {
                let words = pkeys.encode(morsel.clone());
                for (key, i) in words.chunks_exact(width).zip(morsel) {
                    if let Some(id) = table.get(key) {
                        emit(head[id as usize], i);
                    }
                }
            }
        }
        (bids, pids)
    })?;
    let (bids, pids): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    tracker.charge_cpu_ops(pids.iter().map(Vec::len).sum::<usize>() as u64);
    Some(gather(
        Side::of(&build, bids),
        Side::of(&probe, pids),
        needed,
    ))
}

/// One merge-join input's keys in key order (NULL first, as
/// `Value::total_cmp` orders it, when `K` is `Option<i64>`), and the input
/// row of each — `None` when the keys were already in order, so key `i`
/// is row `i`.  Keys not already sorted are sorted here (stably), charging
/// `n·log₂(n)` CPU ops.
fn sorted_keys<'a, K: Ord + Copy>(
    tracker: &mut CostTracker,
    keys: Cow<'a, [K]>,
) -> (Cow<'a, [K]>, Option<Vec<u32>>) {
    if keys.is_sorted() {
        return (keys, None);
    }
    let n = keys.len();
    tracker.charge_cpu_ops(n as u64 * (n.max(2) as f64).log2().ceil() as u64);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&i| keys[i as usize]);
    let sorted = order.iter().map(|&i| keys[i as usize]).collect();
    (Cow::Owned(sorted), Some(order))
}

/// The first place after `lo` in sorted `keys` whose key is not below
/// `key`, where `keys[lo]` is below it: steps of 1, 2, 4, … bracket the
/// place, then a binary search finds it inside the bracket.  Crossing `d`
/// keys takes about `2·log₂(d)` comparisons, and a step of one place
/// takes one.
fn gallop<K: Ord>(keys: &[K], mut lo: usize, key: &K) -> usize {
    let mut step = 1;
    while lo + step < keys.len() && keys[lo + step] < *key {
        lo += step;
        step *= 2;
    }
    let hi = keys.len().min(lo + step);
    lo + 1 + keys[lo + 1..hi].partition_point(|k| k < key)
}

/// The matching rows of two merge-join inputs' keys, as [`merge_join`]
/// orders them: sorts each side as [`sorted_keys`] does, then walks both
/// in key order, crossing each run of non-matching keys by [`gallop`] and
/// emitting the cross product of each pair of equal-key runs.
fn merge_keys<K: Ord + Copy>(
    tracker: &mut CostTracker,
    left: Cow<'_, [K]>,
    right: Cow<'_, [K]>,
) -> (Vec<u32>, Vec<u32>) {
    let (l, lorder) = sorted_keys(tracker, left);
    let (r, rorder) = sorted_keys(tracker, right);
    tracker.charge_cpu_ops((l.len() + r.len()) as u64);
    let (mut lids, mut rids): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0usize, 0usize);
    while i < l.len() && j < r.len() {
        match l[i].cmp(&r[j]) {
            std::cmp::Ordering::Less => i = gallop(&l, i, &r[j]),
            std::cmp::Ordering::Greater => j = gallop(&r, j, &l[i]),
            std::cmp::Ordering::Equal => {
                let key = l[i];
                let i_end = i + l[i..].iter().take_while(|&&k| k == key).count();
                let j_end = j + r[j..].iter().take_while(|&&k| k == key).count();
                for l in i as u32..i_end as u32 {
                    lids.extend(std::iter::repeat_n(l, j_end - j));
                    rids.extend(j as u32..j_end as u32);
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    // Places in key order → input rows.
    for (ids, order) in [(&mut lids, lorder), (&mut rids, rorder)] {
        if let Some(order) = order {
            ids.iter_mut().for_each(|id| *id = order[*id as usize]);
        }
    }
    tracker.charge_cpu_ops(lids.len() as u64);
    (lids, rids)
}

/// Merge join on equality of `Int` keys, as [`hash_join`].  Inputs not
/// already sorted on their key are sorted first (an in-memory sort; the
/// experiments' merge joins consume clustered scans, which arrive sorted
/// and pay nothing).
///
/// The sort and the merge are one ordered pass on the calling thread over
/// the two key columns that yields the matching left and right ids; the
/// columns named in `needed` are then gathered from them, as in
/// [`hash_join`].  When neither key column has NULLs, the pass reads the
/// columns in place, and an input already in key order is not copied.
/// The merge crosses a run of keys with no partner by galloping, so a
/// small input meets a large sorted one in about `small · log₂(large)`
/// steps, and two interleaved inputs of equal size still merge in linear
/// time.  Charges are totals over input/output sizes, as if every key were
/// stepped over.  Returns `None` when the query's token has fired.
///
/// # Panics
///
/// Panics when either key column is not `Int`.
pub fn merge_join(
    tracker: &mut CostTracker,
    left: Batch,
    right: Batch,
    left_key: &str,
    right_key: &str,
    needed: Option<&[String]>,
    opts: &ExecOptions,
) -> Option<Batch> {
    let ((lcol, lvals), (rcol, rvals)) =
        (int_column(&left, left_key), int_column(&right, right_key));
    let (lids, rids) = if lcol.null_mask().is_none() && rcol.null_mask().is_none() {
        merge_keys(tracker, Cow::Borrowed(lvals), Cow::Borrowed(rvals))
    } else {
        let keys = |batch: &Batch, key: &str| -> Vec<Option<i64>> {
            (0..batch.len()).map(int_key(batch, key)).collect()
        };
        merge_keys(
            tracker,
            Cow::Owned(keys(&left, left_key)),
            Cow::Owned(keys(&right, right_key)),
        )
    };
    if opts.check_stop().is_some() {
        return None;
    }
    Some(gather(
        Side::of(&left, vec![lids]),
        Side::of(&right, vec![rids]),
        needed,
    ))
}

/// Indexed nested-loops join: for each outer row, probe the inner table's
/// secondary index on `inner_index_column` with the outer `outer_key`
/// value and fetch the matching inner rows.
///
/// Charges, per outer row, one random I/O for the index descend plus one
/// random I/O per matched (scattered) inner row — the access pattern that
/// makes this plan unbeatable for a handful of outer rows and hopeless for
/// thousands (Experiment 2's low-selectivity regime).
///
/// Outer rows are morselized; each morsel probes the (read-only) index
/// and emits an outer row and an inner RID per match, charging a
/// morsel-local tracker.  Every outer row's charges (descend, per-match
/// CPU, its own `charge_fetch`) are independent of the other rows, so
/// summing the morsel trackers — all-integer counters — gives the same
/// totals for every morsel size, and keeping morsel outputs in index
/// order keeps outer order.  The columns named in `needed` are then
/// gathered, as in [`hash_join`].  Returns `None` when the query's token
/// fired.
#[allow(clippy::too_many_arguments)]
pub fn indexed_nl_join(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    outer: Batch,
    inner_table: &str,
    inner_index_column: &str,
    outer_key: &str,
    needed: Option<&[String]>,
    opts: &ExecOptions,
) -> Option<Batch> {
    let inner = catalog.table(inner_table).expect("inner table exists");
    let index = catalog
        .secondary_index(inner_table, inner_index_column)
        .unwrap_or_else(|| panic!("no secondary index on {inner_table}.{inner_index_column}"));
    let keys = &outer.columns()[outer.schema.expect_index(outer_key)];

    let parts = run_morsels(opts, outer.len(), |morsel| {
        let mut local = CostTracker::new();
        let (mut oids, mut iids): (Vec<u32>, Vec<Rid>) = (Vec::new(), Vec::new());
        for o in morsel {
            local.charge_random_ios(1); // descend to the leaf for this key
            let mut rids = index.lookup_eq(&keys.value(o)).concat();
            local.charge_cpu_ops(rids.len() as u64);
            charge_fetch(inner, params, &mut local, &mut rids);
            oids.extend(std::iter::repeat_n(o as u32, rids.len()));
            iids.extend(rids);
        }
        (oids, iids, local)
    })?;
    let (mut oids, mut iids) = (
        Vec::with_capacity(parts.len()),
        Vec::with_capacity(parts.len()),
    );
    for (o, i, local) in parts {
        tracker.absorb(&local);
        oids.push(o);
        iids.push(i);
    }
    tracker.charge_cpu_ops(oids.iter().map(Vec::len).sum::<usize>() as u64);
    let inner = Side {
        schema: inner.schema(),
        columns: inner.columns(),
        ids: iids,
    };
    Some(gather(Side::of(&outer, oids), inner, needed))
}

/// Star semijoin (Experiment 3's index strategy): for each leg, filter the
/// dimension (a tiny scan), collect the selected keys, and probe the fact
/// FK index once per key to assemble the leg's fact-RID list; intersect
/// the legs' RID lists and fetch only the surviving fact rows.
///
/// The per-leg cost depends only on the dimension filter's (constant 10%)
/// marginal selectivity; the fetch cost is one random I/O per *matching*
/// fact row — so this plan wins exactly when few fact rows survive all
/// three filters, which is what the robust estimator can see and the AVI
/// baseline cannot.
///
/// Output schema/rows: the fact table only (the dimensions act as
/// filters).  Returns `None` when the query's token fired during a
/// dimension scan or before the fact fetch.
///
/// # Panics
///
/// Panics when `legs` is empty or a leg's dimension key is not `Int`.
pub fn star_semijoin(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    fact_table: &str,
    legs: &[SemiJoinLeg],
    opts: &ExecOptions,
) -> Option<Batch> {
    assert!(!legs.is_empty(), "star semijoin needs at least one leg");
    let fact = catalog.table(fact_table).expect("fact table exists");

    let mut leg_rids: Vec<Vec<Rid>> = Vec::with_capacity(legs.len());
    for leg in legs {
        // Filter the dimension with a (cheap, fully charged) scan that
        // builds only its key column.
        let dim = seq_scan(
            catalog,
            params,
            tracker,
            &leg.dim_table,
            Some(&leg.dim_predicate),
            Some(std::slice::from_ref(&leg.dim_key)),
            opts,
        )?;

        // Probe the fact FK index once per selected key.
        let key = int_key(&dim, &leg.dim_key);
        let mut rids: Vec<Rid> = Vec::new();
        for i in 0..dim.len() {
            let range =
                crate::plan::IndexRange::eq(&leg.fact_fk, key(i).map_or(Value::Null, Value::Int));
            rids.extend(rids_for_range(catalog, params, tracker, fact_table, &range));
        }
        tracker.charge_cpu_ops(rids.len() as u64);
        leg_rids.push(rids);
    }

    // Intersect legs, smallest first, charging each later leg's length
    // until the intersection empties.
    let acc = intersect_rids(fact.num_rows(), leg_rids, |other| {
        tracker.charge_cpu_ops(other.len() as u64)
    });

    if opts.check_stop().is_some() {
        return None;
    }
    Some(fetch_rows(fact, params, tracker, acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_expr::Expr;
    use rqo_storage::{DataType, TableBuilder};

    fn batch(name_prefix: &str, keys: &[i64], payload: &[i64]) -> Batch {
        assert_eq!(keys.len(), payload.len());
        Batch::from_rows(
            Schema::from_pairs(&[
                (&format!("{name_prefix}_key"), DataType::Int),
                (&format!("{name_prefix}_val"), DataType::Int),
            ]),
            keys.iter()
                .zip(payload)
                .map(|(&k, &v)| vec![Value::Int(k), Value::Int(v)])
                .collect(),
        )
    }

    #[test]
    fn hash_join_inner_semantics() {
        let mut tracker = CostTracker::new();
        let left = batch("a", &[1, 2, 2, 3], &[10, 20, 21, 30]);
        let right = batch("b", &[2, 3, 3, 4], &[200, 300, 301, 400]);
        let out = hash_join(
            &mut tracker,
            left,
            right,
            "a_key",
            "b_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        // Probe order, then build order within a key.
        let vals: Vec<(i64, i64)> = out
            .to_rows()
            .iter()
            .map(|r| (r[1].as_int(), r[3].as_int()))
            .collect();
        assert_eq!(vals, vec![(20, 200), (21, 200), (30, 300), (30, 301)]);
        // Matches: a=2 (2 rows) × b=2 (1 row) + a=3 (1) × b=3 (2) = 4 rows.
        assert_eq!(out.len(), 4);
        assert_eq!(out.schema.len(), 4);
        assert_eq!(tracker.hash_builds, 4);
        assert_eq!(tracker.hash_probes, 4);
    }

    /// Which chain heads a build of `values` gets: `Some(slots)` of a
    /// direct-addressed array, `None` for the key table.
    fn direct_slots(values: &[i64], nullable: bool) -> Option<usize> {
        let col = ColumnVec::Int {
            values: values.to_vec().into(),
            nulls: None,
        };
        let keys = KeyColumns::new(vec![&col], nullable);
        let mut next = vec![END; values.len()];
        match Heads::build(&keys, values, nullable, &mut next) {
            Heads::Direct { head, .. } => Some(head.len()),
            Heads::Table { .. } => None,
        }
    }

    #[test]
    fn direct_addressing_stays_within_its_bound() {
        let bound = 1i64 << 18;
        assert_eq!(direct_slots(&[5, 5 + bound - 1], false), Some(1 << 18));
        assert_eq!(direct_slots(&[5, 5 + bound], false), None);
        assert_eq!(direct_slots(&[i64::MAX], false), Some(1));
        assert_eq!(direct_slots(&[i64::MIN, i64::MIN + 3], false), Some(4));
        assert_eq!(direct_slots(&[i64::MIN, i64::MAX], false), None);
        assert_eq!(direct_slots(&[], false), None);
        assert_eq!(direct_slots(&[1, 2], true), None, "NULLs take the table");
    }

    #[test]
    fn merge_join_agrees_with_hash_join() {
        let mut t1 = CostTracker::new();
        let mut t2 = CostTracker::new();
        let l = batch("a", &[5, 1, 3, 3, 9], &[0, 1, 2, 3, 4]);
        let r = batch("b", &[3, 3, 5, 7], &[30, 31, 50, 70]);
        let h = hash_join(
            &mut t1,
            l.clone(),
            r.clone(),
            "a_key",
            "b_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        let m = merge_join(
            &mut t2,
            l,
            r,
            "a_key",
            "b_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(h.len(), m.len());
        // Same multiset of (key, lval, rval) triples.
        let canon = |b: &Batch| {
            let mut v: Vec<String> = b
                .to_rows()
                .iter()
                .map(|r| format!("{}|{}|{}", r[0], r[1], r[3]))
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&h), canon(&m));
    }

    #[test]
    fn merge_join_charges_sort_only_when_needed() {
        let sorted_l = batch("a", &[1, 2, 3], &[0, 0, 0]);
        let sorted_r = batch("b", &[1, 2, 3], &[0, 0, 0]);
        let mut t_sorted = CostTracker::new();
        merge_join(
            &mut t_sorted,
            sorted_l.clone(),
            sorted_r.clone(),
            "a_key",
            "b_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        let unsorted_l = batch("a", &[3, 1, 2], &[0, 0, 0]);
        let mut t_unsorted = CostTracker::new();
        merge_join(
            &mut t_unsorted,
            unsorted_l,
            sorted_r,
            "a_key",
            "b_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(t_unsorted.cpu_ops > t_sorted.cpu_ops);
    }

    #[test]
    fn hash_join_empty_sides() {
        let mut tracker = CostTracker::new();
        let l = batch("a", &[], &[]);
        let r = batch("b", &[1], &[10]);
        for (b, p, bk, pk) in [(&l, &r, "a_key", "b_key"), (&r, &l, "b_key", "a_key")] {
            let out = hash_join(
                &mut tracker,
                b.clone(),
                p.clone(),
                bk,
                pk,
                None,
                &ExecOptions::default(),
            )
            .unwrap();
            assert_eq!(out.len(), 0);
        }
    }

    fn indexed_catalog() -> Catalog {
        // inner: 100 rows, key = i / 4 (4 rows per key).
        let mut b = TableBuilder::new(
            "inner",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
            100,
        );
        for i in 0..100i64 {
            b.push_row(&[Value::Int(i / 4), Value::Int(i)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(b.finish()).unwrap();
        cat.ensure_secondary_index("inner", "k").unwrap();
        cat
    }

    #[test]
    fn indexed_nl_join_fetches_matches() {
        let cat = indexed_catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let outer = batch("o", &[0, 5, 99], &[1, 2, 3]);
        let out = indexed_nl_join(
            &cat,
            &params,
            &mut tracker,
            outer,
            "inner",
            "k",
            "o_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        // Keys 0 and 5 have 4 inner rows each; 99 has none.
        assert_eq!(out.len(), 8);
        assert!(tracker.random_ios >= 3, "at least one descend per probe");
        // Output carries outer columns then inner columns.
        assert_eq!(out.schema.names(), vec!["o_key", "o_val", "k", "v"]);
    }

    #[test]
    fn indexed_nl_join_cost_scales_with_outer() {
        let cat = indexed_catalog();
        let params = CostParams::default();
        let mut small = CostTracker::new();
        let mut large = CostTracker::new();
        indexed_nl_join(
            &cat,
            &params,
            &mut small,
            batch("o", &[1], &[0]),
            "inner",
            "k",
            "o_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        indexed_nl_join(
            &cat,
            &params,
            &mut large,
            batch("o", &(0..25).collect::<Vec<i64>>(), &[0; 25]),
            "inner",
            "k",
            "o_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(large.random_ios > 5 * small.random_ios);
    }

    /// Nested-loops reference: probe-major order, build order within a
    /// key, storage equality on the key (NULL matches NULL).
    fn nested_loops(build: &Batch, probe: &Batch) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for prow in &probe.to_rows() {
            for brow in &build.to_rows() {
                if brow[0] == prow[0] {
                    out.push([brow.as_slice(), prow.as_slice()].concat());
                }
            }
        }
        out
    }

    #[test]
    fn hash_join_matches_nested_loops_at_every_thread_count() {
        // 200 build rows with repeated keys, 300 probe rows.
        let bkeys: Vec<i64> = (0..200).map(|i| i % 17).collect();
        let bvals: Vec<i64> = (0..200).collect();
        let pkeys: Vec<i64> = (0..300).map(|i| i % 23).collect();
        let pvals: Vec<i64> = (0..300).collect();
        let l = batch("a", &bkeys, &bvals);
        let r = batch("b", &pkeys, &pvals);
        let expect = nested_loops(&l, &r);
        let mut ts = CostTracker::new();
        let whole = hash_join(
            &mut ts,
            l.clone(),
            r.clone(),
            "a_key",
            "b_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(whole.to_rows(), expect);
        for threads in [1, 2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let mut tp = CostTracker::new();
            let par =
                hash_join(&mut tp, l.clone(), r.clone(), "a_key", "b_key", None, &opts).unwrap();
            assert_eq!(par.to_rows(), expect, "threads={threads}");
            assert_eq!(tp, ts, "threads={threads}");
        }
    }

    #[test]
    fn indexed_nl_join_is_bit_identical_at_every_thread_count() {
        let cat = indexed_catalog();
        let params = CostParams::default();
        let okeys: Vec<i64> = (0..60).map(|i| i % 30).collect();
        let ovals: Vec<i64> = (0..60).collect();
        let outer = batch("o", &okeys, &ovals);
        let run = |opts: &ExecOptions| {
            let mut t = CostTracker::new();
            let out = indexed_nl_join(
                &cat,
                &params,
                &mut t,
                outer.clone(),
                "inner",
                "k",
                "o_key",
                None,
                opts,
            )
            .unwrap();
            (out.to_rows(), t)
        };
        let whole = run(&ExecOptions::default());
        for threads in [1, 2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(7);
            assert_eq!(run(&opts), whole, "threads={threads}");
        }
    }

    #[test]
    fn hash_join_typed_and_null_keys() {
        // NULL keys join with each other under storage equality, with the
        // same rows and charges at 1 and 2 threads.
        let l = Batch::from_rows(
            Schema::from_pairs(&[("a_key", DataType::Int)]),
            vec![
                vec![Value::Int(1)],
                vec![Value::Null],
                vec![Value::Int(2)],
                vec![Value::Null],
            ],
        );
        let r = Batch::from_rows(
            Schema::from_pairs(&[("b_key", DataType::Int)]),
            vec![vec![Value::Int(2)], vec![Value::Null], vec![Value::Int(3)]],
        );
        let expect = nested_loops(&l, &r);
        assert_eq!(expect.len(), 3, "one Int match and two NULL matches");
        let mut ts = CostTracker::new();
        let whole = hash_join(
            &mut ts,
            l.clone(),
            r.clone(),
            "a_key",
            "b_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(whole.to_rows(), expect);
        let opts = ExecOptions::with_threads(2).with_morsel_size(2);
        let mut tp = CostTracker::new();
        let par = hash_join(&mut tp, l, r, "a_key", "b_key", None, &opts).unwrap();
        assert_eq!(par.to_rows(), expect);
        assert_eq!(tp, ts);
    }

    #[test]
    #[should_panic(expected = "join key \"b_key\" is STR, not INT")]
    fn hash_join_refuses_a_non_int_key() {
        let l = batch("a", &[1], &[0]);
        let r = Batch::from_rows(
            Schema::from_pairs(&[("b_key", DataType::Str)]),
            vec![vec![Value::str("x")]],
        );
        hash_join(
            &mut CostTracker::new(),
            l,
            r,
            "a_key",
            "b_key",
            None,
            &ExecOptions::default(),
        );
    }

    #[test]
    fn merge_join_is_bit_identical_at_every_thread_count() {
        let lkeys: Vec<i64> = (0..90).map(|i| i * 7 % 13).collect();
        let rkeys: Vec<i64> = (0..70).map(|i| i % 11).collect();
        let l = batch("a", &lkeys, &(0..90).collect::<Vec<i64>>());
        let r = batch("b", &rkeys, &(0..70).collect::<Vec<i64>>());
        let mut ts = CostTracker::new();
        let whole = merge_join(
            &mut ts,
            l.clone(),
            r.clone(),
            "a_key",
            "b_key",
            None,
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(whole.to_rows().is_sorted_by_key(|r| r[0].clone()));
        for threads in [1, 2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let mut tp = CostTracker::new();
            let par =
                merge_join(&mut tp, l.clone(), r.clone(), "a_key", "b_key", None, &opts).unwrap();
            assert_eq!(par.to_rows(), whole.to_rows(), "threads={threads}");
            assert_eq!(tp, ts, "threads={threads}");
        }
    }

    fn star_catalog() -> Catalog {
        // fact: 1000 rows; two dims of 10 keys each.  fact row i joins
        // dim1 key i%10 and dim2 key i%7 (capped at 9).
        let mut fact = TableBuilder::new(
            "fact",
            Schema::from_pairs(&[
                ("f1", DataType::Int),
                ("f2", DataType::Int),
                ("m", DataType::Float),
            ]),
            1000,
        );
        for i in 0..1000i64 {
            fact.push_row(&[
                Value::Int(i % 10),
                Value::Int(i % 7),
                Value::Float(i as f64),
            ]);
        }
        let dim = |name: &str| {
            let mut d = TableBuilder::new(
                name,
                Schema::from_pairs(&[("d_key", DataType::Int), ("d_attr", DataType::Int)]),
                10,
            );
            for k in 0..10i64 {
                d.push_row(&[Value::Int(k), Value::Int(k % 2)]);
            }
            d.finish()
        };
        let mut cat = Catalog::new();
        cat.add_table(fact.finish()).unwrap();
        cat.add_table(dim("dim1")).unwrap();
        cat.add_table(dim("dim2")).unwrap();
        cat.add_foreign_key("fact", "f1", "dim1", "d_key").unwrap();
        cat.add_foreign_key("fact", "f2", "dim2", "d_key").unwrap();
        cat.ensure_secondary_index("fact", "f1").unwrap();
        cat.ensure_secondary_index("fact", "f2").unwrap();
        cat
    }

    #[test]
    fn star_semijoin_matches_filter_semantics() {
        let cat = star_catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let legs = vec![
            SemiJoinLeg {
                dim_table: "dim1".into(),
                dim_key: "d_key".into(),
                dim_predicate: Expr::col("d_key").eq(Expr::lit(3i64)),
                fact_fk: "f1".into(),
            },
            SemiJoinLeg {
                dim_table: "dim2".into(),
                dim_key: "d_key".into(),
                dim_predicate: Expr::col("d_key").eq(Expr::lit(3i64)),
                fact_fk: "f2".into(),
            },
        ];
        let out = star_semijoin(
            &cat,
            &params,
            &mut tracker,
            "fact",
            &legs,
            &ExecOptions::default(),
        )
        .unwrap();
        // Truth: i % 10 == 3 and i % 7 == 3 → i ≡ 3 (mod 70) → 15 rows in
        // [0, 1000).
        let expected = (0..1000i64).filter(|i| i % 10 == 3 && i % 7 == 3).count();
        assert_eq!(out.len(), expected);
        assert_eq!(out.schema.names(), vec!["f1", "f2", "m"]);
        assert!(tracker.random_ios > 0);
    }

    #[test]
    fn star_semijoin_single_leg() {
        let cat = star_catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let legs = vec![SemiJoinLeg {
            dim_table: "dim1".into(),
            dim_key: "d_key".into(),
            dim_predicate: Expr::col("d_attr").eq(Expr::lit(0i64)),
            fact_fk: "f1".into(),
        }];
        let out = star_semijoin(
            &cat,
            &params,
            &mut tracker,
            "fact",
            &legs,
            &ExecOptions::default(),
        )
        .unwrap();
        // d_attr == 0 selects even keys: f1 even → 500 rows.
        assert_eq!(out.len(), 500);
    }

    /// Legs intersect smallest first, each later leg charging its length
    /// until the intersection empties: here the middle leg empties it, so
    /// the largest leg is charged for its probes but never for a step.
    #[test]
    fn star_semijoin_stops_charging_where_the_intersection_empties() {
        let cat = star_catalog();
        let params = CostParams::default();
        let leg = |fk: &str, dim: &str, predicate: Expr| SemiJoinLeg {
            dim_table: dim.into(),
            dim_key: "d_key".into(),
            dim_predicate: predicate,
            fact_fk: fk.into(),
        };
        let legs = vec![
            // f2 even: 571 rows, the largest.
            leg("f2", "dim2", Expr::col("d_attr").eq(Expr::lit(0i64))),
            // f1 in {4, 5}: 200 rows, none with f1 = 3.
            leg(
                "f1",
                "dim1",
                Expr::col("d_key").between(Expr::lit(4i64), Expr::lit(5i64)),
            ),
            // f1 = 3: 100 rows, the smallest.
            leg("f1", "dim1", Expr::col("d_key").eq(Expr::lit(3i64))),
        ];
        let mut tracker = CostTracker::new();
        let opts = ExecOptions::default();
        let out = star_semijoin(&cat, &params, &mut tracker, "fact", &legs, &opts).unwrap();
        assert!(out.is_empty());

        let mut want = CostTracker::new();
        let mut lens = Vec::new();
        for leg in &legs {
            let dim = seq_scan(
                &cat,
                &params,
                &mut want,
                &leg.dim_table,
                Some(&leg.dim_predicate),
                None,
                &opts,
            )
            .unwrap();
            let mut len = 0;
            for row in dim.to_rows() {
                let range = crate::plan::IndexRange::eq(&leg.fact_fk, row[0].clone());
                len += rids_for_range(&cat, &params, &mut want, "fact", &range).len();
            }
            want.charge_cpu_ops(len as u64);
            lens.push(len);
        }
        assert_eq!(lens, vec![571, 200, 100]);
        want.charge_cpu_ops(200);
        charge_fetch(
            cat.table("fact").unwrap(),
            &params,
            &mut want,
            &mut Vec::new(),
        );
        assert_eq!(tracker, want);
    }

    #[test]
    #[should_panic(expected = "at least one leg")]
    fn star_semijoin_requires_legs() {
        let cat = star_catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        star_semijoin(
            &cat,
            &params,
            &mut tracker,
            "fact",
            &[],
            &ExecOptions::default(),
        );
    }
}
