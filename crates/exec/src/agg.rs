//! Hash aggregation.
//!
//! Each row's group key becomes a group id, and every aggregate keeps its
//! states in one flat array indexed by it.  A key that is one NULL-free
//! `Int` column with a dense domain (the rule in `keys.rs`, shared with
//! [`crate::join::hash_join`]) is its own id, `key − min`: no hash, no key
//! table, and groups that come out in key order.  Any other key becomes a
//! few words and then a dense id through the crate's one key table
//! (`keys.rs`); such an aggregate partitions its rows by key hash first,
//! so that each partition's groups are numbered and merged by one job of
//! their own.  A scalar aggregate has one group and no key: every row is
//! group 0.

use std::cmp::Ordering;
use std::sync::Arc;

use rqo_storage::{ColumnMeta, ColumnVec, CostTracker, DataType, NullMask, Schema, Value};

use crate::batch::Batch;
use crate::keys::{dense_domain, partition, KeyColumns, KeyTable};
use crate::morsel::{run_morsels, ExecOptions};
use crate::plan::{AggExpr, AggFunc};

/// One aggregate's running states, one per group id.
enum States {
    Sum(Vec<f64>),
    /// `COUNT(*)` or `COUNT(col)`.
    Count(Vec<u64>),
    /// Sums and non-NULL counts.
    Avg(Vec<f64>, Vec<u64>),
    /// MIN (`Less` wins) or MAX (`Greater` wins): NULL until a non-NULL
    /// value arrives.
    Best(Vec<Value>, Ordering),
}

impl States {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => States::Sum(Vec::new()),
            AggFunc::Count => States::Count(Vec::new()),
            AggFunc::Avg => States::Avg(Vec::new(), Vec::new()),
            AggFunc::Min => States::Best(Vec::new(), Ordering::Less),
            AggFunc::Max => States::Best(Vec::new(), Ordering::Greater),
        }
    }

    /// Grows to `n` groups, each new one at the identity.
    fn resize(&mut self, n: usize) {
        match self {
            States::Sum(s) => s.resize(n, 0.0),
            States::Count(c) => c.resize(n, 0),
            States::Avg(s, c) => {
                s.resize(n, 0.0);
                c.resize(n, 0);
            }
            States::Best(b, _) => b.resize(n, Value::Null),
        }
    }

    /// Folds the `k`-th row of `rows` (ascending) of `col` (`None` for
    /// `COUNT(*)`) into group `gids[k]`, in row order: SUM, AVG and COUNT
    /// in typed loops, MIN and MAX through the materialized value.
    fn update(&mut self, gids: &[u32], rows: impl Rows, col: Option<&ColumnVec>) {
        match (self, col) {
            (States::Count(n), None) => {
                for &g in gids {
                    n[g as usize] += 1;
                }
            }
            (States::Count(n), Some(col)) => {
                for (&g, i) in gids.iter().zip(rows) {
                    if !col.is_null(i) {
                        n[g as usize] += 1;
                    }
                }
            }
            (States::Sum(s), Some(col)) => each_f64(col, rows, |k, x| s[gids[k] as usize] += x),
            (States::Avg(s, n), Some(col)) => each_f64(col, rows, |k, x| {
                let g = gids[k] as usize;
                s[g] += x;
                n[g] += 1;
            }),
            (States::Best(best, wins), Some(col)) => {
                for (&g, i) in gids.iter().zip(rows) {
                    keep_best(&mut best[g as usize], col.value(i), *wins);
                }
            }
            (_, None) => panic!("only COUNT aggregates rows without a column"),
        }
    }

    /// Folds in `later`, the states of a later morsel: its group `l` is
    /// group `map[l]` here, and a group numbered `fresh` or above is new
    /// here and takes `later`'s state as is — so a float sum is the morsel
    /// partials added in morsel order.
    fn merge(&mut self, later: States, map: &[u32], fresh: usize) {
        fn fold<T>(
            into: &mut [T],
            from: Vec<T>,
            map: &[u32],
            fresh: usize,
            add: impl Fn(&mut T, T),
        ) {
            for (x, &g) in from.into_iter().zip(map) {
                let g = g as usize;
                if g < fresh {
                    add(&mut into[g], x);
                } else {
                    into[g] = x;
                }
            }
        }
        let add = |a: &mut f64, b: f64| *a += b;
        let count = |a: &mut u64, b: u64| *a += b;
        match (self, later) {
            (States::Sum(a), States::Sum(b)) => fold(a, b, map, fresh, add),
            (States::Count(a), States::Count(b)) => fold(a, b, map, fresh, count),
            (States::Avg(s, n), States::Avg(s2, n2)) => {
                fold(s, s2, map, fresh, add);
                fold(n, n2, map, fresh, count);
            }
            (States::Best(a, wins), States::Best(b, _)) => {
                let wins = *wins;
                fold(a, b, map, fresh, |cur, v| keep_best(cur, v, wins));
            }
            _ => unreachable!("merging the states of two different aggregates"),
        }
    }

    /// Appends `other`'s groups after this one's.
    fn append(&mut self, other: States) {
        match (self, other) {
            (States::Sum(a), States::Sum(b)) => a.extend(b),
            (States::Count(a), States::Count(b)) => a.extend(b),
            (States::Avg(s, n), States::Avg(s2, n2)) => {
                s.extend(s2);
                n.extend(n2);
            }
            (States::Best(a, _), States::Best(b, _)) => a.extend(b),
            _ => unreachable!("appending the states of two different aggregates"),
        }
    }

    /// The float sums of SUM or AVG, which alone depend on the order rows
    /// are added in.
    fn sums(&mut self) -> Option<&mut Vec<f64>> {
        match self {
            States::Sum(s) | States::Avg(s, _) => Some(s),
            States::Count(_) | States::Best(..) => None,
        }
    }

    /// The states of groups `ids`, in that order.
    fn take(&self, ids: &[u32]) -> States {
        fn pick<T: Clone>(states: &[T], ids: &[u32]) -> Vec<T> {
            ids.iter().map(|&g| states[g as usize].clone()).collect()
        }
        match self {
            States::Sum(s) => States::Sum(pick(s, ids)),
            States::Count(n) => States::Count(pick(n, ids)),
            States::Avg(s, n) => States::Avg(pick(s, ids), pick(n, ids)),
            States::Best(b, wins) => States::Best(pick(b, ids), *wins),
        }
    }

    /// The output column: row `r` is group `order[r]`'s result, of type
    /// `dt`.
    fn finish(self, order: &[u32], dt: DataType) -> ColumnVec {
        match self {
            States::Sum(s) => ColumnVec::Float {
                values: order.iter().map(|&g| s[g as usize]).collect(),
                nulls: None,
            },
            States::Count(n) => ColumnVec::Int {
                values: order.iter().map(|&g| n[g as usize] as i64).collect(),
                nulls: None,
            },
            States::Avg(s, n) => {
                let mut nulls = NullMask::all_valid(order.len());
                let mut values = Vec::with_capacity(order.len());
                for (r, &g) in order.iter().enumerate() {
                    let g = g as usize;
                    if n[g] == 0 {
                        nulls.set_null(r);
                        values.push(0.0);
                    } else {
                        values.push(s[g] / n[g] as f64);
                    }
                }
                ColumnVec::Float {
                    values: values.into(),
                    nulls: nulls.any_null().then_some(nulls),
                }
            }
            States::Best(b, _) => {
                let rows: Vec<Vec<Value>> =
                    order.iter().map(|&g| vec![b[g as usize].clone()]).collect();
                ColumnVec::from_rows(&rows, 0, dt)
            }
        }
    }
}

/// Replaces `cur` with `v` when `v` is not NULL and either `cur` is or
/// `v` compares `wins` against it.
fn keep_best(cur: &mut Value, v: Value, wins: Ordering) {
    if !v.is_null() && (cur.is_null() || v.total_cmp(cur) == wins) {
        *cur = v;
    }
}

/// The rows one partial folds in: a morsel's range, or the ascending row
/// ids of one partition within a morsel.
trait Rows: Iterator<Item = usize> + Clone {}
impl<I: Iterator<Item = usize> + Clone> Rows for I {}

/// Calls `f(k, x)` for each non-NULL `k`-th row of `rows` in `col`, its
/// value widened to `f64` as `Value::as_f64` widens it (which panics on
/// a non-numeric column).
fn each_f64(col: &ColumnVec, rows: impl Rows, mut f: impl FnMut(usize, f64)) {
    fn each<T: Copy>(
        values: &[T],
        nulls: Option<&NullMask>,
        rows: impl Rows,
        mut f: impl FnMut(usize, f64),
        widen: impl Fn(T) -> f64,
    ) {
        for (k, i) in rows.enumerate() {
            if !nulls.is_some_and(|m| m.is_null(i)) {
                f(k, widen(values[i]));
            }
        }
    }
    let nulls = col.null_mask();
    match col {
        ColumnVec::Int { values, .. } => each(values, nulls, rows, f, |v| v as f64),
        ColumnVec::Float { values, .. } => each(values, nulls, rows, f, |v| v),
        ColumnVec::Date { values, .. } => each(values, nulls, rows, f, f64::from),
        _ => {
            for (k, i) in rows.enumerate() {
                if !col.is_null(i) {
                    f(k, col.value(i).as_f64());
                }
            }
        }
    }
}

/// The declared type of an aggregate's output column, given its input
/// column's declared type (`None` for `COUNT(*)`): MIN and MAX keep their
/// input's type, SUM and AVG accumulate in `f64`.
fn output_type(func: AggFunc, input: Option<DataType>) -> DataType {
    match func {
        AggFunc::Sum | AggFunc::Avg => DataType::Float,
        AggFunc::Count => DataType::Int,
        AggFunc::Min | AggFunc::Max => input.expect("MIN/MAX needs a column"),
    }
}

/// Partitions of a grouped aggregate's keys on the table path, one job
/// each: the scheduler's worker count rounded up to a power of two, so
/// serial execution has one.  Every partition re-reads every morsel's
/// bucket lists, so partitions beyond the workers cost more than they
/// spread: with 2 pool workers on a 2-vCPU x86-64 host a 300 k-row,
/// 10 k-group aggregate through the key table took ≈ 6.5 ms at 2
/// partitions and ≈ 8.1 ms at 4.  The count cannot change a result.
fn partitions(opts: &ExecOptions) -> usize {
    let workers = opts.scheduler.as_ref().map_or(1, |s| s.workers());
    workers.max(1).next_power_of_two()
}

/// No id in this morsel yet.
const NONE: u32 = u32::MAX;

/// Groups and every aggregate's states: per group, an input row that
/// holds its key (where the key is read back) and one state per
/// aggregate.
struct Groups {
    first: Vec<u32>,
    states: Vec<States>,
    /// The group ids already ascend by key, so the output needs no sort.
    sorted: bool,
}

impl Groups {
    fn new(aggregates: &[AggExpr]) -> Self {
        Self {
            first: Vec::new(),
            states: aggregates.iter().map(|a| States::new(a.func)).collect(),
            sorted: false,
        }
    }

    /// Folds in one morsel's partial (see [`partial`]): its group `l` is
    /// group `map[l]` here, and groups numbered `fresh` or above first
    /// appeared in that morsel.
    fn fold(&mut self, partial: Vec<States>, map: &[u32], fresh: usize) {
        for (states, from) in self.states.iter_mut().zip(partial) {
            states.resize(self.first.len());
            states.merge(from, map, fresh);
        }
    }

    /// Appends `other`'s groups after these.
    fn append(&mut self, other: Groups) {
        self.first.extend(other.first);
        for (states, from) in self.states.iter_mut().zip(other.states) {
            states.append(from);
        }
    }
}

/// One morsel's partial states over `groups` groups: row `k` of `rows`
/// folded into group `gids[k]`, in row order.
fn partial(
    gids: &[u32],
    rows: impl Rows,
    groups: usize,
    agg_cols: &[Option<&ColumnVec>],
    aggregates: &[AggExpr],
) -> Vec<States> {
    aggregates
        .iter()
        .zip(agg_cols)
        .map(|(a, col)| {
            let mut states = States::new(a.func);
            states.resize(groups);
            states.update(gids, rows.clone(), *col);
            states
        })
        .collect()
}

/// The scalar aggregate: one partial per morsel, folded in morsel order.
fn scalar(
    n: usize,
    agg_cols: &[Option<&ColumnVec>],
    aggregates: &[AggExpr],
    opts: &ExecOptions,
) -> Option<Groups> {
    let partials = run_morsels(opts, n, |morsel| {
        partial(&vec![0; morsel.len()], morsel, 1, agg_cols, aggregates)
    })?;
    let mut groups = Groups::new(aggregates);
    for p in partials {
        let fresh = groups.first.len();
        groups.first.resize(1, 0);
        groups.fold(p, &[0], fresh);
    }
    Some(groups)
}

/// The grouped aggregate, in two phases.  Per morsel, encode the keys and
/// bucket the row ids by [`partition`].  Then one job per partition walks
/// the morsels in order, gives each row its id in the partition's own
/// [`KeyTable`], and folds the morsel's partial into the partition's
/// states, polling the token before each morsel.  A group lives in one
/// partition, so it still sums in row order within a morsel and adds its
/// partials in morsel order; the partitions' groups are appended in
/// partition order.
fn grouped(
    n: usize,
    keys: &KeyColumns,
    agg_cols: &[Option<&ColumnVec>],
    aggregates: &[AggExpr],
    opts: &ExecOptions,
) -> Option<Groups> {
    let width = keys.width();
    let n_parts = partitions(opts);
    let morsels = run_morsels(opts, n, |morsel| {
        let words = keys.encode(morsel.clone());
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
        for (k, key) in words.chunks_exact(width).enumerate() {
            parts[partition(key, n_parts)].push(k as u32);
        }
        (morsel.start, words, parts)
    })?;
    let one_each = ExecOptions {
        morsel_size: 1,
        ..opts.clone()
    };
    let jobs = run_morsels(&one_each, n_parts, |p| {
        let p = p.start;
        let mut table = KeyTable::new(width);
        let mut groups = Groups::new(aggregates);
        // `local[g]`: group `g`'s id within the current morsel, or NONE;
        // `map[l]`: the group of morsel-local id `l`.
        let (mut local, mut map, mut lids) = (Vec::new(), Vec::new(), Vec::new());
        for (start, words, parts) in &morsels {
            // A job spans every morsel, so it stops within one itself.
            if opts.check_stop().is_some() {
                return None;
            }
            let rows = &parts[p];
            let fresh = groups.first.len();
            lids.clear();
            for &k in rows {
                let k = k as usize;
                let g = table.insert(&words[k * width..(k + 1) * width]) as usize;
                if g == groups.first.len() {
                    groups.first.push((start + k) as u32);
                    local.push(NONE);
                }
                if local[g] == NONE {
                    local[g] = map.len() as u32;
                    map.push(g as u32);
                }
                lids.push(local[g]);
            }
            let rows = rows.iter().map(|&k| start + k as usize);
            groups.fold(
                partial(&lids, rows, map.len(), agg_cols, aggregates),
                &map,
                fresh,
            );
            for g in map.drain(..) {
                local[g as usize] = NONE;
            }
        }
        Some(groups)
    })?;
    let mut all = Groups::new(aggregates);
    for part in jobs {
        all.append(part?);
    }
    Some(all)
}

/// The grouped aggregate over one key column whose values `keys` have a
/// dense domain (`min`, `slots`): a group is slot `key − min`, with no
/// encode, no hash and no key table.  One job on the calling thread walks
/// the morsels in order, polling the token before each.  Per morsel, one
/// pass gives each row its slot, then each aggregate folds the morsel
/// into the slots in one typed loop, in row order.  COUNT's counts and
/// MIN's and MAX's winners do not depend on order, so they fold into their
/// totals directly; a float sum folds into a morsel partial, which then
/// joins the slot's total.  That is exactly the table path's order: rows
/// in order within a morsel, partials added in morsel order.  Walking the
/// slots in order yields the groups in key order.
///
/// One job, measured on a 2-vCPU x86-64 host with 2 pool workers on
/// `join_heavy`'s grouped aggregate (300 k rows, 10 k keys, COUNT(*) and
/// a float SUM): ≈ 2.5 ms self time, against 3.8–4.8 ms for two
/// slot-range jobs that each read every row.  One fused loop per row over
/// a record per slot measured within noise of these per-morsel loops
/// (2.1–3.0 ms against 2.4–2.8 ms), so the loops that reuse
/// [`States::update`] stay.
fn direct(
    keys: &[i64],
    (min, slots): (i64, usize),
    agg_cols: &[Option<&ColumnVec>],
    aggregates: &[AggExpr],
    opts: &ExecOptions,
) -> Option<Groups> {
    // Per slot, a row holding its key (NONE: no row yet).
    let mut row = vec![NONE; slots];
    let mut states: Vec<States> = aggregates
        .iter()
        .map(|a| {
            let mut states = States::new(a.func);
            states.resize(slots);
            states
        })
        .collect();
    // One total per float sum, whose states hold the morsel's partials.
    let mut totals: Vec<Vec<f64>> = states
        .iter_mut()
        .filter_map(States::sums)
        .map(|_| vec![0.0; slots])
        .collect();
    let size = opts.morsel_size.max(1);
    let mut ids: Vec<u32> = Vec::with_capacity(size.min(keys.len()));
    for start in (0..keys.len()).step_by(size) {
        if opts.check_stop().is_some() {
            return None;
        }
        let rows = start..(start + size).min(keys.len());
        ids.clear();
        for (i, &k) in rows.clone().zip(&keys[rows.clone()]) {
            let s = k.abs_diff(min) as u32;
            row[s as usize] = i as u32;
            ids.push(s);
        }
        for (states, col) in states.iter_mut().zip(agg_cols) {
            states.update(&ids, rows.clone(), *col);
        }
        // A slot's first row in the morsel moves its partial into its
        // total, and each later one adds 0.0: that leaves the total's bits
        // as they are, because a sum that starts at +0.0 is never -0.0.
        for (partials, total) in states.iter_mut().filter_map(States::sums).zip(&mut totals) {
            for &s in &ids {
                total[s as usize] += std::mem::take(&mut partials[s as usize]);
            }
        }
    }
    for (sums, total) in states.iter_mut().filter_map(States::sums).zip(totals) {
        *sums = total;
    }
    let present: Vec<u32> = (0..slots as u32)
        .filter(|&s| row[s as usize] != NONE)
        .collect();
    Some(Groups {
        first: present.iter().map(|&s| row[s as usize]).collect(),
        states: states.iter().map(|st| st.take(&present)).collect(),
        sorted: true,
    })
}

/// Orders rows `a` and `b` of `col` as [`Value::total_cmp`] orders their
/// values — NULL first, strings by string — without building either.
fn cmp_rows(col: &ColumnVec, a: u32, b: u32) -> Ordering {
    let (a, b) = (a as usize, b as usize);
    match (col.is_null(a), col.is_null(b)) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => match col {
            ColumnVec::Int { values, .. } => values[a].cmp(&values[b]),
            ColumnVec::Float { values, .. } => values[a].total_cmp(&values[b]),
            ColumnVec::Date { values, .. } => values[a].cmp(&values[b]),
            ColumnVec::Bool { values, .. } => values[a].cmp(&values[b]),
            ColumnVec::Str { codes, dict, .. } => {
                dict[codes[a] as usize].cmp(&dict[codes[b] as usize])
            }
        },
    }
}

/// Hash aggregation over `input`.
///
/// With an empty `group_by`, produces exactly one row (SQL scalar
/// aggregate semantics — zero input rows still yield one output row of
/// identity values).  Charges one hash insert per input row (group lookup
/// + state update) and one CPU op per output row.
///
/// Group and aggregate input columns are read in place.  One NULL-free
/// `Int` group key with a dense domain is its own group id, `key − min`
/// (see `direct`); other group keys are encoded to fixed-width words and
/// mapped to dense group ids (hash-then-verify over the contiguous keys,
/// no `Value` and no allocation per row).  Each aggregate then updates
/// its flat state array in a tight column-at-a-time loop (`f64`/`u64`
/// adds with a null-mask check).  Within a morsel a group's partial
/// accumulates in row order, and its partials are merged **in morsel
/// index order**: the first is taken as is and later ones are added.  A
/// scalar aggregate folds its morsels' partials; a grouped one walks the
/// morsels in one job (see `direct`) or partitions first (see `grouped`).
/// Morsel boundaries depend only on the morsel size, so every
/// float-summation order is the same for every thread count, scheduler,
/// and entry point.  Output rows are sorted by group key in
/// [`Value::total_cmp`] order.  Returns `None` when the query's token
/// fired mid-accumulation.
///
/// # Panics
///
/// Panics when a referenced column is missing, or when a non-COUNT
/// aggregate omits its column.
pub fn hash_aggregate(
    tracker: &mut CostTracker,
    input: Batch,
    group_by: &[String],
    aggregates: &[AggExpr],
    opts: &ExecOptions,
) -> Option<Batch> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema.expect_index(g))
        .collect();
    let agg_idx: Vec<Option<usize>> = aggregates
        .iter()
        .map(|a| a.column.as_ref().map(|c| input.schema.expect_index(c)))
        .collect();
    tracker.charge_hash_builds(input.len() as u64);
    let cols = input.columns();
    let group_cols: Vec<&ColumnVec> = group_idx.iter().map(|&g| &*cols[g]).collect();
    let nullable = group_cols.iter().any(|c| c.null_mask().is_some());
    let dense = match group_cols[..] {
        [col @ ColumnVec::Int { values, .. }] => dense_domain(col).map(|domain| (values, domain)),
        _ => None,
    };
    let keys = KeyColumns::new(group_cols, nullable);
    let agg_cols: Vec<Option<&ColumnVec>> = agg_idx.iter().map(|i| i.map(|i| &*cols[i])).collect();
    let groups = match dense {
        Some((values, domain)) => direct(values, domain, &agg_cols, aggregates, opts)?,
        None if group_idx.is_empty() => scalar(input.len(), &agg_cols, aggregates, opts)?,
        None => grouped(input.len(), &keys, &agg_cols, aggregates, opts)?,
    };
    Some(finalize(
        tracker, &input, &group_idx, aggregates, &agg_idx, groups,
    ))
}

/// Builds the output schema and columns, groups sorted by key.
fn finalize(
    tracker: &mut CostTracker,
    input: &Batch,
    group_idx: &[usize],
    aggregates: &[AggExpr],
    agg_idx: &[Option<usize>],
    groups: Groups,
) -> Batch {
    let cols = input.columns();
    // Each key column once, its row `g` group `g`'s key.
    let keys: Vec<ColumnVec> = group_idx
        .iter()
        .map(|&c| cols[c].take(&groups.first))
        .collect();
    let mut order: Vec<u32> = (0..groups.first.len() as u32).collect();
    // Distinct groups never compare equal, so the order is unique.  One
    // NULL-free `Int` key sorts by value: on 10 k groups ≈ 1.4 ms less
    // than `cmp_rows` (2-vCPU x86-64 host).
    match keys.as_slice() {
        _ if groups.sorted => {}
        [ColumnVec::Int {
            values,
            nulls: None,
        }] => order.sort_unstable_by_key(|&g| values[g as usize]),
        _ => order.sort_unstable_by(|&a, &b| {
            keys.iter()
                .map(|k| cmp_rows(k, a, b))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        }),
    }
    let mut columns: Vec<Arc<ColumnVec>> = keys.iter().map(|k| Arc::new(k.take(&order))).collect();
    // Scalar aggregates over empty input still produce one group.
    if group_idx.is_empty() && order.is_empty() {
        order.push(0);
    }

    let mut schema: Vec<ColumnMeta> = group_idx
        .iter()
        .map(|&i| input.schema.column(i).clone())
        .collect();
    for ((a, &i), mut states) in aggregates.iter().zip(agg_idx).zip(groups.states) {
        let dt = output_type(a.func, i.map(|i| input.schema.column(i).data_type));
        states.resize(order.len());
        columns.push(Arc::new(states.finish(&order, dt)));
        schema.push(ColumnMeta::new(a.alias.clone(), dt));
    }
    tracker.charge_cpu_ops(order.len() as u64);
    Batch::new(Schema::new(schema), columns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Batch {
        Batch::from_rows(
            Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]),
            vec![
                vec![Value::Int(1), Value::Float(10.0)],
                vec![Value::Int(2), Value::Float(5.0)],
                vec![Value::Int(1), Value::Float(30.0)],
                vec![Value::Int(2), Value::Float(15.0)],
                vec![Value::Int(1), Value::Float(20.0)],
            ],
        )
    }

    #[test]
    fn scalar_aggregates() {
        let mut tracker = CostTracker::new();
        let out = hash_aggregate(
            &mut tracker,
            input(),
            &[],
            &[
                AggExpr::sum("x", "total"),
                AggExpr::count_star("n"),
                AggExpr::avg("x", "mean"),
                AggExpr::min("x", "lo"),
                AggExpr::max("x", "hi"),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let row = &out.to_rows()[0];
        assert_eq!(row[0], Value::Float(80.0));
        assert_eq!(row[1], Value::Int(5));
        assert_eq!(row[2], Value::Float(16.0));
        assert_eq!(row[3], Value::Float(5.0));
        assert_eq!(row[4], Value::Float(30.0));
        assert_eq!(tracker.hash_builds, 5);
    }

    #[test]
    fn grouped_aggregates_sorted_output() {
        let mut tracker = CostTracker::new();
        let out = hash_aggregate(
            &mut tracker,
            input(),
            &["g".to_string()],
            &[AggExpr::sum("x", "total"), AggExpr::count_star("n")],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema.names(), vec!["g", "total", "n"]);
        assert_eq!(
            out.to_rows()[0],
            vec![Value::Int(1), Value::Float(60.0), Value::Int(3)]
        );
        assert_eq!(
            out.to_rows()[1],
            vec![Value::Int(2), Value::Float(20.0), Value::Int(2)]
        );
    }

    #[test]
    fn empty_input_scalar_yields_identity_row() {
        let mut tracker = CostTracker::new();
        let empty = Batch::empty(Schema::from_pairs(&[("x", DataType::Float)]));
        let out = hash_aggregate(
            &mut tracker,
            empty,
            &[],
            &[
                AggExpr::sum("x", "s"),
                AggExpr::count_star("n"),
                AggExpr::avg("x", "a"),
                AggExpr::min("x", "lo"),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(
            out.to_rows(),
            vec![vec![
                Value::Float(0.0),
                Value::Int(0),
                Value::Null,
                Value::Null
            ]]
        );
    }

    #[test]
    fn empty_input_grouped_yields_no_rows() {
        let mut tracker = CostTracker::new();
        let empty = Batch::empty(Schema::from_pairs(&[
            ("g", DataType::Int),
            ("x", DataType::Float),
        ]));
        let out = hash_aggregate(
            &mut tracker,
            empty,
            &["g".to_string()],
            &[AggExpr::sum("x", "s")],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn integer_valued_sums_are_exact_at_every_morsel_size() {
        // Integer-valued floats: partial-sum merges are exact, so any
        // morsel size and thread count reproduces the one-morsel result.
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::Int(i % 7), Value::Float((i * 3 % 100) as f64)])
            .collect();
        let b = Batch::from_rows(
            Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]),
            rows,
        );
        let aggs = [
            AggExpr::sum("x", "s"),
            AggExpr::count_star("n"),
            AggExpr::avg("x", "a"),
            AggExpr::min("x", "lo"),
            AggExpr::max("x", "hi"),
        ];
        for group_by in [vec![], vec!["g".to_string()]] {
            let mut ts = CostTracker::new();
            let whole = hash_aggregate(
                &mut ts,
                b.clone(),
                &group_by,
                &aggs,
                &ExecOptions::default(),
            )
            .unwrap();
            for threads in [1, 2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(64);
                let mut tp = CostTracker::new();
                let par = hash_aggregate(&mut tp, b.clone(), &group_by, &aggs, &opts).unwrap();
                assert_eq!(par.to_rows(), whole.to_rows(), "threads={threads}");
                assert_eq!(tp, ts, "threads={threads}");
            }
        }
    }

    #[test]
    fn irrational_sums_are_bit_identical_at_every_thread_count() {
        // NULL-heavy float column plus an Int column so MIN/MAX keep the
        // native type and SUM widens; irrational values so float addition
        // order matters and bit-identity is a real claim.
        let xs: Vec<Option<f64>> = (0..500)
            .map(|i| (i % 5 != 0).then(|| (i as f64).sqrt()))
            .collect();
        let rows: Vec<Vec<Value>> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                vec![
                    Value::Int(i as i64 % 7),
                    x.map_or(Value::Null, Value::Float),
                    Value::Int(i as i64 % 11),
                ]
            })
            .collect();
        let b = Batch::from_rows(
            Schema::from_pairs(&[
                ("g", DataType::Int),
                ("x", DataType::Float),
                ("y", DataType::Int),
            ]),
            rows,
        );
        let aggs = [
            AggExpr::sum("x", "s"),
            AggExpr::count_star("n"),
            AggExpr {
                func: AggFunc::Count,
                column: Some("x".into()),
                alias: "cx".into(),
            },
            AggExpr::avg("x", "a"),
            AggExpr::min("y", "lo"),
            AggExpr::max("x", "hi"),
        ];
        // The scalar SUM is the morsel partials added in index order.
        let expect_sum = xs.chunks(64).fold(0.0, |acc, chunk| {
            acc + chunk.iter().flatten().fold(0.0, |s, x| s + x)
        });
        for group_by in [vec![], vec!["g".to_string()]] {
            let one = ExecOptions::default().with_morsel_size(64);
            let mut ts = CostTracker::new();
            let whole = hash_aggregate(&mut ts, b.clone(), &group_by, &aggs, &one).unwrap();
            if group_by.is_empty() {
                assert_eq!(
                    whole.to_rows()[0][0].as_f64().to_bits(),
                    expect_sum.to_bits()
                );
            }
            // MIN over the Int column keeps its type.
            let lo_idx = whole.schema.expect_index("lo");
            assert_eq!(whole.schema.column(lo_idx).data_type, DataType::Int);
            assert!(matches!(whole.to_rows()[0][lo_idx], Value::Int(_)));
            for threads in [2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(64);
                let mut tp = CostTracker::new();
                let par = hash_aggregate(&mut tp, b.clone(), &group_by, &aggs, &opts).unwrap();
                assert_eq!(par.to_rows(), whole.to_rows(), "threads={threads}");
                assert_eq!(tp, ts, "threads={threads}");
            }
        }
    }

    #[test]
    fn one_partition_per_worker_rounded_up_to_a_power_of_two() {
        for (threads, parts) in [(0, 1), (1, 1), (2, 2), (3, 4), (8, 8)] {
            assert_eq!(partitions(&ExecOptions::with_threads(threads)), parts);
        }
    }

    #[test]
    fn a_fired_token_stops_a_partition_job_within_one_morsel() {
        // 10 morsels, each holding every one of 50 groups.  With keys 2²⁰
        // apart, past the dense-domain bound, a serial run polls once per
        // morsel to bucket the keys, once to claim its one partition job,
        // then once per morsel inside that job.  Keys 0..50 take the
        // direct path, whose one job polls once before each morsel.
        for (stride, polls) in [(1 << 20, 21), (1, 10)] {
            let rows: Vec<Vec<Value>> = (0..640)
                .map(|i| vec![Value::Int(i % 50 * stride), Value::Float(i as f64)])
                .collect();
            let b = Batch::from_rows(
                Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]),
                rows,
            );
            let run = |polls: u64| {
                let opts = ExecOptions::default()
                    .with_morsel_size(64)
                    .with_token(rqo_core::QueryToken::cancel_after_polls(polls));
                let aggs = [AggExpr::sum("x", "s")];
                hash_aggregate(
                    &mut CostTracker::new(),
                    b.clone(),
                    &["g".into()],
                    &aggs,
                    &opts,
                )
            };
            let done = run(polls).unwrap_or_else(|| panic!("{polls} polls finish"));
            assert_eq!(done.len(), 50);
            for p in 0..polls {
                assert!(run(p).is_none(), "stride={stride}, polls={p}");
            }
        }
    }

    #[test]
    fn empty_input_identity_row_at_many_threads() {
        let empty = Batch::empty(Schema::from_pairs(&[("x", DataType::Float)]));
        let mut tracker = CostTracker::new();
        let out = hash_aggregate(
            &mut tracker,
            empty,
            &[],
            &[AggExpr::sum("x", "s"), AggExpr::count_star("n")],
            &ExecOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.to_rows()[0][0], Value::Float(0.0));
        assert_eq!(out.to_rows()[0][1], Value::Int(0));
    }

    #[test]
    fn count_column_skips_nulls() {
        let mut tracker = CostTracker::new();
        let b = Batch::from_rows(
            Schema::from_pairs(&[("x", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        );
        let out = hash_aggregate(
            &mut tracker,
            b,
            &[],
            &[
                AggExpr {
                    func: AggFunc::Count,
                    column: Some("x".into()),
                    alias: "c".into(),
                },
                AggExpr::count_star("n"),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(out.to_rows()[0][0], Value::Int(2));
        assert_eq!(out.to_rows()[0][1], Value::Int(3));
    }
}
