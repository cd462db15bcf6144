//! Plan interpretation.

use std::time::Instant;

use rqo_core::StopReason;
use rqo_storage::{Catalog, CostParams, CostTracker};

use crate::adaptive::{GuardTrip, RowGuard};
use crate::agg::hash_aggregate;
use crate::batch::Batch;
use crate::join::{hash_join, indexed_nl_join, merge_join, star_semijoin};
use crate::kernels::filter_batch;
use crate::metrics::OpMetrics;
use crate::morsel::ExecOptions;
use crate::plan::PhysicalPlan;
use crate::scan::{index_intersection, index_seek, seq_scan};

/// Why the interpreter unwound before producing the root's result:
/// either a cardinality guard tripped (adaptive re-planning takes over)
/// or the query's token fired (cancellation/deadline).
pub(crate) enum Interrupt {
    /// A [`RowGuard`] bound was violated at a pipeline breaker.
    Trip(Box<GuardTrip>),
    /// The query's [`rqo_core::QueryToken`] fired.
    Stopped(StopReason),
}

/// Executes a physical plan against the catalog, returning the result and
/// the full simulated cost of producing it.
///
/// Execution is deterministic: the same plan over the same catalog always
/// returns the same rows and the same cost.  This is [`execute_with`]
/// under [`ExecOptions::default`] (one thread).
pub fn execute(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
) -> (Batch, CostTracker) {
    execute_with(plan, catalog, params, &ExecOptions::default())
}

/// Executes a physical plan with explicit execution options.
///
/// Every operator splits its work into morsels (see [`crate::morsel`]);
/// `opts` only decides who runs them — the calling thread or an
/// attached worker pool.  Rows, row order, the returned
/// [`CostTracker`], and the metrics tree are **bit-identical for every
/// worker count**: simulated cost models the plan's work, not the
/// host's parallelism.
pub fn execute_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    opts: &ExecOptions,
) -> (Batch, CostTracker) {
    let (batch, tracker, _) = execute_analyze(plan, catalog, params, opts);
    (batch, tracker)
}

/// Token-aware [`execute_with`]: returns `Err(StopReason)` when the
/// query's [`rqo_core::QueryToken`] fires mid-execution (within one
/// morsel of the cancellation or deadline).  The partial work's cost is
/// discarded along with the partial rows — an interrupted query reports
/// nothing.
pub fn try_execute_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    opts: &ExecOptions,
) -> Result<(Batch, CostTracker), StopReason> {
    let (batch, tracker, _) = unguarded(plan, catalog, params, opts)?;
    Ok((batch, tracker))
}

/// [`execute_with`] plus the per-operator [`OpMetrics`] tree.
///
/// The metrics tree mirrors the plan tree node for node (same labels as
/// [`PhysicalPlan::explain`], children in execution order) and every
/// deterministic field — rows in/out, morsel counts, peak hash entries,
/// per-subtree cost deltas — is identical at any thread count: morsel
/// counts come from input sizes, partial results merge in morsel index
/// order, and only the informational `wall_ns` (excluded from equality
/// and rendering) reflects the host's actual parallelism.
pub fn execute_analyze(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    opts: &ExecOptions,
) -> (Batch, CostTracker, OpMetrics) {
    unguarded(plan, catalog, params, opts)
        .expect("query was stopped; a token-carrying run goes through execute_guarded")
}

/// The interpreter with no guard armed and no slot bound, under a fresh
/// tracker.
fn unguarded(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    opts: &ExecOptions,
) -> Result<(Batch, CostTracker, OpMetrics), StopReason> {
    let mut tracker = CostTracker::new();
    match run_guarded(plan, catalog, params, &mut tracker, opts, &[], &[]) {
        Ok((batch, metrics)) => Ok((batch, tracker, metrics)),
        Err(Interrupt::Stopped(reason)) => Err(reason),
        Err(Interrupt::Trip(_)) => unreachable!("no guards armed"),
    }
}

/// Everything the recursive interpreter reads but never mutates.
struct Env<'a> {
    catalog: &'a Catalog,
    params: &'a CostParams,
    opts: &'a ExecOptions,
    /// Armed cardinality guards, looked up by pre-order node index.
    guards: &'a [RowGuard],
    /// Bound intermediates for `Materialized` leaves, by slot.
    slots: &'a [Batch],
}

/// The guarded interpreter entry point (used by
/// [`crate::adaptive::execute_guarded`]): runs the plan, accumulating
/// cost into `tracker`, and stops with a [`GuardTrip`] at the first
/// guard whose actual output cardinality violates its bound — or with a
/// [`StopReason`] when the query's token fires.  Guard checks happen in
/// execution order, so the first trip is deterministic at every thread
/// count.
pub(crate) fn run_guarded(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    opts: &ExecOptions,
    guards: &[RowGuard],
    slots: &[Batch],
) -> Result<(Batch, OpMetrics), Interrupt> {
    let env = Env {
        catalog,
        params,
        opts,
        guards,
        slots,
    };
    run(plan, &env, tracker, &mut 0, None)
}

/// The columns a node's input has to carry: the ones the node's own
/// consumer reads (`needed`; `None` = all of them) plus the ones the node
/// reads itself.  A join renames a column both sides have to `l.x` /
/// `r.x` (`Schema::join`), so a qualified name also asks for the plain
/// one: keeping `x` on both sides keeps the clash, and with it the name.
fn input_columns(needed: Option<&[String]>, own: &[&str]) -> Option<Vec<String>> {
    let mut columns: Vec<String> = own.iter().map(|c| c.to_string()).collect();
    for name in needed? {
        if let Some(plain) = name.strip_prefix("l.").or_else(|| name.strip_prefix("r.")) {
            columns.push(plain.to_string());
        }
        columns.push(name.clone());
    }
    Some(columns)
}

/// Runs `plan` and returns its output restricted to the columns in
/// `needed` (`None` = all).  A scan or a join builds only those columns;
/// any other operator hands on every column of its input, and the unread
/// ones are dropped here, an `Arc` drop.
fn run(
    plan: &PhysicalPlan,
    env: &Env<'_>,
    tracker: &mut CostTracker,
    counter: &mut usize,
    needed: Option<&[String]>,
) -> Result<(Batch, OpMetrics), Interrupt> {
    let my_idx = *counter;
    *counter += 1;
    let start = Instant::now();
    let before = *tracker;
    let (catalog, params, opts) = (env.catalog, env.params, env.opts);
    // A tripped guard hands its batch to a *different* plan, which may
    // read other columns: guarded executions keep everything.
    let exactly = |own: Vec<&str>| -> Option<Vec<String>> {
        env.guards
            .is_empty()
            .then(|| own.iter().map(|c| c.to_string()).collect())
    };
    // Cooperative cancellation at operator entry: together with the
    // per-morsel polls inside `run_morsels`, a fired token unwinds the
    // whole tree within one morsel of work.
    if let Some(reason) = opts.check_stop() {
        return Err(Interrupt::Stopped(reason));
    }
    // An operator that came back empty-handed was stopped by the token.
    let stopped = || Interrupt::Stopped(opts.stop_reason().unwrap_or(StopReason::Cancelled));
    // Each arm yields the output batch plus the metric ingredients that
    // are only visible here: rows consumed, morsel count (computed from
    // sizes), peak hash entries, children.
    let (batch, rows_in, morsels, peak_hash_entries, children) = match plan {
        PhysicalPlan::SeqScan { table, predicate } => {
            let n = catalog.table(table).expect("table exists").num_rows();
            let batch = seq_scan(
                catalog,
                params,
                tracker,
                table,
                predicate.as_ref(),
                needed,
                opts,
            )
            .ok_or_else(stopped)?;
            (batch, n as u64, opts.morsel_count(n), 0, vec![])
        }
        PhysicalPlan::IndexSeek {
            table,
            range,
            residual,
        } => {
            let (batch, fetched) = index_seek(
                catalog,
                params,
                tracker,
                table,
                range,
                residual.as_ref(),
                needed,
                opts,
            )
            .ok_or_else(stopped)?;
            (batch, fetched as u64, opts.morsel_count(fetched), 0, vec![])
        }
        PhysicalPlan::IndexIntersection {
            table,
            ranges,
            residual,
        } => {
            let (batch, fetched) = index_intersection(
                catalog,
                params,
                tracker,
                table,
                ranges,
                residual.as_ref(),
                needed,
                opts,
            )
            .ok_or_else(stopped)?;
            (batch, fetched as u64, opts.morsel_count(fetched), 0, vec![])
        }
        PhysicalPlan::Filter { input, predicate } => {
            let reads = input_columns(needed, &predicate.referenced_columns());
            let (batch, child) = run(input, env, tracker, counter, reads.as_deref())?;
            let n = batch.len();
            let bound = predicate.bind(&batch.schema).expect("filter binds");
            tracker.charge_cpu_ops(n as u64);
            let out = filter_batch(batch, &bound, opts).ok_or_else(stopped)?;
            (out, n as u64, opts.morsel_count(n), 0, vec![child])
        }
        PhysicalPlan::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
        } => {
            let reads = input_columns(needed, &[build_key, probe_key]);
            let (b, mb) = run(build, env, tracker, counter, reads.as_deref())?;
            let (p, mp) = run(probe, env, tracker, counter, reads.as_deref())?;
            let (build_len, probe_len) = (b.len(), p.len());
            let out =
                hash_join(tracker, b, p, build_key, probe_key, needed, opts).ok_or_else(stopped)?;
            (
                out,
                (build_len + probe_len) as u64,
                opts.morsel_count(build_len) + opts.morsel_count(probe_len),
                build_len as u64,
                vec![mb, mp],
            )
        }
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let reads = input_columns(needed, &[left_key, right_key]);
            let (l, ml) = run(left, env, tracker, counter, reads.as_deref())?;
            let (r, mr) = run(right, env, tracker, counter, reads.as_deref())?;
            let rows_in = (l.len() + r.len()) as u64;
            let out =
                merge_join(tracker, l, r, left_key, right_key, needed, opts).ok_or_else(stopped)?;
            (out, rows_in, 0, 0, vec![ml, mr])
        }
        PhysicalPlan::IndexedNlJoin {
            outer,
            inner_table,
            inner_index_column,
            outer_key,
        } => {
            let reads = input_columns(needed, &[outer_key]);
            let (o, mo) = run(outer, env, tracker, counter, reads.as_deref())?;
            let outer_len = o.len();
            let out = indexed_nl_join(
                catalog,
                params,
                tracker,
                o,
                inner_table,
                inner_index_column,
                outer_key,
                needed,
                opts,
            )
            .ok_or_else(stopped)?;
            (
                out,
                outer_len as u64,
                opts.morsel_count(outer_len),
                0,
                vec![mo],
            )
        }
        PhysicalPlan::StarSemiJoin { fact_table, legs } => {
            let out = star_semijoin(catalog, params, tracker, fact_table, legs, opts)
                .ok_or_else(stopped)?;
            let rows_in = out.len() as u64;
            (out, rows_in, 0, 0, vec![])
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggregates,
        } => {
            let reads = exactly(
                group_by
                    .iter()
                    .chain(aggregates.iter().filter_map(|a| a.column.as_ref()))
                    .map(String::as_str)
                    .collect(),
            );
            let (batch, child) = run(input, env, tracker, counter, reads.as_deref())?;
            let n = batch.len();
            let out =
                hash_aggregate(tracker, batch, group_by, aggregates, opts).ok_or_else(stopped)?;
            // Groups resident in the hash table; the scalar aggregate over
            // empty input synthesizes its identity row without one.
            let peak = if n == 0 && group_by.is_empty() {
                0
            } else {
                out.len() as u64
            };
            (out, n as u64, opts.morsel_count(n), peak, vec![child])
        }
        PhysicalPlan::Materialized { slot, .. } => {
            // The work that produced this batch was charged when it
            // originally ran (before the re-plan); serving it again is a
            // clone of shared columns and free, so the adaptive total
            // never double-counts.
            let batch = env
                .slots
                .get(*slot)
                .unwrap_or_else(|| panic!("Materialized slot {slot} is not bound"))
                .clone();
            let n = batch.len();
            (batch, n as u64, opts.morsel_count(n), 0, vec![])
        }
    };
    let batch = match needed {
        Some(names) => batch.retain_columns(|name| names.iter().any(|n| n == name)),
        None => batch,
    };
    let metrics = OpMetrics {
        label: plan.node_label(),
        rows_in,
        rows_out: batch.len() as u64,
        est_rows: None,
        morsels,
        peak_hash_entries,
        wall_ns: start.elapsed().as_nanos(),
        cost: tracker.diff(&before),
        children,
    };
    // Guard check at the pipeline breaker: the node's output is fully
    // materialized, so `rows_out` is exact and identical at every thread
    // count.
    if let Some(guard) = env.guards.iter().find(|g| g.node == my_idx) {
        if guard.trips(metrics.rows_out) {
            return Err(Interrupt::Trip(Box::new(GuardTrip {
                node: my_idx,
                est_rows: guard.est_rows,
                actual_rows: metrics.rows_out,
                q_error: crate::adaptive::q_error(guard.est_rows, metrics.rows_out as f64),
                batch,
                metrics,
            })));
        }
    }
    Ok((batch, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggExpr, IndexRange};
    use rqo_expr::Expr;
    use rqo_storage::{DataType, Schema, TableBuilder, Value};

    /// orders(o_id, o_cust) and items(i_order, i_price): 50 orders with 2
    /// items each.
    fn catalog() -> Catalog {
        let mut orders = TableBuilder::new(
            "orders",
            Schema::from_pairs(&[("o_id", DataType::Int), ("o_cust", DataType::Int)]),
            50,
        );
        for i in 0..50i64 {
            orders.push_row(&[Value::Int(i), Value::Int(i % 5)]);
        }
        let mut items = TableBuilder::new(
            "items",
            Schema::from_pairs(&[("i_order", DataType::Int), ("i_price", DataType::Float)]),
            100,
        );
        for i in 0..100i64 {
            items.push_row(&[Value::Int(i / 2), Value::Float(i as f64)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(orders.finish()).unwrap();
        cat.add_table(items.finish()).unwrap();
        cat.add_foreign_key("items", "i_order", "orders", "o_id")
            .unwrap();
        cat.ensure_secondary_index("items", "i_order").unwrap();
        cat.ensure_secondary_index("items", "i_price").unwrap();
        cat.ensure_secondary_index("orders", "o_cust").unwrap();
        cat
    }

    #[test]
    fn end_to_end_join_aggregate() {
        let cat = catalog();
        let params = CostParams::default();
        // SELECT SUM(i_price) FROM items JOIN orders ON i_order = o_id
        // WHERE o_cust = 0
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                build: Box::new(PhysicalPlan::SeqScan {
                    table: "orders".into(),
                    predicate: Some(Expr::col("o_cust").eq(Expr::lit(0i64))),
                }),
                probe: Box::new(PhysicalPlan::SeqScan {
                    table: "items".into(),
                    predicate: None,
                }),
                build_key: "o_id".into(),
                probe_key: "i_order".into(),
            }),
            group_by: vec![],
            aggregates: vec![AggExpr::sum("i_price", "total"), AggExpr::count_star("n")],
        };
        let (batch, cost) = execute(&plan, &cat, &params);
        assert_eq!(batch.len(), 1);
        // Orders with cust 0: ids 0,5,...,45; items 2k,2k+1 per order id k.
        let expected: f64 = (0..50i64)
            .filter(|o| o % 5 == 0)
            .flat_map(|o| [2 * o, 2 * o + 1])
            .map(|i| i as f64)
            .sum();
        assert_eq!(batch.to_rows()[0][0], Value::Float(expected));
        assert_eq!(batch.to_rows()[0][1], Value::Int(20));
        assert!(cost.seconds(&params) > 0.0);
    }

    /// Only the columns a consumer reads reach it, and the result is the
    /// one the unpruned operators give — also where both join inputs
    /// carry the same names and the output is qualified `l.` / `r.`.  A
    /// join or a scan builds only those columns itself, and a guarded run
    /// keeps every column.
    #[test]
    fn unread_columns_are_dropped_below_their_last_reader() {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("pad", DataType::Str),
        ]);
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 40i64), ("b", 90), ("dim", 7)] {
            let mut t = TableBuilder::new(name, schema.clone(), rows as usize);
            for i in 0..rows {
                t.push_row(&[
                    Value::Int(i % 7),
                    Value::Float(i as f64 + 0.5),
                    Value::from(format!("{name}{i}").as_str()),
                ]);
            }
            cat.add_table(t.finish()).unwrap();
        }
        cat.ensure_secondary_index("b", "k").unwrap();
        cat.ensure_secondary_index("b", "v").unwrap();
        let scan = |table: &str| PhysicalPlan::SeqScan {
            table: table.into(),
            predicate: None,
        };
        let join = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::HashJoin {
                build: Box::new(scan("a")),
                probe: Box::new(scan("b")),
                build_key: "k".into(),
                probe_key: "k".into(),
            }),
            predicate: Expr::col("l.v").lt(Expr::lit(30.0)),
        };
        let params = CostParams::default();
        let opts = ExecOptions::default();
        let env = Env {
            catalog: &cat,
            params: &params,
            opts: &opts,
            guards: &[],
            slots: &[],
        };
        let mut tracker = CostTracker::new();
        let reads = ["r.v".to_string()];
        let Ok((pruned, _)) = run(&join, &env, &mut tracker, &mut 0, Some(&reads)) else {
            panic!("nothing stops this run");
        };
        assert_eq!(pruned.schema.names(), vec!["r.v"]);
        let (full, full_cost) = execute(&join, &cat, &params);
        assert_eq!(tracker, full_cost, "cost does not depend on the columns");
        let rv = full.schema.expect_index("r.v");
        let full_rv: Vec<Vec<Value>> = full.to_rows().iter().map(|r| vec![r[rv].clone()]).collect();
        assert_eq!(pruned.to_rows(), full_rv);

        // The join's own output, before `run` trims anything, is what the
        // filter above it reads plus what the filter passes on: the full
        // join's rows, two of its six columns.
        let PhysicalPlan::Filter { input: hj, .. } = &join else {
            unreachable!("the plan above is a filter over a join")
        };
        let join_reads = input_columns(Some(&reads), &["l.v"]).unwrap();
        let (scanned_a, scanned_b) = (
            execute(&scan("a"), &cat, &params).0,
            execute(&scan("b"), &cat, &params).0,
        );
        let own = hash_join(
            &mut CostTracker::new(),
            scanned_a,
            scanned_b,
            "k",
            "k",
            Some(&join_reads),
            &opts,
        )
        .unwrap();
        assert_eq!(own.schema.names(), vec!["l.v", "r.v"]);
        let whole = execute(hj, &cat, &params)
            .0
            .retain_columns(|n| n.ends_with(".v"));
        assert_eq!(own.to_rows(), whole.to_rows());

        // An FK-shaped join (each `b` row meets one `dim` row) passes its
        // probe column through from storage, uncopied.
        let fk = PhysicalPlan::HashJoin {
            build: Box::new(scan("dim")),
            probe: Box::new(scan("b")),
            build_key: "k".into(),
            probe_key: "k".into(),
        };
        let Ok((fk_out, _)) = run(&fk, &env, &mut CostTracker::new(), &mut 0, Some(&reads)) else {
            panic!("nothing stops this run");
        };
        assert_eq!(fk_out.schema.names(), vec!["r.v"]);
        let stored_v = &cat.table("b").unwrap().columns()[1];
        assert!(std::sync::Arc::ptr_eq(&fk_out.columns()[0], stored_v));

        // A guarded run hands a tripped join's batch to another plan, so
        // the join keeps every column.
        let guards = [crate::adaptive::RowGuard {
            node: 1,
            est_rows: 1e9,
            bound: 2.0,
        }];
        let guarded = Env {
            guards: &guards,
            ..env
        };
        let Err(Interrupt::Trip(trip)) =
            run(&join, &guarded, &mut CostTracker::new(), &mut 0, None)
        else {
            panic!("the join's guard trips");
        };
        assert_eq!(trip.node, 1);
        assert_eq!(trip.batch.schema.names(), full.schema.names());

        let aggregates = vec![AggExpr::sum("r.v", "s"), AggExpr::count_star("n")];
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(join),
            group_by: vec!["l.k".into()],
            aggregates: aggregates.clone(),
        };
        let (got, _) = execute(&plan, &cat, &params);
        let want = hash_aggregate(
            &mut CostTracker::new(),
            full,
            &["l.k".to_string()],
            &aggregates,
            &opts,
        )
        .unwrap();
        assert_eq!(got.to_rows(), want.to_rows());

        // A scan builds only what is read above it: under COUNT(*) each
        // access path's own output keeps one column, under SUM(v) just
        // `v`, and either way rows and costs are the unpruned run's.
        let access_paths = [
            PhysicalPlan::SeqScan {
                table: "b".into(),
                predicate: Some(Expr::col("k").lt(Expr::lit(3i64))),
            },
            PhysicalPlan::IndexIntersection {
                table: "b".into(),
                ranges: vec![
                    IndexRange::between("k", Value::Int(1), Value::Int(4)),
                    IndexRange::between("v", Value::Float(10.0), Value::Float(60.0)),
                ],
                residual: Some(Expr::col("pad").ne(Expr::lit("b22"))),
            },
        ];
        // The scan node's own output, before `run` trims anything.
        let own = |plan: &PhysicalPlan, tracker: &mut CostTracker, needed: Option<&[String]>| {
            match plan {
                PhysicalPlan::SeqScan { table, predicate } => seq_scan(
                    &cat,
                    &params,
                    tracker,
                    table,
                    predicate.as_ref(),
                    needed,
                    &opts,
                ),
                PhysicalPlan::IndexIntersection {
                    table,
                    ranges,
                    residual,
                } => index_intersection(
                    &cat,
                    &params,
                    tracker,
                    table,
                    ranges,
                    residual.as_ref(),
                    needed,
                    &opts,
                )
                .map(|(batch, _)| batch),
                other => unreachable!("not an access path: {other:?}"),
            }
            .unwrap()
        };
        for access in access_paths {
            let all = own(&access, &mut CostTracker::new(), None);
            assert_eq!(all.schema.names(), vec!["k", "v", "pad"]);
            for (aggregate, reads) in [
                (AggExpr::count_star("n"), vec![]),
                (AggExpr::sum("v", "s"), vec!["v".to_string()]),
            ] {
                let built = own(&access, &mut CostTracker::new(), Some(&reads));
                let names = if reads.is_empty() {
                    vec!["k"]
                } else {
                    vec!["v"]
                };
                assert_eq!(built.schema.names(), names, "{access:?}");
                assert_eq!(built.len(), all.len(), "{access:?}");

                let plan = PhysicalPlan::HashAggregate {
                    input: Box::new(access.clone()),
                    group_by: vec![],
                    aggregates: vec![aggregate.clone()],
                };
                let (got, got_cost) = execute(&plan, &cat, &params);
                let mut want_cost = CostTracker::new();
                let unpruned = own(&access, &mut want_cost, None);
                let want =
                    hash_aggregate(&mut want_cost, unpruned, &[], &[aggregate], &opts).unwrap();
                assert_eq!(got.to_rows(), want.to_rows(), "{access:?}");
                assert_eq!(got_cost, want_cost, "{access:?}");

                // A guarded run keeps every column of the scan whose
                // guard trips.
                let guards = [crate::adaptive::RowGuard {
                    node: 1,
                    est_rows: 1e9,
                    bound: 2.0,
                }];
                let guarded = Env {
                    guards: &guards,
                    ..env
                };
                let Err(Interrupt::Trip(trip)) =
                    run(&plan, &guarded, &mut CostTracker::new(), &mut 0, None)
                else {
                    panic!("the scan's guard trips");
                };
                assert_eq!(trip.batch.schema.names(), vec!["k", "v", "pad"]);
            }
        }
    }

    #[test]
    fn equivalent_plans_same_rows_different_costs() {
        let cat = catalog();
        let params = CostParams::default();
        // Same logical query via seq scan vs index seek.
        let pred = Expr::col("i_price").between(Expr::lit(10.0), Expr::lit(19.0));
        let scan = PhysicalPlan::SeqScan {
            table: "items".into(),
            predicate: Some(pred),
        };
        let seek = PhysicalPlan::IndexSeek {
            table: "items".into(),
            range: IndexRange::between("i_price", Value::Float(10.0), Value::Float(19.0)),
            residual: None,
        };
        let (b1, c1) = execute(&scan, &cat, &params);
        let (b2, c2) = execute(&seek, &cat, &params);
        assert_eq!(b1.len(), b2.len());
        assert_eq!(b1.len(), 10);
        assert_ne!(c1, c2);
    }

    #[test]
    fn determinism() {
        let cat = catalog();
        let params = CostParams::default();
        let plan = PhysicalPlan::IndexedNlJoin {
            outer: Box::new(PhysicalPlan::SeqScan {
                table: "orders".into(),
                predicate: Some(Expr::col("o_cust").eq(Expr::lit(2i64))),
            }),
            inner_table: "items".into(),
            inner_index_column: "i_order".into(),
            outer_key: "o_id".into(),
        };
        let (b1, c1) = execute(&plan, &cat, &params);
        let (b2, c2) = execute(&plan, &cat, &params);
        assert_eq!(b1.to_rows(), b2.to_rows());
        assert_eq!(c1, c2);
        assert_eq!(b1.len(), 20);
    }

    #[test]
    fn execute_with_parallel_is_bit_identical_to_serial() {
        let cat = catalog();
        let params = CostParams::default();
        // A plan exercising scan, filter, hash join, and aggregate in
        // one tree.
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::HashJoin {
                    build: Box::new(PhysicalPlan::SeqScan {
                        table: "orders".into(),
                        predicate: None,
                    }),
                    probe: Box::new(PhysicalPlan::SeqScan {
                        table: "items".into(),
                        predicate: None,
                    }),
                    build_key: "o_id".into(),
                    probe_key: "i_order".into(),
                }),
                predicate: Expr::col("i_price").lt(Expr::lit(80.0)),
            }),
            group_by: vec!["o_cust".into()],
            aggregates: vec![AggExpr::sum("i_price", "total"), AggExpr::count_star("n")],
        };
        let (serial, serial_cost) = execute(&plan, &cat, &params);
        for threads in [1, 2, 8] {
            let opts = crate::morsel::ExecOptions::with_threads(threads).with_morsel_size(16);
            let (par, par_cost) = execute_with(&plan, &cat, &params, &opts);
            assert_eq!(par.to_rows(), serial.to_rows(), "threads={threads}");
            assert_eq!(par_cost, serial_cost, "threads={threads}");
        }
    }

    #[test]
    fn metrics_rows_and_cost_identical_across_thread_counts() {
        let cat = catalog();
        let params = CostParams::default();
        // Scan+filter+join+aggregate, all four kernels.
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::HashJoin {
                    build: Box::new(PhysicalPlan::SeqScan {
                        table: "orders".into(),
                        predicate: Some(Expr::col("o_id").lt(Expr::lit(40i64))),
                    }),
                    probe: Box::new(PhysicalPlan::SeqScan {
                        table: "items".into(),
                        predicate: None,
                    }),
                    build_key: "o_id".into(),
                    probe_key: "i_order".into(),
                }),
                predicate: Expr::col("i_price").lt(Expr::lit(70.0)),
            }),
            group_by: vec!["o_cust".into()],
            aggregates: vec![AggExpr::sum("i_price", "total"), AggExpr::count_star("n")],
        };
        let base_opts = ExecOptions::default().with_morsel_size(16);
        let (base, base_cost, base_metrics) = execute_analyze(&plan, &cat, &params, &base_opts);
        for threads in [1, 2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let (b, c, m) = execute_analyze(&plan, &cat, &params, &opts);
            assert_eq!(b.to_rows(), base.to_rows(), "threads={threads}");
            assert_eq!(c, base_cost, "threads={threads}");
            assert_eq!(m, base_metrics, "threads={threads}");
        }
    }

    #[test]
    fn grouped_aggregate_over_join() {
        let cat = catalog();
        let params = CostParams::default();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(PhysicalPlan::SeqScan {
                    table: "orders".into(),
                    predicate: None,
                }),
                right: Box::new(PhysicalPlan::SeqScan {
                    table: "items".into(),
                    predicate: None,
                }),
                left_key: "o_id".into(),
                right_key: "i_order".into(),
            }),
            group_by: vec!["o_cust".into()],
            aggregates: vec![AggExpr::count_star("n")],
        };
        let (batch, _) = execute(&plan, &cat, &params);
        assert_eq!(batch.len(), 5);
        for row in &batch.to_rows() {
            assert_eq!(row[1], Value::Int(20)); // 10 orders × 2 items
        }
    }

    #[test]
    fn metrics_tree_mirrors_plan_and_counts_rows() {
        let cat = catalog();
        let params = CostParams::default();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                build: Box::new(PhysicalPlan::SeqScan {
                    table: "orders".into(),
                    predicate: Some(Expr::col("o_cust").eq(Expr::lit(0i64))),
                }),
                probe: Box::new(PhysicalPlan::SeqScan {
                    table: "items".into(),
                    predicate: None,
                }),
                build_key: "o_id".into(),
                probe_key: "i_order".into(),
            }),
            group_by: vec![],
            aggregates: vec![AggExpr::sum("i_price", "total")],
        };
        let (batch, cost, metrics) = execute_analyze(&plan, &cat, &params, &ExecOptions::default());
        assert_eq!(batch.len(), 1);
        assert_eq!(metrics.node_count(), plan.node_count());
        // Labels line up with explain() node for node.
        let labels: Vec<String> = metrics.preorder().iter().map(|m| m.label.clone()).collect();
        let explain_labels: Vec<String> = plan
            .explain()
            .lines()
            .map(|l| l.trim_start().to_string())
            .collect();
        assert_eq!(labels, explain_labels);
        // Row accounting: aggregate consumed the join's output.
        assert_eq!(metrics.label, plan.node_label());
        assert_eq!(metrics.rows_out, 1);
        let join = &metrics.children[0];
        assert_eq!(join.rows_out, 20);
        assert_eq!(metrics.rows_in, join.rows_out);
        assert_eq!(join.children[0].rows_out, 10); // orders with cust 0
        assert_eq!(join.children[1].rows_out, 100); // full items scan
        assert_eq!(join.rows_in, 110);
        assert_eq!(join.peak_hash_entries, 10); // build-side rows
        assert_eq!(metrics.peak_hash_entries, 1); // one scalar group
                                                  // The root's inclusive cost delta is the whole execution's cost.
        assert_eq!(metrics.cost, cost);
        // Children's inclusive costs never exceed the parent's.
        let child_sum: CostTracker = join.children.iter().map(|c| c.cost).sum();
        assert!(join.cost.diff(&child_sum).hash_builds > 0);
    }

    #[test]
    fn metrics_identical_across_thread_counts() {
        let cat = catalog();
        let params = CostParams::default();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::HashJoin {
                    build: Box::new(PhysicalPlan::SeqScan {
                        table: "orders".into(),
                        predicate: None,
                    }),
                    probe: Box::new(PhysicalPlan::IndexSeek {
                        table: "items".into(),
                        range: IndexRange::between(
                            "i_price",
                            Value::Float(10.0),
                            Value::Float(89.0),
                        ),
                        residual: None,
                    }),
                    build_key: "o_id".into(),
                    probe_key: "i_order".into(),
                }),
                predicate: Expr::col("i_price").lt(Expr::lit(80.0)),
            }),
            group_by: vec!["o_cust".into()],
            aggregates: vec![AggExpr::count_star("n")],
        };
        let baseline = execute_analyze(
            &plan,
            &cat,
            &params,
            &ExecOptions::default().with_morsel_size(16),
        )
        .2;
        for threads in [2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let (_, _, metrics) = execute_analyze(&plan, &cat, &params, &opts);
            assert_eq!(metrics, baseline, "threads={threads}");
        }
        // Rendered output is byte-identical too (wall time is excluded).
        let rendered = baseline.render();
        let opts = ExecOptions::with_threads(8).with_morsel_size(16);
        assert_eq!(
            execute_analyze(&plan, &cat, &params, &opts).2.render(),
            rendered
        );
    }
}
