//! The generated inputs: query menus, the never-repeating ad-hoc query
//! sequence, and the lineitem rows the ingest workloads append.  All of it
//! is a pure function of `--seed`.

use robust_qo::datagen::workload::exp2_part_predicate;
use robust_qo::estimator::ConfidenceThreshold;
use robust_qo::exec::AggExpr;
use robust_qo::expr::Expr;
use robust_qo::optimizer::Query;
use robust_qo::storage::{days_from_civil, Value};

use crate::util::Rng;

/// Seed of the base tables.  The data is a fixture of the benchmark, like
/// the scale factor: `--seed` varies what is *asked* of it.  (Varying the
/// rows too moves join latency by 30 % between seeds on this host, which
/// would drown every bound below.)
pub const DATA_SEED: u64 = 7;

/// Rows per ingest batch.
pub const BATCH_ROWS: usize = 256;

fn date(y: i32, m: u32, d: u32) -> i32 {
    days_from_civil(y, m, d)
}

/// `l_shipdate` in `[start, start+len]` and `l_receiptdate` in the same
/// window shifted by `offset` days: the paper's experiment-1 shape with
/// the window free to move.  Receipt trails shipping by 1–30 days, so the
/// joint selectivity falls from the ship marginal at offset ~15 to zero
/// past `len + 30` while both marginals stay put.
pub fn two_range(start: i32, len: i32, offset: i32) -> Expr {
    let ship = Expr::col("l_shipdate").between(
        Expr::lit(Value::Date(start)),
        Expr::lit(Value::Date(start + len)),
    );
    let receipt = Expr::col("l_receiptdate").between(
        Expr::lit(Value::Date(start + offset)),
        Expr::lit(Value::Date(start + len + offset)),
    );
    ship.and(receipt)
}

fn lineitem_window(start: i32, len: i32, offset: i32) -> Query {
    Query::over(&["lineitem"]).filter("lineitem", two_range(start, len, offset))
}

/// `net_point`: six quarter-long windows whose receipt range lies wholly
/// past the last possible receipt (ship + 30 days), so each is an
/// index-intersection plan that reads two index ranges, finds them
/// disjoint and returns one aggregate row in well under a millisecond.
///
/// The overlap is empty on purpose.  With a handful of matching rows the
/// simulated cost is one random I/O per row on top of the two range
/// scans, and moves by half between seeds; with none it is the range
/// scans alone, whose sizes the window's position barely changes, so
/// `sim_cost_s` means the same thing under every seed.
pub fn net_point_menu(seed: u64) -> Vec<Query> {
    let mut rng = Rng::fork(seed, 11);
    let first = date(1993, 1, 1);
    (0..6)
        .map(|j| {
            // One window per year so no two of the six overlap.
            let start = first + j * 300 + rng.range(0, 120) as i32;
            let offset = 125 + rng.range(0, 10) as i32;
            lineitem_window(start, 91, offset)
                .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
                .aggregate(AggExpr::count_star("n"))
        })
        .collect()
}

/// The three-way join of experiment 2, planned at the conservative
/// threshold so every window lands in the same plan class
/// (`mj(hj(seqscan,seqscan),seqscan)`): at the engine's default T = 50 %
/// the choice flips with the sample between that plan and a semijoin plan
/// four times cheaper, which is the paper's point but makes a latency
/// percentile straddle two classes.
fn join3(window_start: i64) -> Query {
    Query::over(&["lineitem", "orders", "part"])
        .filter("part", exp2_part_predicate(window_start))
        .aggregate(AggExpr::count_star("n"))
        .with_hint(ConfidenceThreshold::new(0.95))
}

/// `join_heavy`: six selective three-way joins, one whose window matches
/// no part at all, and one two-table join grouped by part key that
/// returns one row per part.
pub fn join_heavy_menu(seed: u64) -> Vec<Query> {
    let mut rng = Rng::fork(seed, 12);
    let mut menu: Vec<Query> = (0..6)
        .map(|j| join3(40 + j * 27 + rng.range(0, 26)))
        .collect();
    menu.push(join3(rng.range(229, 900)));
    menu.push(
        Query::over(&["lineitem", "part"])
            .group(&["l_partkey"])
            .aggregate(AggExpr::count_star("n"))
            .aggregate(AggExpr::sum("l_extendedprice", "revenue")),
    );
    menu
}

/// A cold three-way join for the optimizer probe of the traced run.
pub fn join3_probe(i: u64) -> Query {
    join3(40 + (i % 180) as i64)
}

/// `adhoc_plan`: the `i`-th query of a sequence that never repeats.
///
/// The parameter space (ship-window start × length × receipt offset) is
/// walked with a fixed odd stride from a seeded origin, so any run of
/// consecutive queries covers the offsets 60–190 evenly — the plans
/// straddle the seqscan / index-intersection crossover in the same
/// proportion whatever the seed — and no triple recurs before the space
/// (2.1 M queries, an hour of this workload) is exhausted.
#[derive(Debug, Clone)]
pub struct AdhocSequence {
    origin: u64,
}

const ADHOC_OFFSETS: u64 = 131;
const ADHOC_FIRST_OFFSET: i32 = 60;
const ADHOC_STARTS: u64 = 2000;
const ADHOC_LENGTHS: u64 = 8;
const ADHOC_SPACE: u64 = ADHOC_OFFSETS * ADHOC_STARTS * ADHOC_LENGTHS;
/// Coprime with the space (131 · 2⁷ · 5³), so the walk is a permutation.
const ADHOC_STRIDE: u64 = 1_000_003;

impl AdhocSequence {
    pub fn new(seed: u64) -> Self {
        AdhocSequence {
            origin: Rng::fork(seed, 13).next_u64() % ADHOC_SPACE,
        }
    }

    /// (ship-window start, length in days, receipt offset in days).
    pub fn params(&self, i: u64) -> (i32, i32, i32) {
        let k = (self.origin + (i % ADHOC_SPACE) * ADHOC_STRIDE) % ADHOC_SPACE;
        let offset = k % ADHOC_OFFSETS;
        let start = (k / ADHOC_OFFSETS) % ADHOC_STARTS;
        let len = k / (ADHOC_OFFSETS * ADHOC_STARTS);
        (
            date(1992, 3, 1) + start as i32,
            60 + 8 * len as i32,
            ADHOC_FIRST_OFFSET + offset as i32,
        )
    }

    /// The `k`-th query counted back from the end of the sequence: where
    /// the traced run's replay takes its queries, so that they are the
    /// same whatever number the measured window got through.
    pub fn query_from_end(&self, k: u64) -> Query {
        self.query(ADHOC_SPACE - 1 - k)
    }

    pub fn query(&self, i: u64) -> Query {
        let (start, len, offset) = self.params(i);
        lineitem_window(start, len, offset)
            .aggregate(AggExpr::count_star("n"))
            .aggregate(AggExpr::sum("l_quantity", "quantity"))
    }
}

/// The reader of the ingest workloads: six year-wide `lineitem` counts
/// (every batch adds rows to each, and retires its plan) and two queries
/// that never touch `lineitem` (their plans must survive every batch).
pub fn ingest_reader_menu(seed: u64) -> Vec<Query> {
    let mut rng = Rng::fork(seed, 14);
    let mut menu: Vec<Query> = (0..6)
        .map(|j| {
            let start = date(1992, 2, 1) + j * 330 + rng.range(0, 60) as i32;
            lineitem_window(start, 365, rng.range(5, 25) as i32).aggregate(AggExpr::count_star("n"))
        })
        .collect();
    menu.push(
        Query::over(&["part"])
            .filter("part", exp2_part_predicate(rng.range(40, 200)))
            .aggregate(AggExpr::count_star("n")),
    );
    let from = date(1994, 1, 1) + rng.range(0, 365) as i32;
    menu.push(
        Query::over(&["orders"])
            .filter(
                "orders",
                Expr::col("o_orderdate").between(
                    Expr::lit(Value::Date(from)),
                    Expr::lit(Value::Date(from + 200)),
                ),
            )
            .aggregate(AggExpr::count_star("n"))
            .aggregate(AggExpr::sum("o_totalprice", "total")),
    );
    menu
}

/// The full-table query that must agree, bit for bit, between the
/// streamed table and a twin built in one shot from the same rows.
pub fn table_check_query() -> Query {
    Query::over(&["lineitem"])
        .aggregate(AggExpr::count_star("n"))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
        .aggregate(AggExpr::sum("l_quantity", "quantity"))
}

/// Batch `index` of the ingest stream: `lineitem` rows drawn like the
/// generator's, with foreign keys inside the base tables.
pub fn ingest_batch(seed: u64, index: u64, orders: i64, parts: i64) -> Vec<Vec<Value>> {
    let mut rng = Rng::fork(seed, 1_000 + index);
    let first_ship = date(1992, 1, 2);
    let last_ship = date(1998, 12, 1);
    (0..BATCH_ROWS)
        .map(|_| {
            let partkey = rng.range(1, parts);
            let quantity = rng.range(1, 50) as f64;
            let ship = rng.range(i64::from(first_ship), i64::from(last_ship)) as i32;
            vec![
                Value::Int(rng.range(1, orders)),
                Value::Int(partkey),
                Value::Float(quantity),
                Value::Float(quantity * (900.0 + (partkey % 1000) as f64 * 0.1)),
                Value::Date(ship),
                Value::Date(ship + rng.range(1, 30) as i32),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_adhoc_sequence_never_repeats_and_follows_the_seed() {
        let seq = AdhocSequence::new(3);
        let seen: HashSet<(i32, i32, i32)> = (0..200_000).map(|i| seq.params(i)).collect();
        assert_eq!(seen.len(), 200_000);
        assert_eq!(seq.params(17), AdhocSequence::new(3).params(17));
        let other = AdhocSequence::new(4);
        assert!((0..8).any(|i| seq.params(i) != other.params(i)));
        assert_eq!(seq.query(5), seq.query(5));
    }

    #[test]
    fn any_run_of_adhoc_queries_covers_the_offsets_evenly() {
        let seq = AdhocSequence::new(9);
        for from in [0u64, 5_000, 777_777] {
            let mut per_offset = [0u32; ADHOC_OFFSETS as usize];
            for i in from..from + 1310 {
                per_offset[(seq.params(i).2 - ADHOC_FIRST_OFFSET) as usize] += 1;
            }
            assert!(per_offset.iter().all(|&n| (9..=11).contains(&n)));
        }
    }

    #[test]
    fn menus_and_batches_are_functions_of_the_seed() {
        assert_eq!(net_point_menu(1), net_point_menu(1));
        assert_ne!(net_point_menu(1), net_point_menu(2));
        assert_eq!(join_heavy_menu(1).len(), 8);
        assert_ne!(join_heavy_menu(1), join_heavy_menu(2));
        let menu = ingest_reader_menu(1);
        let reads_lineitem = |q: &&Query| q.tables.iter().any(|t| t == "lineitem");
        assert_eq!(menu.iter().filter(reads_lineitem).count(), 6);
        assert_eq!(menu.len(), 8);
        let a = ingest_batch(1, 0, 1000, 200);
        assert_eq!(a.len(), BATCH_ROWS);
        assert_eq!(
            format!("{a:?}"),
            format!("{:?}", ingest_batch(1, 0, 1000, 200))
        );
        assert_ne!(
            format!("{a:?}"),
            format!("{:?}", ingest_batch(1, 1, 1000, 200))
        );
        assert_ne!(
            format!("{a:?}"),
            format!("{:?}", ingest_batch(2, 0, 1000, 200))
        );
    }
}
