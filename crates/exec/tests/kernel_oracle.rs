//! Differential kernel-oracle harness: every vectorized columnar kernel
//! is checked against a naive row-at-a-time reference implementation
//! written independently in this file, on arbitrary (NULL-heavy) inputs,
//! at 1, 2, and 8 threads; the executor as a whole is checked against the
//! *composition* of those references over `Table::row`.
//!
//! "Identical" here means *bit*-identical: same rows, same row order —
//! not just the same multiset — plus the same simulated cost and
//! `OpMetrics` at every thread count.
//! Edge cases (empty batches, all-selected, none-selected predicates)
//! get dedicated deterministic tests below the property block.

use proptest::prelude::*;
use rqo_exec::agg::hash_aggregate;
use rqo_exec::join::{hash_join, merge_join};
use rqo_exec::kernels::filter_batch;
use rqo_exec::{
    execute_analyze, execute_guarded, AggExpr, AggFunc, Batch, ExecOptions, ExecStatus,
    PhysicalPlan,
};
use rqo_expr::Expr;
use rqo_storage::{
    Catalog, ColumnVec, CostParams, CostTracker, DataType, Rid, Schema, TableBuilder, Value,
};
use std::sync::Arc;

/// Morsel size of every kernel run below.
const MORSEL: usize = 16;

/// One thread (inline morsel loop), then pools of 2 and 8 workers.
fn thread_opts() -> [ExecOptions; 3] {
    [1usize, 2, 8].map(|t| ExecOptions::with_threads(t).with_morsel_size(MORSEL))
}

/// NULL-heavy three-column batch: `a Int`, `b Float`, `c Str`.
/// Nullability is derived from the generated values themselves so the
/// shrinker stays effective (`a % 4 == 0` → NULL a, `b` rounding to a
/// multiple of 5 → NULL b).
fn make_batch(rows: &[(i64, i64, u8)]) -> Batch {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("c", DataType::Str),
    ]);
    let rows: Vec<Vec<Value>> = rows
        .iter()
        .map(|&(a, b, c)| {
            vec![
                if a % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(a)
                },
                if b % 5 == 0 {
                    Value::Null
                } else {
                    Value::Float(b as f64 * 0.25)
                },
                Value::str(match c % 3 {
                    0 => "red",
                    1 => "green",
                    _ => "blue",
                }),
            ]
        })
        .collect();
    Batch::from_rows(schema, rows)
}

/// The predicate menu exercised against the filter kernel: typed Int and
/// Float comparisons, string equality, AND composition, BETWEEN, IS
/// NULL / OR (fallback path), an always-false comparison, BETWEEN over
/// Float (±0.0 bounds), Str and coerced Float bounds, BETWEEN with bounds
/// of two types (fallback path), and `!=`.
fn predicate(which: usize, cut: i64) -> Expr {
    let names = ["a", "blue", "green", "red", "z"];
    match which % 12 {
        0 => Expr::col("a").ge(Expr::lit(cut)),
        1 => Expr::col("b").lt(Expr::lit(cut as f64 * 0.25)),
        2 => Expr::col("c").eq(Expr::lit("green")),
        3 => Expr::col("a")
            .lt(Expr::lit(cut))
            .and(Expr::col("c").ne(Expr::lit("blue"))),
        4 => Expr::col("a").between(Expr::lit(cut), Expr::lit(cut + 10)),
        5 => Expr::col("a")
            .is_null()
            .or(Expr::col("b").ge(Expr::lit(cut as f64))),
        6 => Expr::col("b").gt(Expr::lit(1e18)),
        7 if cut % 2 == 0 => Expr::col("b").between(Expr::lit(-0.0), Expr::lit(cut as f64 * 0.25)),
        7 => Expr::col("b").between(Expr::lit(cut as f64 * 0.25), Expr::lit(0.0)),
        8 => Expr::col("c").between(
            Expr::lit(names[cut.rem_euclid(5) as usize]),
            Expr::lit(names[(cut / 5).rem_euclid(5) as usize]),
        ),
        9 => Expr::col("a").between(Expr::lit(cut as f64 - 0.5), Expr::lit(cut as f64 + 7.5)),
        10 => Expr::col("a").between(Expr::lit(cut), Expr::lit(cut as f64 + 7.5)),
        _ => Expr::col("a").ne(Expr::lit(cut)),
    }
}

/// Row-at-a-time filter oracle: `eval_bool` per row, order preserved.
fn oracle_filter(batch: &Batch, bound: &Expr) -> Vec<Vec<Value>> {
    batch
        .to_rows()
        .iter()
        .filter(|row| rqo_expr::eval_bool(bound, row))
        .cloned()
        .collect()
}

/// Row-at-a-time projection oracle.
fn oracle_project(batch: &Batch, ordinals: &[usize]) -> Vec<Vec<Value>> {
    batch
        .to_rows()
        .iter()
        .map(|row| ordinals.iter().map(|&i| row[i].clone()).collect())
        .collect()
}

/// Nested-loops hash-join oracle: for each probe row in order, emit
/// `build ++ probe` for every matching build row in build order.  Key
/// equality is `Value`'s storage equality — NULL keys match NULL keys.
fn oracle_join(build: &Batch, probe: &Batch, bk: usize, pk: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for prow in &probe.to_rows() {
        for brow in &build.to_rows() {
            if brow[bk] == prow[pk] {
                let mut row = brow.clone();
                row.extend(prow.iter().cloned());
                out.push(row);
            }
        }
    }
    out
}

/// The rows of one [`make_batch`] input.
type Rows = Vec<(i64, i64, u8)>;

/// An FK-shaped join's inputs from `build` payloads and `probe` picks:
/// build key `4i + 1` for row `i` (unique, and never NULL in
/// [`make_batch`], which nulls `a % 4 == 0`), and each probe row keyed
/// by the build row its pick lands on.
fn fk_sides(build: &[(i64, u8)], probe: &[(usize, i64, u8)]) -> (Rows, Rows) {
    let key = |i: usize| 4 * i as i64 + 1;
    (
        build
            .iter()
            .enumerate()
            .map(|(i, &(b, c))| (key(i), b, c))
            .collect(),
        probe
            .iter()
            .map(|&(at, b, c)| (key(at % build.len()), b, c))
            .collect(),
    )
}

/// Whether every row of `probe` meets exactly one row of `build` on
/// column `a`, under storage equality.
fn one_to_one(build: &Batch, probe: &Batch) -> bool {
    let keys: Vec<Value> = build.to_rows().into_iter().map(|r| r[0].clone()).collect();
    probe
        .to_rows()
        .iter()
        .all(|p| keys.iter().filter(|k| **k == p[0]).count() == 1)
}

/// Scan oracle: `Table::row` per RID, then `eval_bool` per row.
fn oracle_scan(cat: &Catalog, table: &str, pred: Option<&Expr>) -> Batch {
    let t = cat.table(table).unwrap();
    let bound = pred.map(|p| p.bind(t.schema()).unwrap());
    let rows = (0..t.num_rows() as Rid)
        .map(|rid| t.row(rid))
        .filter(|row| bound.as_ref().is_none_or(|p| rqo_expr::eval_bool(p, row)))
        .collect();
    Batch::from_rows(t.schema().clone(), rows)
}

/// Row-at-a-time, morsel-aware aggregation oracle over the six-aggregate
/// menu (`a` = column 0, `b` = column 1), grouped by the columns `keys`
/// (none: one scalar group): accumulators are updated in row order within
/// each `morsel_size` chunk and the per-chunk partials are merged in chunk
/// order — the engine's float-addition sequence — with groups emitted
/// sorted by key, column by column, the engine's deterministic output
/// order.  Keys compare by `Value`'s storage equality (NULL equals NULL,
/// floats by their bits).
fn oracle_aggregate(batch: &Batch, keys: &[usize], morsel_size: usize) -> Vec<Vec<Value>> {
    struct Acc {
        key: Vec<Value>,
        sum_b: f64,
        n_star: i64,
        n_a: i64,
        avg_sum: f64,
        avg_n: i64,
        min_a: Option<Value>,
        max_b: Option<Value>,
    }
    fn slot(accs: &mut Vec<Acc>, key: Vec<Value>) -> &mut Acc {
        if let Some(i) = accs.iter().position(|a| a.key == key) {
            return &mut accs[i];
        }
        accs.push(Acc {
            key,
            sum_b: 0.0,
            n_star: 0,
            n_a: 0,
            avg_sum: 0.0,
            avg_n: 0,
            min_a: None,
            max_b: None,
        });
        accs.last_mut().unwrap()
    }
    fn keep_if(cur: &mut Option<Value>, v: &Value, wins: std::cmp::Ordering) {
        if cur.as_ref().is_none_or(|c| v.total_cmp(c) == wins) {
            *cur = Some(v.clone());
        }
    }
    use std::cmp::Ordering::{Greater, Less};
    let mut accs: Vec<Acc> = Vec::new();
    for chunk in batch.to_rows().chunks(morsel_size) {
        let mut partial: Vec<Acc> = Vec::new();
        for row in chunk {
            let acc = slot(&mut partial, keys.iter().map(|&k| row[k].clone()).collect());
            acc.n_star += 1;
            if !row[0].is_null() {
                acc.n_a += 1;
                keep_if(&mut acc.min_a, &row[0], Less);
            }
            if !row[1].is_null() {
                acc.sum_b += row[1].as_f64();
                acc.avg_sum += row[1].as_f64();
                acc.avg_n += 1;
                keep_if(&mut acc.max_b, &row[1], Greater);
            }
        }
        for p in partial {
            match accs.iter_mut().find(|a| a.key == p.key) {
                None => accs.push(p),
                Some(acc) => {
                    acc.sum_b += p.sum_b;
                    acc.n_star += p.n_star;
                    acc.n_a += p.n_a;
                    acc.avg_sum += p.avg_sum;
                    acc.avg_n += p.avg_n;
                    if let Some(v) = &p.min_a {
                        keep_if(&mut acc.min_a, v, Less);
                    }
                    if let Some(v) = &p.max_b {
                        keep_if(&mut acc.max_b, v, Greater);
                    }
                }
            }
        }
    }
    // A scalar aggregate over no rows still has its one (identity) group.
    if keys.is_empty() && accs.is_empty() {
        slot(&mut accs, Vec::new());
    }
    accs.sort_by(|x, y| x.key.cmp(&y.key));
    accs.into_iter()
        .map(|a| {
            let aggs = [
                Value::Float(a.sum_b),
                Value::Int(a.n_star),
                Value::Int(a.n_a),
                if a.avg_n == 0 {
                    Value::Null
                } else {
                    Value::Float(a.avg_sum / a.avg_n as f64)
                },
                a.min_a.unwrap_or(Value::Null),
                a.max_b.unwrap_or(Value::Null),
            ];
            a.key.into_iter().chain(aggs).collect()
        })
        .collect()
}

/// The six-aggregate menu matching [`oracle_aggregate`]'s output layout,
/// over the columns named `a` (column 0) and `b` (column 1).
fn agg_menu(a: &str, b: &str) -> Vec<AggExpr> {
    vec![
        AggExpr::sum(b, "sum"),
        AggExpr::count_star("n"),
        AggExpr {
            func: AggFunc::Count,
            column: Some(a.into()),
            alias: "na".into(),
        },
        AggExpr::avg(b, "m"),
        AggExpr::min(a, "lo"),
        AggExpr::max(b, "hi"),
    ]
}

/// The group keys `agg_kernel_matches_oracle` draws, as [`typed_batch`]
/// column names: none (a scalar aggregate), each column alone, a
/// two-column composite, and all six columns at once — under which nearly
/// every row is its own group, so a long draw has well over 64 groups and
/// every morsel has as many groups as rows.
const GROUP_KEYS: [&[&str]; 9] = [
    &[],
    &["g"],
    &["i"],
    &["f"],
    &["d"],
    &["s"],
    &["t"],
    &["g", "s"],
    &["g", "i", "f", "d", "s", "t"],
];

/// The five typed columns of [`typed_batch`], with their types.
const TYPED: [(&str, DataType); 5] = [
    ("i", DataType::Int),
    ("f", DataType::Float),
    ("d", DataType::Date),
    ("s", DataType::Str),
    ("t", DataType::Bool),
];

/// Floats whose bits differ where their values look alike: both zeros,
/// both infinities, NaNs of either sign and with a payload.
const EDGE_FLOATS: [f64; 8] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7ff8_0000_0000_0001),
    1.5,
];

/// NULL-heavy batch: an `Int` group key `g` (0–3, 4 is NULL) and one
/// column of each type.  Column `c` is NULL when bit `c` of `nulls` is
/// set, and otherwise decoded from `x` rotated by `13·c`; two floats in
/// three are [`EDGE_FLOATS`], so they repeat and cover NaNs, infinities
/// and both zeros.
fn typed_batch(rows: &[(u8, u8, u64)]) -> Batch {
    let mut pairs = vec![("g", DataType::Int)];
    pairs.extend(TYPED);
    let rows = rows
        .iter()
        .map(|&(g, nulls, x)| {
            let key = if g == 4 {
                Value::Null
            } else {
                Value::Int(g.into())
            };
            let cells = TYPED.iter().enumerate().map(|(c, &(_, dt))| {
                let x = x.rotate_left(13 * c as u32);
                match dt {
                    _ if nulls >> c & 1 == 1 => Value::Null,
                    DataType::Int => Value::Int(x as i64 % 50),
                    DataType::Float => Value::Float(match x % 3 {
                        0 => f64::from_bits(x),
                        _ => EDGE_FLOATS[(x >> 2) as usize % EDGE_FLOATS.len()],
                    }),
                    DataType::Date => Value::Date(x as i32),
                    DataType::Str => Value::str(format!("s{}", x % 7)),
                    DataType::Bool => Value::Bool(x % 2 == 0),
                }
            });
            std::iter::once(key).chain(cells).collect()
        })
        .collect();
    Batch::from_rows(Schema::from_pairs(&pairs), rows)
}

/// A `Value`'s identity: variant tag plus payload bits (`Value`'s own
/// `==` is storage equality, under which `Int(1) == Float(1.0)`).
fn bits(v: &Value) -> (u8, u64, Option<Arc<str>>) {
    match v {
        Value::Null => (0, 0, None),
        Value::Int(x) => (1, *x as u64, None),
        Value::Float(x) => (2, x.to_bits(), None),
        Value::Date(x) => (3, *x as u64, None),
        Value::Str(s) => (4, 0, Some(Arc::clone(s))),
        Value::Bool(b) => (5, *b as u64, None),
    }
}

/// Row-at-a-time MIN/MAX oracle over [`typed_batch`]: per group (or one
/// scalar group), MIN then MAX of each typed column by
/// `Value::total_cmp`, skipping NULLs; groups sorted by key.
fn oracle_min_max(batch: &Batch, grouped: bool) -> Vec<Vec<Value>> {
    let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
    if !grouped {
        groups.push((Value::Null, vec![Value::Null; 2 * TYPED.len()]));
    }
    for row in batch.to_rows() {
        let key = if grouped { row[0].clone() } else { Value::Null };
        let at = match groups.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                groups.push((key, vec![Value::Null; 2 * TYPED.len()]));
                groups.len() - 1
            }
        };
        let acc = &mut groups[at].1;
        for (c, v) in row[1..].iter().enumerate() {
            use std::cmp::Ordering::{Greater, Less};
            for (slot, wins) in [(2 * c, Less), (2 * c + 1, Greater)] {
                if !v.is_null() && (acc[slot].is_null() || v.total_cmp(&acc[slot]) == wins) {
                    acc[slot] = v.clone();
                }
            }
        }
    }
    groups.sort_by(|x, y| x.0.total_cmp(&y.0));
    groups
        .into_iter()
        .map(|(key, acc)| {
            if grouped {
                [vec![key], acc].concat()
            } else {
                acc
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MIN and MAX keep their input's type: over `Int`, `Float`, `Date`,
    /// `Str` and `Bool` inputs, grouped and scalar, every output column
    /// is declared with the input's type and is that typed column, and
    /// its rows equal the row oracle's bit for bit at every thread count.
    #[test]
    fn min_max_outputs_keep_their_input_type(
        rows in prop::collection::vec((0u8..5, any::<u8>(), any::<u64>()), 0..120),
    ) {
        let batch = typed_batch(&rows);
        let aggs: Vec<AggExpr> = TYPED
            .iter()
            .flat_map(|(c, _)| [AggExpr::min(*c, format!("lo_{c}")), AggExpr::max(*c, format!("hi_{c}"))])
            .collect();
        for grouped in [false, true] {
            let group_by = if grouped { vec!["g".to_string()] } else { vec![] };
            let expect = oracle_min_max(&batch, grouped);
            let first = usize::from(grouped);
            for opts in thread_opts() {
                let mut t = CostTracker::new();
                let out = hash_aggregate(&mut t, batch.clone(), &group_by, &aggs, &opts).unwrap();
                for (k, col) in out.columns()[first..].iter().enumerate() {
                    let dt = TYPED[k / 2].1;
                    prop_assert_eq!(out.schema.column(first + k).data_type, dt);
                    let typed = matches!(
                        (&**col, dt),
                        (ColumnVec::Int { .. }, DataType::Int)
                            | (ColumnVec::Float { .. }, DataType::Float)
                            | (ColumnVec::Date { .. }, DataType::Date)
                            | (ColumnVec::Str { .. }, DataType::Str)
                            | (ColumnVec::Bool { .. }, DataType::Bool)
                    );
                    prop_assert!(typed, "{} output is a {:?}", dt, col);
                }
                let got = out.to_rows();
                prop_assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(&expect) {
                    prop_assert_eq!(
                        g.iter().map(bits).collect::<Vec<_>>(),
                        e.iter().map(bits).collect::<Vec<_>>(),
                        "{:?}", opts
                    );
                }
            }
        }
    }

    /// The vectorized filter kernel reproduces the row oracle exactly —
    /// rows, order — at every thread count.
    #[test]
    fn filter_kernel_matches_oracle(
        rows in prop::collection::vec((-40i64..40, -40i64..40, 0u8..=255), 0..120),
        which in 0usize..12,
        cut in -30i64..30,
    ) {
        let batch = make_batch(&rows);
        let bound = predicate(which, cut).bind(&batch.schema).unwrap();
        let expect = oracle_filter(&batch, &bound);
        for opts in thread_opts() {
            let out = filter_batch(batch.clone(), &bound, &opts).unwrap();
            prop_assert_eq!(&out.to_rows(), &expect, "{:?}", opts);
        }
    }

    /// The typed-key hash-join kernel reproduces the nested-loops oracle
    /// (probe-major order, build order within a key, NULL keys matching
    /// NULL keys) with the same charges at every thread count.  The second
    /// generator chains long runs: its build side falls on keys 1 and 2
    /// plus NULLs (`a % 4 == 0`), spans several morsels and outnumbers the
    /// probe side, so every probe row walks a long list of build rows.
    /// The third is FK-shaped — unique build keys, every probe key among
    /// them, no NULL key — and there, as wherever every probe row meets
    /// exactly one build row, each probe column of the output is its
    /// input column, uncopied.
    #[test]
    fn join_kernel_matches_oracle(
        sides in prop_oneof![
            (
                prop::collection::vec((-6i64..6, -100i64..100, 0u8..=255), 0..60),
                prop::collection::vec((-6i64..6, -100i64..100, 0u8..=255), 0..60),
            ),
            (
                prop::collection::vec((prop_oneof![Just(1i64), Just(2), Just(4)], -100i64..100, 0u8..=255), 40..100),
                prop::collection::vec((0i64..4, -100i64..100, 0u8..=255), 0..40),
            ),
            (
                prop::collection::vec((-100i64..100, 0u8..=255), 1..40),
                prop::collection::vec((0usize..1000, -100i64..100, 0u8..=255), 0..100),
            ).prop_map(|(build, probe)| fk_sides(&build, &probe)),
        ],
    ) {
        let (build, probe) = sides;
        let b = make_batch(&build);
        let p = make_batch(&probe);
        let expect = oracle_join(&b, &p, 0, 0);
        let through = one_to_one(&b, &p);
        let mut base_cost: Option<CostTracker> = None;
        for opts in thread_opts() {
            let mut t = CostTracker::new();
            let out = hash_join(&mut t, b.clone(), p.clone(), "a", "a", None, &opts).unwrap();
            prop_assert_eq!(&out.to_rows(), &expect, "{:?}", opts);
            prop_assert_eq!(t.hash_builds, b.len() as u64);
            prop_assert_eq!(t.hash_probes, p.len() as u64);
            prop_assert_eq!(t, *base_cost.get_or_insert(t), "{:?}", opts);
            if through {
                for (got, input) in out.columns()[b.schema.len()..].iter().zip(p.columns()) {
                    prop_assert!(Arc::ptr_eq(got, input), "{:?}", opts);
                }
            }
        }
    }

    /// A join asked for some of its output columns builds exactly those:
    /// the full join projected to the names asked for (`l.`/`r.`-qualified
    /// clashes and plain names alike, and a name it lacks ignored), with
    /// the same charges; asked for none, it keeps one column and every
    /// row.
    #[test]
    fn join_builds_only_the_columns_asked_for(
        build in prop::collection::vec((-6i64..6, -100i64..100, 0u8..=255), 0..60),
        probe in prop::collection::vec((-6i64..6, -100i64..100, 0u8..=255), 0..60),
        subset in 0u32..128,
        merge in any::<bool>(),
    ) {
        let b = make_batch(&build);
        let p0 = make_batch(&probe);
        // The probe's `c` is `d`: its output name stays plain.
        let p = Batch::new(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float), ("d", DataType::Str)]),
            p0.columns().to_vec(),
        );
        let names = ["l.a", "l.b", "c", "r.a", "r.b", "d", "absent"];
        let needed: Vec<String> = names
            .iter()
            .enumerate()
            .filter(|(i, _)| subset >> i & 1 == 1)
            .map(|(_, n)| n.to_string())
            .collect();
        for opts in thread_opts() {
            let join = |needed: Option<&[String]>, t: &mut CostTracker| {
                if merge {
                    merge_join(t, b.clone(), p.clone(), "a", "a", needed, &opts).unwrap()
                } else {
                    hash_join(t, b.clone(), p.clone(), "a", "a", needed, &opts).unwrap()
                }
            };
            let (mut t_full, mut t_some) = (CostTracker::new(), CostTracker::new());
            let full = join(None, &mut t_full);
            let some = join(Some(&needed), &mut t_some);
            prop_assert_eq!(t_some, t_full, "{:?}", opts);
            prop_assert_eq!(some.len(), full.len());
            let asked = full.clone().retain_columns(|n| needed.iter().any(|x| x == n));
            if needed.iter().any(|n| full.schema.index_of(n).is_some()) {
                prop_assert_eq!(some.schema.names(), asked.schema.names());
                prop_assert_eq!(some.to_rows(), asked.to_rows(), "{:?}", opts);
            } else {
                prop_assert_eq!(some.schema.len(), 1);
            }
        }
    }

    /// The aggregation kernel reproduces the morsel-aware row oracle
    /// bit-for-bit (float sums accumulate in the same sequence) over
    /// NULL-heavy inputs at every thread count, for every key shape in
    /// [`GROUP_KEYS`].  In half the draws (`dense`) the key is a NULL-free
    /// `g` of four values over a column of non-integral floats: that takes
    /// the dense-key path, where summation order shows in the bits.
    #[test]
    fn agg_kernel_matches_oracle(
        rows in prop::collection::vec((0u8..5, any::<u8>(), any::<u64>()), 0..200),
        key in 0usize..GROUP_KEYS.len(),
        dense in any::<bool>(),
    ) {
        let (batch, aggs, group_by) = if dense {
            let rows = rows
                .iter()
                .map(|&(g, nulls, x)| {
                    let v = match nulls % 8 {
                        0 => Value::Null,
                        _ => Value::Float((x % 100_000) as f64 / 7.0 - 7000.0),
                    };
                    vec![Value::Int((g % 4).into()), v]
                })
                .collect();
            let schema = Schema::from_pairs(&[("g", DataType::Int), ("v", DataType::Float)]);
            (Batch::from_rows(schema, rows), agg_menu("g", "v"), vec!["g".to_string()])
        } else {
            let group_by = GROUP_KEYS[key].iter().map(|c| c.to_string()).collect();
            (typed_batch(&rows), agg_menu("g", "i"), group_by)
        };
        let ordinals: Vec<usize> = group_by.iter().map(|c| batch.schema.expect_index(c)).collect();
        let expect = oracle_aggregate(&batch, &ordinals, MORSEL);
        let mut base_cost: Option<CostTracker> = None;
        for opts in thread_opts() {
            let mut t = CostTracker::new();
            let out = hash_aggregate(&mut t, batch.clone(), &group_by, &aggs, &opts).unwrap();
            prop_assert_eq!(&out.to_rows(), &expect, "{:?}", opts);
            prop_assert_eq!(t.hash_builds, batch.len() as u64);
            prop_assert_eq!(t, *base_cost.get_or_insert(t), "{:?}", opts);
        }
    }

    /// Executor-level differential: a scan→join→filter→aggregate
    /// plan over two `SeqScan` leaves — one filtered, one not — returns
    /// exactly the composition of the row oracles over `Table::row`, with
    /// identical costs AND `OpMetrics` trees at every thread count.
    #[test]
    fn executor_matches_composed_oracles(
        rows in prop::collection::vec((-10i64..10, -50i64..50), 1..80),
        cut in -40i64..40,
    ) {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut tb = TableBuilder::new("t", schema, rows.len());
        for &(k, v) in &rows {
            tb.push_row(&[Value::Int(k), Value::Int(v)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(tb.finish()).unwrap();
        let params = CostParams::default();

        let build_pred = Expr::col("v").ge(Expr::lit(cut));
        let filter_pred = Expr::col("r.v").lt(Expr::lit(cut + 40));
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::HashJoin {
                    build: Box::new(PhysicalPlan::SeqScan {
                        table: "t".into(),
                        predicate: Some(build_pred.clone()),
                    }),
                    probe: Box::new(PhysicalPlan::SeqScan {
                        table: "t".into(),
                        predicate: None,
                    }),
                    build_key: "k".into(),
                    probe_key: "k".into(),
                }),
                predicate: filter_pred.clone(),
            }),
            group_by: vec!["l.k".into()],
            aggregates: agg_menu("l.k", "r.v"),
        };

        let build = oracle_scan(&cat, "t", Some(&build_pred));
        let probe = oracle_scan(&cat, "t", None);
        let joined = Batch::from_rows(
            build.schema.join(&probe.schema, "l", "r"),
            oracle_join(&build, &probe, 0, 0),
        );
        let bound = filter_pred.bind(&joined.schema).unwrap();
        let filtered = Batch::from_rows(joined.schema.clone(), oracle_filter(&joined, &bound));
        let ordinals = [
            filtered.schema.expect_index("l.k"),
            filtered.schema.expect_index("r.v"),
        ];
        let projected = Batch::from_rows(
            filtered.schema.project(&ordinals),
            oracle_project(&filtered, &ordinals),
        );
        let expect = oracle_aggregate(&projected, &[0], MORSEL);

        let mut base = None;
        for opts in thread_opts() {
            let (batch, cost, metrics) = execute_analyze(&plan, &cat, &params, &opts);
            prop_assert_eq!(&batch.to_rows(), &expect, "{:?}", opts);
            let (base_cost, base_metrics) = base.get_or_insert((cost, metrics.clone()));
            prop_assert_eq!(cost, *base_cost, "{:?}", opts);
            prop_assert_eq!(&metrics, &*base_metrics, "{:?}", opts);
        }
    }
}

/// Empty input through every kernel: no rows out, schemas intact.
#[test]
fn kernels_on_empty_batch() {
    let empty = make_batch(&[]);
    let opts = ExecOptions::default();
    let bound = predicate(0, 0).bind(&empty.schema).unwrap();
    assert!(filter_batch(empty.clone(), &bound, &opts)
        .unwrap()
        .to_rows()
        .is_empty());

    let mut t = CostTracker::new();
    let joined = hash_join(&mut t, empty.clone(), empty.clone(), "a", "a", None, &opts).unwrap();
    assert!(joined.to_rows().is_empty());

    // Scalar aggregate over empty input still yields its identity row.
    let mut t = CostTracker::new();
    let aggd = hash_aggregate(&mut t, empty, &[], &agg_menu("a", "b"), &opts).unwrap();
    assert_eq!(
        aggd.to_rows(),
        vec![vec![
            Value::Float(0.0),
            Value::Int(0),
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
        ]]
    );
}

/// A join gathers its probe side as soon as one probe row does not meet
/// exactly one build row — a probe key the build lacks, a duplicated
/// build key, a NULL probe key — and passes it through otherwise; the
/// rows are the oracle's either way.
#[test]
fn join_gathers_a_probe_side_that_is_not_one_to_one() {
    let build: Vec<(i64, u8)> = (0..20).map(|i| (i * 3 % 17, i as u8)).collect();
    let probe: Vec<(usize, i64, u8)> = (0..50).map(|i| (i * 7, i as i64, i as u8)).collect();
    let (fk_build, fk_probe) = fk_sides(&build, &probe);
    let mut miss = fk_probe.clone();
    miss[30].0 = 2;
    let mut dup = fk_build.clone();
    dup.push(fk_build[(fk_probe[10].0 as usize - 1) / 4]);
    let mut null = fk_probe.clone();
    null[5].0 = 0;
    for (case, build, probe, through) in [
        ("one-to-one", &fk_build, &fk_probe, true),
        ("probe miss", &fk_build, &miss, false),
        ("duplicate build key", &dup, &fk_probe, false),
        ("NULL probe key", &fk_build, &null, false),
    ] {
        let (b, p) = (make_batch(build), make_batch(probe));
        let expect = oracle_join(&b, &p, 0, 0);
        for opts in thread_opts() {
            let mut t = CostTracker::new();
            let out = hash_join(&mut t, b.clone(), p.clone(), "a", "a", None, &opts).unwrap();
            assert_eq!(out.to_rows(), expect, "{case}, {:?}", opts);
            let shared = out.columns()[b.schema.len()..]
                .iter()
                .zip(p.columns())
                .all(|(got, input)| Arc::ptr_eq(got, input));
            assert_eq!(shared, through, "{case}, {:?}", opts);
        }
    }
}

/// A two-column batch: key `a` (`None` is NULL; the column has a null
/// mask only when some key is NULL) and payload `b`, the row's position.
fn keyed_batch(keys: &[Option<i64>]) -> Batch {
    Batch::from_rows(
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
        keys.iter()
            .enumerate()
            .map(|(i, k)| vec![k.map_or(Value::Null, Value::Int), Value::Int(i as i64)])
            .collect(),
    )
}

/// The keys of a join's two sides (`None` is NULL).
type KeySides = (Vec<Option<i64>>, Vec<Option<i64>>);

/// Probe keys around `build`: each key, its neighbours (saturating), the
/// `i64` extremes, 0 and a NULL-free miss, in an order that mixes them.
fn keys_around(build: &[i64]) -> Vec<Option<i64>> {
    let mut keys = vec![i64::MIN, i64::MAX, 0, -1];
    for &k in build.iter().rev() {
        keys.extend([k.saturating_add(1), k, k.saturating_sub(1)]);
    }
    keys.into_iter().map(Some).collect()
}

/// The hash join over build key domains of every shape that decides how
/// it finds a key's build rows: sparse, dense, negative and one-row
/// domains, spans just inside and just outside the direct-addressing
/// bound of 2¹⁸ keys, spans at both `i64` extremes and across the whole
/// of `i64`, duplicated build keys, and NULL keys on either side.  Rows,
/// row order and every charge match the nested-loops oracle at 1/2/8
/// threads, and the probe columns pass through uncopied exactly when
/// every probe row meets one build row.
#[test]
fn join_kernel_matches_oracle_over_key_domains() {
    const BOUND: i64 = 1 << 18;
    let some = |keys: &[i64]| keys.iter().copied().map(Some).collect::<Vec<_>>();
    let around = |keys: &[i64]| (some(keys), keys_around(keys));
    let sparse: Vec<i64> = (0..40).map(|i| i * 997 - 3).collect();
    let dense: Vec<i64> = (0..300).collect();
    let fk_probe: Vec<i64> = (0..600).map(|i| i * 7 % 300).collect();
    let negative: Vec<i64> = (0..30).map(|i| -500 + 3 * i).collect();
    let cases: Vec<(&str, KeySides)> = vec![
        ("sparse", around(&sparse)),
        ("dense", around(&dense)),
        ("dense, FK-shaped probe", (some(&dense), some(&fk_probe))),
        ("negative", around(&negative)),
        ("one row", around(&[42])),
        (
            "just inside the bound",
            around(&[7, 7 + BOUND / 2, 7 + BOUND - 1]),
        ),
        (
            "just outside the bound",
            around(&[7, 7 + BOUND / 2, 7 + BOUND]),
        ),
        (
            "at i64::MAX",
            around(&[i64::MAX - 3, i64::MAX, i64::MAX - 1]),
        ),
        ("at i64::MIN", around(&[i64::MIN + 2, i64::MIN])),
        ("i64::MIN..=i64::MAX", around(&[i64::MIN, -1, 0, i64::MAX])),
        (
            "duplicate build keys",
            (some(&[3, 3, 9, 3, 9, 12]), some(&[9, 3, 4, 12, 3, 9, 3])),
        ),
        (
            "NULL build key",
            (
                vec![Some(1), None, Some(2), None, Some(2)],
                some(&[2, 1, 5, 2]),
            ),
        ),
        (
            "NULL probe key",
            (
                some(&[1, 2, 3]),
                vec![None, Some(2), None, Some(3), Some(0)],
            ),
        ),
        (
            "NULL keys on both sides",
            (
                vec![None, Some(4), None],
                vec![Some(4), None, Some(5), None],
            ),
        ),
    ];
    for (case, (build, probe)) in cases {
        let (b, p) = (keyed_batch(&build), keyed_batch(&probe));
        let expect = oracle_join(&b, &p, 0, 0);
        let through = one_to_one(&b, &p);
        let want = CostTracker {
            hash_builds: b.len() as u64,
            hash_probes: p.len() as u64,
            cpu_ops: expect.len() as u64,
            ..CostTracker::new()
        };
        for opts in thread_opts() {
            let mut t = CostTracker::new();
            let out = hash_join(&mut t, b.clone(), p.clone(), "a", "a", None, &opts).unwrap();
            assert_eq!(out.to_rows(), expect, "{case}, {opts:?}");
            assert_eq!(t, want, "{case}, {opts:?}");
            let shared = out.columns()[b.schema.len()..]
                .iter()
                .zip(p.columns())
                .all(|(got, input)| Arc::ptr_eq(got, input));
            assert_eq!(shared, through, "{case}, {opts:?}");
        }
    }
}

/// Merge-join oracle: every pair of a `left` and a `right` row whose keys
/// (column 0) are equal under storage equality — NULL matches NULL — as
/// `left ++ right`, in nested-loops order, then stably sorted by key with
/// NULL first.  Within a key the left rows keep their input order, and
/// each meets the right rows in theirs.
fn oracle_merge_join(left: &Batch, right: &Batch) -> Vec<Vec<Value>> {
    let mut out = oracle_join(right, left, 0, 0)
        .into_iter()
        .map(|row| {
            let split = right.schema.len();
            [&row[split..], &row[..split]].concat()
        })
        .collect::<Vec<_>>();
    out.sort_by(|x, y| x[0].total_cmp(&y[0]));
    out
}

/// A merge join's charges: `n·⌈log₂ n⌉` CPU ops to sort each side whose
/// keys are not already in order, one per input row and one per output
/// row.
fn merge_join_charges(left: &[Option<i64>], right: &[Option<i64>], out: usize) -> CostTracker {
    let sort = |keys: &[Option<i64>]| {
        let n = keys.len() as u64;
        if keys.is_sorted() {
            0
        } else {
            n * (n.max(2) as f64).log2().ceil() as u64
        }
    };
    CostTracker {
        cpu_ops: sort(left) + sort(right) + (left.len() + right.len() + out) as u64,
        ..CostTracker::new()
    }
}

/// Keys with NULLs where the tag is 0.
fn nullable_keys(tagged: Vec<(u8, i64)>) -> Vec<Option<i64>> {
    tagged
        .into_iter()
        .map(|(tag, k)| (tag != 0).then_some(k))
        .collect()
}

fn sorted<T: Ord>(mut keys: Vec<T>) -> Vec<T> {
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The merge join reproduces the key-sorted nested-loops oracle —
    /// rows, row order, charges — at every thread count, over sorted
    /// NULL-free inputs (read in place, crossed by galloping), sorted
    /// inputs with NULLs, unsorted inputs (sorted here, paying
    /// `n·⌈log₂ n⌉` each), a few keys against hundreds in either order,
    /// and two equal-size inputs whose keys interleave, some equal.
    #[test]
    fn merge_join_matches_oracle(
        sides in prop_oneof![
            (
                prop::collection::vec(-20i64..20, 0..80),
                prop::collection::vec(-20i64..20, 0..80),
            ).prop_map(|(l, r)| (sorted(l).into_iter().map(Some).collect(), sorted(r).into_iter().map(Some).collect())),
            (
                prop::collection::vec((0u8..5, -8i64..8), 0..60),
                prop::collection::vec((0u8..5, -8i64..8), 0..60),
            ).prop_map(|(l, r)| (sorted(nullable_keys(l)), sorted(nullable_keys(r)))),
            (
                prop::collection::vec((0u8..5, -8i64..8), 0..60),
                prop::collection::vec((1u8..5, -8i64..8), 0..60),
            ).prop_map(|(l, r)| (nullable_keys(l), nullable_keys(r))),
            (
                prop::collection::vec(0i64..2000, 0..6),
                100usize..400,
                any::<bool>(),
            ).prop_map(|(few, many, swap)| {
                let few: Vec<Option<i64>> = sorted(few).into_iter().map(Some).collect();
                let many: Vec<Option<i64>> = (0..many as i64).map(|i| Some(5 * i)).collect();
                if swap { (many, few) } else { (few, many) }
            }),
            prop::collection::vec(any::<bool>(), 20..120).prop_map(|equal| {
                let left = (0..equal.len() as i64).map(|i| Some(2 * i)).collect();
                let right = equal.iter().zip(0i64..).map(|(&eq, i)| Some(2 * i + i64::from(!eq))).collect();
                (left, right)
            }),
        ],
    ) {
        let (lkeys, rkeys): KeySides = sides;
        let (l, r) = (keyed_batch(&lkeys), keyed_batch(&rkeys));
        let expect = oracle_merge_join(&l, &r);
        let want = merge_join_charges(&lkeys, &rkeys, expect.len());
        for opts in thread_opts() {
            let mut t = CostTracker::new();
            let out = merge_join(&mut t, l.clone(), r.clone(), "a", "a", None, &opts).unwrap();
            prop_assert_eq!(&out.to_rows(), &expect, "{:?}", opts);
            prop_assert_eq!(t, want, "{:?}", opts);
        }
    }
}

/// High-cardinality grouping: more groups than a morsel has rows, each
/// group spread over many morsels, irrational sums, a NULL key group, and
/// the key the output sort orders by value (a NULL-free `Int` with
/// negatives) beside the ones it compares cell by cell (a `Date`, a
/// nullable `Int`, two columns) — bit for bit against the oracle at
/// morsel sizes 7 and 64 and 1/2/8 threads (1/2/8 partitions).
#[test]
fn agg_kernel_matches_oracle_at_high_cardinality() {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("k", DataType::Int),
        ("kn", DataType::Int),
        ("d", DataType::Date),
    ]);
    let rows: Vec<Vec<Value>> = (0..3000i64)
        .map(|i| {
            vec![
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 97 - 40)
                },
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Float((i as f64).sqrt() * std::f64::consts::PI)
                },
                // 500 keys, each every 500th row.
                Value::Int(i * 7919 % 500 - 250),
                if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 31 % 450)
                },
                Value::Date((i * 13 % 400 - 200) as i32),
            ]
        })
        .collect();
    let batch = Batch::from_rows(schema, rows);
    let aggs = agg_menu("a", "b");
    let as_bits = |rows: Vec<Vec<Value>>| -> Vec<Vec<_>> {
        rows.iter().map(|r| r.iter().map(bits).collect()).collect()
    };
    for keys in [&["k"][..], &["kn"], &["d"], &["k", "d"]] {
        let group_by: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        let ordinals: Vec<usize> = keys.iter().map(|k| batch.schema.expect_index(k)).collect();
        for morsel in [7, 64] {
            let expect = as_bits(oracle_aggregate(&batch, &ordinals, morsel));
            assert!(
                expect.len() > 64,
                "{keys:?}: more groups than a morsel has rows"
            );
            let mut base_cost = None;
            for threads in [1, 2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(morsel);
                let mut t = CostTracker::new();
                let out = hash_aggregate(&mut t, batch.clone(), &group_by, &aggs, &opts).unwrap();
                assert_eq!(
                    as_bits(out.to_rows()),
                    expect,
                    "{keys:?}, morsel={morsel}, threads={threads}"
                );
                assert_eq!(t, *base_cost.get_or_insert(t), "threads={threads}");
            }
        }
    }
}

/// The grouped aggregate over one `Int` key, across every key domain that
/// decides between the direct path (one NULL-free column spanning at most
/// 2¹⁸ values, a group per `key − min`) and the key table: dense, sparse,
/// negative, spans of exactly 2¹⁸ − 1 and 2¹⁸, domains at `i64::MIN` and
/// `i64::MAX` and across both, a NULL key, one group and empty input.
/// The six aggregates run over a float column salted with
/// [`EDGE_FLOATS`] and an `Int` column, both with NULLs.  Rows, row order,
/// float bits (but a NaN sum's payload) and every charge match the
/// morsel-aware oracle at 1/2/8 workers and morsel sizes 1, 7, 64 and
/// 4096.
#[test]
fn agg_kernel_matches_oracle_over_key_domains() {
    const BOUND: i64 = 1 << 18;
    let n = 300i64;
    let domain = |key: &dyn Fn(i64) -> Option<i64>| (0..n).map(key).collect::<Vec<_>>();
    let ends = |lo: i64, hi: i64| move |i: i64| Some([lo, lo / 2 + hi / 2, hi][i as usize % 3]);
    let cases: Vec<(&str, Vec<Option<i64>>)> = vec![
        ("dense", domain(&|i| Some(i * 7 % 40))),
        ("sparse", domain(&|i| Some(i * 7 % 40 * 100_003))),
        ("negative", domain(&|i| Some(-1000 - i * 7 % 40))),
        ("span 2^18 - 1", domain(&ends(5, 5 + BOUND - 1))),
        ("span 2^18", domain(&ends(5, 5 + BOUND))),
        ("at i64::MIN", domain(&|i| Some(i64::MIN + i * 7 % 40))),
        ("at i64::MAX", domain(&|i| Some(i64::MAX - i * 7 % 40))),
        ("i64::MIN..=i64::MAX", domain(&ends(i64::MIN, i64::MAX))),
        (
            "a NULL key",
            domain(&|i| (i % 9 != 4).then_some(i * 7 % 40)),
        ),
        ("one group", domain(&|_| Some(42))),
        ("empty input", Vec::new()),
    ];
    let opts: Vec<ExecOptions> = [1usize, 2, 8]
        .iter()
        .flat_map(|&t| [1, 7, 64, 4096].map(|m| ExecOptions::with_threads(t).with_morsel_size(m)))
        .collect();
    // Arithmetic leaves the payload of the NaN it returns unspecified (an
    // unoptimised build may commute an addition's operands), so a NaN SUM
    // or AVG (row columns 1 and 4) compares as one NaN.  Every other bit is
    // pinned, MAX's NaNs included.
    let as_bits = |rows: Vec<Vec<Value>>| -> Vec<Vec<_>> {
        let pin = |(c, v): (usize, &Value)| match v {
            Value::Float(x) if x.is_nan() && (c == 1 || c == 4) => bits(&Value::Float(f64::NAN)),
            _ => bits(v),
        };
        rows.iter()
            .map(|r| r.iter().enumerate().map(pin).collect())
            .collect()
    };
    let aggs = agg_menu("a", "b");
    for (case, keys) in cases {
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let a = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i as i64 % 13 - 6)
                };
                let b = match i {
                    _ if i % 7 == 0 => Value::Null,
                    _ if i % 23 == 0 => Value::Float(EDGE_FLOATS[i / 23 % EDGE_FLOATS.len()]),
                    _ => Value::Float((i as f64).sqrt() * std::f64::consts::PI),
                };
                vec![a, b, k.map_or(Value::Null, Value::Int)]
            })
            .collect();
        let batch = Batch::from_rows(
            Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Float),
                ("k", DataType::Int),
            ]),
            rows,
        );
        for opts in &opts {
            let expect = as_bits(oracle_aggregate(&batch, &[2], opts.morsel_size));
            let want = CostTracker {
                hash_builds: batch.len() as u64,
                cpu_ops: expect.len() as u64,
                ..CostTracker::new()
            };
            let mut t = CostTracker::new();
            let out = hash_aggregate(&mut t, batch.clone(), &["k".into()], &aggs, opts).unwrap();
            assert_eq!(as_bits(out.to_rows()), expect, "{case}, {opts:?}");
            assert_eq!(t, want, "{case}, {opts:?}");
        }
    }
}

/// All-selected and none-selected filters are exact (and exactly empty).
#[test]
fn filter_kernel_all_and_none_selected() {
    let batch = make_batch(&(0..200).map(|i| (i, i, i as u8)).collect::<Vec<_>>());
    // a IS NULL OR a >= i64::MIN covers every row, NULL or not.
    let all = Expr::col("a")
        .is_null()
        .or(Expr::col("a").ge(Expr::lit(i64::MIN)))
        .bind(&batch.schema)
        .unwrap();
    let out = filter_batch(batch.clone(), &all, &ExecOptions::default()).unwrap();
    assert_eq!(out.to_rows(), batch.to_rows());

    let none = Expr::col("b")
        .gt(Expr::lit(1e18))
        .bind(&batch.schema)
        .unwrap();
    for opts in [
        ExecOptions::default(),
        ExecOptions::with_threads(4).with_morsel_size(16),
    ] {
        let out = filter_batch(batch.clone(), &none, &opts).unwrap();
        assert!(out.to_rows().is_empty());
    }
}

/// Zero-copy is part of the contract, not an accident of the
/// implementation: a served `Materialized` slot and a predicate-free
/// full scan hand on the very columns they were given.
#[test]
fn columns_flow_between_operators_uncopied() {
    let mut b = TableBuilder::new(
        "t",
        Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]),
        50,
    );
    for i in 0..50i64 {
        b.push_row(&[
            Value::Int(i),
            Value::str(if i % 2 == 0 { "x" } else { "y" }),
        ]);
    }
    let mut cat = Catalog::new();
    cat.add_table(b.finish()).unwrap();
    let params = CostParams::default();
    let opts = ExecOptions::default().with_morsel_size(MORSEL);
    let stored = cat.table("t").unwrap().columns().to_vec();
    let scan = PhysicalPlan::SeqScan {
        table: "t".into(),
        predicate: None,
    };

    // A predicate-free full SeqScan shares the table's storage...
    let (scanned, _, _) = execute_analyze(&scan, &cat, &params, &opts);
    for (out, src) in scanned.columns().iter().zip(&stored) {
        assert!(Arc::ptr_eq(out, src), "scan output is the stored column");
    }

    // ...and a Materialized leaf serves its slot's columns as they are.
    let slot = make_batch(&(0..40).map(|i| (i, i + 1, i as u8)).collect::<Vec<_>>());
    let leaf = PhysicalPlan::Materialized {
        slot: 0,
        tables: vec!["t".into()],
        request: rqo_core::RequestKey::new(["t"], []),
    };
    let mut tracker = CostTracker::new();
    let status = execute_guarded(
        &leaf,
        &cat,
        &params,
        &opts,
        &[],
        std::slice::from_ref(&slot),
        &mut tracker,
    );
    let ExecStatus::Complete { batch: served, .. } = status else {
        panic!("an unguarded Materialized leaf completes");
    };
    for (out, src) in served.columns().iter().zip(slot.columns()) {
        assert!(Arc::ptr_eq(out, src), "served slot shares its columns");
    }
    assert_eq!(tracker, CostTracker::new(), "serving a slot is free");

    // A filtered scan, by contrast, gathers fresh vectors — but a `Str`
    // gather still shares the dictionary rather than touching strings.
    let filtered = PhysicalPlan::SeqScan {
        table: "t".into(),
        predicate: Some(Expr::col("k").lt(Expr::lit(10i64))),
    };
    let (some, _, _) = execute_analyze(&filtered, &cat, &params, &opts);
    assert_eq!(some.len(), 10);
    match (&*some.columns()[1], &*stored[1]) {
        (
            rqo_storage::ColumnVec::Str { dict: out, .. },
            rqo_storage::ColumnVec::Str { dict: src, .. },
        ) => {
            assert!(Arc::ptr_eq(out, src));
        }
        other => panic!("expected Str columns, got {other:?}"),
    }
}
