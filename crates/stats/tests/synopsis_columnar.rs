//! The join synopsis reads columns: its components are `Table::take`s of
//! the base tables and its evidence is `rqo_expr::select` over them.
//! These tests pin both halves against row-at-a-time references:
//!
//! * **sample identity** — every component row equals the base-table row
//!   at the sampled rid (root) or at the FK target of the component it
//!   was reached from, for every build path, with the rids re-derived
//!   here from the seeding scheme the plans and goldens depend on;
//! * **evidence** — `evaluate`'s `(k, n)` and `qualifying`'s ids equal a
//!   hand-written oracle that materialises each sample tuple with
//!   `Table::row` and runs `eval_bool`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rqo_expr::{eval_bool, Expr};
use rqo_stats::{sample_with_replacement, JoinSynopsis, SynopsisRepository};
use rqo_storage::{Catalog, DataType, Rid, Schema, Table, TableBuilder, Value};

const GRAND_ROWS: i64 = 7;
const PARENT_ROWS: i64 = 40;

fn child_row(ck: i64, mut next: impl FnMut(u64) -> i64) -> Vec<Value> {
    vec![
        Value::Int(ck),
        Value::Int(next(PARENT_ROWS as u64)),
        Value::Int(next(20)),
        Value::str(format!("n{}", next(30)).as_str()),
        Value::Float(next(400) as f64 / 4.0),
    ]
}

/// `child → parent → grand` along two FK hops, every column type but
/// `Bool`.
fn chain_catalog(child_rows: usize, data_seed: u64) -> Catalog {
    let mut state = data_seed | 1;
    let mut next = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n) as i64
    };
    let mut grand = TableBuilder::new(
        "grand",
        Schema::from_pairs(&[
            ("gk", DataType::Int),
            ("g_name", DataType::Str),
            ("g_val", DataType::Float),
        ]),
        0,
    );
    for gk in 0..GRAND_ROWS {
        grand.push_row(&[
            Value::Int(gk),
            Value::str(format!("g{}", next(5)).as_str()),
            Value::Float(next(100) as f64 / 2.0),
        ]);
    }
    let mut parent = TableBuilder::new(
        "parent",
        Schema::from_pairs(&[
            ("pk", DataType::Int),
            ("p_gk", DataType::Int),
            ("p_tag", DataType::Str),
            ("p_day", DataType::Date),
        ]),
        0,
    );
    for pk in 0..PARENT_ROWS {
        parent.push_row(&[
            Value::Int(pk),
            Value::Int(next(GRAND_ROWS as u64)),
            Value::str(format!("tag{}", next(4)).as_str()),
            Value::Date(10_000 + next(60) as i32),
        ]);
    }
    let child_schema = Schema::from_pairs(&[
        ("ck", DataType::Int),
        ("c_fk", DataType::Int),
        ("c_x", DataType::Int),
        ("c_name", DataType::Str),
        ("c_amt", DataType::Float),
    ]);
    let rows: Vec<Vec<Value>> = (0..child_rows as i64)
        .map(|ck| child_row(ck, &mut next))
        .collect();

    let mut cat = Catalog::new();
    cat.add_table(grand.finish()).unwrap();
    cat.add_table(parent.finish()).unwrap();
    let mut b = TableBuilder::new("child", child_schema, rows.len());
    rows.iter().for_each(|r| b.push_row(r));
    cat.add_table(b.finish()).unwrap();
    cat.add_foreign_key("child", "c_fk", "parent", "pk")
        .unwrap();
    cat.add_foreign_key("parent", "p_gk", "grand", "gk")
        .unwrap();
    cat
}

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    (0..t.num_rows() as Rid).map(|i| t.row(i)).collect()
}

/// Asserts that `syn` (rooted at `child`) is exactly the FK join of the
/// base rows at `rids`, component by component.
fn assert_is_join_of(syn: &JoinSynopsis, cat: &Catalog, rids: &[Rid], what: &str) {
    assert_eq!(syn.sample_size(), rids.len(), "{what}");
    let (child, parent, grand) = (
        cat.table("child").unwrap(),
        cat.table("parent").unwrap(),
        cat.table("grand").unwrap(),
    );
    let parent_of = cat.unique_index("parent", "pk").unwrap();
    let grand_of = cat.unique_index("grand", "gk").unwrap();
    let mut want = (Vec::new(), Vec::new(), Vec::new());
    for &rid in rids {
        let c = child.row(rid);
        let p = parent.row(parent_of.get(c[1].as_int()).unwrap());
        let g = grand.row(grand_of.get(p[1].as_int()).unwrap());
        want.0.push(c);
        want.1.push(p);
        want.2.push(g);
    }
    assert_eq!(rows_of(syn.component("child").unwrap()), want.0, "{what}");
    assert_eq!(rows_of(syn.component("parent").unwrap()), want.1, "{what}");
    assert_eq!(rows_of(syn.component("grand").unwrap()), want.2, "{what}");
}

#[test]
fn every_build_path_gathers_the_rows_its_seed_draws() {
    const SEED: u64 = 0xC0FFEE;
    let mut cat = chain_catalog(500, 5);
    let draw = |cat: &Catalog, n: usize, seed: u64| {
        sample_with_replacement(
            cat.table("child").unwrap(),
            n,
            &mut StdRng::seed_from_u64(seed),
        )
    };

    // `build`: one with-replacement draw over the whole root.
    let syn = JoinSynopsis::build(&cat, "child", 120, SEED);
    assert_is_join_of(&syn, &cat, &draw(&cat, 120, SEED), "build");
    let tables: Vec<&str> = syn.tables().collect();
    assert_eq!(tables, ["child", "parent", "grand"]);
    assert_eq!(
        JoinSynopsis::build(&chain_catalog(0, 5), "child", 50, SEED).sample_size(),
        0,
        "nothing to draw from an empty root"
    );

    // The repository: one sub-seed per table.
    let repo = SynopsisRepository::build_all(&cat, 90, SEED);
    let child_slot = cat.tables().position(|t| t.name() == "child").unwrap() as u64;
    let root_seed = SEED ^ ((child_slot + 1) << 32);
    let syn = repo.for_root("child").unwrap();
    assert_is_join_of(syn, &cat, &draw(&cat, 90, root_seed), "build_all");

    // After ingest a build draws over the grown root.
    let batch: Vec<Vec<Value>> = (500..560)
        .map(|ck| child_row(ck, |n| (ck as u64 * 31 % n) as i64))
        .collect();
    cat.append_rows("child", &batch).unwrap();
    let syn = JoinSynopsis::build(&cat, "child", 90, 77);
    let rids = draw(&cat, 90, 77);
    assert!(rids.iter().any(|&r| r >= 500), "a draw lands in the batch");
    assert_is_join_of(&syn, &cat, &rids, "after ingest");
}

/// One predicate of the menu, on the table it reads.  `a`, `b` vary the
/// constants.
fn predicate(shape: u8, a: i64, b: i64) -> (&'static str, Expr) {
    let null = || Expr::lit(Value::Null);
    let tag = |k: i64| Value::str(format!("tag{}", k % 5).as_str());
    match shape % 16 {
        // Typed kernels: comparisons, BETWEEN, LIKE, IN, conjunction.
        0 => ("child", Expr::col("c_x").lt(Expr::lit(a % 22))),
        1 => ("child", Expr::lit(a as f64 / 3.0).le(Expr::col("c_amt"))),
        2 => ("parent", Expr::col("p_tag").eq(Expr::lit(tag(a)))),
        3 => ("grand", Expr::col("g_name").ne(Expr::lit(Value::str("g2")))),
        4 => (
            "child",
            Expr::col("c_x").between(Expr::lit(a % 20), Expr::lit(a % 20 + b % 8)),
        ),
        5 => (
            "parent",
            Expr::col("p_day").between(
                Expr::lit(Value::Date(10_000)).add(Expr::lit(a % 40)),
                Expr::lit(Value::Date(10_010)).add(Expr::lit(a % 40 + b % 30)),
            ),
        ),
        6 => ("child", Expr::col("c_name").like(format!("n{}%", a % 4))),
        7 => ("grand", Expr::col("g_name").like("%3")),
        8 => (
            "child",
            Expr::col("c_x").in_list(vec![Value::Int(a % 20), Value::Null, Value::Int(b % 20)]),
        ),
        9 => ("parent", Expr::col("p_tag").in_list(vec![tag(a), tag(b)])),
        10 => (
            "child",
            Expr::col("c_x")
                .ge(Expr::lit(a % 10))
                .and(Expr::col("c_name").like("n1%")),
        ),
        // NULL comparands and NULL tests.
        11 => ("child", Expr::col("c_x").eq(null())),
        12 => ("parent", Expr::col("p_tag").is_null().not()),
        // Fallback shapes: OR, arithmetic (a zero divisor yields NULL),
        // column against column.
        13 => (
            "child",
            Expr::col("c_x")
                .lt(Expr::lit(a % 10))
                .or(Expr::col("c_amt").gt(Expr::lit(b as f64))),
        ),
        14 => (
            "child",
            Expr::col("c_amt")
                .div(Expr::col("c_x"))
                .gt(Expr::lit(a as f64 / 10.0)),
        ),
        _ => (
            "parent",
            Expr::col("pk")
                .add(Expr::lit(a % 7))
                .gt(Expr::col("p_gk").mul(Expr::lit(b % 9))),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `(k, n)` and the qualifying ids equal the row oracle, whatever the
    /// predicates and whichever components they land on.
    #[test]
    fn evidence_equals_the_row_oracle(
        shapes in prop::collection::vec((0u8..16, 0i64..100, 0i64..100), 1..4),
        data_seed in 0u64..6,
        seed: u64,
        n in 1usize..160,
    ) {
        let cat = chain_catalog(300, data_seed);
        let syn = JoinSynopsis::build(&cat, "child", n, seed);
        let owned: Vec<(&str, Expr)> =
            shapes.iter().map(|&(s, a, b)| predicate(s, a, b)).collect();
        let predicates: Vec<(&str, &Expr)> = owned.iter().map(|(t, e)| (*t, e)).collect();

        let bound: Vec<(&Table, Expr)> = predicates
            .iter()
            .map(|(t, e)| {
                let component = syn.component(t).unwrap();
                (component, e.bind(component.schema()).unwrap())
            })
            .collect();
        let want: Vec<u32> = (0..n as u32)
            .filter(|&i| bound.iter().all(|(c, e)| eval_bool(e, &c.row(i))))
            .collect();

        prop_assert_eq!(syn.evaluate(&predicates), (want.len(), n));
        prop_assert_eq!(syn.qualifying(&predicates), want);
    }
}

#[test]
fn no_predicates_qualify_every_tuple() {
    let cat = chain_catalog(50, 1);
    let syn = JoinSynopsis::build(&cat, "child", 30, 3);
    assert_eq!(syn.evaluate(&[]), (30, 30));
    assert_eq!(syn.qualifying(&[]), (0..30).collect::<Vec<u32>>());
}
