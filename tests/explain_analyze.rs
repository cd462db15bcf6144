//! Golden `EXPLAIN ANALYZE` snapshots for the three paper scenarios.
//!
//! Each scenario is rendered at confidence thresholds T ∈ {5%, 50%, 95%}
//! over the same deterministic data as the `plan_shapes` pins (TPC-H-like
//! at scale 0.005, star schema at 30k fact rows, seed 42 everywhere,
//! including the synopsis sample draw).  The rendered tree — operator
//! labels, estimated vs. actual cardinalities, q-errors, morsel counts —
//! must be byte-identical to the checked-in golden files, and identical
//! across thread counts (the metrics tree is derived only from input
//! sizes and simulated cost counters, never from scheduling).
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test --test explain_analyze
//! ```
//!
//! On mismatch the actual rendering is written to
//! `target/golden-diff/<name>.actual.txt` so CI can upload it as an
//! artifact.

use std::path::PathBuf;

use robust_qo::prelude::*;

const THRESHOLDS: [f64; 3] = [0.05, 0.50, 0.95];
const SEED: u64 = 42;

fn tpch_db() -> Engine {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.005,
        seed: SEED,
    });
    Engine::with_options(data.into_catalog(), CostParams::default(), 500, SEED)
}

fn star_db() -> Engine {
    let data = StarData::generate(&StarConfig {
        fact_rows: 30_000,
        seed: SEED,
    });
    Engine::with_options(data.into_catalog(), CostParams::default(), 500, SEED)
}

fn golden_path(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{label}.txt"))
}

/// Renders the scenario at each threshold, asserts thread invariance,
/// and compares against (or regenerates) the golden snapshot.
fn check(name: &str, make_db: impl Fn() -> Engine, query: &Query) {
    for &t in &THRESHOLDS {
        let label = format!("{name}_t{:02}", (t * 100.0).round() as u32);

        // A fresh database per run: `Analyze` records feedback,
        // and a shared store would let one threshold's observations leak
        // into the next optimization.
        let db = make_db().with_threshold(ConfidenceThreshold::new(t));
        let rendered = db
            .execute(query, &ExecOptions::default(), RunPolicy::Analyze)
            .unwrap()
            .render();

        // Every operator must report an estimate and a q-error — no node
        // may degrade to an unannotated `?` in the paper scenarios.
        assert!(
            !rendered.contains("est_rows=?"),
            "{label}: unannotated node in\n{rendered}"
        );

        // Thread invariance: byte-identical rendering at 2 and 8 workers.
        for threads in [2usize, 8] {
            let db = make_db().with_threshold(ConfidenceThreshold::new(t));
            let opts = ExecOptions::with_threads(threads);
            let parallel = db
                .execute(query, &opts, RunPolicy::Analyze)
                .unwrap()
                .render();
            assert_eq!(
                rendered, parallel,
                "{label}: EXPLAIN ANALYZE diverged at {threads} threads"
            );
        }

        let path = golden_path(&label);
        if std::env::var_os("UPDATE_GOLDENS").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {}: {e}; run with UPDATE_GOLDENS=1",
                path.display()
            )
        });
        if rendered != expected {
            let diff_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/golden-diff");
            std::fs::create_dir_all(&diff_dir).unwrap();
            std::fs::write(diff_dir.join(format!("{label}.actual.txt")), &rendered).unwrap();
            assert_eq!(
                rendered, expected,
                "{label}: golden mismatch; actual written to target/golden-diff/{label}.actual.txt"
            );
        }
    }
}

#[test]
fn exp1_explain_analyze_goldens() {
    let query = Query::over(&["lineitem"])
        .filter("lineitem", exp1_lineitem_predicate(110))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
    check("exp1", tpch_db, &query);
}

#[test]
fn exp2_explain_analyze_goldens() {
    let query = Query::over(&["lineitem", "orders", "part"])
        .filter("part", exp2_part_predicate(212))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"));
    check("exp2", tpch_db, &query);
}

#[test]
fn exp3_explain_analyze_goldens() {
    let mut query = Query::over(&["fact", "dim1", "dim2", "dim3"])
        .aggregate(AggExpr::sum("f_measure1", "total"));
    for dim in ["dim1", "dim2", "dim3"] {
        query = query.filter(dim, exp3_dim_predicate(3));
    }
    check("exp3", star_db, &query);
}
