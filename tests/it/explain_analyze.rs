//! Golden `EXPLAIN ANALYZE` snapshots for the three paper scenarios.
//!
//! Each scenario is rendered at confidence thresholds T ∈ {5%, 50%, 95%}
//! over the same deterministic data as the `plan_shapes` pins (TPC-H-like
//! at scale 0.005, star schema at 30k fact rows, seed 42 everywhere,
//! including the synopsis sample draw).  The rendered tree — operator
//! labels, estimated vs. actual cardinalities, q-errors, morsel counts —
//! must be byte-identical to the checked-in golden files, and identical
//! across worker counts (the metrics tree is derived only from input
//! sizes and simulated cost counters, never from scheduling).
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test --test it explain_analyze
//! ```
//!
//! On mismatch the actual rendering is written to
//! `target/golden-diff/<name>.actual.txt` so CI can upload it as an
//! artifact.

use robust_qo::prelude::*;

use crate::support::{self, star_db, tpch_db};

const THRESHOLDS: [f64; 3] = [0.05, 0.50, 0.95];

/// Renders the scenario at each threshold, asserts worker-count
/// invariance, and compares against (or regenerates) the golden snapshot.
fn check(name: &str, make_db: impl Fn() -> Engine, query: &Query) {
    for &t in &THRESHOLDS {
        let label = format!("{name}_t{:02}", (t * 100.0).round() as u32);

        // A fresh database per run: `Analyze` records feedback,
        // and a shared store would let one threshold's observations leak
        // into the next optimization.
        let make = || make_db().with_threshold(ConfidenceThreshold::new(t));
        let rendered = support::sweep_query(make, query, RunPolicy::Analyze)
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .render();

        // Every operator must report an estimate and a q-error — no node
        // may degrade to an unannotated `?` in the paper scenarios.
        assert!(
            !rendered.contains("est_rows=?"),
            "{label}: unannotated node in\n{rendered}"
        );
        support::assert_golden(&label, &rendered);
    }
}

#[test]
fn exp1_explain_analyze_goldens() {
    check("exp1", tpch_db, &support::exp1(110));
}

#[test]
fn exp2_explain_analyze_goldens() {
    check("exp2", tpch_db, &support::exp2(212));
}

#[test]
fn exp3_explain_analyze_goldens() {
    check("exp3", star_db, &support::exp3(3));
}
