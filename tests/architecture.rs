//! Architectural-claim tests (paper §3.1.1): the cardinality-estimation
//! module is the *only* integration point — estimators are swappable,
//! hints flow through, and fallbacks degrade gracefully.

use std::sync::Arc;

use robust_qo::prelude::*;
use rqo_core::{EstimateSource, EstimationRequest, OracleEstimator};

fn catalog() -> Arc<Catalog> {
    Arc::new(
        TpchData::generate(&TpchConfig {
            scale_factor: 0.005,
            seed: 77,
        })
        .into_catalog(),
    )
}

/// Three estimator implementations drive the identical optimizer; each
/// produces a valid plan; no other component needed changing.
#[test]
fn any_estimator_plugs_into_the_same_optimizer() {
    let cat = catalog();
    let q = Query::over(&["lineitem", "orders", "part"])
        .filter("part", exp2_part_predicate(200))
        .aggregate(AggExpr::count_star("n"));

    let estimators: Vec<Arc<dyn CardinalityEstimator>> = vec![
        Arc::new(RobustEstimator::new(
            Arc::new(SynopsisRepository::build_all(&cat, 300, 1)),
            EstimatorConfig::default(),
        )),
        Arc::new(HistogramEstimator::build_default(&cat)),
        Arc::new(OracleEstimator::new(Arc::clone(&cat))),
    ];
    let mut answers = Vec::new();
    for est in estimators {
        let name = est.name().to_string();
        let opt = Optimizer::new(Arc::clone(&cat), CostParams::default(), est);
        let planned = opt.optimize(&q);
        let (batch, _) = robust_qo::exec::execute(&planned.plan, &cat, opt.params());
        answers.push((name, batch.to_rows()[0][0].clone()));
    }
    assert_eq!(answers[0].1, answers[1].1);
    assert_eq!(answers[0].1, answers[2].1);
}

/// Hints are honoured by the robust estimator and ignored (harmlessly) by
/// estimators without a threshold.
#[test]
fn hints_flow_through_the_optimizer() {
    let cat = catalog();
    let q = Query::over(&["lineitem"])
        .filter("lineitem", exp1_lineitem_predicate(110))
        .aggregate(AggExpr::count_star("n"));

    let robust: Arc<dyn CardinalityEstimator> = Arc::new(RobustEstimator::new(
        Arc::new(SynopsisRepository::build_all(&cat, 500, 3)),
        EstimatorConfig::with_threshold(ConfidenceThreshold::new(0.05)),
    ));
    let opt = Optimizer::new(Arc::clone(&cat), CostParams::default(), robust);
    let aggressive_shape = opt.optimize(&q).shape();
    let hinted_shape = opt
        .optimize(&q.clone().with_hint(ConfidenceThreshold::new(0.999)))
        .shape();
    assert_ne!(aggressive_shape, hinted_shape, "hint must change the plan");

    // Histogram estimator: hint is a no-op, not an error.
    let hist: Arc<dyn CardinalityEstimator> = Arc::new(HistogramEstimator::build_default(&cat));
    let opt = Optimizer::new(Arc::clone(&cat), CostParams::default(), hist);
    let unhinted = opt.optimize(&q).shape();
    let hinted = opt
        .optimize(&q.clone().with_hint(ConfidenceThreshold::new(0.999)))
        .shape();
    assert_eq!(unhinted, hinted);
}

/// §3.5 graceful degradation: expressions with no covering synopsis fall
/// back to AVI over per-table samples; estimation errors stay confined.
#[test]
fn fallback_sources_are_reported() {
    let cat = catalog();
    let est = RobustEstimator::new(
        Arc::new(SynopsisRepository::build_all(&cat, 300, 5)),
        EstimatorConfig::default(),
    );
    // Covered: the full FK expression.
    let p = Expr::col("p_x").lt(Expr::lit(100i64));
    let covered = est.estimate(&EstimationRequest::new(
        vec!["lineitem", "part"],
        vec![("part", &p)],
    ));
    assert!(matches!(
        covered.source,
        EstimateSource::JoinSynopsis { .. }
    ));
    assert!(covered.posterior.is_some());

    // Not covered: orders and part share no FK root.
    let po = Expr::col("o_totalprice").gt(Expr::lit(0.0));
    let uncovered = est.estimate(&EstimationRequest::new(
        vec!["orders", "part"],
        vec![("orders", &po), ("part", &p)],
    ));
    assert_eq!(uncovered.source, EstimateSource::IndependentSamples);
}

/// The confidence threshold monotonically inflates the estimate — the
/// contract the whole plan-selection story rests on.
#[test]
fn estimates_monotone_in_threshold() {
    let cat = catalog();
    let repo = Arc::new(SynopsisRepository::build_all(&cat, 500, 7));
    let pred = exp1_lineitem_predicate(95);
    let req = EstimationRequest::single("lineitem", &pred);
    let mut prev = 0.0;
    for pct in [1, 10, 25, 50, 75, 90, 99] {
        let est = RobustEstimator::new(
            Arc::clone(&repo),
            EstimatorConfig::with_threshold(ConfidenceThreshold::new(pct as f64 / 100.0)),
        );
        let s = est.estimate(&req).selectivity;
        assert!(s >= prev, "T={pct}%: {s} < {prev}");
        prev = s;
    }
}

/// Statistics never change answers: across many synopsis draws, the same
/// query returns the same rows (only the plan may differ).
#[test]
fn sampling_randomness_never_affects_results() {
    let cat = catalog();
    let q = Query::over(&["lineitem", "orders", "part"])
        .filter("part", exp2_part_predicate(212))
        .filter("lineitem", Expr::col("l_quantity").le(Expr::lit(25.0)))
        .aggregate(AggExpr::count_star("n"))
        .aggregate(AggExpr::sum("l_extendedprice", "rev"));
    let mut first: Option<Vec<Value>> = None;
    let mut shapes = std::collections::HashSet::new();
    for seed in 0..8u64 {
        let est: Arc<dyn CardinalityEstimator> = Arc::new(RobustEstimator::new(
            Arc::new(SynopsisRepository::build_all(&cat, 100, seed)),
            EstimatorConfig::with_threshold(ConfidenceThreshold::new(0.5)),
        ));
        let opt = Optimizer::new(Arc::clone(&cat), CostParams::default(), est);
        let planned = opt.optimize(&q);
        shapes.insert(planned.shape());
        let (batch, _) = robust_qo::exec::execute(&planned.plan, &cat, opt.params());
        match &first {
            None => first = Some(batch.to_rows()[0].clone()),
            Some(expected) => assert_eq!(&batch.to_rows()[0], expected, "seed {seed}"),
        }
    }
    // With a 100-tuple sample near a crossover the chosen plan genuinely
    // varies across draws — that is the variance the paper tames — while
    // the answer stays fixed.
    assert!(!shapes.is_empty());
}

/// Lines matching `^\s*pub ` under `crates/<crate>/src`, per library
/// crate, and the line count of DESIGN.md.  Growth is a decision: a
/// number above its budget fails until the same change raises the budget.
/// Falling below is free — lower the budget to keep the ratchet tight.
const PUB_LINE_BUDGET: [(&str, usize); 9] = [
    ("core", 125),
    ("datagen", 39),
    ("exec", 130),
    ("expr", 44),
    ("math", 63),
    ("optimizer", 140),
    ("service", 144),
    ("stats", 86),
    ("storage", 149),
];
const DESIGN_LINE_BUDGET: usize = 791;

fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn public_surface_and_design_stay_within_budget() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut over = Vec::new();
    for (krate, budget) in PUB_LINE_BUDGET {
        let mut files = Vec::new();
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
        let count: usize = files
            .iter()
            .map(|f| {
                std::fs::read_to_string(f)
                    .expect("read source")
                    .lines()
                    .filter(|l| l.trim_start().starts_with("pub "))
                    .count()
            })
            .sum();
        if count > budget {
            over.push(format!(
                "crates/{krate}: {count} pub lines > budget {budget}"
            ));
        }
    }
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let lines = design.lines().count();
    if lines > DESIGN_LINE_BUDGET {
        over.push(format!(
            "DESIGN.md: {lines} lines > budget {DESIGN_LINE_BUDGET}"
        ));
    }
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}

/// Two query handles: `Engine` runs queries in process and `QueryService`
/// serves them.  The two retired handle names live on only as type
/// aliases for the out-of-workspace `benchmark/` crate, so no `.rs` file
/// under `src/`, `crates/`, `tests/` or `examples/` names them except on
/// an alias line (the definitions and the root crate's re-export).  This
/// file names them to look for them and is not scanned.
#[test]
fn retired_handles_live_on_only_as_aliases() {
    const RETIRED: [&str; 2] = ["RobustDb", "Session"];
    const ALIAS_LINES: [&str; 3] = [
        "pub type RobustDb = Engine;",
        "pub type Session = QueryService;",
        "pub use rqo_service::Session;",
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let this_file = root.join(file!());
    let mut stray = Vec::new();
    for file in files.iter().filter(|f| **f != this_file) {
        let text = std::fs::read_to_string(file).expect("read source");
        for (i, line) in text.lines().enumerate() {
            if ALIAS_LINES.contains(&line.trim()) {
                continue;
            }
            let mut words = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            if words.any(|w| RETIRED.contains(&w)) {
                stray.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        stray.is_empty(),
        "retired handle named outside its alias line:\n{}",
        stray.join("\n")
    );
}

/// Every table is flat.  `Catalog::partitioning` always answers `None`
/// and lives on only for the out-of-workspace `benchmark/` crate, so no
/// `.rs` file under `src/`, `crates/`, `tests/` or `examples/` calls it.
/// This file names it to look for it and is not scanned.
#[test]
fn partitioning_shim_has_no_caller_in_the_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let this_file = root.join(file!());
    let mut callers = Vec::new();
    for file in files.iter().filter(|f| **f != this_file) {
        let text = std::fs::read_to_string(file).expect("read source");
        for (i, line) in text.lines().enumerate() {
            if line.contains(".partitioning(") {
                callers.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        callers.is_empty(),
        "the benchmark-only partitioning shim is called:\n{}",
        callers.join("\n")
    );
}

/// `crates/bench` regenerates the paper's figures and ablations and
/// nothing else: a deterministic claim is a tier-1 test, and a wall-clock
/// number is a `benchmark/` metric.  So `crates/bench/src/bin` holds only
/// `fig*`/`ablation_*` drivers, and no crate declares a `[[bench]]` target.
#[test]
fn bench_crate_holds_only_figure_drivers() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stray = Vec::new();
    for entry in std::fs::read_dir(root.join("crates/bench/src/bin")).expect("read bin dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("fig") || name.starts_with("ablation_")) {
            stray.push(format!("crates/bench/src/bin/{name}"));
        }
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("read crate dir") {
            manifests.push(entry.expect("dir entry").path().join("Cargo.toml"));
        }
    }
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        if text.lines().any(|l| l.trim() == "[[bench]]") {
            stray.push(format!("{}: [[bench]] target", manifest.display()));
        }
    }
    assert!(
        stray.is_empty(),
        "not a figure driver:\n{}",
        stray.join("\n")
    );
}

/// Every public estimator earns its place: a `pub struct` under
/// `crates/*/src` that implements `CardinalityEstimator` must be named
/// in a figure driver, the root crate, an example, the benchmark or a
/// root integration test.  An estimator reachable only from its own
/// unit tests is a baseline nothing measures; git history keeps it for
/// the driver that wants it back.
#[test]
fn every_public_estimator_has_a_caller() {
    fn identifiers(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut library = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates dir") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut library);
        }
    }
    let mut public = std::collections::HashSet::new();
    let mut estimators = std::collections::BTreeSet::new();
    for file in &library {
        let text = std::fs::read_to_string(file).expect("read source");
        for line in text.lines().map(str::trim_start) {
            if let Some(rest) = line.strip_prefix("pub struct ") {
                public.extend(identifiers(rest).next().map(str::to_string));
            }
            if let Some(rest) = line.strip_prefix("impl CardinalityEstimator for ") {
                estimators.extend(identifiers(rest).next().map(str::to_string));
            }
        }
    }
    let mut callers = Vec::new();
    for dir in [
        "crates/bench/src",
        "src",
        "examples",
        "benchmark/src",
        "tests",
    ] {
        rust_files(&root.join(dir), &mut callers);
    }
    let mut named = std::collections::HashSet::new();
    for file in &callers {
        let text = std::fs::read_to_string(file).expect("read source");
        named.extend(identifiers(&text).map(str::to_string));
    }
    let uncalled: Vec<&String> = estimators
        .iter()
        .filter(|e| public.contains(*e) && !named.contains(*e))
        .collect();
    assert!(
        !estimators.is_empty(),
        "found no CardinalityEstimator implementation"
    );
    assert!(
        uncalled.is_empty(),
        "public estimators with no caller outside their own tests: {uncalled:?}"
    );
}

/// Every builder earns its place: a `pub fn with_*` under `crates/*/src`
/// must be called from the root crate, an example, a figure driver, the
/// benchmark or library code outside its `#[cfg(test)]` module.  A
/// setting only tests set is a second knob beside the one the paper
/// gives (the confidence threshold); git history keeps it for the
/// caller that wants it back.
#[test]
fn every_builder_has_a_caller() {
    // Tests vary these to prove rows and costs do not depend on them.
    const TEST_ONLY: [&str; 2] = ["with_morsel_size", "with_batch_rows"];
    /// Code lines of `text` (comment lines dropped), up to its test module.
    fn code(text: &str) -> impl Iterator<Item = &str> {
        text.lines()
            .take_while(|l| l.trim() != "#[cfg(test)]")
            .filter(|l| !l.trim_start().starts_with("//"))
    }
    fn identifiers(line: &str) -> impl Iterator<Item = &str> {
        line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut library = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates dir") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut library);
        }
    }
    let mut callers = library.clone();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut callers);
    }
    let mut builders = std::collections::BTreeSet::new();
    for file in &library {
        let text = std::fs::read_to_string(file).expect("read source");
        for line in code(&text) {
            if let Some(rest) = line.trim_start().strip_prefix("pub fn with_") {
                let name = identifiers(rest).next().unwrap_or_default();
                builders.insert(format!("with_{name}"));
            }
        }
    }
    let mut called = std::collections::HashSet::new();
    for file in &callers {
        let text = std::fs::read_to_string(file).expect("read source");
        for line in code(&text) {
            let mut previous = "";
            for word in identifiers(line) {
                if previous != "fn" {
                    called.insert(word.to_string());
                }
                previous = word;
            }
        }
    }
    let uncalled: Vec<&String> = builders
        .iter()
        .filter(|b| !called.contains(*b) && !TEST_ONLY.contains(&b.as_str()))
        .collect();
    assert!(!builders.is_empty(), "found no builder");
    assert!(
        uncalled.is_empty(),
        "builders with no caller outside tests: {uncalled:?}"
    );
}
