//! Cardinality estimators: the robust sampling-based estimator (§3.4) and
//! the baselines it is evaluated against.
//!
//! All estimators answer the same question the optimizer asks during plan
//! search: *what fraction of the root relation's rows survive these
//! predicates in this FK-join expression?*  (FK joins are lossless, so the
//! expression's cardinality is that fraction times the root relation's
//! size; see [`rqo_stats::synopsis`].)
//!
//! * [`RobustEstimator`] — the paper's procedure: route the expression to
//!   its join synopsis, count satisfying sample tuples, form the Beta
//!   posterior, and collapse it at the confidence threshold.  Implements
//!   the §3.5 fallbacks when synopses are missing.
//! * [`HistogramEstimator`] — the commercial baseline: per-column
//!   equi-depth histograms combined under attribute-value independence,
//!   with Selinger-style magic constants for unsupported predicate shapes.
//! * [`OracleEstimator`] — exact selectivities by brute-force evaluation;
//!   used in tests and ablations as ground truth.

use std::collections::HashMap;
use std::sync::Arc;

use rqo_expr::Expr;
use rqo_stats::histogram::DEFAULT_BUCKETS;
use rqo_stats::synopsis::find_root;
use rqo_stats::{EquiDepthHistogram, SynopsisRepository};
use rqo_storage::{Catalog, DataType};

use crate::config::{EstimationStrategy, EstimatorConfig};
use crate::posterior::SelectivityPosterior;

/// An estimation request: an SPJ expression described as the set of tables
/// it joins (along FK edges) plus the local predicate on each table.
#[derive(Debug, Clone)]
pub struct EstimationRequest<'a> {
    /// Tables in the expression (order irrelevant).
    pub tables: Vec<&'a str>,
    /// Per-table local predicates; tables without predicates may be
    /// omitted.
    pub predicates: Vec<(&'a str, &'a Expr)>,
}

impl<'a> EstimationRequest<'a> {
    /// A request over several tables.
    pub fn new(tables: Vec<&'a str>, predicates: Vec<(&'a str, &'a Expr)>) -> Self {
        Self { tables, predicates }
    }

    /// A single-table request.
    pub fn single(table: &'a str, predicate: &'a Expr) -> Self {
        Self {
            tables: vec![table],
            predicates: vec![(table, predicate)],
        }
    }
}

/// Where an estimate came from — reported so experiments can attribute
/// behaviour and so fallbacks are observable rather than silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateSource {
    /// Evaluated on the join synopsis rooted at `root` with `k` of `n`
    /// sample tuples satisfying the predicates.
    JoinSynopsis {
        /// Root relation of the synopsis used.
        root: String,
        /// Satisfying sample tuples.
        k: usize,
        /// Sample size.
        n: usize,
    },
    /// No covering synopsis: per-table samples combined under the AVI
    /// assumption (§3.5 fallback 1).
    IndependentSamples,
    /// Per-column histograms under the AVI assumption.
    Histogram,
    /// No statistics at all: the magic distribution (§3.5 fallback 2).
    Magic,
    /// Brute-force exact evaluation.
    Exact,
    /// Observed selectivity recorded by a previous execution's
    /// `EXPLAIN ANALYZE` in a [`FeedbackStore`](crate::FeedbackStore).
    Feedback,
}

/// The result of cardinality estimation.
#[derive(Debug, Clone)]
pub struct SelectivityEstimate {
    /// The single-value selectivity handed to the cost model.
    pub selectivity: f64,
    /// The full posterior when the estimator produced one (the robust
    /// path always does; histogram baselines do not).
    pub posterior: Option<SelectivityPosterior>,
    /// Provenance.
    pub source: EstimateSource,
}

/// A cardinality estimation module, pluggable into the optimizer — the
/// paper's claim is precisely that swapping this module is the *only*
/// change a conventional optimizer needs.
pub trait CardinalityEstimator: Send + Sync {
    /// Human-readable name for experiment reports.
    fn name(&self) -> &str;

    /// Estimates the selectivity of an FK-join expression's predicates
    /// relative to its root relation.
    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate;

    /// A variant of this estimator honouring a per-query confidence-
    /// threshold hint (paper §6.2.5), or `None` when the estimator has no
    /// threshold to move (histograms, oracles).
    fn hinted(
        &self,
        _threshold: crate::confidence::ConfidenceThreshold,
    ) -> Option<Box<dyn CardinalityEstimator>> {
        None
    }
}

// ---------------------------------------------------------------------
// Robust sampling-based estimator
// ---------------------------------------------------------------------

/// The paper's robust estimator over precomputed join synopses.
#[derive(Debug, Clone)]
pub struct RobustEstimator {
    repo: Arc<SynopsisRepository>,
    config: EstimatorConfig,
    feedback: Option<Arc<crate::feedback::FeedbackStore>>,
}

impl RobustEstimator {
    /// Creates the estimator from a synopsis repository and configuration.
    pub fn new(repo: Arc<SynopsisRepository>, config: EstimatorConfig) -> Self {
        Self {
            repo,
            config,
            feedback: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// This estimator with a different configuration (e.g. a per-query
    /// threshold hint) sharing the same synopses and feedback store.
    fn with_config(&self, config: EstimatorConfig) -> Self {
        Self {
            repo: Arc::clone(&self.repo),
            config,
            feedback: self.feedback.clone(),
        }
    }

    /// Attaches an execution-feedback store.  Recorded observations take
    /// precedence over synopsis evaluation: once `EXPLAIN ANALYZE` has
    /// seen a predicate's true selectivity there is no residual
    /// uncertainty for the posterior machinery to model.
    pub fn with_feedback(mut self, store: Arc<crate::feedback::FeedbackStore>) -> Self {
        self.feedback = Some(store);
        self
    }

    /// Collapses a posterior according to the configured strategy.
    fn collapse(&self, posterior: &SelectivityPosterior) -> f64 {
        match self.config.strategy {
            EstimationStrategy::Percentile(t) => posterior.at_threshold(t),
            EstimationStrategy::PosteriorMean => posterior.mean(),
            EstimationStrategy::MaximumLikelihood => posterior.mle(),
        }
    }

    /// §3.5 fallback: combine per-table estimates under AVI when no single
    /// synopsis covers the expression.
    fn estimate_independent(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        let mut selectivity = 1.0;
        let mut any_magic = false;
        for (table, expr) in &request.predicates {
            match self.repo.for_root(table) {
                Some(syn) if syn.sample_size() > 0 => {
                    let (k, n) = syn.evaluate(&[(table, expr)]);
                    let posterior = SelectivityPosterior::from_observation(k, n, self.config.prior);
                    selectivity *= self.collapse(&posterior);
                }
                _ => {
                    any_magic = true;
                    selectivity *= crate::magic::selectivity(self.config.threshold());
                }
            }
        }
        SelectivityEstimate {
            selectivity,
            posterior: None,
            source: if any_magic && request.predicates.len() == 1 {
                EstimateSource::Magic
            } else {
                EstimateSource::IndependentSamples
            },
        }
    }
}

impl CardinalityEstimator for RobustEstimator {
    fn name(&self) -> &str {
        "robust-sampling"
    }

    fn hinted(
        &self,
        threshold: crate::confidence::ConfidenceThreshold,
    ) -> Option<Box<dyn CardinalityEstimator>> {
        Some(Box::new(self.with_config(self.config.hinted(threshold))))
    }

    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        if let Some(store) = &self.feedback {
            if let Some(selectivity) = store.lookup(&request.tables, &request.predicates) {
                return SelectivityEstimate {
                    selectivity,
                    posterior: None,
                    source: EstimateSource::Feedback,
                };
            }
        }
        match self.repo.for_expression(request.tables.iter().copied()) {
            Some(syn) if syn.sample_size() > 0 => {
                let (k, n) = syn.evaluate(&request.predicates);
                let posterior = SelectivityPosterior::from_observation(k, n, self.config.prior);
                SelectivityEstimate {
                    selectivity: self.collapse(&posterior),
                    posterior: Some(posterior),
                    source: EstimateSource::JoinSynopsis {
                        root: syn.root().to_string(),
                        k,
                        n,
                    },
                }
            }
            Some(_) => {
                // Covered but empty sample (empty root table): no evidence.
                SelectivityEstimate {
                    selectivity: crate::magic::selectivity(self.config.threshold()),
                    posterior: Some(crate::magic::posterior()),
                    source: EstimateSource::Magic,
                }
            }
            None => self.estimate_independent(request),
        }
    }
}

// ---------------------------------------------------------------------
// Histogram + AVI baseline
// ---------------------------------------------------------------------

/// The histogram-based baseline estimator: per-conjunct selectivities from
/// single-column equi-depth histograms, multiplied under the AVI
/// assumption.
#[derive(Debug, Clone)]
pub struct HistogramEstimator {
    histograms: HashMap<(String, String), Arc<EquiDepthHistogram>>,
}

impl HistogramEstimator {
    // Selinger-style constants (the classical System R values) for
    // predicate shapes a one-dimensional histogram cannot evaluate.
    /// `col = expr` with a non-literal right side.
    const EQUALITY_MAGIC: f64 = 0.1;
    /// Range-shaped predicates on columns without histograms.
    const RANGE_MAGIC: f64 = 1.0 / 3.0;
    /// Everything else (LIKE, arithmetic, OR, ...).
    const OTHER_MAGIC: f64 = 1.0 / 3.0;

    /// Builds histograms (with `buckets` buckets) over every numeric
    /// column of every table in the catalog — the baseline's
    /// `UPDATE STATISTICS`.
    pub fn build(catalog: &Catalog, buckets: usize) -> Self {
        let mut histograms = HashMap::new();
        for table in catalog.tables() {
            for col in table.schema().columns() {
                if matches!(
                    col.data_type,
                    DataType::Int | DataType::Float | DataType::Date
                ) {
                    let h = EquiDepthHistogram::build(table, &col.name, buckets);
                    histograms.insert((table.name().to_string(), col.name.clone()), Arc::new(h));
                }
            }
        }
        Self { histograms }
    }

    /// Builds with the paper's default 250-bucket resolution.
    pub fn build_default(catalog: &Catalog) -> Self {
        Self::build(catalog, DEFAULT_BUCKETS)
    }

    /// The histogram for one column, if built.
    pub fn histogram(&self, table: &str, column: &str) -> Option<&EquiDepthHistogram> {
        self.histograms
            .get(&(table.to_string(), column.to_string()))
            .map(|h| h.as_ref())
    }

    /// Total stored bytes across all histograms (for §6.1 space parity).
    pub fn stored_bytes(&self) -> usize {
        self.histograms.values().map(|h| h.stored_bytes()).sum()
    }

    /// Selectivity of one conjunct on one table.
    fn conjunct_selectivity(&self, table: &str, conjunct: &Expr) -> f64 {
        if let Some((column, lo, hi)) = conjunct.as_column_range() {
            if let Some(h) = self.histogram(table, column) {
                // Point ranges use the equality path (count/distinct);
                // proper ranges interpolate.
                if let (std::ops::Bound::Included(a), std::ops::Bound::Included(b)) = (&lo, &hi) {
                    if a == b {
                        return h.eq_selectivity(a);
                    }
                }
                return h.range_selectivity(lo.as_ref(), hi.as_ref());
            }
            return Self::RANGE_MAGIC;
        }
        // Equality against a non-literal, LIKE, IN, OR, arithmetic...
        match conjunct {
            Expr::Binary {
                op: rqo_expr::BinaryOp::Eq,
                ..
            } => Self::EQUALITY_MAGIC,
            Expr::InList { list, .. } => (Self::EQUALITY_MAGIC * list.len() as f64).min(1.0),
            _ => Self::OTHER_MAGIC,
        }
    }
}

impl CardinalityEstimator for HistogramEstimator {
    fn name(&self) -> &str {
        "histogram-avi"
    }

    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        // AVI across all conjuncts of all per-table predicates; FK joins
        // are lossless so they contribute factor 1.
        let mut selectivity = 1.0;
        for (table, expr) in &request.predicates {
            for conjunct in expr.conjuncts() {
                selectivity *= self.conjunct_selectivity(table, conjunct);
            }
        }
        SelectivityEstimate {
            selectivity,
            posterior: None,
            source: EstimateSource::Histogram,
        }
    }
}

// ---------------------------------------------------------------------
// Exact oracle (tests, ablations)
// ---------------------------------------------------------------------

/// Ground-truth estimator: brute-force evaluates the expression over the
/// base data by walking each root row's FK closure.  `O(|root|)` per call;
/// strictly for tests, ablations, and accuracy reports.
#[derive(Debug, Clone)]
pub struct OracleEstimator {
    catalog: Arc<Catalog>,
}

/// One node of the oracle's precompiled FK walk: a table's bound local
/// predicates plus the outgoing FK hops (key ordinal + target index +
/// target node).
struct OracleNode {
    table: Arc<rqo_storage::Table>,
    predicates: Vec<Expr>,
    hops: Vec<(usize, Arc<rqo_storage::UniqueIndex>, OracleNode)>,
}

impl OracleNode {
    fn satisfies(&self, rid: u32) -> bool {
        if !self.predicates.is_empty() {
            let row = self.table.row(rid);
            if !self.predicates.iter().all(|p| rqo_expr::eval_bool(p, &row)) {
                return false;
            }
        }
        self.hops.iter().all(|(key_col, index, target)| {
            let key = self.table.value(rid, *key_col).as_int();
            let target_rid = index.get(key).expect("dangling FK");
            target.satisfies(target_rid)
        })
    }
}

impl OracleEstimator {
    /// Creates the oracle over a catalog (FKs must be declared so the
    /// unique indexes exist).
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self { catalog }
    }

    /// Compiles the FK closure rooted at `table` into a walkable tree:
    /// predicate binding, column-ordinal resolution, and index lookup all
    /// happen once here instead of once per row.
    fn compile(&self, table: &str, predicates: &[(&str, &Expr)]) -> OracleNode {
        let t = Arc::clone(self.catalog.table(table).expect("table exists"));
        let bound: Vec<Expr> = predicates
            .iter()
            .filter(|(pt, _)| *pt == table)
            .map(|(_, e)| e.bind(t.schema()).expect("predicate binds"))
            .collect();
        let hops = self
            .catalog
            .foreign_keys_from(table)
            .cloned()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|fk| {
                let key_col = t.schema().expect_index(&fk.from_column);
                let index = Arc::clone(
                    self.catalog
                        .unique_index(&fk.to_table, &fk.to_column)
                        .expect("unique index built with FK"),
                );
                (key_col, index, self.compile(&fk.to_table, predicates))
            })
            .collect();
        OracleNode {
            table: t,
            predicates: bound,
            hops,
        }
    }
}

impl CardinalityEstimator for OracleEstimator {
    fn name(&self) -> &str {
        "oracle-exact"
    }

    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        let root = find_root(&self.catalog, &request.tables)
            .expect("expression tables must share an FK root");
        let walk = self.compile(root, &request.predicates);
        let total = walk.table.num_rows();
        if total == 0 {
            return SelectivityEstimate {
                selectivity: 0.0,
                posterior: None,
                source: EstimateSource::Exact,
            };
        }
        let hits = (0..total as u32).filter(|&rid| walk.satisfies(rid)).count();
        SelectivityEstimate {
            selectivity: hits as f64 / total as f64,
            posterior: None,
            source: EstimateSource::Exact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::ConfidenceThreshold;
    use rqo_datagen::{workload, TpchConfig, TpchData};
    use rqo_storage::Value;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            TpchData::generate(&TpchConfig {
                scale_factor: 0.01,
                seed: 77,
            })
            .into_catalog(),
        )
    }

    fn robust(cat: &Catalog, t: f64, n: usize, seed: u64) -> RobustEstimator {
        let repo = Arc::new(SynopsisRepository::build_all(cat, n, seed));
        RobustEstimator::new(
            repo,
            EstimatorConfig::with_threshold(ConfidenceThreshold::new(t)),
        )
    }

    #[test]
    fn robust_single_table_estimate() {
        let cat = catalog();
        let est = robust(&cat, 0.5, 500, 1);
        let pred = Expr::col("p_x").lt(Expr::lit(100i64));
        let r = est.estimate(&EstimationRequest::single("part", &pred));
        assert!(
            matches!(r.source, EstimateSource::JoinSynopsis { ref root, n: 500, .. } if root == "part")
        );
        assert!((r.selectivity - 0.1).abs() < 0.05, "sel {}", r.selectivity);
        assert!(r.posterior.is_some());
    }

    #[test]
    fn feedback_takes_precedence_over_synopsis() {
        let cat = catalog();
        let pred = Expr::col("p_x").lt(Expr::lit(100i64));
        let req = EstimationRequest::single("part", &pred);

        let store = Arc::new(crate::feedback::FeedbackStore::new());
        let est = robust(&cat, 0.5, 500, 1).with_feedback(Arc::clone(&store));

        // Empty store: behaves exactly like the plain robust estimator.
        let before = est.estimate(&req);
        assert!(matches!(before.source, EstimateSource::JoinSynopsis { .. }));

        store.record(&["part"], &[("part", &pred)], 0.123);
        let after = est.estimate(&req);
        assert_eq!(after.source, EstimateSource::Feedback);
        assert_eq!(after.selectivity, 0.123);
        assert!(after.posterior.is_none());

        // The hinted (per-query threshold) variant keeps the store.
        let hinted = est.hinted(ConfidenceThreshold::new(0.95)).unwrap();
        assert_eq!(hinted.estimate(&req).source, EstimateSource::Feedback);
    }

    #[test]
    fn robust_threshold_ordering() {
        let cat = catalog();
        let pred = workload::exp1_lineitem_predicate(90);
        let req = EstimationRequest::single("lineitem", &pred);
        let mut prev = 0.0;
        for t in [0.05, 0.5, 0.95] {
            let est = robust(&cat, t, 500, 3);
            let s = est.estimate(&req).selectivity;
            assert!(s >= prev, "threshold {t}: {s} < {prev}");
            prev = s;
        }
    }

    #[test]
    fn robust_join_expression_uses_root_synopsis() {
        let cat = catalog();
        let est = robust(&cat, 0.8, 400, 5);
        let pred = workload::exp2_part_predicate(120);
        let req = EstimationRequest::new(vec!["lineitem", "orders", "part"], vec![("part", &pred)]);
        let r = est.estimate(&req);
        match &r.source {
            EstimateSource::JoinSynopsis { root, n, .. } => {
                assert_eq!(root, "lineitem");
                assert_eq!(*n, 400);
            }
            other => panic!("unexpected source {other:?}"),
        }
    }

    #[test]
    fn robust_avi_fallback_without_covering_synopsis() {
        // orders + part share no FK root, so no synopsis covers them; the
        // estimator must fall back to independent samples with AVI.
        let cat = catalog();
        let est = robust(&cat, 0.5, 300, 7);
        let p1 = Expr::col("o_totalprice").gt(Expr::lit(0.0));
        let p2 = Expr::col("p_x").lt(Expr::lit(100i64));
        let req =
            EstimationRequest::new(vec!["orders", "part"], vec![("orders", &p1), ("part", &p2)]);
        let r = est.estimate(&req);
        assert_eq!(r.source, EstimateSource::IndependentSamples);
        // ~1.0 * ~0.1 under AVI.
        assert!((r.selectivity - 0.1).abs() < 0.06, "sel {}", r.selectivity);
    }

    #[test]
    fn strategy_ablation_mean_vs_mle_vs_percentile() {
        let cat = catalog();
        let repo = Arc::new(SynopsisRepository::build_all(&cat, 500, 11));
        let pred = workload::exp1_lineitem_predicate(100); // rare predicate
        let req = EstimationRequest::single("lineitem", &pred);

        let mk = |strategy| {
            RobustEstimator::new(
                Arc::clone(&repo),
                EstimatorConfig {
                    strategy,
                    ..EstimatorConfig::default()
                },
            )
        };
        let mle = mk(EstimationStrategy::MaximumLikelihood).estimate(&req);
        let mean = mk(EstimationStrategy::PosteriorMean).estimate(&req);
        let p95 = mk(EstimationStrategy::Percentile(ConfidenceThreshold::new(
            0.95,
        )))
        .estimate(&req);
        // For a rare predicate (small k), mean > mle (the prior pulls up)
        // and the 95th percentile dominates both.
        assert!(mean.selectivity >= mle.selectivity);
        assert!(p95.selectivity > mean.selectivity);
    }

    #[test]
    fn histogram_estimator_matches_marginals_but_misses_correlation() {
        let cat = catalog();
        let hist = HistogramEstimator::build_default(&cat);
        assert_eq!(hist.name(), "histogram-avi");
        assert!(hist.stored_bytes() > 0);

        // Marginal: p_x < 100 is 10%; histograms get this right.
        let marginal = Expr::col("p_x").lt(Expr::lit(100i64));
        let r = hist.estimate(&EstimationRequest::single("part", &marginal));
        assert!((r.selectivity - 0.1).abs() < 0.02, "sel {}", r.selectivity);

        // Joint: AVI says sel(p_x)·sel(p_y) ≈ 0.09% regardless of the
        // window position, although the truth varies from ~0.45% to 0.
        let part = cat.table("part").unwrap();
        for window in [100i64, 240] {
            let joint = workload::exp2_part_predicate(window);
            let r = hist.estimate(&EstimationRequest::single("part", &joint));
            assert!(
                (r.selectivity - 0.0009).abs() < 0.0006,
                "window {window}: AVI sel {}",
                r.selectivity
            );
            let truth = workload::true_selectivity(part, &joint);
            if window == 100 {
                assert!(truth > 0.003, "truth {truth}");
            } else {
                assert_eq!(truth, 0.0);
            }
        }
    }

    #[test]
    fn histogram_magic_constants_for_unsupported_shapes() {
        let cat = catalog();
        let hist = HistogramEstimator::build_default(&cat);
        // LIKE on a string column: no histogram shape.
        let like = Expr::col("p_brand").like("Brand#1%");
        let r = hist.estimate(&EstimationRequest::single("part", &like));
        assert!((r.selectivity - 1.0 / 3.0).abs() < 1e-12);
        // IN list scales the equality magic.
        let inl =
            Expr::col("p_brand").in_list(vec![Value::str("Brand#11"), Value::str("Brand#12")]);
        let r = hist.estimate(&EstimationRequest::single("part", &inl));
        assert!((r.selectivity - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sampling_handles_arbitrary_predicate_shapes() {
        // Paper §3.2, point 3: sampling "is not restricted to equality and
        // range predicates, but works for almost any type of query
        // predicate, including arithmetic expressions, substring matches".
        // Histograms must fall back to magic constants for these shapes.
        let cat = catalog();
        let est = robust(&cat, 0.5, 500, 19);
        let hist = HistogramEstimator::build_default(&cat);

        // Arithmetic: unit price above a cutoff (price/quantity is not a
        // column).
        let arith = Expr::col("l_extendedprice")
            .div(Expr::col("l_quantity"))
            .gt(Expr::lit(950.0));
        let truth = workload::true_selectivity(cat.table("lineitem").unwrap(), &arith);
        let req = EstimationRequest::single("lineitem", &arith);
        let robust_est = est.estimate(&req);
        assert!(
            (robust_est.selectivity - truth).abs() < 0.08,
            "robust {} vs truth {truth}",
            robust_est.selectivity
        );
        let hist_est = hist.estimate(&req);
        assert!(
            (hist_est.selectivity - 1.0 / 3.0).abs() < 1e-12,
            "magic fallback"
        );

        // Substring match through the FK join: brand prefix on part,
        // estimated from the lineitem synopsis.
        let like = Expr::col("p_brand").like("Brand#1%");
        let req = EstimationRequest::new(vec!["lineitem", "part"], vec![("part", &like)]);
        let r = est.estimate(&req);
        // 5 of 25 brands ⇒ ~20%.
        assert!((r.selectivity - 0.2).abs() < 0.08, "{}", r.selectivity);
    }

    #[test]
    fn empty_table_falls_back_to_magic() {
        use rqo_storage::{Schema, TableBuilder};
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs(&[("x", rqo_storage::DataType::Int)]);
        cat.add_table(TableBuilder::new("empty", schema, 0).finish())
            .unwrap();
        let cat = Arc::new(cat);
        let repo = Arc::new(SynopsisRepository::build_all(&cat, 100, 1));
        let est = RobustEstimator::new(repo, EstimatorConfig::default());
        let pred = Expr::col("x").eq(Expr::lit(1i64));
        let r = est.estimate(&EstimationRequest::single("empty", &pred));
        assert_eq!(r.source, EstimateSource::Magic);
        assert!((0.0..=1.0).contains(&r.selectivity));
        assert!(r.posterior.is_some());
    }

    #[test]
    fn oracle_is_exact() {
        let cat = catalog();
        let oracle = OracleEstimator::new(Arc::clone(&cat));
        let pred = Expr::col("p_x").lt(Expr::lit(100i64));
        let direct = workload::true_selectivity(cat.table("part").unwrap(), &pred);
        let r = oracle.estimate(&EstimationRequest::single("part", &pred));
        assert_eq!(r.source, EstimateSource::Exact);
        assert!((r.selectivity - direct).abs() < 1e-12);
    }

    #[test]
    fn oracle_join_expression() {
        let cat = catalog();
        let oracle = OracleEstimator::new(Arc::clone(&cat));
        let pred = Expr::col("p_x").lt(Expr::lit(100i64));
        let req = EstimationRequest::new(vec!["lineitem", "orders", "part"], vec![("part", &pred)]);
        let r = oracle.estimate(&req);
        // l_partkey is uniform over parts, so the joined fraction tracks
        // the part fraction (~10%).
        assert!((r.selectivity - 0.1).abs() < 0.02, "sel {}", r.selectivity);
    }

    #[test]
    fn robust_estimate_is_unbiased_under_mle() {
        let cat = catalog();
        let pred = workload::exp1_lineitem_predicate(60);
        let truth = workload::true_selectivity(cat.table("lineitem").unwrap(), &pred);
        let req = EstimationRequest::single("lineitem", &pred);
        let mut acc = 0.0;
        let reps = 20;
        for seed in 0..reps {
            let repo = Arc::new(SynopsisRepository::build_all(&cat, 500, seed));
            let est = RobustEstimator::new(
                repo,
                EstimatorConfig {
                    strategy: EstimationStrategy::MaximumLikelihood,
                    ..EstimatorConfig::default()
                },
            );
            acc += est.estimate(&req).selectivity;
        }
        let mean = acc / reps as f64;
        assert!(
            (mean - truth).abs() < 0.2 * truth.max(0.01),
            "mean {mean} vs truth {truth}"
        );
    }
}
