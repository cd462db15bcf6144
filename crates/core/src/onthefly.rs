//! On-the-fly sampling estimation — the *prior art* the paper's
//! precomputed join synopses replace (§3.2: "In contrast to previous
//! sampling-based approaches, which estimate selectivity based on samples
//! that are constructed on the fly at query execution time").
//!
//! This estimator draws a fresh uniform sample of each predicate-bearing
//! table at *estimation time* (Lipton/Naughton/Schneider-style adaptive
//! sampling, simplified to fixed-size draws).  It exists as a measurable baseline
//! for the two arguments the paper makes for precomputation:
//!
//! 1. **Run-time cost**: every optimizer call pays one random I/O per
//!    sampled tuple, charged to [`OnTheFlyEstimator::sampling_cost`] — at
//!    500 tuples/predicate that is ~1.75 simulated seconds *per estimate*
//!    under the default disk parameters, often more than executing the
//!    query.
//! 2. **Joins**: independent per-table samples almost never contain
//!    matching join keys, so join selectivities must fall back to the AVI
//!    product of per-table estimates — precisely the failure mode the
//!    join synopsis exists to avoid.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rqo_expr::{select, Candidates};
use rqo_stats::sampler::sample_with_replacement;
use rqo_storage::{Catalog, CostTracker};

use crate::config::{EstimationStrategy, EstimatorConfig};
use crate::estimator::{
    CardinalityEstimator, EstimateSource, EstimationRequest, SelectivityEstimate,
};
use crate::posterior::SelectivityPosterior;

/// A per-estimate, per-table sampling estimator (no precomputation).
#[derive(Debug)]
pub struct OnTheFlyEstimator {
    catalog: Arc<Catalog>,
    config: EstimatorConfig,
    sample_size: usize,
    seed: u64,
    calls: AtomicU64,
    sampled_tuples: AtomicU64,
}

impl OnTheFlyEstimator {
    /// Creates the estimator; each estimate draws fresh `sample_size`-
    /// tuple samples, deterministically derived from `seed` and the call
    /// counter.
    pub fn new(
        catalog: Arc<Catalog>,
        config: EstimatorConfig,
        sample_size: usize,
        seed: u64,
    ) -> Self {
        Self {
            catalog,
            config,
            sample_size,
            seed,
            calls: AtomicU64::new(0),
            sampled_tuples: AtomicU64::new(0),
        }
    }

    /// Number of estimation calls served so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The cumulative simulated I/O of all run-time sampling so far: one
    /// random page read per sampled tuple (samples are scattered by
    /// construction).  This is the overhead precomputed synopses
    /// eliminate.
    pub fn sampling_cost(&self) -> CostTracker {
        let mut t = CostTracker::new();
        t.charge_random_ios(self.sampled_tuples.load(Ordering::Relaxed));
        t
    }

    fn collapse(&self, posterior: &SelectivityPosterior) -> f64 {
        match self.config.strategy {
            EstimationStrategy::Percentile(t) => posterior.at_threshold(t),
            EstimationStrategy::PosteriorMean => posterior.mean(),
            EstimationStrategy::MaximumLikelihood => posterior.mle(),
        }
    }
}

impl CardinalityEstimator for OnTheFlyEstimator {
    fn name(&self) -> &str {
        "on-the-fly-sampling"
    }

    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let mut rng = StdRng::seed_from_u64(self.seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // Per-table fresh samples, combined under AVI: without a
        // precomputed join, independent samples cannot observe cross-table
        // correlation (§3.2's motivating failure).
        let mut selectivity = 1.0;
        let mut single_posterior = None;
        for (table, expr) in &request.predicates {
            let t = self.catalog.table(table).expect("table exists");
            let rids = sample_with_replacement(t, self.sample_size, &mut rng);
            self.sampled_tuples
                .fetch_add(rids.len() as u64, Ordering::Relaxed);
            if rids.is_empty() {
                selectivity *= self.config.magic.selectivity(self.config.threshold());
                continue;
            }
            let bound = expr.bind(t.schema()).expect("predicate binds");
            let sample = t.take(&rids);
            let k = select(&bound, sample.columns(), Candidates::Range(0..rids.len())).len();
            let posterior =
                SelectivityPosterior::from_observation(k, rids.len(), self.config.prior);
            selectivity *= self.collapse(&posterior);
            single_posterior = Some(posterior);
        }
        let single_predicate = request.predicates.len() == 1;
        SelectivityEstimate {
            selectivity,
            posterior: if single_predicate {
                single_posterior
            } else {
                None
            },
            source: EstimateSource::IndependentSamples,
        }
    }

    fn hinted(
        &self,
        threshold: crate::confidence::ConfidenceThreshold,
    ) -> Option<Box<dyn CardinalityEstimator>> {
        Some(Box::new(Self::new(
            Arc::clone(&self.catalog),
            self.config.hinted(threshold),
            self.sample_size,
            self.seed,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::ConfidenceThreshold;
    use crate::estimator::OracleEstimator;
    use rqo_datagen::{workload, TpchConfig, TpchData};
    use rqo_expr::Expr;
    use rqo_storage::CostParams;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            TpchData::generate(&TpchConfig {
                scale_factor: 0.01,
                seed: 99,
            })
            .into_catalog(),
        )
    }

    fn estimator(cat: &Arc<Catalog>) -> OnTheFlyEstimator {
        OnTheFlyEstimator::new(
            Arc::clone(cat),
            EstimatorConfig::with_threshold(ConfidenceThreshold::new(0.5)),
            500,
            7,
        )
    }

    #[test]
    fn single_table_estimates_track_truth() {
        let cat = catalog();
        let est = estimator(&cat);
        let pred = Expr::col("p_x").lt(Expr::lit(100i64));
        let truth = workload::true_selectivity(cat.table("part").unwrap(), &pred);
        let r = est.estimate(&EstimationRequest::single("part", &pred));
        assert!(
            (r.selectivity - truth).abs() < 0.05,
            "{} vs {truth}",
            r.selectivity
        );
        assert!(r.posterior.is_some());
        assert_eq!(r.source, EstimateSource::IndependentSamples);
    }

    #[test]
    fn join_correlation_is_invisible() {
        // The single-table (exp1) correlated conjunction: the on-the-fly
        // sampler evaluates the whole predicate on one table's sample, so
        // here it does fine...
        let cat = catalog();
        let est = estimator(&cat);
        let oracle = OracleEstimator::new(Arc::clone(&cat));
        let single = workload::exp1_lineitem_predicate(130); // truth 0
        let r = est.estimate(&EstimationRequest::single("lineitem", &single));
        assert!(r.selectivity < 0.01, "{}", r.selectivity);

        // ...but a *cross-table* correlation is invisible: the exp3 star
        // query's joint match fraction at level 9 is ~10%, yet independent
        // dim samples see only the 10% marginals and AVI multiplies them
        // to 0.1%.
        let star = Arc::new(
            rqo_datagen::StarData::generate(&rqo_datagen::StarConfig {
                fact_rows: 50_000,
                seed: 3,
            })
            .into_catalog(),
        );
        let est = OnTheFlyEstimator::new(
            Arc::clone(&star),
            EstimatorConfig::with_threshold(ConfidenceThreshold::new(0.5)),
            500,
            7,
        );
        let dpred = workload::exp3_dim_predicate(9);
        let req = EstimationRequest::new(
            vec!["fact", "dim1", "dim2", "dim3"],
            vec![("dim1", &dpred), ("dim2", &dpred), ("dim3", &dpred)],
        );
        let otf = est.estimate(&req).selectivity;
        let oracle_star = OracleEstimator::new(Arc::clone(&star));
        let truth = oracle_star.estimate(&req).selectivity;
        assert!(truth > 0.08, "designed level-9 fraction, got {truth}");
        assert!(
            otf < truth / 20.0,
            "AVI-composed on-the-fly estimate {otf} cannot see the joint {truth}"
        );
        let _ = oracle; // single-table oracle kept for symmetry
    }

    #[test]
    fn sampling_cost_accumulates_per_call() {
        let cat = catalog();
        let est = estimator(&cat);
        let pred = Expr::col("p_x").lt(Expr::lit(100i64));
        let req = EstimationRequest::single("part", &pred);
        assert_eq!(est.calls(), 0);
        for _ in 0..4 {
            est.estimate(&req);
        }
        assert_eq!(est.calls(), 4);
        let cost = est.sampling_cost();
        assert_eq!(cost.random_ios, 4 * 500);
        // Under default disk parameters that is 4 × 1.75 simulated seconds
        // of pure estimation I/O — the overhead precomputation removes.
        let params = CostParams::default();
        assert!(cost.seconds(&params) > 6.9, "{}", cost.seconds(&params));
    }

    #[test]
    fn estimates_vary_across_calls_but_are_seed_deterministic() {
        let cat = catalog();
        let pred = workload::exp1_lineitem_predicate(90);
        let req = EstimationRequest::single("lineitem", &pred);
        let a = estimator(&cat);
        let first = a.estimate(&req).selectivity;
        let second = a.estimate(&req).selectivity;
        // Fresh samples per call: repeated estimates of the same predicate
        // wobble (the plan-stability hazard of run-time sampling)...
        // (they *may* coincide; just ensure determinism across instances.)
        let b = estimator(&cat);
        assert_eq!(b.estimate(&req).selectivity, first);
        assert_eq!(b.estimate(&req).selectivity, second);
    }

    #[test]
    fn hint_changes_threshold() {
        let cat = catalog();
        let est = estimator(&cat);
        let hinted = est.hinted(ConfidenceThreshold::new(0.95)).unwrap();
        let pred = workload::exp1_lineitem_predicate(120);
        let req = EstimationRequest::single("lineitem", &pred);
        // Same seed and call index → same sample → higher threshold must
        // not decrease the estimate.
        let base = estimator(&cat).estimate(&req).selectivity;
        let high = hinted.estimate(&req).selectivity;
        assert!(high >= base);
        assert_eq!(est.name(), "on-the-fly-sampling");
    }
}
